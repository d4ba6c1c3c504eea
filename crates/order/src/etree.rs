//! Elimination tree, postorder and factor column counts.
//!
//! Implements the classic structures from Liu, *"The role of elimination
//! trees in sparse factorization"* (reference \[19\] of the paper), and the
//! column counts of Gilbert, Ng and Peyton, *"An efficient algorithm to
//! compute row and column counts for sparse Cholesky factorization"* (SIAM
//! J. Matrix Anal. Appl. 15(4), 1994).
//!
//! The routines that read a matrix read a symmetric pattern `S` through a
//! permutation `P`: column `j` of `P S Pᵀ` is `S.col_rows(P.old_of(j))`
//! mapped through `P.new_of`, so no permuted copy is ever built. None of
//! them depends on the order of the rows within a column.

use crate::perm::Permutation;
use pselinv_sparse::SparsityPattern;

/// Sentinel for "no parent" (tree roots).
pub const NONE: usize = usize::MAX;

/// Computes the elimination tree of `P S Pᵀ`.
///
/// `sym` must be square and structurally symmetric (the diagonal is not
/// needed); the identity permutation gives the tree of `S` itself. Returns
/// `parent` where `parent[j]` is the etree parent of column `j` of the
/// permuted matrix (`NONE` for roots).
///
/// Uses Liu's algorithm with path compression (`ancestor`), O(nnz·α), on the
/// upper-triangle entries `(i, j)`, `i < j`, of the permuted matrix.
pub fn elimination_tree(sym: &SparsityPattern, perm: &Permutation) -> Vec<usize> {
    let n = sym.ncols();
    assert_eq!(sym.nrows(), n, "etree requires a square pattern");
    assert_eq!(perm.len(), n, "permutation does not match the pattern");
    let (new_of, old_of) = (perm.new_of_old(), perm.old_of_new());
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for j in 0..n {
        for &i in sym.col_rows(old_of[j]) {
            let mut k = new_of[i];
            if k >= j {
                continue;
            }
            // Climb from k to the root of its current subtree, compressing.
            while ancestor[k] != NONE && ancestor[k] != j {
                let next = ancestor[k];
                ancestor[k] = j;
                k = next;
            }
            if ancestor[k] == NONE {
                ancestor[k] = j;
                parent[k] = j;
            }
        }
    }
    parent
}

/// Builds first-child / next-sibling lists from a parent array.
/// Children end up ordered by decreasing index, which `postorder` reverses
/// into increasing order, keeping the postorder stable.
fn children_lists(parent: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = parent.len();
    let mut first_child = vec![NONE; n];
    let mut next_sibling = vec![NONE; n];
    for j in (0..n).rev() {
        let p = parent[j];
        if p != NONE {
            next_sibling[j] = first_child[p];
            first_child[p] = j;
        }
    }
    (first_child, next_sibling)
}

/// Computes a postorder of the forest described by `parent`.
///
/// Returns `post` as a "new → old" map: `post[k]` is the node visited k-th.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let (first_child, next_sibling) = children_lists(parent);
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for root in 0..n {
        if parent[root] != NONE {
            continue;
        }
        stack.push((root, false));
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                post.push(node);
            } else {
                stack.push((node, true));
                let mut c = first_child[node];
                // push children; they pop in reverse push order, and
                // children_lists produced increasing order, so push as-is
                // reversed to visit the smallest child first.
                let mut kids = Vec::new();
                while c != NONE {
                    kids.push(c);
                    c = next_sibling[c];
                }
                for &k in kids.iter().rev() {
                    stack.push((k, false));
                }
            }
        }
    }
    assert_eq!(post.len(), n, "parent array contains a cycle");
    post
}

/// Relabels a parent array after applying a permutation
/// (`perm_new_of_old[j]` = new label of old node `j`).
pub fn relabel_parent(parent: &[usize], perm_new_of_old: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut out = vec![NONE; n];
    for old in 0..n {
        let new = perm_new_of_old[old];
        out[new] = if parent[old] == NONE { NONE } else { perm_new_of_old[parent[old]] };
    }
    out
}

/// Column counts of the Cholesky factor `L` of `P S Pᵀ`, diagonal included.
///
/// `parent` is the elimination tree of `P S Pᵀ`, and the identity must be a
/// postorder of it: every subtree is the range of columns that ends at its
/// root, as after relabeling a tree by its [`postorder`].
///
/// Gilbert–Ng–Peyton, O(nnz(S)·α(n)) time and O(n) space. `L_{ij} ≠ 0`
/// (`i > j`) iff `j` lies in the *row subtree* of `i`, the union of the
/// etree paths from every `k < i` with `S_{ik} ≠ 0` up to `i`, so the count
/// of column `j` is the number of row subtrees through `j`. Only the
/// subtree's leaves matter (a `k` none of whose descendants met row `i`
/// before): per-node deltas, summed up the tree, put +1 on each leaf and −1
/// on the least common ancestor of each leaf and the one before it, where
/// their two paths merge (found in a path-compressed ancestor set). With +1
/// on every etree leaf and −1 on a parent per child, the sum over `j`'s
/// subtree is the number of row subtrees that reach `j`, its own included.
pub fn column_counts(sym: &SparsityPattern, perm: &Permutation, parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    assert_eq!(sym.ncols(), n, "etree does not match the pattern");
    assert_eq!(perm.len(), n, "permutation does not match the pattern");
    let (new_of, old_of) = (perm.new_of_old(), perm.old_of_new());
    let first = first_descendants(parent);
    debug_assert!(is_postordered(parent, &first), "the identity is not a postorder of the etree");
    // +1 on every etree leaf: the one node that is its own first descendant.
    let mut delta: Vec<isize> = (0..n).map(|k| isize::from(first[k] == k)).collect();
    // Per row i: the latest leaf of its row subtree and that leaf's first[].
    let mut prevleaf = vec![NONE; n];
    let mut maxfirst = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] -= 1;
        }
        for &i in sym.col_rows(old_of[j]) {
            let i = new_of[i];
            if i <= j || (maxfirst[i] != NONE && first[j] <= maxfirst[i]) {
                continue; // j is not a leaf of i's row subtree
            }
            maxfirst[i] = first[j];
            delta[j] += 1;
            let prev = std::mem::replace(&mut prevleaf[i], j);
            if prev != NONE {
                let mut q = prev;
                while ancestor[q] != q {
                    q = ancestor[q];
                }
                let mut s = prev;
                while s != q {
                    let next = ancestor[s];
                    ancestor[s] = q;
                    s = next;
                }
                delta[q] -= 1;
            }
        }
        if parent[j] != NONE {
            ancestor[j] = parent[j];
        }
    }
    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] += delta[j];
        }
    }
    delta.into_iter().map(|d| usize::try_from(d).expect("a column count is positive")).collect()
}

/// `first[j]`: the smallest column of `j`'s subtree.
fn first_descendants(parent: &[usize]) -> Vec<usize> {
    let mut first = vec![NONE; parent.len()];
    for k in 0..parent.len() {
        let mut j = k;
        while j != NONE && first[j] == NONE {
            first[j] = k;
            j = parent[j];
        }
    }
    first
}

/// `true` when every subtree of `parent` is the range `first[j]..=j`.
fn is_postordered(parent: &[usize], first: &[usize]) -> bool {
    let mut size = vec![1usize; parent.len()];
    for j in 0..parent.len() {
        if parent[j] != NONE {
            if parent[j] <= j {
                return false;
            }
            size[parent[j]] += size[j];
        }
    }
    (0..parent.len()).all(|j| first[j] + size[j] == j + 1)
}

/// Column and row counts of `L` for a pattern that includes the diagonal,
/// by the O(nnz(L)) row-subtree walk: for row `i`, climb the etree from
/// every `j < i` with `A_{ij} ≠ 0` until a node already visited for `i`.
/// Works for any etree labeling; the tests' oracle for [`column_counts`].
#[cfg(test)]
pub(crate) fn factor_counts(
    pattern: &SparsityPattern,
    parent: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let n = pattern.ncols();
    let mut col_counts = vec![1usize; n]; // diagonal
    let mut row_counts = vec![1usize; n]; // diagonal
    let mut mark = vec![NONE; n];
    for i in 0..n {
        mark[i] = i; // the root of row subtree i is i itself
        for &j in pattern.col_rows(i) {
            let mut k = j;
            if k >= i {
                continue;
            }
            while mark[k] != i {
                mark[k] = i;
                col_counts[k] += 1;
                row_counts[i] += 1;
                k = parent[k];
                debug_assert!(k != NONE, "etree inconsistent with pattern");
            }
        }
    }
    (col_counts, row_counts)
}

/// `P S Pᵀ` materialized, rows sorted: the tests' oracle for reading a
/// pattern through a permutation.
#[cfg(test)]
pub(crate) fn permute_pattern(p: &SparsityPattern, perm: &Permutation) -> SparsityPattern {
    let n = p.ncols();
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        cols[perm.new_of(j)].extend(p.col_rows(j).iter().map(|&i| perm.new_of(i)));
    }
    let mut col_ptr = vec![0usize; n + 1];
    let mut rows = Vec::with_capacity(p.nnz());
    for (j, c) in cols.iter_mut().enumerate() {
        c.sort_unstable();
        rows.extend_from_slice(c);
        col_ptr[j + 1] = rows.len();
    }
    SparsityPattern::from_raw_parts(n, n, col_ptr, rows)
}

/// Total number of nonzeros in `L` (diagonal included), from column counts.
pub fn nnz_factor(col_counts: &[usize]) -> usize {
    col_counts.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_sparse::{gen, SparseMatrix, TripletMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dense symbolic Cholesky, the O(n³) oracle.
    fn dense_symbolic(pattern: &SparsityPattern) -> Vec<Vec<bool>> {
        let n = pattern.ncols();
        let mut a = vec![vec![false; n]; n];
        for j in 0..n {
            for &i in pattern.col_rows(j) {
                a[i][j] = true;
                a[j][i] = true;
            }
            a[j][j] = true;
        }
        // left-to-right fill: L structure
        let mut l = vec![vec![false; n]; n];
        for j in 0..n {
            for i in j..n {
                l[i][j] = a[i][j];
            }
            for k in 0..j {
                if l[j][k] {
                    for i in j..n {
                        if l[i][k] {
                            l[i][j] = true;
                        }
                    }
                }
            }
        }
        l
    }

    fn oracle_etree(l: &[Vec<bool>]) -> Vec<usize> {
        let n = l.len();
        let mut parent = vec![NONE; n];
        for j in 0..n {
            for i in (j + 1)..n {
                if l[i][j] {
                    parent[j] = i;
                    break;
                }
            }
        }
        parent
    }

    fn sym(m: &SparseMatrix) -> SparsityPattern {
        m.pattern().symmetrized_with_diagonal()
    }

    fn etree(p: &SparsityPattern) -> Vec<usize> {
        elimination_tree(p, &Permutation::identity(p.ncols()))
    }

    /// A uniformly random permutation (Fisher–Yates).
    fn shuffled(n: usize, rng: &mut StdRng) -> Permutation {
        let mut order: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            order.swap(k, rng.random_range(0..k + 1));
        }
        Permutation::from_old_of_new(order)
    }

    /// Symmetric patterns with a diagonal: random SPD, grids, DG, forests
    /// (a diagonal matrix, two disconnected blocks) and n ∈ {0, 1}.
    fn model_patterns() -> Vec<(String, SparsityPattern)> {
        let mut out = vec![
            ("empty".to_string(), SparsityPattern::from_raw_parts(0, 0, vec![0], Vec::new())),
            ("one".to_string(), sym(&SparseMatrix::identity(1))),
            ("diagonal".to_string(), sym(&SparseMatrix::identity(9))),
            ("lap2d".to_string(), sym(&gen::grid_laplacian_2d(9, 7).matrix)),
            ("lap3d".to_string(), sym(&gen::grid_laplacian_3d(4, 4, 3).matrix)),
            ("dg".to_string(), sym(&gen::dg_hamiltonian(3, 2, 2, 4, 3).matrix)),
        ];
        for seed in 0..6 {
            let density = [0.03, 0.08, 0.2][seed as usize % 3];
            out.push((format!("spd/{seed}"), sym(&gen::random_spd(60, density, seed))));
        }
        let lap = gen::grid_laplacian_2d(5, 4).matrix;
        let spd = gen::random_spd(15, 0.2, 4);
        let n = lap.nrows();
        let mut t = TripletMatrix::new(n + spd.nrows(), n + spd.nrows());
        lap.iter().for_each(|(i, j, v)| t.push(i, j, v));
        spd.iter().for_each(|(i, j, v)| t.push(n + i, n + j, v));
        out.push(("two-blocks".to_string(), sym(&t.to_csc())));
        out
    }

    #[test]
    fn etree_matches_dense_oracle_on_grid() {
        let p = sym(&gen::grid_laplacian_2d(4, 4).matrix);
        assert_eq!(etree(&p), oracle_etree(&dense_symbolic(&p)));
    }

    #[test]
    fn etree_matches_dense_oracle_on_random() {
        for seed in 0..5 {
            let p = sym(&gen::random_spd(30, 0.15, seed));
            assert_eq!(etree(&p), oracle_etree(&dense_symbolic(&p)), "seed {seed}");
        }
    }

    #[test]
    fn counts_match_dense_oracle() {
        for seed in 0..5 {
            let p = sym(&gen::random_spd(25, 0.2, seed));
            let (cc, rc) = factor_counts(&p, &etree(&p));
            let l = dense_symbolic(&p);
            for j in 0..25 {
                let dense_cc = (j..25).filter(|&i| l[i][j]).count();
                assert_eq!(cc[j], dense_cc, "col {j} seed {seed}");
                let dense_rc = (0..=j).filter(|&k| l[j][k]).count();
                assert_eq!(rc[j], dense_rc, "row {j} seed {seed}");
            }
        }
    }

    #[test]
    fn permuted_etree_equals_the_etree_of_the_permuted_pattern() {
        let mut rng = StdRng::seed_from_u64(11);
        for (label, p) in model_patterns() {
            for round in 0..4 {
                let perm = shuffled(p.ncols(), &mut rng);
                let materialized = permute_pattern(&p, &perm);
                assert_eq!(
                    elimination_tree(&p, &perm),
                    etree(&materialized),
                    "{label}, permutation {round}"
                );
            }
        }
    }

    #[test]
    fn column_counts_equal_the_row_subtree_walk() {
        let mut rng = StdRng::seed_from_u64(12);
        for (label, p) in model_patterns() {
            for round in 0..4 {
                // A random order, then the postorder of its etree — the
                // order `analyze` hands to `column_counts`.
                let fill = shuffled(p.ncols(), &mut rng);
                let parent0 = elimination_tree(&p, &fill);
                let post = Permutation::from_old_of_new(postorder(&parent0));
                let perm = fill.then(&post);
                let parent = relabel_parent(&parent0, post.new_of_old());
                assert_eq!(parent, elimination_tree(&p, &perm), "{label}: relabeled etree");
                let (oracle, _) = factor_counts(&permute_pattern(&p, &perm), &parent);
                assert_eq!(column_counts(&p, &perm, &parent), oracle, "{label}, order {round}");
            }
        }
    }

    #[test]
    fn postorder_check_rejects_a_non_postorder() {
        let check = |parent: &[usize]| is_postordered(parent, &first_descendants(parent));
        assert!(check(&[2, 2, NONE]));
        assert!(check(&[3, 2, 3, NONE]));
        // a parent below its child
        assert!(!check(&[1, NONE, 1]));
        // the subtree of 2 is {0, 2}, not a range
        assert!(!check(&[2, 3, 3, NONE]));
    }

    #[test]
    fn postorder_is_a_valid_postorder() {
        let parent = etree(&sym(&gen::grid_laplacian_2d(5, 5).matrix));
        let post = postorder(&parent);
        let n = parent.len();
        // bijection
        let mut seen = vec![false; n];
        for &x in &post {
            assert!(!seen[x]);
            seen[x] = true;
        }
        // every node appears after all its children
        let mut pos = vec![0usize; n];
        for (k, &x) in post.iter().enumerate() {
            pos[x] = k;
        }
        for j in 0..n {
            if parent[j] != NONE {
                assert!(pos[j] < pos[parent[j]], "child {j} after parent");
            }
        }
    }

    #[test]
    fn postorder_makes_etree_monotone() {
        // After relabeling by postorder, parent[j] > j must hold.
        let parent = etree(&sym(&gen::random_spd(40, 0.1, 3)));
        let perm = Permutation::from_old_of_new(postorder(&parent));
        let relabeled = relabel_parent(&parent, perm.new_of_old());
        for j in 0..parent.len() {
            if relabeled[j] != NONE {
                assert!(relabeled[j] > j);
            }
        }
    }

    #[test]
    fn chain_etree() {
        // tridiagonal matrix → etree is a chain
        let p = sym(&gen::grid_laplacian_2d(6, 1).matrix);
        let parent = etree(&p);
        for j in 0..5 {
            assert_eq!(parent[j], j + 1);
        }
        assert_eq!(parent[5], NONE);
        assert_eq!(column_counts(&p, &Permutation::identity(6), &parent), vec![2, 2, 2, 2, 2, 1]);
    }
}
