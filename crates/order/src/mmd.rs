//! Minimum-degree fill-reducing ordering for general symmetric matrices.
//!
//! A quotient-graph minimum-degree ordering in the spirit of AMD (Amestoy,
//! Davis, Duff) with element absorption but exact external degrees and no
//! supervariable detection. It is deterministic (ties broken by smallest
//! index). Grid-born matrices should prefer the geometric nested dissection
//! in [`crate::nd`]; this ordering exists for matrices without geometry
//! (e.g. those read from Matrix Market files).

use crate::perm::Permutation;
use pselinv_sparse::SparsityPattern;

/// Computes a minimum-degree permutation ("old → new") for a structurally
/// symmetric pattern (diagonal entries are ignored). [`crate::analyze`]
/// passes the pattern it symmetrized; an unsymmetric pattern must be
/// symmetrized first.
pub fn minimum_degree(sym: &SparsityPattern) -> Permutation {
    let n = sym.ncols();
    assert_eq!(sym.nrows(), n);

    // Quotient graph state.
    // adj[v]: adjacent *variables* (may contain stale entries, cleaned lazily)
    // elems[v]: adjacent *elements* (indices of eliminated pivots)
    // elem_rows[e]: variables of element e (cleaned of eliminated vars lazily)
    let mut adj: Vec<Vec<usize>> =
        (0..n).map(|j| sym.col_rows(j).iter().copied().filter(|&i| i != j).collect()).collect();
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];

    // Degree buckets with lazy deletion.
    let mut degree: Vec<usize> = adj.iter().map(|a| a.len()).collect();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n.max(1)];
    for v in 0..n {
        buckets[degree[v].min(n - 1)].push(v);
    }
    let mut min_bucket = 0usize;

    let mut order: Vec<usize> = Vec::with_capacity(n); // new -> old
    let mut mark = vec![usize::MAX; n];
    let mut stamp = 0usize;

    while order.len() < n {
        // Find the minimum-degree uneliminated variable (lazy buckets).
        let p = loop {
            while min_bucket < buckets.len() && buckets[min_bucket].is_empty() {
                min_bucket += 1;
            }
            assert!(min_bucket < buckets.len(), "bucket structure exhausted early");
            let v = buckets[min_bucket].pop().unwrap();
            if !eliminated[v] && degree[v].min(n - 1) == min_bucket {
                break v;
            }
            // stale entry — skip
        };

        // Form element p: L_p = (adj[p] ∪ ⋃ elem_rows[e]) \ eliminated \ {p}
        stamp += 1;
        let mut lp: Vec<usize> = Vec::new();
        mark[p] = stamp;
        for &v in &adj[p] {
            if !eliminated[v] && mark[v] != stamp {
                mark[v] = stamp;
                lp.push(v);
            }
        }
        for &e in &elems[p] {
            for &v in &elem_rows[e] {
                if !eliminated[v] && mark[v] != stamp {
                    mark[v] = stamp;
                    lp.push(v);
                }
            }
        }
        lp.sort_unstable();

        eliminated[p] = true;
        order.push(p);
        let absorbed: Vec<usize> = elems[p].clone();

        // Update each variable in the new element.
        for &v in &lp {
            // Remove variables now covered by element p and stale entries.
            adj[v].retain(|&u| !eliminated[u] && mark[u] != stamp);
            // Remove absorbed elements, then add element p.
            if !absorbed.is_empty() {
                elems[v].retain(|e| !absorbed.contains(e));
            }
            elems[v].retain(|&e| e != p);
            elems[v].push(p);
        }
        elem_rows[p] = lp.clone();
        for &e in &absorbed {
            elem_rows[e] = Vec::new(); // absorbed into p
        }
        elems[p] = Vec::new();
        adj[p] = Vec::new();

        // Recompute exact external degrees of updated variables.
        for &v in &lp {
            stamp += 1;
            mark[v] = stamp;
            let mut d = 0usize;
            for &u in &adj[v] {
                if !eliminated[u] && mark[u] != stamp {
                    mark[u] = stamp;
                    d += 1;
                }
            }
            for &e in &elems[v] {
                for &u in &elem_rows[e] {
                    if !eliminated[u] && mark[u] != stamp {
                        mark[u] = stamp;
                        d += 1;
                    }
                }
            }
            degree[v] = d;
            let b = d.min(n - 1);
            buckets[b].push(v);
            if b < min_bucket {
                min_bucket = b;
            }
        }
    }
    Permutation::from_old_of_new(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{elimination_tree, factor_counts, nnz_factor};
    use pselinv_sparse::gen;

    fn fill_of(m: &pselinv_sparse::SparseMatrix, perm: Option<&Permutation>) -> usize {
        let pm = match perm {
            Some(p) => m.permute_sym(p.new_of_old()),
            None => m.clone(),
        };
        let pat = pm.pattern().symmetrized_with_diagonal();
        let parent = elimination_tree(&pat, &Permutation::identity(pat.ncols()));
        let (cc, _) = factor_counts(&pat, &parent);
        nnz_factor(&cc)
    }

    #[test]
    fn permutation_is_bijective() {
        let m = gen::random_spd(50, 0.1, 1);
        let p = minimum_degree(&m.pattern());
        assert_eq!(p.len(), 50);
    }

    #[test]
    fn reduces_fill_on_grid() {
        let w = gen::grid_laplacian_2d(16, 16);
        let natural = fill_of(&w.matrix, None);
        let p = minimum_degree(&w.matrix.pattern());
        let md = fill_of(&w.matrix, Some(&p));
        assert!(md < natural, "MD fill {md} >= natural fill {natural}");
    }

    #[test]
    fn arrow_matrix_ordered_last() {
        // Arrow matrix: dense first row/col. Natural order fills completely;
        // MD must eliminate the hub last, giving zero fill.
        let n = 20;
        let mut t = pselinv_sparse::TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
        }
        for i in 1..n {
            t.push_sym(i, 0, -1.0);
        }
        let m = t.to_csc();
        let p = minimum_degree(&m.pattern());
        // The hub must survive until only degree ties remain (last two).
        assert!(p.new_of(0) >= n - 2, "hub must be eliminated (next to) last");
        let fill = fill_of(&m, Some(&p));
        assert_eq!(fill, 2 * n - 1, "arrow matrix must factor with zero fill");
    }

    #[test]
    fn deterministic() {
        let m = gen::random_spd(60, 0.08, 5);
        let p1 = minimum_degree(&m.pattern());
        let p2 = minimum_degree(&m.pattern());
        assert_eq!(p1, p2);
    }

    #[test]
    fn handles_diagonal_matrix() {
        let m = pselinv_sparse::SparseMatrix::identity(8);
        let p = minimum_degree(&m.pattern());
        assert_eq!(p.len(), 8);
    }
}
