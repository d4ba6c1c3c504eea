//! Supernodal symbolic factorization.
//!
//! [`analyze`] runs the full analysis pipeline (symmetrization → ordering →
//! postorder → column counts → supernode partition → supernodal structure)
//! and returns a [`SymbolicFactor`], the structure shared by the sequential
//! numeric factorization, the sequential selected inversion and the
//! distributed PSelInv algorithm.

use crate::etree::{self, NONE};
use crate::mmd;
use crate::nd::{self, NdOptions};
use crate::perm::Permutation;
use crate::supernodes::{self, SupernodeOptions, SupernodePartition};
use pselinv_sparse::gen::Geometry;
use pselinv_sparse::SparsityPattern;
use std::borrow::Cow;

/// Fill-reducing ordering selection.
#[derive(Clone, Copy, Debug)]
pub enum OrderingChoice {
    /// Keep the input order (still postordered afterwards).
    Natural,
    /// Geometric nested dissection; requires the workload's [`Geometry`].
    NestedDissection(Geometry, NdOptions),
    /// Quotient-graph minimum degree, for matrices without geometry.
    MinimumDegree,
}

/// Options for [`analyze`].
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeOptions {
    /// Ordering strategy.
    pub ordering: OrderingChoice,
    /// Supernode relaxation / splitting parameters.
    pub supernode: SupernodeOptions,
    /// Also compute [`SymbolicFactor::true_mask`], marking which stored rows
    /// belong to the *exact* factor structure (as opposed to explicit zeros
    /// introduced by supernode relaxation). Needed by the numeric selected
    /// inversion's entry accessor; structure-only consumers (communication
    /// volume accounting, the discrete-event simulator) can skip it.
    pub track_true_structure: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            ordering: OrderingChoice::MinimumDegree,
            supernode: SupernodeOptions::default(),
            track_true_structure: true,
        }
    }
}

/// One off-diagonal block of a supernode panel: the rows of supernode
/// `K`'s structure that fall in ancestor supernode `sn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnBlock {
    /// Ancestor supernode owning these rows.
    pub sn: usize,
    /// Range into [`SymbolicFactor::rows`] (global offsets).
    pub rows_begin: usize,
    /// End of the range (exclusive).
    pub rows_end: usize,
}

impl SnBlock {
    /// Number of rows in the block.
    pub fn nrows(&self) -> usize {
        self.rows_end - self.rows_begin
    }
}

/// The result of symbolic analysis: permutation, supernode partition and
/// the per-supernode row structure of the Cholesky factor `L`.
///
/// All indices below are in the *permuted* matrix ordering.
#[derive(Clone, Debug)]
pub struct SymbolicFactor {
    /// Matrix order.
    pub n: usize,
    /// Combined permutation (fill-reducing then postorder), old → new.
    pub perm: Permutation,
    /// Supernode partition of the permuted columns.
    pub part: SupernodePartition,
    /// Supernodal elimination tree (`NONE` for roots).
    pub sn_parent: Vec<usize>,
    /// Elimination tree of individual columns (`NONE` for roots).
    pub col_parent: Vec<usize>,
    /// `rows_ptr[s]..rows_ptr[s+1]` indexes `rows` for supernode `s`.
    pub rows_ptr: Vec<usize>,
    /// Sorted below-diagonal row indices for each supernode.
    pub rows: Vec<usize>,
    /// `blocks_ptr[s]..blocks_ptr[s+1]` indexes `blocks` for supernode `s`.
    pub blocks_ptr: Vec<usize>,
    /// Off-diagonal blocks of every supernode, grouped by ancestor.
    pub blocks: Vec<SnBlock>,
    /// Aligned with [`SymbolicFactor::rows`]: `true` where the row belongs
    /// to the exact factor structure of *some* column of the supernode,
    /// `false` for explicit zeros introduced by supernode relaxation.
    /// Empty when `AnalyzeOptions::track_true_structure` was off.
    pub true_mask: Vec<bool>,
}

impl SymbolicFactor {
    /// Number of supernodes.
    pub fn num_supernodes(&self) -> usize {
        self.part.num_supernodes()
    }

    /// Width (number of columns) of supernode `s`.
    pub fn width(&self, s: usize) -> usize {
        self.part.width(s)
    }

    /// First column of supernode `s`.
    pub fn first_col(&self, s: usize) -> usize {
        self.part.first_col(s)
    }

    /// One past the last column of supernode `s`.
    pub fn end_col(&self, s: usize) -> usize {
        self.part.end_col(s)
    }

    /// Sorted below-diagonal row indices of supernode `s`.
    pub fn rows_of(&self, s: usize) -> &[usize] {
        &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]]
    }

    /// True-structure mask aligned with [`SymbolicFactor::rows_of`], or
    /// `None` when true-structure tracking was disabled.
    pub fn true_rows_of(&self, s: usize) -> Option<&[bool]> {
        if self.true_mask.is_empty() {
            None
        } else {
            Some(&self.true_mask[self.rows_ptr[s]..self.rows_ptr[s + 1]])
        }
    }

    /// Off-diagonal blocks of supernode `s`.
    pub fn blocks_of(&self, s: usize) -> &[SnBlock] {
        &self.blocks[self.blocks_ptr[s]..self.blocks_ptr[s + 1]]
    }

    /// Row indices covered by one block.
    pub fn block_rows(&self, b: &SnBlock) -> &[usize] {
        &self.rows[b.rows_begin..b.rows_end]
    }

    /// Ancestor supernodes appearing in `s`'s structure (the set `C` of
    /// Algorithm 1 in the paper, at supernode-block granularity).
    pub fn ancestor_sns(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.blocks_of(s).iter().map(|b| b.sn)
    }

    /// Stored nonzeros of `L` under the supernodal (possibly relaxed)
    /// structure: dense triangles plus dense off-diagonal panels.
    pub fn nnz_factor(&self) -> usize {
        (0..self.num_supernodes())
            .map(|s| {
                let w = self.width(s);
                w * (w + 1) / 2 + w * self.rows_of(s).len()
            })
            .sum()
    }

    /// For each supernode `I`, the list of `(K, block_index)` pairs such
    /// that descendant supernode `K` has an off-diagonal block in `I`
    /// (`block_index` points into [`SymbolicFactor::blocks`]). This is the
    /// transpose of the block structure, used by the distributed layout.
    pub fn transpose_blocks(&self) -> Vec<Vec<(usize, usize)>> {
        let mut t: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.num_supernodes()];
        for s in 0..self.num_supernodes() {
            for (bi, b) in self.blocks_of(s).iter().enumerate() {
                t[b.sn].push((s, self.blocks_ptr[s] + bi));
            }
        }
        t
    }

    /// Children lists of the supernodal elimination tree.
    pub fn sn_children(&self) -> Vec<Vec<usize>> {
        let mut c: Vec<Vec<usize>> = vec![Vec::new(); self.num_supernodes()];
        for s in 0..self.num_supernodes() {
            if self.sn_parent[s] != NONE {
                c[self.sn_parent[s]].push(s);
            }
        }
        c
    }
}

/// Runs the full symbolic analysis of `A + Aᵀ`, where `pattern` is the
/// pattern of `A`.
///
/// Any of `A`'s lower triangle, upper triangle or full pattern gives the
/// same result. The pattern is symmetrized (with its diagonal) into `S`
/// once, in the input order, or used as `S` if it already is one. Every
/// later stage reads column `j` of the permuted matrix `P S Pᵀ` as
/// `S.col_rows(P.old_of(j))` mapped through `P.new_of` instead of building
/// it. Every stage costs O(nnz(S)·α(n)) or less, except the optional
/// true-structure mask (O(nnz(L))); DESIGN.md §3.9 has the stage-by-stage
/// table.
///
/// ```
/// use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
/// use pselinv_sparse::gen;
///
/// let w = gen::grid_laplacian_2d(8, 8);
/// let opts = AnalyzeOptions {
///     ordering: OrderingChoice::NestedDissection(w.geometry, Default::default()),
///     ..Default::default()
/// };
/// let sf = analyze(&w.matrix.pattern(), &opts);
/// assert!(sf.num_supernodes() > 1);
/// // the factor is at least as dense as (half of) the symmetric input
/// assert!(sf.nnz_factor() * 2 >= w.matrix.nnz());
/// ```
pub fn analyze(pattern: &SparsityPattern, opts: &AnalyzeOptions) -> SymbolicFactor {
    let n = pattern.ncols();
    assert_eq!(pattern.nrows(), n, "analyze requires a square pattern");

    // 1. The one symmetrization; a permuted symmetric pattern stays
    //    symmetric, so nothing below symmetrizes again. A pattern that is
    //    already its own symmetrization is used as it is: checking costs a
    //    sixth of building the copy.
    let sym = if pattern.is_symmetric_with_diagonal() {
        Cow::Borrowed(pattern)
    } else {
        Cow::Owned(pattern.symmetrized_with_diagonal())
    };
    let sym: &SparsityPattern = &sym;

    // 2. Fill-reducing ordering.
    let fill_perm = match &opts.ordering {
        OrderingChoice::Natural => Permutation::identity(n),
        OrderingChoice::NestedDissection(geom, nd_opts) => {
            assert_eq!(geom.n(), n, "geometry does not match the matrix order");
            nd::nested_dissection(geom, *nd_opts)
        }
        OrderingChoice::MinimumDegree => mmd::minimum_degree(sym),
    };

    // 3. Postorder the elimination tree of the fill-ordered matrix. A
    //    postorder is a topological order of that tree, so the final
    //    matrix's etree is the same tree relabeled (Liu).
    let parent0 = etree::elimination_tree(sym, &fill_perm);
    let post = Permutation::from_old_of_new(etree::postorder(&parent0));
    let col_parent = etree::relabel_parent(&parent0, post.new_of_old());
    let perm = fill_perm.then(&post);

    // 4. Column counts and the supernode partition.
    let col_counts = etree::column_counts(sym, &perm, &col_parent);
    let fundamental = supernodes::fundamental_supernodes(&col_parent, &col_counts);
    let part =
        supernodes::relax_supernodes(&fundamental, &col_parent, &col_counts, &opts.supernode);
    let sn_parent = supernodes::supernodal_etree(&part, &col_parent);

    // 5. Supernodal row structure, bottom-up merge: a supernode's rows are
    //    its columns' rows below it plus its children's rows below it.
    let (new_of, old_of) = (perm.new_of_old(), perm.old_of_new());
    let ns = part.num_supernodes();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); ns];
    for s in 0..ns {
        if sn_parent[s] != NONE {
            children[sn_parent[s]].push(s);
        }
    }
    let mut rows_ptr = vec![0usize; ns + 1];
    let mut rows: Vec<usize> = Vec::new();
    let mut mark = vec![NONE; n];
    let mut scratch: Vec<usize> = Vec::new();
    for s in 0..ns {
        scratch.clear();
        let last = part.end_col(s) - 1;
        for j in part.first_col(s)..=last {
            for &i in sym.col_rows(old_of[j]) {
                let i = new_of[i];
                if i > last && mark[i] != s {
                    mark[i] = s;
                    scratch.push(i);
                }
            }
        }
        for &c in &children[s] {
            for &r in &rows[rows_ptr[c]..rows_ptr[c + 1]] {
                if r > last && mark[r] != s {
                    mark[r] = s;
                    scratch.push(r);
                }
            }
        }
        scratch.sort_unstable();
        rows.extend_from_slice(&scratch);
        rows_ptr[s + 1] = rows.len();
    }

    // 6. Group rows into ancestor-supernode blocks.
    let mut blocks_ptr = vec![0usize; ns + 1];
    let mut blocks: Vec<SnBlock> = Vec::new();
    for s in 0..ns {
        let (lo, hi) = (rows_ptr[s], rows_ptr[s + 1]);
        let mut k = lo;
        while k < hi {
            let sn = part.col_to_sn[rows[k]];
            let begin = k;
            while k < hi && part.col_to_sn[rows[k]] == sn {
                k += 1;
            }
            blocks.push(SnBlock { sn, rows_begin: begin, rows_end: k });
        }
        blocks_ptr[s + 1] = blocks.len();
    }

    // 7. Optionally mark which stored rows are exact factor structure.
    //    Row `i` appears in the true structure of column `j` iff `j` is in
    //    the row subtree of `i`: walk it from every `S_{ij} ≠ 0`, `j < i`.
    let mut true_mask = Vec::new();
    if opts.track_true_structure {
        true_mask = vec![false; rows.len()];
        let mut visit = vec![NONE; n];
        let mut sn_stamp = vec![NONE; ns];
        for i in 0..n {
            visit[i] = i;
            for &j in sym.col_rows(old_of[i]) {
                let mut k = new_of[j];
                if k >= i {
                    continue;
                }
                while visit[k] != i {
                    visit[k] = i;
                    let s = part.col_to_sn[k];
                    // i may sit inside s's diagonal block (then it is not a
                    // below-row); otherwise mark its below-row slot once.
                    if sn_stamp[s] != i && i >= part.end_col(s) {
                        sn_stamp[s] = i;
                        let lo = rows_ptr[s];
                        let hi = rows_ptr[s + 1];
                        let p = rows[lo..hi]
                            .binary_search(&i)
                            .expect("true structure not covered by stored structure");
                        true_mask[lo + p] = true;
                    }
                    k = col_parent[k];
                }
            }
        }
    }

    SymbolicFactor {
        n,
        perm,
        part,
        sn_parent,
        col_parent,
        rows_ptr,
        rows,
        blocks_ptr,
        blocks,
        true_mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_sparse::gen;

    /// `P (A + Aᵀ) Pᵀ` with its diagonal, materialized.
    fn permuted(pattern: &SparsityPattern, perm: &Permutation) -> SparsityPattern {
        etree::permute_pattern(&pattern.symmetrized_with_diagonal(), perm)
    }

    fn dense_factor_pattern(pattern: &SparsityPattern) -> Vec<Vec<bool>> {
        let n = pattern.ncols();
        let mut l = vec![vec![false; n]; n];
        for j in 0..n {
            for &i in pattern.col_rows(j) {
                if i >= j {
                    l[i][j] = true;
                }
                if j >= i {
                    l[j][i] = true;
                }
            }
            l[j][j] = true;
        }
        for j in 0..n {
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

    fn check_structure_superset(sf: &SymbolicFactor, pattern: &SparsityPattern) {
        // The supernodal structure must cover the true factor structure of
        // the permuted matrix.
        let l = dense_factor_pattern(&permuted(pattern, &sf.perm));
        let n = sf.n;
        let mut stored = vec![vec![false; n]; n];
        for s in 0..sf.num_supernodes() {
            let (b, e) = (sf.first_col(s), sf.end_col(s));
            for j in b..e {
                for i in j..e {
                    stored[i][j] = true;
                }
                for &r in sf.rows_of(s) {
                    stored[r][j] = true;
                }
            }
        }
        for j in 0..n {
            for i in j..n {
                if l[i][j] {
                    assert!(stored[i][j], "missing factor entry ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn structure_covers_factor_grid_md() {
        let w = gen::grid_laplacian_2d(7, 7);
        let pat = w.matrix.pattern();
        let sf = analyze(&pat, &AnalyzeOptions::default());
        check_structure_superset(&sf, &pat);
    }

    #[test]
    fn structure_covers_factor_grid_nd() {
        let w = gen::grid_laplacian_2d(8, 6);
        let pat = w.matrix.pattern();
        let opts = AnalyzeOptions {
            ordering: OrderingChoice::NestedDissection(w.geometry, NdOptions { leaf_size: 4 }),
            ..Default::default()
        };
        let sf = analyze(&pat, &opts);
        check_structure_superset(&sf, &pat);
    }

    #[test]
    fn structure_covers_factor_random() {
        for seed in 0..4 {
            let m = gen::random_spd(35, 0.15, seed);
            let pat = m.pattern();
            let sf = analyze(&pat, &AnalyzeOptions::default());
            check_structure_superset(&sf, &pat);
        }
    }

    #[test]
    fn fundamental_partition_matches_counts_exactly() {
        // With relaxation disabled, stored nnz == sum of column counts.
        let w = gen::grid_laplacian_2d(9, 9);
        let pat = w.matrix.pattern();
        let opts = AnalyzeOptions {
            ordering: OrderingChoice::Natural,
            supernode: SupernodeOptions { max_width: 0, relax_small: 0, relax_zero_fraction: 0.0 },
            track_true_structure: true,
        };
        let sf = analyze(&pat, &opts);
        let p = permuted(&pat, &sf.perm);
        let parent = etree::elimination_tree(&p, &Permutation::identity(p.ncols()));
        let (cc, _) = etree::factor_counts(&p, &parent);
        assert_eq!(sf.nnz_factor(), etree::nnz_factor(&cc));
    }

    /// `pattern` with only the entries `keep(i, j)` and the diagonal.
    fn filtered(pattern: &SparsityPattern, keep: impl Fn(usize, usize) -> bool) -> SparsityPattern {
        let n = pattern.ncols();
        let mut col_ptr = vec![0usize; n + 1];
        let mut rows = Vec::new();
        for j in 0..n {
            rows.extend(pattern.col_rows(j).iter().copied().filter(|&i| i == j || keep(i, j)));
            col_ptr[j + 1] = rows.len();
        }
        SparsityPattern::from_raw_parts(n, n, col_ptr, rows)
    }

    fn assert_same(a: &SymbolicFactor, b: &SymbolicFactor, what: &str) {
        assert_eq!(a.perm, b.perm, "{what}: perm");
        assert_eq!(a.part, b.part, "{what}: partition");
        assert_eq!(a.sn_parent, b.sn_parent, "{what}: sn_parent");
        assert_eq!(a.col_parent, b.col_parent, "{what}: col_parent");
        assert_eq!((&a.rows_ptr, &a.rows), (&b.rows_ptr, &b.rows), "{what}: rows");
        assert_eq!((&a.blocks_ptr, &a.blocks), (&b.blocks_ptr, &b.blocks), "{what}: blocks");
        assert_eq!(a.true_mask, b.true_mask, "{what}: true_mask");
    }

    #[test]
    fn one_triangle_gives_the_analysis_of_the_full_pattern() {
        // `analyze` analyses A + Aᵀ: the strict lower triangle plus the
        // diagonal, the upper triangle, and the full pattern are one input.
        let w = gen::fem_3d(4, 3, 3, 2, 3);
        let spd = gen::random_spd(50, 0.08, 7);
        let cases = [
            (
                "fem/nd",
                w.matrix.pattern(),
                OrderingChoice::NestedDissection(w.geometry, NdOptions { leaf_size: 4 }),
            ),
            ("fem/md", w.matrix.pattern(), OrderingChoice::MinimumDegree),
            ("spd/md", spd.pattern(), OrderingChoice::MinimumDegree),
            ("spd/natural", spd.pattern(), OrderingChoice::Natural),
        ];
        for (label, full, ordering) in cases {
            let opts = AnalyzeOptions { ordering, ..Default::default() };
            let want = analyze(&full, &opts);
            let lower = filtered(&full, |i, j| i > j);
            let upper = filtered(&full, |i, j| i < j);
            assert!(lower.nnz() < full.nnz() && upper.nnz() < full.nnz());
            assert_same(&analyze(&lower, &opts), &want, &format!("{label} lower"));
            assert_same(&analyze(&upper, &opts), &want, &format!("{label} upper"));
        }
    }

    #[test]
    fn blocks_partition_rows() {
        let w = gen::grid_laplacian_3d(4, 4, 4);
        let pat = w.matrix.pattern();
        let sf = analyze(&pat, &AnalyzeOptions::default());
        for s in 0..sf.num_supernodes() {
            let mut covered = 0;
            let mut prev_sn = None;
            for b in sf.blocks_of(s) {
                assert!(b.sn > s, "block ancestor must be above the supernode");
                if let Some(p) = prev_sn {
                    assert!(b.sn > p, "blocks must be sorted by ancestor supernode");
                }
                prev_sn = Some(b.sn);
                covered += b.nrows();
                for &r in sf.block_rows(b) {
                    assert_eq!(sf.part.col_to_sn[r], b.sn);
                }
            }
            assert_eq!(covered, sf.rows_of(s).len());
        }
    }

    #[test]
    fn rows_sorted_and_below_diagonal() {
        let w = gen::proxies::dg_water(1);
        let pat = w.matrix.pattern();
        let sf = analyze(&pat, &AnalyzeOptions::default());
        for s in 0..sf.num_supernodes() {
            let rows = sf.rows_of(s);
            for w2 in rows.windows(2) {
                assert!(w2[0] < w2[1]);
            }
            if let Some(&first) = rows.first() {
                assert!(first >= sf.end_col(s));
            }
        }
    }

    #[test]
    fn transpose_blocks_is_consistent() {
        let w = gen::grid_laplacian_2d(10, 10);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        let t = sf.transpose_blocks();
        let mut total = 0;
        for (i, list) in t.iter().enumerate() {
            for &(k, bi) in list {
                assert_eq!(sf.blocks[bi].sn, i);
                assert!(
                    (sf.blocks_ptr[k]..sf.blocks_ptr[k + 1]).contains(&bi),
                    "block index out of supernode range"
                );
                total += 1;
            }
        }
        assert_eq!(total, sf.blocks.len());
    }

    #[test]
    fn true_mask_matches_dense_oracle() {
        for seed in 0..3 {
            let m = gen::random_spd(30, 0.12, seed);
            let pat = m.pattern();
            let sf = analyze(&pat, &AnalyzeOptions::default());
            let l = dense_factor_pattern(&permuted(&pat, &sf.perm));
            for s in 0..sf.num_supernodes() {
                let rows = sf.rows_of(s);
                let mask = sf.true_rows_of(s).unwrap();
                let (b, e) = (sf.first_col(s), sf.end_col(s));
                for (p, &r) in rows.iter().enumerate() {
                    let truly = (b..e).any(|j| l[r][j]);
                    assert_eq!(mask[p], truly, "supernode {s} row {r} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn true_mask_all_true_without_relaxation() {
        let w = gen::grid_laplacian_2d(8, 8);
        let opts = AnalyzeOptions {
            ordering: OrderingChoice::Natural,
            supernode: SupernodeOptions { max_width: 0, relax_small: 0, relax_zero_fraction: 0.0 },
            track_true_structure: true,
        };
        let sf = analyze(&w.matrix.pattern(), &opts);
        assert!(sf.true_mask.iter().all(|&t| t), "fundamental partition has no relaxed rows");
    }

    #[test]
    fn sn_parent_contains_first_off_diagonal_block() {
        // For every supernode with off-diagonal rows, the first block's
        // ancestor is the supernodal etree parent.
        let w = gen::grid_laplacian_2d(12, 8);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        for s in 0..sf.num_supernodes() {
            if let Some(b) = sf.blocks_of(s).first() {
                assert_eq!(
                    b.sn, sf.sn_parent[s],
                    "first ancestor block must be the supernodal parent"
                );
            }
        }
    }
}
