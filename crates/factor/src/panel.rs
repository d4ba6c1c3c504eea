//! Dense supernode panel storage, and the relative indices that scatter
//! into it.

use pselinv_dense::Mat;
use pselinv_order::SymbolicFactor;
use pselinv_sparse::SparseMatrix;

/// The dense storage of one supernode of a factor (or of the selected
/// inverse, which shares the same structure).
///
/// * `diag` — the `w×w` diagonal block. For an LDLᵀ factor its strictly
///   lower part holds the unit-lower `L_{K,K}` and its diagonal holds `D`;
///   for the selected inverse it holds the full symmetric `A⁻¹_{K,K}`.
/// * `below` — the `r×w` off-diagonal panel, rows ordered as
///   `SymbolicFactor::rows_of(s)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Panel {
    /// `w × w` diagonal block.
    pub diag: Mat,
    /// `r × w` below-diagonal panel.
    pub below: Mat,
}

impl Panel {
    /// Zero panel shaped for supernode `s` of `sf`.
    pub fn zeros(sf: &SymbolicFactor, s: usize) -> Self {
        let w = sf.width(s);
        let r = sf.rows_of(s).len();
        Self { diag: Mat::zeros(w, w), below: Mat::zeros(r, w) }
    }

    /// Supernode width.
    pub fn width(&self) -> usize {
        self.diag.nrows()
    }

    /// Number of below-diagonal rows.
    pub fn num_below(&self) -> usize {
        self.below.nrows()
    }

    /// Applies `op(entry, vals[k])` down column `col` at the positions
    /// `pos[k]` of a [`relative_indices`] map: rows of `diag` for
    /// `k < ndiag`, rows of `below` after.
    #[inline]
    pub(crate) fn scatter_col(
        &mut self,
        col: usize,
        pos: &[usize],
        ndiag: usize,
        vals: &[f64],
        op: impl Fn(&mut f64, f64),
    ) {
        debug_assert_eq!(pos.len(), vals.len());
        let (pd, pb) = pos.split_at(ndiag);
        let (vd, vb) = vals.split_at(ndiag);
        let dcol = self.diag.col_mut(col);
        for (&i, &v) in pd.iter().zip(vd) {
            op(&mut dcol[i], v);
        }
        let bcol = self.below.col_mut(col);
        for (&i, &v) in pb.iter().zip(vb) {
            op(&mut bcol[i], v);
        }
    }
}

/// Maps the sorted global `rows` to their positions in supernode `t`'s
/// panel with one forward merge walk over `rows_of(t)` — the relative
/// indices of a block update.
///
/// `idx` is cleared and receives one position per row: `row - first_col(t)`
/// for a row inside `t`'s diagonal block, the offset in `rows_of(t)` for the
/// others. Returns how many rows fell in the diagonal block; they are a
/// prefix of `rows`, because every row of `rows_of(t)` lies past `t`'s last
/// column. Costs `O(rows.len() + rows_of(t).len())` and equals
/// [`locate_row`] entry by entry, without its binary search per row.
///
/// Panics, as `locate_row` does, if a row is not part of `t`'s structure.
pub(crate) fn relative_indices(
    sf: &SymbolicFactor,
    t: usize,
    rows: &[usize],
    idx: &mut Vec<usize>,
) -> usize {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be strictly increasing");
    let (first, end) = (sf.first_col(t), sf.end_col(t));
    let below = sf.rows_of(t);
    idx.clear();
    let mut ndiag = 0;
    let mut k = 0;
    for &row in rows {
        if row < end {
            if row < first {
                not_in_structure(row, t);
            }
            idx.push(row - first);
            ndiag += 1;
            continue;
        }
        while k < below.len() && below[k] < row {
            k += 1;
        }
        if below.get(k) != Some(&row) {
            not_in_structure(row, t);
        }
        idx.push(k);
    }
    ndiag
}

#[cold]
fn not_in_structure(row: usize, s: usize) -> ! {
    panic!("row {row} not in structure of supernode {s}")
}

/// One participant's buffers for reading columns of `P A Pᵀ`.
#[derive(Default)]
pub(crate) struct ColumnBuf {
    pairs: Vec<(usize, f64)>,
    rows: Vec<usize>,
    vals: Vec<f64>,
    idx: Vec<usize>,
}

impl ColumnBuf {
    /// Column `j` of `P m Pᵀ` (`P` the symbolic permutation), from row
    /// `from` down, into `rows`/`vals`: column `old_of(j)` of `m` with its
    /// rows mapped by `new_of` and sorted — exactly what `permute_sym`
    /// would hold there.
    fn permuted_col(&mut self, sf: &SymbolicFactor, m: &SparseMatrix, j: usize, from: usize) {
        let old = sf.perm.old_of(j);
        let rows = m.col_rows(old).iter().map(|&i| sf.perm.new_of(i));
        self.pairs.clear();
        self.pairs.extend(rows.zip(m.col_values(old).iter().copied()).filter(|&(i, _)| i >= from));
        self.pairs.sort_unstable_by_key(|&(i, _)| i);
        self.rows.clear();
        self.vals.clear();
        for &(i, v) in &self.pairs {
            self.rows.push(i);
            self.vals.push(v);
        }
    }
}

/// Scatters the lower triangle of `P a Pᵀ` into supernode `s`'s panel,
/// one [`relative_indices`] walk per column.
pub(crate) fn scatter_lower(
    sf: &SymbolicFactor,
    a: &SparseMatrix,
    s: usize,
    panel: &mut Panel,
    buf: &mut ColumnBuf,
) {
    for j in sf.first_col(s)..sf.end_col(s) {
        buf.permuted_col(sf, a, j, j);
        let ndiag = relative_indices(sf, s, &buf.rows, &mut buf.idx);
        panel.scatter_col(j - sf.first_col(s), &buf.idx, ndiag, &buf.vals, |x, v| *x = v);
    }
}

/// `buf` as `len` zeros, reusing its allocation.
pub(crate) fn zeroed(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Locates a global row index inside supernode `s`'s panel.
///
/// Returns `RowPos::Diag(i)` for a row inside the diagonal block, or
/// `RowPos::Below(i)` with the position in `rows_of(s)`. Panics if the row
/// is not part of the supernode structure (callers scatter only into
/// structurally present positions).
pub fn locate_row(sf: &SymbolicFactor, s: usize, row: usize) -> RowPos {
    let first = sf.first_col(s);
    let end = sf.end_col(s);
    if row >= first && row < end {
        return RowPos::Diag(row - first);
    }
    match sf.rows_of(s).binary_search(&row) {
        Ok(p) => RowPos::Below(p),
        Err(_) => not_in_structure(row, s),
    }
}

/// Position of a global row within a supernode panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowPos {
    /// Row lives in the diagonal block at this local offset.
    Diag(usize),
    /// Row lives in the below panel at this offset.
    Below(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_order::supernodes::SupernodeOptions;
    use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
    use pselinv_sparse::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn panel_shapes_match_symbolic() {
        let w = gen::grid_laplacian_2d(6, 6);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        for s in 0..sf.num_supernodes() {
            let p = Panel::zeros(&sf, s);
            assert_eq!(p.width(), sf.width(s));
            assert_eq!(p.num_below(), sf.rows_of(s).len());
        }
    }

    #[test]
    fn locate_row_finds_positions() {
        let w = gen::grid_laplacian_2d(8, 8);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        for s in 0..sf.num_supernodes() {
            for (off, col) in (sf.first_col(s)..sf.end_col(s)).enumerate() {
                assert_eq!(locate_row(&sf, s, col), RowPos::Diag(off));
            }
            for (p, &r) in sf.rows_of(s).iter().enumerate() {
                assert_eq!(locate_row(&sf, s, r), RowPos::Below(p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in structure")]
    fn locate_row_rejects_missing() {
        let w = gen::grid_laplacian_2d(4, 4);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        // Find a supernode whose structure misses some row.
        for s in 0..sf.num_supernodes() {
            let rows = sf.rows_of(s);
            for cand in sf.end_col(s)..sf.n {
                if rows.binary_search(&cand).is_err() {
                    let _ = locate_row(&sf, s, cand);
                    return;
                }
            }
        }
        panic!("not in structure (degenerate: every supernode is full)");
    }

    /// Structures of the three kinds the factorization sees: random SPD
    /// (minimum degree), grid Laplacians (default and relaxed narrow
    /// supernodes under nested dissection) and DG blocks — each with the
    /// matrix it came from.
    fn structures() -> Vec<(SparseMatrix, SymbolicFactor)> {
        let mut out = Vec::new();
        for seed in 0..6 {
            let a = gen::random_spd(50, 0.05 + 0.03 * seed as f64, seed);
            let sf = analyze(&a.pattern(), &AnalyzeOptions::default());
            out.push((a, sf));
        }
        let narrow = SupernodeOptions { max_width: 4, relax_small: 2, relax_zero_fraction: 0.3 };
        let width1 = SupernodeOptions { max_width: 1, ..Default::default() };
        let grids = [gen::grid_laplacian_2d(12, 11), gen::grid_laplacian_3d(5, 4, 4)];
        for w in grids {
            for supernode in [SupernodeOptions::default(), narrow, width1] {
                let opts = AnalyzeOptions {
                    ordering: OrderingChoice::NestedDissection(w.geometry, Default::default()),
                    supernode,
                    ..Default::default()
                };
                out.push((w.matrix.clone(), analyze(&w.matrix.pattern(), &opts)));
            }
        }
        for supernode in [SupernodeOptions::default(), width1] {
            let w = gen::dg_hamiltonian(3, 2, 1, 6, 5);
            let opts = AnalyzeOptions { supernode, ..Default::default() };
            out.push((w.matrix.clone(), analyze(&w.matrix.pattern(), &opts)));
        }
        out
    }

    /// The merge walk against one binary search per row.
    fn check_against_locate_row(sf: &SymbolicFactor, t: usize, rows: &[usize]) {
        let mut idx = vec![usize::MAX; 3]; // stale contents must not leak
        let ndiag = relative_indices(sf, t, rows, &mut idx);
        assert_eq!(idx.len(), rows.len());
        for (k, &row) in rows.iter().enumerate() {
            let got = if k < ndiag { RowPos::Diag(idx[k]) } else { RowPos::Below(idx[k]) };
            assert_eq!(got, locate_row(sf, t, row), "supernode {t}, row {row}");
        }
    }

    #[test]
    fn relative_indices_equal_locate_row() {
        let mut rng = StdRng::seed_from_u64(16);
        for (a, sf) in structures() {
            // Every (s, block) update: rows_of(s)[lb..] into the target.
            for s in 0..sf.num_supernodes() {
                let rp = sf.rows_ptr[s];
                for b in sf.blocks_of(s) {
                    check_against_locate_row(&sf, b.sn, &sf.rows_of(s)[b.rows_begin - rp..]);
                }
            }
            // Every column of A's lower triangle into its own supernode.
            let permuted = a.permute_sym(sf.perm.new_of_old());
            for j in 0..sf.n {
                let rows = permuted.col_rows(j);
                let start = rows.partition_point(|&i| i < j);
                check_against_locate_row(&sf, sf.part.col_to_sn[j], &rows[start..]);
            }
            // Random sorted subsets of each panel's rows.
            for t in 0..sf.num_supernodes() {
                let all: Vec<usize> =
                    (sf.first_col(t)..sf.end_col(t)).chain(sf.rows_of(t).iter().copied()).collect();
                for _ in 0..4 {
                    let keep = rng.random_range(0.0..1.0);
                    let subset: Vec<usize> =
                        all.iter().copied().filter(|_| rng.random_range(0.0..1.0) < keep).collect();
                    check_against_locate_row(&sf, t, &subset);
                }
            }
        }
    }

    /// A supernode whose structure misses a row past its columns.
    fn missing_row(sf: &SymbolicFactor) -> (usize, usize) {
        (0..sf.num_supernodes())
            .find_map(|s| {
                let rows = sf.rows_of(s);
                (sf.end_col(s)..sf.n).find(|c| rows.binary_search(c).is_err()).map(|c| (s, c))
            })
            .expect("some supernode's structure misses a row")
    }

    #[test]
    #[should_panic(expected = "not in structure")]
    fn relative_indices_reject_missing() {
        let w = gen::grid_laplacian_2d(4, 4);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        let (t, cand) = missing_row(&sf);
        // Amid the rows that are present, so the walk has to notice the skip.
        let mut rows = sf.rows_of(t).to_vec();
        rows.push(cand);
        rows.sort_unstable();
        relative_indices(&sf, t, &rows, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "not in structure")]
    fn relative_indices_reject_rows_left_of_the_supernode() {
        let w = gen::grid_laplacian_2d(4, 4);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        let t = sf.num_supernodes() - 1;
        assert!(sf.first_col(t) > 0);
        relative_indices(&sf, t, &[sf.first_col(t) - 1, sf.first_col(t)], &mut Vec::new());
    }
}
