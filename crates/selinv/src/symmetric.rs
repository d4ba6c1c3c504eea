//! Symmetric (LDLᵀ) sequential selected inversion.

use crate::gather::{ancestor_positions, read_ancestor};
use pselinv_dense::kernels::trsm_right_lower;
use pselinv_dense::{gemm, ldlt_invert, Mat, Transpose};
use pselinv_factor::{LdlFactor, Panel};
use pselinv_order::SymbolicFactor;
use std::sync::Arc;

/// The selected inverse of a symmetric matrix: `A⁻¹` on the (stored)
/// structure of `L + Lᵀ`.
#[derive(Clone, Debug)]
pub struct SelectedInverse {
    /// Shared symbolic structure.
    pub symbolic: Arc<SymbolicFactor>,
    /// Per supernode: `A⁻¹_{K,K}` in `diag` (full symmetric block) and
    /// `A⁻¹_{R,K}` in `below`.
    pub panels: Vec<Panel>,
}

/// Runs the selected inversion on a supernodal LDLᵀ factorization.
///
/// ```
/// use pselinv_factor::factorize;
/// use pselinv_order::{analyze, AnalyzeOptions};
/// use pselinv_selinv::selinv_ldlt;
/// use pselinv_sparse::gen;
/// use std::sync::Arc;
///
/// let w = gen::grid_laplacian_2d(10, 10);
/// let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
/// let f = factorize(&w.matrix, sf).unwrap();
/// let inv = selinv_ldlt(&f);
/// // every entry of A⁻¹ on the pattern of A is available…
/// for (i, j, _) in w.matrix.iter() {
///     assert!(inv.get(i, j).is_some());
/// }
/// // …but distant entries were never computed
/// assert!(inv.get(0, 99).is_none());
/// ```
pub fn selinv_ldlt(f: &LdlFactor) -> SelectedInverse {
    let sf = &*f.symbolic;
    let ns = sf.num_supernodes();
    let mut panels: Vec<Panel> = (0..ns).map(|s| Panel::zeros(sf, s)).collect();

    for k in (0..ns).rev() {
        let rows = sf.rows_of(k);
        let r = rows.len();

        // Step 2 of Algorithm 1: L̂ = L_{R,K} (L_{K,K})⁻¹.
        let mut y = f.panels[k].below.clone();
        trsm_right_lower(&mut y, &f.panels[k].diag, true);

        // Diagonal seed: (L D Lᵀ)⁻¹ of the diagonal block.
        panels[k].diag = ldlt_invert(&f.panels[k].diag);

        if r == 0 {
            continue;
        }

        // Gather G = A⁻¹_{R,R} from ancestor panels (symmetric fill).
        let mut g = Mat::zeros(r, r);
        let rp = sf.rows_ptr[k];
        for b in sf.blocks_of(k) {
            let j = b.sn;
            let lb = b.rows_begin - rp;
            let nb = b.rows_end - b.rows_begin;
            let pos = ancestor_positions(sf, j, &rows[lb..]);
            let first_j = sf.first_col(j);
            for q in 0..nb {
                let cl = rows[lb + q] - first_j;
                for p in q..(r - lb) {
                    let v = read_ancestor(&panels[j], pos[p], cl);
                    g[(lb + p, lb + q)] = v;
                    g[(lb + q, lb + p)] = v;
                }
            }
        }
        debug_assert!({
            // every Diag/Below position was filled consistently (spot check
            // symmetry of the gathered matrix)
            let mut ok = true;
            for p in 0..r.min(4) {
                for q in 0..r.min(4) {
                    ok &= g[(p, q)] == g[(q, p)];
                }
            }
            ok
        });

        // Step 3: A⁻¹_{R,K} = -G · L̂.
        {
            let below = &mut panels[k].below;
            gemm(-1.0, &g, Transpose::No, &y, Transpose::No, 0.0, below);
        }

        // Step 4: A⁻¹_{K,K} = (LDLᵀ)⁻¹ - L̂ᵀ A⁻¹_{R,K}.
        {
            let p = &mut panels[k];
            let (diag, below) = (&mut p.diag, &p.below);
            gemm(-1.0, &y, Transpose::Yes, below, Transpose::No, 1.0, diag);
        }
        // Symmetrize the diagonal block to wash out rounding asymmetry.
        let w = sf.width(k);
        for jl in 0..w {
            for il in (jl + 1)..w {
                let v = 0.5 * (panels[k].diag[(il, jl)] + panels[k].diag[(jl, il)]);
                panels[k].diag[(il, jl)] = v;
                panels[k].diag[(jl, il)] = v;
            }
        }
    }

    SelectedInverse { symbolic: f.symbolic.clone(), panels }
}

impl SelectedInverse {
    /// Value of `A⁻¹(i, j)` in the *original* matrix ordering, or `None`
    /// when the position is outside the selected set: the stored structure,
    /// restricted to the true factor structure when the analysis tracked it
    /// (`AnalyzeOptions::track_true_structure`); diagonal blocks are always
    /// in it.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let sf = &*self.symbolic;
        let mut pi = sf.perm.new_of(i);
        let mut pj = sf.perm.new_of(j);
        if pi < pj {
            std::mem::swap(&mut pi, &mut pj); // symmetry: read lower triangle
        }
        let s = sf.part.col_to_sn[pj];
        let jl = pj - sf.first_col(s);
        if pi < sf.end_col(s) {
            return Some(self.panels[s].diag[(pi - sf.first_col(s), jl)]);
        }
        match sf.rows_of(s).binary_search(&pi) {
            Ok(p) => {
                let exact = sf.true_rows_of(s).is_none_or(|m| m[p]);
                exact.then(|| self.panels[s].below[(p, jl)])
            }
            Err(_) => None,
        }
    }

    /// The diagonal of `A⁻¹` in the original ordering (always part of the
    /// selected set) — the quantity PEXSI extracts for electronic
    /// structure.
    pub fn diagonal(&self) -> Vec<f64> {
        let sf = &*self.symbolic;
        let mut d = vec![0.0; sf.n];
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            for jl in 0..sf.width(s) {
                d[sf.perm.old_of(first + jl)] = self.panels[s].diag[(jl, jl)];
            }
        }
        d
    }

    /// Trace of `A⁻¹`.
    pub fn trace(&self) -> f64 {
        self.diagonal().iter().sum()
    }

    /// Iterates over every exactly-computed selected entry of the *lower
    /// triangle* (diagonal included) as `(i, j, value)` in the original
    /// ordering. The upper triangle follows by symmetry.
    pub fn selected_entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let sf = &*self.symbolic;
        (0..sf.num_supernodes()).flat_map(move |s| {
            let first = sf.first_col(s);
            let w = sf.width(s);
            let rows = sf.rows_of(s);
            let mask = sf.true_rows_of(s);
            let panel = &self.panels[s];
            (0..w).flat_map(move |jl| {
                let diag_part = (jl..w).map(move |il| {
                    (sf.perm.old_of(first + il), sf.perm.old_of(first + jl), panel.diag[(il, jl)])
                });
                let below_part = rows.iter().enumerate().filter_map(move |(p, &r)| {
                    let exact = mask.is_none_or(|m| m[p]);
                    exact.then(|| {
                        (sf.perm.old_of(r), sf.perm.old_of(first + jl), panel.below[(p, jl)])
                    })
                });
                diag_part.chain(below_part)
            })
        })
    }

    /// Assembles the selected entries into a symmetric
    /// [`SparseMatrix`](pselinv_sparse::SparseMatrix) (both triangles
    /// populated) — convenient for downstream consumers that want `A⁻¹`
    /// restricted to the selected set as a matrix.
    pub fn to_sparse(&self) -> pselinv_sparse::SparseMatrix {
        let n = self.symbolic.n;
        let mut t = pselinv_sparse::TripletMatrix::new(n, n);
        for (i, j, v) in self.selected_entries() {
            t.push_sym(i, j, v);
        }
        t.to_csc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_dense::{lu_factor, lu_invert};
    use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
    use pselinv_sparse::{gen, SparseMatrix};

    fn dense_inverse(a: &SparseMatrix) -> Mat {
        let n = a.nrows();
        let mut d = Mat::from_col_major(n, n, &a.to_dense_col_major());
        let piv = lu_factor(&mut d).unwrap();
        lu_invert(&d, &piv)
    }

    /// Checks every entry `get` exposes against a dense inverse and returns
    /// how many it exposes.
    fn check_selected_inverse(a: &SparseMatrix, opts: &AnalyzeOptions) -> usize {
        let sf = Arc::new(analyze(&a.pattern(), opts));
        let f = pselinv_factor::factorize(a, sf.clone()).unwrap();
        let inv = selinv_ldlt(&f);
        let dense = dense_inverse(a);
        let scale = 1.0 + dense.norm_max();
        // Every entry the API exposes must be exact.
        let n = a.nrows();
        let mut exposed = 0usize;
        for i in 0..n {
            for j in 0..n {
                if let Some(v) = inv.get(i, j) {
                    assert!(
                        (v - dense[(i, j)]).abs() < 1e-9 * scale,
                        "A⁻¹({i},{j}) = {v} vs dense {}",
                        dense[(i, j)]
                    );
                    exposed += 1;
                }
            }
        }
        // The selected set must cover every structural nonzero of A.
        for (i, j, _) in a.iter() {
            assert!(inv.get(i, j).is_some(), "selected set misses A nonzero ({i},{j})");
        }
        assert!(exposed >= a.nnz());
        // Diagonal helper agrees with get().
        let diag = inv.diagonal();
        for i in 0..n {
            assert_eq!(diag[i], inv.get(i, i).unwrap());
        }
        exposed
    }

    #[test]
    fn grid2d_md() {
        let w = gen::grid_laplacian_2d(7, 7);
        check_selected_inverse(&w.matrix, &AnalyzeOptions::default());
    }

    #[test]
    fn grid2d_nd() {
        let w = gen::grid_laplacian_2d(8, 6);
        let opts = AnalyzeOptions {
            ordering: OrderingChoice::NestedDissection(
                w.geometry,
                pselinv_order::nd::NdOptions { leaf_size: 4 },
            ),
            ..Default::default()
        };
        check_selected_inverse(&w.matrix, &opts);
    }

    #[test]
    fn grid3d() {
        let w = gen::grid_laplacian_3d(4, 3, 3);
        check_selected_inverse(&w.matrix, &AnalyzeOptions::default());
    }

    #[test]
    fn dg_blocks() {
        let w = gen::dg_hamiltonian(3, 2, 1, 5, 3);
        check_selected_inverse(&w.matrix, &AnalyzeOptions::default());
    }

    #[test]
    fn random_spd_multiple_seeds() {
        for seed in 0..4 {
            let m = gen::random_spd(28, 0.15, seed);
            check_selected_inverse(&m, &AnalyzeOptions::default());
        }
    }

    #[test]
    fn heavy_relaxation_still_exact_on_selected_set() {
        // Aggressive amalgamation introduces many explicit zeros. Without
        // the true-structure mask every stored row is exposed and must be
        // exact too. With it, `get` consults the mask; the mask marks a row
        // true when some column of the supernode has it, and amalgamation
        // only unions the merged columns' rows, so it hides no row here and
        // both runs expose the same exact set.
        let w = gen::grid_laplacian_2d(9, 7);
        let exposed = [false, true].map(|track_true_structure| {
            let opts = AnalyzeOptions {
                supernode: pselinv_order::supernodes::SupernodeOptions {
                    max_width: 16,
                    relax_small: 8,
                    relax_zero_fraction: 0.8,
                },
                track_true_structure,
                ..Default::default()
            };
            check_selected_inverse(&w.matrix, &opts)
        });
        assert_eq!(exposed[0], exposed[1], "masked and unmasked selected sets differ");
    }

    #[test]
    fn trace_matches_dense() {
        let w = gen::grid_laplacian_2d(6, 6);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf).unwrap();
        let inv = selinv_ldlt(&f);
        let dense = dense_inverse(&w.matrix);
        let dense_trace: f64 = (0..36).map(|i| dense[(i, i)]).sum();
        assert!((inv.trace() - dense_trace).abs() < 1e-9 * dense_trace.abs());
    }

    #[test]
    fn selected_entries_match_get() {
        // With and without the true-structure mask, the iterator and `get`
        // expose the same entries.
        let w = gen::grid_laplacian_2d(7, 6);
        for track_true_structure in [false, true] {
            let opts = AnalyzeOptions { track_true_structure, ..Default::default() };
            let sf = Arc::new(analyze(&w.matrix.pattern(), &opts));
            assert_eq!(sf.true_rows_of(0).is_some(), track_true_structure);
            let f = pselinv_factor::factorize(&w.matrix, sf).unwrap();
            let inv = selinv_ldlt(&f);
            let mut count = 0;
            for (i, j, v) in inv.selected_entries() {
                assert_eq!(Some(v), inv.get(i, j), "({i},{j})");
                assert_eq!(Some(v), inv.get(j, i), "symmetric access ({j},{i})");
                count += 1;
            }
            assert!(count >= w.matrix.nnz() / 2, "selected set too small: {count}");
            let exposed = (0..w.matrix.nrows())
                .flat_map(|i| (0..=i).map(move |j| (i, j)))
                .filter(|&(i, j)| inv.get(i, j).is_some())
                .count();
            assert_eq!(count, exposed, "iterator and get disagree on the selected set");
        }
    }

    #[test]
    fn to_sparse_is_symmetric_and_exact() {
        let w = gen::grid_laplacian_2d(6, 6);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf).unwrap();
        let inv = selinv_ldlt(&f);
        let m = inv.to_sparse();
        assert!(m.is_symmetric(1e-12));
        let dense = dense_inverse(&w.matrix);
        for (i, j, v) in m.iter() {
            assert!((v - dense[(i, j)]).abs() < 1e-9 * (1.0 + dense.norm_max()));
        }
        // every A-nonzero position must be present
        for (i, j, _) in w.matrix.iter() {
            assert!(m.get(i, j) != 0.0 || dense[(i, j)].abs() < 1e-12);
        }
    }

    #[test]
    fn identity_inverse_is_identity() {
        let m = SparseMatrix::identity(10);
        let sf = Arc::new(analyze(&m.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&m, sf).unwrap();
        let inv = selinv_ldlt(&f);
        for i in 0..10 {
            assert!((inv.get(i, i).unwrap() - 1.0).abs() < 1e-14);
        }
    }
}
