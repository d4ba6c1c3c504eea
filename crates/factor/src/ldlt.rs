//! Right-looking supernodal LDLᵀ factorization.

use crate::dag::{self, default_pool, Cells, Supernodal};
use crate::panel::{relative_indices, scatter_lower, zeroed, Panel};
use pselinv_dense::kernels::{
    gemm_raw, trsm_left_lower, trsm_left_lower_trans, trsm_right_lower_trans,
};
use pselinv_dense::{ldlt_factor, Mat, Transpose};
use pselinv_order::SymbolicFactor;
use pselinv_pool::Pool;
use pselinv_sparse::SparseMatrix;
use std::sync::Arc;

/// Errors from numeric factorization.
#[derive(Debug)]
pub enum FactorError {
    /// A diagonal block turned out numerically singular.
    Singular {
        /// Supernode whose diagonal block failed.
        supernode: usize,
        /// Pivot index within the block.
        pivot: usize,
    },
    /// Matrix shape does not match the symbolic factorization.
    ShapeMismatch {
        /// Matrix order.
        matrix_n: usize,
        /// Symbolic order.
        symbolic_n: usize,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::Singular { supernode, pivot } => {
                write!(f, "singular pivot {pivot} in supernode {supernode}")
            }
            FactorError::ShapeMismatch { matrix_n, symbolic_n } => {
                write!(f, "matrix order {matrix_n} != symbolic order {symbolic_n}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// A supernodal LDLᵀ factorization: `P A Pᵀ = L D Lᵀ`.
///
/// Panel `s` stores `L_{K,K}` (unit lower) and `D_K` in `diag`, and the
/// normalized off-diagonal rows `L_{R,K}` in `below`.
#[derive(Clone, Debug)]
pub struct LdlFactor {
    /// The symbolic structure shared with downstream consumers.
    pub symbolic: Arc<SymbolicFactor>,
    /// One dense panel per supernode.
    pub panels: Vec<Panel>,
}

/// Factorizes a symmetric matrix with the given symbolic structure, on a
/// pool with one worker per available CPU ([`default_pool`]).
///
/// Only the lower triangle of `a` (after the symbolic permutation) is
/// read; the matrix must be numerically symmetric for the result to be
/// meaningful.
///
/// ```
/// use pselinv_factor::factorize;
/// use pselinv_order::{analyze, AnalyzeOptions};
/// use pselinv_sparse::gen;
/// use std::sync::Arc;
///
/// let a = gen::random_spd(30, 0.2, 7);
/// let sf = Arc::new(analyze(&a.pattern(), &AnalyzeOptions::default()));
/// let f = factorize(&a, sf).unwrap();
/// // solve A x = b through the factorization
/// let b = vec![1.0; 30];
/// let x = f.solve(&b);
/// let r = a.matvec(&x);
/// assert!(r.iter().zip(&b).all(|(ri, bi)| (ri - bi).abs() < 1e-9));
/// ```
pub fn factorize(
    a: &SparseMatrix,
    symbolic: Arc<SymbolicFactor>,
) -> Result<LdlFactor, FactorError> {
    factorize_on(a, symbolic, &default_pool())
}

/// [`factorize`] on a pool the caller owns: the scatter of `A` and the
/// task DAG over supernode updates run on its workers. The factor is
/// bit-identical at every worker count, and a zero pivot reports the
/// lowest failing supernode, as a serial loop over the supernodes would.
pub fn factorize_on(
    a: &SparseMatrix,
    symbolic: Arc<SymbolicFactor>,
    pool: &Pool,
) -> Result<LdlFactor, FactorError> {
    let sf = &*symbolic;
    if a.nrows() != sf.n || a.ncols() != sf.n {
        return Err(FactorError::ShapeMismatch { matrix_n: a.nrows(), symbolic_n: sf.n });
    }
    let panels = dag::per_supernode(sf, pool, |s, buf| {
        let mut panel = Panel::zeros(sf, s);
        scatter_lower(sf, a, s, &mut panel, buf);
        panel
    });
    let work = Ldlt { sf, panels: Cells::new(panels) };
    dag::run(sf, pool, &work)?;
    let panels = work.panels.into_inner();
    Ok(LdlFactor { symbolic, panels })
}

/// The LDLᵀ arithmetic of the DAG's tasks.
struct Ldlt<'a> {
    sf: &'a SymbolicFactor,
    panels: Cells<Panel>,
}

/// One participant's workspace, grown to the largest block it meets:
/// relative indices, the scaled block B·D and the update U.
#[derive(Default)]
struct Scratch {
    idx: Vec<usize>,
    bd: Vec<f64>,
    u: Vec<f64>,
}

impl Supernodal for Ldlt<'_> {
    type Scratch = Scratch;

    unsafe fn factor(&self, s: usize, _: &mut Scratch) -> Result<(), usize> {
        let Panel { diag, below } = self.panels.get_mut(s);
        // 1. Factor the diagonal block.
        ldlt_factor(diag).map_err(|e| e.pivot)?;
        // 2. Normalize the below panel: L_R = A_R L⁻ᵀ D⁻¹.
        trsm_right_lower_trans(below, diag, true);
        for jl in 0..diag.nrows() {
            let d = diag[(jl, jl)];
            for v in below.col_mut(jl) {
                *v /= d;
            }
        }
        Ok(())
    }

    /// Subtracts `L_{R',s} · D_s · L_{Rb,s}ᵀ` from the target of block `b`.
    ///
    /// Bit-identical to the per-entry loop it replaced (pinned by
    /// `tests/golden.rs`): every GEMM keeps its `(m, nb, w)` shape and
    /// operand values — only A's leading dimension changed, and the packing
    /// and the scalar path read the same values in the same order — and U
    /// starts from +0.0 as the fresh zero matrix did. Each target entry
    /// still receives at most one contribution per source supernode (blocks
    /// of `s` hit distinct targets), applied in ascending `s` (the DAG
    /// chains each target's updates), so the order of the subtractions is
    /// the same. Shapes are kept on purpose: grouping blocks into wider
    /// GEMMs bought nothing measurable, and one `r×r` GEMM per supernode
    /// computed the unused upper half at 1.8× the time.
    unsafe fn update(&self, s: usize, b: usize, ws: &mut Scratch) {
        let sf = self.sf;
        let b = &sf.blocks[b];
        let Panel { diag, below } = self.panels.get(s);
        let rows = sf.rows_of(s);
        let r = rows.len();
        let lb = b.rows_begin - sf.rows_ptr[s];
        let (nb, m) = (b.nrows(), r - lb);
        // Positions of rows[lb..] in the target: the block's own rows are
        // the target's columns (the diagonal prefix), the rest lie in its
        // below panel.
        let ndiag = relative_indices(sf, b.sn, &rows[lb..], &mut ws.idx);
        debug_assert_eq!(ndiag, nb);
        // B·D = rows [lb, lb+nb) of `below`, columns scaled by D.
        ws.bd.clear();
        for jl in 0..diag.nrows() {
            let d = diag[(jl, jl)];
            ws.bd.extend(below.col(jl)[lb..lb + nb].iter().map(|v| v * d));
        }
        // U = L_{R',s} · (B·D)ᵀ, with L_{R',s} read in place as rows lb..r
        // of `below` (leading dimension r).
        let u = zeroed(&mut ws.u, m * nb);
        // SAFETY: `below` holds r×w values, so rows lb..r of its w columns
        // under leading dimension r end inside it; `bd` is nb×w; `u` is
        // m×nb and a distinct allocation from both.
        gemm_raw(
            m,
            nb,
            diag.nrows(),
            1.0,
            below.data()[lb..].as_ptr(),
            r,
            Transpose::No,
            ws.bd.as_ptr(),
            nb,
            Transpose::Yes,
            1.0,
            u.as_mut_ptr(),
            m,
        );
        // Column q of U updates target column idx[q], rows q..m.
        let target = self.panels.get_mut(b.sn);
        let idx = &ws.idx;
        for (q, ucol) in u.chunks_exact(m).enumerate() {
            target.scatter_col(idx[q], &idx[q..], ndiag - q, &ucol[q..], |x, v| *x -= v);
        }
    }
}

impl LdlFactor {
    /// Solves `A x = b` (in the *original* ordering of the input matrix).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let sf = &*self.symbolic;
        assert_eq!(b.len(), sf.n);
        // x̃ = P b
        let mut x: Vec<f64> = (0..sf.n).map(|new| b[sf.perm.old_of(new)]).collect();

        // Forward: L y = x̃.
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            let w = sf.width(s);
            let mut xs = Mat::zeros(w, 1);
            for jl in 0..w {
                xs[(jl, 0)] = x[first + jl];
            }
            trsm_left_lower(&self.panels[s].diag, &mut xs, true);
            for jl in 0..w {
                x[first + jl] = xs[(jl, 0)];
            }
            let rows = sf.rows_of(s);
            let below = &self.panels[s].below;
            for (p, &r) in rows.iter().enumerate() {
                let mut acc = 0.0;
                for jl in 0..w {
                    acc += below[(p, jl)] * xs[(jl, 0)];
                }
                x[r] -= acc;
            }
        }

        // Diagonal: D z = y.
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            for jl in 0..sf.width(s) {
                x[first + jl] /= self.panels[s].diag[(jl, jl)];
            }
        }

        // Backward: Lᵀ x = z.
        for s in (0..sf.num_supernodes()).rev() {
            let first = sf.first_col(s);
            let w = sf.width(s);
            let rows = sf.rows_of(s);
            let below = &self.panels[s].below;
            let mut xs = Mat::zeros(w, 1);
            for jl in 0..w {
                xs[(jl, 0)] = x[first + jl];
            }
            for (p, &r) in rows.iter().enumerate() {
                for jl in 0..w {
                    xs[(jl, 0)] -= below[(p, jl)] * x[r];
                }
            }
            trsm_left_lower_trans(&self.panels[s].diag, &mut xs, true);
            for jl in 0..w {
                x[first + jl] = xs[(jl, 0)];
            }
        }

        // x = Pᵀ x̃
        (0..sf.n).map(|old| x[sf.perm.new_of(old)]).collect()
    }

    /// Dense `L` (unit diagonal) of the permuted matrix; for verification
    /// at small orders only.
    pub fn dense_l(&self) -> Mat {
        let sf = &*self.symbolic;
        let mut l = Mat::identity(sf.n);
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            let w = sf.width(s);
            for jl in 0..w {
                for il in (jl + 1)..w {
                    l[(first + il, first + jl)] = self.panels[s].diag[(il, jl)];
                }
                for (p, &r) in sf.rows_of(s).iter().enumerate() {
                    l[(r, first + jl)] = self.panels[s].below[(p, jl)];
                }
            }
        }
        l
    }

    /// Dense `D` of the permuted matrix; for verification only.
    pub fn dense_d(&self) -> Mat {
        let sf = &*self.symbolic;
        let mut dm = Mat::zeros(sf.n, sf.n);
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            for jl in 0..sf.width(s) {
                dm[(first + jl, first + jl)] = self.panels[s].diag[(jl, jl)];
            }
        }
        dm
    }

    /// Total flops of the factorization (for rough cost models).
    pub fn flops(&self) -> f64 {
        let sf = &*self.symbolic;
        (0..sf.num_supernodes())
            .map(|s| {
                let w = sf.width(s) as f64;
                let r = sf.rows_of(s).len() as f64;
                // diag ldlt + panel trsm + outer product update
                w * w * w / 3.0 + r * w * w + r * r * w
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_dense::gemm;
    use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
    use pselinv_sparse::gen;

    fn check_reconstruction(a: &SparseMatrix, opts: &AnalyzeOptions) {
        let sf = Arc::new(analyze(&a.pattern(), opts));
        let f = factorize(a, sf.clone()).unwrap();
        let l = f.dense_l();
        let d = f.dense_d();
        let mut ld = Mat::zeros(sf.n, sf.n);
        gemm(1.0, &l, Transpose::No, &d, Transpose::No, 0.0, &mut ld);
        let mut ldl = Mat::zeros(sf.n, sf.n);
        gemm(1.0, &ld, Transpose::No, &l, Transpose::Yes, 0.0, &mut ldl);
        let permuted = a.permute_sym(sf.perm.new_of_old());
        let scale = 1.0 + ldl.norm_max();
        for j in 0..sf.n {
            for i in 0..sf.n {
                let want = permuted.get(i, j);
                assert!(
                    (ldl[(i, j)] - want).abs() < 1e-10 * scale,
                    "entry ({i},{j}): {} vs {}",
                    ldl[(i, j)],
                    want
                );
            }
        }
    }

    #[test]
    fn reconstructs_grid_2d() {
        let w = gen::grid_laplacian_2d(7, 6);
        check_reconstruction(&w.matrix, &AnalyzeOptions::default());
    }

    #[test]
    fn reconstructs_grid_3d_nd() {
        let w = gen::grid_laplacian_3d(4, 4, 3);
        let opts = AnalyzeOptions {
            ordering: OrderingChoice::NestedDissection(
                w.geometry,
                pselinv_order::nd::NdOptions { leaf_size: 4 },
            ),
            ..Default::default()
        };
        check_reconstruction(&w.matrix, &opts);
    }

    #[test]
    fn reconstructs_random_spd() {
        for seed in 0..4 {
            let m = gen::random_spd(30, 0.15, seed);
            check_reconstruction(&m, &AnalyzeOptions::default());
        }
    }

    #[test]
    fn reconstructs_dg_blocks() {
        let w = gen::dg_hamiltonian(3, 2, 1, 6, 5);
        check_reconstruction(&w.matrix, &AnalyzeOptions::default());
    }

    #[test]
    fn solve_matches_matvec() {
        let w = gen::grid_laplacian_2d(9, 9);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = factorize(&w.matrix, sf).unwrap();
        let n = w.matrix.nrows();
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = w.matrix.matvec(&xtrue);
        let x = f.solve(&b);
        for i in 0..n {
            assert!((x[i] - xtrue[i]).abs() < 1e-9, "x[{i}] = {} vs {}", x[i], xtrue[i]);
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        // Zero matrix with diagonal pattern: every pivot is zero.
        let n = 4;
        let mut t = pselinv_sparse::TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 0.0);
        }
        let m = t.to_csc();
        let sf = Arc::new(analyze(&m.pattern(), &AnalyzeOptions::default()));
        match factorize(&m, sf) {
            Err(FactorError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let w = gen::grid_laplacian_2d(3, 3);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let other = gen::grid_laplacian_2d(4, 4).matrix;
        assert!(matches!(factorize(&other, sf), Err(FactorError::ShapeMismatch { .. })));
    }

    #[test]
    fn flops_positive_and_monotone() {
        let small = gen::grid_laplacian_2d(6, 6);
        let big = gen::grid_laplacian_2d(12, 12);
        let fs = factorize(
            &small.matrix,
            Arc::new(analyze(&small.matrix.pattern(), &AnalyzeOptions::default())),
        )
        .unwrap();
        let fb = factorize(
            &big.matrix,
            Arc::new(analyze(&big.matrix.pattern(), &AnalyzeOptions::default())),
        )
        .unwrap();
        assert!(fs.flops() > 0.0);
        assert!(fb.flops() > fs.flops());
    }
}
