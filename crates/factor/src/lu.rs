//! Right-looking supernodal LU factorization (unsymmetric values,
//! structurally symmetric pattern).
//!
//! This is the extension the paper describes as work in progress: the same
//! supernodal machinery as the LDLᵀ path, but with independent `L` and `U`
//! factors. The pattern is symmetrized before analysis (as SuperLU_DIST
//! does for its symbolic phase), and diagonal blocks are factored without
//! pivoting (static pivoting — the workload generators keep pivots safe).

use crate::dag::{self, default_pool, Cells, Supernodal};
use crate::panel::{relative_indices, scatter_lower, scatter_upper, zeroed, Panel};
use pselinv_dense::kernels::{gemm_raw, trsm_left_lower, trsm_right_lower_trans};
use pselinv_dense::{Mat, Transpose};
use pselinv_order::SymbolicFactor;
use pselinv_pool::Pool;
use pselinv_sparse::SparseMatrix;
use std::sync::Arc;

use crate::ldlt::FactorError;

/// A supernodal LU factorization `P A Pᵀ = L U`.
///
/// Per supernode `K`:
/// * `l.diag` — `w×w` block holding unit-lower `L_{K,K}` strictly below the
///   diagonal and `U_{K,K}` on and above it;
/// * `l.below` — `L_{R,K}` (`r×w`);
/// * `uright` — `U_{K,R}ᵀ` (`r×w`): row `p` holds column `R[p]` of `U_{K,*}`.
#[derive(Clone, Debug)]
pub struct LuFactor {
    /// Shared symbolic structure (of the symmetrized pattern).
    pub symbolic: Arc<SymbolicFactor>,
    /// Combined `L`/`U` diagonal + `L` below-panel per supernode.
    pub l: Vec<Panel>,
    /// `U_{K,R}ᵀ` panels per supernode.
    pub uright: Vec<Mat>,
}

/// Factorizes a (possibly unsymmetric) matrix whose symmetrized pattern
/// matches `symbolic`, on a pool with one worker per available CPU
/// ([`default_pool`]).
pub fn factorize_lu(
    a: &SparseMatrix,
    symbolic: Arc<SymbolicFactor>,
) -> Result<LuFactor, FactorError> {
    factorize_lu_on(a, symbolic, &default_pool())
}

/// [`factorize_lu`] on a pool the caller owns; bit-identical at every
/// worker count, as [`crate::factorize_on`].
pub fn factorize_lu_on(
    a: &SparseMatrix,
    symbolic: Arc<SymbolicFactor>,
    pool: &Pool,
) -> Result<LuFactor, FactorError> {
    let sf = &*symbolic;
    if a.nrows() != sf.n || a.ncols() != sf.n {
        return Err(FactorError::ShapeMismatch { matrix_n: a.nrows(), symbolic_n: sf.n });
    }
    // Lower entries of `P A Pᵀ` into the l panels; upper entries A_ij,
    // i < j, walked as column i of Aᵀ, into row i of supernode t = sn(i):
    // diag's upper part for j < end_col(t), else uright.
    let at = a.transpose();
    let (l, uright) = dag::per_supernode(sf, pool, |s, buf| {
        let mut panel = Panel::zeros(sf, s);
        let mut uright = Mat::zeros(sf.rows_of(s).len(), sf.width(s));
        scatter_lower(sf, a, s, &mut panel, buf);
        scatter_upper(sf, &at, s, &mut panel.diag, &mut uright, buf);
        (panel, uright)
    })
    .into_iter()
    .unzip();

    let work = Lu { sf, l: Cells::new(l), uright: Cells::new(uright) };
    dag::run(sf, pool, &work)?;
    let (l, uright) = (work.l.into_inner(), work.uright.into_inner());
    Ok(LuFactor { symbolic, l, uright })
}

/// The LU arithmetic of the DAG's tasks.
struct Lu<'a> {
    sf: &'a SymbolicFactor,
    l: Cells<Panel>,
    uright: Cells<Mat>,
}

/// One participant's workspace: relative indices and the two updates.
#[derive(Default)]
struct Scratch {
    idx: Vec<usize>,
    ul: Vec<f64>,
    uu: Vec<f64>,
}

impl Supernodal for Lu<'_> {
    type Scratch = Scratch;

    unsafe fn factor(&self, s: usize, _: &mut Scratch) -> Result<(), usize> {
        let Panel { diag: dblk, below } = self.l.get_mut(s);
        let uhat = self.uright.get_mut(s);
        let w = dblk.nrows();

        // 1. Unpivoted LU of the diagonal block (in place: unit L + U).
        for k in 0..w {
            let d = dblk[(k, k)];
            if d.abs() < f64::EPSILON * 16.0 {
                return Err(k);
            }
            for i in (k + 1)..w {
                dblk[(i, k)] /= d;
            }
            for j in (k + 1)..w {
                let ukj = dblk[(k, j)];
                if ukj == 0.0 {
                    continue;
                }
                for i in (k + 1)..w {
                    let lik = dblk[(i, k)];
                    dblk[(i, j)] -= lik * ukj;
                }
            }
        }

        // 2. Panel solves: L_{R,K} = A_{R,K} U_{K,K}⁻¹ and
        //    U_{K,R}ᵀ = A_{K,R}ᵀ L_{K,K}⁻ᵀ. Nothing to solve for a root.
        if below.nrows() > 0 {
            // X·U = B  ⇔  X·(Uᵀ)ᵀ = B with Uᵀ lower (non-unit).
            let mut ut = Mat::zeros(w, w);
            for j in 0..w {
                for i in 0..=j {
                    ut[(j, i)] = dblk[(i, j)];
                }
            }
            trsm_right_lower_trans(below, &ut, false);
            trsm_right_lower_trans(uhat, dblk, true);
        }
        Ok(())
    }

    /// Block `b`'s updates to its target: A_{i,c} -= L_{i,K} U_{K,c}
    /// (lower) and A_{c,i} -= L_{c,K} U_{K,i} (upper). Both GEMM operands
    /// are read in place at row lb of the source panels (leading dimension
    /// r); bit-identity holds by the argument in `ldlt::factorize_on`.
    unsafe fn update(&self, s: usize, b: usize, ws: &mut Scratch) {
        let sf = self.sf;
        let b = &sf.blocks[b];
        let (below, uhat) = (&self.l.get(s).below, self.uright.get(s));
        let (w, rows) = (below.ncols(), sf.rows_of(s));
        let r = rows.len();
        let lb = b.rows_begin - sf.rows_ptr[s];
        let (nb, m) = (b.nrows(), r - lb);
        let ndiag = relative_indices(sf, b.sn, &rows[lb..], &mut ws.idx);
        debug_assert_eq!(ndiag, nb);
        let ul = zeroed(&mut ws.ul, m * nb);
        let uu = zeroed(&mut ws.uu, m * nb);
        // SAFETY: `below` and `uhat` each hold r×w values, so rows lb..r
        // (and lb..lb+nb) of their w columns under leading dimension r end
        // inside them; `ul`/`uu` are m×nb, distinct allocations.
        let (lp, up) = (below.data()[lb..].as_ptr(), uhat.data()[lb..].as_ptr());
        // lower update: L_all · U_blkᵀ  (m × nb)
        gemm_raw(
            m,
            nb,
            w,
            1.0,
            lp,
            r,
            Transpose::No,
            up,
            r,
            Transpose::Yes,
            1.0,
            ul.as_mut_ptr(),
            m,
        );
        // upper update: U_all · L_blkᵀ  (m × nb)
        gemm_raw(
            m,
            nb,
            w,
            1.0,
            up,
            r,
            Transpose::No,
            lp,
            r,
            Transpose::Yes,
            1.0,
            uu.as_mut_ptr(),
            m,
        );

        let (tl, tu) = (self.l.get_mut(b.sn), self.uright.get_mut(b.sn));
        let idx = &ws.idx;
        for (q, (lcol, ucol)) in ul.chunks_exact(m).zip(uu.chunks_exact(m)).enumerate() {
            let cl = idx[q];
            // lower targets (i, c), i >= c
            tl.scatter_col(cl, &idx[q..], ndiag - q, &lcol[q..], |x, v| *x -= v);
            // upper targets (c, i), i > c: row cl of diag, then column cl
            // of uright
            for p in (q + 1)..ndiag {
                tl.diag[(cl, idx[p])] -= ucol[p];
            }
            let tucol = tu.col_mut(cl);
            for (&pos, &v) in idx[ndiag..].iter().zip(&ucol[ndiag..]) {
                tucol[pos] -= v;
            }
        }
    }
}

impl LuFactor {
    /// Solves `A x = b` in the original ordering.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let sf = &*self.symbolic;
        assert_eq!(b.len(), sf.n);
        let mut x: Vec<f64> = (0..sf.n).map(|new| b[sf.perm.old_of(new)]).collect();

        // Forward: L y = Pb.
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            let w = sf.width(s);
            let mut xs = Mat::zeros(w, 1);
            for jl in 0..w {
                xs[(jl, 0)] = x[first + jl];
            }
            trsm_left_lower(&self.l[s].diag, &mut xs, true);
            for jl in 0..w {
                x[first + jl] = xs[(jl, 0)];
            }
            for (p, &r) in sf.rows_of(s).iter().enumerate() {
                let mut acc = 0.0;
                for jl in 0..w {
                    acc += self.l[s].below[(p, jl)] * xs[(jl, 0)];
                }
                x[r] -= acc;
            }
        }

        // Backward: U x = y.
        for s in (0..sf.num_supernodes()).rev() {
            let first = sf.first_col(s);
            let w = sf.width(s);
            // subtract U_{K,R} x_R
            let mut xs = Mat::zeros(w, 1);
            for jl in 0..w {
                xs[(jl, 0)] = x[first + jl];
            }
            for (p, &r) in sf.rows_of(s).iter().enumerate() {
                for jl in 0..w {
                    xs[(jl, 0)] -= self.uright[s][(p, jl)] * x[r];
                }
            }
            // solve U_{K,K} x_K = rhs (upper, non-unit)
            for i in (0..w).rev() {
                let mut ssum = xs[(i, 0)];
                for k in (i + 1)..w {
                    ssum -= self.l[s].diag[(i, k)] * xs[(k, 0)];
                }
                xs[(i, 0)] = ssum / self.l[s].diag[(i, i)];
            }
            for jl in 0..w {
                x[first + jl] = xs[(jl, 0)];
            }
        }

        (0..sf.n).map(|old| x[sf.perm.new_of(old)]).collect()
    }

    /// Dense `L` (unit diagonal) of the permuted matrix, for verification.
    pub fn dense_l(&self) -> Mat {
        let sf = &*self.symbolic;
        let mut m = Mat::identity(sf.n);
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            for jl in 0..sf.width(s) {
                for il in (jl + 1)..sf.width(s) {
                    m[(first + il, first + jl)] = self.l[s].diag[(il, jl)];
                }
                for (p, &r) in sf.rows_of(s).iter().enumerate() {
                    m[(r, first + jl)] = self.l[s].below[(p, jl)];
                }
            }
        }
        m
    }

    /// Dense `U` of the permuted matrix, for verification.
    pub fn dense_u(&self) -> Mat {
        let sf = &*self.symbolic;
        let mut m = Mat::zeros(sf.n, sf.n);
        for s in 0..sf.num_supernodes() {
            let first = sf.first_col(s);
            for il in 0..sf.width(s) {
                for jl in il..sf.width(s) {
                    m[(first + il, first + jl)] = self.l[s].diag[(il, jl)];
                }
                for (p, &r) in sf.rows_of(s).iter().enumerate() {
                    m[(first + il, r)] = self.uright[s][(p, il)];
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_dense::gemm;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Unsymmetric values on a symmetric pattern, diagonally dominant.
    fn unsym(n: usize, density: f64, seed: u64) -> SparseMatrix {
        let base = gen::random_spd(n, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut t = pselinv_sparse::TripletMatrix::new(n, n);
        let mut diag_boost = vec![0.0f64; n];
        for (i, j, v) in base.iter() {
            if i != j {
                let perturbed = v * rng.random_range(0.5..1.5);
                t.push(i, j, perturbed);
                diag_boost[i] += perturbed.abs();
            }
        }
        for (i, boost) in diag_boost.iter().enumerate() {
            t.push(i, i, boost + 1.0);
        }
        t.to_csc()
    }

    fn check_lu(a: &SparseMatrix) {
        let sf = Arc::new(analyze(&a.pattern(), &AnalyzeOptions::default()));
        let f = factorize_lu(a, sf.clone()).unwrap();
        let l = f.dense_l();
        let u = f.dense_u();
        let mut lu = Mat::zeros(sf.n, sf.n);
        gemm(1.0, &l, Transpose::No, &u, Transpose::No, 0.0, &mut lu);
        let permuted = a.permute_sym(sf.perm.new_of_old());
        let scale = 1.0 + lu.norm_max();
        for j in 0..sf.n {
            for i in 0..sf.n {
                assert!(
                    (lu[(i, j)] - permuted.get(i, j)).abs() < 1e-10 * scale,
                    "({i},{j}): {} vs {}",
                    lu[(i, j)],
                    permuted.get(i, j)
                );
            }
        }
    }

    #[test]
    fn reconstructs_unsymmetric_random() {
        for seed in 0..3 {
            check_lu(&unsym(25, 0.15, seed));
        }
    }

    #[test]
    fn reconstructs_symmetric_matrix_too() {
        let w = gen::grid_laplacian_2d(6, 5);
        check_lu(&w.matrix);
    }

    #[test]
    fn solve_matches_matvec() {
        let a = unsym(40, 0.1, 9);
        let sf = Arc::new(analyze(&a.pattern(), &AnalyzeOptions::default()));
        let f = factorize_lu(&a, sf).unwrap();
        let xtrue: Vec<f64> = (0..40).map(|i| (i as f64 * 0.61).cos()).collect();
        let b = a.matvec(&xtrue);
        let x = f.solve(&b);
        for i in 0..40 {
            assert!((x[i] - xtrue[i]).abs() < 1e-8, "x[{i}]");
        }
    }

    #[test]
    fn lu_matches_ldlt_on_symmetric_input() {
        let w = gen::grid_laplacian_2d(5, 5);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let flu = factorize_lu(&w.matrix, sf.clone()).unwrap();
        let fld = crate::ldlt::factorize(&w.matrix, sf.clone()).unwrap();
        // U should equal D Lᵀ
        let u = flu.dense_u();
        let l = fld.dense_l();
        let d = fld.dense_d();
        let mut dlt = Mat::zeros(sf.n, sf.n);
        gemm(1.0, &d, Transpose::No, &l, Transpose::Yes, 0.0, &mut dlt);
        for j in 0..sf.n {
            for i in 0..sf.n {
                assert!((u[(i, j)] - dlt[(i, j)]).abs() < 1e-9);
            }
        }
    }
}
