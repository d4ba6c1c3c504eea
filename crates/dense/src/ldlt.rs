//! LDLᵀ factorization and symmetric inversion of dense diagonal blocks.
//!
//! [`ldlt_factor`] is blocked: panels of [`FACTOR_NB`] columns are
//! pre-updated from the already-factored columns by one call into the
//! packed GEMM core, the small diagonal chunk is factored by the retained
//! scalar loops, and the sub-diagonal panel is solved by the blocked
//! right-TRSM — so the `O(n³)` work runs at blocked-kernel speed instead of
//! the seed's scalar jki loops. Blocks of at most one panel run the seed's
//! scalar loop itself (`ldlt_factor_unblocked`); the property tests
//! compare the blocked factor with a copy of that loop kept under
//! `tests/support` (LDLᵀ without pivoting is unique, so the two factors
//! agree up to rounding).

use crate::kernels::{
    gemm, gemm_raw, trsm_left_lower, trsm_left_lower_trans, trsm_right_lower_trans, Transpose,
};
use crate::mat::Mat;

/// Panel width of the blocked factorizations (LDLᵀ and LU): matches the
/// blocked-TRSM block size so panel solves hit their fast path.
pub(crate) const FACTOR_NB: usize = 48;

/// Error for a numerically singular diagonal block.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularBlock {
    /// Index of the offending pivot within the block.
    pub pivot: usize,
    /// Its value.
    pub value: f64,
}

impl std::fmt::Display for SingularBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular diagonal block: pivot {} = {:e}", self.pivot, self.value)
    }
}

impl std::error::Error for SingularBlock {}

/// In-place LDLᵀ factorization without pivoting of a symmetric block.
///
/// On return, the strictly lower part of `a` holds the unit lower factor
/// `L` and the diagonal holds `D`. The strictly upper part is left
/// untouched. No pivoting is performed: the supernodal driver guarantees
/// (via the SPD workload generators) that pivots stay away from zero; a
/// tiny pivot returns [`SingularBlock`].
///
/// Blocked left-looking panels (see module docs); agrees with the seed's
/// scalar loop up to floating-point reordering.
pub fn ldlt_factor(a: &mut Mat) -> Result<(), SingularBlock> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "ldlt_factor requires a square block");
    if n <= FACTOR_NB {
        return ldlt_factor_unblocked(a);
    }
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + FACTOR_NB).min(n);
        let nb = k1 - k0;
        if k0 > 0 {
            // Pre-update the panel from the factored columns 0..k0:
            //   A[k0.., k0..k1) -= L[k0.., 0..k0] · D · L[k0..k1, 0..k0]ᵀ.
            // W = L[k0..k1, 0..k0] · D is formed once; the diagonal chunk
            // goes through a temp so the strictly upper triangle of `a`
            // stays untouched, the below-chunk rectangle goes straight
            // through the packed GEMM core.
            let mut ltop = Mat::zeros(nb, k0);
            let mut w = Mat::zeros(nb, k0);
            for kk in 0..k0 {
                let d = a[(kk, kk)];
                for i in 0..nb {
                    let l = a[(k0 + i, kk)];
                    ltop[(i, kk)] = l;
                    w[(i, kk)] = l * d;
                }
            }
            let mut s = Mat::zeros(nb, nb);
            gemm(1.0, &w, Transpose::No, &ltop, Transpose::Yes, 0.0, &mut s);
            for j in 0..nb {
                for i in j..nb {
                    a[(k0 + i, k0 + j)] -= s[(i, j)];
                }
            }
            if k1 < n {
                // SAFETY: reads columns 0..k0 of `a` and the temp `w`,
                // writes the disjoint column range k0..k1 (rows k1..n).
                unsafe {
                    let base = a.data_mut().as_mut_ptr();
                    gemm_raw(
                        n - k1,
                        nb,
                        k0,
                        -1.0,
                        base.add(k1).cast_const(),
                        n,
                        Transpose::No,
                        w.data().as_ptr(),
                        nb,
                        Transpose::Yes,
                        1.0,
                        base.add(k0 * n + k1),
                        n,
                    );
                }
            }
        }
        // Factor the nb×nb diagonal chunk with the scalar loops (updates
        // restricted to within-panel columns; earlier panels are already
        // applied).
        for j in k0..k1 {
            let mut d = a[(j, j)];
            for k in k0..j {
                let l = a[(j, k)];
                d -= l * l * a[(k, k)];
            }
            if d.abs() < f64::EPSILON * 16.0 {
                return Err(SingularBlock { pivot: j, value: d });
            }
            a[(j, j)] = d;
            for i in (j + 1)..k1 {
                let mut s = a[(i, j)];
                for k in k0..j {
                    s -= a[(i, k)] * a[(j, k)] * a[(k, k)];
                }
                a[(i, j)] = s / d;
            }
        }
        // Panel solve below the chunk via the blocked TRSM:
        //   L21 = A21 · L11⁻ᵀ · D⁻¹.
        if k1 < n {
            let mut l11 = Mat::zeros(nb, nb);
            for j in 0..nb {
                for i in j..nb {
                    l11[(i, j)] = a[(k0 + i, k0 + j)];
                }
            }
            let mut a21 = Mat::zeros(n - k1, nb);
            for j in 0..nb {
                for i in 0..(n - k1) {
                    a21[(i, j)] = a[(k1 + i, k0 + j)];
                }
            }
            trsm_right_lower_trans(&mut a21, &l11, true);
            for j in 0..nb {
                let inv_d = 1.0 / a[(k0 + j, k0 + j)];
                for i in 0..(n - k1) {
                    a[(k1 + i, k0 + j)] = a21[(i, j)] * inv_d;
                }
            }
        }
        k0 = k1;
    }
    Ok(())
}

/// The seed's scalar jki-loop LDLᵀ, which [`ldlt_factor`] runs on blocks of
/// at most one panel.
fn ldlt_factor_unblocked(a: &mut Mat) -> Result<(), SingularBlock> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "ldlt_factor requires a square block");
    for j in 0..n {
        // d_j = a_jj - sum_k l_jk^2 d_k
        let mut d = a[(j, j)];
        for k in 0..j {
            let l = a[(j, k)];
            d -= l * l * a[(k, k)];
        }
        if d.abs() < f64::EPSILON * 16.0 {
            return Err(SingularBlock { pivot: j, value: d });
        }
        a[(j, j)] = d;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)] * a[(k, k)];
            }
            a[(i, j)] = s / d;
        }
    }
    Ok(())
}

/// Solves `A X = B` in place given the output of [`ldlt_factor`].
pub fn ldlt_solve(factored: &Mat, b: &mut Mat) {
    let n = factored.nrows();
    assert_eq!(b.nrows(), n);
    // L y = b
    trsm_left_lower(factored, b, true);
    // D z = y
    for j in 0..b.ncols() {
        for i in 0..n {
            b[(i, j)] /= factored[(i, i)];
        }
    }
    // Lᵀ x = z
    trsm_left_lower_trans(factored, b, true);
}

/// Computes the full symmetric inverse `A⁻¹ = L⁻ᵀ D⁻¹ L⁻¹` from the output
/// of [`ldlt_factor`]. This initializes the diagonal block of the selected
/// inverse (step 4 of Algorithm 1).
pub fn ldlt_invert(factored: &Mat) -> Mat {
    let n = factored.nrows();
    let mut inv = Mat::identity(n);
    ldlt_solve(factored, &mut inv);
    // Symmetrize to wash out rounding asymmetry.
    for j in 0..n {
        for i in (j + 1)..n {
            let v = 0.5 * (inv[(i, j)] + inv[(j, i)]);
            inv[(i, j)] = v;
            inv[(j, i)] = v;
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm, Transpose};

    fn spd(n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..j {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
            a[(j, j)] = n as f64 + 1.0;
        }
        a
    }

    fn reconstruct(f: &Mat) -> Mat {
        let n = f.nrows();
        let mut l = Mat::identity(n);
        let mut d = Mat::zeros(n, n);
        for j in 0..n {
            d[(j, j)] = f[(j, j)];
            for i in (j + 1)..n {
                l[(i, j)] = f[(i, j)];
            }
        }
        let mut ld = Mat::zeros(n, n);
        gemm(1.0, &l, Transpose::No, &d, Transpose::No, 0.0, &mut ld);
        let mut a = Mat::zeros(n, n);
        gemm(1.0, &ld, Transpose::No, &l, Transpose::Yes, 0.0, &mut a);
        a
    }

    #[test]
    fn factor_reconstructs() {
        for n in [1, 2, 5, 12] {
            let a = spd(n, 42 + n as u64);
            let mut f = a.clone();
            ldlt_factor(&mut f).unwrap();
            let r = reconstruct(&f);
            for j in 0..n {
                for i in 0..n {
                    assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10, "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn solve_is_inverse_application() {
        let n = 7;
        let a = spd(n, 5);
        let mut f = a.clone();
        ldlt_factor(&mut f).unwrap();
        let b = spd(n, 9);
        let mut x = b.clone();
        ldlt_solve(&f, &mut x);
        let mut ax = Mat::zeros(n, n);
        gemm(1.0, &a, Transpose::No, &x, Transpose::No, 0.0, &mut ax);
        for j in 0..n {
            for i in 0..n {
                assert!((ax[(i, j)] - b[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn invert_gives_identity() {
        let n = 9;
        let a = spd(n, 13);
        let mut f = a.clone();
        ldlt_factor(&mut f).unwrap();
        let inv = ldlt_invert(&f);
        let mut prod = Mat::zeros(n, n);
        gemm(1.0, &a, Transpose::No, &inv, Transpose::No, 0.0, &mut prod);
        for j in 0..n {
            for i in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
        // symmetric by construction
        for j in 0..n {
            for i in 0..n {
                assert_eq!(inv[(i, j)], inv[(j, i)]);
            }
        }
    }

    #[test]
    fn singular_block_detected() {
        let mut a = Mat::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(0, 1)] = 1.0;
        a[(1, 1)] = 1.0; // rank 1
        let err = ldlt_factor(&mut a).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    #[test]
    fn indefinite_but_nonsingular_factors() {
        // LDLᵀ without pivoting handles negative pivots fine.
        let mut a = Mat::zeros(2, 2);
        a[(0, 0)] = -2.0;
        a[(1, 1)] = 3.0;
        a[(1, 0)] = 1.0;
        a[(0, 1)] = 1.0;
        let orig = a.clone();
        ldlt_factor(&mut a).unwrap();
        let r = reconstruct(&a);
        for j in 0..2 {
            for i in 0..2 {
                assert!((r[(i, j)] - orig[(i, j)]).abs() < 1e-12);
            }
        }
    }
}
