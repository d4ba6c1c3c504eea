//! Partially pivoted LU factorization of dense blocks (unsymmetric path).
//!
//! The paper's implementation covers symmetric matrices and notes that the
//! extension to unsymmetric matrices is work in progress; we provide the
//! dense kernels for that extension here and a sequential unsymmetric
//! selected inversion in `pselinv-selinv`.

use crate::kernels::{gemm_raw, trsm_left_lower, Transpose};
use crate::ldlt::FACTOR_NB;
use crate::mat::Mat;

/// Error for a numerically singular block (no admissible pivot).
#[derive(Debug, Clone, PartialEq)]
pub struct SingularLu {
    /// Column at which elimination broke down.
    pub col: usize,
}

impl std::fmt::Display for SingularLu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular LU block at column {}", self.col)
    }
}

impl std::error::Error for SingularLu {}

/// In-place LU with partial pivoting: `P A = L U` where `L` is unit lower
/// triangular (strictly lower part of the result) and `U` upper triangular
/// (upper part including diagonal). Returns the pivot row permutation:
/// `pivots[k]` is the row swapped into position `k` at step `k`.
///
/// Blocked right-looking panels: the rank-1 updates of the scalar loop are
/// restricted to the current `FACTOR_NB`-column panel; the off-panel
/// columns are updated once per panel via the blocked left-TRSM (`U₁₂`)
/// and the packed GEMM core (Schur complement `A₂₂ -= L₂₁·U₁₂`). Blocks
/// of at most one panel run the seed's scalar elimination
/// (`lu_factor_unblocked`); both produce the same `P`, `L`, `U` up to
/// floating-point reordering.
pub fn lu_factor(a: &mut Mat) -> Result<Vec<usize>, SingularLu> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "lu_factor requires a square block");
    if n <= FACTOR_NB {
        return lu_factor_unblocked(a);
    }
    let mut pivots = vec![0usize; n];
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + FACTOR_NB).min(n);
        let nb = k1 - k0;
        // Unblocked panel factorization with partial pivoting; row swaps
        // apply to the whole matrix so `pivots` keeps the scalar loop's semantics.
        for k in k0..k1 {
            let mut p = k;
            let mut best = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < f64::EPSILON * 16.0 {
                return Err(SingularLu { col: k });
            }
            pivots[k] = p;
            if p != k {
                for j in 0..n {
                    let t = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = t;
                }
            }
            let d = a[(k, k)];
            for i in (k + 1)..n {
                a[(i, k)] /= d;
            }
            // Rank-1 update of the remaining panel columns only.
            for j in (k + 1)..k1 {
                let ukj = a[(k, j)];
                if ukj == 0.0 {
                    continue;
                }
                for i in (k + 1)..n {
                    let lik = a[(i, k)];
                    a[(i, j)] -= lik * ukj;
                }
            }
        }
        if k1 < n {
            // U₁₂ := L₁₁⁻¹ · A[k0..k1, k1..n) via the blocked TRSM.
            let mut l11 = Mat::zeros(nb, nb);
            for j in 0..nb {
                for i in j..nb {
                    l11[(i, j)] = a[(k0 + i, k0 + j)];
                }
            }
            let mut u12 = Mat::zeros(nb, n - k1);
            for j in 0..(n - k1) {
                for i in 0..nb {
                    u12[(i, j)] = a[(k0 + i, k1 + j)];
                }
            }
            trsm_left_lower(&l11, &mut u12, true);
            for j in 0..(n - k1) {
                for i in 0..nb {
                    a[(k0 + i, k1 + j)] = u12[(i, j)];
                }
            }
            // Schur complement through the packed GEMM core:
            //   A[k1.., k1..) -= L₂₁ · U₁₂.
            // SAFETY: reads columns k0..k1 of `a` and the temp `u12`,
            // writes the disjoint region (rows ≥ k1) × (columns ≥ k1).
            unsafe {
                let base = a.data_mut().as_mut_ptr();
                gemm_raw(
                    n - k1,
                    n - k1,
                    nb,
                    -1.0,
                    base.add(k0 * n + k1).cast_const(),
                    n,
                    Transpose::No,
                    u12.data().as_ptr(),
                    nb,
                    Transpose::No,
                    1.0,
                    base.add(k1 * n + k1),
                    n,
                );
            }
        }
        k0 = k1;
    }
    Ok(pivots)
}

/// The seed's scalar right-looking elimination, which [`lu_factor`] runs on
/// blocks of at most one panel.
fn lu_factor_unblocked(a: &mut Mat) -> Result<Vec<usize>, SingularLu> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "lu_factor requires a square block");
    let mut pivots = vec![0usize; n];
    for k in 0..n {
        // choose pivot
        let mut p = k;
        let mut best = a[(k, k)].abs();
        for i in (k + 1)..n {
            let v = a[(i, k)].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < f64::EPSILON * 16.0 {
            return Err(SingularLu { col: k });
        }
        pivots[k] = p;
        if p != k {
            for j in 0..n {
                let t = a[(k, j)];
                a[(k, j)] = a[(p, j)];
                a[(p, j)] = t;
            }
        }
        let d = a[(k, k)];
        for i in (k + 1)..n {
            a[(i, k)] /= d;
        }
        for j in (k + 1)..n {
            let ukj = a[(k, j)];
            if ukj == 0.0 {
                continue;
            }
            for i in (k + 1)..n {
                let lik = a[(i, k)];
                a[(i, j)] -= lik * ukj;
            }
        }
    }
    Ok(pivots)
}

/// Solves `A X = B` in place given the output of [`lu_factor`].
pub fn lu_solve(factored: &Mat, pivots: &[usize], b: &mut Mat) {
    let n = factored.nrows();
    assert_eq!(b.nrows(), n);
    // apply row swaps
    for k in 0..n {
        let p = pivots[k];
        if p != k {
            for j in 0..b.ncols() {
                let t = b[(k, j)];
                b[(k, j)] = b[(p, j)];
                b[(p, j)] = t;
            }
        }
    }
    // L y = Pb (unit lower)
    for j in 0..b.ncols() {
        for i in 0..n {
            let mut s = b[(i, j)];
            for k in 0..i {
                s -= factored[(i, k)] * b[(k, j)];
            }
            b[(i, j)] = s;
        }
    }
    // U x = y
    for j in 0..b.ncols() {
        for i in (0..n).rev() {
            let mut s = b[(i, j)];
            for k in (i + 1)..n {
                s -= factored[(i, k)] * b[(k, j)];
            }
            b[(i, j)] = s / factored[(i, i)];
        }
    }
}

/// Full inverse from the output of [`lu_factor`].
pub fn lu_invert(factored: &Mat, pivots: &[usize]) -> Mat {
    let n = factored.nrows();
    let mut inv = Mat::identity(n);
    lu_solve(factored, pivots, &mut inv);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm, Transpose};

    fn rand_mat(n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                a[(i, j)] = next();
            }
            a[(j, j)] += 3.0;
        }
        a
    }

    #[test]
    fn solve_recovers_rhs() {
        for n in [1, 3, 8] {
            let a = rand_mat(n, n as u64 + 1);
            let mut f = a.clone();
            let piv = lu_factor(&mut f).unwrap();
            let b = rand_mat(n, 99);
            let mut x = b.clone();
            lu_solve(&f, &piv, &mut x);
            let mut ax = Mat::zeros(n, n);
            gemm(1.0, &a, Transpose::No, &x, Transpose::No, 0.0, &mut ax);
            for j in 0..n {
                for i in 0..n {
                    assert!((ax[(i, j)] - b[(i, j)]).abs() < 1e-10, "n={n}");
                }
            }
        }
    }

    #[test]
    fn invert_gives_identity() {
        let n = 6;
        let a = rand_mat(n, 7);
        let mut f = a.clone();
        let piv = lu_factor(&mut f).unwrap();
        let inv = lu_invert(&f, &piv);
        let mut prod = Mat::zeros(n, n);
        gemm(1.0, &a, Transpose::No, &inv, Transpose::No, 0.0, &mut prod);
        for j in 0..n {
            for i in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] requires a swap.
        let mut a = Mat::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let piv = lu_factor(&mut a).unwrap();
        assert_eq!(piv[0], 1);
    }

    #[test]
    fn singular_detected() {
        let mut a = Mat::zeros(3, 3);
        for j in 0..3 {
            for i in 0..3 {
                a[(i, j)] = (i + j) as f64; // rank 2
            }
        }
        assert!(lu_factor(&mut a).is_err());
    }
}
