//! Property tests: the blocked panel factorizations must agree with the
//! seed's scalar references (`support`) across sizes straddling the panel
//! width (48), including multi-panel problems.

mod support;

use proptest::prelude::*;
use pselinv_dense::{gemm, ldlt_factor, lu_factor, lu_solve, Mat, Transpose};
use support::{ldlt_factor_naive, lu_factor_naive};

fn rand_mat(n: usize, seed: u64) -> Mat {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1) | 1;
    let mut a = Mat::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            a[(i, j)] = (state as f64 / u64::MAX as f64) * 2.0 - 1.0;
        }
    }
    a
}

/// Symmetric with a dominant diagonal so LDLᵀ without pivoting is stable.
fn sym_dd(n: usize, seed: u64) -> Mat {
    let mut a = rand_mat(n, seed);
    for j in 0..n {
        for i in 0..j {
            let v = a[(i, j)];
            a[(j, i)] = v;
        }
        a[(j, j)] = n as f64 + 2.0;
    }
    a
}

/// Diagonally dominated unsymmetric matrix (well-conditioned for LU).
fn unsym_dd(n: usize, seed: u64) -> Mat {
    let mut a = rand_mat(n, seed);
    for j in 0..n {
        a[(j, j)] += n as f64 + 2.0;
    }
    a
}

fn assert_close(got: &Mat, want: &Mat, tol: f64, what: &str) {
    for j in 0..got.ncols() {
        for i in 0..got.nrows() {
            let scale = 1.0_f64.max(got[(i, j)].abs()).max(want[(i, j)].abs());
            assert!(
                (got[(i, j)] - want[(i, j)]).abs() < tol * scale,
                "{what} at ({i},{j}): {} vs {}",
                got[(i, j)],
                want[(i, j)]
            );
        }
    }
}

/// Reconstruct `L·D·Lᵀ` from a factored LDLᵀ block.
fn ldlt_reconstruct(f: &Mat) -> Mat {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LDLᵀ without pivoting is unique, so the blocked and naive factors
    /// must agree element-wise (up to rounding), the upper triangle must
    /// be untouched, and both must reconstruct the input.
    #[test]
    fn blocked_ldlt_matches_naive(n_i in 0usize..6, seed in 0u64..1_000) {
        let n = [1usize, 7, 48, 49, 96, 130][n_i];
        let a = sym_dd(n, seed + 1);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        ldlt_factor(&mut blocked).unwrap();
        ldlt_factor_naive(&mut naive).unwrap();
        assert_close(&blocked, &naive, 1e-9, "blocked vs naive LDLT factor");
        for j in 0..n {
            for i in 0..j {
                prop_assert_eq!(
                    blocked[(i, j)].to_bits(),
                    a[(i, j)].to_bits(),
                    "upper triangle must stay untouched at ({},{})", i, j
                );
            }
        }
        let r = ldlt_reconstruct(&blocked);
        assert_close(&r, &a, 1e-9, "LDLT reconstruction");
    }

    /// Blocked LU must solve as accurately as the naive elimination
    /// (pivot sequences can differ only on floating-point ties, but the
    /// solve must agree regardless).
    #[test]
    fn blocked_lu_matches_naive(n_i in 0usize..6, seed in 0u64..1_000) {
        let n = [1usize, 7, 48, 49, 96, 130][n_i];
        let a = unsym_dd(n, seed + 1);
        let mut blocked = a.clone();
        let mut naive = a.clone();
        let piv_b = lu_factor(&mut blocked).unwrap();
        let piv_n = lu_factor_naive(&mut naive).unwrap();
        prop_assert_eq!(&piv_b, &piv_n, "dominant diagonal leaves no pivot ties");
        assert_close(&blocked, &naive, 1e-9, "blocked vs naive LU factor");
        let b = rand_mat(n, seed ^ 0xdead);
        let mut xb = b.clone();
        let mut xn = b.clone();
        lu_solve(&blocked, &piv_b, &mut xb);
        lu_solve(&naive, &piv_n, &mut xn);
        assert_close(&xb, &xn, 1e-8, "blocked vs naive LU solve");
        let mut ax = Mat::zeros(n, n);
        gemm(1.0, &a, Transpose::No, &xb, Transpose::No, 0.0, &mut ax);
        assert_close(&ax, &b, 1e-8, "LU solve residual");
    }
}
