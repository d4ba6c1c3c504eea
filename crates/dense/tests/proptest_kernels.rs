//! Property tests: the blocked GEMM/TRSM kernels must agree with the
//! seed's scalar references (`support`) on every transpose variant,
//! alpha/beta combination, and the odd/degenerate shape set
//! {0, 1, 7, 48, 130} (empty operands, single elements, sub-tile sizes, one
//! TRSM block, and multi-block problems that cross the packing boundaries).

mod support;

use proptest::prelude::*;
use pselinv_dense::kernels::{
    gemm, trsm_left_lower, trsm_left_lower_trans, trsm_right_lower, trsm_right_lower_trans,
};
use pselinv_dense::{Mat, Transpose};
use support::{
    gemm_naive, trsm_left_lower_naive, trsm_left_lower_trans_naive, trsm_right_lower_naive,
    trsm_right_lower_trans_naive,
};

const SHAPES: [usize; 5] = [0, 1, 7, 48, 130];
const COEFFS: [f64; 4] = [0.0, 1.0, -1.0, 0.75];

fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1) | 1;
    let mut a = Mat::zeros(m, n);
    for j in 0..n {
        for i in 0..m {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            a[(i, j)] = (state as f64 / u64::MAX as f64) * 2.0 - 1.0;
        }
    }
    a
}

/// Well-conditioned lower-triangular matrix for solve tests.
fn lower_mat(w: usize, unit: bool, seed: u64) -> Mat {
    let src = rand_mat(w, w, seed);
    let mut l = Mat::zeros(w, w);
    for j in 0..w {
        for i in j..w {
            l[(i, j)] = src[(i, j)];
        }
        l[(j, j)] = if unit { 1.0 } else { src[(j, j)].abs() + 2.0 };
    }
    l
}

fn assert_close(got: &Mat, want: &Mat, tol: f64) {
    assert_eq!(got.nrows(), want.nrows());
    assert_eq!(got.ncols(), want.ncols());
    for j in 0..got.ncols() {
        for i in 0..got.nrows() {
            let scale = 1.0_f64.max(got[(i, j)].abs()).max(want[(i, j)].abs());
            assert!(
                (got[(i, j)] - want[(i, j)]).abs() < tol * scale,
                "mismatch at ({i},{j}): {} vs {}",
                got[(i, j)],
                want[(i, j)]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn blocked_gemm_matches_naive(
        mi in 0usize..5,
        ni in 0usize..5,
        ki in 0usize..5,
        variant in 0usize..4,
        ai in 0usize..4,
        bi in 0usize..4,
        seed in 0u64..1 << 48,
    ) {
        let (m, n, k) = (SHAPES[mi], SHAPES[ni], SHAPES[ki]);
        let (ta, tb) = [
            (Transpose::No, Transpose::No),
            (Transpose::Yes, Transpose::No),
            (Transpose::No, Transpose::Yes),
            (Transpose::Yes, Transpose::Yes),
        ][variant];
        let (alpha, beta) = (COEFFS[ai], COEFFS[bi]);

        let a = match ta {
            Transpose::No => rand_mat(m, k, seed),
            Transpose::Yes => rand_mat(k, m, seed),
        };
        let b = match tb {
            Transpose::No => rand_mat(k, n, seed ^ 1),
            Transpose::Yes => rand_mat(n, k, seed ^ 1),
        };
        let c0 = rand_mat(m, n, seed ^ 2);

        let mut c_blocked = c0.clone();
        let mut c_naive = c0;
        gemm(alpha, &a, ta, &b, tb, beta, &mut c_blocked);
        gemm_naive(alpha, &a, ta, &b, tb, beta, &mut c_naive);
        assert_close(&c_blocked, &c_naive, 1e-11);
    }

    #[test]
    fn blocked_trsm_matches_naive(
        mi in 0usize..5,
        wi in 0usize..5,
        variant in 0usize..4,
        unit in 0usize..2,
        seed in 0u64..1 << 48,
    ) {
        let (m, w) = (SHAPES[mi], SHAPES[wi]);
        let unit = unit == 1;
        let l = lower_mat(w, unit, seed);

        match variant {
            0 => {
                let b = rand_mat(m, w, seed ^ 3);
                let mut x_blocked = b.clone();
                let mut x_naive = b;
                trsm_right_lower(&mut x_blocked, &l, unit);
                trsm_right_lower_naive(&mut x_naive, &l, unit);
                assert_close(&x_blocked, &x_naive, 1e-9);
            }
            1 => {
                let b = rand_mat(m, w, seed ^ 3);
                let mut x_blocked = b.clone();
                let mut x_naive = b;
                trsm_right_lower_trans(&mut x_blocked, &l, unit);
                trsm_right_lower_trans_naive(&mut x_naive, &l, unit);
                assert_close(&x_blocked, &x_naive, 1e-9);
            }
            2 => {
                let b = rand_mat(w, m, seed ^ 3);
                let mut x_blocked = b.clone();
                let mut x_naive = b;
                trsm_left_lower(&l, &mut x_blocked, unit);
                trsm_left_lower_naive(&l, &mut x_naive, unit);
                assert_close(&x_blocked, &x_naive, 1e-9);
            }
            _ => {
                let b = rand_mat(w, m, seed ^ 3);
                let mut x_blocked = b.clone();
                let mut x_naive = b;
                trsm_left_lower_trans(&l, &mut x_blocked, unit);
                trsm_left_lower_trans_naive(&l, &mut x_naive, unit);
                assert_close(&x_blocked, &x_naive, 1e-9);
            }
        }
    }

    #[test]
    fn shared_mat_gemm_output_never_aliases_inputs(
        mi in 1usize..5,
        ki in 1usize..5,
        seed in 0u64..1 << 48,
    ) {
        // A Mat wrapped around a shared Arc buffer (the zero-copy receive
        // path) must copy-on-write before GEMM mutates it: the original
        // Arc's contents stay intact.
        let (m, k) = (SHAPES[mi], SHAPES[ki]);
        let a = rand_mat(m, k, seed);
        let b = rand_mat(k, m, seed ^ 7);
        let shared = rand_mat(m, m, seed ^ 9).to_shared();
        let snapshot: Vec<f64> = shared.to_vec();

        let mut c = Mat::from_shared(m, m, shared.clone());
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        prop_assert_eq!(&shared[..], &snapshot[..]);
        prop_assert!(!c.is_shared());
    }
}

#[test]
fn blocked_gemm_matches_naive_above_packing_threshold() {
    // Big enough to exercise packing, edge tiles and multiple MC/KC
    // blocks in every transpose variant.
    let (m, n, k) = (131, 67, 300);
    for (ta, tb) in [
        (Transpose::No, Transpose::No),
        (Transpose::Yes, Transpose::No),
        (Transpose::No, Transpose::Yes),
        (Transpose::Yes, Transpose::Yes),
    ] {
        let a = match ta {
            Transpose::No => rand_mat(m, k, 21),
            Transpose::Yes => rand_mat(k, m, 21),
        };
        let b = match tb {
            Transpose::No => rand_mat(k, n, 22),
            Transpose::Yes => rand_mat(n, k, 22),
        };
        let c0 = rand_mat(m, n, 23);
        let mut c = c0.clone();
        let mut expect = c0.clone();
        gemm(1.5, &a, ta, &b, tb, -0.5, &mut c);
        gemm_naive(1.5, &a, ta, &b, tb, -0.5, &mut expect);
        assert_close(&c, &expect, 1e-10);
    }
}

#[test]
fn blocked_trsm_matches_naive_across_blocks() {
    // w > TRSM_NB (48) so the blocked path takes the gemm shortcut.
    let (w, m) = (130, 77);
    for unit in [true, false] {
        let l = lower_mat(w, unit, 30);
        let b = rand_mat(m, w, 31);

        let mut x1 = b.clone();
        let mut x2 = b.clone();
        trsm_right_lower(&mut x1, &l, unit);
        trsm_right_lower_naive(&mut x2, &l, unit);
        assert_close(&x1, &x2, 1e-9);

        let mut x1 = b.clone();
        let mut x2 = b.clone();
        trsm_right_lower_trans(&mut x1, &l, unit);
        trsm_right_lower_trans_naive(&mut x2, &l, unit);
        assert_close(&x1, &x2, 1e-9);

        let bl = rand_mat(w, m, 32);
        let mut x1 = bl.clone();
        let mut x2 = bl.clone();
        trsm_left_lower(&l, &mut x1, unit);
        trsm_left_lower_naive(&l, &mut x2, unit);
        assert_close(&x1, &x2, 1e-9);

        let mut x1 = bl.clone();
        let mut x2 = bl.clone();
        trsm_left_lower_trans(&l, &mut x1, unit);
        trsm_left_lower_trans_naive(&l, &mut x2, unit);
        assert_close(&x1, &x2, 1e-9);
    }
}
