//! Bit identity of [`gemm_partitioned`] and [`gemm_tiled`] with the
//! per-block loop they stand for: `gemm(alpha, A[r,t], B[t,:], 1.0, C[r,:])`
//! over every row block `r` and, inside it, every term `t` in order.
//! Entries are compared by `to_bits`, not within a tolerance: the
//! distributed GEMM step merges its block pairs through these entries and
//! its golden digests rest on them.
//!
//! The tiled entry is fed twice: from [`RowTiles::from_mat`], and from tiles
//! written one row block at a time through [`RowTiles::from_fn`], as the
//! distributed step's gather writes them.
//!
//! Row blocks and terms of 1–70 rows and `n ∈ {1, 7, 8, 48, 64}` put the
//! per-block products on both sides of the dense kernel's scalar/blocked
//! cut-over, so one row block can mix scalar terms with blocked ones. Exact
//! zeros in `B` exercise the scalar path's skip of a zero `alpha·B[p,j]`.
//! The named cases pin what the random ones may miss: row blocks that are
//! all scalar, terms longer than one `KC` chunk (256), row counts that are
//! not a multiple of the tile height (8), and `n` that is not a multiple of
//! the panel width (4), `n = 1` among them.

use proptest::prelude::*;
use pselinv_dense::kernels::{gemm_partitioned, gemm_tiled, scalar_path, PackedCols, RowTiles};
use pselinv_dense::{gemm, Mat, Transpose};

const WIDTHS: [usize; 5] = [1, 7, 8, 48, 64];
const ALPHAS: [f64; 2] = [-1.0, 0.5];

/// xorshift values in (-1, 1); an entry is an exact zero with probability
/// `zero_permille / 1000`.
fn rand_mat(m: usize, n: usize, seed: u64, zero_permille: u64) -> Mat {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut a = Mat::zeros(m, n);
    for j in 0..n {
        for i in 0..m {
            let v = (next() as f64 / u64::MAX as f64) * 2.0 - 1.0;
            a[(i, j)] = if next() % 1000 < zero_permille { 0.0 } else { v };
        }
    }
    a
}

fn ptr_of(sizes: &[usize]) -> Vec<usize> {
    std::iter::once(0)
        .chain(sizes.iter().scan(0, |at, &s| {
            *at += s;
            Some(*at)
        }))
        .collect()
}

/// The contract's left-hand side, one `gemm` call per (row block, term).
fn per_block(alpha: f64, a: &Mat, rows: &[usize], terms: &[usize], b: &Mat, c: &mut Mat) {
    let n = b.ncols();
    for r in rows.windows(2) {
        let mut cr = c.submatrix(r[0], 0, r[1] - r[0], n);
        for t in terms.windows(2) {
            let ar = a.submatrix(r[0], t[0], r[1] - r[0], t[1] - t[0]);
            let bt = b.submatrix(t[0], 0, t[1] - t[0], n);
            gemm(alpha, &ar, Transpose::No, &bt, Transpose::No, 1.0, &mut cr);
        }
        for j in 0..n {
            c.col_mut(j)[r[0]..r[1]].copy_from_slice(cr.col(j));
        }
    }
}

fn assert_bit_identical(
    row_sizes: &[usize],
    term_sizes: &[usize],
    n: usize,
    alpha: f64,
    seed: u64,
) {
    let (rows, terms) = (ptr_of(row_sizes), ptr_of(term_sizes));
    let (m, k) = (rows[rows.len() - 1], terms[terms.len() - 1]);
    let a = rand_mat(m, k, seed, 0);
    let b = rand_mat(k, n, seed ^ 0xb, 300);
    let c0 = rand_mat(m, n, seed ^ 0xc, 0);
    let mut want = c0.clone();
    per_block(alpha, &a, &rows, &terms, &b, &mut want);
    let packed = PackedCols::new(&b);
    // Block by block, from slices and from a closure on alternate columns.
    let written = RowTiles::from_fn(&rows, k, |r, block| {
        for p in 0..k {
            let col = &a.col(p)[rows[r]..rows[r + 1]];
            if p % 2 == 0 {
                block.push_col(col);
            } else {
                block.push_col_with(|i| col[i]);
            }
        }
    });
    let check = |entry: &str, run: &dyn Fn(&mut Mat)| {
        let mut got = c0.clone();
        run(&mut got);
        for j in 0..n {
            for i in 0..m {
                assert_eq!(
                    got[(i, j)].to_bits(),
                    want[(i, j)].to_bits(),
                    "{entry}: ({i},{j}) of rows {row_sizes:?} terms {term_sizes:?} n {n} \
                     alpha {alpha}: {} vs {}",
                    got[(i, j)],
                    want[(i, j)]
                );
            }
        }
    };
    check("gemm_partitioned", &|c| gemm_partitioned(alpha, &a, &rows, &terms, &b, c));
    let from_mat = RowTiles::from_mat(&a, &rows);
    check("gemm_tiled(from_mat)", &|c| gemm_tiled(alpha, &from_mat, &terms, &packed, c));
    check("gemm_tiled(from_fn)", &|c| gemm_tiled(alpha, &written, &terms, &packed, c));
}

/// Whether any `(row block, term)` pair takes the blocked path.
fn any_blocked(row_sizes: &[usize], term_sizes: &[usize], n: usize) -> bool {
    row_sizes.iter().any(|&r| term_sizes.iter().any(|&t| !scalar_path(r, n, t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn merged_products_equal_the_per_block_loop_bit_for_bit(
        row_sizes in proptest::collection::vec(1usize..71, 1..5),
        term_sizes in proptest::collection::vec(1usize..71, 1..6),
        ni in 0usize..5,
        ai in 0usize..2,
        seed in 0u64..1 << 48,
    ) {
        assert_bit_identical(&row_sizes, &term_sizes, WIDTHS[ni], ALPHAS[ai], seed);
    }
}

#[test]
fn a_row_block_mixes_merged_scalar_terms_with_blocked_ones() {
    // With n = 8: the 3- and 2-row blocks take the scalar path on every
    // term; the 40-row block takes the blocked path on its 50-wide term and
    // the scalar path on the three narrow ones around it.
    assert_bit_identical(&[3, 40, 2, 5], &[2, 50, 4, 4], 8, -1.0, 7);
    assert_bit_identical(&[3, 40, 2, 5], &[2, 50, 4, 4], 8, 0.5, 8);
}

#[test]
fn row_blocks_that_are_all_scalar_take_one_pass() {
    // 3·8·20, 2·8·20 and 5·8·20 multiply-adds: every pair is scalar.
    assert!(!any_blocked(&[3, 2, 5], &[20, 4, 4], 8));
    assert_bit_identical(&[3, 2, 5], &[20, 4, 4], 8, -1.0, 11);
    assert_bit_identical(&[3, 2, 5], &[20, 4, 4], 8, 0.5, 12);
}

#[test]
fn all_scalar_row_blocks_sit_beside_blocked_ones() {
    // The 2-row block is all scalar; the 45-row block is blocked on its
    // 60-wide term and scalar on the others.
    assert!(!any_blocked(&[2], &[7, 60, 1], 8) && any_blocked(&[45], &[60], 8));
    assert_bit_identical(&[2, 45, 2], &[7, 60, 1], 8, -1.0, 13);
}

#[test]
fn terms_longer_than_one_kc_chunk_flush_per_chunk() {
    // 300 and 600 columns: two and three KC chunks, beside short terms.
    assert_bit_identical(&[40, 17], &[300], 7, -1.0, 14);
    assert_bit_identical(&[40, 17], &[5, 600, 3], 7, -1.0, 15);
    assert_bit_identical(&[9], &[257, 256, 255], 13, 0.5, 16);
}

#[test]
fn consecutive_blocked_terms_flush_once_each() {
    // Two blocked terms in a row: summing them into one register pass
    // instead of one per term moves bits.
    assert!(!scalar_path(40, 8, 50));
    assert_bit_identical(&[40], &[50, 50], 8, -1.0, 17);
    assert_bit_identical(&[40, 33], &[50, 50, 70], 8, 0.5, 18);
}

#[test]
fn ragged_tiles_and_panels() {
    // Row counts off the tile height, n off the panel width, and n = 1.
    for n in [1, 5, 7, 13] {
        assert!(any_blocked(&[13, 17, 41], &[400, 70], n), "n = {n}");
        assert_bit_identical(&[13, 17, 41], &[400, 70], n, -1.0, 19 + n as u64);
    }
    assert!(!scalar_path(30, 1, 500));
    assert_bit_identical(&[30, 1], &[500], 1, -1.0, 40);
}

#[test]
fn a_zero_alpha_or_empty_partition_leaves_c_alone() {
    let a = rand_mat(4, 6, 1, 0);
    let b = rand_mat(6, 3, 2, 0);
    let c0 = rand_mat(4, 3, 3, 0);
    let mut c = c0.clone();
    gemm_partitioned(0.0, &a, &[0, 4], &[0, 6], &b, &mut c);
    assert_eq!(c, c0);
    gemm_tiled(0.0, &RowTiles::from_mat(&a, &[0, 4]), &[0, 6], &PackedCols::new(&b), &mut c);
    assert_eq!(c, c0);
    let (empty_a, empty_b) = (Mat::zeros(4, 0), Mat::zeros(0, 3));
    gemm_partitioned(1.0, &empty_a, &[0, 1, 4], &[0], &empty_b, &mut c);
    assert_eq!(c, c0);
    let empty_tiles = RowTiles::from_mat(&empty_a, &[0, 1, 4]);
    gemm_tiled(1.0, &empty_tiles, &[0], &PackedCols::new(&empty_b), &mut c);
    assert_eq!(c, c0);
}
