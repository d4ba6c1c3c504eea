//! The kernels' bits, pinned against a scalar model of the per-entry order
//! on every instruction-set path this CPU runs.
//!
//! Every path ([`Isa`]) must give each entry of `C` the same sequence of
//! rounded operations, so that the oracle chain (dense inverse → sequential
//! selected inversion → distributed engine) holds bit for bit on any host:
//!
//! * blocked path: per `KC` chunk of `k`, ascending, an accumulator starts
//!   at zero and adds `A[i,p]·B[p,j]` (a rounded multiply, then a rounded
//!   add, never fused) in ascending `p`; then `C[i,j] += α·acc`;
//! * scalar path, `A` as stored: `C[i,j] += A[i,p]·(α·B[p,j])` in ascending
//!   `p`, skipping a zero `α·B[p,j]`;
//! * scalar path, `A` transposed: a dot product from zero, then
//!   `C[i,j] += α·s`.
//!
//! The model writes those loops out one entry at a time; [`gemm_on`] and
//! [`gemm_tiled_on`] must match it by `to_bits`. The shapes are ragged on
//! purpose: odd panel counts (a lone last panel beside the AVX-512 pairs),
//! row counts off the tile height, `n` off the panel width (a ragged
//! second panel in a pair), several `KC` chunks, and `α ∉ {0, 1}`.

use super::*;
use std::io::Write;

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

/// `op(X)[i, j]`.
fn op_at(x: &Mat, t: Transpose, i: usize, j: usize) -> f64 {
    match t {
        Transpose::No => x[(i, j)],
        Transpose::Yes => x[(j, i)],
    }
}

/// Adds `op(A)[i, p0..p1] · op(B)[p0..p1, j]` to `x` as a blocked-path pair
/// does: one `α·acc` per `KC` chunk, each summed from zero.
fn model_blocked(
    x: f64,
    alpha: f64,
    a: impl Fn(usize) -> f64,
    b: impl Fn(usize) -> f64,
    p0: usize,
    p1: usize,
) -> f64 {
    let mut x = x;
    for c0 in (p0..p1).step_by(KC) {
        let mut acc = 0.0;
        for p in c0..(c0 + KC).min(p1) {
            acc += a(p) * b(p);
        }
        x += alpha * acc;
    }
    x
}

/// Adds `op(A)[i, p0..p1] · op(B)[p0..p1, j]` to `x` as the `ta = No`
/// scalar path does.
fn model_scalar(
    x: f64,
    alpha: f64,
    a: impl Fn(usize) -> f64,
    b: impl Fn(usize) -> f64,
    p0: usize,
    p1: usize,
) -> f64 {
    let mut x = x;
    for p in p0..p1 {
        let bpj = alpha * b(p);
        if bpj != 0.0 {
            x += a(p) * bpj;
        }
    }
    x
}

/// [`gemm`] by the model, one entry at a time.
fn model_gemm(
    alpha: f64,
    a: &Mat,
    ta: Transpose,
    b: &Mat,
    tb: Transpose,
    beta: f64,
    c: &Mat,
) -> Mat {
    let (m, n, k) = gemm_shapes(a, ta, b, tb, c);
    let mut out = c.clone();
    for j in 0..n {
        for i in 0..m {
            let mut x = c[(i, j)];
            if beta != 1.0 {
                x *= beta;
            }
            if alpha != 0.0 {
                let (ai, bj) = (|p| op_at(a, ta, i, p), |p| op_at(b, tb, p, j));
                x = match (scalar_path(m, n, k), ta) {
                    (false, _) => model_blocked(x, alpha, ai, bj, 0, k),
                    (true, Transpose::No) => model_scalar(x, alpha, ai, bj, 0, k),
                    (true, Transpose::Yes) => {
                        x + alpha * (0..k).fold(0.0, |s, p| s + ai(p) * bj(p))
                    }
                };
            }
            out[(i, j)] = x;
        }
    }
    out
}

/// [`gemm_tiled`] by the model: each (row block, term) pair on its own
/// path, terms ascending.
fn model_tiled(
    alpha: f64,
    a: &Mat,
    row_ptr: &[usize],
    term_ptr: &[usize],
    b: &Mat,
    c: &Mat,
) -> Mat {
    let n = b.ncols();
    let mut out = c.clone();
    for r in row_ptr.windows(2) {
        for j in 0..n {
            for i in r[0]..r[1] {
                let (ai, bj) = (|p| a[(i, p)], |p| b[(p, j)]);
                out[(i, j)] = term_ptr.windows(2).fold(c[(i, j)], |x, t| {
                    match scalar_path(r[1] - r[0], n, t[1] - t[0]) {
                        true => model_scalar(x, alpha, ai, bj, t[0], t[1]),
                        false => model_blocked(x, alpha, ai, bj, t[0], t[1]),
                    }
                });
            }
        }
    }
    out
}

fn assert_bits(got: &Mat, want: &Mat, what: &str) {
    for j in 0..want.ncols() {
        for i in 0..want.nrows() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert!(g.to_bits() == w.to_bits(), "{what}: C[{i},{j}] = {g:e}, model {w:e}");
        }
    }
}

fn ptr_of(sizes: &[usize]) -> Vec<usize> {
    std::iter::once(0)
        .chain(sizes.iter().scan(0, |at, &s| {
            *at += s;
            Some(*at)
        }))
        .collect()
}

/// The paths this CPU runs, reported on stderr (uncaptured) so that a test
/// log names them.
fn host_paths() -> Vec<Isa> {
    let paths: Vec<Isa> = Isa::ALL.into_iter().filter(|isa| isa.supported()).collect();
    let _ = writeln!(
        std::io::stderr(),
        "dense kernel bit pin: ran {paths:?} (host path {:?})",
        Isa::host()
    );
    paths
}

#[test]
fn gemm_matches_the_per_entry_model_on_every_isa_path() {
    use Transpose::{No, Yes};
    // (m, n, k): blocked unless noted. 37 rows end in a 5-row tile; n = 20
    // and 12 are 5 and 3 panels (a lone last one); n = 13 and 7 end in a
    // ragged panel inside a pair; k = 600 and 260 are 3 and 2 `KC` chunks;
    // m = 130 spans two `MC` blocks; the last two shapes take the scalar path.
    let shapes = [
        (37, 20, 600),
        (64, 13, 300),
        (29, 7, 260),
        (130, 12, 70),
        (5, 30, 200),
        (8, 8, 257),
        (12, 9, 11),
        (7, 3, 40),
    ];
    let cases =
        [(No, No, -0.75, 1.0), (Yes, No, 1.5, 0.5), (No, Yes, 0.3, 0.0), (Yes, Yes, -2.0, 1.0)];
    for isa in host_paths() {
        for (s, &(m, n, k)) in shapes.iter().enumerate() {
            for (v, &(ta, tb, alpha, beta)) in cases.iter().enumerate() {
                let seed = (s * 10 + v) as u64;
                let (ar, ac) = if ta == No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == No { (k, n) } else { (n, k) };
                let (a, b) = (rand_mat(ar, ac, seed, 0), rand_mat(br, bc, seed + 1000, 100));
                let c0 = rand_mat(m, n, seed + 2000, 0);
                let mut c = c0.clone();
                gemm_on(isa, alpha, &a, ta, &b, tb, beta, &mut c);
                let what = format!("{isa:?} gemm {m}x{n}x{k} {ta:?}/{tb:?} α={alpha} β={beta}");
                assert_bits(&c, &model_gemm(alpha, &a, ta, &b, tb, beta, &c0), &what);
            }
        }
    }
}

#[test]
fn gemm_tiled_matches_the_per_entry_model_on_every_isa_path() {
    // Row blocks off the tile height (13, 70) and on it (40, 8); terms that
    // take the scalar path beside blocked ones, and one longer than a `KC`
    // chunk (300); n = 12 and 20 are odd panel counts, 13 and 7 end in a
    // ragged panel inside a pair, 1 is one ragged lone panel.
    let (rows, terms) = ([13, 40, 8, 70], [3, 300, 17, 57]);
    let (row_ptr, term_ptr) = (ptr_of(&rows), ptr_of(&terms));
    let (m, k) = (row_ptr[rows.len()], term_ptr[terms.len()]);
    for isa in host_paths() {
        for (s, &n) in [12, 20, 13, 7, 1].iter().enumerate() {
            for (v, &alpha) in [-0.75, 1.5].iter().enumerate() {
                let seed = (s * 10 + v) as u64;
                let (a, b) = (rand_mat(m, k, seed, 0), rand_mat(k, n, seed + 1000, 100));
                let c0 = rand_mat(m, n, seed + 2000, 0);
                let mut c = c0.clone();
                let (tiles, panels) = (RowTiles::from_mat(&a, &row_ptr), PackedCols::new(&b));
                gemm_tiled_on(isa, alpha, &tiles, &term_ptr, &panels, &mut c);
                let what = format!("{isa:?} gemm_tiled n={n} α={alpha}");
                assert_bits(&c, &model_tiled(alpha, &a, &row_ptr, &term_ptr, &b, &c0), &what);
            }
        }
    }
}
