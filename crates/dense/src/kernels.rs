//! GEMM and triangular solves.
//!
//! The public entry points ([`gemm`], [`trsm_right_lower`], …) run a
//! cache-blocked, register-tiled implementation: operands are packed into
//! contiguous panels (`MR`/`NR`-interleaved, zero-padded at the edges) and
//! multiplied by a fixed-size microkernel whose accumulator tile lives in
//! registers. The microkernel runs on one of three instruction-set paths,
//! picked from CPUID at each entry call: portable and AVX2 (one `MR×NR`
//! source, compiled twice) and AVX-512 (an `MR×2NR` tile over two `B` panels,
//! written with intrinsics). Every path gives each entry the same rounded
//! multiplies and adds in the same order, never a fused multiply-add, so the
//! bits do not depend on the host (`kernels/bit_pin.rs` checks each path
//! against a scalar model). The triangular solves are blocked the same way:
//! small diagonal triangles are solved by scalar loops and the bulk of the
//! update is delegated to the GEMM core.
//!
//! [`gemm_partitioned`] and [`gemm_tiled`] multiply a matrix cut into
//! blocks of rows and terms of columns, one pass for every block pair, each
//! pair bit-identical to its own [`gemm`] call. The tiled entry takes its
//! operands already in the microkernel's layout: `A` as [`RowTiles`] (`MR`
//! rows by all of `k` per tile, one tile set per row block) and `B` as
//! [`PackedCols`] (all of `k` by `NR` columns per panel), so a caller packs
//! `B` once for many products and can write `A` straight from its sources;
//! every `KC` chunk of every term is then a slice of both, and nothing is
//! packed per call. [`scalar_path`] is the one rule that sends a product to
//! the scalar loops or the microkernel.
//!
//! The seed's scalar kernels, the reference every blocked kernel is
//! property-tested against, live with those tests (`tests/support`).

// BLAS-style kernels take (dims, scalars, ptr+ld per operand) positionally.
#![allow(clippy::too_many_arguments)]

use crate::mat::Mat;

/// Transpose flag for [`gemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

// ---- Blocking parameters -------------------------------------------------
//
// GotoBLAS-style three-level blocking: a KC×NC panel of B is packed once
// and streamed against MC×KC panels of A; the microkernel multiplies an
// MR×KC strip of packed A by a KC×NR strip of packed B into an MR×NR
// register tile of C. MC×KC×8 bytes ≈ 256 KiB keeps the A panel resident
// in L2; the MR strip of the current iteration lives in L1.

/// Rows of one packed A panel.
const MC: usize = 128;
/// Shared (inner) dimension of one packing round.
const KC: usize = 256;
/// Columns of one packed B panel.
const NC: usize = 4096;
/// Microkernel tile rows (contiguous in packed A and in column-major C).
const MR: usize = 8;
/// Microkernel tile columns.
const NR: usize = 4;
/// Below this many multiply-adds the packed path costs more than it saves
/// (packing + buffer allocation); fall through to the scalar kernels.
const SMALL_FLOPS: usize = 24 * 24 * 24;
/// Column-block width of the blocked triangular solves.
const TRSM_NB: usize = 48;

/// Reads element `(i, j)` of `op(X)` where `X` is column-major with leading
/// dimension `ld`.
///
/// # Safety
/// The caller guarantees the index is inside the allocation backing `x`:
/// `j*ld + i` (or `i*ld + j` when transposed) is in bounds.
#[inline(always)]
unsafe fn ld_get(x: *const f64, ld: usize, i: usize, j: usize, t: Transpose) -> f64 {
    match t {
        Transpose::No => *x.add(j * ld + i),
        Transpose::Yes => *x.add(i * ld + j),
    }
}

/// Packs `op(A)[i0..i0+mc, p0..p0+kc]` into `buf` as a sequence of
/// `MR`-row strips: strip `s` holds rows `s*MR..(s+1)*MR`, stored as `kc`
/// consecutive groups of `MR` values (zero-padded past `mc`).
///
/// # Safety
/// All read indices must be inside `a`'s allocation (see [`ld_get`]).
unsafe fn pack_a(
    buf: &mut [f64],
    a: *const f64,
    lda: usize,
    ta: Transpose,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
) {
    let mut idx = 0;
    let mut ir = 0;
    while ir < mc {
        let h = MR.min(mc - ir);
        for p in 0..kc {
            for r in 0..h {
                buf[idx + r] = ld_get(a, lda, i0 + ir + r, p0 + p, ta);
            }
            for r in h..MR {
                buf[idx + r] = 0.0;
            }
            idx += MR;
        }
        ir += MR;
    }
}

/// Packs `op(B)[p0..p0+kc, j0..j0+nc]` into `buf` as `NR`-column strips:
/// strip `s` holds columns `s*NR..(s+1)*NR` as `kc` groups of `NR` values
/// (zero-padded past `nc`).
///
/// # Safety
/// All read indices must be inside `b`'s allocation (see [`ld_get`]).
unsafe fn pack_b(
    buf: &mut [f64],
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    let mut idx = 0;
    let mut jr = 0;
    while jr < nc {
        let w = NR.min(nc - jr);
        for p in 0..kc {
            for s in 0..w {
                buf[idx + s] = ld_get(b, ldb, p0 + p, j0 + jr + s, tb);
            }
            for s in w..NR {
                buf[idx + s] = 0.0;
            }
            idx += NR;
        }
        jr += NR;
    }
}

/// The instruction set the kernels run on, probed once per entry call
/// ([`Isa::host`]) and passed down. Every path computes each entry with the
/// same operations in the same order, so the bits do not depend on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// Baseline codegen: the `MR×NR` microkernel and the scalar loops.
    Portable,
    /// AVX2 clones of the `MR×NR` microkernel and of the scalar loops.
    Avx2,
    /// The AVX-512 `MR×2NR` microkernel over pairs of `B` panels; a lone
    /// last panel and the scalar loops run as on [`Isa::Avx2`].
    Avx512,
}

impl Isa {
    /// Every path, narrowest first.
    const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// Whether this CPU runs the path. `is_x86_feature_detected!` caches
    /// its CPUID probe.
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Isa::Portable => true,
                Isa::Avx2 => has!("avx2"),
                Isa::Avx512 => has!("avx2") && has!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Isa::Portable
        }
    }

    /// The widest path this CPU runs.
    fn host() -> Isa {
        Isa::ALL.into_iter().rev().find(|isa| isa.supported()).unwrap_or(Isa::Portable)
    }

    /// How many of `panels` `NR`-column panels one microkernel call covers
    /// from panel `s`: two on [`Isa::Avx512`] unless `s` is the last, else
    /// one.
    #[inline(always)]
    fn panels_at(self, s: usize, panels: usize) -> usize {
        if self == Isa::Avx512 && s + 1 < panels {
            2
        } else {
            1
        }
    }
}

/// The register-tiled microkernel: `C[0..mr, 0..nr] += alpha * Ap · Bp`
/// where `Ap` is an `MR×kc` packed strip and `Bp` a `kc×NR` packed strip.
/// The accumulator tile is a fixed-size array the compiler keeps in
/// registers; `chunks_exact` gives it bounds-check-free, unrollable access.
///
/// # Safety
/// `c` must point at element `(0, 0)` of an `mr×nr` tile inside a
/// column-major matrix with leading dimension `ldc`, fully in bounds, and
/// must not alias `ap`/`bp`.
#[inline(always)]
unsafe fn microkernel(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    microkernel_body(kc, alpha, ap, bp, c, ldc, mr, nr)
}

/// [`microkernel`] compiled with AVX2 codegen enabled. Same source; the
/// wider vectors come entirely from the compiler re-vectorizing the
/// accumulator loop, with the same multiply and add per entry.
///
/// # Safety
/// As [`microkernel`], plus: the CPU must support AVX2 ([`Isa::supported`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    microkernel_body(kc, alpha, ap, bp, c, ldc, mr, nr)
}

/// The `MR×2NR` tile over two adjacent `B` panels, written with AVX-512
/// intrinsics: `C[0..mr, 0..nr] += alpha * Ap · [B0 B1]` for `NR < nr ≤
/// 2NR`. Each step loads one `MR`-row group of `Ap` into a zmm register and
/// multiplies it by each of the step's `2NR` values of `B0` and `B1`, one
/// zmm accumulator per column. Every entry gets [`microkernel_body`]'s
/// operations: from zero, one rounded multiply then one rounded add per `p`
/// ascending (`vmulpd`, `vaddpd`, never a fused `vfmadd`), then `C += alpha
/// · acc` as a multiply and an add.
///
/// # Safety
/// As [`microkernel`] for the `mr×nr` tile, with `b0` and `b1` both
/// `kc×NR` packed strips; plus: the CPU must support AVX-512F
/// ([`Isa::supported`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    b0: &[f64],
    b1: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() == kc * MR && b0.len() == kc * NR && b1.len() == kc * NR);
    debug_assert!(0 < mr && mr <= MR && NR < nr && nr <= 2 * NR);
    let mut acc = [_mm512_setzero_pd(); 2 * NR];
    for ((a, b0), b1) in ap.chunks_exact(MR).zip(b0.chunks_exact(NR)).zip(b1.chunks_exact(NR)) {
        let a = _mm512_loadu_pd(a.as_ptr());
        for j in 0..NR {
            acc[j] = _mm512_add_pd(acc[j], _mm512_mul_pd(a, _mm512_set1_pd(b0[j])));
            acc[NR + j] = _mm512_add_pd(acc[NR + j], _mm512_mul_pd(a, _mm512_set1_pd(b1[j])));
        }
    }
    let alpha = _mm512_set1_pd(alpha);
    // Rows past `mr` are neither read nor written: masked lanes do not fault.
    let rows = (0xff_u8) >> (MR - mr);
    for (j, acc) in acc.iter().enumerate() {
        // A constant bound keeps `acc` in registers; columns past `nr` skip.
        if j < nr {
            let cj = c.add(j * ldc);
            let sum = _mm512_add_pd(_mm512_maskz_loadu_pd(rows, cj), _mm512_mul_pd(alpha, *acc));
            _mm512_mask_storeu_pd(cj, rows, sum);
        }
    }
}

/// Runs the microkernel of `isa` on an `mr×nr` tile: over the `B` panel
/// `b0`, and for `nr > NR` (only on [`Isa::Avx512`], see [`Isa::panels_at`])
/// also over the next panel `b1`.
///
/// # Safety
/// As [`microkernel`], plus: `isa` must be [`Isa::supported`], and `b1` a
/// `kc×NR` packed strip when `nr > NR`.
#[inline(always)]
unsafe fn run_microkernel(
    isa: Isa,
    kc: usize,
    alpha: f64,
    ap: &[f64],
    b0: &[f64],
    b1: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    match isa {
        Isa::Avx512 if nr > NR => return microkernel_avx512(kc, alpha, ap, b0, b1, c, ldc, mr, nr),
        Isa::Avx512 | Isa::Avx2 => return microkernel_avx2(kc, alpha, ap, b0, c, ldc, mr, nr),
        Isa::Portable => {}
    }
    let _ = (isa, b1);
    microkernel(kc, alpha, ap, b0, c, ldc, mr, nr)
}

/// Shared body of the portable and AVX2 microkernels.
///
/// # Safety
/// As [`microkernel`].
#[inline(always)]
unsafe fn microkernel_body(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    debug_assert!(ap.len() == kc * MR && bp.len() == kc * NR);
    let mut acc = [0.0f64; MR * NR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for j in 0..NR {
            let bj = b[j];
            for i in 0..MR {
                acc[j * MR + i] += a[i] * bj;
            }
        }
    }
    if mr == MR && nr == NR {
        // Full tile: fixed bounds, vectorized write-back.
        for j in 0..NR {
            let cc = c.add(j * ldc);
            for i in 0..MR {
                *cc.add(i) += alpha * acc[j * MR + i];
            }
        }
    } else {
        for j in 0..nr {
            let cc = c.add(j * ldc);
            for i in 0..mr {
                *cc.add(i) += alpha * acc[j * MR + i];
            }
        }
    }
}

std::thread_local! {
    /// Per-thread packing arenas reused across every blocked-GEMM call on
    /// this thread (including pool workers), so steady-state kernels do no
    /// heap allocation. Grow-only; stale contents past the packed prefix
    /// are never read (`pack_a`/`pack_b` overwrite, zero-pad included,
    /// exactly the region the microkernels consume).
    static PACK_ARENA: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

fn arena_reserve(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packed, blocked `C += alpha * op(A) · op(B)` over raw column-major
/// buffers with leading dimensions.
///
/// # Safety
/// `a`/`b`/`c` must cover `op(A)` (`m×k`), `op(B)` (`k×n`) and `C` (`m×n`)
/// under their leading dimensions; `c` must not overlap `a` or `b`; `isa`
/// must be [`Isa::supported`].
unsafe fn gemm_blocked(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    ta: Transpose,
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    c: *mut f64,
    ldc: usize,
) {
    PACK_ARENA.with(|cell| {
        let (apack, bpack) = &mut *cell.borrow_mut();
        let mc_cap = MC.min(m).next_multiple_of(MR);
        let kc_cap = KC.min(k);
        let nc_cap = NC.min(n).next_multiple_of(NR);
        arena_reserve(apack, mc_cap * kc_cap);
        arena_reserve(bpack, kc_cap * nc_cap);
        gemm_blocked_with(isa, m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc, apack, bpack)
    })
}

/// [`gemm_blocked`] against caller-provided packing buffers.
///
/// # Safety
/// As [`gemm_blocked`]; the buffers must hold at least one MC×KC (KC×NC)
/// packing round for the clipped block sizes.
unsafe fn gemm_blocked_with(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    ta: Transpose,
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    c: *mut f64,
    ldc: usize,
    apack: &mut [f64],
    bpack: &mut [f64],
) {
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(bpack, b, ldb, tb, pc, kc, jc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(apack, a, lda, ta, ic, mc, pc, kc);
                let (panels, span) = (nc.div_ceil(NR), kc * NR);
                let mut s = 0;
                while s < panels {
                    let step = isa.panels_at(s, panels);
                    let nr = (step * NR).min(nc - s * NR);
                    let b0 = &bpack[s * span..][..span];
                    let b1 = &bpack[(s + step - 1) * span..][..span];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * (kc * MR)..][..kc * MR];
                        let ct = c.add((jc + s * NR) * ldc + ic + ir);
                        run_microkernel(isa, kc, alpha, ap, b0, b1, ct, ldc, mr, nr);
                        ir += MR;
                    }
                    s += step;
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Scalar `C += alpha * op(A) · op(B)` for problems too small to pack
/// (the seed's loop orders, over raw buffers with leading dimensions).
///
/// # Safety
/// Same bounds contract as [`gemm_blocked`].
unsafe fn gemm_scalar(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    ta: Transpose,
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    c: *mut f64,
    ldc: usize,
) {
    match ta {
        #[cfg(target_arch = "x86_64")]
        Transpose::No if isa != Isa::Portable => {
            scalar_jki_avx2(m, n, k, alpha, a, lda, b, ldb, tb, c, ldc)
        }
        Transpose::No => scalar_jki(m, n, k, alpha, a, lda, b, ldb, tb, c, ldc),
        Transpose::Yes => {
            // Columns of the stored A are rows of op(A): dot products.
            for j in 0..n {
                for i in 0..m {
                    let acol = a.add(i * lda);
                    let mut s = 0.0;
                    for p in 0..k {
                        s += *acol.add(p) * ld_get(b, ldb, p, j, tb);
                    }
                    *c.add(j * ldc + i) += alpha * s;
                }
            }
        }
    }
}

/// The `ta = No` scalar loop nest, in jki order: stream down columns of
/// `A` and `C`. Each `C[i,j]` gets `A[i,p]·(alpha·op(B)[p,j])` added in
/// ascending `p`, one rounded multiply and one rounded add each (Rust never
/// contracts them into a fused multiply-add), and a zero `alpha·op(B)[p,j]`
/// is skipped — the per-entry order [`gemm_partitioned`] relies on.
///
/// # Safety
/// As [`gemm_scalar`].
#[inline(always)]
unsafe fn scalar_jki(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    c: *mut f64,
    ldc: usize,
) {
    for j in 0..n {
        for p in 0..k {
            let bpj = alpha * ld_get(b, ldb, p, j, tb);
            if bpj == 0.0 {
                continue;
            }
            let acol = a.add(p * lda);
            let ccol = c.add(j * ldc);
            for i in 0..m {
                *ccol.add(i) += *acol.add(i) * bpj;
            }
        }
    }
}

/// [`scalar_jki`] compiled with AVX2 codegen: the row loop runs four lanes
/// wide with the same multiply and add per entry, so the bits do not move.
///
/// # Safety
/// As [`gemm_scalar`], plus: the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scalar_jki_avx2(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    c: *mut f64,
    ldc: usize,
) {
    scalar_jki(m, n, k, alpha, a, lda, b, ldb, tb, c, ldc)
}

/// Scales the `m×n` region of `c` (leading dimension `ldc`) by `beta`.
///
/// # Safety
/// The region must be inside `c`'s allocation.
unsafe fn scale_c(m: usize, n: usize, beta: f64, c: *mut f64, ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let cc = c.add(j * ldc);
        for i in 0..m {
            *cc.add(i) *= beta;
        }
    }
}

/// `C = alpha * op(A) * op(B) + beta * C` over raw column-major buffers
/// with explicit leading dimensions — the core the [`Mat`] wrapper and the
/// blocked triangular solves share (the solves update sub-panels of one
/// allocation in place, which safe slices cannot express).
///
/// # Safety
/// Under the leading dimensions, `a` must cover `op(A)` (`m×k`), `b` must
/// cover `op(B)` (`k×n`) and `c` must cover `C` (`m×n`); the element sets
/// of `C` and of the operands must be disjoint (distinct regions of one
/// allocation are fine).
pub unsafe fn gemm_raw(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    ta: Transpose,
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    gemm_raw_on(Isa::host(), m, n, k, alpha, a, lda, ta, b, ldb, tb, beta, c, ldc)
}

/// [`gemm_raw`] on the kernels of `isa`.
///
/// # Safety
/// As [`gemm_raw`], plus: `isa` must be [`Isa::supported`].
unsafe fn gemm_raw_on(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    ta: Transpose,
    b: *const f64,
    ldb: usize,
    tb: Transpose,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    scale_c(m, n, beta, c, ldc);
    if alpha == 0.0 || k == 0 || m == 0 || n == 0 {
        return;
    }
    if scalar_path(m, n, k) {
        gemm_scalar(isa, m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc);
    } else {
        gemm_blocked(isa, m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc);
    }
}

/// Checks the shapes of a GEMM call and returns `(m, n, k)`.
fn gemm_shapes(a: &Mat, ta: Transpose, b: &Mat, tb: Transpose, c: &Mat) -> (usize, usize, usize) {
    let (m, ka) = match ta {
        Transpose::No => (a.nrows(), a.ncols()),
        Transpose::Yes => (a.ncols(), a.nrows()),
    };
    let (kb, n) = match tb {
        Transpose::No => (b.nrows(), b.ncols()),
        Transpose::Yes => (b.ncols(), b.nrows()),
    };
    assert_eq!(ka, kb, "gemm inner dimensions differ: {ka} vs {kb}");
    assert_eq!(c.nrows(), m, "gemm C row mismatch");
    assert_eq!(c.ncols(), n, "gemm C col mismatch");
    (m, n, k_of(ka))
}

#[inline]
fn k_of(k: usize) -> usize {
    k
}

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes: `op(A)` is `m×k`, `op(B)` is `k×n`, `C` is `m×n`.
///
/// Large products run the packed blocked path; small ones the scalar
/// kernels. Both agree with the seed's scalar loops (kept under
/// `tests/support`) up to floating-point reordering.
pub fn gemm(alpha: f64, a: &Mat, ta: Transpose, b: &Mat, tb: Transpose, beta: f64, c: &mut Mat) {
    gemm_on(Isa::host(), alpha, a, ta, b, tb, beta, c)
}

/// [`gemm`] on the kernels of `isa`.
///
/// # Panics
/// As [`gemm`], and if `isa` is not [`Isa::supported`].
fn gemm_on(
    isa: Isa,
    alpha: f64,
    a: &Mat,
    ta: Transpose,
    b: &Mat,
    tb: Transpose,
    beta: f64,
    c: &mut Mat,
) {
    assert!(isa.supported(), "{isa:?} is not supported on this CPU");
    let (m, n, k) = gemm_shapes(a, ta, b, tb, c);
    let lda = a.nrows();
    let ldb = b.nrows();
    let ldc = c.nrows();
    // SAFETY: shapes were checked against the stored dimensions, the
    // three matrices are distinct allocations (`a`/`b` shared, `c` mutable)
    // and `isa` is supported.
    unsafe {
        gemm_raw_on(
            isa,
            m,
            n,
            k,
            alpha,
            a.data().as_ptr(),
            lda,
            ta,
            b.data().as_ptr(),
            ldb,
            tb,
            beta,
            c.data_mut().as_mut_ptr(),
            ldc,
        );
    }
}

/// Whether a `rows×kk` by `kk×n` product takes the scalar path: below
/// 24³ multiply-adds, packing costs more than it saves. The one rule that
/// [`gemm`], [`gemm_partitioned`] and [`gemm_tiled`] apply, public so that a
/// caller laying out operands for [`gemm_tiled`] decides as they do: a
/// `(row block, term)` pair takes the blocked path exactly when
/// `!scalar_path(rows, n, kk)`, so a row block has a blocked-path pair
/// exactly when `!scalar_path(rows, n, widest)` for its widest term.
pub fn scalar_path(rows: usize, n: usize, kk: usize) -> bool {
    rows * n * kk <= SMALL_FLOPS
}

/// Asserts that `ptr` is a partition of `0..end`: it starts at `0`, ends at
/// `end` and never decreases.
fn check_partition(ptr: &[usize], end: usize) {
    assert!(ptr.first() == Some(&0) && ptr.last() == Some(&end), "partition must span 0..{end}");
    assert!(ptr.windows(2).all(|w| w[0] <= w[1]), "partition must be non-decreasing");
}

/// `B` (`k×n`) packed once into the microkernel's column panels: panel `s`
/// holds columns `s·NR..(s+1)·NR` as `k` consecutive groups of `NR` values,
/// zero-padded past `n`. Rows `p0..p0+kc` of a panel — one `KC` chunk of any
/// term — are then one contiguous slice, so one pack serves every row block
/// and term of a [`gemm_tiled`] call, and every call that shares `B`.
pub struct PackedCols {
    k: usize,
    n: usize,
    data: Vec<f64>,
}

impl PackedCols {
    /// Packs `b`.
    pub fn new(b: &Mat) -> Self {
        let (k, n) = (b.nrows(), b.ncols());
        let mut data = vec![0.0; n.div_ceil(NR) * NR * k];
        // SAFETY: `pack_b` reads `b[0..k, 0..n]` under `b`'s own leading
        // dimension and writes `n.div_ceil(NR)` panels of `k·NR` values.
        unsafe { pack_b(&mut data, b.data().as_ptr(), k, Transpose::No, 0, k, 0, n) };
        PackedCols { k, n, data }
    }

    /// Rows of `B`.
    pub fn nrows(&self) -> usize {
        self.k
    }

    /// Columns of `B`.
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// `B[p, j]`.
    #[inline(always)]
    fn at(&self, p: usize, j: usize) -> f64 {
        self.data[((j / NR) * self.k + p) * NR + j % NR]
    }

    /// Rows `p0..p0+kc` of panel `s`, as the microkernel reads them.
    #[inline(always)]
    fn panel(&self, s: usize, p0: usize, kc: usize) -> &[f64] {
        &self.data[(s * self.k + p0) * NR..][..kc * NR]
    }
}

/// `A` (`m×k`) cut into row blocks, each packed into the microkernel's row
/// tiles: tile `s` of a block holds the block's rows `s·MR..(s+1)·MR` as `k`
/// consecutive groups of `MR` values, zero-padded past the block's end, and
/// no tile straddles two blocks. One `KC` chunk of any term is then one
/// contiguous slice of each tile. A caller can write the tiles straight
/// from its sources ([`RowTiles::from_fn`]) instead of first assembling `A`.
pub struct RowTiles {
    k: usize,
    row_ptr: Vec<usize>,
    /// First tile of each row block, then the tile count.
    tile_ptr: Vec<usize>,
    data: Vec<f64>,
}

impl RowTiles {
    /// Tiles for row blocks at `row_ptr` (`0`, …, `m`, non-decreasing) and
    /// `k` columns, written one row block at a time, in order:
    /// `fill(r, block)` pushes the `k` columns of row block `r`, in order.
    /// Every value is written once, the padding included, and a block's
    /// tiles are written together, while they are in cache.
    ///
    /// # Panics
    /// If a `fill` pushes other than `k` columns.
    pub fn from_fn(
        row_ptr: &[usize],
        k: usize,
        mut fill: impl FnMut(usize, &mut BlockPush<'_>),
    ) -> Self {
        check_partition(row_ptr, row_ptr.last().copied().unwrap_or(0));
        let tile_ptr: Vec<usize> = std::iter::once(0)
            .chain(row_ptr.windows(2).scan(0, |at, r| {
                *at += (r[1] - r[0]).div_ceil(MR);
                Some(*at)
            }))
            .collect();
        let span = k * MR;
        let mut data: Vec<f64> = Vec::with_capacity(tile_ptr[tile_ptr.len() - 1] * span);
        for (r, block) in row_ptr.windows(2).enumerate() {
            let (start, end) = (tile_ptr[r] * span, tile_ptr[r + 1] * span);
            let tiles = &mut data.spare_capacity_mut()[..end - start];
            let mut push = BlockPush { tiles, rows: block[1] - block[0], k, cols: 0 };
            fill(r, &mut push);
            assert_eq!(push.cols, k, "row block {r} takes all {k} columns");
            // SAFETY: `end` is within the capacity reserved above, and the
            // `k` pushes wrote every value of `start..end`: each column
            // writes all `MR` rows of each of the block's tiles, the padding
            // included ([`BlockPush::push_col`], [`BlockPush::push_col_with`]).
            unsafe { data.set_len(end) };
        }
        RowTiles { k, row_ptr: row_ptr.to_vec(), tile_ptr, data }
    }

    /// The tiles of `a`'s rows, cut into row blocks at `row_ptr`.
    pub fn from_mat(a: &Mat, row_ptr: &[usize]) -> Self {
        assert_eq!(row_ptr.last(), Some(&a.nrows()), "row blocks must span A's rows");
        RowTiles::from_fn(row_ptr, a.ncols(), |r, block| {
            for p in 0..a.ncols() {
                block.push_col(&a.col(p)[row_ptr[r]..row_ptr[r + 1]]);
            }
        })
    }

    /// Rows of `A`.
    pub fn nrows(&self) -> usize {
        self.row_ptr[self.row_ptr.len() - 1]
    }

    /// Columns of `A`.
    pub fn ncols(&self) -> usize {
        self.k
    }
}

impl Drop for RowTiles {
    /// Hands the buffer back to this thread's arena if it is larger.
    fn drop(&mut self) {
        TILE_ARENA.with(|arena| {
            let mut arena = arena.borrow_mut();
            if arena.capacity() < self.data.capacity() {
                *arena = std::mem::take(&mut self.data);
            }
        });
    }
}

std::thread_local! {
    /// The largest [`RowTiles`] buffer dropped on this thread, reused by the
    /// next [`RowTiles::from_fn`]: steady-state gathers write into memory
    /// that is already mapped.
    static TILE_ARENA: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// One row block of a [`RowTiles`] being written ([`RowTiles::from_fn`]):
/// its tiles, still unwritten, filled one column at a time.
pub struct BlockPush<'t> {
    tiles: &'t mut [std::mem::MaybeUninit<f64>],
    rows: usize,
    k: usize,
    /// Columns pushed so far.
    cols: usize,
}

impl BlockPush<'_> {
    /// Appends the block's next column: its row `i` gets `src[i]`.
    #[inline]
    pub fn push_col(&mut self, src: &[f64]) {
        assert_eq!(src.len(), self.rows, "one value per row of the block");
        let at = self.next_col() * MR;
        let span = self.k * MR;
        let mut chunks = src.chunks_exact(MR);
        for (s, chunk) in (&mut chunks).enumerate() {
            for (d, &v) in self.tiles[s * span + at..][..MR].iter_mut().zip(chunk) {
                d.write(v);
            }
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let dst = &mut self.tiles[(self.rows / MR) * span + at..][..MR];
            for (i, d) in dst.iter_mut().enumerate() {
                d.write(rest.get(i).copied().unwrap_or(0.0));
            }
        }
    }

    /// Appends the block's next column: its row `i` gets `value(i)`, rows
    /// ascending.
    #[inline]
    pub fn push_col_with(&mut self, mut value: impl FnMut(usize) -> f64) {
        let at = self.next_col() * MR;
        let span = self.k * MR;
        for (s, i0) in (0..self.rows).step_by(MR).enumerate() {
            for (i, d) in self.tiles[s * span + at..][..MR].iter_mut().enumerate() {
                d.write(if i0 + i < self.rows { value(i0 + i) } else { 0.0 });
            }
        }
    }

    /// The index of the column being pushed.
    fn next_col(&mut self) -> usize {
        assert!(self.cols < self.k, "a row block takes {} columns", self.k);
        self.cols += 1;
        self.cols - 1
    }
}

/// `C[r, :] += alpha · Σₜ A[r, t] · B[t, :]` over a partition of `A`'s rows
/// into row blocks and of its columns (`B`'s rows) into terms, bit-identical
/// to the per-block loop
///
/// ```text
/// for r in row blocks { for t in terms { gemm(alpha, A[r,t], No, B[t,:], No, 1.0, C[r,:]) } }
/// ```
///
/// `row_ptr` and `term_ptr` are the block boundaries (`0`, …, `A.nrows()`
/// and `0`, …, `A.ncols()`, non-decreasing). Only each entry's order of
/// operations fixes its bits, not the number of calls: the scalar path adds
/// `A[i,p]·(alpha·B[p,j])` to `C[i,j]` in ascending `p` and skips a zero
/// `alpha·B[p,j]`, so when every pair would take it ([`scalar_path`]) the
/// whole product is one scalar pass over `A` as it is stored. Otherwise `A`
/// is cut into [`RowTiles`], `B` packed into [`PackedCols`], and
/// [`gemm_tiled`] runs the pairs.
pub fn gemm_partitioned(
    alpha: f64,
    a: &Mat,
    row_ptr: &[usize],
    term_ptr: &[usize],
    b: &Mat,
    c: &mut Mat,
) {
    let (m, n, k) = gemm_shapes(a, Transpose::No, b, Transpose::No, c);
    check_partition(row_ptr, m);
    check_partition(term_ptr, k);
    if alpha == 0.0 || n == 0 {
        return;
    }
    let widest = term_ptr.windows(2).map(|t| t[1] - t[0]).max().unwrap_or(0);
    let isa = Isa::host();
    if row_ptr.windows(2).all(|r| scalar_path(r[1] - r[0], n, widest)) {
        let (lda, ldb, ldc) = (a.nrows(), b.nrows(), c.nrows());
        let (ta, tb) = (Transpose::No, Transpose::No);
        // SAFETY: the shapes were checked against the stored dimensions,
        // `c` is a distinct, exclusively borrowed allocation, and the host
        // supports `isa`.
        unsafe {
            let (a, b, c) = (a.data().as_ptr(), b.data().as_ptr(), c.data_mut().as_mut_ptr());
            gemm_scalar(isa, m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc);
        }
    } else {
        let (a, b) = (RowTiles::from_mat(a, row_ptr), PackedCols::new(b));
        gemm_tiled_on(isa, alpha, &a, term_ptr, &b, c);
    }
}

/// [`gemm_partitioned`] over operands already in the microkernel's layout:
/// `C[r, :] += alpha · Σₜ A[r, t] · B[t, :]` for `A`'s row blocks in
/// `a` and its terms at `term_ptr`, bit-identical to one [`gemm`] per
/// `(row block, term)` pair, terms ascending.
///
/// Each pair keeps its own path ([`scalar_path`]) and with it each entry's
/// sequence of operations. A scalar-path pair adds `A[i,p]·(alpha·B[p,j])`
/// to `C[i,j]` in ascending `p`, skipping a zero `alpha·B[p,j]`. A
/// blocked-path pair runs the microkernel on each `KC` chunk of its term,
/// which sums the chunk in registers from zero and adds `alpha` times the
/// sum to `C`: one flush per term and chunk, as [`gemm`]'s blocked path
/// does. The microkernel reads its operands as slices of `a` and `b`,
/// which are packed once for all pairs instead of once per call.
pub fn gemm_tiled(alpha: f64, a: &RowTiles, term_ptr: &[usize], b: &PackedCols, c: &mut Mat) {
    gemm_tiled_on(Isa::host(), alpha, a, term_ptr, b, c)
}

/// [`gemm_tiled`] on the kernels of `isa`.
///
/// # Panics
/// As [`gemm_tiled`], and if `isa` is not [`Isa::supported`].
fn gemm_tiled_on(
    isa: Isa,
    alpha: f64,
    a: &RowTiles,
    term_ptr: &[usize],
    b: &PackedCols,
    c: &mut Mat,
) {
    assert!(isa.supported(), "{isa:?} is not supported on this CPU");
    let (m, n, k) = (a.nrows(), b.ncols(), a.ncols());
    assert_eq!(b.nrows(), k, "gemm_tiled inner dimensions differ: {k} vs {}", b.nrows());
    assert_eq!((c.nrows(), c.ncols()), (m, n), "gemm_tiled C shape mismatch");
    check_partition(term_ptr, k);
    if alpha == 0.0 || n == 0 || k == 0 {
        return;
    }
    let (ldc, c) = (c.nrows(), c.data_mut().as_mut_ptr());
    for r in 0..a.row_ptr.len() - 1 {
        let rows = a.row_ptr[r + 1] - a.row_ptr[r];
        let span = k * MR;
        let tiles = &a.data[a.tile_ptr[r] * span..a.tile_ptr[r + 1] * span];
        let scalar = |t: usize| scalar_path(rows, n, term_ptr[t + 1] - term_ptr[t]);
        let mut t = 0;
        while t < term_ptr.len() - 1 {
            // A run of scalar-path terms is one pass along `p`: each entry's
            // order is the same as term by term.
            let mut end = t + 1;
            while scalar(t) && end < term_ptr.len() - 1 && scalar(end) {
                end += 1;
            }
            let (p0, kk) = (term_ptr[t], term_ptr[end] - term_ptr[t]);
            // SAFETY: row block `r` covers rows `row_ptr[r]..` of `C`'s `m`,
            // `C` is `m×n` with leading dimension `ldc` and exclusively
            // borrowed, `tiles` holds the block's tiles over all of `k`, and
            // `isa` is supported.
            unsafe {
                let cr = c.add(a.row_ptr[r]);
                if scalar(t) {
                    tiled_scalar(isa, alpha, tiles, rows, p0, kk, b, cr, ldc);
                } else {
                    tiled_blocked(isa, alpha, tiles, rows, p0, kk, b, cr, ldc);
                }
            }
            t = end;
        }
    }
}

/// A run of scalar-path pairs of [`gemm_tiled`]: `C[0..rows, :] += alpha ·
/// A[.., p0..p0+kk] · B[p0..p0+kk, :]`, reading `A` from one row block's
/// tiles, with [`scalar_jki`]'s per-entry order: tile by tile and column by
/// column, each entry adds `A[i,p]·(alpha·B[p,j])` in ascending `p` and
/// skips a zero `alpha·B[p,j]`.
///
/// # Safety
/// `c` must point at the block's first row in a column-major matrix with
/// leading dimension `ldc` that holds `rows×b.ncols()` entries from there,
/// and `tiles` must hold `rows.div_ceil(MR)` tiles over `b.nrows()` columns;
/// `isa` must be [`Isa::supported`].
unsafe fn tiled_scalar(
    isa: Isa,
    alpha: f64,
    tiles: &[f64],
    rows: usize,
    p0: usize,
    kk: usize,
    b: &PackedCols,
    c: *mut f64,
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Portable {
        return tiled_scalar_avx2(alpha, tiles, rows, p0, kk, b, c, ldc);
    }
    let _ = isa;
    tiled_scalar_body(alpha, tiles, rows, p0, kk, b, c, ldc)
}

/// [`tiled_scalar_body`] compiled with AVX2 codegen: the row loop runs four
/// lanes wide with the same multiply and add per entry, so the bits do not
/// move.
///
/// # Safety
/// As [`tiled_scalar`], plus: the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tiled_scalar_avx2(
    alpha: f64,
    tiles: &[f64],
    rows: usize,
    p0: usize,
    kk: usize,
    b: &PackedCols,
    c: *mut f64,
    ldc: usize,
) {
    tiled_scalar_body(alpha, tiles, rows, p0, kk, b, c, ldc)
}

/// Shared body of the portable and AVX2 tiled scalar loops.
///
/// # Safety
/// As [`tiled_scalar`].
#[inline(always)]
unsafe fn tiled_scalar_body(
    alpha: f64,
    tiles: &[f64],
    rows: usize,
    p0: usize,
    kk: usize,
    b: &PackedCols,
    c: *mut f64,
    ldc: usize,
) {
    let span = b.nrows() * MR;
    for (s, tile) in tiles.chunks_exact(span).enumerate() {
        let h = MR.min(rows - s * MR);
        let a = &tile[p0 * MR..][..kk * MR];
        for j in 0..b.ncols() {
            // `C`'s entries stay in registers along `p`: the same rounded
            // multiply and add per entry and step as adding to memory.
            let cs = c.add(j * ldc + s * MR);
            let mut acc = [0.0f64; MR];
            for i in 0..h {
                acc[i] = *cs.add(i);
            }
            for (p, ap) in (p0..).zip(a.chunks_exact(MR)) {
                let bpj = alpha * b.at(p, j);
                if bpj == 0.0 {
                    continue;
                }
                for i in 0..MR {
                    acc[i] += ap[i] * bpj;
                }
            }
            for i in 0..h {
                *cs.add(i) = acc[i];
            }
        }
    }
}

/// One blocked-path pair of [`gemm_tiled`]: [`gemm_blocked_with`]'s loop
/// nest over one row block's tiles and `B`'s panels (in pairs on
/// [`Isa::Avx512`]), `MC` rows at a time, with the microkernel reading each
/// `KC` chunk in place.
///
/// # Safety
/// As [`tiled_scalar`].
unsafe fn tiled_blocked(
    isa: Isa,
    alpha: f64,
    tiles: &[f64],
    rows: usize,
    p0: usize,
    kk: usize,
    b: &PackedCols,
    c: *mut f64,
    ldc: usize,
) {
    let (n, span) = (b.ncols(), b.nrows() * MR);
    let ntiles = rows.div_ceil(MR);
    let mut pc = 0;
    while pc < kk {
        let (kc, p) = (KC.min(kk - pc), p0 + pc);
        let mut s0 = 0;
        while s0 < ntiles {
            let s1 = (s0 + MC / MR).min(ntiles);
            let panels = n.div_ceil(NR);
            let mut jp = 0;
            while jp < panels {
                let step = isa.panels_at(jp, panels);
                let nr = (step * NR).min(n - jp * NR);
                let (b0, b1) = (b.panel(jp, p, kc), b.panel(jp + step - 1, p, kc));
                for s in s0..s1 {
                    let ap = &tiles[s * span + p * MR..][..kc * MR];
                    let ct = c.add(jp * NR * ldc + s * MR);
                    let mr = MR.min(rows - s * MR);
                    run_microkernel(isa, kc, alpha, ap, b0, b1, ct, ldc, mr, nr);
                }
                jp += step;
            }
            s0 = s1;
        }
        pc += KC;
    }
}

// ---- Triangular solves ---------------------------------------------------
//
// Each blocked solve walks TRSM_NB-wide diagonal blocks: the small
// triangle is solved by the corresponding scalar loop and the remaining
// panel update — where all the flops are — goes through `gemm_raw`.

/// Scalar solve `X · L = B` in place on raw buffers (`B` is `m×w` with
/// leading dimension `ldb`, `L` is `w×w` lower triangular with leading
/// dimension `ldl`).
///
/// # Safety
/// Both regions must be in bounds under their leading dimensions and must
/// not overlap.
unsafe fn trsm_rl_small(
    m: usize,
    w: usize,
    b: *mut f64,
    ldb: usize,
    l: *const f64,
    ldl: usize,
    unit: bool,
) {
    for j in (0..w).rev() {
        if !unit {
            let d = *l.add(j * ldl + j);
            assert!(d != 0.0, "singular triangular block");
            let bj = b.add(j * ldb);
            for r in 0..m {
                *bj.add(r) /= d;
            }
        }
        // B_{:,i} -= X_{:,j} * L_{j,i} for i < j
        for i in 0..j {
            let lji = *l.add(i * ldl + j);
            if lji == 0.0 {
                continue;
            }
            let (bi, bj) = (b.add(i * ldb), b.add(j * ldb));
            for r in 0..m {
                *bi.add(r) -= *bj.add(r) * lji;
            }
        }
    }
}

/// Scalar solve `X · Lᵀ = B` in place on raw buffers (shapes as
/// [`trsm_rl_small`]).
///
/// # Safety
/// Same contract as [`trsm_rl_small`].
unsafe fn trsm_rlt_small(
    m: usize,
    w: usize,
    b: *mut f64,
    ldb: usize,
    l: *const f64,
    ldl: usize,
    unit: bool,
) {
    for j in 0..w {
        // B_{:,j} -= X_{:,k} * (Lᵀ)_{k,j} = X_{:,k} * L_{j,k}, k < j
        for p in 0..j {
            let ljp = *l.add(p * ldl + j);
            if ljp == 0.0 {
                continue;
            }
            let (bp, bj) = (b.add(p * ldb), b.add(j * ldb));
            for r in 0..m {
                *bj.add(r) -= *bp.add(r) * ljp;
            }
        }
        if !unit {
            let d = *l.add(j * ldl + j);
            assert!(d != 0.0, "singular triangular block");
            let bj = b.add(j * ldb);
            for r in 0..m {
                *bj.add(r) /= d;
            }
        }
    }
}

/// Scalar solve `L · X = B` in place on raw buffers (`B` is `w×n` with
/// leading dimension `ldb`).
///
/// # Safety
/// Same contract as [`trsm_rl_small`].
unsafe fn trsm_ll_small(
    w: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
    unit: bool,
) {
    for j in 0..n {
        let bj = b.add(j * ldb);
        for i in 0..w {
            let mut s = *bj.add(i);
            for p in 0..i {
                s -= *l.add(p * ldl + i) * *bj.add(p);
            }
            *bj.add(i) = if unit { s } else { s / *l.add(i * ldl + i) };
        }
    }
}

/// Scalar solve `Lᵀ · X = B` in place on raw buffers (shapes as
/// [`trsm_ll_small`]).
///
/// # Safety
/// Same contract as [`trsm_rl_small`].
unsafe fn trsm_llt_small(
    w: usize,
    n: usize,
    l: *const f64,
    ldl: usize,
    b: *mut f64,
    ldb: usize,
    unit: bool,
) {
    for j in 0..n {
        let bj = b.add(j * ldb);
        for i in (0..w).rev() {
            let mut s = *bj.add(i);
            for p in (i + 1)..w {
                s -= *l.add(i * ldl + p) * *bj.add(p);
            }
            *bj.add(i) = if unit { s } else { s / *l.add(i * ldl + i) };
        }
    }
}

/// Solves `X · L = B` in place (`B` becomes `X`), where `L` is lower
/// triangular. With `unit = true` the diagonal of `L` is taken as 1.
///
/// This computes `X = B · L⁻¹`, the panel normalization `L̂ = L_{C,K} ·
/// (L_{K,K})⁻¹` from step 2 of Algorithm 1.
pub fn trsm_right_lower(b: &mut Mat, l: &Mat, unit: bool) {
    assert_eq!(b.ncols(), l.nrows());
    trsm_right_lower_cols(b.data_mut(), l, unit);
}

/// [`trsm_right_lower`] on `B` given as its column-major buffer of `w`
/// columns (`w` the order of `L`): for a matrix that lives somewhere other
/// than a [`Mat`], such as a shared buffer built in place.
pub fn trsm_right_lower_cols(b: &mut [f64], l: &Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    let m = b.len().checked_div(w).unwrap_or(0);
    assert_eq!(b.len(), m * w, "B is not a whole number of columns");
    let ld = l.data().as_ptr();
    let bd = b.as_mut_ptr();
    // SAFETY: `b` is m×w (ldb = m) and `l` is w×w (ldl = w); every block
    // offset below stays inside those shapes, and the GEMM reads/writes
    // disjoint column ranges of `b`.
    unsafe {
        let mut j1 = w;
        while j1 > 0 {
            let j0 = j1.saturating_sub(TRSM_NB);
            let wb = j1 - j0;
            trsm_rl_small(m, wb, bd.add(j0 * m), m, ld.add(j0 * w + j0), w, unit);
            if j0 > 0 {
                // B[:, 0..j0] -= X_block · L[j0..j1, 0..j0]
                gemm_raw(
                    m,
                    j0,
                    wb,
                    -1.0,
                    bd.add(j0 * m),
                    m,
                    Transpose::No,
                    ld.add(j0),
                    w,
                    Transpose::No,
                    1.0,
                    bd,
                    m,
                );
            }
            j1 = j0;
        }
    }
}

/// Solves `X · Lᵀ = B` in place (`B` becomes `X`), `L` lower triangular.
/// With `unit = true` the diagonal of `L` is taken as 1.
pub fn trsm_right_lower_trans(b: &mut Mat, l: &Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    assert_eq!(b.ncols(), w);
    let m = b.nrows();
    let ld = l.data().as_ptr();
    let bd = b.data_mut().as_mut_ptr();
    // SAFETY: as in `trsm_right_lower`.
    unsafe {
        let mut j0 = 0;
        while j0 < w {
            let wb = TRSM_NB.min(w - j0);
            if j0 > 0 {
                // B[:, j0..j1] -= X[:, 0..j0] · (Lᵀ)[0..j0, j0..j1]
                gemm_raw(
                    m,
                    wb,
                    j0,
                    -1.0,
                    bd,
                    m,
                    Transpose::No,
                    ld.add(j0),
                    w,
                    Transpose::Yes,
                    1.0,
                    bd.add(j0 * m),
                    m,
                );
            }
            trsm_rlt_small(m, wb, bd.add(j0 * m), m, ld.add(j0 * w + j0), w, unit);
            j0 += TRSM_NB;
        }
    }
}

/// Solves `L · X = B` in place (`B` becomes `X`), `L` lower triangular.
/// With `unit = true` the diagonal of `L` is taken as 1.
pub fn trsm_left_lower(l: &Mat, b: &mut Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    assert_eq!(b.nrows(), w);
    let n = b.ncols();
    let ld = l.data().as_ptr();
    let bd = b.data_mut().as_mut_ptr();
    // SAFETY: `b` is w×n (ldb = w), `l` is w×w; the GEMM reads row block
    // 0..i0 of `b` and writes row block i0..i0+wb — disjoint element sets
    // of one allocation, expressed through raw pointers.
    unsafe {
        let mut i0 = 0;
        while i0 < w {
            let wb = TRSM_NB.min(w - i0);
            if i0 > 0 {
                // B[i0..i1, :] -= L[i0..i1, 0..i0] · X[0..i0, :]
                gemm_raw(
                    wb,
                    n,
                    i0,
                    -1.0,
                    ld.add(i0),
                    w,
                    Transpose::No,
                    bd,
                    w,
                    Transpose::No,
                    1.0,
                    bd.add(i0),
                    w,
                );
            }
            trsm_ll_small(wb, n, ld.add(i0 * w + i0), w, bd.add(i0), w, unit);
            i0 += TRSM_NB;
        }
    }
}

/// Solves `Lᵀ · X = B` in place, `L` lower triangular (so `Lᵀ` is upper).
/// With `unit = true` the diagonal is taken as 1.
pub fn trsm_left_lower_trans(l: &Mat, b: &mut Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    assert_eq!(b.nrows(), w);
    let n = b.ncols();
    let ld = l.data().as_ptr();
    let bd = b.data_mut().as_mut_ptr();
    // SAFETY: as in `trsm_left_lower` (disjoint row blocks of `b`).
    unsafe {
        let mut i1 = w;
        while i1 > 0 {
            let i0 = i1.saturating_sub(TRSM_NB);
            let wb = i1 - i0;
            if i1 < w {
                // B[i0..i1, :] -= (Lᵀ)[i0..i1, i1..w] · X[i1..w, :]
                gemm_raw(
                    wb,
                    n,
                    w - i1,
                    -1.0,
                    ld.add(i0 * w + i1),
                    w,
                    Transpose::Yes,
                    bd.add(i1),
                    w,
                    Transpose::No,
                    1.0,
                    bd.add(i0),
                    w,
                );
            }
            trsm_llt_small(wb, n, ld.add(i0 * w + i0), w, bd.add(i0), w, unit);
            i1 = i0;
        }
    }
}

#[cfg(test)]
mod bit_pin;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Mat, b: &Mat, tol: f64) {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                let scale = 1.0_f64.max(a[(i, j)].abs()).max(b[(i, j)].abs());
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol * scale,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    fn naive_gemm(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut s = 0.0;
                for k in 0..a.ncols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
        // xorshift-ish deterministic fill; no rand dependency needed here
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = Mat::zeros(m, n);
        for j in 0..n {
            for i in 0..m {
                a[(i, j)] = next();
            }
        }
        a
    }

    #[test]
    fn gemm_no_no_matches_naive() {
        let a = rand_mat(5, 4, 1);
        let b = rand_mat(4, 3, 2);
        let mut c = Mat::zeros(5, 3);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        assert_close(&c, &naive_gemm(&a, &b), 1e-13);
    }

    #[test]
    fn gemm_transpose_variants() {
        let a = rand_mat(4, 5, 3);
        let b = rand_mat(4, 3, 4);
        // AᵀB
        let mut c = Mat::zeros(5, 3);
        gemm(1.0, &a, Transpose::Yes, &b, Transpose::No, 0.0, &mut c);
        assert_close(&c, &naive_gemm(&a.transpose(), &b), 1e-13);
        // AᵀBᵀ with b' 3x4
        let b2 = rand_mat(3, 4, 5);
        let mut c = Mat::zeros(5, 3);
        gemm(1.0, &a, Transpose::Yes, &b2, Transpose::Yes, 0.0, &mut c);
        assert_close(&c, &naive_gemm(&a.transpose(), &b2.transpose()), 1e-13);
        // ABᵀ
        let a2 = rand_mat(5, 4, 6);
        let mut c = Mat::zeros(5, 3);
        gemm(1.0, &a2, Transpose::No, &b2, Transpose::Yes, 0.0, &mut c);
        assert_close(&c, &naive_gemm(&a2, &b2.transpose()), 1e-13);
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = rand_mat(3, 3, 7);
        let b = rand_mat(3, 3, 8);
        let c0 = rand_mat(3, 3, 9);
        let mut c = c0.clone();
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, -1.0, &mut c);
        let mut expect = naive_gemm(&a, &b);
        for j in 0..3 {
            for i in 0..3 {
                expect[(i, j)] = 2.0 * expect[(i, j)] - c0[(i, j)];
            }
        }
        assert_close(&c, &expect, 1e-13);
    }

    fn lower_of(m: &Mat, unit: bool) -> Mat {
        let n = m.nrows();
        let mut l = Mat::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                l[(i, j)] = m[(i, j)];
            }
            if unit {
                l[(j, j)] = 1.0;
            } else {
                l[(j, j)] = m[(j, j)].abs() + 2.0; // well-conditioned
            }
        }
        l
    }

    #[test]
    fn trsm_right_lower_solves() {
        for unit in [true, false] {
            let l = lower_of(&rand_mat(4, 4, 10), unit);
            let b = rand_mat(6, 4, 11);
            let mut x = b.clone();
            trsm_right_lower(&mut x, &l, unit);
            assert_close(&naive_gemm(&x, &l), &b, 1e-12);
        }
    }

    #[test]
    fn trsm_right_lower_trans_solves() {
        for unit in [true, false] {
            let l = lower_of(&rand_mat(4, 4, 12), unit);
            let b = rand_mat(5, 4, 13);
            let mut x = b.clone();
            trsm_right_lower_trans(&mut x, &l, unit);
            assert_close(&naive_gemm(&x, &l.transpose()), &b, 1e-12);
        }
    }

    #[test]
    fn trsm_left_lower_solves() {
        for unit in [true, false] {
            let l = lower_of(&rand_mat(4, 4, 14), unit);
            let b = rand_mat(4, 3, 15);
            let mut x = b.clone();
            trsm_left_lower(&l, &mut x, unit);
            assert_close(&naive_gemm(&l, &x), &b, 1e-12);
        }
    }

    #[test]
    fn trsm_left_lower_trans_solves() {
        for unit in [true, false] {
            let l = lower_of(&rand_mat(4, 4, 16), unit);
            let b = rand_mat(4, 3, 17);
            let mut x = b.clone();
            trsm_left_lower_trans(&l, &mut x, unit);
            assert_close(&naive_gemm(&l.transpose(), &x), &b, 1e-12);
        }
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        // Zero-sized operands in every position.
        let a = Mat::zeros(0, 5);
        let b = Mat::zeros(5, 3);
        let mut c = Mat::zeros(0, 3);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        let a = Mat::zeros(4, 0);
        let b = Mat::zeros(0, 3);
        let mut c = rand_mat(4, 3, 40);
        let keep = c.clone();
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 1.0, &mut c);
        assert_close(&c, &keep, 0.0_f64.max(1e-300));
        let l = Mat::zeros(0, 0);
        let mut x = Mat::zeros(3, 0);
        trsm_right_lower(&mut x, &l, true);
        let mut x = Mat::zeros(0, 4);
        trsm_left_lower(&lower_of(&rand_mat(0, 0, 1), true), &mut x, true);
    }
}
