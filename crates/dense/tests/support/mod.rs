//! The seed's scalar kernels, kept as the references the blocked kernels of
//! `pselinv-dense` are property-tested against. They are not part of the
//! crate's API: each test binary that compares against them declares
//! `mod support;`.
//!
//! `ldlt_factor_naive` and `lu_factor_naive` are also the unblocked loops
//! the crate runs on blocks of at most one panel, under private names; the
//! copies here keep the references independent of that code.

// Each test binary uses only some of the references.
#![allow(dead_code)]

use pselinv_dense::ldlt::SingularBlock;
use pselinv_dense::lu::SingularLu;
use pselinv_dense::{Mat, Transpose};

/// Checks the shapes of `C = alpha·op(A)·op(B) + beta·C` and returns
/// `(m, n, k)`.
fn shapes(a: &Mat, ta: Transpose, b: &Mat, tb: Transpose, c: &Mat) -> (usize, usize, usize) {
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
    (m, n, ka)
}

/// The seed's scalar GEMM: `C = alpha·op(A)·op(B) + beta·C` in jki order.
pub fn gemm_naive(
    alpha: f64,
    a: &Mat,
    ta: Transpose,
    b: &Mat,
    tb: Transpose,
    beta: f64,
    c: &mut Mat,
) {
    let (m, n, k) = shapes(a, ta, b, tb, c);

    if beta != 1.0 {
        for v in c.data_mut() {
            *v *= beta;
        }
    }
    if alpha == 0.0 || k == 0 {
        return;
    }

    match (ta, tb) {
        (Transpose::No, Transpose::No) => {
            // jki order: stream down columns of A and C.
            for j in 0..n {
                for p in 0..k {
                    let bpj = alpha * b[(p, j)];
                    if bpj == 0.0 {
                        continue;
                    }
                    let acol = a.col(p);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += acol[i] * bpj;
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // C_ij += Aᵀ_ip B_pj = A_pi B_pj : dot products of columns.
            for j in 0..n {
                for i in 0..m {
                    let acol = a.col(i);
                    let mut s = 0.0;
                    for p in 0..k {
                        s += acol[p] * b[(p, j)];
                    }
                    c[(i, j)] += alpha * s;
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            for j in 0..n {
                for p in 0..k {
                    let bpj = alpha * b[(j, p)];
                    if bpj == 0.0 {
                        continue;
                    }
                    let acol = a.col(p);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += acol[i] * bpj;
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            for j in 0..n {
                for i in 0..m {
                    let acol = a.col(i);
                    let mut s = 0.0;
                    for p in 0..k {
                        s += acol[p] * b[(j, p)];
                    }
                    c[(i, j)] += alpha * s;
                }
            }
        }
    }
}

/// The seed's scalar `X · L = B` solve.
pub fn trsm_right_lower_naive(b: &mut Mat, l: &Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    assert_eq!(b.ncols(), w);
    let m = b.nrows();
    for j in (0..w).rev() {
        if !unit {
            let d = l[(j, j)];
            assert!(d != 0.0, "singular triangular block");
            let bj = b.col_mut(j);
            for v in bj.iter_mut() {
                *v /= d;
            }
        }
        // B_{:,i} -= X_{:,j} * L_{j,i} for i < j
        for i in 0..j {
            let lji = l[(j, i)];
            if lji == 0.0 {
                continue;
            }
            for r in 0..m {
                let xj = b[(r, j)];
                b[(r, i)] -= xj * lji;
            }
        }
    }
}

/// The seed's scalar `X · Lᵀ = B` solve.
pub fn trsm_right_lower_trans_naive(b: &mut Mat, l: &Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    assert_eq!(b.ncols(), w);
    let m = b.nrows();
    for j in 0..w {
        // B_{:,j} -= X_{:,k} * (Lᵀ)_{k,j} = X_{:,k} * L_{j,k}, k < j
        for k in 0..j {
            let ljk = l[(j, k)];
            if ljk == 0.0 {
                continue;
            }
            for r in 0..m {
                let xk = b[(r, k)];
                b[(r, j)] -= xk * ljk;
            }
        }
        if !unit {
            let d = l[(j, j)];
            assert!(d != 0.0, "singular triangular block");
            for v in b.col_mut(j) {
                *v /= d;
            }
        }
    }
}

/// The seed's scalar `L · X = B` solve.
pub fn trsm_left_lower_naive(l: &Mat, b: &mut Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    assert_eq!(b.nrows(), w);
    let n = b.ncols();
    for j in 0..n {
        for i in 0..w {
            let mut s = b[(i, j)];
            for k in 0..i {
                s -= l[(i, k)] * b[(k, j)];
            }
            b[(i, j)] = if unit { s } else { s / l[(i, i)] };
        }
    }
}

/// The seed's scalar `Lᵀ · X = B` solve.
pub fn trsm_left_lower_trans_naive(l: &Mat, b: &mut Mat, unit: bool) {
    let w = l.nrows();
    assert_eq!(l.ncols(), w);
    assert_eq!(b.nrows(), w);
    let n = b.ncols();
    for j in 0..n {
        for i in (0..w).rev() {
            let mut s = b[(i, j)];
            for k in (i + 1)..w {
                s -= l[(k, i)] * b[(k, j)];
            }
            b[(i, j)] = if unit { s } else { s / l[(i, i)] };
        }
    }
}

/// The seed's scalar jki-loop LDLᵀ, the equivalence reference for
/// `ldlt_factor`.
pub fn ldlt_factor_naive(a: &mut Mat) -> Result<(), SingularBlock> {
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

/// The seed's scalar right-looking elimination, the equivalence reference
/// for `lu_factor`.
pub fn lu_factor_naive(a: &mut Mat) -> Result<Vec<usize>, SingularLu> {
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
