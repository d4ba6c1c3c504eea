//! Distributed selected inversion of *shifted* (indefinite) matrices.
//!
//! The PEXSI pole expansion evaluates `(H − σI)⁻¹` at complex-plane poles
//! whose real parts land inside the spectrum: the shifted LDLᵀ has negative
//! pivots. `tests/pexsi_pole.rs` pins the sequential path; this suite pins
//! the distributed one — every window must agree with the sequential
//! result and, between windows, must be *bit-identical* with exactly equal
//! per-rank volumes (a window reorders communication, never arithmetic;
//! sequential-vs-distributed differs only by GEMM summation order, so that
//! comparison is a tight tolerance).

use pselinv_dist::{distributed_selinv, DistOptions};
use pselinv_factor::LdlFactor;
use pselinv_mpisim::Grid2D;
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_selinv::{selinv_ldlt, SelectedInverse};
use pselinv_sparse::{gen, SparseMatrix};
use pselinv_trees::TreeScheme;
use std::sync::Arc;

/// `H − σI` for the 2-D Laplacian `H`: σ inside the spectrum (0, 8) makes
/// the matrix indefinite.
fn shifted_factor(sigma: f64) -> LdlFactor {
    let w = gen::grid_laplacian_2d(7, 7);
    let n = w.matrix.nrows();
    let shifted = w.matrix.add_scaled(&SparseMatrix::identity(n), 1.0, -sigma);
    let sf = Arc::new(analyze(&shifted.pattern(), &AnalyzeOptions::default()));
    pselinv_factor::factorize(&shifted, sf).unwrap()
}

fn count_negative_pivots(f: &LdlFactor) -> usize {
    f.panels.iter().map(|p| (0..p.diag.nrows()).filter(|&i| p.diag[(i, i)] < 0.0).count()).sum()
}

fn assert_bit_identical(a: &SelectedInverse, b: &SelectedInverse, what: &str) {
    let sf = &a.symbolic;
    for s in 0..sf.num_supernodes() {
        for j in 0..sf.width(s) {
            for i in 0..sf.width(s) {
                assert_eq!(
                    a.panels[s].diag[(i, j)].to_bits(),
                    b.panels[s].diag[(i, j)].to_bits(),
                    "{what}: diag {s} ({i},{j})"
                );
            }
            for i in 0..sf.rows_of(s).len() {
                assert_eq!(
                    a.panels[s].below[(i, j)].to_bits(),
                    b.panels[s].below[(i, j)].to_bits(),
                    "{what}: below {s} ({i},{j})"
                );
            }
        }
    }
}

fn assert_close(a: &SelectedInverse, b: &SelectedInverse, tol: f64, what: &str) {
    let sf = &a.symbolic;
    for s in 0..sf.num_supernodes() {
        for j in 0..sf.width(s) {
            for i in 0..sf.width(s) {
                let (x, y) = (a.panels[s].diag[(i, j)], b.panels[s].diag[(i, j)]);
                assert!((x - y).abs() < tol, "{what}: diag {s} ({i},{j}): {x} vs {y}");
            }
            for i in 0..sf.rows_of(s).len() {
                let (x, y) = (a.panels[s].below[(i, j)], b.panels[s].below[(i, j)]);
                assert!((x - y).abs() < tol, "{what}: below {s} ({i},{j}): {x} vs {y}");
            }
        }
    }
}

#[test]
fn shifted_selinv_agrees_across_engines_on_2x2_grid() {
    let grid = Grid2D::new(2, 2);
    for sigma in [0.7, 2.5, 5.9] {
        let f = shifted_factor(sigma);
        assert!(
            count_negative_pivots(&f) > 0,
            "σ={sigma} inside the spectrum must produce negative pivots"
        );
        let seq = selinv_ldlt(&f);
        let mk = |lookahead| DistOptions {
            scheme: TreeScheme::ShiftedBinary,
            seed: 7,
            lookahead,
            ..Default::default()
        };
        let (one, one_vol) = distributed_selinv(&f, grid, &mk(1));
        // The distributed GEMM accumulation order differs from the
        // sequential one, so sequential agreement is a (tight) tolerance…
        assert_close(&seq, &one, 1e-9, &format!("σ={sigma} seq vs window 1"));
        // …while the windows must match each other to the bit, with equal
        // per-rank volumes, negative pivots or not.
        for lookahead in [2usize, 4, usize::MAX] {
            let (wide, wide_vol) = distributed_selinv(&f, grid, &mk(lookahead));
            let what = format!("σ={sigma} lookahead={lookahead}");
            assert_bit_identical(&one, &wide, &what);
            assert_eq!(one_vol, wide_vol, "{what}: volumes");
        }
    }
}

#[test]
fn shifted_selinv_matches_dense_inverse() {
    // End-to-end ground truth: the distributed shifted selected inverse
    // must equal the dense inverse of the shifted matrix on the pattern.
    let sigma = 2.5;
    let w = gen::grid_laplacian_2d(7, 7);
    let n = w.matrix.nrows();
    let shifted = w.matrix.add_scaled(&SparseMatrix::identity(n), 1.0, -sigma);
    let sf = Arc::new(analyze(&shifted.pattern(), &AnalyzeOptions::default()));
    let f = pselinv_factor::factorize(&shifted, sf).unwrap();
    let (dist, _) = distributed_selinv(
        &f,
        Grid2D::new(2, 2),
        &DistOptions { lookahead: 4, ..Default::default() },
    );
    let mut dm = pselinv_dense::Mat::from_col_major(n, n, &shifted.to_dense_col_major());
    let piv = pselinv_dense::lu_factor(&mut dm).unwrap();
    let dinv = pselinv_dense::lu_invert(&dm, &piv);
    for (i, j, _) in shifted.iter() {
        let v = dist.get(i, j).expect("selected entry");
        assert!((v - dinv[(i, j)]).abs() < 1e-8, "({i},{j}): {v} vs {}", dinv[(i, j)]);
    }
}
