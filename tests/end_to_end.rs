//! End-to-end integration: generators → analysis → factorization →
//! selected inversion (sequential and distributed) → verification against
//! the dense inverse.

use pselinv::dense::{lu_factor, lu_invert, Mat};
use pselinv::dist::{distributed_selinv, DistOptions};
use pselinv::factor::factorize;
use pselinv::mpisim::Grid2D;
use pselinv::order::{analyze, AnalyzeOptions, OrderingChoice};
use pselinv::selinv::selinv_ldlt;
use pselinv::sparse::{gen, SparseMatrix};
use pselinv::trees::TreeScheme;
use std::sync::Arc;

fn dense_inverse(a: &SparseMatrix) -> Mat {
    let n = a.nrows();
    let mut d = Mat::from_col_major(n, n, &a.to_dense_col_major());
    let piv = lu_factor(&mut d).unwrap();
    lu_invert(&d, &piv)
}

fn full_pipeline(a: &SparseMatrix, opts: &AnalyzeOptions, grid: Grid2D, scheme: TreeScheme) {
    let sf = Arc::new(analyze(&a.pattern(), opts));
    let f = factorize(a, sf.clone()).unwrap();
    let seq = selinv_ldlt(&f);
    let (dist, volumes) =
        distributed_selinv(&f, grid, &DistOptions { scheme, seed: 1, threads: 1, lookahead: 1 });
    let dense = dense_inverse(a);
    let scale = 1.0 + dense.norm_max();

    let n = a.nrows();
    for i in 0..n {
        for j in 0..n {
            match (seq.get(i, j), dist.get(i, j)) {
                (Some(s), Some(d)) => {
                    assert!((s - d).abs() < 1e-9 * scale, "seq/dist mismatch at ({i},{j})");
                    assert!(
                        (s - dense[(i, j)]).abs() < 1e-8 * scale,
                        "selinv wrong at ({i},{j}): {s} vs {}",
                        dense[(i, j)]
                    );
                }
                (None, None) => {}
                other => panic!("selected-set mismatch at ({i},{j}): {other:?}"),
            }
        }
    }
    // distributed run must exchange data on a >1-rank grid when blocks are
    // spread out
    if grid.size() > 1 {
        let total: u64 = volumes.iter().map(|v| v.sent).sum();
        assert!(total > 0, "no communication on a {}x{} grid", grid.pr, grid.pc);
    }
}

#[test]
fn laplacian_2d_nd_shifted() {
    let w = gen::grid_laplacian_2d(9, 9);
    let opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, Default::default()),
        ..Default::default()
    };
    full_pipeline(&w.matrix, &opts, Grid2D::new(2, 2), TreeScheme::ShiftedBinary);
}

#[test]
fn laplacian_3d_md_flat() {
    let w = gen::grid_laplacian_3d(4, 4, 3);
    full_pipeline(&w.matrix, &AnalyzeOptions::default(), Grid2D::new(3, 2), TreeScheme::Flat);
}

#[test]
fn dg_hamiltonian_binary() {
    let w = gen::dg_hamiltonian(3, 2, 1, 6, 4);
    let opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(
            w.geometry,
            pselinv::order::nd::NdOptions { leaf_size: 1 },
        ),
        ..Default::default()
    };
    full_pipeline(&w.matrix, &opts, Grid2D::new(2, 3), TreeScheme::Binary);
}

#[test]
fn fem_3d_hybrid() {
    let w = gen::fem_3d(3, 3, 2, 2, 8);
    full_pipeline(
        &w.matrix,
        &AnalyzeOptions::default(),
        Grid2D::new(2, 2),
        TreeScheme::Hybrid { flat_threshold: 3 },
    );
}

#[test]
fn matrix_market_roundtrip_through_pipeline() {
    // Write a generated matrix to Matrix Market, read it back, invert.
    use pselinv::sparse::io;
    let m = gen::random_spd(24, 0.2, 77);
    let mut buf = Vec::new();
    io::write_matrix_market(&mut buf, &m).unwrap();
    let m2 = io::read_matrix_market(&buf[..]).unwrap();
    full_pipeline(&m2, &AnalyzeOptions::default(), Grid2D::new(2, 2), TreeScheme::ShiftedBinary);
}

#[test]
fn solve_and_selinv_are_consistent() {
    // (A⁻¹ b)[i] computed via the factor's solve must match Σ_j A⁻¹[i,j] b[j]
    // on a fully dense column when b is a basis vector and the column is
    // inside the selected set's dense diagonal block.
    let w = gen::grid_laplacian_2d(6, 6);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let f = factorize(&w.matrix, sf.clone()).unwrap();
    let inv = selinv_ldlt(&f);
    for col in [0usize, 17, 35] {
        let mut e = vec![0.0; 36];
        e[col] = 1.0;
        let x = f.solve(&e);
        // x = A⁻¹ e_col; compare on selected entries
        for i in 0..36 {
            if let Some(v) = inv.get(i, col) {
                assert!((v - x[i]).abs() < 1e-9, "col {col} row {i}: {v} vs {}", x[i]);
            }
        }
    }
}
