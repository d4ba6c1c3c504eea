//! PEXSI-style electronic structure workload: extract the diagonal of the
//! inverse of a discontinuous-Galerkin Kohn–Sham Hamiltonian — the
//! application driving the paper (density matrix evaluation without
//! diagonalization).
//!
//! ```text
//! cargo run --release --example electronic_structure
//! ```

use pselinv::dist::{distributed_selinv, DistOptions};
use pselinv::factor::factorize;
use pselinv::mpisim::Grid2D;
use pselinv::order::{analyze, AnalyzeOptions, OrderingChoice};
use pselinv::selinv::selinv_ldlt;
use pselinv::sparse::gen;
use pselinv::trees::TreeScheme;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A 2-D "nanoflake": 6×6 DG elements with 12 basis functions each
    // (a scaled-down DG_PNF14000), shifted to be SPD — physically, the
    // shifted Hamiltonian H - zS at one pole of the PEXSI expansion.
    let w = gen::dg_hamiltonian(6, 6, 1, 12, 0xd6f);
    let n = w.matrix.nrows();
    println!(
        "DG Hamiltonian: n = {n}, nnz = {} ({:.2}%)",
        w.matrix.nnz(),
        100.0 * w.matrix.nnz() as f64 / (n * n) as f64
    );

    let opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(
            w.geometry,
            pselinv::order::nd::NdOptions { leaf_size: 1 },
        ),
        ..Default::default()
    };
    let symbolic = Arc::new(analyze(&w.matrix.pattern(), &opts));
    let factor = factorize(&w.matrix, symbolic).expect("shifted Hamiltonian is definite");

    // Sequential selected inversion.
    let t0 = Instant::now();
    let inv = selinv_ldlt(&factor);
    let seq_time = t0.elapsed();

    // "Electron density per element": sum of A⁻¹ diagonal entries over
    // each element's basis functions.
    let diag = inv.diagonal();
    let per_element: Vec<f64> = diag.chunks(12).map(|c| c.iter().sum::<f64>()).collect();
    println!("trace(A⁻¹) = {:.6} (sequential, {:?})", inv.trace(), seq_time);
    println!(
        "per-element density (corner, edge, center): {:.4}, {:.4}, {:.4}",
        per_element[0],
        per_element[1],
        per_element[2 * 6 + 2]
    );

    // The same computation on the distributed algorithm: 6 rank-threads on
    // a 2×3 process grid, restricted collectives routed by shifted binary
    // trees — the paper's algorithm end to end.
    let t0 = Instant::now();
    let (dinv, volumes) = distributed_selinv(
        &factor,
        Grid2D::new(2, 3),
        &DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 42, threads: 1, lookahead: 1 },
    );
    let dist_time = t0.elapsed();
    println!("trace(A⁻¹) = {:.6} (distributed 2x3, {:?})", dinv.trace(), dist_time);
    assert!((dinv.trace() - inv.trace()).abs() < 1e-8 * inv.trace().abs());

    println!("per-rank communication volume (sent):");
    for (r, v) in volumes.iter().enumerate() {
        println!("  rank {r}: {:>9} B in {:>4} messages", v.sent, v.msgs_sent);
    }
}
