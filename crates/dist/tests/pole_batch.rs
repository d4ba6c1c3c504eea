//! Acceptance tests for the pole-batch engine (`pselinv_dist::batch`).
//!
//! The contract: batching changes *when* each pole's messages travel, never
//! what they compute or how much logical traffic they cause. Every pole of
//! a batched run must be bit-identical to its standalone run, its per-pole
//! logical volumes (tag-lane channel accounting) must equal the standalone
//! run's measured volumes exactly, and with `max_inflight > 1` the poles
//! must actually overlap (outstanding high-water mark spanning queries).

use pselinv_dist::{
    batched_selinv, batched_selinv_traced, distributed_selinv, factor_poles, pole_summary_table,
    BatchOptions, DistOptions,
};
use pselinv_factor::LdlFactor;
use pselinv_mpisim::{Grid2D, RankVolume};
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_selinv::SelectedInverse;
use pselinv_sparse::gen;
use pselinv_trees::TreeScheme;
use std::sync::{Arc, OnceLock};

const SHIFTS: [f64; 4] = [0.7, 1.9, 3.3, 5.9];

/// Shared pole factors (7×7 Laplacian, shifts inside the spectrum so the
/// LDLᵀs are indefinite) against one symbolic analysis.
fn pole_factors() -> &'static Vec<LdlFactor> {
    static F: OnceLock<Vec<LdlFactor>> = OnceLock::new();
    F.get_or_init(|| {
        let w = gen::grid_laplacian_2d(7, 7);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        factor_poles(&w.matrix, &SHIFTS, sf).unwrap()
    })
}

fn dist_opts(lookahead: usize) -> DistOptions {
    DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 7, lookahead, ..Default::default() }
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

/// The channel counters only split the logical fields; compare exactly
/// those against a standalone run's measured volumes.
fn assert_logical_volumes_equal(pole: &[RankVolume], standalone: &[RankVolume], what: &str) {
    assert_eq!(pole.len(), standalone.len(), "{what}: rank count");
    for (r, (p, s)) in pole.iter().zip(standalone).enumerate() {
        assert_eq!(p.sent, s.sent, "{what}: rank {r} sent bytes");
        assert_eq!(p.received, s.received, "{what}: rank {r} received bytes");
        assert_eq!(p.msgs_sent, s.msgs_sent, "{what}: rank {r} messages sent");
        assert_eq!(p.msgs_received, s.msgs_received, "{what}: rank {r} messages received");
    }
}

#[test]
fn batched_poles_are_bit_identical_to_standalone_runs() {
    let factors = pole_factors();
    let grid = Grid2D::new(2, 2);
    let standalone: Vec<(SelectedInverse, Vec<RankVolume>)> =
        factors.iter().map(|f| distributed_selinv(f, grid, &dist_opts(4))).collect();
    for max_inflight in [1usize, 2, 4, usize::MAX] {
        let run = batched_selinv(factors, grid, &BatchOptions { dist: dist_opts(4), max_inflight });
        assert_eq!(run.inverses.len(), factors.len());
        assert_eq!(run.query_volumes.len(), factors.len());
        for (q, (inv, (solo, solo_vol))) in run.inverses.iter().zip(&standalone).enumerate() {
            let what = format!("pole {q} (σ={}) max_inflight={max_inflight}", SHIFTS[q]);
            assert_bit_identical(solo, inv, &what);
            assert_logical_volumes_equal(&run.query_volumes[q], solo_vol, &what);
        }
    }
}

#[test]
fn per_pole_volumes_tile_the_aggregate() {
    // Channel accounting must cover *all* logical traffic of the batch:
    // summing the per-pole counters over queries reproduces each rank's
    // aggregate logical volume (no unattributed phase traffic).
    let factors = pole_factors();
    let grid = Grid2D::new(2, 2);
    let run = batched_selinv(factors, grid, &BatchOptions { dist: dist_opts(4), max_inflight: 4 });
    for rank in 0..grid.size() {
        let sent: u64 = run.query_volumes.iter().map(|q| q[rank].sent).sum();
        let msgs: u64 = run.query_volumes.iter().map(|q| q[rank].msgs_sent).sum();
        let recv: u64 = run.query_volumes.iter().map(|q| q[rank].received).sum();
        assert_eq!(sent, run.volumes[rank].sent, "rank {rank} sent");
        assert_eq!(msgs, run.volumes[rank].msgs_sent, "rank {rank} msgs");
        assert_eq!(recv, run.volumes[rank].received, "rank {rank} received");
    }
    // And the per-pole table renders one row per pole.
    let table = pole_summary_table(&run.query_volumes);
    assert_eq!(table.lines().count(), factors.len() + 1);
}

#[test]
fn batch_overlaps_queries() {
    // The whole point of the batch: with several poles admitted, some rank
    // must hold collectives of more than one supernode-task in flight at a
    // time — and more than a single-pole run of the same window,
    // since the outstanding count spans queries.
    let factors = pole_factors();
    let grid = Grid2D::new(2, 2);
    let hwm = |t: &pselinv_trace::Trace| {
        t.ranks.iter().map(|r| r.metrics.outstanding_hwm).max().unwrap_or(0)
    };
    let (_, batched_trace) = batched_selinv_traced(
        factors,
        grid,
        &BatchOptions { dist: dist_opts(2), max_inflight: factors.len() },
        "poles/batched",
    );
    let h = hwm(&batched_trace);
    assert!(h > 1, "batched run should overlap, got high-water {h}");
    // With every pole racing, the window high-water exceeds one pole's
    // lookahead-2 window alone.
    let (_, _, solo_trace) =
        pselinv_dist::distributed_selinv_traced(&factors[0], grid, &dist_opts(2), "poles/solo");
    assert!(
        h > hwm(&solo_trace),
        "cross-query overlap should beat a single pole's window ({h} vs {})",
        hwm(&solo_trace)
    );
    // Trace meta describes the batch.
    assert_eq!(batched_trace.meta_str("queries"), Some("4"));
    assert_eq!(batched_trace.meta_str("max_inflight"), Some("4"));
}

#[test]
fn batch_works_multithreaded_and_on_rectangular_grids() {
    let factors = pole_factors();
    for grid in [Grid2D::new(2, 3), Grid2D::new(3, 1)] {
        let standalone: Vec<SelectedInverse> =
            factors.iter().map(|f| distributed_selinv(f, grid, &dist_opts(4)).0).collect();
        let run = batched_selinv(
            factors,
            grid,
            &BatchOptions { dist: DistOptions { threads: 4, ..dist_opts(4) }, max_inflight: 2 },
        );
        for (q, (inv, solo)) in run.inverses.iter().zip(&standalone).enumerate() {
            let what = format!("pole {q} on {}x{} threads=4", grid.pr, grid.pc);
            assert_bit_identical(solo, inv, &what);
        }
    }
}

#[test]
#[should_panic(expected = "share the batch's symbolic analysis")]
fn mismatched_symbolic_rejected() {
    let w = gen::grid_laplacian_2d(7, 7);
    let sf_a = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let sf_b = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let fa = factor_poles(&w.matrix, &[0.5], sf_a).unwrap().remove(0);
    let fb = factor_poles(&w.matrix, &[1.5], sf_b).unwrap().remove(0);
    let _ = batched_selinv(&[fa, fb], Grid2D::new(1, 1), &BatchOptions::default());
}
