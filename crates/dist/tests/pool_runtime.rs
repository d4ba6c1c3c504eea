//! Acceptance tests for the persistent intra-rank work-stealing pool, the
//! executor of every run with `threads > 1`: the engine's GEMM and
//! diagonal steps fork-join on it with the rank thread helping, at every
//! window.
//!
//! The pool reorders *scheduling*, never *arithmetic*: for every grid,
//! tree scheme, lookahead window, thread count and benign fault schedule,
//! its result panels must be bit-identical to the serial path, and its
//! per-rank communication volumes must be exactly equal — local compute
//! never touches the logical communication.

use proptest::prelude::*;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_dist::{
    distributed_selinv, distributed_selinv_traced, try_distributed_selinv, DistOptions, Layout,
};
use pselinv_factor::LdlFactor;
use pselinv_mpisim::{Grid2D, RankVolume, RunOptions};
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_selinv::SelectedInverse;
use pselinv_sparse::gen;
use pselinv_trace::CollKind;
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Shared small factor so the proptest cases don't re-factorize each time.
fn small_factor() -> &'static LdlFactor {
    static F: OnceLock<LdlFactor> = OnceLock::new();
    F.get_or_init(|| {
        let w = gen::grid_laplacian_2d(7, 7);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        pselinv_factor::factorize(&w.matrix, sf).unwrap()
    })
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

fn assert_volumes_equal(a: &[RankVolume], b: &[RankVolume], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: rank count");
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: rank {r} volume");
    }
}

fn opts(threads: usize, lookahead: usize) -> DistOptions {
    DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 7, threads, lookahead }
}

#[test]
fn threads_zero_is_normalized_to_one() {
    // Regression: `threads: 0` used to skirt `div_ceil(0)` paths only via
    // the `<= 1` inline guard. The normalization now lives in one place.
    assert_eq!(opts(0, 1).worker_threads(), 1);
    assert_eq!(opts(1, 1).worker_threads(), 1);
    assert_eq!(opts(8, 1).worker_threads(), 8);
    let f = small_factor();
    let grid = Grid2D::new(2, 2);
    let (serial, vol1) = distributed_selinv(f, grid, &opts(1, 1));
    let (zero, vol0) = distributed_selinv(f, grid, &opts(0, 1));
    assert_bit_identical(&serial, &zero, "threads=0 vs threads=1");
    assert_volumes_equal(&vol1, &vol0, "threads=0 vs threads=1");
}

#[test]
fn pool_matches_serial_bitwise() {
    let f = small_factor();
    for grid in [Grid2D::new(2, 2), Grid2D::new(2, 3)] {
        let (serial, vol1) = distributed_selinv(f, grid, &opts(1, 1));
        for lookahead in [1usize, 4] {
            for threads in [2usize, 4, 8] {
                let what = format!("{}x{} threads={threads} la={lookahead}", grid.pr, grid.pc);
                let (pool, volp) = distributed_selinv(f, grid, &opts(threads, lookahead));
                assert_bit_identical(&serial, &pool, &what);
                assert_volumes_equal(&vol1, &volp, &what);
            }
        }
    }
}

#[test]
fn pool_volumes_match_structural_replay_and_trace_records_pool_stats() {
    // The accounting acceptance link with the pool enabled: measured
    // volumes still equal the structure-only replay exactly, and the trace
    // carries the pool's execute counters and per-worker Compute spans.
    let f = small_factor();
    let grid = Grid2D::new(2, 3);
    let o = opts(4, 4);
    let (_, volumes, trace) = distributed_selinv_traced(f, grid, &o, "pool/replay");
    let layout = Layout::new(f.symbolic.clone(), grid);
    let rep = pselinv_dist::replay_volumes(&layout, TreeBuilder::new(o.scheme, o.seed));
    let measured_total: u64 = volumes.iter().map(|v| v.sent).sum();
    assert_eq!(measured_total, rep.total_bytes(), "pool perturbed the logical volumes");
    let executed: u64 = trace.ranks.iter().map(|r| r.metrics.pool_executed).sum();
    assert!(executed > 0, "pool ran but recorded no executed tasks");
    let workers = trace.ranks.iter().map(|r| r.metrics.pool_workers).max().unwrap_or(0);
    assert_eq!(workers, 4, "pool worker count not recorded");
    let compute_spans: u64 =
        trace.ranks.iter().map(|r| r.metrics.kind(CollKind::Compute).spans).sum();
    assert!(compute_spans > 0, "no per-worker Compute spans recorded");
    assert!(trace.summary_table().contains("pool tasks: executed"));
}

fn chaos_opts(plan: FaultPlan) -> RunOptions {
    RunOptions {
        watchdog: Some(Duration::from_secs(30)),
        poll: Duration::from_millis(5),
        faults: Some(plan),
        telemetry: None,
        ..RunOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]
    /// pool ≡ serial, bitwise, under grids × schemes × lookahead ×
    /// threads × benign chaos.
    #[test]
    fn pool_is_bit_identical_under_chaos(
        seed in 0u64..3,
        scheme_i in 0usize..4,
        la_i in 0usize..2,
        threads_i in 0usize..3,
        grid_i in 0usize..2,
        delay in 0u64..40,
        dup in 0u16..400,
        reorder in 0u16..400,
    ) {
        let scheme = [
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ][scheme_i];
        let lookahead = [1usize, 4][la_i];
        let threads = [2usize, 4, 8][threads_i];
        let grid = [Grid2D::new(2, 2), Grid2D::new(2, 3)][grid_i];
        let f = small_factor();

        let mk = |threads| DistOptions { scheme, seed: 7, threads, lookahead };
        let (baseline, base_vol) = distributed_selinv(f, grid, &mk(1));

        let plan = FaultPlan::new(seed.wrapping_mul(0x9e37_79b9) ^ 0xa5a5_5a5a).with_default(
            FaultSpec {
                delay_us: delay,
                jitter_us: delay / 2,
                duplicate_permille: dup,
                reorder_permille: reorder,
                ..FaultSpec::default()
            },
        );
        let (pool, pool_vol) = try_distributed_selinv(f, grid, &mk(threads), &chaos_opts(plan))
            .expect("a crash-free fault plan must complete");

        let sf = &baseline.symbolic;
        for s in 0..sf.num_supernodes() {
            for j in 0..sf.width(s) {
                for i in 0..sf.width(s) {
                    prop_assert_eq!(
                        baseline.panels[s].diag[(i, j)].to_bits(),
                        pool.panels[s].diag[(i, j)].to_bits(),
                        "pool diag {} ({},{})", s, i, j
                    );
                }
                for i in 0..sf.rows_of(s).len() {
                    prop_assert_eq!(
                        baseline.panels[s].below[(i, j)].to_bits(),
                        pool.panels[s].below[(i, j)].to_bits(),
                        "pool below {} ({},{})", s, i, j
                    );
                }
            }
        }
        for r in 0..base_vol.len() {
            prop_assert_eq!(pool_vol[r], base_vol[r], "pool rank {} volume diverged", r);
        }
    }
}
