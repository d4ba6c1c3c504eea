//! Live-telemetry acceptance: the sampler must observe every rank, its
//! exports must parse, and — the invariant the observability layer is
//! not allowed to bend — attaching telemetry and causal stamps must
//! leave results bit-identical and logical volumes exactly equal to the
//! structural replay.

use pselinv_dist::{
    distributed_selinv, replay_volumes, try_distributed_selinv_traced, DistOptions, Layout,
};
use pselinv_mpisim::{Grid2D, RunOptions, Telemetry};
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_sparse::gen;
use pselinv_trace::Json;
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn telemetry_observes_every_rank_and_preserves_volume_identities() {
    let w = gen::grid_laplacian_2d(10, 10);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
    let grid = Grid2D::new(2, 3);
    let opts = DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 7, threads: 1, lookahead: 2 };

    let (baseline, base_vol) = distributed_selinv(&f, grid, &opts);

    let tel = Telemetry::new(Duration::from_micros(200), 4096);
    let run_opts = RunOptions { telemetry: Some(tel.clone()), ..RunOptions::default() };
    let (observed, vol, trace) =
        try_distributed_selinv_traced(&f, grid, &opts, &run_opts, "telemetry-run").unwrap();

    // Results bit-identical with the observability layer fully on.
    let a = &baseline.panels;
    let b = &observed.panels;
    for s in 0..sf.num_supernodes() {
        for j in 0..sf.width(s) {
            for i in 0..sf.width(s) {
                assert_eq!(a[s].diag[(i, j)].to_bits(), b[s].diag[(i, j)].to_bits());
            }
            for i in 0..sf.rows_of(s).len() {
                assert_eq!(a[s].below[(i, j)].to_bits(), b[s].below[(i, j)].to_bits());
            }
        }
    }

    // Per-rank volumes unchanged, and still equal to the structural replay.
    assert_eq!(base_vol, vol, "telemetry must not perturb logical volumes");
    let layout = Layout::new(sf, grid);
    let rep = replay_volumes(&layout, TreeBuilder::new(opts.scheme, opts.seed));
    let measured_total: u64 = vol.iter().map(|v| v.sent).sum();
    assert_eq!(measured_total, rep.total_bytes(), "trace/replay volume identity broke");

    // Traced per-rank sent bytes also agree with the runtime counters.
    let traced_sent: u64 =
        pselinv_trace::CollKind::ALL.iter().map(|&c| trace.sent_bytes(c).iter().sum::<u64>()).sum();
    assert_eq!(traced_sent, measured_total, "traced bytes diverge from runtime counters");

    // The sampler saw every rank at least once (the final snapshot runs
    // unconditionally, so this holds even for very short runs).
    let samples = tel.samples();
    assert!(!samples.is_empty());
    for rank in 0..grid.size() {
        assert!(samples.iter().any(|s| s.rank == rank), "no telemetry sample for rank {rank}");
    }

    // Exports are well-formed: every JSONL line parses, Prometheus text
    // carries one gauge line per rank per metric.
    let jsonl = tel.to_jsonl();
    for line in jsonl.lines() {
        let j = Json::parse(line).expect("JSONL line must parse");
        assert!(j.get("rank").and_then(Json::as_f64).is_some());
        assert!(j.get("t_us").and_then(Json::as_f64).is_some());
    }
    let prom = tel.prometheus();
    for rank in 0..grid.size() {
        assert!(
            prom.contains(&format!("pselinv_sent_bytes{{rank=\"{rank}\"}}")),
            "missing prometheus gauge for rank {rank}"
        );
    }
}
