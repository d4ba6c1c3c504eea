//! Cross-layer acceptance identities for the profiler.
//!
//! These tests tie the analysis layer to ground truth: hot-spot byte
//! totals must equal the structure-only volume replay on *both* backends,
//! the critical path must be contiguous and never exceed the simulated
//! makespan, and the wait-state report must account for every microsecond
//! of a deterministic DES run.

use pselinv_des::{simulate_profiled, simulate_traced, MachineConfig};
use pselinv_dist::taskgraph::{selinv_graph, GraphOptions};
use pselinv_dist::{distributed_selinv_traced, replay_volumes, DistOptions, Layout};
use pselinv_mpisim::Grid2D;
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_profile::{CriticalPath, HotspotReport, WaitReport};
use pselinv_sparse::gen;
use pselinv_trace::CollKind;
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::sync::Arc;

fn layout_3x3() -> Layout {
    let w = gen::grid_laplacian_2d(12, 12);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    Layout::new(sf, Grid2D::new(3, 3))
}

fn flat_cfg() -> MachineConfig {
    MachineConfig {
        ranks_per_node: 1,
        jitter: 0.0,
        msg_overhead: 0.0,
        task_overhead: 0.0,
        latency_intra: 0.0,
        latency_inter: 0.0,
        cpu_per_msg: 0.0,
        nic_per_node: false,
        ..Default::default()
    }
}

#[test]
fn hotspot_bytes_match_replay_on_des_backend() {
    let layout = layout_3x3();
    for scheme in [TreeScheme::Flat, TreeScheme::Binary, TreeScheme::ShiftedBinary] {
        let opts = GraphOptions { scheme, ..Default::default() };
        let g = selinv_graph(&layout, &opts);
        let (_, trace) =
            simulate_traced(&g, MachineConfig { seed: 2, ..Default::default() }, "id/des");
        let hs = HotspotReport::from_trace(&trace, (3, 3));
        let rep = replay_volumes(&layout, TreeBuilder::new(opts.scheme, opts.seed));
        let cb = hs.kinds.iter().find(|k| k.coll == CollKind::ColBcast).unwrap();
        assert_eq!(cb.sent_bytes, rep.col_bcast_sent, "{scheme:?}");
        let rr = hs.kinds.iter().find(|k| k.coll == CollKind::RowReduce).unwrap();
        assert_eq!(rr.recv_bytes, rep.row_reduce_received, "{scheme:?}");
    }
}

#[test]
fn hotspot_bytes_match_replay_on_mpisim_backend() {
    let w = gen::grid_laplacian_2d(10, 10);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
    let grid = Grid2D::new(3, 3);
    let opts = DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 7, threads: 1, lookahead: 1 };
    let (_, _, trace) = distributed_selinv_traced(&f, grid, &opts, "id/mpisim");
    let hs = HotspotReport::from_trace(&trace, (3, 3));
    let layout = Layout::new(sf, grid);
    let rep = replay_volumes(&layout, TreeBuilder::new(opts.scheme, opts.seed));
    let cb = hs.kinds.iter().find(|k| k.coll == CollKind::ColBcast).unwrap();
    assert_eq!(cb.sent_bytes, rep.col_bcast_sent);
    let rr = hs.kinds.iter().find(|k| k.coll == CollKind::RowReduce).unwrap();
    assert_eq!(rr.recv_bytes, rep.row_reduce_received);
    // The structure-only report exposes the same two vectors.
    let hv = HotspotReport::from_volumes("id/volumes", &rep);
    assert_eq!(hv.primary_load(CollKind::ColBcast).unwrap(), &cb.sent_bytes[..]);
    assert_eq!(hv.primary_load(CollKind::RowReduce).unwrap(), &rr.recv_bytes[..]);
}

#[test]
fn critical_path_is_contiguous_and_bounded_by_makespan() {
    let layout = layout_3x3();
    for scheme in [TreeScheme::Flat, TreeScheme::ShiftedBinary] {
        let g = selinv_graph(&layout, &GraphOptions { scheme, ..Default::default() });
        // A realistic machine: contention, jitter, per-message CPU cost.
        let cfg = MachineConfig { seed: 11, ranks_per_node: 4, ..Default::default() };
        let (res, _, prof) = simulate_profiled(&g, cfg, "id/cp", &[]);
        let cp = CriticalPath::extract(&g, &prof);
        assert_eq!(cp.steps[0].start_us, 0, "{scheme:?}");
        for w in cp.steps.windows(2) {
            assert_eq!(w[0].end_us, w[1].start_us, "{scheme:?}: gap in path");
        }
        assert_eq!(cp.length_us(), cp.makespan_us, "{scheme:?}");
        // The last task end can precede trailing message deliveries, so
        // the path length is bounded by (not equal to) the makespan.
        let makespan_us = (res.makespan * 1e6) as u64;
        assert!(
            cp.length_us() <= makespan_us + 1,
            "{scheme:?}: {} > {makespan_us}",
            cp.length_us()
        );
        assert!(cp.length_us() > 0);
        assert!(!cp.rank_sequence().is_empty());
    }
}

#[test]
fn wait_report_accounts_for_every_microsecond_on_flat_des() {
    let layout = layout_3x3();
    let g = selinv_graph(&layout, &GraphOptions::default());
    let (_, trace, prof) = simulate_profiled(&g, flat_cfg(), "id/wait", &[]);
    let rep = WaitReport::from_trace(&trace);
    let rank_end = prof.rank_end_us(&g);
    for r in &rep.ranks {
        assert_eq!(
            r.span_us + r.total_wait_us(),
            rank_end[r.rank],
            "rank {}: busy + wait must cover the whole timeline",
            r.rank
        );
    }
    // Something must have waited on a 3x3 grid, and the report renders.
    assert!(rep.ranks.iter().map(|r| r.total_wait_us()).sum::<u64>() > 0);
    assert!(rep.dominant_wait_kind().is_some());
    assert!(!rep.ascii().is_empty());
}
