//! Tier-1 smoke of the message path: one small Laplacian through every
//! engine on a 2×2 grid under default `RunOptions`. The engines differ only
//! in *when* a rank waits for a message, so they must agree in every bit and
//! every counter — and a broken park/wake path (a lost wakeup, a missed
//! deadline, a watchdog false alarm) fails here, in `cargo test -q` at the
//! root, instead of only in the workspace suite.

use pselinv::dist::{
    distributed_selinv, factor_poles, try_batched_selinv, BatchOptions, DistOptions,
};
use pselinv::mpisim::{Grid2D, RankVolume, RunOptions};
use pselinv::order::supernodes::SupernodeOptions;
use pselinv::order::{analyze, AnalyzeOptions, OrderingChoice};
use pselinv::selinv::SelectedInverse;
use pselinv::sparse::gen;
use pselinv::trees::TreeScheme;
use std::sync::Arc;

fn assert_bit_identical(a: &SelectedInverse, b: &SelectedInverse, what: &str) {
    assert_eq!(a.panels.len(), b.panels.len(), "{what}: supernode count");
    for (s, (pa, pb)) in a.panels.iter().zip(&b.panels).enumerate() {
        let bits =
            |m: &pselinv::dense::Mat| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pa.diag), bits(&pb.diag), "{what}: diagonal block of supernode {s}");
        assert_eq!(bits(&pa.below), bits(&pb.below), "{what}: panel of supernode {s}");
    }
}

/// The per-pole channel counters split only the logical fields.
fn logical(v: &RankVolume) -> (u64, u64, u64, u64) {
    (v.sent, v.received, v.msgs_sent, v.msgs_received)
}

#[test]
fn every_engine_agrees_bitwise_on_a_2x2_grid() {
    // Narrow supernodes: many small dependent messages, the regime where a
    // run is its waits.
    let w = gen::grid_laplacian_2d(12, 12);
    let opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, Default::default()),
        supernode: SupernodeOptions { max_width: 4, ..Default::default() },
        ..Default::default()
    };
    let sf = Arc::new(analyze(&w.matrix.pattern(), &opts));
    let shifts = [0.0, 1.9];
    let factors = factor_poles(&w.matrix, &shifts, sf).expect("generic shifts factor");
    let grid = Grid2D::new(2, 2);
    let dist = |lookahead| DistOptions {
        scheme: TreeScheme::ShiftedBinary,
        seed: 3,
        threads: 1,
        lookahead,
    };

    let standalone: Vec<(SelectedInverse, Vec<RankVolume>)> = factors
        .iter()
        .enumerate()
        .map(|(q, f)| {
            let (sync, sync_vol) = distributed_selinv(f, grid, &dist(1));
            let (asyn, asyn_vol) = distributed_selinv(f, grid, &dist(4));
            assert_bit_identical(&sync, &asyn, &format!("pole {q}: lookahead 1 vs 4"));
            assert_eq!(sync_vol, asyn_vol, "pole {q}: lookahead 1 vs 4 volumes");
            assert!(sync_vol.iter().map(|v| v.sent).sum::<u64>() > 0, "pole {q}: no traffic");
            assert!(sync_vol.iter().all(|v| v.retransmitted == 0), "pole {q}: retransmission");
            (sync, sync_vol)
        })
        .collect();

    let batch = try_batched_selinv(
        &factors,
        grid,
        &BatchOptions { dist: dist(4), max_inflight: 2 },
        &RunOptions::default(),
    )
    .expect("a fault-free batch completes");
    assert!(batch.volumes.iter().all(|v| v.retransmitted == 0), "batch: retransmission");
    for (q, (solo, solo_vol)) in standalone.iter().enumerate() {
        assert_bit_identical(solo, &batch.inverses[q], &format!("pole {q}: batched vs standalone"));
        let pole: Vec<_> = batch.query_volumes[q].iter().map(logical).collect();
        let alone: Vec<_> = solo_vol.iter().map(logical).collect();
        assert_eq!(pole, alone, "pole {q}: batched vs standalone logical volumes");
    }
}
