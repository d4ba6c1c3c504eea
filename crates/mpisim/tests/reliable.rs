//! Reliable transport under injected loss, and online crash recovery.
//!
//! The tentpole guarantees under test:
//!
//! * with the reliable transport on, `drop_permille` loss (composed with
//!   duplication and reordering) is fully masked — collective results are
//!   bit-identical to the fault-free run and the *logical* volume counters
//!   are exactly the fault-free ones, with all recovery traffic isolated
//!   in `RankVolume::retransmitted`;
//! * stale-epoch traffic on a re-homed edge is discarded at match time,
//!   before anything is counted;
//! * with recovery on, rank deaths are absorbed: survivors re-home onto a
//!   `rebuild_excluding` tree and still deliver, and only dead-root
//!   collectives are reported stranded.

use proptest::prelude::*;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_mpisim::collectives::{tree_bcast, tree_reduce};
use pselinv_mpisim::{
    try_run, try_run_recover, RankCtx, RankVolume, Recovery, RecoveryConfig, ReliableConfig,
    RunOptions,
};
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::time::Duration;

/// The logical (application-visible) part of a volume: everything except
/// the control-plane `retransmitted` counter, which is timing-dependent.
fn logical(v: &RankVolume) -> (u64, u64, u64, u64, u64) {
    (v.sent, v.received, v.msgs_sent, v.msgs_received, v.copied)
}

fn reliable_opts(plan: FaultPlan, rto_ms: u64) -> RunOptions {
    RunOptions {
        watchdog: Some(Duration::from_secs(30)),
        poll: Duration::from_millis(2),
        faults: Some(plan),
        reliable: Some(ReliableConfig { rto: Duration::from_millis(rto_ms) }),
        ..RunOptions::default()
    }
}

/// Three broadcast+reduce rounds on rotating roots: every rank is interior
/// on some tree, so loss is exercised on root, interior and leaf edges.
fn collective_workload(nranks: usize) -> impl Fn(&mut RankCtx) -> Vec<f64> + Sync {
    move |ctx| {
        let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, 7);
        let ranks: Vec<usize> = (0..nranks).collect();
        let mut out = Vec::new();
        for (k, &root) in [0, nranks / 2, nranks - 1].iter().enumerate() {
            let receivers: Vec<usize> = ranks.iter().copied().filter(|&r| r != root).collect();
            let tree = builder.build(root, &receivers, k as u64);
            let data = (ctx.rank() == root).then(|| vec![root as f64 + 0.25, 1.0 / (k + 1) as f64]);
            let p = tree_bcast(ctx, &tree, 100 + k as u64, data);
            out.extend(p.iter().copied());
            let total = tree_reduce(ctx, &tree, 200 + k as u64, vec![ctx.rank() as f64 * 1.5, 1.0]);
            out.extend(total.into_iter().flatten());
        }
        out
    }
}

fn assert_loss_masked(nranks: usize, seed: u64, drop_permille: u16) {
    let clean = try_run(nranks, &RunOptions::default(), collective_workload(nranks))
        .expect("fault-free run");
    let plan = FaultPlan::new(seed).with_default(FaultSpec {
        drop_permille,
        duplicate_permille: 100,
        reorder_permille: 100,
        ..FaultSpec::default()
    });
    let lossy = try_run(nranks, &reliable_opts(plan, 4), collective_workload(nranks))
        .expect("lossy run must complete under the reliable transport");
    // Bit-identical results on every rank.
    assert_eq!(clean.0, lossy.0);
    // Logical volumes are exactly the fault-free ones; only the separate
    // control-plane counter may differ.
    for (rank, (c, l)) in clean.1.iter().zip(lossy.1.iter()).enumerate() {
        assert_eq!(logical(c), logical(l), "logical volume diverged on rank {rank}");
        assert_eq!(c.retransmitted, 0, "fault-free run must not retransmit");
    }
}

/// The ISSUE's headline identity at full scale: 64 ranks, 200‰ loss
/// composed with duplication and reordering, bit-identical to fault-free.
#[test]
fn loss_at_200_permille_is_masked_at_64_ranks() {
    assert_loss_masked(64, 0xfa17, 200);
}

/// Loss alone, maximal permitted rate, small world: the retransmit path is
/// hit on nearly every edge.
#[test]
fn heavy_loss_small_world() {
    assert_loss_masked(4, 3, 200);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any seed, any loss rate up to the contract's 200‰, any small world:
    /// results and logical volumes match the fault-free run exactly.
    #[test]
    fn loss_is_masked_under_reliable_transport(
        seed in 0u64..u64::MAX,
        nranks in 4usize..13,
        drop_permille in 0u16..201,
    ) {
        assert_loss_masked(nranks, seed, drop_permille);
    }
}

/// Stale-epoch traffic on an edge the receiver re-homed is discarded where
/// the receive takes it, before anything is counted: the receiver's logical
/// volume counts only the bumped-epoch message, and the re-issue behind it
/// on the same channel is consumed normally. The name predates the
/// match-time discard; nothing is counted, so nothing is reversed.
#[test]
fn stale_epoch_messages_are_discarded_with_accounting_reversed() {
    let (results, volumes) = try_run(2, &RunOptions::default(), |ctx| {
        if ctx.rank() == 0 {
            // Pre-crash traffic (epoch 0), then the post-rebuild re-issue
            // under a bumped epoch on the same edge.
            ctx.send(1, 7, vec![1.0; 8]);
            ctx.set_epoch(1);
            ctx.send(1, 7, vec![2.0; 8]);
            Vec::new()
        } else {
            ctx.expect_epoch(0, 7, 1);
            ctx.recv(0, 7).to_vec()
        }
    })
    .unwrap();
    assert_eq!(results[1], vec![2.0; 8]);
    // Exactly one message (the epoch-1 re-issue) is accounted: the stale
    // epoch-0 delivery was discarded uncounted.
    assert_eq!(volumes[1].received, 64);
    assert_eq!(volumes[1].msgs_received, 1);
    // The sender legitimately sent both copies.
    assert_eq!(volumes[0].msgs_sent, 2);
}

fn recovery_opts(plan: FaultPlan) -> RunOptions {
    RunOptions {
        watchdog: None,
        poll: Duration::from_millis(2),
        faults: Some(plan),
        reliable: Some(ReliableConfig { rto: Duration::from_millis(5) }),
        ..RunOptions::default()
    }
}

fn recovery_cfg() -> RecoveryConfig {
    RecoveryConfig { suspect_after: Duration::from_millis(40), slice: Duration::from_millis(3) }
}

/// A mid-tree rank dies before forwarding anything: its orphaned subtree
/// re-homes onto the rebuilt tree and every survivor still delivers.
#[test]
fn survivors_recover_a_broadcast_around_a_dead_interior_rank() {
    let nranks = 8;
    let plan = FaultPlan::new(11)
        .with_rank(1, FaultSpec { crash_after_ops: Some(0), ..FaultSpec::default() });
    let builder = TreeBuilder::new(TreeScheme::Binary, 1);
    let (results, _, report) = try_run_recover(nranks, &recovery_opts(plan), |ctx| {
        let receivers: Vec<usize> = (1..nranks).collect();
        let tree = builder.build(0, &receivers, 5);
        let mut rec = Recovery::new(recovery_cfg());
        let data = (ctx.rank() == 0).then(|| vec![4.0, 5.0, 6.0]);
        let out = rec.bcast(ctx, &builder, &tree, 5, 9, data).map(|p| p.to_vec());
        rec.finish(ctx);
        out
    })
    .unwrap();
    assert_eq!(report.dead_ranks, vec![1]);
    assert!(report.stranded_supernodes.is_empty());
    for (rank, r) in results.iter().enumerate() {
        if rank == 1 {
            assert!(r.is_none(), "the casualty has no result");
        } else {
            assert_eq!(
                r.as_ref().and_then(|o| o.as_deref()),
                Some(&[4.0, 5.0, 6.0][..]),
                "survivor {rank} must deliver the payload"
            );
        }
    }
}

/// When the payload source itself dies, no survivor can ever produce the
/// data: the collective degrades to `None` everywhere and is reported
/// stranded instead of hanging the run.
#[test]
fn dead_root_collective_is_reported_stranded() {
    let nranks = 6;
    let plan = FaultPlan::new(21)
        .with_rank(2, FaultSpec { crash_after_ops: Some(0), ..FaultSpec::default() });
    let builder = TreeBuilder::new(TreeScheme::Binary, 1);
    let (results, _, report) = try_run_recover(nranks, &recovery_opts(plan), |ctx| {
        let receivers: Vec<usize> = (0..nranks).filter(|&r| r != 2).collect();
        let tree = builder.build(2, &receivers, 3);
        let mut rec = Recovery::new(recovery_cfg());
        let data = (ctx.rank() == 2).then(|| vec![9.0]);
        let out = rec.bcast(ctx, &builder, &tree, 3, 17, data).map(|p| p.to_vec());
        rec.finish(ctx);
        out.is_some()
    })
    .unwrap();
    assert_eq!(report.dead_ranks, vec![2]);
    assert_eq!(report.stranded_supernodes, vec![17]);
    for (rank, r) in results.iter().enumerate() {
        if rank == 2 {
            assert!(r.is_none(), "the casualty has no result");
        } else {
            assert_eq!(*r, Some(false), "survivor {rank} must see the stranded collective");
        }
    }
}

/// Mixed storm in miniature: several trees with different roots, one
/// casualty. Live-root collectives all deliver to all survivors; the
/// dead-root collective is the only stranded one.
#[test]
fn mixed_trees_one_dead_root_only_that_tree_strands() {
    let nranks = 8;
    let dead = 3usize;
    let plan = FaultPlan::new(77)
        .with_rank(dead, FaultSpec { crash_after_ops: Some(0), ..FaultSpec::default() });
    let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, 2);
    let (results, _, report) = try_run_recover(nranks, &recovery_opts(plan), |ctx| {
        let mut rec = Recovery::new(recovery_cfg());
        let mut delivered = 0u64;
        for root in 0..4usize {
            let receivers: Vec<usize> = (0..nranks).filter(|&r| r != root).collect();
            let tree = builder.build(root, &receivers, root as u64);
            let data = (ctx.rank() == root).then(|| vec![root as f64; 4]);
            if let Some(p) = rec.bcast(ctx, &builder, &tree, root as u64, 30 + root as u64, data) {
                assert_eq!(p.to_vec(), vec![root as f64; 4]);
                delivered += 1;
            }
        }
        rec.finish(ctx);
        delivered
    })
    .unwrap();
    assert_eq!(report.dead_ranks, vec![dead]);
    // Tree 3 is rooted at the casualty; the other three must deliver.
    assert_eq!(report.stranded_supernodes, vec![33]);
    for (rank, r) in results.iter().enumerate() {
        if rank == dead {
            assert!(r.is_none());
        } else {
            assert_eq!(r.unwrap(), 3, "survivor {rank} must deliver all live-root trees");
        }
    }
    assert!(report.rebuilt_trees >= 1, "orphans must have rebuilt at least one tree");
}
