//! Reliable transport under injected loss, and online crash recovery.
//!
//! The tentpole guarantees under test:
//!
//! * with the reliable transport on, `drop_permille` loss (composed with
//!   duplication and reordering) is fully masked — collective results are
//!   bit-identical to the fault-free run and the *logical* volume counters
//!   are exactly the fault-free ones, with all recovery traffic isolated
//!   in `RankVolume::retransmitted`;
//! * with recovery on, rank deaths are absorbed: survivors re-home onto a
//!   `rebuild_excluding` tree and still deliver, and only dead-root
//!   collectives are reported stranded — also when a second death comes
//!   after the survivors adopted the first, so that an orphan re-homes
//!   twice and a repair can answer a JOIN of an older dead set.

use proptest::prelude::*;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_mpisim::collectives::{tree_bcast, tree_reduce};
use pselinv_mpisim::{
    try_run, try_run_recover, RankCtx, RankVolume, Recovery, RecoveryConfig, ReliableConfig,
    RunOptions,
};
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::sync::mpsc::{self, RecvTimeoutError};
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

/// Runs `f` on its own thread and panics unless it returns within `limit`.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || tx.send(f()).ok());
    match rx.recv_timeout(limit) {
        Ok(t) => {
            run.join().expect("the thread sent its result");
            t
        }
        Err(RecvTimeoutError::Timeout) => panic!("no result within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(run.join().unwrap_err()),
    }
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

/// Two deaths, adopted in two steps: rank 0 dies at its first operation
/// (the first send of broadcast 0, which it roots), rank 9 after seven, by
/// which time the survivors have re-homed around rank 0 and some of them
/// may have JOINed rank 9. An orphan of the second death re-homes again,
/// and a server may get JOINs of the same collective from several orphans.
/// Every survivor must deliver every live-root broadcast, and exactly the
/// two dead ranks' broadcasts strand. Rank 9 performs at least one
/// operation per live-root broadcast, so it is dead before broadcast 9, the
/// one it roots. A lost repair makes the orphan re-JOIN forever, which the
/// run's watchdog counts as progress, so the run goes on a thread with a
/// deadline.
#[test]
fn survivors_recover_when_a_second_rank_dies_after_the_first_is_adopted() {
    const NRANKS: usize = 16;
    const NBCASTS: u64 = 12;
    const TAG: u64 = 50;
    let (first, second) = (0usize, 9usize);
    let plan = FaultPlan::new(5)
        .with_rank(first, FaultSpec { crash_after_ops: Some(0), ..FaultSpec::default() })
        .with_rank(second, FaultSpec { crash_after_ops: Some(6), ..FaultSpec::default() });
    let (results, _, report) = within(Duration::from_secs(20), move || {
        let builder = TreeBuilder::new(TreeScheme::Binary, 4);
        try_run_recover(NRANKS, &recovery_opts(plan), |ctx| {
            let mut rec = Recovery::new(recovery_cfg());
            let mut delivered = 0u64;
            for k in 0..NBCASTS {
                let root = k as usize;
                let receivers: Vec<usize> = (0..NRANKS).filter(|&r| r != root).collect();
                let tree = builder.build(root, &receivers, k);
                let data = (ctx.rank() == root).then(|| vec![k as f64 + 0.5; 3]);
                if let Some(p) = rec.bcast(ctx, &builder, &tree, k, TAG + k, data) {
                    assert_eq!(p.to_vec(), vec![k as f64 + 0.5; 3], "broadcast {k}");
                    delivered += 1;
                }
            }
            rec.finish(ctx);
            delivered
        })
        .expect("no stall")
    });
    assert_eq!(report.dead_ranks, vec![first, second]);
    assert_eq!(report.stranded_supernodes, vec![TAG + first as u64, TAG + second as u64]);
    assert!(report.joins > 0 && report.rebuilt_trees > 0, "orphans must have re-homed");
    for (rank, r) in results.iter().enumerate() {
        if rank == first || rank == second {
            assert!(r.is_none(), "casualty {rank} has no result");
        } else {
            assert_eq!(*r, Some(NBCASTS - 2), "survivor {rank} must deliver every live-root tree");
        }
    }
}
