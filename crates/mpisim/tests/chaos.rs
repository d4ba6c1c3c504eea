//! Chaos proptests: a *crash-free* fault schedule (delay, jitter,
//! duplication, reordering — but no rank ever stalls or dies) must be
//! completely invisible to the masked collectives. Results are
//! bit-identical to the fault-free run and the per-rank byte counters
//! still match the structural tree accounting, because duplicate
//! suppression happens before any accounting.

use proptest::prelude::*;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_mpisim::collectives::{tree_bcast, tree_reduce};
use pselinv_mpisim::{run, try_run, try_run_traced, RankCtx, RunOptions};
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::collections::BTreeMap;
use std::time::Duration;

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
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn crash_free_schedules_yield_bit_identical_collectives(
        seed in 0u64..1_000_000,
        scheme_i in 0usize..4,
        nranks in 4usize..9,
        delay in 0u64..60,
        jitter in 0u64..60,
        dup in 0u16..600,
        reorder in 0u16..600,
        payload_len in 1usize..17,
    ) {
        let scheme = [
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ][scheme_i];
        let receivers: Vec<usize> = (1..nranks).collect();
        let tree = TreeBuilder::new(scheme, 0x5e11).build(0, &receivers, seed);
        let tree = &tree;
        let payload: Vec<f64> = (0..payload_len).map(|i| seed as f64 + i as f64 * 0.5).collect();
        let payload = &payload;

        let body = move |ctx: &mut RankCtx| {
            let me = ctx.rank();
            let b = tree_bcast(ctx, tree, 11, (me == 0).then(|| payload.clone()));
            let contrib: Vec<f64> = (0..payload_len).map(|i| (me * 31 + i) as f64).collect();
            let r = tree_reduce(ctx, tree, 12, contrib);
            (b, r)
        };

        let (baseline, base_vol) = run(nranks, body);

        let plan = FaultPlan::new(seed ^ 0x9e37_79b9).with_default(FaultSpec {
            delay_us: delay,
            jitter_us: jitter,
            duplicate_permille: dup,
            reorder_permille: reorder,
            ..FaultSpec::default()
        });
        let (chaotic, vol) =
            try_run(nranks, &chaos_opts(plan), body).expect("a crash-free plan must complete");

        prop_assert_eq!(&chaotic, &baseline, "results diverged under a crash-free schedule");
        // Suppressed duplicates are never accounted, so the fault run's
        // volume counters equal the fault-free ones — which themselves match
        // the structural tree model.
        for r in 0..nranks {
            prop_assert_eq!(vol[r], base_vol[r], "rank {} volume diverged", r);
        }
        let mut expect_sent = vec![0u64; nranks];
        pselinv_trees::bcast_sent_volume(tree, (payload_len * 8) as u64, &mut expect_sent);
        let mut expect_recv = vec![0u64; nranks];
        pselinv_trees::reduce_received_volume(tree, (payload_len * 8) as u64, &mut expect_recv);
        let bytes = (payload_len * 8) as u64;
        for r in 0..nranks {
            // Down the tree: bcast sends to each child; up the tree: every
            // non-root sends exactly one contribution to its parent.
            let up = if r == 0 { 0 } else { bytes };
            prop_assert_eq!(
                vol[r].sent,
                expect_sent[r] + up,
                "rank {} sent bytes off the tree model", r
            );
            prop_assert_eq!(vol[r].received, expect_recv[r] + up);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn masked_streams_stay_fifo_under_duplication_and_reordering(
        seed in 0u64..1_000_000,
        n_msgs in 6usize..24,
        dup in 100u16..700,
        reorder in 100u16..700,
    ) {
        let plan = FaultPlan::new(seed).with_default(FaultSpec {
            duplicate_permille: dup,
            reorder_permille: reorder,
            ..FaultSpec::default()
        });
        let (results, _) = try_run(2, &chaos_opts(plan), move |ctx| {
            const N_TAGS: u64 = 3;
            if ctx.rank() == 0 {
                for i in 0..n_msgs {
                    ctx.send(1, i as u64 % N_TAGS, vec![i as f64]);
                }
                Ok(())
            } else {
                // Draining the highest tag first forces the other streams
                // through the out-of-order stash while duplicates and
                // held-back messages are in flight.
                let mut seen: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for tag in (0..N_TAGS).rev() {
                    let expected = (0..n_msgs).filter(|i| *i as u64 % N_TAGS == tag).count();
                    for _ in 0..expected {
                        let d = ctx.recv(0, tag);
                        seen.entry(tag).or_default().push(d[0]);
                    }
                }
                // Per-(src, tag) delivery order must equal send order.
                for (tag, vals) in &seen {
                    let sent: Vec<f64> = (0..n_msgs)
                        .filter(|i| *i as u64 % N_TAGS == *tag)
                        .map(|i| i as f64)
                        .collect();
                    if vals != &sent {
                        return Err(format!("tag {tag}: got {vals:?}, sent {sent:?}"));
                    }
                }
                Ok(())
            }
        })
        .expect("benign faults must not wedge the run");
        for r in results {
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }
}

#[test]
fn traced_chaos_run_keeps_byte_counters_consistent() {
    use pselinv_trace::CollKind;
    let nranks = 8;
    let receivers: Vec<usize> = (1..nranks).collect();
    let tree = TreeBuilder::new(TreeScheme::ShiftedBinary, 7).build(0, &receivers, 3);
    let tree = &tree;
    let payload = 24usize;
    let plan = FaultPlan::new(0xfeed).with_default(FaultSpec {
        delay_us: 20,
        jitter_us: 30,
        duplicate_permille: 400,
        reorder_permille: 400,
        ..FaultSpec::default()
    });
    let (_, volumes, trace) = try_run_traced(nranks, "chaos/bcast", &chaos_opts(plan), |ctx| {
        tree_bcast(ctx, tree, 0, (ctx.rank() == 0).then(|| vec![1.0; payload]));
    })
    .expect("benign plan must complete");
    let mut expected = vec![0u64; nranks];
    pselinv_trees::bcast_sent_volume(tree, (payload * 8) as u64, &mut expected);
    // Traced metrics and runtime counters agree with the structural model
    // even with duplicates and reorderings injected.
    assert_eq!(trace.sent_bytes(CollKind::Bcast), expected);
    for r in 0..nranks {
        assert_eq!(volumes[r].sent, expected[r], "rank {r}");
        assert_eq!(
            trace.ranks[r].metrics.kind(CollKind::Bcast).bytes_recv,
            volumes[r].received,
            "rank {r}"
        );
    }
    // The fault layer left its marks in the event stream.
    let n_faults: usize = trace
        .ranks
        .iter()
        .map(|r| {
            r.events
                .iter()
                .filter(|e| matches!(e.kind, pselinv_trace::EventKind::Fault { .. }))
                .count()
        })
        .sum();
    assert!(n_faults > 0, "a 400permille dup/reorder plan should have injected something");
}

#[test]
fn chaos_schedule_is_reproducible() {
    // Two runs under the same plan inject the same schedule: same results,
    // same volumes (the schedule is a pure function of the seed, not of
    // thread timing).
    let mk_plan = || {
        FaultPlan::new(0xd1ce).with_default(FaultSpec {
            jitter_us: 40,
            duplicate_permille: 300,
            reorder_permille: 300,
            ..FaultSpec::default()
        })
    };
    let receivers: Vec<usize> = (1..6).collect();
    let tree = TreeBuilder::new(TreeScheme::Binary, 1).build(0, &receivers, 0);
    let tree = &tree;
    let body = move |ctx: &mut RankCtx| {
        let b = tree_bcast(ctx, tree, 5, (ctx.rank() == 0).then(|| vec![2.5; 8]));
        tree_reduce(ctx, tree, 6, b.to_vec())
    };
    let (r1, v1) = try_run(6, &chaos_opts(mk_plan()), body).unwrap();
    let (r2, v2) = try_run(6, &chaos_opts(mk_plan()), body).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(v1, v2);
}
