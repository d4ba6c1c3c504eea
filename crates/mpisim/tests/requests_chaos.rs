//! Chaos coverage for the nonblocking receive path: sequenced edges driven
//! through `RecvRequest::test` / `wait` / `wait_any` must mask duplication
//! and reordering exactly like the blocking `recv` path does — and, with
//! the reliable transport underneath, injected loss composed with both —
//! and the sender-side reorder hold-back slot must be flushed when a rank
//! returns.

use proptest::prelude::*;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_mpisim::{try_run, wait_any, RecvRequest, ReliableConfig, RunOptions};
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
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sequenced_requests_mask_duplication_and_reordering(
        seed in 0u64..1_000_000,
        n_msgs in 4usize..20,
        dup in 100u16..700,
        reorder in 100u16..700,
    ) {
        // The old `try_match` ignored sequence numbers: a duplicated
        // message was delivered twice and a held-back one out of order,
        // so the per-(src, tag) streams observed through RecvRequest
        // diverged from send order. The seq-aware matcher suppresses
        // stale duplicates and buffers early arrivals.
        const N_TAGS: u64 = 2;
        let plan = FaultPlan::new(seed).with_default(FaultSpec {
            duplicate_permille: dup,
            reorder_permille: reorder,
            ..FaultSpec::default()
        });
        let (results, _) = try_run(2, &chaos_opts(plan), move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..n_msgs {
                    ctx.send(1, i as u64 % N_TAGS, vec![i as f64]);
                }
                Ok(())
            } else {
                // One posted request per expected message, all outstanding
                // at once — the worst case for unsequenced matching.
                let mut reqs: Vec<RecvRequest> =
                    (0..n_msgs).map(|i| RecvRequest::post(0, i as u64 % N_TAGS)).collect();
                let mut seen: Vec<Vec<f64>> = vec![Vec::new(); N_TAGS as usize];
                while !reqs.is_empty() {
                    let i = wait_any(ctx, &mut reqs);
                    let req = reqs.remove(i);
                    let tag = req.tag;
                    let data = req.take().expect("wait_any returned a done request");
                    seen[tag as usize].push(data[0]);
                }
                // Per-(src, tag) delivery order must equal send order.
                for tag in 0..N_TAGS {
                    let sent: Vec<f64> = (0..n_msgs)
                        .filter(|i| *i as u64 % N_TAGS == tag)
                        .map(|i| i as f64)
                        .collect();
                    if seen[tag as usize] != sent {
                        return Err(format!(
                            "tag {tag}: got {:?}, sent {sent:?}",
                            seen[tag as usize]
                        ));
                    }
                }
                Ok(())
            }
        })
        .expect("benign faults must not wedge the nonblocking path");
        for r in results {
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }

    /// Loss composed with duplication and reordering, observed through the
    /// nonblocking request path. The `wait_any` polling loop must keep the
    /// sender's retransmission timers ticking (a `RecvRequest` never
    /// blocks in `recv_msg_timeout`, so the tick has to run from the
    /// nonblocking entry points), or a dropped message wedges the run.
    #[test]
    fn requests_mask_loss_composed_with_dup_and_reorder(
        seed in 0u64..1_000_000,
        n_msgs in 4usize..16,
        drop in 1u16..201,
        dup in 0u16..400,
        reorder in 0u16..400,
    ) {
        const N_TAGS: u64 = 2;
        let plan = FaultPlan::new(seed).with_default(FaultSpec {
            drop_permille: drop,
            duplicate_permille: dup,
            reorder_permille: reorder,
            ..FaultSpec::default()
        });
        let opts = RunOptions {
            reliable: Some(ReliableConfig {
                rto: Duration::from_millis(4),
                ..ReliableConfig::default()
            }),
            ..chaos_opts(plan)
        };
        let (results, volumes) = try_run(2, &opts, move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..n_msgs {
                    ctx.send(1, i as u64 % N_TAGS, vec![i as f64]);
                }
                Ok(())
            } else {
                let mut reqs: Vec<RecvRequest> =
                    (0..n_msgs).map(|i| RecvRequest::post(0, i as u64 % N_TAGS)).collect();
                let mut seen: Vec<Vec<f64>> = vec![Vec::new(); N_TAGS as usize];
                while !reqs.is_empty() {
                    let i = wait_any(ctx, &mut reqs);
                    let req = reqs.remove(i);
                    let tag = req.tag;
                    let data = req.take().expect("wait_any returned a done request");
                    seen[tag as usize].push(data[0]);
                }
                for tag in 0..N_TAGS {
                    let sent: Vec<f64> = (0..n_msgs)
                        .filter(|i| *i as u64 % N_TAGS == tag)
                        .map(|i| i as f64)
                        .collect();
                    if seen[tag as usize] != sent {
                        return Err(format!(
                            "tag {tag}: got {:?}, sent {sent:?}",
                            seen[tag as usize]
                        ));
                    }
                }
                Ok(())
            }
        })
        .expect("the reliable transport must mask loss on the nonblocking path");
        for r in results {
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        // Logical volumes are loss-independent: the receiver consumed
        // exactly the sent stream, all recovery traffic is accounted apart.
        prop_assert_eq!(volumes[1].msgs_received, n_msgs as u64);
        prop_assert_eq!(volumes[1].received, n_msgs as u64 * 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Every receive form on one sequenced edge, interleaved under
    /// duplication and reordering: `RecvRequest::wait`, `recv` and
    /// `wait_any` share one sequence counter per edge, so the stream stays
    /// in send order and no duplicate is delivered. A seq-blind form would
    /// deliver duplicates and leave the counter behind for the others.
    #[test]
    fn every_receive_form_masks_one_edge_under_dup_and_reorder(
        seed in 0u64..1_000_000,
        n_msgs in 4usize..20,
        dup in 100u16..700,
        reorder in 100u16..700,
    ) {
        let plan = FaultPlan::new(seed).with_default(FaultSpec {
            duplicate_permille: dup,
            reorder_permille: reorder,
            ..FaultSpec::default()
        });
        let (results, volumes) = try_run(2, &chaos_opts(plan), move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..n_msgs {
                    ctx.send(1, 9, vec![i as f64]);
                }
                Vec::new()
            } else {
                (0..n_msgs)
                    .map(|i| match i % 3 {
                        0 => RecvRequest::post(0, 9).wait(ctx)[0],
                        1 => ctx.recv(0, 9)[0],
                        _ => {
                            let mut reqs = [RecvRequest::post(0, 9)];
                            wait_any(ctx, &mut reqs);
                            let [req] = reqs;
                            req.take().expect("completed")[0]
                        }
                    })
                    .collect()
            }
        })
        .expect("benign faults must not wedge any receive form");
        let sent: Vec<f64> = (0..n_msgs).map(|i| i as f64).collect();
        prop_assert_eq!(&results[1], &sent);
        prop_assert_eq!(volumes[1].msgs_received, n_msgs as u64);
    }
}

#[test]
fn rank_epilogue_flushes_the_reorder_holdback_slot() {
    // With reorder_permille=1000 every masked send is parked in the
    // per-destination hold-back slot, displacing the previous one. After
    // the sender's last send one message is still held; if the runtime
    // did not flush it when the rank function returns, the receiver would
    // wait forever. This pins the epilogue `flush_held`.
    let plan = FaultPlan::new(3)
        .with_default(FaultSpec { reorder_permille: 1000, ..FaultSpec::default() });
    let opts = RunOptions {
        watchdog: Some(Duration::from_secs(5)),
        poll: Duration::from_millis(5),
        faults: Some(plan),
        telemetry: None,
        ..RunOptions::default()
    };
    let (results, _) = try_run(2, &opts, |ctx| {
        if ctx.rank() == 0 {
            for i in 0..3 {
                ctx.send(1, 4, vec![10.0 + i as f64]);
            }
            // Return immediately: no further send or blocking point on
            // this rank will flush the held message.
            Vec::new()
        } else {
            (0..3).map(|_| ctx.recv(0, 4)[0]).collect::<Vec<f64>>()
        }
    })
    .expect("the epilogue flush must release the last held message");
    assert_eq!(results[1], vec![10.0, 11.0, 12.0]);
}

#[test]
fn wait_any_leaves_unmatched_stash_intact() {
    // `wait_any` must not consume or reorder messages its request set does
    // not match: an unrelated tag that arrives first stays stashed and is
    // still receivable afterwards, in order.
    let (results, _) = pselinv_mpisim::run(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, vec![1.0]);
            ctx.send(1, 5, vec![2.0]);
            ctx.send(1, 7, vec![3.0]);
            Vec::new()
        } else {
            let mut reqs = vec![RecvRequest::post(0, 7)];
            let i = wait_any(ctx, &mut reqs);
            let got = reqs.remove(i).take().unwrap()[0];
            assert_eq!(got, 3.0);
            vec![ctx.recv(0, 5)[0], ctx.recv(0, 5)[0]]
        }
    });
    assert_eq!(results[1], vec![1.0, 2.0]);
}
