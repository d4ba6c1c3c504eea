//! Failure-path integration tests: deadlocks become diagnostics instead of
//! hangs, a panicking rank unwinds the whole run with its original message,
//! and injected crashes/stalls surface as typed errors.

use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_mpisim::collectives::{tree_bcast, tree_reduce};
use pselinv_mpisim::{run, try_run, RunError, RunOptions};
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::time::{Duration, Instant};

fn short_watchdog() -> RunOptions {
    RunOptions {
        watchdog: Some(Duration::from_millis(800)),
        poll: Duration::from_millis(10),
        faults: None,
        telemetry: None,
        ..RunOptions::default()
    }
}

#[test]
fn ring_deadlock_is_diagnosed_within_five_seconds() {
    // Classic 4-rank receive ring: r waits on r+1, nobody ever sends.
    let t0 = Instant::now();
    let err = try_run(4, &short_watchdog(), |ctx| {
        let me = ctx.rank();
        ctx.recv((me + 1) % 4, 7);
    })
    .expect_err("a receive ring must stall");
    assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    let RunError::Stalled(diag) = err else {
        panic!("expected a stall diagnostic, got: {err}");
    };
    let text = diag.to_string();
    // The diagnostic names every blocked (rank, src, tag) triple...
    for r in 0..4 {
        let triple = format!("rank {} blocked on recv(src={}, tag=7)", r, (r + 1) % 4);
        assert!(text.contains(&triple), "missing {triple:?} in:\n{text}");
    }
    // ...and calls out the wait-for cycle explicitly.
    assert!(text.contains("deadlock cycle:"), "no cycle line in:\n{text}");
    assert!(text.contains("no progress for"), "no stall duration in:\n{text}");
}

#[test]
fn a_short_run_ends_when_its_ranks_do() {
    // The ranks of an 8-rank, 32 KiB Flat broadcast can all finish before
    // the watchdog first waits, or while it checks. The run must end then,
    // not one `poll` (25 ms by default) later, when the watchdog would
    // next look.
    let p = 8;
    let tree = TreeBuilder::new(TreeScheme::Flat, 1).build(0, &(1..p).collect::<Vec<_>>(), 9);
    let mut took: Vec<Duration> = (0..40)
        .map(|_| {
            let t0 = Instant::now();
            let (lens, _) = run(p, |ctx| {
                let data = (ctx.rank() == 0).then(|| vec![1.0f64; 4096]);
                tree_bcast(ctx, &tree, 0, data).len()
            });
            assert_eq!(lens, vec![4096; p]);
            t0.elapsed()
        })
        .collect();
    took.sort();
    let poll = RunOptions::default().poll;
    assert!(took[20] < Duration::from_millis(5), "median {:?} of {took:?}", took[20]);
    assert!(took[36] < poll, "four runs waited out a poll: {took:?}");
}

#[test]
fn partial_deadlock_reports_finished_ranks() {
    // Ranks 2 and 3 finish immediately; 0 and 1 wait on each other. The
    // cycle detector must skip the finished ranks and still find 0 <-> 1.
    let err = try_run(4, &short_watchdog(), |ctx| match ctx.rank() {
        0 => ctx.recv(1, 3).len(),
        1 => ctx.recv(0, 4).len(),
        _ => 0,
    })
    .expect_err("ranks 0/1 must stall");
    let RunError::Stalled(diag) = err else {
        panic!("expected a stall diagnostic, got: {err}");
    };
    let text = diag.to_string();
    assert!(text.contains("rank 0 blocked on recv(src=1, tag=3)"), "{text}");
    assert!(text.contains("rank 1 blocked on recv(src=0, tag=4)"), "{text}");
    assert!(text.contains("finished ranks: 2, 3"), "{text}");
}

#[test]
fn stall_diagnostic_lists_blocked_and_finished_stashes() {
    // Ranks 0 and 1 wait on each other while rank 0 holds a stray tag-99
    // message from rank 2 in its stash. Rank 2 takes tag 6 from rank 0 and
    // finishes with the tag-5 message it never asked for: a message
    // stranded at a finished rank must show too.
    let err = try_run(3, &short_watchdog(), |ctx| match ctx.rank() {
        0 => {
            ctx.send(2, 5, vec![5.0]);
            ctx.send(2, 6, vec![6.0]);
            ctx.recv(1, 3).len()
        }
        1 => ctx.recv(0, 4).len(),
        _ => {
            ctx.send(0, 99, vec![9.0]);
            ctx.recv(0, 6).len()
        }
    })
    .expect_err("ranks 0/1 must stall");
    let RunError::Stalled(diag) = err else {
        panic!("expected a stall diagnostic, got: {err}");
    };
    assert_eq!(diag.stashes, vec![(0, vec![(2, 99)]), (2, vec![(0, 5)])], "{diag}");
    let text = diag.to_string();
    assert!(text.contains("rank 0 stash: [(src=2, tag=99)]"), "{text}");
    assert!(text.contains("rank 2 stash: [(src=0, tag=5)]"), "{text}");
}

#[test]
fn rank_panic_unwinds_siblings_with_original_message() {
    // Rank 2 panics while every other rank is parked in a blocking receive
    // that would otherwise never complete. The run must come down with the
    // original message, not deadlock and not report a watchdog stall.
    let err = try_run(
        4,
        // Watchdog disabled on purpose: propagation must not depend on it.
        &RunOptions {
            watchdog: None,
            poll: Duration::from_millis(10),
            faults: None,
            telemetry: None,
            ..RunOptions::default()
        },
        |ctx| {
            if ctx.rank() == 2 {
                panic!("numerical factorization failed on rank 2");
            }
            ctx.recv(2, 0);
        },
    )
    .expect_err("the run must fail");
    let RunError::RankPanic { rank, message } = err else {
        panic!("expected a rank panic, got: {err}");
    };
    assert_eq!(rank, 2);
    assert!(message.contains("numerical factorization failed on rank 2"), "{message}");
}

#[test]
fn collective_shape_mismatch_propagates_through_try_run() {
    let receivers: Vec<usize> = (1..4).collect();
    let tree = TreeBuilder::new(TreeScheme::Binary, 0).build(0, &receivers, 0);
    let tree = &tree;
    let err = try_run(4, &short_watchdog(), move |ctx| {
        // Rank 3 contributes the wrong length; its parent's assert fires and
        // the remaining ranks are unwound instead of waiting forever.
        let len = if ctx.rank() == 3 { 2 } else { 4 };
        tree_reduce(ctx, tree, 1, vec![1.0; len])
    })
    .expect_err("mismatched reduction must fail");
    let RunError::RankPanic { message, .. } = err else {
        panic!("expected a rank panic, got: {err}");
    };
    assert!(message.contains("reduction contributions must have equal length"), "{message}");
}

#[test]
#[should_panic(expected = "reduction contributions must have equal length")]
fn run_repanics_with_the_original_message() {
    let receivers: Vec<usize> = (1..4).collect();
    let tree = TreeBuilder::new(TreeScheme::Flat, 0).build(0, &receivers, 0);
    let tree = &tree;
    pselinv_mpisim::run(4, move |ctx| {
        let len = if ctx.rank() == 1 { 3 } else { 5 };
        tree_reduce(ctx, tree, 1, vec![0.0; len])
    });
}

#[test]
fn injected_crash_surfaces_as_rank_panic() {
    let plan = FaultPlan::new(9)
        .with_rank(1, FaultSpec { crash_after_ops: Some(2), ..FaultSpec::default() });
    let opts = RunOptions {
        watchdog: Some(Duration::from_secs(5)),
        poll: Duration::from_millis(10),
        faults: Some(plan),
        telemetry: None,
        ..RunOptions::default()
    };
    let err = try_run(3, &opts, |ctx| {
        let me = ctx.rank();
        // Everyone chats with rank 1 so its op counter advances.
        if me == 1 {
            for src in [0, 2, 0, 2] {
                ctx.recv(src, 0);
            }
        } else {
            for _ in 0..2 {
                ctx.send(1, 0, vec![me as f64]);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    })
    .expect_err("rank 1 is planned to crash");
    let RunError::RankPanic { rank, message } = err else {
        panic!("expected a rank panic, got: {err}");
    };
    assert_eq!(rank, 1);
    assert!(message.contains("chaos: injected crash"), "{message}");
}

#[test]
fn injected_stall_trips_the_watchdog() {
    let plan = FaultPlan::new(4)
        .with_rank(2, FaultSpec { stall_after_ops: Some(0), ..FaultSpec::default() });
    let opts = RunOptions {
        watchdog: Some(Duration::from_millis(600)),
        poll: Duration::from_millis(10),
        faults: Some(plan),
        telemetry: None,
        ..RunOptions::default()
    };
    let err = try_run(4, &opts, |ctx| {
        let me = ctx.rank();
        if me == 2 {
            // First op trips the planned stall: this send never happens.
            ctx.send(0, 1, vec![1.0]);
        } else if me == 0 {
            ctx.recv(2, 1);
        }
    })
    .expect_err("the stalled rank must trip the watchdog");
    let RunError::Stalled(diag) = err else {
        panic!("expected a stall diagnostic, got: {err}");
    };
    let text = diag.to_string();
    assert!(text.contains("rank 0 blocked on recv(src=2, tag=1)"), "{text}");
}

#[test]
fn recv_timeout_escapes_a_missing_sender() {
    // The bounded receive is the application-level escape hatch: no
    // watchdog, no panic — the rank just gets the timeout back.
    let (results, _) = try_run(
        2,
        &RunOptions {
            watchdog: None,
            poll: Duration::from_millis(5),
            faults: None,
            telemetry: None,
            ..RunOptions::default()
        },
        |ctx| {
            if ctx.rank() == 0 {
                let e = ctx
                    .recv_timeout(1, 9, Duration::from_millis(120))
                    .expect_err("nobody sends on tag 9");
                e.to_string()
            } else {
                String::new()
            }
        },
    )
    .expect("both ranks finish cleanly");
    assert!(results[0].contains("timed out"), "{}", results[0]);
    assert!(results[0].contains("src=1"), "{}", results[0]);
}

#[test]
fn wait_any_ring_deadlock_is_diagnosed_not_livelocked() {
    // Every rank parks in `wait_any` on a request ring nobody feeds. The
    // old implementation popped the stash and re-fronted rejected messages
    // in a hot loop, so it never registered as blocked: the watchdog saw
    // four busy ranks and the run hung forever at 100% CPU. The fixed
    // `wait_any` blocks on the inbox and reports its wait-for edge, so the
    // watchdog names the cycle and kills the run promptly.
    use pselinv_mpisim::{wait_any, RecvRequest};
    let t0 = Instant::now();
    let err = try_run(4, &short_watchdog(), |ctx| {
        let me = ctx.rank();
        let mut reqs = vec![RecvRequest::post((me + 1) % 4, 7)];
        wait_any(ctx, &mut reqs);
    })
    .expect_err("a wait_any receive ring must stall");
    assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    let RunError::Stalled(diag) = err else {
        panic!("expected a stall diagnostic, got: {err}");
    };
    let text = diag.to_string();
    for r in 0..4 {
        let triple = format!("rank {} blocked on recv(src={}, tag=7)", r, (r + 1) % 4);
        assert!(text.contains(&triple), "missing {triple:?} in:\n{text}");
    }
    assert!(text.contains("deadlock cycle:"), "no cycle line in:\n{text}");
}

#[test]
fn wait_any_mixed_sources_reports_wildcard_block() {
    // With requests on different sources there is no single wait-for edge;
    // the rank must still register as blocked (as a wildcard) rather than
    // spin invisibly.
    use pselinv_mpisim::{wait_any, RecvRequest};
    let err = try_run(3, &short_watchdog(), |ctx| {
        if ctx.rank() == 0 {
            let mut reqs = vec![RecvRequest::post(1, 1), RecvRequest::post(2, 2)];
            wait_any(ctx, &mut reqs);
        }
    })
    .expect_err("nobody sends; rank 0 must stall");
    let RunError::Stalled(diag) = err else {
        panic!("expected a stall diagnostic, got: {err}");
    };
    let text = diag.to_string();
    assert!(text.contains("rank 0 blocked on recv(any)"), "{text}");
}
