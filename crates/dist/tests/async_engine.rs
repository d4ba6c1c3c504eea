//! Acceptance tests for the phase-2 engine's window (`lookahead`).
//!
//! A wider window reorders *communication*, never *arithmetic*: for every
//! grid, tree scheme, window and benign fault schedule, the result panels
//! must be bit-identical to the window of one (the lock-step schedule, whose
//! own bits `golden.rs` pins) and the per-rank communication volumes
//! (bytes, message counts, copied bytes) exactly equal — the logical
//! communication pattern is unchanged, only the overlap differs.

use proptest::prelude::*;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_dist::{
    distributed_selinv, distributed_selinv_traced, factor_poles, try_batched_selinv,
    try_distributed_selinv, try_distributed_selinv_traced, BatchOptions, DistOptions, Layout,
};
use pselinv_factor::LdlFactor;
use pselinv_mpisim::{Grid2D, RankVolume, RunOptions};
use pselinv_order::etree::NONE;
use pselinv_order::nd::NdOptions;
use pselinv_order::supernodes::SupernodeOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
use pselinv_selinv::SelectedInverse;
use pselinv_sparse::gen;
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::collections::HashSet;
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

fn opts(scheme: TreeScheme, lookahead: usize) -> DistOptions {
    DistOptions { scheme, seed: 7, threads: 1, lookahead }
}

#[test]
fn async_engine_is_bit_identical_across_windows_and_schemes() {
    let f = small_factor();
    for grid in [Grid2D::new(2, 2), Grid2D::new(2, 3), Grid2D::new(3, 1)] {
        for scheme in [
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ] {
            let (one, one_vol) = distributed_selinv(f, grid, &opts(scheme, 1));
            for lookahead in [2usize, 4, usize::MAX] {
                let (wide, wide_vol) = distributed_selinv(f, grid, &opts(scheme, lookahead));
                let what = format!("{}x{} {scheme} lookahead={lookahead}", grid.pr, grid.pc);
                assert_bit_identical(&one, &wide, &what);
                assert_volumes_equal(&one_vol, &wide_vol, &what);
            }
        }
    }
}

#[test]
fn lookahead_zero_is_a_window_of_one() {
    // `lookahead: 0` is read through `DistOptions::window`; a window of
    // zero would never activate a supernode and hang both entry points.
    assert_eq!(opts(TreeScheme::Flat, 0).window(), 1);
    assert_eq!(opts(TreeScheme::Flat, 1).window(), 1);
    assert_eq!(opts(TreeScheme::Flat, 4).window(), 4);
    let f = small_factor();
    let grid = Grid2D::new(2, 2);
    let (one, one_vol) = distributed_selinv(f, grid, &opts(TreeScheme::ShiftedBinary, 1));
    let (zero, zero_vol) = distributed_selinv(f, grid, &opts(TreeScheme::ShiftedBinary, 0));
    assert_bit_identical(&one, &zero, "lookahead 0 vs 1");
    assert_volumes_equal(&one_vol, &zero_vol, "lookahead 0 vs 1");

    let w = gen::grid_laplacian_2d(7, 7);
    let poles = factor_poles(&w.matrix, &[0.37, 2.8], f.symbolic.clone()).unwrap();
    let batch = |lookahead| {
        let o = BatchOptions { dist: opts(TreeScheme::ShiftedBinary, lookahead), max_inflight: 2 };
        try_batched_selinv(&poles, grid, &o, &RunOptions::default()).expect("a batch completes")
    };
    let (one, zero) = (batch(1), batch(0));
    for q in 0..poles.len() {
        assert_bit_identical(&one.inverses[q], &zero.inverses[q], &format!("batched pole {q}"));
        assert_volumes_equal(&one.query_volumes[q], &zero.query_volumes[q], &format!("pole {q}"));
    }
    assert_volumes_equal(&one.volumes, &zero.volumes, "batched lookahead 0 vs 1");
}

#[test]
fn async_volumes_match_structural_replay() {
    // A wide window must preserve the *logical* communication exactly: its
    // measured byte counters still equal the structure-only replay used for
    // the paper tables.
    let f = small_factor();
    let grid = Grid2D::new(2, 3);
    let o = opts(TreeScheme::ShiftedBinary, usize::MAX);
    let (_, volumes) = distributed_selinv(f, grid, &o);
    let layout = Layout::new(f.symbolic.clone(), grid);
    let rep = pselinv_dist::replay_volumes(&layout, TreeBuilder::new(o.scheme, o.seed));
    let measured_total: u64 = volumes.iter().map(|v| v.sent).sum();
    assert_eq!(measured_total, rep.total_bytes());
}

#[test]
fn async_engine_overlaps_collectives() {
    // The whole point of the window: with lookahead > 1 at least one rank
    // must have had more than one supernode outstanding at once, and a
    // window of one never exceeds one.
    let f = small_factor();
    let grid = Grid2D::new(2, 2);
    let (_, _, one_trace) =
        distributed_selinv_traced(f, grid, &opts(TreeScheme::ShiftedBinary, 1), "window-1");
    let (_, _, wide_trace) =
        distributed_selinv_traced(f, grid, &opts(TreeScheme::ShiftedBinary, 4), "window-4");
    let hwm = |t: &pselinv_trace::Trace| {
        t.ranks.iter().map(|r| r.metrics.outstanding_hwm).max().unwrap_or(0)
    };
    let h1 = hwm(&one_trace);
    assert!(h1 <= 1, "a window of one overlapped supernodes: high-water {h1}");
    let h = hwm(&wide_trace);
    assert!(h > 1, "lookahead=4 should overlap supernodes, got high-water {h}");
    // The window counts GEMM stages not yet run; the tail of reducing tasks
    // behind it is not in the count.
    assert!(h <= 4, "lookahead=4 held more than four supernodes in its window: {h}");
}

/// Each traced span's `(event index, phase, key)` on one rank, in the order
/// the spans closed; for a single query the key is the supernode.
fn keyed_spans(rank: &pselinv_trace::RankTrace) -> Vec<(usize, pselinv_trace::CollKind, u64)> {
    use pselinv_trace::EventKind;
    rank.events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            EventKind::Span { coll, key, .. } | EventKind::Wait { coll, key, .. } => {
                Some((i, coll, key))
            }
            _ => None,
        })
        .collect()
}

/// The reduction phases: a task reaches them only after its GEMM stage.
const REDUCES: [pselinv_trace::CollKind; 2] =
    [pselinv_trace::CollKind::RowReduce, pselinv_trace::CollKind::DiagReduce];

/// Each supernode's etree depth, roots at 0 (the etree is postordered, so
/// one descending pass sees every parent before its children).
fn etree_depths(sf: &pselinv_order::SymbolicFactor) -> Vec<usize> {
    let mut depth = vec![0usize; sf.num_supernodes()];
    for s in (0..sf.num_supernodes()).rev() {
        if sf.sn_parent[s] != NONE {
            depth[s] = depth[sf.sn_parent[s]] + 1;
        }
    }
    depth
}

#[test]
fn a_window_of_one_sends_the_next_supernodes_u_hat_ahead() {
    // The Û horizon: a window of one still runs one GEMM stage at a time,
    // in descent order (`async_engine_overlaps_collectives`), but the next
    // supernode's transposes and Col-Bcasts start while the current one
    // computes. On every rank that takes part in both `k` and `k - 1`, the
    // first Transpose or ColBcast span of `k - 1` is recorded before the
    // last event of `k` — where `k` computes on the rank: a rank whose task
    // ends with its Û has nothing of `k` left to overlap — and the first
    // reduction span of `k - 1`, which opens as its GEMM stage ends, after
    // `k`'s first one. `k`'s reductions may still be running then: they
    // are the tail, not the window.
    use pselinv_trace::CollKind;
    let f = small_factor();
    let grid = Grid2D::new(2, 2);
    let (_, _, trace) =
        distributed_selinv_traced(f, grid, &opts(TreeScheme::ShiftedBinary, 1), "window-1");
    let (mut pairs, mut horizons) = (0, 0);
    for (r, rank) in trace.ranks.iter().enumerate() {
        let keyed = keyed_spans(rank);
        let first = |key: u64, kinds: &[CollKind]| {
            keyed.iter().filter(|e| e.2 == key && kinds.contains(&e.1)).map(|e| e.0).min()
        };
        for k in 1..f.symbolic.num_supernodes() as u64 {
            let Some(last_k) = keyed.iter().filter(|e| e.2 == k).map(|e| e.0).max() else {
                continue;
            };
            let u_hat = first(k - 1, &[CollKind::Transpose, CollKind::ColBcast]);
            let Some(first_reduce_k) = first(k, &REDUCES) else { continue };
            if let Some(first_u_hat) = u_hat {
                assert!(
                    first_u_hat < last_k,
                    "rank {r}: supernode {}'s Û started only after supernode {k} finished",
                    k - 1
                );
                pairs += 1;
            }
            if let Some(first_reduce) = first(k - 1, &REDUCES) {
                assert!(
                    first_reduce > first_reduce_k,
                    "rank {r}: supernode {} computed before supernode {k}",
                    k - 1
                );
            }
        }
        // The horizon is one window: the supernode two places after `k` in
        // this rank's activation order (its first Transpose span) is
        // activated only once `k`'s GEMM stage has run.
        let mut seen = HashSet::new();
        let activated: Vec<u64> = keyed
            .iter()
            .filter(|e| e.1 == CollKind::Transpose)
            .map(|e| e.2)
            .filter(|&k| seen.insert(k))
            .collect();
        for three in activated.windows(3) {
            let (k, later) = (three[0], three[2]);
            if let (Some(reduce), Some(activation)) =
                (first(k, &REDUCES), first(later, &[CollKind::Transpose]))
            {
                assert!(
                    activation > reduce,
                    "rank {r}: supernode {later} was activated before supernode {k} computed"
                );
                horizons += 1;
            }
        }
    }
    assert!(pairs > 0, "no rank takes part in two consecutive supernodes");
    assert!(horizons > 0, "no rank takes part in three supernodes");
}

#[test]
fn a_supernode_leaves_the_window_once_its_gemm_has_run() {
    // The window bounds GEMM stages, not reductions: a task whose GEMM has
    // run joins the tail and frees its seat. So at lookahead 4 some rank
    // starts a supernode's reduction while four or more supernodes earlier
    // in the descent order (etree depth, then descending index) are still
    // reducing — a window that held each task to its last reduction would
    // hold at most three of them beside it. Every message spends 300 µs in
    // flight, so a reduction outlasts the GEMMs behind it, as on a network.
    let w = gen::grid_laplacian_2d(23, 23);
    let nd = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, NdOptions::default()),
        ..AnalyzeOptions::default()
    };
    let sf = Arc::new(analyze(&w.matrix.pattern(), &nd));
    let depth = etree_depths(&sf);
    let before = |a: usize, b: usize| depth[a] < depth[b] || (depth[a] == depth[b] && a > b);
    let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
    let latency =
        FaultPlan::new(7).with_default(FaultSpec { delay_us: 300, ..FaultSpec::default() });
    let run = RunOptions { faults: Some(latency), ..RunOptions::default() };
    let (_, _, trace) = try_distributed_selinv_traced(
        &f,
        Grid2D::new(2, 2),
        &opts(TreeScheme::ShiftedBinary, 4),
        &run,
        "window-4",
    )
    .expect("a latency-only run completes");
    let mut most = 0;
    for rank in &trace.ranks {
        let keyed = keyed_spans(rank);
        // Each supernode's first and last reduction span on this rank.
        let mut reducing = vec![None::<(usize, usize)>; sf.num_supernodes()];
        for &(i, coll, key) in &keyed {
            if REDUCES.contains(&coll) {
                let r = reducing[key as usize].get_or_insert((i, i));
                r.1 = i;
            }
        }
        for (s, rs) in reducing.iter().enumerate() {
            let Some((start, _)) = *rs else { continue };
            let earlier = reducing
                .iter()
                .enumerate()
                .filter(|&(e, re)| {
                    before(e, s) && re.is_some_and(|(first, last)| first < start && last > start)
                })
                .count();
            most = most.max(earlier);
        }
    }
    assert!(most >= 4, "at most {most} earlier supernodes were reducing when one started");
}

#[test]
fn a_wide_window_activates_supernodes_by_etree_depth() {
    // A supernode waits only on its etree ancestors, so above a window of
    // one every rank activates supernodes by etree depth, roots first: a
    // window then holds supernodes of one depth, which never wait on each
    // other, instead of a parent→child chain. Activation fires a
    // supernode's transpose sends inside a Transpose span keyed to it, the
    // first span of that kind and key on the rank.
    use pselinv_trace::{CollKind, EventKind};
    let w = gen::grid_laplacian_2d(15, 15);
    let nd = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, NdOptions::default()),
        ..AnalyzeOptions::default()
    };
    let sf = Arc::new(analyze(&w.matrix.pattern(), &nd));
    assert!(sf.sn_children().iter().any(|c| c.len() > 1), "the etree does not branch");
    let depth = etree_depths(&sf);
    let f = pselinv_factor::factorize(&w.matrix, sf).unwrap();
    let (_, _, trace) = distributed_selinv_traced(
        &f,
        Grid2D::new(2, 2),
        &opts(TreeScheme::ShiftedBinary, 4),
        "window-4",
    );
    let mut deeper = 0;
    for (r, rank) in trace.ranks.iter().enumerate() {
        let mut seen = HashSet::new();
        let activated: Vec<usize> = rank
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Span { coll: CollKind::Transpose, key, .. } => Some(key as usize),
                _ => None,
            })
            .filter(|&k| seen.insert(k))
            .collect();
        assert!(activated.len() > 1, "rank {r} activated {} supernodes", activated.len());
        for pair in activated.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                depth[a] <= depth[b],
                "rank {r}: supernode {a} (depth {}) activated before {b} (depth {})",
                depth[a],
                depth[b]
            );
            deeper += usize::from(depth[a] < depth[b]);
        }
    }
    assert!(deeper > 0, "no rank went down the etree");
}

#[test]
fn stages_are_woken_not_swept() {
    // The loop tests a receive when its message has arrived, not on every
    // pass: each delivered message costs about one match attempt, and each
    // activation at most one more, at any window. Every message spends
    // 300 µs in flight and some are duplicated or reordered, so stages
    // wait long and in arbitrary order; a loop that polled every active
    // task per pass would make many times more attempts than messages.
    use pselinv_trace::{CollKind, EventKind};
    let w = gen::grid_laplacian_2d(24, 24);
    let narrow = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, NdOptions::default()),
        supernode: SupernodeOptions { max_width: 4, relax_small: 2, relax_zero_fraction: 0.3 },
        ..AnalyzeOptions::default()
    };
    let sf = Arc::new(analyze(&w.matrix.pattern(), &narrow));
    let f = pselinv_factor::factorize(&w.matrix, sf).unwrap();
    let grid = Grid2D::new(2, 2);
    let (one, one_vol) = distributed_selinv(&f, grid, &opts(TreeScheme::ShiftedBinary, 1));
    let plan = FaultPlan::new(11).with_default(FaultSpec {
        delay_us: 300,
        duplicate_permille: 100,
        reorder_permille: 100,
        ..FaultSpec::default()
    });
    for lookahead in [1usize, 4, usize::MAX] {
        let what = format!("lookahead={lookahead}");
        let (inv, vol, trace) = try_distributed_selinv_traced(
            &f,
            grid,
            &opts(TreeScheme::ShiftedBinary, lookahead),
            &chaos_opts(plan.clone()),
            &what,
        )
        .expect("a crash-free fault plan completes");
        assert_bit_identical(&one, &inv, &what);
        assert_volumes_equal(&one_vol, &vol, &what);
        for (r, rank) in trace.ranks.iter().enumerate() {
            // Activation opens a Transpose span keyed to the supernode.
            let activations: HashSet<u64> = rank
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Span { coll: CollKind::Transpose, key, .. } => Some(key),
                    _ => None,
                })
                .collect();
            let (calls, received) = (rank.metrics.match_calls, vol[r].msgs_received);
            let bound = 1.5 * received as f64 + activations.len() as f64;
            assert!(received > 0, "{what}: rank {r} received nothing");
            assert!(
                calls as f64 <= bound,
                "{what}: rank {r} made {calls} match attempts for {received} messages \
                 and {} activations",
                activations.len()
            );
        }
    }
}

#[test]
fn async_engine_multithreaded_gemms_stay_bit_identical() {
    let f = small_factor();
    let grid = Grid2D::new(2, 2);
    let mk = |threads, lookahead| DistOptions {
        scheme: TreeScheme::ShiftedBinary,
        seed: 7,
        threads,
        lookahead,
    };
    let (one, one_vol) = distributed_selinv(f, grid, &mk(1, 1));
    for threads in [2, 4] {
        let (wide, wide_vol) = distributed_selinv(f, grid, &mk(threads, 4));
        let what = format!("threads={threads} lookahead=4");
        assert_bit_identical(&one, &wide, &what);
        assert_volumes_equal(&one_vol, &wide_vol, &what);
    }
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
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn async_engine_survives_chaos_bit_identically(
        seed in 0u64..1_000_000,
        scheme_i in 0usize..4,
        la_i in 0usize..4,
        grid_i in 0usize..2,
        delay in 0u64..40,
        jitter in 0u64..40,
        dup in 0u16..400,
        reorder in 0u16..400,
    ) {
        let scheme = [
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ][scheme_i];
        let lookahead = [1usize, 2, 4, usize::MAX][la_i];
        let grid = [Grid2D::new(2, 2), Grid2D::new(2, 3)][grid_i];
        let f = small_factor();

        let (baseline, base_vol) = distributed_selinv(f, grid, &opts(scheme, 1));

        let plan = FaultPlan::new(seed ^ 0xa5a5_5a5a).with_default(FaultSpec {
            delay_us: delay,
            jitter_us: jitter,
            duplicate_permille: dup,
            reorder_permille: reorder,
            ..FaultSpec::default()
        });
        let (chaotic, vol) =
            try_distributed_selinv(f, grid, &opts(scheme, lookahead), &chaos_opts(plan))
                .expect("a crash-free fault plan must complete");

        let sf = &baseline.symbolic;
        for s in 0..sf.num_supernodes() {
            for j in 0..sf.width(s) {
                for i in 0..sf.width(s) {
                    prop_assert_eq!(
                        baseline.panels[s].diag[(i, j)].to_bits(),
                        chaotic.panels[s].diag[(i, j)].to_bits(),
                        "diag {} ({},{})", s, i, j
                    );
                }
                for i in 0..sf.rows_of(s).len() {
                    prop_assert_eq!(
                        baseline.panels[s].below[(i, j)].to_bits(),
                        chaotic.panels[s].below[(i, j)].to_bits(),
                        "below {} ({},{})", s, i, j
                    );
                }
            }
        }
        // Suppressed duplicates are never accounted, so even the chaos
        // run's volumes equal the fault-free window-of-one ones exactly.
        for r in 0..vol.len() {
            prop_assert_eq!(vol[r], base_vol[r], "rank {} volume diverged", r);
        }
    }
}
