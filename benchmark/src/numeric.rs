//! The three numeric workloads — `fem3d-kernel`, `lap2d-msgs`,
//! `poles-latency` — share one driver: generate, analyze, factorize; invert
//! on the thread-per-rank runtime, timed; check against the sequential
//! oracle; then the simulated-clock pass on the same symbolic structure.
//! They differ only in the [`Spec`] below, chosen so each stresses a
//! different layer (see the `why` of each workload in `names.rs`).

use crate::check::{self, ensure, Ledger};
use crate::harness::{end_to_end, measure, Args, BenchNotes, RepPlan, Report};
use crate::micro;
use crate::simclock::{self, BothSchemes, Extras};
use crate::spans::Spans;
use crate::yardstick::Yardstick;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_dist::{
    factor_poles, try_batched_selinv, try_batched_selinv_traced, try_distributed_selinv,
    try_distributed_selinv_traced, BatchOptions, DistOptions, Layout,
};
use pselinv_factor::{factorize, LdlFactor};
use pselinv_mpisim::{Grid2D, RankVolume, RunOptions};
use pselinv_order::nd::NdOptions;
use pselinv_order::supernodes::SupernodeOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice, SymbolicFactor};
use pselinv_profile::{HotspotReport, WaitReport};
use pselinv_selinv::{selinv_ldlt, SelectedInverse};
use pselinv_sparse::gen;
use pselinv_trace::{CollKind, Trace};
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::sync::Arc;
use std::time::Duration;

/// The P = 256 point of Fig 9: where every numeric workload's symbolic
/// structure is replayed on the simulated clock.
const SIM_GRID: (usize, usize) = (16, 16);

/// A pole batch: many shifted operators through one run.
pub struct Poles {
    pub count: usize,
    pub max_inflight: usize,
    /// Modelled in-flight latency of every message (µs).
    pub delay_us: u64,
}

pub struct Spec {
    pub name: &'static str,
    pub generate: fn(u64) -> gen::Workload,
    /// `None`: the `order` crate's default supernode formation.
    pub supernodes: Option<SupernodeOptions>,
    pub grid: (usize, usize),
    pub threads: usize,
    pub lookahead: usize,
    pub poles: Option<Poles>,
    /// Floor on timed repetitions in the end-to-end pass.
    pub min_reps: usize,
    /// See [`RepPlan::wall_tracks_host`]: false where the run waits out
    /// modelled latency instead of computing.
    pub wall_tracks_host: bool,
    pub not_applicable: &'static [&'static str],
}

pub const FEM3D_KERNEL: Spec = Spec {
    name: "fem3d-kernel",
    generate: |seed| gen::fem_3d(18, 18, 18, 3, seed),
    supernodes: None,
    grid: (1, 1),
    threads: 2,
    lookahead: 1,
    poles: None,
    min_reps: 7,
    wall_tracks_host: true,
    not_applicable: &["dist.batch_speedup_x"],
};

pub const LAP2D_MSGS: Spec = Spec {
    name: "lap2d-msgs",
    generate: |_| gen::grid_laplacian_2d(200, 200),
    supernodes: Some(SupernodeOptions { max_width: 8, relax_small: 2, relax_zero_fraction: 0.3 }),
    grid: (2, 2),
    threads: 1,
    lookahead: 1,
    poles: None,
    min_reps: 12,
    wall_tracks_host: true,
    not_applicable: &["dist.batch_speedup_x"],
};

pub const POLES_LATENCY: Spec = Spec {
    name: "poles-latency",
    generate: |_| gen::grid_laplacian_2d(120, 120),
    supernodes: None,
    grid: (2, 2),
    threads: 1,
    lookahead: 4,
    poles: Some(Poles { count: 8, max_inflight: 2, delay_us: 1000 }),
    min_reps: 5,
    wall_tracks_host: false,
    not_applicable: &[],
};

impl Spec {
    fn grid(&self) -> Grid2D {
        Grid2D::new(self.grid.0, self.grid.1)
    }

    fn dist(&self, seed: u64) -> DistOptions {
        DistOptions { seed, threads: self.threads, lookahead: self.lookahead, ..Default::default() }
    }

    /// Shifts spread over the Laplacian's spectrum (0, 8), none on an
    /// eigenvalue: every pole is indefinite, as in the real pole expansion.
    fn shifts(&self) -> Vec<f64> {
        let n = self.poles.as_ref().map_or(0, |p| p.count);
        (0..n).map(|i| 0.37 + 7.3 * (i as f64 + 0.5) / n as f64).collect()
    }
}

/// A generated, analyzed and factorized input, with the seconds each
/// set-up stage took.
struct Input {
    symbolic: Arc<SymbolicFactor>,
    /// One factor, or one per pole.
    factors: Vec<LdlFactor>,
    gen_s: f64,
    analyze_s: f64,
    factorize_s: f64,
}

fn setup(spec: &Spec, seed: u64, spans: &mut Spans) -> Input {
    let root = spans.enter("bench.setup");
    let (w, gen_s) = spans.time("sparse.gen", || (spec.generate)(seed));
    let opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, NdOptions::default()),
        supernode: spec.supernodes.unwrap_or_default(),
        ..Default::default()
    };
    let (symbolic, analyze_s) =
        spans.time("order.analyze", || Arc::new(analyze(&w.matrix.pattern(), &opts)));
    let (factors, factorize_s) = spans.time("factor.factorize", || {
        if spec.poles.is_some() {
            factor_poles(&w.matrix, &spec.shifts(), symbolic.clone())
                .expect("no shift sits on an eigenvalue")
        } else {
            vec![factorize(&w.matrix, symbolic.clone()).expect("the generated matrix is SPD")]
        }
    });
    spans.exit(root);
    Input { symbolic, factors, gen_s, analyze_s, factorize_s }
}

/// What one inversion returns: one inverse per factor, the per-rank
/// volumes of the whole run and, for a batch, per-pole logical volumes.
struct Output {
    inverses: Vec<SelectedInverse>,
    volumes: Vec<RankVolume>,
    query_volumes: Vec<Vec<RankVolume>>,
}

/// The timed operation. `traced` selects the `_traced` entry point of the
/// same call; nothing else differs.
fn invert(
    spec: &Spec,
    input: &Input,
    seed: u64,
    traced: bool,
) -> Result<(Output, Option<Trace>), String> {
    let (grid, dist) = (spec.grid(), spec.dist(seed));
    let Some(poles) = &spec.poles else {
        let f = &input.factors[0];
        let run = run_options();
        let (inverse, volumes, trace) = if traced {
            let (i, v, t) = try_distributed_selinv_traced(f, grid, &dist, &run, spec.name)
                .map_err(|e| e.to_string())?;
            (i, v, Some(t))
        } else {
            let (i, v) = try_distributed_selinv(f, grid, &dist, &run).map_err(|e| e.to_string())?;
            (i, v, None)
        };
        return Ok((Output { inverses: vec![inverse], volumes, query_volumes: vec![] }, trace));
    };
    let batch = BatchOptions { dist, max_inflight: poles.max_inflight };
    let run = latency_model(seed, poles.delay_us);
    let (out, trace) = if traced {
        let (r, t) = try_batched_selinv_traced(&input.factors, grid, &batch, &run, spec.name)
            .map_err(|e| e.to_string())?;
        (r, Some(t))
    } else {
        (try_batched_selinv(&input.factors, grid, &batch, &run).map_err(|e| e.to_string())?, None)
    };
    let output =
        Output { inverses: out.inverses, volumes: out.volumes, query_volumes: out.query_volumes };
    Ok((output, trace))
}

/// The run options of every `mpisim` run the benchmark starts: the crate's
/// defaults, with the watchdog's poll raised from 25 ms to 250 ms.
///
/// The watchdog's fast path declares a deadlock when it sees the same
/// wait-for cycle among the ranks' *blocked flags* on three polls without
/// progress — 75 ms at the default. On this host a vCPU can be held back
/// that long: a rank whose message has already arrived, but whose thread
/// has not run yet, still reads as blocked, and about one lap2d-msgs run in
/// sixty was aborted as "deadlock cycle: 1 -> 2 -> 3 -> 1" (README,
/// "Findings"). `poll` is read only by time-outs and the monitor, never on
/// the path of a message that arrives, so the measured work is unchanged;
/// a real deadlock is still caught, after 750 ms.
pub fn run_options() -> RunOptions {
    RunOptions { poll: Duration::from_millis(250), ..Default::default() }
}

/// Every message spends `delay_us` in flight (on the sender's courier, not
/// in a sender-side sleep), no other fault.
fn latency_model(seed: u64, delay_us: u64) -> RunOptions {
    let spec = FaultSpec { delay_us, ..Default::default() };
    RunOptions { faults: Some(FaultPlan::new(seed).with_default(spec)), ..run_options() }
}

/// A later repetition against the first: every inverse bit for bit, the
/// same logical volumes, no recovery traffic.
fn same_output(first: &Output, got: &Output) -> Result<(), String> {
    ensure(first.inverses.len() == got.inverses.len(), || "inverse counts differ".into())?;
    for (q, (a, b)) in got.inverses.iter().zip(&first.inverses).enumerate() {
        check::same_bits(a, b).map_err(|e| format!("inverse {q}: {e}"))?;
    }
    check::same_logical_volumes(&got.volumes, &first.volumes)?;
    check::no_retransmits(&got.volumes)
}

pub fn run(spec: &'static Spec, args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let mut spans = Spans::new();
    let mut ledger = Ledger::default();
    let mut yardstick = Yardstick::new();

    let reps = spans.enter("bench.measure");
    let measured = measure(
        &RepPlan::new(args, spec.min_reps, spec.wall_tracks_host),
        &mut yardstick,
        &mut spans,
        &mut ledger,
        |spans| setup(spec, seed, spans),
        |spans, input| {
            spans.time("dist.invert", || invert(spec, input, seed, false)).0.map(|(out, _)| out)
        },
        same_output,
    )?;
    spans.exit(reps);
    let (input, first) = (&measured.input, &measured.first);
    ledger.record(
        "first repetition sends no recovery traffic",
        check::no_retransmits(&first.volumes),
    );

    // The sequential oracle, once per factor: the engines agree with it to
    // tolerance (and, checked above, with themselves bit for bit).
    let (mut seq_s, mut oracle_err) = (0.0, 0.0f64);
    for (q, f) in input.factors.iter().enumerate() {
        let (oracle, secs) = spans.time("selinv.selinv_ldlt", || selinv_ldlt(f));
        seq_s += secs;
        let near = check::near_oracle(&first.inverses[q], &oracle);
        oracle_err = oracle_err.max(*near.as_ref().unwrap_or(&f64::MAX));
        ledger.record(&format!("inverse {q} vs sequential oracle"), near.map(|_| ()));
    }

    // A batched pole is bit for bit its standalone run (without the latency
    // model, which changes timing and nothing else), and its channel-counted
    // volumes are exactly the standalone run's.
    if spec.poles.is_some() {
        for (q, f) in input.factors.iter().enumerate() {
            let (solo, _) = spans.time("dist.standalone_pole", || {
                try_distributed_selinv(f, spec.grid(), &spec.dist(seed), &run_options())
            });
            let outcome = solo.map_err(|e| e.to_string()).and_then(|(solo, solo_volumes)| {
                check::same_bits(&first.inverses[q], &solo)?;
                check::same_logical_volumes(&first.query_volumes[q], &solo_volumes)
            });
            ledger.record(&format!("pole {q} vs its standalone run"), outcome);
        }
    }
    let notes = BenchNotes::new(&measured, &yardstick);

    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    if args.trace {
        let flops: f64 = input.factors.iter().map(LdlFactor::flops).sum();
        layers.extend([
            ("sparse.gen_s", input.gen_s),
            ("order.analyze_s", input.analyze_s),
            ("factor.factorize_s", input.factorize_s),
            ("factor.gflops", flops / input.factorize_s * 1e-9),
            ("selinv.seq_s", seq_s),
            ("selinv.oracle_max_rel_err", oracle_err),
        ]);
        layers.extend(simclock::structure_metrics(
            &mut spans,
            &input.symbolic,
            spec.grid(),
            seed,
            input.factors.len(),
        ));
        layers.extend(traced_pass(
            spec,
            input,
            first,
            measured.raw_wall_s(),
            seq_s,
            seed,
            &mut spans,
            &mut ledger,
        )?);
        layers.extend(micro::run(&mut spans, seed));
        layers.extend(notes.metrics());
    }

    // The simulated-clock pass, on this workload's own symbolic structure.
    let sim = spans.enter("bench.sim_pass");
    let layout = Layout::new(input.symbolic.clone(), Grid2D::new(SIM_GRID.0, SIM_GRID.1));
    let (vol_max_over_mean, replay_s) = simclock::col_bcast_imbalance(&mut spans, &layout, seed);
    let both = BothSchemes::run(
        &mut spans,
        &layout,
        seed,
        Extras { validate: true, profiled: args.trace },
    );
    both.check(&mut ledger);
    spans.exit(sim);

    let metrics = if args.trace {
        layers.extend(simclock::layer_metrics(&both, replay_s));
        layers
    } else {
        end_to_end(&measured, &both, vol_max_over_mean)
    };
    Report::finish(spec.name, args, metrics, spec.not_applicable, notes, &spans, ledger)
}

/// The traced repetition and the baselines its ratios need. Returns the
/// `pool.*`, `dist.*`, `mpisim.*`, `trace.*` and `profile.*` lines it yields.
/// Everything here is a single shot in host seconds, so the reference it is
/// divided by is `raw_wall_s`, the untraced repetitions' median host seconds.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    spec: &Spec,
    input: &Input,
    first: &Output,
    raw_wall_s: f64,
    seq_s: f64,
    seed: u64,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (grid, nfactors) = (spec.grid(), input.factors.len() as u64);
    let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, seed);

    // One repetition through the traced entry point.
    let (traced, traced_s) = spans.time("dist.invert_traced", || invert(spec, input, seed, true));
    let (out, trace) = traced?;
    let trace = trace.expect("the traced entry point returns a trace");
    ledger.record("traced repetition equals the untraced ones", same_output(first, &out));

    // Traced bytes == structural replay, per rank, for both headline kinds
    // (a batch carries every pole's collectives: the replay times the poles).
    let layout = Layout::new(input.symbolic.clone(), grid);
    let (replay, _) =
        spans.time("dist.replay_volumes", || pselinv_dist::replay_volumes(&layout, builder));
    let times = |v: &[u64]| v.iter().map(|b| b * nfactors).collect::<Vec<u64>>();
    ledger.record(
        "traced Col-Bcast sent bytes equal the structural replay",
        ensure(trace.sent_bytes(CollKind::ColBcast) == times(&replay.col_bcast_sent), || {
            "per-rank Col-Bcast bytes differ from replay_volumes".into()
        }),
    );
    ledger.record(
        "traced Row-Reduce received bytes equal the structural replay",
        ensure(trace.recv_bytes(CollKind::RowReduce) == times(&replay.row_reduce_received), || {
            "per-rank Row-Reduce bytes differ from replay_volumes".into()
        }),
    );

    // The same inversions with no peers and no workers: what the engine
    // costs over the sequential oracle before a single message.
    let mut run_1x1_s = 0.0;
    let alone = DistOptions { threads: 1, ..spec.dist(seed) };
    for (q, f) in input.factors.iter().enumerate() {
        let (run, secs) = spans.time("dist.run_1x1", || {
            try_distributed_selinv(f, Grid2D::new(1, 1), &alone, &run_options())
        });
        let (inv, _) = run.map_err(|e| e.to_string())?;
        run_1x1_s += secs;
        // A different grid sums reduction contributions in a different
        // order, so the two agree to tolerance, not in their bits.
        let near = check::near_oracle(&inv, &first.inverses[q]).map(|_| ());
        ledger.record(&format!("inverse {q} on a 1x1 grid agrees with the run grid's"), near);
    }

    let mut layers = Vec::new();
    if let Some(poles) = &spec.poles {
        // Each pole alone through the same engine under the same latency
        // model, plans rebuilt per pole: what batching is measured against.
        let batch = BatchOptions { dist: spec.dist(seed), max_inflight: poles.max_inflight };
        let run = latency_model(seed, poles.delay_us);
        let mut alone_s = 0.0;
        for q in 0..input.factors.len() {
            let (r, secs) = spans.time("dist.pole_alone", || {
                try_batched_selinv(&input.factors[q..=q], grid, &batch, &run)
            });
            r.map_err(|e| e.to_string())?;
            alone_s += secs;
        }
        layers.push(("dist.batch_speedup_x", alone_s / raw_wall_s));
    }

    // `CausalChains::from_trace` is left out on purpose: it materialises one
    // blame chain per wait and walks each with a linear `contains`, which on
    // lap2d-msgs' 164 k-message trace passed 11 GB and 9 minutes without
    // finishing (see README, "Findings").
    let ((waits, _hotspots), analyze_s) = spans.time("profile.analyze", || {
        (WaitReport::from_trace(&trace), HotspotReport::from_trace(&trace, spec.grid))
    });
    let rank_wall_us = grid.size() as f64 * traced_s * 1e6;
    let sum_u = |f: fn(&pselinv_trace::RankMetrics) -> u64| {
        trace.ranks.iter().map(|r| f(&r.metrics)).sum::<u64>() as f64
    };
    let max_u = |f: fn(&pselinv_trace::RankMetrics) -> usize| {
        trace.ranks.iter().map(|r| f(&r.metrics)).max().unwrap_or(0) as f64
    };
    let workers = sum_u(|m| m.pool_workers as u64);
    let vol = |f: fn(&RankVolume) -> u64| out.volumes.iter().map(f).sum::<u64>() as f64;

    layers.extend([
        ("pool.executed", sum_u(|m| m.pool_executed)),
        ("pool.stolen", sum_u(|m| m.pool_stolen)),
        (
            "pool.busy_frac",
            if workers > 0.0 {
                sum_u(|m| m.pool_busy_us) / (workers * traced_s * 1e6)
            } else {
                0.0
            },
        ),
        ("dist.run_1x1_s", run_1x1_s),
        ("dist.engine_overhead_x", run_1x1_s / seq_s),
        ("dist.comm_overhead_x", raw_wall_s / run_1x1_s),
        ("dist.speedup_vs_seq_x", seq_s / raw_wall_s),
        ("dist.overlap_hwm", max_u(|m| m.outstanding_hwm)),
        ("mpisim.msgs", vol(|v| v.msgs_sent)),
        ("mpisim.bytes_sent", vol(|v| v.sent)),
        ("mpisim.bytes_copied", vol(|v| v.copied)),
        ("mpisim.retransmitted", vol(|v| v.retransmitted)),
        ("mpisim.stash_hwm", max_u(|m| m.stash_hwm)),
        (
            "mpisim.wait_frac",
            waits.ranks.iter().map(|r| r.total_wait_us()).sum::<u64>() as f64 / rank_wall_us,
        ),
        (
            "mpisim.transfer_frac",
            waits.ranks.iter().map(|r| r.total_transfer_us()).sum::<u64>() as f64 / rank_wall_us,
        ),
        ("trace.overhead_x", traced_s / raw_wall_s),
        ("trace.events", trace.ranks.iter().map(|r| r.events.len()).sum::<usize>() as f64),
        ("profile.analyze_s", analyze_s),
    ]);
    Ok(layers)
}
