//! `scale-p4096`: the paper's scale on the simulated clock. A DG
//! Hamiltonian proxy is analyzed, laid out on a 64×64 grid, and its selected
//! inversion is built as a task graph and replayed by the DES. No numeric
//! kernel runs: `trees`, `dist::plan`/`taskgraph` and `des` do all the work,
//! so host time tracks events simulated — and a change meant only to speed
//! the simulator must leave all four simulated metrics identical.
//!
//! The timed operation is the paper's scheme, Shifted Binary: build the task
//! graph and simulate it. The Flat baseline of `sim_speedup_vs_flat` runs
//! once, untimed: it is the same code over other tree shapes, and timing it
//! with every repetition halved the samples a run can take.

use crate::check::Ledger;
use crate::harness::{end_to_end, measure, Args, BenchNotes, RepPlan, Report};
use crate::micro;
use crate::simclock::{self, run_scheme, BothSchemes, Extras};
use crate::spans::Spans;
use crate::yardstick::Yardstick;
use pselinv_dist::Layout;
use pselinv_mpisim::Grid2D;
use pselinv_order::nd::NdOptions;
use pselinv_order::supernodes::SupernodeOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice, SymbolicFactor};
use pselinv_sparse::gen;
use pselinv_trees::TreeScheme;
use std::sync::Arc;

pub const NAME: &str = "scale-p4096";

/// P = 4096, where the simulated-clock pass is the timed operation itself.
const GRID: (usize, usize) = (64, 64);
const MIN_REPS: usize = 7;
const TIMED: TreeScheme = TreeScheme::ShiftedBinary;

/// Nothing is factorized, inverted or sent on the host.
const NOT_APPLICABLE: &[&str] = &[
    "factor.factorize_s",
    "factor.gflops",
    "selinv.seq_s",
    "selinv.oracle_max_rel_err",
    "pool.executed",
    "pool.stolen",
    "pool.busy_frac",
    "dist.run_1x1_s",
    "dist.engine_overhead_x",
    "dist.comm_overhead_x",
    "dist.speedup_vs_seq_x",
    "dist.batch_speedup_x",
    "dist.overlap_hwm",
    "mpisim.msgs",
    "mpisim.bytes_sent",
    "mpisim.bytes_copied",
    "mpisim.retransmitted",
    "mpisim.stash_hwm",
    "mpisim.wait_frac",
    "mpisim.transfer_frac",
    "trace.overhead_x",
    "trace.events",
    "profile.analyze_s",
];

struct Input {
    symbolic: Arc<SymbolicFactor>,
    layout: Layout,
    gen_s: f64,
    analyze_s: f64,
}

/// Generate → analyze → lay out. The analysis is the experiment harness's
/// DG_PNF14000 timing proxy (`workloads::dg_pnf_des`): dissection down to
/// single elements, supernodes at most 48 wide, structure only.
fn setup(seed: u64, spans: &mut Spans) -> Input {
    let root = spans.enter("bench.setup");
    let (w, gen_s) = spans.time("sparse.gen", || gen::dg_hamiltonian(16, 16, 4, 24, seed));
    let opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, NdOptions { leaf_size: 1 }),
        supernode: SupernodeOptions { max_width: 48, relax_small: 12, relax_zero_fraction: 0.3 },
        track_true_structure: false,
    };
    let (symbolic, analyze_s) =
        spans.time("order.analyze", || Arc::new(analyze(&w.matrix.pattern(), &opts)));
    let (layout, _) =
        spans.time("dist.layout", || Layout::new(symbolic.clone(), Grid2D::new(GRID.0, GRID.1)));
    spans.exit(root);
    Input { symbolic, layout, gen_s, analyze_s }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let mut spans = Spans::new();
    let mut ledger = Ledger::default();
    let mut yardstick = Yardstick::new();

    // The warm-up also validates its task graph; the timed repetitions only
    // build and simulate.
    let reps = spans.enter("bench.measure");
    let mut warm_up = true;
    let measured = measure(
        &RepPlan::new(args, MIN_REPS, true),
        &mut yardstick,
        &mut spans,
        &mut ledger,
        |spans| setup(seed, spans),
        |spans, input| {
            let extras = Extras { validate: std::mem::take(&mut warm_up), profiled: false };
            Ok(run_scheme(spans, &input.layout, TIMED, seed, extras))
        },
        |first, got| got.same_as(first),
    )?;
    spans.exit(reps);
    let input = &measured.input;
    let validated = Extras { validate: true, profiled: false };
    let flat = run_scheme(&mut spans, &input.layout, TreeScheme::Flat, seed, validated);
    let first = BothSchemes { flat, shifted: measured.first.clone() };
    first.check(&mut ledger);
    let (vol_max_over_mean, replay_s) =
        simclock::col_bcast_imbalance(&mut spans, &input.layout, seed);
    let notes = BenchNotes::new(&measured, &yardstick);

    let metrics = if args.trace {
        // One more repetition, with the profiled simulator beside the plain one.
        let profiled = BothSchemes::run(
            &mut spans,
            &input.layout,
            seed,
            Extras { validate: false, profiled: true },
        );
        ledger.record(
            "profiled repetition equals the timed ones",
            profiled.shifted.same_as(&first.shifted).and(profiled.flat.same_as(&first.flat)),
        );

        let mut layers = vec![("sparse.gen_s", input.gen_s), ("order.analyze_s", input.analyze_s)];
        layers.extend(simclock::structure_metrics(
            &mut spans,
            &input.symbolic,
            input.layout.grid,
            seed,
            1,
        ));
        layers.extend(simclock::layer_metrics(&profiled, replay_s));
        layers.extend(micro::run(&mut spans, seed));
        layers.extend(notes.metrics());
        layers
    } else {
        end_to_end(&measured, &first, vol_max_over_mean)
    };
    Report::finish(NAME, args, metrics, NOT_APPLICABLE, notes, &spans, ledger)
}
