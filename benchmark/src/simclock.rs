//! The simulated-clock pass: a workload's symbolic structure laid out on
//! its `sim_grid`, its task graph replayed on the pinned machine under the
//! Flat and the Shifted Binary scheme. These are the paper's own numbers —
//! Fig 8 makespan and Flat→Shifted speedup, Fig 9 comm:comp, Tables I/II
//! volume imbalance — on the DES clock, which repeats bit for bit.

use crate::check::{ensure, Ledger};
use crate::spans::Spans;
use pselinv_des::{simulate, simulate_profiled, MachineConfig, SimResult};
use pselinv_dist::taskgraph::{selinv_graph, GraphOptions};
use pselinv_dist::{replay_volumes, CommPlan, Layout};
use pselinv_mpisim::Grid2D;
use pselinv_order::SymbolicFactor;
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::sync::Arc;

/// The machine of Figs. 8–9, pinned here so an edit to the experiment
/// harness cannot move the benchmark: a scaled-down Edison with 24 ranks
/// per node behind one shared node NIC — the constants of the harness's
/// `workloads::des_machine(0)`, its seed included.
///
/// `--seed` reaches the simulated clock through the tree shifts only. The
/// machine seed (node placement, ±35 % link jitter) moves the makespan by
/// 6–9 % between seeds on the numeric workloads' structures, the tree seed
/// by 0.3–2 %: with the machine pinned, a simulated metric still differs
/// from seed to seed but ten seeds agree closely enough to guard it tightly.
pub fn machine() -> MachineConfig {
    MachineConfig {
        ranks_per_node: 24,
        flops_per_sec: 2e9,
        bw_inter: 0.5e9,
        bw_intra: 4e9,
        node_bw_factor: 1.0,
        nic_per_node: true,
        forward_on_core: true,
        cpu_per_msg: 1.5e-6,
        msg_overhead: 1.2e-6,
        jitter: 0.35,
        seed: 0,
        ..Default::default()
    }
}

/// One scheme's task graph, built and simulated.
#[derive(Clone)]
pub struct SchemeRun {
    pub result: SimResult,
    pub tasks: usize,
    pub flops: f64,
    pub msg_bytes: u64,
    /// `TaskGraph::validate()` reached every task (checked when asked).
    pub valid: bool,
    pub graph_s: f64,
    pub sim_s: f64,
    /// `simulate_profiled` seconds over `simulate` seconds (traced pass).
    pub profiled_overhead_x: Option<f64>,
}

impl SchemeRun {
    /// Bit-equality of every simulated number with another run of the same
    /// scheme on the same inputs (the DES is deterministic).
    pub fn same_as(&self, other: &SchemeRun) -> Result<(), String> {
        let (a, b) = (&self.result, &other.result);
        ensure(a.makespan.to_bits() == b.makespan.to_bits(), || {
            format!("makespan {:e} vs {:e}", a.makespan, b.makespan)
        })?;
        ensure((a.messages, a.bytes, self.tasks) == (b.messages, b.bytes, other.tasks), || {
            "message/byte/task counts differ between repetitions".into()
        })
    }
}

/// What one scheme run is asked to do beyond build + simulate.
#[derive(Clone, Copy, Default)]
pub struct Extras {
    pub validate: bool,
    pub profiled: bool,
}

pub fn run_scheme(
    spans: &mut Spans,
    layout: &Layout,
    scheme: TreeScheme,
    seed: u64,
    extras: Extras,
) -> SchemeRun {
    let opts = GraphOptions { scheme, seed, ..Default::default() };
    let (graph, graph_s) = spans.time("dist.selinv_graph", || selinv_graph(layout, &opts));
    let valid = !extras.validate || graph.validate() == graph.num_tasks();
    let (result, sim_s) = spans.time("des.simulate", || simulate(&graph, machine()));
    let profiled_overhead_x = extras.profiled.then(|| {
        let (_, prof_s) = spans
            .time("des.simulate_profiled", || simulate_profiled(&graph, machine(), "bench", &[]));
        prof_s / sim_s
    });
    SchemeRun {
        result,
        tasks: graph.num_tasks(),
        flops: graph.total_flops(),
        msg_bytes: graph.total_message_bytes(),
        valid,
        graph_s,
        sim_s,
        profiled_overhead_x,
    }
}

/// Flat then Shifted Binary on one layout.
pub struct BothSchemes {
    pub flat: SchemeRun,
    pub shifted: SchemeRun,
}

impl BothSchemes {
    pub fn run(spans: &mut Spans, layout: &Layout, seed: u64, extras: Extras) -> Self {
        let flat =
            run_scheme(spans, layout, TreeScheme::Flat, seed, Extras { profiled: false, ..extras });
        let shifted = run_scheme(spans, layout, TreeScheme::ShiftedBinary, seed, extras);
        Self { flat, shifted }
    }

    /// Fig 8: simulated seconds of the Shifted Binary run.
    pub fn makespan_s(&self) -> f64 {
        self.shifted.result.makespan
    }

    /// Fig 8 headline: Flat makespan over Shifted Binary makespan.
    pub fn speedup_vs_flat(&self) -> f64 {
        self.flat.result.makespan / self.shifted.result.makespan
    }

    /// Fig 9: communication to computation, Shifted Binary.
    pub fn comm_to_comp(&self) -> f64 {
        self.shifted.result.comm_to_comp()
    }

    /// Routing moves traffic between ranks, never adds any: both schemes
    /// carry the same messages and bytes. Also reports failed validation.
    pub fn check(&self, ledger: &mut Ledger) {
        let (f, s) = (&self.flat.result, &self.shifted.result);
        ledger.record(
            "sim: Flat and Shifted carry equal messages and bytes",
            ensure((f.messages, f.bytes) == (s.messages, s.bytes), || {
                format!(
                    "Flat {} msgs / {} B vs Shifted {} msgs / {} B",
                    f.messages, f.bytes, s.messages, s.bytes
                )
            }),
        );
        ledger.record(
            "sim: task graphs validate",
            ensure(self.flat.valid && self.shifted.valid, || "a task graph strands tasks".into()),
        );
    }
}

/// How many tree seeds [`col_bcast_imbalance`] draws.
const VOLUME_DRAWS: u64 = 16;

/// Tables I/II: max over mean of the per-rank `Col-Bcast` sent bytes under
/// Shifted Binary, by structural replay. One draw of the random shifts is a
/// noisy statistic (7 % interquartile spread across seeds on poles-latency's
/// 536 supernodes), so the metric is the median over 16 tree seeds derived
/// from `seed` — the first of them `seed` itself, whose replay seconds are
/// returned beside it.
pub fn col_bcast_imbalance(spans: &mut Spans, layout: &Layout, seed: u64) -> (f64, f64) {
    let mut replay_s = 0.0;
    let ratios: Vec<f64> = (0..VOLUME_DRAWS)
        .map(|draw| {
            let tree_seed = seed.wrapping_add(draw.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, tree_seed);
            let (report, secs) =
                spans.time("dist.replay_volumes", || replay_volumes(layout, builder));
            if draw == 0 {
                replay_s = secs;
            }
            let sent = &report.col_bcast_sent;
            let mean = sent.iter().sum::<u64>() as f64 / sent.len() as f64;
            sent.iter().copied().max().unwrap_or(0) as f64 / mean
        })
        .collect();
    (crate::stats::median(&ratios), replay_s)
}

/// The `dist.graph_*`, `dist.replay_s` and `des.*` lines, from the Shifted
/// Binary run of a traced pass.
pub fn layer_metrics(both: &BothSchemes, replay_s: f64) -> Vec<(&'static str, f64)> {
    let s = &both.shifted;
    let events = s.tasks as f64 + s.result.messages as f64;
    vec![
        ("dist.replay_s", replay_s),
        ("dist.graph_s", s.graph_s),
        ("dist.graph_tasks", s.tasks as f64),
        ("dist.graph_flops", s.flops),
        ("dist.graph_msg_bytes", s.msg_bytes as f64),
        ("des.sim_s", s.sim_s),
        ("des.events_per_s", events / s.sim_s),
        ("des.messages", s.result.messages as f64),
        ("des.bytes", s.result.bytes as f64),
        (
            "des.profiled_overhead_x",
            s.profiled_overhead_x.expect("the traced pass profiles the Shifted run"),
        ),
    ]
}

/// The lines that describe a symbolic structure and the preprocessing every
/// call repeats on it (once per batch for poles): supernode counts, the
/// collective plans at the run `grid`, and the flops of `inversions`
/// selected inversions (the task graph of a 1×1 layout carries no message).
pub fn structure_metrics(
    spans: &mut Spans,
    symbolic: &Arc<SymbolicFactor>,
    grid: Grid2D,
    seed: u64,
    inversions: usize,
) -> Vec<(&'static str, f64)> {
    let sf = symbolic;
    let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, seed);
    let (plans, plan_s) = spans.time("dist.plan", || {
        CommPlan::new(Layout::new(sf.clone(), grid), builder).precompute_all()
    });
    let collectives: usize =
        plans.iter().map(|p| 2 + p.col_bcasts.len() + p.row_reduces.len()).sum();
    drop(plans);
    let (graph, _) = spans.time("dist.selinv_graph_1x1", || {
        selinv_graph(&Layout::new(sf.clone(), Grid2D::new(1, 1)), &GraphOptions::default())
    });
    let max_width = (0..sf.num_supernodes()).map(|s| sf.width(s)).max().unwrap_or(0);
    vec![
        ("order.supernodes", sf.num_supernodes() as f64),
        ("order.nnz_factor", sf.nnz_factor() as f64),
        ("order.max_width", max_width as f64),
        ("selinv.flops", graph.total_flops() * inversions as f64),
        ("dist.plan_s", plan_s),
        ("dist.plan_collectives", collectives as f64),
    ]
}
