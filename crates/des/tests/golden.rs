//! Golden digests of the task graphs and of the simulated schedules.
//!
//! The DES engine and the task-graph builder were rewritten for speed
//! (PR 14) and the old ones deleted, so there is no second implementation
//! to compare against. Instead, every number below was **recorded at the
//! parent commit `9926285`** with this same file and must never change:
//! the rewrite is bit-for-bit or it is wrong. On a mismatch the test
//! prints the whole table as it computes it now.
//!
//! What is hashed (FNV-1a, 64 bit):
//!
//! * graph — per task: rank, flops bits, prio, kind, tag, dependency
//!   count, then its out-edges in order as `(successor, bytes)`. Task
//!   numbering and edge order are part of the simulated result (the ready
//!   queue breaks priority ties by task id; edge order is send order on
//!   the NIC), so they are part of the digest;
//! * plain run — `makespan` bits, every rank's `compute_busy` bits and
//!   `tasks_run`, `messages`, `bytes`, and the completed-task count;
//! * traced run — the plain digest of its result, then every event of
//!   every rank (timestamps, Lamport clocks, send indices, wait causes),
//!   then `sent_bytes`/`recv_bytes` per `CollKind`;
//! * profiled run — the traced digest of its result and trace, then
//!   `task_start_us`/`task_end_us`/`task_ready_us`/`pred` of every task.

use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_des::{
    simulate, simulate_profiled, simulate_traced, simulate_with_faults, MachineConfig, SimProfile,
    SimResult,
};
use pselinv_dist::taskgraph::{factorization_graph, selinv_graph, GraphOptions, TaskGraph};
use pselinv_dist::Layout;
use pselinv_mpisim::Grid2D;
use pselinv_order::nd::NdOptions;
use pselinv_order::supernodes::SupernodeOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
use pselinv_sparse::gen;
use pselinv_trace::{CollKind, Trace};
use pselinv_trees::TreeScheme;
use std::fmt::Write as _;
use std::sync::Arc;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

const SCHEMES: [TreeScheme; 3] = [TreeScheme::Flat, TreeScheme::Binary, TreeScheme::ShiftedBinary];

fn layouts() -> Vec<(&'static str, Layout)> {
    let lap = gen::grid_laplacian_2d(12, 12);
    let lap = Arc::new(analyze(&lap.matrix.pattern(), &AnalyzeOptions::default()));
    // The scale-p4096 proxy in small: dissection down to single elements,
    // narrow supernodes, structure only.
    let dg = gen::dg_hamiltonian(8, 8, 2, 8, 0xd6f);
    let dg_opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(dg.geometry, NdOptions { leaf_size: 1 }),
        supernode: SupernodeOptions { max_width: 16, relax_small: 4, relax_zero_fraction: 0.3 },
        track_true_structure: false,
    };
    let dg = Arc::new(analyze(&dg.matrix.pattern(), &dg_opts));
    vec![
        ("lap12/3x3", Layout::new(lap.clone(), Grid2D::new(3, 3))),
        ("lap12/4x4", Layout::new(lap, Grid2D::new(4, 4))),
        ("dg/8x8", Layout::new(dg, Grid2D::new(8, 8))),
    ]
}

fn graph_digest(g: &TaskGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.nranks as u64);
    h.u64(g.num_tasks() as u64);
    for (t, task) in g.tasks().iter().enumerate() {
        h.u64(task.rank as u64);
        h.u64(task.flops.to_bits());
        h.u64(task.prio as i64 as u64);
        h.u64(task.kind as u64);
        h.u64(task.tag as u64);
        h.u64(g.deps()[t] as u64);
        h.u64(g.out_edges(t as u32).count() as u64);
        for (s, b) in g.out_edges(t as u32) {
            h.u64(s as u64);
            h.u64(b);
        }
    }
    h.0
}

fn result_digest(h: &mut Fnv, r: &SimResult, completed: usize) {
    h.u64(r.makespan.to_bits());
    for (busy, run) in r.compute_busy.iter().zip(&r.tasks_run) {
        h.u64(busy.to_bits());
        h.u64(*run);
    }
    h.u64(r.messages);
    h.u64(r.bytes);
    h.u64(completed as u64);
}

fn trace_digest(h: &mut Fnv, trace: &Trace) {
    let mut line = String::new();
    for rank in &trace.ranks {
        h.u64(rank.events.len() as u64);
        for ev in &rank.events {
            line.clear();
            write!(line, "{ev:?}").unwrap();
            h.bytes(line.as_bytes());
        }
    }
    for &kind in CollKind::ALL.iter() {
        for v in trace.sent_bytes(kind).into_iter().chain(trace.recv_bytes(kind)) {
            h.u64(v);
        }
    }
}

fn profile_digest(h: &mut Fnv, p: &SimProfile) {
    let mut line = String::new();
    for t in 0..p.pred.len() {
        h.u64(p.task_start_us[t]);
        h.u64(p.task_end_us[t]);
        h.u64(p.task_ready_us[t]);
        line.clear();
        write!(line, "{:?}", p.pred[t]).unwrap();
        h.bytes(line.as_bytes());
    }
}

/// The machines of the matrix. `zero-overhead` makes every forwarding
/// task take no time at all, so long runs of events share one instant.
fn machines() -> Vec<(&'static str, MachineConfig)> {
    let base = MachineConfig { seed: 7, ranks_per_node: 4, ..Default::default() };
    vec![
        ("default", base),
        ("no-nic-contention", MachineConfig { nic_contention: false, ..base }),
        ("forward-off-core", MachineConfig { forward_on_core: false, ..base }),
        ("zero-overhead", MachineConfig { task_overhead: 0.0, ..base }),
    ]
}

fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "delay+slowdown",
            FaultPlan::new(0xfa17)
                .with_default(FaultSpec {
                    delay_us: 20,
                    jitter_us: 80,
                    slowdown: 1.3,
                    ..FaultSpec::default()
                })
                .with_rank(2, FaultSpec { slowdown: 2.5, ..FaultSpec::default() }),
        ),
        (
            "crash",
            FaultPlan::new(1)
                .with_rank(3, FaultSpec { crash_at_s: Some(2e-5), ..FaultSpec::default() }),
        ),
    ]
}

/// `(label, digest)` of every graph of the matrix.
fn graph_table() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (wname, layout) in layouts() {
        for scheme in SCHEMES {
            let opts = GraphOptions { scheme, ..Default::default() };
            let barriered = GraphOptions { pipelining: false, ..opts };
            out.push((
                format!("{wname}/{scheme:?}/selinv"),
                graph_digest(&selinv_graph(&layout, &opts)),
            ));
            out.push((
                format!("{wname}/{scheme:?}/selinv-barriered"),
                graph_digest(&selinv_graph(&layout, &barriered)),
            ));
            out.push((
                format!("{wname}/{scheme:?}/factorization"),
                graph_digest(&factorization_graph(&layout, &opts)),
            ));
        }
    }
    out
}

/// `(label, digest)` of every run of the matrix: plain, traced and
/// profiled on each machine, faulted on the default machine — over the
/// pipelined selected-inversion graph, plus one barriered and one
/// factorization graph per workload so every builder path is simulated.
fn sim_table() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (wname, layout) in layouts() {
        for scheme in SCHEMES {
            let opts = GraphOptions { scheme, ..Default::default() };
            let g = selinv_graph(&layout, &opts);
            for (mname, cfg) in machines() {
                let label = format!("{wname}/{scheme:?}/{mname}");
                let mut h = Fnv::new();
                result_digest(&mut h, &simulate(&g, cfg), g.num_tasks());
                out.push((format!("{label}/plain"), h.0));

                let (res, trace) = simulate_traced(&g, cfg, "golden");
                let mut h = Fnv::new();
                result_digest(&mut h, &res, g.num_tasks());
                trace_digest(&mut h, &trace);
                out.push((format!("{label}/traced"), h.0));

                let (res, trace, prof) = simulate_profiled(&g, cfg, "golden", &[]);
                let mut h = Fnv::new();
                result_digest(&mut h, &res, g.num_tasks());
                trace_digest(&mut h, &trace);
                profile_digest(&mut h, &prof);
                out.push((format!("{label}/profiled"), h.0));
            }
            for (pname, plan) in fault_plans() {
                let r = simulate_with_faults(&g, machines()[0].1, &plan);
                // The crash must land mid-run, the benign plan must finish.
                let crash = !plan.is_crash_free();
                assert_eq!(crash, r.completed < r.total, "{wname}/{scheme:?}/{pname}");
                assert!(r.completed * 5 > r.total, "{wname}/{scheme:?}/{pname}: crash too early");
                let mut h = Fnv::new();
                result_digest(&mut h, &r.result, r.completed);
                out.push((format!("{wname}/{scheme:?}/{pname}"), h.0));
            }
        }
        let opts = GraphOptions::default();
        let cfg = machines()[0].1;
        for (gname, g) in [
            (
                "selinv-barriered",
                selinv_graph(&layout, &GraphOptions { pipelining: false, ..opts }),
            ),
            ("factorization", factorization_graph(&layout, &opts)),
        ] {
            let (res, trace, prof) = simulate_profiled(&g, cfg, "golden", &[]);
            let mut h = Fnv::new();
            result_digest(&mut h, &res, g.num_tasks());
            trace_digest(&mut h, &trace);
            profile_digest(&mut h, &prof);
            out.push((format!("{wname}/{gname}/profiled"), h.0));
        }
    }
    out
}

fn check(what: &str, actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let same = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|((la, da), (lg, dg))| la == lg && da == dg);
    if same {
        return;
    }
    let mut table = String::new();
    for (label, digest) in actual {
        writeln!(table, "    (\"{label}\", 0x{digest:016x}),").unwrap();
    }
    let moved: Vec<&str> = actual
        .iter()
        .zip(golden)
        .filter(|((la, da), (lg, dg))| la != lg || da != dg)
        .map(|((la, _), _)| la.as_str())
        .collect();
    panic!(
        "{what}: {} of {} digests differ from the ones recorded at the parent commit \
         (first: {:?}). Computed now:\n{table}",
        moved.len().max(actual.len().abs_diff(golden.len())),
        golden.len(),
        moved.first()
    );
}

#[test]
fn taskgraph_digests_match_the_parent_commit() {
    check("task graphs", &graph_table(), GRAPH_GOLDEN);
}

#[test]
fn simulation_digests_match_the_parent_commit() {
    check("simulated runs", &sim_table(), SIM_GOLDEN);
}

#[test]
fn the_matrix_is_not_degenerate() {
    // A digest table is only worth its lines if the runs differ. On the
    // 12×12 Laplacian no collective has more than four participants, so
    // Flat and Binary build the same trees there; on the DG proxy every
    // graph and every run of the matrix must hash to its own value (a
    // machine knob the graph never exercises, or a fault plan that changes
    // nothing, would show up here as a duplicate).
    for (what, golden) in [("graph", GRAPH_GOLDEN), ("sim", SIM_GOLDEN)] {
        let mut seen: Vec<u64> =
            golden.iter().filter(|(l, _)| l.starts_with("dg/")).map(|&(_, d)| d).collect();
        assert!(!seen.is_empty());
        seen.sort_unstable();
        let n = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), n, "{what}: two lines of the golden table share a digest");
    }
}

#[rustfmt::skip]
const GRAPH_GOLDEN: &[(&str, u64)] = &[
    ("lap12/3x3/Flat/selinv", 0xee8c5f906be06b09),
    ("lap12/3x3/Flat/selinv-barriered", 0xacb826b7af22e640),
    ("lap12/3x3/Flat/factorization", 0xc6fe02be70118422),
    ("lap12/3x3/Binary/selinv", 0xee8c5f906be06b09),
    ("lap12/3x3/Binary/selinv-barriered", 0xacb826b7af22e640),
    ("lap12/3x3/Binary/factorization", 0xc6fe02be70118422),
    ("lap12/3x3/ShiftedBinary/selinv", 0x7aa2b9ce6723deb1),
    ("lap12/3x3/ShiftedBinary/selinv-barriered", 0x1488ec6a2b2370e0),
    ("lap12/3x3/ShiftedBinary/factorization", 0x6bc6441f9081105e),
    ("lap12/4x4/Flat/selinv", 0x700ff572011863b6),
    ("lap12/4x4/Flat/selinv-barriered", 0xa6fc033b46f90f4a),
    ("lap12/4x4/Flat/factorization", 0x25cb606528084f4b),
    ("lap12/4x4/Binary/selinv", 0x700ff572011863b6),
    ("lap12/4x4/Binary/selinv-barriered", 0xa6fc033b46f90f4a),
    ("lap12/4x4/Binary/factorization", 0x25cb606528084f4b),
    ("lap12/4x4/ShiftedBinary/selinv", 0x27a2f38081db1bc2),
    ("lap12/4x4/ShiftedBinary/selinv-barriered", 0xeb8d334ea287e3ba),
    ("lap12/4x4/ShiftedBinary/factorization", 0x1f53dedd8a2c1b63),
    ("dg/8x8/Flat/selinv", 0x5b20feb0f46020db),
    ("dg/8x8/Flat/selinv-barriered", 0x190814984a761492),
    ("dg/8x8/Flat/factorization", 0x322763765f9a4f05),
    ("dg/8x8/Binary/selinv", 0xc27db620bd89f3d4),
    ("dg/8x8/Binary/selinv-barriered", 0x2a1566e2027b4585),
    ("dg/8x8/Binary/factorization", 0xcc49745eb746c475),
    ("dg/8x8/ShiftedBinary/selinv", 0xd414038bb9441df3),
    ("dg/8x8/ShiftedBinary/selinv-barriered", 0x0ac0bb2ffd3266bf),
    ("dg/8x8/ShiftedBinary/factorization", 0x6d6b7ad62b095515),
];

#[rustfmt::skip]
const SIM_GOLDEN: &[(&str, u64)] = &[
    ("lap12/3x3/Flat/default/plain", 0x1ec9b9dd7d36dc3c),
    ("lap12/3x3/Flat/default/traced", 0x5923318dcc659823),
    ("lap12/3x3/Flat/default/profiled", 0x2aa07f309c4c7630),
    ("lap12/3x3/Flat/no-nic-contention/plain", 0x840b287b254ce7f2),
    ("lap12/3x3/Flat/no-nic-contention/traced", 0x645dde0da1c3f68e),
    ("lap12/3x3/Flat/no-nic-contention/profiled", 0x6f220044390dbaa1),
    ("lap12/3x3/Flat/forward-off-core/plain", 0x7066ba92ff3b5d59),
    ("lap12/3x3/Flat/forward-off-core/traced", 0xea9f6649fbce0285),
    ("lap12/3x3/Flat/forward-off-core/profiled", 0x7ee804dbc5d3e978),
    ("lap12/3x3/Flat/zero-overhead/plain", 0x6c5bb02786ca0159),
    ("lap12/3x3/Flat/zero-overhead/traced", 0x37a6d7c00b3d8fe7),
    ("lap12/3x3/Flat/zero-overhead/profiled", 0xfecfccc9b2bcf116),
    ("lap12/3x3/Flat/delay+slowdown", 0xd67f77ae2c98fdfc),
    ("lap12/3x3/Flat/crash", 0x68aa04cdc2b5df18),
    ("lap12/3x3/Binary/default/plain", 0x1ec9b9dd7d36dc3c),
    ("lap12/3x3/Binary/default/traced", 0x5923318dcc659823),
    ("lap12/3x3/Binary/default/profiled", 0x2aa07f309c4c7630),
    ("lap12/3x3/Binary/no-nic-contention/plain", 0x840b287b254ce7f2),
    ("lap12/3x3/Binary/no-nic-contention/traced", 0x645dde0da1c3f68e),
    ("lap12/3x3/Binary/no-nic-contention/profiled", 0x6f220044390dbaa1),
    ("lap12/3x3/Binary/forward-off-core/plain", 0x7066ba92ff3b5d59),
    ("lap12/3x3/Binary/forward-off-core/traced", 0xea9f6649fbce0285),
    ("lap12/3x3/Binary/forward-off-core/profiled", 0x7ee804dbc5d3e978),
    ("lap12/3x3/Binary/zero-overhead/plain", 0x6c5bb02786ca0159),
    ("lap12/3x3/Binary/zero-overhead/traced", 0x37a6d7c00b3d8fe7),
    ("lap12/3x3/Binary/zero-overhead/profiled", 0xfecfccc9b2bcf116),
    ("lap12/3x3/Binary/delay+slowdown", 0xd67f77ae2c98fdfc),
    ("lap12/3x3/Binary/crash", 0x68aa04cdc2b5df18),
    ("lap12/3x3/ShiftedBinary/default/plain", 0xa0f10a01289d5e11),
    ("lap12/3x3/ShiftedBinary/default/traced", 0x46a3bc734f59de52),
    ("lap12/3x3/ShiftedBinary/default/profiled", 0x55b968a29f2f3e53),
    ("lap12/3x3/ShiftedBinary/no-nic-contention/plain", 0x840b287b254ce7f2),
    ("lap12/3x3/ShiftedBinary/no-nic-contention/traced", 0x5ae890f35e70fb1e),
    ("lap12/3x3/ShiftedBinary/no-nic-contention/profiled", 0x6e1146bb4b421318),
    ("lap12/3x3/ShiftedBinary/forward-off-core/plain", 0x7066ba92ff3b5d59),
    ("lap12/3x3/ShiftedBinary/forward-off-core/traced", 0x34422f067fed0be6),
    ("lap12/3x3/ShiftedBinary/forward-off-core/profiled", 0x1f40d2a5ec7b8fcc),
    ("lap12/3x3/ShiftedBinary/zero-overhead/plain", 0x6c5bb02786ca0159),
    ("lap12/3x3/ShiftedBinary/zero-overhead/traced", 0x11bd02b2c8c90d05),
    ("lap12/3x3/ShiftedBinary/zero-overhead/profiled", 0x84716c786720f416),
    ("lap12/3x3/ShiftedBinary/delay+slowdown", 0x6a04b59cfa5f330d),
    ("lap12/3x3/ShiftedBinary/crash", 0x68aa04cdc2b5df18),
    ("lap12/3x3/selinv-barriered/profiled", 0x806e334be09c9d3a),
    ("lap12/3x3/factorization/profiled", 0xc69e2727d5d9442d),
    ("lap12/4x4/Flat/default/plain", 0x689ec35dca9d9c80),
    ("lap12/4x4/Flat/default/traced", 0xf334a42afbf21596),
    ("lap12/4x4/Flat/default/profiled", 0x66349d585f4f5495),
    ("lap12/4x4/Flat/no-nic-contention/plain", 0x0967346b108469f7),
    ("lap12/4x4/Flat/no-nic-contention/traced", 0x527049144d596d76),
    ("lap12/4x4/Flat/no-nic-contention/profiled", 0xf7a0e28779ea107e),
    ("lap12/4x4/Flat/forward-off-core/plain", 0x6a2afede2f5a8988),
    ("lap12/4x4/Flat/forward-off-core/traced", 0x512704e4bc71ba13),
    ("lap12/4x4/Flat/forward-off-core/profiled", 0x5f17d2442e925d84),
    ("lap12/4x4/Flat/zero-overhead/plain", 0x29054cfad41f4cc2),
    ("lap12/4x4/Flat/zero-overhead/traced", 0x53e8d08dbd5811b5),
    ("lap12/4x4/Flat/zero-overhead/profiled", 0x96dbec8cf4bc65fa),
    ("lap12/4x4/Flat/delay+slowdown", 0x507be166ca8c7ecf),
    ("lap12/4x4/Flat/crash", 0xf8a860a93e203016),
    ("lap12/4x4/Binary/default/plain", 0x689ec35dca9d9c80),
    ("lap12/4x4/Binary/default/traced", 0xf334a42afbf21596),
    ("lap12/4x4/Binary/default/profiled", 0x66349d585f4f5495),
    ("lap12/4x4/Binary/no-nic-contention/plain", 0x0967346b108469f7),
    ("lap12/4x4/Binary/no-nic-contention/traced", 0x527049144d596d76),
    ("lap12/4x4/Binary/no-nic-contention/profiled", 0xf7a0e28779ea107e),
    ("lap12/4x4/Binary/forward-off-core/plain", 0x6a2afede2f5a8988),
    ("lap12/4x4/Binary/forward-off-core/traced", 0x512704e4bc71ba13),
    ("lap12/4x4/Binary/forward-off-core/profiled", 0x5f17d2442e925d84),
    ("lap12/4x4/Binary/zero-overhead/plain", 0x29054cfad41f4cc2),
    ("lap12/4x4/Binary/zero-overhead/traced", 0x53e8d08dbd5811b5),
    ("lap12/4x4/Binary/zero-overhead/profiled", 0x96dbec8cf4bc65fa),
    ("lap12/4x4/Binary/delay+slowdown", 0x507be166ca8c7ecf),
    ("lap12/4x4/Binary/crash", 0xf8a860a93e203016),
    ("lap12/4x4/ShiftedBinary/default/plain", 0x689ec35dca9d9c80),
    ("lap12/4x4/ShiftedBinary/default/traced", 0x881a76ed3a1d471d),
    ("lap12/4x4/ShiftedBinary/default/profiled", 0x6846669fcaf6352d),
    ("lap12/4x4/ShiftedBinary/no-nic-contention/plain", 0x0967346b108469f7),
    ("lap12/4x4/ShiftedBinary/no-nic-contention/traced", 0xa8a144888593853a),
    ("lap12/4x4/ShiftedBinary/no-nic-contention/profiled", 0xa7427d79c0b869a2),
    ("lap12/4x4/ShiftedBinary/forward-off-core/plain", 0x0533e3a6c8b4f249),
    ("lap12/4x4/ShiftedBinary/forward-off-core/traced", 0x379d484ac5d48efc),
    ("lap12/4x4/ShiftedBinary/forward-off-core/profiled", 0x5a0e9980cd4bfe42),
    ("lap12/4x4/ShiftedBinary/zero-overhead/plain", 0x4e6713de8127cdf7),
    ("lap12/4x4/ShiftedBinary/zero-overhead/traced", 0x219de9b767c1b1fc),
    ("lap12/4x4/ShiftedBinary/zero-overhead/profiled", 0xa61202ec4fae45ac),
    ("lap12/4x4/ShiftedBinary/delay+slowdown", 0x04b3c0b26df5ee9f),
    ("lap12/4x4/ShiftedBinary/crash", 0x53f3cc5ddc845692),
    ("lap12/4x4/selinv-barriered/profiled", 0xb0b25575a893fdab),
    ("lap12/4x4/factorization/profiled", 0x014a501eef4a4c07),
    ("dg/8x8/Flat/default/plain", 0xdf46cf8ee51a2e86),
    ("dg/8x8/Flat/default/traced", 0xd895bd5e4a32de58),
    ("dg/8x8/Flat/default/profiled", 0xbaff829e07bea781),
    ("dg/8x8/Flat/no-nic-contention/plain", 0x818e3e1bf7e3a54a),
    ("dg/8x8/Flat/no-nic-contention/traced", 0xd1eccfd55ee97780),
    ("dg/8x8/Flat/no-nic-contention/profiled", 0xb1a47eaf274297da),
    ("dg/8x8/Flat/forward-off-core/plain", 0xaf0c723a848209c2),
    ("dg/8x8/Flat/forward-off-core/traced", 0x960346b0727503ee),
    ("dg/8x8/Flat/forward-off-core/profiled", 0x0cb47d5baa074afa),
    ("dg/8x8/Flat/zero-overhead/plain", 0xfab2d61e19612126),
    ("dg/8x8/Flat/zero-overhead/traced", 0xb0cb1fcee68dbec6),
    ("dg/8x8/Flat/zero-overhead/profiled", 0x54a0828bdfe54013),
    ("dg/8x8/Flat/delay+slowdown", 0xa3f4bfcfbe647058),
    ("dg/8x8/Flat/crash", 0x2dd0bff2d716b5b0),
    ("dg/8x8/Binary/default/plain", 0xb983a386c79363a8),
    ("dg/8x8/Binary/default/traced", 0x9213e06f764d2ff2),
    ("dg/8x8/Binary/default/profiled", 0x4aac9606b16434ad),
    ("dg/8x8/Binary/no-nic-contention/plain", 0x70b7ef294f5a7018),
    ("dg/8x8/Binary/no-nic-contention/traced", 0x40db06692df39770),
    ("dg/8x8/Binary/no-nic-contention/profiled", 0xdf0d35124af5af5c),
    ("dg/8x8/Binary/forward-off-core/plain", 0x98e20acfff028399),
    ("dg/8x8/Binary/forward-off-core/traced", 0xe417e0e3f4c16beb),
    ("dg/8x8/Binary/forward-off-core/profiled", 0xf51fe37f92278d9f),
    ("dg/8x8/Binary/zero-overhead/plain", 0x76dc00990cb7aba4),
    ("dg/8x8/Binary/zero-overhead/traced", 0x16d531d21d8ed412),
    ("dg/8x8/Binary/zero-overhead/profiled", 0x8ac55539903cc7fa),
    ("dg/8x8/Binary/delay+slowdown", 0x1080cfd92f3197dc),
    ("dg/8x8/Binary/crash", 0x9df09ea1f66393b2),
    ("dg/8x8/ShiftedBinary/default/plain", 0x2a1737d37dfc0251),
    ("dg/8x8/ShiftedBinary/default/traced", 0xef3d9f8c8295cc4b),
    ("dg/8x8/ShiftedBinary/default/profiled", 0xdb206ffa09bcdeee),
    ("dg/8x8/ShiftedBinary/no-nic-contention/plain", 0x8aecc7ecbd0151f0),
    ("dg/8x8/ShiftedBinary/no-nic-contention/traced", 0xb2192ed48f2e1344),
    ("dg/8x8/ShiftedBinary/no-nic-contention/profiled", 0xb965d406360c0a01),
    ("dg/8x8/ShiftedBinary/forward-off-core/plain", 0x29c47fd3bdb46e2f),
    ("dg/8x8/ShiftedBinary/forward-off-core/traced", 0xb383c4c4bc6d522d),
    ("dg/8x8/ShiftedBinary/forward-off-core/profiled", 0x3277f26941b3e222),
    ("dg/8x8/ShiftedBinary/zero-overhead/plain", 0xe7ea84a16042d4c2),
    ("dg/8x8/ShiftedBinary/zero-overhead/traced", 0x217bf19b4472ada1),
    ("dg/8x8/ShiftedBinary/zero-overhead/profiled", 0x5e588d02777ca74d),
    ("dg/8x8/ShiftedBinary/delay+slowdown", 0xda139a3a50d4741e),
    ("dg/8x8/ShiftedBinary/crash", 0xf10b1f7e1901a4d4),
    ("dg/8x8/selinv-barriered/profiled", 0xa52e3d4a56526697),
    ("dg/8x8/factorization/profiled", 0xe6dd4c3a046f5900),
];
