//! Acceptance tests for the causal-observability layer: every traced run
//! in the suite — mpisim at a window of one and at wider windows,
//! chaos-seeded mpisim and the DES backend — must reconstruct into a
//! valid happens-before order (no cycles, strictly monotone Lamport
//! clocks, unique `(sender, idx)` consumption), and on the DES backend
//! the longest blame chain's wait total must telescope exactly to the
//! total late-sender wait measured in the trace.

use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_des::{simulate_profiled, simulate_traced, MachineConfig};
use pselinv_dist::taskgraph::{selinv_graph, GraphOptions, Task, TaskGraph, TaskKind};
use pselinv_dist::{distributed_selinv_traced, try_distributed_selinv_traced, DistOptions, Layout};
use pselinv_factor::LdlFactor;
use pselinv_mpisim::{Grid2D, RunOptions};
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_profile::{CausalChains, CriticalPath};
use pselinv_sparse::gen;
use pselinv_trace::{pack_task_tag, CollKind, EventKind, Trace};
use pselinv_trees::TreeScheme;
use std::sync::Arc;
use std::time::Duration;

fn small_factor() -> LdlFactor {
    let w = gen::grid_laplacian_2d(7, 7);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    pselinv_factor::factorize(&w.matrix, sf).unwrap()
}

fn opts(scheme: TreeScheme, lookahead: usize) -> DistOptions {
    DistOptions { scheme, seed: 7, threads: 1, lookahead }
}

fn assert_valid(trace: &Trace, what: &str) -> CausalChains {
    let cc = CausalChains::from_trace(trace);
    assert!(cc.is_valid(), "{what}: causal violations: {:#?}", cc.violations());
    assert!(cc.matched_edges() > 0, "{what}: no matched send/recv edges");
    cc
}

/// Sum of every late-sender wait stamped in the trace, across all ranks
/// and collective kinds.
fn total_trace_wait_us(trace: &Trace) -> u64 {
    trace
        .ranks
        .iter()
        .flat_map(|r| r.events.iter())
        .map(|e| match e.kind {
            EventKind::Wait { wait_us, .. } => wait_us,
            _ => 0,
        })
        .sum()
}

#[test]
fn sync_run_reconstructs_a_valid_causal_order() {
    let f = small_factor();
    for scheme in [TreeScheme::Flat, TreeScheme::ShiftedBinary] {
        let (_, _, trace) =
            distributed_selinv_traced(&f, Grid2D::new(2, 2), &opts(scheme, 1), "causal-sync");
        assert_valid(&trace, &format!("sync {scheme:?}"));
    }
}

#[test]
fn async_run_reconstructs_a_valid_causal_order() {
    let f = small_factor();
    for lookahead in [2usize, usize::MAX] {
        let (_, _, trace) = distributed_selinv_traced(
            &f,
            Grid2D::new(2, 3),
            &opts(TreeScheme::ShiftedBinary, lookahead),
            "causal-async",
        );
        // The async engine reorders communication aggressively; the causal
        // layer must still linearize it without contradiction.
        assert_valid(&trace, &format!("async lookahead={lookahead}"));
    }
}

#[test]
fn chaos_runs_reconstruct_valid_causal_orders() {
    let f = small_factor();
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::new(seed).with_default(FaultSpec {
            delay_us: 40,
            jitter_us: 40,
            duplicate_permille: 250,
            reorder_permille: 250,
            ..FaultSpec::default()
        });
        let run_opts = RunOptions {
            watchdog: Some(Duration::from_secs(30)),
            poll: Duration::from_millis(2),
            faults: Some(plan),
            telemetry: None,
            ..RunOptions::default()
        };
        let (_, _, trace) = try_distributed_selinv_traced(
            &f,
            Grid2D::new(2, 2),
            &opts(TreeScheme::ShiftedBinary, 2),
            &run_opts,
            "causal-chaos",
        )
        .expect("crash-free chaos plan must complete");
        assert_valid(&trace, &format!("chaos seed {seed}"));
    }
}

/// A machine with no latency, jitter or overheads: transfers of a few
/// bytes land in the same microsecond they are sent, so every late start
/// is pure late-sender wait.
fn flat_cfg() -> MachineConfig {
    MachineConfig {
        ranks_per_node: 1,
        jitter: 0.0,
        msg_overhead: 0.0,
        task_overhead: 0.0,
        latency_intra: 0.0,
        latency_inter: 0.0,
        cpu_per_msg: 0.0,
        nic_per_node: false,
        ..Default::default()
    }
}

/// Hand-built graph: tasks as `(rank, flops, coll)`, edges as
/// `(from, to, bytes)`.
fn graph(nranks: usize, tasks: &[(usize, f64, CollKind)], edges: &[(u32, u32, u64)]) -> TaskGraph {
    let tasks = tasks
        .iter()
        .map(|&(r, f, c)| Task::new(r, f, 0, TaskKind::Compute, pack_task_tag(c, 0)))
        .collect();
    TaskGraph::from_edge_list(nranks, tasks, edges)
}

/// The telescoping identity on the DES backend: on a serial cross-rank
/// chain every task's wait has a message cause and the blame links join
/// end-to-end, so the longest chain's wait total equals the *entire*
/// late-sender wait measured in the trace — no wait is unexplained and
/// none is double-counted.
#[test]
fn des_longest_chain_telescopes_to_total_late_sender_wait() {
    // A0 -> B1 -> C0 -> D1: 1-second tasks ping-ponging between two
    // ranks. Each receiving rank goes idle the moment its previous task
    // ends, so each hop contributes exactly one second of late-sender
    // wait with a recorded message cause.
    let g = graph(
        2,
        &[
            (0, 10e9, CollKind::Compute),
            (1, 10e9, CollKind::ColBcast),
            (0, 10e9, CollKind::RowReduce),
            (1, 10e9, CollKind::DiagReduce),
        ],
        &[(0, 1, 8), (1, 2, 8), (2, 3, 8)],
    );
    let (res, trace, prof) = simulate_profiled(&g, flat_cfg(), "causal-des", &[]);
    assert!((res.makespan - 4.0).abs() < 1e-6, "makespan {}", res.makespan);

    let cc = assert_valid(&trace, "des serial chain");
    let longest = cc.longest().expect("chain exists");
    let total = total_trace_wait_us(&trace);
    assert!(total > 0, "chain must accumulate real wait");
    assert_eq!(
        longest.wait_us(),
        total,
        "longest blame chain must telescope to the full measured late-sender wait"
    );
    assert_eq!(longest.links.len(), 3, "one blame link per cross-rank hop");
    // The chain visits the ranks in the reverse of the schedule's hops,
    // matching the critical path's rank sequence.
    let cp = CriticalPath::extract(&g, &prof);
    let mut chain_ranks: Vec<u32> = longest.rank_sequence().iter().map(|&r| r as u32).collect();
    chain_ranks.reverse();
    let cp_ranks = cp.rank_sequence();
    assert!(
        cp_ranks.windows(chain_ranks.len()).any(|w| w == chain_ranks.as_slice())
            || chain_ranks == cp_ranks,
        "chain ranks {chain_ranks:?} must appear along the critical path {cp_ranks:?}"
    );
}

#[test]
fn des_traced_run_on_real_taskgraph_is_valid() {
    let f = small_factor();
    let layout = Layout::new(f.symbolic.clone(), Grid2D::new(2, 2));
    let g = selinv_graph(&layout, &GraphOptions::default());
    let (_, trace) = simulate_traced(&g, MachineConfig::default(), "causal-des-real");
    assert_valid(&trace, "des real taskgraph");
}
