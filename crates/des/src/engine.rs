//! The event-driven execution engine.

use crate::machine::{MachineConfig, Topology};
use crate::queue::{EventKind, EventQueue};
use pselinv_chaos::FaultPlan;
use pselinv_dist::taskgraph::{TaskGraph, TaskId, TaskKind};
use pselinv_trace::{collect, unpack_task_tag, RankTracer, Trace};
use std::collections::BinaryHeap;

/// Result of one simulated run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Wall-clock makespan (seconds).
    pub makespan: f64,
    /// Per-rank time spent executing compute-kind tasks.
    pub compute_busy: Vec<f64>,
    /// Per-rank count of executed tasks.
    pub tasks_run: Vec<u64>,
    /// Total messages transferred.
    pub messages: u64,
    /// Total bytes transferred.
    pub bytes: u64,
}

impl SimResult {
    /// Mean per-rank compute time.
    pub fn compute_time_mean(&self) -> f64 {
        self.compute_busy.iter().sum::<f64>() / self.compute_busy.len() as f64
    }

    /// Mean per-rank "communication" time: makespan minus compute busy
    /// time (transfer + wait), the quantity Fig. 9 stacks against
    /// computation.
    pub fn comm_time_mean(&self) -> f64 {
        self.makespan - self.compute_time_mean()
    }

    /// Communication-to-computation ratio (paper §IV-B quotes 11.8 → 1.9
    /// at P = 4,096 for Flat vs Shifted).
    pub fn comm_to_comp(&self) -> f64 {
        self.comm_time_mean() / self.compute_time_mean().max(1e-30)
    }
}

/// The event that determined a task's start time in the simulated
/// schedule, recorded by [`simulate_profiled`]. Walking these backward
/// from the makespan-defining task yields the schedule's critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CritPred {
    /// The task was ready at time 0 (no binding predecessor).
    None,
    /// A zero-byte dependency edge from this task satisfied the last
    /// dependency.
    Dep(TaskId),
    /// A message from `src_task` satisfied the last dependency; it was
    /// injected at `sent_us` and fully delivered at `deliver_us`.
    Msg { src_task: TaskId, sent_us: u64, deliver_us: u64 },
    /// The task was ready earlier, but its rank's core was still occupied
    /// by this previously-dispatched task (or its send stalls).
    RankPrev(TaskId),
}

/// Schedule profile of one simulated run: per-task timestamps plus the
/// binding predecessor of every task. Produced by [`simulate_profiled`]
/// and consumed by the critical-path extractor in `pselinv-profile`.
#[derive(Clone, Debug, Default)]
pub struct SimProfile {
    /// Task start times (µs, simulated clock).
    pub task_start_us: Vec<u64>,
    /// Task end times (µs).
    pub task_end_us: Vec<u64>,
    /// Time each task's final dependency was satisfied (µs).
    pub task_ready_us: Vec<u64>,
    /// Binding predecessor of each task (see [`CritPred`]).
    pub pred: Vec<CritPred>,
}

impl SimProfile {
    fn new(n: usize) -> Self {
        Self {
            task_start_us: vec![0; n],
            task_end_us: vec![0; n],
            task_ready_us: vec![0; n],
            pred: vec![CritPred::None; n],
        }
    }

    /// End time (µs) of the last task executed on each of `nranks` ranks
    /// (0 for ranks that ran nothing).
    pub fn rank_end_us(&self, graph: &TaskGraph) -> Vec<u64> {
        let mut end = vec![0u64; graph.nranks];
        for (t, &e) in self.task_end_us.iter().enumerate() {
            let r = graph.tasks()[t].rank as usize;
            end[r] = end[r].max(e);
        }
        end
    }
}

/// Per-rank ready queue ordered by (priority, task id).
#[derive(Default)]
struct ReadyQueue(BinaryHeap<std::cmp::Reverse<(i32, TaskId)>>);

impl ReadyQueue {
    fn push(&mut self, prio: i32, t: TaskId) {
        self.0.push(std::cmp::Reverse((prio, t)));
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.0.pop().map(|std::cmp::Reverse((_, t))| t)
    }
}

/// Outcome of a simulation under a fault plan: the usual metrics plus how
/// much of the task graph actually completed. A rank that goes down
/// freezes the entire dependency cone behind it, so `completed < total`
/// quantifies the blast radius of a failure in a given tree topology.
#[derive(Clone, Debug)]
pub struct FaultSimResult {
    /// Metrics over the tasks that did run (makespan is the time the last
    /// surviving task finished).
    pub result: SimResult,
    /// Number of tasks that completed.
    pub completed: usize,
    /// Total tasks in the graph.
    pub total: usize,
}

impl FaultSimResult {
    /// Fraction of the task graph that completed.
    pub fn completed_frac(&self) -> f64 {
        self.completed as f64 / self.total.max(1) as f64
    }

    /// Whether every task ran (always true under a crash-free plan).
    pub fn is_complete(&self) -> bool {
        self.completed == self.total
    }
}

/// Simulates the execution of `graph` on a machine described by `cfg`.
pub fn simulate(graph: &TaskGraph, cfg: MachineConfig) -> SimResult {
    simulate_impl(graph, cfg, &mut [], None, None).0
}

/// [`simulate`] under a deterministic fault plan.
///
/// Fault semantics in simulated time:
///
/// * `slowdown` multiplies every task duration on the affected rank — a
///   straggler node;
/// * `delay_us`/`jitter_us` add seed-deterministic in-flight time to every
///   message leaving the affected rank;
/// * `stall_at_s`/`crash_at_s` take the rank down at that simulated time:
///   it dispatches no further tasks, emits no further messages (tasks
///   already executing still finish, like an MPI process whose pending
///   DMA drains), and messages arriving at it are dropped.
///
/// The run never asserts on an incomplete graph — a crashed rank freezes
/// its dependency cone and the remainder is reported via
/// [`FaultSimResult::completed`].
pub fn simulate_with_faults(
    graph: &TaskGraph,
    cfg: MachineConfig,
    plan: &FaultPlan,
) -> FaultSimResult {
    let (result, completed) = simulate_impl(graph, cfg, &mut [], None, Some(plan));
    FaultSimResult { result, completed, total: graph.num_tasks() }
}

/// Like [`simulate`], but also records a [`Trace`] in simulated time: one
/// span per executed task (labelled by the `(CollKind, supernode)` packed
/// into the task's `tag`) plus send/arrive instants for every message edge
/// — the same event vocabulary the traced mpisim runtime emits, so both
/// backends can be viewed with the same tooling. Blocked
/// time is stamped with the shared wait-state vocabulary: core-idle gaps
/// before a task become late-sender wait spans of that task's kind, and
/// the simulated in-flight time of every consumed message becomes
/// transfer time of the destination task's kind.
pub fn simulate_traced(graph: &TaskGraph, cfg: MachineConfig, label: &str) -> (SimResult, Trace) {
    simulate_traced_with_meta(graph, cfg, label, &[])
}

/// [`simulate_traced`] with caller-supplied run metadata (scheme, grid,
/// seed, …) attached to the trace, so exported reports are
/// self-describing. The engine always records `backend`, `ranks`, `tasks`
/// and `machine_seed` itself.
pub fn simulate_traced_with_meta(
    graph: &TaskGraph,
    cfg: MachineConfig,
    label: &str,
    meta: &[(&str, String)],
) -> (SimResult, Trace) {
    let mut tracers: Vec<RankTracer> = (0..graph.nranks).map(RankTracer::manual).collect();
    let (res, _) = simulate_impl(graph, cfg, &mut tracers, None, None);
    let trace = collect(label, tracers).expect("traced simulation has at least one rank");
    (res, attach_run_meta(trace, graph, &cfg, meta))
}

/// Like [`simulate_traced_with_meta`], but additionally records the
/// schedule profile ([`SimProfile`]) needed for critical-path extraction.
pub fn simulate_profiled(
    graph: &TaskGraph,
    cfg: MachineConfig,
    label: &str,
    meta: &[(&str, String)],
) -> (SimResult, Trace, SimProfile) {
    let mut tracers: Vec<RankTracer> = (0..graph.nranks).map(RankTracer::manual).collect();
    let mut profile = SimProfile::new(graph.num_tasks());
    let (res, _) = simulate_impl(graph, cfg, &mut tracers, Some(&mut profile), None);
    let trace = collect(label, tracers).expect("traced simulation has at least one rank");
    (res, attach_run_meta(trace, graph, &cfg, meta), profile)
}

fn attach_run_meta(
    mut trace: Trace,
    graph: &TaskGraph,
    cfg: &MachineConfig,
    meta: &[(&str, String)],
) -> Trace {
    trace.set_meta("backend", "des");
    trace.set_meta("ranks", graph.nranks.to_string());
    trace.set_meta("tasks", graph.num_tasks().to_string());
    trace.set_meta("machine_seed", cfg.seed.to_string());
    for (k, v) in meta {
        trace.set_meta(*k, v.clone());
    }
    trace
}

/// Simulated seconds → trace microseconds. All trace/profile timestamps
/// go through this single conversion so span, wait and profile boundary
/// values computed from the same `f64` instant are bit-identical, which
/// is what makes the per-rank accounting identity exact.
fn us(t: f64) -> u64 {
    (t * 1e6) as u64
}

/// What a message carried when it was sent — needed only by tracers and
/// the profile, so it lives in a per-edge side array (an edge carries at
/// most one message per run) that unobserved runs never allocate.
#[derive(Clone, Copy, Default)]
struct Sent {
    /// Injection time at the source (for transfer/wait accounting).
    at: f64,
    /// Sender's Lamport clock at the send.
    clock: u64,
    /// Sender's monotonic send index.
    idx: u64,
}

/// Hints that `*r` is about to be read. The engine walks a task graph far
/// larger than the cache in an order only the event queue knows, so most
/// of its first touches miss; this is how it starts a load early without
/// waiting for it. A no-op where the target has no stable prefetch.
#[inline(always)]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is unsafe only for requiring SSE, which every
    // x86_64 target has; a prefetch changes no architectural state and
    // cannot fault, and this address is that of a live reference.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(r).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// The one event loop of the crate: every `simulate*` entry point is this
/// function with or without tracers, a profile and a fault plan.
fn simulate_impl(
    graph: &TaskGraph,
    cfg: MachineConfig,
    tracers: &mut [RankTracer],
    mut profile: Option<&mut SimProfile>,
    plan: Option<&FaultPlan>,
) -> (SimResult, usize) {
    if let Err(why) = cfg.check() {
        panic!("invalid MachineConfig: {why}");
    }
    let tasks = graph.tasks();
    let edges = graph.edges();
    let n = tasks.len();
    let p = graph.nranks;
    let topo = Topology::new(p, cfg);

    let mut deps: Vec<u32> = graph.deps().to_vec();
    let mut ready: Vec<ReadyQueue> = (0..p).map(|_| ReadyQueue::default()).collect();
    let mut rank_busy_until = vec![0.0f64; p];
    let mut rank_running: Vec<bool> = vec![false; p];
    // Two-level NIC model: every rank injects its sends serially (an MPI
    // rank issues sends one at a time — this is what makes a flat-tree
    // root a hot spot), and optionally all ranks of a node share one
    // aggregate node NIC for inter-node traffic.
    let nodes = p.div_ceil(cfg.ranks_per_node);
    let node_of = |rank: usize| -> usize { rank / cfg.ranks_per_node };
    let node_bw = cfg.bw_inter * cfg.node_bw_factor;
    let mut rank_send_free = vec![0.0f64; p];
    let mut rank_recv_free = vec![0.0f64; p];
    let mut node_send_free = vec![0.0f64; nodes];
    let mut node_recv_free = vec![0.0f64; nodes];
    let mut compute_busy = vec![0.0f64; p];
    let mut tasks_run = vec![0u64; p];
    let mut messages = 0u64;
    let mut bytes_total = 0u64;

    let mut queue = EventQueue::default();
    for t in 0..n as u32 {
        if deps[t as usize] == 0 {
            queue.push(0.0, EventKind::Ready, t, 0);
        }
    }

    let mut makespan = 0.0f64;
    let mut done = 0usize;

    // Everything below exists for the observers only and is neither
    // allocated nor written on a plain run.
    let traced = !tracers.is_empty();
    let profiled = profile.is_some();
    let observed = traced || profiled;
    let when = |on: bool, len: usize| if on { len } else { 0 };
    let mut sent: Vec<Sent> = vec![Sent::default(); when(observed, edges.len())];

    // Critical-path bookkeeping: the time each task became ready (exact
    // simulated seconds, for the binding-predecessor decision) and the
    // last task dispatched on each rank's core.
    let mut ready_at = vec![0.0f64; when(profiled, n)];
    let mut last_on_rank: Vec<Option<TaskId>> = vec![None; when(profiled, p)];

    // Causal stamps, mirroring the mpisim runtime: a per-rank Lamport
    // clock (ticked at send, merged `max + 1` at the consuming receive)
    // and a per-rank monotonic send counter, so `(rank, idx)` names each
    // simulated message. `cause[t]` remembers which message satisfied
    // task `t`'s final dependency — the provenance a later wait span on
    // that task blames.
    let mut lamport = vec![0u64; when(traced, p)];
    let mut sendno = vec![0u64; when(traced, p)];
    let mut cause: Vec<Option<(usize, u64)>> = vec![None; when(traced, n)];

    // Dispatch the next ready task on `rank` if it is idle.
    macro_rules! dispatch {
        ($rank:expr, $now:expr) => {{
            let r = $rank;
            // A rank that is down dispatches nothing more; its ready queue
            // simply freezes (the cone behind it never completes).
            if !rank_running[r] && !plan.is_some_and(|p| p.down_at(r, $now)) {
                if let Some(t) = ready[r].pop() {
                    let task = &tasks[t as usize];
                    rank_running[r] = true;
                    // A straggler rank runs everything `slowdown`× slower.
                    let slow = plan.map_or(1.0, |p| p.slowdown(r).max(0.0));
                    let dur = (task.flops / cfg.flops_per_sec + cfg.task_overhead) * slow;
                    // The core has been idle since `idle_from` (its last
                    // reservation): any gap before `start` is wait time
                    // attributed to this task's kind.
                    let idle_from = rank_busy_until[r];
                    let start = $now.max(idle_from);
                    let end = start + dur;
                    rank_busy_until[r] = end;
                    if task.kind == TaskKind::Compute {
                        compute_busy[r] += dur;
                    }
                    tasks_run[r] += 1;
                    if traced {
                        let (coll, sn) = unpack_task_tag(task.tag);
                        if us(start) > us(idle_from) {
                            tracers[r].wait_at(
                                coll,
                                sn as u64,
                                us(idle_from),
                                us(start),
                                cause[t as usize],
                            );
                        }
                        tracers[r].span_at(coll, sn as u64, us(start), us(end));
                    }
                    if let Some(prof) = profile.as_deref_mut() {
                        prof.task_start_us[t as usize] = us(start);
                        prof.task_end_us[t as usize] = us(end);
                        // If the rank's core (not the dependency) bound the
                        // start time, the binding predecessor is whatever
                        // the core was last running.
                        if idle_from > ready_at[t as usize] {
                            if let Some(prev) = last_on_rank[r] {
                                prof.pred[t as usize] = CritPred::RankPrev(prev);
                            }
                        }
                        last_on_rank[r] = Some(t);
                    }
                    queue.push(end, EventKind::TaskDone, t, task.edge_range().start as u32);
                }
            }
        }};
    }

    // Forwarding tasks model the MPI progress engine: they relay a message
    // without occupying the compute core (the NIC occupancy of the relayed
    // message is still charged when their out-edges are processed).
    let is_forward = |kind: TaskKind| !cfg.forward_on_core && kind == TaskKind::Forward;

    while let Some(ev) = queue.pop() {
        let time = ev.time;
        // Whatever fires next, its records are a cache miss away: start
        // loading them while this event is handled. Every event names a
        // task in `a` and an edge in `b` (0 where it has none), so this
        // needs no branch on the kind.
        if let Some(next) = queue.peek() {
            prefetch(&tasks[next.a as usize]);
            if let Some(edge) = edges.get(next.b as usize) {
                prefetch(edge);
            }
        }
        match ev.kind() {
            EventKind::Ready => {
                let t = ev.a;
                let task = &tasks[t as usize];
                let r = task.rank as usize;
                if plan.is_some_and(|p| p.down_at(r, time)) {
                    // The task's rank is down: it never executes.
                    continue;
                }
                if is_forward(task.kind) {
                    // executes off-core, immediately
                    tasks_run[r] += 1;
                    if traced {
                        let (coll, sn) = unpack_task_tag(task.tag);
                        tracers[r].span_at(coll, sn as u64, us(time), us(time + cfg.task_overhead));
                    }
                    if let Some(prof) = profile.as_deref_mut() {
                        prof.task_start_us[t as usize] = us(time);
                        prof.task_end_us[t as usize] = us(time + cfg.task_overhead);
                    }
                    queue.push(
                        time + cfg.task_overhead,
                        EventKind::TaskDone,
                        t,
                        task.edge_range().start as u32,
                    );
                } else {
                    ready[r].push(task.prio, t);
                    dispatch!(r, time);
                }
            }
            EventKind::TaskDone => {
                let t = ev.a;
                let task = &tasks[t as usize];
                let r = task.rank as usize;
                if !is_forward(task.kind) {
                    rank_running[r] = false;
                }
                makespan = makespan.max(time);
                done += 1;
                if plan.is_some_and(|p| p.down_at(r, time)) {
                    // The rank went down while this task was executing: the
                    // task itself finishes (in-flight work drains) but its
                    // results never leave the node.
                    continue;
                }
                let sent_before = messages;
                for e in task.edge_range() {
                    let edge = edges[e];
                    let (s, b) = (edge.succ, edge.bytes);
                    if b == 0 {
                        // pure dependency (possibly cross-rank barrier edge)
                        deps[s as usize] -= 1;
                        if deps[s as usize] == 0 {
                            if let Some(prof) = profile.as_deref_mut() {
                                ready_at[s as usize] = time;
                                prof.task_ready_us[s as usize] = us(time);
                                prof.pred[s as usize] = CritPred::Dep(t);
                            }
                            // Fires within this instant, after what is
                            // already queued for it.
                            prefetch(&tasks[s as usize]);
                            queue.push(time, EventKind::Ready, s, 0);
                        }
                    } else {
                        let dst = edge.dst_rank as usize;
                        messages += 1;
                        bytes_total += b;
                        if observed {
                            let mut stamp = Sent { at: time, clock: 0, idx: 0 };
                            if traced {
                                // The message is attributed to the phase of
                                // the task it feeds (the collective that
                                // routed it).
                                let tag = tasks[s as usize].tag;
                                let (coll, _) = unpack_task_tag(tag);
                                lamport[r] += 1;
                                stamp.clock = lamport[r];
                                stamp.idx = sendno[r];
                                sendno[r] += 1;
                                tracers[r].set_time_us(us(time));
                                tracers[r].msg_send_as(
                                    coll,
                                    dst,
                                    tag as u64,
                                    b,
                                    stamp.clock,
                                    stamp.idx,
                                );
                            }
                            sent[e] = stamp;
                        }
                        let tt = topo.transfer_time(r, dst, b);
                        let arrive = if cfg.nic_contention {
                            // per-rank injection serialization
                            let st = time.max(rank_send_free[r]);
                            rank_send_free[r] = st + tt;
                            let injected = st + tt;
                            if cfg.nic_per_node && !topo.same_node(r, dst) {
                                // shared node NIC for inter-node traffic
                                let ntt = b as f64 / node_bw * topo.pair_cost_factor(r, dst);
                                let nn = node_of(r);
                                let ns = injected.max(node_send_free[nn]);
                                node_send_free[nn] = ns + ntt;
                                ns + ntt + topo.latency(r, dst)
                            } else {
                                injected + topo.latency(r, dst)
                            }
                        } else {
                            time + tt + topo.latency(r, dst)
                        };
                        // Seed-deterministic injected network delay: the
                        // global message counter doubles as the draw
                        // sequence number (event order is deterministic).
                        let arrive = arrive + plan.map_or(0.0, |p| p.delay_s(r, dst, messages));
                        // Injected loss: the send happened (its NIC/wire
                        // occupancy and volume accounting stand), but the
                        // arrival is never scheduled — the DES has no
                        // retransmitting transport, so the destination
                        // task's dependency cone is stranded, exactly the
                        // non-benign semantics `FaultSpec::is_benign`
                        // assigns to loss on a raw transport.
                        if plan.is_some_and(|p| p.drops(r, dst, messages)) {
                            continue;
                        }
                        queue.push(arrive, EventKind::Arrive, t, e as u32);
                    }
                }
                // CPU cost of issuing this task's sends, dropped ones too:
                // stalls the core (flat-tree roots issue many sends back to
                // back). Nothing above reads the core's reservation.
                let nmsgs = messages - sent_before;
                if cfg.cpu_per_msg > 0.0 && nmsgs > 0 {
                    rank_busy_until[r] =
                        rank_busy_until[r].max(time) + cfg.cpu_per_msg * nmsgs as f64;
                }
                dispatch!(r, time);
            }
            EventKind::Arrive => {
                let (src_task, e) = (ev.a, ev.b as usize);
                let edge = edges[e];
                let (dst_task, bytes, dst) = (edge.succ, edge.bytes, edge.dst_rank as usize);
                if plan.is_some_and(|p| p.down_at(dst, time)) {
                    // Delivery to a dead rank: the message is lost and the
                    // destination task's dependency is never satisfied.
                    continue;
                }
                let src = tasks[src_task as usize].rank as usize;
                let deliver = if cfg.nic_contention {
                    let mut t = time;
                    if cfg.nic_per_node && !topo.same_node(src, dst) {
                        let ntt = bytes as f64 / node_bw * topo.pair_cost_factor(src, dst);
                        let nn = node_of(dst);
                        let d = t.max(node_recv_free[nn]) + ntt;
                        node_recv_free[nn] = d;
                        t = d;
                    }
                    // per-rank receive drain
                    let tt = topo.transfer_time(src, dst, bytes);
                    let d = t.max(rank_recv_free[dst]) + tt;
                    rank_recv_free[dst] = d;
                    d
                } else {
                    time
                };
                if traced {
                    let tag = tasks[dst_task as usize].tag;
                    let (coll, _) = unpack_task_tag(tag);
                    lamport[dst] = lamport[dst].max(sent[e].clock) + 1;
                    tracers[dst].set_time_us(us(deliver));
                    tracers[dst].msg_recv_as(
                        coll,
                        src,
                        tag as u64,
                        bytes,
                        lamport[dst],
                        sent[e].idx,
                    );
                    // Simulated in-flight time of the message, attributed
                    // to the kind of the task that consumes it.
                    tracers[dst].transfer_as(coll, us(deliver).saturating_sub(us(sent[e].at)));
                }
                deps[dst_task as usize] -= 1;
                if deps[dst_task as usize] == 0 {
                    if traced {
                        cause[dst_task as usize] = Some((src, sent[e].idx));
                    }
                    if let Some(prof) = profile.as_deref_mut() {
                        ready_at[dst_task as usize] = deliver;
                        prof.task_ready_us[dst_task as usize] = us(deliver);
                        prof.pred[dst_task as usize] = CritPred::Msg {
                            src_task,
                            sent_us: us(sent[e].at),
                            deliver_us: us(deliver),
                        };
                    }
                    queue.push(deliver, EventKind::Ready, dst_task, 0);
                } else {
                    // ensure makespan accounting continues even if this was
                    // not the final dependency
                    makespan = makespan.max(deliver);
                }
            }
        }
    }

    if plan.is_none_or(FaultPlan::is_crash_free) {
        assert_eq!(done, n, "deadlock: {done}/{n} tasks completed");
    }
    (SimResult { makespan, compute_busy, tasks_run, messages, bytes: bytes_total }, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_dist::taskgraph::{selinv_graph, GraphOptions};
    use pselinv_dist::Layout;
    use pselinv_mpisim::Grid2D;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;
    use pselinv_trees::TreeScheme;
    use std::sync::Arc;

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

    /// Hand-built graphs for engine unit tests.
    mod toy {
        use pselinv_dist::taskgraph::{Task, TaskGraph, TaskKind};
        use pselinv_trace::{pack_task_tag, CollKind};

        #[derive(Default)]
        pub struct Builder {
            tasks: Vec<Task>,
            edges: Vec<(u32, u32, u64)>,
        }

        impl Builder {
            pub fn new() -> Self {
                Self::default()
            }

            pub fn task(&mut self, rank: usize, flops: f64) -> u32 {
                let tag = pack_task_tag(CollKind::Compute, 0);
                self.tasks.push(Task::new(rank, flops, 0, TaskKind::Compute, tag));
                (self.tasks.len() - 1) as u32
            }

            pub fn edge(&mut self, a: u32, b: u32, bytes: u64) {
                self.edges.push((a, b, bytes));
            }

            pub fn build(self, nranks: usize) -> TaskGraph {
                TaskGraph::from_edge_list(nranks, self.tasks, &self.edges)
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid MachineConfig: flops_per_sec is 0")]
    fn a_bad_machine_is_rejected_at_entry() {
        let mut b = toy::Builder::new();
        b.task(0, 1e9);
        simulate(&b.build(1), MachineConfig { flops_per_sec: 0.0, ..flat_cfg() });
    }

    #[test]
    fn serial_tasks_sum_up() {
        let mut b = toy::Builder::new();
        let t1 = b.task(0, 10e9); // 1 s at 10 GF/s
        let t2 = b.task(0, 20e9); // 2 s
        b.edge(t1, t2, 0);
        let g = b.build(1);
        let r = simulate(&g, flat_cfg());
        assert!((r.makespan - 3.0).abs() < 1e-9, "makespan {}", r.makespan);
        assert!((r.compute_busy[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_tasks_overlap() {
        let mut b = toy::Builder::new();
        b.task(0, 10e9);
        b.task(1, 10e9);
        let g = b.build(2);
        let r = simulate(&g, flat_cfg());
        assert!((r.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn message_adds_transfer_time() {
        let mut b = toy::Builder::new();
        let t1 = b.task(0, 10e9);
        let t2 = b.task(1, 10e9);
        b.edge(t1, t2, 3_000_000_000); // 1 s on the wire at 3 GB/s, twice (send+recv NIC)
        let g = b.build(2);
        let r = simulate(&g, flat_cfg());
        // 1 s compute + 2 s transfer (store-and-forward send + recv) + 1 s compute
        assert!((r.makespan - 4.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn send_nic_serializes_fanout() {
        // Root sends to 8 children directly: last child can only start
        // after 8 serialized sends.
        let mut b = toy::Builder::new();
        let root = b.task(0, 0.0);
        for i in 1..=8 {
            let c = b.task(i, 0.0);
            b.edge(root, c, 3_000_000_000); // 1 s each on the send NIC
        }
        let g = b.build(9);
        let r = simulate(&g, flat_cfg());
        assert!(r.makespan >= 8.0, "fan-out not serialized: {}", r.makespan);
        // Without contention the same graph finishes in ~2 s.
        let mut cfg = flat_cfg();
        cfg.nic_contention = false;
        let r2 = simulate(&g, cfg);
        assert!(r2.makespan < 2.5, "no-contention run too slow: {}", r2.makespan);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let w = gen::grid_laplacian_2d(12, 12);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(4, 4));
        let g = selinv_graph(&layout, &GraphOptions::default());
        let cfg = MachineConfig { seed: 5, ..Default::default() };
        let a = simulate(&g, cfg);
        let b = simulate(&g, cfg);
        assert_eq!(a.makespan, b.makespan);
        assert!(a.makespan > 0.0);
    }

    #[test]
    fn jitter_produces_run_to_run_variation() {
        let w = gen::grid_laplacian_2d(16, 16);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(6, 6));
        let g = selinv_graph(&layout, &GraphOptions::default());
        let times: Vec<f64> = (0..5)
            .map(|s| {
                simulate(&g, MachineConfig { seed: s, ranks_per_node: 4, ..Default::default() })
                    .makespan
            })
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "expected run-to-run variation, got {times:?}");
    }

    #[test]
    fn all_selinv_tasks_complete_on_every_scheme() {
        let w = gen::grid_laplacian_2d(12, 10);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(3, 4));
        for scheme in [TreeScheme::Flat, TreeScheme::Binary, TreeScheme::ShiftedBinary] {
            let g = selinv_graph(&layout, &GraphOptions { scheme, ..Default::default() });
            let r = simulate(&g, MachineConfig::default());
            assert_eq!(r.tasks_run.iter().sum::<u64>() as usize, g.num_tasks(), "{scheme:?}");
            assert_eq!(r.bytes, g.total_message_bytes());
        }
    }

    #[test]
    fn traced_sim_matches_untraced_and_volume_replay() {
        use pselinv_dist::volume::replay_volumes;
        use pselinv_trace::CollKind;
        use pselinv_trees::TreeBuilder;
        let w = gen::grid_laplacian_2d(12, 12);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(3, 3));
        for scheme in [TreeScheme::Flat, TreeScheme::ShiftedBinary] {
            let opts = GraphOptions { scheme, ..Default::default() };
            let g = selinv_graph(&layout, &opts);
            let cfg = MachineConfig { seed: 3, ..Default::default() };
            let plain = simulate(&g, cfg);
            let (traced, trace) = simulate_traced(&g, cfg, "des/unit");
            // Tracing must not perturb the simulation.
            assert_eq!(plain.makespan, traced.makespan, "{scheme:?}");
            assert_eq!(plain.messages, traced.messages);
            // Every task became a span; every message edge a send event.
            let spans: u64 = trace
                .ranks
                .iter()
                .map(|r| CollKind::ALL.iter().map(|&k| r.metrics.kind(k).spans).sum::<u64>())
                .sum();
            assert_eq!(spans as usize, g.num_tasks(), "{scheme:?}");
            let sent: u64 = trace.ranks.iter().map(|r| r.metrics.total_sent_msgs()).sum();
            assert_eq!(sent, traced.messages);
            // Per-rank Col-Bcast bytes agree with the structural replay —
            // the same acceptance check the mpisim tracer meets.
            let rep = replay_volumes(&layout, TreeBuilder::new(opts.scheme, opts.seed));
            assert_eq!(trace.sent_bytes(CollKind::ColBcast), rep.col_bcast_sent, "{scheme:?}");
            assert_eq!(
                trace.recv_bytes(CollKind::RowReduce),
                rep.row_reduce_received,
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn wait_spans_telescope_to_rank_end() {
        // On a deterministic machine (no jitter, cpu_per_msg = 0,
        // forward-on-core) every instant on a rank's timeline between 0
        // and its last task end is either inside a task span or inside a
        // wait span, so the two totals telescope exactly to the rank's
        // end time. This is the per-rank accounting identity from the
        // acceptance criteria: wait + transfer + compute covers the
        // traced time with nothing unexplained.
        let w = gen::grid_laplacian_2d(12, 12);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(3, 3));
        for scheme in [TreeScheme::Flat, TreeScheme::ShiftedBinary] {
            let g = selinv_graph(&layout, &GraphOptions { scheme, ..Default::default() });
            let (res, trace, prof) = simulate_profiled(&g, flat_cfg(), "des/telescope", &[]);
            let rank_end = prof.rank_end_us(&g);
            for (i, r) in trace.ranks.iter().enumerate() {
                let accounted = r.metrics.total_span_time_us() + r.metrics.total_wait_us();
                assert_eq!(
                    accounted, rank_end[i],
                    "{scheme:?} rank {i}: span+wait {accounted} != end {}",
                    rank_end[i]
                );
            }
            let last = *rank_end.iter().max().unwrap();
            assert_eq!(last, super::us(res.makespan), "{scheme:?}");
        }
    }

    #[test]
    fn message_transfer_time_is_attributed() {
        // Same graph as message_adds_transfer_time: 1 s compute, 2 s on
        // the wire (send NIC + recv NIC store-and-forward), 1 s compute.
        // The receiver must book ~2 s of transfer and its blocked gap
        // (3 s: from t=0 to the delivery) as wait.
        let mut b = toy::Builder::new();
        let t1 = b.task(0, 10e9);
        let t2 = b.task(1, 10e9);
        b.edge(t1, t2, 3_000_000_000);
        let g = b.build(2);
        let (res, trace, prof) = simulate_profiled(&g, flat_cfg(), "des/xfer", &[]);
        assert!((res.makespan - 4.0).abs() < 1e-6);
        let rcv = &trace.ranks[1].metrics;
        let xfer = rcv.total_transfer_us();
        assert!((1_999_000..=2_001_000).contains(&xfer), "transfer_us {xfer}");
        let wait = rcv.total_wait_us();
        assert!((2_999_000..=3_001_000).contains(&wait), "wait_us {wait}");
        // The receiving task's binding predecessor is the message.
        match prof.pred[1] {
            CritPred::Msg { src_task, sent_us, deliver_us } => {
                assert_eq!(src_task, 0);
                assert!(deliver_us > sent_us);
                assert_eq!(deliver_us, prof.task_start_us[1]);
            }
            other => panic!("expected Msg predecessor, got {other:?}"),
        }
    }

    #[test]
    fn serial_chain_binds_through_rank_prev_or_dep() {
        // A serial chain on one rank: every task's predecessor chain must
        // walk back to task 0 at time 0 with no unexplained gaps.
        let mut b = toy::Builder::new();
        let t1 = b.task(0, 10e9);
        let t2 = b.task(0, 20e9);
        let t3 = b.task(0, 10e9);
        b.edge(t1, t2, 0);
        b.edge(t2, t3, 0);
        let g = b.build(1);
        let (res, _trace, prof) = simulate_profiled(&g, flat_cfg(), "des/chain", &[]);
        assert!((res.makespan - 4.0).abs() < 1e-9);
        assert_eq!(prof.pred[0], CritPred::None);
        for t in [1u32, 2] {
            match prof.pred[t as usize] {
                CritPred::Dep(p) | CritPred::RankPrev(p) => assert_eq!(p, t - 1),
                other => panic!("task {t}: unexpected predecessor {other:?}"),
            }
            // Back-to-back: each task starts exactly when the previous ends.
            assert_eq!(prof.task_start_us[t as usize], prof.task_end_us[t as usize - 1]);
        }
    }

    #[test]
    fn run_metadata_is_attached_to_des_traces() {
        let mut b = toy::Builder::new();
        b.task(0, 1e9);
        let g = b.build(1);
        let cfg = MachineConfig { seed: 42, ..flat_cfg() };
        let (_, trace) = simulate_traced_with_meta(
            &g,
            cfg,
            "des/meta",
            &[("scheme", "Shifted".to_string()), ("grid", "3x3".to_string())],
        );
        assert_eq!(trace.meta_str("backend"), Some("des"));
        assert_eq!(trace.meta_str("ranks"), Some("1"));
        assert_eq!(trace.meta_str("tasks"), Some("1"));
        assert_eq!(trace.meta_str("machine_seed"), Some("42"));
        assert_eq!(trace.meta_str("scheme"), Some("Shifted"));
        assert_eq!(trace.meta_str("grid"), Some("3x3"));
        assert!(trace.summary_table().contains("backend=des"));
    }

    #[test]
    fn crashed_rank_freezes_its_dependency_cone() {
        use pselinv_chaos::{FaultPlan, FaultSpec};
        // 0 --msg--> 1 --msg--> 2: rank 1 dies before its task can run, so
        // only the root task completes and rank 2 starves.
        let mut b = toy::Builder::new();
        let t0 = b.task(0, 10e9); // 1 s
        let t1 = b.task(1, 10e9);
        let t2 = b.task(2, 10e9);
        b.edge(t0, t1, 3_000_000_000);
        b.edge(t1, t2, 3_000_000_000);
        let g = b.build(3);
        let plan = FaultPlan::new(1)
            .with_rank(1, FaultSpec { crash_at_s: Some(0.5), ..FaultSpec::default() });
        let r = simulate_with_faults(&g, flat_cfg(), &plan);
        assert_eq!(r.completed, 1, "only the root task survives");
        assert_eq!(r.total, 3);
        assert!(!r.is_complete());
        assert!((r.completed_frac() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.result.makespan - 1.0).abs() < 1e-9, "makespan {}", r.result.makespan);
    }

    #[test]
    fn injected_loss_strands_arrivals_deterministically() {
        use pselinv_chaos::{FaultPlan, FaultSpec};
        // 0 --msg--> 1 --msg--> 2 under certain loss: the root's message
        // never arrives, so exactly the root task completes. The DES has
        // no retransmitting transport — loss is lethal here by design.
        let mut b = toy::Builder::new();
        let t0 = b.task(0, 10e9);
        let t1 = b.task(1, 10e9);
        let t2 = b.task(2, 10e9);
        b.edge(t0, t1, 3_000_000_000);
        b.edge(t1, t2, 3_000_000_000);
        let g = b.build(3);
        let plan = FaultPlan::new(7)
            .with_default(FaultSpec { drop_permille: 1000, ..FaultSpec::default() });
        let r = simulate_with_faults(&g, flat_cfg(), &plan);
        assert_eq!(r.completed, 1, "only the root task survives total loss");
        assert!(!r.is_complete());
        // The send itself still happened: volume accounting is unchanged.
        assert_eq!(r.result.messages, 1);
        assert_eq!(r.result.bytes, 3_000_000_000);

        // Partial loss on a real graph strands a deterministic subset:
        // same plan, same casualty list, bit-identical result.
        let w = gen::grid_laplacian_2d(10, 10);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(2, 2));
        let g = selinv_graph(&layout, &GraphOptions::default());
        let cfg = MachineConfig { seed: 5, ..Default::default() };
        let plan = || {
            FaultPlan::new(0xd70)
                .with_default(FaultSpec { drop_permille: 300, ..FaultSpec::default() })
        };
        let a = simulate_with_faults(&g, cfg, &plan());
        let b = simulate_with_faults(&g, cfg, &plan());
        assert!(a.completed < a.total, "300‰ loss must strand part of the graph");
        assert_eq!(a.completed, b.completed, "loss schedule is a pure function of the plan");
        assert_eq!(a.result.makespan, b.result.makespan);
    }

    #[test]
    fn straggler_slowdown_and_injected_delay_stretch_makespan() {
        use pselinv_chaos::{FaultPlan, FaultSpec};
        // Serial 1 s + 2 s chain on rank 0: a 2x straggler doubles it.
        let mut b = toy::Builder::new();
        let t1 = b.task(0, 10e9);
        let t2 = b.task(0, 20e9);
        b.edge(t1, t2, 0);
        let g = b.build(1);
        let plan =
            FaultPlan::new(0).with_rank(0, FaultSpec { slowdown: 2.0, ..FaultSpec::default() });
        let r = simulate_with_faults(&g, flat_cfg(), &plan);
        assert!(r.is_complete());
        assert!((r.result.makespan - 6.0).abs() < 1e-9, "makespan {}", r.result.makespan);

        // 1 s compute + 2 s wire + 1 s compute, plus 0.5 s injected delay.
        let mut b = toy::Builder::new();
        let t1 = b.task(0, 10e9);
        let t2 = b.task(1, 10e9);
        b.edge(t1, t2, 3_000_000_000);
        let g = b.build(2);
        let plan =
            FaultPlan::new(0).with_default(FaultSpec { delay_us: 500_000, ..FaultSpec::default() });
        let r = simulate_with_faults(&g, flat_cfg(), &plan);
        assert!(r.is_complete());
        assert!((r.result.makespan - 4.5).abs() < 1e-6, "makespan {}", r.result.makespan);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_benign_plans_complete() {
        use pselinv_chaos::{FaultPlan, FaultSpec};
        let w = gen::grid_laplacian_2d(12, 12);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(4, 4));
        let g = selinv_graph(&layout, &GraphOptions::default());
        let cfg = MachineConfig { seed: 5, ..Default::default() };
        let plan = || {
            FaultPlan::new(0xfa17).with_default(FaultSpec {
                delay_us: 20,
                jitter_us: 80,
                slowdown: 1.3,
                ..FaultSpec::default()
            })
        };
        let clean = simulate(&g, cfg);
        let a = simulate_with_faults(&g, cfg, &plan());
        let b = simulate_with_faults(&g, cfg, &plan());
        assert!(a.is_complete(), "a benign plan must complete the graph");
        assert_eq!(a.result.makespan, b.result.makespan, "same plan, same schedule");
        assert_eq!(a.completed, b.completed);
        assert!(
            a.result.makespan > clean.makespan,
            "injected delay + slowdown must not speed the run up: {} vs {}",
            a.result.makespan,
            clean.makespan
        );
        // A crash, by contrast, must strand part of the graph.
        let crashed = simulate_with_faults(
            &g,
            cfg,
            &FaultPlan::new(1)
                .with_rank(3, FaultSpec { crash_at_s: Some(0.0), ..FaultSpec::default() }),
        );
        assert!(crashed.completed < crashed.total, "rank 3 owns tasks in every sweep");
    }

    #[test]
    fn compute_time_independent_of_scheme() {
        // Tree routing must not change the arithmetic performed.
        let w = gen::grid_laplacian_2d(14, 12);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(4, 4));
        let comp = |scheme| {
            let g = selinv_graph(&layout, &GraphOptions { scheme, ..Default::default() });
            simulate(&g, MachineConfig::default()).compute_time_mean()
        };
        let a = comp(TreeScheme::Flat);
        let b = comp(TreeScheme::ShiftedBinary);
        assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
    }
}
