//! Task-graph generation for the discrete-event machine simulator.
//!
//! The paper's PSelInv is "expressed in an asynchronous task model": no
//! barriers, synchronization only through data dependencies. This module
//! materializes exactly that task DAG — compute tasks on ranks, connected
//! by local dependencies and by messages — so `pselinv-des` can replay it
//! on a simulated machine at the paper's scales (64 … 12,100 ranks).
//!
//! Two graphs are produced:
//!
//! * [`selinv_graph`] — the selected inversion itself (both loops of
//!   Algorithm 1, with the `Col-Bcast` / `Row-Reduce` / diagonal-reduce
//!   collectives routed along the configured tree scheme);
//! * [`factorization_graph`] — a right-looking supernodal factorization in
//!   the style of SuperLU_DIST (panel broadcasts + ancestor updates), used
//!   for the reference curve in Fig. 8.

use crate::layout::Layout;
use crate::plan::{CommPlan, SupernodePlan};
use pselinv_order::SymbolicFactor;
use pselinv_trace::{pack_task_tag, CollKind};
use pselinv_trees::{CollectiveTree, TreeBuilder, TreeScheme};

/// Task identifier.
pub type TaskId = u32;

/// "No task here" in the builder's dense lookup tables.
const NO_TASK: TaskId = TaskId::MAX;

/// Task classification, used for the computation/communication breakdown
/// of Fig. 9 (forwarding tasks spend no compute time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TaskKind {
    /// Dense kernel execution (GEMM/TRSM/inversion).
    Compute = 0,
    /// Message forwarding / bookkeeping (zero or negligible flops).
    Forward = 1,
}

/// Options controlling graph generation.
#[derive(Clone, Copy, Debug)]
pub struct GraphOptions {
    /// Tree scheme for every restricted collective.
    pub scheme: TreeScheme,
    /// Seed for shifted/random schemes.
    pub seed: u64,
    /// When `false`, a global barrier is inserted between consecutive
    /// supernodes of the selected inversion — modeling the limited
    /// inter-supernode pipelining of the v0.7.3 release used as the
    /// second baseline in Fig. 8.
    pub pipelining: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        Self { scheme: TreeScheme::ShiftedBinary, seed: 0x5e11, pipelining: true }
    }
}

/// One task: everything the simulator reads when it readies, dispatches
/// or retires it, in one 32-byte record (two to a cache line).
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct Task {
    /// Floating-point work.
    pub flops: f64,
    /// Scheduling priority (lower runs first among ready tasks).
    pub prio: i32,
    /// Executing rank.
    pub rank: u32,
    /// Trace tag: `(CollKind, supernode)` packed with
    /// [`pselinv_trace::pack_task_tag`]. Lets the DES engine label spans
    /// and messages with the same `(phase, supernode)` vocabulary as the
    /// traced mpisim runtime.
    pub tag: u32,
    /// Out-edges: `edges()[edge_lo..edge_hi]`, in send order.
    edge_lo: u32,
    edge_hi: u32,
    /// Task kind (compute vs forward).
    pub kind: TaskKind,
}

impl Task {
    /// A task without out-edges yet ([`TaskGraph::from_edge_list`]
    /// attaches them).
    pub fn new(rank: usize, flops: f64, prio: i64, kind: TaskKind, tag: u32) -> Self {
        Self {
            flops,
            prio: i32::try_from(prio).expect("task priority fits in 32 bits"),
            rank: u32::try_from(rank).expect("rank fits in 32 bits"),
            tag,
            edge_lo: 0,
            edge_hi: 0,
            kind,
        }
    }

    /// This task's out-edges as a range of [`TaskGraph::edges`], in send
    /// order.
    pub fn edge_range(&self) -> std::ops::Range<usize> {
        self.edge_lo as usize..self.edge_hi as usize
    }
}

/// One out-edge of a task, 16 bytes. `bytes == 0` is a pure dependency;
/// a positive value is a message of that size from the source task's rank
/// to `dst_rank`.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct Edge {
    /// Bytes carried (0 = dependency only).
    pub bytes: u64,
    /// Successor task.
    pub succ: TaskId,
    /// The successor's rank, stored here so that sending a message never
    /// touches the successor's record.
    pub dst_rank: u32,
}

/// A static task DAG over `nranks` ranks: one packed [`Task`] record per
/// task, one packed [`Edge`] record per edge, grouped by source task.
///
/// Task numbering and the order of a task's out-edges are part of what a
/// simulation computes — the per-rank ready queue breaks priority ties by
/// task id, and edge order is send order on the NIC — so both are exactly
/// the order in which the builder created them.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// Number of ranks.
    pub nranks: usize,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    deps: Vec<u32>,
}

impl TaskGraph {
    /// Builds the graph from tasks (in id order) and a list of
    /// `(from, to, bytes)` edges: each task's out-edges keep the relative
    /// order they have in `edges`.
    pub fn from_edge_list(
        nranks: usize,
        mut tasks: Vec<Task>,
        edges: &[(TaskId, TaskId, u64)],
    ) -> Self {
        assert!(tasks.len() < NO_TASK as usize && edges.len() <= u32::MAX as usize);
        for t in tasks.iter_mut() {
            assert!((t.rank as usize) < nranks, "task on rank {} of {nranks}", t.rank);
            t.edge_hi = 0; // a record copied out of another graph carries its range
        }
        let mut deps = vec![0u32; tasks.len()];
        for &(from, to, _) in edges {
            tasks[from as usize].edge_hi += 1;
            deps[to as usize] += 1;
        }
        // Counting sort by source task; `edge_hi` is the fill cursor and
        // ends at the end of the task's range.
        let mut at = 0u32;
        for t in tasks.iter_mut() {
            t.edge_lo = at;
            at += std::mem::replace(&mut t.edge_hi, at);
        }
        let mut packed = vec![Edge { bytes: 0, succ: 0, dst_rank: 0 }; edges.len()];
        for &(from, to, bytes) in edges {
            let dst_rank = tasks[to as usize].rank;
            let slot = &mut tasks[from as usize].edge_hi;
            packed[*slot as usize] = Edge { bytes, succ: to, dst_rank };
            *slot += 1;
        }
        Self { nranks, tasks, edges: packed, deps }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The task records, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Every edge, grouped by source task (see [`Task::edge_range`]).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of incoming edges (dependencies and messages) of each task.
    pub fn deps(&self) -> &[u32] {
        &self.deps
    }

    /// Out-edges of `t` as `(successor, bytes)` pairs.
    pub fn out_edges(&self, t: TaskId) -> impl Iterator<Item = (TaskId, u64)> + '_ {
        self.edges[self.tasks[t as usize].edge_range()].iter().map(|e| (e.succ, e.bytes))
    }

    /// Total flops across all tasks.
    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Total message bytes across all edges.
    pub fn total_message_bytes(&self) -> u64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Validates that every task can execute (the graph is acyclic and
    /// dependency counts are consistent); returns the topological order
    /// length, which must equal `num_tasks()`.
    pub fn validate(&self) -> usize {
        let mut deps = self.deps.clone();
        let mut ready: Vec<TaskId> =
            (0..self.num_tasks() as u32).filter(|&t| deps[t as usize] == 0).collect();
        let mut done = 0usize;
        while let Some(t) = ready.pop() {
            done += 1;
            for (s, _) in self.out_edges(t) {
                deps[s as usize] -= 1;
                if deps[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        done
    }
}

/// Emits tasks and edges in creation order. Everything a collective needs
/// to look up by rank goes through reused dense scratch — no per-collective
/// map is allocated.
struct GraphBuilder {
    tasks: Vec<Task>,
    /// Trace tag stamped on tasks created until the next `set_context`.
    ctx_tag: u32,
    edges: Vec<(TaskId, TaskId, u64)>,
    /// `bcast_tasks`' traversal stack of `(member index, task)`.
    stack: Vec<(usize, TaskId)>,
    /// Contributions to the next `reduce_tasks`, as one singly linked list
    /// per rank in insertion order: `first`/`last` are rank-indexed entry
    /// points into `contributions`, whose items are `(task, next)`.
    first: Vec<u32>,
    last: Vec<u32>,
    contributions: Vec<(TaskId, u32)>,
}

impl GraphBuilder {
    fn new(nranks: usize) -> Self {
        Self {
            tasks: Vec::new(),
            ctx_tag: pack_task_tag(CollKind::Other, 0),
            edges: Vec::new(),
            stack: Vec::new(),
            first: vec![NO_TASK; nranks],
            last: vec![NO_TASK; nranks],
            contributions: Vec::new(),
        }
    }

    /// Sets the `(phase, supernode)` context stamped on subsequently
    /// created tasks (including those made by `bcast_tasks`/`reduce_tasks`).
    fn set_context(&mut self, coll: CollKind, supernode: usize) {
        self.ctx_tag = pack_task_tag(coll, supernode);
    }

    fn task(&mut self, rank: usize, flops: f64, prio: i64, kind: TaskKind) -> TaskId {
        let id = self.tasks.len() as u32;
        self.tasks.push(Task::new(rank, flops, prio, kind, self.ctx_tag));
        id
    }

    fn edge(&mut self, from: TaskId, to: TaskId, bytes: u64) {
        debug_assert!(from != NO_TASK && to != NO_TASK, "edge to a task that was never created");
        self.edges.push((from, to, bytes));
    }

    /// Adds tree-forwarding tasks for a broadcast: `root_task` already
    /// holds the payload. `on_member(rank, task)` is called once per
    /// member with the task whose completion means "payload available on
    /// that rank".
    fn bcast_tasks(
        &mut self,
        tree: &CollectiveTree,
        root_task: TaskId,
        bytes: u64,
        prio: i64,
        mut on_member: impl FnMut(usize, TaskId),
    ) {
        let members = tree.members();
        on_member(tree.root(), root_task);
        // Depth-first from the root so parents exist before children.
        debug_assert!(self.stack.is_empty());
        self.stack.push((0, root_task));
        while let Some((i, rt)) = self.stack.pop() {
            for &c in tree.children_at(i) {
                let ct = self.task(members[c], 0.0, prio, TaskKind::Forward);
                self.edge(rt, ct, bytes);
                on_member(members[c], ct);
                self.stack.push((c, ct));
            }
        }
    }

    /// Records that `rank` contributes the output of `t` to the next
    /// [`GraphBuilder::reduce_tasks`] (a dependency of its reduce step).
    fn contribute(&mut self, rank: usize, t: TaskId) {
        let item = self.contributions.len() as u32;
        self.contributions.push((t, NO_TASK));
        match self.first[rank] {
            NO_TASK => self.first[rank] = item,
            _ => self.contributions[self.last[rank] as usize].1 = item,
        }
        self.last[rank] = item;
    }

    /// Adds tree tasks for a reduction over the contributions recorded
    /// since the last one (every contributing rank must be a member).
    /// Returns the root's reduce task (completion = reduced value ready).
    fn reduce_tasks(
        &mut self,
        tree: &CollectiveTree,
        bytes: u64,
        add_flops_per_child: f64,
        prio: i64,
    ) -> TaskId {
        // Create one reduce task per member, bottom-up.
        fn build(
            gb: &mut GraphBuilder,
            tree: &CollectiveTree,
            bytes: u64,
            fpc: f64,
            prio: i64,
            member: usize,
        ) -> TaskId {
            let rank = tree.members()[member];
            let kids = tree.children_at(member);
            let t = gb.task(
                rank,
                fpc * kids.len() as f64,
                prio,
                if kids.is_empty() { TaskKind::Forward } else { TaskKind::Compute },
            );
            let mut item = std::mem::replace(&mut gb.first[rank], NO_TASK);
            while item != NO_TASK {
                let (d, next) = gb.contributions[item as usize];
                gb.edge(d, t, 0);
                item = next;
            }
            for &c in kids {
                let ct = build(gb, tree, bytes, fpc, prio, c);
                gb.edge(ct, t, bytes);
            }
            t
        }
        let before = self.edges.len();
        let root = build(self, tree, bytes, add_flops_per_child, prio, 0);
        debug_assert_eq!(
            self.edges.len() - before,
            self.contributions.len() + tree.len() - 1,
            "a rank outside the reduction tree contributed to it"
        );
        self.contributions.clear();
        root
    }

    fn finish(self, nranks: usize) -> TaskGraph {
        TaskGraph::from_edge_list(nranks, self.tasks, &self.edges)
    }
}

fn find_block(sf: &SymbolicFactor, row_sn: usize, col_sn: usize) -> usize {
    let blocks = sf.blocks_of(col_sn);
    let i = blocks
        .binary_search_by_key(&row_sn, |b| b.sn)
        .unwrap_or_else(|_| panic!("block ({row_sn},{col_sn}) not in structure"));
    sf.blocks_ptr[col_sn] + i
}

/// Builds the selected-inversion task graph.
pub fn selinv_graph(layout: &Layout, opts: &GraphOptions) -> TaskGraph {
    let sf = layout.symbolic.clone();
    let grid = layout.grid;
    let plan = CommPlan::new(layout.clone(), TreeBuilder::new(opts.scheme, opts.seed));
    let ns = sf.num_supernodes();
    let nblocks = sf.blocks_ptr[ns];
    let mut gb = GraphBuilder::new(grid.size());

    // Cross-supernode availability events, by block id.
    let mut lhat_task = vec![NO_TASK; nblocks]; // L̂ ready
    let mut rred_root = vec![NO_TASK; nblocks]; // A⁻¹ lower ready
    let mut atr_recv = vec![NO_TASK; nblocks]; // A⁻¹ upper ready
    let mut diag_done: Vec<Option<TaskId>> = vec![None; ns];

    // Every collective of a supernode stays within one process row or
    // column, so "the task that makes the payload available on rank r" is
    // looked up by r's coordinate along it.
    let pr = grid.pr;
    let mut avail: Vec<TaskId> = Vec::new();

    // ---- Phase 1 (ascending): diag bcast + panel TRSM. ----
    // Each supernode's plan is built once, here, and handed to phase 2.
    let mut plans: Vec<SupernodePlan> = Vec::with_capacity(ns);
    for k in 0..ns {
        let sp = plan.supernode_plan(k);
        let blocks = sf.blocks_of(k);
        if !blocks.is_empty() {
            let w = sf.width(k) as f64;
            let prio = (ns - 1 - k) as i64; // processed late in phase 2; phase 1
                                            // order is driven by dependencies
            let diag_owner = layout.diag_owner(k);
            gb.set_context(CollKind::DiagBcast, k);
            let root_task = gb.task(diag_owner, 0.0, prio, TaskKind::Forward);
            // Down process column pc(K): indexed by process row.
            avail.clear();
            avail.resize(pr, NO_TASK);
            gb.bcast_tasks(&sp.diag_bcast, root_task, layout.diag_bytes(k), prio, |rank, t| {
                avail[grid.row_of(rank)] = t;
            });
            gb.set_context(CollKind::Compute, k);
            for (bi, b) in blocks.iter().enumerate() {
                let owner = layout.lower_owner(b, k);
                let t = gb.task(owner, b.nrows() as f64 * w * w, prio, TaskKind::Compute);
                gb.edge(avail[grid.row_of(owner)], t, 0);
                lhat_task[sf.blocks_ptr[k] + bi] = t;
            }
        }
        plans.push(sp);
    }

    // ---- Phase 2 (descending): Algorithm 1 steps 3–5. ----
    let mut prev_barrier: Option<TaskId> = None;
    let mut rred_this: Vec<TaskId> = Vec::new();
    while let Some(sp) = plans.pop() {
        let k = sp.k;
        let blocks = sf.blocks_of(k);
        let w = sf.width(k) as f64;
        let prio = (ns - 1 - k) as i64;
        let diag_owner = layout.diag_owner(k);

        // Diagonal seed (inversion of the w×w block).
        gb.set_context(CollKind::Compute, k);
        let inv0 = gb.task(diag_owner, w * w * w, prio, TaskKind::Compute);
        if let Some(b) = prev_barrier {
            gb.edge(b, inv0, 0);
        }

        if blocks.is_empty() {
            diag_done[k] = Some(inv0);
            if !opts.pipelining {
                prev_barrier = Some(inv0);
            }
            continue;
        }

        // Transpose send + Col-Bcast per ancestor block. Block `bi`'s
        // broadcast runs down process column pc(I): `avail[bi * pr + prow]`
        // is the task that makes Û_{K,I} available at (prow, pc(I)).
        avail.clear();
        avail.resize(blocks.len() * pr, NO_TASK);
        for (bi, b) in blocks.iter().enumerate() {
            let bid = sf.blocks_ptr[k] + bi;
            let bytes = layout.block_bytes(b, k);
            let (src, dst) = sp.transposes[bi];
            let lhat = lhat_task[bid];
            gb.set_context(CollKind::Transpose, k);
            let root_task = if src == dst {
                lhat
            } else {
                let t = gb.task(dst, 0.0, prio, TaskKind::Forward);
                gb.edge(lhat, t, bytes);
                t
            };
            let root_task = if let Some(barrier) = prev_barrier {
                let gated = gb.task(dst, 0.0, prio, TaskKind::Forward);
                gb.edge(root_task, gated, 0);
                gb.edge(barrier, gated, 0);
                gated
            } else {
                root_task
            };
            gb.set_context(CollKind::ColBcast, k);
            let u_avail = &mut avail[bi * pr..(bi + 1) * pr];
            gb.bcast_tasks(&sp.col_bcasts[bi], root_task, bytes, prio, |rank, t| {
                u_avail[grid.row_of(rank)] = t;
            });
        }

        // GEMMs + Row-Reduce per target block.
        rred_this.clear();
        for (bj_i, bj) in blocks.iter().enumerate() {
            let prow_j = grid.prow_of_block(bj.sn);
            let rj = bj.nrows() as f64;
            // local GEMM tasks per participating rank
            gb.set_context(CollKind::Compute, k);
            for (bi_i, bi) in blocks.iter().enumerate() {
                let rank = grid.rank_of(prow_j, grid.pcol_of_block(bi.sn));
                let ri = bi.nrows() as f64;
                let t = gb.task(rank, 2.0 * rj * ri * w, prio, TaskKind::Compute);
                gb.edge(avail[bi_i * pr + prow_j], t, 0);
                // stored-block availability
                let (jsn, isn) = (bj.sn, bi.sn);
                if jsn > isn {
                    gb.edge(rred_root[find_block(&sf, jsn, isn)], t, 0);
                } else if jsn < isn {
                    gb.edge(atr_recv[find_block(&sf, isn, jsn)], t, 0);
                } else {
                    gb.edge(diag_done[jsn].expect("ancestor diagonal not built"), t, 0);
                }
                gb.contribute(rank, t);
            }
            let bytes = layout.block_bytes(bj, k);
            gb.set_context(CollKind::RowReduce, k);
            let root = gb.reduce_tasks(&sp.row_reduces[bj_i], bytes, rj * w, prio);
            rred_this.push(root);
            rred_root[sf.blocks_ptr[k] + bj_i] = root;
        }

        // Diagonal GEMMs + diagonal reduction.
        gb.set_context(CollKind::Compute, k);
        for (bi, b) in blocks.iter().enumerate() {
            let owner = layout.lower_owner(b, k);
            let t = gb.task(owner, 2.0 * w * w * b.nrows() as f64, prio, TaskKind::Compute);
            gb.edge(rred_this[bi], t, 0);
            gb.contribute(owner, t);
        }
        gb.set_context(CollKind::DiagReduce, k);
        let dred = gb.reduce_tasks(&sp.diag_reduce, layout.diag_bytes(k), w * w, prio);
        let ddone = gb.task(diag_owner, 0.0, prio, TaskKind::Forward);
        gb.edge(inv0, ddone, 0);
        gb.edge(dred, ddone, 0);
        diag_done[k] = Some(ddone);

        // Step-5 A⁻¹ transposes.
        gb.set_context(CollKind::AinvTranspose, k);
        let mut last_tasks: Vec<TaskId> = vec![ddone];
        for (bj_i, bj) in blocks.iter().enumerate() {
            let bid = sf.blocks_ptr[k] + bj_i;
            let (src, dst) = sp.transposes[bj_i];
            if src == dst {
                atr_recv[bid] = rred_this[bj_i];
                last_tasks.push(rred_this[bj_i]);
            } else {
                let t = gb.task(dst, 0.0, prio, TaskKind::Forward);
                gb.edge(rred_this[bj_i], t, layout.block_bytes(bj, k));
                atr_recv[bid] = t;
                last_tasks.push(t);
            }
        }

        // Optional v0.7.3-style barrier between supernodes.
        if !opts.pipelining {
            gb.set_context(CollKind::Barrier, k);
            let barrier = gb.task(diag_owner, 0.0, prio, TaskKind::Forward);
            for t in last_tasks {
                gb.edge(t, barrier, 0);
            }
            prev_barrier = Some(barrier);
        }
    }

    gb.finish(grid.size())
}

/// Builds a right-looking supernodal factorization task graph in the style
/// of SuperLU_DIST: factor diagonal, broadcast panel blocks, update
/// ancestors. Used as the reference curve of Fig. 8.
pub fn factorization_graph(layout: &Layout, opts: &GraphOptions) -> TaskGraph {
    let sf = layout.symbolic.clone();
    let grid = layout.grid;
    let builder = TreeBuilder::new(opts.scheme, opts.seed);
    let ns = sf.num_supernodes();
    let (pr, pc) = (grid.pr, grid.pc);
    let mut gb = GraphBuilder::new(grid.size());

    // Pre-create diagonal-factor and panel tasks so updates from
    // descendants can point at them.
    let mut fdiag: Vec<TaskId> = Vec::with_capacity(ns);
    let mut fpanel: Vec<TaskId> = Vec::with_capacity(sf.blocks_ptr[ns]); // by block id
    for k in 0..ns {
        let w = sf.width(k) as f64;
        let prio = k as i64;
        gb.set_context(CollKind::Compute, k);
        fdiag.push(gb.task(layout.diag_owner(k), w * w * w / 3.0, prio, TaskKind::Compute));
        for b in sf.blocks_of(k) {
            let flops = b.nrows() as f64 * w * w;
            fpanel.push(gb.task(layout.lower_owner(b, k), flops, prio, TaskKind::Compute));
        }
    }

    // Payload-availability lookups, as in `selinv_graph`: the diagonal
    // and the U-blocks travel down process columns (indexed by process
    // row), the L-blocks along process rows (indexed by process column).
    let mut davail: Vec<TaskId> = Vec::new();
    let mut l_avail: Vec<TaskId> = Vec::new();
    let mut u_avail: Vec<TaskId> = Vec::new();
    for k in 0..ns {
        let blocks = sf.blocks_of(k);
        if blocks.is_empty() {
            continue;
        }
        let w = sf.width(k) as f64;
        let prio = k as i64;
        let panel = &fpanel[sf.blocks_ptr[k]..sf.blocks_ptr[k + 1]];

        // Diagonal bcast down pc(K) to the panel owners.
        let mut lower_owners: Vec<usize> =
            blocks.iter().map(|b| layout.lower_owner(b, k)).collect();
        let diag_owner = layout.diag_owner(k);
        lower_owners.sort_unstable();
        lower_owners.dedup();
        lower_owners.retain(|&r| r != diag_owner);
        let dtree = builder.build(diag_owner, &lower_owners, (k as u64) << 3);
        gb.set_context(CollKind::DiagBcast, k);
        davail.clear();
        davail.resize(pr, NO_TASK);
        gb.bcast_tasks(&dtree, fdiag[k], layout.diag_bytes(k), prio, |rank, t| {
            davail[grid.row_of(rank)] = t;
        });
        for (bi, b) in blocks.iter().enumerate() {
            gb.edge(davail[grid.row_of(layout.lower_owner(b, k))], panel[bi], 0);
        }

        // L-blocks travel along their process row to the update columns;
        // "U"-blocks (transposes) travel down the update rows' columns.
        let pcols: Vec<usize> = blocks.iter().map(|b| grid.pcol_of_block(b.sn)).collect();
        let prows: Vec<usize> = blocks.iter().map(|b| grid.prow_of_block(b.sn)).collect();
        l_avail.clear();
        l_avail.resize(blocks.len() * pc, NO_TASK);
        u_avail.clear();
        u_avail.resize(blocks.len() * pr, NO_TASK);
        for (bi, b) in blocks.iter().enumerate() {
            let owner = layout.lower_owner(b, k);
            let bytes = layout.block_bytes(b, k);
            let pt = panel[bi];
            // row bcast
            let prow = grid.prow_of_block(b.sn);
            let mut rcv: Vec<usize> = pcols.iter().map(|&pc| grid.rank_of(prow, pc)).collect();
            rcv.sort_unstable();
            rcv.dedup();
            rcv.retain(|&r| r != owner);
            let rtree = builder.build(owner, &rcv, ((k as u64) << 20) | (1 << 40) | bi as u64);
            gb.set_context(CollKind::Bcast, k);
            let l_row = &mut l_avail[bi * pc..(bi + 1) * pc];
            gb.bcast_tasks(&rtree, pt, bytes, prio, |rank, t| l_row[grid.col_of(rank)] = t);
            // transpose + col bcast
            let udst = layout.upper_owner(b, k);
            gb.set_context(CollKind::Transpose, k);
            let uroot = if udst == owner {
                pt
            } else {
                let t = gb.task(udst, 0.0, prio, TaskKind::Forward);
                gb.edge(pt, t, bytes);
                t
            };
            let pcol = grid.pcol_of_block(b.sn);
            let mut crcv: Vec<usize> = prows.iter().map(|&pr| grid.rank_of(pr, pcol)).collect();
            crcv.sort_unstable();
            crcv.dedup();
            crcv.retain(|&r| r != udst);
            let ctree = builder.build(udst, &crcv, ((k as u64) << 20) | (2 << 40) | bi as u64);
            gb.set_context(CollKind::ColBcast, k);
            let u_col = &mut u_avail[bi * pr..(bi + 1) * pr];
            gb.bcast_tasks(&ctree, uroot, bytes, prio, |rank, t| u_col[grid.row_of(rank)] = t);
        }

        // Updates: for every pair (bi ≥ bj), GEMM at (pr(bi.sn), pc(bj.sn))
        // targeting block (bi.sn, bj.sn) of supernode bj.sn.
        gb.set_context(CollKind::Compute, k);
        for (bj_i, bj) in blocks.iter().enumerate() {
            for (bi_i, bi) in blocks.iter().enumerate() {
                if bi.sn < bj.sn {
                    continue;
                }
                let (prow, pcol) = (prows[bi_i], pcols[bj_i]);
                let t = gb.task(
                    grid.rank_of(prow, pcol),
                    2.0 * bi.nrows() as f64 * bj.nrows() as f64 * w,
                    prio,
                    TaskKind::Compute,
                );
                gb.edge(l_avail[bi_i * pc + pcol], t, 0);
                gb.edge(u_avail[bj_i * pr + prow], t, 0);
                // scatter target
                if bi.sn == bj.sn {
                    gb.edge(t, fdiag[bj.sn], 0);
                } else {
                    gb.edge(t, fpanel[find_block(&sf, bi.sn, bj.sn)], 0);
                }
            }
        }
    }

    gb.finish(grid.size())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::replay_volumes;
    use pselinv_mpisim::Grid2D;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;
    use std::sync::Arc;

    fn layout(pr: usize, pc: usize) -> Layout {
        let w = gen::grid_laplacian_2d(14, 14);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        Layout::new(sf, Grid2D::new(pr, pc))
    }

    #[test]
    fn records_are_packed_and_edges_keep_their_order() {
        assert_eq!(std::mem::size_of::<Task>(), 32);
        assert_eq!(std::mem::size_of::<Edge>(), 16);
        let task = |rank| Task::new(rank, 1.0, 0, TaskKind::Compute, 0);
        let edges = [(2, 0, 7), (0, 1, 5), (2, 1, 0), (0, 2, 0), (2, 0, 9)];
        let g = TaskGraph::from_edge_list(4, vec![task(3), task(1), task(2)], &edges);
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 5), (2, 0)]);
        assert_eq!(g.out_edges(1).count(), 0);
        assert_eq!(g.out_edges(2).collect::<Vec<_>>(), [(0, 7), (1, 0), (0, 9)]);
        assert_eq!(g.deps(), [2, 2, 1]);
        for e in g.edges() {
            assert_eq!(e.dst_rank, g.tasks()[e.succ as usize].rank);
        }
        // Records copied out of a graph can seed another one.
        let again = TaskGraph::from_edge_list(4, g.tasks().to_vec(), &edges);
        assert_eq!(again.out_edges(2).collect::<Vec<_>>(), [(0, 7), (1, 0), (0, 9)]);
    }

    #[test]
    fn selinv_graph_is_executable() {
        let l = layout(3, 3);
        for pipelining in [true, false] {
            let g = selinv_graph(&l, &GraphOptions { pipelining, ..Default::default() });
            assert_eq!(g.validate(), g.num_tasks(), "pipelining={pipelining}");
            assert!(g.total_flops() > 0.0);
        }
    }

    #[test]
    fn factorization_graph_is_executable() {
        let l = layout(2, 3);
        let g = factorization_graph(&l, &GraphOptions::default());
        assert_eq!(g.validate(), g.num_tasks());
        assert!(g.total_flops() > 0.0);
    }

    #[test]
    fn selinv_graph_messages_match_volume_replay() {
        // Every byte the replay accounts for must appear as a message edge
        // (and nothing else).
        let l = layout(3, 4);
        let opts = GraphOptions::default();
        let g = selinv_graph(&l, &opts);
        let rep = replay_volumes(&l, TreeBuilder::new(opts.scheme, opts.seed));
        assert_eq!(g.total_message_bytes(), rep.total_bytes());
    }

    #[test]
    fn tasks_live_on_valid_ranks() {
        let l = layout(2, 2);
        let g = selinv_graph(&l, &GraphOptions::default());
        for t in g.tasks() {
            assert!((t.rank as usize) < g.nranks);
        }
    }

    #[test]
    fn flat_and_shifted_have_same_total_flops() {
        // Routing changes messages, not arithmetic.
        let l = layout(3, 3);
        let flat =
            selinv_graph(&l, &GraphOptions { scheme: TreeScheme::Flat, ..Default::default() });
        let shifted = selinv_graph(
            &l,
            &GraphOptions { scheme: TreeScheme::ShiftedBinary, ..Default::default() },
        );
        // Compare compute flops only (reduce interior-node add-flops differ
        // slightly between tree shapes).
        let comp = |g: &TaskGraph| -> f64 {
            g.tasks().iter().filter(|t| t.kind == TaskKind::Compute).map(|t| t.flops).sum()
        };
        let a = comp(&flat);
        let b = comp(&shifted);
        assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
    }

    #[test]
    fn barrier_mode_adds_tasks_and_stays_acyclic() {
        let l = layout(2, 3);
        let pipelined = selinv_graph(&l, &GraphOptions::default());
        let barriered = selinv_graph(&l, &GraphOptions { pipelining: false, ..Default::default() });
        assert!(barriered.num_tasks() > pipelined.num_tasks());
        assert_eq!(barriered.validate(), barriered.num_tasks());
    }

    #[test]
    fn task_tags_partition_collective_bytes() {
        // Message edges whose destination task is tagged ColBcast /
        // RowReduce must account for exactly the bytes the structural
        // replay attributes to those collectives — the invariant that lets
        // the DES tracer reuse the mpisim trace vocabulary.
        use pselinv_trace::unpack_task_tag;
        let l = layout(3, 3);
        let opts = GraphOptions::default();
        let g = selinv_graph(&l, &opts);
        let rep = replay_volumes(&l, TreeBuilder::new(opts.scheme, opts.seed));
        let mut col_sent = vec![0u64; g.nranks];
        let mut row_recv = vec![0u64; g.nranks];
        for t in 0..g.num_tasks() as u32 {
            for (s, b) in g.out_edges(t) {
                if b == 0 {
                    continue;
                }
                let (kind, _) = unpack_task_tag(g.tasks()[s as usize].tag);
                match kind {
                    CollKind::ColBcast => {
                        col_sent[g.tasks()[t as usize].rank as usize] += b;
                    }
                    CollKind::RowReduce => {
                        row_recv[g.tasks()[s as usize].rank as usize] += b;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(col_sent, rep.col_bcast_sent);
        assert_eq!(row_recv, rep.row_reduce_received);
    }

    #[test]
    fn single_rank_graph_has_no_messages() {
        let l = layout(1, 1);
        let g = selinv_graph(&l, &GraphOptions::default());
        assert_eq!(g.total_message_bytes(), 0);
        assert_eq!(g.validate(), g.num_tasks());
    }
}
