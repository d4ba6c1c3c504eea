//! The phase-2 engine: the one executor of Algorithm 1's descending pass.
//!
//! Each in-flight supernode is a [`SnTask`] whose stages (transpose
//! exchange, `Col-Bcast`s, local GEMMs, `Row-Reduce`s, the diagonal
//! reduction, the step-5 `A⁻¹` transposes) advance independently as their
//! inputs arrive, over the nonblocking tree collectives of
//! [`pselinv_mpisim::nb`]. A per-rank progress loop keeps up to
//! [`crate::DistOptions::window`] supernodes in the *window* at once,
//! advances only the stages an input has woken, and parks on the inbox
//! only when nothing is woken. The window bounds GEMM
//! stages; a tail of reducing tasks follows it. A window of one runs the
//! GEMM stages strictly one at a time, and a wider window lets those of
//! several supernodes overlap with their collectives, the asynchrony the
//! paper's tree-based communication is designed for.
//!
//! # The descent order
//!
//! A supernode's phase-2 inputs come only from its etree ancestors, so
//! supernodes in disjoint subtrees are independent. Every rank activates a
//! query's supernodes in one [`descent_order`]: descending index for a
//! window of one, and above it by etree depth (root first), descending
//! index within a depth. A window then holds supernodes of one depth, which
//! never wait on each other, where descending index — a preorder of the
//! postordered etree — fills it with a parent→child chain. At a window of
//! one the order cannot add concurrency but decides locality, and
//! descending index keeps consecutive supernodes on overlapping ancestors.
//!
//! # The Û horizon
//!
//! The transposes and `Col-Bcast`s of `Û_{K,I}` read only phase 1's `L̂`.
//! So behind each window runs a *horizon* of as many supernodes again, the
//! next ones in the descent order (saturating for an unbounded window): a
//! horizon task has fired its transpose sends and posted its receives, and
//! forwards its `Col-Bcast`s, but its GEMM stage — and with it every later
//! stage — waits until the task enters the window. One window of `Û` is in
//! flight while one window computes. A task's GEMM needs ([`gemm_needs`])
//! are recorded when it enters the window, against the query's live tasks
//! at that moment: their producers are ancestors, activated before it, so
//! they are in the window or the tail, or already retired.
//!
//! # The reduction tail
//!
//! The window counts only tasks whose GEMM stage has not run. Once a task's
//! local GEMMs have run it leaves the window for the *tail*, where its
//! `Row-Reduce`s, diagonal reduction and step-5 `A⁻¹` transposes finish
//! while the next supernode computes; the window bounds GEMM stages and
//! their contribution buffers, a tail task holds only the reduction state
//! of its own output blocks. The tail has no bound of its own: a tail of at
//! most one window measured 31 % off `poles-latency`'s wall time, an
//! unbounded one 49 % (EXPERIMENTS.md, *The reduction tail*). A query
//! activates tasks while fewer than the window plus its horizon have not
//! run their GEMM. Tail, window and horizon tasks are the same machine,
//! told apart by their GEMM and promotion flags; the loop wakes all three
//! alike.
//!
//! The local GEMM step is [`local_gemms`]: per supernode, the rank gathers
//! the `A⁻¹` pieces of its `(target, ancestor)` block pairs into strips of
//! targets and runs one product per strip, a fork-join over the rank's pool
//! with the rank thread helping; on the diagonal owner the diagonal block's
//! inverse is one more job of it, kept for the diagonal step. The loop does
//! not poll while it runs.
//!
//! # Where the results land
//!
//! A stage's result lands in place, in the query's output panels
//! ([`crate::ainv::AinvPanels`]): a `Row-Reduce` root writes its lower block
//! `A⁻¹_{J,K}` into its region of `K`'s panel, and the diagonal owner writes
//! `A⁻¹_{K,K}` where the diagonal reduction finishes. Each region is
//! written once, by its owner, and read only by it: by later GEMM gathers,
//! by the diagonal contribution, and — for a self-transposed block — as the
//! upper piece no message carries. A block whose step-5 transpose travels
//! is packed once, from the reduction's result, as it lands. The panels'
//! landed record is what a GEMM need ([`Need`]) asks.
//!
//! # The ready list
//!
//! A pass of the loop costs what it wakes, not what is active: it advances
//! only stages on its ready list, and every entry names one stage of one
//! task. Two kinds of event put a stage there:
//!
//! * *a message.* The rank's wake log ([`RankCtx::take_wakes`]) yields
//!   `(src, tag)` of every data message that entered the stash, and the tag
//!   decodes ([`untag_q`]) to the exact `(query, supernode, phase, block)`
//!   waiting for it, so the stage tests that one receive. A message for a
//!   supernode not activated yet is kept until its activation, and a
//!   reduction contribution that beats the rank's own GEMM stage until the
//!   reduction starts;
//! * *an in-rank event:* activation, entry into the window, and the landing
//!   of an `A⁻¹` piece. Each window task counts its [`gemm_needs`] that
//!   have not landed and is registered as a waiter on each; the landing
//!   counts the waiters down, and the one that reaches zero is woken. A
//!   GEMM stage that runs, a transpose that completes a root's `Û` or a
//!   `Row-Reduce` that lands an owned block advances the next stage of the
//!   same task at once.
//!
//! Counters replace every scan over the active tasks: a task counts its
//! unfinished stages, a query counts its window and keeps its Û horizon
//! as a queue in descent order, so activation and promotion are O(1) per
//! task. A delivered message costs about one match attempt
//! ([`pselinv_trace::RankMetrics::match_calls`]).
//!
//! # Determinism
//!
//! The window, the horizon, the tail and the descent order reorder
//! *communication*,
//! never *arithmetic*:
//!
//! * every entry of a GEMM target block keeps its fixed sequence of
//!   operations, ancestors ascending ([`local_gemms`]);
//! * nonblocking reductions consume child contributions in arrival order
//!   but park them in per-child slots summed in the tree's fixed child
//!   order ([`TreeReduceNb`]);
//! * the diagonal update accumulates its block contributions in block
//!   order, as before.
//!
//! Results are therefore bit-identical at any window size, and the logical
//! communication volumes (bytes, messages, physical copies) are unchanged —
//! the same messages travel the same tree edges, just earlier.
//!
//! # Deadlock freedom
//!
//! Each rank activates the supernodes it participates in, in the descent
//! order, and a task stays active until done. The order is the same on
//! every rank (it depends only on the structure and the window) and puts
//! every etree ancestor before its descendants. The window holds at least
//! one task, so a rank never stops activating. Consider the first
//! unfinished supernode `k*` of the descent order: on every participating
//! rank all supernodes before `k*` are finished, so `k*` is the oldest
//! active task there. If its GEMM has not run, it is the first such task,
//! hence inside the window; if it has, it is in the tail. Its stage
//! dependencies reach only its ancestors, which come before it and are
//! finished, and `k*` itself, so some rank can always advance it — and
//! every input of `k*` wakes the stage that consumes it: each message is
//! logged once as it enters the stash (retransmissions included, phase-1
//! stragglers when the log opens) and names its stage by its tag; one that
//! comes before its stage can take it is kept and replayed when the stage
//! opens; every in-rank input (entry into the window, a landed piece, a
//! GEMM run) wakes or advances its consumer. So a stage of `k*` that can
//! advance is on the ready list, and a rank parks only with an empty list
//! and no arrival since its last pass ([`RankCtx::sweep_then_park`]);
//! induction drains the schedule. The tail and the horizon do not weaken
//! this: their tasks hold only posted receives, non-blocking sends and
//! non-blocking reduction state, so they never stand between `k*` and its
//! inputs.
//!
//! The multi-query driver ([`phase2_multi`]) extends the argument across
//! the pole batch: every rank admits queries in ascending query order,
//! bounded by `max_inflight` *unfinished* admitted queries. Consider the
//! lowest-indexed globally-unfinished query `q*`: every earlier query is
//! finished on every rank, so each rank's unfinished-admitted count ignores
//! them and `q*` is admitted everywhere (admission is ascending). Within
//! `q*` the single-query argument applies, and [`crate::numeric::tag_q`]'s
//! query lane keeps its messages from cross-matching with any other
//! in-flight query.

use crate::layout::Layout;
use crate::numeric::{
    diag_contrib, find_block, gemm_task_specs, local_gemms, pack, span_key, tag_q, unpack, untag_q,
    RankState, TagFields, PHASE_AINV_TRANS, PHASE_COL_BCAST, PHASE_DIAG_REDUCE, PHASE_ROW_REDUCE,
    PHASE_TRANSPOSE,
};
use crate::plan::SupernodePlan;
use pselinv_dense::{ldlt_invert, Mat};
use pselinv_mpisim::{
    BlockedOn, Payload, Progress, RankCtx, RecvRequest, TreeBcastNb, TreeReduceNb,
};
use pselinv_order::etree::NONE;
use pselinv_order::symbolic::SnBlock;
use pselinv_order::SymbolicFactor;
use pselinv_pool::Pool;
use pselinv_trace::CollKind;
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};

/// Ancestor data a supernode's GEMM stage reads on this rank, i.e. an
/// output of an ancestor supernode's task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Need {
    /// Lower block `bid` in this rank's panel — landed by a `Row-Reduce`
    /// root.
    Lower(usize),
    /// The transpose of lower block `bid` — received by a step-5 `A⁻¹`
    /// transpose, or, self-transposed, lower block `bid` in this rank's
    /// panel.
    Upper(usize),
    /// Supernode `sn`'s diagonal block in this rank's panel — landed by a
    /// diagonal reduction.
    Diag(usize),
}

impl Need {
    /// Whether the piece is here: the query's landed record of this rank's
    /// panel regions ([`crate::ainv::AinvPanels`]), or the received upper
    /// blocks.
    fn satisfied(self, st: &RankState<'_>) -> bool {
        match self {
            Need::Lower(bid) => st.ainv.landed_lower(st.me, bid),
            Need::Upper(bid) => {
                st.ainv_upper.contains_key(&bid) || st.ainv.landed_lower(st.me, bid)
            }
            Need::Diag(sn) => st.ainv.landed_diag(st.me, sn),
        }
    }
}

/// The GEMM stage's dependency set on this rank: the ancestor `A⁻¹` piece
/// [`RankState::gather_strip`] reads for each `(target, ancestor)` pair of
/// [`gemm_task_specs`] whose producer is still `live`. The piece of pair
/// `(J, I)` is produced by supernode `min(J, I)` — the `Row-Reduce` of `I`
/// (`Lower`), the step-5 transpose of `J` (`Upper`) or the diagonal
/// reduction of `J == I` (`Diag`) — and a producer that is no longer active
/// in the query has finished, so its piece is already on this rank. At a
/// window of one the only live producers are tail tasks still reducing. No
/// two pairs share a piece — a supernode's blocks have distinct `sn`, so
/// `(J, I)` names a distinct block of `I`, of `J` or the diagonal of
/// `J == I` — so the list needs no de-duplication.
fn gemm_needs(st: &RankState<'_>, blocks: &[SnBlock], live: impl Fn(usize) -> bool) -> Vec<Need> {
    let (targets, ancestors) = gemm_task_specs(st, blocks);
    let mut needs = Vec::new();
    for &bj_i in &targets {
        let jsn = blocks[bj_i].sn;
        for &bi_i in &ancestors {
            let isn = blocks[bi_i].sn;
            if !live(jsn.min(isn)) {
                continue;
            }
            needs.push(match jsn.cmp(&isn) {
                Ordering::Greater => Need::Lower(find_block(st.sf, jsn, isn).0),
                Ordering::Less => Need::Upper(find_block(st.sf, isn, jsn).0),
                Ordering::Equal => Need::Diag(jsn),
            });
        }
    }
    needs
}

/// Per-block `Col-Bcast` progress.
enum Cb {
    /// This rank is not a member of the tree.
    Out,
    /// This rank is the root, still waiting for the transpose to deliver
    /// `Û_{K,I}` before it can launch the broadcast.
    Root,
    /// In flight.
    Run(TreeBcastNb),
    Done,
}

/// Per-block `Row-Reduce` progress.
enum Rr {
    Out,
    /// Member, waiting for the local GEMM stage to produce contributions.
    Wait,
    Run(TreeReduceNb),
    Done,
}

/// Diagonal-reduction progress.
enum Dr {
    Out,
    /// Participant, waiting for this rank's owned `A⁻¹` lower blocks.
    Wait,
    Run(TreeReduceNb),
    Done,
}

/// What wakes a task's stages ([`SnTask::wake`]).
#[derive(Clone, Copy, Debug)]
enum Wake {
    /// A message of the task's stage `(phase, bi)` from `src` entered the
    /// stash: exactly that stage's receive is tested.
    Msg { phase: u64, bi: usize, src: usize },
    /// An in-rank event — entry into the window, the last GEMM need
    /// landing — opened the GEMM gate ([`SnTask::may_compute`]).
    Gate,
}

/// What one [`SnTask::wake`] did that other tasks of the query wait for.
#[derive(Default)]
struct Fired {
    /// `A⁻¹` pieces that landed on this rank (the GEMM needs of later
    /// tasks).
    landed: Vec<Need>,
    /// The task's GEMM stage ran: it left the window.
    gemm: bool,
}

/// One in-flight descending supernode on one rank: the rank-local slice of
/// steps a′/a/1/b/2+c/3′ of Algorithm 1, as an explicit state machine. It
/// advances only when woken ([`Wake`]); counters stand in for every scan
/// over its stages.
struct SnTask {
    k: usize,
    /// Pending transpose receives `(bi, request)`.
    t_recvs: Vec<(usize, RecvRequest)>,
    /// `Û_{K,I}` blocks available on this rank, keyed by block index.
    ucur: HashMap<usize, Mat>,
    cb: Vec<Cb>,
    /// `Û` steps still outstanding: pending transposes plus broadcasts not
    /// done. The GEMM stage waits for zero.
    u_left: usize,
    /// In its query's window; `false` while it is in the Û horizon, which
    /// keeps the GEMM stage and every later one shut.
    promoted: bool,
    /// Ancestor `A⁻¹` pieces ([`gemm_needs`]) missing at promotion that
    /// have not landed yet; each landing counts it down.
    needs_left: usize,
    gemm_done: bool,
    contrib: HashMap<usize, Mat>,
    /// `ldlt_invert` of `K`'s diagonal factor block, computed beside the
    /// GEMMs on the diagonal owner ([`local_gemms`]); `None` elsewhere, and
    /// when the GEMM stage had no targets.
    diag_inv: Option<Mat>,
    rr: Vec<Rr>,
    /// Block indices whose `Row-Reduce` roots on this rank (the owned
    /// `A⁻¹_{J,K}` blocks) gate the diagonal contribution.
    owned_bids: Vec<usize>,
    /// Owned blocks whose `Row-Reduce` has not landed.
    owned_left: usize,
    dr: Dr,
    /// Pending step-5 `A⁻¹` transpose receives `(bj_i, request)`.
    at_recvs: Vec<(usize, RecvRequest)>,
    /// Step-5 sends/self-copies waiting for this rank's `A⁻¹_{J,K}`.
    at_pending: Vec<usize>,
    /// Reduction messages `(phase, bi, src)` that arrived before their
    /// stage started; replayed when it does.
    early: Vec<(u64, usize, usize)>,
    /// Unfinished stages (transposes, broadcasts, the GEMM, reductions and
    /// step-5 transfers); the task is done at zero.
    left: usize,
}

impl SnTask {
    /// Activates supernode `k` on this rank: issues the transpose sends,
    /// posts every receive the task will ever need, launches the non-root
    /// sides of the `Col-Bcast`s and every root whose `Û` block is a
    /// self-transpose. The task starts in the Û horizon; promotion into the
    /// window lets it compute.
    fn activate(ctx: &mut RankCtx, st: &RankState<'_>, sp: &SupernodePlan, k: usize) -> Self {
        let sf = st.sf;
        let me = st.me;
        let layout = st.layout;
        let blocks = sf.blocks_of(k);

        // Step a': transpose sends fire immediately (L̂ is shared storage
        // from phase 1, so each send is a reference-count bump); receives
        // are posted as requests, tested when their message arrives.
        ctx.tracer().push_scope(CollKind::Transpose, span_key(st.qid, k));
        let mut ucur: HashMap<usize, Mat> = HashMap::new();
        let mut t_recvs = Vec::new();
        for (bi, _b) in blocks.iter().enumerate() {
            let (src, dst) = sp.transposes[bi];
            let bid = sf.blocks_ptr[k] + bi;
            if src == dst {
                if me == src {
                    ucur.insert(bi, st.lhat[&bid].clone());
                }
            } else if me == src {
                let data = pack(ctx, &st.lhat[&bid]);
                ctx.send(dst, tag_q(st.qid, PHASE_TRANSPOSE, k, bi), data);
            } else if me == dst {
                t_recvs.push((bi, RecvRequest::post(src, tag_q(st.qid, PHASE_TRANSPOSE, k, bi))));
            }
        }
        ctx.tracer().pop_scope();

        // Step a: non-root Col-Bcast members post their parent receive now;
        // a root broadcasts once the transpose delivers its Û block, at once
        // for a self-transpose.
        ctx.tracer().push_scope(CollKind::ColBcast, span_key(st.qid, k));
        let cb: Vec<Cb> = (0..blocks.len())
            .map(|bi| {
                let tree = &sp.col_bcasts[bi];
                if !tree.members().contains(&me) {
                    Cb::Out
                } else if me == tree.root() {
                    match ucur.get(&bi) {
                        Some(u) => {
                            let tag = tag_q(st.qid, PHASE_COL_BCAST, k, bi);
                            let payload = pack(ctx, u);
                            let nb = TreeBcastNb::start(ctx, tree, tag, Some(payload));
                            debug_assert!(nb.is_done(), "the root side completes at start");
                            Cb::Done
                        }
                        None => Cb::Root,
                    }
                } else {
                    Cb::Run(TreeBcastNb::start(
                        ctx,
                        tree,
                        tag_q(st.qid, PHASE_COL_BCAST, k, bi),
                        None::<Payload>,
                    ))
                }
            })
            .collect();
        ctx.tracer().pop_scope();

        let rr: Vec<Rr> = (0..blocks.len())
            .map(
                |bj_i| {
                    if sp.row_reduces[bj_i].members().contains(&me) {
                        Rr::Wait
                    } else {
                        Rr::Out
                    }
                },
            )
            .collect();
        let owned_bids: Vec<usize> = blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| layout.lower_owner(b, k) == me)
            .map(|(bj_i, _)| sf.blocks_ptr[k] + bj_i)
            .collect();
        let dr = if layout.diag_owner(k) == me || sp.diag_reduce.members().contains(&me) {
            Dr::Wait
        } else {
            Dr::Out
        };

        // Step 3': post the A⁻¹ transpose receives; queue the sends until
        // the Row-Reduce produces the owned block.
        let mut at_recvs = Vec::new();
        let mut at_pending = Vec::new();
        for bj_i in 0..blocks.len() {
            let (src, dst) = sp.transposes[bj_i];
            if me == src {
                at_pending.push(bj_i);
            } else if me == dst {
                at_recvs
                    .push((bj_i, RecvRequest::post(src, tag_q(st.qid, PHASE_AINV_TRANS, k, bj_i))));
            }
        }

        let u_left =
            t_recvs.len() + cb.iter().filter(|c| matches!(c, Cb::Root | Cb::Run(_))).count();
        let left = u_left
            + 1
            + rr.iter().filter(|r| !matches!(r, Rr::Out)).count()
            + usize::from(!matches!(dr, Dr::Out))
            + at_recvs.len()
            + at_pending.len();
        SnTask {
            k,
            t_recvs,
            ucur,
            cb,
            u_left,
            promoted: false,
            needs_left: 0,
            gemm_done: false,
            contrib: HashMap::new(),
            diag_inv: None,
            rr,
            owned_left: owned_bids.len(),
            owned_bids,
            dr,
            at_recvs,
            at_pending,
            early: Vec::new(),
            left,
        }
    }

    /// Whether the GEMM stage can run: the task is in the window and every
    /// `Û` block and every ancestor `A⁻¹` piece this rank reads is here.
    fn may_compute(&self) -> bool {
        self.promoted && !self.gemm_done && self.u_left == 0 && self.needs_left == 0
    }

    fn is_done(&self) -> bool {
        self.left == 0
    }

    /// The phase of the first stage this unfinished task still waits in —
    /// where the lock-step schedule would block on a receive.
    fn waiting_on(&self) -> CollKind {
        if !self.t_recvs.is_empty() {
            CollKind::Transpose
        } else if !self.cb.iter().all(|c| matches!(c, Cb::Out | Cb::Done)) {
            CollKind::ColBcast
        } else if !self.rr.iter().all(|r| matches!(r, Rr::Out | Rr::Done)) {
            CollKind::RowReduce
        } else if !matches!(self.dr, Dr::Out | Dr::Done) {
            CollKind::DiagReduce
        } else {
            CollKind::AinvTranspose
        }
    }

    /// Advances the stage `wake` names, then every in-rank stage its
    /// counters have opened. Each message wake tests exactly one receive.
    fn wake(
        &mut self,
        ctx: &mut RankCtx,
        st: &mut RankState<'_>,
        sp: &SupernodePlan,
        pool: &Pool,
        wake: Wake,
        fired: &mut Fired,
    ) {
        if let Wake::Msg { phase, bi, src } = wake {
            match phase {
                PHASE_TRANSPOSE => self.on_transpose(ctx, st, sp, bi),
                PHASE_COL_BCAST => self.on_col_bcast(ctx, st, sp, bi),
                PHASE_ROW_REDUCE => self.on_row_reduce(ctx, st, sp, bi, src, fired),
                PHASE_DIAG_REDUCE => self.on_diag_reduce(ctx, st, sp, src, fired),
                PHASE_AINV_TRANS => self.on_ainv_transpose(ctx, st, bi, fired),
                _ => debug_assert!(false, "phase {phase:#x} has no phase-2 stage"),
            }
        }
        // Step 1: the local GEMMs.
        if self.may_compute() {
            let w = st.sf.width(self.k);
            (self.contrib, self.diag_inv) = local_gemms(st, &self.ucur, self.k, w, pool);
            self.gemm_done = true;
            self.left -= 1;
            fired.gemm = true;
            self.start_row_reduces(ctx, st, sp, fired);
        }
        // Steps 2 + c: the diagonal contribution, once every owned A⁻¹
        // block has landed.
        if matches!(self.dr, Dr::Wait) && self.gemm_done && self.owned_left == 0 {
            self.start_diag_reduce(ctx, st, sp, pool, fired);
        }
    }

    /// Step a': a transpose landed; a root launches its broadcast with it.
    fn on_transpose(
        &mut self,
        ctx: &mut RankCtx,
        st: &RankState<'_>,
        sp: &SupernodePlan,
        bi: usize,
    ) {
        let Some(i) = self.t_recvs.iter().position(|(b, _)| *b == bi) else { return };
        ctx.tracer().push_scope(CollKind::Transpose, span_key(st.qid, self.k));
        let matched = self.t_recvs[i].1.test(ctx);
        ctx.tracer().pop_scope();
        if !matched {
            return;
        }
        let data = self.t_recvs.swap_remove(i).1.take().expect("completed request has a payload");
        let rows = st.sf.blocks_of(self.k)[bi].nrows();
        self.ucur.insert(bi, unpack(rows, st.sf.width(self.k), data));
        self.u_left -= 1;
        self.left -= 1;
        // Step a at the root: broadcast Û_{K,I}; the root completes at start.
        if matches!(self.cb[bi], Cb::Root) {
            ctx.tracer().push_scope(CollKind::ColBcast, span_key(st.qid, self.k));
            let payload = pack(ctx, &self.ucur[&bi]);
            let tag = tag_q(st.qid, PHASE_COL_BCAST, self.k, bi);
            let nb = TreeBcastNb::start(ctx, &sp.col_bcasts[bi], tag, Some(payload));
            debug_assert!(nb.is_done(), "the root side completes at start");
            ctx.tracer().pop_scope();
            self.cb[bi] = Cb::Done;
            self.u_left -= 1;
            self.left -= 1;
        }
    }

    /// Step a off the root: the parent's message forwards `Û_{K,I}` on.
    fn on_col_bcast(
        &mut self,
        ctx: &mut RankCtx,
        st: &RankState<'_>,
        sp: &SupernodePlan,
        bi: usize,
    ) {
        let Cb::Run(nb) = &mut self.cb[bi] else { return };
        ctx.tracer().push_scope(CollKind::ColBcast, span_key(st.qid, self.k));
        let done = nb.poll(ctx, &sp.col_bcasts[bi]);
        ctx.tracer().pop_scope();
        if !done {
            return;
        }
        if let Cb::Run(nb) = std::mem::replace(&mut self.cb[bi], Cb::Done) {
            let p = nb.into_payload().expect("non-root member got the payload");
            let rows = st.sf.blocks_of(self.k)[bi].nrows();
            let w = st.sf.width(self.k);
            self.ucur.entry(bi).or_insert_with(|| unpack(rows, w, p));
        }
        self.u_left -= 1;
        self.left -= 1;
    }

    /// Step b: a child's contribution to `Row-Reduce` `bj_i` arrived; one
    /// that beats this rank's GEMM stage waits in `early`.
    fn on_row_reduce(
        &mut self,
        ctx: &mut RankCtx,
        st: &mut RankState<'_>,
        sp: &SupernodePlan,
        bj_i: usize,
        src: usize,
        fired: &mut Fired,
    ) {
        match &mut self.rr[bj_i] {
            Rr::Wait => self.early.push((PHASE_ROW_REDUCE, bj_i, src)),
            Rr::Run(nb) => {
                ctx.tracer().push_scope(CollKind::RowReduce, span_key(st.qid, self.k));
                let done = nb.poll_from(ctx, &sp.row_reduces[bj_i], src);
                ctx.tracer().pop_scope();
                if done {
                    self.finish_row_reduce(ctx, st, sp, bj_i, fired);
                }
            }
            Rr::Out | Rr::Done => {}
        }
    }

    /// Step b after the GEMM stage: every member's `Row-Reduce` starts with
    /// its contribution, and the children's messages that came early are
    /// matched.
    fn start_row_reduces(
        &mut self,
        ctx: &mut RankCtx,
        st: &mut RankState<'_>,
        sp: &SupernodePlan,
        fired: &mut Fired,
    ) {
        let k = self.k;
        let w = st.sf.width(k);
        for (bj_i, bj) in st.sf.blocks_of(k).iter().enumerate() {
            if !matches!(self.rr[bj_i], Rr::Wait) {
                continue;
            }
            let tree = &sp.row_reduces[bj_i];
            ctx.tracer().push_scope(CollKind::RowReduce, span_key(st.qid, k));
            let local = self.contrib.remove(&bj_i).unwrap_or_else(|| Mat::zeros(bj.nrows(), w));
            let tag = tag_q(st.qid, PHASE_ROW_REDUCE, k, bj_i);
            let nb = TreeReduceNb::start(ctx, tree, tag, local.into_vec());
            ctx.tracer().pop_scope();
            let done = nb.is_done();
            self.rr[bj_i] = Rr::Run(nb);
            if done {
                self.finish_row_reduce(ctx, st, sp, bj_i, fired);
            }
        }
        for (phase, bj_i, src) in std::mem::take(&mut self.early) {
            if phase == PHASE_ROW_REDUCE {
                self.on_row_reduce(ctx, st, sp, bj_i, src, fired);
            } else {
                self.early.push((phase, bj_i, src));
            }
        }
    }

    /// `Row-Reduce` `bj_i` finished on this rank. At the root `A⁻¹_{J,K}`
    /// lands in its panel region, and its step-5 transpose fires: a send,
    /// packed from the reduction's result as it lands, or nothing for a
    /// self-transpose, whose upper piece this rank reads from the panel.
    fn finish_row_reduce(
        &mut self,
        ctx: &mut RankCtx,
        st: &mut RankState<'_>,
        sp: &SupernodePlan,
        bj_i: usize,
        fired: &mut Fired,
    ) {
        let Rr::Run(nb) = std::mem::replace(&mut self.rr[bj_i], Rr::Done) else {
            unreachable!("only a running reduction finishes")
        };
        self.left -= 1;
        let Some(t) = nb.into_result() else { return };
        let k = self.k;
        let bid = st.sf.blocks_ptr[k] + bj_i;
        st.ainv.write_lower(st.me, k, bj_i, &t);
        fired.landed.push(Need::Lower(bid));
        if self.owned_bids.contains(&bid) {
            self.owned_left -= 1;
        }
        // Step 3': the A⁻¹ transpose send (or self-copy) of this block.
        if let Some(i) = self.at_pending.iter().position(|&b| b == bj_i) {
            self.at_pending.swap_remove(i);
            self.left -= 1;
            ctx.tracer().push_scope(CollKind::AinvTranspose, span_key(st.qid, k));
            let (src, dst) = sp.transposes[bj_i];
            if src == dst {
                fired.landed.push(Need::Upper(bid));
            } else {
                // Sending the result is the one packing copy of a block
                // that travels (`send` accounts it).
                ctx.send(dst, tag_q(st.qid, PHASE_AINV_TRANS, k, bj_i), t);
            }
            ctx.tracer().pop_scope();
        }
    }

    /// Steps 2 + c: the diagonal contribution and its reduction start; the
    /// messages that came early are matched.
    fn start_diag_reduce(
        &mut self,
        ctx: &mut RankCtx,
        st: &mut RankState<'_>,
        sp: &SupernodePlan,
        pool: &Pool,
        fired: &mut Fired,
    ) {
        let k = self.k;
        let w = st.sf.width(k);
        ctx.tracer().push_scope(CollKind::DiagReduce, span_key(st.qid, k));
        let dcon = diag_contrib(st, k, &self.owned_bids, w, pool);
        if sp.diag_reduce.is_empty() {
            if st.layout.diag_owner(k) == st.me {
                finish_diag(st, k, w, dcon.into_vec(), self.diag_inv.take());
                fired.landed.push(Need::Diag(k));
            }
            self.dr = Dr::Done;
            self.left -= 1;
            ctx.tracer().pop_scope();
            return;
        }
        let tag = tag_q(st.qid, PHASE_DIAG_REDUCE, k, 0);
        let nb = TreeReduceNb::start(ctx, &sp.diag_reduce, tag, dcon.into_vec());
        ctx.tracer().pop_scope();
        let done = nb.is_done();
        self.dr = Dr::Run(nb);
        if done {
            self.finish_diag_reduce(st, fired);
        }
        // The row reductions' early messages were replayed at the GEMM.
        for (phase, _, src) in std::mem::take(&mut self.early) {
            debug_assert_eq!(phase, PHASE_DIAG_REDUCE);
            self.on_diag_reduce(ctx, st, sp, src, fired);
        }
    }

    /// Step c: a child's contribution to the diagonal reduction arrived.
    fn on_diag_reduce(
        &mut self,
        ctx: &mut RankCtx,
        st: &mut RankState<'_>,
        sp: &SupernodePlan,
        src: usize,
        fired: &mut Fired,
    ) {
        match &mut self.dr {
            Dr::Wait => self.early.push((PHASE_DIAG_REDUCE, 0, src)),
            Dr::Run(nb) => {
                ctx.tracer().push_scope(CollKind::DiagReduce, span_key(st.qid, self.k));
                let done = nb.poll_from(ctx, &sp.diag_reduce, src);
                ctx.tracer().pop_scope();
                if done {
                    self.finish_diag_reduce(st, fired);
                }
            }
            Dr::Out | Dr::Done => {}
        }
    }

    /// The diagonal reduction finished on this rank; at the diagonal owner
    /// `A⁻¹_{K,K}` lands.
    fn finish_diag_reduce(&mut self, st: &mut RankState<'_>, fired: &mut Fired) {
        let Dr::Run(nb) = std::mem::replace(&mut self.dr, Dr::Done) else {
            unreachable!("only a running reduction finishes")
        };
        self.left -= 1;
        if st.layout.diag_owner(self.k) == st.me {
            let total = nb.into_result().expect("diag owner must receive the reduction");
            finish_diag(st, self.k, st.sf.width(self.k), total, self.diag_inv.take());
            fired.landed.push(Need::Diag(self.k));
        }
    }

    /// Step 3': an `A⁻¹` transpose landed.
    fn on_ainv_transpose(
        &mut self,
        ctx: &mut RankCtx,
        st: &mut RankState<'_>,
        bj_i: usize,
        fired: &mut Fired,
    ) {
        let Some(i) = self.at_recvs.iter().position(|(b, _)| *b == bj_i) else { return };
        ctx.tracer().push_scope(CollKind::AinvTranspose, span_key(st.qid, self.k));
        let matched = self.at_recvs[i].1.test(ctx);
        ctx.tracer().pop_scope();
        if !matched {
            return;
        }
        let data = self.at_recvs.swap_remove(i).1.take().expect("completed request has a payload");
        let k = self.k;
        let bid = st.sf.blocks_ptr[k] + bj_i;
        let rows = st.sf.blocks_of(k)[bj_i].nrows();
        st.ainv_upper.insert(bid, unpack(rows, st.sf.width(k), data));
        fired.landed.push(Need::Upper(bid));
        self.left -= 1;
    }
}

/// `A⁻¹_{K,K} = (L D Lᵀ)⁻¹ − Σ`, symmetrized — identical arithmetic to the
/// synchronous path (contributions were accumulated in block order).
/// `inverse` is `(L D Lᵀ)⁻¹` when the GEMM stage computed it; otherwise it
/// is computed here.
fn finish_diag(st: &mut RankState<'_>, k: usize, w: usize, total: Vec<f64>, inverse: Option<Mat>) {
    let mut diag = inverse.unwrap_or_else(|| ldlt_invert(&st.factor_diag(k)));
    let t = Mat::from_vec(w, w, total);
    diag.axpy(-1.0, &t);
    for jl in 0..w {
        for il in (jl + 1)..w {
            let v = 0.5 * (diag[(il, jl)] + diag[(jl, il)]);
            diag[(il, jl)] = v;
            diag[(jl, il)] = v;
        }
    }
    st.ainv.write_diag(st.me, k, diag.data());
}

/// Does rank `me` touch supernode `k`'s phase-2 work at all? Skipped
/// supernodes never occupy a window slot.
pub(crate) fn participates(layout: &Layout, me: usize, sp: &SupernodePlan, k: usize) -> bool {
    if layout.diag_owner(k) == me
        || sp.diag_reduce.members().contains(&me)
        || sp.transposes.iter().any(|&(s, d)| s == me || d == me)
    {
        return true;
    }
    sp.col_bcasts.iter().any(|t| t.members().contains(&me))
        || sp.row_reduces.iter().any(|t| t.members().contains(&me))
}

/// The order in which every rank activates a query's supernodes in phase 2
/// under a window of `window` (see the module's *descent order*): a
/// permutation of the supernodes that puts every etree ancestor before its
/// descendants. At a window of one it is descending index; above it, etree
/// depth ascending (roots first), then descending index. Depth takes one
/// descending pass over `sn_parent`: the etree is postordered, so a parent
/// has the higher index and its depth is known before its children's.
pub(crate) fn descent_order(sf: &SymbolicFactor, window: usize) -> Vec<usize> {
    let ns = sf.num_supernodes();
    let mut order: Vec<usize> = (0..ns).rev().collect();
    if window > 1 {
        let mut depth = vec![0usize; ns];
        for s in (0..ns).rev() {
            let p = sf.sn_parent[s];
            if p != NONE {
                depth[s] = depth[p] + 1;
            }
        }
        // Stable: within one depth the index stays descending.
        order.sort_by_key(|&s| depth[s]);
    }
    order
}

/// One query's window over the descent order inside [`phase2_multi`]: the
/// window bounds GEMM stages; a tail of reducing tasks follows it.
struct QueryRun<'o> {
    /// The supernodes of the descent order not yet activated or skipped
    /// for this query.
    rest: &'o [usize],
    /// `tasks[k]`: supernode `k`'s task while it is active — from
    /// activation to retirement.
    tasks: Vec<Option<Box<SnTask>>>,
    /// Active tasks.
    active: usize,
    /// Promoted tasks whose GEMM has not run: the window.
    in_window: usize,
    /// Activated tasks not yet promoted, in descent order: the Û horizon.
    /// With the window, the ordered queue of tasks whose GEMM has not run.
    horizon: VecDeque<usize>,
    /// Window tasks waiting on each `A⁻¹` piece that has not landed.
    waiters: HashMap<Need, Vec<usize>>,
    /// Message wakes for supernodes not activated yet, replayed at
    /// activation.
    early: HashMap<usize, Vec<Wake>>,
    /// Position in the descent order of the oldest task that may still be
    /// active (the park's trace scope names it).
    oldest: usize,
}

impl QueryRun<'_> {
    fn is_finished(&self) -> bool {
        self.rest.is_empty() && self.active == 0
    }
}

/// A woken stage of task `k` of query `q`.
type Ready = VecDeque<(usize, usize, Wake)>;

/// Routes the message wakes in `wakes` to the ready list: a message names
/// its waiting stage through its tag ([`untag_q`]), and one for a
/// supernode not activated yet is kept until it is.
fn route(wakes: &[(usize, u64)], runs: &mut [QueryRun], pos: &[usize], ready: &mut Ready) {
    for &(src, tag) in wakes {
        let Some(TagFields { qid, phase, k, bi }) = untag_q(tag) else {
            debug_assert!(false, "phase 2 got a message outside its lanes: {tag:#x}");
            continue;
        };
        let (q, wake) = (qid as usize, Wake::Msg { phase, bi, src });
        let run = &mut runs[q];
        if run.tasks[k].is_some() {
            ready.push_back((q, k, wake));
        } else if pos[k] >= pos.len() - run.rest.len() {
            run.early.entry(k).or_default().push(wake);
        } else {
            debug_assert!(false, "a message for retired supernode {k}: {tag:#x}");
        }
    }
}

/// Phase 2 (descending) for one query or a batch of queries sharing one
/// symbolic analysis and one communication plan: each query runs a sliding
/// window of up to `window` supernode tasks (at least one,
/// [`crate::DistOptions::window`]) over the [`descent_order`] and its own
/// [`RankState`] (whose `qid` namespaces every tag and span), and one
/// progress loop per rank drives them all — the collectives of one pole
/// overlap the local GEMMs of another. The window bounds GEMM stages; a
/// tail of reducing tasks follows it: a task leaves the window once its
/// local GEMMs have run and finishes its reductions and `A⁻¹` transposes
/// in the tail. Directly behind each window runs its Û horizon of up to
/// `window` more tasks, the next ones in the order, activated but not yet
/// computing: their transposes and `Col-Bcast`s travel while the window
/// computes.
///
/// The loop keeps a ready list of woken stages and polls nothing else: a
/// pass costs what it wakes, not what is active. A message wakes the stage
/// its tag names, read from the rank's wake log
/// ([`RankCtx::take_wakes`]); activation, entry into the window and the
/// landing of a piece some window task's GEMM needs are in-rank wakes.
/// When the list is empty and no window can grow, it parks (visible to the
/// watchdog) until a message arrives. The park is filed under the oldest
/// task's waiting stage ([`SnTask::waiting_on`]), so a traced wait keeps
/// its (phase, supernode) attribution. A window of one runs one GEMM stage
/// at a time, in descent order, while the reductions before it finish and
/// the next one's Û is already on its way. [`RankCtx::outstanding`]
/// reports the window tasks.
///
/// Admission control: queries are admitted in ascending index order, with
/// at most `max_inflight` *unfinished* admitted queries at a time. Every
/// rank computes admission from its local completion state, which is a
/// restriction of the same global order — see the module-level
/// deadlock-freedom argument.
pub(crate) fn phase2_multi(
    ctx: &mut RankCtx,
    states: &mut [RankState<'_>],
    plans: &[SupernodePlan],
    pool: &Pool,
    window: usize,
    max_inflight: usize,
) {
    let max_inflight = max_inflight.max(1);
    // The window plus its horizon of as many tasks again, saturating for an
    // unbounded window: the tasks whose GEMM has not run.
    let span = window.saturating_mul(2);
    let order = states.first().map_or(Vec::new(), |st| descent_order(st.sf, window));
    let mut pos = vec![0; order.len()];
    for (i, &k) in order.iter().enumerate() {
        pos[k] = i;
    }
    debug_assert!(states.iter().enumerate().all(|(q, st)| st.qid == q as u64));
    let mut runs: Vec<QueryRun> = states
        .iter()
        .map(|_| QueryRun {
            rest: &order,
            tasks: (0..order.len()).map(|_| None).collect(),
            active: 0,
            in_window: 0,
            horizon: VecDeque::new(),
            waiters: HashMap::new(),
            early: HashMap::new(),
            oldest: 0,
        })
        .collect();
    let mut ready: Ready = VecDeque::new();
    let mut wakes = Vec::new();
    let mut fired = Fired::default();
    let mut admitted = 0usize; // queries 0..admitted have entered the race
    let mut park_scope = false; // the last pass left a scope open over the park

    // Phase-2 messages that reached this rank during its phase 1 are in the
    // stash already; opening the log wakes their stages.
    ctx.open_wake_log();
    ctx.sweep_then_park(BlockedOn::ANY, |ctx| {
        if std::mem::take(&mut park_scope) {
            ctx.tracer().pop_scope();
        }
        // Every woken stage, and whatever it wakes in turn.
        while let Some((q, k, wake)) = ready.pop_front() {
            let (run, st) = (&mut runs[q], &mut states[q]);
            let Some(task) = run.tasks[k].as_deref_mut() else { continue };
            task.wake(ctx, st, &plans[k], pool, wake, &mut fired);
            if task.is_done() {
                run.tasks[k] = None;
                run.active -= 1;
            }
            for need in fired.landed.drain(..) {
                for w in run.waiters.remove(&need).unwrap_or_default() {
                    let t = run.tasks[w].as_deref_mut().expect("a GEMM waiter is active");
                    t.needs_left -= 1;
                    if t.may_compute() {
                        ready.push_back((q, w, Wake::Gate));
                    }
                }
            }
            if std::mem::take(&mut fired.gemm) {
                run.in_window -= 1;
                // A GEMM stage is long: forward what arrived meanwhile.
                ctx.take_wakes(&mut wakes);
                route(&wakes, &mut runs, &pos, &mut ready);
            }
        }
        // Admission in ascending query order, bounded by unfinished count;
        // then grow every admitted query's window and horizon in descent
        // order (the tail, whose GEMMs have run, takes no room). Skipping
        // the supernodes this rank takes no part in can finish a query with
        // no task retiring, which frees an admission slot.
        loop {
            let mut running = runs[..admitted].iter().filter(|r| !r.is_finished()).count();
            while admitted < runs.len() && running < max_inflight {
                admitted += 1;
                running += 1;
            }
            let mut freed = false;
            for (q, (st, run)) in states[..admitted].iter_mut().zip(&mut runs).enumerate() {
                if run.is_finished() {
                    continue;
                }
                while run.in_window + run.horizon.len() < span {
                    let Some((&k, rest)) = run.rest.split_first() else { break };
                    run.rest = rest;
                    if !participates(st.layout, st.me, &plans[k], k) {
                        continue;
                    }
                    run.tasks[k] = Some(Box::new(SnTask::activate(ctx, st, &plans[k], k)));
                    run.active += 1;
                    run.horizon.push_back(k);
                    let early = run.early.remove(&k).unwrap_or_default();
                    ready.extend(early.into_iter().map(|w| (q, k, w)));
                }
                // Promotion records the GEMM needs against the query's live
                // tasks: the producers are ancestors, activated before this
                // task, so a live one is ahead of it in the window or the
                // tail and an inactive one has retired, its piece here.
                while run.in_window < window {
                    let Some(k) = run.horizon.pop_front() else { break };
                    let mut needs =
                        gemm_needs(st, st.sf.blocks_of(k), |sn| run.tasks[sn].is_some());
                    needs.retain(|n| !n.satisfied(st));
                    let t = run.tasks[k].as_deref_mut().expect("a horizon task is active");
                    t.promoted = true;
                    t.needs_left = needs.len();
                    if t.may_compute() {
                        ready.push_back((q, k, Wake::Gate));
                    }
                    for need in needs {
                        run.waiters.entry(need).or_default().push(k);
                    }
                    run.in_window += 1;
                }
                freed |= run.is_finished();
            }
            if !freed || admitted == runs.len() {
                break;
            }
        }
        ctx.outstanding(runs[..admitted].iter().map(|r| r.in_window).sum());
        if admitted == runs.len() && runs.iter().all(QueryRun::is_finished) {
            return Progress::Done(());
        }
        ctx.take_wakes(&mut wakes);
        route(&wakes, &mut runs, &pos, &mut ready);
        if !ready.is_empty() {
            return Progress::Moved;
        }
        // Every window is as full as it can get and every pending stage
        // awaits a message. Hold the oldest task's waiting stage open over
        // the park; the next pass closes it.
        let oldest = states[..admitted].iter().zip(&mut runs).find_map(|(st, r)| {
            let activated = order.len() - r.rest.len();
            while r.oldest < activated && r.tasks[order[r.oldest]].is_none() {
                r.oldest += 1;
            }
            let t = r.tasks[*order.get(r.oldest)?].as_deref()?;
            Some((t.waiting_on(), span_key(st.qid, t.k)))
        });
        if let Some((coll, key)) = oldest {
            ctx.tracer().push_scope(coll, key);
            park_scope = true;
        }
        Progress::Idle
    });
    ctx.close_wake_log();
    ctx.outstanding(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_mpisim::Grid2D;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;
    use std::sync::Arc;

    /// The dependency scan `gemm_needs` replaced: every block pair computed
    /// on this rank, de-duplicated by a linear search.
    fn scan_and_dedup(st: &RankState<'_>, blocks: &[SnBlock]) -> Vec<Need> {
        let grid = &st.layout.grid;
        let mut needs: Vec<Need> = Vec::new();
        for bj in blocks {
            let prow_j = grid.prow_of_block(bj.sn);
            for bi in blocks {
                if grid.rank_of(prow_j, grid.pcol_of_block(bi.sn)) != st.me {
                    continue;
                }
                let need = match bj.sn.cmp(&bi.sn) {
                    Ordering::Greater => Need::Lower(find_block(st.sf, bj.sn, bi.sn).0),
                    Ordering::Less => Need::Upper(find_block(st.sf, bi.sn, bj.sn).0),
                    Ordering::Equal => Need::Diag(bj.sn),
                };
                if !needs.contains(&need) {
                    needs.push(need);
                }
            }
        }
        needs
    }

    /// The supernode whose task puts `need` on this rank: the owner of the
    /// block for `Lower`/`Upper`, the diagonal's own supernode for `Diag`.
    fn producer(sf: &pselinv_order::SymbolicFactor, need: Need) -> usize {
        match need {
            Need::Lower(bid) | Need::Upper(bid) => sf.blocks_ptr.partition_point(|&p| p <= bid) - 1,
            Need::Diag(sn) => sn,
        }
    }

    #[test]
    fn gemm_needs_equal_the_deduplicated_pair_scan() {
        // With every supernode live, the needs are the whole pair scan; with
        // none live (a window of one), there are none; with some live, they
        // are the scan's needs whose producer is live.
        let workloads = [
            gen::grid_laplacian_2d(9, 8),
            gen::fem_3d(4, 4, 3, 1, 7),
            gen::dg_hamiltonian(6, 6, 1, 6, 0xd6f),
        ];
        for w in &workloads {
            let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
            let factor = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
            for grid in [Grid2D::new(1, 1), Grid2D::new(2, 2), Grid2D::new(2, 3)] {
                let layout = Layout::new(sf.clone(), grid);
                let panels = crate::ainv::AinvPanels::new(&layout);
                let mut total = 0;
                for me in 0..grid.size() {
                    let st = RankState {
                        sf: &sf,
                        factor: &factor,
                        layout: &layout,
                        me,
                        qid: 0,
                        lhat: HashMap::new(),
                        ainv: &panels,
                        ainv_upper: HashMap::new(),
                    };
                    for k in 0..sf.num_supernodes() {
                        let blocks = sf.blocks_of(k);
                        let old = scan_and_dedup(&st, blocks);
                        let what = format!("{} {}x{} rank {me} sn {k}", w.name, grid.pr, grid.pc);
                        let new = gemm_needs(&st, blocks, |_| true);
                        // Equal lengths, mutual containment and a duplicate-free
                        // `old` make `new` duplicate-free and set-equal to it.
                        assert_eq!(new.len(), old.len(), "{what}");
                        assert!(new.iter().all(|n| old.contains(n)), "{what}");
                        assert!(old.iter().all(|n| new.contains(n)), "{what}");
                        total += new.len();
                        assert!(gemm_needs(&st, blocks, |_| false).is_empty(), "{what}");
                        let odd = |sn: usize| sn % 2 == 1;
                        let some = gemm_needs(&st, blocks, odd);
                        let want: Vec<Need> =
                            old.into_iter().filter(|&n| odd(producer(&sf, n))).collect();
                        assert_eq!(some.len(), want.len(), "{what}: odd producers");
                        assert!(some.iter().all(|n| want.contains(n)), "{what}: odd producers");
                    }
                }
                assert!(total > 0, "{} {}x{}: no GEMM needs at all", w.name, grid.pr, grid.pc);
            }
        }
    }

    #[test]
    fn descent_order_puts_ancestors_first_and_fills_a_window_by_depth() {
        let workloads = [
            gen::grid_laplacian_2d(9, 8),
            gen::fem_3d(4, 4, 3, 1, 7),
            gen::dg_hamiltonian(6, 6, 1, 6, 0xd6f),
        ];
        for w in &workloads {
            let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
            let ns = sf.num_supernodes();
            let depth = |mut s: usize| {
                let mut d = 0;
                while sf.sn_parent[s] != NONE {
                    s = sf.sn_parent[s];
                    d += 1;
                }
                d
            };
            assert!((0..ns).any(|s| depth(s) > 1), "{}: a flat etree tests nothing", w.name);
            for window in [1, 2, 4, usize::MAX] {
                let what = format!("{} window {window}", w.name);
                let order = descent_order(&sf, window);
                let mut pos = vec![usize::MAX; ns];
                for (i, &s) in order.iter().enumerate() {
                    assert_eq!(pos[s], usize::MAX, "{what}: supernode {s} twice");
                    pos[s] = i;
                }
                assert_eq!(order.len(), ns, "{what}: not a permutation");
                for s in 0..ns {
                    let p = sf.sn_parent[s];
                    assert!(p == NONE || pos[p] < pos[s], "{what}: {s} before its parent {p}");
                    for a in sf.ancestor_sns(s) {
                        assert!(pos[a] < pos[s], "{what}: {s} before its ancestor {a}");
                    }
                }
                if window == 1 {
                    assert!(order.iter().copied().eq((0..ns).rev()), "{what}: not descending");
                    continue;
                }
                for pair in order.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    let (da, db) = (depth(a), depth(b));
                    assert!(
                        da < db || (da == db && a > b),
                        "{what}: {a} (depth {da}) then {b} (depth {db})"
                    );
                }
            }
        }
    }
}
