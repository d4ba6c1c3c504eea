//! The factorization as one task DAG over supernode updates, run on the
//! pool.
//!
//! The factorization ([`crate::ldlt`]) feeds this scheduler. It runs two
//! kinds of task:
//!
//! * `F(s)` factors supernode `s`'s diagonal block and normalizes its panel;
//! * `U(s, b)` applies block `b` of `s` — one GEMM and its scatter — to the
//!   ancestor `t = blocks[b].sn`.
//!
//! Three kinds of edge keep the order:
//!
//! * `F(s) → U(s, b)`: an update reads the normalized source panel;
//! * `U(p, ·) → U(s, b)`, where `p < s` is the previous source that updates
//!   `t`: every target takes its updates one at a time, in ascending `s`;
//! * the last update into `t` `→ F(t)`.
//!
//! So each entry of every panel receives its subtractions in exactly the
//! order of a serial `for s in 0..ns` loop, and the factor is bit-identical
//! to it at any worker count (DESIGN.md §3.8). Distinct targets, and whole
//! disjoint subtrees, run concurrently.
//!
//! Task ids follow the serial loop (`F(s)`, then the `U(s, ·)` in block
//! order, then `s + 1`), and every edge goes from a lower id to a higher
//! one. The ready list is a min-heap of ids, so a one-worker pool replays
//! the serial loop task for task.
//!
//! The DAG is driven as one [`Pool::map`] over the pool's participants,
//! each a loop over that ready list: take the lowest ready id, run it
//! outside the lock, then under the lock count down its successors. A
//! participant waits on a condvar only while another one is running a
//! task, so the loops end exactly when nothing is ready and nothing runs.
//!
//! **Claimed updates.** An update of a small source (panel below
//! [`CLAIM_BELOW`] entries) that a finishing task makes ready does not go
//! through the ready list: the participant that released it runs it next,
//! and books it together with the rest of its batch. After a small `F(s)`
//! that is every update of `s` whose target chain has already reached `s`
//! — the whole of `s` on one worker. The updates still waiting for an
//! earlier source are released later, by that source's update, so claiming
//! never makes a task wait longer than its edges say.
//!
//! A zero pivot in `F(s)` releases nothing, so nothing downstream of the
//! failed panel runs and no update is ever sourced from it. The other
//! tasks go on, except those past the lowest failure seen so far, and the
//! run reports the lowest failing supernode: the one the serial loop
//! stopped at, because every lower supernode's inputs are the same in both.

use crate::ldlt::FactorError;
use pselinv_order::SymbolicFactor;
use pselinv_pool::Pool;
use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// A source whose panel has fewer than this many entries (rows × width)
/// has its updates claimed by the participant that releases them. A trip
/// through the ready list costs a lock, a heap push and pop and, across
/// workers, cache misses on the panels; below this size an update is a few
/// µs of arithmetic, and one task per update made the 55 k tiny updates of
/// a 200² Laplacian with supernodes at most 8 wide slower than the serial
/// loop.
pub(crate) const CLAIM_BELOW: usize = 4_000;

/// A pool with one worker per CPU the process may use: what
/// [`crate::factorize`] runs on. Share one
/// across several factorizations with [`crate::factorize_on`].
pub fn default_pool() -> Pool {
    Pool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `make(s, scratch)` for every supernode `s`, on `pool`: the supernodes
/// are cut into contiguous ranges of about equal panel size, four per
/// worker, each range one job with its own scratch. Results come back in
/// supernode order.
pub(crate) fn per_supernode<T: Send, S: Default>(
    sf: &SymbolicFactor,
    pool: &Pool,
    make: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    let ns = sf.num_supernodes();
    let size = |s: usize| (sf.width(s) + sf.rows_of(s).len()) * sf.width(s);
    let total: usize = (0..ns).map(size).sum();
    let ranges = 4 * pool.threads();
    let mut cuts = vec![0];
    let mut acc = 0;
    for s in 0..ns {
        acc += size(s);
        if acc * ranges >= total * cuts.len() && s + 1 < ns {
            cuts.push(s + 1);
        }
    }
    cuts.push(ns);
    let out = pool.map(cuts.windows(2), |r| {
        let mut scratch = S::default();
        (r[0]..r[1]).map(|s| make(s, &mut scratch)).collect::<Vec<T>>()
    });
    out.into_iter().flatten().collect()
}

/// The arithmetic of one factorization, as the DAG's two task kinds.
pub(crate) trait Supernodal: Sync {
    /// Per-participant workspace.
    type Scratch: Default;

    /// `F(s)`: factor the diagonal block and normalize the panel. A zero
    /// pivot returns its index within the block.
    ///
    /// # Safety
    /// Nothing else may access supernode `s`'s panels during the call.
    unsafe fn factor(&self, s: usize, scratch: &mut Self::Scratch) -> Result<(), usize>;

    /// `U(s, b)`: subtract block `b` of `s`'s outer product from its target.
    ///
    /// # Safety
    /// `F(s)` has returned `Ok`, and nothing may write `s`'s panels or
    /// access the target's during the call.
    unsafe fn update(&self, s: usize, b: usize, scratch: &mut Self::Scratch);
}

/// Per-supernode storage that tasks on several threads borrow, each
/// element exclusively or shared as the DAG's edges allow.
pub(crate) struct Cells<T>(Vec<UnsafeCell<T>>);

// SAFETY: elements are only reached through the `unsafe` accessors, whose
// callers (the `Supernodal` tasks) are ordered by the DAG so that a
// mutable borrow of an element never overlaps another borrow of it.
unsafe impl<T: Send> Sync for Cells<T> {}

impl<T> Cells<T> {
    pub(crate) fn new(v: Vec<T>) -> Self {
        Cells(v.into_iter().map(UnsafeCell::new).collect())
    }

    pub(crate) fn into_inner(self) -> Vec<T> {
        self.0.into_iter().map(UnsafeCell::into_inner).collect()
    }

    /// # Safety
    /// No mutable borrow of element `i` is live.
    pub(crate) unsafe fn get(&self, i: usize) -> &T {
        &*self.0[i].get()
    }

    /// # Safety
    /// No other borrow of element `i` is live.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self, i: usize) -> &mut T {
        &mut *self.0[i].get()
    }
}

/// Marks an `F` task in [`Dag::tasks`].
const FACTOR: u32 = u32::MAX;

/// The task graph of one symbolic structure: `F(s)` has id
/// `s + blocks_ptr[s]` and `U(s, b)` has id `s + b + 1`.
struct Dag<'a> {
    sf: &'a SymbolicFactor,
    /// Per task id: `(s, FACTOR)` for `F(s)`, `(s, b)` for `U(s, b)`.
    tasks: Vec<(u32, u32)>,
    /// Per block: the task that follows its update on its target's chain —
    /// the next source's update into that target, or `F(t)`.
    next: Vec<u32>,
    /// Per task: how many predecessors it waits for.
    deps: Vec<u32>,
    /// Per supernode: its updates are claimed rather than listed.
    small: Vec<bool>,
}

impl<'a> Dag<'a> {
    fn new(sf: &'a SymbolicFactor, claim_below: usize) -> Self {
        let ns = sf.num_supernodes();
        assert!(ns + sf.blocks.len() < u32::MAX as usize, "task ids are u32");
        let mut tasks = Vec::with_capacity(ns + sf.blocks.len());
        let mut deps = Vec::with_capacity(ns + sf.blocks.len());
        for s in 0..ns {
            tasks.push((s as u32, FACTOR));
            deps.push(0);
            for b in sf.blocks_ptr[s]..sf.blocks_ptr[s + 1] {
                tasks.push((s as u32, b as u32));
                deps.push(1); // F(s)
            }
        }
        // Blocks are stored by ascending source, so this walk meets each
        // target's updates in the order they must apply.
        let mut last = vec![u32::MAX; ns];
        let mut next = vec![0u32; sf.blocks.len()];
        let mut s = 0;
        for (b, blk) in sf.blocks.iter().enumerate() {
            while sf.blocks_ptr[s + 1] <= b {
                s += 1;
            }
            let id = (s + b + 1) as u32;
            let prev = std::mem::replace(&mut last[blk.sn], b as u32);
            if prev != u32::MAX {
                next[prev as usize] = id;
                deps[id as usize] += 1;
            }
        }
        for (t, &b) in last.iter().enumerate() {
            if b != u32::MAX {
                let f = t + sf.blocks_ptr[t];
                next[b as usize] = f as u32;
                deps[f] += 1;
            }
        }
        let small = (0..ns).map(|s| sf.rows_of(s).len() * sf.width(s) < claim_below).collect();
        Dag { sf, tasks, next, deps, small }
    }

    /// The supernode a task writes: `s` for `F(s)`, the target for `U`.
    fn writes(&self, id: u32) -> usize {
        match self.tasks[id as usize] {
            (s, FACTOR) => s as usize,
            (_, b) => self.sf.blocks[b as usize].sn,
        }
    }

    fn execute<W: Supernodal>(
        &self,
        work: &W,
        id: u32,
        scratch: &mut W::Scratch,
    ) -> Result<(), usize> {
        let (s, b) = self.tasks[id as usize];
        // SAFETY: the task runs only once its predecessors have finished,
        // which gives it the access `Supernodal` asks for: `F(s)` follows
        // every update into `s` and precedes every update out of it, and
        // the updates into one target form a chain.
        unsafe {
            if b == FACTOR {
                work.factor(s as usize, scratch)
            } else {
                work.update(s as usize, b as usize, scratch);
                Ok(())
            }
        }
    }
}

/// The scheduler's shared state, behind one mutex.
struct State {
    /// Ready task ids, lowest first.
    ready: BinaryHeap<Reverse<u32>>,
    /// Per task: predecessors not yet finished.
    remaining: Vec<u32>,
    /// Tasks taken and not yet booked.
    running: usize,
    /// Participants blocked on the condvar.
    waiting: usize,
    /// The lowest failing supernode so far, with its pivot.
    failed: Option<(usize, usize)>,
    /// A task panicked; every participant stops.
    panicked: bool,
}

impl State {
    /// Whether task `id` is still worth running: not past the lowest
    /// failure (its result could only be discarded).
    fn wanted(&self, dag: &Dag, id: u32) -> bool {
        self.failed.is_none_or(|(f, _)| dag.writes(id) < f)
    }

    /// Counts down one predecessor of `id`; once none is left, `id` goes
    /// to `batch` if it is a small source's update, else to the ready list.
    fn release(&mut self, dag: &Dag, id: u32, batch: &mut Vec<u32>) {
        let r = &mut self.remaining[id as usize];
        *r -= 1;
        if *r > 0 {
            return;
        }
        let (s, b) = dag.tasks[id as usize];
        if b != FACTOR && dag.small[s as usize] {
            if self.wanted(dag, id) {
                self.running += 1;
                batch.push(id);
            }
        } else {
            self.ready.push(Reverse(id));
        }
    }

    /// Books a finished task: counts down its successors, or records the
    /// zero pivot of a failed `F`.
    fn finish(&mut self, dag: &Dag, id: u32, result: Result<(), usize>, batch: &mut Vec<u32>) {
        self.running -= 1;
        let (s, b) = dag.tasks[id as usize];
        let s = s as usize;
        match result {
            Err(pivot) => {
                if self.failed.is_none_or(|(f, _)| s < f) {
                    self.failed = Some((s, pivot));
                }
            }
            Ok(()) if b != FACTOR => self.release(dag, dag.next[b as usize], batch),
            Ok(()) => {
                let first = id + 1;
                for u in first..first + dag.sf.blocks_of(s).len() as u32 {
                    self.release(dag, u, batch);
                }
            }
        }
    }

    /// The lowest ready task worth running.
    fn take(&mut self, dag: &Dag) -> Option<u32> {
        while let Some(Reverse(id)) = self.ready.pop() {
            if self.wanted(dag, id) {
                self.running += 1;
                return Some(id);
            }
        }
        None
    }
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Why the scheduler's mutex is never poisoned: tasks run outside it, and
/// their panics are caught before the lock is taken again.
const UNPOISONED: &str = "no task runs under the scheduler lock";

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(UNPOISONED)
    }
}

/// One participant's loop: book the last batch, take the next one (the
/// updates that booking claimed, else the lowest ready task), run it
/// outside the lock.
fn participate<W: Supernodal>(dag: &Dag, shared: &Shared, work: &W) {
    let mut scratch = W::Scratch::default();
    let mut done: Vec<(u32, Result<(), usize>)> = Vec::new();
    let mut batch = Vec::new();
    loop {
        {
            let mut st = shared.lock();
            for (id, result) in done.drain(..) {
                st.finish(dag, id, result, &mut batch);
            }
            while batch.is_empty() {
                if st.panicked {
                    return;
                }
                if let Some(id) = st.take(dag) {
                    batch.push(id);
                } else if st.running == 0 {
                    // Nothing ready and nothing that could release more.
                    shared.cv.notify_all();
                    return;
                } else {
                    st.waiting += 1;
                    st = shared.cv.wait(st).expect(UNPOISONED);
                    st.waiting -= 1;
                }
            }
            if !st.ready.is_empty() && st.waiting > 0 {
                shared.cv.notify_one();
            }
        }
        for id in batch.drain(..) {
            match catch_unwind(AssertUnwindSafe(|| dag.execute(work, id, &mut scratch))) {
                Ok(result) => done.push((id, result)),
                Err(e) => {
                    shared.lock().panicked = true;
                    shared.cv.notify_all();
                    resume_unwind(e);
                }
            }
        }
    }
}

/// Runs every task of `sf`'s factorization on `pool`, claiming the
/// updates of sources smaller than `claim_below`. Returns the lowest zero
/// pivot, as the serial loop would have.
pub(crate) fn run_with<W: Supernodal>(
    sf: &SymbolicFactor,
    pool: &Pool,
    work: &W,
    claim_below: usize,
) -> Result<(), FactorError> {
    let dag = Dag::new(sf, claim_below);
    let ready = (0..dag.tasks.len() as u32).filter(|&id| dag.deps[id as usize] == 0).map(Reverse);
    let shared = Shared {
        state: Mutex::new(State {
            ready: ready.collect(),
            remaining: dag.deps.clone(),
            running: 0,
            waiting: 0,
            failed: None,
            panicked: false,
        }),
        cv: Condvar::new(),
    };
    pool.map(0..pool.threads(), |_| participate(&dag, &shared, work));
    let failed = shared.lock().failed;
    match failed {
        Some((supernode, pivot)) => Err(FactorError::Singular { supernode, pivot }),
        None => Ok(()),
    }
}

/// [`run_with`] with the threshold in use.
pub(crate) fn run<W: Supernodal>(
    sf: &SymbolicFactor,
    pool: &Pool,
    work: &W,
) -> Result<(), FactorError> {
    run_with(sf, pool, work, CLAIM_BELOW)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_order::supernodes::SupernodeOptions;
    use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
    use pselinv_sparse::gen;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    /// Structures of the four kinds the factorization sees: random SPD
    /// (minimum degree), 2-D grids (default and narrow supernodes under
    /// nested dissection), FEM and DG.
    fn structures() -> Vec<SymbolicFactor> {
        let mut out = Vec::new();
        for seed in 0..3 {
            let a = gen::random_spd(60, 0.05 + 0.04 * seed as f64, seed);
            out.push(analyze(&a.pattern(), &AnalyzeOptions::default()));
        }
        let narrow = SupernodeOptions { max_width: 4, relax_small: 2, relax_zero_fraction: 0.3 };
        let grid = gen::grid_laplacian_2d(14, 13);
        let fem = gen::fem_3d(4, 4, 3, 2, 1);
        for (w, supernode) in
            [(&grid, Default::default()), (&grid, narrow), (&fem, Default::default())]
        {
            let opts = AnalyzeOptions {
                ordering: OrderingChoice::NestedDissection(w.geometry, Default::default()),
                supernode,
                ..Default::default()
            };
            out.push(analyze(&w.matrix.pattern(), &opts));
        }
        let dg = gen::dg_hamiltonian(3, 2, 1, 6, 5);
        out.push(analyze(&dg.matrix.pattern(), &AnalyzeOptions::default()));
        out
    }

    const UNSEEN: usize = usize::MAX;

    /// Arithmetic-free tasks that stamp their start and end on one clock,
    /// dawdling in between so that overlapping tasks would interleave.
    /// `F(s)` fails for `s` in `singular`.
    struct Recorder {
        clock: AtomicUsize,
        f: Vec<[AtomicUsize; 2]>,
        u: Vec<[AtomicUsize; 2]>,
        singular: Vec<usize>,
    }

    impl Recorder {
        fn new(sf: &SymbolicFactor, singular: Vec<usize>) -> Self {
            let stamps =
                |n| (0..n).map(|_| [AtomicUsize::new(UNSEEN), AtomicUsize::new(UNSEEN)]).collect();
            Recorder {
                clock: AtomicUsize::new(0),
                f: stamps(sf.num_supernodes()),
                u: stamps(sf.blocks.len()),
                singular,
            }
        }

        fn stamp(&self, at: &[AtomicUsize; 2], salt: usize) {
            assert_eq!(at[0].swap(self.clock.fetch_add(1, SeqCst), SeqCst), UNSEEN, "ran twice");
            for _ in 0..salt.wrapping_mul(0x9e37_79b9) % 3 {
                std::thread::yield_now();
            }
            at[1].store(self.clock.fetch_add(1, SeqCst), SeqCst);
        }

        fn span(at: &[AtomicUsize; 2]) -> (usize, usize) {
            (at[0].load(SeqCst), at[1].load(SeqCst))
        }
    }

    impl Supernodal for Recorder {
        type Scratch = ();

        unsafe fn factor(&self, s: usize, _: &mut ()) -> Result<(), usize> {
            self.stamp(&self.f[s], s);
            if self.singular.contains(&s) {
                return Err(s % 3);
            }
            Ok(())
        }

        unsafe fn update(&self, _: usize, b: usize, _: &mut ()) {
            self.stamp(&self.u[b], b);
        }
    }

    /// The thresholds that send every update through the ready list, the
    /// one in use, and one that claims them all.
    const THRESHOLDS: [usize; 3] = [0, CLAIM_BELOW, usize::MAX];

    #[test]
    fn every_update_follows_its_source_and_its_predecessor_on_the_target() {
        for sf in structures() {
            let ns = sf.num_supernodes();
            for workers in 1..=4 {
                let pool = Pool::new(workers);
                for claim in THRESHOLDS {
                    let rec = Recorder::new(&sf, vec![]);
                    run_with(&sf, &pool, &rec, claim).unwrap();
                    let mut last_into = vec![None::<(usize, usize)>; ns];
                    for s in 0..ns {
                        let (_, f_end) = Recorder::span(&rec.f[s]);
                        assert_ne!(f_end, UNSEEN, "F({s}) never ran");
                        for b in sf.blocks_ptr[s]..sf.blocks_ptr[s + 1] {
                            let (start, end) = Recorder::span(&rec.u[b]);
                            assert_ne!(end, UNSEEN, "U({s}, {b}) never ran");
                            assert!(start > f_end, "U({s}, {b}) started before F({s}) ended");
                            let t = sf.blocks[b].sn;
                            if let Some((p, p_end)) = last_into[t] {
                                assert!(
                                    start > p_end,
                                    "into {t}: source {s} started before {p} ended"
                                );
                            }
                            last_into[t] = Some((s, end));
                        }
                    }
                    for (t, last) in last_into.iter().enumerate() {
                        if let Some((p, p_end)) = *last {
                            let (f_start, _) = Recorder::span(&rec.f[t]);
                            assert!(
                                f_start > p_end,
                                "F({t}) started before the update from {p} ended"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_lowest_zero_pivot_is_reported_and_nothing_downstream_of_one_runs() {
        for sf in structures() {
            let ns = sf.num_supernodes();
            let dag = Dag::new(&sf, CLAIM_BELOW);
            // Two failures in different places of the tree, the higher one
            // a leaf that is ready from the start.
            let leaf = (0..ns).rev().find(|&s| dag.deps[s + sf.blocks_ptr[s]] == 0).unwrap();
            let low = (0..leaf).rev().find(|&s| dag.deps[s + sf.blocks_ptr[s]] > 0).unwrap_or(0);
            let singular = vec![leaf, low];
            for workers in 1..=4 {
                let pool = Pool::new(workers);
                for claim in THRESHOLDS {
                    let rec = Recorder::new(&sf, singular.clone());
                    match run_with(&sf, &pool, &rec, claim) {
                        Err(FactorError::Singular { supernode, pivot }) => {
                            assert_eq!((supernode, pivot), (low, low % 3), "{workers} workers");
                        }
                        other => panic!("expected the zero pivot of {low}, got {other:?}"),
                    }
                    // Everything reachable from a failed F that ran.
                    let mut stack: Vec<u32> = singular
                        .iter()
                        .filter(|&&s| Recorder::span(&rec.f[s]).0 != UNSEEN)
                        .flat_map(|&s| {
                            (s + sf.blocks_ptr[s] + 1..s + sf.blocks_ptr[s + 1] + 1)
                                .map(|u| u as u32)
                        })
                        .collect();
                    let mut seen = vec![false; dag.tasks.len()];
                    while let Some(id) = stack.pop() {
                        if std::mem::replace(&mut seen[id as usize], true) {
                            continue;
                        }
                        let (s, b) = dag.tasks[id as usize];
                        let stamp =
                            if b == FACTOR { &rec.f[s as usize] } else { &rec.u[b as usize] };
                        assert_eq!(
                            Recorder::span(stamp).0,
                            UNSEEN,
                            "task {id} ran downstream of a zero pivot"
                        );
                        if b == FACTOR {
                            let first = id + 1;
                            stack.extend(first..first + sf.blocks_of(s as usize).len() as u32);
                        } else {
                            stack.push(dag.next[b as usize]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_ends_every_participant() {
        struct Boom;
        impl Supernodal for Boom {
            type Scratch = ();
            unsafe fn factor(&self, s: usize, _: &mut ()) -> Result<(), usize> {
                assert!(s != 3, "boom at 3");
                Ok(())
            }
            unsafe fn update(&self, _: usize, _: usize, _: &mut ()) {}
        }
        let sf = &structures()[3];
        for workers in 1..=4 {
            let pool = Pool::new(workers);
            let err = catch_unwind(AssertUnwindSafe(|| run(sf, &pool, &Boom))).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("boom at 3"), "{msg}");
        }
    }

    #[test]
    fn per_supernode_returns_results_in_supernode_order() {
        let sf = &structures()[4];
        for workers in 1..=4 {
            let pool = Pool::new(workers);
            let got = per_supernode(sf, &pool, |s, calls: &mut usize| {
                *calls += 1;
                s
            });
            assert_eq!(got, (0..sf.num_supernodes()).collect::<Vec<_>>());
        }
    }
}
