//! Persistent per-rank work-stealing task runtime.
//!
//! A pool is created **once per rank** and runs every fork-join step of
//! that rank (the `dist` engine's local GEMMs and diagonal contributions)
//! without spawning a thread per call; the `factor` crate's task DAG over
//! supernode updates runs on one too:
//!
//! * `threads - 1` persistent workers, each owning a [Chase–Lev
//!   deque](deque); the submitting rank thread owns an injection deque at
//!   slot 0. Idle workers *park* on a condvar keyed by a generation counter,
//!   so a quiescent pool consumes no CPU between supernodes.
//! * [`Pool::run`] is the one entry: a fork-join over borrowed closures,
//!   sound because it does not return until every task finished. Inside,
//!   the tasks form one **epoch batch**; each task writes only into state
//!   it borrows exclusively, so the caller merges the results in its own
//!   fixed order no matter which worker ran what — deterministic and
//!   therefore bit-identical to a serial execution of the same tasks (each
//!   task is internally sequential; floating-point order never depends on
//!   scheduling).
//! * The submitting thread is itself participant 0: while it waits for the
//!   batch it executes pending tasks instead of spinning, so `threads = n`
//!   means *n* executors, not `n + 1`.
//!
//! Per-participant execute/steal counters, coalesced busy intervals and a
//! live busy-worker gauge (mirrored into an external `AtomicUsize`, e.g. the
//! mpisim telemetry block) make pool utilization observable from
//! `trace`/`telemetry`.

mod deque;

use deque::{ChaseLev, Steal};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A type-erased job, boxed so the raw pointer stored in the deque is thin.
/// `body` does the work (and catches its panic); `done` signals batch
/// completion. The executor runs `done` only **after** recording stats and
/// releasing the busy gauge, so a waiter that observes the batch complete
/// also observes every counter of the tasks it covers.
struct Job {
    body: Box<dyn FnOnce() + Send + 'static>,
    done: Box<dyn FnOnce() + Send + 'static>,
}

/// Merge gap for busy-interval coalescing: separate executions closer than
/// this (in µs) collapse into one recorded span, bounding span volume.
const SPAN_MERGE_GAP_US: u64 = 200;
/// Upper bound on recorded busy intervals per participant.
const SPAN_CAP: usize = 8192;

/// Per-participant counters. Participant 0 is the submitting thread; the
/// spawned workers are 1..threads.
struct SlotStats {
    executed: AtomicU64,
    stolen: AtomicU64,
    busy_ns: AtomicU64,
    /// Coalesced busy intervals in µs since pool creation.
    spans: Mutex<Vec<(u64, u64)>>,
}

impl SlotStats {
    fn new() -> Self {
        SlotStats {
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// A snapshot of one participant's activity, in submission-thread = slot 0
/// order. See [`Pool::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this participant executed.
    pub executed: u64,
    /// Of those, how many were stolen from another participant's deque.
    pub stolen: u64,
    /// Total wall time spent inside task bodies, in µs.
    pub busy_us: u64,
}

/// Whole-pool snapshot returned by [`Pool::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-participant counters; index 0 is the submitting thread.
    pub workers: Vec<WorkerStats>,
    /// Number of batches submitted so far.
    pub epochs: u64,
}

impl PoolStats {
    /// Total tasks executed across all participants.
    pub fn executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Total tasks that moved between participants.
    pub fn stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Aggregate busy time across participants, µs.
    pub fn busy_us(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_us).sum()
    }
}

struct Inner {
    /// `deques[0]` is owned by the submitting thread (the injector);
    /// `deques[i]` for `i >= 1` is owned by worker `i`. Everyone steals
    /// from everyone else.
    deques: Vec<ChaseLev>,
    /// Generation counter guarded by `lock`; bumped on submit / shutdown /
    /// batch completion so parked threads observe missed wakeups.
    lock: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Jobs submitted but not yet finished executing.
    pending: AtomicUsize,
    epoch: AtomicU64,
    /// Number of participants currently inside a task body.
    busy: AtomicUsize,
    /// Optional external mirror of `busy` (telemetry gauge).
    gauge: OnceLock<Arc<AtomicUsize>>,
    stats: Vec<SlotStats>,
    t0: Instant,
}

impl Inner {
    fn bump_gen(&self) {
        let mut g = self.lock.lock().unwrap();
        *g = g.wrapping_add(1);
        drop(g);
        self.cv.notify_all();
    }

    fn read_gen(&self) -> u64 {
        *self.lock.lock().unwrap()
    }

    /// Park until the generation moves past `seen` (or shutdown).
    fn park(&self, seen: u64) {
        let mut g = self.lock.lock().unwrap();
        while *g == seen && !self.shutdown.load(Ordering::Relaxed) {
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Find one runnable job from `slot`'s perspective: own deque first,
    /// then round-robin steals from every other deque. Returns the job and
    /// whether it was stolen.
    fn find_work(&self, slot: usize) -> Option<(usize, bool)> {
        if let Some(j) = self.deques[slot].pop() {
            return Some((j, false));
        }
        let n = self.deques.len();
        loop {
            let mut retry = false;
            for k in 1..n {
                let victim = (slot + k) % n;
                match self.deques[victim].steal() {
                    Steal::Success(j) => return Some((j, true)),
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// Execute a type-erased job on behalf of `slot`, maintaining stats,
    /// the busy gauge and the pending count. Task panics are caught by the
    /// job wrapper itself (see [`Pool::run`]), so the body only unwinds on
    /// internal bugs.
    fn execute(&self, raw: usize, slot: usize, stolen: bool) {
        let job: Box<Job> = unsafe { Box::from_raw(raw as *mut Job) };
        self.busy.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.gauge.get() {
            g.fetch_add(1, Ordering::Relaxed);
        }
        let start = Instant::now();
        let start_us = start.duration_since(self.t0).as_micros() as u64;
        (job.body)();
        let busy = start.elapsed();
        let end_us = start_us + busy.as_micros() as u64;
        let st = &self.stats[slot];
        st.executed.fetch_add(1, Ordering::Relaxed);
        if stolen {
            st.stolen.fetch_add(1, Ordering::Relaxed);
        }
        st.busy_ns.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        {
            let mut spans = st.spans.lock().unwrap();
            let coalesce = match spans.last() {
                Some(&(_, prev_end)) => {
                    start_us.saturating_sub(prev_end) <= SPAN_MERGE_GAP_US
                        || spans.len() >= SPAN_CAP
                }
                None => false,
            };
            if coalesce {
                let last = spans.last_mut().unwrap();
                last.1 = last.1.max(end_us);
            } else {
                spans.push((start_us, end_us));
            }
        }
        if let Some(g) = self.gauge.get() {
            g.fetch_sub(1, Ordering::Relaxed);
        }
        self.busy.fetch_sub(1, Ordering::Relaxed);
        self.pending.fetch_sub(1, Ordering::Release);
        (job.done)();
    }

    fn try_execute_one(&self, slot: usize) -> bool {
        match self.find_work(slot) {
            Some((job, stolen)) => {
                self.execute(job, slot, stolen);
                true
            }
            None => false,
        }
    }
}

fn worker_loop(inner: Arc<Inner>, slot: usize) {
    loop {
        let seen = inner.read_gen();
        let mut did = false;
        while inner.try_execute_one(slot) {
            did = true;
        }
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if !did {
            inner.park(seen);
        }
    }
}

/// Completion state of one [`Pool::run`] batch.
struct BatchState {
    remaining: AtomicUsize,
    panic: Mutex<Option<String>>,
}

/// The persistent work-stealing pool. See the module docs for the design.
pub struct Pool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Create a pool with `threads` total executors: the calling thread
    /// (participant 0, which helps during waits) plus `threads - 1`
    /// persistent parked workers. `threads <= 1` spawns no workers and
    /// executes every task inline on the submitting thread.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            deques: (0..threads).map(|_| ChaseLev::new()).collect(),
            lock: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            busy: AtomicUsize::new(0),
            gauge: OnceLock::new(),
            stats: (0..threads).map(|_| SlotStats::new()).collect(),
            t0: Instant::now(),
        });
        let handles = (1..threads)
            .map(|slot| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{slot}"))
                    .spawn(move || worker_loop(inner, slot))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { inner, handles }
    }

    /// Total executors (submitting thread included).
    pub fn threads(&self) -> usize {
        self.inner.deques.len()
    }

    /// Mirror the number of currently-busy executors into `gauge`
    /// (e.g. a telemetry block). May be set at most once per pool.
    pub fn set_busy_gauge(&self, gauge: Arc<AtomicUsize>) {
        let _ = self.inner.gauge.set(gauge);
    }

    /// Number of executors currently inside a task body.
    pub fn busy(&self) -> usize {
        self.inner.busy.load(Ordering::Relaxed)
    }

    /// Fork-join over borrowed closures: submit every task as one epoch
    /// batch and do not return until all have executed, helping on the
    /// calling thread (participant 0, the injector deque's owner). With no
    /// workers (`threads <= 1`) the tasks execute inline in submission
    /// order. A task panic is re-raised here once the batch has drained.
    ///
    /// The non-`'static` borrows are sound for exactly the same reason
    /// [`std::thread::scope`] is: this function is a completion barrier, so
    /// no captured reference outlives the call.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        // SAFETY: `Vec<Box<dyn FnOnce + 'env>>` and the `'static` version
        // are layout-identical, and every closure is consumed before this
        // function returns (the loop below is a completion barrier).
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = unsafe { std::mem::transmute(tasks) };
        self.inner.epoch.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(BatchState {
            remaining: AtomicUsize::new(tasks.len()),
            panic: Mutex::new(None),
        });
        self.inner.pending.fetch_add(tasks.len(), Ordering::Relaxed);
        for task in tasks {
            let b = Arc::clone(&batch);
            let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                if let Err(e) = catch_unwind(AssertUnwindSafe(task)) {
                    b.panic.lock().unwrap().get_or_insert(panic_message(&*e));
                }
            });
            let b = Arc::clone(&batch);
            let inner = Arc::clone(&self.inner);
            let done: Box<dyn FnOnce() + Send> = Box::new(move || {
                if b.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last task of the batch: wake a possibly-parked waiter.
                    inner.bump_gen();
                }
            });
            let raw = Box::into_raw(Box::new(Job { body, done })) as usize;
            if self.handles.is_empty() {
                self.inner.execute(raw, 0, false);
            } else {
                self.inner.deques[0].push(raw);
            }
        }
        if !self.handles.is_empty() {
            self.inner.bump_gen();
        }
        let finished = || batch.remaining.load(Ordering::Acquire) == 0;
        while !finished() {
            let seen = self.inner.read_gen();
            if !self.inner.try_execute_one(0) && !finished() {
                // All remaining tasks are on other threads: park until a
                // batch-completion or submit bump rather than burning CPU.
                self.inner.park(seen);
            }
        }
        let panic = batch.panic.lock().unwrap().take();
        if let Some(msg) = panic {
            panic!("pool task panicked: {msg}");
        }
    }

    /// Snapshot the per-participant counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self
                .inner
                .stats
                .iter()
                .map(|s| WorkerStats {
                    executed: s.executed.load(Ordering::Relaxed),
                    stolen: s.stolen.load(Ordering::Relaxed),
                    busy_us: s.busy_ns.load(Ordering::Relaxed) / 1_000,
                })
                .collect(),
            epochs: self.inner.epoch.load(Ordering::Relaxed),
        }
    }

    /// Drain the recorded busy intervals: `(participant, start_us, end_us)`
    /// with timestamps in µs since pool creation. Intervals closer than
    /// 200 µs are coalesced at record time.
    pub fn take_spans(&self) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        for (slot, s) in self.inner.stats.iter().enumerate() {
            for (a, b) in s.spans.lock().unwrap().drain(..) {
                out.push((slot, a, b));
            }
        }
        out
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Workers drain all remaining work before exiting (every batch was
        // drained by the `run` that submitted it, so in practice the queues
        // are empty here).
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.bump_gen();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        while self.inner.try_execute_one(0) {}
        debug_assert_eq!(self.inner.pending.load(Ordering::Relaxed), 0);
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_borrowed_tasks_to_completion() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut cells = vec![0u64; 100];
            {
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = cells
                    .iter_mut()
                    .enumerate()
                    .map(|(i, c)| {
                        Box::new(move || {
                            if i % 7 == 0 {
                                std::thread::yield_now();
                            }
                            *c = (i as u64) + 1
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.run(tasks);
            }
            assert!(cells.iter().enumerate().all(|(i, &c)| c == i as u64 + 1), "{threads}");
        }
    }

    #[test]
    fn many_epochs_reuse_the_same_workers() {
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50 * 16);
        let stats = pool.stats();
        assert_eq!(stats.epochs, 50);
        assert_eq!(stats.executed(), 50 * 16);
        assert_eq!(stats.workers.len(), 4);
    }

    #[test]
    fn busy_gauge_returns_to_zero() {
        let pool = Pool::new(3);
        let gauge = Arc::new(AtomicUsize::new(0));
        pool.set_busy_gauge(Arc::clone(&gauge));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    std::hint::black_box((0..500u64).sum::<u64>());
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        assert_eq!(pool.busy(), 0);
    }

    #[test]
    #[should_panic(expected = "pool task panicked: boom 3")]
    fn task_panic_propagates_to_run() {
        let pool = Pool::new(2);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("boom {i}");
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run(tasks);
    }

    #[test]
    fn steal_counters_move_under_contention() {
        // A task the submitting thread picks up holds it until a parked
        // worker has woken and stolen, so even on a single-CPU box at least
        // one task runs off-thread.
        let pool = Pool::new(8);
        let submitter = std::thread::current().id();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let off_thread = || pool.stats().workers[1..].iter().map(|w| w.executed).sum::<u64>();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..256)
            .map(|_| {
                Box::new(|| {
                    while std::thread::current().id() == submitter && off_thread() == 0 {
                        assert!(Instant::now() < deadline, "workers never woke up");
                        std::thread::yield_now();
                    }
                    std::thread::yield_now();
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        let stats = pool.stats();
        assert_eq!(stats.executed(), 256);
        let off_thread: u64 = stats.workers[1..].iter().map(|w| w.executed).sum();
        assert!(off_thread > 0, "workers never stole from the injector: {stats:?}");
        assert!(stats.stolen() >= off_thread, "worker executions are steals by construction");
        assert!(stats.busy_us() > 0);
    }

    #[test]
    fn spans_are_recorded_and_drained() {
        let pool = Pool::new(2);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    std::hint::black_box((0..5_000u64).sum::<u64>());
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run(tasks);
        let spans = pool.take_spans();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|&(slot, a, b)| slot < 2 && a <= b));
        assert!(pool.take_spans().is_empty(), "drained");
    }
}
