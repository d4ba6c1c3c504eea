//! Persistent per-rank fork-join task runtime.
//!
//! A pool is created **once per rank** and runs every fork-join step of
//! that rank (the `dist` engine's local GEMMs and diagonal contributions)
//! without spawning a thread per call; the `factor` crate's task DAG over
//! supernode updates runs on one too:
//!
//! * `threads - 1` persistent workers park on a condvar keyed by a
//!   generation counter, so a quiescent pool consumes no CPU between
//!   supernodes.
//! * [`Pool::run`] is the one entry: a fork-join over borrowed closures,
//!   sound because it does not return until every task finished. It
//!   publishes the tasks as one **batch** — a vector of task slots and a
//!   shared claim cursor — and every participant claims the next slot with
//!   one `fetch_add` until the cursor passes the end. [`Pool::map`] is
//!   `run` with one task per item and the results in item order. Each task
//!   writes only into state it borrows exclusively, so the caller merges
//!   the results in its own fixed order no matter which participant ran
//!   what — deterministic and therefore bit-identical to a serial
//!   execution of the same tasks (each task is internally sequential;
//!   floating-point order never depends on scheduling).
//! * The submitting thread is itself participant 0: it claims tasks like
//!   any worker and parks only once the cursor is past the end, so
//!   `threads = n` means *n* executors, not `n + 1`.
//!
//! Per-participant execute/steal counters, coalesced busy intervals and a
//! live busy-worker gauge (mirrored into an external `AtomicUsize`, e.g. the
//! mpisim telemetry block) make pool utilization observable from
//! `trace`/`telemetry`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

type Task = Box<dyn FnOnce() + Send + 'static>;

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
    /// Of those, how many were submitted by another thread: every task a
    /// worker runs, none that the submitting thread runs.
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

/// The tasks of one [`Pool::run`].
struct Batch {
    /// Slot `i` is taken by the one participant whose claim on `next`
    /// returned `i`.
    tasks: Vec<Mutex<Option<Task>>>,
    /// The claim cursor: the next unclaimed slot, or past the end.
    next: AtomicUsize,
    /// Tasks not yet finished. The task that takes it to zero wakes the
    /// submitter, after it has recorded its stats and any panic.
    remaining: AtomicUsize,
    panic: Mutex<Option<String>>,
}

/// What the generation mutex guards.
struct Board {
    /// Bumped on every publish, so a worker wakes for each batch once.
    generation: u64,
    /// The latest published batch.
    batch: Option<Arc<Batch>>,
    shutdown: bool,
}

struct Inner {
    board: Mutex<Board>,
    /// Workers wait here for a new generation or shutdown.
    work: Condvar,
    /// Submitters wait here for their batch's last task.
    done: Condvar,
    epoch: AtomicU64,
    /// Number of participants currently inside a task body.
    busy: AtomicUsize,
    /// Optional external mirror of `busy` (telemetry gauge).
    gauge: OnceLock<Arc<AtomicUsize>>,
    stats: Vec<SlotStats>,
    t0: Instant,
}

impl Inner {
    /// Claims and runs tasks of `batch` as participant `slot` until the
    /// cursor is past the end.
    fn drain(&self, batch: &Batch, slot: usize) {
        while let Some(cell) = batch.tasks.get(batch.next.fetch_add(1, Ordering::Relaxed)) {
            let task = cell.lock().unwrap().take().expect("each slot is claimed once");
            if let Err(e) = self.execute(task, slot) {
                batch.panic.lock().unwrap().get_or_insert(panic_message(&*e));
            }
            if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Under the lock: the submitter reads `remaining` under it
                // before it waits, so this wake-up cannot fall between.
                let _board = self.board.lock().unwrap();
                self.done.notify_all();
            }
        }
    }

    /// Runs one task as participant `slot`, maintaining stats and the busy
    /// gauge; a panic is caught and returned.
    fn execute(&self, task: Task, slot: usize) -> std::thread::Result<()> {
        self.busy.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.gauge.get() {
            g.fetch_add(1, Ordering::Relaxed);
        }
        let start = Instant::now();
        let start_us = start.duration_since(self.t0).as_micros() as u64;
        let result = catch_unwind(AssertUnwindSafe(task));
        let busy = start.elapsed();
        let end_us = start_us + busy.as_micros() as u64;
        let st = &self.stats[slot];
        st.executed.fetch_add(1, Ordering::Relaxed);
        if slot != 0 {
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
        result
    }
}

fn worker_loop(inner: Arc<Inner>, slot: usize) {
    let mut seen = 0;
    loop {
        let board = inner.board.lock().unwrap();
        let board = inner.work.wait_while(board, |b| b.generation == seen && !b.shutdown).unwrap();
        if board.shutdown {
            return;
        }
        seen = board.generation;
        let batch = board.batch.clone();
        drop(board);
        if let Some(batch) = batch {
            inner.drain(&batch, slot);
        }
    }
}

/// The persistent fork-join pool. See the module docs for the design.
pub struct Pool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Create a pool with `threads` total executors: the calling thread
    /// (participant 0, which claims tasks of its own batches) plus
    /// `threads - 1` persistent parked workers. `threads <= 1` spawns no
    /// workers and executes every task inline on the submitting thread.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            board: Mutex::new(Board { generation: 0, batch: None, shutdown: false }),
            work: Condvar::new(),
            done: Condvar::new(),
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
        self.inner.stats.len()
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

    /// Fork-join over borrowed closures: publish every task as one batch
    /// and do not return until all have executed, claiming tasks on the
    /// calling thread too (participant 0). With no workers
    /// (`threads <= 1`) the tasks execute inline in submission order. A
    /// task panic is re-raised here once the batch has drained.
    ///
    /// The non-`'static` borrows are sound for exactly the same reason
    /// [`std::thread::scope`] is: this function is a completion barrier, so
    /// no captured reference outlives the call.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        // SAFETY: `Vec<Box<dyn FnOnce + 'env>>` and the `'static` version
        // are layout-identical, and every closure is consumed before this
        // function returns: it waits until `remaining` is zero, and a
        // worker that still holds the batch afterwards finds every slot
        // claimed and touches no closure.
        let tasks: Vec<Task> = unsafe { std::mem::transmute(tasks) };
        self.inner.epoch.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(Batch {
            remaining: AtomicUsize::new(tasks.len()),
            tasks: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        if !self.handles.is_empty() {
            let mut board = self.inner.board.lock().unwrap();
            board.generation += 1;
            board.batch = Some(Arc::clone(&batch));
            drop(board);
            self.inner.work.notify_all();
        }
        self.inner.drain(&batch, 0);
        let board = self.inner.board.lock().unwrap();
        let board = self
            .inner
            .done
            .wait_while(board, |_| batch.remaining.load(Ordering::Acquire) != 0)
            .unwrap();
        drop(board);
        let panic = batch.panic.lock().unwrap().take();
        if let Some(msg) = panic {
            panic!("pool task panicked: {msg}");
        }
    }

    /// `f` over every item, one task per item, with the results in item
    /// order whichever participant ran what. A panic in `f` is re-raised
    /// once the batch has drained, as in [`Pool::run`]. On a one-thread
    /// pool, or for at most one item, it runs inline without boxing, and a
    /// panic ends it at that item; the message is the same either way.
    pub fn map<I, T, F>(&self, items: I, f: F) -> Vec<T>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Send,
        T: Send,
        F: Fn(I::Item) -> T + Sync,
    {
        let items = items.into_iter();
        if self.threads() == 1 || items.len() <= 1 {
            return match catch_unwind(AssertUnwindSafe(|| items.map(f).collect())) {
                Ok(out) => out,
                Err(e) => panic!("pool task panicked: {}", panic_message(&*e)),
            };
        }
        let mut out: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
        let f = &f;
        let tasks = out
            .iter_mut()
            .zip(items)
            .map(|(slot, item)| {
                Box::new(move || *slot = Some(f(item))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run(tasks);
        out.into_iter().map(|r| r.expect("run returns once every task ran")).collect()
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
        // Every batch was drained by the `run` that published it, so the
        // workers have nothing left to do.
        self.inner.board.lock().unwrap().shutdown = true;
        self.inner.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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

    #[test]
    fn map_returns_results_in_item_order_and_runs_each_item_once() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let runs: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
            let out = pool.map(0..runs.len(), |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                3 * i + 1
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == 3 * i + 1), "{threads}");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{threads}");
        }
    }

    #[test]
    fn map_panic_is_reraised_once_the_batch_has_drained() {
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map(0..64, |i| {
                    if i == 5 {
                        panic!("boom {i}");
                    }
                    std::thread::yield_now();
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let msg = panic_message(&*result.expect_err("the panic is re-raised"));
            assert_eq!(msg, "pool task panicked: boom 5", "{threads}");
            if threads > 1 {
                assert_eq!(ran.load(Ordering::Relaxed), 63, "every other item ran first");
            }
            assert_eq!(pool.busy(), 0);
        }
    }

    #[test]
    fn many_two_task_batches_all_complete() {
        for threads in [2usize, 4, 8] {
            let pool = Pool::new(threads);
            let counter = AtomicUsize::new(0);
            for _ in 0..10_000 {
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
                    .map(|_| {
                        Box::new(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.run(tasks);
            }
            assert_eq!(counter.load(Ordering::Relaxed), 20_000, "{threads}");
            assert_eq!(pool.stats().executed(), 20_000, "{threads}");
        }
    }
}
