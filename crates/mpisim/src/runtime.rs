//! Ranks, mailboxes and tagged point-to-point messaging.
//!
//! Beyond plain delivery, the runtime hardens against the failure modes a
//! real asynchronous MPI run exhibits:
//!
//! * **Panic propagation.** A panic in one rank thread aborts the whole
//!   run promptly with the original panic message ([`RunError::RankPanic`])
//!   instead of leaving sibling ranks blocked in `recv` forever.
//! * **Progress watchdog.** Each rank registers what it is blocked on;
//!   a monitor thread builds the cross-rank wait-for graph and converts a
//!   global stall or a deadlock cycle into a structured
//!   [`StallDiagnostic`] ([`RunError::Stalled`]) instead of hanging.
//! * **Fault injection.** A [`FaultPlan`] injects per-message delay, loss,
//!   duplication and reordering plus per-rank stall/crash triggers through
//!   the rank's fault interposer (`interpose`), deterministically from a
//!   seed. Every data message carries a sequence number on its `(src, dst)`
//!   channel and is judged once, as it comes off the inbox, so any
//!   crash-free schedule yields bit-identical results.

use crate::interpose::{Interposer, Trigger};
use crate::payload::{IntoPayload, Payload};
use crate::recovery::{CrashBoard, RecoverOutcome};
use crate::reliable::ReliableState;
use crate::spin::{SpinPolicy, SPIN_BUDGET};
use crate::telemetry::{sampler, Telemetry};
use pselinv_chaos::FaultPlan;
use pselinv_trace::{FaultKind, RankTrace, RankTracer, Trace};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A tagged message between ranks. Payloads are shared `f64` buffers
/// ([`Payload`]) because every PSelInv message is a dense block (plus small
/// headers encoded in the tag): cloning a message — for an injected
/// duplicate, a reorder hold-back, or a tree forward — shares the buffer
/// instead of copying it.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag (encodes supernode / block / phase in `pselinv-dist`).
    pub tag: u64,
    /// Send timestamp on the run's shared trace clock (µs since the run
    /// epoch); 0 when tracing is disabled. Lets the receiver classify
    /// blocked time into late-sender wait vs transfer.
    pub sent_us: u64,
    /// Sequence number on the `(src, dst)` channel, stamped by
    /// [`RankCtx::send`] on every data message (0, 1, 2, … per
    /// destination). The receiver releases a channel's messages in this
    /// order. A header, not payload: excluded from [`Message::bytes`], so
    /// volume accounting is identical with and without faults.
    pub seq: u64,
    /// Sender's Lamport clock at the send instant. A header like `seq`:
    /// excluded from [`Message::bytes`], so causal stamping never perturbs
    /// the volume identities.
    pub clock: u64,
    /// Sender's monotonic send index (counts every send this rank issued,
    /// across all destinations and tags): `(src, idx)` names this send
    /// uniquely for the whole run, which is the provenance causal tracing
    /// records on the matching receive.
    pub idx: u64,
    /// The instant an injected in-flight delay ends: the receiver holds the
    /// message until then, and `None` makes it visible on arrival. Stamped
    /// by the fault interposer; a header like `seq`, excluded from
    /// [`Message::bytes`].
    pub(crate) visible_at: Option<Instant>,
    /// Payload (shared; cloning the message never copies the buffer).
    pub data: Payload,
}

impl Message {
    /// Payload size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }
}

/// Per-rank communication volume, returned after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankVolume {
    /// Bytes sent by this rank.
    pub sent: u64,
    /// Bytes received by this rank.
    pub received: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Payload bytes physically copied on this rank to produce sent
    /// messages ([`IntoPayload`] accounting). A rank that forwards shared
    /// payloads — every interior hop of a tree broadcast — adds nothing
    /// here; `sent`/`received` still count the full logical volume.
    pub copied: u64,
    /// Control-plane bytes the reliable transport originated on this rank:
    /// retransmitted payload copies plus cumulative-ack messages. Kept
    /// strictly separate from the logical `sent`/`received` volumes, so a
    /// lossy-but-reliable run reports exactly the fault-free logical
    /// volume with the recovery overhead isolated here.
    pub retransmitted: u64,
}

/// What a rank is currently blocked on (for the watchdog's wait-for graph).
/// `None` fields are wildcards (a wait on several sources or tags).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedOn {
    /// Awaited source rank, `None` for any-source.
    pub src: Option<usize>,
    /// Awaited tag, `None` for any-tag.
    pub tag: Option<u64>,
}

impl BlockedOn {
    /// Waiting on any message at all.
    pub const ANY: Self = Self { src: None, tag: None };
}

/// What one sweep of a [`RankCtx::sweep_then_park`] loop achieved.
#[derive(Debug)]
pub enum Progress<T> {
    /// The loop is finished, with this result.
    Done(T),
    /// Something advanced — a message matched, or progress that involves
    /// no message (a freed admission slot, a query finished by skipping):
    /// sweep again at once.
    Moved,
    /// Nothing can advance until a message arrives.
    Idle,
}

impl Progress<()> {
    /// `Done` once `finished`, else `Idle`: the sweep of a loop whose only
    /// way forward is a message.
    pub fn done_or_idle(finished: bool) -> Self {
        if finished {
            Progress::Done(())
        } else {
            Progress::Idle
        }
    }
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.src, self.tag) {
            (Some(s), Some(t)) => write!(f, "recv(src={s}, tag={t})"),
            (Some(s), None) => write!(f, "recv(src={s}, tag=any)"),
            (None, _) => write!(f, "recv(any)"),
        }
    }
}

/// Structured diagnostic produced by the progress watchdog when a run
/// globally stalls or deadlocks.
#[derive(Clone, Debug, Default)]
pub struct StallDiagnostic {
    /// `(rank, what it is blocked on)` for every blocked rank.
    pub blocked: Vec<(usize, BlockedOn)>,
    /// Ranks that already finished.
    pub done: Vec<usize>,
    /// A wait-for cycle among the blocked ranks, if one was found
    /// (`[a, b, c]` means a waits on b waits on c waits on a).
    pub cycle: Option<Vec<usize>>,
    /// Per-rank stash contents as `(src, tag)` pairs (non-empty stashes
    /// only): messages that arrived but matched no posted receive. Each
    /// rank leaves its own where its thread ends, at finish or as it
    /// unwinds.
    pub stashes: Vec<(usize, Vec<(usize, u64)>)>,
    /// Last few trace events per rank (traced runs only).
    pub trace_tails: Vec<(usize, Vec<String>)>,
    /// How long the run made no progress before the abort.
    pub stalled_for: Duration,
}

impl std::fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "mpisim watchdog: no progress for {:.1}s ({} blocked, {} finished)",
            self.stalled_for.as_secs_f64(),
            self.blocked.len(),
            self.done.len()
        )?;
        if let Some(c) = &self.cycle {
            let chain: Vec<String> = c.iter().map(|r| r.to_string()).collect();
            writeln!(f, "  deadlock cycle: {} -> {}", chain.join(" -> "), c[0])?;
        }
        for (r, b) in &self.blocked {
            writeln!(f, "  rank {r} blocked on {b}")?;
        }
        if !self.done.is_empty() {
            let d: Vec<String> = self.done.iter().map(|r| r.to_string()).collect();
            writeln!(f, "  finished ranks: {}", d.join(", "))?;
        }
        for (r, s) in &self.stashes {
            let items: Vec<String> =
                s.iter().map(|(src, tag)| format!("(src={src}, tag={tag})")).collect();
            writeln!(f, "  rank {r} stash: [{}]", items.join(", "))?;
        }
        for (r, tail) in &self.trace_tails {
            writeln!(f, "  rank {r} trace tail:")?;
            for line in tail {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Why a fallible run ([`try_run`] / [`try_run_traced`]) failed.
#[derive(Clone, Debug)]
pub enum RunError {
    /// A rank thread panicked; the run was aborted and the original panic
    /// message preserved.
    RankPanic {
        /// The rank that panicked first.
        rank: usize,
        /// Its panic message.
        message: String,
    },
    /// The progress watchdog detected a global stall or deadlock.
    Stalled(Box<StallDiagnostic>),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RunError::Stalled(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A [`RankCtx::recv_timeout`] that expired before a matching message
/// arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvTimeout {
    /// Awaited source rank.
    pub src: usize,
    /// Awaited tag.
    pub tag: u64,
    /// How long the receive waited.
    pub waited: Duration,
}

impl std::fmt::Display for RecvTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "receive (src={}, tag={}) timed out after {:.3}s",
            self.src,
            self.tag,
            self.waited.as_secs_f64()
        )
    }
}

impl std::error::Error for RecvTimeout {}

/// Knobs of a fallible run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Abort with a [`StallDiagnostic`] after this long with zero progress
    /// across all ranks (a stable wait-for cycle aborts much sooner).
    /// `None` disables the watchdog (a deadlocked run then hangs, as plain
    /// MPI would).
    pub watchdog: Option<Duration>,
    /// Polling granularity of blocked receives and the monitor: the upper
    /// bound on abort-notice latency.
    pub poll: Duration,
    /// Fault schedule to inject, if any.
    pub faults: Option<FaultPlan>,
    /// Live-telemetry handle: when set, a sampler thread periodically
    /// snapshots per-rank gauges (blocked-on state, inbox/stash depth,
    /// outstanding collectives, bytes sent/copied, progress counter) into
    /// the handle's ring buffer while the run executes. The caller keeps a
    /// clone and reads [`Telemetry::samples`] during or after the run.
    /// `None` (the default) keeps the hot send/recv path free of gauge
    /// updates (bar the always-on inbox depth) — the same single-branch
    /// guard as the trace layer.
    pub telemetry: Option<Telemetry>,
    /// Reliable-transport configuration ([`crate::reliable`]). When set,
    /// every data message is kept until the receiver's cumulative ack covers
    /// it and re-sent on deadline expiry, which masks an injected
    /// `drop_permille` loss fault. `None` (the default) tracks nothing.
    pub reliable: Option<crate::reliable::ReliableConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            watchdog: Some(Duration::from_secs(30)),
            poll: Duration::from_millis(25),
            faults: None,
            telemetry: None,
            reliable: None,
        }
    }
}

/// Marker panic payload for secondary aborts (a rank unwinding because
/// *another* rank failed): distinguished from real panics so only the
/// original failure is reported.
struct Aborted;

/// Per-rank state visible to the watchdog monitor and the telemetry
/// sampler.
#[derive(Default)]
pub(crate) struct RankState {
    /// Bumped on every completed send and every message taken off the
    /// inbox; the monitor detects stalls as "no counter moved".
    pub(crate) progress: AtomicU64,
    done: AtomicBool,
    pub(crate) blocked: Mutex<Option<BlockedOn>>,
    /// Messages sent to this rank that have not landed yet: queued in its
    /// inbox, or taken off it and held until their delivery instant. Always
    /// maintained (two relaxed bumps per message): the watchdog refuses to
    /// call a wait-for cycle a deadlock while a rank on it has mail it has
    /// not read or that is still in flight, and the telemetry sampler
    /// reports it. `Relaxed` because the count publishes nothing but
    /// itself; senders bump it *before* the channel send and the receiver
    /// drops it only as the message lands, so it never under-reads a
    /// message that is deliverable or on its way.
    pub(crate) inbox_len: AtomicUsize,
    /// Nonblocking collectives currently in flight on this rank
    /// (telemetry gauge, mirrored from [`RankCtx::outstanding`]).
    pub(crate) outstanding: AtomicUsize,
    /// Messages in this rank's out-of-order stash (telemetry gauge).
    pub(crate) stash_len: AtomicUsize,
    /// Running total of bytes sent (telemetry gauge).
    pub(crate) sent_bytes: AtomicU64,
    /// Running total of payload bytes physically copied (telemetry gauge).
    pub(crate) copied_bytes: AtomicU64,
    /// Tasks of the intra-rank work-stealing pool currently executing on
    /// this rank (telemetry gauge; the pool itself maintains it through
    /// the handle from [`RankCtx::pool_busy_gauge`]).
    pub(crate) pool_busy: Arc<AtomicUsize>,
}

/// A stash as `(src, tag)` pairs, in stash order.
type StashPairs = Vec<(usize, u64)>;

/// Run-global state shared by rank threads, the monitor and the sampler.
pub(crate) struct Shared {
    pub(crate) states: Vec<RankState>,
    pub(crate) abort: AtomicBool,
    /// First failure wins; later ones (usually secondary) are dropped.
    verdict: Mutex<Option<RunError>>,
    /// What ranks leave behind for a stall diagnostic as they unwind or
    /// finish: their trace tails and their non-empty stashes.
    trace_tails: Mutex<Vec<(usize, Vec<String>)>>,
    stashes: Mutex<Vec<(usize, StashPairs)>>,
    pub(crate) finished: AtomicUsize,
    pub(crate) cv_lock: Mutex<()>,
    pub(crate) cv: Condvar,
    watchdog: bool,
    /// Whether telemetry gauges are maintained. Checked with one branch on
    /// the hot paths, exactly like the disabled trace sink.
    telemetry: bool,
    /// The crash board of a [`try_run_recover`] run, where rank panics are
    /// absorbed as crashes instead of aborting; `None` under every other
    /// entry point.
    board: Option<Arc<CrashBoard>>,
}

impl Shared {
    fn new(nranks: usize, watchdog: bool, telemetry: bool, board: Option<Arc<CrashBoard>>) -> Self {
        Self {
            states: (0..nranks).map(|_| RankState::default()).collect(),
            abort: AtomicBool::new(false),
            verdict: Mutex::new(None),
            trace_tails: Mutex::new(Vec::new()),
            stashes: Mutex::new(Vec::new()),
            finished: AtomicUsize::new(0),
            cv_lock: Mutex::new(()),
            cv: Condvar::new(),
            watchdog,
            telemetry,
            board,
        }
    }

    /// Whether any observer (watchdog or sampler) reads the blocked
    /// mirror.
    fn observed(&self) -> bool {
        self.watchdog || self.telemetry
    }

    fn record_verdict(&self, e: RunError) {
        let mut v = self.verdict.lock().unwrap();
        if v.is_none() {
            *v = Some(e);
        }
        drop(v);
        self.abort.store(true, Ordering::Release);
        self.wake_observers();
    }

    fn rank_finished(&self, rank: usize) {
        self.states[rank].done.store(true, Ordering::Release);
        self.finished.fetch_add(1, Ordering::AcqRel);
        self.wake_observers();
    }

    /// Whether the observers (watchdog, sampler) should exit: the run
    /// aborted or every rank finished.
    pub(crate) fn run_over(&self, nranks: usize) -> bool {
        self.abort.load(Ordering::Acquire) || self.finished.load(Ordering::Acquire) >= nranks
    }

    /// Wakes the observers, under `cv_lock`: they read [`Shared::run_over`]
    /// under it before every wait, so the wake-up cannot fall between.
    fn wake_observers(&self) {
        let _guard = self.cv_lock.lock().unwrap();
        self.cv.notify_all();
    }
}

/// The per-rank handle: identity, mailbox and counters.
///
/// The out-of-order stash preserves MPI's non-overtaking guarantee: two
/// messages with the same `(source, tag)` are always delivered in the order
/// they were sent. Messages enter the stash in channel order (the arrival
/// rule, `RankCtx::arrive`), and the stash is a FIFO (`VecDeque`):
/// arrivals append at the back and tag matches take the *first* match.
pub struct RankCtx {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    inbox: Receiver<Message>,
    /// Out-of-order stash for `(src, tag)` matching, in arrival order.
    stash: VecDeque<Message>,
    volume: RankVolume,
    tracer: RankTracer,
    shared: Arc<Shared>,
    poll: Duration,
    /// The fault interposer, when the run injects faults.
    interposer: Option<Interposer>,
    /// Next sequence number per destination channel ([`Message::seq`]),
    /// which is also the index of the message's chaos draws.
    tx_seq: Vec<u64>,
    /// Next sequence number expected per source channel.
    rx_next: Vec<u64>,
    /// Per source, messages that arrived ahead of their turn, by sequence
    /// number (always empty on a fault-free run).
    ahead: Vec<BTreeMap<u64, Message>>,
    /// This rank's Lamport clock: ticked on every send, merged (`max + 1`)
    /// on every consumed receive. Two plain `u64` bumps per message, so the
    /// stamps are always on — which is what lets any traced run be
    /// causally validated after the fact.
    clock: u64,
    /// Monotonic send counter ([`Message::idx`] provenance).
    sends: u64,
    /// The reliable transport, when the run enables it.
    reliable: Option<ReliableState>,
    /// Per-channel logical-volume split, when the rank entry enabled it
    /// ([`RankCtx::enable_channel_accounting`]).
    channels: Option<ChannelAccounting>,
    /// Monotonic count of messages that entered the stash: the lost-wakeup
    /// guard [`RankCtx::sweep_then_park`] snapshots before each sweep and
    /// compares before it parks, and [`RankCtx::park`] watches to end.
    arrivals: u64,
    /// The wake log: `(src, tag)` of every data message that entered the
    /// stash since the last [`RankCtx::take_wakes`], kept only while a
    /// reader is attached ([`RankCtx::open_wake_log`]) and `None` otherwise.
    wake_log: Option<Vec<(usize, u64)>>,
    /// Whether [`RankCtx::park`] polls before it parks, learnt from this
    /// rank's own waits.
    spin: SpinPolicy,
    /// Messages taken off the inbox before their [`Message::visible_at`],
    /// earliest instant on top; [`RankCtx::land_due`] lands them.
    in_flight: BinaryHeap<Pending>,
}

/// A message held until its delivery instant, ordered so that the
/// earliest instant is the top of a max-heap.
struct Pending {
    at: Instant,
    msg: Message,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}

impl Eq for Pending {}

/// Splits a rank's *logical* traffic counters (`sent`/`received`/message
/// counts) across application-defined channels keyed on the message tag —
/// e.g. one channel per pole-expansion query. Physical counters (`copied`,
/// `retransmitted`) have no tag at their accounting points and stay
/// aggregate-only; control traffic (acks, retransmits) bypasses the send
/// path entirely, so a channel's counters are exactly the collective traffic
/// its tags describe.
struct ChannelAccounting {
    /// Maps a tag to its channel index, or `None` for traffic that belongs
    /// to no channel (control lanes, barrier traffic).
    classify: fn(u64) -> Option<usize>,
    volumes: Vec<RankVolume>,
}

/// High-byte lane mask of the tag space: the runtime's control traffic and
/// the barrier/repair protocols each own one 8-bit lane, and user tags stay
/// below `1 << 56`.
pub const LANE_MASK: u64 = 0xFF << 56;

/// Tag of reliable-transport cumulative-ack messages. Acks are pure control
/// traffic: sent outside the fault interposer (never dropped, duplicated or
/// reordered), intercepted at every inbox read (never stashed or matched),
/// and accounted only in [`RankVolume::retransmitted`].
pub const ACK_LANE: u64 = 0xAC << 56;

/// Lane of recovery JOIN requests: an orphaned rank asks its rebuilt-tree
/// parent to re-issue a collective's payload (`JOIN_LANE | tag`).
pub const JOIN_LANE: u64 = 0xCA << 56;

/// Lane the re-issued payload answering a JOIN travels on
/// (`REPAIR_LANE | tag`): a fresh edge, so the repair cannot collide with
/// in-flight traffic of the original tree.
pub const REPAIR_LANE: u64 = 0xDA << 56;

/// How long a matched receive may wait: when it began (what
/// [`RecvTimeout::waited`] is measured from) and when it gives up.
#[derive(Clone, Copy)]
struct Until {
    start: Instant,
    deadline: Option<Instant>,
}

impl Until {
    fn forever() -> Self {
        Self { start: Instant::now(), deadline: None }
    }

    fn after(dur: Duration) -> Self {
        let start = Instant::now();
        // A duration too long to represent is a wait without a deadline.
        Self { start, deadline: start.checked_add(dur) }
    }
}

impl RankCtx {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank's trace sink (disabled under [`run`], enabled under
    /// [`run_traced`]). Phase drivers push attribution scopes on it.
    pub fn tracer(&mut self) -> &mut RankTracer {
        &mut self.tracer
    }

    /// Unwinds this rank because the run was aborted elsewhere, leaving its
    /// trace tail behind for the diagnostic.
    fn abort_unwind(&mut self) -> ! {
        let tail = self.tracer.tail(8);
        if !tail.is_empty() {
            self.shared.trace_tails.lock().unwrap().push((self.rank, tail));
        }
        std::panic::panic_any(Aborted);
    }

    /// Leaves the `(src, tag)` of every stashed message for a stall
    /// diagnostic, if the stash holds any. Called where the rank's thread
    /// ends — after its last flush, or as it unwinds from an abort or a
    /// panic — so a message stranded at a finished rank shows too.
    fn leave_stash(&self) {
        if !self.stash.is_empty() {
            let stash = self.stash.iter().map(|m| (m.src, m.tag)).collect();
            self.shared.stashes.lock().unwrap().push((self.rank, stash));
        }
    }

    fn check_abort(&mut self) {
        if self.shared.abort.load(Ordering::Acquire) {
            self.abort_unwind();
        }
    }

    fn bump_progress(&self) {
        self.shared.states[self.rank].progress.fetch_add(1, Ordering::Relaxed);
    }

    fn set_blocked(&self, on: BlockedOn) {
        if self.shared.observed() {
            *self.shared.states[self.rank].blocked.lock().unwrap() = Some(on);
        }
    }

    fn clear_blocked(&self) {
        if self.shared.observed() {
            *self.shared.states[self.rank].blocked.lock().unwrap() = None;
        }
    }

    /// Appends an arrival to the stash, bumps `arrivals` and logs it for
    /// an attached wake-log reader. With
    /// [`RankCtx::stash_take`] the only way the stash changes: the two keep
    /// the trace's depth gauge and the telemetry gauge equal to it.
    fn stash_push(&mut self, m: Message) {
        if let Some(log) = &mut self.wake_log {
            log.push((m.src, m.tag));
        }
        self.stash.push_back(m);
        self.arrivals += 1;
        self.stash_depth();
    }

    /// Removes stash entry `i`. `remove` (not `swap_remove_back`) keeps the
    /// rest in arrival order, preserving per-`(src, tag)` FIFO delivery.
    fn stash_take(&mut self, i: usize) -> Message {
        let m = self.stash.remove(i).expect("stash index in range");
        self.stash_depth();
        m
    }

    /// Reports the stash depth to the trace and the telemetry gauge.
    fn stash_depth(&mut self) {
        if self.shared.telemetry {
            self.shared.states[self.rank].stash_len.store(self.stash.len(), Ordering::Relaxed);
        }
        self.tracer.stash_depth(self.stash.len());
    }

    /// Lands every held message whose delivery instant has passed, then
    /// takes everything queued in the inbox.
    fn drain_inbox(&mut self) {
        self.land_due();
        while let Ok(m) = self.inbox.try_recv() {
            self.accept(m);
        }
    }

    /// Books a message just taken off the inbox as progress, then holds it
    /// if its delivery instant lies ahead and lands it otherwise.
    fn accept(&mut self, m: Message) {
        self.bump_progress();
        match m.visible_at {
            Some(at) if at > Instant::now() => self.in_flight.push(Pending { at, msg: m }),
            _ => self.land(m),
        }
    }

    /// Lands every held message whose delivery instant has passed and
    /// returns the earliest instant still held. Free while nothing is held,
    /// as on every run without an injected delay.
    fn land_due(&mut self) -> Option<Instant> {
        self.in_flight.peek()?;
        let now = Instant::now();
        loop {
            let at = self.in_flight.peek()?.at;
            if at > now {
                return Some(at);
            }
            let m = self.in_flight.pop().expect("the top was just read").msg;
            self.land(m);
        }
    }

    /// A message reaches this rank: it leaves the inbox count and goes to
    /// the reliable transport (an ack, never stashed, matched or accounted)
    /// or the arrival rule (data, answered by the ack the rule asks for).
    fn land(&mut self, m: Message) {
        self.shared.states[self.rank].inbox_len.fetch_sub(1, Ordering::Relaxed);
        let src = m.src;
        if m.tag == ACK_LANE {
            if let Some(rel) = &mut self.reliable {
                rel.on_ack(&m);
            }
        } else if let (Some(cum), true) = (self.arrive(m), self.reliable.is_some()) {
            let data = ReliableState::ack_payload(cum);
            let ack = self.stamp(ACK_LANE, 0, u64::MAX, data);
            self.volume.retransmitted += ack.bytes();
            self.push_raw(src, ack);
        }
    }

    /// The arrival rule: judges a data message exactly once, as it comes
    /// off the inbox, against its `(src, me)` channel. The channel's next
    /// number enters the stash, followed by every successor held early; a
    /// message ahead of its turn is held; a number already seen is a
    /// duplicate, dropped. Nothing judged here was accounted, so dropping
    /// needs no reversal. No receive form touches sequencing. Returns the
    /// channel's cumulative number to ack, after a release or a duplicate.
    fn arrive(&mut self, m: Message) -> Option<u64> {
        let src = m.src;
        let next = self.rx_next[src];
        if m.seq == next {
            self.stash_push(m);
            let mut next = next + 1;
            while let Some(m) = self.ahead[src].remove(&next) {
                self.stash_push(m);
                next += 1;
            }
            self.rx_next[src] = next;
            return Some(next);
        }
        let tag = m.tag;
        if m.seq < next || self.ahead[src].insert(m.seq, m).is_some() {
            self.tracer.fault(FaultKind::DuplicateSuppressed, src, tag);
            return Some(next);
        }
        None
    }

    /// Counts one send/receive operation against this rank's injected
    /// crash and stall triggers and carries out the one that fires.
    fn count_op(&mut self) {
        match self.interposer.as_mut().and_then(Interposer::count_op) {
            None => {}
            Some(Trigger::Crash(at)) => {
                self.tracer.fault(FaultKind::Crashed, self.rank, 0);
                panic!("chaos: injected crash of rank {} after {at} operations", self.rank);
            }
            Some(Trigger::Stall) => {
                self.tracer.fault(FaultKind::Stalled, self.rank, 0);
                loop {
                    std::thread::sleep(self.poll);
                    self.check_abort();
                }
            }
        }
    }

    /// Hands a message to the destination mailbox, no interposition.
    ///
    /// A rank drops its inbox only after it is marked done (its thread
    /// ends after `rank_finished`, whether it returned, crashed or
    /// unwound), so a send that finds the inbox gone is a surplus message
    /// racing the peer's exit — an injected duplicate whose first copy
    /// already satisfied the receive, a retransmission, an ack — and is
    /// dropped, like a wire message arriving after completion.
    fn push_raw(&self, dst: usize, msg: Message) {
        // Count before the channel send: the channel's own synchronization
        // orders this increment before the receiver's matching decrement.
        self.shared.states[dst].inbox_len.fetch_add(1, Ordering::Relaxed);
        if self.senders[dst].send(msg).is_err() {
            self.shared.states[dst].inbox_len.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Releases every message the interposer holds back. Runs before any
    /// blocking wait and at rank finish.
    fn release_held(&mut self) {
        while let Some((dst, m)) = self.interposer.as_mut().and_then(Interposer::release) {
            self.push_raw(dst, m);
        }
    }

    /// Re-sends what the reliable transport has due now. Runs at sends, at
    /// match attempts, at every timed-out park slice and in the finish-time
    /// flush; a no-op without reliable transport or with nothing unacked.
    fn resend_due(&mut self) {
        let Some(rel) = self.reliable.as_mut().filter(|r| !r.idle()) else { return };
        let states = &self.shared.states;
        for (dst, m) in rel.due(Instant::now(), |dst| states[dst].done.load(Ordering::Acquire)) {
            let bytes = m.bytes();
            self.volume.retransmitted += bytes;
            self.tracer.retransmit(dst, m.tag, bytes);
            self.push_raw(dst, m);
        }
    }

    /// Charges `bytes` of physical payload copying to this rank's
    /// counters. Called by the [`IntoPayload`] conversions on send and by
    /// collectives that materialize a buffer outside a send.
    pub fn account_copy(&mut self, bytes: u64) {
        if bytes > 0 {
            self.volume.copied += bytes;
            self.tracer.copy_bytes(bytes);
            if self.shared.telemetry {
                self.shared.states[self.rank].copied_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Shared handle to this rank's pool-busy telemetry gauge. Hand it to
    /// `Pool::set_busy_gauge` so the sampler sees how many pool tasks are
    /// executing at each snapshot. Maintained by the pool itself, so it
    /// stays live (unlike the other gauges) even when telemetry is off —
    /// two relaxed atomic bumps per task is below the noise floor of a
    /// GEMM-sized task body.
    pub fn pool_busy_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.shared.states[self.rank].pool_busy)
    }

    /// Reports how much work the caller has outstanding on this rank:
    /// forwards the count to the trace sink (its high-water mark is
    /// `outstanding_hwm`) and mirrors it into the telemetry gauge. The
    /// phase-2 engine reports the supernodes in its windows — tasks whose
    /// GEMM stage has not run, not the reductions or broadcasts in flight.
    pub fn outstanding(&mut self, count: usize) {
        if self.shared.telemetry {
            self.shared.states[self.rank].outstanding.store(count, Ordering::Relaxed);
        }
        self.tracer.outstanding(count);
    }

    /// Buffered non-blocking send (≈ `MPI_Isend` whose buffer is owned by
    /// the runtime — the call returns immediately). Accepts anything
    /// [`IntoPayload`]: a `Vec<f64>` is packed into a shared buffer (one
    /// counted copy), a [`Payload`] is forwarded as-is (zero copies).
    ///
    /// Stamps the message with the next sequence number of the
    /// `(self, dst)` channel ([`Message::seq`]), so the receiver can drop
    /// duplicated deliveries and hold reordered ones until their turn.
    pub fn send<P: IntoPayload>(&mut self, dst: usize, tag: u64, data: P) {
        let (data, copied) = data.into_payload();
        self.account_copy(copied);
        self.count_op();
        assert!(dst < self.size, "destination {dst} out of range");
        assert_ne!(dst, self.rank, "self-sends are not modeled (use local data)");
        let seq = self.tx_seq[dst];
        self.tx_seq[dst] += 1;
        // Lamport tick + provenance stamp, unconditionally: two u64 bumps.
        self.clock += 1;
        let idx = self.sends;
        self.sends += 1;
        let msg = self.stamp(tag, seq, idx, data);
        self.volume.sent += msg.bytes();
        self.volume.msgs_sent += 1;
        if let Some(v) = self.channel_for(tag) {
            v.sent += msg.bytes();
            v.msgs_sent += 1;
        }
        self.tracer.msg_send(dst, tag, msg.bytes(), self.clock, idx);
        if self.shared.telemetry {
            self.shared.states[self.rank].sent_bytes.fetch_add(msg.bytes(), Ordering::Relaxed);
        }
        if let Some(rel) = &mut self.reliable {
            // A clone shares the payload: a header copy, not a block copy.
            rel.track(dst, msg.clone());
        }
        match &mut self.interposer {
            None => self.push_raw(dst, msg),
            Some(ip) => {
                for m in ip.deliver(dst, msg, &mut self.tracer).into_iter().flatten() {
                    self.push_raw(dst, m);
                }
            }
        }
        self.bump_progress();
        self.resend_due();
    }

    /// A message from this rank, stamped with its clock and the trace
    /// clock's now.
    fn stamp(&self, tag: u64, seq: u64, idx: u64, data: Payload) -> Message {
        let (src, sent_us, clock) = (self.rank, self.tracer.now_us(), self.clock);
        Message { src, tag, sent_us, seq, clock, idx, visible_at: None, data }
    }

    /// Ends the rank after its user function returned: releases held-back
    /// messages, then retransmits and drains acks until every reliable
    /// stream is acked or its receiver finished, so a loss on a last message
    /// is repaired. Late data (a surplus duplicate) dies with the rank.
    fn finish(&mut self) {
        self.release_held();
        while self.reliable.is_some() {
            self.drain_inbox();
            self.resend_due();
            if self.reliable.as_ref().is_none_or(ReliableState::idle)
                || self.shared.abort.load(Ordering::Acquire)
            {
                break;
            }
            std::thread::sleep(self.poll.min(Duration::from_millis(2)));
        }
        self.leave_stash();
    }

    /// The one blocking point of the message path: takes messages off the
    /// inbox until one enters the stash and returns `true`, or returns
    /// `false` once `deadline` (if any) has passed. Every blocking call —
    /// the matched receives and [`RankCtx::sweep_then_park`], and through
    /// it `wait_any`, the collectives and the engines' progress loops —
    /// bottoms out here, so the ready check, the spin, the timed park, the
    /// deadline arithmetic, the abort check and the reliable-transport
    /// tick exist once.
    ///
    /// **Spin-then-park.** Every round first lands the held messages whose
    /// delivery instant has passed ([`RankCtx::land_due`]) and polls the
    /// inbox (a queued or due message never costs a park, and wins over an
    /// expired deadline). While the rank's [`SpinPolicy`] says spinning
    /// pays, it then keeps polling for up to [`SPIN_BUDGET`], yielding
    /// between polls so that on an oversubscribed host the core goes to a
    /// runnable rank; only then does it park in `recv_timeout`, in slices
    /// of `poll` cut short by the deadline and by the earliest delivery
    /// instant still held. A wait that found the inbox empty is booked with
    /// the policy when it completes, whether it spun or not — as a win only
    /// if a message ended it. The spin's own wall time goes to the trace
    /// ([`pselinv_trace::RankMetrics::spin_us`]).
    ///
    /// **What the watchdog sees.** `on` is published before the first
    /// poll and cleared on return, and progress is bumped per message
    /// taken, so a spinning rank reads to the monitor exactly as a parked
    /// one does. Acks, duplicates and early arrivals are taken without
    /// ending the wait.
    fn park(&mut self, on: BlockedOn, deadline: Option<Instant>) -> bool {
        let start = Instant::now();
        let spin_until = self.spin.should_spin().then(|| start + SPIN_BUDGET);
        let mut waited = false;
        // The last instant the spin polled an empty inbox: the spin ran
        // from `start` to here.
        let mut spun: Option<Instant> = None;
        let seen = self.arrivals;
        self.set_blocked(on);
        let got = loop {
            let held = self.land_due();
            if self.arrivals != seen {
                break true;
            }
            let taken = match self.inbox.try_recv() {
                Ok(m) => Ok(m),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {
                    waited = true;
                    let now = Instant::now();
                    let left = deadline.map(|d| d.saturating_duration_since(now));
                    if left.is_some_and(|l| l.is_zero()) {
                        break false;
                    }
                    if spin_until.is_some_and(|s| now < s) {
                        spun = Some(now);
                        std::thread::yield_now();
                        continue;
                    }
                    let due = held.map(|h| h.saturating_duration_since(now));
                    let slice = [left, due].into_iter().flatten().fold(self.poll, Duration::min);
                    self.inbox.recv_timeout(slice)
                }
            };
            match taken {
                Ok(m) => self.accept(m),
                Err(RecvTimeoutError::Timeout) => {
                    self.check_abort();
                    self.resend_due();
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.check_abort();
                    std::thread::sleep(self.poll);
                    self.check_abort();
                    panic!("all senders hung up while receiving");
                }
            }
        };
        self.clear_blocked();
        if let Some(t) = spun {
            self.tracer.spin(t.saturating_duration_since(start).as_micros() as u64);
        }
        if waited {
            // Mail that was already queued cost no park either way: only a
            // wait that found the inbox empty says anything about spinning.
            self.spin.record(start.elapsed(), got);
        }
        got
    }

    /// Blocking receive with a deadline: the core under [`RankCtx::recv`]
    /// and [`RankCtx::recv_timeout`], one chaos operation per call. After
    /// each park only the stash entries that park added are scanned: the
    /// older ones were scanned already.
    fn recv_until(&mut self, src: usize, tag: u64, until: Until) -> Result<Message, RecvTimeout> {
        self.count_op();
        self.release_held();
        let wants = |m: &Message| m.src == src && m.tag == tag;
        if let Some(m) = self.take_match(0, wants) {
            return Ok(self.account_recv(m));
        }
        let posted_us = self.tracer.now_us();
        let on = BlockedOn { src: Some(src), tag: Some(tag) };
        loop {
            let from = self.stash.len();
            if !self.park(on, until.deadline) {
                return Err(RecvTimeout { src, tag, waited: until.start.elapsed() });
            }
            if let Some(m) = self.take_match(from, wants) {
                self.tracer.recv_wait(posted_us, m.sent_us, Some((m.src, m.idx)));
                return Ok(self.account_recv(m));
            }
        }
    }

    /// Takes the oldest stash entry at or after index `from` that `wants`
    /// accepts.
    fn take_match(&mut self, from: usize, wants: impl Fn(&Message) -> bool) -> Option<Message> {
        let i = from + self.stash.range(from..).position(wants)?;
        Some(self.stash_take(i))
    }

    /// Blocking receive of the next message on edge `(src, tag)`, buffering
    /// any other arrivals (≈ `MPI_Recv` with out-of-order message stashing).
    ///
    /// Messages reach the stash already judged by the arrival rule, in
    /// channel order and without duplicates, so the receive takes the
    /// oldest stashed match.
    ///
    /// A receive that actually blocks gets its blocked interval classified
    /// into late-sender wait vs transfer time against the matching
    /// message's send timestamp (a stash hit never blocked, so records
    /// neither).
    ///
    /// Returns the shared payload: reading it is zero-copy, and forwarding
    /// it into another [`RankCtx::send`] shares the buffer.
    pub fn recv(&mut self, src: usize, tag: u64) -> Payload {
        let m = self.recv_until(src, tag, Until::forever());
        m.expect("an unbounded receive cannot time out").data
    }

    /// Like [`RankCtx::recv`], but gives up after `dur`: the suspicion
    /// primitive of the recovery layer. A timeout takes nothing, so the
    /// call can be retried (or the edge abandoned for a rebuilt parent).
    pub fn recv_timeout(
        &mut self,
        src: usize,
        tag: u64,
        dur: Duration,
    ) -> Result<Payload, RecvTimeout> {
        self.recv_until(src, tag, Until::after(dur)).map(|m| m.data)
    }

    /// Non-blocking match of `(src, tag)` (≈ `MPI_Iprobe` + receive): drains
    /// the inbox and takes the edge's oldest stashed message, exactly like
    /// [`RankCtx::recv`]. Used by the request API. A match counts one chaos
    /// operation — a request's count does not depend on how often it was
    /// polled.
    pub fn try_match(&mut self, src: usize, tag: u64) -> Option<Payload> {
        self.tracer.match_call();
        self.check_abort();
        self.release_held();
        self.resend_due();
        self.drain_inbox();
        let m = self.take_match(0, |m| m.src == src && m.tag == tag)?;
        self.count_op();
        Some(self.account_recv(m).data)
    }

    /// Attaches a reader to the wake log. From now on `(src, tag)` of every
    /// data message that enters the stash — in turn, released from the
    /// early buffer, or retransmitted — is recorded once, in stash order,
    /// for [`RankCtx::take_wakes`]; the messages already stashed are
    /// recorded first, as if they had just arrived. Acks and suppressed
    /// duplicates are never recorded. A progress loop that polls a request
    /// only when its own message has arrived reads its wake-ups here; the
    /// runtime never interprets the tags.
    pub fn open_wake_log(&mut self) {
        self.wake_log = Some(self.stash.iter().map(|m| (m.src, m.tag)).collect());
    }

    /// Detaches the wake-log reader and drops whatever it did not take:
    /// nothing is recorded while no reader is attached, so a phase that
    /// never drains the log cannot grow it.
    pub fn close_wake_log(&mut self) {
        self.wake_log = None;
    }

    /// Drains the inbox into the stash (running the retransmission tick
    /// first, as a match attempt does), then moves the wakes logged since
    /// the last call into `into` (cleared first), oldest first; leaves
    /// `into` empty while no reader is attached. The two buffers swap, so a
    /// reader that passes the same vector every time allocates nothing
    /// once both have grown.
    pub fn take_wakes(&mut self, into: &mut Vec<(usize, u64)>) {
        into.clear();
        self.check_abort();
        self.resend_due();
        self.drain_inbox();
        if let Some(log) = &mut self.wake_log {
            std::mem::swap(log, into);
        }
    }

    /// Drives a progress loop to completion; the one place a rank parks
    /// between polls. Each round snapshots the arrival counter, runs
    /// `sweep`, and parks — reporting `on` to the watchdog — only if the
    /// sweep found nothing to do ([`Progress::Idle`]) *and* nothing entered
    /// the stash during it. The second condition is the lost-wakeup guard:
    /// a poll late in a sweep drains the inbox into the stash, possibly
    /// behind a request polled earlier, and a parked rank wakes only on new
    /// inbox traffic. A park ends with the message that ended it stashed
    /// unaccounted for the next sweep to match, its blocked time classified
    /// against its send timestamp.
    pub fn sweep_then_park<T>(
        &mut self,
        on: BlockedOn,
        mut sweep: impl FnMut(&mut Self) -> Progress<T>,
    ) -> T {
        loop {
            let seen = self.arrivals;
            match sweep(self) {
                Progress::Done(t) => return t,
                Progress::Moved => continue,
                Progress::Idle => {}
            }
            if self.arrivals != seen {
                continue;
            }
            self.release_held();
            let posted_us = self.tracer.now_us();
            let from = self.stash.len();
            let arrived = self.park(on, None);
            assert!(arrived, "a wait without a deadline ends in an arrival");
            let m = &self.stash[from];
            self.tracer.recv_wait(posted_us, m.sent_us, Some((m.src, m.idx)));
        }
    }

    fn account_recv(&mut self, m: Message) -> Message {
        self.volume.received += m.bytes();
        self.volume.msgs_received += 1;
        if let Some(v) = self.channel_for(m.tag) {
            v.received += m.bytes();
            v.msgs_received += 1;
        }
        // Lamport merge at the consumption point.
        self.clock = self.clock.max(m.clock) + 1;
        self.tracer.msg_recv(m.src, m.tag, m.bytes(), self.clock, m.idx);
        m
    }

    /// Counters so far.
    pub fn volume(&self) -> RankVolume {
        self.volume
    }

    /// Splits this rank's logical traffic counters across `nchannels`
    /// application channels: every subsequent send and consumed receive
    /// whose tag `classify`s to `Some(i)` is additionally charged to channel
    /// `i`'s [`RankVolume`]. A receive is charged only when it is taken
    /// (never for a masked duplicate), so a channel's totals are exact
    /// logical volumes, not delivery-order artifacts. Only
    /// `sent`/`received` and the message counts are split; `copied` and
    /// `retransmitted` remain aggregate.
    ///
    /// Calling it again resets the per-channel counters (the aggregate
    /// [`RankCtx::volume`] is untouched).
    pub fn enable_channel_accounting(
        &mut self,
        nchannels: usize,
        classify: fn(u64) -> Option<usize>,
    ) {
        self.channels =
            Some(ChannelAccounting { classify, volumes: vec![RankVolume::default(); nchannels] });
    }

    /// Per-channel counters so far (empty when channel accounting was never
    /// enabled).
    pub fn channel_volumes(&self) -> Vec<RankVolume> {
        self.channels.as_ref().map(|c| c.volumes.clone()).unwrap_or_default()
    }

    /// The channel counter a tag belongs to, if accounting is on and the
    /// classifier claims it.
    fn channel_for(&mut self, tag: u64) -> Option<&mut RankVolume> {
        let c = self.channels.as_mut()?;
        let i = (c.classify)(tag)?;
        c.volumes.get_mut(i)
    }

    /// The run's crash board, which only [`try_run_recover`] keeps: the
    /// recovery collectives ([`crate::recovery`]) read and tally it.
    pub(crate) fn crash_board(&self) -> Arc<CrashBoard> {
        let board = self.shared.board.clone();
        board.expect("recovery collectives run only under try_run_recover")
    }

    /// Takes the oldest available message whose tag lies in `lane`
    /// (`tag & LANE_MASK == lane`), draining the inbox first. The recovery
    /// layer polls this for JOIN requests between receive slices.
    pub fn try_take_lane(&mut self, lane: u64) -> Option<Message> {
        self.check_abort();
        self.release_held();
        self.resend_due();
        self.drain_inbox();
        let m = self.take_match(0, |m| m.tag & LANE_MASK == lane)?;
        Some(self.account_recv(m))
    }
}

/// Follows the wait-for edges `r -> blocked[r].src`, skipping finished
/// ranks, and returns the first cycle found (every member blocked on the
/// next, last blocked on the first).
fn find_cycle(blocked: &[Option<BlockedOn>], done: &[bool]) -> Option<Vec<usize>> {
    let n = blocked.len();
    let next = |r: usize| -> Option<usize> {
        if done[r] {
            return None;
        }
        blocked[r].as_ref().and_then(|b| b.src).filter(|&s| s < n && !done[s])
    };
    // 0 = unvisited, 1 = on the current walk, 2 = exhausted.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut r = start;
        loop {
            match color[r] {
                1 => {
                    let pos = path.iter().position(|&x| x == r).unwrap();
                    return Some(path[pos..].to_vec());
                }
                2 => break,
                _ => {
                    color[r] = 1;
                    path.push(r);
                    match next(r) {
                        Some(s) => r = s,
                        None => break,
                    }
                }
            }
        }
        for &p in &path {
            color[p] = 2;
        }
    }
    None
}

/// The fast-path verdict: a wait-for cycle among the blocked flags is a
/// deadlock only if every inbox on it is empty. A rank whose message has
/// been delivered but whose thread has not been scheduled yet still reads
/// as blocked — on an oversubscribed host for several polls running — and
/// mail in its inbox is exactly what tells that apart from a real cycle,
/// where every member has drained its inbox into the stash and found
/// nothing it wants.
fn deadlock_cycle(
    blocked: &[Option<BlockedOn>],
    done: &[bool],
    inbox_len: &[usize],
) -> Option<Vec<usize>> {
    find_cycle(blocked, done).filter(|c| c.iter().all(|&r| inbox_len[r] == 0))
}

/// Assembles the stall verdict from the monitor's observation.
fn stall_error(
    blocked: &[Option<BlockedOn>],
    done: &[bool],
    cycle: Option<Vec<usize>>,
    stalled_for: Duration,
) -> RunError {
    let blocked_list = blocked.iter().enumerate().filter_map(|(r, b)| b.map(|b| (r, b))).collect();
    let done_list = done.iter().enumerate().filter(|&(_, &d)| d).map(|(r, _)| r).collect();
    RunError::Stalled(Box::new(StallDiagnostic {
        blocked: blocked_list,
        done: done_list,
        cycle,
        stashes: Vec::new(),
        trace_tails: Vec::new(),
        stalled_for,
    }))
}

/// The watchdog monitor: observes per-rank progress counters; on zero
/// progress it inspects the wait-for graph. With `fast_cycle` (no reliable
/// transport), a wait-for cycle with no undelivered mail on it
/// ([`deadlock_cycle`]) that is stable across three consecutive
/// no-progress polls aborts immediately (deadlock); any global stall
/// aborts after the full `stall` duration. A reliable transport disables
/// the fast path: blocked cycles are routinely broken by retransmission.
fn monitor(shared: &Shared, nranks: usize, stall: Duration, poll: Duration, fast_cycle: bool) {
    let mut last = vec![u64::MAX; nranks];
    let mut last_change = Instant::now();
    let mut stable_cycle: Option<(Vec<usize>, u32)> = None;
    loop {
        let guard = shared.cv_lock.lock().unwrap();
        drop(shared.cv.wait_timeout_while(guard, poll, |_| !shared.run_over(nranks)).unwrap());
        if shared.run_over(nranks) {
            return;
        }
        let cur: Vec<u64> =
            shared.states.iter().map(|s| s.progress.load(Ordering::Acquire)).collect();
        if cur != last {
            last = cur;
            last_change = Instant::now();
            stable_cycle = None;
            continue;
        }
        let done: Vec<bool> =
            shared.states.iter().map(|s| s.done.load(Ordering::Acquire)).collect();
        let blocked: Vec<Option<BlockedOn>> =
            shared.states.iter().map(|s| *s.blocked.lock().unwrap()).collect();
        let inbox_len: Vec<usize> =
            shared.states.iter().map(|s| s.inbox_len.load(Ordering::Relaxed)).collect();
        if let Some(c) = deadlock_cycle(&blocked, &done, &inbox_len).filter(|_| fast_cycle) {
            match &mut stable_cycle {
                Some((prev, seen)) if *prev == c => {
                    *seen += 1;
                    if *seen >= 3 {
                        shared.record_verdict(stall_error(
                            &blocked,
                            &done,
                            Some(c),
                            last_change.elapsed(),
                        ));
                        return;
                    }
                }
                _ => stable_cycle = Some((c, 1)),
            }
        } else {
            stable_cycle = None;
        }
        if last_change.elapsed() >= stall {
            shared.record_verdict(stall_error(&blocked, &done, None, last_change.elapsed()));
            return;
        }
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type RankOutput<R> = (R, RankVolume, Option<RankTrace>);

/// Runs `f` on `nranks` rank threads over `shared`, whose crash board the
/// entry point set.
fn run_impl<R, F, M>(
    nranks: usize,
    opts: &RunOptions,
    f: &F,
    mk: &M,
    shared: &Arc<Shared>,
) -> Result<Vec<Option<RankOutput<R>>>, RunError>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
    M: Fn(usize) -> RankTracer + Sync,
{
    assert!(nranks > 0);
    let plan = opts.faults.as_ref().map(|p| Arc::new(p.clone()));
    let shared = shared.clone();
    let epoch = Instant::now();
    let mut senders = Vec::with_capacity(nranks);
    let mut receivers = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(r);
    }
    let out: Vec<Option<RankOutput<R>>> = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(nranks);
        for (rank, inbox) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            let shared = shared.clone();
            let plan = plan.clone();
            let poll = opts.poll;
            let reliable = opts.reliable;
            joins.push(scope.spawn(move || {
                let mut ctx = RankCtx {
                    rank,
                    size: nranks,
                    senders,
                    inbox,
                    stash: VecDeque::new(),
                    volume: RankVolume::default(),
                    tracer: mk(rank),
                    shared: shared.clone(),
                    poll,
                    interposer: plan.clone().map(|p| Interposer::new(p, rank, nranks)),
                    tx_seq: vec![0; nranks],
                    rx_next: vec![0; nranks],
                    ahead: (0..nranks).map(|_| BTreeMap::new()).collect(),
                    clock: 0,
                    sends: 0,
                    reliable: reliable.map(|cfg| ReliableState::new(cfg, rank, plan)),
                    channels: None,
                    arrivals: 0,
                    wake_log: None,
                    spin: SpinPolicy::default(),
                    in_flight: BinaryHeap::new(),
                };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
                match result {
                    Ok(r) => {
                        ctx.finish();
                        shared.rank_finished(rank);
                        Some((r, ctx.volume, ctx.tracer.finish()))
                    }
                    Err(payload) => {
                        ctx.leave_stash();
                        if payload.downcast_ref::<Aborted>().is_none() {
                            match &shared.board {
                                // Online recovery absorbs the death instead
                                // of aborting the run; the board lists it
                                // before the rank is marked done.
                                Some(board) => board.mark_crashed(rank),
                                None => shared.record_verdict(RunError::RankPanic {
                                    rank,
                                    message: panic_message(payload.as_ref()),
                                }),
                            }
                        }
                        shared.rank_finished(rank);
                        None
                    }
                }
            }));
        }
        if let Some(stall) = opts.watchdog {
            let shared = shared.clone();
            let poll = opts.poll;
            // Under a reliable transport a wait-for cycle is not proof of
            // deadlock: a lost message leaves both ends blocked until the
            // retransmission deadline fires and breaks the cycle. Only the
            // full stall timeout is trustworthy there.
            let fast_cycle = opts.reliable.is_none();
            scope.spawn(move || monitor(&shared, nranks, stall, poll, fast_cycle));
        }
        if let Some(tel) = opts.telemetry.clone() {
            let shared = shared.clone();
            scope.spawn(move || sampler(&shared, nranks, &tel, epoch));
        }
        joins.into_iter().map(|j| j.join().expect("rank thread panicked unexpectedly")).collect()
    });
    let verdict = shared.verdict.lock().unwrap().take();
    if let Some(mut e) = verdict {
        if let RunError::Stalled(d) = &mut e {
            d.trace_tails = std::mem::take(&mut *shared.trace_tails.lock().unwrap());
            d.trace_tails.sort_by_key(|(r, _)| *r);
            d.stashes = std::mem::take(&mut *shared.stashes.lock().unwrap());
            d.stashes.sort_by_key(|(r, _)| *r);
        }
        return Err(e);
    }
    Ok(out)
}

/// Fallible form of [`run`]: executes `f` on `nranks` rank threads under
/// the given options (watchdog, poll interval, fault plan) and returns the
/// results and volumes, or the structured failure.
pub fn try_run<R, F>(
    nranks: usize,
    opts: &RunOptions,
    f: F,
) -> Result<(Vec<R>, Vec<RankVolume>), RunError>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    let shared =
        Arc::new(Shared::new(nranks, opts.watchdog.is_some(), opts.telemetry.is_some(), None));
    let handles = run_impl(nranks, opts, &f, &|_| RankTracer::disabled(), &shared)?;
    let mut results = Vec::with_capacity(nranks);
    let mut volumes = Vec::with_capacity(nranks);
    for h in handles {
        let (r, v, _) = h.expect("rank aborted without a verdict");
        results.push(r);
        volumes.push(v);
    }
    Ok((results, volumes))
}

/// Fallible form of [`run_traced`]: like [`try_run`] with an enabled
/// wall-clock tracer on every rank.
pub fn try_run_traced<R, F>(
    nranks: usize,
    label: &str,
    opts: &RunOptions,
    f: F,
) -> Result<(Vec<R>, Vec<RankVolume>, Trace), RunError>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    let epoch = Instant::now();
    let shared =
        Arc::new(Shared::new(nranks, opts.watchdog.is_some(), opts.telemetry.is_some(), None));
    let handles = run_impl(nranks, opts, &f, &move |rank| RankTracer::wall(rank, epoch), &shared)?;
    let mut results = Vec::with_capacity(nranks);
    let mut volumes = Vec::with_capacity(nranks);
    let mut traces = Vec::with_capacity(nranks);
    for h in handles {
        let (r, v, t) = h.expect("rank aborted without a verdict");
        results.push(r);
        volumes.push(v);
        traces.extend(t);
    }
    Ok((results, volumes, Trace::new(label, traces)))
}

/// Recovery-mode run: executes `f` on `nranks` rank threads, absorbing
/// rank deaths instead of aborting. A panicking rank is marked crashed on
/// the run's crash board, survivors keep running (the recovery collectives
/// in [`crate::recovery`] consult the board to rebuild trees around the
/// dead), and the survivors' results come back with the board's
/// [`RecoveryReport`](crate::RecoveryReport).
/// An `Err` only means an unrecoverable failure (a global stall the
/// watchdog caught). Only this entry point absorbs panics: under
/// [`try_run`] the first panic aborts the run.
pub fn try_run_recover<R, F>(
    nranks: usize,
    opts: &RunOptions,
    f: F,
) -> Result<RecoverOutcome<R>, RunError>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    let board = Arc::new(CrashBoard::new(nranks));
    let (watchdog, telemetry) = (opts.watchdog.is_some(), opts.telemetry.is_some());
    let shared = Arc::new(Shared::new(nranks, watchdog, telemetry, Some(board.clone())));
    let handles = run_impl(nranks, opts, &f, &|_| RankTracer::disabled(), &shared)?;
    let mut results = Vec::with_capacity(nranks);
    let mut volumes = Vec::with_capacity(nranks);
    for h in handles {
        match h {
            Some((r, v, _)) => {
                results.push(Some(r));
                volumes.push(v);
            }
            None => {
                results.push(None);
                volumes.push(RankVolume::default());
            }
        }
    }
    Ok((results, volumes, board.report()))
}

/// Runs `f` on `nranks` rank threads and returns each rank's result plus
/// its communication volume.
///
/// A panic in any rank or a watchdog-detected stall aborts the whole run
/// and panics here with the diagnostic (the original panic message for a
/// rank panic).
pub fn run<R, F>(nranks: usize, f: F) -> (Vec<R>, Vec<RankVolume>)
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    try_run(nranks, &RunOptions::default(), f).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run`], but with an enabled wall-clock tracer on every rank: each
/// `RankCtx` records message events, per-phase byte counters and stash
/// depth, and the assembled [`Trace`] is returned alongside the results.
pub fn run_traced<R, F>(nranks: usize, label: &str, f: F) -> (Vec<R>, Vec<RankVolume>, Trace)
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    try_run_traced(nranks, label, &RunOptions::default(), f).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        let (results, volumes) = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1.0, 2.0, 3.0]);
                ctx.recv(1, 8).to_vec()
            } else {
                let d = ctx.recv(0, 7);
                let doubled: Vec<f64> = d.iter().map(|x| x * 2.0).collect();
                ctx.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(results[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(volumes[0].sent, 24);
        assert_eq!(volumes[0].received, 24);
        assert_eq!(volumes[1].msgs_sent, 1);
    }

    #[test]
    fn out_of_order_tag_matching() {
        let (results, _) = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1.0]);
                ctx.send(1, 2, vec![2.0]);
                ctx.send(1, 3, vec![3.0]);
                vec![]
            } else {
                // receive in reverse order
                let c = ctx.recv(0, 3);
                let b = ctx.recv(0, 2);
                let a = ctx.recv(0, 1);
                vec![a[0], b[0], c[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn many_ranks_all_to_one_volume() {
        let n = 8;
        let (_, volumes) = run(n, move |ctx| {
            if ctx.rank() == 0 {
                for src in 1..n {
                    ctx.recv(src, 0);
                }
            } else {
                ctx.send(0, 0, vec![0.0; 100]);
            }
        });
        assert_eq!(volumes[0].received, (n as u64 - 1) * 800);
        assert_eq!(volumes[0].sent, 0);
        for v in &volumes[1..] {
            assert_eq!(v.sent, 800);
        }
    }

    #[test]
    fn channel_accounting_splits_logical_volumes() {
        // Tags 0..8 map to channel tag/4; tag 100 is unclassified. The
        // per-channel counters must tile the aggregate logical counters
        // (minus unclassified traffic), even when receives arrive out of
        // order and bounce through the stash.
        fn classify(tag: u64) -> Option<usize> {
            (tag < 8).then_some((tag / 4) as usize)
        }
        let (results, volumes) = run(2, |ctx| {
            ctx.enable_channel_accounting(2, classify);
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1.0; 3]); // channel 0, 24 B
                ctx.send(1, 5, vec![2.0; 5]); // channel 1, 40 B
                ctx.send(1, 100, vec![3.0]); // unclassified, 8 B
                ctx.send(1, 4, vec![4.0; 2]); // channel 1, 16 B
            } else {
                // Reverse order forces stash traffic through the matcher.
                ctx.recv(0, 4);
                ctx.recv(0, 100);
                ctx.recv(0, 5);
                ctx.recv(0, 1);
            }
            ctx.channel_volumes()
        });
        let tx = &results[0];
        assert_eq!((tx[0].sent, tx[0].msgs_sent), (24, 1));
        assert_eq!((tx[1].sent, tx[1].msgs_sent), (56, 2));
        assert_eq!(tx[0].received + tx[1].received, 0);
        let rx = &results[1];
        assert_eq!((rx[0].received, rx[0].msgs_received), (24, 1));
        assert_eq!((rx[1].received, rx[1].msgs_received), (56, 2));
        // Aggregate counters keep counting everything, channels or not.
        assert_eq!(volumes[0].sent, 88);
        assert_eq!(volumes[1].received, 88);
        // Ranks that never enabled accounting report nothing.
        let (r, _) = run(1, |ctx| ctx.channel_volumes());
        assert!(r[0].is_empty());
    }

    #[test]
    fn stress_unordered_interleaving() {
        // Each rank sends 50 tagged messages to every other rank; everybody
        // receives them in a scrambled order.
        let n = 4;
        let (results, _) = run(n, move |ctx| {
            let me = ctx.rank();
            for dst in 0..n {
                if dst != me {
                    for k in 0..50u64 {
                        ctx.send(dst, k, vec![(me * 1000) as f64 + k as f64]);
                    }
                }
            }
            let mut sum = 0.0;
            for src in (0..n).rev() {
                if src != me {
                    for k in (0..50u64).rev() {
                        let d = ctx.recv(src, k);
                        assert_eq!(d[0], (src * 1000) as f64 + k as f64);
                        sum += d[0];
                    }
                }
            }
            sum
        });
        assert!(results.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn recv_takes_oldest_matching_message() {
        // Same-(src, tag) FIFO must also hold for tag-matched receives that
        // hit the stash: recv(0, 7) must return the first tag-7 send.
        let (results, _) = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1.0]);
                ctx.send(1, 7, vec![2.0]);
                ctx.send(1, 9, vec![99.0]);
                vec![]
            } else {
                let _ = ctx.recv(0, 9); // stashes both tag-7 messages
                let a = ctx.recv(0, 7);
                let b = ctx.recv(0, 7);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn traced_run_counts_messages_and_volume() {
        use pselinv_trace::CollKind;
        let (_, volumes, trace) = run_traced(2, "unit/pingpong", |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![0.0; 16]);
            } else {
                let _ = ctx.recv(0, 7);
            }
        });
        assert_eq!(trace.ranks.len(), 2);
        // No scope was pushed, so traffic lands under Other — and must
        // agree byte-for-byte with the runtime's own volume counters.
        assert_eq!(trace.ranks[0].metrics.kind(CollKind::Other).bytes_sent, volumes[0].sent);
        assert_eq!(trace.ranks[1].metrics.kind(CollKind::Other).bytes_recv, volumes[1].received);
        assert_eq!(volumes[0].sent, 128);
    }

    #[test]
    fn late_sender_wait_is_classified() {
        use pselinv_trace::CollKind;
        // Rank 1 posts its receive immediately; rank 0 sends only after a
        // deliberate delay. Most of rank 1's blocked interval must be
        // classified as late-sender wait, and wait + transfer can never
        // exceed the enclosing span.
        let delay_ms = 40u64;
        let (_, _, trace) = run_traced(2, "unit/late_sender", move |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                ctx.tracer().push_scope(CollKind::ColBcast, 1);
                ctx.send(1, 3, vec![0.0; 64]);
                ctx.tracer().pop_scope();
            } else {
                ctx.tracer().push_scope(CollKind::ColBcast, 1);
                let _ = ctx.recv(0, 3);
                ctx.tracer().pop_scope();
            }
        });
        let k = trace.ranks[1].metrics.kind(CollKind::ColBcast);
        assert!(
            k.wait_us >= delay_ms * 1000 / 2,
            "late-sender wait {} µs too small for a {delay_ms} ms delay",
            k.wait_us
        );
        assert!(
            k.wait_us + k.transfer_us <= k.span_time_us,
            "classified blocked time {} + {} exceeds the span {}",
            k.wait_us,
            k.transfer_us,
            k.span_time_us
        );
        // The sender never blocked on a receive.
        let s = trace.ranks[0].metrics.kind(CollKind::ColBcast);
        assert_eq!(s.wait_us + s.transfer_us, 0);
    }

    #[test]
    fn stash_hit_records_no_wait() {
        // Force the tag-5 message through the stash: by the time recv(0, 5)
        // runs, the message already arrived, so no blocked time may be
        // classified for it beyond the first (tag-6) receive.
        let (_, _, trace) = run_traced(2, "unit/stash_no_wait", |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![1.0]);
                ctx.send(1, 6, vec![2.0]);
            } else {
                let _ = ctx.recv(0, 6); // stashes tag 5
                let waits_before = ctx.tracer().metrics().unwrap().total_wait_us()
                    + ctx.tracer().metrics().unwrap().total_transfer_us();
                let _ = ctx.recv(0, 5); // pure stash hit
                let m = ctx.tracer().metrics().unwrap();
                assert_eq!(
                    m.total_wait_us() + m.total_transfer_us(),
                    waits_before,
                    "a stash hit must not add blocked time"
                );
            }
        });
        // Exactly one receive (tag 6) may have blocked.
        let n_wait_events = trace.ranks[1]
            .events
            .iter()
            .filter(|e| matches!(e.kind, pselinv_trace::EventKind::Wait { .. }))
            .count();
        assert!(n_wait_events <= 1, "{n_wait_events} wait events for one blocking recv");
    }

    #[test]
    fn recv_timeout_hits_and_expires() {
        let (results, _) = run(2, |ctx| {
            if ctx.rank() == 0 {
                // Nothing sent under tag 9: this receive must time out.
                let err = ctx
                    .recv_timeout(1, 9, Duration::from_millis(60))
                    .expect_err("no sender: must time out");
                assert_eq!(err.src, 1);
                assert_eq!(err.tag, 9);
                assert!(err.waited >= Duration::from_millis(60));
                // Tell rank 1 we are done probing, then take its message.
                ctx.send(1, 1, vec![0.0]);
                ctx.recv_timeout(1, 2, Duration::from_secs(10)).expect("sent: must match").to_vec()
            } else {
                let _ = ctx.recv(0, 1);
                ctx.send(0, 2, vec![5.0]);
                vec![]
            }
        });
        assert_eq!(results[0], vec![5.0]);
    }

    /// Drives a rank's spin policy to the floor: its next waits park at once.
    fn disarm_spin(ctx: &mut RankCtx) {
        for _ in 0..64 {
            ctx.spin.record(Duration::from_millis(1), true);
        }
        assert!(!ctx.spin.should_spin());
    }

    /// One pass through the wait whose sweep is idle once and done the
    /// second time.
    fn park_once(ctx: &mut RankCtx) {
        let mut first = true;
        ctx.sweep_then_park(BlockedOn::ANY, |_| match std::mem::take(&mut first) {
            true => Progress::Idle,
            false => Progress::Done(()),
        });
    }

    #[test]
    fn bounded_wait_expires_at_its_deadline_spun_or_not() {
        // `poll` is far longer than the timeout, so an expiry that waited
        // out a poll slice (or was rounded up to one) fails the upper bound
        // by two orders of magnitude, not by scheduler noise.
        let opts = RunOptions { poll: Duration::from_secs(2), ..RunOptions::default() };
        try_run(1, &opts, |ctx| {
            for armed in [true, false] {
                ctx.spin = SpinPolicy::default();
                if !armed {
                    disarm_spin(ctx);
                }
                let timeout = Duration::from_millis(5);
                let t0 = Instant::now();
                let err = ctx.recv_timeout(0, 3, timeout).expect_err("nobody sends");
                let waited = t0.elapsed();
                assert!(err.waited >= timeout, "armed={armed}: gave up after {:?}", err.waited);
                assert!(waited < Duration::from_secs(1), "armed={armed}: took {waited:?}");
            }
            // No time at all is a deadline too, not a wait without one.
            ctx.recv_timeout(0, 3, Duration::ZERO).expect_err("nobody sends");
            assert!(ctx.stash.is_empty(), "nobody sends");
        })
        .expect("a lone rank timing out is a clean run");
    }

    #[test]
    fn abort_brings_down_a_parked_rank() {
        // Rank 0 spins out its budget and parks on a message that never
        // comes; rank 1 fails only once rank 0 is registered as blocked.
        // The watchdog (kept on for the blocked mirror) would need 30 s and
        // sees no cycle: the abort flag alone must bring rank 0 down.
        let opts = RunOptions { poll: Duration::from_millis(20), ..RunOptions::default() };
        let t0 = Instant::now();
        let err = try_run(2, &opts, |ctx| {
            if ctx.rank() == 0 {
                ctx.recv(1, 0);
            } else {
                while ctx.shared.states[0].blocked.lock().unwrap().is_none() {
                    std::thread::yield_now();
                }
                panic!("rank 1 gives up");
            }
        })
        .expect_err("rank 1 panics");
        assert!(matches!(err, RunError::RankPanic { rank: 1, .. }), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    }

    #[test]
    fn an_arrival_counts_once_and_keeps_its_provenance_however_it_was_taken() {
        use std::sync::Barrier;
        // Three ways a waiting rank can come by its message: already queued
        // (the ready check), delivered while it polls (spin armed), and
        // delivered while it is parked (spin disarmed). Each must bump
        // `arrivals` exactly once — the lost-wakeup guard of every progress
        // loop — stash the message unaccounted, and trace the wait against
        // the same `(src, idx)` send.
        let queued = Barrier::new(2);
        let (results, volumes, trace) = run_traced(2, "unit/park_paths", |ctx| {
            let peer_blocked =
                |ctx: &RankCtx| ctx.shared.states[1].blocked.lock().unwrap().is_some();
            if ctx.rank() == 0 {
                ctx.send(1, 10, vec![1.0]);
                queued.wait();
                for tag in [11, 12] {
                    queued.wait();
                    while !peer_blocked(ctx) {
                        std::thread::yield_now();
                    }
                    ctx.send(1, tag, vec![1.0]);
                }
                vec![]
            } else {
                let mut deltas = Vec::new();
                for (tag, armed) in [(10, true), (11, true), (12, false)] {
                    ctx.spin = SpinPolicy::default();
                    if !armed {
                        disarm_spin(ctx);
                    }
                    queued.wait();
                    let before = ctx.arrivals;
                    park_once(ctx);
                    deltas.push(ctx.arrivals - before);
                    assert_eq!(ctx.volume().msgs_received, tag - 10, "stashed, not consumed");
                    let _ = ctx.recv(0, tag);
                }
                deltas
            }
        });
        assert_eq!(results[1], vec![1, 1, 1]);
        assert_eq!(volumes[1].msgs_received, 3);
        let causes: Vec<_> = trace.ranks[1]
            .events
            .iter()
            .filter_map(|e| match e.kind {
                pselinv_trace::EventKind::Wait { cause, .. } => Some(cause),
                _ => None,
            })
            .collect();
        assert_eq!(causes, vec![Some((0, 0)), Some((0, 1)), Some((0, 2))]);
    }

    #[test]
    fn repeated_sends_on_one_tag_roundtrip_without_faults() {
        // Repeated uses of one tag arrive in send order, counted once each,
        // when no fault plan is installed.
        let (results, volumes) = run(2, |ctx| {
            if ctx.rank() == 0 {
                for k in 0..5 {
                    ctx.send(1, 7, vec![k as f64]);
                }
                vec![]
            } else {
                (0..5).map(|_| ctx.recv(0, 7)[0]).collect::<Vec<f64>>()
            }
        });
        assert_eq!(results[1], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(volumes[0].msgs_sent, 5);
        assert_eq!(volumes[1].msgs_received, 5);
        assert_eq!(volumes[1].received, 5 * 8);
    }

    /// What rank 0 holds after it landed `feed` — `(seq, tag)` messages from
    /// rank 1, handed over in that order under the reliable transport: the
    /// stash as `(seq, tag)`, the held sequence numbers, the channel's next
    /// number, the acks its volume accounts, and the cumulative numbers of
    /// the acks rank 1 finds in its inbox, in push order.
    type Judged = (Vec<(u64, u64)>, Vec<u64>, u64, u64, Vec<u64>);

    fn judge_arrivals(feed: &[(u64, u64)]) -> Judged {
        let opts = RunOptions {
            reliable: Some(crate::reliable::ReliableConfig::default()),
            ..RunOptions::default()
        };
        let judged = std::sync::Barrier::new(2);
        let (results, _) = try_run(2, &opts, |ctx| {
            if ctx.rank() == 1 {
                judged.wait();
                let mut cums = Vec::new();
                while let Ok(m) = ctx.inbox.try_recv() {
                    ctx.shared.states[1].inbox_len.fetch_sub(1, Ordering::Relaxed);
                    assert_eq!(m.tag, ACK_LANE, "rank 1 receives nothing but acks");
                    cums.push(m.data[0].to_bits());
                }
                return (Vec::new(), Vec::new(), 0, 0, cums);
            }
            for &(seq, tag) in feed {
                let data = Payload::from(vec![seq as f64]);
                // `land` takes the message off the inbox count.
                ctx.shared.states[0].inbox_len.fetch_add(1, Ordering::Relaxed);
                ctx.land(Message {
                    src: 1,
                    tag,
                    sent_us: 0,
                    seq,
                    clock: 0,
                    idx: 0,
                    visible_at: None,
                    data,
                });
            }
            let stash = ctx.stash.iter().map(|m| (m.seq, m.tag)).collect();
            let held = ctx.ahead[1].keys().copied().collect();
            // An ack is one word: the cumulative number.
            let acks = ctx.volume().retransmitted / 8;
            judged.wait();
            (stash, held, ctx.rx_next[1], acks, Vec::new())
        })
        .expect("a clean run");
        let mut results = results.into_iter();
        let (stash, held, next, acks, _) = results.next().expect("rank 0");
        let (.., cums) = results.next().expect("rank 1");
        (stash, held, next, acks, cums)
    }

    #[test]
    fn the_arrival_rule_judges_each_message_once_in_channel_order() {
        type Row = (
            &'static str,
            &'static [(u64, u64)],
            &'static [(u64, u64)],
            &'static [u64],
            u64,
            &'static [u64],
        );
        #[rustfmt::skip]
        let table: [Row; 6] = [
            // (case, fed (seq, tag), stash (seq, tag), held, next, acked cums)
            ("in turn", &[(0, 7)], &[(0, 7)], &[], 1, &[1]),
            ("early arrivals are held", &[(2, 7), (1, 7)], &[], &[1, 2], 0, &[]),
            ("an in-turn arrival releases its held successors",
                &[(2, 7), (1, 7), (0, 7)], &[(0, 7), (1, 7), (2, 7)], &[], 3, &[3]),
            ("a duplicate of a held message is suppressed and re-acked",
                &[(1, 7), (1, 7)], &[], &[1], 0, &[0]),
            ("a duplicate of a taken message is suppressed and re-acked",
                &[(0, 7), (1, 7), (0, 7)], &[(0, 7), (1, 7)], &[], 2, &[1, 2, 2]),
            ("tags interleaved on one channel stay FIFO per tag",
                &[(1, 8), (0, 7), (3, 7), (2, 8)], &[(0, 7), (1, 8), (2, 8), (3, 7)], &[], 4,
                &[2, 4]),
        ];
        for (case, feed, stash, held, next, cums) in table {
            let got = judge_arrivals(feed);
            let acks = cums.len() as u64;
            assert_eq!(got, (stash.to_vec(), held.to_vec(), next, acks, cums.to_vec()), "{case}");
        }
    }

    #[test]
    fn try_match_counts_every_poll_and_a_stash_hit_once() {
        use crate::requests::RecvRequest;
        // Rank 1 tests request A N times before rank 0 may send anything,
        // then lets rank 0 send A, B and a marker on one channel. Once the
        // blocking receive of the marker returns, A and B are stashed
        // (channel order), so one more test completes A and one test of B
        // is a stash hit. Blocking receives never count.
        const N: u64 = 5;
        let (results, _, trace) = run_traced(2, "match-calls", |ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.recv(1, 9);
                for tag in [1, 2, 3] {
                    ctx.send(1, tag, vec![tag as f64]);
                }
                return (0, 0);
            }
            let calls = |ctx: &mut RankCtx| ctx.tracer().metrics().unwrap().match_calls;
            let mut a = RecvRequest::post(0, 1);
            for _ in 0..N {
                assert!(!a.test(ctx), "nothing was sent yet");
            }
            ctx.send(0, 9, vec![0.0]);
            let _ = ctx.recv(0, 3);
            assert!(a.test(ctx), "A precedes the marker on its channel");
            let after_a = calls(ctx);
            let mut b = RecvRequest::post(0, 2);
            assert!(b.test(ctx), "B is a stash hit");
            (after_a, calls(ctx) - after_a)
        });
        assert_eq!(results[1], (N + 1, 1));
        assert_eq!(trace.ranks[1].metrics.match_calls, N + 2);
        assert_eq!(trace.ranks[0].metrics.match_calls, 0, "blocking receives never count");
    }

    #[test]
    fn the_wake_log_records_each_stashed_message_once_and_only_while_read() {
        // Fed to rank 0's arrival rule from rank 1 as (seq, tag), one tag
        // per sequence number: an early arrival, the in-turn message and a
        // duplicate of it, the gap filler that releases the early one, a
        // duplicate of a taken message, then an early message and a
        // duplicate of it while it is held.
        let feed = [(2, 12), (0, 10), (0, 10), (1, 11), (2, 12), (4, 14), (4, 14)];
        for open in [true, false] {
            let (results, _) = try_run(2, &RunOptions::default(), |ctx| {
                if ctx.rank() == 1 {
                    return Default::default();
                }
                if open {
                    ctx.open_wake_log();
                }
                for &(seq, tag) in &feed {
                    let data = Payload::from(vec![seq as f64]);
                    let (clock, idx, visible_at) = (0, 0, None);
                    ctx.arrive(Message {
                        src: 1,
                        tag,
                        sent_us: 0,
                        seq,
                        clock,
                        idx,
                        visible_at,
                        data,
                    });
                }
                let mut wakes = vec![(9, 99)];
                ctx.take_wakes(&mut wakes);
                let stash: Vec<(usize, u64)> = ctx.stash.iter().map(|m| (m.src, m.tag)).collect();
                let mut again = Vec::new();
                ctx.take_wakes(&mut again);
                assert!(again.is_empty(), "open={open}: a take empties the log");
                ctx.close_wake_log();
                assert!(ctx.wake_log.is_none(), "open={open}: a closed log holds nothing");
                (stash, wakes)
            })
            .expect("a clean run");
            let (stash, wakes) = &results[0];
            assert_eq!(stash, &vec![(1, 10), (1, 11), (1, 12)], "open={open}");
            let want = if open { stash.clone() } else { Vec::new() };
            assert_eq!(wakes, &want, "open={open}");
        }
    }

    #[test]
    fn opening_the_wake_log_records_the_stash_first() {
        // Three messages are stashed before the log opens: opening records
        // them, in stash order, ahead of the two that arrive after it.
        let (results, _) = try_run(2, &RunOptions::default(), |ctx| {
            if ctx.rank() == 1 {
                return Vec::new();
            }
            let mut feed = [(0, 5), (1, 7), (2, 6), (3, 8), (4, 7)].into_iter();
            let arrive = |ctx: &mut RankCtx, (seq, tag): (u64, u64)| {
                let data = Payload::from(vec![0.0]);
                let (clock, idx, visible_at) = (0, 0, None);
                ctx.arrive(Message { src: 1, tag, sent_us: 0, seq, clock, idx, visible_at, data });
            };
            for m in feed.by_ref().take(3) {
                arrive(ctx, m);
            }
            ctx.open_wake_log();
            for m in feed {
                arrive(ctx, m);
            }
            let mut wakes = Vec::new();
            ctx.take_wakes(&mut wakes);
            ctx.close_wake_log();
            wakes
        })
        .expect("a clean run");
        assert_eq!(results[0], vec![(1, 5), (1, 7), (1, 6), (1, 8), (1, 7)]);
    }

    #[test]
    fn the_wake_log_sees_retransmissions_once_and_never_acks_or_duplicates() {
        // Rank 0 sends one tag per message under loss, duplication and
        // reordering with the reliable transport on; rank 1 takes them all
        // and answers once. Each rank's log must read exactly the data
        // messages it was sent, in channel order: every lost message once,
        // through its retransmission, and no ack or duplicate.
        use pselinv_chaos::FaultSpec;
        const N: u64 = 24;
        let spec = FaultSpec {
            drop_permille: 200,
            duplicate_permille: 200,
            reorder_permille: 200,
            ..FaultSpec::default()
        };
        let plan = (0..)
            .map(|seed| FaultPlan::new(seed).with_default(spec))
            .find(|p| (0..N).any(|s| p.drops(0, 1, s)) && (0..N).any(|s| p.duplicates(0, 1, s)))
            .expect("some seed drops and duplicates");
        let opts = RunOptions {
            faults: Some(plan),
            reliable: Some(crate::reliable::ReliableConfig { rto: Duration::from_millis(2) }),
            ..guard_opts()
        };
        let (results, volumes) = try_run(2, &opts, |ctx| {
            ctx.open_wake_log();
            if ctx.rank() == 0 {
                for tag in 100..100 + N {
                    ctx.send(1, tag, vec![tag as f64]);
                }
                let _ = ctx.recv(1, 999);
            } else {
                for tag in 100..100 + N {
                    assert_eq!(ctx.recv(0, tag)[0], tag as f64);
                }
                ctx.send(0, 999, vec![0.0]);
            }
            let mut wakes = Vec::new();
            ctx.take_wakes(&mut wakes);
            ctx.close_wake_log();
            wakes
        })
        .expect("loss is masked");
        assert!(volumes[0].retransmitted > 0, "nothing was retransmitted");
        assert_eq!(results[0], vec![(1, 999)], "rank 0 saw only the answer, never an ack");
        assert_eq!(results[1], (100..100 + N).map(|t| (0, t)).collect::<Vec<_>>());
    }

    /// Options under which a lost wakeup fails the run in under a second
    /// instead of hanging it.
    fn guard_opts() -> RunOptions {
        RunOptions {
            watchdog: Some(Duration::from_millis(800)),
            poll: Duration::from_millis(10),
            ..RunOptions::default()
        }
    }

    #[test]
    fn a_message_stashed_behind_a_polled_request_is_swept_again_not_slept_on() {
        use crate::requests::RecvRequest;
        // Rank 1 polls request A; only then does rank 0 send A's message,
        // and rank 1's poll of request B drains it into the stash, behind
        // A. The sweep ends idle and nothing else is ever sent: a park now
        // would never wake, so only the arrivals guard completes A.
        let (polled_a, sent_a) = (AtomicBool::new(false), AtomicBool::new(false));
        let (results, _) = try_run(2, &guard_opts(), |ctx| {
            if ctx.rank() == 0 {
                while !polled_a.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ctx.send(1, 1, vec![7.0]);
                sent_a.store(true, Ordering::Release);
                return 0.0;
            }
            let (mut a, mut b) = (RecvRequest::post(0, 1), RecvRequest::post(0, 2));
            ctx.sweep_then_park(BlockedOn::ANY, |ctx| {
                if a.test(ctx) {
                    return Progress::Done(());
                }
                if !polled_a.swap(true, Ordering::AcqRel) {
                    while !sent_a.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                assert!(!b.test(ctx), "nobody sends B");
                Progress::Idle
            });
            a.take().expect("A completed")[0]
        })
        .expect("a sweep that stashed a message must run again instead of parking");
        assert_eq!(results[1], 7.0);
    }

    #[test]
    fn a_sweep_that_moved_without_a_message_is_not_slept_on() {
        // Progress off the message path — a freed admission slot, a query
        // finished by skipping — comes with no message to wake a park.
        let (results, _) = try_run(1, &guard_opts(), |ctx| {
            let mut sweeps = 0;
            ctx.sweep_then_park(BlockedOn::ANY, |_| {
                sweeps += 1;
                if sweeps < 3 {
                    Progress::Moved
                } else {
                    Progress::Done(sweeps)
                }
            })
        })
        .expect("a sweep that moved must run again instead of parking");
        assert_eq!(results[0], 3);
    }

    #[test]
    fn a_watchdog_over_a_finished_run_exits_without_waiting() {
        // Every rank finished before the monitor's first wait: it must read
        // that before waiting, not one `poll` later.
        let shared = Shared::new(2, true, false, None);
        shared.rank_finished(0);
        shared.rank_finished(1);
        let t0 = Instant::now();
        monitor(&shared, 2, Duration::from_secs(30), Duration::from_secs(5), true);
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
    }

    #[test]
    fn find_cycle_detects_rings_and_chains() {
        let b = |src: usize| Some(BlockedOn { src: Some(src), tag: Some(0) });
        // 0 -> 1 -> 2 -> 0 ring plus a rank 3 chained onto it.
        let blocked = vec![b(1), b(2), b(0), b(0)];
        let done = vec![false; 4];
        let cycle = find_cycle(&blocked, &done).expect("ring must be found");
        assert_eq!(cycle.len(), 3);
        assert!(!cycle.contains(&3), "the chained rank is not part of the cycle");
        // A chain with no back edge has no cycle.
        let blocked = vec![b(1), b(2), None, None];
        assert!(find_cycle(&blocked, &done).is_none());
        // A "cycle" through a finished rank is not a deadlock.
        let blocked = vec![b(1), b(0), None, None];
        let done = vec![false, true, false, false];
        assert!(find_cycle(&blocked, &done).is_none());
        // Wildcard receives contribute no edge.
        let blocked = vec![Some(BlockedOn { src: None, tag: None }), b(0), None, None];
        let done = vec![false; 4];
        assert!(find_cycle(&blocked, &done).is_none());
    }

    #[test]
    fn a_cycle_with_undelivered_mail_is_not_a_deadlock() {
        let b = |src: usize| Some(BlockedOn { src: Some(src), tag: Some(0) });
        // The false positive of a stalled host: 1 -> 2 -> 3 -> 1 by the
        // blocked flags, but rank 2's message sits in its inbox unread.
        let blocked = vec![None, b(2), b(3), b(1)];
        let done = vec![false; 4];
        assert!(find_cycle(&blocked, &done).is_some());
        assert_eq!(deadlock_cycle(&blocked, &done, &[0, 0, 1, 0]), None);
        // Mail for a rank off the cycle changes nothing.
        assert_eq!(deadlock_cycle(&blocked, &done, &[5, 0, 0, 0]), Some(vec![1, 2, 3]));
        // Every inbox on the cycle empty: a deadlock.
        assert_eq!(deadlock_cycle(&blocked, &done, &[0; 4]), Some(vec![1, 2, 3]));
        // No cycle, no verdict, whatever the inboxes hold.
        assert_eq!(deadlock_cycle(&[None, b(2), b(3), None], &done, &[0; 4]), None);
    }

    #[test]
    fn stall_diagnostic_display_names_triples() {
        let d = StallDiagnostic {
            blocked: vec![
                (0, BlockedOn { src: Some(1), tag: Some(7) }),
                (2, BlockedOn { src: None, tag: None }),
            ],
            done: vec![3],
            cycle: Some(vec![0, 1]),
            stashes: vec![(1, vec![(0, 9)])],
            trace_tails: vec![],
            stalled_for: Duration::from_millis(5200),
        };
        let text = d.to_string();
        assert!(text.contains("rank 0 blocked on recv(src=1, tag=7)"), "{text}");
        assert!(text.contains("rank 2 blocked on recv(any)"), "{text}");
        assert!(text.contains("deadlock cycle: 0 -> 1 -> 0"), "{text}");
        assert!(text.contains("rank 1 stash: [(src=0, tag=9)]"), "{text}");
        assert!(text.contains("finished ranks: 3"), "{text}");
    }
}
