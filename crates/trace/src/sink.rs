//! The per-rank trace sink and the assembled multi-rank trace.
//!
//! A [`RankTracer`] is owned by exactly one rank (an mpisim rank thread, or
//! one simulated rank inside the DES engine). The disabled tracer is a
//! `None` — every hook is a single branch on that option, so instrumented
//! code pays nothing when tracing is off.

use crate::event::{CollKind, EventKind, FaultKind, TraceEvent, NO_KEY};
use crate::metrics::RankMetrics;
use pselinv_trees::volume::VolumeStats;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
enum ClockInner {
    /// Real time relative to a shared epoch (mpisim backend). The epoch is
    /// the same `Instant` on every rank, so timestamps align across ranks.
    Wall { epoch: Instant },
    /// Externally-driven time (DES backend simulated clock).
    Manual { now_us: u64 },
}

impl ClockInner {
    fn now_us(&self) -> u64 {
        match self {
            ClockInner::Wall { epoch } => epoch.elapsed().as_micros() as u64,
            ClockInner::Manual { now_us } => *now_us,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Scope {
    coll: CollKind,
    key: u64,
    start_us: u64,
}

#[derive(Debug)]
struct Inner {
    rank: usize,
    clock: ClockInner,
    /// Open attribution scopes, innermost last. Sends/recvs are attributed
    /// to the innermost scope's kind.
    scopes: Vec<Scope>,
    /// Tree depth of this rank in the collective currently in flight, for
    /// per-depth byte attribution.
    depth: Option<usize>,
    /// Last reported stash depth (events are emitted on change only).
    last_stash: usize,
    /// Last reported outstanding-collectives count (events are emitted on
    /// change only).
    last_outstanding: usize,
    events: Vec<TraceEvent>,
    metrics: RankMetrics,
}

/// Event/metrics sink for one rank. Construct with
/// [`RankTracer::disabled`], [`RankTracer::wall`] or [`RankTracer::manual`].
#[derive(Debug, Default)]
pub struct RankTracer(Option<Box<Inner>>);

impl RankTracer {
    /// A tracer whose every hook is a no-op.
    pub fn disabled() -> Self {
        RankTracer(None)
    }

    /// An enabled tracer using wall time relative to `epoch`. Pass the same
    /// epoch to every rank of a run so timestamps align.
    pub fn wall(rank: usize, epoch: Instant) -> Self {
        RankTracer(Some(Box::new(Inner {
            rank,
            clock: ClockInner::Wall { epoch },
            scopes: Vec::new(),
            depth: None,
            last_stash: 0,
            last_outstanding: 0,
            events: Vec::new(),
            metrics: RankMetrics::default(),
        })))
    }

    /// An enabled tracer whose clock is driven by [`RankTracer::set_time_us`]
    /// (used by the DES backend with simulated time).
    pub fn manual(rank: usize) -> Self {
        RankTracer(Some(Box::new(Inner {
            rank,
            clock: ClockInner::Manual { now_us: 0 },
            scopes: Vec::new(),
            depth: None,
            last_stash: 0,
            last_outstanding: 0,
            events: Vec::new(),
            metrics: RankMetrics::default(),
        })))
    }

    /// Whether hooks record anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advances a manual clock. No-op for disabled or wall-clock tracers.
    pub fn set_time_us(&mut self, us: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            if let ClockInner::Manual { now_us } = &mut inner.clock {
                *now_us = us;
            }
        }
    }

    /// Current timestamp (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.0.as_deref().map_or(0, |i| i.clock.now_us())
    }

    /// Opens an attribution scope: until the matching
    /// [`RankTracer::pop_scope`], sends and receives on this rank are
    /// accounted to `coll`, and the scope itself becomes a span keyed by
    /// `(coll, key)`.
    pub fn push_scope(&mut self, coll: CollKind, key: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            let start_us = inner.clock.now_us();
            inner.scopes.push(Scope { coll, key, start_us });
        }
    }

    /// Closes the innermost scope, recording its span.
    pub fn pop_scope(&mut self) {
        if let Some(inner) = self.0.as_deref_mut() {
            if let Some(s) = inner.scopes.pop() {
                let end_us = inner.clock.now_us().max(s.start_us);
                inner.events.push(TraceEvent {
                    ts_us: s.start_us,
                    kind: EventKind::Span { coll: s.coll, key: s.key, end_us },
                });
                inner.metrics.on_span(s.coll, end_us - s.start_us);
            }
        }
    }

    /// Called by a collective implementation on entry. Records this rank's
    /// tree `depth` for per-depth attribution, and — only when no ambient
    /// scope is already open (i.e. the collective is used bare, outside a
    /// phase) — opens a `(coll, key)` scope. Returns whether a scope was
    /// pushed; pass that to [`RankTracer::coll_exit`].
    pub fn coll_enter(&mut self, coll: CollKind, key: u64, depth: Option<usize>) -> bool {
        let Some(inner) = self.0.as_deref_mut() else { return false };
        inner.depth = depth;
        if inner.scopes.is_empty() {
            let start_us = inner.clock.now_us();
            inner.scopes.push(Scope { coll, key, start_us });
            true
        } else {
            false
        }
    }

    /// Called by a collective implementation on exit, with the value
    /// returned by the matching [`RankTracer::coll_enter`].
    pub fn coll_exit(&mut self, pushed: bool) {
        if pushed {
            self.pop_scope();
        }
        if let Some(inner) = self.0.as_deref_mut() {
            inner.depth = None;
        }
    }

    /// Records a message leaving this rank. `clock` is the sender's Lamport
    /// clock at the send, `idx` its per-rank monotonic send index (pass 0
    /// for both when no causal layer is in play, e.g. unit fixtures).
    pub fn msg_send(&mut self, peer: usize, tag: u64, bytes: u64, clock: u64, idx: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            let coll = inner.scopes.last().map_or(CollKind::Other, |s| s.coll);
            let ts_us = inner.clock.now_us();
            inner.events.push(TraceEvent {
                ts_us,
                kind: EventKind::MsgSend { peer, tag, bytes, coll, clock, idx },
            });
            inner.metrics.on_send(coll, bytes, inner.depth);
        }
    }

    /// Records a message consumed on this rank. `clock` is the receiver's
    /// Lamport clock after merging the sender's; `idx` is the matching
    /// send's index on `peer`.
    pub fn msg_recv(&mut self, peer: usize, tag: u64, bytes: u64, clock: u64, idx: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            let coll = inner.scopes.last().map_or(CollKind::Other, |s| s.coll);
            let ts_us = inner.clock.now_us();
            inner.events.push(TraceEvent {
                ts_us,
                kind: EventKind::MsgRecv { peer, tag, bytes, coll, clock, idx },
            });
            inner.metrics.on_recv(coll, bytes);
        }
    }

    /// Classifies a blocked receive that was posted at `posted_us` and
    /// completed *now*, against a message sent at `sent_us` (all three on
    /// the same clock). The blocked interval splits Scalasca-style into
    /// late-sender wait (posted before the send was issued) and transfer
    /// (the message was in flight); the two always sum to the blocked
    /// duration. Attributed to the innermost open scope's kind. `cause`,
    /// when known, names the `(sender rank, send idx)` of the message whose
    /// arrival ended the wait.
    pub fn recv_wait(&mut self, posted_us: u64, sent_us: u64, cause: Option<(usize, u64)>) {
        if let Some(inner) = self.0.as_deref_mut() {
            let done_us = inner.clock.now_us().max(posted_us);
            let wait_us = sent_us.min(done_us).saturating_sub(posted_us);
            let transfer_us = done_us - sent_us.max(posted_us).min(done_us);
            let (coll, key) =
                inner.scopes.last().map_or((CollKind::Other, NO_KEY), |s| (s.coll, s.key));
            inner.events.push(TraceEvent {
                ts_us: posted_us,
                kind: EventKind::Wait { coll, key, wait_us, transfer_us, cause },
            });
            inner.metrics.on_wait(coll, wait_us, transfer_us);
        }
    }

    /// Records an idle-wait span with explicit timestamps and kind (used by
    /// the DES backend: the core sat idle in `[start_us, end_us)` before a
    /// task of kind `coll` could start). `cause` as in
    /// [`RankTracer::recv_wait`].
    pub fn wait_at(
        &mut self,
        coll: CollKind,
        key: u64,
        start_us: u64,
        end_us: u64,
        cause: Option<(usize, u64)>,
    ) {
        if let Some(inner) = self.0.as_deref_mut() {
            let wait_us = end_us.saturating_sub(start_us);
            inner.events.push(TraceEvent {
                ts_us: start_us,
                kind: EventKind::Wait { coll, key, wait_us, transfer_us: 0, cause },
            });
            inner.metrics.on_wait(coll, wait_us, 0);
        }
    }

    /// Accumulates pure transfer time (µs) under `coll` without an event
    /// (used by the DES backend: in-flight time of a consumed message,
    /// already visible as its send/recv instant pair).
    pub fn transfer_as(&mut self, coll: CollKind, transfer_us: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.metrics.on_wait(coll, 0, transfer_us);
        }
    }

    /// Records `bytes` of physical payload copying (metrics only, no
    /// event: copies are frequent and carry no timing information).
    pub fn copy_bytes(&mut self, bytes: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.metrics.on_copy(bytes);
        }
    }

    /// Counts one non-blocking match attempt (metrics only, no event).
    pub fn match_call(&mut self) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.metrics.on_match_call();
        }
    }

    /// Books `us` microseconds of receive spinning (metrics only).
    pub fn spin(&mut self, us: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.metrics.on_spin(us);
        }
    }

    /// Reports the current out-of-order stash depth. Updates the high-water
    /// mark; emits a counter event only when the depth changed.
    pub fn stash_depth(&mut self, depth: usize) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.metrics.on_stash_depth(depth);
            if depth != inner.last_stash {
                inner.last_stash = depth;
                let ts_us = inner.clock.now_us();
                inner.events.push(TraceEvent { ts_us, kind: EventKind::StashDepth { depth } });
            }
        }
    }

    /// Reports the number of nonblocking collectives currently in flight on
    /// this rank (the async engine's overlap signal). Updates the
    /// high-water mark; emits a counter event only when the count changed.
    pub fn outstanding(&mut self, count: usize) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.metrics.on_outstanding(count);
            if count != inner.last_outstanding {
                inner.last_outstanding = count;
                let ts_us = inner.clock.now_us();
                inner.events.push(TraceEvent { ts_us, kind: EventKind::Outstanding { count } });
            }
        }
    }

    /// Records a completed span with explicit timestamps (used by the DES
    /// backend, which knows task start/finish times when the finish event
    /// fires).
    pub fn span_at(&mut self, coll: CollKind, key: u64, start_us: u64, end_us: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            let end_us = end_us.max(start_us);
            inner
                .events
                .push(TraceEvent { ts_us: start_us, kind: EventKind::Span { coll, key, end_us } });
            inner.metrics.on_span(coll, end_us - start_us);
        }
    }

    /// Records a message event with the attribution kind supplied by the
    /// caller instead of the ambient scope (used by the DES backend, whose
    /// edges carry their own `(coll, supernode)` task tags).
    #[allow(clippy::too_many_arguments)]
    pub fn msg_send_as(
        &mut self,
        coll: CollKind,
        peer: usize,
        tag: u64,
        bytes: u64,
        depth: Option<usize>,
        clock: u64,
        idx: u64,
    ) {
        if let Some(inner) = self.0.as_deref_mut() {
            let ts_us = inner.clock.now_us();
            inner.events.push(TraceEvent {
                ts_us,
                kind: EventKind::MsgSend { peer, tag, bytes, coll, clock, idx },
            });
            inner.metrics.on_send(coll, bytes, depth);
        }
    }

    /// Receive-side counterpart of [`RankTracer::msg_send_as`].
    pub fn msg_recv_as(
        &mut self,
        coll: CollKind,
        peer: usize,
        tag: u64,
        bytes: u64,
        clock: u64,
        idx: u64,
    ) {
        if let Some(inner) = self.0.as_deref_mut() {
            let ts_us = inner.clock.now_us();
            inner.events.push(TraceEvent {
                ts_us,
                kind: EventKind::MsgRecv { peer, tag, bytes, coll, clock, idx },
            });
            inner.metrics.on_recv(coll, bytes);
        }
    }

    /// Records a fault-injection (or fault-masking) incident on this rank.
    /// Pure event, no metrics impact: faults perturb delivery, they are not
    /// traffic.
    pub fn fault(&mut self, what: FaultKind, peer: usize, tag: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            let ts_us = inner.clock.now_us();
            inner.events.push(TraceEvent { ts_us, kind: EventKind::Fault { what, peer, tag } });
        }
    }

    /// Records one reliable-transport retransmission of `bytes` toward
    /// `peer`: a [`FaultKind::Retransmit`] instant plus a
    /// [`EventKind::Retransmits`] counter sample. Control-plane metrics
    /// only — the logical traffic counters never move.
    pub fn retransmit(&mut self, peer: usize, tag: u64, bytes: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            let ts_us = inner.clock.now_us();
            inner.events.push(TraceEvent {
                ts_us,
                kind: EventKind::Fault { what: FaultKind::Retransmit, peer, tag },
            });
            let count = inner.metrics.on_retransmit(bytes);
            inner.events.push(TraceEvent { ts_us, kind: EventKind::Retransmits { count } });
        }
    }

    /// Folds the intra-rank task-pool totals for this run into the rank's
    /// metrics (typically called once at rank exit with
    /// `Pool::stats()` sums). Per-worker busy intervals go in separately
    /// via [`RankTracer::span_at`] with [`CollKind::Compute`].
    pub fn pool_stats(&mut self, executed: u64, stolen: u64, busy_us: u64, workers: usize) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.metrics.on_pool(executed, stolen, busy_us, workers);
        }
    }

    /// The last `n` recorded events, formatted one per line (oldest first).
    /// Used by the mpisim watchdog to attach a per-rank trace tail to its
    /// stall diagnostic. Empty when disabled.
    pub fn tail(&self, n: usize) -> Vec<String> {
        self.0.as_deref().map_or_else(Vec::new, |i| {
            let start = i.events.len().saturating_sub(n);
            i.events[start..].iter().map(TraceEvent::describe).collect()
        })
    }

    /// Read access to the metrics accumulated so far (None when disabled).
    pub fn metrics(&self) -> Option<&RankMetrics> {
        self.0.as_deref().map(|i| &i.metrics)
    }

    /// Consumes the tracer, yielding this rank's trace. Returns `None` for
    /// a disabled tracer. Any scopes still open are closed at the current
    /// time.
    pub fn finish(mut self) -> Option<RankTrace> {
        while self.0.as_deref().is_some_and(|i| !i.scopes.is_empty()) {
            self.pop_scope();
        }
        self.0.take().map(|inner| RankTrace {
            rank: inner.rank,
            events: inner.events,
            metrics: inner.metrics,
        })
    }
}

/// Everything one rank recorded.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    pub rank: usize,
    pub events: Vec<TraceEvent>,
    pub metrics: RankMetrics,
}

/// A complete run: one [`RankTrace`] per rank, plus a label and a run
/// metadata block (scheme, grid, seed, backend, …) so exported reports are
/// self-describing.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Free-form run label (workload / scheme / backend), shown in exports.
    pub label: String,
    /// Key/value run metadata, in insertion order. Included verbatim in
    /// exporters; later values win on duplicate keys.
    pub meta: Vec<(String, String)>,
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// Assembles a trace, sorting ranks by rank id.
    pub fn new(label: impl Into<String>, mut ranks: Vec<RankTrace>) -> Self {
        ranks.sort_by_key(|r| r.rank);
        Trace { label: label.into(), meta: Vec::new(), ranks }
    }

    /// Adds (or overrides) one metadata entry, builder-style.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_meta(key, value);
        self
    }

    /// Adds (or overrides) one metadata entry in place.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        if let Some(e) = self.meta.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            self.meta.push((key, value));
        }
    }

    /// Looks up a metadata value by key.
    pub fn meta_str(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Per-rank bytes sent under `coll`, in rank order.
    pub fn sent_bytes(&self, coll: CollKind) -> Vec<u64> {
        self.ranks.iter().map(|r| r.metrics.kind(coll).bytes_sent).collect()
    }

    /// Per-rank bytes received under `coll`, in rank order.
    pub fn recv_bytes(&self, coll: CollKind) -> Vec<u64> {
        self.ranks.iter().map(|r| r.metrics.kind(coll).bytes_recv).collect()
    }

    /// Min/max/median/mean/σ of per-rank sent bytes under `coll`.
    pub fn sent_stats(&self, coll: CollKind) -> VolumeStats {
        VolumeStats::from_volumes(&self.sent_bytes(coll))
    }

    /// Per-rank span time (µs) under `coll`, in rank order.
    pub fn span_time_us(&self, coll: CollKind) -> Vec<u64> {
        self.ranks.iter().map(|r| r.metrics.kind(coll).span_time_us).collect()
    }

    /// Per-rank late-sender wait time (µs) under `coll`, in rank order.
    pub fn wait_time_us(&self, coll: CollKind) -> Vec<u64> {
        self.ranks.iter().map(|r| r.metrics.kind(coll).wait_us).collect()
    }

    /// Per-rank transfer time (µs) under `coll`, in rank order.
    pub fn transfer_time_us(&self, coll: CollKind) -> Vec<u64> {
        self.ranks.iter().map(|r| r.metrics.kind(coll).transfer_us).collect()
    }

    /// Formats the per-rank summary table: for every kind with traffic or
    /// spans, the min/max/σ (plus median/mean) of per-rank sent bytes and
    /// span time — the same shape as the paper's Table I columns.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "trace summary: {} ({} ranks)", self.label, self.ranks.len());
        if !self.meta.is_empty() {
            let kv: Vec<String> = self.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "run metadata: {}", kv.join(" "));
        }
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
            "phase",
            "msgs",
            "sent.min B",
            "sent.max B",
            "sent.mean B",
            "sent.sigma",
            "time µs",
            "wait µs",
            "xfer µs"
        );
        for coll in CollKind::ALL {
            let msgs: u64 = self.ranks.iter().map(|r| r.metrics.kind(coll).msgs_sent).sum();
            let spans: u64 = self.ranks.iter().map(|r| r.metrics.kind(coll).spans).sum();
            let recvd: u64 = self.ranks.iter().map(|r| r.metrics.kind(coll).msgs_recv).sum();
            let wait: u64 = self.wait_time_us(coll).iter().sum();
            let xfer: u64 = self.transfer_time_us(coll).iter().sum();
            if msgs == 0 && spans == 0 && recvd == 0 && wait == 0 && xfer == 0 {
                continue;
            }
            let s = self.sent_stats(coll);
            let t: u64 = self.span_time_us(coll).iter().sum();
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>12.0} {:>12.0} {:>12.1} {:>12.1} {:>10} {:>10} {:>10}",
                coll.name(),
                msgs,
                s.min,
                s.max,
                s.mean,
                s.std_dev,
                t,
                wait,
                xfer
            );
        }
        // Stash depth is itself a hot-spot signal: report the worst rank
        // and the per-rank distribution, not just the global max.
        let hwms: Vec<usize> = self.ranks.iter().map(|r| r.metrics.stash_hwm).collect();
        let (hwm_rank, hwm) = hwms
            .iter()
            .enumerate()
            .max_by_key(|&(i, &h)| (h, std::cmp::Reverse(i)))
            .map(|(i, &h)| (self.ranks[i].rank, h))
            .unwrap_or((0, 0));
        let mean = if hwms.is_empty() {
            0.0
        } else {
            hwms.iter().sum::<usize>() as f64 / hwms.len() as f64
        };
        let nonzero = hwms.iter().filter(|&&h| h > 0).count();
        let _ = writeln!(
            out,
            "stash high-water: max {hwm} at rank {hwm_rank}, mean {mean:.2}, \
             {nonzero}/{} ranks ever stashed",
            hwms.len()
        );
        // Overlap signal from the async engine: how many nonblocking
        // collectives any rank ever had in flight at once (1 ≡ synchronous,
        // 0 ≡ the run never used the nonblocking engine). Printed
        // unconditionally so mpisim and DES summaries have the same shape.
        let o_max = self.ranks.iter().map(|r| r.metrics.outstanding_hwm).max().unwrap_or(0);
        let o_mean = if self.ranks.is_empty() {
            0.0
        } else {
            self.ranks.iter().map(|r| r.metrics.outstanding_hwm).sum::<usize>() as f64
                / self.ranks.len() as f64
        };
        let _ = writeln!(
            out,
            "outstanding collectives high-water: max {o_max}, mean {o_mean:.2} across ranks"
        );
        // Reliable-transport recovery work: retransmissions per rank (0
        // everywhere on a lossless run). Printed unconditionally so lossy
        // and lossless summaries have the same shape.
        let r_total: u64 = self.ranks.iter().map(|r| r.metrics.retransmits).sum();
        let r_bytes: u64 = self.ranks.iter().map(|r| r.metrics.retrans_bytes).sum();
        let (r_rank, r_max) = self
            .ranks
            .iter()
            .map(|r| (r.rank, r.metrics.retransmits))
            .max_by_key(|&(rank, n)| (n, std::cmp::Reverse(rank)))
            .unwrap_or((0, 0));
        // Matching cost of the progress loops: non-blocking match attempts
        // per consumed message (1.0 when every poll finds its message), and
        // the time spent spinning on an empty inbox before parking.
        let m_calls: u64 = self.ranks.iter().map(|r| r.metrics.match_calls).sum();
        let m_recv: u64 = self.ranks.iter().map(|r| r.metrics.total_recv_msgs()).sum();
        let per_msg = if m_recv == 0 { 0.0 } else { m_calls as f64 / m_recv as f64 };
        let spin: u64 = self.ranks.iter().map(|r| r.metrics.spin_us).sum();
        let _ = writeln!(
            out,
            "matching: {m_calls} try_match calls for {m_recv} delivered messages \
             ({per_msg:.2} per message), spin {spin} µs"
        );
        let _ = writeln!(
            out,
            "retransmits: total {r_total} ({r_bytes} B control traffic), max {r_max} at rank {r_rank}"
        );
        // Intra-rank task pool: how much local compute ran as stolen-or-not
        // pool tasks (all zeros when the run computed inline, threads <= 1).
        // Printed unconditionally so pooled and unpooled summaries have the
        // same shape.
        let p_exec: u64 = self.ranks.iter().map(|r| r.metrics.pool_executed).sum();
        let p_stolen: u64 = self.ranks.iter().map(|r| r.metrics.pool_stolen).sum();
        let p_busy: u64 = self.ranks.iter().map(|r| r.metrics.pool_busy_us).sum();
        let p_workers = self.ranks.iter().map(|r| r.metrics.pool_workers).max().unwrap_or(0);
        let steal_pct = if p_exec == 0 { 0.0 } else { 100.0 * p_stolen as f64 / p_exec as f64 };
        let _ = writeln!(
            out,
            "pool tasks: executed {p_exec}, stolen {p_stolen} ({steal_pct:.1}%), \
             busy {p_busy} µs, {p_workers} workers/rank"
        );
        out
    }
}

/// Convenience: closes a pool of rank tracers into a [`Trace`], dropping
/// disabled ones. Returns `None` if every tracer was disabled.
pub fn collect(label: impl Into<String>, tracers: Vec<RankTracer>) -> Option<Trace> {
    let ranks: Vec<RankTrace> = tracers.into_iter().filter_map(RankTracer::finish).collect();
    if ranks.is_empty() {
        None
    } else {
        Some(Trace::new(label, ranks))
    }
}

/// Keys a span by supernode, mapping "no supernode" to [`NO_KEY`].
pub fn key_of(supernode: Option<usize>) -> u64 {
    supernode.map_or(NO_KEY, |s| s as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = RankTracer::disabled();
        assert!(!t.is_enabled());
        t.push_scope(CollKind::ColBcast, 1);
        t.msg_send(1, 7, 100, 0, 0);
        t.pop_scope();
        assert!(t.metrics().is_none());
        assert!(t.finish().is_none());
    }

    #[test]
    fn manual_clock_span_and_attribution() {
        let mut t = RankTracer::manual(3);
        t.set_time_us(10);
        t.push_scope(CollKind::ColBcast, 5);
        t.msg_send(1, 42, 100, 3, 1);
        t.set_time_us(25);
        t.pop_scope();
        let r = t.finish().unwrap();
        assert_eq!(r.rank, 3);
        assert_eq!(r.metrics.kind(CollKind::ColBcast).bytes_sent, 100);
        assert_eq!(r.metrics.kind(CollKind::ColBcast).span_time_us, 15);
        assert!(r.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Span { coll: CollKind::ColBcast, key: 5, end_us: 25 }
        ) && e.ts_us == 10));
    }

    #[test]
    fn coll_enter_respects_ambient_scope() {
        let mut t = RankTracer::manual(0);
        // Bare collective: pushes its own scope.
        let pushed = t.coll_enter(CollKind::Bcast, 9, Some(1));
        assert!(pushed);
        t.msg_send(1, 0, 10, 1, 1);
        t.coll_exit(pushed);
        // Inside a phase scope: keeps the ambient attribution.
        t.push_scope(CollKind::ColBcast, 2);
        let pushed = t.coll_enter(CollKind::Bcast, 9, Some(0));
        assert!(!pushed);
        t.msg_send(1, 0, 20, 2, 2);
        t.coll_exit(pushed);
        t.pop_scope();
        let r = t.finish().unwrap();
        assert_eq!(r.metrics.kind(CollKind::Bcast).bytes_sent, 10);
        assert_eq!(r.metrics.kind(CollKind::ColBcast).bytes_sent, 20);
        // Depth attribution happened in both cases.
        assert_eq!(r.metrics.depth_sent_bytes, vec![20, 10]);
    }

    #[test]
    fn stash_depth_events_on_change_only() {
        let mut t = RankTracer::manual(0);
        t.stash_depth(1);
        t.stash_depth(1);
        t.stash_depth(2);
        t.stash_depth(0);
        let r = t.finish().unwrap();
        let n = r.events.iter().filter(|e| matches!(e.kind, EventKind::StashDepth { .. })).count();
        assert_eq!(n, 3);
        assert_eq!(r.metrics.stash_hwm, 2);
    }

    #[test]
    fn trace_summary_and_stats() {
        let mut a = RankTracer::manual(1);
        a.push_scope(CollKind::ColBcast, 0);
        a.msg_send(0, 0, 300, 1, 0);
        a.pop_scope();
        let mut b = RankTracer::manual(0);
        b.push_scope(CollKind::ColBcast, 0);
        b.msg_send(1, 0, 100, 1, 0);
        b.pop_scope();
        let trace = collect("unit", vec![a, b, RankTracer::disabled()]).unwrap();
        // Sorted by rank: rank 0 first.
        assert_eq!(trace.sent_bytes(CollKind::ColBcast), vec![100, 300]);
        let s = trace.sent_stats(CollKind::ColBcast);
        assert_eq!(s.min, 100.0);
        assert_eq!(s.max, 300.0);
        let table = trace.summary_table();
        assert!(table.contains("ColBcast"), "{table}");
        assert!(!table.contains("RowReduce"), "{table}");
    }

    #[test]
    fn recv_wait_splits_late_sender_from_transfer() {
        // posted at 10, sent at 30, completed at 45: 20 µs late-sender
        // wait + 15 µs transfer, summing to the 35 µs blocked interval.
        let mut t = RankTracer::manual(0);
        t.push_scope(CollKind::RowReduce, 7);
        t.set_time_us(45);
        t.recv_wait(10, 30, Some((2, 11)));
        t.pop_scope();
        let r = t.finish().unwrap();
        let k = r.metrics.kind(CollKind::RowReduce);
        assert_eq!(k.wait_us, 20);
        assert_eq!(k.transfer_us, 15);
        assert_eq!(k.wait_us + k.transfer_us, 35);
        assert!(r.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Wait {
                coll: CollKind::RowReduce,
                key: 7,
                wait_us: 20,
                transfer_us: 15,
                cause: Some((2, 11)),
            }
        ) && e.ts_us == 10));
    }

    #[test]
    fn recv_wait_sender_first_is_pure_transfer() {
        // The send predates the post: no late-sender component.
        let mut t = RankTracer::manual(0);
        t.set_time_us(50);
        t.recv_wait(20, 5, None);
        let r = t.finish().unwrap();
        let k = r.metrics.kind(CollKind::Other);
        assert_eq!(k.wait_us, 0);
        assert_eq!(k.transfer_us, 30);
    }

    #[test]
    fn wait_at_and_transfer_as_accumulate() {
        let mut t = RankTracer::manual(0);
        t.wait_at(CollKind::ColBcast, 3, 100, 140, Some((1, 4)));
        t.transfer_as(CollKind::ColBcast, 9);
        let r = t.finish().unwrap();
        assert_eq!(r.metrics.kind(CollKind::ColBcast).wait_us, 40);
        assert_eq!(r.metrics.kind(CollKind::ColBcast).transfer_us, 9);
        assert_eq!(
            r.events,
            vec![TraceEvent {
                ts_us: 100,
                kind: EventKind::Wait {
                    coll: CollKind::ColBcast,
                    key: 3,
                    wait_us: 40,
                    transfer_us: 0,
                    cause: Some((1, 4)),
                }
            }]
        );
    }

    #[test]
    fn summary_table_golden_format() {
        // Golden test for the full table shape, including the
        // unconditional footer lines (stash and outstanding HWM, matching,
        // retransmits, pool) that must appear on both backends whether or
        // not anything was stashed or in flight.
        let mut a = RankTracer::manual(0);
        a.push_scope(CollKind::ColBcast, 0);
        a.msg_send(1, 0, 100, 1, 0);
        a.set_time_us(10);
        a.pop_scope();
        let mut b = RankTracer::manual(1);
        b.push_scope(CollKind::ColBcast, 0);
        b.msg_send(0, 0, 300, 1, 0);
        b.set_time_us(10);
        b.pop_scope();
        let trace = collect("golden", vec![a, b]).unwrap().with_meta("backend", "unit");
        let expect = "\
trace summary: golden (2 ranks)
run metadata: backend=unit
phase                msgs   sent.min B   sent.max B  sent.mean B   sent.sigma    time µs    wait µs    xfer µs
ColBcast                2          100          300        200.0        100.0         20          0          0
stash high-water: max 0 at rank 0, mean 0.00, 0/2 ranks ever stashed
outstanding collectives high-water: max 0, mean 0.00 across ranks
matching: 0 try_match calls for 0 delivered messages (0.00 per message), spin 0 µs
retransmits: total 0 (0 B control traffic), max 0 at rank 0
pool tasks: executed 0, stolen 0 (0.0%), busy 0 µs, 0 workers/rank
";
        assert_eq!(trace.summary_table(), expect);
    }

    #[test]
    fn summary_footer_lines_are_unconditional() {
        // Even an empty, metadata-free trace prints both HWM footer lines —
        // this is what keeps DES and mpisim summaries shape-compatible.
        let table = Trace::new("empty", vec![]).summary_table();
        assert!(table.contains("stash high-water:"), "{table}");
        assert!(table.contains("outstanding collectives high-water:"), "{table}");
        assert!(table.contains("matching: 0 try_match calls"), "{table}");
        assert!(table.contains("retransmits: total 0"), "{table}");
        assert!(table.contains("pool tasks: executed 0"), "{table}");
    }

    #[test]
    fn retransmit_hook_counts_control_traffic_only() {
        let mut a = RankTracer::manual(0);
        a.set_time_us(5);
        a.retransmit(1, 7, 64);
        a.retransmit(1, 7, 64);
        let mut b = RankTracer::manual(1);
        b.retransmit(0, 7, 24);
        let trace = collect("retrans", vec![a, b]).unwrap();
        // Control-plane counters move; the logical volumes never do.
        assert_eq!(trace.ranks[0].metrics.retransmits, 2);
        assert_eq!(trace.ranks[0].metrics.retrans_bytes, 128);
        assert_eq!(trace.ranks[0].metrics.total_sent_bytes(), 0);
        assert_eq!(trace.ranks[0].metrics.total_sent_msgs(), 0);
        // Each retransmission emits a fault instant plus a counter sample.
        let faults = trace.ranks[0]
            .events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::Fault { what: FaultKind::Retransmit, peer: 1, tag: 7 })
            })
            .count();
        assert_eq!(faults, 2);
        let counters: Vec<u64> = trace.ranks[0]
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Retransmits { count } => Some(count),
                _ => None,
            })
            .collect();
        assert_eq!(counters, vec![1, 2]);
        let table = trace.summary_table();
        assert!(
            table.contains("retransmits: total 3 (152 B control traffic), max 2 at rank 0"),
            "{table}"
        );
        // Disabled tracer: no-op.
        let mut d = RankTracer::disabled();
        d.retransmit(0, 0, 8);
        assert!(d.finish().is_none());
    }

    #[test]
    fn meta_roundtrip_and_override() {
        let trace = Trace::new("m", vec![])
            .with_meta("scheme", "ShiftedBinary")
            .with_meta("grid", "3x3")
            .with_meta("scheme", "Binary");
        assert_eq!(trace.meta_str("scheme"), Some("Binary"));
        assert_eq!(trace.meta_str("grid"), Some("3x3"));
        assert_eq!(trace.meta_str("seed"), None);
        assert_eq!(trace.meta.len(), 2);
        let table = trace.summary_table();
        assert!(table.contains("scheme=Binary"), "{table}");
    }

    #[test]
    fn summary_reports_stash_distribution() {
        let mut a = RankTracer::manual(0);
        a.stash_depth(1);
        let mut b = RankTracer::manual(1);
        b.stash_depth(4);
        b.stash_depth(0);
        let trace = collect("stash", vec![a, b]).unwrap();
        let table = trace.summary_table();
        assert!(table.contains("max 4 at rank 1"), "{table}");
        assert!(table.contains("mean 2.50"), "{table}");
        assert!(table.contains("2/2 ranks ever stashed"), "{table}");
    }

    #[test]
    fn fault_events_and_tail() {
        let mut t = RankTracer::manual(2);
        t.set_time_us(7);
        t.fault(FaultKind::Delayed, 5, 42);
        t.msg_send(5, 42, 16, 1, 1);
        let tail = t.tail(10);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].contains("fault delayed peer=5 tag=42"), "{tail:?}");
        assert!(tail[1].contains("send -> 5"), "{tail:?}");
        // tail(n) truncates to the newest n.
        assert_eq!(t.tail(1).len(), 1);
        assert!(t.tail(1)[0].contains("send"), "{:?}", t.tail(1));
        // Faults are events only — no metrics impact.
        let r = t.finish().unwrap();
        assert_eq!(r.metrics.kind(CollKind::Other).msgs_recv, 0);
        assert!(r.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Fault { what: FaultKind::Delayed, peer: 5, tag: 42 }
        )));
        // Disabled tracer: no-op, empty tail.
        let mut d = RankTracer::disabled();
        d.fault(FaultKind::Crashed, 0, 0);
        assert!(d.tail(5).is_empty());
    }

    #[test]
    fn finish_closes_open_scopes() {
        let mut t = RankTracer::manual(0);
        t.set_time_us(5);
        t.push_scope(CollKind::Compute, 1);
        t.set_time_us(9);
        let r = t.finish().unwrap();
        assert_eq!(r.metrics.kind(CollKind::Compute).spans, 1);
        assert_eq!(r.metrics.kind(CollKind::Compute).span_time_us, 4);
    }
}
