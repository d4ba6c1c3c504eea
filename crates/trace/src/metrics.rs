//! Per-rank counters and fixed-bucket histograms.

use crate::event::CollKind;

/// Number of [`CollKind`] variants (array dimension for per-kind tables).
pub const N_KINDS: usize = CollKind::ALL.len();

/// Message/byte/time counters for one [`CollKind`] on one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounters {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recv: u64,
    pub bytes_recv: u64,
    /// Completed spans attributed to this kind.
    pub spans: u64,
    /// Total time inside those spans, in microseconds.
    pub span_time_us: u64,
    /// Late-sender wait time (µs): blocked on a receive before the
    /// matching send was issued (mpisim), or core-idle before a task of
    /// this kind could start (DES).
    pub wait_us: u64,
    /// Transfer time (µs): the rest of a blocked-receive interval (the
    /// message was already in flight), or simulated in-flight time of
    /// messages consumed by tasks of this kind (DES).
    pub transfer_us: u64,
}

/// Metrics registry for one rank. All updates are O(1) and allocate
/// nothing.
#[derive(Clone, Debug)]
pub struct RankMetrics {
    per_kind: [KindCounters; N_KINDS],
    /// High-water mark of the out-of-order stash.
    pub stash_hwm: usize,
    /// High-water mark of the count the rank reported as outstanding: the
    /// phase-2 engine's window tasks, whose GEMM stage has not run (a
    /// window of one never exceeds 1 per query).
    pub outstanding_hwm: usize,
    /// Payload bytes physically copied on this rank (packing a buffer for
    /// a send). Forwarded shared payloads add nothing here, so this is the
    /// data-movement cost the zero-copy paths avoid — distinct from the
    /// logical `bytes_sent`/`bytes_recv` volumes, which are unaffected.
    pub bytes_copied: u64,
    /// Messages the reliable transport re-sent from this rank after a
    /// retransmission deadline expired. Control-plane accounting only:
    /// never added to the logical `bytes_sent`/`msgs_sent` volumes, so
    /// every trace==replay identity stays bit-exact under loss.
    pub retransmits: u64,
    /// Payload bytes carried by those retransmissions plus ack traffic,
    /// kept strictly separate from the logical volumes like
    /// [`RankMetrics::retransmits`].
    pub retrans_bytes: u64,
    /// Tasks executed by this rank's intra-rank work-stealing pool.
    /// Scheduling-only accounting: the pool never reorders floating-point
    /// arithmetic, so these counters carry no numerical meaning — they
    /// measure how the local compute was spread over workers.
    pub pool_executed: u64,
    /// Of [`RankMetrics::pool_executed`], tasks a pool worker ran rather
    /// than the rank thread (the load-balancing traffic of the pool).
    pub pool_stolen: u64,
    /// Total wall time pool participants spent inside task bodies, in
    /// microseconds (summed across workers, so it can exceed the run's
    /// elapsed time — that excess IS the intra-rank parallelism).
    pub pool_busy_us: u64,
    /// Number of pool participants (workers + the submitting thread).
    pub pool_workers: usize,
    /// Non-blocking match attempts (`RankCtx::try_match`), hits and misses
    /// alike: a progress loop's polling cost, read against the messages
    /// this rank consumed.
    pub match_calls: u64,
    /// Wall time the rank spent in its receive spin, polling an empty
    /// inbox before it parks, in microseconds.
    pub spin_us: u64,
}

impl Default for RankMetrics {
    fn default() -> Self {
        Self {
            per_kind: [KindCounters::default(); N_KINDS],
            stash_hwm: 0,
            outstanding_hwm: 0,
            bytes_copied: 0,
            retransmits: 0,
            retrans_bytes: 0,
            pool_executed: 0,
            pool_stolen: 0,
            pool_busy_us: 0,
            pool_workers: 0,
            match_calls: 0,
            spin_us: 0,
        }
    }
}

impl RankMetrics {
    /// Counters for `coll`.
    pub fn kind(&self, coll: CollKind) -> &KindCounters {
        &self.per_kind[coll.index()]
    }

    /// Records a sent message.
    pub fn on_send(&mut self, coll: CollKind, bytes: u64) {
        let c = &mut self.per_kind[coll.index()];
        c.msgs_sent += 1;
        c.bytes_sent += bytes;
    }

    /// Records a consumed message.
    pub fn on_recv(&mut self, coll: CollKind, bytes: u64) {
        let c = &mut self.per_kind[coll.index()];
        c.msgs_recv += 1;
        c.bytes_recv += bytes;
    }

    /// Records a completed span.
    pub fn on_span(&mut self, coll: CollKind, dur_us: u64) {
        let c = &mut self.per_kind[coll.index()];
        c.spans += 1;
        c.span_time_us += dur_us;
    }

    /// Records classified blocked time: `wait_us` of late-sender wait plus
    /// `transfer_us` of transfer, attributed to `coll`.
    pub fn on_wait(&mut self, coll: CollKind, wait_us: u64, transfer_us: u64) {
        let c = &mut self.per_kind[coll.index()];
        c.wait_us += wait_us;
        c.transfer_us += transfer_us;
    }

    /// Updates the stash high-water mark.
    pub fn on_stash_depth(&mut self, depth: usize) {
        self.stash_hwm = self.stash_hwm.max(depth);
    }

    /// Updates the outstanding-collectives high-water mark.
    pub fn on_outstanding(&mut self, count: usize) {
        self.outstanding_hwm = self.outstanding_hwm.max(count);
    }

    /// Records `bytes` of physical payload copying.
    pub fn on_copy(&mut self, bytes: u64) {
        self.bytes_copied += bytes;
    }

    /// Records one reliable-transport retransmission (or ack) of `bytes`
    /// control-plane traffic. Returns the new retransmission total so the
    /// sink can emit a counter event without re-reading the registry.
    pub fn on_retransmit(&mut self, bytes: u64) -> u64 {
        self.retransmits += 1;
        self.retrans_bytes += bytes;
        self.retransmits
    }

    /// Folds one run's intra-rank pool totals into the registry. Counters
    /// accumulate (a rank may run several pool epochs per trace); the
    /// worker count keeps the maximum seen.
    pub fn on_pool(&mut self, executed: u64, stolen: u64, busy_us: u64, workers: usize) {
        self.pool_executed += executed;
        self.pool_stolen += stolen;
        self.pool_busy_us += busy_us;
        self.pool_workers = self.pool_workers.max(workers);
    }

    /// Records one non-blocking match attempt.
    pub fn on_match_call(&mut self) {
        self.match_calls += 1;
    }

    /// Records `us` microseconds of receive spinning.
    pub fn on_spin(&mut self, us: u64) {
        self.spin_us += us;
    }

    /// Total messages received across all kinds.
    pub fn total_recv_msgs(&self) -> u64 {
        self.per_kind.iter().map(|c| c.msgs_recv).sum()
    }

    /// Total bytes sent across all kinds.
    pub fn total_sent_bytes(&self) -> u64 {
        self.per_kind.iter().map(|c| c.bytes_sent).sum()
    }

    /// Total messages sent across all kinds.
    pub fn total_sent_msgs(&self) -> u64 {
        self.per_kind.iter().map(|c| c.msgs_sent).sum()
    }

    /// Total span time across all kinds (µs).
    pub fn total_span_time_us(&self) -> u64 {
        self.per_kind.iter().map(|c| c.span_time_us).sum()
    }

    /// Total late-sender wait time across all kinds (µs).
    pub fn total_wait_us(&self) -> u64 {
        self.per_kind.iter().map(|c| c.wait_us).sum()
    }

    /// Total transfer time across all kinds (µs).
    pub fn total_transfer_us(&self) -> u64 {
        self.per_kind.iter().map(|c| c.transfer_us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_accounting() {
        let mut m = RankMetrics::default();
        m.on_send(CollKind::ColBcast, 100);
        m.on_send(CollKind::ColBcast, 50);
        m.on_recv(CollKind::RowReduce, 30);
        m.on_span(CollKind::ColBcast, 7);
        assert_eq!(m.kind(CollKind::ColBcast).bytes_sent, 150);
        assert_eq!(m.kind(CollKind::ColBcast).msgs_sent, 2);
        assert_eq!(m.kind(CollKind::ColBcast).spans, 1);
        assert_eq!(m.kind(CollKind::ColBcast).span_time_us, 7);
        assert_eq!(m.kind(CollKind::RowReduce).bytes_recv, 30);
        assert_eq!(m.total_sent_bytes(), 150);
    }

    #[test]
    fn wait_transfer_accounting() {
        let mut m = RankMetrics::default();
        m.on_wait(CollKind::ColBcast, 10, 3);
        m.on_wait(CollKind::ColBcast, 5, 0);
        m.on_wait(CollKind::RowReduce, 0, 7);
        assert_eq!(m.kind(CollKind::ColBcast).wait_us, 15);
        assert_eq!(m.kind(CollKind::ColBcast).transfer_us, 3);
        assert_eq!(m.kind(CollKind::RowReduce).transfer_us, 7);
        assert_eq!(m.total_wait_us(), 15);
        assert_eq!(m.total_transfer_us(), 10);
    }

    #[test]
    fn pool_accounting_accumulates() {
        let mut m = RankMetrics::default();
        m.on_pool(10, 3, 500, 4);
        m.on_pool(6, 0, 200, 2);
        assert_eq!(m.pool_executed, 16);
        assert_eq!(m.pool_stolen, 3);
        assert_eq!(m.pool_busy_us, 700);
        assert_eq!(m.pool_workers, 4, "worker count keeps the maximum");
    }

    #[test]
    fn stash_hwm_monotone() {
        let mut m = RankMetrics::default();
        m.on_stash_depth(3);
        m.on_stash_depth(1);
        assert_eq!(m.stash_hwm, 3);
    }
}
