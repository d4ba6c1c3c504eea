//! Reliable delivery and online crash recovery for tree collectives.
//!
//! Two cooperating layers live here:
//!
//! * **Reliable transport** ([`ReliableConfig`] / `ReliableState`): one
//!   out-stream and one cumulative ack per `(src, dst)` channel, under
//!   every data message. The runtime buffers each message until the
//!   receiver's cumulative ack covers its channel sequence number and
//!   re-sends the channel's unacked suffix on deadline expiry with
//!   exponential backoff (deterministic jitter drawn from the fault plan's
//!   seed). With it, an injected `drop_permille` loss fault is fully
//!   masked: results are bit-identical to the fault-free run and the
//!   logical volume counters are untouched — all recovery traffic lands in
//!   [`RankVolume::retransmitted`](crate::RankVolume::retransmitted). A
//!   gap holds back the later messages of its channel until it is
//!   retransmitted (head-of-line blocking), as on any ordered transport.
//! * **Crash recovery** ([`Recovery`]): an online re-implementation of the
//!   offline `figures -- faults` rebuild study. Survivors of a confirmed
//!   rank death (the shared crash board is the failure detector's ground
//!   truth; a `recv_timeout` suspicion deadline decides *when* to
//!   consult it) rebuild each affected collective tree with
//!   `TreeBuilder::rebuild_excluding`, re-home their orphaned edges via
//!   JOIN requests on a dedicated tag lane, and consume the re-issued
//!   payload under a bumped epoch — in-flight pre-crash traffic on a
//!   re-homed edge is discarded before it is accounted. Only
//!   collectives whose payload *source* died are irreparable; they are
//!   reported as stranded instead of hanging the run.

use crate::payload::Payload;
use crate::runtime::{Message, RankCtx, JOIN_LANE, LANE_MASK, REPAIR_LANE};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Knobs of the reliable transport.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Base retransmission timeout: how long an unacked message may stay
    /// in flight before its stream is re-sent.
    pub rto: Duration,
    /// Cap on the exponential backoff: the deadline after attempt `k` is
    /// `rto * 2^min(k, max_backoff_exp)` plus jitter.
    pub max_backoff_exp: u32,
    /// Upper bound (µs) of the deterministic per-attempt jitter drawn from
    /// the fault plan's seed; 0 disables jitter.
    pub jitter_cap_us: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self { rto: Duration::from_millis(20), max_backoff_exp: 6, jitter_cap_us: 2000 }
    }
}

/// One retransmission stream: the unacked suffix of a `(src, dst)` channel.
pub(crate) struct OutStream {
    /// Messages sent but not yet covered by a cumulative ack, by sequence
    /// number.
    pub(crate) unacked: BTreeMap<u64, Message>,
    /// Retransmission attempts since the last ack progress.
    pub(crate) attempts: u32,
    /// When the stream is re-sent next.
    pub(crate) deadline: Instant,
}

/// Per-rank reliable-transport state, owned by the runtime's `RankCtx`.
pub(crate) struct ReliableState {
    pub(crate) cfg: ReliableConfig,
    /// Out-streams with unacked messages, by destination.
    pub(crate) streams: HashMap<usize, OutStream>,
}

impl ReliableState {
    pub(crate) fn new(cfg: ReliableConfig) -> Self {
        Self { cfg, streams: HashMap::new() }
    }

    /// Buffers a freshly sent message until it is acked. Arms the stream
    /// deadline if the stream was previously empty.
    pub(crate) fn track(&mut self, dst: usize, msg: Message, jitter: Duration) {
        let now = Instant::now();
        let rto = self.cfg.rto;
        let s = self.streams.entry(dst).or_insert_with(|| OutStream {
            unacked: BTreeMap::new(),
            attempts: 0,
            deadline: now + rto + jitter,
        });
        if s.unacked.is_empty() {
            s.attempts = 0;
            s.deadline = now + rto + jitter;
        }
        s.unacked.insert(msg.seq, msg);
    }

    /// Applies a cumulative ack: everything below `cum` on the channel to
    /// `src` is delivered. Ack progress resets the backoff and re-arms the
    /// deadline.
    pub(crate) fn ack(&mut self, src: usize, cum: u64, jitter: Duration) {
        let Some(s) = self.streams.get_mut(&src) else { return };
        let before = s.unacked.len();
        s.unacked.retain(|&seq, _| seq >= cum);
        if s.unacked.is_empty() {
            self.streams.remove(&src);
        } else if s.unacked.len() < before {
            s.attempts = 0;
            s.deadline = Instant::now() + self.cfg.rto + jitter;
        }
    }
}

/// Knobs of the online crash-recovery layer.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// How long a silent parent is tolerated before the crash board is
    /// consulted and (if deaths are confirmed) the tree rebuilt. Purely a
    /// latency/traffic trade-off: a false suspicion only costs a redundant
    /// JOIN, never correctness — the board holds confirmed deaths only.
    pub suspect_after: Duration,
    /// Receive-slice granularity: between slices the rank serves incoming
    /// JOIN requests, which is what keeps repair chains live while
    /// everyone is blocked in their own collective.
    pub slice: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self { suspect_after: Duration::from_millis(100), slice: Duration::from_millis(5) }
    }
}

/// Per-rank state of the recovery layer: the adopted dead set, the payload
/// cache repair requests are answered from, and the pending-JOIN queue.
pub struct Recovery {
    cfg: RecoveryConfig,
    /// Confirmed-dead ranks adopted so far (ascending).
    dead: Vec<usize>,
    /// `tag → payload` of every collective this rank completed: the store
    /// JOINs are served from. Payloads are shared buffers, so the cache
    /// costs headers, not blocks.
    cache: HashMap<u64, Payload>,
    /// `(tag, requester, epoch)` JOINs that arrived before this rank had
    /// the payload.
    pending: Vec<(u64, usize, u64)>,
    /// `(tag, requester, epoch)` triples already served (JOINs are re-sent
    /// on every suspicion expiry, so serving must be idempotent — but a
    /// re-JOIN under a *newer* epoch is a fresh request, not a duplicate).
    served: HashSet<(u64, usize, u64)>,
}

impl Recovery {
    /// A fresh per-rank recovery context.
    pub fn new(cfg: RecoveryConfig) -> Self {
        Self {
            cfg,
            dead: Vec::new(),
            cache: HashMap::new(),
            pending: Vec::new(),
            served: HashSet::new(),
        }
    }

    /// The dead set this rank has adopted so far.
    pub fn dead(&self) -> &[usize] {
        &self.dead
    }

    /// Re-reads the crash board; returns `true` if the dead set grew.
    fn refresh_dead(&mut self, ctx: &RankCtx) -> bool {
        let dead = ctx.crashed_ranks();
        if dead.len() > self.dead.len() {
            self.dead = dead;
            true
        } else {
            false
        }
    }

    /// Answers queued and newly arrived JOIN requests from the payload
    /// cache. Runs between receive slices and in [`Recovery::finish`].
    fn serve_joins(&mut self, ctx: &mut RankCtx) {
        while let Some(m) = ctx.try_take_lane(JOIN_LANE) {
            let requester = m.data.first().map_or(0.0, |v| *v) as usize;
            let req_epoch = m.data.get(1).map_or(0.0, |v| *v) as u64;
            let base = m.tag & !LANE_MASK;
            // The requester's re-homed edge only accepts messages at its
            // bumped epoch: adopt that view *before* answering, or a
            // server that has not yet observed the crash would stamp the
            // repair with its stale epoch and the requester would discard
            // it as pre-crash traffic.
            ctx.set_epoch(req_epoch);
            self.pending.push((base, requester, req_epoch));
        }
        let mut still_pending = Vec::new();
        for (base, requester, req_epoch) in std::mem::take(&mut self.pending) {
            if self.served.contains(&(base, requester, req_epoch)) || ctx.is_crashed(requester) {
                continue;
            }
            match self.cache.get(&base) {
                Some(p) => {
                    let p = p.clone();
                    ctx.note_reissue(p.bytes());
                    ctx.send(requester, REPAIR_LANE | base, p);
                    self.served.insert((base, requester, req_epoch));
                }
                None => still_pending.push((base, requester, req_epoch)),
            }
        }
        self.pending = still_pending;
    }

    /// Recovery-aware tree broadcast. Semantics of
    /// [`tree_bcast`](crate::collectives::tree_bcast), with three changes:
    /// the payload is delivered to every *survivor* even when tree members
    /// died mid-flight (orphans re-home onto the
    /// `rebuild_excluding`-derived tree and pull the payload from their new
    /// parent), `None` is returned when the payload source itself died
    /// (the stranded case), and the call never hangs on a casualty.
    ///
    /// `tag` must stay below `1 << 56` (the high byte is the control-lane
    /// space) and be unique per collective, because it keys the repair
    /// payload cache.
    pub fn bcast(
        &mut self,
        ctx: &mut RankCtx,
        builder: &pselinv_trees::TreeBuilder,
        tree: &pselinv_trees::CollectiveTree,
        key: u64,
        tag: u64,
        data: Option<Vec<f64>>,
    ) -> Option<Payload> {
        assert_eq!(tag & LANE_MASK, 0, "recovery tags must stay below the control lanes");
        let me = ctx.rank();
        let root = tree.root();
        self.refresh_dead(ctx);
        ctx.set_epoch(self.dead.len() as u64);
        self.serve_joins(ctx);
        if me == root {
            let payload = Payload::from(data.expect("root must provide the broadcast payload"));
            self.forward(ctx, tree, tag, &payload);
            self.complete(ctx, tag, payload.clone());
            return Some(payload);
        }
        let mut src = tree
            .parent_of(me)
            .unwrap_or_else(|| panic!("rank {me} is not a participant of this broadcast"));
        let mut src_tag = tag;
        let mut waited = Instant::now();
        loop {
            self.serve_joins(ctx);
            if ctx.is_crashed(root) {
                // The payload source died: no survivor can ever produce
                // this collective's data. Record the stranded supernode
                // and degrade instead of hanging.
                self.refresh_dead(ctx);
                ctx.set_epoch(self.dead.len() as u64);
                ctx.note_stranded(tag);
                return None;
            }
            // Fast path: a sender already on the confirmed-dead board will
            // never speak again, so later collectives re-home immediately
            // instead of paying the suspicion timeout once per tree.
            let parent_confirmed_dead = src_tag == tag && {
                self.refresh_dead(ctx);
                self.dead.contains(&src)
            };
            if !parent_confirmed_dead {
                match ctx.recv_timeout(src, src_tag, self.cfg.slice) {
                    Ok(p) => {
                        self.forward(ctx, tree, tag, &p);
                        self.complete(ctx, tag, p.clone());
                        return Some(p);
                    }
                    Err(_) if waited.elapsed() >= self.cfg.suspect_after => {
                        waited = Instant::now();
                        self.refresh_dead(ctx);
                    }
                    Err(_) => continue,
                }
            }
            if self.dead.is_empty() {
                continue; // slow, not dead: keep waiting
            }
            // Deaths are confirmed: every survivor derives the same
            // degraded tree and this rank re-homes onto its rebuilt
            // parent. Re-JOINing on every expiry is idempotent (the
            // server dedups), so a lost-to-timing first JOIN self-heals.
            let epoch = self.dead.len() as u64;
            ctx.set_epoch(epoch);
            let rebuilt = builder.rebuild_excluding(tree, &self.dead, key);
            ctx.note_rebuild(tag);
            let Some(np) = rebuilt.parent_of(me) else {
                // Promoted to rebuilt root without the payload: only
                // possible when the original root died, which the stranded
                // check above will catch on the next spin once the board
                // confirms it.
                continue;
            };
            src = np;
            src_tag = REPAIR_LANE | tag;
            ctx.expect_epoch(src, src_tag, epoch);
            ctx.note_join();
            ctx.send(np, JOIN_LANE | tag, vec![me as f64, epoch as f64]);
        }
    }

    /// Forwards a received payload to this rank's children in the original
    /// tree, skipping confirmed casualties (a send racing an unconfirmed
    /// death is dropped harmlessly by the runtime).
    fn forward(
        &mut self,
        ctx: &mut RankCtx,
        tree: &pselinv_trees::CollectiveTree,
        tag: u64,
        payload: &Payload,
    ) {
        for child in tree.children_of(ctx.rank()) {
            if !self.dead.contains(&child) {
                ctx.send(child, tag, payload.clone());
            }
        }
    }

    /// Caches the payload and answers any JOINs that were waiting on it.
    fn complete(&mut self, ctx: &mut RankCtx, tag: u64, payload: Payload) {
        self.cache.insert(tag, payload);
        self.serve_joins(ctx);
    }

    /// Recovery epilogue: call once after the rank's last collective. The
    /// rank keeps serving JOIN requests until every survivor's user work is
    /// complete, so a repair chain can still route through ranks that
    /// finished early.
    pub fn finish(&mut self, ctx: &mut RankCtx) {
        ctx.mark_user_done();
        while !ctx.all_user_done() {
            self.serve_joins(ctx);
            std::thread::sleep(self.cfg.slice);
        }
        self.serve_joins(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_state_tracks_and_acks_cumulatively() {
        let mut rel = ReliableState::new(ReliableConfig::default());
        let msg = |seq: u64| Message {
            src: 0,
            tag: 7,
            sent_us: 0,
            seq,
            clock: 0,
            idx: 0,
            epoch: 0,
            visible_at: None,
            data: Payload::from(vec![1.0]),
        };
        for seq in 0..4 {
            rel.track(1, msg(seq), Duration::ZERO);
        }
        assert_eq!(rel.streams[&1].unacked.len(), 4);
        // Cumulative ack below 2: seqs 0 and 1 pruned, 2 and 3 kept.
        rel.ack(1, 2, Duration::ZERO);
        assert_eq!(rel.streams[&1].unacked.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
        // A stale ack changes nothing.
        rel.ack(1, 1, Duration::ZERO);
        assert_eq!(rel.streams[&1].unacked.len(), 2);
        // Full coverage drops the stream.
        rel.ack(1, 4, Duration::ZERO);
        assert!(!rel.streams.contains_key(&1));
        // Acks for unknown streams are ignored.
        rel.ack(3, 10, Duration::ZERO);
    }

    #[test]
    fn backoff_deadline_grows_with_attempts() {
        let cfg =
            ReliableConfig { rto: Duration::from_millis(10), max_backoff_exp: 3, jitter_cap_us: 0 };
        // The exponent saturates at max_backoff_exp.
        for (attempts, expect_ms) in [(1u32, 20u64), (2, 40), (3, 80), (5, 80), (40, 80)] {
            let exp = attempts.min(cfg.max_backoff_exp);
            let rto = cfg.rto * 2u32.saturating_pow(exp);
            assert_eq!(rto, Duration::from_millis(expect_ms), "attempt {attempts}");
        }
    }
}
