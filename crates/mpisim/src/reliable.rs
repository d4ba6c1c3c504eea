//! Reliable delivery: the transport that masks injected message loss.
//!
//! With [`ReliableConfig`] set (`ReliableState`, one value per rank), each
//! data message is kept until the receiver's cumulative ack covers its
//! `(src, dst)` sequence number, and the channel's unacked suffix is re-sent
//! on deadline expiry with capped exponential backoff. An injected
//! `drop_permille` loss is then masked: results are bit-identical to the
//! fault-free run and all recovery traffic lands in
//! [`RankVolume::retransmitted`](crate::RankVolume::retransmitted). A gap
//! holds back its channel's later messages (head-of-line blocking).

use crate::payload::Payload;
use crate::runtime::Message;
use pselinv_chaos::FaultPlan;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of the reliable transport.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Base retransmission timeout: how long an unacked message may stay
    /// in flight before its stream is re-sent (doubled per attempt, to 64×).
    pub rto: Duration,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self { rto: Duration::from_millis(20) }
    }
}

/// Cap on the backoff exponent: attempt `k` waits `rto · 2^min(k, 6)`.
const MAX_BACKOFF_EXP: u32 = 6;

/// Upper bound (µs) of the per-attempt jitter drawn from the fault plan.
const JITTER_CAP_US: u64 = 2000;

/// One retransmission stream: the unacked suffix of a `(src, dst)` channel.
struct OutStream {
    /// Sent, not yet covered by a cumulative ack, by sequence number.
    unacked: BTreeMap<u64, Message>,
    /// Retransmission attempts since the last ack progress.
    attempts: u32,
    /// When the stream is re-sent next.
    deadline: Instant,
}

/// When the stream from `rank` to `dst` is re-sent after `attempts`
/// retransmissions armed at `now`: `rto · 2^min(attempts, 6)` plus the
/// jitter `plan` draws for the attempt (none without a plan). Every
/// deadline of the transport is armed here.
fn deadline(
    rto: Duration,
    rank: usize,
    plan: Option<&FaultPlan>,
    dst: usize,
    attempts: u32,
    now: Instant,
) -> Instant {
    let jitter = |p: &FaultPlan| p.backoff_jitter_us(rank, dst, attempts as u64, JITTER_CAP_US);
    let jitter_us = plan.map_or(0, jitter);
    let backoff = rto * 2u32.saturating_pow(attempts.min(MAX_BACKOFF_EXP));
    now + backoff + Duration::from_micros(jitter_us)
}

/// One rank's reliable transport, held by its `RankCtx` when the run
/// enables it: the out-streams, their deadlines and the ack wire format.
pub(crate) struct ReliableState {
    /// Base retransmission timeout.
    rto: Duration,
    rank: usize,
    /// Source of the deterministic backoff jitter (none without a plan).
    plan: Option<Arc<FaultPlan>>,
    /// Out-streams with unacked messages, by destination.
    streams: HashMap<usize, OutStream>,
}

impl ReliableState {
    pub(crate) fn new(cfg: ReliableConfig, rank: usize, plan: Option<Arc<FaultPlan>>) -> Self {
        Self { rto: cfg.rto, rank, plan, streams: HashMap::new() }
    }

    /// Whether every message sent so far is acked.
    pub(crate) fn idle(&self) -> bool {
        self.streams.is_empty()
    }

    /// Buffers a freshly sent message until it is acked, arming the stream
    /// deadline if the stream was empty. Tracking happens before the fault
    /// interposer, so a dropped first copy is still retransmittable.
    pub(crate) fn track(&mut self, dst: usize, msg: Message) {
        let deadline = deadline(self.rto, self.rank, self.plan.as_deref(), dst, 0, Instant::now());
        let fresh = || OutStream { unacked: BTreeMap::new(), attempts: 0, deadline };
        let s = self.streams.entry(dst).or_insert_with(fresh);
        if s.unacked.is_empty() {
            (s.attempts, s.deadline) = (0, deadline);
        }
        s.unacked.insert(msg.seq, msg);
    }

    /// The payload of the cumulative ack for channel `src → me`: one word,
    /// everything below `cum` is received.
    pub(crate) fn ack_payload(cum: u64) -> Payload {
        Payload::from(vec![f64::from_bits(cum)])
    }

    /// Applies a cumulative ack: everything below its number on the channel
    /// to its sender is delivered. Ack progress resets the backoff and
    /// re-arms the deadline.
    pub(crate) fn on_ack(&mut self, m: &Message) {
        let cum = m.data.first().map_or(0, |v| v.to_bits());
        let armed = deadline(self.rto, self.rank, self.plan.as_deref(), m.src, 0, Instant::now());
        if let Some(s) = self.streams.get_mut(&m.src) {
            let before = s.unacked.len();
            s.unacked.retain(|&seq, _| seq >= cum);
            if s.unacked.is_empty() {
                self.streams.remove(&m.src);
            } else if s.unacked.len() < before {
                (s.attempts, s.deadline) = (0, armed);
            }
        }
    }

    /// The `(dst, message)` resends due at `now`: each expired stream's
    /// unacked suffix in sequence order, the stream re-armed one attempt of
    /// backoff later. A stream whose receiver `finished` is dropped: nothing
    /// re-sent to it could ever be acked.
    pub(crate) fn due(
        &mut self,
        now: Instant,
        finished: impl Fn(usize) -> bool,
    ) -> Vec<(usize, Message)> {
        let mut out = Vec::new();
        let Self { rto, rank, plan, streams } = self;
        streams.retain(|&dst, s| {
            if finished(dst) || s.unacked.is_empty() {
                return false;
            }
            if now >= s.deadline {
                out.extend(s.unacked.values().map(|m| (dst, m.clone())));
                s.attempts += 1;
                s.deadline = deadline(*rto, *rank, plan.as_deref(), dst, s.attempts, now);
            }
            true
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, seq: u64, data: Payload) -> Message {
        Message { src, tag: 7, sent_us: 0, seq, clock: 0, idx: 0, visible_at: None, data }
    }

    fn ack(src: usize, cum: u64) -> Message {
        msg(src, 0, ReliableState::ack_payload(cum))
    }

    #[test]
    fn reliable_state_tracks_and_acks_cumulatively() {
        let mut rel = ReliableState::new(ReliableConfig::default(), 0, None);
        for seq in 0..4 {
            rel.track(1, msg(0, seq, Payload::from(vec![1.0])));
        }
        assert_eq!(rel.streams[&1].unacked.len(), 4);
        // Cumulative ack below 2: seqs 0 and 1 pruned, 2 and 3 kept.
        rel.on_ack(&ack(1, 2));
        assert_eq!(rel.streams[&1].unacked.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
        // A stale ack changes nothing.
        rel.on_ack(&ack(1, 1));
        assert_eq!(rel.streams[&1].unacked.len(), 2);
        // Full coverage drops the stream.
        rel.on_ack(&ack(1, 4));
        assert!(rel.idle());
        // Acks for unknown streams are ignored.
        rel.on_ack(&ack(3, 10));
    }

    /// The resends `due` returns at each expiry and how far it re-arms the
    /// stream: `rto · 2^min(k, 6)` after attempt `k`, plus the plan's
    /// jitter for the attempt when there is a plan.
    #[test]
    fn due_resends_the_unacked_suffix_with_capped_exponential_backoff() {
        let rto = Duration::from_millis(10);
        let plan = Arc::new(FaultPlan::new(9));
        for plan in [None, Some(plan)] {
            let mut rel = ReliableState::new(ReliableConfig { rto }, 0, plan.clone());
            for seq in 0..3 {
                rel.track(1, msg(0, seq, Payload::from(vec![seq as f64])));
            }
            rel.on_ack(&ack(1, 1));
            let jitter = |k: u64| {
                let us = plan.as_deref().map_or(0, |p| p.backoff_jitter_us(0, 1, k, 2000));
                Duration::from_micros(us)
            };
            let mut at = rel.streams[&1].deadline;
            assert!(rel.due(at - Duration::from_nanos(1), |_| false).is_empty(), "not yet due");
            for k in 1..=9u32 {
                let resent = rel.due(at, |_| false);
                let seqs: Vec<(usize, u64)> = resent.iter().map(|(d, m)| (*d, m.seq)).collect();
                assert_eq!(seqs, [(1, 1), (1, 2)], "attempt {k}");
                let next = rel.streams[&1].deadline;
                assert_eq!(next - at, rto * (1 << k.min(6)) + jitter(k as u64), "attempt {k}");
                assert!(rel.due(next - Duration::from_nanos(1), |_| false).is_empty());
                at = next;
            }
            // Ack progress resets the backoff to one rto.
            rel.on_ack(&ack(1, 2));
            assert_eq!(rel.streams[&1].attempts, 0);
            // A finished receiver's stream is dropped, not re-sent.
            assert!(rel.due(at + rto * 128, |dst| dst == 1).is_empty());
            assert!(rel.idle());
        }
    }
}
