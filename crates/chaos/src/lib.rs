//! `pselinv-chaos`: deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] describes a *schedule* of faults — message delay and
//! jitter, reordering, duplication, rank slowdown, and rank stall/crash
//! triggers — as a pure function of a seed. Both backends consume the same
//! plan:
//!
//! * the thread-based `pselinv-mpisim` runtime interposes on the delivery
//!   of every data message (delay/loss/duplicate/reorder, drawn by the
//!   message's sequence number on its `(src, dst)` channel; control
//!   traffic is never faulted) and counts op-count stall/crash triggers
//!   per rank;
//! * the `pselinv-des` machine simulator perturbs per-task service times
//!   (slowdown), per-message transfer times (delay/jitter) and removes
//!   ranks at their simulated stall/crash times.
//!
//! Every per-message decision is an independent hash draw over
//! `(seed, src, dst, message-sequence)`, so a schedule is reproducible
//! across runs, backends and thread interleavings — the property the
//! chaos proptests rely on (a crash-free schedule must yield bit-identical
//! collective results to the fault-free run).

use pselinv_trees::rng::hash2;
use std::collections::BTreeMap;

/// Per-rank fault parameters. The default spec is benign (no faults).
///
/// The per-message faults (delay, jitter, reordering, duplication, loss)
/// reach every data message the rank sends — in mpisim, tree-collective
/// hops, point-to-point transposes and recovery requests alike. The
/// receiver's arrival rule repairs reordering and duplication; loss needs
/// the reliable transport.
///
/// Time-triggered fields (`stall_at_s`, `crash_at_s`) are in *simulated
/// seconds* and only meaningful to the DES backend, where time is exact.
/// The mpisim runtime runs on nondeterministic wall clocks, so its
/// triggers count *operations* (sends + receives) instead
/// (`stall_after_ops`, `crash_after_ops`) — deterministic per rank
/// regardless of scheduling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Fixed extra latency injected into every message this rank sends
    /// (µs; mpisim stamps the message with its delivery instant and the
    /// receiver holds it until then, DES adds it to the arrival time).
    pub delay_us: u64,
    /// Additional per-message random latency in `0..=jitter_us` (µs),
    /// drawn deterministically from the plan seed.
    pub jitter_us: u64,
    /// Per-message probability (‰) that a sent message is held back and
    /// overtaken by the next message to the same destination.
    pub reorder_permille: u16,
    /// Per-message probability (‰) that a sent message is delivered twice.
    pub duplicate_permille: u16,
    /// Per-message probability (‰) that a sent message is lost in flight
    /// (mpisim's fault interposer never hands it to the receiver's inbox,
    /// the DES engine never schedules the arrival). Unlike duplication and
    /// reordering, loss is *not* benign on its own: without a reliable
    /// transport retransmitting the message, data is gone and the receiver
    /// hangs or the task graph strands.
    pub drop_permille: u16,
    /// Service-time multiplier for this rank (≥ 1.0 slows it down).
    pub slowdown: f64,
    /// DES: the rank stops making progress at this simulated time but is
    /// not removed (messages to it are silently absorbed).
    pub stall_at_s: Option<f64>,
    /// DES: the rank crashes at this simulated time (equivalent to a stall
    /// for the simulation model; kept distinct for reporting).
    pub crash_at_s: Option<f64>,
    /// mpisim: the rank stops calling into the runtime after this many
    /// send/receive operations (spins forever; the watchdog converts the
    /// resulting global stall into a diagnostic error).
    pub stall_after_ops: Option<u64>,
    /// mpisim: the rank panics after this many send/receive operations
    /// (the panic propagates through `try_run` as a `RankPanic`).
    pub crash_after_ops: Option<u64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            delay_us: 0,
            jitter_us: 0,
            reorder_permille: 0,
            duplicate_permille: 0,
            drop_permille: 0,
            slowdown: 1.0,
            stall_at_s: None,
            crash_at_s: None,
            stall_after_ops: None,
            crash_after_ops: None,
        }
    }
}

impl FaultSpec {
    /// `true` when this spec can never lose data on its own (delay,
    /// jitter, reordering, duplication and slowdown are all benign: they
    /// perturb timing and delivery order but lose nothing). Message loss
    /// (`drop_permille`) is **not** benign here: without a reliable
    /// transport retransmitting lost messages, a dropped delivery is data
    /// loss exactly like a crash. Use
    /// [`FaultSpec::is_benign_under_reliable`] when the run layers a
    /// retransmitting transport under the collectives.
    pub fn is_benign(&self) -> bool {
        self.drop_permille == 0 && self.is_benign_under_reliable()
    }

    /// Like [`FaultSpec::is_benign`], but treats message loss as benign —
    /// valid only when a reliable (ack + retransmit) transport recovers
    /// every dropped delivery, as `pselinv-mpisim`'s `reliable` layer does.
    pub fn is_benign_under_reliable(&self) -> bool {
        self.stall_at_s.is_none()
            && self.crash_at_s.is_none()
            && self.stall_after_ops.is_none()
            && self.crash_after_ops.is_none()
    }

    /// `true` when the spec injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.is_benign()
            && self.delay_us == 0
            && self.jitter_us == 0
            && self.reorder_permille == 0
            && self.duplicate_permille == 0
            && self.drop_permille == 0
            && self.slowdown == 1.0
    }
}

// Salts separating the independent per-message draw streams.
const SALT_JITTER: u64 = 0x6a17_7e2b;
const SALT_DUP: u64 = 0xd0b1_e5e5;
const SALT_REORDER: u64 = 0x0c0d_e12f;
const SALT_DROP: u64 = 0xd709_1055;
const SALT_BACKOFF: u64 = 0x00ba_c0ff;

/// A complete fault schedule: a seed, a default per-rank spec, and
/// per-rank overrides. Pure data — cloning or sharing it across backends
/// replays the identical schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    base: FaultSpec,
    overrides: BTreeMap<usize, FaultSpec>,
}

impl FaultPlan {
    /// A plan with the given seed and a benign default spec.
    pub fn new(seed: u64) -> Self {
        Self { seed, base: FaultSpec::default(), overrides: BTreeMap::new() }
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the default spec applied to every rank without an
    /// override.
    pub fn with_default(mut self, spec: FaultSpec) -> Self {
        self.base = spec;
        self
    }

    /// Overrides the spec of one rank.
    pub fn with_rank(mut self, rank: usize, spec: FaultSpec) -> Self {
        self.overrides.insert(rank, spec);
        self
    }

    /// The effective spec of `rank`.
    pub fn spec(&self, rank: usize) -> &FaultSpec {
        self.overrides.get(&rank).unwrap_or(&self.base)
    }

    /// Independent deterministic draw for message `seq` from `src` to
    /// `dst` in the stream selected by `salt`.
    fn draw(&self, salt: u64, src: usize, dst: usize, seq: u64) -> u64 {
        let pair = ((src as u64) << 32) ^ (dst as u64);
        hash2(hash2(self.seed ^ salt, pair), seq)
    }

    /// Total injected latency (µs) of message `seq` from `src` to `dst`:
    /// the sender's fixed delay plus its seeded jitter.
    pub fn delay_us(&self, src: usize, dst: usize, seq: u64) -> u64 {
        let s = self.spec(src);
        let jitter = if s.jitter_us == 0 {
            0
        } else {
            self.draw(SALT_JITTER, src, dst, seq) % (s.jitter_us + 1)
        };
        s.delay_us + jitter
    }

    /// Same latency in seconds (DES arrival-time perturbation).
    pub fn delay_s(&self, src: usize, dst: usize, seq: u64) -> f64 {
        self.delay_us(src, dst, seq) as f64 * 1e-6
    }

    /// Whether message `seq` from `src` to `dst` is delivered twice.
    pub fn duplicates(&self, src: usize, dst: usize, seq: u64) -> bool {
        let p = self.spec(src).duplicate_permille;
        p > 0 && self.draw(SALT_DUP, src, dst, seq) % 1000 < p as u64
    }

    /// Whether message `seq` from `src` to `dst` is held back and
    /// overtaken by the next message to the same destination.
    pub fn reorders(&self, src: usize, dst: usize, seq: u64) -> bool {
        let p = self.spec(src).reorder_permille;
        p > 0 && self.draw(SALT_REORDER, src, dst, seq) % 1000 < p as u64
    }

    /// Whether message `seq` from `src` to `dst` is lost in flight — an
    /// independent draw stream with the same determinism contract as
    /// [`FaultPlan::duplicates`] / [`FaultPlan::reorders`].
    pub fn drops(&self, src: usize, dst: usize, seq: u64) -> bool {
        let p = self.spec(src).drop_permille;
        p > 0 && self.draw(SALT_DROP, src, dst, seq) % 1000 < p as u64
    }

    /// Deterministic jitter (µs, in `0..=cap_us`) mixed into retransmit
    /// attempt `attempt` of the `src -> dst` reliable stream, so the
    /// exponential-backoff deadlines desynchronize without introducing a
    /// wall-clock RNG.
    pub fn backoff_jitter_us(&self, src: usize, dst: usize, attempt: u64, cap_us: u64) -> u64 {
        if cap_us == 0 {
            return 0;
        }
        self.draw(SALT_BACKOFF, src, dst, attempt) % (cap_us + 1)
    }

    /// Service-time multiplier of `rank`.
    pub fn slowdown(&self, rank: usize) -> f64 {
        self.spec(rank).slowdown
    }

    /// DES: whether `rank` is stalled or crashed at simulated time `t_s`.
    pub fn down_at(&self, rank: usize, t_s: f64) -> bool {
        let s = self.spec(rank);
        s.stall_at_s.is_some_and(|at| t_s >= at) || s.crash_at_s.is_some_and(|at| t_s >= at)
    }

    /// DES: whether `rank` ever goes down under this plan.
    pub fn ever_down(&self, rank: usize) -> bool {
        let s = self.spec(rank);
        s.stall_at_s.is_some() || s.crash_at_s.is_some()
    }

    /// `true` when no rank can stall, crash or lose data under this plan —
    /// the precondition for the masking guarantee (bit-identical results
    /// to the fault-free run) on a *raw* transport. A plan that injects
    /// loss is only safe with a reliable transport underneath; see
    /// [`FaultPlan::is_crash_free_under_reliable`].
    pub fn is_crash_free(&self) -> bool {
        self.base.is_benign() && self.overrides.values().all(FaultSpec::is_benign)
    }

    /// Like [`FaultPlan::is_crash_free`], but assumes a reliable
    /// (ack + retransmit) transport recovers every dropped message, so
    /// loss no longer voids the masking guarantee.
    pub fn is_crash_free_under_reliable(&self) -> bool {
        self.base.is_benign_under_reliable()
            && self.overrides.values().all(FaultSpec::is_benign_under_reliable)
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.base.is_noop() && self.overrides.values().all(FaultSpec::is_noop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_benign_noop() {
        let s = FaultSpec::default();
        assert!(s.is_benign());
        assert!(s.is_noop());
        assert_eq!(s.slowdown, 1.0);
        let p = FaultPlan::new(7);
        assert!(p.is_crash_free());
        assert!(p.is_noop());
        assert_eq!(p.delay_us(0, 1, 0), 0);
        assert!(!p.duplicates(0, 1, 0));
        assert!(!p.reorders(0, 1, 0));
        assert!(!p.down_at(3, 1e9));
    }

    #[test]
    fn draws_are_deterministic_and_stream_independent() {
        let mk = || {
            FaultPlan::new(0xabcd).with_default(FaultSpec {
                jitter_us: 500,
                duplicate_permille: 300,
                reorder_permille: 300,
                ..FaultSpec::default()
            })
        };
        let (a, b) = (mk(), mk());
        for seq in 0..200 {
            assert_eq!(a.delay_us(1, 2, seq), b.delay_us(1, 2, seq));
            assert_eq!(a.duplicates(1, 2, seq), b.duplicates(1, 2, seq));
            assert_eq!(a.reorders(1, 2, seq), b.reorders(1, 2, seq));
        }
        // Different seeds change the schedule.
        let c = FaultPlan::new(0xabce)
            .with_default(FaultSpec { jitter_us: 500, ..FaultSpec::default() });
        let differs = (0..200).any(|s| a.delay_us(1, 2, s) != c.delay_us(1, 2, s));
        assert!(differs, "seed must perturb the jitter stream");
        // Distinct (src, dst) pairs get independent streams.
        let differs = (0..200).any(|s| a.delay_us(1, 2, s) != a.delay_us(2, 1, s));
        assert!(differs, "per-pair streams must be independent");
    }

    #[test]
    fn jitter_is_bounded_and_rates_are_plausible() {
        let p = FaultPlan::new(99).with_default(FaultSpec {
            delay_us: 10,
            jitter_us: 40,
            duplicate_permille: 500,
            ..FaultSpec::default()
        });
        let mut dups = 0;
        for seq in 0..1000 {
            let d = p.delay_us(0, 1, seq);
            assert!((10..=50).contains(&d), "delay {d} outside [10, 50]");
            dups += p.duplicates(0, 1, seq) as u32;
        }
        assert!((300..700).contains(&dups), "500‰ duplication drew {dups}/1000");
    }

    #[test]
    fn overrides_shadow_the_default() {
        let slow = FaultSpec { slowdown: 4.0, ..FaultSpec::default() };
        let dead = FaultSpec { crash_at_s: Some(0.5), ..FaultSpec::default() };
        let p = FaultPlan::new(1).with_rank(3, slow).with_rank(5, dead);
        assert_eq!(p.slowdown(3), 4.0);
        assert_eq!(p.slowdown(0), 1.0);
        assert!(!p.is_crash_free());
        assert!(!p.down_at(5, 0.4));
        assert!(p.down_at(5, 0.5));
        assert!(p.ever_down(5));
        assert!(!p.ever_down(3));
    }

    #[test]
    fn loss_is_non_benign_without_reliable_transport() {
        let lossy = FaultSpec { drop_permille: 50, ..FaultSpec::default() };
        assert!(!lossy.is_benign(), "loss loses data on a raw transport");
        assert!(lossy.is_benign_under_reliable(), "retransmission recovers every drop");
        assert!(!lossy.is_noop());
        let p = FaultPlan::new(3).with_default(lossy);
        assert!(!p.is_crash_free());
        assert!(p.is_crash_free_under_reliable());
        assert!(!p.is_noop());
        // A crash override stays unsafe even under a reliable transport.
        let p = p.with_rank(2, FaultSpec { crash_after_ops: Some(1), ..FaultSpec::default() });
        assert!(!p.is_crash_free_under_reliable());
    }

    #[test]
    fn noop_requires_zero_loss() {
        let s = FaultSpec { drop_permille: 1, ..FaultSpec::default() };
        assert!(!s.is_noop());
        let s = FaultSpec { drop_permille: 0, ..FaultSpec::default() };
        assert!(s.is_noop());
        assert!(!FaultPlan::new(0)
            .with_rank(1, FaultSpec { drop_permille: 1000, ..FaultSpec::default() })
            .is_noop());
    }

    #[test]
    fn drop_draws_are_deterministic_and_plausible() {
        let p = FaultPlan::new(0x10c4)
            .with_default(FaultSpec { drop_permille: 200, ..FaultSpec::default() });
        let q = p.clone();
        let mut losses = 0u32;
        for seq in 0..1000 {
            assert_eq!(p.drops(0, 1, seq), q.drops(0, 1, seq));
            losses += p.drops(0, 1, seq) as u32;
        }
        assert!((100..350).contains(&losses), "200‰ loss drew {losses}/1000");
        // The loss stream is independent of the duplication stream.
        let with_dup = FaultPlan::new(0x10c4).with_default(FaultSpec {
            drop_permille: 200,
            duplicate_permille: 500,
            ..FaultSpec::default()
        });
        for seq in 0..200 {
            assert_eq!(p.drops(0, 1, seq), with_dup.drops(0, 1, seq));
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let p = FaultPlan::new(77);
        for attempt in 0..32 {
            let j = p.backoff_jitter_us(1, 2, attempt, 500);
            assert!(j <= 500);
            assert_eq!(j, p.backoff_jitter_us(1, 2, attempt, 500));
        }
        assert_eq!(p.backoff_jitter_us(1, 2, 0, 0), 0);
        let differs = (0..32)
            .any(|a| p.backoff_jitter_us(1, 2, a, 1000) != p.backoff_jitter_us(2, 1, a, 1000));
        assert!(differs, "per-pair backoff streams must be independent");
    }

    #[test]
    fn op_triggers_make_a_plan_unsafe() {
        let p = FaultPlan::new(2)
            .with_rank(1, FaultSpec { stall_after_ops: Some(10), ..FaultSpec::default() });
        assert!(!p.is_crash_free());
        let p = FaultPlan::new(2)
            .with_rank(1, FaultSpec { crash_after_ops: Some(10), ..FaultSpec::default() });
        assert!(!p.is_crash_free());
    }
}
