//! The fault interposer: what a [`FaultPlan`] does to a rank's traffic.
//!
//! Delay, loss, duplication and reordering are drawn per data message by
//! its `(src, dst, seq)`, so a seed replays the same schedule; crash and
//! stall triggers count send/receive operations. The interposer decides;
//! `RankCtx` pushes the messages it returns, in order, and carries out a
//! crash or stall. The arrival rule repairs duplication and reordering;
//! loss needs the reliable transport.

use crate::runtime::Message;
use pselinv_chaos::FaultPlan;
use pselinv_trace::{FaultKind, RankTracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A chaos trigger fired by an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// The rank dies: it spent its budget of this many operations.
    Crash(u64),
    /// The rank stops making progress for good.
    Stall,
}

/// One rank's fault interposer, present only on runs with a fault plan.
pub(crate) struct Interposer {
    plan: Arc<FaultPlan>,
    rank: usize,
    /// Send/receive operations so far (the crash and stall triggers).
    ops: u64,
    /// Per-destination hold-back slot for injected reordering, released by
    /// the next message to that destination or by [`Interposer::release`].
    held: Vec<Option<Message>>,
}

impl Interposer {
    pub(crate) fn new(plan: Arc<FaultPlan>, rank: usize, size: usize) -> Self {
        Self { plan, rank, ops: 0, held: (0..size).map(|_| None).collect() }
    }

    /// Counts one send or receive operation and returns the trigger it
    /// fires, if any.
    pub(crate) fn count_op(&mut self) -> Option<Trigger> {
        let spec = self.plan.spec(self.rank);
        self.ops += 1;
        match (spec.crash_after_ops, spec.stall_after_ops) {
            (Some(at), _) if self.ops > at => Some(Trigger::Crash(at)),
            (_, Some(at)) if self.ops > at => Some(Trigger::Stall),
            _ => None,
        }
    }

    /// Decides the fate of data message `msg` to `dst` and returns what
    /// goes to `dst`'s mailbox, in push order.
    ///
    /// An injected delay is *in-flight* time, matching the DES backend's
    /// semantics: the message is stamped with the instant it becomes
    /// visible ([`Message::visible_at`]) and the receiver holds it until
    /// then, so the sender keeps computing while it flies. A message that
    /// overtakes its predecessor under jitter waits for it in the arrival
    /// rule, which keeps per-`(src, dst)` FIFO delivery.
    pub(crate) fn deliver(
        &mut self,
        dst: usize,
        mut msg: Message,
        tracer: &mut RankTracer,
    ) -> [Option<Message>; 2] {
        let (plan, src, seq) = (&*self.plan, self.rank, msg.seq);
        let delay = plan.delay_us(src, dst, seq);
        let fly = Duration::from_micros((delay as f64 * plan.slowdown(src).max(0.0)) as u64);
        let visible_at = (!fly.is_zero()).then(|| Instant::now() + fly);
        if delay > 0 {
            tracer.fault(FaultKind::Delayed, dst, msg.tag);
        }
        let held = &mut self.held[dst];
        if plan.drops(src, dst, seq) {
            // Lost in flight. A held-back reorder victim is still released:
            // it was delayed, not lost.
            tracer.fault(FaultKind::Dropped, dst, msg.tag);
            return [held.take(), None];
        }
        if plan.duplicates(src, dst, seq) {
            // The clone shares the payload buffer: a duplicate costs a
            // header, not a block copy.
            tracer.fault(FaultKind::Duplicated, dst, msg.tag);
            msg.visible_at = visible_at;
            return [Some(msg.clone()), Some(msg)];
        }
        if plan.reorders(src, dst, seq) {
            // The victim goes out unstamped when it is released: its delay
            // is the wait for the message that overtakes it.
            tracer.fault(FaultKind::Reordered, dst, msg.tag);
            return [held.replace(msg), None];
        }
        msg.visible_at = visible_at;
        // A held message is now overtaken: release it behind this one.
        [Some(msg), held.take()]
    }

    /// Takes a held-back message for release, lowest destination first.
    /// The rank releases them all before any blocking wait and at finish,
    /// so injected reordering can delay but never lose a message.
    pub(crate) fn release(&mut self) -> Option<(usize, Message)> {
        self.held.iter_mut().enumerate().find_map(|(dst, h)| Some((dst, h.take()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use pselinv_chaos::FaultSpec;

    /// What the plan does to one message, in the interposer's precedence.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fate {
        Drop,
        Dup,
        Reorder,
        Pass,
    }

    fn fate(plan: &FaultPlan, seq: u64) -> Fate {
        if plan.drops(0, 1, seq) {
            Fate::Drop
        } else if plan.duplicates(0, 1, seq) {
            Fate::Dup
        } else if plan.reorders(0, 1, seq) {
            Fate::Reorder
        } else {
            Fate::Pass
        }
    }

    fn msg(seq: u64) -> Message {
        Message {
            src: 0,
            tag: 100 + seq,
            sent_us: 0,
            seq,
            clock: 0,
            idx: seq,
            visible_at: None,
            data: Payload::from(vec![seq as f64]),
        }
    }

    #[test]
    fn a_scripted_plan_pushes_in_order_stamps_in_flight_and_releases_held() {
        use Fate::*;
        const DELAY_US: u64 = 500;
        let script = [Reorder, Drop, Reorder, Pass, Dup, Reorder];
        let spec = FaultSpec {
            delay_us: DELAY_US,
            drop_permille: 300,
            duplicate_permille: 300,
            reorder_permille: 300,
            ..FaultSpec::default()
        };
        let plan = (0..)
            .map(|seed| FaultPlan::new(seed).with_default(spec))
            .find(|p| script.iter().enumerate().all(|(s, &f)| fate(p, s as u64) == f))
            .expect("some seed plays the script");
        let mut ip = Interposer::new(Arc::new(plan), 0, 2);
        let mut tracer = RankTracer::disabled();
        // `(seq, stamped)` per push, in push order, for each send.
        let mut pushed = Vec::new();
        for seq in 0..script.len() as u64 {
            let before = Instant::now();
            let out = ip.deliver(1, msg(seq), &mut tracer);
            let after = Instant::now();
            let fly = Duration::from_micros(DELAY_US);
            let mut step = Vec::new();
            for m in out.into_iter().flatten() {
                if let Some(at) = m.visible_at {
                    assert!(at >= before + fly && at <= after + fly, "seq {} stamp", m.seq);
                }
                step.push((m.seq, m.visible_at.is_some()));
            }
            pushed.push(step);
        }
        let expect: [&[(u64, bool)]; 6] = [
            &[],                      // 0 held back
            &[(0, false)],            // 1 lost; 0 released, unstamped
            &[],                      // 2 held back
            &[(3, true), (2, false)], // 3 in flight, then 2 released
            &[(4, true), (4, true)],  // 4 twice, both in flight
            &[],                      // 5 held back
        ];
        assert_eq!(pushed, expect);
        let rest = ip.release().map(|(dst, m)| (dst, m.seq, m.visible_at.is_some()));
        assert_eq!(rest, Some((1, 5, false)));
        assert!(ip.release().is_none(), "every held message was released once");
    }

    #[test]
    fn triggers_fire_after_their_operation_budget() {
        let ops = |spec: FaultSpec| {
            let mut ip = Interposer::new(Arc::new(FaultPlan::new(1).with_rank(0, spec)), 0, 2);
            (0..5).map(|_| ip.count_op()).collect::<Vec<_>>()
        };
        let crash = FaultSpec { crash_after_ops: Some(3), ..FaultSpec::default() };
        assert_eq!(
            ops(crash),
            [None, None, None, Some(Trigger::Crash(3)), Some(Trigger::Crash(3))]
        );
        let stall = FaultSpec { stall_after_ops: Some(1), ..FaultSpec::default() };
        assert_eq!(ops(stall)[..3], [None, Some(Trigger::Stall), Some(Trigger::Stall)]);
        // The crash is checked first, as the rank would die before it stalls.
        let both = ops(FaultSpec { crash_after_ops: Some(2), ..stall });
        assert_eq!(both[..3], [None, Some(Trigger::Stall), Some(Trigger::Crash(2))]);
    }
}
