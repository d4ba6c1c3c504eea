//! The spin-or-park decision of [`RankCtx`]'s one blocking point.
//!
//! Waking a parked thread costs an order of magnitude more than noticing a
//! message while polling ([`PARK_COST`] against a couple of microseconds),
//! so a rank whose waits are short should poll its inbox for a bounded
//! [`SPIN_BUDGET`] before it parks — and a rank whose waits are long (a
//! modelled 1 ms flight) should not, because every spin it loses is a full
//! budget of CPU burnt for nothing. The rank decides from its own history:
//! it keeps the running *counterfactual profit* of spinning over every wait
//! it completes, spun or not, and spins only while that profit is not
//! negative.
//!
//! [`RankCtx`]: crate::runtime::RankCtx

use std::time::Duration;

/// How long a rank polls its inbox before parking. Also the loss booked
/// for a wait that outlasted it. It has to exceed three [`PARK_COST`]s: a
/// latency-bound run sees a few short waits between every long one, and
/// those must not re-arm the spin.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(80);

/// What a futex sleep/wake pair costs over a successful poll — this repo's
/// own `mpisim.pingpong_ns` on its parked side. The gain booked for a wait
/// that ended within the budget.
pub(crate) const PARK_COST: Duration = Duration::from_micros(20);

/// The balance is clamped to this many budgets either way, so neither a
/// long quiet stretch nor a long burst takes more than a few dozen waits
/// to unlearn.
const CLAMP_BUDGETS: i64 = 4;

/// Running counterfactual profit of spinning, in nanoseconds.
#[derive(Debug, Default)]
pub(crate) struct SpinPolicy {
    balance_ns: i64,
}

impl SpinPolicy {
    /// Whether the next wait should poll before it parks.
    pub(crate) fn should_spin(&self) -> bool {
        self.balance_ns >= 0
    }

    /// Books one completed wait of length `waited`: spinning would have
    /// saved a park had a message ended it within the budget, and wasted
    /// the spin otherwise — the whole budget, or all of a bounded wait that
    /// expired sooner (`got_message` false). Recorded for parked waits too
    /// — that is what lets the balance recover once waits turn short again.
    pub(crate) fn record(&mut self, waited: Duration, got_message: bool) {
        let budget = SPIN_BUDGET.as_nanos() as i64;
        let delta = if got_message && waited <= SPIN_BUDGET {
            PARK_COST.as_nanos() as i64
        } else {
            -(waited.min(SPIN_BUDGET).as_nanos() as i64)
        };
        self.balance_ns =
            (self.balance_ns + delta).clamp(-CLAMP_BUDGETS * budget, CLAMP_BUDGETS * budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_micros(5);
    const FLIGHT: Duration = Duration::from_millis(1);

    #[test]
    fn short_waits_keep_the_spin_armed() {
        let mut p = SpinPolicy::default();
        assert!(p.should_spin(), "a fresh rank spins: nothing says it should not");
        for _ in 0..1000 {
            p.record(SHORT, true);
            assert!(p.should_spin());
        }
        assert!(p.balance_ns > 0);
        assert_eq!(p.balance_ns, CLAMP_BUDGETS * SPIN_BUDGET.as_nanos() as i64, "clamped");
    }

    #[test]
    fn latency_bound_pattern_sinks_to_the_floor_and_stays() {
        // poles-latency: three short waits between every 1 ms flight.
        let mut p = SpinPolicy::default();
        let floor = -CLAMP_BUDGETS * SPIN_BUDGET.as_nanos() as i64;
        let mut spins_after_warmup = 0;
        for round in 0..200 {
            for w in [SHORT, SHORT, SHORT, FLIGHT] {
                if round >= 20 && p.should_spin() {
                    spins_after_warmup += 1;
                }
                p.record(w, true);
            }
            if round >= 20 {
                assert_eq!(p.balance_ns, floor, "round {round}");
            }
        }
        assert_eq!(spins_after_warmup, 0, "short bursts must not re-arm the spin");
    }

    #[test]
    fn recovers_when_waits_turn_short_again() {
        let mut p = SpinPolicy::default();
        for _ in 0..50 {
            p.record(FLIGHT, true);
        }
        assert!(!p.should_spin());
        let mut needed = 0;
        while !p.should_spin() {
            // A parked short wait reads as its length plus the wake-up.
            p.record(SHORT + PARK_COST, true);
            needed += 1;
            assert!(needed <= 64, "the clamp bounds how long unlearning takes");
        }
        assert_eq!(
            needed as i64,
            CLAMP_BUDGETS * (SPIN_BUDGET.as_nanos() / PARK_COST.as_nanos()) as i64
        );
    }

    #[test]
    fn a_wait_exactly_at_the_budget_counts_as_won() {
        let mut p = SpinPolicy::default();
        p.record(SPIN_BUDGET, true);
        assert_eq!(p.balance_ns, PARK_COST.as_nanos() as i64);
        p.record(SPIN_BUDGET + Duration::from_nanos(1), true);
        assert!(!p.should_spin());
    }

    #[test]
    fn an_expired_wait_is_never_a_win() {
        // A bounded wait that ran out found no message, however short it
        // was: a spin would have burnt all of it (up to the budget).
        let mut p = SpinPolicy::default();
        p.record(Duration::ZERO, false);
        assert_eq!(p.balance_ns, 0, "a zero timeout is a poll, not a wait");
        p.record(SHORT, false);
        assert_eq!(p.balance_ns, -(SHORT.as_nanos() as i64));
        let mut p = SpinPolicy::default();
        p.record(Duration::from_micros(200), false);
        assert_eq!(p.balance_ns, -(SPIN_BUDGET.as_nanos() as i64));
    }
}
