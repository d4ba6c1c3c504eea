//! The event queue of the simulator: 24-byte events popped in exact
//! `(time, seq)` order, where `seq` counts pushes.
//!
//! One container holds the pending events: a monotone radix heap (Ahuja,
//! Mehlhorn, Orlin and Tarjan, J. ACM 37(2), 1990) keyed on the bit
//! pattern of the time. Times are finite and non-negative, so their
//! IEEE-754 bit patterns order exactly as the numbers do. Bucket 0 holds
//! the events stamped `now`, the time of the last event popped; bucket
//! `i > 0` holds those whose time bits first differ from `now`'s at bit
//! `i − 1`, so each of its events is earlier than every event in a higher
//! bucket. [`EventQueue::pop`] takes the head of bucket 0. Once bucket 0
//! is drained it empties the first non-empty bucket: the clock moves to
//! that bucket's least time, and its events are appended again, each to
//! the bucket its bits name against the new clock, all of them lower.
//!
//! Three invariants make that the `(time, seq)` order itself, with no
//! compare of `seq`:
//!
//! 1. every event is pushed with `time >= now` (asserted in debug builds),
//!    so no pending time falls below the clock and the clock only moves
//!    forward;
//! 2. equal times have equal bits, so their events always share a bucket,
//!    and appends and the refill are stable, so they stay there in push
//!    order: bucket 0 is exactly the events stamped `now`, in `seq` order,
//!    and a push at `now` joins its tail;
//! 3. a peek never moves the clock: each bucket keeps the index of its
//!    first least-time entry, the event a refill of it pops first. (A peek
//!    that refilled would let a later push fall below the moved clock.)

/// What an event does when it fires. Every event names a task in `a` and
/// an edge in `b` (0 where it has none), so the engine can start loading
/// the records of the next event without looking at its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Task `a`'s final dependency was satisfied at this time.
    Ready = 0,
    /// Task `a` finishes executing at this time; `b` is its first
    /// out-edge.
    TaskDone = 1,
    /// The message task `a` sent on edge `b` reaches the destination
    /// rank's receive NIC at this time. The edge names the destination
    /// task, its rank and the size.
    Arrive = 2,
}

/// One pending event.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub time: f64,
    pub a: u32,
    pub b: u32,
    kind: EventKind,
}

impl Event {
    pub fn kind(&self) -> EventKind {
        self.kind
    }
}

/// One bucket for `time == now` and one per bit in which a time can first
/// differ from it; bit 63, the sign, is 0 in every pushed time.
const BUCKETS: usize = 64;

pub(crate) struct EventQueue {
    /// `buckets[0][head..]` and every other bucket whole are pending.
    buckets: [Vec<Event>; BUCKETS],
    head: usize,
    /// Per bucket `i > 0`, the index of its first entry of least time.
    least: [usize; BUCKETS],
    /// Bit `i` is set while bucket `i > 0` is non-empty.
    full: u64,
    /// Time of the last event popped.
    now: f64,
}

impl Default for EventQueue {
    fn default() -> Self {
        let buckets = std::array::from_fn(|_| Vec::new());
        Self { buckets, head: 0, least: [0; BUCKETS], full: 0, now: 0.0 }
    }
}

impl EventQueue {
    pub fn push(&mut self, time: f64, kind: EventKind, a: u32, b: u32) {
        // The invariant both the bit-pattern keys and the buckets rest on
        // (`-0.0 >= 0.0` holds, so the sign is checked apart).
        debug_assert!(
            time.is_finite() && time.is_sign_positive() && time >= self.now,
            "event at {time:e} pushed at simulated time {:e}",
            self.now
        );
        self.append(Event { time, a, b, kind });
    }

    /// Puts `ev` behind the events of the bucket its time bits name.
    fn append(&mut self, ev: Event) {
        let i = (u64::BITS - (ev.time.to_bits() ^ self.now.to_bits()).leading_zeros()) as usize;
        let bucket = &mut self.buckets[i];
        if i > 0 && (bucket.is_empty() || ev.time < bucket[self.least[i]].time) {
            self.least[i] = bucket.len();
            self.full |= 1 << i;
        }
        bucket.push(ev);
    }

    /// The event `pop` would return next if nothing is pushed before.
    pub fn peek(&self) -> Option<&Event> {
        if let Some(ev) = self.buckets[0].get(self.head) {
            return Some(ev);
        }
        let i = self.full.trailing_zeros() as usize;
        self.buckets.get(i).map(|bucket| &bucket[self.least[i]])
    }

    /// The next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        if self.head == self.buckets[0].len() {
            self.refill()?;
        }
        let ev = self.buckets[0][self.head];
        self.head += 1;
        Some(ev)
    }

    /// Moves the clock to the least pending time and appends the events of
    /// the bucket holding it again, which puts those stamped with it in
    /// bucket 0. `None` if nothing is pending.
    fn refill(&mut self) -> Option<()> {
        let i = self.full.trailing_zeros() as usize;
        let mut bucket = std::mem::take(self.buckets.get_mut(i)?);
        self.full &= !(1 << i);
        self.buckets[0].clear();
        self.head = 0;
        self.now = bucket[self.least[i]].time;
        for &ev in &bucket {
            self.append(ev);
        }
        bucket.clear();
        // Back in place with its capacity; nothing was appended to it.
        self.buckets[i] = bucket;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_trees::rng::splitmix64;

    #[test]
    fn an_event_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 24);
    }

    /// The queue against its specification — a list sorted by
    /// `(time, seq)` — under random interleavings of pushes and pops with
    /// many pushes at exactly the current time, at time 0 and at equal
    /// future times.
    #[test]
    fn pops_in_time_then_push_order_like_a_sorted_list() {
        for seed in 0..200u64 {
            let mut state = splitmix64(seed ^ 0x9e0e);
            let mut draw = |n: u64| {
                state = splitmix64(state);
                state % n
            };
            let mut q = EventQueue::default();
            let mut model: Vec<(f64, u32)> = Vec::new(); // (time, seq), kept sorted
            let mut now = 0.0f64;
            let mut pushed = 0u32;
            let mut popped = 0usize;
            // Time-0 roots, as `simulate` starts.
            let roots = draw(6);
            let mut steps = 0;
            while steps < 400 || !model.is_empty() {
                steps += 1;
                let push = steps <= roots || (steps < 400 && draw(5) < 3);
                if push {
                    // A few distinct future instants, so equal times recur.
                    let time = match draw(4) {
                        0 | 1 => now,
                        2 => now + 0.25 * (1 + draw(3)) as f64,
                        _ => (now + 1.0).floor() + draw(2) as f64,
                    };
                    let kind = [EventKind::Ready, EventKind::TaskDone, EventKind::Arrive]
                        [draw(3) as usize];
                    q.push(time, kind, pushed, kind as u32);
                    let at = model.partition_point(|&(t, _)| t <= time);
                    model.insert(at, (time, pushed));
                    pushed += 1;
                } else {
                    let peeked = q.peek().map(|ev| ev.a);
                    let got = q.pop();
                    assert_eq!(peeked, got.map(|ev| ev.a), "peek names the event pop returns");
                    if model.is_empty() {
                        assert!(got.is_none());
                        continue;
                    }
                    let (time, seq) = model.remove(0);
                    let ev = got.expect("the model still holds events");
                    assert_eq!(
                        (ev.time, ev.a),
                        (time, seq),
                        "seed {seed}, pop {popped}: wrong event"
                    );
                    assert_eq!(ev.kind() as u32, ev.b, "the kind survives the queue");
                    now = time;
                    popped += 1;
                }
            }
            assert!(q.pop().is_none());
            assert!(popped > 100, "seed {seed}: only {popped} pops");
        }
    }

    /// The model test again, with increments over the whole range a
    /// simulation produces (1e-9 s to 1e3 s, so the pushed times differ
    /// from the clock at every level of their bit patterns), exact repeats
    /// of pending times and one-ulp steps past them.
    #[test]
    fn pops_like_a_sorted_list_across_many_binades() {
        let ulp = |t: f64| f64::from_bits(t.to_bits() + 1);
        for seed in 0..100u64 {
            let mut state = splitmix64(seed ^ 0xb1a5);
            let mut draw = |n: u64| {
                state = splitmix64(state);
                state % n
            };
            let mut q = EventQueue::default();
            let mut model: Vec<(f64, u32)> = Vec::new(); // (time, seq), kept sorted
            let mut now = 0.0f64;
            let mut pushed = 0u32;
            let mut steps = 0;
            while steps < 600 || !model.is_empty() {
                steps += 1;
                if steps < 600 && draw(5) < 3 {
                    let pending = |i: u64| model[i as usize % model.len()].0;
                    let time = match draw(6) {
                        0 => now,
                        1 if !model.is_empty() => pending(draw(1 << 20)),
                        2 if !model.is_empty() => ulp(pending(draw(1 << 20))),
                        3 => ulp(now),
                        // 10^e for e uniform in [-9, 3].
                        _ => {
                            now + 10f64.powf(-9.0 + 12.0 * draw(1 << 20) as f64 / (1 << 20) as f64)
                        }
                    };
                    q.push(time, EventKind::Ready, pushed, 0);
                    let at = model.partition_point(|&(t, _)| t <= time);
                    model.insert(at, (time, pushed));
                    pushed += 1;
                } else {
                    let peeked = q.peek().map(|ev| (ev.time, ev.a));
                    let got = q.pop().map(|ev| (ev.time, ev.a));
                    assert_eq!(peeked, got, "seed {seed}: peek names the event pop returns");
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(got, want, "seed {seed}, step {steps}: wrong event");
                    if let Some((time, _)) = want {
                        now = time;
                    }
                }
            }
            assert!(q.pop().is_none());
            assert!(pushed > 300, "seed {seed}: only {pushed} pushes");
        }
    }

    /// A peek looks without moving the clock: an event pushed after it,
    /// between the clock and the peeked event, still pops first.
    #[test]
    fn a_peek_does_not_move_the_clock() {
        let mut q = EventQueue::default();
        q.push(1.0, EventKind::Ready, 0, 0);
        assert_eq!(q.pop().map(|e| e.a), Some(0)); // the clock is now 1.0
        q.push(1000.0, EventKind::TaskDone, 1, 0);
        assert_eq!(q.peek().map(|e| e.a), Some(1));
        q.push(2.0, EventKind::Arrive, 2, 0);
        assert_eq!(q.peek().map(|e| e.a), Some(2));
        q.push(1.5, EventKind::Ready, 3, 0);
        assert_eq!(q.pop().map(|e| e.a), Some(3));
        assert_eq!(q.pop().map(|e| e.a), Some(2));
        assert_eq!(q.pop().map(|e| e.a), Some(1));
        assert!(q.peek().is_none());
        assert!(q.pop().is_none());
    }

    /// Events stamped with one time pop in push order, whether they were
    /// pushed while the clock was earlier (from several earlier instants)
    /// or once it had reached their time.
    #[test]
    fn equal_times_pop_in_push_order_across_the_clock() {
        let mut q = EventQueue::default();
        q.push(5.0, EventKind::Ready, 0, 0); // pushed at 0
        q.push(0.5, EventKind::Ready, 1, 0);
        q.push(5.0, EventKind::TaskDone, 2, 0); // pushed at 0
        assert_eq!(q.pop().map(|e| e.a), Some(1)); // the clock is now 0.5
        q.push(4.0, EventKind::Ready, 3, 0);
        q.push(5.0, EventKind::Arrive, 4, 0); // pushed at 0.5
        assert_eq!(q.pop().map(|e| e.a), Some(3)); // the clock is now 4.0
        q.push(5.0, EventKind::Ready, 5, 0); // pushed at 4.0
        assert_eq!(q.pop().map(|e| e.a), Some(0)); // the clock is now 5.0
        q.push(5.0, EventKind::Ready, 6, 0); // pushed at 5.0
        q.push(5.0, EventKind::Ready, 7, 0);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.a)).collect();
        assert_eq!(order, [2, 4, 5, 6, 7]);
    }

    /// An entry stamped `now` that was pushed before the clock reached it
    /// pops before an entry pushed once the clock was there.
    #[test]
    fn a_same_time_entry_pushed_earlier_pops_before_one_pushed_at_now() {
        let mut q = EventQueue::default();
        q.push(0.0, EventKind::Ready, 0, 0);
        assert_eq!(q.pop().map(|e| e.a), Some(0));
        q.push(1.0, EventKind::TaskDone, 1, 0); // pushed before the clock reached 1.0
        q.push(1.0, EventKind::TaskDone, 2, 0); // the same instant
        assert_eq!(q.pop().map(|e| e.a), Some(1)); // the clock is now 1.0
        q.push(1.0, EventKind::Ready, 3, 0); // pushed at now
        assert_eq!(q.pop().map(|e| e.a), Some(2), "the entry pushed earlier goes first");
        q.push(1.0, EventKind::Ready, 4, 0);
        assert_eq!(q.pop().map(|e| e.a), Some(3));
        assert_eq!(q.pop().map(|e| e.a), Some(4));
        assert!(q.pop().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed at simulated time")]
    fn a_push_into_the_past_is_caught() {
        let mut q = EventQueue::default();
        q.push(2.0, EventKind::Ready, 0, 0);
        q.pop();
        q.push(1.0, EventKind::Ready, 1, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed at simulated time")]
    fn a_nan_time_is_caught() {
        EventQueue::default().push(f64::NAN, EventKind::Ready, 0, 0);
    }
}
