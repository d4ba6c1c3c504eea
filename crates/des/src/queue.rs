//! The event queue of the simulator: 24-byte events popped in exact
//! `(time, seq)` order, where `seq` counts pushes.
//!
//! Two containers hold the pending events:
//!
//! * a 4-ary min-heap keyed by `(time, seq)` for events that lie in the
//!   future when they are pushed;
//! * a FIFO (the *now-queue*) for events pushed at exactly the current
//!   instant — zero-byte dependency releases, time-0 roots, zero-length
//!   tasks — which on the paper-scale graphs is a quarter of all events
//!   and would otherwise each pay a full heap round trip.
//!
//! [`EventQueue::pop`] takes heap entries stamped `now` first, then the
//! FIFO, and only then advances the clock. That is the `(time, seq)` order
//! itself, not an approximation of it:
//!
//! 1. every event is pushed with `time >= now` (asserted in debug builds),
//!    and the clock only advances when the FIFO is empty, so the FIFO only
//!    ever holds events stamped `now`;
//! 2. a heap entry stamped `now` was pushed while the clock was still
//!    earlier than `now` (pushed at `now`, it would have gone to the
//!    FIFO), hence before every FIFO entry, hence with a smaller `seq`
//!    than all of them;
//! 3. FIFO entries are in `seq` order by construction, and every other
//!    heap entry is later than `now`.
//!
//! Times are finite and non-negative, so their IEEE-754 bit patterns
//! order exactly as the numbers do and the heap compares integers.

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
    /// `seq << 2 | kind`: unique per event, so it orders like `seq`.
    key: u64,
    pub a: u32,
    pub b: u32,
}

impl Event {
    pub fn kind(&self) -> EventKind {
        match self.key & 3 {
            0 => EventKind::Ready,
            1 => EventKind::TaskDone,
            _ => EventKind::Arrive,
        }
    }

    /// `self` pops before `other`.
    fn before(&self, other: &Event) -> bool {
        (self.time.to_bits(), self.key) < (other.time.to_bits(), other.key)
    }
}

/// Children per heap node: half the levels of a binary heap, and the four
/// children of a node are adjacent in memory.
const ARITY: usize = 4;

#[derive(Default)]
pub(crate) struct EventQueue {
    heap: Vec<Event>,
    /// The now-queue: `fifo[head..]` is pending, in push order.
    fifo: Vec<Event>,
    head: usize,
    /// Time of the last event popped.
    now: f64,
    seq: u64,
}

impl EventQueue {
    pub fn push(&mut self, time: f64, kind: EventKind, a: u32, b: u32) {
        // The invariant both the bit-pattern ordering and the now-queue
        // rest on (`-0.0 >= 0.0` holds, so the sign is checked apart).
        debug_assert!(
            time.is_finite() && time.is_sign_positive() && time >= self.now,
            "event at {time:e} pushed at simulated time {:e}",
            self.now
        );
        let ev = Event { time, key: self.seq << 2 | kind as u64, a, b };
        self.seq += 1;
        if time == self.now {
            self.fifo.push(ev);
            return;
        }
        // Sift up, moving parents into the hole.
        let mut i = self.heap.len();
        self.heap.push(ev);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !ev.before(&self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = ev;
    }

    /// The event `pop` would return next if nothing is pushed before.
    pub fn peek(&self) -> Option<&Event> {
        let top = self.heap.first();
        match self.fifo.get(self.head) {
            Some(ev) if !top.is_some_and(|top| top.time == self.now) => Some(ev),
            _ => top,
        }
    }

    /// The next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        if self.head < self.fifo.len() {
            if self.heap.first().is_some_and(|top| top.time == self.now) {
                return self.pop_heap();
            }
            let ev = self.fifo[self.head];
            self.head += 1;
            if self.head == self.fifo.len() {
                self.fifo.clear();
                self.head = 0;
            }
            return Some(ev);
        }
        let ev = self.pop_heap()?;
        self.now = ev.time;
        Some(ev)
    }

    fn pop_heap(&mut self) -> Option<Event> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("the heap has a first element");
        let n = self.heap.len();
        if n == 0 {
            return Some(top);
        }
        // Sift `last` down from the root, moving the least child up.
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut least = first;
            for c in first + 1..(first + ARITY).min(n) {
                if self.heap[c].before(&self.heap[least]) {
                    least = c;
                }
            }
            if !self.heap[least].before(&last) {
                break;
            }
            self.heap[i] = self.heap[least];
            i = least;
        }
        self.heap[i] = last;
        Some(top)
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
                    assert_eq!(ev.kind() as u32, ev.b, "the kind survives the key packing");
                    now = time;
                    popped += 1;
                }
            }
            assert!(q.pop().is_none());
            assert!(popped > 100, "seed {seed}: only {popped} pops");
        }
    }

    /// The case the pop rule exists for: a heap entry stamped `now` was
    /// pushed before anything in the now-queue and must come out first.
    #[test]
    fn a_same_time_heap_entry_pops_before_the_now_queue() {
        let mut q = EventQueue::default();
        q.push(0.0, EventKind::Ready, 0, 0);
        assert_eq!(q.pop().map(|e| e.a), Some(0));
        q.push(1.0, EventKind::TaskDone, 1, 0); // heap
        q.push(1.0, EventKind::TaskDone, 2, 0); // heap, same instant
        assert_eq!(q.pop().map(|e| e.a), Some(1)); // the clock is now 1.0
        q.push(1.0, EventKind::Ready, 3, 0); // now-queue
        assert_eq!(q.pop().map(|e| e.a), Some(2), "the older heap entry goes first");
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
