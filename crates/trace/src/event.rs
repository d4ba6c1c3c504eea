//! The event vocabulary shared by the mpisim and DES backends.
//!
//! Both backends classify work and traffic with the same [`CollKind`]
//! labels, so traces from a threaded mpisim run and a simulated DES replay
//! of the same supernodal schedule are directly comparable.

/// The restricted collective (or other activity) an event is accounted to.
///
/// The first six variants are the phases of the selected-inversion sweep as
/// named in the paper; `Bcast`/`Reduce` cover bare tree collectives outside
/// any phase (e.g. microbenchmarks), and `Compute` covers local task
/// execution in the DES backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CollKind {
    /// Broadcast of the inverted diagonal block down the column.
    DiagBcast = 0,
    /// Transpose exchange of L column blocks to the row.
    Transpose = 1,
    /// `Col-Bcast`: broadcast of L column blocks within the column.
    ColBcast = 2,
    /// `Row-Reduce`: reduction of update contributions within the row.
    RowReduce = 3,
    /// Reduction of diagonal-block contributions.
    DiagReduce = 4,
    /// Redistribution of computed Ainv blocks back across the anti-diagonal.
    AinvTranspose = 5,
    /// A bare tree broadcast outside any selected-inversion phase.
    Bcast = 6,
    /// A bare tree reduction outside any selected-inversion phase.
    Reduce = 7,
    /// Barrier-style synchronization.
    Barrier = 8,
    /// Local computation (DES task execution).
    Compute = 9,
    /// Anything not otherwise classified.
    Other = 10,
}

impl CollKind {
    /// Every kind, in index order.
    pub const ALL: [CollKind; 11] = [
        CollKind::DiagBcast,
        CollKind::Transpose,
        CollKind::ColBcast,
        CollKind::RowReduce,
        CollKind::DiagReduce,
        CollKind::AinvTranspose,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Barrier,
        CollKind::Compute,
        CollKind::Other,
    ];

    /// Dense index for table/array keying.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`CollKind::index`].
    pub fn from_index(i: usize) -> Option<CollKind> {
        Self::ALL.get(i).copied()
    }

    /// Stable display name (used in Chrome traces and summary tables).
    pub fn name(self) -> &'static str {
        match self {
            CollKind::DiagBcast => "DiagBcast",
            CollKind::Transpose => "Transpose",
            CollKind::ColBcast => "ColBcast",
            CollKind::RowReduce => "RowReduce",
            CollKind::DiagReduce => "DiagReduce",
            CollKind::AinvTranspose => "AinvTranspose",
            CollKind::Bcast => "Bcast",
            CollKind::Reduce => "Reduce",
            CollKind::Barrier => "Barrier",
            CollKind::Compute => "Compute",
            CollKind::Other => "Other",
        }
    }
}

/// Span/event key: a supernode index, or [`NO_KEY`] when there is none.
pub const NO_KEY: u64 = u64::MAX;

/// What a fault-injection (or fault-masking) incident did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A message left this rank with injected extra latency.
    Delayed,
    /// A message left this rank twice (injected duplication).
    Duplicated,
    /// A message was held back and overtaken by a later one (injected
    /// reordering).
    Reordered,
    /// The receive side recognized and dropped a stale duplicate
    /// (the masking layer working as intended).
    DuplicateSuppressed,
    /// This rank crashed (injected).
    Crashed,
    /// This rank stopped making progress (injected).
    Stalled,
    /// A message was lost in flight (injected loss).
    Dropped,
    /// The reliable transport re-sent an unacknowledged message after its
    /// retransmission deadline expired.
    Retransmit,
}

impl FaultKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Delayed => "delayed",
            FaultKind::Duplicated => "duplicated",
            FaultKind::Reordered => "reordered",
            FaultKind::DuplicateSuppressed => "dup-suppressed",
            FaultKind::Crashed => "crashed",
            FaultKind::Stalled => "stalled",
            FaultKind::Dropped => "dropped",
            FaultKind::Retransmit => "retransmit",
        }
    }
}

/// One recorded event on one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time in microseconds (wall time for mpisim, simulated time
    /// for the DES backend).
    pub ts_us: u64,
    pub kind: EventKind,
}

/// Payload of a [`TraceEvent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: a collective keyed by `(coll, key)` or a task.
    Span { coll: CollKind, key: u64, end_us: u64 },
    /// A point-to-point message left this rank. `clock` is the sender's
    /// Lamport clock at the send instant and `idx` the sender's monotonic
    /// send index, so `(rank, idx)` names this send uniquely across the
    /// whole run.
    MsgSend { peer: usize, tag: u64, bytes: u64, coll: CollKind, clock: u64, idx: u64 },
    /// A point-to-point message was consumed on this rank. `clock` is the
    /// receiver's Lamport clock *after* merging the sender's (`max + 1`);
    /// `idx` is the matching send's index on `peer`, making the pair
    /// `(peer, idx)` the causal edge back to the originating
    /// [`EventKind::MsgSend`].
    MsgRecv { peer: usize, tag: u64, bytes: u64, coll: CollKind, clock: u64, idx: u64 },
    /// The out-of-order stash changed size (emitted on change only).
    StashDepth { depth: usize },
    /// The number of nonblocking collectives in flight on this rank
    /// changed (emitted on change only) — the async engine's
    /// communication/computation overlap counter.
    Outstanding { count: usize },
    /// The running total of reliable-transport retransmissions issued by
    /// this rank changed (emitted once per retransmission) — the loss-
    /// recovery counter track.
    Retransmits { count: u64 },
    /// Time this rank spent blocked waiting for a message, classified
    /// Scalasca-style: `wait_us` is late-sender time (blocked before the
    /// matching send was even issued), `transfer_us` is the remainder of
    /// the blocked interval (the message was in flight / being drained).
    /// `ts_us` is the moment the receive was posted (mpisim) or the rank
    /// went idle (DES). `cause`, when known, is the `(sender rank, send
    /// idx)` of the message whose arrival ended the wait — the causal edge
    /// blame-chain extraction follows upstream.
    Wait { coll: CollKind, key: u64, wait_us: u64, transfer_us: u64, cause: Option<(usize, u64)> },
    /// A fault was injected on (or masked by) this rank.
    Fault { what: FaultKind, peer: usize, tag: u64 },
}

impl TraceEvent {
    /// One-line human-readable rendition, used in stall diagnostics
    /// ("trace tail") and debugging output.
    pub fn describe(&self) -> String {
        let t = self.ts_us;
        match &self.kind {
            EventKind::Span { coll, key, end_us } => {
                format!("[{t} µs] span {} key={key} ({} µs)", coll.name(), end_us - t)
            }
            EventKind::MsgSend { peer, tag, bytes, coll, clock, idx } => {
                format!(
                    "[{t} µs] send -> {peer} tag={tag} {bytes} B ({}) clk={clock} idx={idx}",
                    coll.name()
                )
            }
            EventKind::MsgRecv { peer, tag, bytes, coll, clock, idx } => {
                format!(
                    "[{t} µs] recv <- {peer} tag={tag} {bytes} B ({}) clk={clock} idx={idx}",
                    coll.name()
                )
            }
            EventKind::StashDepth { depth } => format!("[{t} µs] stash depth {depth}"),
            EventKind::Outstanding { count } => {
                format!("[{t} µs] outstanding collectives {count}")
            }
            EventKind::Retransmits { count } => {
                format!("[{t} µs] retransmissions so far {count}")
            }
            EventKind::Wait { coll, wait_us, transfer_us, cause, .. } => {
                let by = cause.map_or(String::new(), |(r, i)| format!(", ended by {r}:{i}"));
                format!(
                    "[{t} µs] blocked {} µs (wait {wait_us} + transfer {transfer_us}, {}{by})",
                    wait_us + transfer_us,
                    coll.name()
                )
            }
            EventKind::Fault { what, peer, tag } => {
                format!("[{t} µs] fault {} peer={peer} tag={tag}", what.name())
            }
        }
    }
}

/// Packs `(coll, supernode)` into the 32-bit task tag carried by DES task
/// graphs: the kind in the top 8 bits, the supernode in the low 24.
pub fn pack_task_tag(coll: CollKind, supernode: usize) -> u32 {
    debug_assert!(supernode < (1 << 24), "supernode {supernode} overflows task tag");
    ((coll.index() as u32) << 24) | (supernode as u32 & 0x00ff_ffff)
}

/// Inverse of [`pack_task_tag`].
pub fn unpack_task_tag(tag: u32) -> (CollKind, usize) {
    let coll = CollKind::from_index((tag >> 24) as usize).unwrap_or(CollKind::Other);
    (coll, (tag & 0x00ff_ffff) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for k in CollKind::ALL {
            assert_eq!(CollKind::from_index(k.index()), Some(k));
        }
        assert_eq!(CollKind::from_index(CollKind::ALL.len()), None);
    }

    #[test]
    fn task_tag_roundtrip() {
        for k in CollKind::ALL {
            for sn in [0usize, 1, 1023, (1 << 24) - 1] {
                assert_eq!(unpack_task_tag(pack_task_tag(k, sn)), (k, sn));
            }
        }
    }
}
