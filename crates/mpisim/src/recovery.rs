//! Online crash recovery for tree collectives.
//!
//! An online re-implementation of the offline `figures -- faults` rebuild
//! study. Survivors of a confirmed rank death (the run's crash board is
//! the failure detector's ground truth; a `recv_timeout` suspicion deadline
//! decides *when* to consult it) rebuild each affected collective tree with
//! `TreeBuilder::rebuild_excluding`, re-home their orphaned edges via JOIN
//! requests on a dedicated tag lane, and take the re-issued payload on the
//! repair lane. Only collectives whose payload *source* died are
//! irreparable; they are reported as stranded instead of hanging the run.
//!
//! **Why a re-homed edge needs no fence.** The repair lane is the fence:
//! `(new parent, REPAIR_LANE | tag)` carries nothing but answers to JOINs,
//! every one of them sent after the crash, and each carries the one payload
//! of collective `tag` from the server's cache. A repair that arrives late
//! — answering a JOIN of an earlier dead set, or a re-JOIN of the same one
//! — is byte for byte the repair the orphan is waiting for, so the orphan
//! takes whichever comes first and a server answers each `(tag, requester)`
//! once.

use crate::payload::Payload;
use crate::runtime::{RankCtx, RankVolume, JOIN_LANE, LANE_MASK, REPAIR_LANE};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// What online crash recovery did during a
/// [`try_run_recover`](crate::try_run_recover) run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Ranks confirmed dead on the crash board, ascending.
    pub dead_ranks: Vec<usize>,
    /// Distinct collectives whose tree some survivor rebuilt around the
    /// dead set.
    pub rebuilt_trees: u64,
    /// Payload bytes re-issued in answer to orphan JOIN requests.
    pub reissued_bytes: u64,
    /// JOIN requests orphans sent to their rebuilt-tree parents.
    pub joins: u64,
    /// Tags of collectives no survivor could deliver because the payload
    /// source itself died (the irreducibly lost work), ascending.
    pub stranded_supernodes: Vec<u64>,
}

/// What a recovery-mode run yields: per-rank results (`None` for
/// casualties), per-rank volumes (zero for casualties) and the populated
/// [`RecoveryReport`].
pub type RecoverOutcome<R> = (Vec<Option<R>>, Vec<RankVolume>, RecoveryReport);

/// The run-wide state of crash recovery, one value per
/// [`try_run_recover`](crate::try_run_recover) run: the confirmed-death
/// board, the epilogue gate and the tallies its [`RecoveryReport`] is built
/// from. No other entry point has one.
pub(crate) struct CrashBoard {
    /// `crashed[r]` is set when rank `r` died, before its thread is marked
    /// done: survivors reading the board never see a finished-but-unlisted
    /// casualty.
    crashed: Vec<AtomicBool>,
    /// Ranks whose user function has returned: a finished survivor keeps
    /// serving repair requests until every survivor is here.
    user_done: AtomicUsize,
    /// What the report counts, written off the message path.
    tally: Mutex<Tally>,
}

#[derive(Default)]
struct Tally {
    rebuilt: BTreeSet<u64>,
    stranded: BTreeSet<u64>,
    reissued_bytes: u64,
    joins: u64,
}

impl CrashBoard {
    pub(crate) fn new(nranks: usize) -> Self {
        Self {
            crashed: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            user_done: AtomicUsize::new(0),
            tally: Mutex::new(Tally::default()),
        }
    }

    /// Confirms the death of `rank`.
    pub(crate) fn mark_crashed(&self, rank: usize) {
        self.crashed[rank].store(true, Ordering::Release);
    }

    /// Whether `rank` is confirmed dead.
    fn is_crashed(&self, rank: usize) -> bool {
        self.crashed[rank].load(Ordering::Acquire)
    }

    /// The ranks confirmed dead so far, ascending. A slow rank is never
    /// here: this is the ground truth a suspicion timeout is checked
    /// against.
    fn dead(&self) -> Vec<usize> {
        (0..self.crashed.len()).filter(|&r| self.is_crashed(r)).collect()
    }

    /// Whether every survivor's user function is complete.
    fn all_user_done(&self) -> bool {
        self.user_done.load(Ordering::Acquire) + self.dead().len() >= self.crashed.len()
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, Tally> {
        self.tally.lock().expect("no rank panics while it holds the tally")
    }

    /// The report of the finished run.
    pub(crate) fn report(&self) -> RecoveryReport {
        let t = self.tally();
        RecoveryReport {
            dead_ranks: self.dead(),
            rebuilt_trees: t.rebuilt.len() as u64,
            reissued_bytes: t.reissued_bytes,
            joins: t.joins,
            stranded_supernodes: t.stranded.iter().copied().collect(),
        }
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
    /// `(tag, requester)` JOINs that arrived before this rank had the
    /// payload.
    pending: Vec<(u64, usize)>,
    /// `(tag, requester)` pairs already served. JOINs are re-sent on every
    /// suspicion expiry, and one answer serves them all: it is the
    /// collective's only payload.
    served: HashSet<(u64, usize)>,
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

    /// Answers queued and newly arrived JOIN requests from the payload
    /// cache. Runs between receive slices and in [`Recovery::finish`].
    fn serve_joins(&mut self, ctx: &mut RankCtx, board: &CrashBoard) {
        while let Some(m) = ctx.try_take_lane(JOIN_LANE) {
            self.pending.push((m.tag & !LANE_MASK, m.src));
        }
        let Self { cache, pending, served, .. } = self;
        pending.retain(|&(tag, requester)| {
            if served.contains(&(tag, requester)) || board.is_crashed(requester) {
                return false;
            }
            let Some(p) = cache.get(&tag) else { return true };
            board.tally().reissued_bytes += p.bytes();
            ctx.send(requester, REPAIR_LANE | tag, p.clone());
            served.insert((tag, requester));
            false
        });
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
    /// payload cache. Runs only under
    /// [`try_run_recover`](crate::try_run_recover).
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
        let board = ctx.crash_board();
        let me = ctx.rank();
        let root = tree.root();
        self.dead = board.dead();
        self.serve_joins(ctx, &board);
        if me == root {
            let payload = Payload::from(data.expect("root must provide the broadcast payload"));
            self.forward(ctx, tree, tag, &payload);
            self.complete(ctx, &board, tag, payload.clone());
            return Some(payload);
        }
        let mut src = tree
            .parent_of(me)
            .unwrap_or_else(|| panic!("rank {me} is not a participant of this broadcast"));
        let mut src_tag = tag;
        let mut waited = Instant::now();
        loop {
            self.serve_joins(ctx, &board);
            if board.is_crashed(root) {
                // The payload source died: no survivor can ever produce
                // this collective's data. Record the stranded supernode
                // and degrade instead of hanging.
                self.dead = board.dead();
                board.tally().stranded.insert(tag);
                return None;
            }
            // Fast path: a sender already on the confirmed-dead board will
            // never speak again, so later collectives re-home immediately
            // instead of paying the suspicion timeout once per tree.
            let parent_confirmed_dead = src_tag == tag && {
                self.dead = board.dead();
                self.dead.contains(&src)
            };
            if !parent_confirmed_dead {
                match ctx.recv_timeout(src, src_tag, self.cfg.slice) {
                    Ok(p) => {
                        self.forward(ctx, tree, tag, &p);
                        self.complete(ctx, &board, tag, p.clone());
                        return Some(p);
                    }
                    Err(_) if waited.elapsed() >= self.cfg.suspect_after => {
                        waited = Instant::now();
                        self.dead = board.dead();
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
            // The JOIN carries no payload: its sender is the requester.
            let rebuilt = builder.rebuild_excluding(tree, &self.dead, key);
            board.tally().rebuilt.insert(tag);
            let Some(np) = rebuilt.parent_of(me) else {
                // Promoted to rebuilt root without the payload: only
                // possible when the original root died, which the stranded
                // check above will catch on the next spin once the board
                // confirms it.
                continue;
            };
            src = np;
            src_tag = REPAIR_LANE | tag;
            board.tally().joins += 1;
            ctx.send(np, JOIN_LANE | tag, Payload::empty());
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
    fn complete(&mut self, ctx: &mut RankCtx, board: &CrashBoard, tag: u64, payload: Payload) {
        self.cache.insert(tag, payload);
        self.serve_joins(ctx, board);
    }

    /// Recovery epilogue: call once after the rank's last collective. The
    /// rank keeps serving JOIN requests until every survivor's user work is
    /// complete, so a repair chain can still route through ranks that
    /// finished early.
    pub fn finish(&mut self, ctx: &mut RankCtx) {
        let board = ctx.crash_board();
        board.user_done.fetch_add(1, Ordering::AcqRel);
        while !board.all_user_done() {
            self.serve_joins(ctx, &board);
            std::thread::sleep(self.cfg.slice);
        }
        self.serve_joins(ctx, &board);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{try_run_recover, RunOptions};

    #[test]
    fn the_board_lists_deaths_gates_the_epilogue_and_builds_the_report() {
        let board = CrashBoard::new(4);
        board.mark_crashed(2);
        board.mark_crashed(0);
        assert_eq!(board.dead(), [0, 2]);
        assert!(!board.is_crashed(1));
        // Two survivors: the epilogue waits for both.
        board.user_done.fetch_add(1, Ordering::AcqRel);
        assert!(!board.all_user_done());
        board.user_done.fetch_add(1, Ordering::AcqRel);
        assert!(board.all_user_done());
        {
            let mut t = board.tally();
            t.rebuilt.extend([5, 7, 5]);
            t.stranded.extend([9, 3]);
            t.reissued_bytes += 24;
            t.joins += 3;
        }
        let want = RecoveryReport {
            dead_ranks: vec![0, 2],
            rebuilt_trees: 2,
            reissued_bytes: 24,
            joins: 3,
            stranded_supernodes: vec![3, 9],
        };
        assert_eq!(board.report(), want);
    }

    /// Ranks 1 and 2 each JOIN collective 40 twice before rank 0 has its
    /// payload. Rank 0 queues all four, answers each requester once when
    /// the payload arrives, and answers nothing twice.
    #[test]
    fn a_server_answers_each_requester_once_per_collective() {
        const TAG: u64 = 40;
        let payload = || Payload::from(vec![1.5, 2.5]);
        let (results, volumes, report) = try_run_recover(3, &RunOptions::default(), |ctx| {
            let board = ctx.crash_board();
            let mut rec = Recovery::new(RecoveryConfig::default());
            if ctx.rank() == 0 {
                // Each marker follows its sender's JOINs on one channel.
                for r in [1, 2] {
                    ctx.recv(r, 1);
                }
                rec.serve_joins(ctx, &board);
                assert_eq!(rec.pending.len(), 4, "no payload yet: every JOIN waits");
                rec.complete(ctx, &board, TAG, payload());
                rec.serve_joins(ctx, &board);
                assert!(rec.pending.is_empty());
                for r in [1, 2] {
                    ctx.send(r, 2, Payload::empty());
                }
                return None;
            }
            for _ in 0..2 {
                ctx.send(0, JOIN_LANE | TAG, Payload::empty());
            }
            ctx.send(0, 1, Payload::empty());
            let got = ctx.recv(0, REPAIR_LANE | TAG);
            ctx.recv(0, 2);
            // The marker came after every repair on the channel.
            assert!(ctx.try_match(0, REPAIR_LANE | TAG).is_none(), "a second repair");
            Some(got)
        })
        .expect("a clean run");
        for r in [1, 2] {
            assert_eq!(results[r], Some(Some(payload())), "rank {r}");
            assert_eq!(volumes[r].sent, 0, "a JOIN carries no payload");
        }
        assert_eq!(report.reissued_bytes, 2 * payload().bytes());
        assert_eq!(report.dead_ranks, Vec::<usize>::new());
    }
}
