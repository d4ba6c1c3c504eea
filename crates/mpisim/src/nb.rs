//! Nonblocking tree-collective state machines.
//!
//! The blocking collectives in [`crate::collectives`] park the rank inside
//! one broadcast or reduction at a time. These state machines post the
//! same sequenced tree edges as [`RecvRequest`]s and advance on whatever
//! arrives first, so a progress engine (PSelInv's asynchronous phase-2
//! loop) can keep many collectives of many supernodes in flight at once
//! and drain them in arrival order. A loop that polls more than one
//! request and then parks in [`RankCtx::wait_for_arrival`] must use the
//! [`RankCtx::arrivals`] guard, or a message stashed mid-sweep is a lost
//! wakeup.
//!
//! Determinism: a nonblocking reduction consumes its children's
//! contributions in *arrival* order but parks each in a per-child slot;
//! the slots are summed in the tree's fixed child order, so the floating-
//! point result is bit-identical to the blocking [`tree_reduce`]
//! (which receives and accumulates in exactly that child order).
//!
//! [`tree_reduce`]: crate::collectives::tree_reduce

use crate::payload::Payload;
use crate::requests::RecvRequest;
use crate::runtime::RankCtx;
use pselinv_trees::CollectiveTree;

/// A nonblocking tree broadcast on one rank (≈ the rank-local slice of an
/// `MPI_Ibcast` routed along a [`CollectiveTree`]).
///
/// The root completes (and forwards to its children) at [`TreeBcastNb::start`];
/// every other participant posts a sequenced receive from its parent and
/// forwards downstream the moment [`TreeBcastNb::poll`] matches it.
#[derive(Debug)]
pub struct TreeBcastNb {
    tag: u64,
    /// Pending receive from the parent (`None` once matched, or for the
    /// root / non-participants).
    req: Option<RecvRequest>,
    /// The broadcast payload once it is available on this rank.
    payload: Option<Payload>,
}

impl TreeBcastNb {
    /// Starts the broadcast on this rank. The root must pass `Some(data)`
    /// (packed once, with the copy accounted exactly like the blocking
    /// broadcast) and is immediately done; other participants post their
    /// parent receive; non-participants are immediately done with no
    /// payload.
    pub fn start<P: crate::payload::IntoPayload>(
        ctx: &mut RankCtx,
        tree: &CollectiveTree,
        tag: u64,
        data: Option<P>,
    ) -> Self {
        let me = ctx.rank();
        if me == tree.root() {
            let (payload, copied) =
                data.expect("root must provide the broadcast payload").into_payload();
            ctx.account_copy(copied);
            for child in tree.children_of(me) {
                ctx.send_seq(child, tag, payload.clone());
            }
            Self { tag, req: None, payload: Some(payload) }
        } else if let Some(parent) = tree.parent_of(me) {
            Self { tag, req: Some(RecvRequest::post(parent, tag)), payload: None }
        } else {
            Self { tag, req: None, payload: None }
        }
    }

    /// `true` once this rank's part of the broadcast is finished.
    pub fn is_done(&self) -> bool {
        self.req.is_none()
    }

    /// Non-blocking progress. On the arrival of the parent's message the
    /// payload is forwarded to this rank's children (sequenced, zero-copy
    /// `Arc` clones). Returns [`TreeBcastNb::is_done`].
    pub fn poll(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) -> bool {
        let Some(req) = &mut self.req else { return true };
        if !req.test(ctx) {
            return false;
        }
        let payload =
            self.req.take().and_then(RecvRequest::take).expect("completed request has a payload");
        for child in tree.children_of(ctx.rank()) {
            ctx.send_seq(child, self.tag, payload.clone());
        }
        self.payload = Some(payload);
        true
    }

    /// The broadcast payload, once available (`None` while pending and on
    /// non-participants).
    pub fn payload(&self) -> Option<&Payload> {
        self.payload.as_ref()
    }

    /// Consumes the machine, returning the payload if it ever arrived.
    pub fn into_payload(self) -> Option<Payload> {
        self.payload
    }
}

/// A nonblocking tree reduction (element-wise sum) on one rank.
///
/// Contributions are matched in arrival order but parked in per-child
/// slots; once every slot is filled they are summed in the tree's fixed
/// child order on top of the local contribution, then forwarded to the
/// parent (or kept as the result at the root). Bit-identical to the
/// blocking [`tree_reduce`](crate::collectives::tree_reduce).
#[derive(Debug)]
pub struct TreeReduceNb {
    tag: u64,
    /// Pending receives, parallel to `slots` (fixed child order).
    reqs: Vec<Option<RecvRequest>>,
    /// Arrived contributions, parallel to `reqs`.
    slots: Vec<Option<Payload>>,
    /// This rank's own contribution until the final sum consumes it.
    local: Option<Vec<f64>>,
    /// `Some` at the root once complete.
    result: Option<Vec<f64>>,
    done: bool,
}

impl TreeReduceNb {
    /// Starts the reduction on this rank with its local contribution,
    /// posting one sequenced receive per child. A leaf that is not the
    /// root forwards immediately and is done.
    pub fn start(ctx: &mut RankCtx, tree: &CollectiveTree, tag: u64, local: Vec<f64>) -> Self {
        let children = tree.children_of(ctx.rank());
        let reqs: Vec<Option<RecvRequest>> =
            children.iter().map(|&c| Some(RecvRequest::post(c, tag))).collect();
        let slots = vec![None; children.len()];
        let mut nb = Self { tag, reqs, slots, local: Some(local), result: None, done: false };
        nb.try_finish(ctx, tree);
        nb
    }

    /// `true` once this rank's part of the reduction is finished.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Non-blocking progress: matches any child contributions that have
    /// arrived; when the last slot fills, sums and forwards. Returns
    /// [`TreeReduceNb::is_done`].
    pub fn poll(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) -> bool {
        if self.done {
            return true;
        }
        for (req, slot) in self.reqs.iter_mut().zip(self.slots.iter_mut()) {
            let Some(r) = req else { continue };
            if r.test(ctx) {
                *slot = req.take().and_then(RecvRequest::take);
            }
        }
        self.try_finish(ctx, tree);
        self.done
    }

    /// If every child slot is filled, performs the fixed-order sum and
    /// forwards/stores the total.
    fn try_finish(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) {
        if self.done || self.slots.iter().any(Option::is_none) {
            return;
        }
        let mut acc = self.local.take().expect("local contribution consumed once");
        for slot in &self.slots {
            let contrib = slot.as_ref().expect("all slots filled");
            assert_eq!(contrib.len(), acc.len(), "reduction contributions must have equal length");
            for (a, c) in acc.iter_mut().zip(contrib.iter()) {
                *a += c;
            }
        }
        self.slots.clear();
        if ctx.rank() == tree.root() {
            self.result = Some(acc);
        } else {
            let parent = tree
                .parent_of(ctx.rank())
                .unwrap_or_else(|| panic!("rank {} is not a participant", ctx.rank()));
            ctx.send_seq(parent, self.tag, acc);
        }
        self.done = true;
    }

    /// Consumes the machine, returning the reduced total at the root
    /// (`None` elsewhere).
    pub fn into_result(self) -> Option<Vec<f64>> {
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{tree_bcast, tree_reduce};
    use crate::runtime::run;
    use pselinv_trees::{TreeBuilder, TreeScheme};

    fn schemes() -> Vec<TreeScheme> {
        vec![
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ]
    }

    #[test]
    fn nb_bcast_matches_blocking_bcast() {
        for scheme in schemes() {
            let receivers: Vec<usize> = (1..9).collect();
            let tree = TreeBuilder::new(scheme, 11).build(0, &receivers, 5);
            let tree = &tree;
            let (results, vols) = run(9, move |ctx| {
                let data = (ctx.rank() == 0).then(|| vec![1.5, -2.0, 7.0]);
                let mut nb = TreeBcastNb::start(ctx, tree, 3, data);
                while !nb.poll(ctx, tree) {
                    ctx.wait_for_arrival();
                }
                nb.into_payload().expect("participant gets the payload").to_vec()
            });
            let (expect, evols) = run(9, move |ctx| {
                tree_bcast(ctx, tree, 3, (ctx.rank() == 0).then(|| vec![1.5, -2.0, 7.0])).to_vec()
            });
            assert_eq!(results, expect, "{scheme}");
            assert_eq!(vols, evols, "{scheme} volumes");
        }
    }

    #[test]
    fn nb_reduce_is_bit_identical_to_blocking_reduce() {
        for scheme in schemes() {
            let receivers: Vec<usize> = (1..10).collect();
            let tree = TreeBuilder::new(scheme, 3).build(0, &receivers, 9);
            let tree = &tree;
            // Contributions chosen so summation order matters in floating
            // point: mixing huge and tiny magnitudes.
            let contrib = |r: usize| -> Vec<f64> {
                (0..4).map(|i| (r as f64 + 1.0).powi(18 - i) * 1e-6).collect()
            };
            let (nbr, nbv) = run(10, move |ctx| {
                let mut nb = TreeReduceNb::start(ctx, tree, 4, contrib(ctx.rank()));
                loop {
                    // Testing one child's request can stash another's
                    // message: park only if nothing came off the inbox.
                    let seen = ctx.arrivals();
                    if nb.poll(ctx, tree) {
                        break;
                    }
                    if ctx.arrivals() == seen {
                        ctx.wait_for_arrival();
                    }
                }
                nb.into_result()
            });
            let (blr, blv) = run(10, move |ctx| tree_reduce(ctx, tree, 4, contrib(ctx.rank())));
            let a = nbr[0].as_ref().expect("root result");
            let b = blr[0].as_ref().expect("root result");
            let ab: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(ab, bb, "{scheme}: arrival-order consumption changed the bits");
            for r in 1..10 {
                assert!(nbr[r].is_none());
            }
            assert_eq!(nbv, blv, "{scheme} volumes");
        }
    }

    #[test]
    fn many_overlapping_nb_collectives_complete() {
        // Eight broadcasts and eight reductions of one tree family, all in
        // flight at once on every rank, drained by one progress loop.
        let receivers: Vec<usize> = (1..8).collect();
        let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, 17);
        let trees: Vec<_> = (0..8u64).map(|k| builder.build(0, &receivers, k)).collect();
        let trees = &trees;
        let (results, _) = run(8, move |ctx| {
            let me = ctx.rank();
            let mut bcasts: Vec<TreeBcastNb> = trees
                .iter()
                .enumerate()
                .map(|(k, t)| {
                    let data = (me == 0).then(|| Payload::from(vec![k as f64; 3]));
                    TreeBcastNb::start(ctx, t, 100 + k as u64, data)
                })
                .collect();
            let mut reduces: Vec<TreeReduceNb> = trees
                .iter()
                .enumerate()
                .map(|(k, t)| {
                    TreeReduceNb::start(ctx, t, 200 + k as u64, vec![(me * (k + 1)) as f64])
                })
                .collect();
            loop {
                // The `arrivals` guard of every multi-request progress loop:
                // a poll late in the sweep drains the inbox into the stash
                // behind requests already polled, and the stash never wakes
                // `wait_for_arrival`.
                let seen = ctx.arrivals();
                let mut all = true;
                for (k, b) in bcasts.iter_mut().enumerate() {
                    all &= b.poll(ctx, &trees[k]);
                }
                for (k, r) in reduces.iter_mut().enumerate() {
                    all &= r.poll(ctx, &trees[k]);
                }
                if all {
                    break;
                }
                if ctx.arrivals() == seen {
                    ctx.wait_for_arrival();
                }
            }
            let bsum: f64 = bcasts.iter().map(|b| b.payload().unwrap()[0]).sum();
            let rsum: f64 = reduces
                .iter_mut()
                .map(|_| 0.0) // placeholder; results taken below at root only
                .sum::<f64>()
                + if me == 0 {
                    let mut s = 0.0;
                    for r in reduces {
                        s += r.into_result().unwrap()[0];
                    }
                    s
                } else {
                    0.0
                };
            (bsum, rsum)
        });
        let bcast_expect: f64 = (0..8).map(|k| k as f64).sum();
        for (r, (bsum, _)) in results.iter().enumerate() {
            assert_eq!(*bsum, bcast_expect, "rank {r}");
        }
        // Σ over k of Σ over ranks of rank*(k+1)
        let ranks_sum: f64 = (0..8).sum::<usize>() as f64;
        let reduce_expect: f64 = (1..=8).map(|k| ranks_sum * k as f64).sum();
        assert_eq!(results[0].1, reduce_expect);
    }
}
