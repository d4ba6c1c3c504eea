//! Nonblocking tree-collective state machines: the one implementation of
//! the tree protocol.
//!
//! Each machine posts its rank's tree edges as [`RecvRequest`]s
//! and advances on whatever arrives first, so a progress engine (PSelInv's
//! asynchronous phase-2 loop) can keep many collectives of many supernodes
//! in flight at once and drain them in arrival order. A loop drives them
//! through [`RankCtx::sweep_then_park`], which owns the lost-wakeup guard;
//! the blocking collectives in [`crate::collectives`] are such a loop
//! around a single machine.
//!
//! Determinism: a reduction consumes its children's contributions in
//! *arrival* order but holds each in its child's request; they are summed
//! in the tree's fixed child order, so the floating-point result does not
//! depend on timing.

use crate::payload::Payload;
use crate::requests::RecvRequest;
use crate::runtime::RankCtx;
use pselinv_trees::CollectiveTree;

/// A nonblocking tree broadcast on one rank (≈ the rank-local slice of an
/// `MPI_Ibcast` routed along a [`CollectiveTree`]).
///
/// The root completes (and forwards to its children) at [`TreeBcastNb::start`];
/// every other participant posts a receive from its parent and
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
    /// (packed once, with the copy accounted) and is immediately done;
    /// other participants post their parent receive; non-participants are
    /// immediately done with no payload.
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
                ctx.send(child, tag, payload.clone());
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
    /// payload is forwarded to this rank's children (zero-copy
    /// `Arc` clones). Returns [`TreeBcastNb::is_done`].
    pub fn poll(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) -> bool {
        let Some(req) = &mut self.req else { return true };
        if !req.test(ctx) {
            return false;
        }
        let payload =
            self.req.take().and_then(RecvRequest::take).expect("completed request has a payload");
        for child in tree.children_of(ctx.rank()) {
            ctx.send(child, self.tag, payload.clone());
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
/// Contributions are matched in arrival order, each held by its child's
/// completed request; once every request is done they are summed in the
/// tree's fixed child order on top of the local contribution, then
/// forwarded to the parent (or kept as the result at the root).
#[derive(Debug)]
pub struct TreeReduceNb {
    tag: u64,
    /// One receive per child, in the tree's fixed child order.
    reqs: Vec<RecvRequest>,
    /// This rank's own contribution until the final sum consumes it.
    local: Option<Vec<f64>>,
    /// `Some` at the root once complete.
    result: Option<Vec<f64>>,
}

impl TreeReduceNb {
    /// Starts the reduction on this rank with its local contribution,
    /// posting one receive per child. A leaf that is not the
    /// root forwards immediately and is done.
    pub fn start(ctx: &mut RankCtx, tree: &CollectiveTree, tag: u64, local: Vec<f64>) -> Self {
        let reqs = tree.children_of(ctx.rank()).into_iter().map(|c| RecvRequest::post(c, tag));
        let mut nb = Self { tag, reqs: reqs.collect(), local: Some(local), result: None };
        nb.try_finish(ctx, tree);
        nb
    }

    /// `true` once this rank's part of the reduction is finished.
    pub fn is_done(&self) -> bool {
        self.local.is_none()
    }

    /// Non-blocking progress: matches any child contributions that have
    /// arrived; when the last one lands, sums and forwards. Returns
    /// [`TreeReduceNb::is_done`].
    pub fn poll(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) -> bool {
        if !self.is_done() {
            for r in &mut self.reqs {
                r.test(ctx);
            }
            self.try_finish(ctx, tree);
        }
        self.is_done()
    }

    /// Non-blocking progress on one child's arrival: tests only the pending
    /// receive from `src` (a progress loop that knows which message landed
    /// need not test the others); when it was the last one, sums and
    /// forwards. Returns [`TreeReduceNb::is_done`].
    pub fn poll_from(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree, src: usize) -> bool {
        if !self.is_done() {
            if let Some(r) = self.reqs.iter_mut().find(|r| r.src == src && !r.is_done()) {
                r.test(ctx);
            }
            self.try_finish(ctx, tree);
        }
        self.is_done()
    }

    /// If every child's contribution is in, performs the fixed-order sum and
    /// forwards/stores the total.
    fn try_finish(&mut self, ctx: &mut RankCtx, tree: &CollectiveTree) {
        if !self.reqs.iter().all(RecvRequest::is_done) {
            return;
        }
        let mut acc = self.local.take().expect("local contribution consumed once");
        for r in self.reqs.drain(..) {
            let contrib = r.take().expect("a done request holds its payload");
            assert_eq!(contrib.len(), acc.len(), "reduction contributions must have equal length");
            for (a, c) in acc.iter_mut().zip(contrib.iter()) {
                *a += c;
            }
        }
        if ctx.rank() == tree.root() {
            self.result = Some(acc);
        } else {
            let parent = tree
                .parent_of(ctx.rank())
                .unwrap_or_else(|| panic!("rank {} is not a participant", ctx.rank()));
            ctx.send(parent, self.tag, acc);
        }
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
    use crate::runtime::{run, BlockedOn, Progress};
    use pselinv_trees::{TreeBuilder, TreeScheme};

    fn schemes() -> Vec<TreeScheme> {
        vec![
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ]
    }

    /// `r`'s contribution plus its children's subtree totals, summed in
    /// `children_of` order: the arithmetic the tree prescribes, computed
    /// without a single message.
    fn subtree_sum(
        tree: &CollectiveTree,
        r: usize,
        contrib: &dyn Fn(usize) -> Vec<f64>,
    ) -> Vec<f64> {
        let mut acc = contrib(r);
        for c in tree.children_of(r) {
            for (a, x) in acc.iter_mut().zip(subtree_sum(tree, c, contrib)) {
                *a += x;
            }
        }
        acc
    }

    #[test]
    fn nb_bcast_delivers_with_the_tree_model_volumes() {
        for scheme in schemes() {
            let receivers: Vec<usize> = (1..9).collect();
            let tree = TreeBuilder::new(scheme, 11).build(0, &receivers, 5);
            let tree = &tree;
            let (results, vols) = run(9, move |ctx| {
                let data = (ctx.rank() == 0).then(|| vec![1.5, -2.0, 7.0]);
                let mut nb = TreeBcastNb::start(ctx, tree, 3, data);
                ctx.sweep_then_park(BlockedOn::ANY, |ctx| {
                    Progress::done_or_idle(nb.poll(ctx, tree))
                });
                nb.into_payload().expect("participant gets the payload").to_vec()
            });
            assert!(results.iter().all(|r| r == &[1.5, -2.0, 7.0]), "{scheme}");
            let mut sent = vec![0u64; 9];
            pselinv_trees::bcast_sent_volume(tree, 24, &mut sent);
            for (r, v) in vols.iter().enumerate() {
                assert_eq!(v.sent, sent[r], "{scheme} rank {r}");
                assert_eq!(v.received, if r == 0 { 0 } else { 24 }, "{scheme} rank {r}");
            }
            assert_eq!(vols.iter().map(|v| v.copied).sum::<u64>(), 24, "{scheme}: one packing");
        }
    }

    #[test]
    fn nb_reduce_is_bit_identical_to_the_fixed_order_sum() {
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
                ctx.sweep_then_park(BlockedOn::ANY, |ctx| {
                    Progress::done_or_idle(nb.poll(ctx, tree))
                });
                nb.into_result()
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let root = nbr[0].as_ref().expect("root result");
            assert_eq!(
                bits(root),
                bits(&subtree_sum(tree, 0, &contrib)),
                "{scheme}: arrival-order consumption changed the bits"
            );
            assert!(nbr[1..].iter().all(Option::is_none), "{scheme}");
            let mut received = vec![0u64; 10];
            pselinv_trees::reduce_received_volume(tree, 32, &mut received);
            for (r, v) in nbv.iter().enumerate() {
                assert_eq!(v.received, received[r], "{scheme} rank {r}");
                assert_eq!(v.sent, if r == 0 { 0 } else { 32 }, "{scheme} rank {r}");
            }
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
            ctx.sweep_then_park(BlockedOn::ANY, |ctx| {
                let mut all = true;
                for (k, b) in bcasts.iter_mut().enumerate() {
                    all &= b.poll(ctx, &trees[k]);
                }
                for (k, r) in reduces.iter_mut().enumerate() {
                    all &= r.poll(ctx, &trees[k]);
                }
                Progress::done_or_idle(all)
            });
            let bsum: f64 = bcasts.iter().map(|b| b.payload().unwrap()[0]).sum();
            let rsum: f64 = reduces.into_iter().filter_map(|r| r.into_result()).map(|v| v[0]).sum();
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
