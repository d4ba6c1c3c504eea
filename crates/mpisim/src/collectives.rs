//! Tree-routed restricted collectives over point-to-point messages.
//!
//! These are the paper's "light-weight asynchronous broadcast and reduction
//! functions that can be dynamically created with very little overhead":
//! every participant derives the same [`CollectiveTree`] locally (no
//! communicator creation, no synchronization) and exchanges point-to-point
//! messages along its edges. The blocking forms here start the
//! nonblocking state machine of [`crate::nb`] and drive it through
//! [`RankCtx::sweep_then_park`]: the tree protocol exists once.

use crate::nb::{TreeBcastNb, TreeReduceNb};
use crate::payload::{IntoPayload, Payload};
use crate::runtime::{BlockedOn, Progress, RankCtx};
use pselinv_trace::CollKind;
use pselinv_trees::CollectiveTree;

/// Opens the tracing window of one collective call: records this rank's
/// tree depth for per-depth byte attribution and (when no phase scope is
/// already open) a `(kind, tag)` span. Free when tracing is disabled — in
/// particular `depth_of` is never computed.
fn trace_enter(ctx: &mut RankCtx, kind: CollKind, tag: u64, tree: &CollectiveTree) -> bool {
    if !ctx.tracer().is_enabled() {
        return false;
    }
    let depth = tree.depth_of(ctx.rank());
    ctx.tracer().coll_enter(kind, tag, depth)
}

/// Broadcasts `data` from the tree's root to every participant.
///
/// The root passes `Some(data)`, everyone else `None`; all participants
/// return the payload. Non-participants must not call this.
///
/// Zero-copy forwarding ([`TreeBcastNb`]): the root packs its buffer once
/// (that one copy is counted) and every hop sends `Arc` clones of it, so
/// the broadcast's physical copy cost is O(1) payloads regardless of tree
/// shape or rank count.
pub fn tree_bcast<P: IntoPayload>(
    ctx: &mut RankCtx,
    tree: &CollectiveTree,
    tag: u64,
    data: Option<P>,
) -> Payload {
    let me = ctx.rank();
    let parent = tree.parent_of(me);
    assert!(
        parent.is_some() || me == tree.root(),
        "rank {me} is not a participant of this broadcast"
    );
    let pushed = trace_enter(ctx, CollKind::Bcast, tag, tree);
    let mut nb = TreeBcastNb::start(ctx, tree, tag, data);
    ctx.sweep_then_park(BlockedOn { src: parent, tag: Some(tag) }, |ctx| {
        Progress::done_or_idle(nb.poll(ctx, tree))
    });
    ctx.tracer().coll_exit(pushed);
    nb.into_payload().expect("a participant ends the broadcast with the payload")
}

/// Reduces (element-wise sum) every participant's `local` contribution onto
/// the tree's root. Returns `Some(total)` at the root, `None` elsewhere.
///
/// Children's contributions are summed in the tree's fixed child order
/// ([`TreeReduceNb`]), whatever order they arrive in, so the result is
/// bit-reproducible.
pub fn tree_reduce(
    ctx: &mut RankCtx,
    tree: &CollectiveTree,
    tag: u64,
    local: Vec<f64>,
) -> Option<Vec<f64>> {
    let me = ctx.rank();
    assert!(
        tree.parent_of(me).is_some() || me == tree.root(),
        "rank {me} is not a participant of this reduction"
    );
    let pushed = trace_enter(ctx, CollKind::Reduce, tag, tree);
    let mut nb = TreeReduceNb::start(ctx, tree, tag, local);
    let children = tree.children_of(me);
    let src = if let [only] = children[..] { Some(only) } else { None };
    ctx.sweep_then_park(BlockedOn { src, tag: Some(tag) }, |ctx| {
        Progress::done_or_idle(nb.poll(ctx, tree))
    });
    ctx.tracer().coll_exit(pushed);
    nb.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;
    use pselinv_trees::{TreeBuilder, TreeScheme};

    fn schemes() -> Vec<TreeScheme> {
        vec![
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
            TreeScheme::Hybrid { flat_threshold: 4 },
        ]
    }

    #[test]
    fn bcast_reaches_all_participants() {
        for scheme in schemes() {
            let builder = TreeBuilder::new(scheme, 11);
            // participants: odd ranks of 0..10, root 5
            let receivers = [1usize, 3, 7, 9];
            let tree = builder.build(5, &receivers, 123);
            let (results, _) = run(10, |ctx| {
                let me = ctx.rank();
                if me == 5 {
                    tree_bcast(ctx, &tree, 9, Some(vec![3.25, -1.5]))
                } else if receivers.contains(&me) {
                    tree_bcast(ctx, &tree, 9, None::<Vec<f64>>)
                } else {
                    Payload::empty()
                }
            });
            for &r in &receivers {
                assert_eq!(results[r], vec![3.25, -1.5], "{scheme}");
            }
            assert!(results[0].is_empty());
        }
    }

    #[test]
    fn reduce_sums_all_contributions() {
        for scheme in schemes() {
            let builder = TreeBuilder::new(scheme, 5);
            let receivers: Vec<usize> = (1..8).collect();
            let tree = builder.build(0, &receivers, 77);
            let (results, _) = run(8, |ctx| {
                let me = ctx.rank();
                tree_reduce(ctx, &tree, 1, vec![me as f64, 1.0])
            });
            let total: f64 = (0..8).sum::<usize>() as f64;
            assert_eq!(results[0], Some(vec![total, 8.0]), "{scheme}");
            for r in 1..8 {
                assert_eq!(results[r], None);
            }
        }
    }

    #[test]
    fn concurrent_collectives_with_distinct_tags() {
        // Two overlapping broadcasts + one reduction in flight at once.
        let b = TreeBuilder::new(TreeScheme::ShiftedBinary, 3);
        let t1 = b.build(0, &[1, 2, 3, 4, 5], 1);
        let t2 = b.build(5, &[0, 1, 2, 3, 4], 2);
        let t3 = b.build(2, &[0, 1, 3, 4, 5], 3);
        let (results, _) = run(6, |ctx| {
            let me = ctx.rank();
            let d1 = tree_bcast(ctx, &t1, 101, (me == 0).then(|| vec![1.0]));
            let d2 = tree_bcast(ctx, &t2, 102, (me == 5).then(|| vec![2.0]));
            let r = tree_reduce(ctx, &t3, 103, vec![me as f64]);
            (d1[0], d2[0], r.map(|v| v[0]))
        });
        for (i, (d1, d2, r)) in results.iter().enumerate() {
            assert_eq!(*d1, 1.0);
            assert_eq!(*d2, 2.0);
            if i == 2 {
                assert_eq!(*r, Some(15.0));
            } else {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn bcast_volume_matches_tree_accounting() {
        // The runtime's byte counters must agree with the static volume
        // model in pselinv-trees — the link between the numeric runtime and
        // the paper-scale replay.
        let b = TreeBuilder::new(TreeScheme::Binary, 0);
        let receivers: Vec<usize> = (1..12).collect();
        let tree = b.build(0, &receivers, 0);
        let payload = 32usize; // floats
        let (_, volumes) = run(12, |ctx| {
            tree_bcast(ctx, &tree, 0, (ctx.rank() == 0).then(|| vec![0.5; payload]));
        });
        let mut expected = vec![0u64; 12];
        pselinv_trees::bcast_sent_volume(&tree, (payload * 8) as u64, &mut expected);
        for r in 0..12 {
            assert_eq!(volumes[r].sent, expected[r], "rank {r}");
        }
    }

    #[test]
    fn traced_bcast_bytes_match_tree_accounting() {
        use crate::runtime::run_traced;
        use pselinv_trace::CollKind;
        let b = TreeBuilder::new(TreeScheme::ShiftedBinary, 3);
        let receivers: Vec<usize> = (1..10).collect();
        let tree = b.build(0, &receivers, 7);
        let payload = 24usize;
        let (_, _, trace) = run_traced(10, "unit/bcast", |ctx| {
            tree_bcast(ctx, &tree, 0, (ctx.rank() == 0).then(|| vec![1.0; payload]));
        });
        let mut expected = vec![0u64; 10];
        pselinv_trees::bcast_sent_volume(&tree, (payload * 8) as u64, &mut expected);
        // Bare collective: every send lands under the Bcast kind.
        assert_eq!(trace.sent_bytes(CollKind::Bcast), expected);
        // Depth attribution: total over depths equals total over ranks, and
        // only depths that actually forward (interior levels) carry bytes.
        let by_depth: Vec<u64> = {
            let mut d = Vec::new();
            for r in &trace.ranks {
                for (i, &v) in r.metrics.depth_sent_bytes.iter().enumerate() {
                    if i >= d.len() {
                        d.resize(i + 1, 0);
                    }
                    d[i] += v;
                }
            }
            d
        };
        assert_eq!(by_depth.iter().sum::<u64>(), expected.iter().sum::<u64>());
        assert!(by_depth.len() <= tree.depth() + 1);
    }

    #[test]
    fn bcast_copies_one_payload_regardless_of_fanout() {
        // The zero-copy invariant: however many edges the tree has, the
        // whole broadcast physically copies exactly one payload (the
        // root's initial packing); every forward is an Arc clone.
        for scheme in schemes() {
            let nranks = 16usize;
            let builder = TreeBuilder::new(scheme, 5);
            let receivers: Vec<usize> = (1..nranks).collect();
            let tree = builder.build(0, &receivers, 9);
            let payload = 128usize;
            let (_, volumes) = run(nranks, |ctx| {
                tree_bcast(ctx, &tree, 0, (ctx.rank() == 0).then(|| vec![1.0; payload]));
            });
            let total_copied: u64 = volumes.iter().map(|v| v.copied).sum();
            assert_eq!(total_copied, (payload * 8) as u64, "{scheme}");
            // Logical volume is still the full per-edge traffic.
            let total_sent: u64 = volumes.iter().map(|v| v.sent).sum();
            assert_eq!(total_sent, ((nranks - 1) * payload * 8) as u64, "{scheme}");
        }
    }

    #[test]
    fn reduce_received_volume_matches_tree_accounting() {
        let b = TreeBuilder::new(TreeScheme::ShiftedBinary, 9);
        let receivers: Vec<usize> = (0..15).filter(|&r| r != 7).collect();
        let tree = b.build(7, &receivers, 4);
        let (_, volumes) = run(15, |ctx| {
            tree_reduce(ctx, &tree, 0, vec![1.0; 16]);
        });
        let mut expected = vec![0u64; 15];
        pselinv_trees::reduce_received_volume(&tree, 16 * 8, &mut expected);
        for r in 0..15 {
            assert_eq!(volumes[r].received, expected[r], "rank {r}");
        }
    }
}
