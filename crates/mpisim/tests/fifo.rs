//! Property test for MPI non-overtaking semantics: messages with the same
//! `(source, tag)` must be delivered in send order, no matter how the
//! receiver interleaves blocking receives, non-blocking matches, request
//! waits and multi-request waits over the tags.
//!
//! The seed runtime popped its out-of-order stash LIFO (`Vec::pop`) and
//! spliced tag matches with `swap_remove`; both break this property. The
//! deterministic regression lives in `runtime.rs`; this test explores the
//! interleaving space.

use proptest::prelude::*;
use pselinv_mpisim::{run, wait_any, RecvRequest};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn per_source_tag_delivery_is_fifo(
        n_msgs in 4usize..24,
        n_tags in 1u64..4,
        ops in proptest::collection::vec(0usize..4, 16..48),
    ) {
        let ops = &ops;
        let (results, _) = run(2, move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..n_msgs {
                    // Payload carries the per-tag sequence number.
                    let tag = i as u64 % n_tags;
                    ctx.send(1, tag, vec![i as f64]);
                }
                Ok(())
            } else {
                // Messages still to come, per tag: a blocking form only
                // ever waits on a tag that has one.
                let mut left: BTreeMap<u64, usize> = BTreeMap::new();
                for i in 0..n_msgs {
                    *left.entry(i as u64 % n_tags).or_default() += 1;
                }
                // seq numbers observed so far, per tag
                let mut seen: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                let mut op_i = 0usize;
                while !left.is_empty() {
                    let op = ops[op_i % ops.len()];
                    op_i += 1;
                    let tags: Vec<u64> = left.keys().copied().collect();
                    let tag = tags[op_i % tags.len()];
                    let got = match op {
                        0 => Some((tag, ctx.recv(0, tag))),
                        // Tag-targeted probe; pulls a message out of the
                        // middle of the stash.
                        1 => ctx.try_match(0, tag).map(|d| (tag, d)),
                        2 => Some((tag, RecvRequest::post(0, tag).wait(ctx))),
                        _ => {
                            // One request per open tag; only the completed
                            // one may consume anything.
                            let mut reqs: Vec<RecvRequest> =
                                tags.iter().map(|&t| RecvRequest::post(0, t)).collect();
                            let i = wait_any(ctx, &mut reqs);
                            let req = reqs.swap_remove(i);
                            Some((req.tag, req.take().expect("completed")))
                        }
                    };
                    if let Some((tag, d)) = got {
                        seen.entry(tag).or_default().push(d[0] as u64);
                        let n = left.get_mut(&tag).expect("a message nobody sent");
                        *n -= 1;
                        if *n == 0 {
                            left.remove(&tag);
                        }
                    }
                }
                // Within each (src=0, tag) stream, sequence numbers must be
                // strictly increasing: non-overtaking delivery.
                for (tag, seqs) in &seen {
                    for w in seqs.windows(2) {
                        if w[0] >= w[1] {
                            return Err(format!(
                                "tag {tag}: got seq {} before {}, order {seqs:?}",
                                w[0], w[1]
                            ));
                        }
                    }
                }
                Ok(())
            }
        });
        for r in results {
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }
}
