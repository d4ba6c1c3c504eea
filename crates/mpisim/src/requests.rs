//! Request-based non-blocking receive API (≈ `MPI_Irecv` + `MPI_Test` /
//! `MPI_Wait`) and a tree barrier.
//!
//! `RankCtx::send` is already non-blocking (buffered). This module adds
//! the receive side PSelInv-style engines poll on: post a set of expected
//! receives, then make progress on whichever arrives first. A request
//! matches through [`RankCtx::try_match`], the same stash scan as a
//! blocking receive, and every blocking form here waits in
//! [`RankCtx::sweep_then_park`].

use crate::payload::Payload;
use crate::runtime::{BlockedOn, Progress, RankCtx};

/// A posted receive: matches one message by `(source, tag)`.
#[derive(Clone, Debug, PartialEq)]
pub struct RecvRequest {
    /// Expected source rank.
    pub src: usize,
    /// Expected tag.
    pub tag: u64,
    state: State,
}

#[derive(Clone, Debug, PartialEq)]
enum State {
    Pending,
    Done(Payload),
}

impl RecvRequest {
    /// Posts a receive for `(src, tag)`.
    pub fn post(src: usize, tag: u64) -> Self {
        Self { src, tag, state: State::Pending }
    }

    /// `true` once the message has been matched.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done(_))
    }

    /// Non-blocking progress: matches a buffered/arriving message if
    /// available (≈ `MPI_Test`). Returns `true` when complete.
    pub fn test(&mut self, ctx: &mut RankCtx) -> bool {
        if self.is_done() {
            return true;
        }
        if let Some(data) = ctx.try_match(self.src, self.tag) {
            self.state = State::Done(data);
            return true;
        }
        false
    }

    /// Blocks until the message arrives (≈ `MPI_Wait`) and returns it.
    pub fn wait(mut self, ctx: &mut RankCtx) -> Payload {
        wait_any(ctx, std::slice::from_mut(&mut self));
        self.take().expect("wait_any returns once the request is done")
    }

    /// Takes the payload if complete.
    pub fn take(self) -> Option<Payload> {
        match self.state {
            State::Done(d) => Some(d),
            State::Pending => None,
        }
    }
}

/// Progresses a set of posted receives until at least one completes;
/// returns the index of a completed request (≈ `MPI_Waitany`).
///
/// While no request can be satisfied the rank parks, reporting the
/// sharpest wait-for edge the set allows — a single awaited source lets
/// the watchdog chase deadlock cycles through this rank.
pub fn wait_any(ctx: &mut RankCtx, reqs: &mut [RecvRequest]) -> usize {
    assert!(!reqs.is_empty(), "wait_any on an empty request set");
    let mut srcs = reqs.iter().map(|r| r.src);
    let src = srcs.next().filter(|&s| srcs.all(|o| o == s));
    let tag = (reqs.len() == 1).then(|| reqs[0].tag);
    ctx.sweep_then_park(BlockedOn { src, tag }, |ctx| {
        reqs.iter_mut().position(|r| r.test(ctx)).map_or(Progress::Idle, Progress::Done)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, try_run, RunOptions};
    use std::time::Duration;

    #[test]
    fn irecv_wait_matches() {
        let (results, _) = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![1.25]);
                0.0
            } else {
                let req = RecvRequest::post(0, 5);
                req.wait(ctx)[0]
            }
        });
        assert_eq!(results[1], 1.25);
    }

    #[test]
    fn every_receive_form_advances_the_edge_sequence() {
        // Every form takes the edge's messages in send order: receive
        // forms share one stash and none of them touches sequencing.
        let opts = RunOptions {
            watchdog: Some(Duration::from_secs(2)),
            poll: Duration::from_millis(10),
            ..RunOptions::default()
        };
        let (results, _) = try_run(2, &opts, |ctx| {
            if ctx.rank() == 0 {
                for v in [1.0, 2.0, 3.0] {
                    ctx.send(1, 7, vec![v]);
                }
                vec![]
            } else {
                let a = RecvRequest::post(0, 7).wait(ctx)[0];
                let b = ctx.recv(0, 7)[0];
                let mut c = [RecvRequest::post(0, 7)];
                wait_any(ctx, &mut c);
                let [c] = c;
                vec![a, b, c.take().expect("completed")[0]]
            }
        })
        .expect("an edge must not stall whichever form receives it");
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn test_polls_without_blocking() {
        let (results, _) = run(2, |ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ctx.send(1, 9, vec![2.0]);
                0.0
            } else {
                let mut req = RecvRequest::post(0, 9);
                let mut polls = 0u64;
                while !req.test(ctx) {
                    polls += 1;
                    std::thread::yield_now();
                }
                assert!(req.is_done());
                let v = req.take().unwrap()[0];
                assert!(polls > 0, "expected at least one unsuccessful poll");
                v
            }
        });
        assert_eq!(results[1], 2.0);
    }

    #[test]
    fn wait_any_returns_first_arrival() {
        let (results, _) = run(3, |ctx| {
            match ctx.rank() {
                0 => {
                    // rank 0 posts receives from both others
                    let mut reqs = vec![RecvRequest::post(1, 1), RecvRequest::post(2, 2)];
                    let first = wait_any(ctx, &mut reqs);
                    let a = reqs.remove(first).take().unwrap()[0];
                    let second = wait_any(ctx, &mut reqs);
                    let b = reqs.remove(second).take().unwrap()[0];
                    a + b
                }
                1 => {
                    ctx.send(0, 1, vec![10.0]);
                    0.0
                }
                _ => {
                    ctx.send(0, 2, vec![32.0]);
                    0.0
                }
            }
        });
        assert_eq!(results[0], 42.0);
    }
}
