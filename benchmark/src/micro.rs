//! Microbenchmarks of single layers, run by the traced pass in the same
//! process as the workload: the machine's measured kernel peak, the cost of
//! one pool task, one tree build and one message hop. They do not depend on
//! the workload; printing them beside every workload's ledger says what the
//! host could do when that ledger was taken.

use crate::numeric::run_options;
use crate::spans::Spans;
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_dense::{gemm, trsm_right_lower, Mat, Transpose};
use pselinv_mpisim::{RankCtx, RunOptions};
use pselinv_pool::Pool;
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::hint::black_box;
use std::time::Instant;

/// A dense matrix with entries in (0, `scale`) from a fixed linear
/// congruence — values do not matter to a kernel's speed, only that they are
/// neither zeros nor grow into infinities under a triangular solve.
fn filled(nrows: usize, ncols: usize, scale: f64) -> Mat {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let data = (0..nrows * ncols)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            scale * ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        })
        .collect();
    Mat::from_vec(nrows, ncols, data)
}

/// Best seconds per call over five batches of `calls` calls.
fn best_of_5(calls: usize, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Single-thread `C = A·B` on `n×n` operands, GFLOP/s.
fn gemm_gflops(n: usize, calls: usize) -> f64 {
    let (a, b) = (filled(n, n, 1.0), filled(n, n, 1.0));
    let mut c = Mat::zeros(n, n);
    let per_call = best_of_5(calls, || {
        gemm(1.0, black_box(&a), Transpose::No, black_box(&b), Transpose::No, 0.0, &mut c);
        black_box(&c);
    });
    2.0 * (n as f64).powi(3) / per_call * 1e-9
}

/// Single-thread `X·L = B` with a 64-wide unit-lower `L` and a 256-row
/// panel — the panel normalisation of Algorithm 1 step 2 — GFLOP/s.
fn trsm_gflops_64x256() -> f64 {
    let (w, m) = (64usize, 256usize);
    let l = filled(w, w, 0.01);
    let b0 = filled(m, w, 1.0);
    let mut b = b0.clone();
    let per_call = best_of_5(100, || {
        // Restoring the right-hand side is part of every call on purpose:
        // solving in place over and over would drive the panel to zero.
        b.data_mut().copy_from_slice(b0.data());
        trsm_right_lower(black_box(&mut b), black_box(&l), true);
    });
    (m * w * w) as f64 / per_call * 1e-9
}

/// Nanoseconds per empty task through `Pool::new(2).run`, 10 000 tasks in
/// batches of 16: pure scheduling cost (push, steal or pop, completion).
fn pool_task_ns() -> f64 {
    const TASKS: usize = 10_000;
    const BATCH: usize = 16;
    let pool = Pool::new(2);
    let t0 = Instant::now();
    for _ in 0..TASKS / BATCH {
        let tasks: Vec<Box<dyn FnOnce() + Send>> =
            (0..BATCH).map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>).collect();
        pool.run(tasks);
    }
    t0.elapsed().as_secs_f64() * 1e9 / (TASKS / BATCH * BATCH) as f64
}

/// Nanoseconds per Shifted Binary tree over 63 receivers (a 64-rank
/// process row or column), 10 000 builds with distinct keys.
fn tree_build_ns_64(seed: u64) -> f64 {
    const BUILDS: u64 = 10_000;
    let builder = TreeBuilder::new(TreeScheme::ShiftedBinary, seed);
    let receivers: Vec<usize> = (1..64).collect();
    let t0 = Instant::now();
    for key in 0..BUILDS {
        black_box(builder.build(0, black_box(&receivers), key));
    }
    t0.elapsed().as_secs_f64() * 1e9 / BUILDS as f64
}

/// One-way nanoseconds of an 8-byte message between two ranks, from 20 000
/// round trips. With `opts.faults` set the messages ride the fault/courier
/// layer (at zero injected delay).
fn pingpong_ns(opts: &RunOptions) -> f64 {
    const TRIPS: u64 = 20_000;
    let body = |ctx: &mut RankCtx| {
        let t0 = Instant::now();
        for tag in 0..TRIPS {
            if ctx.rank() == 0 {
                ctx.send(1, tag, vec![1.0]);
                black_box(ctx.recv(1, tag));
            } else {
                let ball = ctx.recv(0, tag);
                ctx.send(0, tag, ball);
            }
        }
        t0.elapsed().as_secs_f64()
    };
    let (elapsed, _) = pselinv_mpisim::try_run(2, opts, body).expect("ping-pong cannot stall");
    elapsed[0] * 1e9 / (2 * TRIPS) as f64
}

/// Runs every microbenchmark; returns their per-layer metric lines.
pub fn run(spans: &mut Spans, seed: u64) -> Vec<(&'static str, f64)> {
    let raw = run_options();
    let courier = RunOptions {
        faults: Some(FaultPlan::new(seed).with_default(FaultSpec::default())),
        ..run_options()
    };
    vec![
        ("dense.gemm_gflops_256", spans.time("dense.gemm_256", || gemm_gflops(256, 4)).0),
        ("dense.gemm_gflops_64", spans.time("dense.gemm_64", || gemm_gflops(64, 200)).0),
        ("dense.trsm_gflops_64x256", spans.time("dense.trsm_64x256", trsm_gflops_64x256).0),
        ("pool.task_ns", spans.time("pool.empty_tasks", pool_task_ns).0),
        ("trees.build_ns_64", spans.time("trees.build_64", || tree_build_ns_64(seed)).0),
        ("mpisim.pingpong_ns", spans.time("mpisim.pingpong", || pingpong_ns(&raw)).0),
        (
            "mpisim.pingpong_courier_ns",
            spans.time("mpisim.pingpong_courier", || pingpong_ns(&courier)).0,
        ),
    ]
}
