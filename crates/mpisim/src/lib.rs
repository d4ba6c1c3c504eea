//! A thread-based asynchronous message-passing runtime.
//!
//! MPI is unavailable in this reproduction, so every "rank" is an OS thread
//! with a lock-free mailbox. The API mirrors the subset of MPI semantics
//! PSelInv relies on:
//!
//! * buffered non-blocking sends ([`RankCtx::send`] ≈ `MPI_Isend` with the
//!   buffer handed off — the call never blocks);
//! * blocking tagged receives with out-of-order matching
//!   ([`RankCtx::recv`] ≈ `MPI_Recv` on `(source, tag)`) and non-blocking
//!   matches ([`RankCtx::try_match`] ≈ `MPI_Iprobe` + receive), both
//!   reading a stash the arrival rule fills in per-`(src, dst)` channel
//!   order, without duplicates;
//! * one blocking point for progress loops ([`RankCtx::sweep_then_park`]),
//!   under [`wait_any`] and the tree collectives;
//! * per-rank send/receive byte counters, the measurement behind the
//!   paper's communication-volume tables.
//!
//! [`collectives`] layers the paper's tree-routed restricted collectives on
//! top of these point-to-point primitives, and [`grid`] provides the 2-D
//! block-cyclic process grid of PSelInv.

pub mod collectives;
pub mod grid;
mod interpose;
pub mod nb;
pub mod payload;
pub mod reliable;
pub mod requests;
pub mod runtime;
mod spin;
pub mod telemetry;

pub use grid::Grid2D;
pub use nb::{TreeBcastNb, TreeReduceNb};
pub use payload::{IntoPayload, Payload};
pub use reliable::{Recovery, RecoveryConfig, ReliableConfig};
pub use requests::{wait_any, RecvRequest};
pub use runtime::{
    run, run_traced, try_run, try_run_recover, try_run_traced, BlockedOn, Message, Progress,
    RankCtx, RankVolume, RecoverOutcome, RecoveryReport, RecvTimeout, RunError, RunOptions,
    StallDiagnostic, ACK_LANE, JOIN_LANE, LANE_MASK, REPAIR_LANE,
};
pub use telemetry::{Telemetry, TelemetrySample};
