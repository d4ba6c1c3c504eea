//! Distributed-memory parallel selected inversion (PSelInv).
//!
//! This crate is the paper's system proper. It combines:
//!
//! * [`layout`] — the 2-D block-cyclic mapping of the supernodal factor
//!   onto a `Pr × Pc` process grid (identical to SuperLU_DIST's);
//! * [`plan`] — the preprocessing step: for every supernode `K`, the
//!   participant lists and [`pselinv_trees::CollectiveTree`]s of each
//!   restricted collective (`Col-Bcast` per ancestor block, `Row-Reduce`
//!   per target block, the diagonal reduction, and the transpose
//!   point-to-points);
//! * [`numeric`] — a real distributed execution of the selected inversion
//!   over the thread-based `pselinv-mpisim` runtime, verified element-wise
//!   against the sequential algorithm;
//! * [`ainv`] — where the result lives: each query's `A⁻¹` panels, which
//!   every rank fills in place, block by owned block, with no assembly;
//! * [`volume`] — structure-only replay that accumulates per-rank
//!   communication volumes at arbitrary grid sizes (Tables I/II, the heat
//!   maps and histograms of Figs. 4–7);
//! * [`taskgraph`] — generation of the full asynchronous task DAG (compute
//!   tasks + messages) consumed by the `pselinv-des` machine simulator for
//!   the strong-scaling and time-breakdown experiments (Figs. 8–9), plus a
//!   SuperLU-style factorization DAG for the reference curve;
//! * [`batch`] — the pole-batch engine: many shifted selected inversions
//!   (`H − σ_k I`, the PEXSI pole expansion) driven concurrently over one
//!   shared symbolic analysis and communication plan, with per-query tag
//!   namespacing, per-pole volume attribution and an admission-control
//!   knob bounding how many poles race at once.

pub mod ainv;
pub mod batch;
pub mod engine;
pub mod layout;
pub mod numeric;
pub mod plan;
pub mod taskgraph;
pub mod volume;

pub use ainv::AinvPanels;
pub use batch::{
    batched_selinv, batched_selinv_traced, factor_poles, pole_summary_table, try_batched_selinv,
    try_batched_selinv_panels, try_batched_selinv_traced, BatchOptions, BatchRun,
};
pub use layout::Layout;
pub use numeric::{
    distributed_selinv, distributed_selinv_traced, try_distributed_selinv,
    try_distributed_selinv_traced, DistOptions,
};
pub use plan::{CommPlan, SupernodePlan};
pub use volume::{replay_volumes, VolumeReport};
