//! # pselinv-rs
//!
//! A Rust reproduction of *“Enhancing Scalability and Load Balancing of
//! Parallel Selected Inversion via Tree-Based Asynchronous Communication”*
//! (Jacquelin, Yang, Lin, Wichmann — IPDPS 2016).
//!
//! This facade crate re-exports every layer of the workspace:
//!
//! * [`sparse`] — CSC matrices, workload generators, Matrix Market I/O;
//! * [`order`] — fill-reducing orderings, elimination trees, supernodal
//!   symbolic factorization;
//! * [`dense`] — dense block kernels (GEMM/TRSM/LDLᵀ/LU);
//! * [`factor`] — supernodal numeric factorization, a task DAG over
//!   supernode updates on the work-stealing pool;
//! * [`selinv`] — sequential selected inversion (the reference algorithm);
//! * [`trees`] — the paper's contribution: flat / binary / shifted-binary
//!   restricted-collective communication trees;
//! * [`mpisim`] — a thread-based asynchronous message-passing runtime
//!   standing in for MPI;
//! * [`dist`] — distributed-memory PSelInv: block-cyclic layout,
//!   communication plans, numeric execution and volume accounting;
//! * [`des`] — a discrete-event machine simulator used to replay PSelInv
//!   task graphs at the paper's scales (up to 12,100 ranks);
//! * [`trace`] — the shared event/metrics layer: per-phase spans, message
//!   events and per-rank byte statistics for both backends, exported as
//!   Chrome trace-event JSON or a Table-I style summary;
//! * [`profile`] — analysis on top of the trace layer: per-rank hot-spot
//!   heat maps with imbalance ratios, Scalasca-style wait-state
//!   classification, and critical-path extraction from DES schedules;
//! * [`chaos`] — deterministic, seed-driven fault plans (delay, jitter,
//!   reordering, duplication, slowdown, stall, crash) consumed by both
//!   backends for resilience testing.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the experiment map.

pub use pselinv_chaos as chaos;
pub use pselinv_dense as dense;
pub use pselinv_des as des;
pub use pselinv_dist as dist;
pub use pselinv_factor as factor;
pub use pselinv_mpisim as mpisim;
pub use pselinv_order as order;
pub use pselinv_profile as profile;
pub use pselinv_selinv as selinv;
pub use pselinv_sparse as sparse;
pub use pselinv_trace as trace;
pub use pselinv_trees as trees;
