//! `pselinv-trace`: a lightweight event/metrics layer shared by the
//! thread-per-rank mpisim backend and the discrete-event simulator.
//!
//! Design goals:
//!
//! * **Zero cost when disabled.** Every hook on [`RankTracer`] is a single
//!   branch on an `Option`; the disabled tracer carries no allocation. The
//!   instrumented runtimes construct disabled tracers by default, so the
//!   un-traced paths (`mpisim::run`, `des::simulate`) behave exactly as
//!   before.
//! * **One vocabulary for both backends.** Spans and messages are keyed by
//!   [`CollKind`] (the paper's phases: `Col-Bcast`, `Row-Reduce`, …) plus a
//!   supernode index, whether the clock is wall time (mpisim) or simulated
//!   time (DES).
//! * **Exact accounting.** Bytes attributed to `ColBcast` by the traced
//!   runtime equal the structural prediction of
//!   `pselinv_dist::volume::replay_volumes` for the same layout and tree
//!   scheme — tests pin this.
//!
//! Two exporters: [`chrome::to_chrome`] renders Chrome trace-event JSON
//! loadable in `chrome://tracing`/Perfetto, and [`Trace::summary_table`]
//! prints per-rank min/max/σ statistics in the shape of the paper's
//! Table I.

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{
    pack_task_tag, unpack_task_tag, CollKind, EventKind, FaultKind, TraceEvent, NO_KEY,
};
pub use json::Json;
pub use metrics::{KindCounters, RankMetrics, N_KINDS};
pub use sink::{collect, RankTrace, RankTracer, Trace};
