//! Benchmark harness regenerating every table and figure of the paper.
//!
//! * [`workloads`] — proxy matrices for the paper's evaluation set and the
//!   analysis settings of the two experiment families (volume replay at
//!   46×46, DES strong scaling at 64…12,100 ranks);
//! * [`experiments`] — one runner per paper artifact (Table I/II,
//!   Figs. 4–9) plus the ablations called out in `DESIGN.md` §6;
//! * the `figures` binary drives everything:
//!   `cargo run --release -p pselinv-bench --bin figures -- all`.
//!
//! Performance is measured by the repo benchmark (`benchmark/`), not here.

pub mod experiments;
pub mod workloads;
