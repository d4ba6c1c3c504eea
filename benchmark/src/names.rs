//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! this file rendered as JSON (`--manifest` prints it; a test keeps the two
//! in step), and a run refuses to print a metric that is not listed here.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fem3d-kernel",
        why: "GEMM/TRSM and the task pool do nearly all the work on a 1x1 grid and no message is sent: kernel and pool changes show here and nowhere else",
    },
    Workload {
        name: "lap2d-msgs",
        why: "6235 supernodes at most 8 wide on a 2x2 grid: flops are negligible, per-supernode engine bookkeeping and 164k small blocking messages are the whole run",
    },
    Workload {
        name: "poles-latency",
        why: "8 indefinite poles batched under 1 ms in-flight latency: nonblocking collectives, courier and shared plans; only overlap moves wall_s, spinning moves only cpu_s",
    },
    Workload {
        name: "scale-p4096",
        why: "the paper's scale, a 64x64 grid on the simulated clock: trees, plans, task graph and the DES do all the work and no numeric kernel runs",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Simulated or counted: two runs with one seed must agree bit for bit.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact }
}

/// The timed metrics are in calibrated seconds (`yardstick.rs`), which
/// takes the host's drift out of them as far as a yardstick can: ten runs of
/// one code then spread by 2-7 % where raw host seconds spread by 8-30 %.
/// Their bounds stay as wide as the contract allows because the host the
/// driver measures on has been 2-3x noisier than the one this was built on
/// (README, "How steady"). The exact metrics repeat bit for bit under one
/// `--seed`; their bound only has to cover the spread *across* seeds (the
/// tree shifts are drawn from it), at most 3.5 %. `peak_rss_mb` repeats to
/// 0.2 % for one binary, but two builds of one source tree in two
/// directories differed by 13 % on `scale-p4096` (219 against 247 MB): the
/// peak falls in `analyze`, just after the generator has freed 200 MB, and how
/// much of that the allocator has handed back by then is its own affair.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("wall_s", "s", Better::Lower, 0.25, false),
    e2e("cpu_s", "s", Better::Lower, 0.25, false),
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20, false),
    e2e("sim_makespan_s", "sim_s", Better::Lower, 0.10, true),
    e2e("sim_speedup_vs_flat", "x", Better::Higher, 0.10, true),
    e2e("sim_comm_to_comp", "ratio", Better::Lower, 0.10, true),
    e2e("vol_max_over_mean", "ratio", Better::Lower, 0.10, true),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly under one seed (`--selfcheck` demands
    /// bit-identity). Scheduling-dependent counts — steals, high-water
    /// marks, time-driven repetition counts — are not.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer { name, unit, better, exact }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 53] = [
    layer("sparse.gen_s", "s", Lower, false),
    layer("order.analyze_s", "s", Lower, false),
    layer("order.supernodes", "count", Lower, true),
    layer("order.nnz_factor", "count", Lower, true),
    layer("order.max_width", "count", Lower, true),
    layer("factor.factorize_s", "s", Lower, false),
    layer("factor.gflops", "GFLOP/s", Higher, false),
    layer("dense.gemm_gflops_256", "GFLOP/s", Higher, false),
    layer("dense.gemm_gflops_64", "GFLOP/s", Higher, false),
    layer("dense.trsm_gflops_64x256", "GFLOP/s", Higher, false),
    layer("selinv.seq_s", "s", Lower, false),
    layer("selinv.flops", "flop", Lower, true),
    layer("selinv.oracle_max_rel_err", "rel", Lower, true),
    layer("pool.task_ns", "ns", Lower, false),
    layer("pool.executed", "count", Lower, true),
    layer("pool.stolen", "count", Lower, false),
    layer("pool.busy_frac", "ratio", Higher, false),
    layer("trees.build_ns_64", "ns", Lower, false),
    layer("dist.plan_s", "s", Lower, false),
    layer("dist.plan_collectives", "count", Lower, true),
    layer("dist.run_1x1_s", "s", Lower, false),
    layer("dist.engine_overhead_x", "x", Lower, false),
    layer("dist.comm_overhead_x", "x", Lower, false),
    layer("dist.speedup_vs_seq_x", "x", Higher, false),
    layer("dist.batch_speedup_x", "x", Higher, false),
    layer("dist.overlap_hwm", "count", Higher, false),
    layer("dist.replay_s", "s", Lower, false),
    layer("dist.graph_s", "s", Lower, false),
    layer("dist.graph_tasks", "count", Lower, true),
    layer("dist.graph_flops", "flop", Lower, true),
    layer("dist.graph_msg_bytes", "B", Lower, true),
    layer("mpisim.msgs", "count", Lower, true),
    layer("mpisim.bytes_sent", "B", Lower, true),
    layer("mpisim.bytes_copied", "B", Lower, true),
    layer("mpisim.retransmitted", "B", Lower, true),
    layer("mpisim.stash_hwm", "count", Lower, false),
    layer("mpisim.pingpong_ns", "ns", Lower, false),
    layer("mpisim.pingpong_courier_ns", "ns", Lower, false),
    layer("mpisim.wait_frac", "ratio", Lower, false),
    layer("mpisim.transfer_frac", "ratio", Lower, false),
    layer("des.sim_s", "s", Lower, false),
    layer("des.events_per_s", "1/s", Higher, false),
    layer("des.messages", "count", Lower, true),
    layer("des.bytes", "B", Lower, true),
    layer("des.profiled_overhead_x", "x", Lower, false),
    layer("trace.overhead_x", "x", Lower, false),
    layer("trace.events", "count", Lower, false),
    layer("profile.analyze_s", "s", Lower, false),
    layer("bench.reps", "count", Higher, false),
    layer("bench.setup_reps", "count", Higher, false),
    layer("bench.wall_iqr_frac", "ratio", Lower, false),
    layer("bench.raw_wall_s", "s", Lower, false),
    layer("bench.calib_s", "s", Lower, false),
];

/// The rule every workload and metric name obeys: starts with a letter or
/// a digit, then letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else { return false };
    s.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// How long one run measures; `BENCHMARK.json`'s `run_seconds` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json` as these tables define it.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    #[test]
    fn name_rule_accepts_and_rejects() {
        for ok in ["wall_s", "fem3d-kernel", "dense.gemm_gflops_256", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", "wall_s\n", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["s", "GFLOP/s", "1/s", "%", "sim_s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "s (simulated)", "a-very-long-unit-name"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for u in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(u), "{u}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
    }

    /// `BENCHMARK.json` is these tables, byte for byte: every listed name is
    /// one a run prints (see `harness::Report::rows`) and the reverse, with
    /// the same unit, direction and bound.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(text, manifest(), "regenerate with `--manifest > BENCHMARK.json`");
        let doc = json::parse(text).expect("BENCHMARK.json must parse");
        let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));
    }
}
