//! `--selfcheck`: do two runs of the same code agree?
//!
//! The full set — every workload, end-to-end pass then traced pass — runs
//! twice in sequence, each run in a child process of its own (so `VmHWM`
//! and the CPU clock start from nothing, as they do under the driver). Per
//! workload × metric the relative difference is printed beside its bound.
//! The check fails when a timed end-to-end metric disagrees beyond its
//! bound, when a simulated or counted metric differs at all, or when any
//! operation failed. `bench.wall_iqr_frac` is printed beside them and
//! flagged above 0.10 — that says the host was disturbed during that run,
//! which no program can help, so it does not fail the check.

use crate::harness::Args;
use crate::json::{self, Json};
use crate::names::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The spread of the timed repetitions above which a run is flagged as
/// taken on a disturbed host.
const STEADY_WALL_IQR_FRAC: f64 = 0.10;

pub struct ChildRun {
    pub workload: &'static str,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    /// From the `bench.wall_iqr_frac` row of the child's table.
    pub wall_iqr_frac: f64,
}

fn run_child(
    args: &Args,
    workload: &'static str,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("the {workload} run ended with {}", output.status));
    }
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
    let doc =
        json::parse(last).map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.get("value").and_then(Json::as_f64).ok_or(format!("{k} has no value"))?,
            ))
        })
        .collect::<Result<BTreeMap<String, f64>, String>>()?;
    let wall_iqr_frac = stdout
        .lines()
        .find_map(|l| l.strip_prefix("bench.wall_iqr_frac"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or("no bench.wall_iqr_frac row in the child's table")?;
    Ok(ChildRun {
        workload,
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
        wall_iqr_frac,
    })
}

/// Every workload once, one after another, never concurrently.
pub fn run_set(args: &Args, trace: bool, echo: bool) -> Result<Vec<ChildRun>, String> {
    WORKLOADS.iter().map(|w| run_child(args, w.name, trace, echo)).collect()
}

/// Relative difference of two measurements of one quantity.
fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().min(b.abs())
    }
}

pub fn run(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    for round in 1..=2 {
        eprintln!("selfcheck: set {round} of 2, end-to-end pass");
        let e2e = run_set(args, false, false)?;
        eprintln!("selfcheck: set {round} of 2, traced pass");
        let traced = run_set(args, true, false)?;
        sets.push((e2e, traced));
    }
    let (first, second) = (&sets[0], &sets[1]);
    let mut ok = true;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "rel diff", "bound"
    );
    for (a, b) in first.0.iter().zip(&second.0) {
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let diff = rel_diff(x, y);
            let pass = if m.exact { x.to_bits() == y.to_bits() } else { diff <= m.bound };
            ok &= pass;
            let bound =
                if m.exact { "exact".to_string() } else { format!("{:.0} %", 100.0 * m.bound) };
            println!(
                "{:<14} {:<24} {x:>14.6} {y:>14.6} {:>8.2} % {bound:>7}  {}",
                a.workload,
                m.name,
                100.0 * diff,
                if pass { "ok" } else { "DISAGREE" }
            );
        }
        for run in [a, b] {
            ok &= run.correct;
            println!(
                "{:<14} {:<24} {:>14.6} {:>14} {:>10} {:>7}  {}",
                run.workload,
                "bench.wall_iqr_frac",
                run.wall_iqr_frac,
                "",
                "",
                format!("{:.0} %", 100.0 * STEADY_WALL_IQR_FRAC),
                match (run.correct, run.wall_iqr_frac <= STEADY_WALL_IQR_FRAC) {
                    (false, _) => "FAILED OPERATIONS",
                    (true, false) => "host disturbed",
                    (true, true) => "ok",
                }
            );
        }
    }
    let mut exact_layers = 0;
    for (a, b) in first.1.iter().zip(&second.1) {
        ok &= a.correct && b.correct;
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            exact_layers += 1;
            if x.to_bits() != y.to_bits() {
                ok = false;
                println!(
                    "{:<14} {:<24} {x:>14} {y:>14} — an exact layer metric DIFFERS",
                    a.workload, m.name
                );
            }
        }
    }
    println!("{exact_layers} exact per-layer values (counts, flops, bytes) compared bit for bit across the two traced sets");
    println!("selfcheck: {}", if ok { "two runs of the same code agree" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::rel_diff;

    #[test]
    fn rel_diff_is_symmetric_and_zero_on_equal() {
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(1.0, 1.1), rel_diff(1.1, 1.0));
        assert!((rel_diff(2.0, 2.2) - 0.1).abs() < 1e-12);
    }
}
