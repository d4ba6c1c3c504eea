//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p pselinv-bench --bin figures -- all
//! cargo run --release -p pselinv-bench --bin figures -- table1 fig8a
//! cargo run --release -p pselinv-bench --bin figures -- --out results/ fig9
//! ```
//!
//! Artifacts (text + JSON/CSV) land in `target/figures/` by default and
//! nowhere else. Performance is measured by the repo benchmark
//! (`benchmark/`), not by this binary.

use pselinv_bench::experiments::{self, OutDir};
use pselinv_bench::workloads;
use std::time::Instant;

const USAGE: &str = "\
usage: figures [--out DIR] [--seeds N] [--grid D] TARGET+

paper artifacts:
  all        every target below
  table1     Table I  — Col-Bcast volume per scheme (audikw_1 proxy, 46x46)
  table2     Table II — Row-Reduce volume per scheme
  fig4       volume histograms per scheme
  fig5-fig7  Pr x Pc heat maps (flat root hot spots vs shifted balance)
  fig8a/b    DES strong scaling (DG P3/audikw_1 proxies)
  fig9       time breakdown per phase

profiling & runtime:
  trace      traced numeric run: summary tables + Chrome trace exports
  hotspots   per-rank load heat maps from a traced run
  critpath   DES critical-path extraction

faults & ablations:
  faults     degraded-tree resilience under rank crashes
  recovery   live broadcast storm with online crash recovery (asserts
             100% survivor delivery vs the no-rebuild stranded baseline)
  ablation-nic|ablation-shift|ablation-arity  model ablations

options:
  --out DIR   artifact directory            (default target/figures)
  --seeds N   seeds per DES scaling point   (default 6)
  --grid D    grid dimension for hotspots/critpath (default 46)
  --help      this listing";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "target/figures".to_string();
    let mut targets: Vec<String> = Vec::new();
    let mut seeds: u64 = 6;
    let mut grid: usize = 46;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--out" => out_path = it.next().expect("--out needs a path"),
            "--seeds" => {
                seeds = it.next().expect("--seeds needs a number").parse().expect("bad seed count")
            }
            "--grid" => {
                grid = it.next().expect("--grid needs a dimension").parse().expect("bad grid dim")
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "table1",
            "table2",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8a",
            "fig8b",
            "fig9",
            "trace",
            "hotspots",
            "critpath",
            "faults",
            "recovery",
            "ablation-nic",
            "ablation-shift",
            "ablation-arity",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let out = OutDir::new(&out_path).expect("cannot create output directory");
    for t in &targets {
        let t0 = Instant::now();
        let txt = match t.as_str() {
            "table1" => experiments::table1(&out),
            "table2" => experiments::table2(&out),
            "fig4" => experiments::fig4(&out),
            "fig5" => experiments::fig5(&out),
            "fig6" => experiments::fig6(&out),
            "fig7" => experiments::fig7(&out),
            "fig8a" => experiments::fig8(&workloads::dg_pnf_des(), seeds, &out, "a"),
            "fig8b" => experiments::fig8(&workloads::audikw_des(), seeds, &out, "b"),
            "fig9" => experiments::fig9(&out),
            "trace" => experiments::trace_profile(&out),
            "hotspots" => experiments::hotspots(&out, grid),
            "critpath" => experiments::critpath(&out, grid),
            "faults" => experiments::faults(&out),
            "recovery" => experiments::recovery(&out),
            "ablation-nic" => experiments::ablation_nic(&out),
            "ablation-shift" => experiments::ablation_shift(&out),
            "ablation-arity" => experiments::ablation_arity(&out),
            other => {
                eprintln!("unknown target: {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
        .unwrap_or_else(|e| panic!("experiment {t} failed: {e}"));
        println!("{txt}");
        eprintln!("[{t} done in {:.1?}; artifacts in {out_path}]", t0.elapsed());
    }
}
