//! End-to-end tracing demo: run the numeric selected inversion of a small
//! FEM problem on the mpisim backend *and* replay its task graph on the
//! discrete-event simulator, under Flat vs Shifted Binary trees, with the
//! unified trace layer recording both. Writes one Chrome trace-event JSON
//! per (backend, scheme) — load them in `chrome://tracing` or Perfetto —
//! and prints the per-rank Table-I style summaries.
//!
//! ```text
//! cargo run --release --example trace_run [-- OUT_DIR]
//! ```

use pselinv::des::{simulate_profiled, MachineConfig};
use pselinv::dist::taskgraph::{selinv_graph, GraphOptions};
use pselinv::dist::{
    distributed_selinv_traced, replay_volumes, try_distributed_selinv_traced, DistOptions, Layout,
};
use pselinv::mpisim::{Grid2D, RunOptions, Telemetry};
use pselinv::order::{analyze, AnalyzeOptions};
use pselinv::profile::{CausalChains, CriticalPath, HotspotReport, WaitReport};
use pselinv::sparse::gen;
use pselinv::trace::chrome::{to_chrome, validate_chrome};
use pselinv::trace::{CollKind, Trace};
use pselinv::trees::{TreeBuilder, TreeScheme};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const TREE_SEED: u64 = 0x5e11;

fn write_trace(dir: &Path, name: &str, trace: &Trace) {
    let chrome = to_chrome(trace);
    let n = validate_chrome(&chrome).expect("exported trace must be valid Chrome JSON");
    let path = dir.join(format!("{name}.trace.json"));
    std::fs::write(&path, chrome.to_string_compact()).expect("cannot write trace file");
    println!("  wrote {} ({n} events)", path.display());
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "target/traces".to_string());
    let out_dir = Path::new(&out_dir);
    std::fs::create_dir_all(out_dir).expect("cannot create output directory");

    // A small FEM workload: large enough to exercise every phase, small
    // enough that the real numeric run finishes in seconds.
    let w = gen::fem_3d(6, 6, 6, 1, 0x7ace);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let f = pselinv::factor::factorize(&w.matrix, sf.clone()).expect("factorization failed");
    let grid = Grid2D::new(3, 3);
    println!(
        "workload {}: n = {}, {} supernodes, {} ranks ({}x{} grid)\n",
        w.name,
        w.matrix.nrows(),
        sf.num_supernodes(),
        grid.size(),
        grid.pr,
        grid.pc
    );

    for (slug, scheme) in [("flat", TreeScheme::Flat), ("shifted", TreeScheme::ShiftedBinary)] {
        println!("=== {scheme} ===");
        let layout = Layout::new(sf.clone(), grid);
        let rep = replay_volumes(&layout, TreeBuilder::new(scheme, TREE_SEED));

        // Backend 1: thread-per-rank mpisim, wall-clock trace.
        let opts = DistOptions { scheme, seed: TREE_SEED, threads: 1, lookahead: 1 };
        let (_, _, trace) = distributed_selinv_traced(&f, grid, &opts, &format!("mpisim/{slug}"));
        assert_eq!(
            trace.sent_bytes(CollKind::ColBcast),
            rep.col_bcast_sent,
            "traced Col-Bcast bytes must match the structural replay"
        );
        println!("{}", trace.summary_table());
        write_trace(out_dir, &format!("mpisim_{slug}"), &trace);

        // Backend 2: discrete-event simulator, simulated-time trace of the
        // same algorithm's task graph, plus the schedule profile for
        // critical-path extraction.
        let gopts = GraphOptions { scheme, seed: TREE_SEED, pipelining: true };
        let g = selinv_graph(&layout, &gopts);
        let meta = [("scheme", scheme.to_string()), ("grid", format!("{}x{}", grid.pr, grid.pc))];
        let (res, des_trace, prof) =
            simulate_profiled(&g, MachineConfig::default(), &format!("des/{slug}"), &meta);
        assert_eq!(
            des_trace.sent_bytes(CollKind::ColBcast),
            rep.col_bcast_sent,
            "DES Col-Bcast bytes must match the structural replay"
        );
        println!(
            "DES replay: makespan {:.4}s, {} messages, {} bytes",
            res.makespan, res.messages, res.bytes
        );
        println!("{}", des_trace.summary_table());
        write_trace(out_dir, &format!("des_{slug}"), &des_trace);

        // Analysis layer: where the bytes concentrate, where ranks wait,
        // and which chain of tasks/transfers bounds the makespan.
        let hotspots = HotspotReport::from_trace(&des_trace, (grid.pr, grid.pc));
        print!("{}", hotspots.ascii());
        let waits = WaitReport::from_trace(&des_trace);
        if let Some(kind) = waits.dominant_wait_kind() {
            println!("dominant wait state: {}", kind.name());
        }
        let cp = CriticalPath::extract(&g, &prof);
        print!("{}", cp.ascii());
        let cp_path = out_dir.join(format!("des_{slug}.critpath.json"));
        std::fs::write(&cp_path, cp.json().to_string_pretty())
            .expect("cannot write critical-path file");
        println!("  wrote {}\n", cp_path.display());
    }

    // Backend 3: the asynchronous pipelined engine (nonblocking tree
    // collectives, lookahead window) with live telemetry attached: a
    // sampler thread snapshots per-rank gauges (blocked-on state, inbox
    // depth, stash size, outstanding collectives, byte counters) into a
    // ring buffer while the run executes, and the causal layer
    // reconstructs happens-before from the Lamport stamps afterwards.
    println!("=== async engine (lookahead = 4) with live telemetry ===");
    let telemetry = Telemetry::new(Duration::from_micros(500), 8192);
    let run_opts = RunOptions { telemetry: Some(telemetry.clone()), ..RunOptions::default() };
    let opts = DistOptions {
        scheme: TreeScheme::ShiftedBinary,
        seed: TREE_SEED,
        threads: 1,
        lookahead: 4,
    };
    let (_, _, trace) =
        try_distributed_selinv_traced(&f, grid, &opts, &run_opts, "mpisim/async+telemetry")
            .expect("async traced run failed");
    println!("{}", trace.summary_table());
    write_trace(out_dir, "mpisim_async", &trace);

    let samples = telemetry.samples();
    let jsonl_path = out_dir.join("telemetry.jsonl");
    std::fs::write(&jsonl_path, telemetry.to_jsonl()).expect("cannot write telemetry JSONL");
    println!("  wrote {} ({} samples)", jsonl_path.display(), samples.len());
    let prom_path = out_dir.join("telemetry.prom");
    std::fs::write(&prom_path, telemetry.prometheus()).expect("cannot write Prometheus text");
    println!("  wrote {} (final gauge values)", prom_path.display());

    let causal = CausalChains::from_trace(&trace);
    assert!(causal.is_valid(), "causal violations: {:?}", causal.violations());
    print!("{}", causal.ascii(3));
    let causal_path = out_dir.join("mpisim_async.causal.json");
    std::fs::write(&causal_path, causal.json(10).to_string_pretty())
        .expect("cannot write causal-chain file");
    println!("  wrote {}", causal_path.display());
}
