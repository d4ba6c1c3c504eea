//! What every workload shares: the closed measuring loop (one discarded
//! warm-up, then timed repetitions back to back, one client), the repeated
//! set-up, and the result a run prints.

use crate::check::Ledger;
use crate::names::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use crate::simclock::BothSchemes;
use crate::spans::Spans;
use crate::stats::{iqr_frac, median};
use crate::sys::{peak_rss_mb, process_cpu_s};
use crate::yardstick::{Yardstick, NOMINAL_S};
use std::time::Instant;

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Feeds the matrix generators and the tree seed.
    pub seed: u64,
    /// Seconds of timed work to aim for.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Where the traced pass writes `<workload>.spans.json`.
    pub out_dir: std::path::PathBuf,
}

/// How much one run measures.
pub struct RepPlan {
    /// Floor on timed repetitions; what keeps a median steady on a shared
    /// 2-vCPU host. `seconds` only ever adds repetitions, up to 4x the floor.
    pub min_reps: usize,
    /// Seconds of timed work to aim for.
    pub seconds: f64,
    /// Set up once only (the traced pass needs the input, not the statistic).
    pub setup_once: bool,
    /// Whether the operation's host time moves with the host's speed, and so
    /// is reported in calibrated seconds. Not so for an operation that waits
    /// out modelled latency on timers: its wall time is the same on a slow
    /// host, and dividing it by a yardstick reading would only add the
    /// yardstick's noise. CPU time and set-up time always track the host.
    pub wall_tracks_host: bool,
}

impl RepPlan {
    /// The end-to-end pass spends the whole budget; the traced pass needs
    /// only a reference for its ratios and spends half, from a floor of 3.
    pub fn new(args: &Args, min_reps: usize, wall_tracks_host: bool) -> Self {
        if args.trace {
            Self { min_reps: 3, seconds: args.seconds / 2.0, setup_once: true, wall_tracks_host }
        } else {
            Self { min_reps, seconds: args.seconds, setup_once: false, wall_tracks_host }
        }
    }
}

/// What [`measure`] returns. Every time but `raw_wall` is in calibrated
/// seconds (see [`crate::yardstick`]).
pub struct Measured<S, R> {
    /// The input the last set-up built.
    pub input: S,
    /// The warm-up repetition's result: the reference of every check.
    pub first: R,
    /// Wall and process CPU time of each timed repetition that passed its
    /// checks. A failed repetition contributes no timing.
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    /// The same repetitions' wall time in host seconds, as the clock read.
    pub raw_wall: Vec<f64>,
    /// Each full set-up.
    pub setup: Vec<f64>,
    /// `VmHWM` after the first set-up and the warm-up repetition, less the
    /// yardstick's own tables.
    pub peak_rss_mb: f64,
}

impl<S, R> Measured<S, R> {
    pub fn wall_s(&self) -> f64 {
        median(&self.wall)
    }

    pub fn cpu_s(&self) -> f64 {
        median(&self.cpu)
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setup)
    }

    /// Median host seconds of one repetition: what the traced pass divides
    /// its own single-shot host-second measurements by.
    pub fn raw_wall_s(&self) -> f64 {
        median(&self.raw_wall)
    }
}

/// One timed sample between two yardstick readings: what `f` returned, its
/// host seconds, its process CPU seconds, and the factor that turns either
/// into calibrated seconds. `before` is the reading taken just before `f` —
/// the one that closed the previous sample — and is replaced by the reading
/// taken just after.
fn sample<T>(
    yardstick: &mut Yardstick,
    before: &mut f64,
    f: impl FnOnce() -> T,
) -> (T, f64, f64, f64) {
    let (c0, t0) = (process_cpu_s(), Instant::now());
    let out = f();
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_s() - c0);
    let after = yardstick.run();
    let factor = NOMINAL_S / (0.5 * (*before + after));
    *before = after;
    (out, wall, cpu, factor)
}

/// The closed measuring loop of every workload, one client:
///
/// 1. one full set-up, timed;
/// 2. `op` once as a discarded warm-up — its result becomes the reference;
/// 3. `op` back to back, each repetition timed and then checked against the
///    reference with `verify` outside the timed region; every timed
///    repetition is one operation in `ledger`;
/// 4. the remaining set-ups — 3 to 5 in all, enough for 3 s — spread evenly
///    *between* the repetitions, each replacing the input (the generators
///    are deterministic, so the reference stays valid, and the checks prove
///    it). Spread over the run, the set-up samples see the same mix of host
///    states as the repetitions instead of one 1.5 s window of it.
///
/// A yardstick reading is taken before the first sample and after every
/// sample, so each sample sits between two and is calibrated by their mean.
/// Both counts are fixed after step 2 from the two durations seen so far.
pub fn measure<S, R>(
    plan: &RepPlan,
    yardstick: &mut Yardstick,
    spans: &mut Spans,
    ledger: &mut Ledger,
    mut setup: impl FnMut(&mut Spans) -> S,
    mut op: impl FnMut(&mut Spans, &S) -> Result<R, String>,
    mut verify: impl FnMut(&R, &R) -> Result<(), String>,
) -> Result<Measured<S, R>, String> {
    let mut reading = yardstick.run();
    let mut timed_setup = |spans: &mut Spans, yardstick: &mut Yardstick, reading: &mut f64| {
        let (input, wall, _, factor) = sample(yardstick, reading, || setup(spans));
        (input, wall, wall * factor)
    };
    let (first_input, first_setup_s, calibrated) = timed_setup(spans, yardstick, &mut reading);
    let mut setup_times = vec![calibrated];
    let mut input = Some(first_input);

    let (first, warm_up_s, _, _) =
        sample(yardstick, &mut reading, || op(spans, input.as_ref().expect("just built")));
    let first = first.map_err(|e| format!("warm-up repetition failed: {e}"))?;
    // Peak memory is read here, after one set-up and one operation: every
    // rank thread of a later repetition may land in another allocator arena
    // and park its freed panels there, so the high-water mark after N
    // repetitions measures the allocator's luck (511 to 898 MB on
    // fem3d-kernel for one code), not the engine's footprint.
    let peak_rss_mb = peak_rss_mb() - yardstick.resident_mb();

    let per_rep_s = warm_up_s + NOMINAL_S;
    let reps = ((plan.seconds / per_rep_s).ceil() as usize).clamp(plan.min_reps, 4 * plan.min_reps);
    let setups = if plan.setup_once {
        1
    } else {
        ((3.0 / (first_setup_s + NOMINAL_S)).ceil() as usize).clamp(3, 5)
    };
    let (mut wall, mut cpu, mut raw_wall) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 1..=reps {
        let (out, w, c, factor) = sample(yardstick, &mut reading, || {
            op(spans, input.as_ref().expect("an input is always held between set-ups"))
        });
        let outcome = out.and_then(|r| verify(&first, &r));
        if ledger.record(&format!("timed repetition {rep}"), outcome) {
            wall.push(if plan.wall_tracks_host { w * factor } else { w });
            cpu.push(c * factor);
            raw_wall.push(w);
        }
        while setup_times.len() < 1 + rep * (setups - 1) / reps {
            drop(input.take()); // first, so two inputs never coexist
            let (next, _, calibrated) = timed_setup(spans, yardstick, &mut reading);
            setup_times.push(calibrated);
            input = Some(next);
        }
    }
    if wall.is_empty() {
        return Err("every timed repetition failed its checks".into());
    }
    let input = input.expect("an input is always held between set-ups");
    Ok(Measured { input, first, wall, cpu, raw_wall, setup: setup_times, peak_rss_mb })
}

/// Writes the traced pass's spans to `<out_dir>/<workload>.spans.json`.
fn write_spans(args: &Args, workload: &str, spans: &Spans) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("{workload}.spans.json"));
    std::fs::write(&path, spans.to_json(workload)).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end metrics of one run, in the order of [`END_TO_END`]: the
/// timed ones from the measuring loop, the paper's four from the
/// simulated-clock pass.
pub fn end_to_end<S, R>(
    m: &Measured<S, R>,
    sim: &BothSchemes,
    vol_max_over_mean: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("wall_s", m.wall_s()),
        ("cpu_s", m.cpu_s()),
        ("setup_s", m.setup_s()),
        ("peak_rss_mb", m.peak_rss_mb),
        ("sim_makespan_s", sim.makespan_s()),
        ("sim_speedup_vs_flat", sim.speedup_vs_flat()),
        ("sim_comm_to_comp", sim.comm_to_comp()),
        ("vol_max_over_mean", vol_max_over_mean),
    ]
}

/// How the numbers of a run were taken: the samples behind the medians and
/// every yardstick reading between them. The `bench.*` lines derive from it.
pub struct BenchNotes {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    pub raw_wall: Vec<f64>,
    pub setup: Vec<f64>,
    pub yardstick: Vec<f64>,
}

impl BenchNotes {
    pub fn new<S, R>(m: &Measured<S, R>, yardstick: &Yardstick) -> Self {
        Self {
            wall: m.wall.clone(),
            cpu: m.cpu.clone(),
            raw_wall: m.raw_wall.clone(),
            setup: m.setup.clone(),
            yardstick: yardstick.readings.clone(),
        }
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("bench.reps", self.wall.len() as f64),
            ("bench.setup_reps", self.setup.len() as f64),
            ("bench.wall_iqr_frac", iqr_frac(&self.wall)),
            ("bench.raw_wall_s", median(&self.raw_wall)),
            ("bench.calib_s", median(&self.yardstick)),
        ]
    }
}

/// Everything a run prints.
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-layer metrics that do not apply to this workload (printed as 0).
    pub not_applicable: &'static [&'static str],
    pub notes: BenchNotes,
    /// Summed span self time per layer (traced pass).
    pub layer_self_s: Vec<(String, f64)>,
    pub ledger: Ledger,
}

impl Report {
    /// Closes a run: the traced pass also writes its spans and sums their
    /// self time by layer.
    pub fn finish(
        workload: &'static str,
        args: &Args,
        metrics: Vec<(&'static str, f64)>,
        not_applicable: &'static [&'static str],
        notes: BenchNotes,
        spans: &Spans,
        ledger: Ledger,
    ) -> Result<Self, String> {
        let layer_self_s = if args.trace {
            write_spans(args, workload, spans)?;
            spans.layer_self_s()
        } else {
            vec![]
        };
        Ok(Self {
            workload,
            trace: args.trace,
            metrics,
            not_applicable,
            notes,
            layer_self_s,
            ledger,
        })
    }

    /// `(name, unit, value, applies)` for every metric this pass must
    /// print, in table order. Panics when the run produced a name the
    /// tables do not list, missed one, or produced a non-finite value —
    /// each a bug in the benchmark, never a property of the code measured.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64, bool)> {
        let table: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, unit) in &table {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}] breaks the name rule");
        }
        for (name, _) in &self.metrics {
            assert!(table.iter().any(|(n, _)| n == name), "{name} is not a listed metric");
            assert!(
                !self.not_applicable.contains(name),
                "{name} is both measured and not applicable"
            );
        }
        table
            .into_iter()
            .map(|(name, unit)| {
                let hits: Vec<f64> =
                    self.metrics.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v).collect();
                let applies = !(self.trace && self.not_applicable.contains(&name));
                let value = match (hits.as_slice(), applies) {
                    ([v], true) => *v,
                    ([], false) => 0.0,
                    _ => panic!("{}: metric {name} measured {} times", self.workload, hits.len()),
                };
                assert!(value.is_finite(), "{}: metric {name} is {value}", self.workload);
                (name, unit, value, applies)
            })
            .collect()
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .iter()
            .map(|(name, unit, value, _)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ledger.correct(),
            self.ledger.attempted,
            self.ledger.failed,
            metrics.join(", ")
        )
    }

    /// The table a person reads, then the result line last.
    pub fn print(&self) {
        let pass = if self.trace {
            "per-layer metrics, traced pass"
        } else {
            "end-to-end metrics, tracing off"
        };
        println!("== {} — {pass}", self.workload);
        for (name, unit, value, applies) in self.rows() {
            if applies {
                println!("{name:<28} {value:>16.6} {unit}");
            } else {
                println!("{name:<28} {:>16} (does not apply to this workload)", "-");
            }
        }
        if !self.trace {
            // Not end-to-end metrics, but how these were taken: printed in
            // the same row format so a reader (and `--selfcheck`) finds them.
            for (name, value) in self.notes.metrics() {
                println!("{name:<28} {value:>16.6}");
            }
        }
        let n = &self.notes;
        let ms =
            |v: &[f64]| v.iter().map(|t| format!("{:.0}", t * 1e3)).collect::<Vec<_>>().join(" ");
        println!(
            "-- times are calibrated seconds: host seconds x {NOMINAL_S} s / yardstick reading"
        );
        println!("-- yardstick readings (ms): {}", ms(&n.yardstick));
        println!("-- wall samples (ms): {}", ms(&n.wall));
        println!("-- wall samples, host seconds (ms): {}", ms(&n.raw_wall));
        println!("-- cpu samples (ms):  {}", ms(&n.cpu));
        println!("-- set-up samples (ms): {}", ms(&n.setup));
        if !self.layer_self_s.is_empty() {
            let total: f64 = self.layer_self_s.iter().map(|(_, t)| t).sum();
            println!("-- span self time by layer (sums to the {total:.3} s the traced pass spent in spans):");
            for (layer, secs) in &self.layer_self_s {
                println!("   {layer:<10} {secs:>10.4} s  {:>5.1} %", 100.0 * secs / total);
            }
        }
        println!(
            "-- operations: {} attempted, {} failed{}",
            self.ledger.attempted,
            self.ledger.failed,
            if self.ledger.correct() { "" } else { " — RESULTS ARE NOT CORRECT" }
        );
        for f in &self.ledger.failures {
            println!("   failed: {f}");
        }
        println!("{}", self.result_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn notes() -> BenchNotes {
        BenchNotes {
            wall: vec![1.0, 1.1, 0.9],
            cpu: vec![1.0; 3],
            raw_wall: vec![1.2, 1.3, 1.1],
            setup: vec![0.5; 3],
            yardstick: vec![0.24; 7],
        }
    }

    /// A sample is calibrated by the mean of the readings on either side of
    /// it, and hands its closing reading to the next sample.
    #[test]
    fn a_sample_sits_between_two_yardstick_readings() {
        let mut yardstick = Yardstick::new();
        let mut reading = 0.4;
        let (out, wall, cpu, factor) = sample(&mut yardstick, &mut reading, || 7);
        assert_eq!(out, 7);
        assert!(wall >= 0.0 && cpu >= 0.0);
        assert_eq!(yardstick.readings, [reading], "the closing reading opens the next sample");
        assert_eq!(factor, NOMINAL_S / (0.5 * (0.4 + reading)));
    }

    #[test]
    fn measure_discards_the_warm_up_and_drops_failed_repetitions() {
        let (mut spans, mut ledger) = (Spans::new(), Ledger::default());
        let mut calls = 0u32;
        let mut yardstick = Yardstick::new();
        let plan = RepPlan { min_reps: 4, seconds: 0.0, setup_once: true, wall_tracks_host: false };
        let m = measure(
            &plan,
            &mut yardstick,
            &mut spans,
            &mut ledger,
            |_| "input",
            |_, input| {
                assert_eq!(*input, "input");
                calls += 1;
                Ok(calls)
            },
            // the third timed repetition (fourth call) fails its check
            |first, got| if *got == 4 { Err(format!("{got} after {first}")) } else { Ok(()) },
        )
        .unwrap();
        assert_eq!(m.first, 1, "the warm-up is the reference");
        assert_eq!(calls, 5, "one warm-up and min_reps timed repetitions");
        assert_eq!((ledger.attempted, ledger.failed), (4, 1), "the warm-up is not an operation");
        assert_eq!(
            (m.wall.len(), m.cpu.len()),
            (3, 3),
            "a failed repetition contributes no timing"
        );
        assert_eq!(m.setup.len(), 1);
        assert!(m.peak_rss_mb > 0.0);
        assert_eq!(m.wall, m.raw_wall, "a latency-bound wall time is left in host seconds");
        // one reading opens the run, one closes each of the 6 samples
        assert_eq!(yardstick.readings.len(), 7);
        let failing = measure(
            &plan,
            &mut yardstick,
            &mut spans,
            &mut ledger,
            |_| (),
            |_, _| Err::<u32, _>("boom".into()),
            |_, _| Ok(()),
        );
        assert!(failing.is_err(), "a failed warm-up ends the run");
    }

    /// A fast set-up is repeated five times; the repetitions after the first
    /// are spread between the timed repetitions, and every repetition runs
    /// on the input built last.
    #[test]
    fn set_ups_are_spread_between_the_repetitions() {
        let (mut spans, mut ledger) = (Spans::new(), Ledger::default());
        let log = std::cell::RefCell::new(String::new());
        let mut built = 0u32;
        let plan = RepPlan { min_reps: 4, seconds: 0.0, setup_once: false, wall_tracks_host: true };
        let m = measure(
            &plan,
            &mut Yardstick::new(),
            &mut spans,
            &mut ledger,
            |_| {
                built += 1;
                log.borrow_mut().push('S');
                built
            },
            |_, input| {
                log.borrow_mut().push_str(&format!("r{input}"));
                Ok(())
            },
            |_, _| Ok(()),
        )
        .unwrap();
        // set-up, warm-up, then 4 repetitions with 4 more set-ups between them
        assert_eq!(*log.borrow(), "Sr1r1Sr2Sr3Sr4S");
        assert_eq!((m.setup.len(), m.wall.len(), m.input), (5, 4, 5));
        assert_eq!(m.setup_s(), median(&m.setup));
        assert_ne!(m.wall, m.raw_wall, "a host-bound wall time is calibrated");
    }

    /// Every name a run prints is listed in the tables (and so, by the
    /// manifest test, in `BENCHMARK.json`), and every listed name is printed.
    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let metrics: Vec<(&'static str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, if m.name == "wall_s" { 1.5 } else { 1.0 }))
            .collect();
        let mut ledger = Ledger::default();
        ledger.record("ok", Ok(()));
        let report = Report {
            workload: "fem3d-kernel",
            trace: false,
            metrics,
            not_applicable: &[],
            notes: notes(),
            layer_self_s: vec![],
            ledger,
        };
        let doc = json::parse(&report.result_line()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let printed: Vec<&str> =
            doc.get("metrics").unwrap().as_object().unwrap().keys().map(String::as_str).collect();
        let mut listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        listed.sort_unstable();
        assert_eq!(printed, listed);
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn traced_rows_fill_what_does_not_apply_and_reject_strays() {
        let all: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.name, 1.0)).collect();
        let report = |metrics, not_applicable| Report {
            workload: "scale-p4096",
            trace: true,
            metrics,
            not_applicable,
            notes: notes(),
            layer_self_s: vec![],
            ledger: Ledger::default(),
        };
        assert_eq!(report(all.clone(), &[]).rows().len(), PER_LAYER.len());

        let without: Vec<_> = all.iter().copied().filter(|(n, _)| *n != "factor.gflops").collect();
        let rows = report(without.clone(), &["factor.gflops"]).rows();
        assert!(rows.contains(&("factor.gflops", "GFLOP/s", 0.0, false)));

        let caught = |r: Report| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.rows())).is_err()
        };
        assert!(caught(report(without, &[])), "a missing metric is a bug");
        assert!(caught(report(all.clone(), &["factor.gflops"])), "measured and not applicable");
        let mut stray = all;
        stray.push(("not.listed", 1.0));
        assert!(caught(report(stray, &[])), "an unlisted name is a bug");
    }
}
