//! The repo benchmark. One command per workload prints every end-to-end
//! metric by name with its unit, tracing off; `--trace 1` repeats one
//! repetition through the traced entry points, wraps every call into a layer
//! in a benchmark-side span and prints the per-layer ledger instead.
//!
//! ```text
//! pselinv-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! pselinv-benchmark [--trace 0|1] ...   every workload, one after another
//! pselinv-benchmark --selfcheck ...     the full set twice; do two runs of one code agree?
//! pselinv-benchmark --manifest          BENCHMARK.json as names.rs defines it
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. See `README.md`.

mod check;
mod harness;
mod json;
mod micro;
mod names;
mod numeric;
mod scale;
mod selfcheck;
mod simclock;
mod spans;
mod stats;
mod sys;
mod yardstick;

use harness::Args;
use std::process::ExitCode;

const USAGE: &str = "usage: pselinv-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--out DIR] [--selfcheck] [--manifest]";

/// The crates' own default tree seed (`DistOptions::default().seed`).
const DEFAULT_SEED: u64 = 0x5e11;

enum Mode {
    /// One workload in this process.
    One(String),
    /// Every workload, each in a child process, one after another.
    All,
    SelfCheck,
    Manifest,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<(Mode, Args), String> {
    let mut mode = Mode::All;
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: names::RUN_SECONDS as f64,
        trace: false,
        out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !names::WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = names::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; the workloads are {known:?}"));
                }
                mode = Mode::One(name.clone());
            }
            "--seed" => {
                let v = value()?;
                args.seed =
                    parse_u64(v).ok_or_else(|| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds {v:?} is not a number from 1 to 60"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
            }
            "--traced" => args.trace = true,
            "--out" => args.out_dir = value()?.into(),
            "--selfcheck" => mode = Mode::SelfCheck,
            "--manifest" => mode = Mode::Manifest,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((mode, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, args) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Manifest => {
            print!("{}", names::manifest());
            Ok(true)
        }
        Mode::One(name) => {
            let report = match name.as_str() {
                "fem3d-kernel" => numeric::run(&numeric::FEM3D_KERNEL, &args),
                "lap2d-msgs" => numeric::run(&numeric::LAP2D_MSGS, &args),
                "poles-latency" => numeric::run(&numeric::POLES_LATENCY, &args),
                _ => scale::run(&args),
            };
            report.map(|r| {
                r.print();
                true
            })
        }
        Mode::All => selfcheck::run_set(&args, args.trace, true).map(|_| true),
        Mode::SelfCheck => selfcheck::run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pselinv-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(Mode, Args), String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (mode, args) = parse("--workload lap2d-msgs --seed 7 --seconds 10 --trace 1").unwrap();
        assert!(matches!(mode, Mode::One(n) if n == "lap2d-msgs"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        let (mode, args) = parse("").unwrap();
        assert!(matches!(mode, Mode::All));
        assert_eq!((args.seed, args.trace), (0x5e11, false));
        assert_eq!(parse("--seed 0x5E11").unwrap().1.seed, 0x5e11);
        assert!(parse("--traced").unwrap().1.trace);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            "--workload nope",
            "--workload",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_listed_workload_has_a_driver() {
        // `main` sends three names to the numeric driver and the rest to
        // `scale`; a fifth workload must not fall through silently.
        let numeric =
            [numeric::FEM3D_KERNEL.name, numeric::LAP2D_MSGS.name, numeric::POLES_LATENCY.name];
        for w in &names::WORKLOADS {
            assert!(numeric.contains(&w.name) || w.name == scale::NAME, "{}", w.name);
        }
        assert_eq!(names::WORKLOADS.len(), 4);
    }
}
