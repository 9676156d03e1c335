//! The repository's benchmark. One command runs a workload against the layer
//! crates' public functions, checks every output, and prints each metric by
//! name with its unit; the last line of standard output is the JSON object
//! `BENCHMARK.json`'s driver reads. See `README.md` beside `Cargo.toml`.

mod direct;
mod gen;
mod host;
mod oracle;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use skiptrie::{SkipTrie, TieredForest};

use direct::Spec;
use report::{Outcome, END_TO_END, PER_LAYER};

/// Workload names, as in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "trie_churn",
    "tiered_read_mostly",
    "scan_churn",
    "serve_open",
];

/// Warm-ups shrink by this factor under `--smoke`.
const SMOKE_DIVISOR: u64 = 20;

pub struct Opts {
    pub seed: u64,
    /// How long the run measures: half-second slices for a direct workload;
    /// a fifth capacity and four fifths open loop for `serve_open`.
    pub seconds: Duration,
    /// Short slices and warm-ups: a check that every metric still comes out,
    /// not a measurement.
    pub smoke: bool,
}

impl Opts {
    pub fn scaled_count(&self, count: u64) -> u64 {
        if self.smoke {
            count / SMOKE_DIVISOR
        } else {
            count
        }
    }

    pub fn scaled(&self, spec: &Spec) -> Spec {
        Spec {
            warmup_ops: self.scaled_count(spec.warmup_ops),
            ..*spec
        }
    }
}

struct Args {
    workloads: Vec<&'static str>,
    opts: Opts,
    traced: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perf [--workload <trie_churn|tiered_read_mostly|scan_churn|serve_open>] \
[--seed <n>] [--seconds <n>] [--trace <0|1>] [--trace-out <file>] [--smoke]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.to_vec(),
        opts: Opts {
            seed: 1,
            seconds: Duration::from_secs(25),
            smoke: false,
        },
        traced: false,
        trace_out: None,
    };
    let mut args = args.peekable();
    let mut seconds_given = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
                parsed.workloads = vec![known];
            }
            "--seed" => {
                parsed.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
                parsed.opts.seconds = Duration::from_secs_f64(seconds);
                seconds_given = true;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if parsed.opts.smoke && !seconds_given {
        parsed.opts.seconds = Duration::from_secs(1);
    }
    Ok(parsed)
}

/// Beside the executable, which is inside the build directory and so inside
/// the checkout and ignored by git.
fn default_trace_path(workload: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    exe.with_file_name(format!("perf-trace-{workload}.json"))
}

fn run_workload(name: &'static str, args: &Args) -> Result<Outcome, String> {
    let opts = &args.opts;
    if !args.traced {
        return match name {
            "trie_churn" => workloads::timed::<SkipTrie<u64>>(name, &workloads::TRIE_CHURN, opts),
            "tiered_read_mostly" => {
                workloads::timed::<TieredForest<u64>>(name, &workloads::TIERED_READ_MOSTLY, opts)
            }
            "scan_churn" => {
                workloads::timed::<TieredForest<u64>>(name, &workloads::SCAN_CHURN, opts)
            }
            _ => serve::run(opts, false).map(|(outcome, _)| outcome),
        };
    }
    // The workload's structure is dropped, and the threads it owns joined,
    // before the probes build theirs; only `trie_churn` hands its aged trie on.
    let (mut outcome, spans, aged) = match name {
        "trie_churn" => workloads::traced::<SkipTrie<u64>>(name, &workloads::TRIE_CHURN, opts)?,
        "tiered_read_mostly" => {
            workloads::traced::<TieredForest<u64>>(name, &workloads::TIERED_READ_MOSTLY, opts)?
        }
        "scan_churn" => workloads::traced::<TieredForest<u64>>(name, &workloads::SCAN_CHURN, opts)?,
        _ => {
            let (outcome, spans) = serve::run(opts, true)?;
            (outcome, spans, None)
        }
    };
    probes::run(&mut outcome.readings, opts, aged, opts.seconds / 3);
    let path = args
        .trace_out
        .clone()
        .unwrap_or_else(|| default_trace_path(name));
    trace::write(&path, name, opts.seed, &spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    outcome.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(outcome)
}

/// With no `--workload`, every workload runs in a process of its own, one
/// after the other, so that none inherits another's heap, threads or epoch
/// domains and resident memory means the same as under the driver.
fn run_each_in_its_own_process(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the executable has a path");
    let mut all_ok = true;
    for name in &args.workloads {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.opts.seed.to_string()])
            .args(["--seconds", &args.opts.seconds.as_secs_f64().to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.opts.smoke {
            child.arg("--smoke");
        }
        if let Some(path) = &args.trace_out {
            // One file per workload: the name goes in front of the extension.
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            let ext = path.extension().unwrap_or_default().to_string_lossy();
            child.arg("--trace-out");
            child.arg(path.with_file_name(format!("{stem}-{name}.{ext}")));
        }
        all_ok &= child.status().is_ok_and(|status| status.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if host::nproc() < workloads::THREADS as usize {
        eprintln!(
            "the workloads run {} closed-loop threads; this host has {} processors",
            workloads::THREADS,
            host::nproc()
        );
        return ExitCode::from(2);
    }
    if args.workloads.len() > 1 {
        return run_each_in_its_own_process(&args);
    }
    let name = args.workloads[0];
    let table = if args.traced { PER_LAYER } else { END_TO_END };
    let printed = run_workload(name, &args).and_then(|mut outcome| {
        outcome.notes.push(format!(
            "{} seed {} threads {} seconds {} traced {} smoke {}",
            host::facts(),
            args.opts.seed,
            workloads::THREADS,
            args.opts.seconds.as_secs_f64(),
            args.traced,
            args.opts.smoke
        ));
        let text = report::table(&outcome, table)?;
        let line = report::json_line(&outcome, table)?;
        Ok((text, line, outcome.correct))
    });
    match printed {
        Ok((text, line, correct)) => {
            print!("{text}");
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("{name}: an output check failed");
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("{name}: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "scan_churn",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["scan_churn"]);
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.traced),
            (9, Duration::from_secs(12), true)
        );
        let all = args(&[]).unwrap();
        assert_eq!(all.workloads, WORKLOADS);
        assert!(!all.traced && !all.opts.smoke);
        assert_eq!(
            args(&["--smoke"]).unwrap().opts.seconds,
            Duration::from_secs(1)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// The guard against the bin rotting when a layer's public API moves:
    /// all four workloads, timed and traced, at smoke scale; every named
    /// metric must come out finite and non-negative and every check pass.
    #[test]
    fn smoke_every_workload_yields_every_metric() {
        for traced in [false, true] {
            let a = Args {
                workloads: WORKLOADS.to_vec(),
                opts: Opts {
                    seed: 3,
                    seconds: Duration::from_secs(1),
                    smoke: true,
                },
                traced,
                trace_out: None,
            };
            let table = if traced { PER_LAYER } else { END_TO_END };
            for name in WORKLOADS {
                let outcome = run_workload(name, &a).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(
                    outcome.correct,
                    "{name} failed a check: {:?}",
                    outcome.notes
                );
                let line = report::json_line(&outcome, table).unwrap();
                let parsed = report::tests::parse(&line).unwrap();
                for metric in table {
                    parsed.field("metrics").field(metric.name).field("value");
                }
            }
        }
    }
}
