//! The benchmark command (the timed binary; normally reached through
//! `benchmark/run.sh`, which builds both binaries first).
//!
//! ```text
//! harmony-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass over one workload; the last line of standard output is one
//!     JSON object: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! harmony-benchmark [--seed <n>] [--seconds <s>] [--aa]
//!     both passes over all four workloads, every metric printed by name with
//!     its unit; --aa runs that set twice and holds the set-to-set difference
//!     of every end-to-end metric against its bound
//! harmony-benchmark --manifest
//!     prints BENCHMARK.json
//! ```
//!
//! Exit code 0 when every check held, 1 when one failed, 2 on bad usage.

use harmony_benchmark::catalogue::{manifest_json, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use harmony_benchmark::passes::{end_to_end, per_layer, Outcome};
use harmony_benchmark::stats::worsening;
use harmony_benchmark::workloads::{Workload, DEFAULT_SEED, NAMES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    manifest: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        aa: false,
        manifest: false,
        out_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--aa" => args.aa = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The counting binary is built next to this one.
fn count_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let name = format!("harmony-benchmark-count{}", std::env::consts::EXE_SUFFIX);
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build both binaries (bash benchmark/run.sh does)",
            path.display()
        ))
    }
}

fn run_pass(w: &Workload, trace: bool, seconds: f64, count_bin: &Path, out_dir: &Path) -> Outcome {
    let outcome = if trace {
        per_layer(w, seconds, out_dir)
    } else {
        end_to_end(w, seconds, count_bin)
    };
    for failure in &outcome.failures {
        eprintln!("[{}] CHECK FAILED: {failure}", w.name);
    }
    outcome
}

fn unit_of(name: &str) -> &'static str {
    let def = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name);
    def.map_or("", |d| d.unit)
}

/// The contract's result line. A value that is not a finite number cannot
/// be written as JSON: it is printed as 0 and the run is marked incorrect.
fn result_json(outcome: &Outcome) -> String {
    let finite = outcome.metrics.iter().all(|(_, v)| v.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty() && finite,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// One full set: both passes over all four workloads, printed as a table.
/// Returns the metrics by (workload, name) and whether every check held.
fn run_set(args: &Args, count_bin: &Path) -> (Vec<(&'static str, &'static str, f64)>, bool) {
    let mut all = Vec::new();
    let mut ok = true;
    for name in NAMES {
        let w = Workload::by_name(name, args.seed).expect("catalogued workload");
        println!("\n== {name} (seed {}) ==", args.seed);
        for trace in [false, true] {
            let outcome = run_pass(&w, trace, args.seconds, count_bin, &args.out_dir);
            ok &= outcome.failures.is_empty();
            if !trace {
                println!(
                    "{:<32} {:>16} ops   failed {}",
                    "attempted", outcome.attempted, outcome.failed
                );
            }
            for (metric, value) in outcome.metrics {
                println!("{metric:<32} {value:>16.4} {}", unit_of(metric));
                all.push((w.name, metric, value));
            }
        }
    }
    (all, ok)
}

/// Metrics that must read the same in two sets of one build and seed: the
/// counts and the simulated outputs (unit `count`, plus the `model_*` rows),
/// minus the two that count repetitions or depend on the host.
fn repeats_exactly(def: &MetricDef) -> bool {
    (def.unit == "count" || def.name.starts_with("ycsb.model_")) && def.name != "host.timed_reps"
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("harmony-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    let count_bin = match count_bin() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("harmony-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(name) = &args.workload {
        let Some(w) = Workload::by_name(name, args.seed) else {
            eprintln!("harmony-benchmark: unknown workload {name} (one of {NAMES:?})");
            return ExitCode::from(2);
        };
        let outcome = run_pass(&w, args.trace, args.seconds, &count_bin, &args.out_dir);
        println!("{}", result_json(&outcome));
        return if outcome.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let (first, mut ok) = run_set(&args, &count_bin);
    if args.aa {
        let (second, second_ok) = run_set(&args, &count_bin);
        ok &= second_ok;
        println!("\n== A/A: second set against the first ==");
        for ((workload, metric, a), (_, _, b)) in first.iter().zip(&second) {
            if let Some(def) = END_TO_END.iter().find(|d| d.name == *metric) {
                let bound = def.bound.expect("end-to-end metrics carry a bound");
                let worse = worsening(*a, *b, def.higher_is_better);
                let verdict = if worse > bound { "EXCEEDS" } else { "within" };
                ok &= worse <= bound;
                println!(
                    "{workload:<9} {metric:<16} {a:>14.4} -> {b:>14.4}  {:>+7.2} % worse, {verdict} bound {:.0} %",
                    worse * 100.0,
                    bound * 100.0
                );
            } else if PER_LAYER
                .iter()
                .any(|d| d.name == *metric && repeats_exactly(d))
                && a != b
            {
                ok = false;
                println!("{workload:<9} {metric:<32} {a} != {b}: an exact count moved");
            }
        }
    }
    if ok {
        println!("\nall checks held");
        ExitCode::SUCCESS
    } else {
        println!("\nCHECKS FAILED (see above and standard error)");
        ExitCode::from(1)
    }
}
