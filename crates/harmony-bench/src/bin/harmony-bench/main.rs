//! `harmony-bench <figure> [--profile P] [--quick] [--json PATH]`:
//! regenerates one table or figure of the paper's evaluation (§V), or one of
//! the sweeps and ablations built on it (see `EXPERIMENTS.md`).
//!
//! Every figure prints its series as plain-text tables and, with
//! `--json <path>`, writes the rows it printed as pretty JSON. `--quick`
//! runs a smaller variant over 4 000 records. Figures that run on one
//! platform take `--profile` (`grid5000`, `ec2`, or another profile of
//! `harmony_sim::profiles::by_name` on the Grid'5000 store scaling); a few
//! take flags of their own, listed in [`FIGURES`]. Run without a figure to
//! print the list. A flag the figure does not take is an error.

mod ablations;
mod fault_sweep;
mod fig4a;
mod fig4b;
mod fig5;
mod fig5_saturation;
mod headline;
mod hotspot_split;
mod proactive_sweep;
mod repair_sweep;

use harmony_bench::experiments::{config_by_name, ExperimentConfig};
use serde::Serialize;
use std::fmt::Display;
use std::str::FromStr;

/// A figure: its name, its `--quick` sizing (operations per client thread,
/// minimum operations per sweep point; over [`QUICK_RECORDS`] records), the
/// flags it takes besides `--quick`, and its code.
type Figure = (&'static str, (u64, u64), &'static str, fn(&Args));

#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    ("fig4a",           (250, 8_000),    "--json",                                 fig4a::run),
    ("fig4b",           (250, 8_000),    "--json",                                 fig4b::run),
    ("fig5",            (250, 8_000),    "--profile --json --dual-read",           fig5::run),
    ("fig5_saturation", (250, 6_000),    "--profile --json",                       fig5_saturation::run),
    ("headline",        (250, 8_000),    "--json",                                 headline::run),
    ("hotspot_split",   (250, 6_000),    "--profile --json --threads --tolerance", hotspot_split::run),
    ("fault_sweep",     (300, 9_000),    "--profile --json --obs",                 fault_sweep::run),
    ("proactive_sweep", (300, 9_000),    "--profile --json",                       proactive_sweep::run),
    ("repair_sweep",    (1_000, 30_000), "--profile --json",                       repair_sweep::run),
    ("ablations",       (250, 8_000),    "",                                       ablations::run),
];

/// The flags that take a value.
const VALUE_FLAGS: &[&str] = &["--profile", "--json", "--threads", "--tolerance"];

/// Records loaded by every `--quick` run.
const QUICK_RECORDS: u64 = 4_000;

/// A figure's parsed command line.
struct Args {
    quick: bool,
    /// The figure's `--quick` sizing.
    sizing: (u64, u64),
    /// Every other flag given, with its value if it takes one.
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw`, accepting `--quick` and the flags in `flags`.
    fn parse(
        mut raw: impl Iterator<Item = String>,
        flags: &str,
        sizing: (u64, u64),
    ) -> Result<Args, String> {
        let (mut quick, mut given) = (false, Vec::new());
        while let Some(flag) = raw.next() {
            if flag == "--quick" {
                quick = true;
            } else if !flags.split_whitespace().any(|f| f == flag) {
                return Err(format!("unexpected {flag}"));
            } else if VALUE_FLAGS.contains(&flag.as_str()) {
                let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
                given.push((flag, Some(value)));
            } else {
                given.push((flag, None));
            }
        }
        Ok(Args {
            quick,
            sizing,
            given,
        })
    }

    /// True if the switch `flag` (e.g. `--dual-read`) was given.
    fn flag(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The value given for `flag`, parsed; exits on a malformed value.
    fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (_, value) = self.given.iter().find(|(f, _)| f == flag)?;
        let value = value.as_deref().unwrap_or_default();
        Some(
            value
                .parse()
                .unwrap_or_else(|_| fail(format!("bad {flag} {value}"))),
        )
    }

    /// The experiment configuration of `--profile`, else of `grid5000`.
    fn config(&self) -> ExperimentConfig {
        let profile: Option<String> = self.value("--profile");
        self.config_for(profile.as_deref().unwrap_or("grid5000"))
    }

    /// The experiment configuration of profile `name`, sized down under
    /// `--quick`; exits on an unknown profile.
    fn config_for(&self, name: &str) -> ExperimentConfig {
        let mut config =
            config_by_name(name).unwrap_or_else(|| fail(format!("unknown profile {name}")));
        if self.quick {
            config.records = QUICK_RECORDS;
            (config.operations_per_thread, config.min_operations) = self.sizing;
        }
        config
    }

    /// Writes `rows` to the `--json` path, if one was given, and says so
    /// (`what` names the content, e.g. "JSON").
    fn write_json<T: Serialize>(&self, what: &str, rows: &T) {
        let Some(path) = self.value::<String>("--json") else {
            return;
        };
        if let Err(e) = harmony_bench::report::write_json(std::path::Path::new(&path), rows) {
            fail(format!("cannot write {path}: {e}"));
        }
        println!("{what} written to {path}");
    }
}

/// "yes" when `claim` holds, else "NO", for the figures' claim lines.
fn yes(claim: bool) -> &'static str {
    if claim {
        "yes"
    } else {
        "NO"
    }
}

fn fail(message: impl Display) -> ! {
    eprintln!("harmony-bench: {message}");
    std::process::exit(2)
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let name = raw.next().unwrap_or_default();
    let Some((_, sizing, flags, run)) = FIGURES.iter().find(|f| f.0 == name) else {
        let figures: Vec<String> = FIGURES
            .iter()
            .map(|(name, _, flags, _)| format!("  {name:<16} [--quick] {flags}"))
            .collect();
        fail(format!(
            "unknown figure {name:?}; usage: harmony-bench <figure> [flags]\n{}",
            figures.join("\n")
        ));
    };
    let args = Args::parse(raw, flags, *sizing).unwrap_or_else(|e| fail(format!("{name}: {e}")));
    run(&args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, raw: &[&str]) -> Result<Args, String> {
        let (_, sizing, flags, _) = FIGURES.iter().find(|f| f.0 == name).unwrap();
        Args::parse(raw.iter().map(|s| s.to_string()), flags, *sizing)
    }

    #[test]
    fn each_figure_takes_only_its_own_flags() {
        let args = parse("fig5", &["--profile", "ec2", "--quick", "--dual-read"]).unwrap();
        assert!(args.quick && args.flag("--dual-read"));
        assert_eq!(args.config().profile.name, "ec2");
        assert!(args.value::<String>("--json").is_none());
        assert!(parse("fig5", &["--obs"]).is_err());
        assert!(parse("fig5", &["--json"]).is_err());
        assert!(parse("headline", &["--profile", "ec2"]).is_err());
        assert!(parse("ablations", &["--json", "x.json"]).is_err());
        let args = parse("hotspot_split", &["--threads", "12", "--tolerance", "0.1"]).unwrap();
        assert_eq!(args.value::<usize>("--threads"), Some(12));
        assert_eq!(args.value::<f64>("--tolerance"), Some(0.1));
    }

    #[test]
    fn quick_sizes_the_figure_down() {
        let full = parse("fault_sweep", &[]).unwrap().config();
        let quick = parse("fault_sweep", &["--quick"]).unwrap().config();
        assert_eq!(full.records, 20_000);
        let sizes = (
            quick.records,
            quick.operations_per_thread,
            quick.min_operations,
        );
        assert_eq!(sizes, (4_000, 300, 9_000));
        let multi_dc = parse("repair_sweep", &["--profile", "multi-dc"]).unwrap();
        assert_eq!(multi_dc.config().profile.name, "multi-dc");
    }
}
