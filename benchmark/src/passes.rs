//! The two passes over one workload.
//!
//! * [`end_to_end`] — untraced repetitions of the real entry points
//!   (`Runner::new` → `Runner::run`, `run_sharded_experiment`) under the plain
//!   system allocator, plus one repetition of the counting binary as a child
//!   process. Produces the four end-to-end metrics; the run time is taken
//!   piece by piece over the repetitions ([`least_disturbed`]).
//! * [`per_layer`] — a few timed repetitions for reference, the benchmark's
//!   own driver once untraced (D) and once traced (X), one repetition with
//!   observability on, and the stand-alone probes. Produces every per-layer
//!   metric and writes the sampled raw spans.
//!
//! Other passes are spread among the timed repetitions (T C T T …, T D T X T
//! O P T …) so one burst of interference cannot cover all of them.

use crate::catalogue::PER_LAYER;
use crate::driver::Driver;
use crate::probes;
use crate::spans::{NoTrace, Span, SpanTrace};
use crate::stats::{fastest, least_disturbed, spread_pct};
use crate::workloads::{Fingerprint, TickStamps, Workload};
use harmony_sim::topology::NodeId;
use harmony_store::cluster::Cluster;
use harmony_ycsb::runner::ExperimentResult;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Timed repetitions a pass makes at the least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// How far past `--seconds` the last timed repetition may be expected to end.
/// Without it a pass stops a whole repetition (2-3 s) short of its seconds
/// half the time.
const OVERRUN_SECS: f64 = 1.0;

/// The op counts are sized for a timed run of ~2 s on the container the
/// benchmark was defined on; a run shorter than this is too short to be
/// steady on a shared machine and fails the pass.
const MIN_RUN_SECS: f64 = 1.0;

/// What one pass reports.
#[derive(Debug)]
pub struct Outcome {
    /// Client operations attempted in one repetition (completed + failed).
    pub attempted: u64,
    /// Client operations that failed (aborted after their last attempt).
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Checks that did not hold; empty means the outputs are correct.
    pub failures: Vec<String>,
}

/// The timed repetitions (T) of one pass.
struct Reps<'w> {
    w: &'w Workload,
    /// `w` with the time of each controller tick noted in `stamps`.
    timed: Workload,
    stamps: TickStamps,
    started: Instant,
    budget_secs: f64,
    /// Wall time of the last repetition, calibration and set-up included.
    last_rep_secs: f64,
    setups: Vec<f64>,
    runs: Vec<f64>,
    /// Each run cut at its controller ticks: the pieces' durations.
    segments: Vec<Vec<f64>>,
    calibs: Vec<f64>,
    first: Option<(Fingerprint, ExperimentResult)>,
    failures: Vec<String>,
}

impl<'w> Reps<'w> {
    fn new(w: &'w Workload, budget_secs: f64) -> Self {
        let stamps = TickStamps::default();
        Reps {
            w,
            timed: w.stamped(&stamps),
            stamps,
            started: Instant::now(),
            budget_secs,
            last_rep_secs: 0.0,
            setups: Vec::new(),
            runs: Vec::new(),
            segments: Vec::new(),
            calibs: Vec::new(),
            first: None,
            failures: Vec::new(),
        }
    }

    /// One timed repetition: calibration kernel, set-up, run, fingerprint.
    fn rep(&mut self) {
        let rep_started = Instant::now();
        let w = &self.timed;
        self.calibs.push(probes::host_calibration_ms());
        let (setup, run_started, result) = if w.shards > 1 {
            // Set-up and run are one call; time the call cut to one op per
            // session as the set-up, and the whole call as the run.
            let cut = w.setup_only();
            let t = Instant::now();
            std::hint::black_box(cut.run_sharded(w.shards));
            let setup = t.elapsed().as_secs_f64();
            let t = Instant::now();
            (setup, t, w.run_sharded(w.shards))
        } else {
            let t = Instant::now();
            let runner = w.new_runner();
            let setup = t.elapsed().as_secs_f64();
            let t = Instant::now();
            (setup, t, runner.run())
        };
        let run_ended = Instant::now();
        self.setups.push(setup);
        self.runs.push((run_ended - run_started).as_secs_f64());
        self.segments
            .push(self.stamps.take_segments(run_started, run_ended));
        let fingerprint = Fingerprint::of(&result);
        match &self.first {
            None => self.first = Some((fingerprint, result)),
            Some((first, _)) => self
                .failures
                .extend(differs("a repetition", &fingerprint, first)),
        }
        self.last_rep_secs = rep_started.elapsed().as_secs_f64();
    }

    /// Checks that another kind of run reproduced the timed repetitions.
    fn expect_same(&mut self, what: &str, got: &Fingerprint) {
        let failure = differs(what, got, self.fingerprint());
        self.failures.extend(failure);
    }

    /// Repeats until `MIN_REPS` are in and another repetition as long as the
    /// last one would end more than [`OVERRUN_SECS`] past the pass's seconds.
    fn fill(&mut self) {
        while self.runs.len() < MIN_REPS
            || self.started.elapsed().as_secs_f64() + self.last_rep_secs
                < self.budget_secs + OVERRUN_SECS
        {
            self.rep();
        }
    }

    /// The run's least-disturbed time: the repetitions are cut at the
    /// controller's ticks and each piece's fastest time is summed (see
    /// [`least_disturbed`]). The repetitions execute the same instructions,
    /// so they tick equally often; if they did not, that is a failed check
    /// and the fastest whole repetition stands in.
    fn run_time(&mut self) -> f64 {
        least_disturbed(&self.segments).unwrap_or_else(|| {
            let ticks: Vec<usize> = self.segments.iter().map(|s| s.len() - 1).collect();
            self.failures.push(format!(
                "the repetitions did not tick equally often: {ticks:?}"
            ));
            fastest(&self.runs)
        })
    }

    fn fingerprint(&self) -> &Fingerprint {
        &self.first.as_ref().expect("a repetition ran").0
    }

    fn result(&self) -> &ExperimentResult {
        &self.first.as_ref().expect("a repetition ran").1
    }

    /// The checks every pass makes on the repetitions' (identical) outputs.
    fn check_outputs(&mut self) {
        let w = self.w;
        let (fp, result) = self.first.as_ref().expect("a repetition ran");
        let mut failures = Vec::new();
        if fp.operations != w.operations() {
            failures.push(format!(
                "completed {} of {} operations (deadline stop?)",
                fp.operations,
                w.operations()
            ));
        }
        let faults = result.fault_counters.total();
        if w.faults.is_empty() {
            if faults != 0 || fp.aborted_ops != 0 || fp.totals.ops_aborted != 0 {
                failures.push(format!(
                    "fault-free workload saw {faults} faults, {} aborts",
                    fp.totals.ops_aborted
                ));
            }
        } else {
            let t = &fp.totals;
            if faults != w.faults.len() as u64 {
                failures.push(format!("{faults} of {} faults fired", w.faults.len()));
            }
            if t.ae_rounds == 0 || t.hints_evicted == 0 || fp.retries == 0 {
                failures.push(format!(
                    "the repair paths are not live: {} anti-entropy rounds, {} hints evicted, {} retries",
                    t.ae_rounds, t.hints_evicted, fp.retries
                ));
            }
        }
        if fp.totals.protocol_drops != 0 {
            failures.push(format!("{} protocol drops", fp.totals.protocol_drops));
        }
        let shortest = fastest(&self.runs);
        if shortest < MIN_RUN_SECS {
            failures.push(format!(
                "a timed run lasted {shortest:.3} s; under {MIN_RUN_SECS} s is too short to be steady"
            ));
        }
        self.failures.extend(failures);
    }

    fn into_outcome(mut self, metrics: Vec<(&'static str, f64)>) -> Outcome {
        self.check_outputs();
        let fp = self.fingerprint();
        Outcome {
            attempted: fp.operations + fp.aborted_ops,
            failed: fp.aborted_ops,
            metrics,
            failures: self.failures,
        }
    }
}

fn differs(what: &str, got: &Fingerprint, want: &Fingerprint) -> Option<String> {
    (got != want).then(|| format!("{what} is not the first repetition's run: {got:?} != {want:?}"))
}

/// Runs the counting binary once and returns `(allocs during run, peak
/// bytes, fingerprint as text)`.
fn counting_rep(count_bin: &Path, w: &Workload) -> Result<(u64, u64, String), String> {
    let output = Command::new(count_bin)
        .arg(w.name)
        .arg(w.spec.seed.to_string())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", count_bin.display()))?;
    if !output.status.success() {
        return Err(format!("counting binary exited with {}", output.status));
    }
    let line = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(key)? + key.len()..];
        Some(rest)
    };
    let number = |key: &str| -> Option<u64> { field(key)?.split_whitespace().next()?.parse().ok() };
    match (
        number("allocs_run="),
        number("peak_bytes="),
        field("fingerprint="),
    ) {
        (Some(allocs), Some(peak), Some(fp)) => Ok((allocs, peak, fp.trim().to_string())),
        _ => Err(format!("cannot parse the counting binary's output: {line}")),
    }
}

/// The end-to-end pass: T C T T … for `seconds`.
pub fn end_to_end(w: &Workload, seconds: f64, count_bin: &Path) -> Outcome {
    let mut reps = Reps::new(w, seconds);
    reps.rep();
    let counted = counting_rep(count_bin, w);
    reps.fill();

    let ops = reps.fingerprint().operations as f64;
    let run_time = reps.run_time();
    let mut metrics = vec![
        ("wall_ops_per_s", ops / run_time),
        ("setup_s", fastest(&reps.setups)),
    ];
    match counted {
        Ok((allocs, peak_bytes, fingerprint)) => {
            if fingerprint != format!("{:?}", reps.fingerprint()) {
                reps.failures.push(format!(
                    "the counting repetition is not the timed run: {fingerprint}"
                ));
            }
            metrics.push(("allocs_per_op", allocs as f64 / ops));
            metrics.push(("peak_alloc_mb", peak_bytes as f64 / 1e6));
        }
        Err(e) => reps.failures.push(e),
    }
    eprintln!(
        "[{}] {} timed reps cut into {} pieces: run least disturbed {:.3} s, fastest {:.3} s, spread {:.1} %; set-up fastest {:.4} s; calib fastest {:.2} ms",
        w.name,
        reps.runs.len(),
        reps.segments[0].len(),
        run_time,
        fastest(&reps.runs),
        spread_pct(&reps.runs),
        fastest(&reps.setups),
        fastest(&reps.calibs),
    );
    reps.into_outcome(metrics)
}

/// Process CPU time (user + system, all threads) in clock ticks.
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after the name.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn per(total_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64
    }
}

/// Per-layer numbers from the untraced (D) and traced (X) driver runs.
fn driver_metrics(
    w: &Workload,
    reps: &mut Reps,
    out_dir: &Path,
    m: &mut Vec<(&'static str, f64)>,
) -> Cluster {
    reps.rep();
    let (d, cluster, _) = Driver::<NoTrace>::new(w).run();
    reps.rep();
    let (x, _, trace) = Driver::<SpanTrace>::new(w).run();
    reps.rep();

    reps.expect_same("the untraced driver", &d.fingerprint);
    reps.expect_same("the traced driver", &x.fingerprint);
    let result = reps.result();
    let last_divergence = result.divergence_timeline.last();
    if d.ticks != result.decisions.len() as u64
        || d.read_level_histogram != result.read_level_histogram
        || d.fault_counters != result.fault_counters
        || d.final_divergent_keys != last_divergence.map_or(0, |s| s.divergent_keys)
    {
        reps.failures.push(
            "the driver's ticks, read levels, faults or divergence differ from the runner's".into(),
        );
    }

    let ops = reps.fingerprint().operations;
    let x_run_ns = x.run_s * 1e9;
    let acc = |s: Span| trace.acc(s);
    let self_per_call = |s: Span| per(acc(s).self_ns, acc(s).count);
    let share = |layer: &str| trace.run_self_ns(Some(layer)) as f64 / x_run_ns * 100.0;
    let coverage = trace.run_self_ns(None) as f64 / x_run_ns * 100.0;
    if coverage < 85.0 {
        reps.failures.push(format!(
            "spans cover {coverage:.1} % of the traced run (< 85 %)"
        ));
    }
    let ae_ns = acc(Span::StoreAeRound).self_ns + acc(Span::StoreAeMessage).self_ns;
    let (flushes, compactions) = (0..cluster.node_count())
        .map(|i| cluster.node(NodeId(i as u32)).engine().stats())
        .fold((0, 0), |(f, c), s| (f + s.flushes, c + s.compactions));
    m.extend([
        ("sim.pop_ns", self_per_call(Span::SimPop)),
        ("sim.push_ns", self_per_call(Span::SimPush)),
        ("sim.events_per_op", d.events as f64 / ops as f64),
        ("sim.queue_depth_max", d.queue_depth_max as f64),
        ("sim.share_pct", share("sim")),
        ("store.deliver_ns", self_per_call(Span::StoreDeliver)),
        ("store.process_ns", self_per_call(Span::StoreProcess)),
        ("store.reply_ns", self_per_call(Span::StoreReply)),
        (
            "store.deliver_per_op",
            acc(Span::StoreDeliver).count as f64 / ops as f64,
        ),
        (
            "store.process_per_op",
            acc(Span::StoreProcess).count as f64 / ops as f64,
        ),
        ("store.submit_ns", self_per_call(Span::StoreSubmit)),
        (
            "store.probe_us_per_tick",
            per(acc(Span::StoreProbe).self_ns, x.ticks) / 1e3,
        ),
        ("store.fault_us", self_per_call(Span::StoreFault) / 1e3),
        (
            "store.reaper_us_per_tick",
            self_per_call(Span::StoreReaper) / 1e3,
        ),
        (
            "store.divergence_us_per_tick",
            self_per_call(Span::StoreDivergence) / 1e3,
        ),
        (
            "store.ae_ms_per_round",
            per(ae_ns, acc(Span::StoreAeRound).count) / 1e6,
        ),
        ("store.engine_flushes", flushes as f64),
        ("store.engine_compactions", compactions as f64),
        (
            "store.load_us_per_krecord",
            per(acc(Span::StoreLoad).total_ns, w.spec.workload.record_count),
        ),
        ("store.share_pct", share("store")),
        ("ycsb.gen_ns", self_per_call(Span::YcsbGen)),
        ("ycsb.issue_ns", self_per_call(Span::YcsbIssue)),
        ("ycsb.complete_ns", self_per_call(Span::YcsbComplete)),
        ("ycsb.share_pct", share("ycsb")),
        (
            "ycsb.runner_overhead_pct",
            (fastest(&reps.runs) / d.run_s - 1.0) * 100.0,
        ),
        ("adaptive.tick_us", self_per_call(Span::AdaptiveTick) / 1e3),
        ("adaptive.share_pct", share("adaptive")),
        ("trace.overhead_pct", (x.run_s / d.run_s - 1.0) * 100.0),
        ("trace.coverage_pct", coverage),
    ]);

    let path = out_dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, trace.raw_json(w.name, w.spec.seed)));
    match written {
        Ok(()) => eprintln!(
            "[{}] {} raw spans written to {}",
            w.name,
            trace.raw().len(),
            path.display()
        ),
        Err(e) => reps
            .failures
            .push(format!("cannot write {}: {e}", path.display())),
    }
    cluster
}

/// `sharded` has no driver: its layer numbers are ratios against one extra
/// single-loop repetition of the same inputs.
fn shard_metrics(w: &Workload, reps: &mut Reps, m: &mut Vec<(&'static str, f64)>) -> Cluster {
    reps.rep();
    let timed = |f: &dyn Fn() -> ExperimentResult| {
        let cpu = cpu_ticks();
        let t = Instant::now();
        std::hint::black_box(f());
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_ticks()
            .zip(cpu)
            .map_or(0.0, |(after, before)| (after - before) as f64);
        (wall, cpu)
    };
    let (one_wall, one_cpu) = timed(&|| w.run_sharded(1));
    reps.rep();
    let (n_wall, n_cpu) = timed(&|| w.run_sharded(w.shards));
    let cut = w.setup_only();
    let one_setup = fastest(&[
        timed(&|| cut.run_sharded(1)).0,
        timed(&|| cut.run_sharded(1)).0,
    ]);
    reps.rep();
    m.extend([
        ("ycsb.shard_wall_speedup", one_wall / n_wall),
        (
            "ycsb.shard_cpu_ratio",
            if one_cpu > 0.0 { n_cpu / one_cpu } else { 0.0 },
        ),
        ("ycsb.shard_setup_ratio", fastest(&reps.setups) / one_setup),
    ]);
    // The probes want a loaded cluster of the workload's shape.
    let single = Workload {
        shards: 1,
        ..w.clone()
    };
    Driver::<NoTrace>::new(&single).cluster
}

/// The per-layer pass: T D T X T O P T … for `seconds`.
pub fn per_layer(w: &Workload, seconds: f64, out_dir: &Path) -> Outcome {
    let mut reps = Reps::new(w, seconds);
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut cluster = if w.shards > 1 {
        shard_metrics(w, &mut reps, &mut m)
    } else {
        driver_metrics(w, &mut reps, out_dir, &mut m)
    };

    let (observed_s, observed) = w.run_observed();
    reps.expect_same(
        "the repetition with observability on",
        &Fingerprint::of(&observed),
    );
    m.extend(probes::run_all(w, &mut cluster));
    reps.fill();

    let result = reps.result();
    let (stats, totals) = (&result.stats, &result.cluster_totals);
    let reads: u64 = result.read_level_histogram.values().sum();
    let replica_reads: u64 = result
        .read_level_histogram
        .iter()
        .map(|(replicas, n)| *replicas as u64 * n)
        .sum();
    m.extend([
        ("store.ae_rounds", totals.ae_rounds as f64),
        ("store.ae_rows_streamed", totals.ae_rows_streamed as f64),
        ("store.hints_evicted", totals.hints_evicted as f64),
        ("store.repairs_issued", totals.repairs_issued as f64),
        ("store.protocol_drops", totals.protocol_drops as f64),
        ("store.ops_aborted", totals.ops_aborted as f64),
        (
            "store.final_divergent_keys",
            result
                .divergence_timeline
                .last()
                .map_or(0.0, |s| s.divergent_keys as f64),
        ),
        ("ycsb.retries", stats.retries as f64),
        ("ycsb.model_ops_per_vsec", stats.throughput_ops_per_sec()),
        (
            "ycsb.model_fresh_read_pct",
            (1.0 - stats.stale_fraction()) * 100.0,
        ),
        (
            "ycsb.model_read_p50_ms",
            stats.read_latency.percentile_ms(0.50),
        ),
        (
            "ycsb.model_read_p99_ms",
            stats.read_latency.percentile_ms(0.99),
        ),
        (
            "ycsb.model_write_p99_ms",
            stats.write_latency.percentile_ms(0.99),
        ),
        ("adaptive.ticks", result.decisions.len() as f64),
        ("adaptive.mean_read_replicas", per(replica_reads, reads)),
        ("chaos.faults_applied", result.fault_counters.total() as f64),
        (
            "obs.enabled_overhead_pct",
            (observed_s / fastest(&reps.runs) - 1.0) * 100.0,
        ),
        ("host.rep_spread_pct", spread_pct(&reps.runs)),
        ("host.calib_ms", fastest(&reps.calibs)),
        ("host.timed_reps", reps.runs.len() as f64),
        ("host.fastest_run_s", fastest(&reps.runs)),
    ]);
    let run_time = reps.run_time();
    m.push(("host.least_disturbed_run_s", run_time));

    // Every catalogue metric is printed; one that does not apply reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = m
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(0.0, |(_, v)| *v);
            (def.name, value)
        })
        .collect();
    for (name, _) in &m {
        if !PER_LAYER.iter().any(|def| def.name == *name) {
            reps.failures
                .push(format!("{name} is not in the catalogue"));
        }
    }
    reps.into_outcome(metrics)
}
