//! The timed run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use crate::sched::{self, Traced};
use crate::spans::SpanLog;
use crate::stats::{beyond, median, min_samples, percentile, quartiles};
use crate::workloads::{
    check_incast, check_summary, fleet_cell, fold_digests, incast_config, incast_digest, json_obj,
    json_u64, run_cell_traced, summary_digest, IncastOut, Workload, DEFAULT_SEED,
};
use incast_core::cache::RunCache;
use incast_core::modes::{run_incast_with, MitigationKind, ModesConfig};
use incast_core::pool::PoolStats;
use incast_core::production::run_trace_summary_cached;
use incast_core::runner::par_reduce;
use millisampler::FleetAccumulator;
use simnet::TimingWheel;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold set-ups per end-to-end run: the run's own, then one in each of
/// `SETUP_REPS - 1` fresh processes of this binary. `setup_s` is their
/// upper quartile; see `e2e_report`.
pub const SETUP_REPS: usize = 9;

/// Pool participants on the fleet workload.
pub const FLEET_THREADS: usize = 2;

/// Fleet cells per op: one `par_reduce` job holds one cell of each
/// service, so ops cost alike and the 90th percentile of op time sits in
/// the box's slow state, as on the incast workloads. Single cells differ
/// in cost by service about 5x.
const FLEET_BATCH: u64 = workload::ServiceId::ALL.len() as u64;

/// The timed phase stops here even if it has too few ops, so the process
/// ends well within three minutes.
const TIMED_CAP: Duration = Duration::from_secs(140);

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
}

/// What a run prints: human-readable lines, then one JSON object.
#[derive(Debug)]
pub struct Report {
    /// Lines printed before the JSON object.
    pub lines: Vec<String>,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that panicked, were truncated, or failed an output check.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Tracks op verdicts: per-input digests must repeat within a run and, at
/// the default seed, match the recorded ones.
struct Checker {
    workload: Workload,
    expected: Vec<u64>,
    seen: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Self {
        Checker {
            workload,
            expected: if seed == DEFAULT_SEED {
                workload.expected_digests()
            } else {
                Vec::new()
            },
            seen: vec![None; workload.inputs()],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Records op `op` on input `input` (inputs past the digested ones are
    /// checked by their oracle only).
    fn record(&mut self, op: u64, input: usize, verdict: Result<u64, String>) {
        self.attempted += 1;
        let verdict = verdict.and_then(|d| {
            let Some(slot) = self.seen.get_mut(input) else {
                return Ok(());
            };
            let first = *slot.get_or_insert(d);
            if first != d {
                return Err(format!("digest {d:#018x}, earlier {first:#018x}"));
            }
            match self.expected.get(input) {
                Some(&want) if want != d => Err(format!("digest {d:#018x}, recorded {want:#018x}")),
                _ => Ok(()),
            }
        });
        if let Err(why) = verdict {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes
                    .push(format!("op {op} (input {input}) failed: {why}"));
            }
        }
    }

    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.notes.push(why);
    }

    /// The workload digest over every input's digest, or `None` if an
    /// input never produced one.
    fn digest_lines(&self, seed: u64) -> Vec<String> {
        let per: Option<Vec<u64>> = self.seen.iter().copied().collect();
        let mut lines = self.notes.clone();
        match per {
            Some(per) => {
                let list: Vec<String> = per.iter().map(|d| format!("{d:#018x}")).collect();
                lines.push(format!(
                    "digest {} seed={seed} {:#018x} inputs=[{}]",
                    self.workload.name(),
                    fold_digests(&per),
                    list.join(",")
                ));
            }
            None => lines.push(format!(
                "digest {} seed={seed} incomplete: not every input produced one",
                self.workload.name()
            )),
        }
        lines
    }
}

fn verdict_of(
    out: std::thread::Result<IncastOut>,
    check: impl FnOnce(&IncastOut) -> Result<(), String>,
) -> Result<u64, String> {
    let out = out.map_err(|_| "panicked".to_string())?;
    check(&out)?;
    Ok(incast_digest(&out))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed_phase_done(e: Duration, ops: usize, seconds: f64, min_ops: usize) -> bool {
    (e.as_secs_f64() >= seconds && ops >= min_ops) || e >= TIMED_CAP
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up of the workload in this process: input generation, the pool's
/// spin-up and the warm-up op, timed from workload start to where the
/// first timed op would begin. Cold only when nothing ran before it.
pub fn setup_only(args: &RunArgs) -> f64 {
    let t = Instant::now();
    match args.workload {
        Workload::Fleet => fleet_setup(args.seed),
        w => drop(black_box(incast_setup(w, args.seed))),
    }
    t.elapsed().as_secs_f64()
}

/// One cold set-up in a child process of this binary (`--setup-only 1`),
/// waited for; its time in seconds.
fn child_setup(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up: no executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string(), "--setup-only", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(secs)) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

/// The timed phase's clock, and the cold set-ups behind `setup_s`: the
/// run's own and those of `SETUP_REPS - 1` child processes. The children
/// run one at a time at evenly spaced points of the timed phase, so they
/// meet the same machine states as the ops. The clock stops while one
/// runs.
struct SetupSampler<'a> {
    args: &'a RunArgs,
    times: Vec<f64>,
    start: Instant,
    paused: Duration,
    error: Option<String>,
}

impl<'a> SetupSampler<'a> {
    /// Starts the timed phase after the run's own set-up of `own` seconds.
    fn start(args: &'a RunArgs, own: f64) -> Self {
        SetupSampler {
            args,
            times: vec![own],
            start: Instant::now(),
            paused: Duration::ZERO,
            error: None,
        }
    }

    /// Time spent in the timed phase, child set-ups excluded.
    fn timed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    fn child(&mut self) {
        let t = Instant::now();
        match child_setup(self.args) {
            Ok(secs) => self.times.push(secs),
            Err(e) => self.error = Some(e),
        }
        self.paused += t.elapsed();
    }

    /// Runs the next child set-up if the timed phase has reached its turn.
    fn poll(&mut self) {
        let done = self.times.len() - 1;
        let due = self.args.seconds * done as f64 / (SETUP_REPS - 1) as f64;
        if done + 1 < SETUP_REPS && self.error.is_none() && self.timed().as_secs_f64() >= due {
            self.child();
        }
    }

    /// Runs the children whose turn never came; returns every set-up
    /// time, the run's own first. A child that fails fails one op.
    fn finish(mut self, checker: &mut Checker) -> Vec<f64> {
        while self.times.len() < SETUP_REPS && self.error.is_none() {
            self.child();
        }
        if let Some(e) = self.error {
            checker.fail(1, e);
        }
        self.times
    }
}

/// The timed run: end-to-end metrics.
pub fn e2e(args: &RunArgs) -> Report {
    match args.workload {
        Workload::Fleet => fleet_e2e(args),
        w => incast_e2e(w, args),
    }
}

/// The traced run: per-layer metrics.
pub fn traced(args: &RunArgs) -> Report {
    match args.workload {
        Workload::Fleet => fleet_traced(args),
        w => incast_traced(w, args),
    }
}

/// Set-up of an incast workload: generate the inputs and run input 0 once
/// untimed, so allocator and caches are warm.
fn incast_setup(w: Workload, seed: u64) -> Vec<ModesConfig> {
    let cfgs: Vec<ModesConfig> = (0..w.inputs()).map(|k| incast_config(w, seed, k)).collect();
    black_box(run_incast_with::<TimingWheel>(&cfgs[0], None));
    cfgs
}

/// The end-to-end report over the timed phase's op times and wall time.
///
/// Every metric is printed; the JSON carries the gated ones (see
/// `BENCHMARK.json`). `op_ms_p50` and `ops_per_s` swing with the box's
/// speed state by more than the largest bound a gate may use, so they are
/// printed only; `op_ms_p90` sits in the slow state in almost every run.
/// For the same reason `setup_s` is the upper quartile of the run's cold
/// set-ups: their median lands in whichever state held the most of them.
fn e2e_report(
    w: Workload,
    args: &RunArgs,
    op_ms: &[f64],
    wall: Duration,
    setup: &[f64],
    checker: &Checker,
) -> Report {
    let (s1, s2, setup_s) = quartiles(setup).unwrap_or((0.0, setup[0], setup[0]));
    let n = op_ms.len();
    let p50 = median(op_ms).unwrap_or(0.0);
    let p90 = percentile(op_ms, 0.9).unwrap_or(0.0);
    let ops_per_s = n as f64 / wall.as_secs_f64();
    let rss = peak_rss_mb();
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    let (q1, _, q3) = quartiles(op_ms).unwrap_or_default();
    let mut lines = vec![format!(
        "perfbench {} seed={} e2e: {n} ops in {:.3} s, {} inputs, {} cores",
        w.name(),
        args.seed,
        wall.as_secs_f64(),
        w.inputs(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    )];
    lines.push(format!(
        "  op_ms_p50    {p50:>10.3} ms   n={n} (q1 {q1:.3}, q3 {q3:.3}), not gated"
    ));
    lines.push(format!(
        "  op_ms_p90    {p90:>10.3} ms   n={n}, {} beyond{}",
        beyond(n, 0.9),
        if beyond(n, 0.9) < 10 {
            " (too few)"
        } else {
            ""
        }
    ));
    lines.push(format!(
        "  ops_per_s    {ops_per_s:>10.3} 1/s  n={n}, not gated"
    ));
    lines.push(format!(
        "  setup_s      {setup_s:>10.4} s    upper quartile of {} cold set-ups (q1 {s1:.4}, median {s2:.4})",
        setup.len()
    ));
    let each: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    lines.push(format!("    set-ups in run order: {}", each.join(" ")));
    lines.push(format!("  peak_rss_mb  {rss:>10.1} MB   VmHWM"));
    lines.push(format!(
        "  failed_frac  {failed_frac:>10.4}      {}/{} (JSON: failed/attempted)",
        checker.failed, checker.attempted
    ));
    lines.extend(checker.digest_lines(args.seed));
    Report {
        lines,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("op_ms_p90", p90, "ms"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    }
}

fn incast_e2e(w: Workload, args: &RunArgs) -> Report {
    let t = Instant::now();
    let cfgs = incast_setup(w, args.seed);
    let own = t.elapsed().as_secs_f64();
    let mut checker = Checker::new(w, args.seed);
    let min_ops = min_samples(0.9, 10).max(cfgs.len());
    let mut op_ms = Vec::new();
    let mut clock = SetupSampler::start(args, own);
    // Whole passes, so every input weighs the same in the percentiles.
    while !timed_phase_done(clock.timed(), op_ms.len(), args.seconds, min_ops) {
        for (input, cfg) in cfgs.iter().enumerate() {
            clock.poll();
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_incast_with::<TimingWheel>(cfg, None)
            }));
            op_ms.push(ms(t.elapsed()));
            let verdict = verdict_of(out, |o| check_incast(w, cfg, o));
            checker.record(op_ms.len() as u64 - 1, input, verdict);
        }
    }
    let wall = clock.timed();
    let setup = clock.finish(&mut checker);
    e2e_report(w, args, &op_ms, wall, &setup, &checker)
}

/// Per-op values of one traced incast op.
type Layers = BTreeMap<&'static str, f64>;

/// Layer values of one traced op; `run_ms` is the whole `run_incast_with`
/// call, of which the manifest's timers cover set-up, loop and aggregation.
fn incast_layers(out: &IncastOut, run_ms: f64, sched: &sched::SchedTally) -> Layers {
    let (r, m) = out;
    let t = &r.profile.tallies;
    let timing = m.timing_json.as_deref().unwrap_or("");
    let us = |k| json_u64(timing, k).unwrap_or(0) as f64 / 1e3;
    let counters = m.counters_json.as_str();
    let count = |k| json_u64(counters, k).unwrap_or(0) as f64;
    let tiers = m.tiers_json.as_deref().unwrap_or("");
    let tier = |tier, k| {
        json_obj(tiers, tier)
            .and_then(|o| json_u64(o, k))
            .unwrap_or(0) as f64
    };
    let ctrl = m.control_json.as_deref().unwrap_or("");
    let notif = |k| json_u64(ctrl, k).unwrap_or(0) as f64;
    let events = r.profile.events() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    Layers::from([
        ("simnet.sched.schedule_calls", sched.schedule_calls as f64),
        ("simnet.sched.pop_calls", sched.pop_calls as f64),
        ("simnet.sched.other_calls", sched.other_calls as f64),
        ("simnet.sched.self_ms", sched.self_ns() / 1e6),
        ("simnet.events", events),
        ("simnet.tx_events", t.tx_complete as f64),
        ("simnet.rx_events", t.delivery as f64),
        ("simnet.timer_events", t.timer as f64),
        ("simnet.ctrl_events", t.ctrl as f64),
        (
            "simnet.loop_ns_per_event",
            ratio(us("sim_us") * 1e6, events),
        ),
        ("core.modes.setup_ms", us("setup_us")),
        ("core.modes.loop_ms", us("sim_us")),
        ("core.modes.aggregate_ms", us("aggregate_us")),
        (
            "core.modes.untimed_ms",
            run_ms - us("setup_us") - us("sim_us") - us("aggregate_us"),
        ),
        ("simnet.delivered_pkts", count("delivered_pkts")),
        ("simnet.queue_drops", count("queue_drops")),
        ("simnet.ecn_marked_pkts", count("ecn_marked_pkts")),
        (
            "simnet.bottleneck_watermark_pkts",
            r.queue_watermark_pkts as f64,
        ),
        (
            "simnet.spine_watermark_pkts",
            tier("spine", "watermark_pkts"),
        ),
        ("simnet.uplink_drops", tier("uplink", "dropped_pkts")),
        ("transport.timeouts", r.timeouts as f64),
        ("transport.fast_retransmits", r.fast_retransmits as f64),
        (
            "transport.retx_frac",
            ratio(r.retx_bytes as f64, count("delivered_bytes")),
        ),
        ("workload.bursts_completed", r.bcts_ms.len() as f64),
        ("simnet.control.notif_sent", notif("notif_sent")),
        ("simnet.control.notif_acked", notif("notif_acked")),
        (
            "simnet.control.ack_ratio",
            ratio(notif("notif_acked"), notif("notif_sent")),
        ),
    ])
}

/// How a per-layer metric is reduced over the traced ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// A time: the median over traced ops.
    Median,
    /// A deterministic count: the mean over inputs of each input's value,
    /// so it repeats exactly for a seed.
    PerInput,
    /// One value for the whole run.
    Run,
}

/// Every per-layer metric the traced run prints, with unit and reduction.
/// Metrics a workload does not exercise print 0.
pub const LAYER_METRICS: &[(&str, &str, Reduce)] = &[
    ("simnet.sched.schedule_calls", "count", Reduce::PerInput),
    ("simnet.sched.pop_calls", "count", Reduce::PerInput),
    ("simnet.sched.other_calls", "count", Reduce::PerInput),
    ("simnet.sched.self_ms", "ms", Reduce::Median),
    ("simnet.events", "count", Reduce::PerInput),
    ("simnet.tx_events", "count", Reduce::PerInput),
    ("simnet.rx_events", "count", Reduce::PerInput),
    ("simnet.timer_events", "count", Reduce::PerInput),
    ("simnet.ctrl_events", "count", Reduce::PerInput),
    ("simnet.loop_ns_per_event", "ns", Reduce::Median),
    ("core.modes.setup_ms", "ms", Reduce::Median),
    ("core.modes.loop_ms", "ms", Reduce::Median),
    ("core.modes.aggregate_ms", "ms", Reduce::Median),
    ("core.modes.untimed_ms", "ms", Reduce::Median),
    ("telemetry.git_describe_ms", "ms", Reduce::Median),
    ("simnet.delivered_pkts", "count", Reduce::PerInput),
    ("simnet.queue_drops", "count", Reduce::PerInput),
    ("simnet.ecn_marked_pkts", "count", Reduce::PerInput),
    ("simnet.bottleneck_watermark_pkts", "pkts", Reduce::PerInput),
    ("simnet.spine_watermark_pkts", "pkts", Reduce::PerInput),
    ("simnet.uplink_drops", "count", Reduce::PerInput),
    ("transport.timeouts", "count", Reduce::PerInput),
    ("transport.fast_retransmits", "count", Reduce::PerInput),
    ("transport.retx_frac", "ratio", Reduce::PerInput),
    ("workload.bursts_completed", "count", Reduce::PerInput),
    ("simnet.control.notif_sent", "count", Reduce::PerInput),
    ("simnet.control.notif_acked", "count", Reduce::PerInput),
    ("simnet.control.ack_ratio", "ratio", Reduce::PerInput),
    ("simnet.control.overhead_frac", "ratio", Reduce::Run),
    ("core.production.trace_ms", "ms", Reduce::Median),
    ("millisampler.detect_ms", "ms", Reduce::Median),
    ("millisampler.summary_ms", "ms", Reduce::Median),
    ("millisampler.bursts", "count", Reduce::PerInput),
    ("core.pool.busy_frac", "ratio", Reduce::Run),
    ("core.pool.steal_frac", "ratio", Reduce::Run),
    ("core.pool.items", "count", Reduce::Run),
    ("core.cache.misses", "count", Reduce::Run),
    ("core.cache.hits", "count", Reduce::Run),
    ("trace.overhead_frac", "ratio", Reduce::Run),
];

/// Collects per-op layer values and reduces them per [`LAYER_METRICS`].
#[derive(Default)]
struct LayerSink {
    per_op: BTreeMap<&'static str, Vec<f64>>,
    per_input: BTreeMap<usize, Layers>,
    run: Layers,
}

impl LayerSink {
    fn op(&mut self, input: usize, layers: Layers) {
        for (&k, &v) in &layers {
            self.per_op.entry(k).or_default().push(v);
        }
        self.per_input.entry(input).or_insert(layers);
    }

    fn value(&self, name: &str, reduce: Reduce) -> f64 {
        match reduce {
            Reduce::Median => self.per_op.get(name).and_then(|v| median(v)),
            Reduce::PerInput => {
                let vals: Vec<f64> = self
                    .per_input
                    .values()
                    .filter_map(|l| l.get(name).copied())
                    .collect();
                (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
            }
            Reduce::Run => self.run.get(name).copied(),
        }
        .unwrap_or(0.0)
    }

    fn report(
        self,
        w: Workload,
        args: &RunArgs,
        ops: usize,
        traced: usize,
        checker: &Checker,
    ) -> Report {
        let mut lines = vec![format!(
            "perfbench {} seed={} traced: {ops} ops, {traced} of them traced",
            w.name(),
            args.seed,
        )];
        let mut metrics = Vec::new();
        for &(name, unit, reduce) in LAYER_METRICS {
            let v = self.value(name, reduce);
            lines.push(format!("  {name:<34} {v:>16.4} {unit}"));
            metrics.push((name, v, unit));
        }
        lines.extend(checker.digest_lines(args.seed));
        Report {
            lines,
            attempted: checker.attempted,
            failed: checker.failed,
            metrics,
        }
    }
}

fn spans_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{seed}.spans.jsonl", w.name()))
}

fn write_spans(log: &SpanLog, w: Workload, seed: u64, lines: &mut Vec<String>) {
    let path = spans_path(w, seed);
    match log.write_jsonl(&path) {
        Ok(()) => lines.push(format!(
            "spans: {} in {}",
            log.spans().len(),
            path.display()
        )),
        Err(e) => lines.push(format!("spans: not written to {}: {e}", path.display())),
    }
}

/// Traced run of an incast workload. Ops alternate: the untraced op on an
/// input, then the traced op on the same input, so tracing overhead is
/// measured in the same window and the two digests must agree.
fn incast_traced(w: Workload, args: &RunArgs) -> Report {
    let cfgs = incast_setup(w, args.seed);
    let k = cfgs.len();
    let mut checker = Checker::new(w, args.seed);
    let mut sink = LayerSink::default();
    let mut log = SpanLog::new(Instant::now());
    let mut untraced_ms = Vec::new();
    let mut plane_off_ms = Vec::new();
    let mut ops = 0usize;
    let start = Instant::now();
    while !timed_phase_done(start.elapsed(), ops, args.seconds, 2 * k) {
        let (op, input) = (ops as u64, (ops / 2) % k);
        let cfg = &cfgs[input];
        ops += 1;
        if op % 2 == 0 {
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_incast_with::<TimingWheel>(cfg, None)
            }));
            untraced_ms.push(ms(t.elapsed()));
            checker.record(op, input, verdict_of(out, |o| check_incast(w, cfg, o)));
            continue;
        }
        let root = log.begin("op", None, op);
        let before = sched::tally();
        let run = log.begin("core.modes.run_incast_with", Some(root), op);
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_incast_with::<Traced<TimingWheel>>(cfg, None)
        }));
        log.end(run);
        let run_ms = log.spans()[run].ns() as f64 / 1e6;
        let calls = sched::tally().since(&before);
        let verdict = log.time("bench.check", Some(root), op, || match &out {
            Ok(o) => {
                sink.op(input, incast_layers(o, run_ms, &calls));
                check_incast(w, cfg, o).map(|()| incast_digest(o))
            }
            Err(_) => Err("panicked".to_string()),
        });
        log.end(root);
        checker.record(op, input, verdict);
        let git = log.time("telemetry.git_describe", None, op, telemetry::git_describe);
        black_box(git);
        if cfg.mitigation.kind != MitigationKind::Off {
            let mut off = cfg.clone();
            off.mitigation.kind = MitigationKind::Off;
            let t = Instant::now();
            black_box(
                log.time("core.modes.run_incast_with.plane_off", None, op, || {
                    run_incast_with::<TimingWheel>(&off, None)
                }),
            );
            plane_off_ms.push(ms(t.elapsed()));
        }
    }
    let git_ms = log.ms_of("telemetry.git_describe");
    sink.per_op.insert("telemetry.git_describe_ms", git_ms);
    let traced_ms = log.ms_of("core.modes.run_incast_with");
    let over = |a: &[f64], b: &[f64]| match (median(a), median(b)) {
        (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
        _ => 0.0,
    };
    sink.run
        .insert("trace.overhead_frac", over(&traced_ms, &untraced_ms));
    sink.run.insert(
        "simnet.control.overhead_frac",
        over(&untraced_ms, &plane_off_ms),
    );
    let mut report = sink.report(w, args, ops, traced_ms.len(), &checker);
    write_spans(&log, w, args.seed, &mut report.lines);
    report
}

/// Set-up of the fleet workload: the first `par_reduce` spins up the
/// persistent pool. Its warm-up cells run on their own cache under a
/// different seed, so the timed cells still meet a cold cache.
fn fleet_setup(seed: u64) {
    let cache = RunCache::in_memory();
    let warm: Vec<u64> = (0..FLEET_THREADS as u64).collect();
    let map = |&i: &u64| run_trace_summary_cached(&fleet_cell(!seed, i), &cache);
    par_reduce(warm, FLEET_THREADS, map, (), |(), _, s| drop(black_box(s)));
}

/// Fleet cells as `run_fleet_with` composes them: `par_reduce` jobs on the
/// persistent pool, each cell through the run cache, summaries folded into
/// per-service accumulators in item order on the calling thread. An op is
/// one job; the checks count cells.
struct FleetRun {
    cache: RunCache,
    accs: Vec<FleetAccumulator>,
    checker: Checker,
    op_ms: Vec<f64>,
    cell_ms: Vec<f64>,
    bursts: Vec<(usize, f64)>,
    next: u64,
}

impl FleetRun {
    fn new(seed: u64) -> Self {
        FleetRun {
            cache: RunCache::in_memory(),
            accs: (0..workload::ServiceId::ALL.len())
                .map(|_| FleetAccumulator::new())
                .collect(),
            checker: Checker::new(Workload::Fleet, seed),
            op_ms: Vec::new(),
            cell_ms: Vec::new(),
            bursts: Vec::new(),
            next: 0,
        }
    }

    /// Runs one op, a job of [`FLEET_BATCH`] cells; `cell` maps a cell
    /// index to its time and summary on a pool worker, and the fold checks
    /// and accumulates each result in item order.
    fn batch<F>(&mut self, cell: F)
    where
        F: Fn(u64, &RunCache) -> (f64, Result<Arc<millisampler::TraceSummary>, String>) + Sync,
    {
        let items: Vec<u64> = (self.next..self.next + FLEET_BATCH).collect();
        self.next += FLEET_BATCH;
        let FleetRun {
            cache,
            accs,
            checker,
            op_ms,
            cell_ms,
            bursts,
            ..
        } = self;
        let cache = &*cache;
        let map = |&i: &u64| cell(i, cache);
        let t = Instant::now();
        par_reduce(items, FLEET_THREADS, map, (), |(), &i, (ms, summary)| {
            cell_ms.push(ms);
            let verdict = summary.and_then(|s| {
                check_summary(&s)?;
                let svc = (i % accs.len() as u64) as usize;
                accs[svc].add_summary(&s);
                if (i as usize) < Workload::Fleet.inputs() {
                    bursts.push((i as usize, s.per_burst.len() as f64));
                }
                Ok(summary_digest(&s))
            });
            checker.record(i, i as usize, verdict);
        });
        op_ms.push(ms(t.elapsed()));
    }

    /// End-of-run checks: every cell was a cache miss and reached its
    /// service's accumulator.
    fn finish(&mut self) {
        let stats = self.cache.stats();
        if stats.hits() > 0 {
            self.checker.fail(
                stats.hits(),
                format!("{} cache hits on a cold cache", stats.hits()),
            );
        }
        let folded: usize = self.accs.iter().map(|a| a.traces).sum();
        let ok = self.checker.attempted - self.checker.failed;
        if folded as u64 != ok {
            self.checker
                .fail(1, format!("{folded} summaries folded, {ok} cells passed"));
        }
    }
}

fn cell_untraced(
    seed: u64,
    i: u64,
    cache: &RunCache,
) -> (f64, Result<Arc<millisampler::TraceSummary>, String>) {
    let cfg = fleet_cell(seed, i);
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| run_trace_summary_cached(&cfg, cache)));
    (ms(t.elapsed()), out.map_err(|_| "panicked".to_string()))
}

fn fleet_e2e(args: &RunArgs) -> Report {
    let t = Instant::now();
    fleet_setup(args.seed);
    let own = t.elapsed().as_secs_f64();
    let mut run = FleetRun::new(args.seed);
    let min_ops = min_samples(0.9, 10).max(Workload::Fleet.inputs());
    let mut clock = SetupSampler::start(args, own);
    while !timed_phase_done(clock.timed(), run.op_ms.len(), args.seconds, min_ops) {
        clock.poll();
        let seed = args.seed;
        run.batch(|i, cache| cell_untraced(seed, i, cache));
    }
    let wall = clock.timed();
    run.finish();
    let setup = clock.finish(&mut run.checker);
    e2e_report(
        Workload::Fleet,
        args,
        &run.op_ms,
        wall,
        &setup,
        &run.checker,
    )
}

/// Traced fleet run: odd cells run traced (each layer call in a span),
/// even cells as in the timed run, for the overhead comparison.
fn fleet_traced(args: &RunArgs) -> Report {
    fleet_setup(args.seed);
    let mut run = FleetRun::new(args.seed);
    let epoch = Instant::now();
    let logs = std::sync::Mutex::new(SpanLog::new(epoch));
    let min_ops = 2 * Workload::Fleet.inputs();
    let pool_before = PoolStats::snapshot();
    let start = Instant::now();
    while !timed_phase_done(start.elapsed(), run.op_ms.len(), args.seconds, min_ops) {
        let seed = args.seed;
        run.batch(|i, cache| {
            if i % 2 == 0 {
                return cell_untraced(seed, i, cache);
            }
            let cfg = fleet_cell(seed, i);
            let mut log = SpanLog::new(epoch);
            let root = log.begin("op", None, i);
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_cell_traced(&cfg, cache, &mut log, root, i)
            }));
            log.end(root);
            let cell_ms = log.spans()[root].ns() as f64 / 1e6;
            logs.lock().expect("span log lock").absorb(log);
            (cell_ms, out.unwrap_or_else(|_| Err("panicked".to_string())))
        });
    }
    let wall = start.elapsed();
    let pool = PoolStats::snapshot().delta(&pool_before);
    run.finish();
    let log = logs.into_inner().expect("span log lock");

    let mut sink = LayerSink::default();
    for (name, span) in [
        (
            "core.production.trace_ms",
            "core.production.run_service_trace",
        ),
        ("millisampler.detect_ms", "millisampler.detect_bursts"),
        ("millisampler.summary_ms", "millisampler.summary"),
    ] {
        sink.per_op.insert(name, log.ms_of(span));
    }
    for &(input, bursts) in &run.bursts {
        sink.per_input
            .entry(input)
            .or_default()
            .insert("millisampler.bursts", bursts);
    }
    let traced_ms = log.ms_of("op");
    let untraced_ms: Vec<f64> = run.cell_ms.iter().step_by(2).copied().collect();
    let stats = run.cache.stats();
    let busy = run.cell_ms.iter().sum::<f64>() / (FLEET_THREADS as f64 * ms(wall));
    sink.run.extend([
        ("core.pool.busy_frac", busy),
        ("core.pool.steal_frac", pool.steal_fraction()),
        ("core.pool.items", pool.items as f64),
        ("core.cache.misses", stats.misses as f64),
        ("core.cache.hits", stats.hits() as f64),
        (
            "trace.overhead_frac",
            match (median(&traced_ms), median(&untraced_ms)) {
                (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
                _ => 0.0,
            },
        ),
    ]);
    let cells = run.cell_ms.len();
    let mut report = sink.report(Workload::Fleet, args, cells, traced_ms.len(), &run.checker);
    write_spans(&log, Workload::Fleet, args.seed, &mut report.lines);
    report
}
