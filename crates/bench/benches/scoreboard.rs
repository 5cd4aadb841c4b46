//! The machine-readable perf scoreboard: regenerates `BENCH_8.json`.
//!
//! One JSON object with the repo's headline performance numbers — fig5
//! end-to-end scheduler throughput (Mev/s, wheel and heap, for both the
//! tcp and quic transport stacks), the hold-cycle scheduler
//! micro-benchmark (ns/op), and the sweep engine's cold/warm latencies —
//! so perf regressions show up as a diff against the checked-in baseline
//! instead of an anecdote in a PR description.
//!
//! Modes:
//!
//! - `cargo bench -p bench --bench scoreboard` — measure and write
//!   `BENCH_8.json` (override the path with `--out <path>`).
//! - `cargo bench -p bench --bench scoreboard -- --check [baseline]` —
//!   measure, then compare fig5 wheel throughput against the baseline
//!   (default `BENCH_8.json`); exits nonzero when the measured number
//!   falls below `(1 - tolerance)` of baseline. `--tolerance <pct>`
//!   defaults to 15, now that run-to-run variance is characterized; CI
//!   passes it explicitly.
//! - `--profile-out <path>` — additionally write the event-loop profile
//!   footers (telemetry's [`LoopProfile`] summary, one line per
//!   scheduler × transport fig5 run) so hot-path drift — a shifted
//!   tx/rx/timer mix, not just a slower total — is inspectable per PR.
//!
//! The JSON carries no timestamps or host identifiers: the only
//! nondeterminism is the measurements themselves.
//!
//! [`LoopProfile`]: telemetry::LoopProfile

use incast_core::modes::{run_incast_with, ModesConfig};
use incast_core::sweep::run_incast_sweep;
use incast_core::{default_threads, RunCache};
use simnet::{EventKind, EventQueue, NodeId, Scheduler, SimTime, TimingWheel};
use stats::Rng;
use std::time::Instant;
use telemetry::json::Obj;
use transport::config::TransportKind;

/// Best-of-3 end-to-end events/sec on the fig5 Mode-1 workload. Returns
/// the best run's throughput, its event count, and its event-loop profile
/// summary line.
fn fig5_eps<S: Scheduler>(cfg: &ModesConfig) -> (f64, u64, String) {
    let mut best = 0.0f64;
    let mut events = 0;
    let mut summary = String::new();
    let _ = run_incast_with::<S>(cfg, None); // warm
    for _ in 0..3 {
        let t0 = Instant::now();
        let (r, _) = run_incast_with::<S>(cfg, None);
        let eps = r.profile.events() as f64 / t0.elapsed().as_secs_f64();
        if eps > best {
            best = eps;
            summary = r.profile.summary();
        }
        events = r.profile.events();
    }
    (best, events, summary)
}

/// Steady-state hold-cycle ns/op (pop one / schedule one over a constant
/// pending population), mirroring simperf's `scheduler/hold_4096`.
fn hold_ns<S: Scheduler>(pending: usize, iters: u64) -> f64 {
    let mut s = S::default();
    let mut rng = Rng::new(9);
    let kind = EventKind::Timer {
        node: NodeId(0),
        key: 0,
        gen: 0,
    };
    let mut horizon = |now: SimTime| {
        let delta = if rng.chance(0.1) {
            SimTime::from_ms(200).as_ps()
        } else {
            rng.below(1 << 24)
        };
        SimTime::from_ps(now.as_ps() + delta)
    };
    for _ in 0..pending {
        let at = horizon(SimTime::ZERO);
        s.schedule(at, kind);
    }
    let mut sink = 0u64;
    for _ in 0..iters / 10 {
        let ev = s.pop().expect("population is constant");
        s.schedule(horizon(ev.time), kind);
        sink = sink.wrapping_add(ev.time.as_ps());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        let ev = s.pop().expect("population is constant");
        s.schedule(horizon(ev.time), kind);
        sink = sink.wrapping_add(ev.time.as_ps());
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    secs * 1e9 / iters as f64
}

/// Cold-fill then warm-repeat latencies (ms) of a fig5-style sweep.
fn sweep_latencies() -> (f64, f64) {
    let threads = default_threads();
    let cfgs: Vec<ModesConfig> = [40usize, 60, 80, 100]
        .map(|flows| ModesConfig {
            num_flows: flows,
            burst_duration_ms: 15.0,
            num_bursts: 3,
            seed: 5,
            ..ModesConfig::default()
        })
        .to_vec();
    let cache = RunCache::in_memory();
    let t0 = Instant::now();
    let cold_runs = run_incast_sweep(&cfgs, threads, &cache);
    let cold = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let warm_runs = run_incast_sweep(&cfgs, threads, &cache);
    let warm = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold_runs.len(), warm_runs.len());
    (cold, warm)
}

/// Extracts `"key":<number>` from a flat-ish JSON string; no serde in the
/// air-gapped build, and the scoreboard's own emitter is the only producer.
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Cargo's libtest shim passes `--bench`; ignore it.
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // Cargo benches run with CWD at the package root, but paths on the
    // command line (and the checked-in baseline) are meant relative to
    // the workspace root, two levels up — resolve them there so
    // `--check BENCH_8.json` works identically from CI and a local shell.
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let resolve = |p: String| {
        if std::path::Path::new(&p).is_absolute() {
            p
        } else {
            format!("{workspace}/{p}")
        }
    };
    let default_path = format!("{workspace}/BENCH_8.json");
    let check = has("--check");
    let baseline_path = value_of("--check")
        .filter(|v| !v.starts_with("--"))
        .map(&resolve)
        .unwrap_or_else(|| default_path.clone());
    let explicit_out = value_of("--out").map(&resolve);
    let out_path = explicit_out.clone().unwrap_or(default_path);
    let profile_out = value_of("--profile-out").map(&resolve);
    let tolerance_pct: f64 = value_of("--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(15.0);

    let fig5_cfg = ModesConfig {
        num_flows: 100,
        burst_duration_ms: 15.0,
        num_bursts: 3,
        seed: 5,
        ..ModesConfig::default()
    };
    let quic_cfg = {
        let mut c = fig5_cfg.clone();
        c.tcp.transport = TransportKind::Quic;
        c
    };
    eprintln!("scoreboard: measuring fig5 throughput (best of 3 per scheduler x transport)...");
    let (heap_eps, events, heap_prof) = fig5_eps::<EventQueue>(&fig5_cfg);
    let (wheel_eps, _, wheel_prof) = fig5_eps::<TimingWheel>(&fig5_cfg);
    let (quic_heap_eps, quic_events, quic_heap_prof) = fig5_eps::<EventQueue>(&quic_cfg);
    let (quic_wheel_eps, _, quic_wheel_prof) = fig5_eps::<TimingWheel>(&quic_cfg);
    eprintln!("scoreboard: measuring scheduler hold cycle...");
    let wheel_hold = hold_ns::<TimingWheel>(4096, 2_000_000);
    let heap_hold = hold_ns::<EventQueue>(4096, 2_000_000);
    eprintln!("scoreboard: measuring sweep cold/warm latencies...");
    let (cold_ms, warm_ms) = sweep_latencies();

    let mut json = String::new();
    {
        let mut o = Obj::new(&mut json);
        o.str("schema", "bench8/v1")
            .str(
                "features",
                match (cfg!(feature = "check"), cfg!(feature = "recorder")) {
                    (true, true) => "check+recorder",
                    (true, false) => "check",
                    (false, true) => "recorder",
                    (false, false) => "none",
                },
            )
            .raw("fig5", &{
                let mut s = String::new();
                let mut f = Obj::new(&mut s);
                f.f64("wheel_mev_s", wheel_eps / 1e6)
                    .f64("heap_mev_s", heap_eps / 1e6)
                    .f64("ratio", wheel_eps / heap_eps)
                    .u64("events_per_run", events)
                    .f64("quic_wheel_mev_s", quic_wheel_eps / 1e6)
                    .f64("quic_heap_mev_s", quic_heap_eps / 1e6)
                    .u64("quic_events_per_run", quic_events);
                f.finish();
                s
            })
            .raw("hold_cycle", &{
                let mut s = String::new();
                let mut h = Obj::new(&mut s);
                h.f64("wheel_ns_op", wheel_hold)
                    .f64("heap_ns_op", heap_hold);
                h.finish();
                s
            })
            .raw("sweep", &{
                let mut s = String::new();
                let mut w = Obj::new(&mut s);
                w.f64("cold_ms", cold_ms)
                    .f64("warm_ms", warm_ms)
                    .f64("speedup", cold_ms / warm_ms);
                w.finish();
                s
            });
        o.finish();
    }
    json.push('\n');

    println!(
        "fig5 tcp:  wheel {:.2} Mev/s vs heap {:.2} Mev/s ({:.2}x, {events} events/run)",
        wheel_eps / 1e6,
        heap_eps / 1e6,
        wheel_eps / heap_eps
    );
    println!(
        "fig5 quic: wheel {:.2} Mev/s vs heap {:.2} Mev/s ({:.2}x, {quic_events} events/run)",
        quic_wheel_eps / 1e6,
        quic_heap_eps / 1e6,
        quic_wheel_eps / quic_heap_eps
    );
    println!("hold_cycle: wheel {wheel_hold:.1} ns/op, heap {heap_hold:.1} ns/op");
    println!(
        "sweep: cold {cold_ms:.0} ms, warm {warm_ms:.2} ms ({:.0}x)",
        cold_ms / warm_ms
    );
    // The event-loop profile footer: per-kind tallies of the best fig5 run
    // for every scheduler x transport combination. CI uploads this as an
    // artifact so a hot-path drift (the event *mix* shifting, not just the
    // total slowing down) is visible in the PR.
    let profile_footer = format!(
        "fig5 event-loop profiles (best of 3 per combination)\n\
         wheel/tcp:  {wheel_prof}\n\
         heap/tcp:   {heap_prof}\n\
         wheel/quic: {quic_wheel_prof}\n\
         heap/quic:  {quic_heap_prof}\n"
    );
    print!("{profile_footer}");
    if let Some(path) = &profile_out {
        std::fs::write(path, &profile_footer).expect("write profile footer");
        println!("wrote {path}");
    }

    if check {
        // An explicit --out still gets the measurement (CI uploads it as
        // an artifact); only the implicit default — the baseline itself —
        // is protected from being overwritten by a check run.
        if let Some(path) = &explicit_out {
            std::fs::write(path, &json).expect("write scoreboard");
            println!("wrote {path}");
        }
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("scoreboard: cannot read baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        };
        // Gate every wheel fig5 row, so a QUIC-only hot-path regression
        // (a recovery-path allocation, a lost front-cache win) fails CI even
        // when the TCP number is healthy.
        let mut failed = false;
        for (key, label, eps) in [
            ("wheel_mev_s", "wheel/tcp", wheel_eps),
            ("quic_wheel_mev_s", "wheel/quic", quic_wheel_eps),
        ] {
            let base = match extract_f64(&baseline, key) {
                Some(v) if v > 0.0 => v,
                _ => {
                    eprintln!("scoreboard: baseline {baseline_path} has no {key}");
                    std::process::exit(2);
                }
            };
            let measured = eps / 1e6;
            let floor = base * (1.0 - tolerance_pct / 100.0);
            println!(
                "check: fig5 {label} {measured:.2} Mev/s vs baseline {base:.2} Mev/s \
                 (floor {floor:.2} at -{tolerance_pct:.0}%)"
            );
            if measured < floor {
                eprintln!(
                    "scoreboard: REGRESSION — fig5 {label} throughput {measured:.2} Mev/s is \
                     below the {floor:.2} Mev/s floor ({base:.2} baseline, \
                     {tolerance_pct:.0}% tolerance)"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("check: ok");
    } else {
        std::fs::write(&out_path, &json).expect("write scoreboard");
        println!("wrote {out_path}");
    }
    print!("{json}");
}
