//! The four workloads: inputs generated from the seed, one op each, the
//! output checks that decide whether an op failed, and output digests.

use incast_core::cache::{fnv1a64, trace_key, RunCache};
use incast_core::modes::{
    IncastRunResult, MitigationKind, MitigationSpec, ModesConfig, OperatingMode, TopologySpec,
};
use incast_core::production::{run_service_trace, TraceConfig};
use millisampler::{detect_bursts, TraceSummary};
use simnet::SimTime;
use std::sync::Arc;
use telemetry::RunManifest;
use transport::TransportKind;
use workload::ServiceId;

use crate::spans::SpanLog;

/// The seed whose digests are recorded in [`Workload::expected_digests`].
pub const DEFAULT_SEED: u64 = 1;

/// Trace length of one fleet cell, in ms; Millisampler buckets are 1 ms,
/// so every cell's trace must hold exactly this many buckets. Short enough
/// that a run holds at least 100 ops of five cells each.
pub const FLEET_TRACE_MS: u64 = 100;

/// A named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dumbbell, 100 flows, 15 ms x 11 bursts, DCTCP: the healthy mode.
    Fig5Mode1,
    /// Dumbbell, 500 flows, 2 ms x 6 bursts, TCP: RTO-bound Mode 3.
    Fig6Rto,
    /// Clos 8 racks x 32 hosts x 4 spines, QUIC, Pulser control plane.
    ClosQuicPulser,
    /// Section-3 production host-trace cells on the pool, cold cache.
    Fleet,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Mode1,
        Workload::Fig6Rto,
        Workload::ClosQuicPulser,
        Workload::Fleet,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Mode1 => "fig5_mode1",
            Workload::Fig6Rto => "fig6_rto",
            Workload::ClosQuicPulser => "clos_quic_pulser",
            Workload::Fleet => "fleet",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct inputs a run cycles through (incast workloads), or the
    /// leading cells whose results are digested (fleet, where every cell is
    /// a distinct input so the cache stays cold). Op cost varies with the
    /// simulation seed, so many inputs keep a seed's mix close to another's.
    pub fn inputs(self) -> usize {
        match self {
            Workload::Fig5Mode1 => 20,
            Workload::Fig6Rto => 50,
            Workload::ClosQuicPulser => 25,
            Workload::Fleet => 10,
        }
    }

    /// Per-input digests at [`DEFAULT_SEED`], recorded from this tree in
    /// `digests.txt`. An op whose digest differs from its input's entry has
    /// failed.
    pub fn expected_digests(self) -> Vec<u64> {
        include_str!("digests.txt")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                (f.next() == Some(self.name())).then(|| f.next())?
            })
            .map(|d| {
                u64::from_str_radix(d.trim_start_matches("0x"), 16)
                    .expect("hex digest in digests.txt")
            })
            .collect()
    }
}

/// SplitMix64 of `seed` and `stream`: the seed of input `stream`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input `k` of an incast workload under `seed`.
pub fn incast_config(w: Workload, seed: u64, k: usize) -> ModesConfig {
    let seed = mix(seed, k as u64);
    match w {
        Workload::Fig5Mode1 => ModesConfig {
            num_flows: 100,
            burst_duration_ms: 15.0,
            num_bursts: 11,
            seed,
            ..ModesConfig::default()
        },
        Workload::Fig6Rto => ModesConfig {
            num_flows: 500,
            burst_duration_ms: 2.0,
            num_bursts: 6,
            seed,
            ..ModesConfig::default()
        },
        Workload::ClosQuicPulser => {
            let mut cfg = ModesConfig {
                num_flows: 256,
                topology: TopologySpec::Clos {
                    racks: 8,
                    spines: 4,
                },
                burst_duration_ms: 15.0,
                num_bursts: 6,
                seed,
                mitigation: MitigationSpec {
                    kind: MitigationKind::Pulser,
                    ..MitigationSpec::default()
                },
                ..ModesConfig::default()
            };
            cfg.tcp.transport = TransportKind::Quic;
            cfg
        }
        Workload::Fleet => panic!("fleet inputs are cells; see fleet_cell"),
    }
}

/// Fleet cell `i` under `seed`: the five services round-robin, 0.1 s
/// traces with rack contention, and a seed no other cell shares.
pub fn fleet_cell(seed: u64, i: u64) -> TraceConfig {
    TraceConfig {
        service: ServiceId::ALL[(i % ServiceId::ALL.len() as u64) as usize],
        duration: SimTime::from_ms(FLEET_TRACE_MS),
        seed: mix(seed, i),
        contention: true,
        queue_sample: SimTime::from_us(100),
    }
}

/// One digest over a list of per-input digests, in order.
pub fn fold_digests(digests: &[u64]) -> u64 {
    fnv1a64(&format!("{digests:?}"))
}

/// Result and manifest of one `run_incast_with` call: one incast op.
pub type IncastOut = (IncastRunResult, RunManifest);

/// Digest of an incast op's deterministic outputs: the result's numbers
/// and queue trace, the event tallies, and the manifest without its
/// wall-clock fields and code version.
pub fn incast_digest((r, m): &IncastOut) -> u64 {
    let t = &r.profile.tallies;
    // In chunks, so that hashing adds no trace-sized buffer to the peak RSS.
    let queue: Vec<u64> = r
        .queue_pkts
        .values()
        .chunks(4096)
        .map(|c| fnv1a64(&format!("{c:?}")))
        .collect();
    let counters = [
        r.drops,
        r.marked_pkts,
        r.enqueued_pkts,
        r.retx_bytes,
        r.timeouts,
        r.fast_retransmits,
        r.steady_drops,
        r.steady_timeouts,
        r.steady_retx_bytes,
        r.queue_watermark_pkts as u64,
        r.finished_at.as_ps(),
    ];
    let tallies = [t.tx_complete, t.delivery, t.timer, t.fault, t.ctrl];
    let mut m = m.deterministic();
    m.git_describe.clear();
    fnv1a64(&format!(
        "{:?} {:?} {} {queue:?} {counters:?} {tallies:?} {}",
        r.bcts_ms,
        r.burst_windows,
        r.queue_pkts.interval(),
        m.to_json()
    ))
}

/// The output checks of one incast op: it ran to completion, finished
/// every burst, and meets its workload's oracle.
pub fn check_incast(w: Workload, cfg: &ModesConfig, (r, m): &IncastOut) -> Result<(), String> {
    if let Some(cause) = r.truncated {
        return Err(format!("truncated: {}", cause.label()));
    }
    if r.bcts_ms.len() != cfg.num_bursts as usize {
        return Err(format!(
            "{} of {} bursts completed",
            r.bcts_ms.len(),
            cfg.num_bursts
        ));
    }
    match w {
        Workload::Fig5Mode1 if r.steady_timeouts != 0 => {
            Err(format!("{} steady-state timeouts", r.steady_timeouts))
        }
        Workload::Fig6Rto if r.mode() != OperatingMode::Mode3Timeouts => {
            Err(format!("classified {}, not Mode 3", r.mode().label()))
        }
        Workload::ClosQuicPulser => {
            let ctrl = m.control_json.as_deref().unwrap_or("");
            let sent = json_u64(ctrl, "notif_sent");
            let acked = json_u64(ctrl, "notif_acked");
            match (sent, acked) {
                (Some(s), Some(a)) if s > 0 && s == a => Ok(()),
                _ => Err(format!("notifications sent {sent:?}, acked {acked:?}")),
            }
        }
        _ => Ok(()),
    }
}

/// Digest of a fleet cell's summary (its `Debug` form prints every float
/// in round-trip precision).
pub fn summary_digest(s: &TraceSummary) -> u64 {
    fnv1a64(&format!("{s:?}"))
}

/// The output check of one fleet cell: the bucket count the summary
/// implies (bursts / bursts-per-second, in 1 ms buckets) equals the trace
/// duration, and the scalars are in range.
pub fn check_summary(s: &TraceSummary) -> Result<(), String> {
    let bursts = s.per_burst.len() as f64;
    if !(0.0..=1.0).contains(&s.mean_utilization) {
        return Err(format!("mean utilization {}", s.mean_utilization));
    }
    if bursts == 0.0 {
        return match s.bursts_per_sec {
            0.0 => Ok(()),
            bps => Err(format!("no bursts but {bps} bursts/s")),
        };
    }
    let buckets = (bursts / s.bursts_per_sec * 1000.0).round();
    if buckets != FLEET_TRACE_MS as f64 {
        return Err(format!("{buckets} buckets, expected {FLEET_TRACE_MS}"));
    }
    Ok(())
}

/// One fleet cell through the same composition as
/// `run_trace_summary_cached`, with each layer call in its own span:
/// the packet simulation, burst detection, and the summary. Also checks
/// the trace's bucket count directly.
pub fn run_cell_traced(
    cfg: &TraceConfig,
    cache: &RunCache,
    log: &mut SpanLog,
    parent: usize,
    op: u64,
) -> Result<Arc<TraceSummary>, String> {
    let mut check = Ok(());
    let summary = cache.get_or_compute(&trace_key(cfg), || {
        let r = log.time(
            "core.production.run_service_trace",
            Some(parent),
            op,
            || run_service_trace(cfg),
        );
        let bursts = log.time("millisampler.detect_bursts", Some(parent), op, || {
            detect_bursts(&r.trace)
        });
        if r.trace.buckets.len() as u64 != FLEET_TRACE_MS {
            check = Err(format!("{} buckets in the trace", r.trace.buckets.len()));
        } else if bursts != r.bursts {
            check = Err("burst detection differs from the run's".to_string());
        }
        log.time("millisampler.summary", Some(parent), op, || {
            TraceSummary::from_trace(
                &r.trace,
                &bursts,
                Some((&r.queue_pkts, r.queue_capacity_pkts)),
            )
            .with_tallies(r.tallies)
        })
    });
    check.map(|()| summary)
}

/// The unsigned integer after `"key":` in a flat JSON object.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The nested object after `"key":` (objects nested one level deep only).
pub fn json_obj<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let at = json.find(&format!("\"{key}\":{{"))? + key.len() + 3;
    let len = json[at..].find('}')? + 1;
    Some(&json[at..at + len])
}
