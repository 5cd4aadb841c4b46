//! The benchmark's own tests: statistics, seeded inputs and digests,
//! scheduler-wrapper transparency, spans, and output checks.

use incast_core::cache::RunCache;
use incast_core::modes::run_incast_with;
use incast_core::production::run_trace_summary_cached;
use millisampler::{CtrlTallies, TraceSummary};
use perfbench::run::{Report, LAYER_METRICS};
use perfbench::sched::{self, Traced};
use perfbench::spans::{self_times, Span, SpanLog};
use perfbench::stats::{beyond, median, min_samples, percentile, quartiles};
use perfbench::workloads::{
    check_incast, check_summary, fleet_cell, incast_config, incast_digest, json_obj, json_u64,
    run_cell_traced, summary_digest, Workload, DEFAULT_SEED, FLEET_TRACE_MS,
};
use simnet::TimingWheel;
use std::time::Instant;

const INCAST: [Workload; 3] = [
    Workload::Fig5Mode1,
    Workload::Fig6Rto,
    Workload::ClosQuicPulser,
];

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics() {
    // Reference values from Python 3.11 `statistics.quantiles(d, n=4)`.
    type Case = (&'static [f64], (f64, f64, f64));
    let cases: [Case; 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 5.5, 8.25),
        ),
        (&[3.5, 1.25, 9.0, 4.0, 2.0], (1.625, 3.5, 6.5)),
        (&[5.0, 7.0], (4.5, 6.0, 7.5)),
        (&[0.1, 0.7, 0.2, 0.9, 0.3, 0.35, 0.8], (0.2, 0.35, 0.8)),
    ];
    for (data, want) in cases {
        assert_eq!(quartiles(data), Some(want), "{data:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(100, 0.9), 10);
    assert_eq!(beyond(99, 0.9), 9);
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(min_samples(0.9, 10), 100);
    assert_eq!(min_samples(0.99, 10), 1000);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.9), Some(90.0));
    assert_eq!(
        v.iter().filter(|&&x| x > 90.0).count(),
        beyond(v.len(), 0.9)
    );
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&[], 0.9), None);
}

#[test]
fn seed_changes_the_inputs_and_repeats_them() {
    for w in INCAST {
        for k in 0..w.inputs() {
            let a = format!("{:?}", incast_config(w, 7, k));
            assert_eq!(a, format!("{:?}", incast_config(w, 7, k)));
            assert_ne!(a, format!("{:?}", incast_config(w, 8, k)), "{w:?} {k}");
        }
        let inputs: Vec<String> = (0..w.inputs())
            .map(|k| format!("{:?}", incast_config(w, 7, k)))
            .collect();
        for (i, a) in inputs.iter().enumerate() {
            assert!(!inputs[i + 1..].contains(a), "{w:?}: inputs repeat");
        }
    }
    for i in 0..20 {
        let a = format!("{:?}", fleet_cell(7, i));
        assert_eq!(a, format!("{:?}", fleet_cell(7, i)));
        assert_ne!(a, format!("{:?}", fleet_cell(8, i)));
        assert_ne!(a, format!("{:?}", fleet_cell(7, i + 1)));
    }
}

#[test]
fn default_seed_reproduces_the_recorded_digests() {
    for w in INCAST {
        let cfg = incast_config(w, DEFAULT_SEED, 0);
        let out = run_incast_with::<TimingWheel>(&cfg, None);
        check_incast(w, &cfg, &out).expect("output checks");
        let d = incast_digest(&out);
        assert_eq!(d, w.expected_digests()[0], "{w:?}");
        assert_eq!(
            d,
            incast_digest(&run_incast_with::<TimingWheel>(&cfg, None))
        );
    }
    let s = run_trace_summary_cached(&fleet_cell(DEFAULT_SEED, 0), &RunCache::in_memory());
    check_summary(&s).expect("output checks");
    assert_eq!(summary_digest(&s), Workload::Fleet.expected_digests()[0]);
}

#[test]
fn another_seed_gives_another_digest() {
    let w = Workload::Fig6Rto;
    let a = incast_digest(&run_incast_with::<TimingWheel>(
        &incast_config(w, 2, 0),
        None,
    ));
    let b = incast_digest(&run_incast_with::<TimingWheel>(
        &incast_config(w, 3, 0),
        None,
    ));
    assert_ne!(a, b);
}

#[test]
fn tracing_does_not_change_outputs() {
    for w in [Workload::Fig6Rto, Workload::ClosQuicPulser] {
        let cfg = incast_config(w, 5, 1);
        let plain = run_incast_with::<TimingWheel>(&cfg, None);
        let before = sched::tally();
        let traced = run_incast_with::<Traced<TimingWheel>>(&cfg, None);
        let calls = sched::tally().since(&before);
        assert_eq!(incast_digest(&plain), incast_digest(&traced), "{w:?}");
        assert_eq!(traced.1.scheduler, plain.1.scheduler);
        let events = traced.0.profile.events();
        assert!(calls.pop_calls >= events, "{calls:?} vs {events} events");
        assert!(calls.schedule_calls > 0 && calls.timed_calls > 0);
        assert!(calls.self_ns() > 0.0);
    }
    let cfg = fleet_cell(5, 3);
    let plain = run_trace_summary_cached(&cfg, &RunCache::in_memory());
    let mut log = SpanLog::new(Instant::now());
    let root = log.begin("op", None, 0);
    let traced = run_cell_traced(&cfg, &RunCache::in_memory(), &mut log, root, 0)
        .expect("traced cell passes its checks");
    log.end(root);
    assert_eq!(summary_digest(&plain), summary_digest(&traced));
    let names: Vec<&str> = log.spans().iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "op",
            "core.production.run_service_trace",
            "millisampler.detect_bursts",
            "millisampler.summary"
        ]
    );
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // op [0,100) has children a [10,40) and b [30,60), which overlap;
    // c [35,45) is b's child.
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
    };
    let spans = [
        span("op", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),
        span("c", 35, 45, Some(2)),
    ];
    assert_eq!(self_times(&spans), [50, 30, 20, 10]);
}

#[test]
fn absorbed_logs_keep_their_parents() {
    let epoch = Instant::now();
    let mut main = SpanLog::new(epoch);
    main.time("x", None, 0, || ());
    let mut cell = SpanLog::new(epoch);
    let root = cell.begin("op", None, 1);
    cell.time("child", Some(root), 1, || ());
    cell.end(root);
    main.absorb(cell);
    let parents: Vec<_> = main.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, None, Some(1)]);
    assert_eq!(main.ms_of("child").len(), 1);
    assert!(main.spans().iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn fleet_check_recovers_the_bucket_count() {
    let row = millisampler::BurstRow {
        duration_ms: 2.0,
        peak_flows: 10.0,
        marked_fraction: 0.0,
        retx_fraction: 0.0,
        queue_peak_fraction: None,
    };
    let summary = |bursts: usize, bps: f64| TraceSummary {
        bursts_per_sec: bps,
        mean_utilization: 0.1,
        per_burst: vec![row; bursts],
        tallies: CtrlTallies::default(),
    };
    let trace_s = FLEET_TRACE_MS as f64 / 1000.0;
    assert!(check_summary(&summary(9, 9.0 / trace_s)).is_ok());
    assert!(check_summary(&summary(0, 0.0)).is_ok());
    assert!(
        check_summary(&summary(9, 9.0 / trace_s / 2.0)).is_err(),
        "twice the buckets"
    );
    assert!(check_summary(&summary(0, 2.0)).is_err());
}

#[test]
fn manifest_fields_parse() {
    let j = r#"{"uplink":{"links":32,"watermark_pkts":7,"dropped_pkts":0},"spine":{"links":8,"watermark_pkts":31,"dropped_pkts":2}}"#;
    assert_eq!(
        json_obj(j, "spine").and_then(|o| json_u64(o, "dropped_pkts")),
        Some(2)
    );
    assert_eq!(
        json_obj(j, "uplink").and_then(|o| json_u64(o, "watermark_pkts")),
        Some(7)
    );
    assert_eq!(
        json_u64(r#"{"setup_us":412,"sim_us":9}"#, "sim_us"),
        Some(9)
    );
    assert_eq!(json_u64("{}", "sim_us"), None);
}

#[test]
fn report_json_has_exactly_the_contract_keys() {
    let r = Report {
        lines: vec![],
        attempted: 3,
        failed: 0,
        metrics: vec![("op_ms_p50", 1.25, "ms"), ("setup_s", 0.5, "s")],
    };
    assert_eq!(
        r.json(),
        r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"op_ms_p50":{"value":1.25,"unit":"ms"},"setup_s":{"value":0.5,"unit":"s"}}}"#
    );
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let json = include_str!("../../BENCHMARK.json");
    let (e2e, layers) = json
        .split_once("\"per_layer\"")
        .expect("BENCHMARK.json has per_layer");
    let names = |s: &str| -> Vec<String> {
        s.split("\"name\": \"")
            .skip(1)
            .map(|n| n[..n.find('"').expect("closing quote")].to_string())
            .collect()
    };
    let e2e = e2e.split_once("\"end_to_end\"").expect("end_to_end").1;
    assert_eq!(names(e2e), ["op_ms_p90", "setup_s", "peak_rss_mb"]);
    let printed: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
    assert_eq!(names(layers), printed);
}
