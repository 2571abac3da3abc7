//! End-to-end determinism: every layer of the stack is bit-reproducible.

use coopcache::prelude::*;
use coopcache::trace::{read_trace, write_trace};

#[test]
fn trace_generation_is_reproducible_across_runs() {
    let p = TraceProfile::small().with_seed(0xC0FFEE);
    let a = generate(&p).unwrap();
    let b = generate(&p).unwrap();
    assert_eq!(a, b);
}

#[test]
fn seed_isolation_across_profile_knobs() {
    // Changing only the request count must not reshuffle document sizes:
    // the first documents keep their identity and size.
    let short = generate(&TraceProfile::small().with_requests(1_000)).unwrap();
    let long = generate(&TraceProfile::small().with_requests(5_000)).unwrap();
    use std::collections::HashMap;
    let sizes_of =
        |t: &Trace| -> HashMap<DocId, ByteSize> { t.iter().map(|r| (r.doc, r.size)).collect() };
    let short_sizes = sizes_of(&short);
    let long_sizes = sizes_of(&long);
    let mut shared = 0;
    for (doc, size) in &short_sizes {
        if let Some(other) = long_sizes.get(doc) {
            assert_eq!(size, other, "doc {doc} changed size across lengths");
            shared += 1;
        }
    }
    assert!(
        shared > 100,
        "expected substantial doc overlap, got {shared}"
    );
}

#[test]
fn simulation_reports_are_identical_across_runs() {
    let trace = generate(&TraceProfile::small()).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(500)).with_scheme(PlacementScheme::Ea);
    assert_eq!(run(&cfg, &trace), run(&cfg, &trace));
}

#[test]
fn des_reports_are_identical_across_runs() {
    let trace = generate(&TraceProfile::small().with_requests(3_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300));
    let net = NetworkModel::paper_calibrated();
    assert_eq!(run_des(&cfg, &net, &trace), run_des(&cfg, &net, &trace));
}

/// Runs the sync simulator with a `JsonlSink` over an in-memory buffer
/// and returns the raw event bytes.
fn event_stream(cfg: &SimConfig, trace: &Trace) -> Vec<u8> {
    use std::sync::{Arc, Mutex, PoisonError};
    let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
    let _ = run_with_sink(cfg, trace, Some(SinkHandle::from_arc(Arc::clone(&sink))));
    Arc::try_unwrap(sink)
        .expect("runner drops its sink handles")
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_inner()
}

#[test]
fn event_streams_are_byte_identical_across_runs() {
    let trace = generate(&TraceProfile::small()).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(500)).with_scheme(PlacementScheme::Ea);
    let a = event_stream(&cfg, &trace);
    let b = event_stream(&cfg, &trace);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same config + trace must replay byte-identically");
    // Sanity: the stream is JSONL with one request event per trace entry.
    let text = std::str::from_utf8(&a).unwrap();
    let requests = text
        .lines()
        .filter(|l| l.starts_with(r#"{"ev":"request""#))
        .count();
    assert_eq!(requests, trace.len());
}

/// The sync runner's JSONL stream on `small()`, pinned for ad-hoc, EA
/// and digest discovery (computed at commit `6c944c7`, before the doc
/// table stopped storing keys and the ICP round stopped collecting its
/// replies): the order of ICP replies, fetches, placements and
/// evictions is checked against that commit, not a second run.
#[test]
fn sync_event_streams_match_the_pinned_streams() {
    use coopcache::proxy::Discovery;
    let trace = generate(&TraceProfile::small()).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(500));
    let digest = Discovery::Digest {
        refresh_every: DurationMs::from_secs(600),
        fp_rate: 0.01,
    };
    let streams = [
        cfg.clone().with_scheme(PlacementScheme::AdHoc),
        cfg.clone().with_scheme(PlacementScheme::Ea),
        cfg.with_scheme(PlacementScheme::Ea).with_discovery(digest),
    ]
    .map(|cfg| format!("{:#018x}", fnv1a(&event_stream(&cfg, &trace))));
    assert_eq!(
        streams,
        [
            "0xadd5b20e153406b6",
            "0xb9c728432fa33f34",
            "0xd7ae9e190a0b51a5",
        ],
        "sync JSONL streams: ad-hoc ICP, EA ICP, EA digest"
    );
}

#[test]
fn des_event_streams_are_byte_identical_across_runs() {
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(3_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300));
    let net = NetworkModel::paper_calibrated();
    let stream = || -> Vec<u8> {
        let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
        let _ = run_des_with_sink(
            &cfg,
            &net,
            &trace,
            Some(SinkHandle::from_arc(Arc::clone(&sink))),
        );
        Arc::try_unwrap(sink)
            .expect("runner drops its sink handles")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_inner()
    };
    let a = stream();
    assert!(!a.is_empty());
    assert_eq!(a, stream(), "DES event stream must be deterministic");
}

/// A JSONL sink that yields the thread on every event, so the DES fills
/// its worker's queue and has to wait for it.
#[derive(Debug)]
struct SlowSink(JsonlSink<Vec<u8>>);

impl EventSink for SlowSink {
    fn emit(&mut self, event: &Event) {
        std::thread::yield_now();
        self.0.emit(event);
    }
}

/// The caller's sink is fed from a worker thread; a sink slower than the
/// simulation must see the same bytes as a fast one, and the run must
/// hand back sole ownership of it.
#[test]
fn des_slow_sink_gets_the_whole_stream() {
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(3_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300));
    let net = NetworkModel::paper_calibrated();
    let fast = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
    let _ = run_des_with_sink(
        &cfg,
        &net,
        &trace,
        Some(SinkHandle::from_arc(Arc::clone(&fast))),
    );
    let slow = Arc::new(Mutex::new(SlowSink(JsonlSink::new(Vec::new()))));
    let _ = run_des_with_sink(
        &cfg,
        &net,
        &trace,
        Some(SinkHandle::from_arc(Arc::clone(&slow))),
    );
    let fast = Arc::try_unwrap(fast)
        .expect("runner drops its sink handles")
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_inner();
    let slow = Arc::try_unwrap(slow)
        .expect("runner drops its sink handles")
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .0
        .into_inner();
    assert!(fast.len() > 1 << 20, "enough events to fill many batches");
    assert_eq!(slow, fast, "a slow sink sees the same stream");
}

/// The request-scoped mute is a thread-local of the caller: it must be
/// applied on the simulation thread, before events reach the worker.
#[test]
fn des_mute_drops_request_scoped_events() {
    use coopcache::obs::{mute_request_scoped, RingBufferSink};
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(3_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300));
    let net = NetworkModel::paper_calibrated();
    let events = |muted: bool| -> Vec<Event> {
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 20)));
        let _mute = muted.then(mute_request_scoped);
        let _ = run_des_with_sink(
            &cfg,
            &net,
            &trace,
            Some(SinkHandle::from_arc(Arc::clone(&ring))),
        );
        let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(ring.total_emitted() < 1 << 20, "the ring kept every event");
        ring.events().copied().collect()
    };
    let all = events(false);
    let muted = events(true);
    let health: Vec<Event> = all
        .iter()
        .filter(|e| !e.kind().is_request_scoped())
        .copied()
        .collect();
    assert!(!health.is_empty(), "the 300 KB cell evicts");
    assert!(health.len() < all.len());
    assert_eq!(
        muted, health,
        "a muted caller gets exactly the health kinds"
    );
}

/// Panics on the 100th event it is handed.
struct PanickingSink(u32);

impl EventSink for PanickingSink {
    fn emit(&mut self, _event: &Event) {
        self.0 += 1;
        assert!(self.0 < 100, "sink failed on its 100th event");
    }
}

/// A sink that panics on the worker must panic the run: no hang, and no
/// report returned over a truncated stream.
#[test]
fn des_panicking_sink_panics_the_run() {
    let trace = generate(&TraceProfile::small().with_requests(3_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300));
    let net = NetworkModel::paper_calibrated();
    let run = std::panic::catch_unwind(|| {
        run_des_with_sink(&cfg, &net, &trace, Some(SinkHandle::new(PanickingSink(0))))
    });
    assert!(run.is_err(), "the sink's panic must reach the caller");
}

#[test]
fn des_series_rings_are_identical_across_runs() {
    use coopcache::obs::SeriesRing;
    use coopcache::sim::{run_des_with_health, HealthConfig};
    let trace = generate(&TraceProfile::small().with_requests(3_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300));
    let net = NetworkModel::paper_calibrated();
    let rings = || -> Vec<String> {
        let health = HealthConfig {
            interval_ms: 500,
            capacity: 64,
            rules: vec![],
            rollup: None,
        };
        let (_, health) = run_des_with_health(&cfg, &net, &trace, None, health);
        health.rings.iter().map(SeriesRing::to_json).collect()
    };
    let a = rings();
    assert!(!a.is_empty());
    assert!(
        a.iter().any(|r| r.contains(r#""points":[{"#)),
        "series must carry samples: {a:?}"
    );
    assert_eq!(a, rings(), "DES series must be byte-identical across runs");
}

#[test]
fn series_replay_is_byte_identical_across_runs() {
    use coopcache::obs::{render_top, SeriesReplayer, SeriesRing};
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300)).with_scheme(PlacementScheme::Ea);
    let net = NetworkModel::paper_calibrated();
    let stream = || -> Vec<u8> {
        let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
        let _ = run_des_with_sink(
            &cfg,
            &net,
            &trace,
            Some(SinkHandle::from_arc(Arc::clone(&sink))),
        );
        Arc::try_unwrap(sink)
            .expect("runner drops its sink handles")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_inner()
    };
    // Event stream → replayer → rings → rendered dashboard: the whole
    // offline pipeline must reproduce bit for bit from the same seed.
    let replay = |bytes: &[u8]| -> (Vec<String>, String) {
        let mut r = SeriesReplayer::new(250, 64);
        r.observe_jsonl(std::str::from_utf8(bytes).expect("jsonl is utf-8"))
            .expect("well-formed stream");
        let rings = r.finish();
        let json = rings.iter().map(SeriesRing::to_json).collect();
        (json, render_top(&rings, false))
    };
    let (rings_a, top_a) = replay(&stream());
    assert!(!rings_a.is_empty());
    assert!(top_a.contains("group"), "{top_a}");
    let (rings_b, top_b) = replay(&stream());
    assert_eq!(rings_a, rings_b, "replayed rings must be byte-identical");
    assert_eq!(top_a, top_b, "rendered dashboard must be byte-identical");
    // Pinned at commit `14b1977`, before the three event folds became one.
    assert_eq!(
        [
            fnv1a(rings_a.join("\n").as_bytes()),
            fnv1a(top_a.as_bytes())
        ]
        .map(|h| format!("{h:#018x}")),
        ["0x457a973502fce659", "0x2a41217e13b1934f"],
        "replayed rings, rendered dashboard"
    );
}

/// True when every line of `small` appears in `big` in the same order —
/// the subsequence contract of the head sampler.
fn is_line_subsequence(small: &str, big: &str) -> bool {
    let mut big_lines = big.lines();
    small.lines().all(|needle| big_lines.any(|l| l == needle))
}

#[test]
fn sampled_event_streams_are_deterministic_subsequences() {
    use coopcache::obs::SamplerConfig;
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300)).with_scheme(PlacementScheme::Ea);
    let net = NetworkModel::paper_calibrated();
    let stream = |sampler: Option<SamplerConfig>| -> String {
        let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
        let handle = SinkHandle::from_arc(Arc::clone(&sink)).sampled(sampler);
        let _ = run_des_with_sink(&cfg, &net, &trace, Some(handle));
        let bytes = Arc::try_unwrap(sink)
            .expect("runner drops its sink handles")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_inner();
        String::from_utf8(bytes).expect("jsonl is utf-8")
    };
    let full = stream(None);
    let config = SamplerConfig::new(0xC0FFEE, 250);
    let sampled = stream(Some(config));
    assert_eq!(
        sampled,
        stream(Some(config)),
        "same seed+rate must sample byte-identically"
    );
    assert!(!sampled.is_empty());
    assert!(
        sampled.len() < full.len(),
        "250/1000 sampling must drop spans"
    );
    assert!(
        is_line_subsequence(&sampled, &full),
        "sampled stream must be an ordered subsequence of the full one"
    );
    // Only spans are sampled; every other event survives verbatim, so
    // counters derived from the two streams agree exactly.
    fn non_span(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| !l.starts_with(r#"{"ev":"span""#))
            .collect()
    }
    assert_eq!(non_span(&sampled), non_span(&full));
    // Rate 1000 keeps everything; rate 0 keeps everything but spans.
    assert_eq!(stream(Some(SamplerConfig::new(1, 1_000))), full);
    let none = stream(Some(SamplerConfig::new(1, 0)));
    assert!(!none.contains(r#"{"ev":"span""#));
    assert_eq!(non_span(&none), non_span(&full));
}

#[test]
fn des_alert_firings_are_identical_across_runs() {
    use coopcache::obs::AlertRule;
    use coopcache::sim::{run_des_with_health, HealthConfig};
    let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300));
    let net = NetworkModel::paper_calibrated();
    let health = HealthConfig {
        interval_ms: 500,
        capacity: 64,
        // An unsatisfiable floor: every node must fire after two windows.
        rules: vec![AlertRule::hit_rate_floor(1_001, 2)],
        rollup: None,
    };
    let alerts = || -> Vec<String> {
        let (_, report) = run_des_with_health(&cfg, &net, &trace, None, health.clone());
        report.alerts.iter().map(Event::to_json).collect()
    };
    let a = alerts();
    assert!(!a.is_empty(), "the unsatisfiable floor must fire");
    assert!(a[0].starts_with(r#"{"ev":"alert""#), "{}", a[0]);
    assert_eq!(a, alerts(), "alert firings must be byte-identical");
}

#[test]
fn des_rollup_sweep_64_nodes_is_bounded_and_byte_identical() {
    use coopcache::obs::RollupConfig;
    use coopcache::sim::run_des_with_rollups;
    let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(100)).with_group_size(64);
    let net = NetworkModel::paper_calibrated();
    let rollup_cfg = RollupConfig {
        window_ms: 500,
        max_nodes: 16,
        max_windows: 8,
    };
    let sweep = || run_des_with_rollups(&cfg, &net, &trace, rollup_cfg);
    let (report_a, rollup_a) = sweep();
    let (report_b, rollup_b) = sweep();
    assert_eq!(report_a, report_b);
    assert_eq!(
        rollup_a.to_json(),
        rollup_b.to_json(),
        "rollup JSON must be byte-identical"
    );
    // 64 nodes ran, but the aggregator's tables stay at their caps: the
    // memory bound a raw JSONL stream cannot offer.
    assert_eq!(rollup_a.node_count(), 16);
    assert!(rollup_a.overflow_events() > 0, "48 nodes bill to overflow");
    assert!(rollup_a.windows().len() <= 8);
    let (requests, _, _) = rollup_a.totals();
    assert_eq!(requests, 2_000, "totals still count every request");
    // Pinned at commit `14b1977`, before the three event folds became one.
    assert_eq!(
        format!("{:#018x}", fnv1a(rollup_a.to_json().as_bytes())),
        "0x6650e2762920df3a",
        "64-node rollup JSON"
    );
}

#[test]
fn trace_survives_file_roundtrip_at_scale() {
    let trace = generate(&TraceProfile::small()).unwrap();
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();
    let back = read_trace(buf.as_slice()).unwrap();
    assert_eq!(trace, back);
    // And the round-tripped trace simulates identically.
    let cfg = SimConfig::new(ByteSize::from_kb(500));
    assert_eq!(run(&cfg, &trace), run(&cfg, &back));
}

#[test]
fn partitioners_are_stable_functions() {
    let trace = generate(&TraceProfile::small().with_requests(500)).unwrap();
    let p = Partitioner::ByClientModulo;
    for (seq, r) in trace.iter().enumerate() {
        assert_eq!(p.assign(r, seq, 4), p.assign(r, seq, 4));
    }
}

#[test]
fn des_trace_trees_are_identical_across_runs() {
    use coopcache::obs::TraceAssembler;
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300)).with_scheme(PlacementScheme::Ea);
    let net = NetworkModel::paper_calibrated();
    // Timed render included: DES stamps spans with simulated time, so
    // even durations must reproduce bit-for-bit.
    let trees = || {
        let assembler = Arc::new(Mutex::new(TraceAssembler::new()));
        let _ = run_des_with_sink(
            &cfg,
            &net,
            &trace,
            Some(SinkHandle::from_arc(Arc::clone(&assembler))),
        );
        Arc::try_unwrap(assembler)
            .expect("runner drops its sink handles")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .render_all(true)
    };
    let a = trees();
    assert!(a.contains("request"), "trace trees must not be empty");
    assert_eq!(a, trees(), "assembled trace trees must be deterministic");
    // Pinned at commit `14b1977`, before the three event folds became one.
    assert_eq!(
        format!("{:#018x}", fnv1a(a.as_bytes())),
        "0x9bd2538f988e5c2e",
        "timed trace trees"
    );
}

/// 64-bit FNV-1a — small enough to pin whole output streams as one
/// constant each.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The DES event stream, the series rings and the alert lines, pinned to
/// the bytes they had before the fixed-shape event encoder and the
/// per-step tap guard landed (computed at commit `0685f9e`): "byte
/// identical" is checked against that commit, not against a second run
/// of the same binary.
#[test]
fn des_output_bytes_match_the_pinned_streams() {
    use coopcache::obs::{AlertRule, RollupConfig, SamplerConfig, SeriesRing};
    use coopcache::sim::{run_des_with_health, HealthConfig};
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
    let net = NetworkModel::paper_calibrated();
    let cfg = |scheme: PlacementScheme| SimConfig::new(ByteSize::from_kb(300)).with_scheme(scheme);
    let sampler = SamplerConfig::new(0xC0FFEE, 100);

    let stream = |scheme: PlacementScheme, sampler: Option<SamplerConfig>| -> u64 {
        let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
        let handle = SinkHandle::from_arc(Arc::clone(&sink)).sampled(sampler);
        let _ = run_des_with_sink(&cfg(scheme), &net, &trace, Some(handle));
        let bytes = Arc::try_unwrap(sink)
            .expect("runner drops its sink handles")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_inner();
        fnv1a(&bytes)
    };
    let streams = [
        stream(PlacementScheme::AdHoc, None),
        stream(PlacementScheme::AdHoc, Some(sampler)),
        stream(PlacementScheme::Ea, None),
        stream(PlacementScheme::Ea, Some(sampler)),
    ];
    assert_eq!(
        streams.map(|h| format!("{h:#018x}")),
        [
            "0x68c4e92e40d3901d",
            "0x14f80bc8dd3e72b1",
            "0x9d224ef5e164ad19",
            "0x578fa229d29671f1",
        ],
        "DES JSONL streams: ad-hoc full, ad-hoc sampled, EA full, EA sampled"
    );

    // The whole health plane at once: sampled sink, rings, an alert rule
    // that must fire, and a rollup riding the same virtual clock.
    let health = HealthConfig {
        interval_ms: 500,
        capacity: 64,
        rules: vec![AlertRule::hit_rate_floor(1_001, 2)],
        rollup: Some(RollupConfig::default()),
    };
    let sink = SinkHandle::new(JsonlSink::new(std::io::sink())).sampled(Some(sampler));
    let (_, report) =
        run_des_with_health(&cfg(PlacementScheme::Ea), &net, &trace, Some(sink), health);
    let join = |lines: Vec<String>| fnv1a(lines.join("\n").as_bytes());
    let rings = join(report.rings.iter().map(SeriesRing::to_json).collect());
    let alerts = join(report.alerts.iter().map(Event::to_json).collect());
    assert!(
        !report.alerts.is_empty(),
        "the unsatisfiable floor must fire"
    );
    assert_eq!(
        [rings, alerts].map(|h| format!("{h:#018x}")),
        ["0x51aa18052de5c391", "0x38467d6948c84a95"],
        "series rings, alert lines"
    );
    // Pinned at commit `14b1977`, before the three event folds became one.
    let rollup = report.rollup.as_ref().expect("a rollup was configured");
    assert_eq!(
        format!("{:#018x}", fnv1a(rollup.to_json().as_bytes())),
        "0x94fa81b41aa140ee",
        "health-run rollup JSON"
    );
}

/// The event summary `simulate --event-summary` prints, fed one DES run
/// and pinned at commit `14b1977` (when this fold had its own sink type).
#[test]
fn des_event_summary_matches_the_pinned_text() {
    use coopcache::obs::Tally;
    use std::sync::{Arc, Mutex, PoisonError};
    let trace = generate(&TraceProfile::small().with_requests(2_000)).unwrap();
    let cfg = SimConfig::new(ByteSize::from_kb(300)).with_scheme(PlacementScheme::Ea);
    let net = NetworkModel::paper_calibrated();
    let summary = Arc::new(Mutex::new(Tally::new()));
    let _ = run_des_with_sink(
        &cfg,
        &net,
        &trace,
        Some(SinkHandle::from_arc(Arc::clone(&summary))),
    );
    let text = summary
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .render_summary();
    assert!(text.contains("placements:"), "{text}");
    assert!(text.contains("evict_age_ms:"), "{text}");
    assert_eq!(
        format!("{:#018x}", fnv1a(text.as_bytes())),
        "0xa06a2307c4e09839",
        "event summary text"
    );
}

/// `small()` with every arrival floored to a multiple of the ICP round
/// (42 ms): arrivals then share timestamps with each other and with
/// other requests' ICP completions, so the event queue's tie order
/// decides what the stream looks like.
fn icp_floored_trace() -> Trace {
    let round = NetworkModel::paper_calibrated().icp_round.as_millis();
    generate(&TraceProfile::small())
        .unwrap()
        .into_iter()
        .map(|r| Request {
            time: Timestamp::from_millis(r.time.as_millis() / round * round),
            ..r
        })
        .collect()
}

/// One DES run's report plus the FNV-1a of its JSONL stream and of the
/// report's `Debug` text.
fn des_pins(
    cfg: &SimConfig,
    net: &NetworkModel,
    trace: &Trace,
) -> (coopcache::sim::DesReport, [String; 2]) {
    use std::sync::{Arc, Mutex, PoisonError};
    let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
    let report = run_des_with_sink(
        cfg,
        net,
        trace,
        Some(SinkHandle::from_arc(Arc::clone(&sink))),
    );
    let bytes = Arc::try_unwrap(sink)
        .expect("runner drops its sink handles")
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_inner();
    let pins =
        [fnv1a(&bytes), fnv1a(format!("{report:?}").as_bytes())].map(|h| format!("{h:#018x}"));
    (report, pins)
}

/// The event queue's tie rule, pinned: the streams and reports of three
/// runs where equal timestamps occur, computed before the queue stopped
/// holding the whole trace (at commit `417c96b`).
#[test]
fn des_tie_order_matches_the_pinned_streams() {
    let trace = icp_floored_trace();
    let round = NetworkModel::paper_calibrated().icp_round.as_millis();
    let times: std::collections::HashSet<u64> = trace.iter().map(|r| r.time.as_millis()).collect();
    assert!(times.len() < trace.len(), "arrivals must share timestamps");
    assert!(
        trace
            .iter()
            .any(|r| times.contains(&(r.time.as_millis() + round))),
        "some arrival must land one ICP round after another"
    );
    let net = NetworkModel::paper_calibrated();
    let cfg = SimConfig::new(ByteSize::from_kb(100)).with_scheme(PlacementScheme::Ea);
    let (_, lossless) = des_pins(&cfg, &net, &trace);
    let (_, lossy) = des_pins(&cfg, &net.with_icp_loss_permille(100), &trace);
    let (report, fallbacks) = des_pins(&SimConfig::new(ByteSize::from_kb(8)), &net, &trace);
    assert!(report.icp_fallbacks > 0, "the 8 KB cell must fall back");
    assert_eq!(
        [lossless, lossy, fallbacks],
        [
            ["0xba1a721ce6009809", "0x54294aa25ee30c99"],
            ["0x1283884697b16ced", "0x3cdc68aa58f8da5e"],
            ["0xa38a3b24abd89aad", "0x3939d7d8e30e7fd1"],
        ],
        "(stream, report) for: EA 100 KB, the same at 10% ICP loss, ad-hoc 8 KB"
    );
}
