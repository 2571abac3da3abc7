//! The fast synchronous trace driver — the workhorse behind every
//! table and figure reproduction.

use crate::config::SimConfig;
use coopcache_metrics::{GroupMetrics, LatencyModel};
use coopcache_obs::{Event, SinkHandle};
use coopcache_proxy::{DistributedGroup, RequestOutcome};
use coopcache_trace::Trace;
use coopcache_types::Request;

/// Reporting windows the trace is divided into for the per-window
/// hit-rate / expiration-age time series in [`SimReport::windows`] (each
/// rollover also emits a `WindowRollover` event).
const TIMESERIES_WINDOWS: u64 = 20;

/// One reporting window of the trace: the per-window and cumulative view
/// of hit rate and group expiration age (the `SimReport` time series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Zero-based window index.
    pub index: u64,
    /// Requests inside this window.
    pub requests: u64,
    /// Local hits inside this window.
    pub local_hits: u64,
    /// Remote hits inside this window.
    pub remote_hits: u64,
    /// Hit rate (local + remote) inside this window.
    pub hit_rate: f64,
    /// Hit rate over everything up to and including this window.
    pub cumulative_hit_rate: f64,
    /// Mean of the caches' *current windowed* expiration ages at
    /// rollover, in milliseconds; `None` while every cache is still
    /// infinite (no contention observed).
    pub mean_age_ms: Option<u64>,
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Group-wide request counters and rates.
    pub metrics: GroupMetrics,
    /// Inter-proxy message counters (includes warm-up traffic).
    pub protocol: coopcache_proxy::ProtocolStats,
    /// Mean (over caches) of the lifetime-average document expiration age
    /// at eviction, in milliseconds — the paper's Table 1 quantity.
    /// `None` when no cache ever evicted.
    pub avg_expiration_age_ms: Option<f64>,
    /// Estimated average latency per eq. 6, in milliseconds.
    pub estimated_latency_ms: f64,
    /// Unique documents resident somewhere in the group at the end.
    pub unique_docs_cached: usize,
    /// Total resident documents counting replicas — `total - unique` is
    /// the amount of replication the placement scheme allowed.
    pub total_docs_cached: usize,
    /// Per-window hit-rate / expiration-age time series
    /// (20 windows, one per request for a shorter trace; empty for an
    /// empty trace).
    pub windows: Vec<WindowStat>,
}

impl SimReport {
    /// Number of replicated document slots at the end of the run.
    #[must_use]
    pub fn replica_overhead(&self) -> usize {
        self.total_docs_cached - self.unique_docs_cached
    }
}

/// Mean of the caches' current (windowed) expiration ages in ms, skipping
/// infinite ones; `None` when all are infinite.
fn mean_current_age_ms(group: &DistributedGroup) -> Option<u64> {
    let finite: Vec<u64> = group
        .expiration_ages()
        .iter()
        .filter_map(|a| a.as_finite().map(|d| d.as_millis()))
        .collect();
    if finite.is_empty() {
        None
    } else {
        Some(finite.iter().sum::<u64>() / finite.len() as u64)
    }
}

/// Replays a trace through a distributed cache group.
///
/// Deterministic: same config + same trace = identical report.
///
/// # Example
///
/// ```
/// use coopcache_sim::{run, SimConfig};
/// use coopcache_core::PlacementScheme;
/// use coopcache_trace::{generate, TraceProfile};
/// use coopcache_types::ByteSize;
///
/// let trace = generate(&TraceProfile::small()).unwrap();
/// let adhoc = run(&SimConfig::new(ByteSize::from_mb(1)), &trace);
/// let ea = run(
///     &SimConfig::new(ByteSize::from_mb(1)).with_scheme(PlacementScheme::Ea),
///     &trace,
/// );
/// // The paper's guarantee: EA never loses to ad-hoc on hit rate.
/// assert!(ea.metrics.hit_rate() >= adhoc.metrics.hit_rate() - 1e-9);
/// ```
#[must_use]
pub fn run(config: &SimConfig, trace: &Trace) -> SimReport {
    run_inner(config, trace, None, |_, _, _| {})
}

/// Like [`run`], but streams every event (requests, placements,
/// evictions, ICP traffic, spans, window rollovers) into `sink` when one
/// is supplied — the synchronous driver's entry point for `--events`.
/// The group emits each request's span tree, stamped with trace time,
/// and its `Request` event.
#[must_use]
pub fn run_with_sink(config: &SimConfig, trace: &Trace, sink: Option<SinkHandle>) -> SimReport {
    run_inner(config, trace, sink, |_, _, _| {})
}

/// Like [`run`], but invokes `observe(seq, request, outcome)` after every
/// request — used for time-series output and for tests that need
/// per-request visibility.
pub fn run_with_observer<F>(config: &SimConfig, trace: &Trace, observe: F) -> SimReport
where
    F: FnMut(usize, &Request, RequestOutcome),
{
    run_inner(config, trace, None, observe)
}

fn run_inner<F>(
    config: &SimConfig,
    trace: &Trace,
    sink: Option<SinkHandle>,
    mut observe: F,
) -> SimReport
where
    F: FnMut(usize, &Request, RequestOutcome),
{
    let mut group = config.build_group();
    if let Some(sink) = &sink {
        group.set_sink(sink.clone());
    }
    let mut metrics = GroupMetrics::default();
    let n = config.group_size as usize;
    let warmup_until = (trace.len() as f64 * config.warmup_fraction) as usize;
    // Window bookkeeping: the trace splits into `TIMESERIES_WINDOWS`
    // near-equal windows (the last one absorbs the remainder and any
    // short trace simply yields fewer, shorter windows).
    let total = trace.len() as u64;
    let window_len = (total / TIMESERIES_WINDOWS).max(1);
    let mut windows: Vec<WindowStat> = Vec::new();
    let mut win = (0u64, 0u64, 0u64); // (requests, local hits, remote hits)
    let mut cum_hits = 0u64;
    for (seq, request) in trace.iter().enumerate() {
        let requester = config.partitioner.assign(request, seq, n);
        let outcome = group.handle_request(requester, request.doc, request.size, request.time);
        if seq >= warmup_until {
            metrics.record(outcome, request.size);
        }
        win.0 += 1;
        if outcome.is_local_hit() {
            win.1 += 1;
        } else if outcome.is_remote_hit() {
            win.2 += 1;
        }
        let served = seq as u64 + 1;
        // Roll over when the window is full, except that the final window
        // runs to the end of the trace so no short tail window is emitted.
        let boundary = win.0 == window_len && total - served >= window_len;
        if served == total || boundary {
            cum_hits += win.1 + win.2;
            let mean_age_ms = mean_current_age_ms(&group);
            let stat = WindowStat {
                index: windows.len() as u64,
                requests: win.0,
                local_hits: win.1,
                remote_hits: win.2,
                hit_rate: (win.1 + win.2) as f64 / win.0 as f64,
                cumulative_hit_rate: cum_hits as f64 / served as f64,
                mean_age_ms,
            };
            if let Some(sink) = &sink {
                sink.emit(&Event::WindowRollover {
                    index: stat.index,
                    requests: stat.requests,
                    local_hits: stat.local_hits,
                    remote_hits: stat.remote_hits,
                    mean_age_ms,
                });
            }
            windows.push(stat);
            win = (0, 0, 0);
        }
        observe(seq, request, outcome);
    }
    finish(metrics, &group, windows)
}

fn finish(metrics: GroupMetrics, group: &DistributedGroup, windows: Vec<WindowStat>) -> SimReport {
    SimReport {
        estimated_latency_ms: LatencyModel::paper_2002().average_latency_ms(&metrics),
        avg_expiration_age_ms: group.average_expiration_age_ms(),
        unique_docs_cached: group.unique_cached_docs(),
        total_docs_cached: group.total_cached_docs(),
        protocol: *group.protocol_stats(),
        metrics,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_core::PlacementScheme;
    use coopcache_trace::{generate, TraceProfile};
    use coopcache_types::ByteSize;

    fn small_trace() -> Trace {
        generate(&TraceProfile::small()).unwrap()
    }

    fn cfg(kb: u64) -> SimConfig {
        SimConfig::new(ByteSize::from_kb(kb))
    }

    #[test]
    fn run_is_deterministic() {
        let trace = small_trace();
        let a = run(&cfg(500), &trace);
        let b = run(&cfg(500), &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn rates_are_consistent() {
        let trace = small_trace();
        let r = run(&cfg(500), &trace);
        let m = &r.metrics;
        assert_eq!(m.requests as usize, trace.len());
        assert_eq!(m.local_hits + m.remote_hits + m.misses, m.requests);
        assert!(m.hit_rate() > 0.0, "some re-references must hit");
        assert!(m.miss_rate() > 0.0, "compulsory misses exist");
        assert!(r.estimated_latency_ms > 146.0);
        assert!(r.estimated_latency_ms < 2784.0);
    }

    #[test]
    fn bigger_cache_hits_more() {
        let trace = small_trace();
        let small = run(&cfg(100), &trace);
        let big = run(&cfg(10_000), &trace);
        assert!(
            big.metrics.hit_rate() > small.metrics.hit_rate(),
            "100KB {} vs 10MB {}",
            small.metrics.hit_rate(),
            big.metrics.hit_rate()
        );
    }

    #[test]
    fn ea_beats_or_ties_adhoc_on_hit_rate() {
        // The paper's per-decision guarantee (a surviving copy always
        // keeps its lease) does not forbid tiny per-trace losses once the
        // two runs' cache contents diverge, so allow a small tolerance
        // per size but require EA to win overall.
        let trace = small_trace();
        let mut total_gain = 0.0;
        for kb in [50, 200, 1_000, 5_000] {
            let adhoc = run(&cfg(kb), &trace);
            let ea = run(&cfg(kb).with_scheme(PlacementScheme::Ea), &trace);
            let gain = ea.metrics.hit_rate() - adhoc.metrics.hit_rate();
            assert!(
                gain >= -0.005,
                "{kb}KB: EA {} well below ad-hoc {}",
                ea.metrics.hit_rate(),
                adhoc.metrics.hit_rate()
            );
            total_gain += gain;
        }
        assert!(total_gain > 0.0, "EA should win in aggregate: {total_gain}");
    }

    #[test]
    fn ea_raises_expiration_age_under_contention() {
        let trace = small_trace();
        let adhoc = run(&cfg(100), &trace);
        let ea = run(&cfg(100).with_scheme(PlacementScheme::Ea), &trace);
        let (a, e) = (
            adhoc.avg_expiration_age_ms.expect("contended run evicts"),
            ea.avg_expiration_age_ms.expect("contended run evicts"),
        );
        assert!(e > a, "EA age {e} should exceed ad-hoc age {a}");
    }

    #[test]
    fn ea_reduces_replication() {
        let trace = small_trace();
        let adhoc = run(&cfg(200), &trace);
        let ea = run(&cfg(200).with_scheme(PlacementScheme::Ea), &trace);
        assert!(
            ea.replica_overhead() <= adhoc.replica_overhead(),
            "EA replicas {} > ad-hoc {}",
            ea.replica_overhead(),
            adhoc.replica_overhead()
        );
    }

    #[test]
    fn ea_shifts_hits_remote() {
        let trace = small_trace();
        let adhoc = run(&cfg(1_000), &trace);
        let ea = run(&cfg(1_000).with_scheme(PlacementScheme::Ea), &trace);
        assert!(
            ea.metrics.remote_hit_rate() >= adhoc.metrics.remote_hit_rate(),
            "EA remote {} < ad-hoc remote {}",
            ea.metrics.remote_hit_rate(),
            adhoc.metrics.remote_hit_rate()
        );
        assert!(ea.metrics.stores_skipped > 0, "EA never skipped a store");
    }

    #[test]
    fn observer_sees_every_request() {
        let trace = small_trace();
        let mut count = 0usize;
        let mut last_seq = None;
        run_with_observer(&cfg(500), &trace, |seq, req, outcome| {
            count += 1;
            last_seq = Some(seq);
            assert!(req.size.as_bytes() > 0);
            let _ = outcome.is_hit();
        });
        assert_eq!(count, trace.len());
        assert_eq!(last_seq, Some(trace.len() - 1));
    }

    #[test]
    fn single_cache_has_no_remote_hits() {
        let trace = small_trace();
        let r = run(&cfg(500).with_group_size(1), &trace);
        assert_eq!(r.metrics.remote_hits, 0);
        assert!(r.metrics.local_hits > 0);
    }

    #[test]
    fn warmup_excludes_early_requests_from_metrics() {
        let trace = small_trace();
        let full = run(&cfg(500), &trace);
        let warmed = run(&cfg(500).with_warmup_fraction(0.5), &trace);
        assert_eq!(
            warmed.metrics.requests as usize,
            trace.len() - trace.len() / 2
        );
        // Measuring only the warm half must raise the observed hit rate.
        assert!(
            warmed.metrics.hit_rate() > full.metrics.hit_rate(),
            "warm {} <= cold-inclusive {}",
            warmed.metrics.hit_rate(),
            full.metrics.hit_rate()
        );
    }

    #[test]
    fn ttl_lowers_hit_rate() {
        let trace = small_trace();
        let fresh_forever = run(&cfg(2_000), &trace);
        let one_hour = run(
            &cfg(2_000).with_ttl(coopcache_types::DurationMs::from_secs(3_600)),
            &trace,
        );
        assert!(
            one_hour.metrics.hit_rate() < fresh_forever.metrics.hit_rate(),
            "ttl {} should cost hits vs {}",
            one_hour.metrics.hit_rate(),
            fresh_forever.metrics.hit_rate()
        );
    }

    #[test]
    fn isolated_discovery_loses_remote_hits() {
        use coopcache_proxy::Discovery;
        let trace = small_trace();
        let coop = run(&cfg(1_000), &trace);
        let iso = run(&cfg(1_000).with_discovery(Discovery::Isolated), &trace);
        assert_eq!(iso.metrics.remote_hits, 0);
        assert!(iso.metrics.hit_rate() < coop.metrics.hit_rate());
        assert_eq!(iso.protocol.messages(), 0);
        assert!(coop.protocol.messages() > 0);
    }

    #[test]
    fn digest_discovery_trades_messages_for_accuracy() {
        use coopcache_proxy::Discovery;
        use coopcache_types::DurationMs;
        let trace = small_trace();
        let icp = run(&cfg(1_000), &trace);
        let digest = run(
            &cfg(1_000).with_discovery(Discovery::Digest {
                refresh_every: DurationMs::from_secs(600),
                fp_rate: 0.01,
            }),
            &trace,
        );
        // Digests cut per-miss query traffic dramatically...
        assert!(
            digest.protocol.messages() < icp.protocol.messages() / 2,
            "digest msgs {} vs icp {}",
            digest.protocol.messages(),
            icp.protocol.messages()
        );
        // ...at a small hit-rate cost from staleness.
        assert!(digest.metrics.hit_rate() <= icp.metrics.hit_rate());
        assert!(
            digest.metrics.hit_rate() > icp.metrics.hit_rate() - 0.10,
            "digest hit rate collapsed: {} vs {}",
            digest.metrics.hit_rate(),
            icp.metrics.hit_rate()
        );
    }

    #[test]
    fn heterogeneous_capacities_run() {
        let trace = small_trace();
        let even = run(&cfg(1_000), &trace);
        let skewed = run(&cfg(1_000).with_capacity_weights(vec![1, 1, 1, 5]), &trace);
        assert_eq!(skewed.metrics.requests, even.metrics.requests);
        assert!(skewed.metrics.hit_rate() > 0.0);
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let r = run(&cfg(100), &Trace::default());
        assert_eq!(r.metrics.requests, 0);
        assert_eq!(r.estimated_latency_ms, 0.0);
        assert_eq!(r.avg_expiration_age_ms, None);
        assert_eq!(r.unique_docs_cached, 0);
        assert!(r.windows.is_empty());
    }

    #[test]
    fn windows_partition_the_trace() {
        let trace = small_trace();
        let r = run(&cfg(500), &trace);
        assert_eq!(r.windows.len() as u64, TIMESERIES_WINDOWS);
        let total: u64 = r.windows.iter().map(|w| w.requests).sum();
        assert_eq!(total as usize, trace.len());
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert!(w.local_hits + w.remote_hits <= w.requests);
            assert!((0.0..=1.0).contains(&w.hit_rate));
        }
        // The final cumulative figure matches the run-wide hit rate
        // (no warm-up configured, so both count everything).
        let last = r.windows.last().unwrap();
        assert!(
            (last.cumulative_hit_rate - r.metrics.hit_rate()).abs() < 1e-9,
            "cumulative {} vs metrics {}",
            last.cumulative_hit_rate,
            r.metrics.hit_rate()
        );
        // A contended run should develop a finite mean age by the end.
        let contended = run(&cfg(100).with_scheme(PlacementScheme::Ea), &trace);
        assert!(contended.windows.last().unwrap().mean_age_ms.is_some());
    }

    #[test]
    fn more_windows_than_requests_degrades_gracefully() {
        let trace = generate(&TraceProfile::small().with_requests(12)).unwrap();
        assert!((trace.len() as u64) < TIMESERIES_WINDOWS);
        let r = run(&cfg(500), &trace);
        // One window per request is the finest possible split.
        assert_eq!(r.windows.len(), trace.len());
        assert!(r.windows.iter().all(|w| w.requests == 1));
    }

    #[test]
    fn sink_sees_every_request_and_rollover() {
        use coopcache_obs::{EventKind, SinkHandle, Tally};
        use std::sync::{Arc, Mutex};
        let trace = small_trace();
        let sink = Arc::new(Mutex::new(Tally::new()));
        let handle = SinkHandle::from_arc(Arc::clone(&sink));
        let report = run_with_sink(
            &cfg(500).with_scheme(PlacementScheme::Ea),
            &trace,
            Some(handle),
        );
        let agg = sink.lock().unwrap();
        assert_eq!(agg.count(EventKind::Request) as usize, trace.len());
        assert_eq!(
            agg.count(EventKind::WindowRollover) as usize,
            report.windows.len()
        );
        // The event-level split agrees with the run-wide metrics
        // (no warm-up, so the metrics count everything too).
        let (local, remote, miss) = agg.request_split();
        assert_eq!(local, report.metrics.local_hits);
        assert_eq!(remote, report.metrics.remote_hits);
        assert_eq!(miss, report.metrics.misses);
        // ICP traffic in the events mirrors the protocol counters.
        assert_eq!(agg.count(EventKind::IcpQuery), report.protocol.icp_queries);
        // EA placement decisions under contention flow through too.
        assert!(agg.count(EventKind::Placement) > 0);
        assert!(agg.count(EventKind::Eviction) > 0);
    }

    #[test]
    fn sink_does_not_change_the_report() {
        use coopcache_obs::{SinkHandle, Tally};
        let trace = small_trace();
        let plain = run(&cfg(500).with_scheme(PlacementScheme::Ea), &trace);
        let observed = run_with_sink(
            &cfg(500).with_scheme(PlacementScheme::Ea),
            &trace,
            Some(SinkHandle::new(Tally::new())),
        );
        assert_eq!(plain, observed);
    }
}
