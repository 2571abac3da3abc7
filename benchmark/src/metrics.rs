//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a unit test keeps the two in step); the regression bounds live
//! only there, because they are the driver's to apply and `compare`
//! reads them from that file.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (the driver's contract), so each is defined for all workloads;
/// `README.md` gives the per-workload meaning.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("req_per_s", "1/s"),
    lower("p50_us", "us"),
    lower("p90_us", "us"),
    higher("hit_ratio", "ratio"),
    lower("cpu_us_per_req", "us"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer metrics, reported by traced runs only. A workload that
/// does not exercise a layer reports 0 for it — the "predicted no
/// movement" cells of the README's table.
pub const PER_LAYER: &[MetricDef] = &[
    // trace
    lower("trace.generate_ns_per_req", "ns"),
    lower("trace.partition_ns_per_req", "ns"),
    lower("trace.time_share", "ratio"),
    // core
    lower("core.lookup_hit_ns", "ns"),
    lower("core.lookup_miss_ns", "ns"),
    lower("core.insert_ns", "ns"),
    lower("core.insert_evict_ns", "ns"),
    lower("core.serve_remote_ns", "ns"),
    lower("core.contains_ns", "ns"),
    lower("core.expiration_age_ns", "ns"),
    lower("core.lookup_hit_ns.s3fifo", "ns"),
    lower("core.concurrent_lookup_ns", "ns"),
    lower("core.lock_acquisitions", "count"),
    lower("core.lock_contended", "count"),
    lower("core.evictions", "count"),
    lower("core.growth_events", "count"),
    lower("core.fill_ns_per_insert", "ns"),
    lower("core.bytes_per_entry", "B"),
    lower("core.time_share", "ratio"),
    // proxy
    lower("proxy.group_request_ns", "ns"),
    lower("proxy.node_icp_query_ns", "ns"),
    lower("proxy.node_http_request_ns", "ns"),
    lower("proxy.icp_queries_per_req", "count"),
    lower("proxy.doc_requests_per_req", "count"),
    higher("proxy.local_hit_share", "ratio"),
    higher("proxy.remote_hit_share", "ratio"),
    lower("proxy.miss_share", "ratio"),
    higher("proxy.placement_stored_share", "ratio"),
    lower("proxy.replica_overhead", "count"),
    lower("proxy.time_share", "ratio"),
    // metrics
    lower("metrics.record_ns", "ns"),
    lower("metrics.time_share", "ratio"),
    // sim
    lower("sim.sync_ns_per_req", "ns"),
    lower("sim.runner_unattributed_share", "ratio"),
    lower("sim.des_bare_ns_per_req", "ns"),
    lower("sim.des_queue_ns_per_req", "ns"),
    lower("sim.des_health_ns_per_req", "ns"),
    lower("sim.time_share", "ratio"),
    // obs
    lower("obs.events_per_req", "count"),
    lower("obs.jsonl_ns_per_event", "ns"),
    lower("obs.sampled_ns_per_event", "ns"),
    lower("obs.rollup_ns_per_event", "ns"),
    lower("obs.series_alert_ns_per_req", "ns"),
    lower("obs.stats_record_ns", "ns"),
    lower("obs.alerts_fired", "count"),
    lower("obs.sink_errors", "count"),
    lower("obs.time_share", "ratio"),
    // net
    lower("net.wire_encode_ns", "ns"),
    lower("net.wire_decode_ns", "ns"),
    lower("net.frame_roundtrip_ns", "ns"),
    lower("net.icp_round_us", "us"),
    lower("net.icp_handle_us", "us"),
    lower("net.peer_fetch_us", "us"),
    lower("net.doc_serve_us", "us"),
    lower("net.origin_fetch_us", "us"),
    lower("net.request_self_us", "us"),
    lower("net.client_unattributed_us", "us"),
    lower("net.connect_us", "us"),
    higher("net.conn_reused_per_req", "count"),
    lower("net.icp_timeouts", "count"),
    lower("net.local_hit_ns", "ns"),
    higher("net.bytes_per_s", "B/s"),
    lower("net.ctx_switches_per_req", "count"),
    lower("net.p99_us", "us"),
    lower("net.peer_p50_us", "us"),
    lower("net.peer_p90_us", "us"),
    lower("net.peer_p99_us", "us"),
    lower("net.origin_p50_us", "us"),
    lower("net.origin_p90_us", "us"),
    lower("net.origin_p99_us", "us"),
    lower("net.peer_faults", "count"),
    lower("net.failovers", "count"),
    lower("net.admission_shed", "count"),
    lower("net.cluster_start_ms", "ms"),
    lower("net.cluster_shutdown_ms", "ms"),
    lower("net.stats_scrape_us", "us"),
    lower("net.time_share", "ratio"),
    // bench
    lower("bench.clock_ns", "ns"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.unattributed_share", "ratio"),
    higher("bench.spans_recorded", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache::obs::{parse_json, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = parse_json(&text).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogue(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }
}
