//! ABL-T — ablation: the paper states the EA requester rule with strict
//! ">" in §3.4 but "≥" in §3.5. This bench compares the two readings.
//! The strict form (our default) is the one whose large-cache behaviour
//! matches the paper's Table 2 (EA remote-hit rate ≫ ad-hoc at 1 GB).
//! The "ties" column counts placement decisions where both expiration
//! ages were equal — exactly the decisions the two readings resolve
//! differently (event-counted via `Tally::placement_ties`).
//! Supports `--fast` and `--json` like every bench binary.

use coopcache_bench::{emit, trace_from_args};
use coopcache_core::PlacementScheme;
use coopcache_metrics::{pct, SinkHandle, Table, Tally};
use coopcache_sim::{run_with_sink, SimConfig, PAPER_CACHE_SIZES};
use std::sync::{Arc, Mutex, PoisonError};

fn main() {
    let (trace, scale) = trace_from_args();
    let mut table = Table::new(vec![
        "aggregate",
        "scheme",
        "hit %",
        "remote %",
        "latency ms",
        "exp-age (s)",
        "ties",
    ]);
    for &aggregate in &PAPER_CACHE_SIZES {
        for scheme in [
            PlacementScheme::AdHoc,
            PlacementScheme::Ea,
            PlacementScheme::EaTieStore,
        ] {
            let cfg = SimConfig::new(aggregate)
                .with_group_size(4)
                .with_scheme(scheme);
            let sink = Arc::new(Mutex::new(Tally::new()));
            let report = run_with_sink(&cfg, &trace, Some(SinkHandle::from_arc(Arc::clone(&sink))));
            let sink = Arc::try_unwrap(sink)
                .expect("runner drops its sink handles")
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            table.row(vec![
                aggregate.to_string(),
                scheme.to_string(),
                pct(report.metrics.hit_rate()),
                pct(report.metrics.remote_hit_rate()),
                format!("{:.0}", report.estimated_latency_ms),
                report
                    .avg_expiration_age_ms
                    .map_or("-".into(), |ms| format!("{:.2}", ms / 1_000.0)),
                sink.placement_ties().to_string(),
            ]);
        }
    }
    emit(
        "ablation_tiebreak",
        "Strict vs tie-store EA requester rule (ABL-T)",
        scale,
        &table,
    );
}
