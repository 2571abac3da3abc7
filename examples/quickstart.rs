//! Quickstart: the paper's headline comparison in ~40 lines.
//!
//! Generates a small deterministic workload, replays it through a
//! 4-cache distributed group under both placement schemes, and prints
//! the metrics the paper evaluates.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use coopcache::prelude::*;

fn main() {
    // A deterministic 20k-request workload (Zipf popularity, sessions,
    // flash crowds — a miniature of the paper's BU-94 trace).
    let trace = generate(&TraceProfile::small()).expect("built-in profile is valid");
    let stats = trace.stats();
    println!(
        "workload: {} requests over {} unique documents ({} of unique bytes)\n",
        stats.requests, stats.unique_docs, stats.unique_bytes
    );

    // The paper's setup: 4 caches sharing 1 MB of aggregate disk evenly.
    let config = SimConfig::new(ByteSize::from_mb(1)).with_group_size(4);

    let adhoc = run(&config, &trace);
    let ea = run(&config.clone().with_scheme(PlacementScheme::Ea), &trace);

    let mut table = Table::new(vec!["metric", "ad-hoc", "EA"]);
    table.row(vec![
        "document hit rate %".into(),
        format!("{:.2}", 100.0 * adhoc.metrics.hit_rate()),
        format!("{:.2}", 100.0 * ea.metrics.hit_rate()),
    ]);
    table.row(vec![
        "byte hit rate %".into(),
        format!("{:.2}", 100.0 * adhoc.metrics.byte_hit_rate()),
        format!("{:.2}", 100.0 * ea.metrics.byte_hit_rate()),
    ]);
    table.row(vec![
        "remote hit rate %".into(),
        format!("{:.2}", 100.0 * adhoc.metrics.remote_hit_rate()),
        format!("{:.2}", 100.0 * ea.metrics.remote_hit_rate()),
    ]);
    table.row(vec![
        "est. latency (ms, eq. 6)".into(),
        format!("{:.0}", adhoc.estimated_latency_ms),
        format!("{:.0}", ea.estimated_latency_ms),
    ]);
    table.row(vec![
        "avg expiration age (s)".into(),
        format!("{:.1}", adhoc.avg_expiration_age_ms.unwrap_or(0.0) / 1e3),
        format!("{:.1}", ea.avg_expiration_age_ms.unwrap_or(0.0) / 1e3),
    ]);
    table.row(vec![
        "replicated doc slots".into(),
        adhoc.replica_overhead().to_string(),
        ea.replica_overhead().to_string(),
    ]);
    print!("{table}");

    println!(
        "\nEA skipped {} replica stores and {} stale promotions.",
        ea.metrics.stores_skipped, ea.metrics.promotions_skipped
    );
    // The paper's headline: EA never does worse than ad-hoc here.
    assert!(
        ea.metrics.hit_rate() >= adhoc.metrics.hit_rate(),
        "EA hit rate fell below ad-hoc's"
    );
}
