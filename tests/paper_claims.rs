//! Cross-crate integration tests pinning the paper's qualitative claims.
//!
//! These replay the same deterministic workload under both placement
//! schemes and assert the *shape* the paper reports — who wins, in which
//! regime — not absolute numbers.

use coopcache::prelude::*;

fn workload() -> Trace {
    generate(&TraceProfile::small()).expect("built-in profile is valid")
}

fn cfg(kb: u64) -> SimConfig {
    SimConfig::new(ByteSize::from_kb(kb)).with_group_size(4)
}

fn both(kb: u64, trace: &Trace) -> (coopcache::sim::SimReport, coopcache::sim::SimReport) {
    let adhoc = run(&cfg(kb), trace);
    let ea = run(&cfg(kb).with_scheme(PlacementScheme::Ea), trace);
    (adhoc, ea)
}

#[test]
fn ea_wins_hit_rate_in_aggregate_and_never_loses_badly() {
    let trace = workload();
    let mut total_gain = 0.0;
    for kb in [50, 100, 500, 2_000, 10_000] {
        let (adhoc, ea) = both(kb, &trace);
        let gain = ea.metrics.hit_rate() - adhoc.metrics.hit_rate();
        assert!(
            gain > -0.005,
            "{kb}KB: EA hit rate {:.4} far below ad-hoc {:.4}",
            ea.metrics.hit_rate(),
            adhoc.metrics.hit_rate()
        );
        total_gain += gain;
    }
    assert!(total_gain > 0.01, "aggregate gain too small: {total_gain}");
}

#[test]
fn ea_raises_expiration_ages_at_every_contended_size() {
    // Paper Table 1: EA's average cache expiration age exceeds ad-hoc's
    // at every cache size, because fewer replicas mean less contention.
    let trace = workload();
    for kb in [50, 100, 500, 2_000] {
        let (adhoc, ea) = both(kb, &trace);
        let a = adhoc.avg_expiration_age_ms.expect("ad-hoc evicts");
        let e = ea.avg_expiration_age_ms.expect("EA evicts");
        assert!(e > a, "{kb}KB: EA age {e} <= ad-hoc age {a}");
    }
}

#[test]
fn ea_converts_local_hits_to_remote_hits() {
    // Paper Table 2: reducing replicas necessarily shifts hits from
    // local to remote; EA's remote-hit rate exceeds ad-hoc's everywhere.
    let trace = workload();
    for kb in [100, 1_000, 10_000] {
        let (adhoc, ea) = both(kb, &trace);
        assert!(
            ea.metrics.remote_hit_rate() > adhoc.metrics.remote_hit_rate(),
            "{kb}KB: EA remote {:.4} <= ad-hoc remote {:.4}",
            ea.metrics.remote_hit_rate(),
            adhoc.metrics.remote_hit_rate()
        );
        assert!(
            ea.metrics.local_hit_rate() < adhoc.metrics.local_hit_rate(),
            "{kb}KB: EA local should drop"
        );
    }
}

#[test]
fn ea_reduces_replication_under_contention() {
    let trace = workload();
    for kb in [500, 2_000, 10_000] {
        let (adhoc, ea) = both(kb, &trace);
        assert!(
            ea.replica_overhead() < adhoc.replica_overhead(),
            "{kb}KB: EA replicas {} >= ad-hoc {}",
            ea.replica_overhead(),
            adhoc.replica_overhead()
        );
    }
}

#[test]
fn everything_fits_regime_matches_table_2_signature() {
    // The paper's 1 GB row: when the aggregate exceeds the working set,
    // both schemes hit equally, but EA serves far more hits remotely
    // (single group-wide copies) and therefore pays slightly more
    // latency — while ad-hoc replicates everywhere.
    let trace = workload();
    let ws_kb = trace.stats().unique_bytes.as_bytes() / 1_000;
    let (adhoc, ea) = both(ws_kb * 4, &trace);
    assert!(
        (ea.metrics.hit_rate() - adhoc.metrics.hit_rate()).abs() < 0.002,
        "hit rates should converge when everything fits"
    );
    assert!(
        ea.metrics.remote_hit_rate() > 2.0 * adhoc.metrics.remote_hit_rate(),
        "EA remote {:.3} should dwarf ad-hoc remote {:.3}",
        ea.metrics.remote_hit_rate(),
        adhoc.metrics.remote_hit_rate()
    );
    assert!(
        ea.estimated_latency_ms > adhoc.estimated_latency_ms,
        "EA trades a little latency at giant caches (paper Fig. 3)"
    );
    assert_eq!(
        ea.replica_overhead(),
        0,
        "EA should hold exactly one copy of everything"
    );
}

#[test]
fn ea_latency_wins_where_misses_dominate() {
    // Paper Fig. 3: the EA scheme's latency advantage lives where the
    // miss rate is high (tiny caches); eq. 6 weighs a miss at 2784 ms.
    let trace = workload();
    let (adhoc, ea) = both(50, &trace);
    assert!(
        ea.estimated_latency_ms <= adhoc.estimated_latency_ms + 15.0,
        "at 50KB EA latency {:.0} should not exceed ad-hoc {:.0} by much",
        ea.estimated_latency_ms,
        adhoc.estimated_latency_ms
    );
}

#[test]
fn gains_grow_with_group_size() {
    // Paper §4.2 quotes its strongest numbers for the 8-cache group: more
    // peers means more wasteful replication for ad-hoc to pay for.
    let trace = workload();
    let gain_for = |n: u16| {
        let base = SimConfig::new(ByteSize::from_kb(100)).with_group_size(n);
        let adhoc = run(&base, &trace);
        let ea = run(&base.clone().with_scheme(PlacementScheme::Ea), &trace);
        ea.metrics.hit_rate() - adhoc.metrics.hit_rate()
    };
    let g2 = gain_for(2);
    let g8 = gain_for(8);
    assert!(
        g8 > g2 - 0.002,
        "8-cache gain {g8:.4} should not fall below 2-cache gain {g2:.4}"
    );
}

#[test]
fn des_and_sync_drivers_agree_on_rates() {
    let trace = workload();
    let config = cfg(500);
    let sync_report = run(&config, &trace);
    let des_report = run_des(&config, &NetworkModel::paper_calibrated(), &trace);
    assert!(
        (sync_report.metrics.hit_rate() - des_report.metrics.hit_rate()).abs() < 0.05,
        "drivers diverged: sync {:.4} vs des {:.4}",
        sync_report.metrics.hit_rate(),
        des_report.metrics.hit_rate()
    );
    // The DES measures latency; it must land between the best and worst
    // eq. 6 constants.
    assert!(des_report.mean_latency_ms > 146.0);
    assert!(des_report.mean_latency_ms < 2_900.0);
}

#[test]
fn tie_store_variant_replicates_more_than_strict_ea() {
    // The two EA readings differ exactly on tied expiration ages, which
    // dominate once nothing evicts (all ages stay Infinite). There the
    // tie-store variant degenerates to ad-hoc (replicate everywhere,
    // mostly local hits) while the strict variant keeps single copies.
    let trace = workload();
    let ws_kb = trace.stats().unique_bytes.as_bytes() / 1_000;
    let base = cfg(ws_kb * 4);
    let strict = run(&base.clone().with_scheme(PlacementScheme::Ea), &trace);
    let tie_store = run(&base.with_scheme(PlacementScheme::EaTieStore), &trace);
    assert!(
        tie_store.replica_overhead() > 10 * strict.replica_overhead().max(1),
        "tie-store replicas {} should dwarf strict replicas {}",
        tie_store.replica_overhead(),
        strict.replica_overhead()
    );
    assert!(
        tie_store.metrics.remote_hit_rate() < strict.metrics.remote_hit_rate(),
        "storing on ties must reduce remote serving"
    );
    // Hit rates coincide: the schemes only move copies around.
    assert!(
        (tie_store.metrics.hit_rate() - strict.metrics.hit_rate()).abs() < 0.002,
        "tie handling must not change what the group can serve"
    );
}

// ---- Where the full-scale tables diverge from the paper -----------------
//
// These read the committed `results/` tables, which `scripts/check.sh`
// regenerates and diffs. A change that moves a divergence fails here, and
// DESIGN.md §10 moves with it.

fn results_rows(id: &str) -> Vec<Vec<String>> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{id}.csv"));
    let text = std::fs::read_to_string(&path).expect("committed results table");
    text.lines()
        .skip(1)
        .map(|line| line.split(',').map(str::to_string).collect())
        .collect()
}

fn cell(row: &[String], column: usize) -> f64 {
    row[column]
        .trim_start_matches('+')
        .parse()
        .expect("numeric cell")
}

#[test]
fn fig3_mid_range_premium_is_the_known_divergence() {
    // Columns: aggregate, ad-hoc ms, EA ms, EA saves (ms).
    let rows = results_rows("fig3_latency");
    let sizes: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(sizes, ["100KB", "1MB", "10MB", "100MB", "1GB"]);
    let saves: Vec<f64> = rows.iter().map(|r| cell(r, 3)).collect();
    assert!(
        saves[0] > 0.0,
        "EA saves latency at 100 KB, as in the paper"
    );
    for (size, saved) in sizes[1..4].iter().zip(&saves[1..4]) {
        assert!(
            (-60.0..=-20.0).contains(saved),
            "{size}: the EA premium is now {saved} ms; the paper shows a saving"
        );
    }
    assert!(saves[4] < 0.0, "EA pays latency at 1 GB, as in the paper");
}

#[test]
fn table2_one_gigabyte_shares_overshoot_the_paper() {
    // Columns: aggregate, ad-hoc local %, ad-hoc remote %, ad-hoc ms,
    // EA local %, EA remote %, EA ms.
    const PAPER_EA_REMOTE: f64 = 32.02;
    const PAPER_ADHOC_REMOTE: f64 = 11.06;
    let rows = results_rows("table2_local_remote");
    for row in &rows {
        assert!(
            cell(row, 5) > cell(row, 2),
            "{}: EA remote ≤ ad-hoc",
            row[0]
        );
    }
    let gb = rows.iter().find(|r| r[0] == "1GB").expect("1 GB row");
    let (adhoc_remote, ea_remote) = (cell(gb, 2), cell(gb, 5));
    assert!(
        ea_remote > PAPER_EA_REMOTE + 20.0,
        "EA remote share at 1 GB is {ea_remote} %; strict ties gave ≈ 56 %"
    );
    assert!(
        adhoc_remote < PAPER_ADHOC_REMOTE / 2.0,
        "ad-hoc remote share at 1 GB is {adhoc_remote} %; it was ≈ 3.6 %"
    );
}
