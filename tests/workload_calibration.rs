//! Validates that the synthetic workload carries the statistical
//! properties the substitution argument (DESIGN.md §1) relies on, using
//! the analysis toolkit itself.

use coopcache::analysis::{belady_min, PopularityProfile, ReuseProfile, SharingProfile};
use coopcache::prelude::*;

fn trace() -> Trace {
    generate(&TraceProfile::small()).unwrap()
}

#[test]
fn popularity_is_zipf_like_in_the_calibrated_range() {
    let t = trace();
    let pop = PopularityProfile::compute(t.iter().map(|r| r.doc));
    let alpha = pop.zipf_alpha_fit().expect("enough re-referenced docs");
    // The profile targets α ≈ 1.05 plus locality/flash amplification.
    assert!(
        (0.8..=1.6).contains(&alpha),
        "fitted alpha {alpha} outside the calibrated band"
    );
    // Web workloads concentrate heavily on the head...
    assert!(
        pop.top_share(10) > 0.15,
        "top-10 share {}",
        pop.top_share(10)
    );
    // ...and carry a meaningful one-timer tail.
    assert!(
        pop.one_timer_fraction() > 0.10,
        "one-timers {}",
        pop.one_timer_fraction()
    );
}

#[test]
fn temporal_locality_shows_in_the_stack_distances() {
    let t = trace();
    let reuse = ReuseProfile::compute(t.iter().map(|r| r.doc));
    // A tiny LRU already catches a meaningful share of re-references
    // (session bursts), and the curve grows substantially with size.
    let small = reuse.lru_hit_rate(16);
    let large = reuse.lru_hit_rate(2_048);
    assert!(small > 0.2, "16-doc LRU hit rate {small}");
    assert!(large > small + 0.2, "curve too flat: {small} -> {large}");
}

#[test]
fn cross_client_sharing_exists_but_same_client_dominates() {
    // The paper's premise needs cross-client sharing (cooperation must
    // have something to win); real logs show same-user re-references
    // dominating (Wolman et al.) — both must hold in the synthetic trace.
    let t = trace();
    let sharing = SharingProfile::compute(t.iter());
    let share = sharing.cross_client_share();
    assert!(share > 0.03, "cross-client share {share} too small");
    assert!(share < 0.5, "cross-client share {share} implausibly large");
    assert!(sharing.same_client > sharing.cross_client);
}

#[test]
fn simulated_hit_rates_respect_the_offline_bound() {
    let t = trace();
    let sized: Vec<_> = t.iter().map(|r| (r.doc, r.size)).collect();
    for kb in [100u64, 1_000, 10_000] {
        let aggregate = ByteSize::from_kb(kb);
        let bound = belady_min(&sized, aggregate);
        for scheme in [PlacementScheme::AdHoc, PlacementScheme::Ea] {
            let cfg = SimConfig::new(aggregate).with_scheme(scheme);
            let report = run(&cfg, &t);
            assert!(
                report.metrics.hit_rate() <= bound.hit_rate() + 1e-9,
                "{scheme} at {aggregate}: {} beats the MIN bound {}",
                report.metrics.hit_rate(),
                bound.hit_rate()
            );
        }
    }
}

#[test]
fn single_shared_lru_curve_brackets_the_group() {
    // A group of 4 LRU caches with aggregate N bytes cannot beat one
    // shared LRU of N bytes on unit-cost hit rate... in general this can
    // be violated by size effects, so assert the weaker, robust property:
    // the group tracks the shared-LRU curve within a reasonable band.
    let t = trace();
    let reuse = ReuseProfile::compute(t.iter().map(|r| r.doc));
    let mean_doc = t.stats().mean_doc_size().as_bytes().max(1);
    for kb in [500u64, 5_000] {
        let aggregate = ByteSize::from_kb(kb);
        let slots = (aggregate.as_bytes() / mean_doc) as usize;
        let shared_lru = reuse.lru_hit_rate(slots);
        let group = run(&SimConfig::new(aggregate), &t);
        let diff = (group.metrics.hit_rate() - shared_lru).abs();
        assert!(
            diff < 0.15,
            "{aggregate}: group {} vs shared-LRU {shared_lru}",
            group.metrics.hit_rate()
        );
    }
}

#[test]
fn flash_traffic_is_temporally_clustered() {
    // Flash documents rotate per epoch: the same hot doc should dominate
    // within an epoch window much more than across the whole trace.
    let t = trace();
    let profile = TraceProfile::small();
    let epoch_ms = profile.flash_epoch.as_millis();
    let mut windows: Vec<PopularityProfile> = Vec::new();
    let mut current: Vec<DocId> = Vec::new();
    let mut epoch = 0;
    for r in &t {
        let e = r.time.as_millis() / epoch_ms;
        if e != epoch && !current.is_empty() {
            windows.push(PopularityProfile::compute(current.drain(..)));
            epoch = e;
        }
        current.push(r.doc);
    }
    let windows: Vec<_> = windows
        .into_iter()
        .filter(|w| w.total_references > 500)
        .collect();
    assert!(!windows.is_empty(), "trace should span several busy epochs");
    let global = PopularityProfile::compute(t.iter().map(|r| r.doc));
    let mean_window_top1: f64 =
        windows.iter().map(|w| w.top_share(1)).sum::<f64>() / windows.len() as f64;
    assert!(
        mean_window_top1 > global.top_share(1),
        "within-epoch concentration {mean_window_top1} should exceed global {}",
        global.top_share(1)
    );
}
