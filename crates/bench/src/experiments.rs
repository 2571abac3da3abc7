//! The registry: one function per paper table, figure and ablation, in
//! the order of `DESIGN.md` §1.

use crate::{Experiment, Inputs};
use coopcache_analysis::belady_min;
use coopcache_core::{ExpirationWindow, PlacementScheme, PolicyKind};
use coopcache_metrics::{pct, secs, GroupMetrics, LatencyModel, SinkHandle, Table, Tally};
use coopcache_proxy::{Discovery, HashRoutedGroup, HierarchicalGroup};
use coopcache_sim::{
    capacity_sweep, run, run_des, run_with_sink, NetworkModel, SimConfig, PAPER_CACHE_SIZES,
    PAPER_GROUP_SIZES,
};
use coopcache_trace::Partitioner;
use coopcache_types::{ByteSize, CacheId, DurationMs};
use std::sync::{Arc, Mutex, PoisonError};

/// Declares [`REGISTRY`]; each experiment's id is the name of the function
/// that computes its table.
macro_rules! registry {
    ($($run:ident: $title:literal,)+) => {
        /// Every experiment, in the order a run with no ids executes them.
        pub const REGISTRY: &[Experiment] = &[$(Experiment {
            id: stringify!($run),
            title: $title,
            run: $run,
        }),+];
    };
}

registry! {
    fig1_hit_rates: "Document hit rates for the 4-cache group (paper Figure 1)",
    fig2_byte_hit_rates: "Byte hit rates for the 4-cache group (paper Figure 2)",
    table1_expiration_age: "Average cache expiration age for the 4-cache group (paper Table 1)",
    fig3_latency: "Estimated average latency for the 4-cache group (paper Figure 3, eq. 6)",
    table2_local_remote: "Local/remote hit split and latency for the 4-cache group (paper Table 2)",
    group_size_sweep: "EA gains across group sizes 2/4/8 (paper §4.2 prose)",
    ablation_window: "EA sensitivity to the expiration-age window (ABL-W)",
    ablation_latency_ratio: "EA latency benefit vs remote-hit/miss cost ratio at 10MB aggregate (ABL-L; 0.123 is the paper's measured ratio)",
    ablation_replacement: "EA vs ad-hoc under different replacement policies (ABL-R)",
    hierarchy_compare: "Ad-hoc vs EA on a 4-leaves + 1-parent hierarchy (ABL-H)",
    ablation_tiebreak: "Strict vs tie-store EA requester rule (ABL-T)",
    ablation_discovery: "Discovery mechanisms at 10MB aggregate: ICP vs digests vs isolated (ABL-D)",
    ablation_coherence: "Freshness TTLs at 10MB aggregate (ABL-C)",
    ablation_heterogeneous: "EA vs ad-hoc under unequal cache sizes (ABL-S)",
    ablation_icp_loss: "ICP/UDP packet loss in the discrete-event simulator (ABL-N)",
    baseline_hash_routing: "Ad-hoc vs EA vs consistent-hash homes (HASH baseline)",
    bound_belady: "Group hit rates against the shared Belady-MIN offline bound (BOUND extension)",
    des_latency: "Measured latencies from the discrete-event simulator (extension)",
    hitrate_timeseries: "Cumulative hit rate over the trace at 10MB aggregate (SERIES extension)",
}

/// FIG1 — Figure 1: cumulative document hit rates, ad-hoc vs EA, for a
/// 4-cache distributed group at 100 KB – 1 GB aggregate capacity.
fn fig1_hit_rates(inputs: &Inputs) -> Table {
    let mut table = Table::new(vec!["aggregate", "ad-hoc hit %", "EA hit %", "gain (pp)"]);
    for p in inputs.sweep() {
        table.row(vec![
            p.aggregate.to_string(),
            pct(p.adhoc.metrics.hit_rate()),
            pct(p.ea.metrics.hit_rate()),
            format!("{:+.2}", p.hit_rate_gain() * 100.0),
        ]);
    }
    table
}

/// FIG2 — Figure 2: cumulative byte hit rates, ad-hoc vs EA, for a
/// 4-cache distributed group at 100 KB – 1 GB aggregate capacity.
fn fig2_byte_hit_rates(inputs: &Inputs) -> Table {
    let mut table = Table::new(vec![
        "aggregate",
        "ad-hoc byte hit %",
        "EA byte hit %",
        "gain (pp)",
    ]);
    for p in inputs.sweep() {
        table.row(vec![
            p.aggregate.to_string(),
            pct(p.adhoc.metrics.byte_hit_rate()),
            pct(p.ea.metrics.byte_hit_rate()),
            format!("{:+.2}", p.byte_hit_rate_gain() * 100.0),
        ]);
    }
    table
}

/// TAB1 — Table 1: average cache expiration age (seconds), ad-hoc vs EA,
/// for a 4-cache group at 100 KB – 100 MB.
///
/// The paper reports this for 100 KB, 1 MB, 10 MB and 100 MB (at 1 GB its
/// caches, like ours, stop evicting and the quantity is undefined).
fn table1_expiration_age(inputs: &Inputs) -> Table {
    let mut table = Table::new(vec![
        "aggregate",
        "ad-hoc exp-age (s)",
        "EA exp-age (s)",
        "ratio",
    ]);
    // Table 1 stops at 100 MB.
    for p in &inputs.sweep()[..4] {
        let (a, e) = (
            p.adhoc.avg_expiration_age_ms.unwrap_or(0.0),
            p.ea.avg_expiration_age_ms.unwrap_or(0.0),
        );
        table.row(vec![
            p.aggregate.to_string(),
            secs(a),
            secs(e),
            if a > 0.0 {
                format!("{:.2}x", e / a)
            } else {
                "-".into()
            },
        ]);
    }
    table
}

/// FIG3 — Figure 3: estimated average document latency (paper eq. 6 with
/// the measured constants LHL = 146 ms, RHL = 342 ms, ML = 2784 ms) for a
/// 4-cache group at 100 KB – 1 GB.
fn fig3_latency(inputs: &Inputs) -> Table {
    let mut table = Table::new(vec![
        "aggregate",
        "ad-hoc latency (ms)",
        "EA latency (ms)",
        "EA saves (ms)",
    ]);
    for p in inputs.sweep() {
        table.row(vec![
            p.aggregate.to_string(),
            format!("{:.0}", p.adhoc.estimated_latency_ms),
            format!("{:.0}", p.ea.estimated_latency_ms),
            format!("{:+.0}", p.latency_gain_ms()),
        ]);
    }
    table
}

/// TAB2 — Table 2: local hit %, remote hit % and estimated latency for
/// both schemes, 4-cache group, at every aggregate size.
///
/// The headline row is 1 GB: the paper measured the EA remote-hit rate at
/// 32.02% against ad-hoc's 11.06% with a miss-rate difference of only
/// 0.6% — the signature of EA's tie rule keeping popular documents as
/// single group-wide copies.
fn table2_local_remote(inputs: &Inputs) -> Table {
    let mut table = Table::new(vec![
        "aggregate",
        "adhoc local %",
        "adhoc remote %",
        "adhoc lat ms",
        "EA local %",
        "EA remote %",
        "EA lat ms",
    ]);
    for p in inputs.sweep() {
        table.row(vec![
            p.aggregate.to_string(),
            pct(p.adhoc.metrics.local_hit_rate()),
            pct(p.adhoc.metrics.remote_hit_rate()),
            format!("{:.0}", p.adhoc.estimated_latency_ms),
            pct(p.ea.metrics.local_hit_rate()),
            pct(p.ea.metrics.remote_hit_rate()),
            format!("{:.0}", p.ea.estimated_latency_ms),
        ]);
    }
    table
}

/// GRP — §4.2 prose: the paper simulates groups of 2, 4 and 8 caches and
/// reports that the EA gains grow with group size (≈6.5 pp hit-rate gain
/// at 100 KB and ≈2.5 pp at 100 MB for 8 caches; byte-hit gains ≈4 pp and
/// ≈1.5 pp).
fn group_size_sweep(inputs: &Inputs) -> Table {
    let mut table = Table::new(vec![
        "caches",
        "aggregate",
        "ad-hoc hit %",
        "EA hit %",
        "hit gain (pp)",
        "byte gain (pp)",
    ]);
    for &n in &PAPER_GROUP_SIZES {
        let cfg = SimConfig::new(ByteSize::ZERO).with_group_size(n);
        // The n = 4 block is the shared paper sweep.
        let own = (n != 4).then(|| capacity_sweep(&cfg, &PAPER_CACHE_SIZES, &inputs.trace));
        for p in own.as_deref().unwrap_or(inputs.sweep()) {
            table.row(vec![
                n.to_string(),
                p.aggregate.to_string(),
                pct(p.adhoc.metrics.hit_rate()),
                pct(p.ea.metrics.hit_rate()),
                format!("{:+.2}", p.hit_rate_gain() * 100.0),
                format!("{:+.2}", p.byte_hit_rate_gain() * 100.0),
            ]);
        }
    }
    table
}

/// ABL-W — ablation: sensitivity of the EA scheme to the expiration-age
/// window (the paper leaves the "finite time period" of eq. 5 open).
///
/// Sweeps eviction-count windows and one time-based window at two
/// aggregate sizes.
fn ablation_window(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let sizes = [ByteSize::from_mb(1), ByteSize::from_mb(100)];
    let windows = [
        ExpirationWindow::LastEvictions(16),
        ExpirationWindow::LastEvictions(64),
        ExpirationWindow::LastEvictions(256),
        ExpirationWindow::LastEvictions(1024),
        ExpirationWindow::LastEvictions(4096),
        ExpirationWindow::LastDuration(DurationMs::from_days(1)),
        ExpirationWindow::LastDuration(DurationMs::from_days(7)),
    ];

    let mut table = Table::new(vec![
        "aggregate",
        "window",
        "EA hit %",
        "EA remote %",
        "EA latency ms",
    ]);
    for &aggregate in &sizes {
        for &window in &windows {
            let cfg = SimConfig::new(aggregate)
                .with_group_size(4)
                .with_scheme(PlacementScheme::Ea)
                .with_window(window);
            let report = run(&cfg, trace);
            table.row(vec![
                aggregate.to_string(),
                window.to_string(),
                pct(report.metrics.hit_rate()),
                pct(report.metrics.remote_hit_rate()),
                format!("{:.0}", report.estimated_latency_ms),
            ]);
        }
    }
    table
}

/// ABL-L — ablation: how the EA scheme's latency benefit depends on the
/// ratio of inter-proxy communication time to server fetch time — the
/// open question the paper poses in §1.
///
/// Hit rates are scheme properties; only the eq. 6 weights change, so the
/// paper sweep's 10 MB pair is re-scored under every RHL/ML ratio.
fn ablation_latency_ratio(inputs: &Inputs) -> Table {
    let p = inputs.point(ByteSize::from_mb(10));
    let mut table = Table::new(vec![
        "RHL/ML ratio",
        "RHL (ms)",
        "ad-hoc latency ms",
        "EA latency ms",
        "EA saves ms",
    ]);
    for ratio in [0.05, 0.123, 0.25, 0.5, 0.75, 1.0] {
        let model = LatencyModel::with_remote_to_miss_ratio(ratio);
        let (a, e) = (
            model.average_latency_ms(&p.adhoc.metrics),
            model.average_latency_ms(&p.ea.metrics),
        );
        table.row(vec![
            format!("{ratio:.3}"),
            model.remote_hit.as_millis().to_string(),
            format!("{a:.0}"),
            format!("{e:.0}"),
            format!("{:+.0}", a - e),
        ]);
    }
    table
}

/// ABL-R — ablation: the paper claims the EA scheme is independent of the
/// replacement policy (§3.2 defines expiration ages for both LRU and LFU
/// bookkeeping). This runs the full pipeline under every policy with the
/// matching expiration-age flavor.
fn ablation_replacement(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let mut table = Table::new(vec![
        "policy",
        "aggregate",
        "ad-hoc hit %",
        "EA hit %",
        "gain (pp)",
    ]);
    for policy in PolicyKind::all() {
        for aggregate in [ByteSize::from_mb(1), ByteSize::from_mb(10)] {
            let cfg = SimConfig::new(aggregate)
                .with_group_size(4)
                .with_policy(policy);
            let adhoc = run(&cfg.clone().with_scheme(PlacementScheme::AdHoc), trace);
            let ea = run(&cfg.clone().with_scheme(PlacementScheme::Ea), trace);
            table.row(vec![
                policy.to_string(),
                aggregate.to_string(),
                pct(adhoc.metrics.hit_rate()),
                pct(ea.metrics.hit_rate()),
                format!(
                    "{:+.2}",
                    (ea.metrics.hit_rate() - adhoc.metrics.hit_rate()) * 100.0
                ),
            ]);
        }
    }
    table
}

/// ABL-H — the hierarchical architecture (paper §3.4 describes the EA
/// parent rule but §4 evaluates only the distributed one): ad-hoc vs EA
/// on a 4-leaves + 1-parent hierarchy.
///
/// The leaf tier splits the aggregate like the distributed experiments;
/// the parent gets an additional share of the same per-leaf size.
fn hierarchy_compare(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let leaves = 4u16;
    let sizes = [
        ByteSize::from_kb(100),
        ByteSize::from_mb(1),
        ByteSize::from_mb(10),
        ByteSize::from_mb(100),
    ];
    let latency = LatencyModel::paper_2002();
    let partitioner = Partitioner::default();

    let mut table = Table::new(vec![
        "aggregate",
        "scheme",
        "hit %",
        "local %",
        "remote %",
        "latency ms",
        "parent docs",
    ]);
    for &aggregate in &sizes {
        for scheme in [PlacementScheme::AdHoc, PlacementScheme::Ea] {
            let per_leaf = aggregate.split_evenly(u64::from(leaves));
            let mut group = HierarchicalGroup::two_level(
                leaves,
                per_leaf,
                per_leaf, // the parent gets one extra leaf-sized share
                PolicyKind::Lru,
                scheme,
            );
            let mut metrics = GroupMetrics::default();
            for (seq, r) in trace.iter().enumerate() {
                // Clients attach to the leaf tier only.
                let leaf = partitioner.assign(r, seq, leaves as usize);
                let outcome = group.handle_request(leaf, r.doc, r.size, r.time);
                metrics.record(outcome, r.size);
            }
            let parent_docs = group.node(CacheId::new(leaves)).cache().len();
            table.row(vec![
                aggregate.to_string(),
                scheme.to_string(),
                pct(metrics.hit_rate()),
                pct(metrics.local_hit_rate()),
                pct(metrics.remote_hit_rate()),
                format!("{:.0}", latency.average_latency_ms(&metrics)),
                parent_docs.to_string(),
            ]);
        }
    }
    table
}

/// ABL-T — ablation: the paper states the EA requester rule with strict
/// ">" in §3.4 but "≥" in §3.5. This compares the two readings.
/// The strict form (our default) is the one whose large-cache behaviour
/// matches the paper's Table 2 (EA remote-hit rate ≫ ad-hoc at 1 GB).
/// The "ties" column counts placement decisions where both expiration
/// ages were equal — exactly the decisions the two readings resolve
/// differently (event-counted via `Tally::placement_ties`).
fn ablation_tiebreak(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
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
            let report = run_with_sink(&cfg, trace, Some(SinkHandle::from_arc(Arc::clone(&sink))));
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
    table
}

/// ABL-D — ablation: discovery mechanisms. ICP (the paper's setup) pays
/// 2·(N−1) messages per local miss; Summary-Cache digests (related work
/// \[6\]) pay periodic broadcasts instead and go stale in between; isolated
/// caches pay nothing and get nothing. The EA scheme itself adds zero
/// messages to any of them (§3.5).
fn ablation_discovery(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let aggregate = ByteSize::from_mb(10);
    let discoveries = [
        ("icp", Discovery::Icp),
        (
            "digest/1min",
            Discovery::Digest {
                refresh_every: DurationMs::from_secs(60),
                fp_rate: 0.01,
            },
        ),
        (
            "digest/1h",
            Discovery::Digest {
                refresh_every: DurationMs::from_secs(3_600),
                fp_rate: 0.01,
            },
        ),
        (
            "digest/1day",
            Discovery::Digest {
                refresh_every: DurationMs::from_days(1),
                fp_rate: 0.01,
            },
        ),
        ("isolated", Discovery::Isolated),
    ];

    let mut table = Table::new(vec![
        "discovery",
        "scheme",
        "hit %",
        "remote %",
        "msgs/request",
        "misdirects",
    ]);
    for (name, discovery) in discoveries {
        for scheme in [PlacementScheme::AdHoc, PlacementScheme::Ea] {
            let cfg = SimConfig::new(aggregate)
                .with_group_size(4)
                .with_scheme(scheme)
                .with_discovery(discovery);
            let r = run(&cfg, trace);
            table.row(vec![
                name.into(),
                scheme.to_string(),
                pct(r.metrics.hit_rate()),
                pct(r.metrics.remote_hit_rate()),
                format!("{:.2}", r.protocol.messages_per_request(r.metrics.requests)),
                r.protocol.digest_misdirections.to_string(),
            ]);
        }
    }
    table
}

/// ABL-C — ablation: freshness TTLs. The paper treats cache coherence as
/// orthogonal related work; this quantifies how expiring documents
/// interacts with the two placement schemes (EA's single-copy placement
/// re-fetches an expired document once; ad-hoc re-fetches it per replica).
fn ablation_coherence(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let aggregate = ByteSize::from_mb(10);
    let ttls = [
        ("none", None),
        ("7 days", Some(DurationMs::from_days(7))),
        ("1 day", Some(DurationMs::from_days(1))),
        ("1 hour", Some(DurationMs::from_secs(3_600))),
    ];

    let mut table = Table::new(vec!["ttl", "scheme", "hit %", "byte hit %", "latency ms"]);
    for (name, ttl) in ttls {
        for scheme in [PlacementScheme::AdHoc, PlacementScheme::Ea] {
            let mut cfg = SimConfig::new(aggregate)
                .with_group_size(4)
                .with_scheme(scheme);
            cfg.ttl = ttl;
            let r = run(&cfg, trace);
            table.row(vec![
                name.into(),
                scheme.to_string(),
                pct(r.metrics.hit_rate()),
                pct(r.metrics.byte_hit_rate()),
                format!("{:.0}", r.estimated_latency_ms),
            ]);
        }
    }
    table
}

/// ABL-S — ablation: unequal cache sizes. The paper assumes every cache
/// gets `X/N` bytes; real deployments are lopsided. Skewed splits create
/// persistent expiration-age differences, which is precisely the signal
/// the EA scheme consumes — so its gains should survive (or grow under)
/// heterogeneity.
fn ablation_heterogeneous(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let splits: [(&str, Vec<u32>); 4] = [
        ("equal 1:1:1:1", vec![1, 1, 1, 1]),
        ("mild 1:1:2:2", vec![1, 1, 2, 2]),
        ("skewed 1:1:1:5", vec![1, 1, 1, 5]),
        ("extreme 1:1:1:13", vec![1, 1, 1, 13]),
    ];

    let mut table = Table::new(vec![
        "split",
        "aggregate",
        "ad-hoc hit %",
        "EA hit %",
        "gain (pp)",
    ]);
    for (name, weights) in splits {
        for aggregate in [ByteSize::from_mb(1), ByteSize::from_mb(10)] {
            let base = SimConfig::new(aggregate).with_capacity_weights(weights.clone());
            let adhoc = run(&base.clone().with_scheme(PlacementScheme::AdHoc), trace);
            let ea = run(&base.clone().with_scheme(PlacementScheme::Ea), trace);
            table.row(vec![
                name.into(),
                aggregate.to_string(),
                pct(adhoc.metrics.hit_rate()),
                pct(ea.metrics.hit_rate()),
                format!(
                    "{:+.2}",
                    (ea.metrics.hit_rate() - adhoc.metrics.hit_rate()) * 100.0
                ),
            ]);
        }
    }
    table
}

/// ABL-N — ablation: ICP packet loss. ICP runs over UDP (§2), so lost
/// query/reply pairs silently hide peers for that round. The DES sweeps
/// the loss rate and reports how gracefully each scheme degrades —
/// ad-hoc's replicas give it redundancy EA intentionally removes.
fn ablation_icp_loss(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let cfg_base = SimConfig::new(ByteSize::from_mb(10)).with_group_size(4);

    let mut table = Table::new(vec![
        "ICP loss %",
        "scheme",
        "hit %",
        "remote %",
        "mean lat ms",
    ]);
    for permille in [0u32, 10, 50, 100, 300] {
        let network = NetworkModel::paper_calibrated().with_icp_loss_permille(permille);
        for scheme in [PlacementScheme::AdHoc, PlacementScheme::Ea] {
            let report = run_des(&cfg_base.clone().with_scheme(scheme), &network, trace);
            table.row(vec![
                format!("{:.1}", permille as f64 / 10.0),
                scheme.to_string(),
                pct(report.metrics.hit_rate()),
                pct(report.metrics.remote_hit_rate()),
                format!("{:.0}", report.mean_latency_ms),
            ]);
        }
    }
    table
}

/// HASH — baseline: consistent-hash (CARP-style) document homes, the
/// alternative cooperation style from the paper's related work (\[8\],
/// \[16\]). Zero replication and zero discovery traffic by construction;
/// compare hit rates and latency against ad-hoc and EA.
fn baseline_hash_routing(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let latency = LatencyModel::paper_2002();
    let partitioner = Partitioner::default();

    let mut table = Table::new(vec![
        "aggregate",
        "scheme",
        "hit %",
        "local %",
        "remote %",
        "latency ms",
    ]);
    for p in inputs.sweep() {
        for (scheme, r) in [
            (PlacementScheme::AdHoc, &p.adhoc),
            (PlacementScheme::Ea, &p.ea),
        ] {
            table.row(vec![
                p.aggregate.to_string(),
                scheme.to_string(),
                pct(r.metrics.hit_rate()),
                pct(r.metrics.local_hit_rate()),
                pct(r.metrics.remote_hit_rate()),
                format!("{:.0}", r.estimated_latency_ms),
            ]);
        }
        // Hash routing, driven directly.
        let mut group = HashRoutedGroup::new(4, p.aggregate, PolicyKind::Lru);
        let mut metrics = GroupMetrics::default();
        for (seq, r) in trace.iter().enumerate() {
            let requester = partitioner.assign(r, seq, 4);
            let outcome = group.handle_request(requester, r.doc, r.size, r.time);
            metrics.record(outcome, r.size);
        }
        table.row(vec![
            p.aggregate.to_string(),
            "hash-routed".into(),
            pct(metrics.hit_rate()),
            pct(metrics.local_hit_rate()),
            pct(metrics.remote_hit_rate()),
            format!("{:.0}", latency.average_latency_ms(&metrics)),
        ]);
    }
    table
}

/// BOUND — extension: the Belady-MIN offline upper bound. MIN over one
/// shared cache of the group's aggregate capacity bounds every
/// placement/replacement combination of the same total size; the table
/// shows how much of the ad-hoc→MIN headroom the EA scheme recovers.
fn bound_belady(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let sized: Vec<_> = trace.iter().map(|r| (r.doc, r.size)).collect();

    let mut table = Table::new(vec![
        "aggregate",
        "ad-hoc hit %",
        "EA hit %",
        "MIN bound %",
        "headroom closed %",
    ]);
    for p in inputs.sweep() {
        let (adhoc, ea) = (&p.adhoc, &p.ea);
        let bound = belady_min(&sized, p.aggregate);
        let headroom = bound.hit_rate() - adhoc.metrics.hit_rate();
        let closed = if headroom > 1e-9 {
            (ea.metrics.hit_rate() - adhoc.metrics.hit_rate()) / headroom * 100.0
        } else {
            0.0
        };
        table.row(vec![
            p.aggregate.to_string(),
            pct(adhoc.metrics.hit_rate()),
            pct(ea.metrics.hit_rate()),
            pct(bound.hit_rate()),
            format!("{closed:.1}"),
        ]);
    }
    table
}

/// DES — extension: measured (not eq.-6-estimated) latencies from the
/// discrete-event simulator, where requests genuinely overlap in time and
/// a document can vanish between the ICP reply and the HTTP fetch.
fn des_latency(inputs: &Inputs) -> Table {
    let trace = &inputs.trace;
    let network = NetworkModel::paper_calibrated();
    let sizes = [
        ByteSize::from_kb(100),
        ByteSize::from_mb(1),
        ByteSize::from_mb(10),
        ByteSize::from_mb(100),
    ];
    let mut table = Table::new(vec![
        "aggregate",
        "scheme",
        "hit %",
        "mean lat ms",
        "p50 ms",
        "p95 ms",
        "icp fallbacks",
    ]);
    for &aggregate in &sizes {
        for scheme in [PlacementScheme::AdHoc, PlacementScheme::Ea] {
            let cfg = SimConfig::new(aggregate)
                .with_group_size(4)
                .with_scheme(scheme);
            let report = run_des(&cfg, &network, trace);
            table.row(vec![
                aggregate.to_string(),
                scheme.to_string(),
                pct(report.metrics.hit_rate()),
                format!("{:.0}", report.mean_latency_ms),
                report.p50_latency_ms.to_string(),
                report.p95_latency_ms.to_string(),
                report.icp_fallbacks.to_string(),
            ]);
        }
    }
    table
}

/// SERIES — extension: cumulative hit rate over time for both schemes,
/// showing the warm-up transient and when the EA gap opens. One row per
/// window of the simulator's built-in time series (20 windows = one row
/// per 5% of the trace), straight from the 10 MB sweep point's
/// `SimReport::windows`.
fn hitrate_timeseries(inputs: &Inputs) -> Table {
    let p = inputs.point(ByteSize::from_mb(10));
    let (adhoc, ea) = (&p.adhoc.windows, &p.ea.windows);
    assert_eq!(adhoc.len(), ea.len(), "same trace, same window grid");

    let mut table = Table::new(vec![
        "trace %",
        "ad-hoc hit %",
        "EA hit %",
        "gap (pp)",
        "EA win age (s)",
    ]);
    let windows = adhoc.len();
    for (i, (a, e)) in adhoc.iter().zip(ea).enumerate() {
        table.row(vec![
            format!("{:.0}", (i + 1) as f64 * 100.0 / windows as f64),
            pct(a.cumulative_hit_rate),
            pct(e.cumulative_hit_rate),
            format!(
                "{:+.2}",
                (e.cumulative_hit_rate - a.cumulative_hit_rate) * 100.0
            ),
            e.mean_age_ms
                .map_or("-".into(), |ms| format!("{:.2}", ms as f64 / 1_000.0)),
        ]);
    }
    table
}
