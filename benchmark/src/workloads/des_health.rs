//! `des-health`: the discrete-event simulator with the whole health plane
//! attached — a 10 %-sampled JSONL sink, per-node series rings, an online
//! rollup and two alert rules — on {1 MB, 100 MB} × {ad-hoc, EA}.
//!
//! The same protocol and store as `sim-sync`, driven differently (event
//! queue plus full telemetry): `obs` is most of the work here and none of
//! it there, so a telemetry change shows here and nowhere else.
//!
//! The timed passes replay the first quarter of the trace, so a pass
//! takes about a second like `sim-sync`'s and a run has several passes to
//! take a median over. At the default seed the published DES cells are
//! checked once, untimed, on the full trace.

use super::{share, Checks, Ctx, EndToEnd, Kind, Layers, DEFAULT_SEED};
use crate::layers;
use crate::spans::{Recorder, SpanRec};
use coopcache::cache::PlacementScheme;
use coopcache::metrics::pct;
use coopcache::obs::{AlertRule, Event, JsonlSink, RollupConfig, SamplerConfig, SinkHandle};
use coopcache::sim::{self, DesReport, HealthConfig, NetworkModel, SimConfig};
use coopcache::trace::Trace;
use coopcache::types::ByteSize;
use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The issue's 4 passes over the full trace, expressed in the quarter
/// trace the timed passes replay.
const ISSUE_PASSES: u64 = 22;

/// Series sampling interval and rollup window: one hour of trace time.
const WINDOW_MS: u64 = 3_600_000;

/// `BENCH_9.json` → `des_latency` hit % at 1 MB and 100 MB, ad-hoc then EA.
const BENCH_9_DES: [&str; 4] = ["75.01", "75.16", "89.79", "90.26"];

/// Index of the 100 MB EA cell, reported as `hit_ratio`.
const HIT_RATIO_CELL: usize = 3;

fn grid() -> Vec<SimConfig> {
    [ByteSize::from_mb(1), ByteSize::from_mb(100)]
        .into_iter()
        .flat_map(|aggregate| {
            [PlacementScheme::AdHoc, PlacementScheme::Ea].map(|scheme| {
                SimConfig::new(aggregate)
                    .with_group_size(4)
                    .with_scheme(scheme)
            })
        })
        .collect()
}

fn health_config() -> HealthConfig {
    HealthConfig {
        interval_ms: WINDOW_MS,
        capacity: 256,
        rules: vec![
            AlertRule::hit_rate_floor(600, 2),
            AlertRule::p99_ceiling(4_000_000, 2),
        ],
        rollup: Some(RollupConfig {
            window_ms: WINDOW_MS,
            ..RollupConfig::default()
        }),
    }
}

/// A JSONL serializer writing to nowhere (CPU is measured, not disk),
/// shared so the line count can be read back after the run.
type SharedJsonl = Arc<Mutex<JsonlSink<io::Sink>>>;

fn jsonl_sink(sampler: Option<SamplerConfig>) -> (SharedJsonl, SinkHandle) {
    let jsonl = Arc::new(Mutex::new(JsonlSink::new(io::sink())));
    let handle = SinkHandle::from_arc(Arc::clone(&jsonl)).sampled(sampler);
    (jsonl, handle)
}

fn lines(jsonl: &SharedJsonl) -> u64 {
    jsonl.lock().unwrap_or_else(PoisonError::into_inner).lines()
}

/// Everything one health-plane cell produced, in comparable form.
#[derive(PartialEq)]
struct CellOutput {
    report: DesReport,
    alerts: Vec<String>,
    rollup_json: String,
    lines: u64,
}

fn health_cell(ctx: &Ctx, cfg: &SimConfig, network: &NetworkModel, trace: &Trace) -> CellOutput {
    let sampler = SamplerConfig::new(ctx.derived_seed(7), 100);
    let (jsonl, handle) = jsonl_sink(Some(sampler));
    let (report, health) =
        sim::run_des_with_health(cfg, network, trace, Some(handle), health_config());
    CellOutput {
        report,
        alerts: health.alerts.iter().map(Event::to_json).collect(),
        rollup_json: health
            .rollup
            .as_ref()
            .map(|r| r.to_json())
            .unwrap_or_default(),
        lines: lines(&jsonl),
    }
}

fn quarter(trace: &Trace) -> Trace {
    Trace::from_requests(trace.requests()[..trace.len().div_ceil(4)].to_vec())
}

struct Setup {
    full: Trace,
    timed: Trace,
    reference: Vec<CellOutput>,
}

fn setup(ctx: &Ctx, cells: &[SimConfig], network: &NetworkModel) -> Result<Setup, String> {
    let full = ctx.bu94_trace()?;
    let timed = quarter(&full);
    let reference = cells
        .iter()
        .map(|cfg| health_cell(ctx, cfg, network, &timed))
        .collect();
    Ok(Setup {
        full,
        timed,
        reference,
    })
}

fn check_reference(
    checks: &mut Checks,
    ctx: &Ctx,
    cells: &[SimConfig],
    network: &NetworkModel,
    full: &Trace,
    reference: &[CellOutput],
) {
    for pair in reference.chunks(2) {
        let (adhoc, ea) = (
            pair[0].report.metrics.hit_rate(),
            pair[1].report.metrics.hit_rate(),
        );
        checks.require(ea >= adhoc - 0.005, || {
            format!("DES: EA hit rate {ea:.4} below ad-hoc {adhoc:.4} - 0.5 pp")
        });
    }
    if ctx.seed == DEFAULT_SEED {
        for (cfg, want) in cells.iter().zip(BENCH_9_DES) {
            let got = pct(sim::run_des(cfg, network, full).metrics.hit_rate());
            checks.require(got == want, || {
                format!(
                    "DES hit % at {} {} is {got}, BENCH_9 has {want}",
                    cfg.aggregate_capacity, cfg.scheme
                )
            });
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<(Checks, EndToEnd), String> {
    let cells = grid();
    let network = NetworkModel::paper_calibrated();
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::new(Kind::SingleThreaded);
    let Setup {
        full,
        timed,
        reference,
    } = e2e.timed_setup(|| setup(ctx, &cells, &network), drop)?;
    check_reference(&mut checks, ctx, &cells, &network, &full, &reference);
    drop(full);

    let passes = ctx.scaled(ISSUE_PASSES, 3);
    let requests_per_pass = (cells.len() * timed.len()) as u64;
    for _ in 0..passes {
        e2e.block(requests_per_pass, |samples| {
            for (cell, (cfg, expected)) in cells.iter().zip(&reference).enumerate() {
                let started = Instant::now();
                let output = black_box(health_cell(ctx, cfg, &network, &timed));
                let us = started.elapsed().as_secs_f64() * 1e6;
                samples.push_repeated(cell, us / timed.len() as f64);
                // Report, alert stream and rollup JSON must all repeat.
                checks.op(&output == expected);
            }
        });
    }
    e2e.hit_ratio = reference[HIT_RATIO_CELL].report.metrics.hit_rate();
    e2e.note("trace_requests", timed.len());
    e2e.note("grid_cells", cells.len());
    e2e.note("passes", passes);
    e2e.note(
        "alerts_per_pass",
        reference.iter().map(|c| c.alerts.len()).sum::<usize>(),
    );
    e2e.note(
        "latency_unit",
        "a grid cell's wall time per simulated request, one sample (its median over passes) per cell",
    );
    Ok((checks, e2e))
}

/// Differential passes on the two EA cells: the same run with more and
/// more of the health plane attached. Each difference is one layer's
/// cost; each variant is also a span, so the file shows the raw times.
pub fn trace(ctx: &Ctx) -> Result<(Checks, Layers, Vec<SpanRec>), String> {
    let cells: Vec<SimConfig> = grid()
        .into_iter()
        .filter(|c| c.scheme == PlacementScheme::Ea)
        .collect();
    let network = NetworkModel::paper_calibrated();
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let generated = Instant::now();
    let full = ctx.bu94_trace()?;
    let generate_ns = generated.elapsed().as_nanos() as f64 / full.len() as f64;
    let trace = quarter(&full);
    drop(full);
    let requests = (cells.len() * trace.len()) as f64;
    let mut rec = Recorder::new(Instant::now(), 0);
    let root = rec.next_id();
    let root_started = rec.now_ns();

    // Untraced: the full health plane, as the end-to-end run times it
    // (after one throwaway cell, so neither side pays for cold caches).
    black_box(sim::run_des(&cells[0], &network, &trace));
    let started = Instant::now();
    let reference: Vec<CellOutput> = cells
        .iter()
        .map(|cfg| health_cell(ctx, cfg, &network, &trace))
        .collect();
    let untraced_ns = started.elapsed().as_nanos() as f64;

    let mut sync_ns = 0.0;
    let mut bare_ns = 0.0;
    let mut jsonl_ns = 0.0;
    let mut sampled_ns = 0.0;
    let mut rollup_ns = 0.0;
    let mut health_ns = 0.0;
    let (mut all_events, mut kept_events, mut alerts, mut sink_errors) = (0u64, 0u64, 0u64, 0u64);
    for (cfg, expected) in cells.iter().zip(&reference) {
        let mut timed = |name: &'static str, total: &mut f64, f: &mut dyn FnMut()| {
            rec.span(name, root, f);
            *total += rec.spans.last().map_or(0, SpanRec::duration_ns) as f64;
        };
        timed("sim.run", &mut sync_ns, &mut || {
            black_box(sim::run(cfg, &trace));
        });
        let mut bare = None;
        timed("sim.run_des", &mut bare_ns, &mut || {
            bare = Some(sim::run_des(cfg, &network, &trace));
        });
        // Observers must not change what the simulator computes.
        checks.op(bare.as_ref() == Some(&expected.report));
        timed("obs.jsonl_unsampled", &mut jsonl_ns, &mut || {
            let (jsonl, handle) = jsonl_sink(None);
            black_box(sim::run_des_with_sink(cfg, &network, &trace, Some(handle)));
            all_events += lines(&jsonl);
            sink_errors += u64::from(finish(jsonl).is_err());
        });
        timed("obs.jsonl_sampled", &mut sampled_ns, &mut || {
            let sampler = SamplerConfig::new(ctx.derived_seed(7), 100);
            let (jsonl, handle) = jsonl_sink(Some(sampler));
            black_box(sim::run_des_with_sink(cfg, &network, &trace, Some(handle)));
            kept_events += lines(&jsonl);
            sink_errors += u64::from(finish(jsonl).is_err());
        });
        timed("obs.rollup", &mut rollup_ns, &mut || {
            let config = health_config().rollup.unwrap_or_default();
            black_box(sim::run_des_with_rollups(cfg, &network, &trace, config));
        });
        timed("obs.health", &mut health_ns, &mut || {
            let output = health_cell(ctx, cfg, &network, &trace);
            alerts += output.alerts.len() as u64;
            checks.op(&output == expected);
        });
    }
    let root_ended = rec.now_ns();
    rec.push("des-health.differential", root, 0, root_started, root_ended);

    // What the health plane adds on top of the sampled sink and the
    // rollup: series rings and alert evaluation.
    let series_alert_ns = (health_ns - sampled_ns - (rollup_ns - bare_ns)).max(0.0);
    layers.insert("trace.generate_ns_per_req", generate_ns);
    layers.insert("sim.sync_ns_per_req", sync_ns / requests);
    layers.insert("sim.des_bare_ns_per_req", bare_ns / requests);
    layers.insert(
        "sim.des_queue_ns_per_req",
        (bare_ns - sync_ns).max(0.0) / requests,
    );
    layers.insert("sim.des_health_ns_per_req", health_ns / requests);
    layers.insert("obs.events_per_req", all_events as f64 / requests);
    layers.insert(
        "obs.jsonl_ns_per_event",
        share((jsonl_ns - bare_ns).max(0.0), all_events as f64),
    );
    // Per event offered to the sampler, kept or dropped.
    layers.insert(
        "obs.sampled_ns_per_event",
        share((sampled_ns - bare_ns).max(0.0), all_events as f64),
    );
    checks.require(kept_events < all_events, || {
        format!("sampling kept {kept_events} of {all_events} events")
    });
    layers.insert(
        "obs.rollup_ns_per_event",
        share((rollup_ns - bare_ns).max(0.0), all_events as f64),
    );
    layers.insert("obs.series_alert_ns_per_req", series_alert_ns / requests);
    layers.insert("obs.alerts_fired", alerts as f64);
    layers.insert("obs.sink_errors", sink_errors as f64);
    layers::stats_record_probe(&mut layers);

    // Shares of the full-health run: the protocol and store are what the
    // sync runner costs, the event queue is what the bare DES adds, and
    // everything above the bare DES is telemetry.
    let obs_share = share((health_ns - bare_ns).max(0.0), health_ns);
    let queue_share = share((bare_ns - sync_ns).max(0.0), health_ns);
    layers.insert("obs.time_share", obs_share);
    layers.insert("sim.time_share", queue_share);
    layers.insert("proxy.time_share", (1.0 - obs_share - queue_share).max(0.0));
    layers.insert("bench.unattributed_share", 0.0);
    layers.insert("bench.clock_ns", layers::clock_ns());
    // Traced here means "ran the variants"; the comparable pair is the
    // health variant inside the traced pass against the untraced one.
    layers.insert(
        "bench.trace_overhead_pct",
        100.0 * (health_ns - untraced_ns) / untraced_ns,
    );
    Ok((checks, layers, rec.spans))
}

/// Flushes a shared JSONL sink once the run that fed it has ended.
fn finish(jsonl: SharedJsonl) -> io::Result<u64> {
    match Arc::try_unwrap(jsonl) {
        Ok(mutex) => mutex
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .finish(),
        // The simulator still holds a handle: nothing to flush yet.
        Err(_) => Ok(0),
    }
}
