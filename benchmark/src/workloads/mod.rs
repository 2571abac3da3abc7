//! The workloads and what every one of them hands back.
//!
//! Sizing: the issue sized each workload for about twenty timed seconds;
//! the driver's contract gives `--seconds`, so every operation count is
//! the issue's count times `seconds / 20` — one common factor, recorded
//! in the result as `scale`. Counts are fixed per `--seconds` value
//! (never "run until the clock says stop"), so two commits measured with
//! the same arguments do the same work and deterministic outputs (hit
//! counts, reports) can be compared exactly.

pub mod des_health;
pub mod live_coop;
pub mod live_pipelined;
pub mod sim_sync;
pub mod store;

use crate::calibrate::Calibrator;
use crate::spans::SpanRec;
use coopcache::trace::{generate, Trace, TraceProfile};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Seed used when `--seed` is not given. At this seed the simulators
/// replay exactly the trace behind `BENCH_9.json`, so their cells are
/// also compared against that file's (which costs `des-health` a full
/// replay of the trace: a second more, and 50 MB of peak memory). It is
/// not a small number, so a driver counting seeds from 0 never pays that.
pub const DEFAULT_SEED: u64 = 20_020_702;

/// Times each workload sets up in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A traced run does a quarter of the untraced work.
pub const TRACED_SCALE: f64 = 0.25;

/// Every `SPAN_EVERY`-th operation of a sim or store workload carries
/// spans in a traced run; totals are scaled back by the exact counts.
pub const SPAN_EVERY: usize = 64;

/// A workload, as named on the command line and in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimSync,
    DesHealth,
    StoreRead,
    StoreChurn,
    LiveCoop,
    LivePipelined,
}

impl Workload {
    pub const ALL: [Self; 6] = [
        Self::SimSync,
        Self::DesHealth,
        Self::StoreRead,
        Self::StoreChurn,
        Self::LiveCoop,
        Self::LivePipelined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::SimSync => "sim-sync",
            Self::DesHealth => "des-health",
            Self::StoreRead => "store-read",
            Self::StoreChurn => "store-churn",
            Self::LiveCoop => "live-coop",
            Self::LivePipelined => "live-pipelined",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs with tracing off: the end-to-end measurement.
    pub fn run(self, ctx: &Ctx) -> Result<(Checks, EndToEnd), String> {
        match self {
            Self::SimSync => sim_sync::run(ctx),
            Self::DesHealth => des_health::run(ctx),
            Self::StoreRead => store::run(ctx, store::Phase::Read),
            Self::StoreChurn => store::run(ctx, store::Phase::Churn),
            Self::LiveCoop => live_coop::run(ctx),
            Self::LivePipelined => live_pipelined::run(ctx),
        }
    }

    /// Runs at a quarter of the scale with spans on: the per-layer
    /// measurement.
    pub fn trace(self, ctx: &Ctx) -> Result<(Checks, Layers, Vec<SpanRec>), String> {
        match self {
            Self::SimSync => sim_sync::trace(ctx),
            Self::DesHealth => des_health::trace(ctx),
            Self::StoreRead => store::trace(ctx, store::Phase::Read),
            Self::StoreChurn => store::trace(ctx, store::Phase::Churn),
            Self::LiveCoop => live_coop::trace(ctx),
            Self::LivePipelined => live_pipelined::trace(ctx),
        }
    }
}

/// What the command line fixed for this run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Nominal length of the timed phase.
    pub seconds: f64,
    /// Where result and span files go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The common factor applied to the issue's operation counts.
    pub fn scale(&self) -> f64 {
        self.seconds / 20.0
    }

    /// `count` scaled by the common factor, at least `floor`.
    pub fn scaled(&self, count: u64, floor: u64) -> u64 {
        ((count as f64 * self.scale()).round() as u64).max(floor)
    }

    /// The same context at the traced run's quarter scale.
    pub fn quarter(&self) -> Self {
        Self {
            seconds: self.seconds * TRACED_SCALE,
            ..self.clone()
        }
    }

    /// A stream of seeds derived from `--seed` for purpose `salt`.
    pub fn derived_seed(&self, salt: u64) -> u64 {
        coopcache::obs::splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The seeded BU-94-scale trace. The default seed maps onto the
    /// profile's own seed, so default runs replay the published trace.
    pub fn bu94_profile(&self) -> TraceProfile {
        let profile = TraceProfile::bu94();
        let seed = profile.seed ^ (self.seed ^ DEFAULT_SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        profile.with_seed(seed)
    }

    pub fn bu94_trace(&self) -> Result<Trace, String> {
        generate(&self.bu94_profile()).map_err(|e| format!("trace generation failed: {e}"))
    }
}

/// Correctness accounting: operations attempted and failed, plus named
/// violations of a run-level check (which fail the run on their own).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checks {
    /// Counts one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a run-level check; `what` names it when it fails.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// One timed block: a fixed number of operations between two readings of
/// the clock (and, for single-threaded workloads, of the machine's speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub ops: u64,
    /// Wall seconds as the clock read them.
    pub secs: f64,
    /// The machine's slowdown meanwhile; 1 when uncalibrated.
    pub slowdown: f64,
    /// Process CPU seconds (user + system) the block used.
    pub cpu_s: Option<f64>,
    /// Nearest-rank percentiles of the block's one-off latency samples,
    /// calibrated, when it had any.
    pub p50_us: Option<f64>,
    pub p90_us: Option<f64>,
    pub latency_samples: usize,
}

impl Block {
    /// Operations per calibrated second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 * self.slowdown / self.secs
    }

    /// Operations per second as the clock read them.
    pub fn raw_rate(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Calibrated CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> Option<f64> {
        Some(self.cpu_s? * 1e6 / self.ops as f64 / self.slowdown)
    }
}

/// Raw material of the end-to-end metrics; `report` turns it into the
/// named values. Every timing metric is the **median block's**, so a block
/// that another process interfered with does not move the result.
pub struct EndToEnd {
    /// Present for [`Kind::SingleThreaded`] workloads.
    cal: Option<Calibrator>,
    /// Largest resident size seen at the end of a block, in MB.
    peak_block_rss_mb: f64,
    /// One entry per set-up repetition, calibrated.
    pub setup_s: Vec<f64>,
    pub blocks: Vec<Block>,
    /// Calibrated latency samples of units of work that every block
    /// repeats (a grid cell, the lookup cycle), by unit. A deterministic
    /// single-threaded unit has one latency — its repetitions differ only
    /// by the machine's noise — so each unit contributes one sample, its
    /// median, and the percentiles are taken across units.
    pub repeated_us: BTreeMap<usize, Vec<f64>>,
    pub hit_ratio: f64,
    /// Facts worth printing with the result (serve-source mix, sample
    /// counts, …).
    pub notes: Notes,
}

/// How a workload runs, which decides how two of its metrics can be
/// taken honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The timed work runs on the benchmark's own thread. Timings are
    /// calibrated (the reference kernel runs back to back with the work,
    /// on the same thread) and memory is the process's high-water mark
    /// less the calibrator's table.
    SingleThreaded,
    /// The timed work runs on the program's threads. The reference
    /// kernel would run on another thread, under a load it does not see,
    /// so timings are raw (measured: no steadier with it). Memory is the
    /// largest resident size at the end of a round, while the cluster is
    /// up — the high-water mark is set before it starts, by the
    /// benchmark's own trace.
    Live,
}

/// The raw latency samples of one timed block.
#[derive(Default)]
pub struct Samples {
    once: Vec<f64>,
    repeated: Vec<(usize, f64)>,
}

impl Samples {
    /// Samples of things that happen once (live requests).
    pub fn extend(&mut self, us: impl IntoIterator<Item = f64>) {
        self.once.extend(us);
    }

    /// A sample of unit of work `unit`, which every block repeats.
    pub fn push_repeated(&mut self, unit: usize, us: f64) {
        self.repeated.push((unit, us));
    }
}

impl EndToEnd {
    pub fn new(kind: Kind) -> Self {
        Self {
            cal: (kind == Kind::SingleThreaded).then(Calibrator::new),
            peak_block_rss_mb: 0.0,
            setup_s: Vec::new(),
            blocks: Vec::new(),
            repeated_us: BTreeMap::new(),
            hit_ratio: 0.0,
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Runs `setup` [`SETUP_REPS`] times, timing each, and keeps the last
    /// product for the timed phase (earlier ones are torn down before the
    /// next repetition starts, so they never coexist).
    pub fn timed_setup<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T),
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            if let Some(previous) = last.take() {
                teardown(previous);
            }
            let (product, secs, slowdown) = self.bracket(&mut setup);
            last = Some(product?);
            self.setup_s.push(secs / slowdown);
        }
        last.ok_or_else(|| "no set-up repetition ran".to_string())
    }

    /// One timed block of `ops` operations. `f` does the work and hands
    /// the block's raw latency samples (µs) to the [`Samples`] it is given.
    pub fn block<R>(&mut self, ops: u64, f: impl FnOnce(&mut Samples) -> R) -> R {
        let mut samples = Samples::default();
        let mut cpu_s = None;
        let (out, secs, slowdown) = self.bracket(|| {
            let before = crate::procfs::cpu_seconds();
            let out = f(&mut samples);
            cpu_s = before
                .zip(crate::procfs::cpu_seconds())
                .map(|(before, after)| after - before);
            out
        });
        if let Some(bytes) = crate::procfs::rss_bytes() {
            self.peak_block_rss_mb = self.peak_block_rss_mb.max(bytes as f64 / (1 << 20) as f64);
        }
        crate::stats::sort(&mut samples.once);
        let percentile = |pct| crate::stats::percentile(&samples.once, pct).map(|us| us / slowdown);
        self.blocks.push(Block {
            ops,
            secs,
            slowdown,
            cpu_s,
            p50_us: percentile(50.0),
            p90_us: percentile(90.0),
            latency_samples: samples.once.len(),
        });
        for (unit, us) in samples.repeated {
            self.repeated_us
                .entry(unit)
                .or_default()
                .push(us / slowdown);
        }
        out
    }

    /// Operations in all timed blocks.
    pub fn requests(&self) -> u64 {
        self.blocks.iter().map(|b| b.ops).sum()
    }

    /// The median of each repeated unit, ascending.
    pub fn unit_latencies_us(&self) -> Vec<f64> {
        let mut medians: Vec<f64> = self
            .repeated_us
            .values()
            .filter_map(|us| crate::stats::Summary::of(us))
            .map(|s| s.median)
            .collect();
        crate::stats::sort(&mut medians);
        medians
    }

    /// Runs `f`, returning its result, its wall seconds and the
    /// machine's slowdown meanwhile (1 when uncalibrated).
    fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        match &mut self.cal {
            Some(cal) => cal.bracket(f),
            None => {
                let started = std::time::Instant::now();
                let out = f();
                (out, started.elapsed().as_secs_f64(), 1.0)
            }
        }
    }

    /// The program's peak resident memory in MB, taken the way the
    /// workload's [`Kind`] allows.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match self.cal {
            Some(_) => {
                Some(crate::procfs::peak_rss_mb()? - Calibrator::BYTES as f64 / (1 << 20) as f64)
            }
            None => Some(self.peak_block_rss_mb),
        }
    }
}

/// Free-form facts printed with a result, in print order.
pub type Notes = Vec<(String, String)>;

/// Per-layer metric values by catalogue name; names a workload leaves
/// out are reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Share helper: `part / whole`, 0 for an empty whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_units_give_one_sample_each_and_single_ones_stay() {
        let mut e2e = EndToEnd::new(Kind::Live);
        for pass in 0..3 {
            e2e.block(10, |samples| {
                // Unit 0 takes 1, 2, 3 µs over the passes; unit 1 always 10.
                samples.push_repeated(0, 1.0 + f64::from(pass));
                samples.push_repeated(1, 10.0);
                samples.extend([100.0]);
            });
        }
        // Live workloads are uncalibrated: samples come back as pushed.
        assert_eq!(e2e.unit_latencies_us(), vec![2.0, 10.0]);
        assert_eq!(e2e.blocks.len(), 3);
        assert_eq!(e2e.requests(), 30);
        for block in &e2e.blocks {
            assert_eq!(block.slowdown, 1.0);
            assert_eq!((block.p50_us, block.p90_us), (Some(100.0), Some(100.0)));
            assert_eq!(block.latency_samples, 1);
            assert_eq!(block.rate(), block.raw_rate());
        }
        assert!(e2e.peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn set_up_runs_three_times_and_tears_down_all_but_the_last() {
        let mut e2e = EndToEnd::new(Kind::Live);
        let mut torn_down = Vec::new();
        let mut next = 0;
        let kept = e2e
            .timed_setup(
                || {
                    next += 1;
                    Ok(next)
                },
                |old| torn_down.push(old),
            )
            .unwrap();
        assert_eq!((kept, torn_down), (3, vec![1, 2]));
        assert_eq!(e2e.setup_s.len(), SETUP_REPS);
        let failed: Result<u32, String> =
            EndToEnd::new(Kind::Live).timed_setup(|| Err("no".to_string()), |_| ());
        assert_eq!(failed, Err("no".to_string()));
    }

    #[test]
    fn scaling_uses_one_common_factor() {
        let ctx = Ctx {
            seed: DEFAULT_SEED,
            seconds: 8.0,
            out_dir: PathBuf::new(),
        };
        assert_eq!(ctx.scaled(15, 3), 6);
        assert_eq!(ctx.scaled(1, 3), 3, "floored");
        assert_eq!(ctx.quarter().scaled(500_000, 0), 50_000);
        // The default seed replays the published trace.
        assert_eq!(ctx.bu94_profile(), TraceProfile::bu94());
        let other = Ctx { seed: 1, ..ctx };
        assert_ne!(other.bu94_profile().seed, TraceProfile::bu94().seed);
    }
}
