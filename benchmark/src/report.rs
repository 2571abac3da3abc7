//! Turns a workload's raw material into named metric values, prints them,
//! and writes the result file later runs are compared against.

use crate::meta::Meta;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::SpanRec;
use crate::stats::{self, Summary};
use crate::workloads::{Block, Checks, Ctx, EndToEnd, Layers, Notes, Workload};
use coopcache::obs::JsonWriter;
use std::io;
use std::path::PathBuf;

/// One reported metric: the value, plus the spread of the samples it was
/// taken from (no "best of N": min, median and max are all shown).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub def: MetricDef,
    pub value: f64,
    pub samples: Option<Summary>,
}

/// A finished run.
#[derive(Debug)]
pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub checks: Checks,
    pub values: Vec<Value>,
    pub notes: Notes,
}

fn def(name: &str) -> MetricDef {
    *END_TO_END
        .iter()
        .find(|d| d.name == name)
        .expect("metric is in the catalogue")
}

/// The end-to-end metric values of an untraced run, and notes giving the
/// raw readings behind the calibrated ones. Every timing is the median
/// block's.
pub fn end_to_end_values(e2e: &EndToEnd) -> Result<(Vec<Value>, Notes), String> {
    let missing = |what: &str| format!("the workload produced no {what}");
    let over_blocks = |what: &str, f: &dyn Fn(&Block) -> Option<f64>| {
        let values: Vec<f64> = e2e.blocks.iter().filter_map(f).collect();
        Summary::of(&values).ok_or_else(|| missing(what))
    };
    let setup = Summary::of(&e2e.setup_s).ok_or_else(|| missing("set-up timing"))?;
    let rates = over_blocks("timed block", &|b| Some(b.rate()))?;
    let raw_rates = over_blocks("timed block", &|b| Some(b.raw_rate()))?;
    let slowdown = over_blocks("timed block", &|b| Some(b.slowdown))?;
    let cpu = over_blocks("CPU reading", &|b| b.cpu_us_per_op())?;
    let raw_cpu = over_blocks("CPU reading", &|b| Some(b.cpu_s? * 1e6 / b.ops as f64))?;
    // Units every block repeats: percentiles across the units' medians.
    // Otherwise: each block's own percentiles, and the median block's.
    let units = e2e.unit_latencies_us();
    let (p50, p90) = match Summary::of(&units) {
        Some(summary) => {
            let percentile = |pct| stats::percentile(&units, pct).map(|v| (v, summary));
            (percentile(50.0), percentile(90.0))
        }
        None => {
            let of = |f: &dyn Fn(&Block) -> Option<f64>| {
                over_blocks("latency sample", f).ok().map(|s| (s.median, s))
            };
            (of(&|b| b.p50_us), of(&|b| b.p90_us))
        }
    };
    let (p50, p90) = p50.zip(p90).ok_or_else(|| missing("latency sample"))?;
    let peak_rss_mb = e2e
        .peak_rss_mb()
        .ok_or("cannot read memory use from /proc")?;
    let value = |name, value, samples| Value {
        def: def(name),
        value,
        samples,
    };
    let values = vec![
        value("setup_s", setup.median, Some(setup)),
        value("req_per_s", rates.median, Some(rates)),
        value("p50_us", p50.0, Some(p50.1)),
        value("p90_us", p90.0, Some(p90.1)),
        value("hit_ratio", e2e.hit_ratio, None),
        value("cpu_us_per_req", cpu.median, Some(cpu)),
        value("peak_rss_mb", peak_rss_mb, None),
    ];
    let spread = |s: Summary, digits: usize| {
        format!(
            "n={} min={:.digits$} median={:.digits$} max={:.digits$}",
            s.n, s.min, s.median, s.max
        )
    };
    let notes = vec![
        (
            "machine_slowdown".to_string(),
            format!(
                "{} (reference kernel at {} ns/op = 1)",
                spread(slowdown, 3),
                crate::calibrate::REF_NS
            ),
        ),
        ("raw_req_per_s".to_string(), spread(raw_rates, 1)),
        ("raw_cpu_us_per_req".to_string(), spread(raw_cpu, 4)),
        (
            "latency_samples".to_string(),
            match units.len() {
                0 => format!(
                    "{} requests in {} blocks; p50/p90 are the median block's",
                    e2e.blocks.iter().map(|b| b.latency_samples).sum::<usize>(),
                    e2e.blocks.len()
                ),
                n => format!("{n} repeated units, each the median of its repetitions"),
            },
        ),
    ];
    Ok((values, notes))
}

/// The per-layer metric values of a traced run: every catalogue name, 0
/// where the workload does not exercise the layer.
pub fn per_layer_values(layers: &Layers) -> Vec<Value> {
    PER_LAYER
        .iter()
        .map(|def| Value {
            def: *def,
            value: layers.get(def.name).copied().unwrap_or(0.0),
            samples: None,
        })
        .collect()
}

/// The span table of a traced run, one note per span name: how many,
/// their mean duration, and the mean self time (duration minus what the
/// span's children cover).
pub fn span_table(spans: &[SpanRec]) -> Notes {
    crate::spans::totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                format!("span {name}"),
                format!(
                    "n={} mean={:.0}ns self={:.0}ns",
                    t.count,
                    t.mean_ns(),
                    t.mean_self_ns()
                ),
            )
        })
        .collect()
}

impl RunResult {
    pub fn new(
        workload: Workload,
        ctx: &Ctx,
        traced: bool,
        checks: Checks,
        values: Vec<Value>,
        notes: Notes,
    ) -> Self {
        Self {
            workload,
            traced,
            seed: ctx.seed,
            seconds: ctx.seconds,
            scale: ctx.scale()
                * if traced {
                    crate::workloads::TRACED_SCALE
                } else {
                    1.0
                },
            checks,
            values,
            notes,
        }
    }

    /// The human-readable report.
    pub fn print(&self, meta: &Meta) {
        println!(
            "== {}{}  seed={} seconds={} scale={:.3}",
            self.workload.name(),
            if self.traced { " (traced)" } else { "" },
            self.seed,
            self.seconds,
            self.scale
        );
        println!(
            "   nproc={} rustc=\"{}\" kernel={} commit={}",
            meta.nproc, meta.rustc, meta.kernel, meta.commit
        );
        for v in &self.values {
            // Traced runs list every layer; the zeros are the layers this
            // workload does not touch and only clutter the table.
            if self.traced && v.value == 0.0 {
                continue;
            }
            print!("   {:<32} {:>16.4} {:<6}", v.def.name, v.value, v.def.unit);
            if let Some(s) = v.samples {
                print!(
                    "  n={} min={:.4} median={:.4} max={:.4}",
                    s.n, s.min, s.median, s.max
                );
            }
            println!();
        }
        for (key, value) in &self.notes {
            println!("   {key}: {value}");
        }
        println!(
            "   attempted={} failed={} fail_ratio={}",
            self.checks.attempted,
            self.checks.failed,
            self.checks.failed as f64 / self.checks.attempted.max(1) as f64
        );
        for v in &self.checks.violations {
            println!("   CHECK FAILED: {v}");
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_outcome(&mut w);
        w.key("metrics");
        w.begin_object();
        for v in &self.values {
            w.key(v.def.name);
            w.begin_object();
            w.key("value");
            w.f64(v.value);
            w.key("unit");
            w.string(v.def.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    fn write_outcome(&self, w: &mut JsonWriter) {
        w.key("correct");
        w.bool(self.checks.correct());
        w.key("attempted");
        w.u64(self.checks.attempted);
        w.key("failed");
        w.u64(self.checks.failed);
    }

    /// The result file: the driver's fields plus everything needed to
    /// judge them — machine, seed, scale, sample counts and spreads.
    pub fn to_json(&self, meta: &Meta) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workload");
        w.string(self.workload.name());
        w.key("traced");
        w.bool(self.traced);
        w.key("seed");
        w.u64(self.seed);
        w.key("seconds");
        w.f64(self.seconds);
        w.key("scale");
        w.f64(self.scale);
        w.key("meta");
        w.begin_object();
        w.key("nproc");
        w.u64(meta.nproc as u64);
        w.key("rustc");
        w.string(&meta.rustc);
        w.key("kernel");
        w.string(&meta.kernel);
        w.key("commit");
        w.string(&meta.commit);
        w.end_object();
        self.write_outcome(&mut w);
        w.key("violations");
        w.begin_array();
        for v in &self.checks.violations {
            w.string(v);
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for v in &self.values {
            w.key(v.def.name);
            w.begin_object();
            w.key("value");
            w.f64(v.value);
            w.key("unit");
            w.string(v.def.unit);
            w.key("better");
            w.string(v.def.better.name());
            if let Some(s) = v.samples {
                w.key("samples");
                w.u64(s.n as u64);
                w.key("min");
                w.f64(s.min);
                w.key("median");
                w.f64(s.median);
                w.key("max");
                w.f64(s.max);
            }
            w.end_object();
        }
        w.end_object();
        w.key("notes");
        w.begin_object();
        for (key, value) in &self.notes {
            w.key(key);
            w.string(value);
        }
        w.end_object();
        w.end_object();
        let mut text = w.finish();
        text.push('\n');
        text
    }

    /// Writes the result file and returns its path.
    pub fn write(&self, ctx: &Ctx, meta: &Meta) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&ctx.out_dir)?;
        let suffix = if self.traced { ".traced" } else { "" };
        let path = ctx
            .out_dir
            .join(format!("{}{suffix}.json", self.workload.name()));
        std::fs::write(&path, self.to_json(meta))?;
        Ok(path)
    }
}
