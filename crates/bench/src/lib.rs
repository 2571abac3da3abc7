#![forbid(unsafe_code)]
//! The experiment driver that regenerates every table and figure of the
//! paper (see `DESIGN.md` §1 for the index).
//!
//! One binary, `experiments`, runs the entries of [`REGISTRY`]:
//!
//! ```text
//! cargo run --release -p coopcache-bench -- [--fast] [ID ...]
//! ```
//!
//! With no ids every experiment runs, in registry order. Each prints its
//! table. A full-scale run replays the 575,775-request BU-94-scale trace
//! and also writes `results/<id>.csv` and `results/<id>.json`, the latter
//! a `{"id":…,"title":…,"trace":…,"headers":[…],"rows":[[…]]}` record
//! rendered by the workspace's hand-rolled JSON writer. `--fast` replays
//! the medium trace (~120k requests) and writes nothing, so the committed
//! tables stay at full scale.
//!
//! An invocation generates its trace once, and runs the paper's 4-cache
//! ad-hoc-vs-EA sweep over [`PAPER_CACHE_SIZES`] at most once: every
//! experiment built on that sweep reads [`Inputs::sweep`].

mod experiments;

pub use experiments::REGISTRY;

use coopcache_metrics::{JsonWriter, Table};
use coopcache_sim::{capacity_sweep, SimConfig, SweepPoint, PAPER_CACHE_SIZES};
use coopcache_trace::{generate, Trace, TraceProfile};
use coopcache_types::ByteSize;
use std::cell::OnceCell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Stem of its `results/` files and its command-line name.
    pub id: &'static str,
    /// The title its table is printed and recorded under.
    pub title: &'static str,
    /// Computes the table.
    pub run: fn(&Inputs) -> Table,
}

/// Which trace an invocation replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The 575,775-request BU-94-scale trace; [`emit`] writes its tables.
    Full,
    /// The ~120k-request medium trace (`--fast`); [`emit`] only prints.
    Fast,
}

impl Scale {
    /// The label printed above each table and recorded as its `trace`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Full => "bu94-scale",
            Self::Fast => "medium (--fast)",
        }
    }
}

/// What every experiment of one invocation shares: the trace, built once,
/// and the paper's 4-cache sweep, computed on first use.
#[derive(Debug)]
pub struct Inputs {
    /// The replayed trace.
    pub trace: Trace,
    /// The scale it was generated at.
    pub scale: Scale,
    sweep: OnceCell<Vec<SweepPoint>>,
}

impl Inputs {
    /// Generates the trace for `scale`.
    ///
    /// # Panics
    ///
    /// Panics if a built-in profile fails to generate (they cannot).
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        let profile = match scale {
            Scale::Full => TraceProfile::bu94(),
            Scale::Fast => TraceProfile::medium(),
        };
        Self {
            trace: generate(&profile).expect("built-in profiles are valid"),
            scale,
            sweep: OnceCell::new(),
        }
    }

    /// Ad-hoc and EA on a 4-cache group at every [`PAPER_CACHE_SIZES`]
    /// aggregate, in that order.
    #[must_use]
    pub fn sweep(&self) -> &[SweepPoint] {
        self.sweep.get_or_init(|| {
            let cfg = SimConfig::new(ByteSize::ZERO).with_group_size(4);
            capacity_sweep(&cfg, &PAPER_CACHE_SIZES, &self.trace)
        })
    }

    /// The [`Inputs::sweep`] point at `aggregate`.
    ///
    /// # Panics
    ///
    /// Panics if `aggregate` is not one of [`PAPER_CACHE_SIZES`].
    #[must_use]
    pub fn point(&self, aggregate: ByteSize) -> &SweepPoint {
        self.sweep()
            .iter()
            .find(|p| p.aggregate == aggregate)
            .expect("aggregate is one of PAPER_CACHE_SIZES")
    }
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    /// `Fast` with `--fast`, else `Full`.
    pub scale: Scale,
    /// The experiments named, in order; all of [`REGISTRY`] if none was.
    pub experiments: Vec<&'static Experiment>,
}

/// Parses the arguments after the program name: `--fast` and experiment
/// ids, in any order.
///
/// # Errors
///
/// Names the first unknown flag or unknown experiment id.
pub fn parse_args<I: IntoIterator<Item = S>, S: AsRef<str>>(args: I) -> Result<Args, String> {
    let mut scale = Scale::Full;
    let mut experiments = Vec::new();
    for arg in args {
        let arg = arg.as_ref();
        if arg == "--fast" {
            scale = Scale::Fast;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            let experiment = REGISTRY.iter().find(|e| e.id == arg);
            experiments.push(experiment.ok_or_else(|| format!("unknown experiment `{arg}`"))?);
        }
    }
    if experiments.is_empty() {
        experiments = REGISTRY.iter().collect();
    }
    Ok(Args { scale, experiments })
}

/// The usage text, listing every registry id.
#[must_use]
pub fn usage() -> String {
    let mut text = String::from(
        "usage: experiments [--fast] [ID ...]\n\n  \
         --fast  replay the ~120k-request medium trace and write nothing\n\n\
         With no IDs every experiment runs, in this order:\n",
    );
    for e in REGISTRY {
        let _ = writeln!(text, "  {:<24} {}", e.id, e.title);
    }
    text
}

/// Prints an experiment header and its table; at [`Scale::Full`] it also
/// writes `<dir>/<id>.csv` and `<dir>/<id>.json`, creating `dir`.
///
/// # Errors
///
/// Propagates failures to create `dir` or write either file.
pub fn emit(dir: &Path, id: &str, title: &str, scale: Scale, table: &Table) -> io::Result<()> {
    println!("== {id}: {title}");
    println!("   trace: {}\n", scale.label());
    print!("{table}");
    if scale == Scale::Full {
        std::fs::create_dir_all(dir)?;
        let csv = dir.join(format!("{id}.csv"));
        table.write_csv(std::fs::File::create(&csv)?)?;
        let json = dir.join(format!("{id}.json"));
        std::fs::write(&json, table_json(id, title, scale.label(), table))?;
        println!("\n(csv: {})\n(json: {})", csv.display(), json.display());
    }
    println!();
    Ok(())
}

/// The JSON record [`emit`] writes.
#[must_use]
pub fn table_json(id: &str, title: &str, scale: &str, table: &Table) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("id");
    w.string(id);
    w.key("title");
    w.string(title);
    w.key("trace");
    w.string(scale);
    w.key("headers");
    w.begin_array();
    for h in table.headers() {
        w.string(h);
    }
    w.end_array();
    w.key("rows");
    w.begin_array();
    for row in table.rows() {
        w.begin_array();
        for cell in row {
            w.string(cell);
        }
        w.end_array();
    }
    w.end_array();
    w.end_object();
    let mut s = w.finish();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_metrics::obs::{parse_json, JsonValue};
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    /// A fresh, not yet existing directory under the system temp dir.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coopcache-bench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> Table {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        t
    }

    /// `parse_args` with the selection reduced to its ids.
    fn parse(args: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        let args = parse_args(args)?;
        Ok((args.scale, args.experiments.iter().map(|e| e.id).collect()))
    }

    #[test]
    fn results_dir_is_created() {
        let root = scratch_dir("created");
        let dir = root.join("results");
        emit(&dir, "selftest", "emit smoke test", Scale::Full, &sample()).unwrap();
        assert!(dir.is_dir());
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn emit_writes_csv() {
        let dir = scratch_dir("csv");
        emit(&dir, "selftest", "emit smoke test", Scale::Full, &sample()).unwrap();
        let text = std::fs::read_to_string(dir.join("selftest.csv")).unwrap();
        assert_eq!(text, "a\n1\n");
        let json = std::fs::read_to_string(dir.join("selftest.json")).unwrap();
        assert_eq!(
            json,
            table_json("selftest", "emit smoke test", "bu94-scale", &sample())
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn fast_emit_writes_nothing() {
        let dir = scratch_dir("fast");
        std::fs::create_dir_all(&dir).unwrap();
        emit(&dir, "selftest", "emit smoke test", Scale::Fast, &sample()).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn table_json_record_shape() {
        let mut t = Table::new(vec!["size", "ea"]);
        t.row(vec!["1MB".into(), "31.40".into()]);
        assert_eq!(
            table_json("fig1", "hit rates", "medium", &t),
            concat!(
                r#"{"id":"fig1","title":"hit rates","trace":"medium","#,
                r#""headers":["size","ea"],"rows":[["1MB","31.40"]]}"#,
                "\n"
            )
        );
    }

    #[test]
    fn no_arguments_run_everything_at_full_scale() {
        let all = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(parse(&[]), Ok((Scale::Full, all)));
    }

    #[test]
    fn ids_select_experiments_in_the_order_given() {
        let ids = vec!["des_latency", "fig1_hit_rates"];
        assert_eq!(parse(&ids), Ok((Scale::Full, ids)));
    }

    #[test]
    fn fast_selects_the_medium_trace() {
        let fast = parse(&["fig1_hit_rates", "--fast"]);
        assert_eq!(fast, Ok((Scale::Fast, vec!["fig1_hit_rates"])));
    }

    #[test]
    fn unknown_ids_and_flags_are_rejected() {
        let unknown_id = parse(&["fig1_hit_rate"]);
        assert_eq!(unknown_id, Err("unknown experiment `fig1_hit_rate`".into()));
        let unknown_flag = parse(&["--fast", "--jsn"]);
        assert_eq!(unknown_flag, Err("unknown flag `--jsn`".into()));
    }

    /// The registry and the committed `results/` name the same
    /// experiments under the same titles, at full scale.
    #[test]
    fn registry_matches_the_committed_results() {
        let ids: BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), REGISTRY.len(), "registry ids must be unique");

        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let stems: BTreeSet<String> = std::fs::read_dir(&results)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            stems.iter().map(String::as_str).collect::<BTreeSet<_>>(),
            ids
        );

        let usage = usage();
        for e in REGISTRY {
            assert!(usage.contains(e.id), "usage lacks {}", e.id);
            let text = std::fs::read_to_string(results.join(format!("{}.json", e.id))).unwrap();
            let record = parse_json(&text).unwrap();
            let field = |key| record.get(key).and_then(JsonValue::as_str);
            assert_eq!(field("id"), Some(e.id));
            assert_eq!(field("title"), Some(e.title), "{}", e.id);
            assert_eq!(field("trace"), Some(Scale::Full.label()), "{}", e.id);
        }
    }
}
