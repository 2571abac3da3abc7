//! The `coopcache` subcommands, written against a generic writer so every
//! command is testable without spawning a process.

use crate::args::{
    parse_discovery, parse_policy, parse_profile, parse_scheme, parse_size, ArgError, ParsedArgs,
};
use coopcache_metrics::{pct, Table};
use coopcache_net::{ClusterConfig, FaultKind, FaultMode, FaultPlan, LoopbackCluster};
use coopcache_obs::{Event, EventKind, EventSink, JsonlSink, SinkHandle, Tally};
use coopcache_sim::{capacity_sweep, run, run_with_sink, SimConfig, PAPER_CACHE_SIZES};
use coopcache_trace::{generate, read_trace, write_trace, Rng, Trace, TraceProfile};
use coopcache_types::{ByteSize, CacheId, DocId, DurationMs};
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// Top-level usage text.
pub const USAGE: &str = "\
coopcache — expiration-age based cooperative web caching

USAGE:
    coopcache <COMMAND> [--flag value]...

COMMANDS:
    gen       generate a synthetic trace file
                --profile small|medium|bu94   (default small)
                --seed N                      (default profile seed)
                --requests N                  (default profile size)
                --out PATH                    (required)
    stats     print aggregate statistics of a trace, or one daemon's snapshot
                --trace PATH | --profile NAME
                --addr HOST:PORT              (scrape OP_STATS from a live daemon)
                --format table|json|prom      (scrape rendering, default table)
                --timeout-ms N                (scrape timeout, default 2000)
    status    cluster dashboard and SLO verdict over per-node time series
                --addrs HOST:PORT,...         (scrape OP_SERIES; errors isolated per node)
                --replay PATH                 (rebuild series offline from JSONL events)
                --rules METRIC:N,...          (default quarantined:0,hit-rate:1; hit-rate
                                               is a floor, p99-latency, quarantined and
                                               shed-rate are ceilings)
                --for N                       (burn windows per rule, default 3)
                --json true                   (machine-readable frame)
                --watch MS                    (redraw every MS milliseconds)
                --interval-ms N               (replay sampling interval, default 1000)
                --timeout-ms N                (scrape timeout, default 2000)
    trace     assemble span events into per-request trace trees
                --events PATH                 (required, a JSONL event stream)
                --id TRACEID | --seq N        (one trace; default: all of them)
                --times true                  (append start offsets and durations)
    simulate  replay a trace through a cache group
                --trace PATH | --profile NAME (default small)
                --aggregate SIZE              (default 10MB)
                --caches N                    (default 4)
                --scheme adhoc|ea|ea-tie-store (default ea)
                --policy lru|lfu|fifo|gdsf|gds|slru|s3fifo (default lru)
                --discovery icp|isolated|digest:SECONDS (default icp)
                --ttl SECONDS                 (default none)
                --warmup FRACTION             (default 0)
                --events PATH                 (stream events, spans included, as JSONL)
                --event-summary true          (print event histograms)
    sweep     compare ad-hoc and EA across the paper's five sizes
                --trace PATH | --profile NAME (default small)
                --caches N                    (default 4)
    serve     run a live loopback cluster and push a demo workload
                --caches N                    (default 3)
                --capacity SIZE per cache     (default 128KB)
                --scheme adhoc|ea             (default ea)
                --requests N                  (default 300)
                --chaos SEED                  (inject a seeded peer-fault mix)
                --kill-after N                (halt the last daemon mid-run)
                --events PATH                 (stream events, spans included, as JSONL)
    analyze   characterize a workload (locality, popularity, sharing, MIN bound)
                --trace PATH | --profile NAME (default small)
                --aggregate SIZE for the MIN bound (default 10MB)
    import    convert a real proxy log to the coopcache trace format
                --log PATH                    (required)
                --format squid|clf            (default squid)
                --out PATH                    (required)
    help      print this message
";

/// Runs a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a user-facing message for flag errors, I/O failures and
/// malformed traces.
pub fn dispatch<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    match args.command.as_str() {
        "gen" => cmd_gen(args, out),
        "stats" => cmd_stats(args, out),
        "status" => crate::status::cmd_status(args, out),
        "trace" => cmd_trace(args, out),
        "simulate" => cmd_simulate(args, out),
        "sweep" => cmd_sweep(args, out),
        "serve" => cmd_serve(args, out),
        "analyze" => cmd_analyze(args, out),
        "import" => cmd_import(args, out),
        "help" | "--help" | "-h" => {
            write_out(out, USAGE)?;
            Ok(())
        }
        other => Err(ArgError(format!(
            "unknown command {other:?}; try `coopcache help`"
        ))),
    }
}

pub(crate) fn write_out<W: Write>(out: &mut W, text: impl AsRef<str>) -> Result<(), ArgError> {
    out.write_all(text.as_ref().as_bytes())
        .map_err(|e| ArgError(format!("write failed: {e}")))
}

fn load_trace(args: &ParsedArgs) -> Result<Trace, ArgError> {
    match (args.get("trace"), args.get("profile")) {
        (Some(_), Some(_)) => Err(ArgError("pass --trace or --profile, not both".into())),
        (Some(path), None) => {
            let file = std::fs::File::open(path)
                .map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
            read_trace(file).map_err(|e| ArgError(e.to_string()))
        }
        (None, profile) => {
            let profile = parse_profile(profile.unwrap_or("small"))?;
            generate(&profile).map_err(|e| ArgError(e.to_string()))
        }
    }
}

fn cmd_gen<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    args.expect_only(&["profile", "seed", "requests", "out"])?;
    let mut profile: TraceProfile = parse_profile(args.get("profile").unwrap_or("small"))?;
    if let Some(seed) = args.get_opt("seed")? {
        profile = profile.with_seed(seed);
    }
    if let Some(requests) = args.get_opt("requests")? {
        profile = profile.with_requests(requests);
    }
    let path = args
        .get("out")
        .ok_or_else(|| ArgError("gen requires --out PATH".into()))?;
    let trace = generate(&profile).map_err(|e| ArgError(e.to_string()))?;
    let file =
        std::fs::File::create(path).map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
    write_trace(std::io::BufWriter::new(file), &trace)
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    write_out(out, format!("wrote {} records to {path}\n", trace.len()))
}

fn cmd_stats<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    if args.get("addr").is_some() {
        return crate::status::cmd_stats_scrape(args, out);
    }
    args.expect_only(&["trace", "profile"])?;
    let trace = load_trace(args)?;
    let s = trace.stats();
    let mut table = Table::new(vec!["statistic", "value"]);
    table.row(vec!["requests".into(), s.requests.to_string()]);
    table.row(vec!["unique documents".into(), s.unique_docs.to_string()]);
    table.row(vec!["unique clients".into(), s.unique_clients.to_string()]);
    table.row(vec!["total bytes".into(), s.total_bytes.to_string()]);
    table.row(vec!["unique bytes".into(), s.unique_bytes.to_string()]);
    table.row(vec!["mean doc size".into(), s.mean_doc_size().to_string()]);
    table.row(vec![
        "span (days)".into(),
        format!("{:.1}", (s.end - s.start).as_secs_f64() / 86_400.0),
    ]);
    write_out(out, table.to_string())
}

/// Parses a trace id: decimal, or hex with an `0x` prefix (daemon trace
/// ids embed the cache id in the top bits, so hex is the natural form).
fn parse_trace_id(raw: &str) -> Result<u64, ArgError> {
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.map_err(|e| ArgError(format!("--id {raw:?}: {e}")))
}

fn cmd_trace<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use coopcache_obs::TraceAssembler;
    args.expect_only(&["events", "id", "seq", "times"])?;
    let path = args
        .get("events")
        .ok_or_else(|| ArgError("trace requires --events PATH".into()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let mut assembler = TraceAssembler::new();
    assembler
        .observe_jsonl(&text)
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    let with_times = args.get_bool("times")?;
    match (args.get("id"), args.get("seq")) {
        (Some(_), Some(_)) => Err(ArgError("pass --id or --seq, not both".into())),
        (Some(raw), None) => {
            let id = parse_trace_id(raw)?;
            let rendered = assembler
                .render(id, with_times)
                .ok_or_else(|| ArgError(format!("no trace {raw} in {path}")))?;
            write_out(out, rendered)
        }
        (None, Some(_)) => {
            let seq: u64 = args.get_or("seq", 0)?;
            let ids = assembler.trace_ids_for_seq(seq);
            if ids.is_empty() {
                return Err(ArgError(format!(
                    "no trace with request seq {seq} in {path}"
                )));
            }
            for id in ids {
                if let Some(rendered) = assembler.render(id, with_times) {
                    write_out(out, rendered)?;
                }
            }
            Ok(())
        }
        (None, None) => {
            if assembler.trace_ids().is_empty() {
                return Err(ArgError(format!("no spans in {path}")));
            }
            write_out(out, assembler.render_all(with_times))
        }
    }
}

/// Both optional simulate observers behind one `EventSink`, so a single
/// handle feeds the JSONL stream and the histogram summary.
struct SimulateSink {
    jsonl: Option<JsonlSink<std::io::BufWriter<std::fs::File>>>,
    summary: Option<Tally>,
}

impl SimulateSink {
    /// One shared sink over the `--events` file, if any, and a summary.
    fn shared(events: Option<&str>, summary: bool) -> Result<Arc<Mutex<Self>>, ArgError> {
        let jsonl = events
            .map(|path| {
                let file = std::fs::File::create(path)
                    .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
                Ok::<_, ArgError>(JsonlSink::new(std::io::BufWriter::new(file)))
            })
            .transpose()?;
        let summary = summary.then(Tally::new);
        Ok(Arc::new(Mutex::new(Self { jsonl, summary })))
    }

    /// Takes the sink back once the run has dropped its handles.
    fn unshare(sink: Arc<Mutex<Self>>) -> Result<Self, ArgError> {
        let sink = Arc::try_unwrap(sink)
            .map_err(|_| ArgError("event sink is still shared after the run".into()))?;
        Ok(sink.into_inner().unwrap_or_else(PoisonError::into_inner))
    }
}

impl EventSink for SimulateSink {
    fn emit(&mut self, event: &Event) {
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.emit(event);
        }
        if let Some(summary) = &mut self.summary {
            summary.emit(event);
        }
    }
}

fn cmd_simulate<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    args.expect_only(&[
        "trace",
        "profile",
        "aggregate",
        "caches",
        "scheme",
        "policy",
        "discovery",
        "ttl",
        "warmup",
        "events",
        "event-summary",
    ])?;
    let aggregate = parse_size(args.get("aggregate").unwrap_or("10MB"))?;
    let mut cfg = SimConfig::new(aggregate)
        .with_group_size(caches_flag(args, 4)?)
        .with_scheme(parse_scheme(args.get("scheme").unwrap_or("ea"))?)
        .with_policy(parse_policy(args.get("policy").unwrap_or("lru"))?)
        .with_discovery(parse_discovery(args.get("discovery").unwrap_or("icp"))?);
    if let Some(secs) = args.get_opt::<u64>("ttl")? {
        let ms = secs
            .checked_mul(1_000)
            .ok_or_else(|| ArgError(format!("--ttl {secs}: too large")))?;
        cfg = cfg.with_ttl(DurationMs::from_millis(ms));
    }
    let warmup = args.get_or("warmup", 0.0f64)?;
    if !(0.0..1.0).contains(&warmup) {
        return Err(ArgError("--warmup must be in [0, 1)".into()));
    }
    cfg = cfg.with_warmup_fraction(warmup);
    let trace = load_trace(args)?;

    let events_path = args.get("events");
    let want_summary = args.get_bool("event-summary")?;
    let (report, sink) = if events_path.is_some() || want_summary {
        let sink = SimulateSink::shared(events_path, want_summary)?;
        let handle = SinkHandle::from_arc(Arc::clone(&sink));
        let report = run_with_sink(&cfg, &trace, Some(handle));
        // The runner's group is gone, so ours is the last handle.
        (report, Some(SimulateSink::unshare(sink)?))
    } else {
        (run(&cfg, &trace), None)
    };
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["configuration".into(), cfg.to_string()]);
    table.row(vec!["requests".into(), report.metrics.requests.to_string()]);
    table.row(vec!["hit rate %".into(), pct(report.metrics.hit_rate())]);
    table.row(vec![
        "byte hit rate %".into(),
        pct(report.metrics.byte_hit_rate()),
    ]);
    table.row(vec![
        "local / remote / miss %".into(),
        format!(
            "{} / {} / {}",
            pct(report.metrics.local_hit_rate()),
            pct(report.metrics.remote_hit_rate()),
            pct(report.metrics.miss_rate())
        ),
    ]);
    table.row(vec![
        "est. latency (ms)".into(),
        format!("{:.0}", report.estimated_latency_ms),
    ]);
    table.row(vec![
        "avg expiration age (s)".into(),
        report
            .avg_expiration_age_ms
            .map_or("-".into(), |ms| format!("{:.1}", ms / 1e3)),
    ]);
    table.row(vec![
        "messages / request".into(),
        format!(
            "{:.2}",
            report
                .protocol
                .messages_per_request(report.metrics.requests)
        ),
    ]);
    table.row(vec![
        "replicated doc slots".into(),
        report.replica_overhead().to_string(),
    ]);
    write_out(out, table.to_string())?;
    if let Some(sink) = sink {
        if let Some(jsonl) = sink.jsonl {
            let lines = jsonl
                .finish()
                .map_err(|e| ArgError(format!("--events write failed: {e}")))?;
            let path = events_path.expect("jsonl sink implies --events");
            write_out(out, format!("wrote {lines} events to {path}\n"))?;
        }
        if let Some(summary) = sink.summary {
            write_out(out, summary.render_summary())?;
        }
    }
    Ok(())
}

fn cmd_sweep<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    args.expect_only(&["trace", "profile", "caches"])?;
    let base = SimConfig::new(ByteSize::ZERO).with_group_size(caches_flag(args, 4)?);
    let trace = load_trace(args)?;
    let mut table = Table::new(vec![
        "aggregate",
        "ad-hoc hit %",
        "EA hit %",
        "gain (pp)",
        "ad-hoc lat ms",
        "EA lat ms",
    ]);
    for p in capacity_sweep(&base, &PAPER_CACHE_SIZES, &trace) {
        table.row(vec![
            p.aggregate.to_string(),
            pct(p.adhoc.metrics.hit_rate()),
            pct(p.ea.metrics.hit_rate()),
            format!("{:+.2}", p.hit_rate_gain() * 100.0),
            format!("{:.0}", p.adhoc.estimated_latency_ms),
            format!("{:.0}", p.ea.estimated_latency_ms),
        ]);
    }
    write_out(out, table.to_string())
}

/// `--caches`, which must name at least one cache.
fn caches_flag(args: &ParsedArgs, default: u16) -> Result<u16, ArgError> {
    match args.get_or("caches", default)? {
        0 => Err(ArgError(
            "--caches 0: a group needs at least one cache".into(),
        )),
        caches => Ok(caches),
    }
}

/// The `--chaos` fault mix: a bit of every fault class, spread over the
/// non-zero daemons, all drawn from one seed.
fn chaos_plan(seed: u64, caches: u16) -> FaultPlan {
    let c = |i: u16| CacheId::new(i % caches);
    FaultPlan::seeded(seed)
        .rule(c(1), FaultKind::DropIcpReply, FaultMode::Probability(25))
        .rule(c(1), FaultKind::TruncateDocBody, FaultMode::Probability(25))
        .rule(c(2), FaultKind::ResetDoc, FaultMode::Probability(25))
        .rule(c(2), FaultKind::ResetDoc, FaultMode::Probability(15))
}

fn cmd_serve<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use std::time::Duration;
    args.expect_only(&[
        "caches",
        "capacity",
        "scheme",
        "requests",
        "chaos",
        "kill-after",
        "events",
    ])?;
    let caches = caches_flag(args, 3)?;
    let capacity = parse_size(args.get("capacity").unwrap_or("128KB"))?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("ea"))?;
    let requests = args.get_or("requests", 300u64)?;
    let chaos: Option<u64> = args.get_opt("chaos")?;
    let kill_after: Option<u64> = args.get_opt("kill-after")?;
    let mut config = ClusterConfig::new(caches, capacity, scheme);
    if let Some(seed) = chaos {
        // A short ICP deadline keeps a run against silent peers brisk.
        config = config
            .faults(chaos_plan(seed, caches))
            .icp_timeout(Duration::from_millis(80));
    }
    let faulty = chaos.is_some() || kill_after.is_some();
    let events_path = args.get("events");
    let mut cluster = LoopbackCluster::start_with_config(config)
        .map_err(|e| ArgError(format!("cluster start failed: {e}")))?;
    let sink = if faulty || events_path.is_some() {
        let sink = SimulateSink::shared(events_path, true)?;
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(&sink)));
        Some(sink)
    } else {
        None
    };
    write_out(
        out,
        format!("started {caches} daemons ({capacity} each, {scheme} placement)\n"),
    )?;
    write_out(
        out,
        format!(
            "doc endpoints: {}\n",
            cluster
                .doc_addrs()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ),
    )?;
    if let Some(seed) = chaos {
        write_out(out, format!("chaos on (seed {seed})\n"))?;
    }
    // The workload runs in a block whose error is *held*, not returned:
    // the cluster must be shut down and the event sink finished (its
    // buffered bytes flushed, its I/O errors surfaced) on every path,
    // or a failed run silently truncates the --events file.
    let workload = (|| -> Result<(), ArgError> {
        let mut rng = Rng::seed_from(7);
        let mut hits = 0u64;
        for i in 0..requests {
            if kill_after == Some(i) && caches > 1 {
                let victim = usize::from(caches) - 1;
                cluster.kill(victim);
                write_out(out, format!("killed daemon {victim} after {i} requests\n"))?;
            }
            let doc = DocId::new(rng.next_below(64) + 1);
            let size = ByteSize::from_kb(1 + rng.next_below(4));
            let outcome = cluster
                .request((i % u64::from(caches)) as usize, doc, size)
                .map_err(|e| ArgError(format!("request failed: {e}")))?;
            if outcome.is_hit() {
                hits += 1;
            }
        }
        write_out(
            out,
            format!(
                "served {requests} requests over real sockets: {hits} hits, {} origin fetches\n",
                cluster.origin_fetches()
            ),
        )?;
        // Per-daemon shutdown summary: measured wall-clock latency by serve
        // source, and whichever peers are still under quarantine.
        for idx in 0..cluster.len() {
            let daemon = cluster.daemon(idx);
            let latency: Vec<String> = daemon
                .latency_snapshots()
                .into_iter()
                .map(|(source, s)| {
                    format!("{source} p50={}us p99={}us (n={})", s.p50, s.p99, s.count)
                })
                .collect();
            let latency = if latency.is_empty() {
                "no requests".into()
            } else {
                latency.join(", ")
            };
            let quarantined = daemon.quarantined_peers();
            let quarantined = if quarantined.is_empty() {
                "none".into()
            } else {
                quarantined
                    .iter()
                    .map(|id| id.as_u16().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            write_out(
                out,
                format!("daemon {idx}: {latency}; quarantined: {quarantined}\n"),
            )?;
        }
        if faulty {
            // Format under the lock, write after it drops: daemon threads are
            // still emitting into this sink, and console I/O under the shared
            // guard is exactly the deadlock class the lock-blocking lint flags.
            let fault_line = sink.as_ref().and_then(|sink| {
                let agg = sink
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                agg.summary.as_ref().map(|summary| {
                    format!(
                        "faults absorbed: {} peer faults, {} failovers, {} quarantines, {} loop errors — 0 client errors\n",
                        summary.count(EventKind::PeerFault),
                        summary.count(EventKind::Failover),
                        summary.count(EventKind::PeerQuarantined),
                        summary.count(EventKind::ServerLoopError),
                    )
                })
            });
            if let Some(line) = fault_line {
                write_out(out, line)?;
            }
        }
        Ok(())
    })();
    cluster.shutdown();
    if workload.is_ok() {
        write_out(out, "cluster shut down cleanly\n")?;
    }
    let finish = if let Some(sink) = sink {
        // The daemons are gone, so this is the last handle to the sink.
        match SimulateSink::unshare(sink)?.jsonl.map(JsonlSink::finish) {
            Some(Ok(lines)) => {
                let path = events_path.expect("jsonl sink implies --events");
                write_out(out, format!("wrote {lines} events to {path}\n"))?;
                Ok(())
            }
            Some(Err(e)) => {
                let path = events_path.expect("jsonl sink implies --events");
                // Warn on stderr too: with --events the primary output is
                // the file, and a truncated file must not look complete.
                eprintln!("warning: {path} is truncated: {e}");
                Err(ArgError(format!("--events {path}: write failed: {e}")))
            }
            None => Ok(()),
        }
    } else {
        Ok(())
    };
    workload.and(finish)
}

fn cmd_analyze<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use coopcache_analysis::{belady_min, PopularityProfile, ReuseProfile, SharingProfile};
    args.expect_only(&["trace", "profile", "aggregate"])?;
    let trace = load_trace(args)?;
    let aggregate = parse_size(args.get("aggregate").unwrap_or("10MB"))?;
    let docs: Vec<_> = trace.iter().map(|r| r.doc).collect();
    let reuse = ReuseProfile::compute(docs.iter().copied());
    let pop = PopularityProfile::compute(docs.iter().copied());
    let sharing = SharingProfile::compute(trace.iter());
    let sized: Vec<_> = trace.iter().map(|r| (r.doc, r.size)).collect();
    let bound = belady_min(&sized, aggregate);

    let mut table = Table::new(vec!["property", "value"]);
    table.row(vec!["requests".into(), trace.len().to_string()]);
    table.row(vec![
        "unique documents".into(),
        pop.unique_docs().to_string(),
    ]);
    table.row(vec![
        "zipf alpha (fit)".into(),
        pop.zipf_alpha_fit()
            .map_or("-".into(), |a| format!("{a:.2}")),
    ]);
    table.row(vec!["top-10 doc share %".into(), pct(pop.top_share(10))]);
    table.row(vec![
        "one-timer docs %".into(),
        pct(pop.one_timer_fraction()),
    ]);
    table.row(vec![
        "mean stack distance".into(),
        reuse
            .mean_distance()
            .map_or("-".into(), |d| format!("{d:.0} docs")),
    ]);
    for slots in [16usize, 256, 4_096] {
        table.row(vec![
            format!("LRU hit % @ {slots} docs"),
            pct(reuse.lru_hit_rate(slots)),
        ]);
    }
    table.row(vec![
        "cross-client share of re-refs %".into(),
        pct(sharing.cross_client_share()),
    ]);
    table.row(vec![
        format!("Belady-MIN hit % @ {aggregate}"),
        pct(bound.hit_rate()),
    ]);
    write_out(out, table.to_string())
}

fn cmd_import<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use coopcache_trace::{parse_log, LogFormat};
    args.expect_only(&["log", "format", "out"])?;
    let log_path = args
        .get("log")
        .ok_or_else(|| ArgError("import requires --log PATH".into()))?;
    let out_path = args
        .get("out")
        .ok_or_else(|| ArgError("import requires --out PATH".into()))?;
    let format = match args.get("format").unwrap_or("squid") {
        "squid" => LogFormat::SquidNative,
        "clf" => LogFormat::CommonLog,
        other => return Err(ArgError(format!("unknown format {other:?} (squid, clf)"))),
    };
    let file = std::fs::File::open(log_path)
        .map_err(|e| ArgError(format!("cannot open {log_path}: {e}")))?;
    let parsed =
        parse_log(file, format, ByteSize::from_kb(4)).map_err(|e| ArgError(e.to_string()))?;
    let out_file = std::fs::File::create(out_path)
        .map_err(|e| ArgError(format!("cannot create {out_path}: {e}")))?;
    write_trace(std::io::BufWriter::new(out_file), &parsed.trace)
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    write_out(
        out,
        format!(
            "imported {} records ({} urls, {} clients, {} lines skipped) to {out_path}\n",
            parsed.trace.len(),
            parsed.urls.len(),
            parsed.clients.len(),
            parsed.skipped_lines
        ),
    )
}

/// Runs one command line in-process and returns what it wrote.
#[cfg(test)]
pub(crate) fn run_cmd(argv: &[&str]) -> Result<String, ArgError> {
    let args = ParsedArgs::parse(argv.iter().copied())?;
    let mut out = Vec::new();
    dispatch(&args, &mut out)?;
    Ok(String::from_utf8(out).expect("commands emit utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let text = run_cmd(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("simulate"));
    }

    #[test]
    fn unknown_command_is_reported() {
        let e = run_cmd(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn gen_stats_simulate_pipeline() {
        let dir = std::env::temp_dir().join("coopcache_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.to_str().unwrap();

        let text = run_cmd(&[
            "gen",
            "--profile",
            "small",
            "--requests",
            "2000",
            "--out",
            path_s,
        ])
        .unwrap();
        assert!(text.contains("2000 records"));

        let text = run_cmd(&["stats", "--trace", path_s]).unwrap();
        assert!(text.contains("requests"));
        assert!(text.contains("2000"));

        let text = run_cmd(&[
            "simulate",
            "--trace",
            path_s,
            "--aggregate",
            "200KB",
            "--scheme",
            "ea",
        ])
        .unwrap();
        assert!(text.contains("hit rate %"));
        assert!(text.contains("ea placement"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn simulate_flag_validation() {
        assert!(run_cmd(&["simulate", "--scheme", "best"]).is_err());
        assert!(run_cmd(&["simulate", "--warmup", "2.0"]).is_err());
        assert!(run_cmd(&["simulate", "--bogus", "1"]).is_err());
        assert!(run_cmd(&["simulate", "--event-summary", "maybe"]).is_err());
        assert!(run_cmd(&["stats", "--trace", "/nonexistent/x"]).is_err());
        assert!(
            run_cmd(&["gen", "--profile", "small"]).is_err(),
            "--out required"
        );
    }

    #[test]
    fn simulate_with_all_knobs() {
        let text = run_cmd(&[
            "simulate",
            "--profile",
            "small",
            "--aggregate",
            "1MB",
            "--caches",
            "8",
            "--scheme",
            "ea-tie-store",
            "--policy",
            "lfu",
            "--discovery",
            "digest:600",
            "--ttl",
            "86400",
            "--warmup",
            "0.2",
        ])
        .unwrap();
        assert!(text.contains("8 caches"));
        assert!(text.contains("lfu replacement"));
    }

    #[test]
    fn simulate_streams_events_and_summary() {
        let dir = std::env::temp_dir().join("coopcache_cli_events");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_s = path.to_str().unwrap();
        let text = run_cmd(&[
            "simulate",
            "--profile",
            "small",
            "--aggregate",
            "200KB",
            "--events",
            path_s,
            "--event-summary",
            "true",
        ])
        .unwrap();
        assert!(text.contains("hit rate %"));
        assert!(text.contains(&format!("events to {path_s}")), "{text}");
        assert!(text.contains("event summary:"), "{text}");
        let stream = std::fs::read_to_string(&path).unwrap();
        let first = stream.lines().next().unwrap();
        assert!(first.starts_with("{\"ev\":"), "{first}");
        // One request event per trace record, at least.
        assert!(
            stream.lines().count() > 20_000,
            "{}",
            stream.lines().count()
        );
        // Replaying the identical run yields a byte-identical stream.
        let path2 = dir.join("events2.jsonl");
        run_cmd(&[
            "simulate",
            "--profile",
            "small",
            "--aggregate",
            "200KB",
            "--events",
            path2.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(stream, std::fs::read_to_string(&path2).unwrap());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    /// A replay samples on span end times: a `simulate --events` stream
    /// stamps its spans at trace time and replays as one ring per cache,
    /// while a stream that never reaches the first boundary is a named
    /// error, not a dashboard of idle nodes: one with no span at all and
    /// one whose spans end short of `--interval-ms`.
    #[test]
    fn status_replay_names_a_stream_without_samples() {
        use coopcache_obs::{RequestClass, Span, SpanKind};
        let dir = std::env::temp_dir().join("coopcache_cli_replay_spanless");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("simulate.jsonl");
        let path_s = path.to_str().unwrap();
        run_cmd(&["simulate", "--profile", "small", "--events", path_s]).unwrap();
        let text = run_cmd(&["status", "--replay", path_s]).unwrap();
        assert!(text.contains("series: 4 node(s)"), "{text}");
        for cache in 0..4 {
            assert!(text.contains(&format!("\n{cache}  ")), "{text}");
        }

        let spanless = dir.join("spanless.jsonl");
        let request = Event::Request {
            seq: 0,
            cache: CacheId::new(0),
            doc: DocId::new(1),
            class: RequestClass::Miss,
            responder: None,
            stored: true,
            latency_us: None,
        };
        std::fs::write(&spanless, request.to_json() + "\n").unwrap();
        let spanless_s = spanless.to_str().unwrap();
        let err = run_cmd(&["status", "--replay", spanless_s]).unwrap_err().0;
        assert!(err.contains("carries no span times"), "{err}");

        let short = dir.join("short.jsonl");
        let span = Event::Span(Span {
            trace_id: 1,
            span_id: 1,
            parent: None,
            cache: CacheId::new(0),
            kind: SpanKind::Request,
            doc: None,
            peer: None,
            start_us: 0,
            end_us: 5_000,
            status: "miss",
        });
        std::fs::write(&short, span.to_json() + "\n").unwrap();
        let short_s = short.to_str().unwrap();
        let err = run_cmd(&["status", "--replay", short_s, "--interval-ms", "1000"])
            .unwrap_err()
            .0;
        assert!(err.contains("last span ends at 5 ms"), "{err}");
        assert!(err.contains("(1000 ms)"), "{err}");
        // Past the first boundary the same stream replays.
        let text = run_cmd(&["status", "--replay", short_s, "--interval-ms", "5"]).unwrap();
        assert!(text.contains("over 1/1 node(s)"), "{text}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&spanless).unwrap();
        std::fs::remove_file(&short).unwrap();
    }

    #[test]
    fn sweep_outputs_five_rows() {
        let text = run_cmd(&["sweep", "--profile", "small"]).unwrap();
        assert!(text.contains("100KB"));
        assert!(text.contains("1GB"));
        assert_eq!(text.lines().count(), 7); // header + rule + 5 sizes
    }

    #[test]
    fn analyze_reports_workload_properties() {
        let text = run_cmd(&["analyze", "--profile", "small", "--aggregate", "1MB"]).unwrap();
        assert!(text.contains("zipf alpha"));
        assert!(text.contains("Belady-MIN"));
        assert!(text.contains("cross-client"));
    }

    #[test]
    fn import_converts_a_squid_log() {
        let dir = std::env::temp_dir().join("coopcache_cli_import");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("access.log");
        std::fs::write(
            &log,
            "894395924.192 10 h1 TCP_MISS/200 3448 GET http://x/a - D/x t\n\
             894395925.000 10 h2 TCP_HIT/200 3448 GET http://x/a - N/- t\n",
        )
        .unwrap();
        let out_path = dir.join("imported.trace");
        let text = run_cmd(&[
            "import",
            "--log",
            log.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("imported 2 records"), "{text}");
        // The imported trace is simulate-able.
        let text = run_cmd(&["simulate", "--trace", out_path.to_str().unwrap()]).unwrap();
        assert!(text.contains("hit rate %"));
        std::fs::remove_file(log).unwrap();
        std::fs::remove_file(out_path).unwrap();
    }

    #[test]
    fn serve_streams_events_that_trace_and_status_replay() {
        let dir = std::env::temp_dir().join("coopcache_cli_serve_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_s = path.to_str().unwrap();
        let argv = [
            "serve",
            "--caches",
            "2",
            "--requests",
            "40",
            "--events",
            path_s,
        ];
        let text = run_cmd(&argv).unwrap();
        assert!(text.contains("served 40 requests"), "{text}");
        assert!(text.contains("doc endpoints: "), "{text}");
        // The shutdown summary surfaces per-source latency and quarantine.
        assert!(text.contains("daemon 0: local p50="), "{text}");
        assert!(text.contains("quarantined: none"), "{text}");
        assert!(text.contains("shut down cleanly"), "{text}");
        assert!(text.contains("events to"), "{text}");

        // The full stream assembles into one tree per request.
        let text = run_cmd(&["trace", "--events", path_s]).unwrap();
        assert!(text.contains("trace "), "{text}");
        assert!(text.contains("request"), "{text}");
        assert!(text.contains("status="), "{text}");

        // Selecting by request seq narrows to the matching trees, and
        // --times appends offsets.
        let text = run_cmd(&["trace", "--events", path_s, "--seq", "0"]).unwrap();
        assert!(text.starts_with("trace "), "{text}");
        let timed =
            run_cmd(&["trace", "--events", path_s, "--seq", "0", "--times", "true"]).unwrap();
        assert!(timed.contains("us"), "{timed}");

        // Selecting the rendered id directly returns the same tree.
        let first_id = text.split_whitespace().nth(1).unwrap().to_string();
        let by_id = run_cmd(&["trace", "--events", path_s, "--id", &first_id]).unwrap();
        assert!(text.starts_with(&by_id), "{text}");

        // The same stream replays into a status frame, byte-identically.
        // Replayed series carry no gauges, so the occupancy columns stay
        // out; an unsatisfiable hit-rate floor fires on both nodes.
        let status = |json: &str| {
            let rules = ["--rules", "hit-rate:1001", "--for", "1", "--json", json];
            let argv = [
                &["status", "--replay", path_s, "--interval-ms", "1"][..],
                &rules,
            ]
            .concat();
            run_cmd(&argv).unwrap()
        };
        let text = status("false");
        assert!(
            text.contains("req/s") && !text.contains("used_kb"),
            "{text}"
        );
        assert!(text.contains("FIRING hit-rate below 1001"), "{text}");
        assert!(text.contains("over 2/2 node(s): 2 firing"), "{text}");
        assert_eq!(text, status("false"), "same file, same text frame");
        let json = status("true");
        assert!(
            json.contains(r#""nodes":[{"addr":null,"cache":0,"#),
            "{json}"
        );
        assert!(
            json.contains(r#""firing":1,"series":{"cache":1,"#),
            "{json}"
        );
        assert_eq!(json, status("true"), "same file, same JSON frame");
        std::fs::remove_file(&path).unwrap();
    }

    /// A `simulate --events` stream carries the synchronous group's span
    /// trees, so `trace` renders one per request.
    #[test]
    fn trace_renders_a_simulate_stream() {
        let dir = std::env::temp_dir().join("coopcache_cli_trace_simulate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("simulate.jsonl");
        let path_s = path.to_str().unwrap();
        run_cmd(&["simulate", "--profile", "small", "--events", path_s]).unwrap();
        let text = run_cmd(&["trace", "--events", path_s, "--seq", "0"]).unwrap();
        let mut lines = text.lines();
        assert!(
            lines.next().is_some_and(|l| l.starts_with("trace 0 ")),
            "{text}"
        );
        assert!(
            lines
                .next()
                .is_some_and(|l| l.starts_with("`- request cache=")),
            "{text}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_flag_validation() {
        assert!(run_cmd(&["trace"]).is_err(), "--events required");
        assert!(run_cmd(&["trace", "--events", "/nonexistent/x"]).is_err());
        let dir = std::env::temp_dir().join("coopcache_cli_trace_flags");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let path_s = path.to_str().unwrap();
        assert!(run_cmd(&["trace", "--events", path_s]).is_err(), "no spans");
        assert!(run_cmd(&["trace", "--events", path_s, "--id", "1", "--seq", "1"]).is_err());
        assert!(run_cmd(&["trace", "--events", path_s, "--id", "zz"]).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn serve_surfaces_event_sink_write_failures() {
        // /dev/full accepts the open and fails every flush with ENOSPC:
        // exactly the truncated---events-file case the exit code must
        // reflect. (Linux-only device, like the rest of the loopback suite.)
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let e = run_cmd(&[
            "serve",
            "--caches",
            "1",
            "--requests",
            "30",
            "--events",
            "/dev/full",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("/dev/full"), "{e}");
        assert!(e.to_string().contains("write failed"), "{e}");
    }

    #[test]
    fn serve_survives_chaos_and_a_killed_daemon() {
        // run_cmd returning Ok is the guarantee under test: every request
        // succeeded despite injected faults and a daemon killed mid-run.
        let text = run_cmd(&[
            "serve",
            "--caches",
            "3",
            "--requests",
            "60",
            "--chaos",
            "7",
            "--kill-after",
            "30",
        ])
        .unwrap();
        assert!(text.contains("chaos on (seed 7)"));
        assert!(text.contains("killed daemon 2 after 30 requests"));
        assert!(text.contains("served 60 requests"));
        assert!(text.contains("0 client errors"));
        assert!(text.contains("shut down cleanly"));
    }
}
