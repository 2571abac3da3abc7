//! The `coopcache` subcommands, written against a generic writer so every
//! command is testable without spawning a process.

use crate::args::{
    parse_discovery, parse_policy, parse_profile, parse_scheme, parse_size, ArgError, ParsedArgs,
};
use coopcache_metrics::{pct, Table};
use coopcache_net::{ClusterConfig, FaultKind, FaultMode, FaultPlan, LoopbackCluster};
use coopcache_obs::{
    parse_json, Event, EventKind, EventSink, JsonValue, JsonlSink, SeriesRing, SinkHandle, Tally,
};
use coopcache_sim::{capacity_sweep, run, run_with_sink, SimConfig, PAPER_CACHE_SIZES};
use coopcache_trace::{generate, read_trace, write_trace, Rng, Trace, TraceProfile};
use coopcache_types::{ByteSize, CacheId, DocId, DurationMs};
use std::io::Write;

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
    stats     print aggregate statistics of a trace, or scrape daemons
                --trace PATH | --profile NAME
                --addr HOST:PORT              (scrape OP_STATS from a live daemon)
                --cluster HOST:PORT,...       (scrape many daemons; errors isolated)
                --format table|json|prom      (scrape rendering, default table)
                --timeout-ms N                (scrape timeout, default 2000)
    top       cluster dashboard over per-node time series
                --addrs HOST:PORT,...         (scrape OP_SERIES from live daemons)
                --replay PATH                 (rebuild series offline from JSONL events)
                --once true                   (render one frame, no screen clearing)
                --frames N                    (stop the live view after N frames)
                --refresh-ms N                (live refresh period, default 1000)
                --interval-ms N               (replay sampling interval, default 1000)
                --points N                    (replay ring capacity, default 120)
                --timeout-ms N                (scrape timeout, default 2000)
                --json true                   (emit the rings as JSON; needs
                                               --once true or --replay)
    health    evaluate SLO alert rules against live daemons' series
                --addrs HOST:PORT,...         (required; errors isolated per node)
                --hit-floor PERMILLE          (hit-rate floor rule)
                --p99-ceiling US              (p99 latency ceiling rule)
                --quarantine-max N            (quarantined-peer ceiling rule)
                --shed-ceiling PERMILLE       (admission-shed ceiling rule)
                --for N                       (burn windows per rule, default 3)
                --json true                   (machine-readable report)
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
                --events PATH                 (stream events as JSONL)
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
        "top" => cmd_top(args, out),
        "health" => cmd_health(args, out),
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

fn write_out<W: Write>(out: &mut W, text: impl AsRef<str>) -> Result<(), ArgError> {
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
    if let Some(seed) = args.get("seed") {
        profile = profile.with_seed(
            seed.parse()
                .map_err(|e| ArgError(format!("--seed {seed:?}: {e}")))?,
        );
    }
    if let Some(requests) = args.get("requests") {
        profile = profile.with_requests(
            requests
                .parse()
                .map_err(|e| ArgError(format!("--requests {requests:?}: {e}")))?,
        );
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
    if args.get("cluster").is_some() {
        return cmd_stats_cluster(args, out);
    }
    if args.get("addr").is_some() {
        return cmd_stats_scrape(args, out);
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

/// The `stats --addr` path: one `OP_STATS` request to a live daemon's
/// document port, rendered as a table, raw JSON, or Prometheus text.
fn cmd_stats_scrape<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use std::net::SocketAddr;
    use std::time::Duration;
    args.expect_only(&["addr", "format", "timeout-ms"])?;
    let raw = args.get("addr").expect("checked by cmd_stats");
    let addr: SocketAddr = raw
        .parse()
        .map_err(|e| ArgError(format!("--addr {raw:?}: {e}")))?;
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 2_000u64)?);
    let format = args.get("format").unwrap_or("table");
    if !["table", "json", "prom"].contains(&format) {
        return Err(ArgError(format!(
            "unknown format {format:?} (table, json, prom)"
        )));
    }
    let body = coopcache_net::scrape_stats(addr, timeout)
        .map_err(|e| ArgError(format!("scrape of {addr} failed: {e}")))?;
    match format {
        "json" => {
            write_out(out, &body)?;
            write_out(out, "\n")
        }
        "prom" => write_out(out, stats_prometheus(&body)?),
        _ => write_out(out, stats_table(&body)?),
    }
}

fn parse_stats_body(body: &str) -> Result<JsonValue, ArgError> {
    parse_json(body).map_err(|e| ArgError(format!("malformed stats body: {e}")))
}

fn stats_cache_id(v: &JsonValue) -> Result<u64, ArgError> {
    v.get("cache")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| ArgError("stats body has no cache id".into()))
}

/// Renders an `OP_STATS` body as a two-column table: non-zero event
/// counters, per-source latency quantiles, quarantine and occupancy.
fn stats_table(body: &str) -> Result<String, ArgError> {
    let v = parse_stats_body(body)?;
    let mut table = Table::new(vec!["field", "value"]);
    table.row(vec!["cache".into(), stats_cache_id(&v)?.to_string()]);
    if let Some(counters) = v.get("counters").and_then(JsonValue::as_object) {
        for (kind, n) in counters {
            let n = n.as_u64().unwrap_or(0);
            if n > 0 {
                table.row(vec![format!("events.{kind}"), n.to_string()]);
            }
        }
    }
    if let Some(latency) = v.get("latency").and_then(JsonValue::as_object) {
        for (source, snap) in latency {
            let g = |key: &str| snap.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            table.row(vec![
                format!("latency.{source}"),
                format!(
                    "p50={}us p99={}us max={}us (n={})",
                    g("p50_us"),
                    g("p99_us"),
                    g("max_us"),
                    g("count")
                ),
            ]);
        }
    }
    let quarantined = v
        .get("quarantined")
        .and_then(JsonValue::as_array)
        .map_or_else(String::new, |ids| {
            ids.iter()
                .filter_map(JsonValue::as_u64)
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(",")
        });
    table.row(vec![
        "quarantined".into(),
        if quarantined.is_empty() {
            "-".into()
        } else {
            quarantined
        },
    ]);
    if let Some(occ) = v.get("occupancy") {
        let g = |key: &str| occ.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        table.row(vec![
            "occupancy".into(),
            format!(
                "{} docs, {} / {} bytes",
                g("docs"),
                g("used_bytes"),
                g("capacity_bytes")
            ),
        ]);
    }
    table.row(vec![
        "expiration age (ms)".into(),
        v.get("expiration_age_ms")
            .and_then(JsonValue::as_u64)
            .map_or("-".into(), |ms| ms.to_string()),
    ]);
    Ok(table.to_string())
}

/// Renders an `OP_STATS` body in the Prometheus text exposition format —
/// counters keep their zero series so scrapes produce stable label sets.
fn stats_prometheus(body: &str) -> Result<String, ArgError> {
    use std::fmt::Write as _;
    let v = parse_stats_body(body)?;
    let cache = stats_cache_id(&v)?;
    let mut out = String::new();
    out.push_str("# TYPE coopcache_events_total counter\n");
    if let Some(counters) = v.get("counters").and_then(JsonValue::as_object) {
        for (kind, n) in counters {
            let n = n.as_u64().unwrap_or(0);
            let _ = writeln!(
                out,
                "coopcache_events_total{{cache=\"{cache}\",kind=\"{kind}\"}} {n}"
            );
        }
    }
    out.push_str("# TYPE coopcache_latency_us gauge\n");
    if let Some(latency) = v.get("latency").and_then(JsonValue::as_object) {
        for (source, snap) in latency {
            for stat in ["p50", "p90", "p99", "max"] {
                let n = snap
                    .get(&format!("{stat}_us"))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                let _ = writeln!(
                    out,
                    "coopcache_latency_us{{cache=\"{cache}\",source=\"{source}\",stat=\"{stat}\"}} {n}"
                );
            }
            let n = snap.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
            let _ = writeln!(
                out,
                "coopcache_latency_samples_total{{cache=\"{cache}\",source=\"{source}\"}} {n}"
            );
        }
    }
    let quarantined = v
        .get("quarantined")
        .and_then(JsonValue::as_array)
        .map_or(0, <[JsonValue]>::len);
    let _ = writeln!(
        out,
        "coopcache_quarantined_peers{{cache=\"{cache}\"}} {quarantined}"
    );
    if let Some(occ) = v.get("occupancy") {
        let g = |key: &str| occ.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "coopcache_cache_docs{{cache=\"{cache}\"}} {}",
            g("docs")
        );
        let _ = writeln!(
            out,
            "coopcache_cache_used_bytes{{cache=\"{cache}\"}} {}",
            g("used_bytes")
        );
        let _ = writeln!(
            out,
            "coopcache_cache_capacity_bytes{{cache=\"{cache}\"}} {}",
            g("capacity_bytes")
        );
    }
    if let Some(ms) = v.get("expiration_age_ms").and_then(JsonValue::as_u64) {
        let _ = writeln!(out, "coopcache_expiration_age_ms{{cache=\"{cache}\"}} {ms}");
    }
    Ok(out)
}

/// Parses a comma-separated daemon address list.
fn parse_addrs(raw: &str) -> Result<Vec<std::net::SocketAddr>, ArgError> {
    let addrs = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|e| ArgError(format!("bad address {s:?}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if addrs.is_empty() {
        return Err(ArgError("expected HOST:PORT[,HOST:PORT...]".into()));
    }
    Ok(addrs)
}

/// The `stats --cluster` path: one `OP_STATS` scrape per daemon with
/// per-node error isolation — an unreachable or refusing daemon gets an
/// error row and the rest of the scrape proceeds.
fn cmd_stats_cluster<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use std::time::Duration;
    args.expect_only(&["cluster", "timeout-ms"])?;
    let addrs = parse_addrs(args.get("cluster").expect("checked by cmd_stats"))?;
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 2_000u64)?);
    let mut table = Table::new(vec![
        "node",
        "status",
        "requests",
        "docs",
        "used_bytes",
        "ea_ms",
        "quar",
    ]);
    let mut reached = 0usize;
    for addr in &addrs {
        let scraped = coopcache_net::scrape_stats(*addr, timeout)
            .map_err(|e| e.to_string())
            .and_then(|body| parse_stats_body(&body).map_err(|e| e.to_string()));
        match scraped {
            Ok(v) => {
                reached += 1;
                let requests = v
                    .get("counters")
                    .and_then(|c| c.get("request"))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                let occ = |key: &str| {
                    v.get("occupancy")
                        .and_then(|o| o.get(key))
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0)
                };
                table.row(vec![
                    addr.to_string(),
                    v.get("cache")
                        .and_then(JsonValue::as_u64)
                        .map_or_else(|| "cache ?".into(), |id| format!("cache {id}")),
                    requests.to_string(),
                    occ("docs").to_string(),
                    occ("used_bytes").to_string(),
                    v.get("expiration_age_ms")
                        .and_then(JsonValue::as_u64)
                        .map_or("-".into(), |ms| ms.to_string()),
                    v.get("quarantined")
                        .and_then(JsonValue::as_array)
                        .map_or(0, <[JsonValue]>::len)
                        .to_string(),
                ]);
            }
            Err(e) => {
                let dash = || "-".to_owned();
                table.row(vec![
                    addr.to_string(),
                    format!("error: {e}"),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                ]);
            }
        }
    }
    write_out(out, table.to_string())?;
    write_out(out, format!("scraped {reached}/{} daemons\n", addrs.len()))
}

/// Scrapes one `OP_SERIES` ring per daemon, isolating per-node failures
/// into error strings so a dead node never hides the live ones.
fn scrape_rings(
    addrs: &[std::net::SocketAddr],
    timeout: std::time::Duration,
) -> (Vec<SeriesRing>, Vec<String>) {
    let mut rings = Vec::new();
    let mut errors = Vec::new();
    for addr in addrs {
        match coopcache_net::scrape_series(*addr, timeout)
            .map_err(|e| e.to_string())
            .and_then(|body| SeriesRing::from_json(&body).map_err(|e| e.to_string()))
        {
            Ok(ring) => rings.push(ring),
            Err(e) => errors.push(format!("node {addr}: {e}")),
        }
    }
    (rings, errors)
}

/// Renders scraped rings (each already a deterministic JSON document)
/// plus any per-node scrape errors as one JSON object — the `--json`
/// form of `top --once` and the replay view.
fn rings_json(rings: &[SeriesRing], errors: &[String]) -> String {
    let mut text = String::from("{\"rings\":[");
    for (i, ring) in rings.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&ring.to_json());
    }
    text.push_str("],\"errors\":[");
    for (i, e) in errors.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push('"');
        coopcache_obs::escape_into(&mut text, e);
        text.push('"');
    }
    text.push_str("]}\n");
    text
}

/// Assembles the rule set the `health` subcommand evaluates from its
/// threshold flags. Flagless invocations get a permissive default set so
/// the cluster view still renders per-rule state.
fn health_rules(args: &ParsedArgs) -> Result<Vec<coopcache_obs::AlertRule>, ArgError> {
    use coopcache_obs::AlertRule;
    let for_windows: u32 = args.get_or("for", 3u32)?;
    let mut rules = Vec::new();
    if let Some(raw) = args.get("hit-floor") {
        rules.push(AlertRule::hit_rate_floor(
            raw.parse()
                .map_err(|e| ArgError(format!("--hit-floor {raw:?}: {e}")))?,
            for_windows,
        ));
    }
    if let Some(raw) = args.get("p99-ceiling") {
        rules.push(AlertRule::p99_ceiling(
            raw.parse()
                .map_err(|e| ArgError(format!("--p99-ceiling {raw:?}: {e}")))?,
            for_windows,
        ));
    }
    if let Some(raw) = args.get("quarantine-max") {
        rules.push(AlertRule::quarantine_ceiling(
            raw.parse()
                .map_err(|e| ArgError(format!("--quarantine-max {raw:?}: {e}")))?,
            for_windows,
        ));
    }
    if let Some(raw) = args.get("shed-ceiling") {
        rules.push(AlertRule::shed_rate_ceiling(
            raw.parse()
                .map_err(|e| ArgError(format!("--shed-ceiling {raw:?}: {e}")))?,
            for_windows,
        ));
    }
    if rules.is_empty() {
        // No thresholds given: watch for any quarantined peer and a
        // collapsed hit rate, the two "the cluster is degrading" smells.
        rules.push(AlertRule::quarantine_ceiling(0, for_windows));
        rules.push(AlertRule::hit_rate_floor(1, for_windows));
    }
    Ok(rules)
}

/// The `health` subcommand: scrapes each daemon's `OP_SERIES` ring and
/// replays the rule set through a client-side [`coopcache_obs::AlertEngine`],
/// so the view needs nothing from the daemon beyond the series it
/// already serves. Node failures are isolated; the command exits nonzero
/// only when *no* node could be scraped.
fn cmd_health<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use coopcache_obs::{AlertEngine, AlertRule, AlertState};
    use std::time::Duration;
    args.expect_only(&[
        "addrs",
        "hit-floor",
        "p99-ceiling",
        "quarantine-max",
        "shed-ceiling",
        "for",
        "json",
        "timeout-ms",
    ])?;
    let addrs = parse_addrs(
        args.get("addrs")
            .ok_or_else(|| ArgError("health requires --addrs HOST:PORT,...".into()))?,
    )?;
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 2_000u64)?);
    let json = parse_bool("json", args.get("json").unwrap_or("false"))?;
    let rules = health_rules(args)?;

    struct NodeHealth {
        addr: std::net::SocketAddr,
        scraped: Result<(SeriesRing, Vec<Event>), String>,
    }
    let nodes: Vec<NodeHealth> = addrs
        .iter()
        .map(|addr| NodeHealth {
            addr: *addr,
            scraped: coopcache_net::scrape_series(*addr, timeout)
                .map_err(|e| e.to_string())
                .and_then(|body| SeriesRing::from_json(&body).map_err(|e| e.to_string()))
                .map(|ring| {
                    let transitions = AlertEngine::replay(&ring, rules.clone());
                    (ring, transitions)
                }),
        })
        .collect();
    if nodes.iter().all(|n| n.scraped.is_err()) {
        let first = nodes
            .iter()
            .find_map(|n| n.scraped.as_ref().err().cloned())
            .unwrap_or_default();
        return Err(ArgError(format!("no node reachable ({first})")));
    }

    // The final state of each rule is the last transition it emitted
    // (transitions-only streams make "currently firing" a fold).
    let firing_now = |transitions: &[Event]| -> Vec<AlertRule> {
        rules
            .iter()
            .filter(|rule| {
                let last = transitions.iter().rev().find_map(|t| match *t {
                    Event::Alert {
                        metric,
                        op,
                        threshold,
                        state,
                        ..
                    } if (metric, op, threshold) == (rule.metric, rule.op, rule.threshold) => {
                        Some(state)
                    }
                    _ => None,
                });
                last == Some(AlertState::Firing)
            })
            .copied()
            .collect()
    };

    if json {
        let mut w = coopcache_obs::JsonWriter::new();
        w.begin_object();
        w.key("rules");
        w.begin_array();
        for rule in &rules {
            w.begin_object();
            w.key("metric");
            w.string(rule.metric.name());
            w.key("op");
            w.string(rule.op.name());
            w.key("threshold");
            w.u64(rule.threshold);
            w.key("for_windows");
            w.u64(u64::from(rule.for_windows));
            w.end_object();
        }
        w.end_array();
        w.key("nodes");
        w.begin_array();
        for node in &nodes {
            w.begin_object();
            w.key("addr");
            w.string(&node.addr.to_string());
            match &node.scraped {
                Err(e) => {
                    w.key("error");
                    w.string(e);
                }
                Ok((ring, transitions)) => {
                    w.key("cache");
                    w.u64(u64::from(ring.cache().as_u16()));
                    let last = ring.points().last();
                    w.key("requests");
                    w.u64(last.map_or(0, |p| p.counters[EventKind::Request.index()]));
                    w.key("hit_permille");
                    w.opt_u64(last.and_then(|p| {
                        let requests = p.counters[EventKind::Request.index()];
                        let hits = p.local_hits + p.remote_hits;
                        (requests > 0).then(|| hits * 1_000 / requests)
                    }));
                    w.key("p99_us");
                    w.opt_u64(last.and_then(|p| p.latency.map(|l| l.p99)));
                    w.key("quarantined");
                    w.u64(last.map_or(0, |p| p.quarantined));
                    w.key("alerts");
                    w.begin_array();
                    for t in transitions {
                        let Event::Alert {
                            metric,
                            op,
                            threshold,
                            value,
                            windows,
                            state,
                            ..
                        } = *t
                        else {
                            continue;
                        };
                        w.begin_object();
                        w.key("metric");
                        w.string(metric.name());
                        w.key("op");
                        w.string(op.name());
                        w.key("threshold");
                        w.u64(threshold);
                        w.key("value");
                        w.u64(value);
                        w.key("windows");
                        w.u64(windows);
                        w.key("state");
                        w.string(state.name());
                        w.end_object();
                    }
                    w.end_array();
                    w.key("firing");
                    w.u64(firing_now(transitions).len() as u64);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut text = w.finish();
        text.push('\n');
        return write_out(out, text);
    }

    let mut table = Table::new(vec![
        "node", "status", "req", "hit ‰", "p99 us", "quar", "alerts",
    ]);
    let mut cluster_firing = 0usize;
    for node in &nodes {
        match &node.scraped {
            Err(e) => {
                table.row(vec![
                    node.addr.to_string(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Ok((ring, transitions)) => {
                let firing = firing_now(transitions);
                cluster_firing += firing.len();
                let last = ring.points().last();
                let requests = last.map_or(0, |p| p.counters[EventKind::Request.index()]);
                let hits = last.map_or(0, |p| p.local_hits + p.remote_hits);
                let alerts = if firing.is_empty() {
                    "-".into()
                } else {
                    firing
                        .iter()
                        .map(|f| format!("{} {} {}", f.metric.name(), f.op.name(), f.threshold))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                table.row(vec![
                    format!("{} (cache {})", node.addr, ring.cache().as_u16()),
                    if firing.is_empty() { "ok" } else { "FIRING" }.into(),
                    requests.to_string(),
                    (hits * 1_000)
                        .checked_div(requests)
                        .map_or_else(|| "-".into(), |permille| permille.to_string()),
                    last.and_then(|p| p.latency.map(|l| l.p99.to_string()))
                        .unwrap_or_else(|| "-".into()),
                    last.map_or(0, |p| p.quarantined).to_string(),
                    alerts,
                ]);
            }
        }
    }
    write_out(out, table.to_string())?;
    let reached = nodes.iter().filter(|n| n.scraped.is_ok()).count();
    write_out(
        out,
        format!(
            "{} rule(s) over {reached}/{} node(s): {cluster_firing} firing\n",
            rules.len(),
            nodes.len(),
        ),
    )
}

/// The `top` subcommand: a cluster dashboard over per-node series rings,
/// either scraped live over `OP_SERIES` or rebuilt offline from a JSONL
/// event stream. The replay path is a pure function of the file bytes,
/// so the same file always renders byte-identically.
fn cmd_top<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use std::time::Duration;
    args.expect_only(&[
        "addrs",
        "replay",
        "once",
        "frames",
        "refresh-ms",
        "interval-ms",
        "points",
        "timeout-ms",
        "json",
    ])?;
    let json = parse_bool("json", args.get("json").unwrap_or("false"))?;
    if let Some(path) = args.get("replay") {
        if args.get("addrs").is_some() {
            return Err(ArgError("pass --addrs or --replay, not both".into()));
        }
        let interval_ms = args.get_or("interval-ms", 1_000u64)?;
        let points = args.get_or("points", coopcache_obs::DEFAULT_SERIES_CAPACITY)?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let mut replayer = coopcache_obs::SeriesReplayer::new(interval_ms, points);
        replayer
            .observe_jsonl(&text)
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        let rings = replayer.finish();
        if rings.is_empty() {
            return Err(ArgError(format!("no node events in {path}")));
        }
        if json {
            return write_out(out, rings_json(&rings, &[]));
        }
        // Replayed series carry no gauges (occupancy is not in the
        // event stream), so the lean column set is rendered.
        return write_out(out, coopcache_obs::render_top(&rings, false));
    }
    let addrs =
        parse_addrs(args.get("addrs").ok_or_else(|| {
            ArgError("top requires --addrs HOST:PORT,... or --replay PATH".into())
        })?)?;
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 2_000u64)?);
    let once = parse_bool("once", args.get("once").unwrap_or("false"))?;
    if json && !once {
        return Err(ArgError(
            "top --json needs --once true or --replay PATH".into(),
        ));
    }
    let frames: u64 = args.get_or("frames", 0u64)?;
    let refresh = Duration::from_millis(args.get_or("refresh-ms", 1_000u64)?);
    let mut frame = 0u64;
    loop {
        let (rings, errors) = scrape_rings(&addrs, timeout);
        if json {
            return write_out(out, rings_json(&rings, &errors));
        }
        let mut text = String::new();
        if !once {
            // Clear + home, like top(1), so each frame overdraws the last.
            text.push_str("\x1b[2J\x1b[H");
        }
        text.push_str(&coopcache_obs::render_top(&rings, true));
        for e in &errors {
            text.push_str(e);
            text.push('\n');
        }
        write_out(out, text)?;
        out.flush()
            .map_err(|e| ArgError(format!("write failed: {e}")))?;
        frame += 1;
        if once || (frames > 0 && frame >= frames) {
            return Ok(());
        }
        std::thread::sleep(refresh);
    }
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
    let with_times = parse_bool("times", args.get("times").unwrap_or("false"))?;
    match (args.get("id"), args.get("seq")) {
        (Some(_), Some(_)) => Err(ArgError("pass --id or --seq, not both".into())),
        (Some(raw), None) => {
            let id = parse_trace_id(raw)?;
            let rendered = assembler
                .render(id, with_times)
                .ok_or_else(|| ArgError(format!("no trace {raw} in {path}")))?;
            write_out(out, rendered)
        }
        (None, Some(raw)) => {
            let seq: u64 = raw
                .parse()
                .map_err(|e| ArgError(format!("--seq {raw:?}: {e}")))?;
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

fn parse_bool(flag: &str, value: &str) -> Result<bool, ArgError> {
    match value {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        other => Err(ArgError(format!(
            "--{flag} {other:?}: expected true or false"
        ))),
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
    let trace = load_trace(args)?;
    let aggregate = parse_size(args.get("aggregate").unwrap_or("10MB"))?;
    let mut cfg = SimConfig::new(aggregate)
        .with_group_size(args.get_or("caches", 4u16)?)
        .with_scheme(parse_scheme(args.get("scheme").unwrap_or("ea"))?)
        .with_policy(parse_policy(args.get("policy").unwrap_or("lru"))?)
        .with_discovery(parse_discovery(args.get("discovery").unwrap_or("icp"))?);
    if let Some(ttl) = args.get("ttl") {
        cfg = cfg.with_ttl(DurationMs::from_secs(
            ttl.parse()
                .map_err(|e| ArgError(format!("--ttl {ttl:?}: {e}")))?,
        ));
    }
    let warmup = args.get_or("warmup", 0.0f64)?;
    if !(0.0..1.0).contains(&warmup) {
        return Err(ArgError("--warmup must be in [0, 1)".into()));
    }
    cfg = cfg.with_warmup_fraction(warmup);

    let events_path = args.get("events");
    let want_summary = parse_bool(
        "event-summary",
        args.get("event-summary").unwrap_or("false"),
    )?;
    let (report, sink) = if events_path.is_some() || want_summary {
        let jsonl = events_path
            .map(|path| {
                let file = std::fs::File::create(path)
                    .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
                Ok::<_, ArgError>(JsonlSink::new(std::io::BufWriter::new(file)))
            })
            .transpose()?;
        let sink = std::sync::Arc::new(std::sync::Mutex::new(SimulateSink {
            jsonl,
            summary: want_summary.then(Tally::new),
        }));
        let handle = SinkHandle::from_arc(std::sync::Arc::clone(&sink));
        let report = run_with_sink(&cfg, &trace, Some(handle));
        // The runner's group is gone, so ours is the last handle.
        let sink = std::sync::Arc::try_unwrap(sink)
            .map_err(|_| ArgError("event sink is still shared after the run".into()))?
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (report, Some(sink))
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
    let trace = load_trace(args)?;
    let base = SimConfig::new(ByteSize::ZERO).with_group_size(args.get_or("caches", 4u16)?);
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

/// The `--chaos` fault mix: a bit of every fault class, spread over the
/// non-zero daemons, all drawn from one seed.
fn chaos_plan(seed: u64, caches: u16) -> FaultPlan {
    let c = |i: u16| CacheId::new(i % caches);
    FaultPlan::seeded(seed)
        .rule(c(1), FaultKind::DropIcpReply, FaultMode::Probability(25))
        .rule(c(1), FaultKind::TruncateDocBody, FaultMode::Probability(25))
        .rule(c(2), FaultKind::RefuseDoc, FaultMode::Probability(25))
        .rule(c(2), FaultKind::ResetDoc, FaultMode::Probability(15))
}

fn cmd_serve<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    use std::sync::{Arc, Mutex};
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
    let caches = args.get_or("caches", 3u16)?;
    let capacity = parse_size(args.get("capacity").unwrap_or("128KB"))?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("ea"))?;
    let requests = args.get_or("requests", 300u64)?;
    let chaos: Option<u64> = args
        .get("chaos")
        .map(|s| {
            s.parse()
                .map_err(|e| ArgError(format!("--chaos {s:?}: {e}")))
        })
        .transpose()?;
    let kill_after: Option<u64> = args
        .get("kill-after")
        .map(|s| {
            s.parse()
                .map_err(|e| ArgError(format!("--kill-after {s:?}: {e}")))
        })
        .transpose()?;
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
        let jsonl = events_path
            .map(|path| {
                let file = std::fs::File::create(path)
                    .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
                Ok::<_, ArgError>(JsonlSink::new(std::io::BufWriter::new(file)))
            })
            .transpose()?;
        let sink = Arc::new(Mutex::new(SimulateSink {
            jsonl,
            summary: Some(Tally::new()),
        }));
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
        let sink = Arc::try_unwrap(sink)
            .map_err(|_| ArgError("event sink is still shared after shutdown".into()))?
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match sink.jsonl.map(JsonlSink::finish) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(argv: &[&str]) -> Result<String, ArgError> {
        let args = ParsedArgs::parse(argv.iter().copied())?;
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("commands emit utf-8"))
    }

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

    #[test]
    fn event_summary_flag_is_validated() {
        assert!(run_cmd(&["simulate", "--event-summary", "maybe"]).is_err());
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
    fn serve_runs_a_live_cluster() {
        let text = run_cmd(&["serve", "--caches", "2", "--requests", "50"]).unwrap();
        assert!(text.contains("served 50 requests"));
        assert!(text.contains("doc endpoints: "));
        // The shutdown summary surfaces per-source latency and quarantine.
        assert!(text.contains("daemon 0: local p50="), "{text}");
        assert!(text.contains("quarantined: none"));
        assert!(text.contains("shut down cleanly"));
    }

    #[test]
    fn serve_streams_events_and_trace_renders_them() {
        let dir = std::env::temp_dir().join("coopcache_cli_serve_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_s = path.to_str().unwrap();
        let text = run_cmd(&[
            "serve",
            "--caches",
            "2",
            "--requests",
            "40",
            "--events",
            path_s,
        ])
        .unwrap();
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
    fn stats_scrapes_a_live_daemon() {
        use coopcache_core::PlacementScheme;
        let cluster =
            LoopbackCluster::start(1, ByteSize::from_kb(64), PlacementScheme::Ea).unwrap();
        cluster
            .request(0, DocId::new(1), ByteSize::from_kb(1))
            .unwrap();
        let addr = cluster.doc_addrs()[0].to_string();

        let table = run_cmd(&["stats", "--addr", &addr]).unwrap();
        assert!(table.contains("events.request"), "{table}");
        assert!(table.contains("latency.origin"), "{table}");
        assert!(table.contains("quarantined"), "{table}");

        let json = run_cmd(&["stats", "--addr", &addr, "--format", "json"]).unwrap();
        assert!(json.starts_with("{\"cache\":0,"), "{json}");

        let prom = run_cmd(&["stats", "--addr", &addr, "--format", "prom"]).unwrap();
        assert!(
            prom.contains("coopcache_events_total{cache=\"0\",kind=\"request\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("coopcache_quarantined_peers{cache=\"0\"} 0"),
            "{prom}"
        );
        cluster.shutdown();
    }

    #[test]
    fn stats_scrape_flag_validation() {
        assert!(run_cmd(&["stats", "--addr", "not-an-addr"]).is_err());
        // An unreachable daemon is a clean error, not a hang: port 1 on
        // localhost is never listening.
        let e = run_cmd(&["stats", "--addr", "127.0.0.1:1", "--timeout-ms", "200"]).unwrap_err();
        assert!(e.to_string().contains("scrape of"), "{e}");
        assert!(run_cmd(&["stats", "--addr", "127.0.0.1:1", "--format", "xml"]).is_err());
    }

    #[test]
    fn top_scrapes_a_live_cluster_and_isolates_dead_nodes() {
        use coopcache_core::PlacementScheme;
        let cluster =
            LoopbackCluster::start(2, ByteSize::from_kb(64), PlacementScheme::Ea).unwrap();
        for i in 0..6u64 {
            cluster
                .request(
                    (i % 2) as usize,
                    DocId::new(i % 3 + 1),
                    ByteSize::from_kb(1),
                )
                .unwrap();
        }
        for idx in 0..cluster.len() {
            cluster.daemon(idx).sample_now();
        }
        let addrs = cluster
            .doc_addrs()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let text = run_cmd(&["top", "--addrs", &addrs, "--once", "true"]).unwrap();
        assert!(text.contains("series: 2 node(s)"), "{text}");
        assert!(text.contains("req/s"), "{text}");
        assert!(text.contains("group"), "{text}");
        assert!(
            !text.contains("\x1b[2J"),
            "--once must not clear the screen"
        );

        // A bounded live view clears between frames instead.
        let live = run_cmd(&[
            "top",
            "--addrs",
            &addrs,
            "--frames",
            "2",
            "--refresh-ms",
            "10",
        ])
        .unwrap();
        assert_eq!(live.matches("\x1b[2J").count(), 2, "{live:?}");

        // A dead node is an error line, not an abort: port 1 is closed.
        let mixed = format!("{addrs},127.0.0.1:1");
        let text = run_cmd(&[
            "top",
            "--addrs",
            &mixed,
            "--once",
            "true",
            "--timeout-ms",
            "200",
        ])
        .unwrap();
        assert!(text.contains("series: 2 node(s)"), "{text}");
        assert!(text.contains("node 127.0.0.1:1:"), "{text}");
        cluster.shutdown();
    }

    #[test]
    fn top_replays_an_event_stream_byte_identically() {
        let dir = std::env::temp_dir().join("coopcache_cli_top_replay");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_s = path.to_str().unwrap();
        run_cmd(&[
            "serve",
            "--caches",
            "2",
            "--requests",
            "40",
            "--events",
            path_s,
        ])
        .unwrap();
        let replay = |interval: &str| {
            run_cmd(&["top", "--replay", path_s, "--interval-ms", interval]).unwrap()
        };
        let a = replay("50");
        assert!(a.contains("req/s"), "{a}");
        assert!(a.contains("group"), "{a}");
        // Replayed series carry no gauges, so the occupancy columns stay
        // out of the lean rendering.
        assert!(!a.contains("used_kb"), "{a}");
        assert_eq!(a, replay("50"), "same file must render byte-identically");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn top_flag_validation() {
        assert!(run_cmd(&["top"]).is_err(), "--addrs or --replay required");
        assert!(run_cmd(&["top", "--addrs", "x", "--replay", "y"]).is_err());
        assert!(run_cmd(&["top", "--addrs", "not-an-addr"]).is_err());
        assert!(run_cmd(&["top", "--replay", "/nonexistent/x"]).is_err());
        assert!(run_cmd(&["top", "--addrs", "127.0.0.1:1", "--once", "maybe"]).is_err());
    }

    #[test]
    fn stats_cluster_scrape_survives_chaos_and_a_killed_daemon() {
        use coopcache_core::PlacementScheme;
        use std::time::Duration;
        // Daemon 1 refuses every document connection; stats probes are
        // exempt by design, so its row must still fill in.
        let config = ClusterConfig::new(3, ByteSize::from_kb(64), PlacementScheme::Ea)
            .faults(FaultPlan::seeded(11).rule(
                CacheId::new(1),
                FaultKind::RefuseDoc,
                FaultMode::Always,
            ))
            .icp_timeout(Duration::from_millis(80));
        let mut cluster = LoopbackCluster::start_with_config(config).unwrap();
        for i in 0..9u64 {
            cluster
                .request(
                    (i % 3) as usize,
                    DocId::new(i % 4 + 1),
                    ByteSize::from_kb(1),
                )
                .unwrap();
        }
        cluster.kill(2);
        let addrs = cluster
            .doc_addrs()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let text = run_cmd(&["stats", "--cluster", &addrs, "--timeout-ms", "500"]).unwrap();
        assert!(text.contains("cache 0"), "{text}");
        assert!(text.contains("cache 1"), "{text}");
        assert!(text.contains("error: "), "{text}");
        assert!(text.contains("scraped 2/3 daemons"), "{text}");
        cluster.shutdown();
    }

    #[test]
    fn stats_cluster_flag_validation() {
        assert!(run_cmd(&["stats", "--cluster", ""]).is_err());
        assert!(run_cmd(&["stats", "--cluster", "nope"]).is_err());
    }

    #[test]
    fn top_once_json_emits_the_scraped_rings() {
        use coopcache_core::PlacementScheme;
        let cluster =
            LoopbackCluster::start(1, ByteSize::from_kb(64), PlacementScheme::Ea).unwrap();
        cluster
            .request(0, DocId::new(1), ByteSize::from_kb(1))
            .unwrap();
        cluster.daemon(0).sample_now();
        let addrs = cluster.doc_addrs()[0].to_string();
        let text =
            run_cmd(&["top", "--addrs", &addrs, "--once", "true", "--json", "true"]).unwrap();
        let v = parse_json(text.trim()).unwrap();
        assert_eq!(
            v.get("rings").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1),
            "{text}"
        );
        assert_eq!(
            v.get("errors")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(0)
        );
        // A live view cannot be JSON: each frame would be a new document.
        assert!(run_cmd(&["top", "--addrs", &addrs, "--json", "true"]).is_err());
        cluster.shutdown();
    }

    #[test]
    fn top_replay_json_is_deterministic() {
        let dir = std::env::temp_dir().join("coopcache_cli_top_replay_json");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_s = path.to_str().unwrap();
        run_cmd(&[
            "serve",
            "--caches",
            "2",
            "--requests",
            "30",
            "--events",
            path_s,
        ])
        .unwrap();
        let replay = || {
            run_cmd(&[
                "top",
                "--replay",
                path_s,
                "--interval-ms",
                "50",
                "--json",
                "true",
            ])
            .unwrap()
        };
        let a = replay();
        let v = parse_json(a.trim()).unwrap();
        assert_eq!(
            v.get("rings").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2),
            "{a}"
        );
        assert_eq!(a, replay(), "same file must replay byte-identically");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn health_evaluates_rules_against_a_live_cluster() {
        use coopcache_core::PlacementScheme;
        let cluster =
            LoopbackCluster::start(2, ByteSize::from_kb(64), PlacementScheme::Ea).unwrap();
        for i in 0..6u64 {
            cluster
                .request(
                    (i % 2) as usize,
                    DocId::new(i % 3 + 1),
                    ByteSize::from_kb(1),
                )
                .unwrap();
        }
        for idx in 0..cluster.len() {
            cluster.daemon(idx).sample_now();
        }
        let addrs = cluster
            .doc_addrs()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");

        // A hit-rate floor above 1000‰ is unsatisfiable, so it must fire.
        let text = run_cmd(&[
            "health",
            "--addrs",
            &addrs,
            "--hit-floor",
            "1001",
            "--for",
            "1",
        ])
        .unwrap();
        assert!(text.contains("FIRING"), "{text}");
        assert!(text.contains("hit-rate below 1001"), "{text}");
        assert!(
            text.contains("1 rule(s) over 2/2 node(s): 2 firing"),
            "{text}"
        );

        // A satisfiable floor stays quiet.
        let ok = run_cmd(&[
            "health",
            "--addrs",
            &addrs,
            "--hit-floor",
            "0",
            "--for",
            "1",
        ])
        .unwrap();
        assert!(ok.contains(": 0 firing"), "{ok}");

        // JSON mode carries the same verdicts, machine-readable.
        let json = run_cmd(&[
            "health",
            "--addrs",
            &addrs,
            "--hit-floor",
            "1001",
            "--for",
            "1",
            "--json",
            "true",
        ])
        .unwrap();
        let v = parse_json(json.trim()).unwrap();
        let nodes = v.get("nodes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(nodes.len(), 2, "{json}");
        for node in nodes {
            assert_eq!(node.get("firing").and_then(JsonValue::as_u64), Some(1));
            assert!(
                !node
                    .get("alerts")
                    .and_then(JsonValue::as_array)
                    .unwrap()
                    .is_empty(),
                "{json}"
            );
        }

        // A dead node is isolated into an error row, not an abort.
        let mixed = format!("{addrs},127.0.0.1:1");
        let text = run_cmd(&["health", "--addrs", &mixed, "--timeout-ms", "200"]).unwrap();
        assert!(text.contains("error: "), "{text}");
        assert!(text.contains("2/3 node(s)"), "{text}");
        cluster.shutdown();

        // All nodes dead is a real failure.
        assert!(run_cmd(&["health", "--addrs", "127.0.0.1:1", "--timeout-ms", "200"]).is_err());
    }

    #[test]
    fn health_flag_validation() {
        assert!(run_cmd(&["health"]).is_err(), "--addrs required");
        assert!(run_cmd(&["health", "--addrs", "not-an-addr"]).is_err());
        assert!(run_cmd(&["health", "--addrs", "127.0.0.1:1", "--json", "maybe"]).is_err());
        assert!(run_cmd(&["health", "--addrs", "127.0.0.1:1", "--hit-floor", "x"]).is_err());
        assert!(run_cmd(&["health", "--addrs", "127.0.0.1:1", "--frames", "1"]).is_err());
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
