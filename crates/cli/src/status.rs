//! The live operator views. `coopcache stats --addr` renders one
//! daemon's `OP_STATS` snapshot; `coopcache status` reads every node's
//! series ring — scraped over `OP_SERIES` or rebuilt from a JSONL event
//! stream — and judges it against SLO rules, in one pass per node:
//! scrape → [`SeriesRing`] → an [`AlertEngine`] fed each point → its
//! firing rules.

use crate::args::{ArgError, ParsedArgs};
use crate::commands::write_out;
use coopcache_metrics::Table;
use coopcache_obs::{
    parse_json, render_top, AlertEngine, AlertMetric, AlertRule, Event, EventKind, JsonValue,
    JsonWriter, SeriesReplayer, SeriesRing, DEFAULT_SERIES_CAPACITY,
};
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

/// The `stats --addr` path: one `OP_STATS` request to a live daemon's
/// document port, rendered as a table, raw JSON, or Prometheus text.
pub(crate) fn cmd_stats_scrape<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
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

/// Escapes a scraped string as a Prometheus label value: the text
/// exposition format escapes backslash, double quote and line feed.
fn prom_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `OP_STATS` body in the Prometheus text exposition format —
/// counters keep their zero series so scrapes produce stable label sets.
/// Counter kinds and latency sources come off the wire, so they are
/// escaped into their label values.
fn stats_prometheus(body: &str) -> Result<String, ArgError> {
    use std::fmt::Write as _;
    let v = parse_stats_body(body)?;
    let cache = stats_cache_id(&v)?;
    let mut out = String::new();
    out.push_str("# TYPE coopcache_events_total counter\n");
    if let Some(counters) = v.get("counters").and_then(JsonValue::as_object) {
        for (kind, n) in counters {
            let (kind, n) = (prom_label(kind), n.as_u64().unwrap_or(0));
            let _ = writeln!(
                out,
                "coopcache_events_total{{cache=\"{cache}\",kind=\"{kind}\"}} {n}"
            );
        }
    }
    out.push_str("# TYPE coopcache_latency_us gauge\n");
    if let Some(latency) = v.get("latency").and_then(JsonValue::as_object) {
        for (source, snap) in latency {
            let source = prom_label(source);
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

/// The rules `status` judges without `--rules`: any quarantined peer,
/// and a collapsed hit rate — the two "the cluster is degrading" smells.
const DEFAULT_RULES: &str = "quarantined:0,hit-rate:1";

/// Where a status frame's rings come from.
enum Source {
    /// One `OP_SERIES` scrape per daemon document address.
    Live(Vec<SocketAddr>, Duration),
    /// Rings rebuilt from a JSONL event stream at a sampling interval: a
    /// pure function of the file bytes, so a file always renders alike.
    Replay(String, u64),
}

/// One node of a frame: its daemon address (none when replayed) and its
/// ring, every alert transition the rules made over it and the rules
/// firing at its last point — or why it could not be read.
struct Node {
    addr: Option<SocketAddr>,
    judged: Result<(SeriesRing, Vec<Event>, Vec<AlertRule>), String>,
}

impl Node {
    fn judge(
        addr: Option<SocketAddr>,
        ring: Result<SeriesRing, String>,
        rules: &[AlertRule],
    ) -> Self {
        let judged = ring.map(|ring| {
            let mut engine = AlertEngine::new(ring.cache(), rules.to_vec());
            let alerts = ring
                .points()
                .iter()
                .flat_map(|p| engine.observe(p))
                .collect();
            (ring, alerts, engine.firing())
        });
        Self { addr, judged }
    }
}

impl Source {
    /// Reads and judges every node, isolating per-node failures so a
    /// dead daemon never hides the live ones.
    fn nodes(&self, rules: &[AlertRule]) -> Result<Vec<Node>, ArgError> {
        match self {
            Self::Live(addrs, timeout) => Ok(addrs
                .iter()
                .map(|&addr| {
                    let ring = coopcache_net::scrape_series(addr, *timeout)
                        .map_err(|e| e.to_string())
                        .and_then(|body| SeriesRing::from_json(&body).map_err(|e| e.to_string()));
                    Node::judge(Some(addr), ring, rules)
                })
                .collect()),
            Self::Replay(path, interval_ms) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
                let mut replayer = SeriesReplayer::new(*interval_ms, DEFAULT_SERIES_CAPACITY);
                replayer
                    .observe_jsonl(&text)
                    .map_err(|e| ArgError(format!("{path}: {e}")))?;
                let clock_ms = replayer.clock_ms();
                let rings = replayer.finish();
                if rings.is_empty() {
                    return Err(ArgError(format!("no node events in {path}")));
                }
                // The replay samples on span end times: a stream that
                // never reaches the first boundary has nothing to show.
                if rings.iter().all(SeriesRing::is_empty) {
                    return Err(ArgError(if clock_ms == 0 {
                        format!(
                            "{path} carries no span times: the replay samples on span end times"
                        )
                    } else {
                        format!(
                            "{path}: the last span ends at {clock_ms} ms, before the first \
                             --interval-ms boundary ({interval_ms} ms): no sample to show"
                        )
                    }));
                }
                Ok(rings
                    .into_iter()
                    .map(|ring| Node::judge(None, Ok(ring), rules))
                    .collect())
            }
        }
    }

    /// Reads every node and renders one frame, as text or `--json`. The
    /// frame fails only when no node could be read.
    fn frame(&self, rules: &[AlertRule], json: bool) -> Result<String, ArgError> {
        let nodes = self.nodes(rules)?;
        if let [Node { judged: Err(e), .. }, ..] = &nodes[..] {
            if nodes.iter().all(|n| n.judged.is_err()) {
                return Err(ArgError(format!("no node reachable ({e})")));
            }
        }
        Ok(if json {
            render_json(&nodes, rules)
        } else {
            // Replayed series carry no gauges (occupancy is not in the
            // event stream), so they get the lean column set.
            render_text(&nodes, rules, matches!(self, Self::Live(..)))
        })
    }
}

/// A ring's latest requests, cumulative hit rate in permille and p99 in
/// µs. The counters come off the network, so the arithmetic saturates.
fn headline(ring: &SeriesRing) -> (u64, Option<u64>, Option<u64>) {
    let Some(p) = ring.points().last() else {
        return (0, None, None);
    };
    let requests = p.counters[EventKind::Request.index()];
    let hits = p.local_hits.saturating_add(p.remote_hits);
    let hit_permille = (requests > 0).then(|| hits.saturating_mul(1_000) / requests);
    (requests, hit_permille, p.latency.map(|l| l.p99))
}

/// The text frame: the `render_top` dashboard, each unreadable node's
/// error, one verdict line per read node, and the summary line.
fn render_text(nodes: &[Node], rules: &[AlertRule], with_gauges: bool) -> String {
    use std::fmt::Write as _;
    let read: Vec<_> = nodes
        .iter()
        .filter_map(|n| Some((n.addr, n.judged.as_ref().ok()?)))
        .collect();
    let rings: Vec<SeriesRing> = read.iter().map(|(_, (ring, ..))| ring.clone()).collect();
    let mut text = render_top(&rings, with_gauges);
    for node in nodes {
        if let (Some(addr), Err(e)) = (node.addr, &node.judged) {
            let _ = writeln!(text, "node {addr}: error: {e}");
        }
    }
    let dash = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
    let mut firing_total = 0;
    for (addr, (ring, _, firing)) in &read {
        firing_total += firing.len();
        let verdict = if firing.is_empty() {
            "ok".to_owned()
        } else {
            let names: Vec<String> = firing
                .iter()
                .map(|r| format!("{} {} {}", r.metric.name(), r.metric.side(), r.threshold))
                .collect();
            format!("FIRING {}", names.join(", "))
        };
        let (requests, hit_permille, p99) = headline(ring);
        let _ = writeln!(
            text,
            "cache {}{}: {verdict}; {requests} req, hit {}‰, p99 {} us",
            ring.cache().as_u16(),
            addr.map_or_else(String::new, |a| format!(" at {a}")),
            dash(hit_permille),
            dash(p99),
        );
    }
    let _ = writeln!(
        text,
        "{} rule(s) over {}/{} node(s): {firing_total} firing",
        rules.len(),
        read.len(),
        nodes.len(),
    );
    text
}

/// Writes the `metric`, `op` and `threshold` keys a rule and its alert
/// transitions share.
fn write_rule_keys(w: &mut JsonWriter, metric: AlertMetric, threshold: u64) {
    w.key("metric");
    w.string(metric.name());
    w.key("op");
    w.string(metric.side());
    w.key("threshold");
    w.u64(threshold);
}

/// The `--json` frame: the rules, then per node its address, its latest
/// counters, every alert transition, its firing-rule count and its ring
/// under `series` (or its error).
fn render_json(nodes: &[Node], rules: &[AlertRule]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("rules");
    w.begin_array();
    for rule in rules {
        w.begin_object();
        write_rule_keys(&mut w, rule.metric, rule.threshold);
        w.key("for_windows");
        w.u64(u64::from(rule.for_windows));
        w.end_object();
    }
    w.end_array();
    w.key("nodes");
    w.begin_array();
    for node in nodes {
        w.begin_object();
        w.key("addr");
        match node.addr {
            Some(addr) => w.string(&addr.to_string()),
            None => w.null(),
        }
        match &node.judged {
            Err(e) => {
                w.key("error");
                w.string(e);
            }
            Ok((ring, alerts, firing)) => {
                let (requests, hit_permille, p99) = headline(ring);
                w.key("cache");
                w.u64(u64::from(ring.cache().as_u16()));
                w.key("requests");
                w.u64(requests);
                w.key("hit_permille");
                w.opt_u64(hit_permille);
                w.key("p99_us");
                w.opt_u64(p99);
                w.key("quarantined");
                w.u64(ring.points().last().map_or(0, |p| p.quarantined));
                w.key("alerts");
                w.begin_array();
                for alert in alerts {
                    if let Event::Alert {
                        metric,
                        threshold,
                        value,
                        windows,
                        state,
                        ..
                    } = *alert
                    {
                        w.begin_object();
                        write_rule_keys(&mut w, metric, threshold);
                        w.key("value");
                        w.u64(value);
                        w.key("windows");
                        w.u64(windows);
                        w.key("state");
                        w.string(state.name());
                        w.end_object();
                    }
                }
                w.end_array();
                w.key("firing");
                w.u64(firing.len() as u64);
                w.key("series");
                ring.write_json(&mut w);
            }
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish() + "\n"
}

/// Parses a comma-separated list with `item`, rejecting an empty one.
fn parse_list<T>(
    flag: &str,
    raw: &str,
    item: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, ArgError> {
    let items = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| item(s).map_err(|e| ArgError(format!("--{flag} {s:?}: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    if items.is_empty() {
        return Err(ArgError(format!(
            "--{flag}: expected a comma-separated list"
        )));
    }
    Ok(items)
}

/// Parses one `METRIC:THRESHOLD` rule. The metric fixes the side of the
/// threshold: the hit rate is a floor, every other metric a ceiling.
fn parse_rule(spec: &str, for_windows: u32) -> Result<AlertRule, String> {
    let (name, threshold) = spec.split_once(':').ok_or("expected METRIC:THRESHOLD")?;
    let rule = match AlertMetric::from_name(name) {
        Some(AlertMetric::HitRate) => AlertRule::hit_rate_floor,
        Some(AlertMetric::P99Latency) => AlertRule::p99_ceiling,
        Some(AlertMetric::Quarantined) => AlertRule::quarantine_ceiling,
        Some(AlertMetric::ShedRate) => AlertRule::shed_rate_ceiling,
        None => {
            return Err("unknown metric (hit-rate, p99-latency, quarantined, shed-rate)".into())
        }
    };
    Ok(rule(
        threshold.parse().map_err(|e| format!("{e}"))?,
        for_windows,
    ))
}

/// Redraws a frame every `every`, clearing the screen first like top(1),
/// until `frames` frames are drawn (`None`: until interrupted). JSON
/// frames are one line each and clear nothing. Each frame reads its
/// source afresh, so a replay follows a growing `serve --events` file.
fn watch<W: Write>(
    source: &Source,
    rules: &[AlertRule],
    json: bool,
    every: Duration,
    frames: Option<u64>,
    out: &mut W,
) -> Result<(), ArgError> {
    for drawn in 1.. {
        let clear = if json { "" } else { "\x1b[2J\x1b[H" };
        write_out(out, format!("{clear}{}", source.frame(rules, json)?))?;
        out.flush()
            .map_err(|e| ArgError(format!("write failed: {e}")))?;
        if frames.is_some_and(|n| drawn >= n) {
            break;
        }
        std::thread::sleep(every);
    }
    Ok(())
}

/// The `status` subcommand: the cluster dashboard and its SLO verdict,
/// over live daemons (`--addrs`) or a recorded event stream (`--replay`).
pub(crate) fn cmd_status<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    args.expect_only(&[
        "addrs",
        "replay",
        "rules",
        "for",
        "json",
        "watch",
        "interval-ms",
        "timeout-ms",
    ])?;
    let for_windows: u32 = args.get_or("for", 3u32)?;
    if for_windows == 0 {
        return Err(ArgError(
            "--for 0: a rule fires after at least one window".into(),
        ));
    }
    let rules = parse_list(
        "rules",
        args.get("rules").unwrap_or(DEFAULT_RULES),
        |spec| parse_rule(spec, for_windows),
    )?;
    let json = args.get_bool("json")?;
    let source = match (args.get("addrs"), args.get("replay")) {
        (Some(raw), None) => Source::Live(
            parse_list("addrs", raw, |s| s.parse().map_err(|e| format!("{e}")))?,
            Duration::from_millis(args.get_or("timeout-ms", 2_000u64)?),
        ),
        (None, Some(path)) => {
            Source::Replay(path.to_owned(), args.get_or("interval-ms", 1_000u64)?)
        }
        (Some(_), Some(_)) => return Err(ArgError("pass --addrs or --replay, not both".into())),
        (None, None) => {
            return Err(ArgError(
                "status requires --addrs HOST:PORT,... or --replay PATH".into(),
            ))
        }
    };
    match args.get_opt("watch")? {
        None => write_out(out, source.frame(&rules, json)?),
        Some(ms) => watch(&source, &rules, json, Duration::from_millis(ms), None, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run_cmd;
    use coopcache_core::PlacementScheme;
    use coopcache_net::{ClusterConfig, FaultKind, FaultMode, FaultPlan, LoopbackCluster};
    use coopcache_obs::EVENT_KINDS;
    use coopcache_types::{ByteSize, CacheId, DocId};

    /// A started cluster that has served `requests` requests, round-robin
    /// over its daemons and four documents, with its comma-joined
    /// document addresses.
    fn warm_cluster(config: ClusterConfig, requests: u64) -> (LoopbackCluster, String) {
        let cluster = LoopbackCluster::start_with_config(config).unwrap();
        for i in 0..requests {
            let doc = DocId::new(i % 4 + 1);
            cluster
                .request(i as usize % cluster.len(), doc, ByteSize::from_kb(1))
                .unwrap();
        }
        let addrs: Vec<String> = cluster
            .doc_addrs()
            .iter()
            .map(ToString::to_string)
            .collect();
        (cluster, addrs.join(","))
    }

    fn config(caches: u16) -> ClusterConfig {
        ClusterConfig::new(caches, ByteSize::from_kb(64), PlacementScheme::Ea)
    }

    fn nodes_of(json: &str) -> Vec<JsonValue> {
        let v = parse_json(json.trim()).unwrap();
        v.get("nodes")
            .and_then(JsonValue::as_array)
            .unwrap()
            .to_vec()
    }

    fn u64_at(node: &JsonValue, key: &str) -> Option<u64> {
        node.get(key).and_then(JsonValue::as_u64)
    }

    #[test]
    fn status_reads_a_default_cluster_with_a_refusing_and_a_killed_daemon() {
        // No sampler thread and no `sample_now`: the series probe itself
        // lands the sample. Daemon 1 drops every document request
        // unanswered (probes are exempt); daemon 2 is dead.
        let plan =
            FaultPlan::seeded(11).rule(CacheId::new(1), FaultKind::ResetDoc, FaultMode::Always);
        let config = config(3)
            .faults(plan)
            .icp_timeout(Duration::from_millis(80));
        let (mut cluster, addrs) = warm_cluster(config, 9);
        cluster.kill(2);
        let status = |rules: &str, json: &str| {
            let flags = ["--rules", rules, "--for", "1", "--json", json];
            let argv = [
                &["status", "--addrs", &addrs, "--timeout-ms", "500"][..],
                &flags,
            ]
            .concat();
            run_cmd(&argv).unwrap()
        };

        let json = status("hit-rate:1001", "true");
        let nodes = nodes_of(&json);
        for (idx, node) in nodes[..2].iter().enumerate() {
            assert_eq!(u64_at(node, "cache"), Some(idx as u64), "{json}");
            assert!(u64_at(node, "requests") > Some(0), "{json}");
            // A hit-rate floor above 1000‰ is unsatisfiable, so it fires.
            assert_eq!(u64_at(node, "firing"), Some(1), "{json}");
            let alerts = node.get("alerts").and_then(JsonValue::as_array);
            assert!(alerts.is_some_and(|a| !a.is_empty()), "{json}");
            assert!(node.get("series").is_some(), "{json}");
        }
        assert!(nodes[2].get("error").is_some(), "{json}");

        let text = status("hit-rate:1001", "false");
        assert!(text.contains("series: 2 node(s)"), "{text}");
        assert!(text.contains("used_kb"), "live rows carry gauges: {text}");
        assert!(text.contains(": error: "), "{text}");
        assert!(text.contains("FIRING hit-rate below 1001"), "{text}");
        assert!(
            text.contains("1 rule(s) over 2/3 node(s): 2 firing"),
            "{text}"
        );
        assert!(!text.contains('\x1b'), "one frame never clears the screen");
        for cache in ["0", "1"] {
            let row = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(cache));
            let req_per_s = row.and_then(|r| r.split_whitespace().nth(1));
            assert!(req_per_s.is_some_and(|cell| cell != "-"), "{text}");
        }
        // A floor of 0 never fires.
        assert!(status("hit-rate:0", "false").contains(": 0 firing"));

        // Each watched frame clears the screen; each probe lands a sample.
        let source = Source::Live(cluster.doc_addrs(), Duration::from_millis(500));
        let rules = [parse_rule("hit-rate:1", 1).unwrap()];
        let frames = |json: bool| {
            let mut out = Vec::new();
            let every = Duration::from_millis(10);
            watch(&source, &rules, json, every, Some(2), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        assert_eq!(frames(false).matches("\x1b[2J").count(), 2);
        assert_eq!(frames(true).lines().count(), 2, "one JSON per frame");

        // `stats --addr` renders one daemon's OP_STATS snapshot.
        let addr = cluster.doc_addrs()[0].to_string();
        let stats = |format: &str| run_cmd(&["stats", "--addr", &addr, "--format", format]);
        let table = stats("table").unwrap();
        assert!(table.contains("events.request"), "{table}");
        assert!(table.contains("latency.origin"), "{table}");
        assert!(table.contains("quarantined"), "{table}");
        assert!(stats("json").unwrap().starts_with("{\"cache\":0,"));
        let prom = stats("prom").unwrap();
        assert!(prom.contains("coopcache_events_total{cache=\"0\",kind=\"request\"} 3"));
        assert!(prom.contains("coopcache_quarantined_peers{cache=\"0\"} 0"));
        cluster.shutdown();

        // No node reachable is a failure.
        assert!(run_cmd(&["status", "--addrs", "127.0.0.1:1", "--timeout-ms", "200"]).is_err());
    }

    /// A Prometheus sample: metric name, unescaped labels, value.
    type Sample<'a> = (&'a str, Vec<(String, String)>, u64);

    /// Splits one Prometheus sample line into its parts; `None` unless
    /// well formed.
    fn parse_sample(line: &str) -> Option<Sample<'_>> {
        let (name, mut rest) = line.split_once('{')?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return None;
        }
        let mut labels = Vec::new();
        loop {
            let (key, after) = rest.split_once("=\"")?;
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_lowercase()) {
                return None;
            }
            let mut value = String::new();
            let mut chars = after.char_indices();
            let end = loop {
                match chars.next()? {
                    (i, '"') => break i,
                    (_, '\\') => value.push(match chars.next()?.1 {
                        'n' => '\n',
                        c @ ('\\' | '"') => c,
                        _ => return None,
                    }),
                    (_, '\n') => return None,
                    (_, c) => value.push(c),
                }
            };
            labels.push((key.to_string(), value));
            rest = &after[end + 1..];
            if let Some(tail) = rest.strip_prefix("} ") {
                return Some((name, labels, tail.parse().ok()?));
            }
            rest = rest.strip_prefix(',')?;
        }
    }

    #[test]
    fn prom_stats_escape_scraped_label_values() {
        // Keys that would end their label value and inject a sample of
        // their own if copied into the output verbatim.
        let kind = "a\"} 1\nx{k=\"v";
        let source = "peer:\\\"0\"";
        let body = r#"{"cache":3,"counters":{"a\"} 1\nx{k=\"v":2,"request":5},"latency":{"peer:\\\"0\"":{"count":4,"p50_us":5,"p90_us":6,"p99_us":7,"max_us":8}},"quarantined":[],"occupancy":{"docs":1,"used_bytes":2,"capacity_bytes":3},"expiration_age_ms":9}"#;
        let prom = stats_prometheus(body).unwrap();
        let (mut kinds, mut sources) = (Vec::new(), Vec::new());
        for line in prom.lines().filter(|line| !line.starts_with("# TYPE ")) {
            let (name, labels, value) =
                parse_sample(line).unwrap_or_else(|| panic!("malformed line {line:?}\n{prom}"));
            assert_eq!(labels[0], ("cache".to_string(), "3".to_string()), "{line}");
            for (key, label) in labels {
                match key.as_str() {
                    "kind" => kinds.push((label, value)),
                    "source" if name == "coopcache_latency_samples_total" => {
                        sources.push((label, value));
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(kinds, [(kind.to_string(), 2), ("request".to_string(), 5)]);
        assert_eq!(sources, [(source.to_string(), 4)]);
    }

    #[test]
    fn status_renders_overflowing_scraped_counters() {
        // A hostile or corrupt series body whose hit counters overflow any
        // sum: both renderers saturate instead of panicking or wrapping.
        let request = |k: &EventKind| 2 * u64::from(*k == EventKind::Request);
        let counters: Vec<String> = EVENT_KINDS
            .iter()
            .map(|k| format!("\"{}\":{}", k.name(), request(k)))
            .collect();
        let body = format!(
            r#"{{"cache":0,"interval_ms":1000,"capacity":4,"points":[{{"t_ms":1000,"counters":{{{}}},"hits":{{"local":18446744073709551615,"remote":1}},"latency":null,"occupancy":{{"docs":0,"used_bytes":0,"capacity_bytes":0}},"expiration_age_ms":null,"quarantined":0}}]}}"#,
            counters.join(",")
        );
        let rules = [parse_rule("hit-rate:1001", 1).unwrap()];
        let nodes = [Node::judge(
            None,
            SeriesRing::from_json(&body).map_err(|e| e.to_string()),
            &rules,
        )];
        let saturated = u64::MAX / 2;
        let text = render_text(&nodes, &rules, true);
        assert!(text.contains(&format!("hit {saturated}‰")), "{text}");
        let json = render_json(&nodes, &rules);
        assert_eq!(u64_at(&nodes_of(&json)[0], "hit_permille"), Some(saturated));
    }

    #[test]
    fn stats_and_status_flag_validation() {
        assert!(run_cmd(&["stats", "--addr", "not-an-addr"]).is_err());
        // An unreachable daemon is a clean error, not a hang: port 1 on
        // localhost is never listening.
        let e = run_cmd(&["stats", "--addr", "127.0.0.1:1", "--timeout-ms", "200"]).unwrap_err();
        assert!(e.to_string().contains("scrape of"), "{e}");
        assert!(run_cmd(&["stats", "--addr", "127.0.0.1:1", "--format", "xml"]).is_err());

        let err = |extra: &[&str]| {
            let argv = [&["status", "--addrs", "127.0.0.1:1"][..], extra].concat();
            run_cmd(&argv).unwrap_err().to_string()
        };
        assert!(err(&["--for", "0"]).contains("--for 0"));
        assert!(err(&["--rules", "cpu:5"]).contains("unknown metric"));
        assert!(err(&["--rules", "hit-rate"]).contains("METRIC:THRESHOLD"));
        assert!(err(&["--rules", "hit-rate:x"]).contains("--rules \"hit-rate:x\""));
        assert!(err(&["--rules", ","]).contains("--rules"));
        assert!(err(&["--json", "maybe"]).contains("--json"));
        assert!(err(&["--replay", "y"]).contains("not both"));
        for gone in [
            "--once",
            "--frames",
            "--points",
            "--refresh-ms",
            "--hit-floor",
        ] {
            assert!(err(&[gone, "1"]).contains("unknown flag"), "{gone}");
        }
        assert!(run_cmd(&["status"]).is_err(), "a source is required");
        assert!(run_cmd(&["status", "--addrs", "not-an-addr"]).is_err());
        assert!(run_cmd(&["status", "--replay", "/nonexistent/x"]).is_err());
        // Out-of-range numbers are named errors, not overflow panics.
        let huge = "18446744073709551615";
        for argv in [
            &["simulate", "--aggregate", &format!("{huge}KB")][..],
            &["simulate", "--ttl", huge],
            &["simulate", "--discovery", &format!("digest:{huge}")],
            &["simulate", "--caches", "0"],
            &["sweep", "--caches", "0"],
            &["serve", "--caches", "0"],
        ] {
            let e = run_cmd(argv).unwrap_err().to_string();
            assert!(
                e.contains("too large") || e.contains("--caches 0"),
                "{argv:?}: {e}"
            );
        }
        // The many-daemon views are all `status` now.
        for gone in [
            &["stats", "--cluster", "127.0.0.1:1"][..],
            &["top"],
            &["health"],
        ] {
            assert!(run_cmd(gone).is_err(), "{gone:?}");
        }
    }
}
