//! Adapters from real proxy log formats to [`Trace`].
//!
//! The paper replays the Boston University proxy logs; anyone adopting
//! this library will have Squid access logs or Apache-style Common Log
//! Format instead. These parsers intern client hosts and URLs into dense
//! ids, rebase timestamps to the first record, and apply the paper's
//! zero-size patch.

use crate::generate::Trace;
use coopcache_types::{ByteSize, ClientId, DocId, Request, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead};

/// Supported real-world log formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogFormat {
    /// Squid's native `access.log`:
    /// `time.ms elapsed client action/code size method url ident hierarchy type`.
    SquidNative,
    /// Apache/NCSA Common Log Format:
    /// `host ident user [dd/Mon/yyyy:HH:MM:SS zone] "METHOD url PROTO" status bytes`.
    CommonLog,
}

impl fmt::Display for LogFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SquidNative => f.write_str("squid-native"),
            Self::CommonLog => f.write_str("common-log"),
        }
    }
}

/// A trace parsed from a real log, with the interning tables needed to
/// map ids back to hosts and URLs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedLog {
    /// The replayable trace (timestamps rebased to the first record).
    pub trace: Trace,
    /// `urls[doc_id]` = the original URL.
    pub urls: Vec<String>,
    /// `clients[client_id]` = the original client host.
    pub clients: Vec<String>,
    /// Lines skipped because they were malformed or non-GET.
    pub skipped_lines: u64,
}

/// Error reading a real-world log.
#[derive(Debug)]
pub enum ParseLogError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// No parseable record was found at all (probably the wrong format).
    NoRecords,
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "log i/o error: {e}"),
            Self::NoRecords => f.write_str("no parseable records (wrong log format?)"),
        }
    }
}

impl std::error::Error for ParseLogError {}

impl From<io::Error> for ParseLogError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

#[derive(Debug, Default)]
struct Interner {
    ids: BTreeMap<String, u64>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u64 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u64;
        self.ids.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }
}

/// Parses a real proxy log into a replayable trace.
///
/// Malformed lines are skipped (and counted), matching how trace tools
/// treat the noisy logs of real deployments. Records with a zero size
/// receive `zero_size_patch` — the paper patches BU's zero-size records
/// to the 4 KB average.
///
/// # Errors
///
/// Returns [`ParseLogError::Io`] on reader failure and
/// [`ParseLogError::NoRecords`] when nothing parseable was found.
///
/// # Example
///
/// ```
/// use coopcache_trace::{parse_log, LogFormat};
/// use coopcache_types::ByteSize;
///
/// let log = "\
/// 894395924.192 1374 host-a TCP_MISS/200 3448 GET http://x.org/a - DIRECT/x text/html
/// 894395930.500  120 host-b TCP_HIT/200 3448 GET http://x.org/a - NONE/- text/html
/// ";
/// let parsed = parse_log(log.as_bytes(), LogFormat::SquidNative,
///                        ByteSize::from_kb(4)).unwrap();
/// assert_eq!(parsed.trace.len(), 2);
/// assert_eq!(parsed.urls.len(), 1); // same URL interned once
/// ```
pub fn parse_log<R: io::Read>(
    reader: R,
    format: LogFormat,
    zero_size_patch: ByteSize,
) -> Result<ParsedLog, ParseLogError> {
    let reader = io::BufReader::new(reader);
    let mut urls = Interner::default();
    let mut clients = Interner::default();
    let mut raw: Vec<(u64, u32, u64, u64)> = Vec::new(); // (ms, client, doc, size)
    let mut skipped = 0u64;
    for line in reader.lines() {
        let line = line?;
        let parsed = match format {
            LogFormat::SquidNative => parse_squid_line(&line),
            LogFormat::CommonLog => parse_clf_line(&line),
        };
        match parsed {
            Some((ms, client, url, size)) => {
                let doc = urls.intern(url);
                let client = clients.intern(client) as u32;
                raw.push((ms, client, doc, size));
            }
            None => {
                if !line.trim().is_empty() {
                    skipped += 1;
                }
            }
        }
    }
    let Some(t0) = raw.iter().map(|r| r.0).min() else {
        return Err(ParseLogError::NoRecords);
    };
    let requests: Vec<Request> = raw
        .into_iter()
        .map(|(ms, client, doc, size)| {
            let size = if size == 0 {
                zero_size_patch
            } else {
                ByteSize::from_bytes(size)
            };
            Request::new(
                Timestamp::from_millis(ms - t0),
                ClientId::new(client),
                DocId::new(doc),
                size,
            )
        })
        .collect();
    Ok(ParsedLog {
        trace: Trace::from_requests(requests),
        urls: urls.names,
        clients: clients.names,
        skipped_lines: skipped,
    })
}

/// One Squid native line → (millis, client, url, size).
fn parse_squid_line(line: &str) -> Option<(u64, &str, &str, u64)> {
    let mut fields = line.split_whitespace();
    let time = fields.next()?; // seconds.millis
    let _elapsed = fields.next()?;
    let client = fields.next()?;
    let _action_code = fields.next()?;
    let size: u64 = fields.next()?.parse().ok()?;
    let method = fields.next()?;
    let url = fields.next()?;
    if method != "GET" {
        return None;
    }
    let (secs, millis) = match time.split_once('.') {
        Some((s, m)) => (s.parse::<u64>().ok()?, m.get(..3)?.parse::<u64>().ok()?),
        None => (time.parse::<u64>().ok()?, 0),
    };
    Some((secs * 1_000 + millis, client, url, size))
}

/// One Common Log Format line → (millis, client, url, size).
fn parse_clf_line(line: &str) -> Option<(u64, &str, &str, u64)> {
    // host ident user [date] "METHOD url PROTO" status bytes
    let mut head = line.split_whitespace();
    let host = head.next()?;
    let _ident = head.next()?;
    let _user = head.next()?;
    let open = line.find('[')?;
    let close = line[open..].find(']')? + open;
    let stamp = &line[open + 1..close];
    let q1 = line[close..].find('"')? + close;
    let q2 = line[q1 + 1..].find('"')? + q1 + 1;
    let request = &line[q1 + 1..q2];
    let mut req_fields = request.split_whitespace();
    let method = req_fields.next()?;
    let url = req_fields.next()?;
    if method != "GET" {
        return None;
    }
    let mut tail = line[q2 + 1..].split_whitespace();
    let _status = tail.next()?;
    let size_field = tail.next()?;
    let size: u64 = if size_field == "-" {
        0
    } else {
        size_field.parse().ok()?
    };
    Some((clf_timestamp_millis(stamp)?, host, url, size))
}

/// Parses `dd/Mon/yyyy:HH:MM:SS zone` to epoch milliseconds (zone
/// ignored — simulations only need relative ordering).
fn clf_timestamp_millis(stamp: &str) -> Option<u64> {
    let stamp = stamp.split_whitespace().next()?;
    let mut parts = stamp.split(':');
    let date = parts.next()?;
    let hh: u64 = parts.next()?.parse().ok()?;
    let mm: u64 = parts.next()?.parse().ok()?;
    let ss: u64 = parts.next()?.parse().ok()?;
    let mut dmy = date.split('/');
    let day: u64 = dmy.next()?.parse().ok()?;
    let month = match dmy.next()? {
        "Jan" => 1,
        "Feb" => 2,
        "Mar" => 3,
        "Apr" => 4,
        "May" => 5,
        "Jun" => 6,
        "Jul" => 7,
        "Aug" => 8,
        "Sep" => 9,
        "Oct" => 10,
        "Nov" => 11,
        "Dec" => 12,
        _ => return None,
    };
    let year: u64 = dmy.next()?.parse().ok()?;
    if !(1..=31).contains(&day) || hh > 23 || mm > 59 || ss > 60 || year < 1970 {
        return None;
    }
    // Howard Hinnant's days-from-civil algorithm.
    let y = if month <= 2 { year - 1 } else { year };
    let era = y / 400;
    let yoe = y - era * 400;
    let mp = (month + 9) % 12;
    let doy = (153 * mp + 2) / 5 + day - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    Some(((days * 24 + hh) * 60 + mm) * 60_000 + ss * 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SQUID: &str = "\
894395924.192 1374 10.0.0.1 TCP_MISS/200 3448 GET http://x.org/a - DIRECT/x text/html
894395925.000  120 10.0.0.2 TCP_HIT/200 3448 GET http://x.org/a - NONE/- text/html
894395926.500   88 10.0.0.1 TCP_MISS/200 0 GET http://x.org/b - DIRECT/x image/gif
894395927.000   10 10.0.0.1 TCP_MISS/200 512 POST http://x.org/form - DIRECT/x text/html
garbage line that should be skipped
";

    #[test]
    fn squid_parsing() {
        let p = parse_log(
            SQUID.as_bytes(),
            LogFormat::SquidNative,
            ByteSize::from_kb(4),
        )
        .unwrap();
        assert_eq!(p.trace.len(), 3, "POST and garbage skipped");
        assert_eq!(p.skipped_lines, 2);
        assert_eq!(p.urls, vec!["http://x.org/a", "http://x.org/b"]);
        assert_eq!(p.clients, vec!["10.0.0.1", "10.0.0.2"]);
        let reqs = p.trace.requests();
        // Rebased to the first record.
        assert_eq!(reqs[0].time, Timestamp::ZERO);
        assert_eq!(reqs[1].time, Timestamp::from_millis(808));
        // Zero-size record patched to 4 KB.
        assert_eq!(reqs[2].size, ByteSize::from_kb(4));
        // Same URL, same doc id.
        assert_eq!(reqs[0].doc, reqs[1].doc);
        assert_ne!(reqs[0].client, reqs[1].client);
    }

    const CLF: &str = "\
alpha.example.com - - [10/Oct/2000:13:55:36 -0700] \"GET /apache_pb.gif HTTP/1.0\" 200 2326
beta.example.com - frank [10/Oct/2000:13:55:40 -0700] \"GET /apache_pb.gif HTTP/1.0\" 200 2326
alpha.example.com - - [10/Oct/2000:13:56:00 -0700] \"GET /index.html HTTP/1.0\" 200 -
alpha.example.com - - [10/Oct/2000:13:56:05 -0700] \"HEAD /index.html HTTP/1.0\" 200 0
";

    #[test]
    fn clf_parsing() {
        let p = parse_log(CLF.as_bytes(), LogFormat::CommonLog, ByteSize::from_kb(4)).unwrap();
        assert_eq!(p.trace.len(), 3, "HEAD skipped");
        assert_eq!(p.skipped_lines, 1);
        let reqs = p.trace.requests();
        assert_eq!(reqs[0].time, Timestamp::ZERO);
        assert_eq!(reqs[1].time, Timestamp::from_millis(4_000));
        assert_eq!(reqs[2].time, Timestamp::from_millis(24_000));
        // "-" size patched.
        assert_eq!(reqs[2].size, ByteSize::from_kb(4));
        assert_eq!(p.urls.len(), 2);
        assert_eq!(p.clients.len(), 2);
    }

    #[test]
    fn empty_or_garbage_log_is_an_error() {
        assert!(matches!(
            parse_log("".as_bytes(), LogFormat::SquidNative, ByteSize::ZERO),
            Err(ParseLogError::NoRecords)
        ));
        assert!(matches!(
            parse_log(
                "junk\nmore junk\n".as_bytes(),
                LogFormat::CommonLog,
                ByteSize::ZERO
            ),
            Err(ParseLogError::NoRecords)
        ));
    }

    #[test]
    fn clf_timestamp_arithmetic() {
        // 1 Jan 1970 00:00:00 is the epoch.
        assert_eq!(clf_timestamp_millis("01/Jan/1970:00:00:00 +0000"), Some(0));
        // One day later.
        assert_eq!(
            clf_timestamp_millis("02/Jan/1970:00:00:00 +0000"),
            Some(86_400_000)
        );
        // Leap-year handling: 29 Feb 2000 is valid and ordered.
        let feb28 = clf_timestamp_millis("28/Feb/2000:00:00:00 +0000").unwrap();
        let feb29 = clf_timestamp_millis("29/Feb/2000:00:00:00 +0000").unwrap();
        let mar01 = clf_timestamp_millis("01/Mar/2000:00:00:00 +0000").unwrap();
        assert_eq!(feb29 - feb28, 86_400_000);
        assert_eq!(mar01 - feb29, 86_400_000);
        // Rejects nonsense.
        assert_eq!(clf_timestamp_millis("32/Jan/2000:00:00:00 +0000"), None);
        assert_eq!(clf_timestamp_millis("01/Foo/2000:00:00:00 +0000"), None);
        assert_eq!(clf_timestamp_millis("01/Jan/2000:25:00:00 +0000"), None);
    }

    #[test]
    fn squid_time_without_millis() {
        let line = "894395924 10 host TCP_MISS/200 100 GET http://a/ - D/x t";
        let p = parse_squid_line(line).unwrap();
        assert_eq!(p.0, 894_395_924_000);
    }

    #[test]
    fn display_names() {
        assert_eq!(LogFormat::SquidNative.to_string(), "squid-native");
        assert_eq!(LogFormat::CommonLog.to_string(), "common-log");
    }
}
