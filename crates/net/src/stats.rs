//! Client side of the `OP_STATS`/`OP_SERIES` live observability plane.
//!
//! Any daemon's document (TCP) endpoint answers a [`WireMessage::StatsRequest`]
//! with a [`WireMessage::StatsResponse`] header frame followed by a raw
//! JSON body — the same deterministic document
//! [`CacheDaemon::stats_json`](crate::CacheDaemon::stats_json) builds
//! locally — and a [`WireMessage::SeriesRequest`] with its sampled
//! time-series ring ([`coopcache_obs::SeriesRing::to_json`]). A daemon
//! without a sampler thread lands one sample per series probe, so that
//! ring is live too.
//! [`scrape_stats`] and [`scrape_series`] are the one-shot clients that
//! pull those documents off a live cluster without disturbing its
//! request path: `coopcache stats --addr` reads one daemon's stats, and
//! `coopcache status` reads every daemon's series.

use crate::wire::{read_frame, write_frame, WireMessage};
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on an `OP_STATS` body: a snapshot is a few kilobytes, so
/// anything approaching a megabyte is a corrupt or hostile length.
pub const MAX_STATS_BODY: u64 = 1 << 20;

/// Scrapes one live-stats snapshot from the daemon whose *document*
/// endpoint is `addr`, returning the JSON body.
///
/// # Errors
///
/// Propagates connect/read/write failures; a non-stats reply or an
/// oversized body surfaces as [`io::ErrorKind::InvalidData`].
pub fn scrape_stats(addr: SocketAddr, timeout: Duration) -> io::Result<String> {
    scrape(addr, timeout, "stats")
}

/// Scrapes the sampled time-series ring from the daemon whose
/// *document* endpoint is `addr`, returning the JSON body (decode it
/// with [`coopcache_obs::SeriesRing::from_json`]).
///
/// # Errors
///
/// Propagates connect/read/write failures; a non-series reply or an
/// oversized body surfaces as [`io::ErrorKind::InvalidData`].
pub fn scrape_series(addr: SocketAddr, timeout: Duration) -> io::Result<String> {
    scrape(addr, timeout, "series")
}

/// One scrape of the `what` document ("stats" or "series"): the request
/// frame out, then the body the response frame announces.
fn scrape(addr: SocketAddr, timeout: Duration, what: &str) -> io::Result<String> {
    let invalid = |error: String| io::Error::new(io::ErrorKind::InvalidData, error);
    let series = what == "series";
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = if series {
        WireMessage::SeriesRequest
    } else {
        WireMessage::StatsRequest
    };
    write_frame(&mut stream, &request)?;
    let mut stream = BufReader::new(stream);
    let body_len = match read_frame(&mut stream)? {
        WireMessage::SeriesResponse { body_len, .. } if series => body_len,
        WireMessage::StatsResponse { body_len, .. } if !series => body_len,
        _ => return Err(invalid(format!("expected a {what} response"))),
    };
    if body_len > MAX_STATS_BODY {
        return Err(invalid(format!("oversized {what} body")));
    }
    let mut body = vec![0u8; usize::try_from(body_len).unwrap_or(0)];
    stream.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|_| invalid(format!("{what} body is not UTF-8")))
}
