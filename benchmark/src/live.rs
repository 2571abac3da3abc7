//! What the two live workloads share: document-protocol framing built
//! from the public wire codec, the daemons' counters, and a memory sink
//! for their spans.

use coopcache::net::{CacheDaemon, WireMessage, MAX_FRAME_LEN};
use coopcache::obs::{parse_json, Event, EventKind, EventSink, FaultOp, JsonValue, Span, SpanKind};
use std::io::{self, Read};
use std::sync::Barrier;

/// Appends one length-prefixed header frame — the document port's
/// framing (`u32` big-endian length, then the encoded header).
pub fn push_frame(buf: &mut Vec<u8>, msg: &WireMessage) {
    let header = msg.encode();
    buf.extend_from_slice(&(header.len() as u32).to_be_bytes());
    buf.extend_from_slice(&header);
}

/// Reads one length-prefixed header frame, refusing an oversized length
/// before allocating for it.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<WireMessage> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized header",
        ));
    }
    let mut header = [0u8; MAX_FRAME_LEN];
    reader.read_exact(&mut header[..len])?;
    WireMessage::decode(&header[..len]).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Reads and discards exactly `len` body bytes.
pub fn drain_body<R: Read>(reader: &mut R, len: u64) -> io::Result<()> {
    let copied = io::copy(&mut reader.take(len), &mut io::sink())?;
    if copied == len {
        Ok(())
    } else {
        Err(io::ErrorKind::UnexpectedEof.into())
    }
}

/// Runs `work(index, item)` for every item on a thread of its own, all
/// released together by a barrier, and returns the results in item
/// order. Every thread has ended when this returns.
pub fn side_by_side<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let items: Vec<T> = items.into_iter().collect();
    let barrier = Barrier::new(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    work(i, item)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// One event counter from a daemon's live stats document.
pub fn counter(daemon: &CacheDaemon, kind: EventKind) -> u64 {
    parse_json(&daemon.stats_json())
        .ok()
        .and_then(|doc| {
            doc.get("counters")
                .and_then(|c| c.get(kind.name()))
                .and_then(JsonValue::as_u64)
        })
        .unwrap_or(0)
}

/// Busy microseconds per frame of the `DocServe` spans of one pipelined
/// batch (all children of one benchmark span, served back to back on one
/// connection).
///
/// The daemon stamps a `DocServe` span's start *before* it blocks reading
/// the frame, so the first span of a batch also covers the idle wait for
/// that batch. The serve time is therefore taken from the second span's
/// start to the last span's end, per frame served in that interval.
/// `None` for fewer than two spans.
pub fn pipelined_serve_us(batch: &mut [(u64, u64)]) -> Option<f64> {
    batch.sort_unstable();
    let (second, last) = (batch.get(1)?, batch.last()?);
    let end_us = batch.iter().map(|&(_, end)| end).max().unwrap_or(last.1);
    Some(end_us.saturating_sub(second.0) as f64 / (batch.len() - 1) as f64)
}

/// Most spans a collector keeps verbatim; beyond that only the per-kind
/// totals grow, so a long traced run stays in bounded memory.
const KEEP_SPANS: usize = 1_500_000;

/// Per-kind totals over every span seen, kept or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub count: u64,
    pub total_us: u64,
}

/// A memory sink for the daemons' event stream: spans are kept for the
/// per-request join, everything else is counted.
#[derive(Debug, Default)]
pub struct Collector {
    pub spans: Vec<Span>,
    pub by_kind: [KindTotals; 6],
    pub icp_timeouts: u64,
    pub peer_faults: u64,
    pub failovers: u64,
    pub admission_shed: u64,
    pub conn_reused: u64,
}

pub fn kind_index(kind: SpanKind) -> usize {
    match kind {
        SpanKind::Request => 0,
        SpanKind::IcpRound => 1,
        SpanKind::IcpHandle => 2,
        SpanKind::PeerFetch => 3,
        SpanKind::DocServe => 4,
        SpanKind::OriginFetch => 5,
    }
}

impl EventSink for Collector {
    fn emit(&mut self, event: &Event) {
        match event {
            Event::Span(span) => {
                let t = &mut self.by_kind[kind_index(span.kind)];
                t.count += 1;
                t.total_us += span.duration_us();
                if self.spans.len() < KEEP_SPANS {
                    self.spans.push(*span);
                }
            }
            Event::PeerFault { op, .. } => {
                self.peer_faults += 1;
                self.icp_timeouts += u64::from(*op == FaultOp::Icp);
            }
            Event::Failover { .. } => self.failovers += 1,
            Event::AdmissionShed { .. } => self.admission_shed += 1,
            Event::ConnReused { .. } => self.conn_reused += 1,
            _ => {}
        }
    }
}

impl Collector {
    /// Mean duration of one span kind, in microseconds.
    pub fn mean_us(&self, kind: SpanKind) -> f64 {
        let t = self.by_kind[kind_index(kind)];
        if t.count == 0 {
            0.0
        } else {
            t.total_us as f64 / t.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache::proxy::HttpRequest;
    use coopcache::types::{CacheId, DocId, ExpirationAge};

    #[test]
    fn frames_round_trip_through_the_public_codec() {
        let msg = WireMessage::DocRequest {
            request: HttpRequest {
                from: CacheId::new(3),
                doc: DocId::new(99),
                requester_age: ExpirationAge::Infinite,
            },
            ctx: None,
        };
        let mut buf = Vec::new();
        push_frame(&mut buf, &msg);
        push_frame(&mut buf, &WireMessage::StatsRequest);
        let mut reader = buf.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap(), msg);
        assert_eq!(read_frame(&mut reader).unwrap(), WireMessage::StatsRequest);
        assert!(read_frame(&mut reader).is_err(), "stream is exhausted");
    }

    #[test]
    fn pipelined_serve_time_ignores_the_idle_wait_in_the_first_span() {
        // Idle from 0 to 1000, then three frames of 10 us each.
        let mut batch = vec![(1_010, 1_020), (0, 1_010), (1_020, 1_030)];
        assert_eq!(pipelined_serve_us(&mut batch), Some(10.0));
        assert_eq!(pipelined_serve_us(&mut [(0, 5)]), None);
    }

    #[test]
    fn side_by_side_keeps_item_order_and_joins_every_thread() {
        let mut slots = [0u32; 3];
        let doubled = side_by_side(slots.iter_mut(), |i, slot| {
            *slot = i as u32 + 1;
            *slot * 2
        });
        assert_eq!(doubled, vec![2, 4, 6]);
        assert_eq!(slots, [1, 2, 3]);
    }

    #[test]
    fn oversized_and_short_inputs_are_errors() {
        let huge = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        assert_eq!(
            read_frame(&mut huge.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert!(drain_body(&mut [0u8; 3].as_slice(), 4).is_err());
        assert!(drain_body(&mut [0u8; 4].as_slice(), 4).is_ok());
    }
}
