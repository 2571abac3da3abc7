//! Binary wire formats for ICP (UDP) and the document protocol (TCP).
//!
//! The paper's simulator instances communicated over real UDP (ICP) and
//! TCP (HTTP); this module defines the equivalent compact binary codecs.
//! Framing:
//!
//! * **ICP datagrams** — fixed-size, one per UDP packet;
//! * **TCP messages** — a length-prefixed header, followed (for document
//!   responses) by `size` bytes of body streamed on the same connection,
//!   and (for stats responses) by `body_len` bytes of JSON.
//!
//! The cache expiration age rides in every document request and response,
//! exactly as the EA scheme piggybacks it on HTTP messages; since v2 the
//! requester's [`TraceCtx`] rides the same way on queries and requests,
//! so remote daemons can attach their spans to the requester's trace.
//!
//! # Versioning
//!
//! Every frame is `MAGIC, version, opcode, fields`. The only layout this
//! build speaks is [`FRAME_V2`]; any other byte after the magic —
//! including the opcodes `1..=4` that sat there in the never-deployed,
//! un-versioned first layout — is a typed
//! [`DecodeError::UnsupportedVersion`], so version bumps fail loudly
//! instead of being misparsed.
//!
//! The codec is hand-rolled over a fixed stack buffer ([`Frame`]) and
//! slice cursors (big-endian fields) — the workspace is dependency-free
//! by construction, and encoding a header allocates nothing.

use coopcache_obs::TraceCtx;
use coopcache_proxy::{HttpRequest, HttpResponse, IcpQuery, IcpReply};
use coopcache_types::{ByteSize, CacheId, DocId, DurationMs, ExpirationAge};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Protocol magic prepended to every TCP header.
pub const MAGIC: u16 = 0xCA5E;

/// Version byte of the current frame layout, the byte after the magic.
/// Deliberately outside the opcode range, so a frame that puts an opcode
/// there is rejected as a version mismatch rather than misparsed.
pub const FRAME_V2: u8 = 0xC2;

/// Upper bound on a length-prefixed TCP header frame. Real headers are
/// at most 40 bytes; the cap bounds what a malicious or corrupted length
/// field can make a reader buffer. The responder's frame loop, the peer
/// fetch and the stats/series scrape all frame through [`decode_frame`],
/// so the client and server paths cannot drift apart.
pub const MAX_FRAME_LEN: usize = 1024;

/// Length of the largest v2 header — a `DocRequest` carrying a finite
/// age and a trace context. [`Frame`] is sized by it.
const MAX_HEADER_LEN: usize = 40;

/// Length of the `u32` prefix in front of every TCP header.
const PREFIX_LEN: usize = 4;

/// One encoded message on the stack: room for the TCP length prefix and
/// the largest v2 header, so encoding allocates nothing. The same bytes
/// serve as a TCP frame ([`Frame::framed`]) and, without the prefix, as
/// an ICP datagram ([`Frame::header`]).
pub(crate) struct Frame {
    bytes: [u8; PREFIX_LEN + MAX_HEADER_LEN],
    len: usize,
}

impl Frame {
    /// Encodes `msg` in the current (v2) layout behind its length prefix.
    pub(crate) fn encode(msg: &WireMessage) -> Self {
        let mut frame = Self {
            bytes: [0; PREFIX_LEN + MAX_HEADER_LEN],
            len: PREFIX_LEN,
        };
        msg.encode_into(&mut frame);
        let header_len = (frame.len - PREFIX_LEN) as u32;
        frame.bytes[..PREFIX_LEN].copy_from_slice(&header_len.to_be_bytes());
        frame
    }

    /// Prefix and header: one TCP frame.
    pub(crate) fn framed(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The header alone: one ICP datagram.
    pub(crate) fn header(&self) -> &[u8] {
        &self.bytes[PREFIX_LEN..self.len]
    }

    fn put(&mut self, src: &[u8]) {
        let end = self.len + src.len();
        self.bytes[self.len..end].copy_from_slice(src);
        self.len = end;
    }

    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    fn put_age(&mut self, age: ExpirationAge) {
        match age.as_finite() {
            None => {
                self.put_u8(AGE_INFINITE);
                self.put_u64(0);
            }
            Some(d) => {
                self.put_u8(AGE_FINITE);
                self.put_u64(d.as_millis());
            }
        }
    }

    fn put_ctx(&mut self, ctx: Option<TraceCtx>) {
        match ctx {
            None => self.put_u8(CTX_ABSENT),
            Some(ctx) => {
                self.put_u8(CTX_PRESENT);
                self.put_u64(ctx.trace_id);
                self.put_u64(ctx.parent_span);
            }
        }
    }
}

/// Writes one length-prefixed header frame to a TCP stream in a single
/// `write`: the prefix is encoded into the same stack buffer as the
/// header, so with `TCP_NODELAY` on the frame leaves as one segment and
/// the far side wakes once for it.
///
/// # Errors
///
/// Propagates write failures.
pub(crate) fn write_frame<W: Write>(writer: &mut W, msg: &WireMessage) -> io::Result<()> {
    writer.write_all(Frame::encode(msg).framed())
}

/// The one framer: decodes the frame at the head of `buf` in place.
/// `Some((frame length, message))` once all of it is there, `None` while
/// more bytes are needed. A length prefix over [`MAX_FRAME_LEN`] is
/// [`io::ErrorKind::InvalidData`] as soon as the prefix is in, an
/// undecodable header once the whole frame is.
///
/// # Errors
///
/// An oversized length prefix or an undecodable header, as above.
pub(crate) fn decode_frame(buf: &[u8]) -> io::Result<Option<(usize, WireMessage)>> {
    let Some(prefix) = buf.first_chunk::<PREFIX_LEN>() else {
        return Ok(None);
    };
    let header_len = u32::from_be_bytes(*prefix) as usize;
    if header_len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized header",
        ));
    }
    let Some(header) = buf.get(PREFIX_LEN..PREFIX_LEN + header_len) else {
        return Ok(None);
    };
    // Decoding never looks past the largest header.
    WireMessage::decode(&header[..header_len.min(MAX_HEADER_LEN)])
        .map(|message| Some((PREFIX_LEN + header_len, message)))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Reads one frame from a buffered stream: the client side of the
/// document port, for peer fetches and scrapes. A frame whole in the
/// buffer is decoded in place; one split across reads is gathered a byte
/// at a time, never past its end, since a body may follow it.
///
/// # Errors
///
/// Propagates read failures and [`decode_frame`]'s errors.
pub(crate) fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<WireMessage> {
    let buffered = match reader.fill_buf() {
        Ok(buf) => decode_frame(buf)?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => None,
        Err(e) => return Err(e),
    };
    if let Some((len, message)) = buffered {
        reader.consume(len);
        return Ok(message);
    }
    // `decode_frame` decides within `PREFIX_LEN + MAX_FRAME_LEN` bytes.
    let mut frame = Vec::new();
    loop {
        let mut byte = 0u8;
        reader.read_exact(std::slice::from_mut(&mut byte))?;
        frame.push(byte);
        if let Some((_, message)) = decode_frame(&frame)? {
            return Ok(message);
        }
    }
}

const OP_ICP_QUERY: u8 = 1;
const OP_ICP_REPLY: u8 = 2;
const OP_DOC_REQUEST: u8 = 3;
const OP_DOC_RESPONSE: u8 = 4;
/// v2-only: ask a daemon's doc port for its live stats snapshot.
const OP_STATS_REQUEST: u8 = 5;
/// v2-only: stats snapshot header; `body_len` bytes of JSON follow.
const OP_STATS_RESPONSE: u8 = 6;
/// v2-only: ask a daemon's doc port for its sampled time-series ring.
const OP_SERIES_REQUEST: u8 = 7;
/// v2-only: series header; `body_len` bytes of JSON follow.
const OP_SERIES_RESPONSE: u8 = 8;

const AGE_INFINITE: u8 = 0;
const AGE_FINITE: u8 = 1;

const CTX_ABSENT: u8 = 0;
const CTX_PRESENT: u8 = 1;

/// Error decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the message demands.
    Truncated,
    /// Unknown opcode or malformed field.
    Malformed(&'static str),
    /// A well-formed magic followed by a version byte this build does
    /// not speak (anything but [`FRAME_V2`]).
    UnsupportedVersion(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => f.write_str("truncated wire message"),
            Self::Malformed(what) => write!(f, "malformed wire message: {what}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported frame version {v:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A read cursor over a received byte slice; every `get_*` checks bounds.
struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    fn get_u8(&mut self) -> Result<u8, DecodeError> {
        let (&v, rest) = self.data.split_first().ok_or(DecodeError::Truncated)?;
        self.data = rest;
        Ok(v)
    }

    fn get_u16(&mut self) -> Result<u16, DecodeError> {
        if self.data.len() < 2 {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.data.split_at(2);
        self.data = rest;
        Ok(u16::from_be_bytes([head[0], head[1]]))
    }

    fn get_u64(&mut self) -> Result<u64, DecodeError> {
        if self.data.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.data.split_at(8);
        self.data = rest;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(head);
        Ok(u64::from_be_bytes(bytes))
    }
}

fn get_age(buf: &mut Cursor<'_>) -> Result<ExpirationAge, DecodeError> {
    let tag = buf.get_u8()?;
    let ms = buf.get_u64()?;
    match tag {
        AGE_INFINITE => Ok(ExpirationAge::Infinite),
        AGE_FINITE => Ok(ExpirationAge::finite(DurationMs::from_millis(ms))),
        _ => Err(DecodeError::Malformed("unknown expiration-age tag")),
    }
}

fn get_ctx(buf: &mut Cursor<'_>) -> Result<Option<TraceCtx>, DecodeError> {
    match buf.get_u8()? {
        CTX_ABSENT => Ok(None),
        CTX_PRESENT => Ok(Some(TraceCtx {
            trace_id: buf.get_u64()?,
            parent_span: buf.get_u64()?,
        })),
        _ => Err(DecodeError::Malformed("unknown trace-context tag")),
    }
}

/// A message of the inter-proxy protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// ICP query (UDP), optionally carrying the requester's trace
    /// context (absent on frames from pre-tracing daemons).
    IcpQuery {
        /// The query itself.
        query: IcpQuery,
        /// The requester's trace context, if it traces.
        ctx: Option<TraceCtx>,
    },
    /// ICP reply (UDP).
    IcpReply(IcpReply),
    /// Document request (TCP), carrying the requester's expiration age
    /// and optionally its trace context.
    DocRequest {
        /// The request itself.
        request: HttpRequest,
        /// The requester's trace context, if it traces.
        ctx: Option<TraceCtx>,
    },
    /// Document response header (TCP). `found == false` means the
    /// document vanished between ICP and fetch; no body follows.
    DocResponse {
        /// The response metadata (from, doc, size, responder age).
        response: HttpResponse,
        /// Whether the document was present and a body follows.
        found: bool,
    },
    /// Live stats request (TCP, v2 only): ask the daemon behind this
    /// doc port for its `OP_STATS` snapshot.
    StatsRequest,
    /// Live stats response header (TCP, v2 only); `body_len` bytes of
    /// deterministic JSON follow on the same connection.
    StatsResponse {
        /// The responding daemon.
        cache: CacheId,
        /// Length of the JSON body that follows.
        body_len: u64,
    },
    /// Time-series request (TCP, v2 only): ask the daemon behind this
    /// doc port for its sampled metrics ring (`OP_SERIES`).
    SeriesRequest,
    /// Time-series response header (TCP, v2 only); `body_len` bytes of
    /// deterministic JSON follow on the same connection.
    SeriesResponse {
        /// The responding daemon.
        cache: CacheId,
        /// Length of the JSON body that follows.
        body_len: u64,
    },
}

impl WireMessage {
    /// Encodes the message in the current (v2) layout (header only —
    /// bodies are streamed separately).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        Frame::encode(self).header().to_vec()
    }

    /// Appends the encoded header to `buf`.
    fn encode_into(&self, buf: &mut Frame) {
        buf.put_u16(MAGIC);
        buf.put_u8(FRAME_V2);
        match self {
            Self::IcpQuery { query, ctx } => {
                buf.put_u8(OP_ICP_QUERY);
                buf.put_u16(query.from.as_u16());
                buf.put_u64(query.doc.as_u64());
                buf.put_ctx(*ctx);
            }
            Self::IcpReply(r) => {
                buf.put_u8(OP_ICP_REPLY);
                buf.put_u16(r.from.as_u16());
                buf.put_u64(r.doc.as_u64());
                buf.put_u8(u8::from(r.hit));
            }
            Self::DocRequest { request, ctx } => {
                buf.put_u8(OP_DOC_REQUEST);
                buf.put_u16(request.from.as_u16());
                buf.put_u64(request.doc.as_u64());
                buf.put_age(request.requester_age);
                buf.put_ctx(*ctx);
            }
            Self::DocResponse { response, found } => {
                buf.put_u8(OP_DOC_RESPONSE);
                buf.put_u16(response.from.as_u16());
                buf.put_u64(response.doc.as_u64());
                buf.put_u64(response.size.as_bytes());
                buf.put_age(response.responder_age);
                buf.put_u8(u8::from(*found));
            }
            Self::StatsRequest => {
                buf.put_u8(OP_STATS_REQUEST);
            }
            Self::StatsResponse { cache, body_len } => {
                buf.put_u8(OP_STATS_RESPONSE);
                buf.put_u16(cache.as_u16());
                buf.put_u64(*body_len);
            }
            Self::SeriesRequest => {
                buf.put_u8(OP_SERIES_REQUEST);
            }
            Self::SeriesResponse { cache, body_len } => {
                buf.put_u8(OP_SERIES_RESPONSE);
                buf.put_u16(cache.as_u16());
                buf.put_u64(*body_len);
            }
        }
    }

    /// Decodes a message from a byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on short input, a bad magic, an unknown
    /// version byte, an unknown opcode, or a malformed field.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let buf = &mut Cursor::new(data);
        if buf.get_u16()? != MAGIC {
            return Err(DecodeError::Malformed("bad magic"));
        }
        let version = buf.get_u8()?;
        if version != FRAME_V2 {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        match buf.get_u8()? {
            OP_ICP_QUERY => {
                let query = IcpQuery {
                    from: CacheId::new(buf.get_u16()?),
                    doc: DocId::new(buf.get_u64()?),
                };
                let ctx = get_ctx(buf)?;
                Ok(Self::IcpQuery { query, ctx })
            }
            OP_ICP_REPLY => Ok(Self::IcpReply(IcpReply {
                from: CacheId::new(buf.get_u16()?),
                doc: DocId::new(buf.get_u64()?),
                hit: buf.get_u8()? != 0,
            })),
            OP_DOC_REQUEST => {
                let request = HttpRequest {
                    from: CacheId::new(buf.get_u16()?),
                    doc: DocId::new(buf.get_u64()?),
                    requester_age: get_age(buf)?,
                };
                let ctx = get_ctx(buf)?;
                Ok(Self::DocRequest { request, ctx })
            }
            OP_DOC_RESPONSE => {
                let from = CacheId::new(buf.get_u16()?);
                let doc = DocId::new(buf.get_u64()?);
                let size = ByteSize::from_bytes(buf.get_u64()?);
                let responder_age = get_age(buf)?;
                let found = buf.get_u8()? != 0;
                Ok(Self::DocResponse {
                    response: HttpResponse {
                        from,
                        doc,
                        size,
                        responder_age,
                    },
                    found,
                })
            }
            OP_STATS_REQUEST => Ok(Self::StatsRequest),
            OP_STATS_RESPONSE => Ok(Self::StatsResponse {
                cache: CacheId::new(buf.get_u16()?),
                body_len: buf.get_u64()?,
            }),
            OP_SERIES_REQUEST => Ok(Self::SeriesRequest),
            OP_SERIES_RESPONSE => Ok(Self::SeriesResponse {
                cache: CacheId::new(buf.get_u16()?),
                body_len: buf.get_u64()?,
            }),
            _ => Err(DecodeError::Malformed("unknown opcode")),
        }
    }
}

/// A `Write` that records the length of every `write` call and the
/// bytes written, for tests that pin how output is split into syscalls.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    /// Length of each `write`, in call order.
    pub(crate) writes: Vec<usize>,
    /// Everything written, concatenated.
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.len());
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopcache_types::SplitMix64;

    fn put_u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }

    fn put_u16(buf: &mut Vec<u8>, v: u16) {
        buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_be_bytes());
    }

    fn ages() -> [ExpirationAge; 3] {
        [
            ExpirationAge::Infinite,
            ExpirationAge::finite(DurationMs::ZERO),
            ExpirationAge::finite(DurationMs::from_millis(u64::MAX / 2)),
        ]
    }

    fn ctxs() -> [Option<TraceCtx>; 2] {
        [
            None,
            Some(TraceCtx {
                trace_id: (7 << 48) | 3,
                parent_span: u64::MAX,
            }),
        ]
    }

    #[test]
    fn icp_query_roundtrip() {
        for ctx in ctxs() {
            let msg = WireMessage::IcpQuery {
                query: IcpQuery {
                    from: CacheId::new(7),
                    doc: DocId::new(u64::MAX),
                },
                ctx,
            };
            assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn icp_reply_roundtrip() {
        for hit in [true, false] {
            let msg = WireMessage::IcpReply(IcpReply {
                from: CacheId::new(0),
                doc: DocId::new(42),
                hit,
            });
            assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn doc_request_roundtrip_all_ages() {
        for age in ages() {
            for ctx in ctxs() {
                let msg = WireMessage::DocRequest {
                    request: HttpRequest {
                        from: CacheId::new(3),
                        doc: DocId::new(9),
                        requester_age: age,
                    },
                    ctx,
                };
                assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
            }
        }
    }

    #[test]
    fn doc_response_roundtrip_all_ages() {
        for age in ages() {
            for found in [true, false] {
                let msg = WireMessage::DocResponse {
                    response: HttpResponse {
                        from: CacheId::new(1),
                        doc: DocId::new(5),
                        size: ByteSize::from_kb(4),
                        responder_age: age,
                    },
                    found,
                };
                assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
            }
        }
    }

    #[test]
    fn stats_messages_roundtrip() {
        let msg = WireMessage::StatsRequest;
        assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        let msg = WireMessage::StatsResponse {
            cache: CacheId::new(9),
            body_len: 4096,
        };
        assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn series_messages_roundtrip() {
        let msg = WireMessage::SeriesRequest;
        assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        let msg = WireMessage::SeriesResponse {
            cache: CacheId::new(3),
            body_len: 1 << 20,
        };
        assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn unknown_version_byte_is_typed_error() {
        // 1..=4 were the opcodes of the un-versioned first layout, which
        // put them where the version byte now sits.
        for version in [0u8, 1, 2, 3, 4, 7, 0xC3, 0xFF] {
            let mut bytes = Vec::new();
            put_u16(&mut bytes, MAGIC);
            put_u8(&mut bytes, version);
            put_u64(&mut bytes, 0);
            assert_eq!(
                WireMessage::decode(&bytes).unwrap_err(),
                DecodeError::UnsupportedVersion(version),
                "version byte {version:#04x}"
            );
        }
    }

    #[test]
    fn truncated_inputs_rejected() {
        let msg = WireMessage::IcpQuery {
            query: IcpQuery {
                from: CacheId::new(1),
                doc: DocId::new(2),
            },
            ctx: Some(TraceCtx {
                trace_id: 3,
                parent_span: 4,
            }),
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                WireMessage::decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn bad_magic_and_opcode_rejected() {
        let err = WireMessage::decode(&[0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(err, DecodeError::Malformed("bad magic"));
        let mut bytes = Vec::new();
        put_u16(&mut bytes, MAGIC);
        put_u8(&mut bytes, FRAME_V2);
        put_u8(&mut bytes, 99); // valid version, bogus opcode
        let err = WireMessage::decode(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::Malformed("unknown opcode"));
    }

    #[test]
    fn bad_age_and_ctx_tags_rejected() {
        let mut bytes = Vec::new();
        put_u16(&mut bytes, MAGIC);
        put_u8(&mut bytes, FRAME_V2);
        put_u8(&mut bytes, OP_DOC_REQUEST);
        put_u16(&mut bytes, 1);
        put_u64(&mut bytes, 2);
        put_u8(&mut bytes, 7); // bogus age tag
        put_u64(&mut bytes, 0);
        let err = WireMessage::decode(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::Malformed("unknown expiration-age tag"));

        let mut bytes = Vec::new();
        put_u16(&mut bytes, MAGIC);
        put_u8(&mut bytes, FRAME_V2);
        put_u8(&mut bytes, OP_ICP_QUERY);
        put_u16(&mut bytes, 1);
        put_u64(&mut bytes, 2);
        put_u8(&mut bytes, 9); // bogus ctx tag
        let err = WireMessage::decode(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::Malformed("unknown trace-context tag"));
    }

    #[test]
    fn frame_roundtrip() {
        let msg = WireMessage::DocRequest {
            request: HttpRequest {
                from: CacheId::new(3),
                doc: DocId::new(9),
                requester_age: ExpirationAge::Infinite,
            },
            ctx: Some(TraceCtx {
                trace_id: 1,
                parent_span: 2,
            }),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn write_frame_is_one_write_for_every_variant() {
        let mut rng = TestRng::new(0x0E5E);
        let mut seen = [false; 8];
        for _ in 0..200 {
            let msg = rng.message();
            seen[variant_index(&msg)] = true;
            let mut out = CountingWriter::default();
            write_frame(&mut out, &msg).unwrap();
            assert_eq!(
                out.writes,
                vec![4 + msg.encode().len()],
                "{msg:?} must leave as one write of prefix + header"
            );
        }
        assert!(seen.iter().all(|&s| s), "generator missed a variant");
    }

    #[test]
    fn largest_header_fills_the_stack_frame() {
        let msg = WireMessage::DocRequest {
            request: HttpRequest {
                from: CacheId::new(u16::MAX),
                doc: DocId::new(u64::MAX),
                requester_age: ExpirationAge::finite(DurationMs::from_millis(1)),
            },
            ctx: ctxs()[1],
        };
        assert_eq!(msg.encode().len(), MAX_HEADER_LEN);
        let mut rng = TestRng::new(0x4EAD);
        for _ in 0..2_000 {
            let msg = rng.message();
            let frame = Frame::encode(&msg);
            assert!(frame.header().len() <= MAX_HEADER_LEN, "{msg:?}");
            assert_eq!(frame.header(), msg.encode());
            assert_eq!(frame.framed()[PREFIX_LEN..], *frame.header());
        }
    }

    #[test]
    fn read_frame_skips_bytes_past_the_largest_header() {
        // A legal frame longer than any v2 header: the trailing bytes are
        // consumed with it, and the next frame reads cleanly.
        let msg = WireMessage::StatsRequest;
        let header = msg.encode();
        let padded = MAX_FRAME_LEN - header.len();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32).to_be_bytes());
        buf.extend_from_slice(&header);
        buf.resize(buf.len() + padded, 0xAB);
        write_frame(&mut buf, &WireMessage::SeriesRequest).unwrap();
        let mut reader = buf.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap(), msg);
        assert_eq!(read_frame(&mut reader).unwrap(), WireMessage::SeriesRequest);
        assert!(reader.is_empty());
        // A frame cut short inside its padding is an EOF, not a decode.
        let mut cut = &buf[..PREFIX_LEN + MAX_HEADER_LEN + 1];
        let err = read_frame(&mut cut).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_frame_gathers_a_split_frame_and_leaves_the_body_unread() {
        let mut rng = TestRng::new(0x5B17);
        for _ in 0..200 {
            let msg = rng.message();
            let mut buf = Vec::new();
            write_frame(&mut buf, &msg).unwrap();
            buf.extend_from_slice(b"body");
            for capacity in [1, 3, 7, 16] {
                let mut reader = io::BufReader::with_capacity(capacity, buf.as_slice());
                assert_eq!(read_frame(&mut reader).unwrap(), msg);
                let mut rest = Vec::new();
                io::Read::read_to_end(&mut reader, &mut rest).unwrap();
                assert_eq!(rest, b"body", "{capacity}-byte reads");
            }
        }
    }

    #[test]
    fn read_frame_rejects_oversized_length_prefix() {
        // A peer-supplied length just past the cap must be rejected
        // before any allocation happens.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("oversized"));
    }

    #[test]
    fn read_frame_rejects_undecodable_header() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(b"junk");
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decode_frame_agrees_with_read_frame_on_whole_frames_only() {
        let mut rng = TestRng::new(0xB0FF);
        for _ in 0..500 {
            let msg = rng.message();
            let mut buf = Vec::new();
            write_frame(&mut buf, &msg).unwrap();
            buf.extend_from_slice(&[0xEE; 3]); // the next frame's first bytes
            let frame_len = buf.len() - 3;
            let (len, decoded) = decode_frame(&buf).unwrap().expect("a whole frame");
            assert_eq!(len, frame_len);
            assert_eq!(decoded, read_frame(&mut buf.as_slice()).unwrap());
            for cut in 0..frame_len {
                assert!(
                    decode_frame(&buf[..cut]).unwrap().is_none(),
                    "split at {cut}"
                );
            }
        }
        // A legal frame longer than any header: consumed whole, decoded
        // from its first `MAX_HEADER_LEN` bytes.
        let mut padded = Vec::new();
        padded.extend_from_slice(&(MAX_FRAME_LEN as u32).to_be_bytes());
        padded.extend_from_slice(&WireMessage::StatsRequest.encode());
        padded.resize(PREFIX_LEN + MAX_FRAME_LEN, 0xAB);
        assert_eq!(
            decode_frame(&padded).unwrap(),
            Some((padded.len(), WireMessage::StatsRequest))
        );
        // Errors: junk is InvalidData once whole; an oversized prefix is
        // InvalidData as soon as the prefix is in.
        let mut junk = 4u32.to_be_bytes().to_vec();
        junk.extend_from_slice(b"junk");
        assert!(decode_frame(&junk[..7]).unwrap().is_none());
        let err = decode_frame(&junk).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let oversized = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        let err = decode_frame(&oversized).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::Malformed("x").to_string().contains("x"));
        assert!(DecodeError::UnsupportedVersion(0xC3)
            .to_string()
            .contains("0xc3"));
    }

    // ---- seeded property tests -------------------------------------
    //
    // The daemons already chaos-test the protocol end to end; these
    // tests attack the codec itself with a deterministic splitmix64
    // stream, so every `cargo test` covers the same few thousand cases.

    /// The workspace's splitmix64 stream with the draws these tests need.
    struct TestRng(SplitMix64);

    impl TestRng {
        fn new(seed: u64) -> Self {
            Self(SplitMix64::new(seed))
        }

        fn next(&mut self) -> u64 {
            self.0.next_u64()
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn age(&mut self) -> ExpirationAge {
            match self.below(3) {
                0 => ExpirationAge::Infinite,
                1 => ExpirationAge::finite(DurationMs::ZERO),
                _ => ExpirationAge::finite(DurationMs::from_millis(self.next() >> 1)),
            }
        }

        fn ctx(&mut self) -> Option<TraceCtx> {
            if self.below(2) == 0 {
                None
            } else {
                Some(TraceCtx {
                    trace_id: self.next(),
                    parent_span: self.next(),
                })
            }
        }

        fn cache(&mut self) -> CacheId {
            CacheId::new((self.next() & 0xFFFF) as u16)
        }

        fn message(&mut self) -> WireMessage {
            match self.below(8) {
                0 => WireMessage::IcpQuery {
                    query: IcpQuery {
                        from: self.cache(),
                        doc: DocId::new(self.next()),
                    },
                    ctx: self.ctx(),
                },
                1 => WireMessage::IcpReply(IcpReply {
                    from: self.cache(),
                    doc: DocId::new(self.next()),
                    hit: self.below(2) == 0,
                }),
                2 => WireMessage::DocRequest {
                    request: HttpRequest {
                        from: self.cache(),
                        doc: DocId::new(self.next()),
                        requester_age: self.age(),
                    },
                    ctx: self.ctx(),
                },
                3 => WireMessage::DocResponse {
                    response: HttpResponse {
                        from: self.cache(),
                        doc: DocId::new(self.next()),
                        size: ByteSize::from_bytes(self.next()),
                        responder_age: self.age(),
                    },
                    found: self.below(2) == 0,
                },
                4 => WireMessage::StatsRequest,
                5 => WireMessage::StatsResponse {
                    cache: self.cache(),
                    body_len: self.next(),
                },
                6 => WireMessage::SeriesRequest,
                _ => WireMessage::SeriesResponse {
                    cache: self.cache(),
                    body_len: self.next(),
                },
            }
        }
    }

    fn variant_index(msg: &WireMessage) -> usize {
        match msg {
            WireMessage::IcpQuery { .. } => 0,
            WireMessage::IcpReply(..) => 1,
            WireMessage::DocRequest { .. } => 2,
            WireMessage::DocResponse { .. } => 3,
            WireMessage::StatsRequest => 4,
            WireMessage::StatsResponse { .. } => 5,
            WireMessage::SeriesRequest => 6,
            WireMessage::SeriesResponse { .. } => 7,
        }
    }

    #[test]
    fn seeded_roundtrip_every_variant() {
        let mut rng = TestRng::new(0xC0FF_EE00);
        let mut seen = [false; 8];
        for _ in 0..2_000 {
            let msg = rng.message();
            seen[variant_index(&msg)] = true;
            let bytes = msg.encode();
            assert!(bytes.len() <= MAX_FRAME_LEN);
            assert_eq!(WireMessage::decode(&bytes).unwrap(), msg);
            let mut framed = Vec::new();
            write_frame(&mut framed, &msg).unwrap();
            assert_eq!(read_frame(&mut framed.as_slice()).unwrap(), msg);
        }
        assert!(seen.iter().all(|&s| s), "generator missed a variant");
    }

    #[test]
    fn seeded_truncations_error_never_panic() {
        let mut rng = TestRng::new(0x7A3E);
        for _ in 0..500 {
            let bytes = rng.message().encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireMessage::decode(&bytes[..cut]).is_err(),
                    "decode of {cut}-byte prefix of {bytes:?} should fail"
                );
            }
        }
    }

    #[test]
    fn seeded_garbage_never_panics() {
        let mut rng = TestRng::new(0x5EED);
        for _ in 0..5_000 {
            let len = rng.below(64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
            // Any outcome but a panic is acceptable.
            let _ = WireMessage::decode(&bytes);
        }
    }

    #[test]
    fn seeded_bitflips_never_panic() {
        let mut rng = TestRng::new(0xF11B);
        for _ in 0..2_000 {
            let msg = rng.message();
            let mut bytes = msg.encode();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
            let _ = WireMessage::decode(&bytes);
        }
    }
}
