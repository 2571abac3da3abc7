//! A stub origin web server for the live runtime.
//!
//! Serves any document on request, synthesizing a body of the requested
//! size at once: loopback origin fetches cost no wide-area distance (the
//! paper measured ~2.8 s for a real miss in 2002).
//!
//! Connections are persistent: each accepted connection gets its own
//! thread that answers requests until the client closes or times out,
//! so the daemons' pooled origin connections amortize their connect
//! cost. Every accepted socket carries *both* a read and a write
//! timeout — a stalled reader that never drains its response can no
//! longer wedge the origin in `write_all` forever (such stalls are
//! counted in [`OriginServer::write_timeouts`]).

use crate::daemon::{is_timeout, ConnTable};
use crate::pool::Conn;
use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The most body bytes the origin sends in the same `write` as a
/// reply's length.
const BODY_CHUNK: usize = 8192;

/// Length of [`ZEROS`]: the most body bytes [`write_body`] hands to one
/// `write_all`. At least the document server's write buffer, so a body
/// that outgrows that buffer is written through rather than copied.
pub(crate) const ZERO_BLOCK: usize = 64 * 1024;

/// Every synthetic body's bytes: one shared immutable block, so serving
/// a body zeroes nothing per call.
static ZEROS: [u8; ZERO_BLOCK] = [0; ZERO_BLOCK];

/// One request/response exchange on an already-connected origin
/// connection, leaving it healthy for reuse.
///
/// Wire format: request = `doc: u64, size: u64` (big-endian); response =
/// `size: u64` followed by `size` body bytes.
pub(crate) fn fetch_on_origin_conn(conn: &mut Conn, doc: u64, size: u64) -> io::Result<u64> {
    let mut req = [0u8; 16];
    req[..8].copy_from_slice(&doc.to_be_bytes());
    req[8..].copy_from_slice(&size.to_be_bytes());
    conn.get_mut().write_all(&req)?;
    let mut header = [0u8; 8];
    conn.read_exact(&mut header)?;
    let body_len = u64::from_be_bytes(header);
    drain_body(conn, body_len)?;
    Ok(body_len)
}

/// Connects, performs one exchange, and drops the connection (tests and
/// one-shot callers; the daemons go through their pool instead).
#[cfg(test)]
pub(crate) fn fetch_from_origin(
    addr: SocketAddr,
    doc: u64,
    size: u64,
    timeout: Duration,
) -> io::Result<u64> {
    let mut conn = crate::pool::connect(addr, timeout)?;
    fetch_on_origin_conn(&mut conn, doc, size)
}

/// Reads and discards exactly `len` body bytes, straight out of the
/// reader's buffer.
pub(crate) fn drain_body<R: BufRead>(reader: &mut R, len: u64) -> io::Result<()> {
    let mut remaining = len;
    while remaining > 0 {
        let available = match reader.fill_buf() {
            Ok(buf) => buf.len(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let take = available.min(usize::try_from(remaining).unwrap_or(usize::MAX));
        reader.consume(take);
        remaining -= take as u64;
    }
    Ok(())
}

/// Writes exactly `len` zero bytes as a synthetic document body.
pub(crate) fn write_body<W: Write>(writer: &mut W, len: u64) -> io::Result<()> {
    let mut remaining = len;
    while remaining > 0 {
        let want = remaining.min(ZERO_BLOCK as u64) as usize;
        writer.write_all(&ZEROS[..want])?;
        remaining -= want as u64;
    }
    Ok(())
}

/// Writes one origin reply — the body length, then `size` zero bytes —
/// with the length and up to [`BODY_CHUNK`] body bytes in one `write`.
/// `buf` is the connection's reply buffer: its body part stays zero, so
/// only the length is written into it per reply.
fn write_reply<W: Write>(writer: &mut W, size: u64, buf: &mut [u8]) -> io::Result<()> {
    debug_assert_eq!(buf.len(), 8 + BODY_CHUNK);
    buf[..8].copy_from_slice(&size.to_be_bytes());
    let first = size.min(BODY_CHUNK as u64);
    writer.write_all(&buf[..8 + first as usize])?;
    write_body(writer, size - first)
}

/// State shared between the origin's accept loop, its per-connection
/// threads, and the server handle.
#[derive(Debug)]
struct OriginShared {
    served: AtomicU64,
    write_timeouts: AtomicU64,
    stop: AtomicBool,
    /// Live connections, shut down at exit to unblock parked reads.
    conns: Arc<ConnTable>,
}

/// A running stub origin server on a loopback TCP port.
#[derive(Debug)]
pub(crate) struct OriginServer {
    addr: SocketAddr,
    shared: Arc<OriginShared>,
    handle: Option<JoinHandle<()>>,
}

impl OriginServer {
    /// Binds a loopback listener and starts serving with a 5 s I/O
    /// timeout.
    pub(crate) fn start() -> io::Result<Self> {
        Self::start_with_timeout(Duration::from_secs(5))
    }

    /// As [`OriginServer::start`], with an explicit per-connection I/O
    /// timeout (tests exercising stall handling want a short one).
    pub(crate) fn start_with_timeout(io_timeout: Duration) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(OriginShared {
            served: AtomicU64::new(0),
            write_timeouts: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            conns: Arc::default(),
        });
        let handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("coopcache-origin".into())
                .spawn(move || accept_loop(&listener, io_timeout, &shared))?
        };
        Ok(Self {
            addr,
            shared,
            handle: Some(handle),
        })
    }

    /// The address clients should fetch misses from.
    #[must_use]
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of documents served so far (each is one group miss).
    #[must_use]
    pub(crate) fn served(&self) -> u64 {
        // lint:allow(atomic-order) -- SeqCst: pairs with the SeqCst
        // fetch_add in `serve_conn`; tests compare this against bytes
        // already received over TCP, so the count may never lag a
        // completed response.
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Number of responses abandoned because the client stalled without
    /// draining them until the write timeout expired.
    #[cfg(test)]
    pub(crate) fn write_timeouts(&self) -> u64 {
        self.shared.write_timeouts.load(Ordering::Relaxed)
    }

    /// Stops the listener and connection threads and waits for them.
    pub(crate) fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        // lint:allow(atomic-order) -- Release: pairs with the Acquire
        // load in `accept_loop`/`serve_conn`.
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connect.
        drop(TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(500),
        ));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // Acceptor joined: no new connections can register. Unblock and
        // join the per-connection threads.
        self.shared.conns.shutdown_all();
    }
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        // Best effort; `shutdown` is the clean path. The wake matters:
        // the acceptor blocks indefinitely and only re-checks the flag
        // once a connection arrives.
        // lint:allow(atomic-order) -- Release: same pairing as `halt`.
        self.shared.stop.store(true, Ordering::Release);
        if self.handle.is_some() {
            drop(TcpStream::connect_timeout(
                &self.addr,
                Duration::from_millis(500),
            ));
        }
    }
}

fn accept_loop(listener: &TcpListener, io_timeout: Duration, shared: &Arc<OriginShared>) {
    let mut conn_seq = 0u64;
    // lint:allow(atomic-order) -- Acquire: pairs with the Release store
    // in `halt`/`drop`, ordering the flag read before loop exit.
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // lint:allow(atomic-order) -- Acquire: same pairing; the
                // wake connection must not spawn a server thread.
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let id = conn_seq;
                conn_seq += 1;
                let conn_shared = Arc::clone(shared);
                let serve = move |stream: &TcpStream| serve_conn(stream, io_timeout, &conn_shared);
                // A failed spawn drops the connection; the origin serves on.
                let _ = shared
                    .conns
                    .spawn(id, format!("coopcache-origin-{id}"), stream, serve);
            }
            // Any other accept error is transient on loopback; keep the
            // origin alive — only shutdown exits.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Serves one connection until the client closes, stalls past the I/O
/// timeout, or shutdown.
fn serve_conn(stream: &TcpStream, io_timeout: Duration, shared: &OriginShared) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    // Allocated once per connection; too large for the stack.
    let mut reply = vec![0u8; 8 + BODY_CHUNK];
    loop {
        // lint:allow(atomic-order) -- Acquire: pairs with the Release
        // store in `halt`/`drop`.
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let mut req = [0u8; 16];
        if stream.read_exact(&mut req).is_err() {
            return; // client closed or idled out; both end the connection
        }
        let mut size_bytes = [0u8; 8];
        size_bytes.copy_from_slice(&req[8..]);
        let size = u64::from_be_bytes(size_bytes);
        // Count BEFORE replying: a client that has received the
        // whole body must observe the incremented counter.
        // lint:allow(atomic-order) -- SeqCst: pairs with the
        // SeqCst load in `served`; see that comment.
        shared.served.fetch_add(1, Ordering::SeqCst);
        if let Err(e) = write_reply(&mut stream, size, &mut reply) {
            if is_timeout(&e) {
                // The client stalled without draining its response —
                // the bug class write timeouts exist for. The response
                // is abandoned and the connection dropped; the origin
                // itself keeps serving.
                shared.write_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CountingWriter;

    #[test]
    fn origin_serves_requested_size() {
        let origin = OriginServer::start().unwrap();
        let got = fetch_from_origin(origin.addr(), 42, 10_000, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 10_000);
        assert_eq!(origin.served(), 1);
        origin.shutdown();
    }

    #[test]
    fn origin_counts_multiple_fetches() {
        let origin = OriginServer::start().unwrap();
        for doc in 0..5 {
            fetch_from_origin(origin.addr(), doc, 100, Duration::from_secs(5)).unwrap();
        }
        assert_eq!(origin.served(), 5);
        origin.shutdown();
    }

    #[test]
    fn zero_byte_document() {
        let origin = OriginServer::start().unwrap();
        let got = fetch_from_origin(origin.addr(), 1, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 0);
        origin.shutdown();
    }

    #[test]
    fn persistent_connection_serves_many_requests() {
        let origin = OriginServer::start().unwrap();
        let mut conn = crate::pool::connect(origin.addr(), Duration::from_secs(5)).unwrap();
        for doc in 0..4 {
            let got = fetch_on_origin_conn(&mut conn, doc, 64).unwrap();
            assert_eq!(got, 64);
        }
        assert_eq!(origin.served(), 4, "four requests on one connection");
        origin.shutdown();
    }

    #[test]
    fn reply_that_fits_the_buffer_is_one_write() {
        let mut buf = vec![0u8; 8 + BODY_CHUNK];
        for size in [0u64, 1, 4_096, BODY_CHUNK as u64] {
            let mut out = CountingWriter::default();
            write_reply(&mut out, size, &mut buf).unwrap();
            assert_eq!(out.writes.len(), 1, "a {size}-byte body is one write");
            let mut expect = size.to_be_bytes().to_vec();
            expect.resize(8 + size as usize, 0);
            assert_eq!(out.bytes, expect);
        }
        // A larger body still carries its length in the first write.
        let mut out = CountingWriter::default();
        write_reply(&mut out, 3 * BODY_CHUNK as u64, &mut buf).unwrap();
        assert_eq!(out.writes[0], 8 + BODY_CHUNK);
        assert_eq!(out.bytes.len(), 8 + 3 * BODY_CHUNK);
    }

    #[test]
    fn write_body_sends_zero_blocks() {
        let len = 2 * ZERO_BLOCK as u64 + 3;
        let mut out = CountingWriter::default();
        write_body(&mut out, len).unwrap();
        assert_eq!(out.writes, vec![ZERO_BLOCK, ZERO_BLOCK, 3]);
        assert!(out.bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn drain_body_consumes_exactly_the_body() {
        let bytes = [7u8; 100];
        let mut reader = io::BufReader::with_capacity(16, &bytes[..]);
        drain_body(&mut reader, 60).unwrap();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest.len(), 40, "the bytes after the body stay unread");
        let err = drain_body(&mut io::BufReader::new(&bytes[..3]), 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn stalled_reader_times_out_without_wedging_the_origin() {
        // Regression for the missing-write-timeout bug: a peer that
        // requests a huge body and never reads it fills the kernel
        // buffers until the origin's `write_all` would block forever.
        // With a write timeout the origin abandons the response,
        // counts it, and keeps serving other clients.
        let origin = OriginServer::start_with_timeout(Duration::from_millis(200)).unwrap();
        let mut stall = TcpStream::connect_timeout(&origin.addr(), Duration::from_secs(5)).unwrap();
        let mut req = [0u8; 16];
        req[..8].copy_from_slice(&7u64.to_be_bytes());
        req[8..].copy_from_slice(&64_000_000u64.to_be_bytes()); // far beyond socket buffers
        stall.write_all(&req).unwrap();
        // Deliberately never read. Wait (bounded) for the origin's
        // write to time out rather than sleeping a fixed interval.
        let clock = crate::clock::SharedClock::start();
        while origin.write_timeouts() == 0 && clock.now_micros() < 10_000_000 {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(origin.write_timeouts(), 1, "stall detected and abandoned");
        // The origin is not wedged: a healthy client is still served.
        let got = fetch_from_origin(origin.addr(), 8, 1000, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 1000);
        drop(stall);
        origin.shutdown();
    }
}
