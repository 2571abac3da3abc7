//! A per-host pool of persistent peer/origin connections.
//!
//! The daemon's client side (peer fetches and origin fallback) checks
//! connections out of this pool instead of paying a fresh
//! `TcpStream::connect` per miss. Healthy connections are parked on
//! check-in and reused LIFO (the most recently parked connection is the
//! most likely to still be alive); parked connections past the idle
//! timeout are reaped lazily at the next checkout or check-in for their
//! host. Quarantining a peer discards its parked connections outright —
//! a quarantined peer's sockets are dead weight and reusing one after
//! recovery would mask the backoff window.
//!
//! A connection's socket options (`TCP_NODELAY`, read and write
//! timeouts) are set once, at connect; an exchange on a reused
//! connection makes no `setsockopt` call. Responses are read through the
//! connection's own buffer, kept for its lifetime. A connection carries
//! one outstanding response at a time, so the buffer is empty between
//! exchanges — and a connection whose buffer is not is never parked.
//!
//! Locking discipline: the single `pool_idle` mutex is held only for
//! `BTreeMap`/`Vec` bookkeeping. Connects happen before the guard is
//! taken and every drop of a reaped/evicted/discarded stream (which can
//! touch the kernel) happens after it is released, so the pool never
//! blocks under a lock (see the `lock-blocking` lint).

use crate::clock::SharedClock;
use crate::lock;
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// An outbound connection: requests are written to the stream
/// (`get_mut`), responses are read through the buffer.
pub(crate) type Conn = BufReader<TcpStream>;

/// Response buffer per connection: a document response whose frame and
/// body fit it arrives in one `read` (peer bodies up to 8156 bytes, origin
/// bodies up to 8184). Larger bodies take one more `read` per buffer.
const RESPONSE_BUF: usize = 8 * 1024;

/// Connects to `addr` and sets the connection's socket options, the only
/// time they are set: `TCP_NODELAY`, and `io_timeout` on reads and
/// writes (a timeout also bounds the connect).
pub(crate) fn connect(addr: SocketAddr, io_timeout: Duration) -> io::Result<Conn> {
    let stream = TcpStream::connect_timeout(&addr, io_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    Ok(BufReader::with_capacity(RESPONSE_BUF, stream))
}

/// A parked connection and the daemon-clock microsecond it was parked.
#[derive(Debug)]
struct IdleConn {
    conn: Conn,
    parked_at_us: u64,
}

/// A checked-out connection, flagged with whether it came from the pool
/// (`reused`) or a fresh connect.
#[derive(Debug)]
pub(crate) struct Checkout {
    pub(crate) conn: Conn,
    pub(crate) reused: bool,
}

#[derive(Debug)]
pub(crate) struct ConnectionPool {
    /// Parked idle connections per remote host, newest last.
    pool_idle: Mutex<BTreeMap<SocketAddr, Vec<IdleConn>>>,
    /// Cap on parked connections per host; 0 disables pooling entirely.
    max_idle_per_host: usize,
    idle_timeout_us: u64,
    /// Connect, read and write timeout of every connection made.
    io_timeout: Duration,
}

impl ConnectionPool {
    pub(crate) fn new(
        max_idle_per_host: usize,
        idle_timeout: Duration,
        io_timeout: Duration,
    ) -> Self {
        Self {
            pool_idle: Mutex::new(BTreeMap::new()),
            max_idle_per_host,
            idle_timeout_us: u64::try_from(idle_timeout.as_micros()).unwrap_or(u64::MAX),
            io_timeout,
        }
    }

    /// Checks out a connection to `addr`: the most recently parked live
    /// connection when one exists, otherwise a fresh [`connect`] (made
    /// with no pool lock held).
    pub(crate) fn checkout(&self, addr: SocketAddr, clock: &SharedClock) -> io::Result<Checkout> {
        let now_us = clock.now_micros();
        let (hit, stale) = {
            let mut idle = lock(&self.pool_idle);
            let mut hit = None;
            let mut stale = Vec::new();
            if let Some(parked) = idle.get_mut(&addr) {
                // Newest-first: parked order is by check-in time, so
                // once the newest survivor is found everything still
                // parked behind it is at least as old — but ages are
                // checked per connection anyway, which keeps the loop
                // correct even if clocks or check-ins interleave oddly.
                while let Some(idle_conn) = parked.pop() {
                    if now_us.saturating_sub(idle_conn.parked_at_us) <= self.idle_timeout_us {
                        hit = Some(idle_conn.conn);
                        break;
                    }
                    stale.push(idle_conn);
                }
                if parked.is_empty() {
                    idle.remove(&addr);
                }
            }
            (hit, stale)
        };
        drop(stale); // reaped sockets close outside the lock
        match hit {
            Some(conn) => Ok(Checkout { conn, reused: true }),
            None => Ok(Checkout {
                conn: connect(addr, self.io_timeout)?,
                reused: false,
            }),
        }
    }

    /// Parks a healthy connection for reuse. When the per-host cap is
    /// exceeded the oldest parked connection is evicted (and closed
    /// outside the lock). A connection with unread bytes in its buffer
    /// is closed instead: they would be read as the next exchange's
    /// response.
    pub(crate) fn checkin(&self, addr: SocketAddr, conn: Conn, clock: &SharedClock) {
        if self.max_idle_per_host == 0 || !conn.buffer().is_empty() {
            return; // the connection drops (closes) here
        }
        let parked_at_us = clock.now_micros();
        let evicted = {
            let mut idle = lock(&self.pool_idle);
            let parked = idle.entry(addr).or_default();
            parked.push(IdleConn { conn, parked_at_us });
            if parked.len() > self.max_idle_per_host {
                Some(parked.remove(0))
            } else {
                None
            }
        };
        drop(evicted); // evicted socket closes outside the lock
    }

    /// Discards every parked connection for `addr`, returning how many
    /// were dropped. Called when a peer is quarantined or a reused
    /// connection turns out stale.
    pub(crate) fn discard(&self, addr: SocketAddr) -> usize {
        let drained = { lock(&self.pool_idle).remove(&addr) };
        // Sockets close here, after the guard above is released.
        drained.map_or(0, |parked| parked.len())
    }

    /// Number of connections currently parked for `addr`.
    pub(crate) fn idle_count(&self, addr: SocketAddr) -> usize {
        lock(&self.pool_idle).get(&addr).map_or(0, Vec::len)
    }

    /// Total parked connections across all hosts.
    #[cfg(test)]
    pub(crate) fn idle_total(&self) -> usize {
        lock(&self.pool_idle).values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        (listener, addr)
    }

    #[test]
    fn connect_sets_nodelay_and_both_timeouts() {
        let (_listener, addr) = listener();
        let timeout = Duration::from_millis(750);
        let conn = connect(addr, timeout).expect("connect");
        let stream = conn.get_ref();
        assert!(stream.nodelay().expect("read TCP_NODELAY"));
        // The kernel keeps socket timeouts in scheduler ticks.
        let near =
            |set: Option<Duration>| set.is_some_and(|d| d.abs_diff(timeout).as_millis() < 20);
        assert!(near(stream.read_timeout().expect("read timeout")));
        assert!(near(stream.write_timeout().expect("write timeout")));
    }

    #[test]
    fn checkout_connects_fresh_then_reuses_checked_in_connection() {
        let (_listener, addr) = listener();
        let clock = SharedClock::start();
        let pool = ConnectionPool::new(4, Duration::from_secs(30), Duration::from_secs(1));

        let first = pool.checkout(addr, &clock).expect("connect");
        assert!(!first.reused);
        pool.checkin(addr, first.conn, &clock);
        assert_eq!(pool.idle_count(addr), 1);

        let second = pool.checkout(addr, &clock).expect("reuse");
        assert!(second.reused, "parked connection is handed back out");
        assert_eq!(pool.idle_count(addr), 0);
    }

    #[test]
    fn per_host_cap_evicts_oldest_and_zero_cap_disables_pooling() {
        let (_listener, addr) = listener();
        let clock = SharedClock::start();
        let pool = ConnectionPool::new(2, Duration::from_secs(30), Duration::from_secs(1));
        for _ in 0..3 {
            let conn = pool.checkout(addr, &clock).expect("connect");
            pool.checkin(addr, conn.conn, &clock);
        }
        // Third check-in of a distinct connection trips the cap of 2.
        let c1 = pool.checkout(addr, &clock).expect("a");
        let c2 = pool.checkout(addr, &clock).expect("b");
        pool.checkin(addr, c1.conn, &clock);
        pool.checkin(addr, c2.conn, &clock);
        assert_eq!(pool.idle_count(addr), 2);

        let disabled = ConnectionPool::new(0, Duration::from_secs(30), Duration::from_secs(1));
        let conn = disabled.checkout(addr, &clock).expect("connect");
        disabled.checkin(addr, conn.conn, &clock);
        assert_eq!(disabled.idle_count(addr), 0, "cap 0 parks nothing");
    }

    #[test]
    fn stale_connections_are_reaped_at_checkout() {
        let (_listener, addr) = listener();
        let clock = SharedClock::start();
        let pool = ConnectionPool::new(4, Duration::ZERO, Duration::from_secs(1)); // everything is instantly stale
        let conn = pool.checkout(addr, &clock).expect("connect");
        pool.checkin(addr, conn.conn, &clock);
        std::thread::sleep(Duration::from_millis(2));
        let next = pool.checkout(addr, &clock).expect("connect");
        assert!(
            !next.reused,
            "stale parked connection was reaped, not reused"
        );
        assert_eq!(pool.idle_total(), 0);
    }

    #[test]
    fn discard_drops_every_parked_connection_for_the_host() {
        let (_listener, addr) = listener();
        let (_other_listener, other) = listener();
        let clock = SharedClock::start();
        let pool = ConnectionPool::new(4, Duration::from_secs(30), Duration::from_secs(1));
        // Check out two distinct connections to `addr` before parking
        // either (sequential checkin would just reuse the first).
        let a1 = pool.checkout(addr, &clock).expect("a1");
        let a2 = pool.checkout(addr, &clock).expect("a2");
        pool.checkin(addr, a1.conn, &clock);
        pool.checkin(addr, a2.conn, &clock);
        let o = pool.checkout(other, &clock).expect("o");
        pool.checkin(other, o.conn, &clock);
        assert_eq!(pool.discard(addr), 2);
        assert_eq!(pool.idle_count(addr), 0);
        assert_eq!(pool.idle_count(other), 1, "other hosts are untouched");
        assert_eq!(pool.discard(addr), 0, "second discard finds nothing");
    }
}
