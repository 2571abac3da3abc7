//! Deliberately violating fixture: a document body drained and a socket
//! peeked, filled and sent to while a guard is live — one slow peer
//! would stall every thread that needs `pool`. The last method moves
//! the transfer past the guard and is clean.

use std::io::BufRead;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn drain_body<R: BufRead>(reader: &mut R, len: u64) -> std::io::Result<()> {
    reader.consume(len as usize);
    Ok(())
}

struct Fetcher {
    pool: Mutex<Vec<u64>>,
}

impl Fetcher {
    fn drain_holding_pool<R: BufRead>(&self, reader: &mut R) {
        let lengths = lock(&self.pool);
        let _ = drain_body(reader, lengths[0]);
    }

    fn fill_and_peek_holding_pool<R: BufRead>(&self, reader: &mut R, stream: &TcpStream) {
        let guard = lock(&self.pool);
        let _ = reader.fill_buf();
        let _ = stream.peek(&mut [0u8; 8]);
        drop(guard);
    }

    fn send_to_holding_pool(&self, socket: &UdpSocket, to: SocketAddr) {
        let guard = lock(&self.pool);
        let _ = socket.send_to(&[0u8], to);
        drop(guard);
    }

    fn drain_after_release<R: BufRead>(&self, reader: &mut R) {
        let len = lock(&self.pool)[0];
        let _ = drain_body(reader, len);
    }
}
