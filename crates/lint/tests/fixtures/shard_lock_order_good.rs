//! Clean fixture: the window table is a leaf below the shard locks —
//! taken only under a shard guard, never the other way round — and the
//! write happens after the shard guard is gone.

use std::sync::{Mutex, MutexGuard, PoisonError};

struct Shard {
    window: u64,
}

struct Cache {
    shards: Vec<Mutex<Shard>>,
    windows: Mutex<Vec<u64>>,
}

impl Cache {
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn insert(&self, i: usize) {
        let mut shard = self.lock_shard(i);
        shard.window += 1;
        let mut windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        windows[i] = shard.window;
    }

    fn serve(&self, i: usize, writer: &mut Vec<u8>) -> std::io::Result<()> {
        let window = self.lock_shard(i).window;
        write_frame(writer, window)
    }
}

fn write_frame(writer: &mut Vec<u8>, n: u64) -> std::io::Result<()> {
    writer.extend_from_slice(&n.to_be_bytes());
    Ok(())
}
