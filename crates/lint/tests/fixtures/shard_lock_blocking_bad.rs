//! Deliberately violating fixture: a wire write while a shard guard
//! from `lock_for` is live — one slow peer would wedge every request
//! routed to that shard.

use std::sync::{Mutex, MutexGuard, PoisonError};

struct Shard {
    served: u64,
}

struct Cache {
    shards: Vec<Mutex<Shard>>,
}

impl Cache {
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_for(&self, doc: u64) -> MutexGuard<'_, Shard> {
        self.lock_shard(doc as usize % self.shards.len())
    }

    fn serve(&self, doc: u64, writer: &mut Vec<u8>) -> std::io::Result<()> {
        let mut shard = self.lock_for(doc);
        shard.served += 1;
        write_frame(writer, shard.served)
    }
}

fn write_frame(writer: &mut Vec<u8>, n: u64) -> std::io::Result<()> {
    writer.extend_from_slice(&n.to_be_bytes());
    Ok(())
}
