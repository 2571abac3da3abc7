//! Deliberately violating fixture: one path nests the window table
//! under a shard guard, another takes a shard under the window table —
//! a shard → windows → shard cycle.

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

    fn audit(&self, i: usize) -> bool {
        let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let shard = self.lock_shard(i);
        windows[i] == shard.window
    }
}
