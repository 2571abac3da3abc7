//! Fixture: a bounded channel `send` blocks while the queue is full, so
//! it is flagged under a live guard and clean once the guard drops.

use std::sync::mpsc::SyncSender;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Producer {
    tap: Mutex<Vec<u64>>,
    queue: SyncSender<Vec<u64>>,
}

impl Producer {
    fn ship_holding_tap(&self) {
        let mut guard = lock(&self.tap);
        let batch = std::mem::take(&mut *guard);
        let _ = self.queue.send(batch); // waits for a consumer that may need `tap`
    }

    fn ship_after_release(&self) {
        let batch = {
            let mut guard = lock(&self.tap);
            std::mem::take(&mut *guard)
        };
        let _ = self.queue.send(batch);
    }
}
