//! Fixture: R3 violations — hash-order iteration where order can leak.

use std::collections::{HashMap, HashSet};

pub fn leaky(counts: HashMap<u64, u64>) -> Vec<u64> {
    counts.values().copied().collect()
}

pub fn looped() {
    let seen: HashSet<u64> = HashSet::new();
    for s in &seen {
        let _ = s;
    }
}

pub fn path_initialized() {
    let mut fresh = std::collections::HashSet::new();
    fresh.insert(1u64);
    for d in fresh {
        let _ = d;
    }
}

pub fn path_ascribed(typed: std::collections::HashSet<u64>) -> Vec<u64> {
    typed.into_iter().collect()
}

pub struct State {
    pending: HashMap<u64, u64>,
}

impl State {
    pub fn drain_all(&mut self) -> Vec<(u64, u64)> {
        self.pending.drain().collect()
    }
}

pub struct Arena {
    slots: Vec<u64>,
}

impl Arena {
    pub fn iter_unordered(&self) -> std::slice::Iter<'_, u64> {
        self.slots.iter()
    }

    pub fn escapes_allocation_order(&self) -> Vec<u64> {
        self.iter_unordered().copied().collect()
    }

    /// Sorting afterwards does not justify the walk: only an allow does.
    pub fn sorted_entries(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.iter_unordered().copied().collect();
        out.sort_unstable();
        out
    }

    pub fn walks_allocation_order(&self) {
        for v in self.iter_unordered() {
            let _ = v;
        }
    }
}
