//! Fixture: R3 non-violations — ordered collections, point access, test
//! code, and the justified escape hatch.

use std::collections::{BTreeMap, HashMap};

pub fn ordered(counts: BTreeMap<u64, u64>) -> Vec<u64> {
    counts.values().copied().collect()
}

pub fn point_access(index: HashMap<u64, u64>, key: u64) -> Option<u64> {
    index.get(&key).copied()
}

pub fn sanctioned(scratch: HashMap<u64, u64>) -> u64 {
    // lint:allow(map-iter) -- order folds through a commutative sum
    scratch.values().sum()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn iteration_inside_tests_is_fine() {
        let m: HashMap<u64, u64> = HashMap::new();
        for (_k, _v) in m.iter() {}
    }
}

pub struct Shard {
    slots: Vec<u64>,
}

impl Shard {
    pub fn iter_unordered(&self) -> std::slice::Iter<'_, u64> {
        self.slots.iter()
    }

    pub fn checksum(&self) -> u64 {
        // lint:allow(map-iter) -- order folds through a commutative sum
        self.iter_unordered().sum()
    }
}
