//! `BENCH_9.json` is the frozen snapshot coopbench's golden hit-rate
//! cells cite by name; `results/` is the table set `scripts/check.sh`
//! regenerates at full scale and diffs. The two must not drift apart:
//! every experiment the snapshot shares with `results/` is the same
//! document, cell for cell.

use coopcache::obs::{parse_json, JsonValue};
use std::path::Path;

fn load(relative: &str) -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn bench_9_matches_the_regenerated_results_tables() {
    let snapshot = load("BENCH_9.json");
    let experiments = snapshot
        .get("experiments")
        .and_then(JsonValue::as_array)
        .expect("BENCH_9.json lists its experiments");
    for id in ["fig1_hit_rates", "des_latency"] {
        let frozen = experiments
            .iter()
            .find(|e| e.get("id").and_then(JsonValue::as_str) == Some(id))
            .unwrap_or_else(|| panic!("BENCH_9.json has no {id} experiment"));
        let current = load(&format!("results/{id}.json"));
        assert_eq!(
            frozen, &current,
            "BENCH_9.json's {id} drifted from results/{id}.json"
        );
    }
}
