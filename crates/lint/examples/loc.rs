//! Production line counts per crate: the non-blank lines of every
//! `src/**/*.rs` file (as the linter collects them) once
//! `coopcache_lint::mask` has blanked comments, literal contents and the
//! `#[cfg(test)]` / `#[test]` items. So neither tests nor comments count,
//! and two trees compare on code alone.
//!
//! Run from the workspace root, or pass another root:
//!
//! ```text
//! cargo run -q -p coopcache-lint --example loc [ROOT]
//! ```

use coopcache_lint::{collect_files, crate_of, mask};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_owned()));
    let files = match collect_files(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("loc: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for path in files {
        let src = match std::fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("loc: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = path.strip_prefix(&root).unwrap_or(&path);
        // The facade package's own `src/` sits outside `crates/`.
        let name = crate_of(rel).unwrap_or("coopcache").to_owned();
        let lines = mask(&src)
            .app_code
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        *per_crate.entry(name).or_default() += lines;
    }
    println!("{:<12} {:>7}", "crate", "lines");
    for (name, lines) in &per_crate {
        println!("{name:<12} {lines:>7}");
    }
    println!("{:<12} {:>7}", "total", per_crate.values().sum::<usize>());
    ExitCode::SUCCESS
}
