#![forbid(unsafe_code)]
//! CLI for the workspace conformance linter.
//!
//! ```sh
//! cargo run -p coopcache-lint                  # lint the enclosing workspace
//! cargo run -p coopcache-lint -- --concurrency # concurrency rules only
//! cargo run -p coopcache-lint -- --root /path/to/repo
//! ```
//!
//! Exit status: 0 when clean, 1 with `file:line: [rule] message`
//! diagnostics otherwise, 2 on usage or I/O errors.

use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: coopcache-lint [--root <workspace-dir>] [--concurrency]");
    std::process::exit(2);
}

/// The nearest ancestor of `start` whose `Cargo.toml` declares a
/// `[workspace]`.
fn find_workspace_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut concurrency_only = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--concurrency" => concurrency_only = true,
            "--help" | "-h" => {
                println!("coopcache-lint: workspace conformance linter");
                println!();
                println!("usage: coopcache-lint [--root <workspace-dir>] [--concurrency]");
                println!();
                println!("rules: wall-clock, panic, map-iter, float-eq, dead-event,");
                println!("       paranoid-wiring (see DESIGN.md §8); with --concurrency,");
                println!("       only lock-blocking, lock-order, atomic-order, guard-await,");
                println!("       unsafe (see DESIGN.md §8)");
                return;
            }
            _ => usage(),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot read current dir: {e}");
                    std::process::exit(2);
                }
            };
            match find_workspace_root(cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no enclosing workspace found; pass --root");
                    std::process::exit(2);
                }
            }
        }
    };
    let filtered = coopcache_lint::lint_workspace(&root).map(|mut findings| {
        if concurrency_only {
            findings.retain(|f| f.rule.is_concurrency());
        }
        findings
    });
    match filtered {
        Ok(findings) if findings.is_empty() => {
            let n = coopcache_lint::count_files(&root).unwrap_or(0);
            let scope = if concurrency_only {
                " (concurrency rules)"
            } else {
                ""
            };
            println!("coopcache-lint: clean ({n} files){scope}");
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("coopcache-lint: {} finding(s)", findings.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
