#![forbid(unsafe_code)]
//! `coopcache` — the command-line front end of the workspace.
//!
//! ```sh
//! coopcache gen --profile medium --out campus.trace
//! coopcache stats --trace campus.trace
//! coopcache simulate --trace campus.trace --aggregate 10MB --scheme ea
//! coopcache sweep --profile medium --caches 8
//! coopcache serve --caches 3 --scheme ea
//! coopcache status --addrs 127.0.0.1:40117,127.0.0.1:40119
//! ```

mod args;
mod commands;
mod status;

use args::ParsedArgs;
use commands::{dispatch, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{USAGE}");
        std::process::exit(2);
    }
    let parsed = match ParsedArgs::parse(argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = dispatch(&parsed, &mut out) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
