#![forbid(unsafe_code)]
//! `experiments [--fast] [ID ...]`; see the `coopcache_bench` crate doc.

use coopcache_bench::{emit, parse_args, usage, Inputs};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.scale);
    for e in args.experiments {
        let table = (e.run)(&inputs);
        if let Err(err) = emit(Path::new("results"), e.id, e.title, inputs.scale, &table) {
            eprintln!("error: cannot write results/{}: {err}", e.id);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
