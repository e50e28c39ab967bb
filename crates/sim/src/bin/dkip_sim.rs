//! `dkip-sim` — prints the paper's tables and figures, dumps the telemetry
//! of one run, and runs golden sweeps against the result store. The grammar
//! and every subcommand live in [`dkip_sim::cli`]; run `dkip-sim` with no
//! arguments for the usage text.

use std::process::ExitCode;

use dkip_sim::cli::{run, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
