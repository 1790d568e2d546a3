//! The `moche` binary: parse arguments, run the command, stream the report
//! to stdout.
//!
//! Output goes through one locked, buffered stdout handle for the whole
//! run, so `moche batch`, `moche batch2d` and the `moche serve` daemon's
//! alarm log print each result as it is delivered instead of accumulating
//! a report in memory. Exit codes: `0` success, `1` for errors (including
//! batch runs where every window failed and nothing was explained, and a
//! batch windows file with a malformed line, reported after the results of
//! the windows before it), `2` for usage errors, `3` for snapshot errors
//! (a corrupt `--resume` file or shard checkpoint, or a failed
//! `--checkpoint` write). SIGTERM/SIGINT against `moche serve` are not exits at all:
//! the daemon installs a handler (`moche-signal`) that drains
//! gracefully — final checkpoints, `health:` line — and then returns
//! through the normal success path, so a supervisor's stop reads as
//! exit 0.

use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match moche_cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try 'moche help'");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match moche_cli::run(command, &mut out) {
        Ok(status) => {
            if let Err(e) = out.flush() {
                eprintln!("error: cannot write output: {e}");
                std::process::exit(1);
            }
            std::process::exit(status.exit_code());
        }
        Err(e) => {
            let _ = out.flush(); // keep whatever was already streamed
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
