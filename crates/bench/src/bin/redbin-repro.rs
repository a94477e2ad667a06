//! `redbin-repro` — the table/figure reproduction driver.
//!
//! ```text
//! redbin-repro <COMMAND> [--scale test|small|full] [--json PATH]
//!              [--server HOST:PORT] [--profile]
//!              [--seeds N] [--start-seed S] [--verify-static]
//! ```
//!
//! where `COMMAND` is one of `figure9`–`figure14`, `table1`, `table3`,
//! `delays`, `programs` or `all` (each runs locally or, with `--server`,
//! on a `redbin-served`), or one of the local-only `ablations`, `fuzz` and
//! `workload-profile`. See `redbin_bench::repro` for which flags each
//! command takes.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!(
            "usage: redbin-repro <{}> [--scale test|small|full] [--json PATH] \
             [--server HOST:PORT] [--profile] [--seeds N] [--start-seed S] [--verify-static]",
            redbin_bench::repro::commands()
        );
        std::process::exit(2);
    };
    redbin_bench::repro::run_from_argv(command, rest);
}
