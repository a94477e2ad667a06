//! Shared plumbing for `redbin-repro`, the table/figure reproduction
//! driver (see [`repro`]).
//!
//! Flags are parsed strictly — an unknown flag, a bad value, or a flag the
//! subcommand would ignore exits non-zero instead of being silently
//! accepted:
//!
//! * `--scale test|small|full` (or `REDBIN_SCALE`) — workload size;
//! * `--json PATH` — write the machine-readable result document (not
//!   `workload-profile`);
//! * `--server HOST:PORT` (or `REDBIN_SERVER`) — client mode: the
//!   experiment commands and `all` submit their jobs to a running
//!   `redbin-served` instead of simulating locally (not the local-only
//!   [`repro::LOCAL_ONLY`] commands);
//! * `--profile` — `all` only: also write a `BENCH_5.json` throughput
//!   profile (wall-clock, sims/sec, instrs/sec per figure);
//! * `--seeds N` / `--start-seed S` — `fuzz` only: run the torture seeds
//!   `S..S+N` through the differential oracle;
//! * `--verify-static` — `fuzz` only: run every torture program through
//!   the static safety verifier (`redbin-analyze programs`) before handing
//!   it to the oracle, failing loudly with the seed and a disassembly
//!   listing if one is unprovable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use redbin::cli::parse_u64;
use redbin::prelude::*;
use redbin::telemetry::{Clock, MetricsRegistry};

pub mod repro;

/// The flags of a `redbin-repro` subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchArgs {
    /// Workload scale (`None` = the paper's `full`).
    pub scale: Option<Scale>,
    /// Where to write the JSON result, if requested.
    pub json: Option<std::path::PathBuf>,
    /// `redbin-served` address for client mode, if requested.
    pub server: Option<String>,
    /// Whether to write the `BENCH_5.json` throughput profile.
    pub profile: bool,
    /// `redbin-repro fuzz`: how many torture seeds to run.
    pub seeds: Option<u64>,
    /// `redbin-repro fuzz`: the first torture seed of the range.
    pub start_seed: Option<u64>,
    /// `redbin-repro fuzz`: verify each torture program statically
    /// before the differential oracle sees it.
    pub verify_static: bool,
}

impl BenchArgs {
    /// The effective scale (CLI > `REDBIN_SCALE` > `full`).
    pub fn effective_scale(&self) -> Scale {
        self.scale.unwrap_or(Scale::Full)
    }

    /// `fuzz`: the torture seeds `--start-seed .. --start-seed + --seeds`
    /// (defaults 0 and 200).
    ///
    /// # Errors
    ///
    /// Names both flags when the end of the range does not fit in a `u64`.
    pub fn seed_range(&self) -> Result<std::ops::Range<u64>, String> {
        let start = self.start_seed.unwrap_or(0);
        let n = self.seeds.unwrap_or(200);
        start.checked_add(n).map(|end| start..end).ok_or_else(|| {
            format!("--start-seed {start:#x} plus --seeds {n} runs past the last 64-bit seed")
        })
    }
}

/// Parses a scale name.
///
/// # Errors
///
/// Names the accepted values on anything unrecognized.
pub fn parse_scale(value: &str) -> Result<Scale, String> {
    match value {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale `{other}` (expected test|small|full)")),
    }
}

/// Strictly parses the argument list of subcommand `command` (everything
/// after the subcommand). Unknown flags are errors — a typo like `--sclae`
/// must not silently run the full-size default for hours — and so are
/// flags `command` would ignore.
///
/// # Errors
///
/// Returns a usage-style message naming the offending argument.
pub fn parse_cli(command: &str, args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let value = |it: &mut std::slice::Iter<String>| -> Result<String, String> {
            match inline.clone() {
                Some(v) => Ok(v),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value")),
            }
        };
        match flag {
            "--scale" => out.scale = Some(parse_scale(&value(&mut it)?)?),
            "--json" => out.json = Some(std::path::PathBuf::from(value(&mut it)?)),
            "--server" => out.server = Some(value(&mut it)?),
            "--profile" => {
                if inline.is_some() {
                    return Err("--profile takes no value".to_string());
                }
                out.profile = true;
            }
            "--seeds" => out.seeds = Some(parse_u64(flag, &value(&mut it)?)?),
            "--start-seed" => out.start_seed = Some(parse_u64(flag, &value(&mut it)?)?),
            "--verify-static" => {
                if inline.is_some() {
                    return Err("--verify-static takes no value".to_string());
                }
                out.verify_static = true;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --scale, --json, --server, \
                     --profile, --seeds, --start-seed or --verify-static)"
                ))
            }
        }
    }
    if out.profile && command != "all" {
        return Err(format!("--profile only applies to `all`, not `{command}`"));
    }
    if command != "fuzz" && (out.seeds.is_some() || out.start_seed.is_some() || out.verify_static)
    {
        return Err(format!(
            "--seeds, --start-seed and --verify-static only apply to `fuzz`, not `{command}`"
        ));
    }
    if out.server.is_some() && repro::LOCAL_ONLY.contains(&command) {
        return Err(format!("`{command}` runs locally only and takes no --server"));
    }
    if out.json.is_some() && command == "workload-profile" {
        return Err("`workload-profile` writes no --json document".to_string());
    }
    Ok(out)
}

/// Parses the arguments of subcommand `command` plus the environment,
/// exiting with status 2 and a message on any invalid input.
/// `REDBIN_SERVER` only applies to commands that can run on a server.
pub fn cli_args_from(command: &str, argv: &[String]) -> BenchArgs {
    let mut args = match parse_cli(command, argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.scale.is_none() {
        if let Ok(env_scale) = std::env::var("REDBIN_SCALE") {
            match parse_scale(&env_scale) {
                Ok(s) => args.scale = Some(s),
                Err(e) => {
                    eprintln!("error: REDBIN_SCALE: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    if args.server.is_none() && !repro::LOCAL_ONLY.contains(&command) {
        if let Ok(addr) = std::env::var("REDBIN_SERVER") {
            args.server = Some(addr);
        }
    }
    args
}

/// The experiment configuration for an already-parsed argument set.
pub fn experiment_config_for(args: &BenchArgs) -> ExperimentConfig {
    ExperimentConfig {
        scale: args.effective_scale(),
        ..Default::default()
    }
}

/// If `--json` was given, wraps `body` with run metadata (schema version,
/// experiment name, scale, wall-clock seconds, a `telemetry` section, and
/// simulated-instruction throughput when `instructions` is known) and
/// writes it out.
///
/// # Panics
///
/// Panics if the file cannot be written — a repro run whose results vanish
/// should fail loudly.
pub fn emit_json(
    args: &BenchArgs,
    experiment: &str,
    started: Clock,
    instructions: Option<u64>,
    body: json::Json,
) {
    let Some(path) = args.json.as_deref() else { return };
    let elapsed = started.elapsed();
    let secs = elapsed.as_secs_f64();
    let mut doc = json::with_meta(experiment, args.effective_scale(), elapsed, body);
    let mut reg = MetricsRegistry::new();
    reg.set_gauge("wall-seconds", secs);
    if let Some(n) = instructions {
        let rate = n as f64 / secs.max(1e-9);
        doc.set("simulated-instructions", json::Json::UInt(n));
        doc.set("instructions-per-second", json::Json::Num(rate));
        reg.add("simulated-instructions", n);
        reg.set_gauge("instructions-per-second", rate);
    }
    doc.set("telemetry", json::metrics(&reg));
    json::write_file(path, &doc)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("json: wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_known_flags_in_both_spellings() {
        let a = parse_cli("figure9", &argv(&["--scale", "test", "--json", "out.json"])).unwrap();
        assert_eq!(a.scale, Some(Scale::Test));
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
        let b = parse_cli("all", &argv(&["--scale=small", "--server=127.0.0.1:7878"])).unwrap();
        assert_eq!(b.scale, Some(Scale::Small));
        assert_eq!(b.server.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(parse_cli("all", &[]).unwrap(), BenchArgs::default());
        assert_eq!(parse_cli("all", &[]).unwrap().effective_scale(), Scale::Full);
    }

    #[test]
    fn unknown_scales_are_errors_not_full_fallback() {
        // The old behavior warned and silently ran `full`; this is the
        // regression test that it now fails instead.
        let e = parse_cli("all", &argv(&["--scale", "huge"])).unwrap_err();
        assert!(e.contains("unknown scale"), "{e}");
        assert!(parse_scale("FULL").is_err(), "names are case-sensitive");
        assert!(parse_cli("all", &argv(&["--scale"])).is_err(), "missing value");
    }

    #[test]
    fn profile_flag_parses_and_takes_no_value() {
        let a = parse_cli("all", &argv(&["--profile", "--scale", "test"])).unwrap();
        assert!(a.profile);
        assert_eq!(a.scale, Some(Scale::Test));
        assert!(!parse_cli("all", &[]).unwrap().profile);
        assert!(parse_cli("all", &argv(&["--profile=yes"])).is_err());
        let e = parse_cli("figure9", &argv(&["--profile"])).unwrap_err();
        assert!(e.contains("only applies to `all`"), "{e}");
    }

    #[test]
    fn seed_flags_parse_decimal_and_hex() {
        let a = parse_cli("fuzz", &argv(&["--seeds", "200", "--start-seed", "0x2a"])).unwrap();
        assert_eq!(a.seeds, Some(200));
        assert_eq!(a.start_seed, Some(0x2a));
        let b = parse_cli("fuzz", &argv(&["--seeds=1"])).unwrap();
        assert_eq!(b.seeds, Some(1));
        assert_eq!(b.start_seed, None);
        assert!(parse_cli("fuzz", &argv(&["--seeds", "many"])).is_err());
        assert!(parse_cli("fuzz", &argv(&["--start-seed", "-1"])).is_err());
        assert!(parse_cli("fuzz", &argv(&["--seeds"])).is_err(), "missing value");
        // The range must not wrap past u64::MAX, and its last seed is usable.
        let top = BenchArgs { start_seed: Some(u64::MAX), seeds: Some(2), ..Default::default() };
        let e = top.seed_range().unwrap_err();
        assert!(e.contains("--start-seed") && e.contains("--seeds"), "{e}");
        let last = BenchArgs { start_seed: Some(u64::MAX - 1), seeds: Some(1), ..top };
        assert_eq!(last.seed_range(), Ok(u64::MAX - 1..u64::MAX));
        assert!(parse_cli("figure9", &argv(&["--seeds", "3"])).is_err());
    }

    #[test]
    fn verify_static_flag_parses_and_takes_no_value() {
        let a = parse_cli("fuzz", &argv(&["--verify-static", "--seeds", "10"])).unwrap();
        assert!(a.verify_static);
        assert_eq!(a.seeds, Some(10));
        assert!(!parse_cli("fuzz", &[]).unwrap().verify_static);
        assert!(parse_cli("fuzz", &argv(&["--verify-static=yes"])).is_err());
        assert!(parse_cli("table3", &argv(&["--verify-static"])).is_err());
    }

    #[test]
    fn unrecognized_flags_are_rejected() {
        let e = parse_cli("all", &argv(&["--sclae", "test"])).unwrap_err();
        assert!(e.contains("unknown argument"), "{e}");
        assert!(parse_cli("all", &argv(&["stray"])).is_err());
        assert!(parse_cli("all", &argv(&["--json=a", "--frobnicate"])).is_err());
        // Flags the subcommand would ignore are rejected too.
        for command in repro::LOCAL_ONLY {
            assert!(parse_cli(command, &argv(&["--server", "127.0.0.1:7878"])).is_err());
        }
        assert!(parse_cli("workload-profile", &argv(&["--json", "p.json"])).is_err());
    }
}
