//! The redbin benchmark: one command, three workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures-small|explore-grid|serve-mixed \
//!     --seed N --seconds S --trace 0|1 [--self-test] [--print-pins]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Every time is host time; the only
//! simulated quantities (`sim.cycles`, `sim.retired`) are counts and are
//! labelled as simulated in the report lines. See `perfbench/README.md`.

mod common;
mod explore;
mod figures;
mod serve;
mod simtrace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use redbin::json::Json;
use redbin::sim::hash::Fnv64;
use redbin::telemetry::Clock;

use common::{median, passes, peak_rss_mb, pins, threads, Layers};

/// One pass over a workload's fixed batch of work, with its checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pass {
    pub wall_s: f64,
    /// Cycle-level simulations run.
    pub sims: u64,
    /// Simulated instructions retired by those simulations.
    pub retired: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
    ("sims_per_s", "1/s"),
    ("sim_minst_per_s", "Minst/s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not call
/// reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("workload.build_s", "s"),
    ("workload.programs_built", "count"),
    ("sim.new_s", "s"),
    ("sim.new_count", "count"),
    ("oracle.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.retired", "count"),
    ("sim.cycles", "count"),
    ("oracle.step_s", "s"),
    ("sim.stage.fetch_s", "s"),
    ("sim.stage.rename_s", "s"),
    ("sim.stage.issue_s", "s"),
    ("sim.stage.execute_s", "s"),
    ("sim.stage.retire_s", "s"),
    ("sim.observer_overhead_ratio", "ratio"),
    ("pool.job_s", "s"),
    ("pool.idle_ratio", "ratio"),
    ("json.render_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("analyze.verify_s", "s"),
    ("analyze.bypass_s", "s"),
    ("explore.enumerate_s", "s"),
    ("explore.prune_s", "s"),
    ("explore.bounds_s", "s"),
    ("explore.sims_s", "s"),
    ("explore.unique_sims", "count"),
    ("serve.request_ms_p50", "ms"),
    ("serve.requests_per_job", "count"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.fetch_ms_p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_ms_mean", "ms"),
    ("serve.service_ms_mean", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.retry_after_count", "count"),
];

/// One set-up takes milliseconds. On a shared host, single set-up times
/// fall into a fast and a slow mode up to 2x apart, in bursts from
/// milliseconds to seconds long, so the median of single set-ups jumps
/// between the modes from run to run. Set-up is therefore timed in slices
/// spread over the run: one before each pass and one after the last, each
/// at least `SLICE_SECONDS` long and `SLICE_REPEATS` set-ups, and at least
/// `SLICES` in all. A slice's sample is its fastest set-up, and the median
/// of the samples is reported.
const SLICE_SECONDS: f64 = 0.5;
const SLICE_REPEATS: usize = 3;
const SLICES: usize = 8;

#[derive(Default)]
struct SetupTimes {
    /// The fastest set-up of each slice.
    samples: Vec<f64>,
    setups: usize,
}

impl SetupTimes {
    /// One slice of set-ups. Every set-up but the last goes to `release`
    /// off the clock; the last is returned.
    fn slice<T>(&mut self, mut setup: impl FnMut() -> T, mut release: impl FnMut(T)) -> T {
        let (mut spent, mut fastest, mut n) = (0.0, f64::INFINITY, 0);
        let mut last = None;
        while n < SLICE_REPEATS || spent < SLICE_SECONDS {
            if let Some(previous) = last.take() {
                release(previous);
            }
            let t = Clock::now();
            last = Some(setup());
            let s = t.seconds();
            fastest = fastest.min(s);
            spent += s;
            n += 1;
        }
        self.samples.push(fastest);
        self.setups += n;
        last.expect("at least one set-up")
    }
}

const WORKLOADS: [&str; 3] = ["figures-small", "explore-grid", "serve-mixed"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    print_pins: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        self_test: false,
        print_pins: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--self-test" => args.self_test = true,
            "--print-pins" => args.print_pins = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.print_pins && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join("|"),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_pins {
        print_pins();
        return ExitCode::SUCCESS;
    }
    println!("context: {}", context(&args).to_compact());
    if args.self_test {
        return self_test(&args);
    }
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for (name, value, unit) in &metrics {
        let base = if name.starts_with("sim.cycles") || name.starts_with("sim.retired") {
            "simulated"
        } else {
            "host"
        };
        println!("{name:32} {value:>16.6} {unit:8} ({base})");
    }
    let mut m = Json::object();
    for (name, value, unit) in metrics {
        let mut v = Json::object();
        v.set("value", Json::Num(value));
        v.set("unit", Json::Str(unit.to_string()));
        m.set(&name, v);
    }
    let mut out = Json::object();
    out.set("correct", Json::Bool(correct));
    out.set("attempted", Json::UInt(attempted));
    out.set("failed", Json::UInt(failed));
    out.set("metrics", m);
    println!("{}", out.to_compact());
    ExitCode::SUCCESS
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end run: set-up repeated, passes until `--seconds` have
/// elapsed, checks off the clock, medians reported.
fn untraced(args: &Args) -> (bool, u64, u64, Metrics) {
    let pins = pins();
    // The high-water mark is read before the off-the-clock checks, which
    // are the benchmark's work, not the workload's.
    let mut setup = SetupTimes::default();
    let (runs, detail, rss) = match args.workload.as_str() {
        "figures-small" => {
            let build = || figures::setup(&mut Layers::default());
            let plan = setup.slice(build, drop);
            let runs = passes(args.seconds, || {
                let pass = figures::pass(&plan, &pins);
                setup.slice(build, drop);
                pass
            });
            while setup.samples.len() < SLICES {
                setup.slice(build, drop);
            }
            (runs, Vec::new(), peak_rss_mb())
        }
        "explore-grid" => {
            let build = || explore::setup(&mut Layers::default());
            let grid = setup.slice(build, drop);
            let runs = passes(args.seconds, || {
                let pass = explore::pass(&grid, &pins);
                setup.slice(build, drop);
                pass
            });
            while setup.samples.len() < SLICES {
                setup.slice(build, drop);
            }
            (runs, Vec::new(), peak_rss_mb())
        }
        _ => {
            // Each pass has its own job mix and server: the last set-up of
            // the slice before it.
            let build = |pass| move || serve::setup(args.seed, pass, &mut Layers::default());
            let mut next = Some(setup.slice(build(0), serve::Setup::discard));
            let done = passes(args.seconds, || {
                let pass = serve::pass(next.take().expect("set up before each pass"));
                let index = setup.samples.len() as u64;
                next = Some(setup.slice(build(index), serve::Setup::discard));
                pass
            });
            while setup.samples.len() < SLICES {
                setup.slice(build(0), serve::Setup::discard).discard();
            }
            if let Some(setup) = next {
                setup.discard();
            }
            let rss = peak_rss_mb();
            let (runs, lat) = serve::check(&done, false);
            (runs, lat.report(), rss)
        }
    };
    for (name, value, unit) in &detail {
        println!("detail: {name} {value} {unit}");
    }
    let attempted: u64 = runs.iter().map(|p| p.attempted).sum();
    let failed: u64 = runs.iter().map(|p| p.failed).sum();
    let rate = |f: &dyn Fn(&Pass) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let values = [
        median(&setup.samples),
        rate(&|p| p.wall_s),
        rss,
        1.0 - failed as f64 / attempted.max(1) as f64,
        rate(&|p| p.sims as f64 / p.wall_s),
        rate(&|p| p.retired as f64 / p.wall_s / 1e6),
    ];
    let walls: Vec<String> = runs.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!(
        "passes: {} of {} s each (setups: {} in {} slices, threads: {})",
        runs.len(),
        walls.join(", "),
        setup.setups,
        setup.samples.len(),
        threads()
    );
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    (failed == 0, attempted, failed, metrics)
}

/// The traced run: one pass with spans around the calls into each layer.
fn traced(args: &Args) -> (bool, u64, u64, Metrics) {
    let pins = pins();
    let mut l = Layers::default();
    let pass = match args.workload.as_str() {
        "figures-small" => {
            let setup = figures::setup(&mut l);
            figures::traced(&setup, &pins, &mut l)
        }
        "explore-grid" => {
            let setup = explore::setup(&mut l);
            explore::traced(&setup, &pins, &mut l)
        }
        _ => {
            let setup = serve::setup(args.seed, 0, &mut l);
            let mut trace = serve::ServeTrace::default();
            let done = serve::traced(setup, &mut trace);
            trace.into_layers(&mut l);
            let (mut runs, _) = serve::check(&[done], false);
            let mut pass = runs.remove(0);
            pass.failed += l.get("check.failed") as u64;
            pass
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "sim.observer_overhead_ratio" => {
                    ratio(l.get("sim.observed_run_s"), l.get("sim.run_s"))
                }
                "pool.idle_ratio" => match l.get("pool.capacity_s") {
                    c if c > 0.0 => 1.0 - l.get("pool.job_s") / c,
                    _ => 0.0,
                },
                _ => l.get(name),
            };
            (name.to_string(), v, unit)
        })
        .collect();
    println!("traced pass: {:.3} s (host, with spans)", pass.wall_s);
    (pass.failed == 0, pass.attempted, pass.failed, metrics)
}

/// Runs one pass against a deliberately corrupted expectation (a flipped
/// pinned digest, or for `serve-mixed` an altered reference body) and
/// succeeds only if the corruption is reported as a failed operation.
fn self_test(args: &Args) -> ExitCode {
    let mut pins = pins();
    let pass = match args.workload.as_str() {
        "figures-small" => {
            common::corrupt(&mut pins, "figures-small.figure9");
            figures::pass(&figures::setup(&mut Layers::default()), &pins)
        }
        "explore-grid" => {
            common::corrupt(&mut pins, "explore-grid.frontier");
            explore::pass(&explore::setup(&mut Layers::default()), &pins)
        }
        _ => {
            let done = serve::pass(serve::setup(args.seed, 0, &mut Layers::default()));
            serve::check(&[done], true).0.remove(0)
        }
    };
    let detected = pass.failed > 0;
    println!(
        "self-test: corrupted expectation gave {} failed of {} attempted -> {}",
        pass.failed,
        pass.attempted,
        if detected { "detected" } else { "MISSED" }
    );
    if detected {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_pins() {
    println!("# Pinned digests (FNV-1a 64) of simulated results; see README.md.");
    let f = figures::setup(&mut Layers::default());
    let e = explore::setup(&mut Layers::default());
    for (k, v) in figures::pin_lines(&f)
        .into_iter()
        .chain(explore::pin_lines(&e))
    {
        println!("{k} {v:016x}");
    }
}

/// The repository checkout this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Host, seed and code identity. The commit comes from `.git` when the
/// checkout has one; the source digest identifies the code either way.
fn context(args: &Args) -> Json {
    let root = repo_root();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut c = Json::object();
    c.set("workload", Json::Str(args.workload.clone()));
    c.set("seed", Json::UInt(args.seed));
    c.set("seconds", Json::Num(args.seconds));
    c.set("trace", Json::Bool(args.trace));
    c.set("available_parallelism", Json::UInt(threads() as u64));
    c.set("cpu_model", Json::Str(cpu));
    c.set("git_commit", Json::Str(git_commit(&root)));
    c.set(
        "source_fnv",
        Json::Str(format!("{:016x}", source_digest(&root))),
    );
    c.set("time_base", Json::Str("host wall-clock".into()));
    c
}

fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    resolved.unwrap_or_else(|| "unavailable (not a git checkout)".into())
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// in path order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files[2..].sort();
    let mut h = Fnv64::new();
    for f in &files {
        if let (Ok(rel), Ok(bytes)) = (f.strip_prefix(root), std::fs::read(f)) {
            h.write_str(&rel.to_string_lossy()).write_bytes(&bytes);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here are the ones `BENCHMARK.json`
    /// declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = redbin::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_strict() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload explore-grid --trace 2")).is_err());
        assert!(parse_args(&argv("--workload explore-grid --bogus")).is_err());
        assert!(parse_args(&argv("--workload explore-grid --seed")).is_err());
    }
}
