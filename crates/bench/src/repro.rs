//! The reproduction driver behind `redbin-repro`.
//!
//! ```text
//! redbin-repro figure9|figure10|figure11|figure12|figure13|figure14
//!              [--scale S] [--json PATH] [--server HOST:PORT]
//! redbin-repro table1|table3|delays|programs [--scale S] [--json PATH] [--server HOST:PORT]
//! redbin-repro all [--scale S] [--json PATH] [--server HOST:PORT] [--profile]
//! redbin-repro ablations [--scale S] [--json PATH]
//! redbin-repro fuzz [--seeds N] [--start-seed S] [--verify-static] [--json PATH]
//! redbin-repro workload-profile [--scale S]
//! ```
//!
//! An experiment command names an [`ExperimentKind`]: the driver builds
//! the matching [`JobSpec`] and runs it in-process through
//! [`JobSpec::execute`], or — with `--server` — through a running
//! `redbin-served`, which runs the same [`JobSpec`]. Both paths therefore
//! return the same result body. A single command is a one-step plan and
//! `all` is the nine-step [`PLAN`]. Only the [`LOCAL_ONLY`] commands have
//! no job kind and run their own code.
//!
//! `all --profile` additionally writes `BENCH_5.json`: per-experiment
//! wall-clock, simulation counts, and throughput (simulations/second and
//! simulated instructions/second), plus whole-run totals.

use std::sync::atomic::AtomicBool;

use redbin::json::{self, Json};
use redbin::report;
use redbin::telemetry::Clock;
use redbin::wire::{ExperimentKind, JobSpec};
use redbin::workload::Benchmark;

use crate::BenchArgs;

/// The experiments `all` runs, in order. `programs` and the local-only
/// commands stay out, so the BENCH_5 simulation count does not move.
pub const PLAN: [ExperimentKind; 9] = [
    ExperimentKind::Delays,
    ExperimentKind::Table1,
    ExperimentKind::Table3,
    ExperimentKind::Figure9,
    ExperimentKind::Figure10,
    ExperimentKind::Figure11,
    ExperimentKind::Figure12,
    ExperimentKind::Figure13,
    ExperimentKind::Figure14,
];

/// The commands with no [`ExperimentKind`]: they run in-process only.
pub const LOCAL_ONLY: &[&str] = &["ablations", "fuzz", "workload-profile"];

/// Every subcommand name, for usage messages.
pub fn commands() -> String {
    let mut names: Vec<&str> = PLAN.iter().map(|k| k.name()).collect();
    names.extend(["programs", "all"]);
    names.extend(LOCAL_ONLY);
    names.join("|")
}

/// Parses `rest` (everything after the subcommand) and runs `command`,
/// printing the report to stdout and honoring `--json`.
///
/// Exits the process with status 2 on an unknown command or invalid flags
/// (the strict behavior of [`crate::parse_cli`]).
pub fn run_from_argv(command: &str, rest: &[String]) {
    let plan = match command {
        "all" => Some(PLAN.to_vec()),
        _ if LOCAL_ONLY.contains(&command) => None,
        _ => Some(vec![experiment(command).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })]),
    };
    let args = crate::cli_args_from(command, rest);
    match (command, plan) {
        (_, Some(plan)) => run_plan(command, &plan, &args),
        ("ablations", None) => run_ablations(&args),
        ("fuzz", None) => run_fuzz(&args),
        _ => run_workload_profile(&args),
    }
}

/// Resolves an experiment command to its job kind.
fn experiment(command: &str) -> Result<ExperimentKind, String> {
    match ExperimentKind::from_name(command) {
        Ok(kind) if PLAN.contains(&kind) || kind == ExperimentKind::Programs => Ok(kind),
        Ok(_) => Err(format!(
            "`{command}` jobs need inputs the command line does not carry; \
             submit them with redbin-submit or redbin-explore"
        )),
        Err(_) => Err(format!("unknown command `{command}` (expected {})", commands())),
    }
}

/// One `BENCH_5.json` line: what an experiment cost and delivered.
struct ProfileRow {
    name: &'static str,
    wall_seconds: f64,
    instructions: Option<u64>,
    simulations: u64,
}

impl ProfileRow {
    fn to_json(&self) -> Json {
        let mut o = Json::object();
        let secs = self.wall_seconds.max(1e-9);
        o.set("wall-seconds", Json::Num(self.wall_seconds));
        o.set("simulations", Json::UInt(self.simulations));
        o.set("sims-per-second", Json::Num(self.simulations as f64 / secs));
        if let Some(n) = self.instructions {
            o.set("simulated-instructions", Json::UInt(n));
            o.set("instructions-per-second", Json::Num(n as f64 / secs));
        }
        o
    }
}

/// One finished plan step.
struct Step {
    /// Timing and cost; the cost is only known for local runs.
    row: ProfileRow,
    /// Whether `redbin-served` answered from its cache (`None` locally).
    cache_hit: Option<bool>,
    /// The result body.
    body: Json,
}

/// Runs `plan` — one experiment, or `all`'s nine — as [`JobSpec`]s,
/// in-process or, with `--server`, through `redbin-served`.
fn run_plan(command: &str, plan: &[ExperimentKind], args: &BenchArgs) {
    let all = command == "all";
    let scale = args.effective_scale();
    let threads = crate::experiment_config_for(args).threads;
    let client = args.server.clone().map(redbin_serve::Client::new);
    if args.profile && client.is_some() {
        eprintln!("warning: --profile measures local simulation; ignored with --server");
    }
    let run_started = Clock::now();
    let mut steps = Vec::new();
    for (i, &kind) in plan.iter().enumerate() {
        let spec = JobSpec::new(kind, scale);
        let t = Clock::now();
        let (body, instructions, simulations, cache_hit) = match &client {
            None => {
                if all {
                    println!("=== {} ===", heading(kind.name()));
                }
                let output = spec.execute(threads, &AtomicBool::new(false));
                print!("{}", report::render(&output));
                if all && i + 1 < plan.len() {
                    println!();
                }
                (output.to_json(), output.instructions(), output.simulations(), None)
            }
            Some(client) => {
                let (job, body, cache_hit) = client
                    .run_to_completion(spec, None, std::time::Duration::from_secs(24 * 3600))
                    .unwrap_or_else(|e| {
                        eprintln!("redbin-repro: {}: {e}", kind.name());
                        std::process::exit(1);
                    });
                println!(
                    "{:>8}: job {job} done in {:.2}s (cache {})",
                    kind.name(),
                    t.seconds(),
                    if cache_hit { "hit" } else { "miss" }
                );
                (body, None, 0, Some(cache_hit))
            }
        };
        let row = ProfileRow {
            name: kind.name(),
            wall_seconds: t.seconds(),
            instructions,
            simulations,
        };
        steps.push(Step { row, cache_hit, body });
    }

    if !all {
        for step in steps {
            crate::emit_json(args, command, run_started, step.row.instructions, step.body);
        }
        return;
    }
    let instructions = client
        .is_none()
        .then(|| steps.iter().filter_map(|s| s.row.instructions).sum());
    let hits = steps.iter().filter(|s| s.cache_hit == Some(true)).count();
    let mut manifest = Json::object();
    let mut rows = Vec::new();
    for step in steps {
        let mut entry = Json::object();
        entry.set("wall-seconds", Json::Num(step.row.wall_seconds));
        if let Some(hit) = step.cache_hit {
            entry.set("cache-hit", Json::Bool(hit));
        }
        entry.set("result", step.body);
        manifest.set(step.row.name, entry);
        rows.push(step.row);
    }
    if let Some(addr) = &args.server {
        println!(
            "all {} experiments done in {:.2}s ({hits} cache hit(s))",
            plan.len(),
            run_started.seconds()
        );
        manifest.set("server", Json::Str(addr.clone()));
    }
    crate::emit_json(args, "all", run_started, instructions, manifest);
    if args.profile && client.is_none() {
        write_profile(args, run_started, &rows);
    }
}

/// Writes `BENCH_5.json` beside the working directory: the per-experiment
/// and whole-run throughput profile of an `all --profile` run.
fn write_profile(args: &BenchArgs, run_started: Clock, rows: &[ProfileRow]) {
    let path = std::path::Path::new("BENCH_5.json");
    let mut experiments = Json::object();
    for row in rows {
        experiments.set(row.name, row.to_json());
    }
    let total = ProfileRow {
        name: "all",
        wall_seconds: run_started.seconds(),
        instructions: Some(rows.iter().filter_map(|r| r.instructions).sum()),
        simulations: rows.iter().map(|r| r.simulations).sum(),
    };
    let mut body = Json::object();
    body.set("experiments", experiments);
    body.set("totals", total.to_json());
    let doc = json::with_meta("profile", args.effective_scale(), run_started.elapsed(), body);
    json::write_file(path, &doc)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("profile: wrote {}", path.display());
}

/// Section heading for the `all` transcript.
fn heading(name: &str) -> String {
    match name {
        "delays" => "§3.4 delays".to_string(),
        "table1" => "Table 1".to_string(),
        "table3" => "Table 3".to_string(),
        other => {
            let n = other.trim_start_matches("figure");
            format!("Figure {n}")
        }
    }
}

/// The `ablations` subcommand: the beyond-the-paper sweeps (conversion
/// latency, inter-cluster delay, window size, steering policy).
fn run_ablations(args: &BenchArgs) {
    use redbin::experiments;
    let cfg = crate::experiment_config_for(args);
    let started = Clock::now();
    println!("Conversion-latency sweep (8-wide RB-full, h-mean IPC over all 20):");
    let conversion = experiments::conversion_sweep(&cfg, &[1, 2, 3, 4]);
    for (conv, hm) in &conversion {
        println!("  CV = {conv} cycles: {hm:.3}");
    }
    println!();
    println!("Inter-cluster delay sweep (8-wide Ideal):");
    let cluster = experiments::cluster_sweep(&cfg, &[0, 1, 2, 3]);
    for (d, hm) in &cluster {
        println!("  +{d} cycles: {hm:.3}");
    }
    println!();
    println!("Window-size sweep (8-wide Ideal):");
    let window = experiments::window_sweep(&cfg, &[32, 64, 128, 256]);
    for (w, hm) in &window {
        println!("  {w} entries: {hm:.3}");
    }
    println!();
    println!("Steering policies on RB-limited (§4.2 future work):");
    let steering = experiments::steering_comparison(&cfg);
    for (name, width, hm) in &steering {
        println!("  {name:>18} w{width}: {hm:.3}");
    }
    let window_u64: Vec<(u64, f64)> = window.iter().map(|&(w, hm)| (w as u64, hm)).collect();
    let mut body = Json::object();
    body.set("conversion-sweep", json::sweep("conversion-cycles", &conversion));
    body.set("cluster-sweep", json::sweep("cluster-delay", &cluster));
    body.set("window-sweep", json::sweep("window-entries", &window_u64));
    body.set("steering", json::steering(&steering));
    crate::emit_json(args, "ablations", started, None, body);
}

/// The `workload-profile` subcommand: the dynamic profile of every
/// benchmark proxy — the evidence for DESIGN.md's claim that each proxy
/// resembles its SPEC namesake.
fn run_workload_profile(args: &BenchArgs) {
    use redbin::workload::profile::Profile;
    let scale = args.effective_scale();
    for b in Benchmark::all() {
        let program = b.program(scale);
        match Profile::measure(&program, 1_000_000_000) {
            Ok(p) => print!("{p}"),
            Err(e) => eprintln!("{b:?}: {e}"),
        }
    }
}

/// The `fuzz` subcommand: runs torture seeds `start..start+n` through the
/// three-way differential oracle ([`redbin::differential::check_seed`]).
/// Prints the full reproduction report and exits non-zero on the first
/// failing seed.
fn run_fuzz(args: &BenchArgs) {
    use redbin::differential;
    let seeds = args.seed_range().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let (start, n) = (seeds.start, seeds.end - seeds.start);
    let started = Clock::now();
    let mut retired = 0u64;
    let mut cycles = 0u64;
    println!(
        "fuzz: seeds {start}..{} through the differential oracle{}",
        seeds.end,
        if args.verify_static { " (with static verification)" } else { "" }
    );
    for seed in seeds {
        if args.verify_static {
            verify_torture_seed(seed);
        }
        match differential::check_seed(seed) {
            Ok(v) => {
                retired += v.retired;
                cycles += v.cycles;
                let done = seed - start + 1;
                if done % 25 == 0 || done == n {
                    println!(
                        "fuzz: {done}/{n} seeds ok ({retired} instructions, {:.1}s)",
                        started.seconds()
                    );
                }
            }
            Err(failure) => {
                eprintln!("{failure}");
                std::process::exit(1);
            }
        }
    }
    println!("fuzz: all {n} seeds passed");
    let mut body = Json::object();
    body.set("start-seed", Json::UInt(start));
    body.set("seeds", Json::UInt(n));
    body.set("verified-static", Json::Bool(args.verify_static));
    body.set("retired-instructions", Json::UInt(retired));
    body.set("simulated-cycles", Json::UInt(cycles));
    body.set("passed", Json::Bool(true));
    crate::emit_json(args, "fuzz", started, Some(retired), body);
}

/// `--verify-static`: the torture program must pass the same safety
/// verifier shipped programs do (memory proved in-bounds, termination
/// proved) before the differential oracle spends cycles on it. An
/// unprovable generator output is a generator bug — fail loudly with
/// everything needed to reproduce it.
fn verify_torture_seed(seed: u64) {
    use redbin::workload::fuzz;
    use redbin_analyze::program::{analyze_program, AnalyzeOptions};
    let program = fuzz::torture_program(seed);
    let opts = AnalyzeOptions {
        lints: false,
        ..Default::default()
    };
    let analysis = analyze_program(&program, None, &opts);
    if analysis.safe() {
        return;
    }
    eprintln!(
        "fuzz: seed {seed:#x}: torture program failed static verification \
         (memory {}, termination {})",
        analysis.memory.label(),
        analysis.termination.label()
    );
    for note in &analysis.notes {
        eprintln!("fuzz:   note: {note}");
    }
    eprintln!("fuzz: listing:");
    for line in fuzz::disassemble(&program).lines() {
        eprintln!("fuzz:   {line}");
    }
    eprintln!("fuzz: reproduce with: redbin-repro fuzz --start-seed {seed:#x} --seeds 1 --verify-static");
    std::process::exit(1);
}
