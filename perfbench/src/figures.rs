//! `figures-small`: the nine-experiment `redbin-repro all` plan at
//! `Scale::Small` with one worker per host thread. Long simulations, so the
//! issue stage and the pool's wait for each figure's slowest job dominate.

use std::collections::BTreeMap;

use redbin::experiments::{
    self, ExperimentConfig, Figure13, Figure14, Figure14Row, IpcFigure, IpcRow,
};
use redbin::gates::netlist::DelayModel;
use redbin::gates::report::DelayReport;
use redbin::json::{self, Json};
use redbin::sim::stats::harmonic_mean;
use redbin::sim::{CoreModel, DatapathMode, MachineConfig};
use redbin::telemetry::Clock;
use redbin::workload::{Benchmark, Scale, Suite};
use redbin_analyze::netlist::{depth_report_json, prove_claim1, FANOUT_MODEL};

use crate::common::{digest, mismatches, sim_retired, threads, timed_pool, Layers};
use crate::simtrace::traced_sim;
use crate::Pass;

const SCALE: Scale = Scale::Small;

/// The IPC figures in plan order: (name, width, suite).
const IPC_FIGURES: [(&str, usize, Suite); 4] = [
    ("figure9", 8, Suite::Spec2000),
    ("figure10", 8, Suite::Spec95),
    ("figure11", 4, Suite::Spec2000),
    ("figure12", 4, Suite::Spec95),
];

/// What a run needs before timing: each benchmark's retired-instruction
/// count. The front end is oracle-driven, so the count does not depend on
/// the machine, and one emulator run per program gives every simulation's
/// exact total.
pub struct Setup {
    retired: BTreeMap<Benchmark, u64>,
}

pub fn setup(l: &mut Layers) -> Setup {
    let retired = Benchmark::all()
        .into_iter()
        .map(|b| {
            let program = l.time("workload.build_s", || b.program(SCALE));
            l.add("workload.programs_built", 1.0);
            let n = sim_retired(&program);
            (b, n)
        })
        .collect();
    Setup { retired }
}

impl Setup {
    fn suite_retired(&self, benches: &[Benchmark]) -> u64 {
        benches.iter().map(|b| self.retired[b]).sum()
    }

    /// Simulations and retired instructions of one plan pass.
    fn totals(&self) -> (u64, u64) {
        let all = Benchmark::all();
        let f14 = (experiments::figure14_configs().len() * 2) as u64;
        let mut sims = f14 * all.len() as u64;
        let mut retired = f14 * self.suite_retired(&all);
        for (_, _, suite) in IPC_FIGURES {
            sims += 4 * suite.benchmarks().len() as u64;
            retired += 4 * self.suite_retired(suite.benchmarks());
        }
        sims += Suite::Spec2000.benchmarks().len() as u64;
        retired += self.suite_retired(Suite::Spec2000.benchmarks());
        (sims, retired)
    }

    /// `true` when every simulation of `fig` retired the emulator's count.
    fn retired_matches(&self, fig: &IpcFigure) -> bool {
        fig.rows.iter().all(|r| {
            r.stats
                .iter()
                .all(|s| s.retired == self.retired[&r.benchmark])
        })
    }
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        scale: SCALE,
        threads: threads(),
        datapath: DatapathMode::Fast,
    }
}

/// The `delays` step of the plan: both delay tables, the static depth
/// report and the claim-1 proof under both delay models.
fn delays() -> Json {
    let mut body = Json::object();
    body.set(
        "unit-gate",
        json::delay_report(&experiments::delay_report()),
    );
    let fanout = DelayReport::compute(FANOUT_MODEL, &[8, 16, 32, 64, 128]);
    body.set("fanout-aware", json::delay_report(&fanout));
    body.set("static-analysis", depth_report_json());
    let holds = [DelayModel::UnitGate, FANOUT_MODEL]
        .into_iter()
        .map(|m| Json::Bool(prove_claim1(m).holds))
        .collect();
    body.set("claim1-holds", Json::Arr(holds));
    body
}

/// The three steps that run no cycle-level simulation.
fn analytic_steps(cfg: &ExperimentConfig) -> Vec<(&'static str, Json)> {
    let (merged, per) = experiments::table1(cfg);
    vec![
        ("delays", delays()),
        ("table1", json::table1(&merged, &per)),
        ("table3", json::table3(&experiments::table3())),
    ]
}

/// Checks every rendered result against its pin; a failed experiment is
/// one failed operation.
fn check(pins: &BTreeMap<String, u64>, rendered: &[(&str, String)], bad_retired: u64) -> u64 {
    let got: Vec<(String, u64)> = rendered
        .iter()
        .map(|(name, text)| (format!("figures-small.{name}"), digest(text)))
        .collect();
    let bad = mismatches(pins, &got);
    for key in &bad {
        eprintln!("figures-small: {key} differs from its pinned digest");
    }
    bad.len() as u64 + bad_retired
}

/// The digests this commit produces, for `pins.txt`.
pub fn pin_lines(setup: &Setup) -> Vec<(String, u64)> {
    let (_, rendered, _) = plan(setup);
    rendered
        .iter()
        .map(|(name, text)| (format!("figures-small.{name}"), digest(text)))
        .collect()
}

/// Runs the plan through the public experiment drivers and renders each
/// result: (host seconds, rendered bodies, experiments whose simulated
/// retired counts disagree with the emulator's).
fn plan(setup: &Setup) -> (f64, Vec<(&'static str, String)>, u64) {
    let cfg = config();
    let t = Clock::now();
    let mut bodies = analytic_steps(&cfg);
    let mut figs = Vec::new();
    for (name, width, suite) in IPC_FIGURES {
        let fig = experiments::figure_ipc(width, suite, &cfg);
        bodies.push((name, json::ipc_figure(&fig)));
        figs.push(fig);
    }
    bodies.push(("figure13", json::figure13(&experiments::figure13(&cfg))));
    bodies.push(("figure14", json::figure14(&experiments::figure14(&cfg))));
    let wall = t.seconds();
    let bad_retired = figs.iter().filter(|f| !setup.retired_matches(f)).count() as u64;
    let rendered = bodies.iter().map(|(n, b)| (*n, b.to_compact())).collect();
    (wall, rendered, bad_retired)
}

pub fn pass(setup: &Setup, pins: &BTreeMap<String, u64>) -> Pass {
    let (wall_s, rendered, bad_retired) = plan(setup);
    let (sims, retired) = setup.totals();
    Pass {
        wall_s,
        sims,
        retired,
        attempted: rendered.len() as u64,
        failed: check(pins, &rendered, bad_retired),
    }
}

/// The traced pass: the analytic steps through the drivers, and Figures
/// 9–14 rebuilt from the same public calls the drivers make, with a span
/// around each. The rebuilt figures must match the same pins, so the
/// trace measures the work the drivers do.
pub fn traced(setup: &Setup, pins: &BTreeMap<String, u64>, l: &mut Layers) -> Pass {
    let cfg = config();
    let t = Clock::now();
    let bodies = analytic_steps(&cfg);
    let figs: Vec<IpcFigure> = IPC_FIGURES
        .iter()
        .map(|&(_, width, suite)| traced_ipc_figure(width, suite, cfg.threads, l))
        .collect();
    let fig13 = traced_figure13(cfg.threads, l);
    let fig14 = traced_figure14(cfg.threads, l);
    let wall_s = t.seconds();

    let mut rendered: Vec<(&str, String)> = bodies
        .into_iter()
        .map(|(n, b)| (n, b.to_compact()))
        .collect();
    for ((name, _, _), fig) in IPC_FIGURES.iter().zip(&figs) {
        rendered.push((
            name,
            l.time("json.render_s", || json::ipc_figure(fig).to_compact()),
        ));
    }
    rendered.push((
        "figure13",
        l.time("json.render_s", || json::figure13(&fig13).to_compact()),
    ));
    rendered.push((
        "figure14",
        l.time("json.render_s", || json::figure14(&fig14).to_compact()),
    ));

    let bad_retired = figs.iter().filter(|f| !setup.retired_matches(f)).count() as u64
        + l.get("check.failed") as u64;
    let (sims, retired) = setup.totals();
    Pass {
        wall_s,
        sims,
        retired,
        attempted: rendered.len() as u64,
        failed: check(pins, &rendered, bad_retired),
    }
}

/// `experiments::figure_ipc`: one pool job per benchmark, the four models
/// in series inside it.
fn traced_ipc_figure(width: usize, suite: Suite, threads: usize, l: &mut Layers) -> IpcFigure {
    let benches = suite.benchmarks();
    let rows = timed_pool(benches.len(), threads, l, |i, l| {
        let benchmark = benches[i];
        let stats: Vec<_> = CoreModel::all()
            .iter()
            .map(|&m| {
                let cfg = MachineConfig::new(m, width).with_datapath(DatapathMode::Fast);
                traced_sim(&cfg, benchmark, SCALE, l)
            })
            .collect();
        let mut ipc = [0.0; 4];
        for (slot, s) in ipc.iter_mut().zip(&stats) {
            *slot = s.ipc();
        }
        IpcRow {
            benchmark,
            ipc,
            stats,
        }
    });
    IpcFigure { width, suite, rows }
}

/// `experiments::figure13`: the 8-wide RB-full machine over SPECint2000.
fn traced_figure13(threads: usize, l: &mut Layers) -> Figure13 {
    let benches = Suite::Spec2000.benchmarks();
    let rows = timed_pool(benches.len(), threads, l, |i, l| {
        let cfg = MachineConfig::new(CoreModel::RbFull, 8).with_datapath(DatapathMode::Fast);
        let s = traced_sim(&cfg, benches[i], SCALE, l);
        (benches[i], s.bypass_cases, s.bypassed_inst_fraction())
    });
    Figure13 { rows }
}

/// `experiments::figure14`: the Ideal machine under each bypass
/// configuration at both widths, one pool job per simulation.
fn traced_figure14(threads: usize, l: &mut Layers) -> Figure14 {
    let configs = experiments::figure14_configs();
    let benches = Benchmark::all();
    let widths = [4usize, 8];
    let per_config = widths.len() * benches.len();
    let ipcs = timed_pool(configs.len() * per_config, threads, l, |j, l| {
        let (c, rest) = (j / per_config, j % per_config);
        let (w, b) = (rest / benches.len(), rest % benches.len());
        let cfg = MachineConfig::ideal(widths[w])
            .with_bypass(configs[c])
            .with_datapath(DatapathMode::Fast);
        traced_sim(&cfg, benches[b], SCALE, l).ipc()
    });
    let hmean = |c: usize, w: usize| {
        let base = c * per_config + w * benches.len();
        harmonic_mean(&ipcs[base..base + benches.len()])
    };
    let rows = configs
        .iter()
        .enumerate()
        .map(|(c, levels)| Figure14Row {
            label: levels.label(),
            levels: *levels,
            hmean_w4: hmean(c, 0),
            hmean_w8: hmean(c, 1),
        })
        .collect();
    Figure14 { rows }
}
