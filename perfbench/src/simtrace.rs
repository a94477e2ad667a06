//! One simulation with a span around each simulator-layer call: program
//! build, `Oracle::new` and `Oracle::next` on their own, `Simulator::new`,
//! a plain `run()`, and a second run under `TelemetryObserver` for the
//! stage split. Only the traced run uses this.

use redbin::sim::oracle::Oracle;
use redbin::sim::{MachineConfig, SimStats, Simulator, Stage, TelemetryObserver};
use redbin::telemetry::Clock;
use redbin::workload::{Benchmark, Scale};

use crate::common::Layers;

/// Stage metric names, in [`Stage::ALL`] order.
const STAGE_METRICS: [&str; 5] = [
    "sim.stage.fetch_s",
    "sim.stage.rename_s",
    "sim.stage.issue_s",
    "sim.stage.execute_s",
    "sim.stage.retire_s",
];

/// Simulates `bench` at `scale` on `cfg`, recording every span into `l`.
/// A run whose observed statistics differ from the plain run's, or whose
/// retired count differs from the oracle's, adds to `check.failed`.
pub fn traced_sim(cfg: &MachineConfig, bench: Benchmark, scale: Scale, l: &mut Layers) -> SimStats {
    let program = l.time("workload.build_s", || bench.program(scale));
    l.add("workload.programs_built", 1.0);

    let mut oracle = l.time("oracle.new_s", || Oracle::new(&program, cfg.datapath));
    let stepped = l.time("oracle.step_s", || {
        let mut n = 0u64;
        while let Ok(Some(_)) = oracle.next() {
            n += 1;
        }
        n
    });

    let sim = l.time("sim.new_s", || Simulator::new(cfg.clone(), &program));
    l.add("sim.new_count", 1.0);
    let stats = l.time("sim.run_s", || sim.run()).unwrap_or_else(|e| {
        panic!("{bench:?} on {} faulted: {e}", cfg.model);
    });
    l.add("sim.retired", stats.retired as f64);
    l.add("sim.cycles", stats.cycles as f64);

    let mut telemetry = TelemetryObserver::new();
    let observed_sim = Simulator::new(cfg.clone(), &program);
    let t = Clock::now();
    let observed = observed_sim.run_observed(&mut telemetry);
    l.add("sim.observed_run_s", t.seconds());
    let registry = telemetry.into_registry();
    for (stage, name) in Stage::ALL.iter().zip(STAGE_METRICS) {
        let gauge = format!("phase-seconds-{}", stage.label());
        l.add(name, registry.gauge(&gauge).unwrap_or(0.0));
    }

    if observed.as_ref().ok() != Some(&stats) || stepped != stats.retired {
        l.add("check.failed", 1.0);
    }
    stats
}
