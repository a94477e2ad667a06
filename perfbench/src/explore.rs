//! `explore-grid`: the default 448-point `redbin_explore::explore` grid
//! (Quick suite, `Scale::Test`) on the local backend. Many short
//! simulations, so simulator construction weighs more than on
//! `figures-small`; the only workload that enumerates, prunes, bounds and
//! builds a Pareto frontier.

use std::collections::BTreeMap;

use redbin::sim::stats::harmonic_mean;
use redbin::telemetry::{Clock, MetricsRegistry};
use redbin::wire::JobSpec;
use redbin_explore::backend::{self, Backend};
use redbin_explore::bounds::SuiteBounds;
use redbin_explore::delay::adder_delay;
use redbin_explore::grid::GridSpec;
use redbin_explore::pareto::{self, Candidate};
use redbin_explore::{explore, prune, report, EvaluatedPoint, ExploreOutcome};

use crate::common::{digest, mismatches, sim_retired, threads, timed_pool, Layers};
use crate::simtrace::traced_sim;
use crate::Pass;

pub struct Setup {
    grid: GridSpec,
    backend: Backend,
    /// Retired instructions of one point: every point simulates each
    /// suite benchmark once, and the count does not depend on the machine.
    retired_per_point: u64,
}

pub fn setup(l: &mut Layers) -> Setup {
    let grid = GridSpec::default();
    let retired_per_point = grid
        .suite
        .benchmarks()
        .into_iter()
        .map(|b| {
            let program = l.time("workload.build_s", || b.program(grid.scale));
            l.add("workload.programs_built", 1.0);
            sim_retired(&program)
        })
        .sum();
    Setup {
        grid,
        backend: Backend::Local {
            threads: threads(),
            reference: false,
        },
        retired_per_point,
    }
}

/// Digests of an outcome: one per evaluated point (machine, job id, IPC,
/// bound, delay), one for the frontier, and one for the counts.
fn digests(out: &ExploreOutcome) -> Vec<(String, u64)> {
    let mut got: Vec<(String, u64)> = out
        .evaluated
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            let line = format!(
                "{} {} {:016x} {:016x} {:016x}",
                ep.point.label(),
                ep.job_id,
                ep.ipc.to_bits(),
                ep.bound_ipc.to_bits(),
                ep.delay.to_bits()
            );
            (format!("explore-grid.point.{i:03}"), digest(&line))
        })
        .collect();
    let frontier: Vec<String> = out.frontier.iter().map(usize::to_string).collect();
    got.push(("explore-grid.frontier".into(), digest(&frontier.join(","))));
    let counts = format!(
        "{} {} {}",
        out.prune.total(),
        out.prune.pruned.len(),
        out.unique_sims
    );
    got.push(("explore-grid.counts".into(), digest(&counts)));
    got
}

fn checked(setup: &Setup, pins: &BTreeMap<String, u64>, out: &ExploreOutcome, wall_s: f64) -> Pass {
    let got = digests(out);
    let bad = mismatches(pins, &got);
    for key in &bad {
        eprintln!("explore-grid: {key} differs from its pinned digest");
    }
    let sims = out.unique_sims as u64 * setup.grid.suite.benchmarks().len() as u64;
    Pass {
        wall_s,
        sims,
        retired: out.unique_sims as u64 * setup.retired_per_point,
        attempted: got.len() as u64,
        failed: bad.len() as u64,
    }
}

pub fn pin_lines(setup: &Setup) -> Vec<(String, u64)> {
    digests(&explore(&setup.grid, &setup.backend).expect("default grid explores"))
}

pub fn pass(setup: &Setup, pins: &BTreeMap<String, u64>) -> Pass {
    let t = Clock::now();
    let out = explore(&setup.grid, &setup.backend);
    let wall_s = t.seconds();
    match out {
        Ok(out) => checked(setup, pins, &out, wall_s),
        Err(e) => {
            eprintln!("explore-grid: {e}");
            Pass {
                wall_s,
                attempted: 1,
                failed: 1,
                ..Pass::default()
            }
        }
    }
}

/// The traced pass: `explore`'s four stages called one by one through
/// the crate's public modules, then every deduplicated point simulated
/// again with spans around the simulator-layer calls. The rebuilt outcome
/// must match the same pins, and the re-simulated IPC must equal the
/// backend's.
pub fn traced(setup: &Setup, pins: &BTreeMap<String, u64>, l: &mut Layers) -> Pass {
    let grid = &setup.grid;
    let t = Clock::now();
    let points = l.time("explore.enumerate_s", || grid.enumerate());
    let pruned = l
        .time("explore.prune_s", || prune::prune(&points))
        .expect("default grid machines build");

    // Points differing only in delay model share one simulation.
    let mut spec_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut specs: Vec<JobSpec> = Vec::new();
    let point_spec: Vec<usize> = pruned
        .sound
        .iter()
        .map(|p| {
            let spec = p.job_spec(grid.suite, grid.scale);
            *spec_index.entry(spec.job_id()).or_insert_with(|| {
                specs.push(spec);
                specs.len() - 1
            })
        })
        .collect();
    l.add("explore.unique_sims", specs.len() as f64);

    let bounds = l.time("explore.bounds_s", || {
        let suite = SuiteBounds::trace(grid.suite, grid.scale);
        pruned
            .sound
            .iter()
            .map(|p| suite.bound_ipc(p.model, p.width))
            .collect::<Vec<_>>()
    });
    let outcomes = l
        .time("explore.sims_s", || {
            backend::run_specs(&setup.backend, &specs)
        })
        .expect("local backend runs every spec");

    let evaluated: Vec<EvaluatedPoint> = pruned
        .sound
        .iter()
        .zip(&point_spec)
        .zip(&bounds)
        .map(|((&point, &si), &bound_ipc)| EvaluatedPoint {
            point,
            job_id: outcomes[si].job_id.clone(),
            ipc: outcomes[si].hmean,
            bound_ipc,
            delay: adder_delay(point.model, point.delay),
            cache_hit: outcomes[si].cache_hit,
        })
        .collect();
    let candidates: Vec<Candidate> = evaluated
        .iter()
        .enumerate()
        .map(|(index, ep)| Candidate {
            index,
            ipc: ep.ipc,
            delay: ep.delay,
        })
        .collect();
    let frontier = pareto::frontier(&candidates);
    let out = ExploreOutcome {
        grid: grid.clone(),
        prune: pruned,
        evaluated,
        frontier,
        unique_sims: specs.len(),
        cache_hits: 0,
        metrics: MetricsRegistry::new(),
    };
    let wall_s = t.seconds();
    l.time("json.render_s", || report::to_json(&out).to_compact());

    // Simulator layer: each deduplicated point again, as the local
    // backend runs it (one pool job per point, its benchmarks in series).
    let benches = grid.suite.benchmarks();
    let hmeans = timed_pool(specs.len(), threads(), l, |i, l| {
        let machine = specs[i]
            .machine_configs()
            .into_iter()
            .next()
            .expect("sound points build");
        let ipcs: Vec<f64> = benches
            .iter()
            .map(|&b| traced_sim(&machine, b, grid.scale, l).ipc())
            .collect();
        harmonic_mean(&ipcs)
    });
    let mut result = checked(setup, pins, &out, wall_s);
    let diverged = hmeans
        .iter()
        .zip(&outcomes)
        .filter(|(h, o)| h.to_bits() != o.hmean.to_bits())
        .count();
    result.failed += diverged as u64 + l.get("check.failed") as u64;
    result
}
