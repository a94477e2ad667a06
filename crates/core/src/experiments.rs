//! Experiment drivers: one function per table/figure of the paper.
//!
//! Every driver runs the relevant simulations (in parallel across
//! benchmarks) and returns a structured result; [`crate::report`] renders
//! them as text. [`crate::wire::JobSpec::execute`] maps each experiment
//! kind to its driver; `redbin-repro` and `redbin-served` both run jobs
//! through it, and library users can call the drivers directly.

use redbin_isa::class::LatencyClass;
use redbin_isa::format::Table1Counts;
use redbin_isa::{Emulator, Opcode};
use redbin_sim::stats::{harmonic_mean, BypassCases};
use redbin_sim::{
    BypassLevels, CoreModel, DatapathMode, MachineConfig, SimStats, Simulator, SteeringPolicy,
};
use redbin_workload::{Benchmark, Scale, Suite, WholeProgram};

use crate::pool::run_jobs;

/// Global settings for an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Workload size (the figures use [`Scale::Full`]).
    pub scale: Scale,
    /// Worker threads for the benchmark fan-out.
    pub threads: usize,
    /// Whether to run the redundant shadow datapath (slower; used by the
    /// fidelity experiments).
    pub datapath: DatapathMode,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::Full,
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(16))
                .unwrap_or(4),
            datapath: DatapathMode::Fast,
        }
    }
}

impl ExperimentConfig {
    /// A configuration suitable for tests: small workloads, few threads.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: Scale::Test,
            ..Default::default()
        }
    }

    /// Folds the result-affecting fields into `h` in canonical order.
    ///
    /// Deliberately excludes `threads`: the worker count changes wall-clock
    /// time but never the result ([`crate::pool::run_jobs`] preserves
    /// order), so two runs differing only in parallelism share a cache key.
    pub fn fold_canonical(&self, h: &mut redbin_sim::hash::Fnv64) {
        h.write_tag(0xB0); // domain tag: ExperimentConfig
        h.write_tag(match self.scale {
            Scale::Test => 0,
            Scale::Small => 1,
            Scale::Full => 2,
        });
        h.write_tag(match self.datapath {
            DatapathMode::Fast => 0,
            DatapathMode::Faithful => 1,
        });
    }

    /// A stable, platform-independent FNV-1a fingerprint of the
    /// result-affecting experiment settings (scale, datapath — not
    /// `threads`; see [`Self::fold_canonical`]).
    pub fn canonical_hash(&self) -> u64 {
        let mut h = redbin_sim::hash::Fnv64::new();
        self.fold_canonical(&mut h);
        h.finish()
    }
}

/// Runs one benchmark on one machine and returns its statistics.
///
/// # Panics
///
/// Panics if the simulation faults (all bundled benchmarks are well-formed).
pub fn run_one(
    model: CoreModel,
    width: usize,
    benchmark: Benchmark,
    cfg: &ExperimentConfig,
) -> SimStats {
    let config = MachineConfig::new(model, width).with_datapath(cfg.datapath);
    let program = benchmark.program(cfg.scale);
    Simulator::new(config, &program)
        .run()
        .unwrap_or_else(|e| panic!("{benchmark:?} on {model} failed: {e}"))
}

/// One design-space point's simulation outcome: a single machine over a
/// benchmark set (the `point` experiment behind `redbin-explore`).
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Per-benchmark IPC, in the order the benchmarks were given.
    pub rows: Vec<(Benchmark, f64)>,
    /// Harmonic-mean IPC over the rows.
    pub hmean: f64,
    /// Total simulated cycles across the rows.
    pub cycles: u64,
    /// Total retired instructions across the rows.
    pub retired: u64,
}

/// Runs one design-space point: `machine` over `benches` at `scale`,
/// fanning the benchmarks across `threads` workers.
///
/// # Panics
///
/// Panics if a simulation faults (all bundled benchmarks are well-formed
/// on buildable machines).
pub fn run_point(
    machine: &MachineConfig,
    benches: &[Benchmark],
    scale: Scale,
    threads: usize,
) -> PointResult {
    run_point_with(machine, benches, scale, threads, false)
}

/// [`run_point`], optionally on the retained reference scheduler — the
/// behavioral spec the event-driven scheduler is tested against. The two
/// produce bit-identical statistics, which `redbin-explore`'s frontier
/// stability test pins.
///
/// # Panics
///
/// Same conditions as [`run_point`].
pub fn run_point_with(
    machine: &MachineConfig,
    benches: &[Benchmark],
    scale: Scale,
    threads: usize,
    reference: bool,
) -> PointResult {
    let stats = run_jobs(benches.len(), threads, |i| {
        let program = benches[i].program(scale);
        let mut sim = Simulator::new(machine.clone(), &program);
        if reference {
            sim = sim.with_reference_scheduler();
        }
        sim.run()
            .unwrap_or_else(|e| panic!("{:?} on {} failed: {e}", benches[i], machine.model))
    });
    let rows: Vec<(Benchmark, f64)> = benches
        .iter()
        .zip(&stats)
        .map(|(&b, s)| (b, s.ipc()))
        .collect();
    let ipcs: Vec<f64> = rows.iter().map(|&(_, ipc)| ipc).collect();
    PointResult {
        machine: machine.clone(),
        hmean: harmonic_mean(&ipcs),
        cycles: stats.iter().map(|s| s.cycles).sum(),
        retired: stats.iter().map(|s| s.retired).sum(),
        rows,
    }
}

/// One benchmark's IPC under the four machine models, in
/// [`CoreModel::all`] order (Baseline, RB-limited, RB-full, Ideal).
#[derive(Debug, Clone, PartialEq)]
pub struct IpcRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// IPC per machine model.
    pub ipc: [f64; 4],
    /// Full simulator statistics per machine model (stall breakdowns,
    /// cache counters, …) — the source the IPC column is derived from.
    pub stats: Vec<SimStats>,
}

/// The data behind Figures 9–12: per-benchmark IPC for the four machines.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcFigure {
    /// Execution width (4 or 8).
    pub width: usize,
    /// Which suite.
    pub suite: Suite,
    /// One row per benchmark.
    pub rows: Vec<IpcRow>,
}

impl IpcFigure {
    /// Harmonic-mean IPC per machine model.
    pub fn harmonic_means(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for (m, slot) in out.iter_mut().enumerate() {
            let v: Vec<f64> = self.rows.iter().map(|r| r.ipc[m]).collect();
            *slot = harmonic_mean(&v);
        }
        out
    }

    /// The headline ratios: (RB-full / Baseline − 1, 1 − RB-full / Ideal,
    /// 1 − RB-limited / RB-full), as fractions. An empty figure (or one
    /// with a zero harmonic mean) yields 0.0 ratios rather than NaN/inf,
    /// so JSON documents built from them stay finite.
    pub fn headline_ratios(&self) -> (f64, f64, f64) {
        let hm = self.harmonic_means();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 1.0 };
        (
            ratio(hm[2], hm[0]) - 1.0,
            1.0 - ratio(hm[2], hm[3]),
            1.0 - ratio(hm[1], hm[2]),
        )
    }
}

/// Runs a Figure 9–12 style experiment: all four machines over a suite at
/// one width.
pub fn figure_ipc(width: usize, suite: Suite, cfg: &ExperimentConfig) -> IpcFigure {
    let benches = suite.benchmarks();
    let rows = run_jobs(benches.len(), cfg.threads, |i| {
        let b = benches[i];
        let mut ipc = [0.0; 4];
        let mut stats = Vec::with_capacity(4);
        for (m, model) in CoreModel::all().iter().enumerate() {
            let s = run_one(*model, width, b, cfg);
            ipc[m] = s.ipc();
            stats.push(s);
        }
        IpcRow { benchmark: b, ipc, stats }
    });
    IpcFigure { width, suite, rows }
}

/// Figure 9: 8-wide machines on SPECint2000.
pub fn figure9(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc(8, Suite::Spec2000, cfg)
}

/// Figure 10: 8-wide machines on SPECint95.
pub fn figure10(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc(8, Suite::Spec95, cfg)
}

/// Figure 11: 4-wide machines on SPECint2000.
pub fn figure11(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc(4, Suite::Spec2000, cfg)
}

/// Figure 12: 4-wide machines on SPECint95.
pub fn figure12(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc(4, Suite::Spec95, cfg)
}

/// One whole program's results across the four machine models, in
/// [`CoreModel::all`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRow {
    /// The program.
    pub program: WholeProgram,
    /// The emulator-verified architectural checksum (register `r9`),
    /// already checked against the program's Rust reference.
    pub checksum: u64,
    /// Instructions the emulator retired.
    pub emulated: u64,
    /// IPC per machine model.
    pub ipc: [f64; 4],
    /// Full simulator statistics per machine model.
    pub stats: Vec<SimStats>,
}

///// The whole-program suite result: five complete programs (quicksort,
/// matmul, box blur, prime sieve, QOI-style decoder) on the four machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramsReport {
    /// Execution width (8, matching Figures 9/10).
    pub width: usize,
    /// One row per program.
    pub rows: Vec<ProgramRow>,
}

impl ProgramsReport {
    /// Harmonic-mean IPC per machine model.
    pub fn harmonic_means(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for (m, slot) in out.iter_mut().enumerate() {
            let v: Vec<f64> = self.rows.iter().map(|r| r.ipc[m]).collect();
            *slot = harmonic_mean(&v);
        }
        out
    }
}

/// Runs the whole-program suite on the four 8-wide machines.
///
/// Unlike the proxy-kernel figures this experiment is self-verifying:
/// every simulation's final architectural state is compared against the
/// standalone emulator's, and the emulator's checksum register against
/// the program's Rust reference implementation.
///
/// # Panics
///
/// Panics if any program misbehaves: wrong checksum, architectural
/// divergence between emulator and simulator, or a simulation fault.
pub fn programs(cfg: &ExperimentConfig) -> ProgramsReport {
    let progs = WholeProgram::all();
    let width = 8;
    let scale = cfg.scale;
    let datapath = cfg.datapath;
    let rows = run_jobs(progs.len(), cfg.threads, |i| {
        let wp = progs[i];
        let program = wp.program(scale);
        let mut emu = Emulator::new(&program);
        emu.run(crate::differential::EMULATOR_STEP_BOUND)
            .unwrap_or_else(|e| panic!("{} did not halt: {e}", wp.name()));
        let expect = emu.arch_state();
        let checksum = expect.regs[redbin_workload::programs::CHECKSUM_REG as usize];
        assert_eq!(
            checksum,
            wp.expected_checksum(scale),
            "{}: checksum diverged from the Rust reference",
            wp.name()
        );
        let mut ipc = [0.0; 4];
        let mut stats = Vec::with_capacity(4);
        for (m, model) in CoreModel::all().iter().enumerate() {
            let config = MachineConfig::new(*model, width).with_datapath(datapath);
            let (s, arch) = Simulator::new(config, &program)
                .run_with_arch()
                .unwrap_or_else(|e| panic!("{} on {model} failed: {e}", wp.name()));
            if let Some(d) = expect.diff(&arch) {
                panic!("{} on {model}: architectural divergence: {d}", wp.name());
            }
            ipc[m] = s.ipc();
            stats.push(s);
        }
        ProgramRow {
            program: wp,
            checksum,
            emulated: expect.retired,
            ipc,
            stats,
        }
    });
    ProgramsReport { width, rows }
}

/// The data behind Figure 13: bypass-case distribution on the 8-wide
/// RB-full machine over SPECint2000.
#[derive(Debug, Clone)]
pub struct Figure13 {
    /// Per-benchmark accounting of last-arriving bypassed operands.
    pub rows: Vec<(Benchmark, BypassCases, f64)>,
}

/// Runs Figure 13: which bypass cases are potentially critical.
pub fn figure13(cfg: &ExperimentConfig) -> Figure13 {
    let benches = Suite::Spec2000.benchmarks();
    let rows = run_jobs(benches.len(), cfg.threads, |i| {
        let b = benches[i];
        let stats = run_one(CoreModel::RbFull, 8, b, cfg);
        (b, stats.bypass_cases, stats.bypassed_inst_fraction())
    });
    Figure13 { rows }
}

/// One limited-bypass configuration's harmonic-mean IPC at both widths
/// (Figure 14).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure14Row {
    /// The paper's configuration name (`Full`, `No-1`, …).
    pub label: String,
    /// The bypass levels present.
    pub levels: BypassLevels,
    /// Harmonic-mean IPC over all 20 benchmarks, 4-wide.
    pub hmean_w4: f64,
    /// Harmonic-mean IPC over all 20 benchmarks, 8-wide.
    pub hmean_w8: f64,
}

/// The data behind Figure 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure14 {
    /// One row per bypass configuration.
    pub rows: Vec<Figure14Row>,
}

/// The bypass configurations Figure 14 evaluates.
pub fn figure14_configs() -> Vec<BypassLevels> {
    vec![
        BypassLevels::FULL,
        BypassLevels::without(&[1]),
        BypassLevels::without(&[2]),
        BypassLevels::without(&[3]),
        BypassLevels::without(&[1, 2]),
        BypassLevels::without(&[2, 3]),
    ]
}

/// Runs Figure 14: the Ideal machine under limited bypass networks,
/// harmonic mean over all twenty benchmarks at both widths.
pub fn figure14(cfg: &ExperimentConfig) -> Figure14 {
    let configs = figure14_configs();
    let benches = Benchmark::all();
    // Jobs: config × width × benchmark.
    let widths = [4usize, 8];
    let n = configs.len() * widths.len() * benches.len();
    let ipcs = run_jobs(n, cfg.threads, |j| {
        let c = j / (widths.len() * benches.len());
        let rest = j % (widths.len() * benches.len());
        let w = rest / benches.len();
        let b = rest % benches.len();
        let config = MachineConfig::ideal(widths[w])
            .with_bypass(configs[c])
            .with_datapath(cfg.datapath);
        let program = benches[b].program(cfg.scale);
        Simulator::new(config, &program)
            .run()
            .unwrap_or_else(|e| panic!("figure14 job failed: {e}"))
            .ipc()
    });
    let rows = configs
        .iter()
        .enumerate()
        .map(|(c, levels)| {
            let mut per_width = [0.0f64; 2];
            for (w, slot) in per_width.iter_mut().enumerate() {
                let base = c * widths.len() * benches.len() + w * benches.len();
                let v: Vec<f64> = (0..benches.len()).map(|b| ipcs[base + b]).collect();
                *slot = harmonic_mean(&v);
            }
            Figure14Row {
                label: levels.label(),
                levels: *levels,
                hmean_w4: per_width[0],
                hmean_w8: per_width[1],
            }
        })
        .collect();
    Figure14 { rows }
}

/// Measures Table 1's dynamic-fraction column over the whole 20-benchmark
/// suite using the functional emulator (no timing needed).
///
/// Returns the merged histogram and the per-benchmark breakdown.
pub fn table1(cfg: &ExperimentConfig) -> (Table1Counts, Vec<(Benchmark, Table1Counts)>) {
    let benches = Benchmark::all();
    let per = run_jobs(benches.len(), cfg.threads, |i| {
        let b = benches[i];
        let program = b.program(cfg.scale);
        let mut emu = Emulator::new(&program);
        let mut counts = Table1Counts::new();
        while let Ok(r) = emu.step() {
            if r.inst.op == Opcode::Halt {
                break;
            }
            counts.record(r.inst.op);
            if emu.is_halted() {
                break;
            }
        }
        (b, counts)
    });
    let mut merged = Table1Counts::new();
    for (_, c) in &per {
        merged.merge(c);
    }
    (merged, per)
}

/// One row of Table 3: the latency of an instruction class on each machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Row {
    /// The instruction class.
    pub class: LatencyClass,
    /// Baseline latency.
    pub base: u64,
    /// RB machine latency to the primary result.
    pub rb: u64,
    /// RB machine latency to the 2's-complement result, when it differs.
    pub rb_tc: Option<u64>,
    /// Ideal machine latency.
    pub ideal: u64,
}

/// Reconstructs Table 3 from the machine configurations (a consistency
/// check that the code encodes what the paper states).
pub fn table3() -> Vec<Table3Row> {
    let base = MachineConfig::baseline(8);
    let rb = MachineConfig::rb_full(8);
    let ideal = MachineConfig::ideal(8);
    let representative = |class: LatencyClass| -> Opcode {
        match class {
            LatencyClass::IntArith => Opcode::Addq,
            LatencyClass::IntLogical => Opcode::And,
            LatencyClass::ShiftLeft => Opcode::Sll,
            LatencyClass::ShiftRight => Opcode::Srl,
            LatencyClass::IntCompare => Opcode::Cmplt,
            LatencyClass::ByteManip => Opcode::Extbl,
            LatencyClass::IntMul => Opcode::Mulq,
            LatencyClass::FpArith => Opcode::Fadd,
            LatencyClass::FpDiv => Opcode::Fdiv,
            LatencyClass::Mem => Opcode::Ldq,
            LatencyClass::Branch => Opcode::Beq,
        }
    };
    LatencyClass::all()
        .iter()
        .map(|&class| {
            let op = representative(class);
            let rb_lat = rb.exec_latency(op);
            let rb_tc = rb
                .result_is_rb(op)
                .then_some(rb_lat + rb.conversion_latency);
            Table3Row {
                class,
                base: base.exec_latency(op),
                rb: rb_lat,
                rb_tc,
                ideal: ideal.exec_latency(op),
            }
        })
        .collect()
}

/// The §3.4 delay comparison (critical paths of the gate-level adders).
pub fn delay_report() -> redbin_gates::report::DelayReport {
    redbin_gates::report::DelayReport::standard()
}

/// Ablation: sweep the redundant→TC conversion latency on the 8-wide
/// RB-full machine; returns `(conversion_cycles, harmonic-mean IPC over all
/// benchmarks)`.
pub fn conversion_sweep(cfg: &ExperimentConfig, latencies: &[u64]) -> Vec<(u64, f64)> {
    let benches = Benchmark::all();
    latencies
        .iter()
        .map(|&conv| {
            let ipcs = run_jobs(benches.len(), cfg.threads, |i| {
                let mut config = MachineConfig::rb_full(8).with_datapath(cfg.datapath);
                config.conversion_latency = conv;
                let program = benches[i].program(cfg.scale);
                Simulator::new(config, &program)
                    .run()
                    .expect("sweep run")
                    .ipc()
            });
            (conv, harmonic_mean(&ipcs))
        })
        .collect()
}

/// Ablation: sweep the inter-cluster forwarding delay on the 8-wide Ideal
/// machine; returns `(delay_cycles, harmonic-mean IPC)`.
pub fn cluster_sweep(cfg: &ExperimentConfig, delays: &[u64]) -> Vec<(u64, f64)> {
    let benches = Benchmark::all();
    delays
        .iter()
        .map(|&d| {
            let ipcs = run_jobs(benches.len(), cfg.threads, |i| {
                let mut config = MachineConfig::ideal(8).with_datapath(cfg.datapath);
                config.cluster_delay = d;
                let program = benches[i].program(cfg.scale);
                Simulator::new(config, &program)
                    .run()
                    .expect("sweep run")
                    .ipc()
            });
            (d, harmonic_mean(&ipcs))
        })
        .collect()
}

/// Extension (the paper's §4.2 future work): compare steering policies on
/// the limited-bypass RB machine, where keeping consumers next to their
/// producers matters most. Returns `(policy name, width, harmonic-mean
/// IPC)` rows.
pub fn steering_comparison(cfg: &ExperimentConfig) -> Vec<(&'static str, usize, f64)> {
    let benches = Benchmark::all();
    let mut out = Vec::new();
    for (name, policy) in [
        ("round-robin pairs", SteeringPolicy::RoundRobinPairs),
        ("dependence-aware", SteeringPolicy::DependenceAware),
    ] {
        for width in [4usize, 8] {
            let ipcs = run_jobs(benches.len(), cfg.threads, |i| {
                let config = MachineConfig::rb_limited(width)
                    .with_steering(policy)
                    .with_datapath(cfg.datapath);
                let program = benches[i].program(cfg.scale);
                Simulator::new(config, &program)
                    .run()
                    .expect("steering run")
                    .ipc()
            });
            out.push((name, width, harmonic_mean(&ipcs)));
        }
    }
    out
}

/// Ablation: sweep the instruction-window size on the 8-wide Ideal machine.
pub fn window_sweep(cfg: &ExperimentConfig, windows: &[usize]) -> Vec<(usize, f64)> {
    let benches = Benchmark::all();
    windows
        .iter()
        .map(|&w| {
            let ipcs = run_jobs(benches.len(), cfg.threads, |i| {
                let mut config = MachineConfig::ideal(8).with_datapath(cfg.datapath);
                config.window = w;
                let program = benches[i].program(cfg.scale);
                Simulator::new(config, &program)
                    .run()
                    .expect("sweep run")
                    .ipc()
            });
            (w, harmonic_mean(&ipcs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shapes() {
        let cfg = ExperimentConfig::quick();
        let fig = figure_ipc(8, Suite::Spec95, &cfg);
        assert_eq!(fig.rows.len(), 8);
        let hm = fig.harmonic_means();
        // Ordering: Baseline ≤ RB-full ≤ Ideal (aggregate).
        assert!(hm[0] <= hm[2] * 1.001, "baseline {0} vs rb-full {1}", hm[0], hm[2]);
        assert!(hm[2] <= hm[3] * 1.001, "rb-full {0} vs ideal {1}", hm[2], hm[3]);
    }

    #[test]
    fn table3_matches_paper() {
        let rows = table3();
        let find = |c: LatencyClass| rows.iter().find(|r| r.class == c).unwrap().clone();
        let arith = find(LatencyClass::IntArith);
        assert_eq!((arith.base, arith.rb, arith.rb_tc, arith.ideal), (2, 1, Some(3), 1));
        let shl = find(LatencyClass::ShiftLeft);
        assert_eq!((shl.base, shl.rb, shl.rb_tc, shl.ideal), (3, 3, Some(5), 3));
        let logic = find(LatencyClass::IntLogical);
        assert_eq!((logic.base, logic.rb, logic.rb_tc, logic.ideal), (1, 1, None, 1));
        let mul = find(LatencyClass::IntMul);
        assert_eq!((mul.base, mul.rb, mul.rb_tc, mul.ideal), (10, 10, None, 10));
        let fdiv = find(LatencyClass::FpDiv);
        assert_eq!((fdiv.base, fdiv.rb, fdiv.ideal), (32, 32, 32));
    }

    #[test]
    fn whole_program_suite_is_self_verifying() {
        // `programs` panics on any checksum or architectural divergence,
        // so a clean return at test scale is itself the verification.
        let rep = programs(&ExperimentConfig::quick());
        assert_eq!(rep.rows.len(), 5);
        for r in &rep.rows {
            assert_eq!(r.stats.len(), 4, "{:?}", r.program);
            assert!(r.ipc.iter().all(|&v| v > 0.0), "{:?}: zero IPC", r.program);
            assert!(r.emulated > 1_000, "{:?}: trivial run", r.program);
        }
        assert!(rep.harmonic_means().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn table1_counts_cover_the_suite() {
        let cfg = ExperimentConfig::quick();
        let (merged, per) = table1(&cfg);
        assert_eq!(per.len(), 20);
        assert!(merged.total() > 50_000, "total {}", merged.total());
        use redbin_isa::format::Table1Row;
        // Memory traffic and arithmetic must both be substantial.
        assert!(merged.fraction(Table1Row::MemAccess) > 10.0);
        assert!(merged.fraction(Table1Row::ArithRbRb) > 10.0);
        assert!(merged.fraction(Table1Row::CondBranch) > 5.0);
    }

    #[test]
    fn canonical_hash_separates_scales_but_not_threads() {
        let quick = ExperimentConfig::quick();
        let mut more_threads = quick;
        more_threads.threads = quick.threads + 7;
        assert_eq!(quick.canonical_hash(), more_threads.canonical_hash());
        let mut full = quick;
        full.scale = Scale::Full;
        assert_ne!(quick.canonical_hash(), full.canonical_hash());
        let mut faithful = quick;
        faithful.datapath = DatapathMode::Faithful;
        assert_ne!(quick.canonical_hash(), faithful.canonical_hash());
    }
}
