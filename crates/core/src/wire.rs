//! Request/response envelopes for the `redbin-served` batch service.
//!
//! The protocol is newline-delimited JSON over TCP: each request and each
//! response is one [`Json`] document rendered with [`Json::to_compact`]
//! (single line) followed by `\n`. Every envelope carries the protocol
//! version under `"v"`; unknown versions and malformed envelopes are
//! rejected, never guessed at. See `SERVING.md` for the full protocol.
//!
//! The module also defines [`JobSpec`] — the unit of work a server
//! executes — and its **content-addressed identity**: [`JobSpec::canonical_key`]
//! folds the fully-resolved [`ExperimentConfig`], every [`MachineConfig`]
//! the experiment instantiates, and the workload scale through the
//! canonical FNV hasher ([`redbin_sim::hash::Fnv64`]). Two submissions
//! with equal keys are the same computation, so the server can serve the
//! second from cache byte-identically.

use redbin_gates::netlist::DelayModel;
use redbin_gates::report::DelayReport;
use redbin_isa::format::Table1Counts;
use redbin_sim::hash::Fnv64;
use redbin_sim::stats::SimStats;
use redbin_sim::{BypassLevels, CoreModel, DatapathMode, MachineConfig, SteeringPolicy};
use redbin_workload::{Benchmark, Scale, Suite};

use crate::experiments::{
    self, ExperimentConfig, Figure13, Figure14, IpcFigure, ProgramsReport, Table3Row,
};
use crate::json::{self, Json};

/// Version of the wire protocol this module speaks.
///
/// History: v1 — submit/poll/fetch/stats/shutdown; v2 — adds the
/// `METRICS` command (text exposition dump of the server's
/// [`MetricsRegistry`](redbin_telemetry::MetricsRegistry)).
pub const WIRE_VERSION: u64 = 2;

/// An error raised while decoding an envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// The canonical lowercase name of a scale on the wire.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Parses a bypass-level configuration from its paper label (`"Full"`,
/// `"No-2"`, `"No-1,2"`, …) — the inverse of [`BypassLevels::label`].
///
/// # Errors
///
/// Returns a [`WireError`] on anything that is not a label
/// [`BypassLevels::label`] can produce.
pub fn bypass_from_label(label: &str) -> Result<BypassLevels, WireError> {
    if label == "Full" {
        return Ok(BypassLevels::FULL);
    }
    let Some(rest) = label.strip_prefix("No-") else {
        return Err(wire_err(format!(
            "unknown bypass label `{label}` (expected Full or No-<levels>)"
        )));
    };
    let mut removed = Vec::new();
    for part in rest.split(',') {
        match part {
            "1" => removed.push(1u8),
            "2" => removed.push(2),
            "3" => removed.push(3),
            other => {
                return Err(wire_err(format!(
                    "bad bypass level `{other}` in `{label}` (expected 1, 2 or 3)"
                )))
            }
        }
    }
    Ok(BypassLevels::without(&removed))
}

/// The canonical lowercase name of a core model on the wire (`"baseline"`,
/// `"rb-limited"`, `"rb-full"`, `"ideal"`).
pub fn model_name(model: CoreModel) -> &'static str {
    match model {
        CoreModel::Baseline => "baseline",
        CoreModel::RbLimited => "rb-limited",
        CoreModel::RbFull => "rb-full",
        CoreModel::Ideal => "ideal",
    }
}

/// Parses a wire core-model name.
///
/// # Errors
///
/// Returns a [`WireError`] naming the accepted values on anything else.
pub fn model_from_name(name: &str) -> Result<CoreModel, WireError> {
    CoreModel::all()
        .iter()
        .copied()
        .find(|&m| model_name(m) == name)
        .ok_or_else(|| {
            wire_err(format!(
                "unknown model `{name}` (expected baseline|rb-limited|rb-full|ideal)"
            ))
        })
}

/// The canonical name of a steering policy on the wire.
pub fn steering_name(policy: SteeringPolicy) -> &'static str {
    match policy {
        SteeringPolicy::RoundRobinPairs => "round-robin",
        SteeringPolicy::DependenceAware => "dependence-aware",
    }
}

/// Parses a wire steering-policy name.
///
/// # Errors
///
/// Returns a [`WireError`] naming the accepted values on anything else.
pub fn steering_from_name(name: &str) -> Result<SteeringPolicy, WireError> {
    match name {
        "round-robin" => Ok(SteeringPolicy::RoundRobinPairs),
        "dependence-aware" => Ok(SteeringPolicy::DependenceAware),
        other => Err(wire_err(format!(
            "unknown steering `{other}` (expected round-robin|dependence-aware)"
        ))),
    }
}

/// Parses a wire scale name.
///
/// # Errors
///
/// Returns a [`WireError`] naming the accepted values on anything else.
pub fn scale_from_name(name: &str) -> Result<Scale, WireError> {
    match name {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(wire_err(format!(
            "unknown scale `{other}` (expected test|small|full)"
        ))),
    }
}

/// The experiments a server can run as batch jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentKind {
    /// Figure 9: 8-wide, SPECint2000.
    Figure9,
    /// Figure 10: 8-wide, SPECint95.
    Figure10,
    /// Figure 11: 4-wide, SPECint2000.
    Figure11,
    /// Figure 12: 4-wide, SPECint95.
    Figure12,
    /// Figure 13: bypass-case distribution.
    Figure13,
    /// Figure 14: limited-bypass sweep.
    Figure14,
    /// Table 1: dynamic instruction mix.
    Table1,
    /// Table 3: latency table consistency check.
    Table3,
    /// §3.4 gate-level delay report.
    Delays,
    /// The whole-program suite (quicksort, matmul, box blur, sieve,
    /// QOI-style decoder) on the four 8-wide machines, emulator-verified.
    Programs,
    /// A synthetic job that sleeps: used for load, deadline and shutdown
    /// testing without burning CPU (see `SERVING.md`).
    Sleep,
    /// One design-space point: a single machine configuration
    /// ([`PointSpec`]) run over a benchmark suite, reporting per-benchmark
    /// and harmonic-mean IPC. This is the unit of work behind
    /// `redbin-explore`'s grid sweeps (see `EXPLORATION.md`); its
    /// content-addressed id makes re-running a grid incremental.
    Point,
    /// A client-submitted assembly program, run on the four 8-wide
    /// machines. The server assembles the source and runs the
    /// `redbin-analyze` program verifier **before queueing**: anything it
    /// cannot prove memory-safe and terminating is rejected with a
    /// structured error (see `SERVING.md`).
    Custom,
}

impl ExperimentKind {
    /// Every kind, in wire-name order.
    pub fn all() -> &'static [ExperimentKind] {
        &[
            ExperimentKind::Figure9,
            ExperimentKind::Figure10,
            ExperimentKind::Figure11,
            ExperimentKind::Figure12,
            ExperimentKind::Figure13,
            ExperimentKind::Figure14,
            ExperimentKind::Table1,
            ExperimentKind::Table3,
            ExperimentKind::Delays,
            ExperimentKind::Programs,
            ExperimentKind::Sleep,
            ExperimentKind::Point,
            ExperimentKind::Custom,
        ]
    }

    /// The wire name (`"figure9"`, `"table1"`, …).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::Figure9 => "figure9",
            ExperimentKind::Figure10 => "figure10",
            ExperimentKind::Figure11 => "figure11",
            ExperimentKind::Figure12 => "figure12",
            ExperimentKind::Figure13 => "figure13",
            ExperimentKind::Figure14 => "figure14",
            ExperimentKind::Table1 => "table1",
            ExperimentKind::Table3 => "table3",
            ExperimentKind::Delays => "delays",
            ExperimentKind::Programs => "programs",
            ExperimentKind::Sleep => "sleep",
            ExperimentKind::Point => "point",
            ExperimentKind::Custom => "custom",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for names no server understands.
    pub fn from_name(name: &str) -> Result<Self, WireError> {
        Self::all()
            .iter()
            .copied()
            .find(|k| k.name() == name)
            .ok_or_else(|| wire_err(format!("unknown experiment `{name}`")))
    }

    /// The canonical one-byte tag folded into the cache key.
    fn canonical_tag(self) -> u8 {
        match self {
            ExperimentKind::Figure9 => 9,
            ExperimentKind::Figure10 => 10,
            ExperimentKind::Figure11 => 11,
            ExperimentKind::Figure12 => 12,
            ExperimentKind::Figure13 => 13,
            ExperimentKind::Figure14 => 14,
            ExperimentKind::Table1 => 1,
            ExperimentKind::Table3 => 3,
            ExperimentKind::Delays => 34,
            ExperimentKind::Programs => 20,
            ExperimentKind::Sleep => 200,
            ExperimentKind::Point => 21,
            ExperimentKind::Custom => 22,
        }
    }
}

/// The benchmark set a [`ExperimentKind::Point`] job simulates.
///
/// `Quick` is a fixed four-benchmark subset (two per SPEC generation,
/// chosen for diverse behavior) that keeps large grid sweeps tractable;
/// the full suites are available when the extra fidelity is worth the
/// wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointSuite {
    /// go + li (SPECint95), gzip + mcf (SPECint2000).
    Quick,
    /// The eight SPECint95 proxies.
    Spec95,
    /// The twelve SPECint2000 proxies.
    Spec2000,
    /// All twenty benchmarks.
    All,
}

impl PointSuite {
    /// Every suite, in wire-name order.
    pub fn all() -> &'static [PointSuite] {
        &[
            PointSuite::Quick,
            PointSuite::Spec95,
            PointSuite::Spec2000,
            PointSuite::All,
        ]
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            PointSuite::Quick => "quick",
            PointSuite::Spec95 => "spec95",
            PointSuite::Spec2000 => "spec2000",
            PointSuite::All => "all",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the accepted values on anything else.
    pub fn from_name(name: &str) -> Result<Self, WireError> {
        Self::all()
            .iter()
            .copied()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                wire_err(format!(
                    "unknown point suite `{name}` (expected quick|spec95|spec2000|all)"
                ))
            })
    }

    /// The canonical one-byte tag folded into the cache key.
    fn canonical_tag(self) -> u8 {
        match self {
            PointSuite::Quick => 0,
            PointSuite::Spec95 => 1,
            PointSuite::Spec2000 => 2,
            PointSuite::All => 3,
        }
    }

    /// The benchmarks in this set, in reporting order.
    pub fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            PointSuite::Quick => vec![
                Benchmark::Go,
                Benchmark::Li,
                Benchmark::Gzip,
                Benchmark::Mcf,
            ],
            PointSuite::Spec95 => Suite::Spec95.benchmarks().to_vec(),
            PointSuite::Spec2000 => Suite::Spec2000.benchmarks().to_vec(),
            PointSuite::All => Benchmark::all(),
        }
    }
}

/// The machine half of a [`ExperimentKind::Point`] job: which single
/// configuration to simulate. Bypass ablations and the `rb_rf_only`
/// escape hatch ride on the enclosing [`JobSpec`]'s post-v1 override
/// fields, so a point job composes with the same knobs every other
/// experiment understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    /// The §5.1 core model.
    pub model: CoreModel,
    /// Machine width (4 or 8; validated at decode time).
    pub width: usize,
    /// Scheduler steering policy.
    pub steering: SteeringPolicy,
    /// Which benchmarks to run.
    pub suite: PointSuite,
}

impl PointSpec {
    /// Serializes for the `point` key of a job envelope.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("model", Json::Str(model_name(self.model).to_string()));
        o.set("width", Json::UInt(self.width as u64));
        o.set("steering", Json::Str(steering_name(self.steering).to_string()));
        o.set("suite", Json::Str(self.suite.name().to_string()));
        o
    }

    /// Decodes the `point` key of a job envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on missing fields, unknown names, or a
    /// width the paper does not study (anything but 4 or 8).
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        let model = model_from_name(
            v.get("model")
                .and_then(Json::as_str)
                .ok_or_else(|| wire_err("point spec missing `model`"))?,
        )?;
        let width = v
            .get("width")
            .and_then(Json::as_u64)
            .ok_or_else(|| wire_err("point spec missing `width`"))? as usize;
        if width != 4 && width != 8 {
            return Err(wire_err(format!(
                "unsupported point width {width} (the paper studies 4- and 8-wide)"
            )));
        }
        let steering = match v.get("steering").and_then(Json::as_str) {
            Some(s) => steering_from_name(s)?,
            None => SteeringPolicy::RoundRobinPairs,
        };
        let suite = match v.get("suite").and_then(Json::as_str) {
            Some(s) => PointSuite::from_name(s)?,
            None => PointSuite::Quick,
        };
        Ok(PointSpec { model, width, steering, suite })
    }
}

/// One unit of server work: an experiment at a scale/datapath, or a
/// synthetic sleep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// What to run.
    pub kind: ExperimentKind,
    /// Workload scale (ignored by `Delays`, `Table3` and `Sleep`, but
    /// still part of the identity so clients see consistent semantics).
    pub scale: Scale,
    /// Datapath fidelity mode.
    pub datapath: DatapathMode,
    /// Milliseconds to sleep — only meaningful for [`ExperimentKind::Sleep`].
    pub sleep_ms: u64,
    /// Optional override of the bypass-level network, applied to every
    /// machine the experiment instantiates (`None` keeps each experiment's
    /// own levels). Carried on the wire as the paper label (`"No-2,3"`).
    pub bypass: Option<BypassLevels>,
    /// Drop the TC write-back path on RB machines
    /// (see `MachineConfig::rb_rf_only`). Combined with a missing BYP-3
    /// this produces a statically unsound machine, which the server's
    /// submit-time analysis rejects before queueing.
    pub rb_rf_only: bool,
    /// The machine of a [`ExperimentKind::Point`] job — required for
    /// `point`, meaningless (and rejected on decode) for every other kind.
    pub point: Option<PointSpec>,
    /// The assembly source of a [`ExperimentKind::Custom`] job — required
    /// for `custom`, rejected on decode for every other kind.
    pub custom: Option<String>,
}

impl JobSpec {
    /// A job for `kind` at `scale` with the fast datapath.
    pub fn new(kind: ExperimentKind, scale: Scale) -> Self {
        JobSpec {
            kind,
            scale,
            datapath: DatapathMode::Fast,
            sleep_ms: 0,
            bypass: None,
            rb_rf_only: false,
            point: None,
            custom: None,
        }
    }

    /// A synthetic sleep job.
    pub fn sleep(millis: u64) -> Self {
        JobSpec {
            kind: ExperimentKind::Sleep,
            scale: Scale::Test,
            datapath: DatapathMode::Fast,
            sleep_ms: millis,
            bypass: None,
            rb_rf_only: false,
            point: None,
            custom: None,
        }
    }

    /// A design-space point job (see [`PointSpec`]).
    pub fn point(spec: PointSpec, scale: Scale) -> Self {
        JobSpec {
            kind: ExperimentKind::Point,
            scale,
            datapath: DatapathMode::Fast,
            sleep_ms: 0,
            bypass: None,
            rb_rf_only: false,
            point: Some(spec),
            custom: None,
        }
    }

    /// A custom-program job: `source` is assembly text for the
    /// [`text`](redbin_workload::text) assembler.
    pub fn custom_program(source: impl Into<String>, scale: Scale) -> Self {
        JobSpec {
            kind: ExperimentKind::Custom,
            scale,
            datapath: DatapathMode::Fast,
            sleep_ms: 0,
            bypass: None,
            rb_rf_only: false,
            point: None,
            custom: Some(source.into()),
        }
    }

    /// Builder: override the bypass levels on every instantiated machine.
    #[must_use]
    pub fn with_bypass(mut self, levels: BypassLevels) -> Self {
        self.bypass = Some(levels);
        self
    }

    /// Builder: request the RB-register-file-only machine layout.
    #[must_use]
    pub fn with_rb_rf_only(mut self) -> Self {
        self.rb_rf_only = true;
        self
    }

    /// The [`ExperimentConfig`] this job resolves to on a server running
    /// `threads` workers per job.
    pub fn experiment_config(&self, threads: usize) -> ExperimentConfig {
        ExperimentConfig {
            scale: self.scale,
            threads,
            datapath: self.datapath,
        }
    }

    /// Every machine configuration the experiment instantiates — the
    /// machine half of the content address.
    pub fn machine_configs(&self) -> Vec<MachineConfig> {
        let four_models = |width: usize| -> Vec<MachineConfig> {
            redbin_sim::CoreModel::all()
                .iter()
                .map(|&m| MachineConfig::new(m, width).with_datapath(self.datapath))
                .collect()
        };
        let mut out = match self.kind {
            ExperimentKind::Figure9
            | ExperimentKind::Figure10
            | ExperimentKind::Programs
            | ExperimentKind::Custom => four_models(8),
            ExperimentKind::Figure11 | ExperimentKind::Figure12 => four_models(4),
            ExperimentKind::Figure13 => {
                vec![MachineConfig::rb_full(8).with_datapath(self.datapath)]
            }
            ExperimentKind::Figure14 => {
                let mut out = Vec::new();
                for levels in experiments::figure14_configs() {
                    for width in [4usize, 8] {
                        out.push(
                            MachineConfig::ideal(width)
                                .with_bypass(levels)
                                .with_datapath(self.datapath),
                        );
                    }
                }
                out
            }
            ExperimentKind::Table3 => vec![
                MachineConfig::baseline(8),
                MachineConfig::rb_full(8),
                MachineConfig::ideal(8),
            ],
            // One machine, described by the point spec. The builder is the
            // non-panicking construction path; a width it rejects (only
            // possible by bypassing `PointSpec::from_json`) yields an empty
            // machine list, which `run` reports as a structured error.
            ExperimentKind::Point => self
                .point
                .and_then(|p| {
                    MachineConfig::builder(p.model, p.width)
                        .steering(p.steering)
                        .datapath(self.datapath)
                        .build()
                        .ok()
                })
                .into_iter()
                .collect(),
            // Emulator-only / gate-level / synthetic: no timing machine.
            ExperimentKind::Table1 | ExperimentKind::Delays | ExperimentKind::Sleep => Vec::new(),
        };
        if let Some(levels) = self.bypass {
            for m in &mut out {
                m.bypass = levels;
            }
        }
        if self.rb_rf_only {
            for m in &mut out {
                m.rb_rf_only = true;
            }
        }
        out
    }

    /// The content address of this job: a canonical FNV-1a fold of the
    /// experiment kind, the fully-resolved [`ExperimentConfig`] (minus the
    /// worker count, which cannot affect results), every [`MachineConfig`]
    /// the experiment instantiates, and the workload scale.
    pub fn canonical_key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_tag(0xC0); // domain tag: JobSpec
        h.write_tag(self.kind.canonical_tag());
        // Threads never affect the result; pick a fixed value so every
        // server computes the same key.
        self.experiment_config(1).fold_canonical(&mut h);
        let machines = self.machine_configs();
        h.write_usize(machines.len());
        for m in &machines {
            m.fold_canonical(&mut h);
        }
        if self.kind == ExperimentKind::Sleep {
            h.write_u64(self.sleep_ms);
        }
        // Post-v1 fields fold only when non-default so every job id minted
        // before they existed stays stable (the pinned golden hashes).
        if let Some(levels) = self.bypass {
            h.write_tag(0xB1);
            h.write_bool(levels.l1);
            h.write_bool(levels.l2);
            h.write_bool(levels.l3);
        }
        if self.rb_rf_only {
            h.write_tag(0xB2);
            h.write_bool(true);
        }
        if let Some(p) = self.point {
            // The machine itself is already folded above; the suite (which
            // machines cannot express) and the point fields are folded
            // explicitly so a point job never aliases another kind.
            h.write_tag(0xB3);
            h.write_tag(p.model.canonical_tag());
            h.write_usize(p.width);
            h.write_tag(match p.steering {
                SteeringPolicy::RoundRobinPairs => 0,
                SteeringPolicy::DependenceAware => 1,
            });
            h.write_tag(p.suite.canonical_tag());
        }
        if let Some(src) = &self.custom {
            // The program text IS the experiment: fold it whole so two
            // custom jobs alias exactly when their sources are identical.
            h.write_tag(0xB4);
            h.write_str(src);
        }
        h.finish()
    }

    /// The cache key in its wire form: 16 lowercase hex digits. Doubles as
    /// the job id — the protocol is content-addressed end to end.
    pub fn job_id(&self) -> String {
        format!("{:016x}", self.canonical_key())
    }

    /// Serializes the spec for a `submit` envelope.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("experiment", Json::Str(self.kind.name().to_string()));
        o.set("scale", Json::Str(scale_name(self.scale).to_string()));
        o.set(
            "datapath",
            Json::Str(
                match self.datapath {
                    DatapathMode::Fast => "fast",
                    DatapathMode::Faithful => "faithful",
                }
                .to_string(),
            ),
        );
        if self.kind == ExperimentKind::Sleep {
            o.set("millis", Json::UInt(self.sleep_ms));
        }
        if let Some(levels) = self.bypass {
            o.set("bypass", Json::Str(levels.label()));
        }
        if self.rb_rf_only {
            o.set("rb-rf-only", Json::Bool(true));
        }
        if let Some(p) = &self.point {
            o.set("point", p.to_json());
        }
        if let Some(src) = &self.custom {
            o.set("source", Json::Str(src.clone()));
        }
        o
    }

    /// Decodes a spec from a `submit` envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on missing/unknown fields.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        let kind = ExperimentKind::from_name(
            v.get("experiment")
                .and_then(Json::as_str)
                .ok_or_else(|| wire_err("job spec missing `experiment`"))?,
        )?;
        let scale = match v.get("scale").and_then(Json::as_str) {
            Some(s) => scale_from_name(s)?,
            None => Scale::Test,
        };
        let datapath = match v.get("datapath").and_then(Json::as_str) {
            Some("fast") | None => DatapathMode::Fast,
            Some("faithful") => DatapathMode::Faithful,
            Some(other) => {
                return Err(wire_err(format!(
                    "unknown datapath `{other}` (expected fast|faithful)"
                )))
            }
        };
        let sleep_ms = v.get("millis").and_then(Json::as_u64).unwrap_or(0);
        let bypass = match v.get("bypass").and_then(Json::as_str) {
            Some(label) => Some(bypass_from_label(label)?),
            None => None,
        };
        let rb_rf_only = match v.get("rb-rf-only") {
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(wire_err("`rb-rf-only` must be a boolean")),
            None => false,
        };
        let point = match v.get("point") {
            Some(p) => Some(PointSpec::from_json(p)?),
            None => None,
        };
        if (kind == ExperimentKind::Point) != point.is_some() {
            return Err(wire_err(if point.is_some() {
                "`point` is only valid on a point job"
            } else {
                "point job missing its `point` spec"
            }));
        }
        let custom = match v.get("source") {
            Some(Json::Str(src)) => Some(src.clone()),
            Some(_) => return Err(wire_err("`source` must be a string")),
            None => None,
        };
        if (kind == ExperimentKind::Custom) != custom.is_some() {
            return Err(wire_err(if custom.is_some() {
                "`source` is only valid on a custom job"
            } else {
                "custom job missing its `source` text"
            }));
        }
        Ok(JobSpec {
            kind,
            scale,
            datapath,
            sleep_ms,
            bypass,
            rb_rf_only,
            point,
            custom,
        })
    }

    /// Runs the job and returns its result body: [`JobOutput::to_json`] of
    /// [`JobSpec::execute`] — exactly the document `redbin-repro <kind>
    /// --json` writes under `"result"`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`JobSpec::execute`].
    pub fn run(&self, threads: usize, cancelled: &std::sync::atomic::AtomicBool) -> Json {
        self.execute(threads, cancelled).to_json()
    }

    /// Runs the job and returns its typed result. This is the one place
    /// that decides which experiment a kind runs: `redbin-served` and
    /// `redbin-repro` both come through here.
    ///
    /// `cancelled` is polled by cancellable kinds (currently [`ExperimentKind::Sleep`],
    /// every 10 ms); simulator experiments run to completion once started —
    /// deadline enforcement for those happens at dequeue time.
    ///
    /// # Panics
    ///
    /// Panics if a simulation faults (propagated to the worker, which
    /// reports the job as failed).
    pub fn execute(
        &self,
        threads: usize,
        cancelled: &std::sync::atomic::AtomicBool,
    ) -> JobOutput {
        use std::sync::atomic::Ordering;
        let cfg = self.experiment_config(threads);
        let ipc_figure = |number, fig| JobOutput::IpcFigure { number, fig };
        match self.kind {
            ExperimentKind::Figure9 => ipc_figure(9, experiments::figure9(&cfg)),
            ExperimentKind::Figure10 => ipc_figure(10, experiments::figure10(&cfg)),
            ExperimentKind::Figure11 => ipc_figure(11, experiments::figure11(&cfg)),
            ExperimentKind::Figure12 => ipc_figure(12, experiments::figure12(&cfg)),
            ExperimentKind::Figure13 => JobOutput::Figure13(experiments::figure13(&cfg)),
            ExperimentKind::Figure14 => JobOutput::Figure14(experiments::figure14(&cfg)),
            ExperimentKind::Table1 => {
                let (merged, per) = experiments::table1(&cfg);
                JobOutput::Table1 { merged, per }
            }
            ExperimentKind::Table3 => JobOutput::Table3(experiments::table3()),
            ExperimentKind::Programs => JobOutput::Programs(experiments::programs(&cfg)),
            ExperimentKind::Delays => JobOutput::Delays {
                unit_gate: experiments::delay_report(),
                fanout_aware: DelayReport::compute(
                    DelayModel::FanoutAware { load_factor: 0.2 },
                    &[8, 16, 32, 64, 128],
                ),
            },
            ExperimentKind::Point => {
                let benches = self.point.map(|p| p.suite.benchmarks()).unwrap_or_default();
                JobOutput::Body(match self.machine_configs().into_iter().next() {
                    Some(machine) => json::point(&experiments::run_point(
                        &machine,
                        &benches,
                        self.scale,
                        threads,
                    )),
                    // A point job without a buildable machine can only be
                    // constructed by bypassing `from_json`; report it
                    // structurally rather than panicking a worker.
                    None => error_body("point job has no buildable machine".into()),
                })
            }
            ExperimentKind::Custom => {
                // Assembly and safety were validated at submit time; decode
                // failures here (only reachable by constructing a spec
                // in-process) are reported structurally, not panicked.
                let parsed = self
                    .custom
                    .as_deref()
                    .ok_or_else(|| "custom job has no source".to_string())
                    .and_then(|src| {
                        redbin_workload::text::parse(src).map_err(|e| e.to_string())
                    });
                JobOutput::Body(match parsed {
                    Err(e) => error_body(e),
                    Ok(prog) => {
                        let prog = prog.with_name("custom");
                        let mut o = Json::object();
                        o.set("instructions", Json::UInt(prog.code.len() as u64));
                        let mut per_model = Json::object();
                        for machine in self.machine_configs() {
                            let name = machine.model.name().to_string();
                            let stats = redbin_sim::Simulator::new(machine, &prog)
                                .run()
                                .unwrap_or_else(|e| panic!("custom program faults: {e}"));
                            let mut row = Json::object();
                            row.set("ipc", Json::Num(stats.ipc()));
                            row.set("retired", Json::UInt(stats.retired));
                            row.set("cycles", Json::UInt(stats.cycles));
                            per_model.set(&name, row);
                        }
                        o.set("models", per_model);
                        o
                    }
                })
            }
            ExperimentKind::Sleep => {
                let mut remaining = self.sleep_ms;
                while remaining > 0 && !cancelled.load(Ordering::Relaxed) {
                    let step = remaining.min(10);
                    std::thread::sleep(std::time::Duration::from_millis(step));
                    remaining -= step;
                }
                let mut o = Json::object();
                o.set("slept-ms", Json::UInt(self.sleep_ms - remaining));
                o.set("cancelled", Json::Bool(cancelled.load(Ordering::Relaxed)));
                JobOutput::Body(o)
            }
        }
    }

    /// The Spec suite behind an IPC figure, if any (used for reporting).
    pub fn suite(&self) -> Option<Suite> {
        match self.kind {
            ExperimentKind::Figure9 | ExperimentKind::Figure11 => Some(Suite::Spec2000),
            ExperimentKind::Figure10 | ExperimentKind::Figure12 => Some(Suite::Spec95),
            _ => None,
        }
    }
}

/// What a [`JobSpec`] computed, before it is serialized: the typed result
/// behind both the served body ([`JobOutput::to_json`]) and the text
/// report ([`crate::report::render`]).
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Figures 9–12.
    IpcFigure {
        /// The paper's figure number (9–12).
        number: u32,
        /// Per-benchmark IPC of the four machines.
        fig: IpcFigure,
    },
    /// Figure 13: the bypass-case distribution.
    Figure13(Figure13),
    /// Figure 14: the limited-bypass sweep.
    Figure14(Figure14),
    /// Table 1: the dynamic instruction mix.
    Table1 {
        /// Counts over every benchmark.
        merged: Table1Counts,
        /// Counts per benchmark.
        per: Vec<(Benchmark, Table1Counts)>,
    },
    /// Table 3: class latencies per machine.
    Table3(Vec<Table3Row>),
    /// §3.4: the gate-level delay tables under both delay models.
    Delays {
        /// The unit-gate model.
        unit_gate: DelayReport,
        /// The fan-out-aware model (load factor 0.2).
        fanout_aware: DelayReport,
    },
    /// The whole-program suite.
    Programs(ProgramsReport),
    /// The JSON body of a kind with no paper table: point, custom and
    /// sleep jobs, and the structured error of a job that could not run.
    Body(Json),
}

impl JobOutput {
    /// The wire result body.
    pub fn to_json(&self) -> Json {
        match self {
            JobOutput::IpcFigure { fig, .. } => json::ipc_figure(fig),
            JobOutput::Figure13(fig) => json::figure13(fig),
            JobOutput::Figure14(fig) => json::figure14(fig),
            JobOutput::Table1 { merged, per } => json::table1(merged, per),
            JobOutput::Table3(rows) => json::table3(rows),
            JobOutput::Delays { unit_gate, fanout_aware } => {
                let mut o = Json::object();
                o.set("unit-gate", json::delay_report(unit_gate));
                o.set("fanout-aware", json::delay_report(fanout_aware));
                o
            }
            JobOutput::Programs(rep) => json::programs(rep),
            JobOutput::Body(body) => body.clone(),
        }
    }

    /// Total simulated (retired, plus emulated for the whole programs)
    /// instructions behind a paper experiment, where it reports them.
    pub fn instructions(&self) -> Option<u64> {
        fn retired<'a>(stats: impl IntoIterator<Item = &'a SimStats>) -> u64 {
            stats.into_iter().map(|s| s.retired).sum()
        }
        match self {
            JobOutput::IpcFigure { fig, .. } => {
                Some(retired(fig.rows.iter().flat_map(|r| &r.stats)))
            }
            JobOutput::Table1 { merged, .. } => Some(merged.total()),
            JobOutput::Programs(rep) => Some(
                retired(rep.rows.iter().flat_map(|r| &r.stats))
                    + rep.rows.iter().map(|r| r.emulated).sum::<u64>(),
            ),
            JobOutput::Figure13(_)
            | JobOutput::Figure14(_)
            | JobOutput::Table3(_)
            | JobOutput::Delays { .. }
            | JobOutput::Body(_) => None,
        }
    }

    /// Individual simulator/emulator runs behind a paper experiment — the
    /// denominator of `redbin-repro all --profile`'s sims-per-second.
    /// Zero for the static experiments (`table3`, `delays`) and bodies.
    pub fn simulations(&self) -> u64 {
        let n = match self {
            JobOutput::IpcFigure { fig, .. } => fig.rows.iter().map(|r| r.stats.len()).sum(),
            JobOutput::Figure13(fig) => fig.rows.len(),
            // Bypass config × both widths × all twenty benchmarks.
            JobOutput::Figure14(fig) => fig.rows.len() * 2 * Benchmark::all().len(),
            JobOutput::Table1 { per, .. } => per.len(),
            // One emulator run plus four simulated machines per program.
            JobOutput::Programs(rep) => rep.rows.len() * 5,
            JobOutput::Table3(_) | JobOutput::Delays { .. } | JobOutput::Body(_) => 0,
        };
        n as u64
    }
}

/// The structured result of a job that could not run.
fn error_body(message: String) -> Json {
    let mut o = Json::object();
    o.set("error", Json::Str(message));
    o
}

/// Where a job stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is in the cache.
    Done,
    /// The job function panicked.
    Failed,
    /// The deadline passed before a worker could start (or finish) it.
    Expired,
}

impl JobState {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Expired => "expired",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on unknown states.
    pub fn from_name(name: &str) -> Result<Self, WireError> {
        match name {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "expired" => Ok(JobState::Expired),
            other => Err(wire_err(format!("unknown job state `{other}`"))),
        }
    }

    /// `true` once the job will make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Expired)
    }
}

/// A client→server envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job, optionally with a deadline in milliseconds from
    /// acceptance.
    Submit {
        /// What to run.
        spec: JobSpec,
        /// Deadline in milliseconds (None = server default).
        deadline_ms: Option<u64>,
    },
    /// Ask for a job's state.
    Poll {
        /// The job id ([`JobSpec::job_id`]).
        job: String,
    },
    /// Fetch a completed job's result body.
    Fetch {
        /// The job id.
        job: String,
    },
    /// Ask for server statistics.
    Stats,
    /// Ask for a telemetry dump (text exposition format; wire v2).
    Metrics,
    /// Ask the server to drain and exit.
    Shutdown,
}

impl Request {
    /// Serializes to a one-line wire envelope (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = Json::object();
        o.set("v", Json::UInt(WIRE_VERSION));
        match self {
            Request::Submit { spec, deadline_ms } => {
                o.set("type", Json::Str("submit".into()));
                o.set("job", spec.to_json());
                if let Some(ms) = deadline_ms {
                    o.set("deadline-ms", Json::UInt(*ms));
                }
            }
            Request::Poll { job } => {
                o.set("type", Json::Str("poll".into()));
                o.set("job", Json::Str(job.clone()));
            }
            Request::Fetch { job } => {
                o.set("type", Json::Str("fetch".into()));
                o.set("job", Json::Str(job.clone()));
            }
            Request::Stats => {
                o.set("type", Json::Str("stats".into()));
            }
            Request::Metrics => {
                o.set("type", Json::Str("metrics".into()));
            }
            Request::Shutdown => {
                o.set("type", Json::Str("shutdown".into()));
            }
        }
        o.to_compact()
    }

    /// Decodes a wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed JSON, wrong version, or an
    /// unknown request type.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        let v = json::parse(line.trim()).map_err(|e| wire_err(e.to_string()))?;
        check_version(&v)?;
        let job_str = |v: &Json| -> Result<String, WireError> {
            v.get("job")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| wire_err("missing `job` id"))
        };
        match v.get("type").and_then(Json::as_str) {
            Some("submit") => {
                let spec = JobSpec::from_json(
                    v.get("job").ok_or_else(|| wire_err("missing `job` spec"))?,
                )?;
                let deadline_ms = v.get("deadline-ms").and_then(Json::as_u64);
                Ok(Request::Submit { spec, deadline_ms })
            }
            Some("poll") => Ok(Request::Poll { job: job_str(&v)? }),
            Some("fetch") => Ok(Request::Fetch { job: job_str(&v)? }),
            Some("stats") => Ok(Request::Stats),
            Some("metrics") => Ok(Request::Metrics),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(wire_err(format!("unknown request type `{other}`"))),
            None => Err(wire_err("missing request `type`")),
        }
    }
}

fn check_version(v: &Json) -> Result<(), WireError> {
    match v.get("v").and_then(Json::as_u64) {
        Some(WIRE_VERSION) => Ok(()),
        Some(other) => Err(wire_err(format!(
            "unsupported wire version {other} (this build speaks {WIRE_VERSION})"
        ))),
        None => Err(wire_err("missing wire version `v`")),
    }
}

/// A server→client envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was accepted (or found already cached/in flight).
    Accepted {
        /// The job id to poll/fetch with.
        job: String,
        /// `true` if the result was already in the cache at submit time.
        cache_hit: bool,
        /// Current state (`Done` for a cache hit).
        state: JobState,
    },
    /// Backpressure: the queue is full; retry after the given delay.
    RetryAfter {
        /// Suggested delay before resubmitting.
        seconds: u64,
    },
    /// A poll answer.
    Status {
        /// The job id.
        job: String,
        /// Current state.
        state: JobState,
        /// The failure message, for [`JobState::Failed`] / [`JobState::Expired`].
        error: Option<String>,
    },
    /// A fetched result.
    Result {
        /// The job id.
        job: String,
        /// The result body — byte-identical for every fetch of the same id.
        body: Json,
    },
    /// Server statistics.
    Stats {
        /// The statistics document (see `SERVING.md`).
        body: Json,
    },
    /// A telemetry dump (wire v2).
    Metrics {
        /// The registry rendered in the text exposition format (see
        /// `OBSERVABILITY.md`).
        text: String,
    },
    /// The request could not be honored.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Acknowledges a shutdown; the server drains and exits after sending.
    Bye {
        /// Jobs that were still queued or running when shutdown began
        /// (all of them are drained before exit).
        draining: u64,
    },
}

impl Response {
    /// Serializes to a one-line wire envelope (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = Json::object();
        o.set("v", Json::UInt(WIRE_VERSION));
        match self {
            Response::Accepted { job, cache_hit, state } => {
                o.set("type", Json::Str("accepted".into()));
                o.set("job", Json::Str(job.clone()));
                o.set(
                    "cache",
                    Json::Str(if *cache_hit { "hit" } else { "miss" }.into()),
                );
                o.set("state", Json::Str(state.name().into()));
            }
            Response::RetryAfter { seconds } => {
                o.set("type", Json::Str("retry-after".into()));
                o.set("seconds", Json::UInt(*seconds));
            }
            Response::Status { job, state, error } => {
                o.set("type", Json::Str("status".into()));
                o.set("job", Json::Str(job.clone()));
                o.set("state", Json::Str(state.name().into()));
                if let Some(e) = error {
                    o.set("error", Json::Str(e.clone()));
                }
            }
            Response::Result { job, body } => {
                o.set("type", Json::Str("result".into()));
                o.set("job", Json::Str(job.clone()));
                o.set("body", body.clone());
            }
            Response::Stats { body } => {
                o.set("type", Json::Str("stats".into()));
                o.set("body", body.clone());
            }
            Response::Metrics { text } => {
                o.set("type", Json::Str("metrics".into()));
                o.set("text", Json::Str(text.clone()));
            }
            Response::Error { message } => {
                o.set("type", Json::Str("error".into()));
                o.set("message", Json::Str(message.clone()));
            }
            Response::Bye { draining } => {
                o.set("type", Json::Str("bye".into()));
                o.set("draining", Json::UInt(*draining));
            }
        }
        o.to_compact()
    }

    /// Decodes a wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed JSON, wrong version, or an
    /// unknown response type.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        let v = json::parse(line.trim()).map_err(|e| wire_err(e.to_string()))?;
        check_version(&v)?;
        let job_str = |v: &Json| -> Result<String, WireError> {
            v.get("job")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| wire_err("missing `job` id"))
        };
        let state_of = |v: &Json| -> Result<JobState, WireError> {
            JobState::from_name(
                v.get("state")
                    .and_then(Json::as_str)
                    .ok_or_else(|| wire_err("missing `state`"))?,
            )
        };
        match v.get("type").and_then(Json::as_str) {
            Some("accepted") => Ok(Response::Accepted {
                job: job_str(&v)?,
                cache_hit: v.get("cache").and_then(Json::as_str) == Some("hit"),
                state: state_of(&v)?,
            }),
            Some("retry-after") => Ok(Response::RetryAfter {
                seconds: v
                    .get("seconds")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| wire_err("missing `seconds`"))?,
            }),
            Some("status") => Ok(Response::Status {
                job: job_str(&v)?,
                state: state_of(&v)?,
                error: v.get("error").and_then(Json::as_str).map(str::to_string),
            }),
            Some("result") => Ok(Response::Result {
                job: job_str(&v)?,
                body: v
                    .get("body")
                    .cloned()
                    .ok_or_else(|| wire_err("missing `body`"))?,
            }),
            Some("stats") => Ok(Response::Stats {
                body: v
                    .get("body")
                    .cloned()
                    .ok_or_else(|| wire_err("missing `body`"))?,
            }),
            Some("metrics") => Ok(Response::Metrics {
                text: v
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or_else(|| wire_err("missing `text`"))?
                    .to_string(),
            }),
            Some("error") => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
            }),
            Some("bye") => Ok(Response::Bye {
                draining: v.get("draining").and_then(Json::as_u64).unwrap_or(0),
            }),
            Some(other) => Err(wire_err(format!("unknown response type `{other}`"))),
            None => Err(wire_err("missing response `type`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Submit {
                spec: JobSpec::new(ExperimentKind::Figure9, Scale::Test),
                deadline_ms: Some(60_000),
            },
            Request::Submit {
                spec: JobSpec::sleep(250),
                deadline_ms: None,
            },
            Request::Poll { job: "deadbeef01234567".into() },
            Request::Fetch { job: "deadbeef01234567".into() },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Request::from_line(&line).expect("decodes"), r);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Accepted {
                job: "ab".into(),
                cache_hit: true,
                state: JobState::Done,
            },
            Response::RetryAfter { seconds: 2 },
            Response::Status {
                job: "ab".into(),
                state: JobState::Expired,
                error: Some("deadline exceeded".into()),
            },
            Response::Result {
                job: "ab".into(),
                body: Json::Obj(vec![("rows".into(), Json::Arr(vec![]))]),
            },
            Response::Stats { body: Json::object() },
            Response::Metrics {
                text: "# TYPE jobs counter\njobs 3\n".into(),
            },
            Response::Error { message: "nope".into() },
            Response::Bye { draining: 3 },
        ];
        for r in resps {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Response::from_line(&line).expect("decodes"), r);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // One below and one far above the version this build speaks.
        assert!(Request::from_line(r#"{"v":1,"type":"stats"}"#).is_err());
        assert!(Request::from_line(r#"{"type":"stats"}"#).is_err());
        assert!(Response::from_line(r#"{"v":99,"type":"bye"}"#).is_err());
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        assert!(Request::from_line(r#"{"v":2,"type":"frobnicate"}"#).is_err());
        assert!(ExperimentKind::from_name("figure99").is_err());
        assert!(scale_from_name("huge").is_err());
        let bad_spec = r#"{"v":2,"type":"submit","job":{"experiment":"figure9","scale":"huge"}}"#;
        assert!(Request::from_line(bad_spec).is_err());
    }

    #[test]
    fn job_ids_are_content_addressed() {
        let a = JobSpec::new(ExperimentKind::Figure9, Scale::Test);
        let b = JobSpec::new(ExperimentKind::Figure9, Scale::Test);
        assert_eq!(a.job_id(), b.job_id());
        assert_eq!(a.job_id().len(), 16);
        let c = JobSpec::new(ExperimentKind::Figure9, Scale::Full);
        assert_ne!(a.job_id(), c.job_id());
        let d = JobSpec::new(ExperimentKind::Figure10, Scale::Test);
        assert_ne!(a.job_id(), d.job_id());
        let mut e = a.clone();
        e.datapath = DatapathMode::Faithful;
        assert_ne!(a.job_id(), e.job_id());
        assert_ne!(JobSpec::sleep(1).job_id(), JobSpec::sleep(2).job_id());
        // Post-v1 knobs change the id when set…
        let f = a.clone().with_bypass(BypassLevels::without(&[3]));
        assert_ne!(a.job_id(), f.job_id());
        let g = a.clone().with_rb_rf_only();
        assert_ne!(a.job_id(), g.job_id());
        assert_ne!(f.job_id(), g.job_id());
        // …and even on kinds with no timing machines (fold is explicit).
        let s = JobSpec::sleep(1).with_rb_rf_only();
        assert_ne!(JobSpec::sleep(1).job_id(), s.job_id());
    }

    #[test]
    fn bypass_labels_roundtrip_on_the_wire() {
        for removed in [&[][..], &[1], &[2], &[3], &[2, 3], &[1, 2, 3]] {
            let levels = BypassLevels::without(removed);
            assert_eq!(bypass_from_label(&levels.label()).expect("parses"), levels);
        }
        assert!(bypass_from_label("no-2").is_err());
        assert!(bypass_from_label("No-4").is_err());
        assert!(bypass_from_label("").is_err());

        let spec = JobSpec::new(ExperimentKind::Figure9, Scale::Test)
            .with_bypass(BypassLevels::without(&[2, 3]))
            .with_rb_rf_only();
        let back = JobSpec::from_json(&spec.to_json()).expect("roundtrips");
        assert_eq!(back, spec);
        for m in back.machine_configs() {
            assert!(m.rb_rf_only);
            assert_eq!(m.bypass, BypassLevels::without(&[2, 3]));
        }
    }

    #[test]
    fn specs_roundtrip_through_json() {
        for &kind in ExperimentKind::all() {
            for scale in [Scale::Test, Scale::Small, Scale::Full] {
                let mut spec = JobSpec::new(kind, scale);
                spec.sleep_ms = if kind == ExperimentKind::Sleep { 42 } else { 0 };
                if kind == ExperimentKind::Point {
                    spec.point = Some(PointSpec {
                        model: CoreModel::RbLimited,
                        width: 8,
                        steering: SteeringPolicy::DependenceAware,
                        suite: PointSuite::Quick,
                    });
                }
                if kind == ExperimentKind::Custom {
                    spec.custom = Some("\thalt\n".to_string());
                }
                let back = JobSpec::from_json(&spec.to_json()).expect("roundtrips");
                assert_eq!(back, spec);
            }
        }
    }

    #[test]
    fn custom_specs_are_validated_content_addressed_and_runnable() {
        let src = "\
        .reg r1, 5
top:    subq r1, #1, r1
        bgt r1, top
        halt
";
        let spec = JobSpec::custom_program(src, Scale::Test);
        let back = JobSpec::from_json(&spec.to_json()).expect("roundtrips");
        assert_eq!(back, spec);
        // The source is the identity: different text, different job.
        let other = JobSpec::custom_program("\thalt\n", Scale::Test);
        assert_ne!(spec.job_id(), other.job_id());
        assert_eq!(spec.machine_configs().len(), 4, "four 8-wide machines");

        // `source` is rejected off a custom job, and required on one.
        let mut bad = JobSpec::new(ExperimentKind::Figure9, Scale::Test).to_json();
        bad.set("source", Json::Str("halt".into()));
        assert!(JobSpec::from_json(&bad).is_err());
        let mut missing = spec.to_json();
        missing.set("source", Json::Null);
        assert!(JobSpec::from_json(&missing).is_err());

        let out = spec.run(1, &std::sync::atomic::AtomicBool::new(false));
        let models = out.get("models").expect("models");
        for m in CoreModel::all() {
            let row = models.get(m.name()).expect("model row");
            // 5 loop trips x 2 instructions; the simulator does not
            // count the halt itself as retired.
            assert_eq!(row.get("retired"), Some(&Json::UInt(10)));
        }
    }

    #[test]
    fn point_specs_are_validated_and_content_addressed() {
        let base = PointSpec {
            model: CoreModel::Baseline,
            width: 8,
            steering: SteeringPolicy::RoundRobinPairs,
            suite: PointSuite::Quick,
        };
        let spec = JobSpec::point(base, Scale::Test);
        let back = JobSpec::from_json(&spec.to_json()).expect("roundtrips");
        assert_eq!(back, spec);

        // The single machine is built from the point spec, with the
        // post-v1 overrides applied on top.
        let machines = spec.machine_configs();
        assert_eq!(machines.len(), 1);
        assert_eq!(machines[0].model, CoreModel::Baseline);
        assert_eq!(machines[0].width, 8);
        let ablated = spec.clone()
            .with_bypass(BypassLevels::without(&[2]))
            .with_rb_rf_only();
        let m = &ablated.machine_configs()[0];
        assert!(m.rb_rf_only);
        assert_eq!(m.bypass, BypassLevels::without(&[2]));

        // Every axis of the point moves the job id.
        let mut ids = std::collections::HashSet::new();
        for model in [CoreModel::Baseline, CoreModel::Ideal] {
            for width in [4usize, 8] {
                for steering in [
                    SteeringPolicy::RoundRobinPairs,
                    SteeringPolicy::DependenceAware,
                ] {
                    for suite in [PointSuite::Quick, PointSuite::All] {
                        let p = PointSpec { model, width, steering, suite };
                        assert!(ids.insert(JobSpec::point(p, Scale::Test).job_id()));
                    }
                }
            }
        }
        assert_eq!(ids.len(), 16);
        assert!(ids.insert(ablated.job_id()), "overrides move the id");

        // Decode-time validation: bad widths and misplaced `point` keys.
        let mut bad_width = spec.to_json();
        let mut p = base.to_json();
        p.set("width", Json::UInt(6));
        bad_width.set("point", p);
        assert!(JobSpec::from_json(&bad_width).is_err());
        let bare = JobSpec::new(ExperimentKind::Point, Scale::Test);
        assert!(JobSpec::from_json(&bare.to_json()).is_err());
        let mut misplaced = JobSpec::new(ExperimentKind::Figure9, Scale::Test).to_json();
        misplaced.set("point", base.to_json());
        assert!(JobSpec::from_json(&misplaced).is_err());
        assert!(PointSuite::from_name("huge").is_err());
        assert!(model_from_name("pentium").is_err());
        assert!(steering_from_name("static").is_err());
    }

    #[test]
    fn point_suites_cover_the_benchmarks() {
        assert_eq!(PointSuite::Quick.benchmarks().len(), 4);
        assert_eq!(PointSuite::Spec95.benchmarks().len(), 8);
        assert_eq!(PointSuite::Spec2000.benchmarks().len(), 12);
        assert_eq!(PointSuite::All.benchmarks().len(), 20);
        for &s in PointSuite::all() {
            assert_eq!(PointSuite::from_name(s.name()).expect("parses"), s);
        }
        for &m in CoreModel::all() {
            assert_eq!(model_from_name(model_name(m)).expect("parses"), m);
        }
    }

    #[test]
    fn sleep_jobs_run_and_cancel() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cancelled = AtomicBool::new(false);
        let body = JobSpec::sleep(20).run(1, &cancelled);
        assert_eq!(body.get("slept-ms").and_then(Json::as_u64), Some(20));
        cancelled.store(true, Ordering::Relaxed);
        let body = JobSpec::sleep(10_000).run(1, &cancelled);
        assert_eq!(body.get("cancelled"), Some(&Json::Bool(true)));
        assert!(body.get("slept-ms").and_then(Json::as_u64).unwrap() < 10_000);
    }
}
