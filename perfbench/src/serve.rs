//! `serve-mixed`: an in-process `redbin-served` on loopback, with its
//! default configuration, driven in a closed loop by one client per host
//! thread. The only workload that crosses the wire, admission (bypass
//! check and program verifier), the queue and the result cache.
//!
//! Each client follows the pattern of the repository's own server clients:
//! like `redbin-explore --server` in CI's explore-smoke job, it runs a grid
//! of `point` jobs one `Client::run_to_completion` at a time, then reruns
//! the same grid, which the cache answers. Between its grid points it
//! submits `custom` programs, one job each, as `redbin-submit custom` does.
//! So there are three kinds of job, chosen from the seed:
//!
//! * cold `point` jobs, drawn without replacement from the model × width ×
//!   steering × bypass × suite space (each client gets every suite × model
//!   × width cell once), so they miss the cache by construction;
//! * `custom` jobs: a torture program from `workload::fuzz`, disassembled;
//! * warm reruns of the client's cold points, in the same order.
//!
//! No recorded traffic fixes how many custom jobs come per grid point; one
//! per point is an assumption.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use redbin::json::Json;
use redbin::pool::run_jobs;
use redbin::sim::BypassLevels;
use redbin::telemetry::Clock;
use redbin::wire::{ExperimentKind, JobSpec, JobState, PointSpec, PointSuite, Request, Response};
use redbin::workload::fuzz::{disassemble, torture_program};
use redbin::workload::{text, Benchmark, Scale};
use redbin_analyze::bypass::validate_job_configs;
use redbin_analyze::program::{analyze_program, AnalyzeOptions};
use redbin_explore::grid::GridSpec;
use redbin_serve::{Client, ServeConfig, Server};

use crate::common::{digest, median, percentile, sim_retired, threads, Layers, Rng};
use crate::Pass;

const SCALE: Scale = Scale::Test;
/// Jobs of each kind one client sends per pass: the suite × model × width
/// cells, so each client's grid holds one cold point per cell, and (an
/// assumption) one custom job per grid point.
const PER_CLIENT: usize = 32;
/// Custom jobs draw torture seeds from `0..CUSTOM_SEEDS`, the range CI's
/// analyze-programs job verifies; a test here checks that every one of
/// them passes the server's admission verifier.
const CUSTOM_SEEDS: u64 = 500;
/// At most this many clients: each puts `2 * PER_CLIENT` results in the
/// server's cache per pass, and the default capacity (256) must hold them
/// all for the warm reruns to hit.
const MAX_CLIENTS: usize = 4;
/// The client's poll interval. The default (50 ms) would set the latency
/// of every job that is not a cache hit.
const POLL: Duration = Duration::from_millis(1);
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Custom,
    Warm,
}

struct Job {
    spec: JobSpec,
    kind: Kind,
    /// For a warm job: the index of the cold job it reruns.
    source: Option<usize>,
    /// Simulations the job runs when it misses the cache.
    sims: u64,
    /// The emulator's retired-instruction count per simulation, for each
    /// simulation the job runs, in body order.
    retired: Vec<u64>,
}

struct Running {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Starts a server with the default configuration and one connection
    /// worker per client.
    fn start(workers: usize) -> Running {
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
        let addr = server.local_addr().expect("bound address").to_string();
        let stop = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        Running { addr, stop, handle }
    }

    /// Drains the server and waits for its threads to end.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread")
            .expect("server accept loop");
    }
}

/// One pass's jobs per client and the server that will answer them.
pub struct Setup {
    clients: Vec<Vec<Job>>,
    server: Running,
}

impl Setup {
    /// Stops the server without running the jobs (a set-up repeat).
    pub fn discard(self) {
        self.server.stop();
    }
}

fn client_count() -> usize {
    threads().min(MAX_CLIENTS)
}

/// Builds pass `pass`'s job mix from `seed` and starts a fresh server.
pub fn setup(seed: u64, pass: u64, l: &mut Layers) -> Setup {
    let clients = client_count();
    let mut rng = Rng::new(seed ^ pass.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let grid = GridSpec::default();

    let retired: BTreeMap<Benchmark, u64> = Benchmark::all()
        .into_iter()
        .map(|b| {
            let program = l.time("workload.build_s", || b.program(SCALE));
            l.add("workload.programs_built", 1.0);
            let n = sim_retired(&program);
            (b, n)
        })
        .collect();

    // Cold points. Client k's j-th cold job takes cell j and variant
    // j + k (mod 14), over seeded orders of both: every client gets each
    // suite × model × width cell once and each steering × bypass variant
    // two or three times, so the clients carry equal simulation work, and
    // no two clients share a point.
    let mut cells = Vec::new();
    for &suite in PointSuite::all() {
        for &model in &grid.models {
            for &width in &grid.widths {
                cells.push((suite, model, width));
            }
        }
    }
    let mut variants: Vec<_> = grid
        .steering
        .iter()
        .flat_map(|&s| grid.bypass.iter().map(move |&b| (s, b)))
        .collect();
    assert_eq!(cells.len(), PER_CLIENT, "one cold job per cell per client");
    assert!(clients <= variants.len(), "clients must not share a point");
    rng.shuffle(&mut cells);
    rng.shuffle(&mut variants);
    let mut cold = Vec::new();
    for k in 0..clients {
        for (j, &(suite, model, width)) in cells.iter().enumerate() {
            let (steering, bypass) = variants[(j + k) % variants.len()];
            let point = PointSpec {
                model,
                width,
                steering,
                suite,
            };
            let mut spec = JobSpec::point(point, SCALE);
            if bypass != BypassLevels::FULL {
                spec = spec.with_bypass(bypass);
            }
            let r: Vec<u64> = suite.benchmarks().iter().map(|b| retired[b]).collect();
            cold.push((spec, r));
        }
    }

    let mut seeds: Vec<u64> = (0..CUSTOM_SEEDS).collect();
    rng.shuffle(&mut seeds);
    let custom: Vec<(JobSpec, Vec<u64>)> = seeds[..clients * PER_CLIENT]
        .iter()
        .map(|&s| {
            let program = l.time("workload.build_s", || torture_program(s));
            let source = l.time("workload.build_s", || disassemble(&program));
            l.add("workload.programs_built", 1.0);
            let n = sim_retired(&program);
            let spec = JobSpec::custom_program(source, SCALE);
            let models = spec.machine_configs().len();
            (spec, vec![n; models])
        })
        .collect();

    // Client k's list: its cold grid, each custom job inserted right after
    // a seeded grid point, then the warm rerun of the grid.
    let mut cold = cold.into_iter();
    let mut custom = custom.into_iter();
    let lists = (0..clients)
        .map(|_| {
            let mut jobs: Vec<Job> = Vec::with_capacity(3 * PER_CLIENT);
            let mut grid = Vec::with_capacity(PER_CLIENT);
            for _ in 0..PER_CLIENT {
                let (spec, retired) = cold.next().expect("one cold point per cell");
                grid.push(jobs.len());
                jobs.push(Job {
                    spec,
                    kind: Kind::Cold,
                    source: None,
                    sims: retired.len() as u64,
                    retired,
                });
            }
            for _ in 0..PER_CLIENT {
                let (spec, retired) = custom.next().expect("one custom job per point");
                let at = grid[rng.below(grid.len())] + 1;
                for g in grid.iter_mut().filter(|g| **g >= at) {
                    *g += 1;
                }
                jobs.insert(
                    at,
                    Job {
                        spec,
                        kind: Kind::Custom,
                        source: None,
                        sims: retired.len() as u64,
                        retired,
                    },
                );
            }
            for source in grid {
                jobs.push(Job {
                    spec: jobs[source].spec.clone(),
                    kind: Kind::Warm,
                    source: Some(source),
                    sims: 0,
                    retired: Vec::new(),
                });
            }
            jobs
        })
        .collect();

    Setup {
        clients: lists,
        server: Running::start(clients),
    }
}

/// What one job came back with, as the client received it.
type Raw = (f64, Result<(Json, bool), String>);

/// What one job came back with, reduced right after its pass to what the
/// checks need, so no pass keeps its result bodies into the next.
struct Outcome {
    latency_ms: f64,
    result: Result<Reply, String>,
}

struct Reply {
    /// Digest of the body's compact rendering.
    digest: u64,
    cache_hit: bool,
    /// The retired counts the body reports: one per model for a custom
    /// job, the point total otherwise.
    retired: Option<Vec<u64>>,
}

fn settle(clients: &[Vec<Job>], raw: Vec<Vec<Raw>>) -> Vec<Vec<Outcome>> {
    clients
        .iter()
        .zip(raw)
        .map(|(jobs, raw)| {
            jobs.iter()
                .zip(raw)
                .map(|(job, (latency_ms, r))| Outcome {
                    latency_ms,
                    result: r.map(|(body, cache_hit)| Reply {
                        digest: digest(&body.to_compact()),
                        cache_hit,
                        retired: body_retired(job, &body),
                    }),
                })
                .collect()
        })
        .collect()
}

fn body_retired(job: &Job, body: &Json) -> Option<Vec<u64>> {
    match job.spec.kind {
        ExperimentKind::Custom => match body.get("models") {
            Some(Json::Obj(models)) => models
                .iter()
                .map(|(_, m)| m.get("retired").and_then(Json::as_u64))
                .collect(),
            _ => None,
        },
        _ => body.get("retired").and_then(Json::as_u64).map(|n| vec![n]),
    }
}

/// A finished pass, kept for the checks made after timing ends.
pub struct Done {
    clients: Vec<Vec<Job>>,
    outcomes: Vec<Vec<Outcome>>,
    wall_s: f64,
}

fn client(addr: &str) -> Client {
    let mut c = Client::new(addr);
    c.poll_interval = POLL;
    c
}

/// Runs every client's job list to completion against the pass's server.
pub fn pass(setup: Setup) -> Done {
    let Setup { clients, server } = setup;
    let t = Clock::now();
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|jobs| {
                let c = client(&server.addr);
                s.spawn(move || {
                    jobs.iter()
                        .map(|job| {
                            let t = Clock::now();
                            let r = c.run_to_completion(job.spec.clone(), None, JOB_TIMEOUT);
                            let r = r.map(|(_, body, hit)| (body, hit));
                            (t.seconds() * 1e3, r.map_err(|e| e.to_string()))
                        })
                        .collect::<Vec<Raw>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t.seconds();
    server.stop();
    Done {
        outcomes: settle(&clients, outcomes),
        clients,
        wall_s,
    }
}

/// Per-request spans of the traced pass, and what was sent and received.
#[derive(Default)]
pub struct ServeTrace {
    request_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    polls: u64,
    jobs: u64,
    submits: u64,
    hits: u64,
    retry_after: u64,
    exchanges: Vec<(Request, Response)>,
    metrics_text: String,
}

impl ServeTrace {
    /// One `Client::request` round trip: its time in ms and the reply.
    fn request(&mut self, c: &Client, req: Request) -> Result<(f64, Response), String> {
        let t = Clock::now();
        let resp = c.request(&req).map_err(|e| e.to_string())?;
        let ms = t.seconds() * 1e3;
        self.request_ms.push(ms);
        self.exchanges.push((req, resp.clone()));
        Ok((ms, resp))
    }

    /// `Client::run_to_completion`, one `Client::request` at a time.
    fn job(&mut self, c: &Client, spec: &JobSpec) -> Result<(Json, bool), String> {
        self.jobs += 1;
        let give_up = Clock::now();
        let (job, hit, mut state) = loop {
            self.submits += 1;
            let req = Request::Submit {
                spec: spec.clone(),
                deadline_ms: None,
            };
            let (ms, resp) = self.request(c, req)?;
            self.submit_ms.push(ms);
            match resp {
                Response::Accepted {
                    job,
                    cache_hit,
                    state,
                } => break (job, cache_hit, state),
                Response::RetryAfter { seconds } => {
                    self.retry_after += 1;
                    std::thread::sleep(Duration::from_millis((seconds * 1000).min(500)));
                }
                other => return Err(format!("submit: {other:?}")),
            }
        };
        self.hits += u64::from(hit);
        while !state.is_terminal() {
            if give_up.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {job} timed out"));
            }
            std::thread::sleep(c.poll_interval);
            self.polls += 1;
            state = match self.request(c, Request::Poll { job: job.clone() })?.1 {
                Response::Status { state, .. } => state,
                other => return Err(format!("poll: {other:?}")),
            };
        }
        if state != JobState::Done {
            return Err(format!("job {job} ended {}", state.name()));
        }
        let (ms, resp) = self.request(c, Request::Fetch { job })?;
        self.fetch_ms.push(ms);
        match resp {
            Response::Result { body, .. } => Ok((body, hit)),
            other => Err(format!("fetch: {other:?}")),
        }
    }

    fn merge(&mut self, other: ServeTrace) {
        self.request_ms.extend(other.request_ms);
        self.submit_ms.extend(other.submit_ms);
        self.fetch_ms.extend(other.fetch_ms);
        self.polls += other.polls;
        self.jobs += other.jobs;
        self.submits += other.submits;
        self.hits += other.hits;
        self.retry_after += other.retry_after;
        self.exchanges.extend(other.exchanges);
    }

    /// Mean of one of the server's `METRICS` histograms.
    fn histogram_mean(&self, name: &str) -> f64 {
        let value = |suffix: &str| {
            let key = format!("{name}-{suffix} ");
            self.metrics_text
                .lines()
                .find_map(|l| l.strip_prefix(&key))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        value("sum") / value("count").max(1.0)
    }

    /// Adds the serve, wire, json and analyze layer metrics to `l`. The
    /// wire, json and analyze spans replay, off the clock, the calls the
    /// client and server made on the exchanged messages.
    pub fn into_layers(self, l: &mut Layers) {
        let jobs = self.jobs.max(1) as f64;
        l.add("serve.request_ms_p50", median(&self.request_ms));
        l.add(
            "serve.requests_per_job",
            self.request_ms.len() as f64 / jobs,
        );
        l.add("serve.submit_ms_p50", median(&self.submit_ms));
        l.add("serve.fetch_ms_p50", median(&self.fetch_ms));
        l.add("serve.polls_per_job", self.polls as f64 / jobs);
        l.add("serve.queue_ms_mean", self.histogram_mean("job-queue-ms"));
        l.add(
            "serve.service_ms_mean",
            self.histogram_mean("job-service-ms"),
        );
        l.add(
            "serve.cache_hit_ratio",
            self.hits as f64 / self.submits.max(1) as f64,
        );
        l.add("serve.retry_after_count", self.retry_after as f64);

        for (req, resp) in &self.exchanges {
            let req_line = l.time("wire.encode_s", || req.to_line());
            let resp_line = l.time("wire.encode_s", || resp.to_line());
            let decoded = l.time("wire.decode_s", || {
                (
                    Request::from_line(&req_line),
                    Response::from_line(&resp_line),
                )
            });
            if decoded.0.as_ref() != Ok(req) || decoded.1.as_ref() != Ok(resp) {
                l.add("check.failed", 1.0);
            }
            if let Response::Result { body, .. } = resp {
                l.time("json.render_s", || body.to_compact());
            }
            if let Request::Submit { spec, .. } = req {
                let configs = spec.machine_configs();
                let sound = l.time("analyze.bypass_s", || validate_job_configs(&configs));
                if sound.is_err() {
                    l.add("check.failed", 1.0);
                }
                if let (ExperimentKind::Custom, Some(src)) = (spec.kind, &spec.custom) {
                    let opts = AnalyzeOptions {
                        lints: false,
                        ..AnalyzeOptions::default()
                    };
                    let safe = l.time("analyze.verify_s", || {
                        text::parse(src).map(|p| analyze_program(&p, None, &opts).safe())
                    });
                    if safe != Ok(true) {
                        l.add("check.failed", 1.0);
                    }
                }
            }
        }
    }
}

/// The traced pass: the same jobs, each submit, poll and fetch timed as
/// one `Client::request`, then the server's `METRICS` read before it stops.
pub fn traced(setup: Setup, trace: &mut ServeTrace) -> Done {
    let Setup { clients, server } = setup;
    let t = Clock::now();
    let per_client: Vec<(Vec<Raw>, ServeTrace)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|jobs| {
                let c = client(&server.addr);
                s.spawn(move || {
                    let mut tr = ServeTrace::default();
                    let outcomes = jobs
                        .iter()
                        .map(|job| {
                            let t = Clock::now();
                            let result = tr.job(&c, &job.spec);
                            (t.seconds() * 1e3, result)
                        })
                        .collect();
                    (outcomes, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t.seconds();
    trace.metrics_text = client(&server.addr).metrics().unwrap_or_default();
    server.stop();
    let mut outcomes = Vec::new();
    for (o, tr) in per_client {
        outcomes.push(o);
        trace.merge(tr);
    }
    Done {
        outcomes: settle(&clients, outcomes),
        clients,
        wall_s,
    }
}

/// Latency samples per class, successes and failures alike (a failed job
/// misses every latency limit, so it counts as infinitely slow).
#[derive(Default)]
pub struct Latencies {
    by_class: BTreeMap<&'static str, Vec<f64>>,
    jobs_per_s: Vec<f64>,
}

impl Latencies {
    /// `serve_*` detail figures: jobs per second (median over passes) and
    /// p50/p90 submit→result latency per class, with sample counts.
    pub fn report(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = vec![(
            "serve_jobs_per_s".to_string(),
            median(&self.jobs_per_s),
            "1/s",
        )];
        for class in ["cold", "custom", "warm"] {
            let v = self.by_class.get(class).map_or(&[][..], Vec::as_slice);
            out.push((format!("serve_{class}_p50_ms"), percentile(v, 50.0), "ms"));
            // The highest percentile with at least ten samples beyond it.
            if v.len() >= 100 {
                out.push((format!("serve_{class}_p90_ms"), percentile(v, 90.0), "ms"));
            }
            out.push((format!("serve_{class}_samples"), v.len() as f64, "count"));
        }
        out
    }
}

/// Checks every pass's bodies, off the clock, against the same spec run
/// locally through `JobSpec::run`, and each warm body against the body of
/// the job it repeats. Returns the passes and the latency samples.
pub fn check(done: &[Done], corrupt_reference: bool) -> (Vec<Pass>, Latencies) {
    let mut specs: BTreeMap<String, JobSpec> = BTreeMap::new();
    for d in done {
        for job in d.clients.iter().flatten() {
            specs
                .entry(job.spec.job_id())
                .or_insert_with(|| job.spec.clone());
        }
    }
    let specs: Vec<(String, JobSpec)> = specs.into_iter().collect();
    let bodies = run_jobs(specs.len(), threads(), |i| {
        digest(&specs[i].1.run(1, &AtomicBool::new(false)).to_compact())
    });
    let mut reference: BTreeMap<&str, u64> = specs
        .iter()
        .map(|(id, _)| id.as_str())
        .zip(bodies)
        .collect();
    if corrupt_reference {
        if let Some(body) = reference.values_mut().next() {
            *body ^= 1;
        }
    }

    let mut passes = Vec::new();
    let mut lat = Latencies::default();
    for d in done {
        let mut pass = Pass {
            wall_s: d.wall_s,
            ..Pass::default()
        };
        for (jobs, outcomes) in d.clients.iter().zip(&d.outcomes) {
            for (job, out) in jobs.iter().zip(outcomes) {
                pass.attempted += 1;
                let ok = match &out.result {
                    Ok(reply) => {
                        let source_ok = job.source.is_none_or(
                            |s| matches!(&outcomes[s].result, Ok(r) if r.digest == reply.digest),
                        );
                        if !reply.cache_hit {
                            pass.sims += job.sims;
                            pass.retired += job.retired.iter().sum::<u64>();
                        }
                        let id = job.spec.job_id();
                        let problem = if reference.get(id.as_str()) != Some(&reply.digest) {
                            Some("body differs from the local JobSpec::run")
                        } else if !source_ok {
                            Some("warm body differs from its cold body")
                        } else if !retired_matches(job, reply) {
                            Some("retired count differs from the emulator's")
                        } else {
                            None
                        };
                        if let Some(p) = problem {
                            eprintln!("serve-mixed: job {id}: {p}");
                        }
                        problem.is_none()
                    }
                    Err(e) => {
                        eprintln!("serve-mixed: job failed: {e}");
                        false
                    }
                };
                let class = match (&out.result, job.kind) {
                    (Ok(r), _) if r.cache_hit => "warm",
                    (Err(_), Kind::Warm) => "warm",
                    (_, Kind::Custom) => "custom",
                    _ => "cold",
                };
                let latency = if ok { out.latency_ms } else { f64::INFINITY };
                lat.by_class.entry(class).or_default().push(latency);
                pass.failed += u64::from(!ok);
            }
        }
        lat.jobs_per_s.push(pass.attempted as f64 / d.wall_s);
        passes.push(pass);
    }
    (passes, lat)
}

/// A body's retired counts equal the emulator's: the point total for a
/// cold job, every model's count for a custom job.
fn retired_matches(job: &Job, reply: &Reply) -> bool {
    let expected = match (job.source, job.kind) {
        (Some(_), _) => return true, // compared to its source's body instead
        (None, Kind::Custom) => job.retired.clone(),
        (None, _) => vec![job.retired.iter().sum()],
    };
    reply.retired.as_ref() == Some(&expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every torture seed a custom job may draw passes the verifier the
    /// server runs at admission, so no seed turns a correct server into a
    /// failed job.
    #[test]
    fn every_custom_seed_passes_admission() {
        let opts = AnalyzeOptions {
            lints: false,
            ..AnalyzeOptions::default()
        };
        for seed in 0..CUSTOM_SEEDS {
            let source = disassemble(&torture_program(seed));
            let program = text::parse(&source).expect("disassembly reassembles");
            assert!(
                analyze_program(&program, None, &opts).safe(),
                "torture seed {seed} fails the verifier"
            );
        }
    }

    /// Each client's list is its grid with custom jobs between the points,
    /// then the warm rerun of the same grid in the same order.
    #[test]
    fn job_lists_follow_the_grid_pattern() {
        let setup = setup(7, 0, &mut Layers::default());
        for jobs in &setup.clients {
            let kinds = |k: Kind| jobs.iter().filter(|j| j.kind == k).count();
            assert_eq!(
                (kinds(Kind::Cold), kinds(Kind::Custom), kinds(Kind::Warm)),
                (PER_CLIENT, PER_CLIENT, PER_CLIENT)
            );
            assert_eq!(jobs[0].kind, Kind::Cold);
            let cold: Vec<usize> = (0..jobs.len())
                .filter(|&i| jobs[i].kind == Kind::Cold)
                .collect();
            let warm: Vec<&Job> = jobs[2 * PER_CLIENT..].iter().collect();
            assert!(warm.iter().all(|j| j.kind == Kind::Warm));
            let sources: Vec<usize> = warm.iter().filter_map(|j| j.source).collect();
            assert_eq!(sources, cold);
            for (w, &c) in warm.iter().zip(&cold) {
                assert_eq!(w.spec.job_id(), jobs[c].spec.job_id());
            }
        }
        setup.discard();
    }
}
