//! The multi-threaded TCP job server behind `redbin-served`.
//!
//! Architecture (all std, no external dependencies):
//!
//! * an **accept loop** blocks in `accept` and hands each connection to a
//!   scoped handler thread speaking the newline-delimited envelope
//!   protocol of [`redbin::wire`]. A connection carries any number of
//!   request lines, each at most [`MAX_REQUEST_LINE`] bytes; the client
//!   sends a whole job's submit, polls and fetch over one. The loop is
//!   not polled: draining wakes the blocked `accept` with one loopback
//!   connection to the listener's own address, which the loop drops;
//! * a **bounded queue** feeds a fixed **worker pool**; a full queue
//!   answers `submit` with an explicit `retry-after` envelope instead of
//!   blocking the connection (backpressure, never a hang);
//! * results land in the **content-addressed cache** ([`crate::cache`]),
//!   so a resubmission of the same fully-resolved configuration is served
//!   `Done` immediately and fetches byte-identically;
//! * a **reaper** tick (every 25 ms) expires queued jobs whose deadline
//!   passed and sets the cancellation flag of late running jobs
//!   (cooperatively honored — synthetic sleep jobs stop within ~10 ms;
//!   simulator experiments run to completion and are then marked expired
//!   without poisoning the cache);
//! * **graceful shutdown** — a `shutdown` envelope, or an external signal
//!   flag (SIGTERM in the binary) that the reaper turns into a drain on its
//!   next tick — stops intake, drains every accepted job, and only then
//!   lets [`Server::run`] return.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use redbin::json::Json;
use redbin::sim::stats::StallCause;
use redbin::telemetry::{Clock, Deadline, MetricsRegistry, DEFAULT_TIME_BOUNDS_MS};
use redbin::wire::{JobSpec, JobState, Request, Response};

use crate::cache::ResultCache;

/// The longest request line a connection may send, newline excluded. A
/// longer line is answered with an `error` envelope naming this limit and
/// the connection is closed, so one unterminated line costs the server at
/// most this much memory. The largest shipped program is under 5 KB of
/// assembly.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Tuning knobs for a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum *queued* (not yet running) jobs before `submit` gets
    /// `retry-after`.
    pub queue_capacity: usize,
    /// Threads the internal benchmark fan-out ([`redbin::pool::run_jobs`])
    /// may use, split between the jobs running at once: a job gets
    /// `max(1, job_threads / running)`, where `running` counts the running
    /// jobs when it starts, itself included. A lone job gets all of them.
    pub job_threads: usize,
    /// Deadline applied to submissions that carry none (0 = unlimited).
    pub default_deadline_ms: u64,
    /// The delay suggested in `retry-after` responses.
    pub retry_after_secs: u64,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Completed-job records kept for the `stats` response.
    pub completed_log: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            job_threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            default_deadline_ms: 0,
            retry_after_secs: 1,
            cache_capacity: 256,
            completed_log: 64,
        }
    }
}

/// One tracked submission.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
    deadline: Option<Deadline>,
    queued_at: Clock,
    cancelled: Arc<AtomicBool>,
}

/// A completed-job line for the `stats` response.
#[derive(Debug, Clone)]
struct CompletedJob {
    id: String,
    spec: JobSpec,
    state: JobState,
    wall_seconds: f64,
    stall_causes: Vec<(String, u64)>,
}

/// Monotonic counters for the `stats` response.
#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    deduped: u64,
    rejected: u64,
    rejected_unsound: u64,
    rejected_unsafe_program: u64,
    completed: u64,
    failed: u64,
    expired: u64,
    /// Connections handed to a handler thread.
    accepted: u64,
    /// Failed `accept`s the loop skipped (see [`AcceptFailure`]).
    accept_errors: u64,
    /// Connections closed for a line over [`MAX_REQUEST_LINE`].
    oversized: u64,
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<String>,
    jobs: HashMap<String, JobRecord>,
    cache: ResultCache,
    counters: Counters,
    busy: usize,
    draining: bool,
}

struct Shared {
    cfg: ServeConfig,
    /// Where [`begin_drain`] connects to wake the blocked accept loop.
    wake: SocketAddr,
    inner: Mutex<Inner>,
    work: Condvar,
    started: Clock,
    completed: Mutex<VecDeque<CompletedJob>>,
    /// Persistent per-job timing histograms behind the `metrics` request
    /// (`job-queue-ms`: submit→dequeue wait, `job-service-ms`: worker
    /// execution time). Counters and gauges are point-in-time snapshots of
    /// [`Inner`] and are added at render time.
    metrics: Mutex<MetricsRegistry>,
}

impl Shared {
    fn new(cfg: ServeConfig, wake: SocketAddr) -> Shared {
        let mut metrics = MetricsRegistry::new();
        metrics.register_histogram("job-queue-ms", DEFAULT_TIME_BOUNDS_MS);
        metrics.register_histogram("job-service-ms", DEFAULT_TIME_BOUNDS_MS);
        Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                cache: ResultCache::new(cfg.cache_capacity),
                counters: Counters::default(),
                busy: 0,
                draining: false,
            }),
            cfg,
            wake,
            work: Condvar::new(),
            started: Clock::now(),
            completed: Mutex::new(VecDeque::new()),
            metrics: Mutex::new(metrics),
        }
    }
}

/// Locks the shared state, recovering from poisoning: one panicking
/// handler must not wedge every other connection, and `Inner` is kept
/// consistent at every await-free critical section, so the data behind a
/// poisoned lock is still well-formed.
fn lock_inner(shared: &Shared) -> std::sync::MutexGuard<'_, Inner> {
    shared
        .inner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Locks the completed-job log with the same poisoning policy.
fn lock_completed(shared: &Shared) -> std::sync::MutexGuard<'_, VecDeque<CompletedJob>> {
    shared
        .completed
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Locks the metrics registry with the same poisoning policy.
fn lock_metrics(shared: &Shared) -> std::sync::MutexGuard<'_, MetricsRegistry> {
    shared
        .metrics
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bound-but-not-yet-running job server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let wake = wake_address(listener.local_addr()?);
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(cfg, wake)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that, once set (e.g. from a SIGTERM handler), makes the
    /// server stop accepting work, drain, and return from [`Server::run`].
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until shutdown (envelope or [`Server::shutdown_flag`]),
    /// draining all accepted jobs before returning.
    ///
    /// # Errors
    ///
    /// Propagates errors of the listener itself, after draining. A failed
    /// `accept` that belongs to one connection only skips it, and running
    /// out of file descriptors backs off for 10 ms and retries.
    pub fn run(self) -> std::io::Result<()> {
        let shared = &self.shared;
        let shutdown = &self.shutdown;
        std::thread::scope(|scope| -> std::io::Result<()> {
            for worker in 0..shared.cfg.workers.max(1) {
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("redbin-worker-{worker}"))
                    .spawn_scoped(scope, move || worker_loop(&shared))
                    // Startup-only: no pool means no service at all.
                    // redbin-lint: allow(no-panic)
                    .expect("spawn worker");
            }
            {
                let shared = Arc::clone(shared);
                let shutdown = Arc::clone(shutdown);
                std::thread::Builder::new()
                    .name("redbin-reaper".into())
                    .spawn_scoped(scope, move || reaper_loop(&shared, &shutdown))
                    // Startup-only: deadlines need the reaper to exist.
                    // redbin-lint: allow(no-panic)
                    .expect("spawn reaper");
            }

            // Accept loop: blocks in `accept` until a client connects or
            // `begin_drain` wakes it.
            let result = loop {
                if lock_inner(shared).draining {
                    break Ok(());
                }
                let stream = match self.listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) => match classify_accept_error(&e) {
                        AcceptFailure::Listener => break Err(e),
                        failure => {
                            if failure == AcceptFailure::Exhausted {
                                // Nothing can be accepted until some
                                // connection closes.
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            lock_inner(shared).counters.accept_errors += 1;
                            continue;
                        }
                    },
                };
                {
                    let mut inner = lock_inner(shared);
                    if inner.draining {
                        break Ok(()); // drops the wake-up connection
                    }
                    inner.counters.accepted += 1;
                }
                let shared = Arc::clone(shared);
                let shutdown = Arc::clone(shutdown);
                // A failed spawn (thread exhaustion) drops the stream,
                // which closes this one connection; the server itself
                // keeps accepting.
                let _ = std::thread::Builder::new()
                    .name("redbin-conn".into())
                    .spawn_scoped(scope, move || {
                        let _ = handle_connection(stream, &shared, &shutdown);
                    });
            };

            // Drain (already begun unless the listener failed): workers
            // exit once the queue is empty and nothing runs.
            begin_drain(shared);
            self.shutdown.store(true, Ordering::Relaxed); // reaper + conns exit
            result
        })
    }
}

/// Puts the server into draining mode (idempotent). The first call also
/// wakes the accept loop, blocked in `accept`, with one loopback
/// connection that the loop drops.
fn begin_drain(shared: &Shared) {
    let mut inner = lock_inner(shared);
    if inner.draining {
        return;
    }
    inner.draining = true;
    shared.work.notify_all();
    drop(inner);
    // A failed connect means the listener is gone, so no accept waits.
    let _ = TcpStream::connect_timeout(&shared.wake, Duration::from_secs(1));
}

/// The address [`begin_drain`] connects to: the listener's own, with an
/// unspecified IP (`0.0.0.0`, `[::]`) replaced by loopback of the same
/// family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// What the accept loop does after `accept` fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptFailure {
    /// The error belongs to the one connection being accepted (the peer
    /// reset or aborted it, a network error was pending on it, a signal
    /// interrupted the call): skip it.
    Connection,
    /// Out of file descriptors or socket memory: back off, then retry.
    Exhausted,
    /// The listener itself failed: stop serving.
    Listener,
}

/// Linux errno values `accept` returns that std has no stable
/// [`std::io::ErrorKind`] for (see accept(2)).
#[cfg(target_os = "linux")]
mod errno {
    pub const EPERM: i32 = 1;
    pub const ENFILE: i32 = 23;
    pub const EMFILE: i32 = 24;
    pub const ENONET: i32 = 64;
    pub const EPROTO: i32 = 71;
    pub const ENOPROTOOPT: i32 = 92;
    pub const EOPNOTSUPP: i32 = 95;
    pub const ENOBUFS: i32 = 105;
    pub const EHOSTDOWN: i32 = 112;
}

/// Sorts a failed `accept` into what the accept loop does about it.
fn classify_accept_error(e: &std::io::Error) -> AcceptFailure {
    use std::io::ErrorKind as K;
    #[cfg(target_os = "linux")]
    {
        use errno::*;
        match e.raw_os_error() {
            Some(EMFILE | ENFILE | ENOBUFS) => return AcceptFailure::Exhausted,
            // Network errors already pending on the new connection, and
            // a firewall refusing it.
            Some(ENONET | EPROTO | ENOPROTOOPT | EOPNOTSUPP | EHOSTDOWN | EPERM) => {
                return AcceptFailure::Connection
            }
            _ => {}
        }
    }
    match e.kind() {
        K::ConnectionAborted
        | K::ConnectionReset
        | K::Interrupted
        | K::WouldBlock
        | K::TimedOut
        | K::HostUnreachable
        | K::NetworkUnreachable
        | K::NetworkDown => AcceptFailure::Connection,
        K::OutOfMemory => AcceptFailure::Exhausted,
        _ => AcceptFailure::Listener,
    }
}

/// Jobs not yet finished (queued + running) — reported in `bye`.
fn outstanding(inner: &Inner) -> u64 {
    inner.queue.len() as u64 + inner.busy as u64
}

fn worker_loop(shared: &Shared) {
    loop {
        let ((id, record_spec, cancelled, deadline, queued_ms), running) = {
            let mut inner = lock_inner(shared);
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    // Every queued id has a record (submit inserts both under
                    // one lock); a missing one means the record was torn down,
                    // and the only safe move is to skip the orphaned id.
                    let Some(rec) = inner.jobs.get_mut(&id) else {
                        continue;
                    };
                    // Deadline may have passed while queued (the reaper also
                    // sweeps, but this close the last race).
                    if rec.deadline.is_some_and(|d| d.expired()) {
                        rec.state = JobState::Expired;
                        rec.error = Some("deadline exceeded while queued".into());
                        inner.counters.expired += 1;
                        continue;
                    }
                    rec.state = JobState::Running;
                    let out = (
                        id.clone(),
                        rec.spec.clone(),
                        Arc::clone(&rec.cancelled),
                        rec.deadline,
                        rec.queued_at.elapsed().as_millis() as u64,
                    );
                    inner.busy += 1;
                    break (out, inner.busy);
                }
                if inner.draining {
                    return;
                }
                let (guard, _timeout) = shared
                    .work
                    .wait_timeout(inner, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner = guard;
            }
        };

        let started = Clock::now();
        // The jobs running at once split the fan-out instead of each
        // oversubscribing the cores; a lone job gets all of it.
        let threads = (shared.cfg.job_threads / running).max(1);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            record_spec.run(threads, &cancelled)
        }));
        let wall_seconds = started.seconds();

        {
            let mut metrics = lock_metrics(shared);
            metrics.observe("job-queue-ms", queued_ms);
            metrics.observe("job-service-ms", started.elapsed().as_millis() as u64);
        }

        let mut inner = lock_inner(shared);
        inner.busy -= 1;
        let was_cancelled = cancelled.load(Ordering::Relaxed);
        let late = deadline.is_some_and(|d| d.expired());
        let (state, error, stall_causes) = match outcome {
            Ok(body) => {
                let causes = aggregate_stall_causes(&body);
                if was_cancelled {
                    // Body is partial; never cache it.
                    (
                        JobState::Expired,
                        Some("deadline exceeded; job cancelled".into()),
                        causes,
                    )
                } else {
                    // Complete body: cache it unconditionally (the content
                    // address is valid even if *this* submission missed its
                    // deadline).
                    inner.cache.insert(&id, body);
                    if late {
                        (
                            JobState::Expired,
                            Some("completed after deadline".into()),
                            causes,
                        )
                    } else {
                        (JobState::Done, None, causes)
                    }
                }
            }
            Err(panic) => (JobState::Failed, Some(panic_message(&panic)), Vec::new()),
        };
        match state {
            JobState::Done => inner.counters.completed += 1,
            JobState::Failed => inner.counters.failed += 1,
            JobState::Expired => inner.counters.expired += 1,
            // The arms above construct only terminal states; counting a
            // non-terminal as failed keeps the books consistent if that
            // ever changes.
            JobState::Queued | JobState::Running => {
                debug_assert!(false, "workers only finish into terminal states");
                inner.counters.failed += 1;
            }
        }
        if let Some(rec) = inner.jobs.get_mut(&id) {
            rec.state = state;
            rec.error = error;
        }
        drop(inner);

        let mut completed = lock_completed(shared);
        completed.push_back(CompletedJob {
            id,
            spec: record_spec,
            state,
            wall_seconds,
            stall_causes,
        });
        while completed.len() > shared.cfg.completed_log {
            completed.pop_front();
        }
    }
}

/// Periodically turns a set shutdown flag into a drain, expires queued
/// jobs past their deadline and cancels late running jobs.
fn reaper_loop(shared: &Shared, shutdown: &AtomicBool) {
    loop {
        std::thread::sleep(Duration::from_millis(25));
        if shutdown.load(Ordering::Relaxed) {
            begin_drain(shared);
            return;
        }
        let mut inner = lock_inner(shared);
        let mut expired_ids = Vec::new();
        {
            let Inner { queue, jobs, .. } = &mut *inner;
            queue.retain(|id| {
                let late = jobs
                    .get(id)
                    .is_some_and(|rec| rec.deadline.is_some_and(|d| d.expired()));
                if late {
                    expired_ids.push(id.clone());
                }
                !late
            });
        }
        for id in expired_ids {
            if let Some(rec) = inner.jobs.get_mut(&id) {
                rec.state = JobState::Expired;
                rec.error = Some("deadline exceeded while queued".into());
                inner.counters.expired += 1;
            }
        }
        for rec in inner.jobs.values_mut() {
            if rec.state == JobState::Running && rec.deadline.is_some_and(|d| d.expired()) {
                rec.cancelled.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Sums every `"stall" → "causes"` object in a result body — the PR-1
/// stall-cause breakdown, aggregated over all machine models/benchmarks a
/// job simulated. Returned in [`StallCause::all`] order for stable output.
fn aggregate_stall_causes(body: &Json) -> Vec<(String, u64)> {
    fn walk(v: &Json, totals: &mut HashMap<String, u64>) {
        match v {
            Json::Obj(pairs) => {
                for (k, val) in pairs {
                    if k == "stall" {
                        if let Some(Json::Obj(causes)) =
                            val.get("causes")
                        {
                            for (cause, n) in causes {
                                if let Some(n) = n.as_u64() {
                                    *totals.entry(cause.clone()).or_insert(0) += n;
                                }
                            }
                        }
                    }
                    walk(val, totals);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, totals);
                }
            }
            _ => {}
        }
    }
    let mut totals = HashMap::new();
    walk(body, &mut totals);
    if totals.is_empty() {
        return Vec::new();
    }
    StallCause::all()
        .iter()
        .map(|c| (c.key().to_string(), totals.get(c.key()).copied().unwrap_or(0)))
        .collect()
}

fn handle_connection(
    stream: TcpStream,
    shared: &Shared,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // Room for the limit plus the newline: a line that fills it
        // without one is over the limit.
        let room = (MAX_REQUEST_LINE + 1).saturating_sub(line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') => {
                lock_inner(shared).counters.oversized += 1;
                let message = format!(
                    "request line exceeds MAX_REQUEST_LINE ({MAX_REQUEST_LINE} bytes); \
                     closing the connection"
                );
                return send(&mut writer, &Response::Error { message });
            }
            Ok(_) => {
                let (response, drain_after) = match std::str::from_utf8(&line) {
                    Ok(text) => handle_line(text.trim(), shared),
                    Err(_) => (
                        Response::Error {
                            message: "request line is not UTF-8".into(),
                        },
                        false,
                    ),
                };
                let sent = send(&mut writer, &response);
                // Wake a worker for a queued job only once the reply is
                // out: on a busy host the woken worker takes the core, and
                // the submit would wait ~1 ms for its answer.
                if matches!(response, Response::Accepted { state: JobState::Queued, .. }) {
                    shared.work.notify_one();
                }
                sent?;
                if drain_after {
                    begin_drain(shared);
                    return Ok(());
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick: keep any partial line buffered, but stop
                // serving once shutdown begins.
                if shutdown.load(Ordering::Relaxed)
                    || lock_inner(shared).draining
                {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one envelope in a single `write_all`. Writing the line and its
/// newline separately would let Nagle's algorithm hold the newline behind
/// the peer's delayed ACK, ~40 ms per exchange on a reused connection.
fn send(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut out = response.to_line();
    out.push('\n');
    writer.write_all(out.as_bytes())
}

/// Dispatches one request line; returns the response and whether the
/// server should begin draining afterwards.
fn handle_line(line: &str, shared: &Shared) -> (Response, bool) {
    let request = match Request::from_line(line) {
        Ok(r) => r,
        Err(e) => {
            return (
                Response::Error {
                    message: e.to_string(),
                },
                false,
            )
        }
    };
    match request {
        Request::Submit { spec, deadline_ms } => (handle_submit(spec, deadline_ms, shared), false),
        Request::Poll { job } => (handle_poll(&job, shared), false),
        Request::Fetch { job } => (handle_fetch(&job, shared), false),
        Request::Stats => (
            Response::Stats {
                body: stats_body(shared),
            },
            false,
        ),
        Request::Metrics => (
            Response::Metrics {
                text: metrics_text(shared),
            },
            false,
        ),
        Request::Shutdown => {
            let inner = lock_inner(shared);
            (
                Response::Bye {
                    draining: outstanding(&inner),
                },
                true,
            )
        }
    }
}

fn handle_submit(spec: JobSpec, deadline_ms: Option<u64>, shared: &Shared) -> Response {
    let id = spec.job_id();
    // Static soundness gate (outside the lock — it is pure computation):
    // a config whose bypass network can never deliver some operand class
    // would wedge or mis-simulate, so it is rejected here with a
    // structured error instead of being queued to fail later.
    let unsound = redbin_analyze::bypass::validate_job_configs(&spec.machine_configs()).err();
    // Program verifier gate for custom jobs, also outside the lock: the
    // submitted source must assemble and prove memory-safe + terminating
    // before a worker will ever simulate it (see SERVING.md).
    let unsafe_program = verify_custom_program(&spec).err();
    let mut inner = lock_inner(shared);
    if inner.draining {
        return Response::Error {
            message: "server is draining".into(),
        };
    }
    if let Some(e) = unsound {
        inner.counters.rejected_unsound += 1;
        return Response::Error {
            message: e.to_string(),
        };
    }
    if let Some(e) = unsafe_program {
        inner.counters.rejected_unsafe_program += 1;
        return Response::Error { message: e };
    }

    // Content-addressed fast path: the result already exists.
    if inner.cache.lookup(&id).is_some() {
        return Response::Accepted {
            job: id,
            cache_hit: true,
            state: JobState::Done,
        };
    }
    // A miss was just counted; the outcomes below all correspond to "the
    // result was not served from cache".

    // Idempotent submit: the same computation is already queued or running.
    let live_state = inner
        .jobs
        .get(&id)
        .map(|rec| rec.state)
        .filter(|s| !s.is_terminal());
    if let Some(state) = live_state {
        inner.counters.deduped += 1;
        return Response::Accepted {
            job: id,
            cache_hit: false,
            state,
        };
    }

    // Backpressure: explicit retry-after, never a hang.
    if inner.queue.len() >= shared.cfg.queue_capacity {
        inner.counters.rejected += 1;
        return Response::RetryAfter {
            seconds: shared.cfg.retry_after_secs.max(1),
        };
    }

    let effective_ms = deadline_ms.unwrap_or(shared.cfg.default_deadline_ms);
    let deadline = (effective_ms > 0).then(|| Deadline::after(Duration::from_millis(effective_ms)));
    inner.jobs.insert(
        id.clone(),
        JobRecord {
            spec,
            state: JobState::Queued,
            error: None,
            deadline,
            queued_at: Clock::now(),
            cancelled: Arc::new(AtomicBool::new(false)),
        },
    );
    inner.queue.push_back(id.clone());
    inner.counters.submitted += 1;
    Response::Accepted {
        job: id,
        cache_hit: false,
        state: JobState::Queued,
    }
}

/// Assembles and safety-verifies a [`ExperimentKind::Custom`] job's
/// source. Lints stay off — the gate is the safety tier only: every
/// load/store provably inside a declared region and a termination proof.
fn verify_custom_program(spec: &JobSpec) -> Result<(), String> {
    use redbin_analyze::program::{analyze_program, AnalyzeOptions};
    if spec.kind != redbin::wire::ExperimentKind::Custom {
        return Ok(());
    }
    let src = spec
        .custom
        .as_deref()
        .ok_or_else(|| "rejected unsafe program: custom job has no source".to_string())?;
    let prog = redbin::workload::text::parse(src)
        .map_err(|e| format!("rejected unsafe program: does not assemble: {e}"))?;
    let a = analyze_program(&prog, None, &AnalyzeOptions { lints: false, ..Default::default() });
    if a.safe() {
        return Ok(());
    }
    let mut msg = format!(
        "rejected unsafe program: memory {}, termination {}",
        verdict_word(a.memory),
        verdict_word(a.termination),
    );
    for note in &a.notes {
        msg.push_str("; ");
        msg.push_str(note);
    }
    Err(msg)
}

/// [`Verdict`] label for rejection messages.
fn verdict_word(v: redbin_analyze::program::Verdict) -> &'static str {
    match v {
        redbin_analyze::program::Verdict::Proved => "proved",
        redbin_analyze::program::Verdict::Violated => "VIOLATED",
        redbin_analyze::program::Verdict::Unknown => "unprovable",
    }
}

fn handle_poll(job: &str, shared: &Shared) -> Response {
    let inner = lock_inner(shared);
    // Cache presence alone answers done — the server may have restarted a
    // record away, or the entry may come from an earlier submission.
    if let Some(rec) = inner.jobs.get(job) {
        Response::Status {
            job: job.to_string(),
            state: rec.state,
            error: rec.error.clone(),
        }
    } else if inner.cache.peek(job).is_some() {
        Response::Status {
            job: job.to_string(),
            state: JobState::Done,
            error: None,
        }
    } else {
        Response::Error {
            message: format!("unknown job `{job}`"),
        }
    }
}

fn handle_fetch(job: &str, shared: &Shared) -> Response {
    let inner = lock_inner(shared);
    if let Some(body) = inner.cache.peek(job) {
        return Response::Result {
            job: job.to_string(),
            body: body.clone(),
        };
    }
    match inner.jobs.get(job) {
        Some(rec) if !rec.state.is_terminal() => Response::Error {
            message: format!("job `{job}` is {}; poll until done", rec.state.name()),
        },
        Some(rec) => Response::Error {
            message: format!(
                "job `{job}` {}: {}",
                rec.state.name(),
                rec.error.as_deref().unwrap_or("no result")
            ),
        },
        None => Response::Error {
            message: format!("unknown job `{job}`"),
        },
    }
}

/// Builds the `stats` response body.
fn stats_body(shared: &Shared) -> Json {
    let inner = lock_inner(shared);
    let mut body = Json::object();
    body.set("uptime-seconds", Json::Num(shared.started.seconds()));
    body.set("workers", Json::UInt(shared.cfg.workers as u64));
    body.set("workers-busy", Json::UInt(inner.busy as u64));
    body.set("queue-depth", Json::UInt(inner.queue.len() as u64));
    body.set(
        "queue-capacity",
        Json::UInt(shared.cfg.queue_capacity as u64),
    );
    body.set(
        "worker-utilization",
        Json::Num(inner.busy as f64 / shared.cfg.workers.max(1) as f64),
    );
    let mut jobs = Json::object();
    jobs.set("submitted", Json::UInt(inner.counters.submitted));
    jobs.set("deduped", Json::UInt(inner.counters.deduped));
    jobs.set("rejected", Json::UInt(inner.counters.rejected));
    jobs.set(
        "rejected-unsound",
        Json::UInt(inner.counters.rejected_unsound),
    );
    jobs.set(
        "rejected-unsafe-program",
        Json::UInt(inner.counters.rejected_unsafe_program),
    );
    jobs.set("completed", Json::UInt(inner.counters.completed));
    jobs.set("failed", Json::UInt(inner.counters.failed));
    jobs.set("expired", Json::UInt(inner.counters.expired));
    body.set("jobs", jobs);
    let mut cache = Json::object();
    cache.set("entries", Json::UInt(inner.cache.len() as u64));
    cache.set("capacity", Json::UInt(shared.cfg.cache_capacity as u64));
    cache.set("hits", Json::UInt(inner.cache.hits()));
    cache.set("misses", Json::UInt(inner.cache.misses()));
    cache.set("hit-rate", Json::Num(inner.cache.hit_rate()));
    body.set("cache", cache);
    drop(inner);

    let completed = lock_completed(shared);
    let rows: Vec<Json> = completed
        .iter()
        .map(|c| {
            let mut o = Json::object();
            o.set("job", Json::Str(c.id.clone()));
            o.set("experiment", Json::Str(c.spec.kind.name().to_string()));
            o.set(
                "scale",
                Json::Str(redbin::wire::scale_name(c.spec.scale).to_string()),
            );
            o.set("state", Json::Str(c.state.name().to_string()));
            o.set("wall-seconds", Json::Num(c.wall_seconds));
            if !c.stall_causes.is_empty() {
                o.set(
                    "stall-causes",
                    Json::Obj(
                        c.stall_causes
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                            .collect(),
                    ),
                );
            }
            o
        })
        .collect();
    body.set("completed", Json::Arr(rows));
    body
}

/// Builds the text-exposition dump behind the `metrics` request: the
/// persistent per-job timing histograms plus point-in-time counters and
/// gauges snapshotted from [`Inner`].
fn metrics_text(shared: &Shared) -> String {
    let mut reg = lock_metrics(shared).clone();
    let inner = lock_inner(shared);
    reg.add("jobs-submitted", inner.counters.submitted);
    reg.add("jobs-deduped", inner.counters.deduped);
    reg.add("jobs-rejected", inner.counters.rejected);
    reg.add("jobs-rejected-unsound", inner.counters.rejected_unsound);
    reg.add(
        "jobs-rejected-unsafe-program",
        inner.counters.rejected_unsafe_program,
    );
    reg.add("jobs-completed", inner.counters.completed);
    reg.add("jobs-failed", inner.counters.failed);
    reg.add("jobs-expired", inner.counters.expired);
    reg.add("cache-hits", inner.cache.hits());
    reg.add("cache-misses", inner.cache.misses());
    reg.add("connections-accepted", inner.counters.accepted);
    reg.add("connections-accept-errors", inner.counters.accept_errors);
    reg.add("requests-oversized", inner.counters.oversized);
    reg.set_gauge("uptime-seconds", shared.started.seconds());
    reg.set_gauge("queue-depth", inner.queue.len() as f64);
    reg.set_gauge("workers-busy", inner.busy as f64);
    reg.set_gauge(
        "worker-utilization",
        inner.busy as f64 / shared.cfg.workers.max(1) as f64,
    );
    reg.set_gauge("cache-entries", inner.cache.len() as f64);
    reg.render_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_aggregation_sums_across_models() {
        let doc = redbin::json::parse(
            r#"{"rows":[
                {"stats":{"Baseline":{"stall":{"causes":{"fetch-starved":3,"window-full":1}}},
                          "Ideal":{"stall":{"causes":{"fetch-starved":4,"window-full":0}}}}}
            ]}"#,
        )
        .expect("valid");
        let causes = aggregate_stall_causes(&doc);
        assert!(!causes.is_empty());
        let get = |k: &str| {
            causes
                .iter()
                .find(|(c, _)| c == k)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert_eq!(get("fetch-starved"), 7);
        assert_eq!(get("window-full"), 1);
    }

    #[test]
    fn stall_aggregation_empty_for_stall_free_bodies() {
        let doc = redbin::json::parse(r#"{"rows":[{"x":1}]}"#).expect("valid");
        assert!(aggregate_stall_causes(&doc).is_empty());
    }

    fn test_shared() -> Shared {
        let cfg = ServeConfig {
            cache_capacity: 4,
            ..ServeConfig::default()
        };
        Shared::new(cfg, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    #[test]
    fn metrics_request_renders_histograms_and_counters() {
        let shared = test_shared();
        lock_metrics(&shared).observe("job-service-ms", 7);
        lock_inner(&shared).counters.submitted = 3;
        let (response, drain) = handle_line(&Request::Metrics.to_line(), &shared);
        assert!(!drain);
        let Response::Metrics { text } = response else {
            panic!("expected a metrics response");
        };
        assert!(text.contains("# TYPE job-service-ms histogram"));
        assert!(text.contains("# TYPE job-queue-ms histogram"));
        assert!(text.contains("jobs-submitted 3"));
        assert!(text.contains("uptime-seconds"));
    }

    #[test]
    fn metrics_text_is_safe_on_an_idle_server() {
        let shared = test_shared();
        let text = metrics_text(&shared);
        assert!(text.contains("job-queue-ms-count 0"));
        assert!(text.contains("worker-utilization 0"));
        assert!(text.contains("connections-accepted 0"));
        assert!(text.contains("connections-accept-errors 0"));
        assert!(text.contains("requests-oversized 0"));
    }

    #[test]
    fn wake_address_maps_unspecified_to_loopback_of_the_same_family() {
        let wake = |s: &str| wake_address(s.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("127.0.0.1:9"), "127.0.0.1:9");
        assert_eq!(wake("10.1.2.3:9"), "10.1.2.3:9");
        assert_eq!(wake("[fe80::1]:9"), "[fe80::1]:9");
    }

    #[test]
    fn accept_errors_are_classified_by_kind() {
        use std::io::{Error, ErrorKind as K};
        let classify = |kind: K| classify_accept_error(&Error::from(kind));
        for kind in [
            K::ConnectionAborted,
            K::ConnectionReset,
            K::Interrupted,
            K::WouldBlock,
            K::TimedOut,
            K::HostUnreachable,
            K::NetworkUnreachable,
            K::NetworkDown,
        ] {
            assert_eq!(classify(kind), AcceptFailure::Connection, "{kind:?}");
        }
        assert_eq!(classify(K::OutOfMemory), AcceptFailure::Exhausted);
        for kind in [K::InvalidInput, K::PermissionDenied, K::Other, K::Unsupported] {
            assert_eq!(classify(kind), AcceptFailure::Listener, "{kind:?}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn accept_errors_are_classified_by_linux_errno() {
        use std::io::Error;
        let classify = |code| classify_accept_error(&Error::from_raw_os_error(code));
        // ENOMEM arrives through its kind.
        for code in [errno::EMFILE, errno::ENFILE, errno::ENOBUFS, 12] {
            assert_eq!(classify(code), AcceptFailure::Exhausted, "errno {code}");
        }
        // ECONNABORTED, EINTR, EAGAIN, ETIMEDOUT, ENETDOWN, ENETUNREACH,
        // EHOSTUNREACH arrive through their kinds.
        for code in [
            103, 4, 11, 110, 100, 101, 113,
            errno::ENONET,
            errno::EPROTO,
            errno::ENOPROTOOPT,
            errno::EOPNOTSUPP,
            errno::EHOSTDOWN,
            errno::EPERM,
        ] {
            assert_eq!(classify(code), AcceptFailure::Connection, "errno {code}");
        }
        // EBADF, EINVAL, ENOTSOCK: the listener is broken.
        for code in [9, 22, 88] {
            assert_eq!(classify(code), AcceptFailure::Listener, "errno {code}");
        }
    }
}
