//! End-to-end tests: a real `Server` on a loopback ephemeral port, driven
//! through the real `Client` over TCP.
//!
//! Covers the PR acceptance criteria:
//! * a `--scale test` Figure 9 job submitted twice — the second submission
//!   is a cache hit served byte-identically (same JSON envelope body), and
//!   the hit is visible in `stats`;
//! * queue-full backpressure (`retry-after`, not a hang);
//! * deadline-exceeded (expired while queued, and cancellation of a late
//!   running job);
//! * graceful shutdown draining in-flight jobs;
//! * the serving path: a blocked `accept` wakes for every kind of
//!   shutdown, one connection carries a whole job, a cached job costs well
//!   under 10 ms, and an oversized request line is refused.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;

use redbin::json::Json;
use redbin::wire::{ExperimentKind, JobSpec, JobState, Response};
use redbin::workload::Scale;
use redbin::wire::Request;
use redbin_serve::server::MAX_REQUEST_LINE;
use redbin_serve::{Client, ClientError, RetryPolicy, ServeConfig, Server};

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread; returns a client plus the join handle.
fn start_server(cfg: ServeConfig) -> (Client, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());
    (client, handle)
}

fn shut_down(client: &Client, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    client.shutdown().expect("shutdown accepted");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn figure9_twice_hits_cache_byte_identically() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let spec = JobSpec::new(ExperimentKind::Figure9, Scale::Test);

    let (job1, body1, hit1) = client
        .run_to_completion(spec.clone(), None, Duration::from_secs(300))
        .expect("first run completes");
    assert!(!hit1, "first submission must be a miss");

    let (job2, body2, hit2) = client
        .run_to_completion(spec, None, Duration::from_secs(60))
        .expect("second run completes");
    assert!(hit2, "second submission must be served from cache");
    assert_eq!(job1, job2, "content-addressed id is stable");
    // Byte-identical: the rendered envelope bodies match exactly.
    assert_eq!(body1.to_pretty(), body2.to_pretty());
    assert_eq!(body1.to_compact(), body2.to_compact());
    // Spot-check it is a real Figure 9 body.
    assert_eq!(body1.get("width").and_then(Json::as_u64), Some(8));
    assert!(body1.get("harmonic-means").is_some());

    // The hit is visible in stats, as is the stall-cause breakdown of the
    // completed job.
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert!(cache.get("hit-rate").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
    let completed = stats
        .get("completed")
        .and_then(Json::as_array)
        .expect("completed log");
    assert_eq!(completed.len(), 1, "one actual execution");
    let entry = &completed[0];
    assert_eq!(entry.get("experiment").and_then(Json::as_str), Some("figure9"));
    assert_eq!(entry.get("state").and_then(Json::as_str), Some("done"));
    let stall = entry.get("stall-causes").expect("per-job stall breakdown");
    assert!(
        stall.get("fetch-starved").and_then(Json::as_u64).is_some(),
        "stall causes carry the PR-1 taxonomy"
    );

    shut_down(&client, handle);
}

#[test]
fn queue_full_answers_retry_after() {
    // One worker, queue of one: a running job plus a queued job saturate
    // the server; the third distinct submission must get backpressure.
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_secs: 1,
        ..Default::default()
    });
    let running = client
        .submit(JobSpec::sleep(3_000), None)
        .expect("first submit");
    assert!(matches!(running, Response::Accepted { .. }));
    // Wait until the first job actually occupies the worker so the second
    // sits in the queue.
    wait_until(&client, |stats| {
        stats.get("workers-busy").and_then(Json::as_u64) == Some(1)
    });
    let queued = client
        .submit(JobSpec::sleep(3_001), None)
        .expect("second submit");
    assert!(matches!(queued, Response::Accepted { state: JobState::Queued, .. }));

    let rejected = client
        .submit(JobSpec::sleep(3_002), None)
        .expect("third submit gets an answer, not a hang");
    match rejected {
        Response::RetryAfter { seconds } => assert!(seconds >= 1),
        other => panic!("expected retry-after, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs section");
    assert_eq!(jobs.get("rejected").and_then(Json::as_u64), Some(1));

    // Resubmitting an already-queued spec is deduplicated, not rejected.
    let deduped = client
        .submit(JobSpec::sleep(3_001), None)
        .expect("idempotent resubmit");
    assert!(matches!(deduped, Response::Accepted { state: JobState::Queued, .. }));

    shut_down(&client, handle);
}

#[test]
fn backpressure_retry_succeeds_once_the_queue_drains() {
    // One worker, queue of one, short jobs: the saturated server answers
    // `retry-after`, and a bounded jittered retry lands the submission
    // once the running job completes.
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_secs: 1,
        ..Default::default()
    });
    assert!(matches!(
        client.submit(JobSpec::sleep(700), None).expect("first"),
        Response::Accepted { .. }
    ));
    wait_until(&client, |stats| {
        stats.get("workers-busy").and_then(Json::as_u64) == Some(1)
    });
    assert!(matches!(
        client.submit(JobSpec::sleep(701), None).expect("second"),
        Response::Accepted { state: JobState::Queued, .. }
    ));

    // Zero retries: the policy degrades to plain submit and surfaces the
    // backpressure unchanged.
    assert!(matches!(
        client
            .submit_with_retry(JobSpec::sleep(702), None, RetryPolicy::none())
            .expect("answered"),
        Response::RetryAfter { .. }
    ));

    // With a retry budget the same spec gets in: each backoff sleeps
    // 500–1000 ms (cap 1 s), and the 700 ms head job frees the queue.
    let accepted = client
        .submit_with_retry(
            JobSpec::sleep(702),
            None,
            RetryPolicy { retries: 20, retry_after_cap: 1 },
        )
        .expect("retries get an answer");
    assert!(
        matches!(accepted, Response::Accepted { .. }),
        "expected acceptance after the queue drained, got {accepted:?}"
    );

    shut_down(&client, handle);
}

#[test]
fn deadline_expires_queued_and_cancels_running_jobs() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });

    // Occupy the single worker, with a deadline that will cancel it.
    let Response::Accepted { job: running_id, .. } = client
        .submit(JobSpec::sleep(60_000), Some(400))
        .expect("submit running job")
    else {
        panic!("expected accepted")
    };
    wait_until(&client, |stats| {
        stats.get("workers-busy").and_then(Json::as_u64) == Some(1)
    });

    // A queued job with a tiny deadline expires before any worker frees up.
    let Response::Accepted { job: queued_id, .. } = client
        .submit(JobSpec::sleep(1_000), Some(50))
        .expect("submit queued job")
    else {
        panic!("expected accepted")
    };
    let state = poll_until_terminal(&client, &queued_id, Duration::from_secs(10));
    assert_eq!(state, JobState::Expired, "queued job expired by its deadline");

    // The running sleep job is cooperatively cancelled at its deadline —
    // long before its 60 s nominal duration.
    let state = poll_until_terminal(&client, &running_id, Duration::from_secs(10));
    assert_eq!(state, JobState::Expired, "running job cancelled at deadline");
    // A cancelled (partial) body must not poison the cache.
    match client.fetch(&running_id) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("expired"), "{msg}"),
        other => panic!("cancelled job must have no cached result, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs");
    assert_eq!(jobs.get("expired").and_then(Json::as_u64), Some(2));

    shut_down(&client, handle);
}

#[test]
fn unsound_config_is_rejected_before_queueing() {
    // The §4.2 pathology: an RB-only register file with bypass level 3
    // removed leaves TC-needing operands with no conversion path. The
    // server must answer with a structured rejection at submit time — not
    // queue a job that can only fail later.
    let (client, handle) = start_server(ServeConfig::default());
    let spec = JobSpec::new(ExperimentKind::Figure9, Scale::Test)
        .with_bypass(redbin::sim::BypassLevels::without(&[3]))
        .with_rb_rf_only();
    let id = spec.job_id();

    match client.submit(spec, None).expect("submit gets an answer") {
        Response::Error { message } => {
            assert!(
                message.contains("unsound machine config"),
                "structured rejection names the cause: {message}"
            );
            assert!(message.contains("never obtainable"), "{message}");
        }
        other => panic!("expected a rejection envelope, got {other:?}"),
    }

    // Nothing was queued: the id is unknown, and the rejection is counted
    // separately from queue-full backpressure.
    match client.poll(&id) {
        Ok(Response::Error { message }) => assert!(message.contains("unknown job"), "{message}"),
        other => panic!("rejected job must not exist, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs section");
    assert_eq!(jobs.get("rejected-unsound").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("rejected").and_then(Json::as_u64), Some(0));
    assert_eq!(jobs.get("submitted").and_then(Json::as_u64), Some(0));

    // The same experiment without the pathological overrides is accepted.
    let ok = client
        .submit(JobSpec::new(ExperimentKind::Figure9, Scale::Test), None)
        .expect("sound submit");
    assert!(matches!(ok, Response::Accepted { .. }));

    shut_down(&client, handle);
}

#[test]
fn unsafe_custom_program_is_rejected_before_queueing() {
    // A custom program whose store provably lands outside every declared
    // region must be rejected at submit time with a structured error —
    // driven through the real `redbin-submit` binary, per the PR
    // acceptance criteria.
    let (client, handle) = start_server(ServeConfig::default());
    let dir = std::env::temp_dir().join(format!("redbin-custom-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let bad_path = dir.join("oob.s");
    std::fs::write(
        &bad_path,
        "        .reg r1, 0x2000
                 stq r2, 0(r1)          ; outside the declared region
                 halt
                 .bss
                 .org 0x1000
                 .space 8
",
    )
    .expect("write bad program");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_redbin-submit"))
        .args(["--server", client.addr(), "custom", bad_path.to_str().expect("utf-8 path")])
        .output()
        .expect("run redbin-submit");
    assert!(!out.status.success(), "unsafe submission must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("rejected unsafe program"), "{stderr}");
    assert!(stderr.contains("memory VIOLATED"), "{stderr}");

    // The rejection happened before queueing and is counted on its own
    // counter, not as backpressure or a submission.
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs section");
    assert_eq!(
        jobs.get("rejected-unsafe-program").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(jobs.get("submitted").and_then(Json::as_u64), Some(0));
    assert!(client.metrics().expect("metrics").contains("jobs-rejected-unsafe-program 1"));

    // A provably safe program sails through the same gate and runs on all
    // four 8-wide machines.
    let good_path = dir.join("ok.s");
    std::fs::write(
        &good_path,
        "        .reg r1, 5
         top:    subq r1, #1, r1
                 bgt r1, top
                 halt
",
    )
    .expect("write good program");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_redbin-submit"))
        .args(["--server", client.addr(), "custom", good_path.to_str().expect("utf-8 path")])
        .output()
        .expect("run redbin-submit");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "safe submission runs: {stdout}");
    assert!(stdout.contains("\"models\""), "{stdout}");
    assert!(stdout.contains("\"Ideal\""), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
    shut_down(&client, handle);
}

#[test]
fn metrics_round_trip_carries_job_histograms() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });

    // Before any job: the dump renders, histograms exist and are empty.
    let text = client.metrics().expect("metrics");
    assert!(text.contains("# TYPE job-queue-ms histogram"), "{text}");
    assert!(text.contains("job-service-ms-count 0"), "{text}");
    assert!(text.contains("# TYPE uptime-seconds gauge"), "{text}");

    // Run one job; its queue wait and service time must land in the
    // histograms and the counters must reflect the completion.
    client
        .run_to_completion(JobSpec::sleep(30), None, Duration::from_secs(60))
        .expect("sleep job completes");
    let text = client.metrics().expect("metrics after job");
    assert!(text.contains("job-queue-ms-count 1"), "{text}");
    assert!(text.contains("job-service-ms-count 1"), "{text}");
    assert!(text.contains("jobs-submitted 1"), "{text}");
    assert!(text.contains("jobs-completed 1"), "{text}");

    // The same dump round-trips through the redbin-submit CLI.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_redbin-submit"))
        .args(["--server", client.addr(), "metrics"])
        .output()
        .expect("run redbin-submit");
    assert!(out.status.success(), "redbin-submit metrics failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 dump");
    assert!(stdout.contains("job-service-ms-count 1"), "{stdout}");
    assert!(stdout.contains("# TYPE jobs-completed counter"), "{stdout}");

    shut_down(&client, handle);
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (client, handle) = start_server(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    // One running (per worker) + stack one more in the queue.
    for ms in [300, 301, 302] {
        let r = client.submit(JobSpec::sleep(ms), None).expect("submit");
        assert!(matches!(r, Response::Accepted { .. }));
    }
    let draining = client.shutdown().expect("shutdown");
    assert!(draining >= 1, "jobs were still in flight: {draining}");
    // run() only returns once every accepted job drained.
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn protocol_errors_are_answered_not_dropped() {
    let (client, handle) = start_server(ServeConfig::default());
    // An unknown job id is a server-side error envelope.
    match client.poll("ffffffffffffffff") {
        Ok(Response::Error { message }) => assert!(message.contains("unknown job")),
        other => panic!("expected error envelope, got {other:?}"),
    }
    // Malformed / version-mismatched lines come back as error envelopes too.
    let raw = raw_exchange(client.addr(), "{\"v\":1,\"type\":\"nope\"}\n");
    let resp = Response::from_line(&raw).expect("decodable error envelope");
    assert!(matches!(resp, Response::Error { .. }));
    let raw = raw_exchange(client.addr(), "not json at all\n");
    let resp = Response::from_line(&raw).expect("decodable error envelope");
    assert!(matches!(resp, Response::Error { .. }));
    shut_down(&client, handle);
}

#[test]
fn external_shutdown_flag_drains_like_sigterm() {
    // The binary's SIGTERM handler just sets Server::shutdown_flag; drive
    // that path directly.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(addr);
    let r = client.submit(JobSpec::sleep(200), None).expect("submit");
    assert!(matches!(r, Response::Accepted { .. }));
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().expect("server thread").expect("clean exit");
}

/// Runs `server` on a background thread; the receiver gets what
/// [`Server::run`] returned, so a test can bound how long it takes. The
/// thread is left detached so that a `run()` that never returns fails the
/// test instead of hanging it.
fn run_in_background(server: Server) -> mpsc::Receiver<std::io::Result<()>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    rx
}

/// An idle server's `run()` returns within 2 s of its shutdown flag being
/// set: the reaper turns the flag into a drain, and the drain wakes the
/// accept loop blocked in `accept`.
fn assert_flag_shutdown_is_prompt(bind: &str) {
    let server = Server::bind(bind, ServeConfig::default()).expect("bind");
    let flag = server.shutdown_flag();
    let done = run_in_background(server);
    flag.store(true, Ordering::Relaxed);
    done.recv_timeout(Duration::from_secs(2))
        .expect("run() returned within 2 s of the shutdown flag")
        .expect("clean exit");
}

#[test]
fn shutdown_flag_wakes_an_idle_loopback_server() {
    assert_flag_shutdown_is_prompt("127.0.0.1:0");
}

#[test]
fn shutdown_flag_wakes_an_idle_server_bound_to_the_unspecified_address() {
    assert_flag_shutdown_is_prompt("0.0.0.0:0");
}

#[test]
fn shutdown_envelope_wakes_an_idle_server() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let client = Client::new(server.local_addr().expect("addr").to_string());
    let done = run_in_background(server);
    assert_eq!(client.shutdown().expect("shutdown accepted"), 0);
    done.recv_timeout(Duration::from_secs(2))
        .expect("run() returned within 2 s of the shutdown envelope")
        .expect("clean exit");
}

#[test]
fn run_to_completion_uses_one_connection_per_job() {
    let (mut client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    client.poll_interval = Duration::from_millis(1);
    // Read the counter over one held connection, so reading it opens none.
    let mut session = Session::open(client.addr());
    let before = session.counter("connections-accepted");
    client
        .run_to_completion(JobSpec::sleep(50), None, Duration::from_secs(60))
        .expect("sleep job completes");
    let after = session.counter("connections-accepted");
    assert_eq!(after - before, 1, "submit, every poll and fetch share one connection");
    drop(session);
    shut_down(&client, handle);
}

#[test]
fn cached_jobs_are_served_in_well_under_ten_ms_each() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let spec = JobSpec::sleep(1);
    let (_, first, hit) = client
        .run_to_completion(spec.clone(), None, Duration::from_secs(60))
        .expect("first run fills the cache");
    assert!(!hit);
    // A 20 ms accept sleep or a ~40 ms Nagle stall per job would take
    // these 50 jobs to a second or more.
    let t = redbin::telemetry::Clock::now();
    for _ in 0..50 {
        let (_, body, hit) = client
            .run_to_completion(spec.clone(), None, Duration::from_secs(60))
            .expect("cached run completes");
        assert!(hit, "served from the cache");
        assert_eq!(body, first);
    }
    let total = t.elapsed();
    assert!(
        total < Duration::from_millis(500),
        "50 cached jobs took {total:?}"
    );
    shut_down(&client, handle);
}

#[test]
fn oversized_request_line_is_refused_and_the_server_keeps_serving() {
    let (client, handle) = start_server(ServeConfig::default());
    let stream = TcpStream::connect(client.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    // 2 MiB and no newline. The server stops reading at the limit and
    // closes, so the tail of this write may fail; that is expected.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 * MAX_REQUEST_LINE]);
    });
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("an answer");
    flood.join().expect("writer thread");
    match Response::from_line(&line).expect("an envelope") {
        Response::Error { message } => {
            assert!(message.contains("MAX_REQUEST_LINE"), "{message}");
            assert!(message.contains(&MAX_REQUEST_LINE.to_string()), "{message}");
        }
        other => panic!("expected an error envelope, got {other:?}"),
    }
    // Another client is still answered, and the refusal is counted.
    assert!(client.stats().expect("stats still answered").get("jobs").is_some());
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("requests-oversized 1"), "{metrics}");
    shut_down(&client, handle);
}

// ---- helpers ---------------------------------------------------------------

/// One held connection to a server, for requests whose own connection
/// must not be counted.
struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn open(addr: &str) -> Session {
        let stream = TcpStream::connect(addr).expect("connect");
        Session {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    /// A counter's value from the server's `metrics` dump.
    fn counter(&mut self, name: &str) -> u64 {
        let mut out = Request::Metrics.to_line();
        out.push('\n');
        self.writer.write_all(out.as_bytes()).expect("write");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        let Ok(Response::Metrics { text }) = Response::from_line(&line) else {
            panic!("expected a metrics reply, got {line}");
        };
        let key = format!("{name} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no counter {name} in {text}"))
    }
}

/// Polls `stats` until `pred` holds (10 s cap — generous for CI).
fn wait_until(client: &Client, pred: impl Fn(&Json) -> bool) {
    let deadline = redbin::telemetry::Deadline::after(Duration::from_secs(10));
    loop {
        let stats = client.stats().expect("stats");
        if pred(&stats) {
            return;
        }
        assert!(
            !deadline.expired(),
            "condition not reached; last stats: {}",
            stats.to_pretty()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn poll_until_terminal(client: &Client, job: &str, timeout: Duration) -> JobState {
    let deadline = redbin::telemetry::Deadline::after(timeout);
    loop {
        match client.poll(job).expect("poll") {
            Response::Status { state, .. } if state.is_terminal() => return state,
            Response::Status { .. } => {}
            other => panic!("unexpected poll reply {other:?}"),
        }
        assert!(!deadline.expired(), "job {job} never terminal");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends raw bytes and returns the first response line — for testing the
/// server's handling of requests the typed client cannot produce.
fn raw_exchange(addr: &str, payload: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    line
}
