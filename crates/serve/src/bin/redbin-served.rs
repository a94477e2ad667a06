//! `redbin-served` — the batch simulation job server.
//!
//! ```text
//! redbin-served [--addr 127.0.0.1:7878] [--workers N] [--queue N]
//!               [--job-threads N] [--default-deadline-ms N]
//!               [--retry-after-secs N] [--cache-entries N]
//! ```
//!
//! `--job-threads N` is shared by the jobs running at once: each gets
//! `max(1, N / running)` threads for its benchmark fan-out.
//!
//! Prints `listening on <addr>` once ready (scripts wait for that line),
//! serves until it receives SIGTERM/SIGINT or a `shutdown` envelope, then
//! drains every accepted job before exiting. See SERVING.md for the
//! protocol.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use redbin_serve::{ServeConfig, Server};

/// The flag flipped by the signal handler. A handler may only do
/// async-signal-safe work; a relaxed store qualifies.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGTERM and SIGINT via the libc `signal`
/// symbol that std already links. Falls back to no handler on non-unix
/// targets (the `shutdown` envelope still drains gracefully).
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {
    let _ = on_signal; // silence dead-code on non-unix
}

struct Args {
    addr: String,
    cfg: ServeConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: redbin-served [--addr HOST:PORT] [--workers N] [--queue N] \
         [--job-threads N] [--default-deadline-ms N] [--retry-after-secs N] \
         [--cache-entries N]\n\
         \x20 --job-threads N  simulation threads shared by the jobs running at once; \
         each gets max(1, N / running)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    let parse_n = |flag: &str, v: Option<String>| -> usize {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a non-negative integer");
            usage()
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--workers" => cfg.workers = parse_n("--workers", args.next()).max(1),
            "--queue" => cfg.queue_capacity = parse_n("--queue", args.next()),
            "--job-threads" => cfg.job_threads = parse_n("--job-threads", args.next()).max(1),
            "--default-deadline-ms" => {
                cfg.default_deadline_ms = parse_n("--default-deadline-ms", args.next()) as u64
            }
            "--retry-after-secs" => {
                cfg.retry_after_secs = parse_n("--retry-after-secs", args.next()) as u64
            }
            "--cache-entries" => cfg.cache_capacity = parse_n("--cache-entries", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    Args { addr, cfg }
}

fn main() -> ExitCode {
    let args = parse_args();
    install_signal_handlers();
    let server = match Server::bind(&args.addr, args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("redbin-served: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let bound = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    println!("listening on {bound}");
    // Line-buffered stdout may sit on the readiness line when piped; flush
    // so wrappers can wait for it.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Bridge the process signal flag into the server's shutdown flag.
    let flag = server.shutdown_flag();
    let watcher = std::thread::spawn({
        let flag = Arc::clone(&flag);
        move || {
            while !flag.load(Ordering::Relaxed) {
                if SIGNALLED.load(Ordering::Relaxed) {
                    eprintln!("redbin-served: signal received; draining");
                    flag.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    });

    let result = server.run();
    flag.store(true, Ordering::Relaxed); // release the watcher
    let _ = watcher.join();
    match result {
        Ok(()) => {
            eprintln!("redbin-served: drained; bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("redbin-served: {e}");
            ExitCode::FAILURE
        }
    }
}
