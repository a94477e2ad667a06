//! A small scoped worker pool for embarrassingly parallel job fan-out.
//!
//! Extracted from the experiment drivers so the serving layer
//! (`redbin-serve`) and any other batch consumer can share one
//! implementation. The pool is deliberately simple: scoped threads pull
//! job indices from an atomic counter, so results are deterministic in
//! content and order regardless of the worker count — a property the
//! golden-snapshot tests rely on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `n` independent jobs on a small thread pool, preserving order.
///
/// `f(i)` is called exactly once for each `i in 0..n`, from `threads`
/// workers (clamped to `1..=n`). The calling thread is worker 0, so the
/// pool spawns `threads - 1` helper threads, and none at all for
/// `threads = 1`. The returned vector has `f(i)` at index `i` — output
/// order never depends on scheduling.
///
/// Each worker accumulates `(index, result)` pairs in its own local
/// buffer — there is no shared lock on the result path (the previous
/// implementation serialized every write through one global
/// `Mutex<Vec<Option<T>>>`). The buffers are merged into index order
/// after the scope joins.
///
/// # Panics
///
/// Propagates panics from the job function: if any `f(i)` panics, the
/// panic resurfaces on the caller's thread once the scope joins (no
/// deadlock, no silently missing results). When several jobs panic, the
/// caller's own panic wins; if the caller's jobs all returned, the panic
/// of the earliest-spawned helper wins.
pub fn run_jobs<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let workers = threads.clamp(1, n.max(1));
    let work = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        local
    };
    let locals = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        // A panic here unwinds out of the scope, which joins the helpers
        // first and then re-raises this thread's payload.
        let mut locals = Vec::with_capacity(workers);
        locals.push(work());
        for h in helpers {
            match h.join() {
                Ok(local) => locals.push(local),
                // Re-raise the helper's own panic payload on the caller's
                // thread (joining first keeps the scope from re-raising).
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        locals
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, out) in locals.into_iter().flatten() {
        debug_assert!(slots.get(i).is_some_and(Option::is_none), "job {i} ran twice");
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn preserves_order_at_every_worker_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_jobs(10, threads, |i| i * i);
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
        }
    }

    #[test]
    fn runs_each_job_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_jobs(100, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run_jobs(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panics_propagate_without_deadlock() {
        // The regression of interest: a panicking job must fail the whole
        // call promptly (scope join re-raises), not hang the pool or
        // return a partial result vector.
        let result = std::panic::catch_unwind(|| {
            run_jobs(8, 4, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        let err = result.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("exploded") || msg.contains("panicked"),
            "unexpected panic payload: {msg:?}"
        );
    }

    /// The distinct threads `f` ran on during one `run_jobs(n, threads, f)`.
    fn threads_used(n: usize, threads: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        run_jobs(n, threads, |i| {
            // Long enough that every helper gets a chance to take a job.
            std::thread::sleep(std::time::Duration::from_millis(1));
            seen.lock().expect("no job panics").insert(std::thread::current().id());
            i
        });
        seen.into_inner().expect("no job panics")
    }

    #[test]
    fn one_thread_runs_every_job_on_the_caller() {
        let used = threads_used(16, 1);
        assert_eq!(used, HashSet::from([std::thread::current().id()]));
    }

    #[test]
    fn k_threads_means_at_most_k_distinct_threads_caller_included() {
        for k in [2, 3, 4] {
            let used = threads_used(24, k);
            assert!(used.len() <= k, "{k} threads asked, {} used", used.len());
        }
        // More threads than jobs is clamped to one per job.
        assert!(threads_used(2, 8).len() <= 2);
    }

    #[test]
    fn the_callers_panic_wins_over_a_helpers() {
        let caller = std::thread::current().id();
        let result = std::panic::catch_unwind(|| {
            // Each worker panics on its first job, and the caller always
            // gets one: the helper stops after at most one of the four.
            run_jobs(4, 2, |i| {
                if std::thread::current().id() == caller {
                    panic!("caller job {i}");
                }
                panic!("helper job {i}");
            })
        });
        let err = result.expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("caller job"), "unexpected winner: {msg:?}");
    }
}
