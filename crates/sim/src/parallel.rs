//! Deterministic scenario-level parallelism.
//!
//! Experiments replicate scenarios across seeds and benchmark lists; each
//! run is independent, so the harness fans them out over a scoped worker
//! pool. Determinism is a hard invariant: results are collected **in job
//! order**, so output is bit-identical to a serial run regardless of thread
//! count or scheduling. Workers claim job indices from a shared atomic
//! counter, tag each result with its index, and the pool reassembles the
//! results by index after the scope joins. The calling thread is one of
//! the workers, so a pool of `n` spawns `n - 1` threads: a long-running
//! `vmsim serve` starts fewer short-lived threads per job, and its
//! allocator spreads each job's large buffers over fewer per-thread arenas.
//!
//! Joins are **supervised**: each job runs under `catch_unwind`, so a
//! panicking job surfaces as a typed [`JobPanic`] in its result slot
//! ([`run_supervised`]) instead of tearing down the pool. [`run_indexed`]
//! keeps the legacy propagate-on-panic contract on top of that.
//!
//! Thread count comes from [`Parallelism`], normally via the
//! `VMSIM_THREADS` environment variable ([`Parallelism::from_env`]):
//! `1` forces serial execution, any larger value sets the pool size, and
//! unset/`0`/garbage means one worker per available core.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A job that panicked inside the pool, with its payload captured as data.
///
/// [`run_supervised`] quarantines panics instead of aborting the pool, so
/// the supervisor in `driver.rs` can record the failure and let every other
/// job complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, stringified (`"non-string panic payload"` when the
    /// payload was not a `&str`/`String`).
    pub payload: String,
}

impl JobPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let payload = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        JobPanic { payload }
    }
}

/// Worker-pool sizing policy for scenario-level fan-out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Run jobs inline on the calling thread, no pool.
    Serial,
    /// Fixed pool of this many workers (clamped to at least 1).
    Threads(usize),
    /// One worker per available core (`std::thread::available_parallelism`).
    #[default]
    Auto,
}

impl Parallelism {
    /// Reads the policy from `VMSIM_THREADS` via `vmsim_config::env` (the
    /// single parsing point): `1` → [`Serial`], `n > 1` → [`Threads`]`(n)`,
    /// unset or `0` → [`Auto`]. A malformed value warns once and falls back
    /// to [`Auto`]; `vmsim validate` reports it as an error.
    ///
    /// [`Serial`]: Parallelism::Serial
    /// [`Threads`]: Parallelism::Threads
    /// [`Auto`]: Parallelism::Auto
    pub fn from_env() -> Self {
        match vmsim_config::env::threads_or_auto() {
            Some(1) => Self::Serial,
            Some(n) => Self::Threads(n),
            None => Self::Auto,
        }
    }

    /// Resolves the policy to a concrete worker count (always ≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Threads(n) => n.max(1),
            Self::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Runs `jobs` independent jobs, calling `f(i)` for each index `i`, with
/// every job wrapped in `catch_unwind`: a panicking job becomes
/// `Err(JobPanic)` in its slot while all other jobs run to completion.
/// Results come back **in index order** — bit-identical to a serial run
/// whatever the thread count.
///
/// With one worker (or zero/one jobs) the jobs run inline on the calling
/// thread, so `Parallelism::Serial` has no threading overhead at all.
pub fn run_supervised<R, F>(parallelism: Parallelism, jobs: usize, f: F) -> Vec<Result<R, JobPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let supervised = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| JobPanic::from_payload(p.as_ref()))
    };
    let workers = parallelism.threads().min(jobs.max(1));
    if workers <= 1 {
        return (0..jobs).map(supervised).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            local.push((i, supervised(i)));
        }
        local
    };
    let mut tagged: Vec<(usize, Result<R, JobPanic>)> = Vec::with_capacity(jobs);
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(|_| work())).collect();
        // The calling thread is the first worker.
        tagged.extend(work());
        for handle in handles {
            // Jobs are caught individually, so a worker thread itself can
            // only die on catastrophic failure (e.g. stack overflow, which
            // aborts). A lost join still must not lose other workers'
            // results, so record it instead of unwinding.
            match handle.join() {
                Ok(results) => tagged.extend(results),
                Err(payload) => {
                    let panic = JobPanic::from_payload(payload.as_ref());
                    eprintln!("vmsim: worker thread lost: {}", panic.payload);
                }
            }
        }
    })
    .unwrap_or_else(|_| unreachable!("scope callback does not panic"));
    // Seed-order determinism: reassemble by job index, not completion order.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    // If a worker thread was lost, slots it had claimed are missing; mark
    // them as panicked rather than silently shifting indices.
    let mut out: Vec<Result<R, JobPanic>> = Vec::with_capacity(jobs);
    let mut tagged = tagged.into_iter().peekable();
    for i in 0..jobs {
        match tagged.peek() {
            Some((j, _)) if *j == i => out.push(tagged.next().unwrap().1),
            _ => out.push(Err(JobPanic {
                payload: "worker thread lost before job completed".to_string(),
            })),
        }
    }
    out
}

/// Runs `jobs` independent jobs, calling `f(i)` for each index `i`, and
/// returns the results **in index order** — bit-identical to
/// `(0..jobs).map(f).collect()` whatever the thread count.
///
/// # Panics
///
/// Re-raises the first (lowest-index) job panic after all jobs have joined.
/// Callers that need panic isolation use [`run_supervised`] instead.
pub fn run_indexed<R, F>(parallelism: Parallelism, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_supervised(parallelism, jobs, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(panic) => panic!("worker panicked: {}", panic.payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed(Parallelism::Serial, 37, |i| i * i + 1);
        let parallel = run_indexed(Parallelism::Threads(4), 37, |i| i * i + 1);
        assert_eq!(serial, parallel);
        assert_eq!(serial[6], 37);
    }

    #[test]
    fn results_are_in_job_order() {
        // Make later jobs finish first to exercise the reassembly path.
        let out = run_indexed(Parallelism::Threads(4), 16, |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i) as u64 * 50));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_indexed(Parallelism::Auto, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn threads_resolve_to_at_least_one() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert_eq!(Parallelism::Threads(8).threads(), 8);
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        // The supervised pool returns the panic as typed data in the right
        // slot, with every other job's result intact…
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let out = run_supervised(par, 4, |i| {
                assert!(i != 2, "boom at job {i}");
                i
            });
            assert_eq!(out.len(), 4);
            assert_eq!(out[0], Ok(0));
            assert_eq!(out[1], Ok(1));
            assert_eq!(out[3], Ok(3));
            let panic = out[2].as_ref().unwrap_err();
            assert!(
                panic.payload.contains("boom at job 2"),
                "payload carries the panic message: {}",
                panic.payload
            );
        }
        // …while the unsupervised wrapper keeps the legacy contract of
        // re-raising after the pool joins.
        let caught = std::panic::catch_unwind(|| {
            run_indexed(Parallelism::Threads(2), 4, |i| {
                assert!(i != 2, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn supervised_results_match_serial_whatever_the_thread_count() {
        let serial = run_supervised(Parallelism::Serial, 9, |i| i * 3);
        let pooled = run_supervised(Parallelism::Threads(4), 9, |i| i * 3);
        assert_eq!(serial, pooled);
        assert!(serial.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn non_string_panic_payloads_are_marked() {
        let out = run_supervised(Parallelism::Serial, 1, |_| -> usize {
            std::panic::panic_any(7_u64)
        });
        assert_eq!(
            out[0].as_ref().unwrap_err().payload,
            "non-string panic payload"
        );
    }
}
