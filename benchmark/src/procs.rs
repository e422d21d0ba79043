//! Child processes timed from outside, with their resource usage.
//!
//! `std::process` does not report a child's peak RSS, so the child is
//! reaped with `wait4(2)`, which returns it. A watchdog thread
//! kills a child that outlives its limit, so a hung program cannot hang
//! the benchmark past its own time cap.

use std::io;
use std::os::raw::{c_int, c_long};
use std::process::Command;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn waitid(idtype: c_int, id: c_int, info: *mut [u64; 16], options: c_int) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const SIGKILL: c_int = 9;
const RUSAGE_SELF: c_int = 0;
const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;

/// Retries a libc call interrupted by a signal.
fn retry(mut call: impl FnMut() -> c_int) -> io::Result<()> {
    loop {
        if call() >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

fn cpu_of(ru: &Rusage) -> Duration {
    let us = |t: Timeval| t.tv_sec as f64 * 1e6 + t.tv_usec as f64;
    Duration::from_secs_f64((us(ru.ru_utime) + us(ru.ru_stime)) / 1e6)
}

/// How one child process ended.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// Spawn to reap.
    pub wall: Duration,
    /// Exit code, or `None` when a signal ended it.
    pub exit: Option<i32>,
    /// Peak resident set, in KiB (`ru_maxrss`).
    pub maxrss_kb: u64,
}

/// A started child that [`Running::wait`] reaps. Dropping it unreaped
/// kills and reaps it, so no process outlives the benchmark.
pub struct Running {
    pid: c_int,
    started: Instant,
    reaped: bool,
}

impl Running {
    pub fn spawn(cmd: &mut Command) -> io::Result<Running> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;
        // The child is reaped through `wait4` below, never through `child`.
        drop(child);
        Ok(Running {
            pid,
            started,
            reaped: false,
        })
    }

    /// Waits for the child to exit, killing it once `limit` has passed
    /// since it started.
    pub fn wait(mut self, limit: Duration) -> io::Result<Usage> {
        let (done, watch) = mpsc::channel::<()>();
        let pid = self.pid;
        let remaining = limit.saturating_sub(self.started.elapsed());
        let watchdog = std::thread::spawn(move || {
            if watch.recv_timeout(remaining) == Err(mpsc::RecvTimeoutError::Timeout) {
                // SAFETY: `kill` has no memory-safety preconditions. The
                // child is not reaped until this thread is joined, so the
                // pid still names it (at worst as a zombie).
                unsafe { kill(pid, SIGKILL) };
            }
        });
        // Wait for the exit without reaping (WNOWAIT), stop the watchdog,
        // and only then reap: the pid cannot be reused while it may still
        // be signalled.
        let mut info = [0u64; 16];
        // SAFETY: `info` is a live, writable buffer of siginfo_t's size.
        let exited = retry(|| unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) });
        let wall = self.started.elapsed();
        let _ = done.send(());
        let joined = watchdog.join();
        exited?;
        joined.map_err(|_| io::Error::other("watchdog panicked"))?;
        let mut status: c_int = 0;
        let mut ru = Rusage::default();
        // SAFETY: both pointers refer to live, writable locals of the exact
        // C layout `wait4` fills.
        retry(|| unsafe { wait4(pid, &mut status, 0, &mut ru) })?;
        self.reaped = true;
        let exit = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok(Usage {
            wall,
            exit,
            maxrss_kb: u64::try_from(ru.ru_maxrss).unwrap_or(0),
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            let mut status: c_int = 0;
            // SAFETY: as in `wait`; the pid is still our unreaped child.
            unsafe {
                kill(self.pid, SIGKILL);
                wait4(self.pid, &mut status, 0, std::ptr::null_mut());
            }
        }
    }
}

/// Runs a command to completion (see [`Running::wait`]).
pub fn run(cmd: &mut Command, limit: Duration) -> io::Result<Usage> {
    Running::spawn(cmd)?.wait(limit)
}

/// CPU time this process has used so far, across all its threads.
pub fn self_cpu() -> Duration {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable local of the C layout.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return Duration::ZERO;
    }
    cpu_of(&ru)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_and_usage() {
        let usage = run(
            Command::new("sh").args(["-c", "exit 3"]),
            Duration::from_secs(30),
        )
        .expect("sh runs");
        assert_eq!(usage.exit, Some(3));
        assert!(usage.maxrss_kb > 0);
    }

    #[test]
    fn kills_a_child_past_its_limit() {
        let usage =
            run(Command::new("sleep").arg("30"), Duration::from_millis(200)).expect("sleep runs");
        assert_eq!(usage.exit, None);
        assert!(usage.wall < Duration::from_secs(10));
    }
}
