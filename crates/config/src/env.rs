//! The canonical environment-variable override parser.
//!
//! Every runtime override the simulator honours is parsed **here and only
//! here**, with one canonical `VMSIM_*` name per knob:
//!
//! | Variable          | Meaning                                             |
//! |-------------------|-----------------------------------------------------|
//! | `VMSIM_OPS`       | Measured steady-state operations per run            |
//! | `VMSIM_THREADS`   | Worker-pool size (`0` or unset = one per core)      |
//! | `VMSIM_CHAOS_CELL`| Supervisor drill: panic cell `i` (`i` or `i:k`)     |
//! | `VMSIM_HEARTBEAT_OPS` | Heartbeat cadence in machine ops (positive)     |
//! | `VMSIM_SERVE_BIND` | `vmsim serve` endpoint: loopback `host:port` or `unix:<path>` |
//! | `VMSIM_SERVE_QUEUE` | `vmsim serve` admission-queue depth (1..=4096)    |
//! | `VMSIM_SERVE_DRAIN_MS` | `vmsim serve` graceful-drain timeout (positive) |
//! | `VMSIM_SERVE_DEADLINE_MS` | `vmsim serve` per-job deadline (positive)    |
//!
//! None of them restates a manifest key: observability (`obs`) and guest
//! threads (`threads`) come only from the manifest. Any other set
//! `VMSIM_*` variable is an [`EnvError`] naming it, so a removed or
//! misspelt knob is never silently ignored.
//!
//! Parsers are strict: a set-but-malformed value is an [`EnvError`], never a
//! silent fallback to the default. The worker pool, which cannot fail,
//! uses the lenient [`threads_or_auto`] wrapper, which warns once on
//! stderr before falling back. `vmsim validate` surfaces the same errors
//! via [`check`].

use std::sync::Once;

/// Canonical name for the measured-op count override.
pub const VAR_OPS: &str = "VMSIM_OPS";
/// Worker-pool size for scenario-level fan-out.
pub const VAR_THREADS: &str = "VMSIM_THREADS";
/// Supervisor chaos drill: deliberately panic one matrix cell.
pub const VAR_CHAOS_CELL: &str = "VMSIM_CHAOS_CELL";
/// Live-telemetry heartbeat cadence, in machine ops per heartbeat.
pub const VAR_HEARTBEAT_OPS: &str = "VMSIM_HEARTBEAT_OPS";

/// `vmsim serve` bind endpoint: a loopback `host:port` TCP address or a
/// `unix:<path>` Unix-domain socket path.
pub const VAR_SERVE_BIND: &str = "VMSIM_SERVE_BIND";
/// `vmsim serve` admission-queue depth (jobs queued beyond the one
/// executing before the server answers `overloaded`).
pub const VAR_SERVE_QUEUE: &str = "VMSIM_SERVE_QUEUE";
/// `vmsim serve` graceful-drain timeout in milliseconds (how long SIGTERM
/// waits for in-flight work before giving up with a nonzero exit).
pub const VAR_SERVE_DRAIN_MS: &str = "VMSIM_SERVE_DRAIN_MS";
/// `vmsim serve` per-job deadline in milliseconds, enforced through the
/// supervisor's per-cell soft-wall budget (unset = no deadline).
pub const VAR_SERVE_DEADLINE_MS: &str = "VMSIM_SERVE_DEADLINE_MS";

/// Every knob in the table above. Any other set `VMSIM_*` variable is an
/// [`EnvError`].
const KNOWN: [&str; 8] = [
    VAR_OPS,
    VAR_THREADS,
    VAR_CHAOS_CELL,
    VAR_HEARTBEAT_OPS,
    VAR_SERVE_BIND,
    VAR_SERVE_QUEUE,
    VAR_SERVE_DRAIN_MS,
    VAR_SERVE_DEADLINE_MS,
];

/// Default [`VAR_SERVE_QUEUE`] depth.
pub const DEFAULT_SERVE_QUEUE: usize = 8;
/// Upper bound on [`VAR_SERVE_QUEUE`] (the queue is bounded by design;
/// beyond this the server should shed load, not buffer it).
pub const MAX_SERVE_QUEUE: usize = 4096;
/// Default [`VAR_SERVE_DRAIN_MS`] timeout.
pub const DEFAULT_SERVE_DRAIN_MS: u64 = 30_000;
/// Default [`VAR_SERVE_BIND`] endpoint (loopback, fixed port).
pub const DEFAULT_SERVE_BIND: &str = "127.0.0.1:7171";

/// Where `vmsim serve` listens: strictly local by construction — either a
/// loopback TCP address or a Unix-domain socket path. Parsed from
/// [`VAR_SERVE_BIND`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeBind {
    /// A loopback TCP socket address (port 0 = ephemeral).
    Tcp(std::net::SocketAddr),
    /// A Unix-domain socket path (`unix:<path>`).
    Unix(std::path::PathBuf),
}

impl ServeBind {
    /// Parses a bind spec: `unix:<path>` or a loopback `host:port`.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason for a malformed or non-loopback spec.
    pub fn parse(value: &str) -> Result<ServeBind, &'static str> {
        if let Some(path) = value.strip_prefix("unix:") {
            if path.trim().is_empty() {
                return Err("unix: prefix needs a socket path");
            }
            return Ok(ServeBind::Unix(std::path::PathBuf::from(path)));
        }
        let addr: std::net::SocketAddr = value
            .parse()
            .map_err(|_| "expected host:port (e.g. 127.0.0.1:7171) or unix:<path>")?;
        if !addr.ip().is_loopback() {
            return Err("serve binds loopback only (use 127.0.0.1 or [::1])");
        }
        Ok(ServeBind::Tcp(addr))
    }
}

impl core::fmt::Display for ServeBind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeBind::Tcp(addr) => write!(f, "{addr}"),
            ServeBind::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A deliberate failure injected into the supervised runtime for drills:
/// cell `cell` panics on its first `fail_attempts` attempts. Parsed from
/// `VMSIM_CHAOS_CELL` (`"3"` = cell 3 panics every attempt; `"3:1"` = cell 3
/// panics once and succeeds on retry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Flat matrix-cell index that misbehaves.
    pub cell: usize,
    /// How many leading attempts panic (`None` = every attempt).
    pub fail_attempts: Option<u32>,
}

/// A set-but-invalid environment override, or a set `VMSIM_*` variable
/// that is not a knob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// Which variable was malformed or unknown.
    pub var: String,
    /// The offending value.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl core::fmt::Display for EnvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for EnvError {}

/// Reads a variable, treating unset and all-whitespace as absent.
fn raw(var: &str) -> Option<String> {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() => Some(v.trim().to_string()),
        _ => None,
    }
}

fn parse_u64(var: &str, value: String) -> Result<u64, EnvError> {
    value.parse::<u64>().map_err(|_| EnvError {
        var: var.into(),
        value,
        reason: "expected an unsigned integer",
    })
}

fn warn_once(once: &'static Once, message: &str) {
    once.call_once(|| eprintln!("vmsim: warning: {message}"));
}

/// Measured-op override: `VMSIM_OPS`.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not a positive integer.
pub fn measure_ops() -> Result<Option<u64>, EnvError> {
    let Some(value) = raw(VAR_OPS) else {
        return Ok(None);
    };
    let n = parse_u64(VAR_OPS, value.clone())?;
    if n == 0 {
        return Err(EnvError {
            var: VAR_OPS.into(),
            value,
            reason: "measured-op count must be positive",
        });
    }
    Ok(Some(n))
}

/// Worker-pool override: `VMSIM_THREADS`. `None` means "one worker per
/// available core" (unset or explicitly `0`).
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not an unsigned integer.
pub fn threads() -> Result<Option<usize>, EnvError> {
    match raw(VAR_THREADS) {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Ok(None),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(EnvError {
                var: VAR_THREADS.into(),
                value: v,
                reason: "expected an unsigned integer (0 = one per core)",
            }),
        },
    }
}

/// Lenient wrapper over [`threads`]: a malformed value warns once and
/// yields `None` (auto).
pub fn threads_or_auto() -> Option<usize> {
    static MALFORMED: Once = Once::new();
    match threads() {
        Ok(t) => t,
        Err(e) => {
            warn_once(&MALFORMED, &format!("ignoring malformed {e}"));
            None
        }
    }
}

/// Chaos-drill override: `VMSIM_CHAOS_CELL`. `None` = no injected failure.
/// Accepts `"i"` (cell `i` panics on every attempt) or `"i:k"` (cell `i`
/// panics on its first `k` attempts, then succeeds).
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but malformed.
pub fn chaos_cell() -> Result<Option<ChaosPlan>, EnvError> {
    let Some(v) = raw(VAR_CHAOS_CELL) else {
        return Ok(None);
    };
    let bad = |reason| EnvError {
        var: VAR_CHAOS_CELL.into(),
        value: v.clone(),
        reason,
    };
    let (cell_part, attempts_part) = match v.split_once(':') {
        Some((c, a)) => (c, Some(a)),
        None => (v.as_str(), None),
    };
    let cell = cell_part
        .parse::<usize>()
        .map_err(|_| bad("expected a cell index (\"3\") or index:attempts (\"3:1\")"))?;
    let fail_attempts = match attempts_part {
        None => None,
        Some(a) => {
            let k = a
                .parse::<u32>()
                .map_err(|_| bad("expected a cell index (\"3\") or index:attempts (\"3:1\")"))?;
            if k == 0 {
                return Err(bad(
                    "attempt count must be positive (omit for all attempts)",
                ));
            }
            Some(k)
        }
    };
    Ok(Some(ChaosPlan {
        cell,
        fail_attempts,
    }))
}

/// Heartbeat-cadence override: `VMSIM_HEARTBEAT_OPS`. `None` = use the
/// built-in default cadence. The value is a *sim-op* interval, so the
/// points at which heartbeats fire are deterministic even though their
/// wall-clock payload is not. Heartbeats themselves are enabled by
/// `vmsim run --progress`, not by this variable.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not a positive integer.
pub fn heartbeat_ops() -> Result<Option<u64>, EnvError> {
    match raw(VAR_HEARTBEAT_OPS) {
        None => Ok(None),
        Some(v) => {
            let n = parse_u64(VAR_HEARTBEAT_OPS, v.clone())?;
            if n == 0 {
                return Err(EnvError {
                    var: VAR_HEARTBEAT_OPS.into(),
                    value: v,
                    reason: "heartbeat cadence must be positive",
                });
            }
            Ok(Some(n))
        }
    }
}

/// Serve bind endpoint: `VMSIM_SERVE_BIND`. `None` = the built-in default
/// ([`DEFAULT_SERVE_BIND`]); `vmsim serve --bind` overrides both.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not a loopback
/// `host:port` address or a `unix:<path>` spec.
pub fn serve_bind() -> Result<Option<ServeBind>, EnvError> {
    match raw(VAR_SERVE_BIND) {
        None => Ok(None),
        Some(v) => ServeBind::parse(&v).map(Some).map_err(|reason| EnvError {
            var: VAR_SERVE_BIND.into(),
            value: v,
            reason,
        }),
    }
}

/// Serve admission-queue depth: `VMSIM_SERVE_QUEUE`. `None` = the default
/// ([`DEFAULT_SERVE_QUEUE`]). The queue is bounded by design: a submit
/// that would exceed the depth gets a typed `overloaded` rejection.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not an integer in
/// `1..=4096`.
pub fn serve_queue() -> Result<Option<usize>, EnvError> {
    let Some(v) = raw(VAR_SERVE_QUEUE) else {
        return Ok(None);
    };
    match v.parse::<usize>() {
        Ok(n) if (1..=MAX_SERVE_QUEUE).contains(&n) => Ok(Some(n)),
        Ok(_) => Err(EnvError {
            var: VAR_SERVE_QUEUE.into(),
            value: v,
            reason: "queue depth must be in 1..=4096",
        }),
        Err(_) => Err(EnvError {
            var: VAR_SERVE_QUEUE.into(),
            value: v,
            reason: "expected a queue depth in 1..=4096",
        }),
    }
}

/// Serve graceful-drain timeout: `VMSIM_SERVE_DRAIN_MS`. `None` = the
/// default ([`DEFAULT_SERVE_DRAIN_MS`]).
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not a positive integer.
pub fn serve_drain_ms() -> Result<Option<u64>, EnvError> {
    match raw(VAR_SERVE_DRAIN_MS) {
        None => Ok(None),
        Some(v) => {
            let n = parse_u64(VAR_SERVE_DRAIN_MS, v.clone())?;
            if n == 0 {
                return Err(EnvError {
                    var: VAR_SERVE_DRAIN_MS.into(),
                    value: v,
                    reason: "drain timeout must be positive",
                });
            }
            Ok(Some(n))
        }
    }
}

/// Serve per-job deadline: `VMSIM_SERVE_DEADLINE_MS`. `None` = no
/// deadline. Enforced through the supervisor's per-cell soft-wall budget,
/// so a stuck matrix cell is truncated or quarantined rather than wedging
/// the server. Alloc-latency and walk-breakdown jobs run outside the cell
/// supervisor, so the deadline does not bound them.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not a positive integer.
pub fn serve_deadline_ms() -> Result<Option<u64>, EnvError> {
    match raw(VAR_SERVE_DEADLINE_MS) {
        None => Ok(None),
        Some(v) => {
            let n = parse_u64(VAR_SERVE_DEADLINE_MS, v.clone())?;
            if n == 0 {
                return Err(EnvError {
                    var: VAR_SERVE_DEADLINE_MS.into(),
                    value: v,
                    reason: "job deadline must be positive (unset = none)",
                });
            }
            Ok(Some(n))
        }
    }
}

/// Every set `VMSIM_*` variable that is not a knob, sorted by name. A
/// variable set to a blank value counts as unset, as it does for the knobs.
fn unknown() -> Vec<EnvError> {
    let mut errors: Vec<EnvError> = std::env::vars_os()
        .filter_map(|(var, value)| {
            let var = var.to_string_lossy();
            let value = value.to_string_lossy();
            let unknown = var.starts_with("VMSIM_") && !KNOWN.contains(&var.as_ref());
            (unknown && !value.trim().is_empty()).then(|| EnvError {
                var: var.into_owned(),
                value: value.trim().to_string(),
                reason: "unknown variable (obs and threads are manifest keys)",
            })
        })
        .collect();
    errors.sort_by(|a, b| a.var.cmp(&b.var));
    errors
}

/// Fails on the first set `VMSIM_*` variable that is not a knob. `vmsim
/// run`, `vmsim submit` and `vmsim serve` call it before they open a
/// journal or bind a socket.
///
/// # Errors
///
/// Returns [`EnvError`] naming the first unknown variable.
pub fn reject_unknown() -> Result<(), EnvError> {
    unknown().into_iter().next().map_or(Ok(()), Err)
}

/// Validates every knob and rejects every unknown `VMSIM_*` variable,
/// returning all errors (empty = clean environment). `vmsim validate`
/// prints these.
pub fn check() -> Vec<EnvError> {
    let mut errors: Vec<EnvError> = [
        measure_ops().err(),
        threads().err(),
        chaos_cell().err(),
        heartbeat_ops().err(),
        serve_bind().err(),
        serve_queue().err(),
        serve_drain_ms().err(),
        serve_deadline_ms().err(),
    ]
    .into_iter()
    .flatten()
    .collect();
    errors.extend(unknown());
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Env vars are process-global; every combination runs in one test to
    /// avoid racing parallel test threads on the same variables.
    #[test]
    fn strict_parsing() {
        let clear = || {
            for (var, _) in std::env::vars_os() {
                if var.to_string_lossy().starts_with("VMSIM_") {
                    std::env::remove_var(var);
                }
            }
        };
        clear();
        assert_eq!(measure_ops(), Ok(None));
        assert_eq!(threads(), Ok(None));
        assert!(check().is_empty());
        assert_eq!(reject_unknown(), Ok(()));

        std::env::set_var(VAR_OPS, "2000");
        assert_eq!(measure_ops(), Ok(Some(2000)));

        // Malformed values are errors, not silent defaults.
        std::env::set_var(VAR_OPS, "lots");
        assert!(measure_ops().is_err());
        std::env::set_var(VAR_OPS, "0");
        assert!(measure_ops().is_err());

        std::env::set_var(VAR_THREADS, "8");
        assert_eq!(threads(), Ok(Some(8)));
        std::env::set_var(VAR_THREADS, "0");
        assert_eq!(threads(), Ok(None));
        std::env::set_var(VAR_THREADS, "many");
        assert!(threads().is_err());
        assert_eq!(threads_or_auto(), None);

        std::env::set_var(VAR_CHAOS_CELL, "3");
        assert_eq!(
            chaos_cell(),
            Ok(Some(ChaosPlan {
                cell: 3,
                fail_attempts: None
            }))
        );
        std::env::set_var(VAR_CHAOS_CELL, "3:1");
        assert_eq!(
            chaos_cell(),
            Ok(Some(ChaosPlan {
                cell: 3,
                fail_attempts: Some(1)
            }))
        );
        for bad in ["three", "3:never", "3:0", ":2"] {
            std::env::set_var(VAR_CHAOS_CELL, bad);
            assert!(chaos_cell().is_err(), "{bad:?} must be rejected");
        }

        // Heartbeat cadence: positive op interval, default when unset.
        assert_eq!(heartbeat_ops(), Ok(None));
        std::env::set_var(VAR_HEARTBEAT_OPS, "2500");
        assert_eq!(heartbeat_ops(), Ok(Some(2500)));
        for bad in ["0", "often"] {
            std::env::set_var(VAR_HEARTBEAT_OPS, bad);
            assert!(heartbeat_ops().is_err(), "{bad:?} must be rejected");
        }

        // Serve bind: loopback TCP or unix:<path>, strictly local.
        assert_eq!(serve_bind(), Ok(None));
        std::env::set_var(VAR_SERVE_BIND, "127.0.0.1:0");
        assert_eq!(
            serve_bind(),
            Ok(Some(ServeBind::Tcp("127.0.0.1:0".parse().unwrap())))
        );
        std::env::set_var(VAR_SERVE_BIND, "unix:/tmp/vmsim.sock");
        assert_eq!(
            serve_bind(),
            Ok(Some(ServeBind::Unix(std::path::PathBuf::from(
                "/tmp/vmsim.sock"
            ))))
        );
        for bad in ["8080", "example.com:80", "0.0.0.0:7171", "unix:", "unix:  "] {
            std::env::set_var(VAR_SERVE_BIND, bad);
            assert!(serve_bind().is_err(), "{bad:?} must be rejected");
        }

        // Serve queue depth: bounded 1..=4096.
        assert_eq!(serve_queue(), Ok(None));
        std::env::set_var(VAR_SERVE_QUEUE, "32");
        assert_eq!(serve_queue(), Ok(Some(32)));
        for bad in ["0", "4097", "lots"] {
            std::env::set_var(VAR_SERVE_QUEUE, bad);
            assert!(serve_queue().is_err(), "{bad:?} must be rejected");
        }

        // Serve drain timeout and job deadline: positive milliseconds.
        assert_eq!(serve_drain_ms(), Ok(None));
        std::env::set_var(VAR_SERVE_DRAIN_MS, "5000");
        assert_eq!(serve_drain_ms(), Ok(Some(5000)));
        for bad in ["0", "forever"] {
            std::env::set_var(VAR_SERVE_DRAIN_MS, bad);
            assert!(serve_drain_ms().is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(serve_deadline_ms(), Ok(None));
        std::env::set_var(VAR_SERVE_DEADLINE_MS, "60000");
        assert_eq!(serve_deadline_ms(), Ok(Some(60000)));
        for bad in ["0", "-5", "soon"] {
            std::env::set_var(VAR_SERVE_DEADLINE_MS, bad);
            assert!(serve_deadline_ms().is_err(), "{bad:?} must be rejected");
        }

        // Removed knobs and misspellings are unknown variables; a blank
        // value counts as unset.
        for var in ["VMSIM_TRACE", "VMSIM_OPPS"] {
            std::env::set_var(var, "1");
        }
        std::env::set_var("VMSIM_PROFILE", "  ");
        let first = reject_unknown().expect_err("unknown variables are rejected");
        assert_eq!(
            (first.var.as_str(), first.value.as_str()),
            ("VMSIM_OPPS", "1")
        );

        // check() reports every malformed knob and every unknown variable
        // at once.
        let errors = check();
        assert_eq!(errors.len(), KNOWN.len() + 2);
        for var in KNOWN.into_iter().chain(["VMSIM_OPPS", "VMSIM_TRACE"]) {
            assert!(errors.iter().any(|e| e.var == var), "{var} reported");
        }

        clear();
    }
}
