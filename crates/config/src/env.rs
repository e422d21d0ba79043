//! The canonical environment-variable override parser.
//!
//! Every runtime override the simulator honours is parsed **here and only
//! here**, with one canonical `VMSIM_*` name per knob:
//!
//! | Variable          | Meaning                                             |
//! |-------------------|-----------------------------------------------------|
//! | `VMSIM_OPS`       | Measured steady-state operations per run            |
//! | `VMSIM_THREADS`   | Worker-pool size (`0` or unset = one per core)      |
//! | `VMSIM_TRACE`     | Event tracing: `0` off, `1` on, `n > 1` ring size   |
//! | `VMSIM_EPOCH_OPS` | Registry-snapshot sampling interval (`0` = off)     |
//! | `VMSIM_CHAOS_CELL`| Supervisor drill: panic cell `i` (`i` or `i:k`)     |
//! | `VMSIM_MEMO`      | Translation memo layer: `on`/`1` (default), `off`/`0` |
//! | `VMSIM_PROFILE`   | Phase profiler: `on`/`1`, `off`/`0` (default)       |
//! | `VMSIM_HEARTBEAT_OPS` | Heartbeat cadence in machine ops (positive)     |
//! | `VMSIM_GUEST_THREADS` | Simulated guest threads per workload (1..=64)   |
//! | `VMSIM_SERVE_BIND` | `vmsim serve` endpoint: loopback `host:port` or `unix:<path>` |
//! | `VMSIM_SERVE_QUEUE` | `vmsim serve` admission-queue depth (1..=4096)    |
//! | `VMSIM_SERVE_DRAIN_MS` | `vmsim serve` graceful-drain timeout (positive) |
//! | `VMSIM_SERVE_DEADLINE_MS` | `vmsim serve` per-job deadline (positive)    |
//!
//! Parsers are strict: a set-but-malformed value is an [`EnvError`], never a
//! silent fallback to the default. Callers that cannot fail (the worker
//! pool, the memo and heartbeat defaults deep in the engine) use the `*_or`
//! lenient wrappers, which warn once on stderr before falling back. `vmsim validate` surfaces the same
//! errors via [`check`].

use std::sync::Once;

/// Canonical name for the measured-op count override.
pub const VAR_OPS: &str = "VMSIM_OPS";
/// Worker-pool size for scenario-level fan-out.
pub const VAR_THREADS: &str = "VMSIM_THREADS";
/// Event-tracer toggle / ring capacity.
pub const VAR_TRACE: &str = "VMSIM_TRACE";
/// Epoch-sampling interval in machine ops.
pub const VAR_EPOCH_OPS: &str = "VMSIM_EPOCH_OPS";
/// Supervisor chaos drill: deliberately panic one matrix cell.
pub const VAR_CHAOS_CELL: &str = "VMSIM_CHAOS_CELL";
/// Translation memo layer escape hatch (validated bit-invisible; off only
/// for debugging or A/B timing).
pub const VAR_MEMO: &str = "VMSIM_MEMO";
/// Phase-profiler toggle (validated bit-invisible to results).
pub const VAR_PROFILE: &str = "VMSIM_PROFILE";
/// Live-telemetry heartbeat cadence, in machine ops per heartbeat.
pub const VAR_HEARTBEAT_OPS: &str = "VMSIM_HEARTBEAT_OPS";
/// Simulated guest threads per workload process (overrides the manifest's
/// `threads` key). Distinct from [`VAR_THREADS`], which sizes the *host*
/// worker pool and never changes results.
pub const VAR_GUEST_THREADS: &str = "VMSIM_GUEST_THREADS";

/// Upper bound on simulated guest threads (manifest `threads` key and
/// [`VAR_GUEST_THREADS`] alike — kept in sync with manifest validation).
pub const MAX_GUEST_THREADS: u32 = 64;

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

/// A set-but-invalid environment override.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// Which variable was malformed.
    pub var: &'static str,
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

fn parse_u64(var: &'static str, value: String) -> Result<u64, EnvError> {
    value.parse::<u64>().map_err(|_| EnvError {
        var,
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
            var: VAR_OPS,
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
                var: VAR_THREADS,
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

/// Tracer override: `VMSIM_TRACE`. `None` = tracing off; `Some(capacity)` =
/// tracing on with that ring capacity (`1` selects the default capacity).
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not an unsigned integer.
pub fn trace() -> Result<Option<usize>, EnvError> {
    match raw(VAR_TRACE) {
        None => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(0) => Ok(None),
            Ok(1) => Ok(Some(vmsim_obs::DEFAULT_CAPACITY)),
            Ok(n) => Ok(Some(n as usize)),
            Err(_) => Err(EnvError {
                var: VAR_TRACE,
                value: v,
                reason: "expected 0 (off), 1 (on), or a ring capacity",
            }),
        },
    }
}

/// Epoch-sampling override: `VMSIM_EPOCH_OPS`. `None` = sampling off.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not an unsigned integer.
pub fn epoch_ops() -> Result<Option<u64>, EnvError> {
    match raw(VAR_EPOCH_OPS) {
        None => Ok(None),
        Some(v) => match parse_u64(VAR_EPOCH_OPS, v)? {
            0 => Ok(None),
            n => Ok(Some(n)),
        },
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
        var: VAR_CHAOS_CELL,
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

/// Memo-layer override: `VMSIM_MEMO`. `true` (the default) keeps the
/// machine's memoizing translation fast path on; `off`/`0`/`false` forces
/// every access down the naive path. The layer is validated bit-invisible,
/// so this knob only trades wall-clock speed for simplicity when debugging.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not a recognized
/// boolean spelling (`on`/`off`, `1`/`0`, `true`/`false`).
pub fn memo_enabled() -> Result<bool, EnvError> {
    match raw(VAR_MEMO) {
        None => Ok(true),
        Some(v) => match v.to_ascii_lowercase().as_str() {
            "1" | "on" | "true" | "yes" => Ok(true),
            "0" | "off" | "false" | "no" => Ok(false),
            _ => Err(EnvError {
                var: VAR_MEMO,
                value: v,
                reason: "expected on/off, 1/0, or true/false",
            }),
        },
    }
}

/// Lenient wrapper over [`memo_enabled`]: a malformed value warns once and
/// yields `true` (memo on).
pub fn memo_enabled_or_default() -> bool {
    static MALFORMED: Once = Once::new();
    match memo_enabled() {
        Ok(b) => b,
        Err(e) => {
            warn_once(&MALFORMED, &format!("ignoring malformed {e}"));
            true
        }
    }
}

/// Phase-profiler override: `VMSIM_PROFILE`. Off by default; `on`/`1`
/// installs the span profiler on every run's machine. Like the tracer and
/// memo knobs, the profiler is proven bit-invisible to `RunMetrics`, so
/// this only adds wall-clock cost and profile artifacts.
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not a recognized
/// boolean spelling (`on`/`off`, `1`/`0`, `true`/`false`).
pub fn profile() -> Result<bool, EnvError> {
    match raw(VAR_PROFILE) {
        None => Ok(false),
        Some(v) => match v.to_ascii_lowercase().as_str() {
            "1" | "on" | "true" | "yes" => Ok(true),
            "0" | "off" | "false" | "no" => Ok(false),
            _ => Err(EnvError {
                var: VAR_PROFILE,
                value: v,
                reason: "expected on/off, 1/0, or true/false",
            }),
        },
    }
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
                    var: VAR_HEARTBEAT_OPS,
                    value: v,
                    reason: "heartbeat cadence must be positive",
                });
            }
            Ok(Some(n))
        }
    }
}

/// Lenient wrapper over [`heartbeat_ops`]: a malformed value warns once
/// and yields `None` (default cadence).
pub fn heartbeat_ops_or_default() -> Option<u64> {
    static MALFORMED: Once = Once::new();
    match heartbeat_ops() {
        Ok(n) => n,
        Err(e) => {
            warn_once(&MALFORMED, &format!("ignoring malformed {e}"));
            None
        }
    }
}

/// Simulated-guest-thread override: `VMSIM_GUEST_THREADS`. `None` = defer
/// to the workload's `threads` key (default 1, the serial engine). Unlike
/// `VMSIM_THREADS` this knob changes the simulated workload itself — `N > 1`
/// interleaves `N` faulting guest threads deterministically — so it is
/// strict about its range: a positive integer up to [`MAX_GUEST_THREADS`].
///
/// # Errors
///
/// Returns [`EnvError`] if the variable is set but not an integer in
/// `1..=64`.
pub fn guest_threads() -> Result<Option<u32>, EnvError> {
    let Some(v) = raw(VAR_GUEST_THREADS) else {
        return Ok(None);
    };
    match v.parse::<u32>() {
        Ok(n) if (1..=MAX_GUEST_THREADS).contains(&n) => Ok(Some(n)),
        Ok(_) => Err(EnvError {
            var: VAR_GUEST_THREADS,
            value: v,
            reason: "guest thread count must be in 1..=64",
        }),
        Err(_) => Err(EnvError {
            var: VAR_GUEST_THREADS,
            value: v,
            reason: "expected a guest thread count in 1..=64",
        }),
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
            var: VAR_SERVE_BIND,
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
            var: VAR_SERVE_QUEUE,
            value: v,
            reason: "queue depth must be in 1..=4096",
        }),
        Err(_) => Err(EnvError {
            var: VAR_SERVE_QUEUE,
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
                    var: VAR_SERVE_DRAIN_MS,
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
/// so a stuck cell is truncated/quarantined rather than wedging the server.
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
                    var: VAR_SERVE_DEADLINE_MS,
                    value: v,
                    reason: "job deadline must be positive (unset = none)",
                });
            }
            Ok(Some(n))
        }
    }
}

/// Validates every recognized override, returning all errors (empty =
/// clean environment). `vmsim validate` prints these.
pub fn check() -> Vec<EnvError> {
    let mut errors = Vec::new();
    if let Err(e) = measure_ops() {
        errors.push(e);
    }
    if let Err(e) = threads() {
        errors.push(e);
    }
    if let Err(e) = trace() {
        errors.push(e);
    }
    if let Err(e) = epoch_ops() {
        errors.push(e);
    }
    if let Err(e) = chaos_cell() {
        errors.push(e);
    }
    if let Err(e) = memo_enabled() {
        errors.push(e);
    }
    if let Err(e) = profile() {
        errors.push(e);
    }
    if let Err(e) = heartbeat_ops() {
        errors.push(e);
    }
    if let Err(e) = guest_threads() {
        errors.push(e);
    }
    if let Err(e) = serve_bind() {
        errors.push(e);
    }
    if let Err(e) = serve_queue() {
        errors.push(e);
    }
    if let Err(e) = serve_drain_ms() {
        errors.push(e);
    }
    if let Err(e) = serve_deadline_ms() {
        errors.push(e);
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Env vars are process-global; every combination runs in one test to
    /// avoid racing parallel test threads on the same variables.
    #[test]
    fn strict_parsing() {
        for var in [
            VAR_OPS,
            VAR_THREADS,
            VAR_TRACE,
            VAR_EPOCH_OPS,
            VAR_PROFILE,
            VAR_HEARTBEAT_OPS,
        ] {
            std::env::remove_var(var);
        }
        assert_eq!(measure_ops(), Ok(None));
        assert_eq!(threads(), Ok(None));
        assert_eq!(trace(), Ok(None));
        assert_eq!(epoch_ops(), Ok(None));
        assert!(check().is_empty());

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

        std::env::set_var(VAR_TRACE, "1");
        assert_eq!(trace(), Ok(Some(vmsim_obs::DEFAULT_CAPACITY)));
        std::env::set_var(VAR_TRACE, "4096");
        assert_eq!(trace(), Ok(Some(4096)));
        std::env::set_var(VAR_TRACE, "yes");
        assert!(trace().is_err());

        std::env::set_var(VAR_EPOCH_OPS, "500");
        assert_eq!(epoch_ops(), Ok(Some(500)));
        std::env::set_var(VAR_EPOCH_OPS, "soon");
        assert!(epoch_ops().is_err());

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

        // Memo knob: defaults on, accepts boolean spellings, rejects junk.
        assert_eq!(memo_enabled(), Ok(true));
        for (v, want) in [
            ("on", true),
            ("1", true),
            ("true", true),
            ("off", false),
            ("0", false),
            ("FALSE", false),
        ] {
            std::env::set_var(VAR_MEMO, v);
            assert_eq!(memo_enabled(), Ok(want), "VMSIM_MEMO={v}");
        }
        std::env::set_var(VAR_MEMO, "maybe");
        assert!(memo_enabled().is_err());
        assert!(memo_enabled_or_default());

        // Profiler knob: defaults off, boolean spellings, rejects junk.
        assert_eq!(profile(), Ok(false));
        for (v, want) in [("on", true), ("1", true), ("off", false), ("NO", false)] {
            std::env::set_var(VAR_PROFILE, v);
            assert_eq!(profile(), Ok(want), "VMSIM_PROFILE={v}");
        }
        std::env::set_var(VAR_PROFILE, "sometimes");
        assert!(profile().is_err());

        // Heartbeat cadence: positive op interval, default when unset.
        assert_eq!(heartbeat_ops(), Ok(None));
        std::env::set_var(VAR_HEARTBEAT_OPS, "2500");
        assert_eq!(heartbeat_ops(), Ok(Some(2500)));
        for bad in ["0", "often"] {
            std::env::set_var(VAR_HEARTBEAT_OPS, bad);
            assert!(heartbeat_ops().is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(heartbeat_ops_or_default(), None);

        // Guest threads: strict 1..=64, defers to the manifest when unset.
        assert_eq!(guest_threads(), Ok(None));
        std::env::set_var(VAR_GUEST_THREADS, "4");
        assert_eq!(guest_threads(), Ok(Some(4)));
        std::env::set_var(VAR_GUEST_THREADS, "64");
        assert_eq!(guest_threads(), Ok(Some(64)));
        for bad in ["0", "65", "-1", "some"] {
            std::env::set_var(VAR_GUEST_THREADS, bad);
            assert!(guest_threads().is_err(), "{bad:?} must be rejected");
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

        // check() reports every malformed variable at once.
        let errors = check();
        assert_eq!(errors.len(), 13);
        for var in [
            VAR_OPS,
            VAR_THREADS,
            VAR_TRACE,
            VAR_EPOCH_OPS,
            VAR_CHAOS_CELL,
            VAR_MEMO,
            VAR_PROFILE,
            VAR_HEARTBEAT_OPS,
            VAR_GUEST_THREADS,
            VAR_SERVE_BIND,
            VAR_SERVE_QUEUE,
            VAR_SERVE_DRAIN_MS,
            VAR_SERVE_DEADLINE_MS,
        ] {
            assert!(errors.iter().any(|e| e.var == var), "{var} reported");
        }

        for var in [
            VAR_OPS,
            VAR_THREADS,
            VAR_TRACE,
            VAR_EPOCH_OPS,
            VAR_CHAOS_CELL,
            VAR_MEMO,
            VAR_PROFILE,
            VAR_HEARTBEAT_OPS,
            VAR_GUEST_THREADS,
            VAR_SERVE_BIND,
            VAR_SERVE_QUEUE,
            VAR_SERVE_DRAIN_MS,
            VAR_SERVE_DEADLINE_MS,
        ] {
            std::env::remove_var(var);
        }
    }
}
