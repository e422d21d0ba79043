//! `vmsim serve`: a resident, crash-safe experiment job server.
//!
//! A [`Server`] listens on localhost TCP or a Unix socket (std::net only —
//! no async runtime), accepts experiment manifests as single-line JSON
//! requests, executes them through the same supervised driver and
//! [`crate::artifacts`] writer as `vmsim run`, and streams status lines
//! back to the client. Robustness is the design center:
//!
//! * **Bounded admission.** New jobs enter a queue capped at
//!   `VMSIM_SERVE_QUEUE` entries; a full queue answers with a typed
//!   `overloaded` rejection instead of buffering unboundedly.
//! * **Crash recovery.** Every accepted job is appended to
//!   `<out>/serve.jobs.jsonl` *before* it runs, and each job's cells are
//!   journaled exactly like `vmsim run`. A `kill -9`'d server replays
//!   interrupted jobs on restart — completed cells from the cell journal,
//!   the rest re-executed — into byte-identical artifacts. A torn journal
//!   tail is dropped and the file rewritten as its clean prefix before
//!   new admissions append (mirroring the cell journal's resume); a
//!   journal from an incompatible server version is rotated aside to
//!   `serve.jobs.jsonl.bak` with a logged warning.
//! * **Result cache.** Jobs are content-addressed by the FNV manifest
//!   hash ([`crate::journal::manifest_hash`]); resubmitting a completed
//!   manifest answers from the cache without re-execution.
//! * **Deadlines and budgets.** `VMSIM_SERVE_DEADLINE_MS` caps every
//!   job's per-cell soft wall (tightening, never loosening, what the
//!   manifest asks for), so stuck matrix cells are truncated or
//!   quarantined by the existing supervisor machinery rather than wedging
//!   the server. Alloc-latency and walk-breakdown jobs run outside the
//!   cell supervisor, so the deadline does not bound them.
//! * **Graceful drain.** SIGTERM (or the `drain` request) stops admission,
//!   lets the in-flight job finish and persist its journals, answers
//!   queued-but-unstarted waiters with `deferred` (they recover on the
//!   next start), and exits 0 within `VMSIM_SERVE_DRAIN_MS`.
//! * **Prompt accept.** The accept loop waits in `poll(2)` on the
//!   listener, so a connection is accepted as soon as it arrives. The
//!   wait times out after 25 ms, which bounds only how long a drain
//!   request or SIGTERM takes to be noticed.
//! * **Steady memory.** After each job the executor hands the allocator's
//!   free pages back to the OS (`malloc_trim` on glibc), so the resident
//!   set follows what one job needs rather than how many per-thread
//!   arenas earlier jobs happened to use.
//!
//! # Line protocol
//!
//! One JSON object per line, request then response(s):
//!
//! ```text
//! → {"op": "submit", "manifest_json": "<manifest file text, JSON-escaped>", "wait": true}
//! ← {"ok": true, "job": "<16 hex>", "state": "accepted", "position": 1}
//! ← {"job": "<16 hex>", "state": "running"}            (heartbeats while waiting)
//! ← {"job": "<16 hex>", "state": "done", "exit": 0, "results": "...", "cached": false}
//! ```
//!
//! Rejections are typed: `{"ok": false, "error": "overloaded", ...}`,
//! `"draining"`, or `"invalid"` (with a `"message"`). `{"op": "health"}`
//! answers with the drain state and the full `serve.*` gauge group;
//! `{"op": "status"}` adds the queue contents; `{"op": "drain"}` starts a
//! graceful drain remotely.
//!
//! The actual bound address is written to `<out>/serve.addr` (useful with
//! `VMSIM_SERVE_BIND=127.0.0.1:0`), and removed again on clean exit.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vmsim_config::{env, EnvError, ExperimentManifest, ExperimentSpec, ServeBind, SupervisorSpec};
use vmsim_obs::json::Json;
use vmsim_obs::{json, Metric, MetricSource, Registry};

use crate::artifacts;
use crate::driver::{preflight, run_supervised, Supervisor};
use crate::journal::{self, Journal};

/// Format version of the admission journal (`serve.jobs.jsonl`).
const JOBS_VERSION: u64 = 1;

/// How long the accept loop waits for a connection before it looks at
/// the drain and SIGTERM flags again. A pending connection ends the wait
/// at once, so this bounds only how late a drain is noticed.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Cadence of `running`/`queued` heartbeat lines to a waiting client.
const WAIT_HEARTBEAT: Duration = Duration::from_secs(1);

/// Socket write timeout on accepted connections: a client that stops
/// reading fills its receive window and then errors our writes out,
/// instead of blocking a connection thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Set by the SIGTERM handler; the accept loop converts it into a drain.
static SIGTERM_DRAIN: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that requests a graceful drain.
///
/// The handler only stores into an `AtomicBool` (async-signal-safe); the
/// accept loop checks the flag. `signal(2)` keeps `SA_RESTART` semantics,
/// which is why the listener runs nonblocking and the loop waits in
/// `poll(2)` with a timeout instead of parking in `accept`.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    const SIGTERM: i32 = 15;
    extern "C" fn on_term(_signum: i32) {
        SIGTERM_DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
    }
}

#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

/// Hands the allocator's free pages back to the OS once a job is done.
///
/// Every job runs its cells on freshly spawned pool threads, and glibc
/// gives each thread one of its per-thread arenas, picked by which threads
/// happen to be alive at the time. Each arena keeps the memory its jobs
/// freed, so without a trim the server's resident set tracks how many
/// arenas its jobs have landed in, not what any one job needs. Under the
/// serve benchmark on a 2-vCPU host it swung between about 41 and 52 MB
/// from run to run with the same jobs, against about 21 MB with a single
/// arena and about 30 MB with this trim.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // pages of glibc's own heaps; it is safe to call from any thread at
    // any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Everything `vmsim serve` needs to come up, read from the strict
/// `VMSIM_SERVE_*` environment knobs plus the output directory.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`VMSIM_SERVE_BIND`, loopback TCP or `unix:<path>`).
    pub bind: ServeBind,
    /// Admission-queue capacity (`VMSIM_SERVE_QUEUE`).
    pub queue_depth: usize,
    /// Graceful-drain budget in milliseconds (`VMSIM_SERVE_DRAIN_MS`).
    pub drain_ms: u64,
    /// Per-job deadline applied as a per-cell soft-wall cap
    /// (`VMSIM_SERVE_DEADLINE_MS`; unset = no cap).
    pub deadline_ms: Option<u64>,
    /// Where job artifacts, journals, and `serve.addr` live.
    pub out_dir: PathBuf,
}

impl ServeConfig {
    /// Reads the `VMSIM_SERVE_*` knobs, failing on any malformed value or
    /// unknown `VMSIM_*` variable (the CLI maps this to exit 2 — a bad knob
    /// never half-starts a server).
    pub fn from_env(out_dir: &Path) -> Result<ServeConfig, EnvError> {
        env::reject_unknown()?;
        let bind = match env::serve_bind()? {
            Some(bind) => bind,
            None => ServeBind::parse(env::DEFAULT_SERVE_BIND).expect("default bind parses"),
        };
        Ok(ServeConfig {
            bind,
            queue_depth: env::serve_queue()?.unwrap_or(env::DEFAULT_SERVE_QUEUE),
            drain_ms: env::serve_drain_ms()?.unwrap_or(env::DEFAULT_SERVE_DRAIN_MS),
            deadline_ms: env::serve_deadline_ms()?,
            out_dir: out_dir.to_path_buf(),
        })
    }
}

/// The `serve.*` gauge group ([`MetricSource`]): one snapshot of what the
/// server has done and how loaded it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs currently queued (not counting the one in flight).
    pub queue_depth: u64,
    /// Jobs admitted to the queue (including recovered ones).
    pub accepted: u64,
    /// Submissions refused with `overloaded` or `draining`.
    pub rejected: u64,
    /// Jobs replayed from the admission journal at startup.
    pub recovered: u64,
    /// Jobs that finished executing (any exit).
    pub completed: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Jobs that finished with quarantined cells.
    pub quarantined: u64,
    /// Submissions rejected as invalid (unparseable or failing validation).
    pub invalid: u64,
    /// 1 while draining, else 0.
    pub draining: u64,
}

impl MetricSource for ServeStats {
    fn source_name(&self) -> &'static str {
        "serve"
    }

    fn emit(&self, out: &mut Vec<Metric>) {
        out.push(Metric::u64("queue_depth", self.queue_depth));
        out.push(Metric::u64("accepted", self.accepted));
        out.push(Metric::u64("rejected", self.rejected));
        out.push(Metric::u64("recovered", self.recovered));
        out.push(Metric::u64("completed", self.completed));
        out.push(Metric::u64("cache_hits", self.cache_hits));
        out.push(Metric::u64("quarantined", self.quarantined));
        out.push(Metric::u64("invalid", self.invalid));
        out.push(Metric::u64("draining", self.draining));
    }
}

/// How one job ended.
#[derive(Clone, Debug)]
struct JobResult {
    /// `vmsim run` exit-code semantics: 0 clean, 1 artifact failure,
    /// 2 invalid, 3 quarantined.
    exit: u8,
    /// Path of the merged results JSON (empty when nothing was written).
    results: String,
    /// Diagnostic for non-zero exits.
    error: Option<String>,
}

/// Tri-state a waiting client observes.
enum JobState {
    Pending,
    Finished(JobResult),
    /// Drain started before the job ran; it stays journaled and recovers
    /// on the next server start.
    Deferred,
}

struct DoneCell {
    state: Mutex<JobState>,
    cv: Condvar,
}

impl DoneCell {
    fn new() -> Arc<DoneCell> {
        Arc::new(DoneCell {
            state: Mutex::new(JobState::Pending),
            cv: Condvar::new(),
        })
    }

    fn finish(&self, state: JobState) {
        *self.state.lock().expect("done lock") = state;
        self.cv.notify_all();
    }
}

/// One admitted job.
struct Job {
    /// 16-hex FNV manifest hash — the content address.
    id: String,
    manifest: ExperimentManifest,
    done: Arc<DoneCell>,
}

#[derive(Default)]
struct Counters {
    accepted: u64,
    rejected: u64,
    recovered: u64,
    completed: u64,
    cache_hits: u64,
    quarantined: u64,
    invalid: u64,
}

struct QueueState {
    q: VecDeque<Job>,
    in_flight: Option<String>,
}

/// State shared between the accept loop, connection threads, and the
/// executor.
struct Shared {
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    counters: Mutex<Counters>,
    /// job id → results path, for cache-hit replies without re-execution.
    cache: Mutex<HashMap<String, String>>,
    /// job ids currently queued or in flight, sharing their done cells so
    /// duplicate submissions attach instead of double-running.
    waiters: Mutex<HashMap<String, Arc<DoneCell>>>,
    /// Admission journal appender (`None` after an I/O error: the server
    /// keeps running, but new admissions are refused as `unjournaled`
    /// would be unsound — see `journal_accept`).
    jobs_log: Mutex<Option<File>>,
    draining: AtomicBool,
    stop: AtomicBool,
    queue_limit: usize,
    deadline_ms: Option<u64>,
    out_dir: PathBuf,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let c = self.counters.lock().expect("counters lock");
        let qs = self.queue.lock().expect("queue lock");
        ServeStats {
            queue_depth: qs.q.len() as u64,
            accepted: c.accepted,
            rejected: c.rejected,
            recovered: c.recovered,
            completed: c.completed,
            cache_hits: c.cache_hits,
            quarantined: c.quarantined,
            invalid: c.invalid,
            draining: u64::from(self.draining.load(Ordering::SeqCst)),
        }
    }

    /// Appends one line to the admission journal and flushes it. Returns
    /// false (and drops the journal) on the first I/O error.
    fn journal_line(&self, line: &str) -> bool {
        let mut log = self.jobs_log.lock().expect("jobs log lock");
        let Some(file) = log.as_mut() else {
            return false;
        };
        if file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .is_err()
        {
            *log = None;
            return false;
        }
        true
    }
}

/// A bound listener, TCP or Unix, polled nonblocking.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// One accepted connection.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl Listener {
    fn bind(bind: &ServeBind) -> std::io::Result<Listener> {
        match bind {
            ServeBind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            #[cfg(unix)]
            ServeBind::Unix(path) => {
                // The server owns the path: a stale socket left by a
                // killed predecessor is removed, not an error.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            #[cfg(not(unix))]
            ServeBind::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not supported on this platform",
            )),
        }
    }

    /// The client-facing address (`host:port`, or `unix:<path>`).
    fn public_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "?".into(), |a| a.to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    /// Waits until a connection is pending or `timeout` has passed,
    /// whichever comes first (a signal may also end the wait early).
    #[cfg(unix)]
    fn wait_pending(&self, timeout: Duration) {
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_short};
        #[cfg(target_os = "linux")]
        type Nfds = std::os::raw::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type Nfds = std::os::raw::c_uint;
        #[repr(C)]
        struct PollFd {
            fd: c_int,
            events: c_short,
            revents: c_short,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
        }
        const POLLIN: c_short = 1;
        let fd = match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        };
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: `pfd` is one valid, exclusively borrowed `struct pollfd`
        // that outlives the call, and `nfds` is 1. The listener owns `fd`,
        // so it stays open for the duration. The result only tells why the
        // wait ended, which the accept that follows finds out anyway.
        unsafe {
            poll(&mut pfd, 1, millis);
        }
    }

    #[cfg(not(unix))]
    fn wait_pending(&self, timeout: Duration) {
        std::thread::sleep(timeout);
    }
}

/// A resident job server bound to its listen address, executor running.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
    addr: String,
    drain_ms: u64,
    executor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, replays the admission journal (recovering
    /// accepted-but-unfinished jobs and rebuilding the result cache), and
    /// spawns the executor.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic string when the address cannot be bound or
    /// the output directory / admission journal cannot be set up.
    pub fn new(config: &ServeConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&config.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", config.out_dir.display()))?;
        let listener = Listener::bind(&config.bind)
            .map_err(|e| format!("cannot bind {}: {e}", config.bind))?;
        let addr = listener.public_addr();

        let jobs_path = config.out_dir.join("serve.jobs.jsonl");
        let (pending, cache, recovered) = match replay_jobs(&jobs_path) {
            Replay::Fresh => (Vec::new(), HashMap::new(), 0),
            Replay::VersionMismatch(found) => {
                rotate_jobs_log(&jobs_path, found)?;
                (Vec::new(), HashMap::new(), 0)
            }
            Replay::Resumed(replay) => {
                if replay.dropped {
                    eprintln!(
                        "vmsim serve: {}: dropping corrupt admission-journal tail \
                         (interrupted append, or a job id that is not its manifest's hash)",
                        jobs_path.display()
                    );
                }
                // Repair before reopening for append: rewrite the clean
                // parsed prefix (newline-terminated) so the next accepted
                // line never concatenates onto a torn record — mirroring
                // Journal::resume's rewrite of the cell journal.
                std::fs::write(&jobs_path, &replay.kept)
                    .map_err(|e| format!("cannot repair {}: {e}", jobs_path.display()))?;
                let recovered = replay.pending.len() as u64;
                (replay.pending, replay.cache, recovered)
            }
        };
        let jobs_log = open_jobs_log(&jobs_path)
            .map_err(|e| format!("cannot open {}: {e}", jobs_path.display()))?;

        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                in_flight: None,
            }),
            work_cv: Condvar::new(),
            counters: Mutex::new(Counters {
                recovered,
                accepted: recovered,
                ..Counters::default()
            }),
            cache: Mutex::new(cache),
            waiters: Mutex::new(HashMap::new()),
            jobs_log: Mutex::new(Some(jobs_log)),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            queue_limit: config.queue_depth,
            deadline_ms: config.deadline_ms,
            out_dir: config.out_dir.clone(),
        });

        // Recovered jobs re-enter the queue ahead of any new admission
        // (they were accepted first); the admission bound applies only to
        // new work — what was journaled must run.
        {
            let mut qs = shared.queue.lock().expect("queue lock");
            let mut waiters = shared.waiters.lock().expect("waiters lock");
            for (id, manifest) in pending {
                let done = DoneCell::new();
                waiters.insert(id.clone(), Arc::clone(&done));
                qs.q.push_back(Job { id, manifest, done });
            }
        }

        let exec_shared = Arc::clone(&shared);
        let executor = std::thread::Builder::new()
            .name("vmsim-serve-executor".into())
            .spawn(move || executor_loop(&exec_shared))
            .map_err(|e| format!("cannot spawn executor: {e}"))?;

        // Advertise the actual address (VMSIM_SERVE_BIND=127.0.0.1:0 binds
        // an ephemeral port; clients and CI read this file to find it).
        let addr_path = config.out_dir.join("serve.addr");
        std::fs::write(&addr_path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {}: {e}", addr_path.display()))?;

        Ok(Server {
            shared,
            listener,
            addr,
            drain_ms: config.drain_ms,
            executor: Some(executor),
        })
    }

    /// The client-facing address the server actually bound.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Jobs recovered from the admission journal at startup.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.shared
            .counters
            .lock()
            .expect("counters lock")
            .recovered
    }

    /// Runs the accept loop until a drain completes. Returns the process
    /// exit code: 0 for a clean drain (in-flight work finished and
    /// persisted), 1 when the drain deadline expired with a job still
    /// running.
    pub fn run(mut self) -> u8 {
        let mut drain_deadline: Option<Instant> = None;
        let mut forced = false;
        loop {
            if SIGTERM_DRAIN.load(Ordering::SeqCst) {
                self.shared.draining.store(true, Ordering::SeqCst);
            }
            let draining = self.shared.draining.load(Ordering::SeqCst);
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + Duration::from_millis(self.drain_ms));
                // Wake an idle executor so it can observe the drain.
                self.shared.work_cv.notify_all();
                eprintln!("vmsim serve: draining (finishing in-flight work)");
            }
            if draining {
                let idle = self
                    .shared
                    .queue
                    .lock()
                    .expect("queue lock")
                    .in_flight
                    .is_none();
                if idle {
                    break;
                }
                if drain_deadline.is_some_and(|dl| Instant::now() >= dl) {
                    forced = true;
                    break;
                }
            }
            match self.listener.accept() {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    let _ = std::thread::Builder::new()
                        .name("vmsim-serve-conn".into())
                        .spawn(move || handle_conn(&shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.listener.wait_pending(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }

        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        if !forced {
            if let Some(handle) = self.executor.take() {
                let _ = handle.join();
            }
        }
        // Queued-but-unstarted jobs stay in the admission journal and
        // recover on the next start; tell their waiters now.
        defer_queued(&self.shared);

        let _ = std::fs::remove_file(self.shared.out_dir.join("serve.addr"));
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        let stats = self.shared.stats();
        eprintln!(
            "vmsim serve: drained ({} completed, {} queued for next start{})",
            stats.completed,
            stats.queue_depth,
            if forced {
                ", drain deadline expired"
            } else {
                ""
            }
        );
        u8::from(forced)
    }
}

/// Answers queued-but-unstarted waiters with `deferred` after a drain.
fn defer_queued(shared: &Shared) {
    let qs = shared.queue.lock().expect("queue lock");
    for job in &qs.q {
        job.done.finish(JobState::Deferred);
    }
}

/// Opens the admission journal for appending, writing the header if the
/// file is new or empty.
fn open_jobs_log(path: &Path) -> std::io::Result<File> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if file.metadata()?.len() == 0 {
        file.write_all(format!("{{\"serve_jobs\": {JOBS_VERSION}}}\n").as_bytes())?;
        file.flush()?;
    }
    Ok(file)
}

/// What [`replay_jobs`] found on disk.
enum Replay {
    /// No admission journal (first start on this output directory).
    Fresh,
    /// The header declares a version this server does not speak; the
    /// caller rotates the file aside rather than silently discarding the
    /// journaled work or appending mixed-version entries.
    VersionMismatch(Option<u64>),
    /// A readable journal: pending work, cache seed, and the clean prefix
    /// to rewrite over the file before appending resumes.
    Resumed(ReplayedJobs),
}

struct ReplayedJobs {
    pending: Vec<(String, ExperimentManifest)>,
    cache: HashMap<String, String>,
    /// The clean parsed prefix — canonical header plus every valid line,
    /// each newline-terminated. Rewritten over the file on startup so an
    /// append never lands on a torn record.
    kept: String,
    /// True when a corrupt tail (torn final write from a `kill -9`, or a
    /// mismatched job id) was dropped from the replay.
    dropped: bool,
}

/// Replays the admission journal: jobs accepted but never finished come
/// back as pending work (in admission order); finished jobs whose results
/// file still exists seed the cache. A corrupt tail (torn final write
/// from a `kill -9`, or an `accepted` line whose job id is not its
/// manifest's hash) truncates the replay, exactly like the cell journal,
/// and the returned `kept` prefix lets the caller repair the file.
fn replay_jobs(path: &Path) -> Replay {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Replay::Fresh;
    };
    let mut replay = ReplayedJobs {
        pending: Vec::new(),
        cache: HashMap::new(),
        kept: format!("{{\"serve_jobs\": {JOBS_VERSION}}}\n"),
        dropped: false,
    };
    for (n, line) in text.lines().enumerate() {
        let Ok(doc) = json::parse(line) else {
            replay.dropped = true;
            break; // corrupt tail: everything after is untrustworthy
        };
        if n == 0 {
            let found = doc.get("serve_jobs").and_then(Json::as_u64);
            if found != Some(JOBS_VERSION) {
                return Replay::VersionMismatch(found);
            }
            continue;
        }
        let valid = doc
            .get("event")
            .and_then(|e| e.as_str())
            .zip(doc.get("job").and_then(|j| j.as_str()))
            .and_then(|(event, id)| match event {
                "accepted" => {
                    let manifest = doc
                        .get("manifest_json")
                        .and_then(|m| m.as_str())
                        .and_then(|text| ExperimentManifest::from_json(text).ok())?;
                    // The id is the manifest's content address: a line
                    // whose id names another manifest would answer that
                    // manifest's submits with this one's results.
                    if format!("{:016x}", journal::manifest_hash(&manifest)) != id {
                        return None;
                    }
                    if !replay.pending.iter().any(|(p, _)| p == id) {
                        replay.pending.push((id.to_string(), manifest));
                    }
                    Some(())
                }
                "done" => {
                    replay.pending.retain(|(p, _)| p != id);
                    if doc.get("exit").and_then(Json::as_u64) == Some(0) {
                        if let Some(results) = doc.get("results").and_then(|r| r.as_str()) {
                            if Path::new(results).exists() {
                                replay.cache.insert(id.to_string(), results.to_string());
                            }
                        }
                    }
                    Some(())
                }
                _ => None,
            });
        if valid.is_none() {
            replay.dropped = true;
            break;
        }
        replay.kept.push_str(line);
        replay.kept.push('\n');
    }
    Replay::Resumed(replay)
}

/// Rotates an admission journal with an unsupported version aside (to
/// `serve.jobs.jsonl.bak`) with a logged warning, so the old entries are
/// preserved for inspection and the fresh journal starts with the current
/// header — never a mixed-version file or silently discarded work.
fn rotate_jobs_log(path: &Path, found: Option<u64>) -> Result<(), String> {
    let bak = path.with_extension("jsonl.bak");
    std::fs::rename(path, &bak)
        .map_err(|e| format!("cannot rotate {} aside: {e}", path.display()))?;
    let found = found.map_or_else(|| "?".to_string(), |v| v.to_string());
    eprintln!(
        "vmsim serve: {}: admission journal version {found} is not {JOBS_VERSION}; \
         rotated aside to {} (its jobs will not be recovered)",
        path.display(),
        bak.display()
    );
    Ok(())
}

/// The executor: pops admitted jobs one at a time and runs them through
/// the supervised driver. Stops popping as soon as a drain begins (the
/// job already running finishes and persists first).
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut qs = shared.queue.lock().expect("queue lock");
            loop {
                if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = qs.q.pop_front() {
                    qs.in_flight = Some(job.id.clone());
                    break job;
                }
                qs = shared
                    .work_cv
                    .wait_timeout(qs, Duration::from_millis(100))
                    .expect("work cv")
                    .0;
            }
        };

        let result = execute(shared, &job);
        release_free_memory();

        {
            let mut line = String::with_capacity(128);
            let _ = write!(line, "{{\"event\": \"done\", \"job\": \"{}\"", job.id);
            let _ = write!(line, ", \"exit\": {}", result.exit);
            line.push_str(", \"results\": ");
            json::write_str(&mut line, &result.results);
            line.push_str("}\n");
            shared.journal_line(&line);
        }
        {
            let mut c = shared.counters.lock().expect("counters lock");
            c.completed += 1;
            if result.exit == 3 {
                c.quarantined += 1;
            }
        }
        if result.exit == 0 {
            shared
                .cache
                .lock()
                .expect("cache lock")
                .insert(job.id.clone(), result.results.clone());
        }
        shared.waiters.lock().expect("waiters lock").remove(&job.id);
        shared.queue.lock().expect("queue lock").in_flight = None;
        job.done.finish(JobState::Finished(result));
    }
}

/// Runs one job: journaled supervised execution into `<out>/<job id>/`,
/// artifacts through the shared writer — the exact `vmsim run` pipeline,
/// which is what makes recovered artifacts byte-identical.
fn execute(shared: &Shared, job: &Job) -> JobResult {
    let dir = shared.out_dir.join(&job.id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return JobResult {
            exit: 1,
            results: String::new(),
            error: Some(format!("cannot create {}: {e}", dir.display())),
        };
    }

    let mut manifest = job.manifest.clone();
    if let Some(deadline) = shared.deadline_ms {
        // The job deadline tightens (never loosens) the per-cell soft
        // wall, so a stuck cell hits the supervisor's watchdog instead of
        // wedging the server.
        let spec = manifest.supervisor.get_or_insert(SupervisorSpec::default());
        spec.soft_wall_ms = Some(spec.soft_wall_ms.map_or(deadline, |w| w.min(deadline)));
    }

    // Same journaling rules as `vmsim run`: matrix cells are journaled; a
    // journal left by a killed predecessor is resumed for byte-identical
    // replay, an unusable one is rebuilt from scratch, and one that cannot
    // be created fails the job, which still runs unjournaled.
    let mut diagnostics = Vec::new();
    let mut failures = 0;
    let journal = if matches!(manifest.experiment, ExperimentSpec::Matrix(_)) {
        let jpath = dir.join(format!("{}.journal.jsonl", manifest.name));
        match Journal::resume(&jpath, &manifest).or_else(|_| Journal::create(&jpath, &manifest)) {
            Ok(j) => Some(j),
            Err(e) => {
                diagnostics.push(format!("FAIL journal: {e}"));
                failures += 1;
                None
            }
        }
    } else {
        None
    };

    let sup = Supervisor {
        journal: journal.as_ref(),
        chaos: None,
        progress: None,
    };
    let t0 = Instant::now();
    let run = match run_supervised(&manifest, &sup) {
        Ok(run) => run,
        Err(e) => {
            return JobResult {
                exit: 2,
                results: String::new(),
                error: Some(e.to_string()),
            }
        }
    };
    let set = artifacts::write_all(&run, &dir, t0.elapsed().as_secs_f64(), &mut |line| {
        diagnostics.push(line.to_string());
    });
    failures += set.failures;
    if let Some(err) = journal.as_ref().and_then(Journal::io_error) {
        diagnostics.push(format!("FAIL journal: {err}"));
        failures += 1;
    }
    for line in &diagnostics {
        eprintln!("vmsim serve: job {}: {line}", job.id);
    }

    let exit = if run.supervision.quarantined > 0 {
        3
    } else if failures > 0 {
        1
    } else {
        0
    };
    JobResult {
        exit,
        results: set.results_path.display().to_string(),
        error: (exit != 0).then(|| {
            diagnostics
                .iter()
                .find(|l| l.starts_with("FAIL"))
                .cloned()
                .unwrap_or_else(|| format!("{} cell(s) quarantined", run.supervision.quarantined))
        }),
    }
}

/// Handles one connection: one request line, one or more response lines.
fn handle_conn(shared: &Arc<Shared>, stream: Stream) {
    match &stream {
        Stream::Tcp(s) => {
            let _ = s.set_nonblocking(false);
            let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = s.set_write_timeout(Some(WRITE_TIMEOUT));
        }
        #[cfg(unix)]
        Stream::Unix(s) => {
            let _ = s.set_nonblocking(false);
            let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = s.set_write_timeout(Some(WRITE_TIMEOUT));
        }
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    let stream = reader.get_mut();
    let Ok(doc) = json::parse(line.trim()) else {
        let _ = writeln!(
            stream,
            "{{\"ok\": false, \"error\": \"invalid\", \"message\": \"request is not a JSON object\"}}"
        );
        return;
    };
    match doc.get("op").and_then(|o| o.as_str()) {
        Some("submit") => handle_submit(shared, stream, &doc),
        Some("health") => {
            let _ = writeln!(stream, "{}", health_line(shared, false));
        }
        Some("status") => {
            let _ = writeln!(stream, "{}", health_line(shared, true));
        }
        Some("drain") => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.work_cv.notify_all();
            let _ = writeln!(stream, "{{\"ok\": true, \"state\": \"draining\"}}");
        }
        _ => {
            let _ = writeln!(
                stream,
                "{{\"ok\": false, \"error\": \"invalid\", \"message\": \"unknown op (want submit|status|health|drain)\"}}"
            );
        }
    }
    let _ = stream.flush();
}

/// The health/readiness probe line: drain state plus the full `serve.*`
/// gauge group; `status` adds the queue contents.
fn health_line(shared: &Shared, with_queue: bool) -> String {
    let stats = shared.stats();
    let mut registry = Registry::new();
    registry.record(&stats);
    let snapshot = registry.snapshot(0);
    let state = if stats.draining == 1 {
        "draining"
    } else {
        "ready"
    };
    let mut out = format!(
        "{{\"ok\": true, \"state\": \"{state}\", \"serve\": {}",
        snapshot.group_json("serve")
    );
    if with_queue {
        let qs = shared.queue.lock().expect("queue lock");
        out.push_str(", \"in_flight\": ");
        match &qs.in_flight {
            Some(id) => json::write_str(&mut out, id),
            None => out.push_str("null"),
        }
        out.push_str(", \"queued\": [");
        for (i, job) in qs.q.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &job.id);
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Exit code for a submission the server refused (overloaded, draining,
/// admission journal unavailable) or deferred by a drain.
pub const EXIT_REFUSED: u8 = 4;

fn connect(bind: &ServeBind) -> std::io::Result<Stream> {
    match bind {
        ServeBind::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
        #[cfg(unix)]
        ServeBind::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        #[cfg(not(unix))]
        ServeBind::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not supported on this platform",
        )),
    }
}

/// The `vmsim submit` client: submits one manifest and prints every
/// protocol line to stdout.
///
/// Returns the subcommand's exit code: the job's own `vmsim run`-style
/// exit (0/1/2/3) once it finishes (or is answered from the cache),
/// [`EXIT_REFUSED`] when the server refuses or defers it, 2 for an
/// invalid request, 1 for transport failures.
pub fn client_submit(bind: &ServeBind, manifest_text: &str, wait: bool) -> u8 {
    let stream = match connect(bind) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vmsim submit: cannot connect to {bind}: {e}");
            return 1;
        }
    };
    let mut request = String::from("{\"op\": \"submit\", \"manifest_json\": ");
    json::write_str(&mut request, manifest_text);
    let _ = write!(request, ", \"wait\": {wait}}}");
    request.push('\n');

    let mut reader = BufReader::new(stream);
    if reader
        .get_mut()
        .write_all(request.as_bytes())
        .and_then(|()| reader.get_mut().flush())
        .is_err()
    {
        eprintln!("vmsim submit: cannot send request");
        return 1;
    }
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                eprintln!("vmsim submit: server closed the connection");
                return 1;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("vmsim submit: read: {e}");
                return 1;
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        println!("{trimmed}");
        let Ok(doc) = json::parse(trimmed) else {
            eprintln!("vmsim submit: unparseable response line");
            return 1;
        };
        if doc.get("ok").and_then(Json::as_bool) == Some(false) {
            return match doc.get("error").and_then(|e| e.as_str()) {
                Some("invalid") => 2,
                _ => EXIT_REFUSED, // overloaded | draining | unjournaled
            };
        }
        match doc.get("state").and_then(|s| s.as_str()) {
            Some("done") => {
                let exit = doc.get("exit").and_then(Json::as_u64).unwrap_or(1);
                return u8::try_from(exit).unwrap_or(1);
            }
            Some("deferred") => return EXIT_REFUSED,
            Some("accepted") if !wait => return 0,
            _ => {} // accepted (still waiting) or a heartbeat line
        }
    }
}

/// Sends one bare op (`health`, `status`, or `drain`) and returns the
/// single response line.
///
/// # Errors
///
/// Returns a diagnostic when the server is unreachable or answers with
/// something other than one line of JSON.
pub fn client_request(bind: &ServeBind, op: &str) -> Result<String, String> {
    let stream = connect(bind).map_err(|e| format!("cannot connect to {bind}: {e}"))?;
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(format!("{{\"op\": \"{op}\"}}\n").as_bytes())
        .and_then(|()| reader.get_mut().flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    let trimmed = line.trim();
    json::parse(trimmed).map_err(|e| format!("unparseable response: {e:?}"))?;
    Ok(trimmed.to_string())
}

fn handle_submit(shared: &Arc<Shared>, stream: &mut Stream, doc: &Json) {
    let invalid = |stream: &mut Stream, shared: &Shared, msg: &str| {
        shared.counters.lock().expect("counters lock").invalid += 1;
        let mut line = String::from("{\"ok\": false, \"error\": \"invalid\", \"message\": ");
        json::write_str(&mut line, msg);
        line.push('}');
        let _ = writeln!(stream, "{line}");
    };

    let Some(text) = doc.get("manifest_json").and_then(|m| m.as_str()) else {
        invalid(stream, shared, "submit needs a manifest_json string field");
        return;
    };
    let manifest = match ExperimentManifest::from_json(text) {
        Ok(m) => m,
        Err(e) => {
            invalid(stream, shared, &e.to_string());
            return;
        }
    };
    // A manifest that cannot run (bad shape, unknown policy) is refused
    // here, before it is journaled, queued or given a job directory.
    if let Err(e) = preflight(&manifest) {
        invalid(stream, shared, &e.to_string());
        return;
    }
    let wait = doc.get("wait").and_then(Json::as_bool).unwrap_or(false);
    let id = format!("{:016x}", journal::manifest_hash(&manifest));

    // Content-addressed cache: an already-completed manifest is answered
    // with the same bytes, no re-execution.
    if let Some(results) = shared.cache.lock().expect("cache lock").get(&id).cloned() {
        shared.counters.lock().expect("counters lock").cache_hits += 1;
        let mut line = format!(
            "{{\"ok\": true, \"job\": \"{id}\", \"state\": \"done\", \"exit\": 0, \"results\": "
        );
        json::write_str(&mut line, &results);
        line.push_str(", \"cached\": true}");
        let _ = writeln!(stream, "{line}");
        return;
    }

    // A duplicate of a queued/in-flight job attaches to it rather than
    // running twice (same content address, same artifacts).
    let attached = shared
        .waiters
        .lock()
        .expect("waiters lock")
        .get(&id)
        .map(Arc::clone);
    let done = if let Some(done) = attached {
        let _ = writeln!(
            stream,
            "{{\"ok\": true, \"job\": \"{id}\", \"state\": \"accepted\", \"duplicate\": true}}"
        );
        done
    } else {
        if shared.draining.load(Ordering::SeqCst) {
            shared.counters.lock().expect("counters lock").rejected += 1;
            let _ = writeln!(stream, "{{\"ok\": false, \"error\": \"draining\"}}");
            return;
        }
        // Admission control: the queue never grows past its bound; excess
        // load is answered with the typed rejection, deterministically.
        let mut qs = shared.queue.lock().expect("queue lock");
        if qs.q.len() >= shared.queue_limit {
            let depth = qs.q.len();
            drop(qs);
            shared.counters.lock().expect("counters lock").rejected += 1;
            let _ = writeln!(
                stream,
                "{{\"ok\": false, \"error\": \"overloaded\", \"queue_depth\": {depth}, \
                 \"limit\": {}}}",
                shared.queue_limit
            );
            return;
        }
        // Journal the admission BEFORE execution becomes possible — the
        // recovery invariant. If the journal is gone, admitting would be
        // accepting work a crash could silently lose, so refuse instead.
        let mut line = format!("{{\"event\": \"accepted\", \"job\": \"{id}\", \"name\": ");
        json::write_str(&mut line, &manifest.name);
        line.push_str(", \"manifest_json\": ");
        json::write_str(&mut line, text);
        line.push_str("}\n");
        if !shared.journal_line(&line) {
            drop(qs);
            shared.counters.lock().expect("counters lock").rejected += 1;
            let _ = writeln!(
                stream,
                "{{\"ok\": false, \"error\": \"unjournaled\", \"message\": \
                 \"admission journal unavailable; refusing work a crash would lose\"}}"
            );
            return;
        }
        let done = DoneCell::new();
        shared
            .waiters
            .lock()
            .expect("waiters lock")
            .insert(id.clone(), Arc::clone(&done));
        qs.q.push_back(Job {
            id: id.clone(),
            manifest,
            done: Arc::clone(&done),
        });
        let position = qs.q.len();
        drop(qs);
        shared.counters.lock().expect("counters lock").accepted += 1;
        shared.work_cv.notify_all();
        let _ = writeln!(
            stream,
            "{{\"ok\": true, \"job\": \"{id}\", \"state\": \"accepted\", \"position\": {position}}}"
        );
        done
    };
    let _ = stream.flush();
    if !wait {
        return;
    }

    // Wait mode: heartbeat status lines until the job finishes (or is
    // deferred by a drain). Every socket write happens with the state
    // mutex released — a stalled client can only block its own connection
    // thread, never the executor's `finish` on the same cell. A dead
    // client stops the stream, not the job.
    enum Step {
        Heartbeat,
        Final(String),
    }
    loop {
        let step = {
            let mut state = done.state.lock().expect("done lock");
            loop {
                match &*state {
                    JobState::Pending => {
                        let (guard, timeout) = done
                            .cv
                            .wait_timeout(state, WAIT_HEARTBEAT)
                            .expect("done cv");
                        state = guard;
                        if timeout.timed_out() {
                            break Step::Heartbeat;
                        }
                    }
                    JobState::Finished(result) => {
                        let mut line = format!(
                            "{{\"job\": \"{id}\", \"state\": \"done\", \"exit\": {}, \"results\": ",
                            result.exit
                        );
                        json::write_str(&mut line, &result.results);
                        line.push_str(", \"cached\": false");
                        if let Some(err) = &result.error {
                            line.push_str(", \"message\": ");
                            json::write_str(&mut line, err);
                        }
                        line.push('}');
                        break Step::Final(line);
                    }
                    JobState::Deferred => {
                        break Step::Final(format!(
                            "{{\"job\": \"{id}\", \"state\": \"deferred\", \"error\": \"draining\"}}"
                        ));
                    }
                }
            }
        };
        match step {
            Step::Heartbeat => {
                let running = shared
                    .queue
                    .lock()
                    .expect("queue lock")
                    .in_flight
                    .as_deref()
                    == Some(id.as_str());
                let phase = if running { "running" } else { "queued" };
                if writeln!(stream, "{{\"job\": \"{id}\", \"state\": \"{phase}\"}}").is_err()
                    || stream.flush().is_err()
                {
                    return;
                }
            }
            Step::Final(line) => {
                let _ = writeln!(stream, "{line}");
                return;
            }
        }
    }
}
