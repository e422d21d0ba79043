//! Driving `vmsim serve` from outside: starting and draining the server,
//! and a line-protocol client that timestamps every reply.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vmsim_config::ExperimentManifest;
use vmsim_obs::json::{self, Json};

use crate::procs::{Running, Usage};
use crate::workloads::ServeStream;

/// Longest a single reply may take before the client gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `vmsim serve`, killed and reaped if dropped before
/// [`Server::stop`].
pub struct Server {
    child: Running,
    pub addr: String,
}

impl Server {
    /// Starts a server on an ephemeral loopback port with a fresh output
    /// directory and waits until it answers `health`. Returns the server
    /// and the time from spawn to that first answer.
    pub fn start(vmsim: &Path, out: &Path) -> Result<(Server, Duration), String> {
        let _ = std::fs::remove_dir_all(out);
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let log = std::fs::File::create(out.with_extension("log"))
            .map_err(|e| format!("serve log: {e}"))?;
        let started = Instant::now();
        let child = Running::spawn(
            Command::new(vmsim)
                .arg("serve")
                .arg("--out")
                .arg(out)
                .env("VMSIM_SERVE_BIND", "127.0.0.1:0")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log),
        )
        .map_err(|e| format!("spawn vmsim serve: {e}"))?;
        let addr_file = out.join("serve.addr");
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("vmsim serve did not advertise an address".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let health = request(&addr, "health")?;
        if health.get("state").and_then(Json::as_str) != Some("ready") {
            return Err("vmsim serve is not ready".into());
        }
        let setup = started.elapsed();
        Ok((Server { child, addr }, setup))
    }

    /// Drains the server (the `drain` op) and reaps it.
    pub fn stop(self) -> Result<Usage, String> {
        request(&self.addr, "drain")?;
        let usage = self
            .child
            .wait(Duration::from_secs(60))
            .map_err(|e| format!("reap vmsim serve: {e}"))?;
        if usage.exit != Some(0) {
            return Err(format!("vmsim serve exited with {:?}", usage.exit));
        }
        Ok(usage)
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Sends one bare op (`health`, `drain`) and parses its one reply line.
pub fn request(addr: &str, op: &str) -> Result<Json, String> {
    let mut stream = connect(addr)?;
    writeln!(stream, "{{\"op\": \"{op}\"}}").map_err(|e| format!("send {op}: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("read {op} reply: {e}"))?;
    json::parse(line.trim()).map_err(|e| format!("{op} reply: {e}"))
}

/// One submission as the client saw it. Times run from the connect.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Until the first reply line (`accepted`, or `done` for a cache hit).
    pub first: Duration,
    /// Until the `done` line.
    pub done: Duration,
    /// `position` of the `accepted` line (cold jobs only).
    pub position: Option<u64>,
    pub cached: bool,
    pub exit: Option<u64>,
    /// Path of the results JSON the server answered with.
    pub results: String,
}

/// Submits one manifest and waits for its `done` line.
pub fn submit(addr: &str, manifest: &ExperimentManifest) -> Result<Reply, String> {
    let mut request = String::from("{\"op\": \"submit\", \"manifest_json\": ");
    json::write_str(&mut request, &manifest.to_json());
    request.push_str(", \"wait\": true}\n");
    let t0 = Instant::now();
    let mut stream = connect(addr)?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send submit: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut first = None;
    let mut position = None;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read submit reply: {e}"))?;
        if n == 0 {
            return Err("server closed the connection before done".into());
        }
        let at = t0.elapsed();
        first.get_or_insert(at);
        let doc = json::parse(line.trim()).map_err(|e| format!("submit reply: {e}"))?;
        if doc.get("ok").and_then(Json::as_bool) == Some(false) {
            return Err(format!("submission refused: {}", line.trim()));
        }
        match doc.get("state").and_then(Json::as_str) {
            Some("accepted") => position = doc.get("position").and_then(Json::as_u64),
            Some("done") => {
                return Ok(Reply {
                    first: first.unwrap_or(at),
                    done: at,
                    position,
                    cached: doc.get("cached").and_then(Json::as_bool) == Some(true),
                    exit: doc.get("exit").and_then(Json::as_u64),
                    results: doc
                        .get("results")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                })
            }
            Some("deferred") => return Err("submission deferred".into()),
            _ => {} // queued/running heartbeat
        }
    }
}

/// One submission of a session: its stream entry and the reply.
pub struct Sample {
    /// Pool index for an expected cache hit, `None` for a cold job.
    pub hit_of: Option<u64>,
    pub reply: Result<Reply, String>,
}

/// One client round: submissions `3r`, `3r + 1` and `3r + 2` of the
/// stream (one new manifest, then two resubmissions), sent back to back.
pub struct Round {
    /// From the first connect to the last `done`.
    pub wall: Duration,
    pub samples: Vec<Sample>,
}

/// Concurrent clients of a session: with the server's executor and its
/// two-thread pool, the load stays within two busy threads.
const CLIENTS: usize = 2;

/// The closed loop: [`CLIENTS`] threads, each starting its next round only
/// after the previous one is done, drawing rounds from one shared seeded
/// stream until `seconds` have passed.
pub fn session(addr: &str, stream: &ServeStream, seconds: Duration) -> Vec<Round> {
    let next = AtomicU64::new(0);
    let rounds = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while t0.elapsed() < seconds {
                    let r = next.fetch_add(1, Ordering::SeqCst);
                    let jobs: Vec<_> = (3 * r..3 * r + 3).map(|i| stream.submission(i)).collect();
                    let started = Instant::now();
                    let mut samples = Vec::new();
                    for (manifest, hit_of) in jobs {
                        let reply = submit(addr, &manifest);
                        let failed = reply.is_err();
                        samples.push(Sample { hit_of, reply });
                        if failed {
                            break;
                        }
                    }
                    let wall = started.elapsed();
                    let failed = samples.iter().any(|s| s.reply.is_err());
                    rounds
                        .lock()
                        .expect("no client panics holding the lock")
                        .push(Round { wall, samples });
                    if failed {
                        break;
                    }
                }
            });
        }
    });
    rounds.into_inner().expect("clients joined")
}
