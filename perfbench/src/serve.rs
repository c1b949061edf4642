//! Driving a `romp-serve` release binary: launch to readiness, closed-loop
//! load over the public client, `Stats` snapshots, and the drain check.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use romp_serve::{Client, Request, Response};

use crate::gen::{Generator, HI};
use crate::json::{parse, Json, StatsSnapshot};
use crate::spans::Recorder;

/// How long a server may take to print its banner and bring its pool up.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Server flags: the backend and pool size are fixed so in-process and
/// cluster mode compare at the same pool size.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpec {
    /// `Some(n)`: `--workers n --worker-threads 2` cluster mode.
    pub workers: Option<usize>,
    /// `--shed` (admission-time deadline shedding).
    pub shed: bool,
}

impl ServerSpec {
    fn args(&self, bin_dir: &Path) -> Vec<String> {
        let mut a: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "mca",
            "--threads",
            "2",
        ]
        .map(String::from)
        .to_vec();
        if self.shed {
            a.push("--shed".into());
        }
        if let Some(n) = self.workers {
            a.extend([
                "--workers".into(),
                n.to_string(),
                "--worker-threads".into(),
                "2".into(),
                "--worker-bin".into(),
                bin_dir.join("romp-worker").display().to_string(),
            ]);
        }
        a
    }
}

/// A running server process.  Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Option<Child>,
    lines: Receiver<String>,
    pub addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Launch `romp-serve` and wait until it is ready: the readiness banner,
/// and in cluster mode every worker spawned, attached and reporting up.
/// Returns the process and the launch-to-ready time.
pub fn launch(
    bin_dir: &Path,
    spec: ServerSpec,
    tmp: &Path,
) -> Result<(ServerProc, Duration), String> {
    let bin: PathBuf = bin_dir.join("romp-serve");
    let t0 = Instant::now();
    let mut cmd = Command::new(&bin);
    // The runtime reads its defaults from ROMP_*/OMP_* variables; the
    // benchmark fixes the configuration on the command line alone.
    for (k, _) in std::env::vars_os() {
        let k = k.to_string_lossy().into_owned();
        if k.starts_with("ROMP_") || k.starts_with("OMP_") {
            cmd.env_remove(k);
        }
    }
    let mut child = cmd
        .args(spec.args(bin_dir))
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().ok_or("server stdout not captured")?;
    let (tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut proc = ServerProc {
        child: Some(child),
        lines,
        addr: String::new(),
    };
    let deadline = t0 + READY_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let line = proc
            .lines
            .recv_timeout(left)
            .map_err(|_| "server exited or stalled before its readiness banner".to_string())?;
        if let Some(addr) = line.strip_prefix("romp-serve listening on ") {
            proc.addr = addr.trim().to_string();
            break;
        }
    }
    if let Some(n) = spec.workers {
        let mut c = connect(&proc.addr)?;
        loop {
            let snap = snapshot(&mut c)?;
            if snap.workers_up == Some(n as u64) {
                break;
            }
            if Instant::now() > deadline {
                return Err("cluster workers never came up".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    Ok((proc, t0.elapsed()))
}

/// The drain outcome the server reports on exit.
#[derive(Debug, Clone, Copy)]
pub struct Drain {
    pub dropped: u64,
    pub rmem_leaked: u64,
    pub exit_ok: bool,
}

impl ServerProc {
    /// Graceful shutdown over `client`: drain, read the drain report,
    /// reap the process.
    pub fn shutdown(mut self, client: &mut Client) -> Result<Drain, String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let mut report: Option<Json> = None;
        while let Ok(line) = self
            .lines
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            if line.starts_with('{') {
                report = parse(&line).ok();
            }
        }
        let mut child = self.child.take().ok_or("server already reaped")?;
        let status = loop {
            if let Some(s) = child.try_wait().map_err(|e| e.to_string())? {
                break s;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not exit after its drain".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let report = report.ok_or("server printed no drain report")?;
        let field = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        Ok(Drain {
            dropped: field("dropped"),
            rmem_leaked: field("rmem_leaked"),
            exit_ok: status.success(),
        })
    }
}

/// Connect a client.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// One `Stats` snapshot.
pub fn snapshot(client: &mut Client) -> Result<StatsSnapshot, String> {
    let json = client.stats().map_err(|e| format!("stats: {e}"))?;
    StatsSnapshot::from_json(&json)
}

/// What one connection saw during one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Submit→result latency of every completed request, ns.
    pub lat_ns: Vec<u64>,
    /// The same for the Hi-lane requests alone.
    pub hi_lat_ns: Vec<u64>,
    pub attempted: u64,
    pub completed: u64,
    pub failed_verification: u64,
    pub sheds: u64,
    pub rejections: u64,
    pub protocol_errors: u64,
    /// Requests still in flight when the connection failed.
    pub lost: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Merge another connection's tally.
    pub fn merge(&mut self, o: Tally) {
        self.lat_ns.extend(o.lat_ns);
        self.hi_lat_ns.extend(o.hi_lat_ns);
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed_verification += o.failed_verification;
        self.sheds += o.sheds;
        self.rejections += o.rejections;
        self.protocol_errors += o.protocol_errors;
        self.lost += o.lost;
        self.errors.extend(o.errors);
    }

    /// Every failed request: verification failures, sheds, protocol
    /// errors, exhausted retries and lost jobs.
    pub fn failed(&self) -> u64 {
        self.failed_verification + self.sheds + self.protocol_errors + self.lost
    }
}

struct InFlight {
    t0: Instant,
    hi: bool,
    span: u64,
    span_start: u64,
    await_span: u64,
    await_start: u64,
}

/// Admission retries for one request before it counts as failed.
const MAX_REJECTIONS: u32 = 1000;

/// One connection's closed loop: keep up to `pipeline` requests in
/// flight until `until`, then collect every outstanding result.  Each
/// request is `Submit` (answered in request order) followed by `Await`
/// (answered when the job finishes).
pub fn client_loop(
    client: &mut Client,
    gen: &mut Generator,
    pipeline: usize,
    until: Instant,
    rec: &mut Recorder,
) -> Tally {
    let mut t = Tally::default();
    let mut inflight: HashMap<u64, InFlight> = HashMap::new();
    let fail = |t: &mut Tally, inflight: &HashMap<u64, InFlight>, what: String| {
        t.protocol_errors += 1;
        t.lost += inflight.len() as u64;
        t.errors.push(what);
    };
    // Account one JobResult; false when it matches nothing in flight.
    let finish = |t: &mut Tally,
                  inflight: &mut HashMap<u64, InFlight>,
                  rec: &mut Recorder,
                  job: u64,
                  ok: bool| {
        let Some(f) = inflight.remove(&job) else {
            return false;
        };
        let lat = f.t0.elapsed().as_nanos() as u64;
        rec.close(f.await_span, f.span, "client.await", job, f.await_start);
        rec.close(f.span, 0, "client.request", job, f.span_start);
        t.lat_ns.push(lat);
        if f.hi {
            t.hi_lat_ns.push(lat);
        }
        t.completed += 1;
        if !ok {
            t.failed_verification += 1;
        }
        true
    };
    loop {
        let open = Instant::now() < until;
        if !open && inflight.is_empty() {
            break;
        }
        if open && inflight.len() < pipeline {
            let req = gen.next_request();
            t.attempted += 1;
            let submit = Request::Submit {
                spec: req.spec,
                deadline_ms: req.deadline_ms,
                idem_key: 0,
                affinity: 0,
                priority: req.priority,
            };
            let t0 = Instant::now();
            let span = rec.open();
            let span_start = rec.now_ns();
            let submit_span = rec.open();
            let mut rejections = 0u32;
            let accepted = loop {
                if let Err(e) = client.send(&submit) {
                    fail(&mut t, &inflight, format!("submit send: {e}"));
                    return t;
                }
                let answer = loop {
                    match client.recv() {
                        Ok(Response::JobResult { job, ok, .. }) => {
                            if !finish(&mut t, &mut inflight, rec, job, ok) {
                                fail(&mut t, &inflight, format!("result for unknown job {job}"));
                                return t;
                            }
                        }
                        Ok(other) => break other,
                        Err(e) => {
                            fail(&mut t, &inflight, format!("recv: {e}"));
                            return t;
                        }
                    }
                };
                match answer {
                    Response::Accepted { job } => break Some(job),
                    Response::Rejected { retry_after_ms } => {
                        t.rejections += 1;
                        rejections += 1;
                        if rejections > MAX_REJECTIONS {
                            t.errors.push("admission retries exhausted".into());
                            t.protocol_errors += 1;
                            break None;
                        }
                        std::thread::sleep(Duration::from_millis(
                            u64::from(retry_after_ms).clamp(1, 50),
                        ));
                    }
                    Response::ShedDeadline { predicted_wait_ms } => {
                        t.sheds += 1;
                        t.errors
                            .push(format!("shed: predicted wait {predicted_wait_ms} ms"));
                        break None;
                    }
                    other => {
                        fail(
                            &mut t,
                            &inflight,
                            format!("unexpected submit answer {other:?}"),
                        );
                        return t;
                    }
                }
            };
            let Some(job) = accepted else { continue };
            rec.close(submit_span, span, "client.submit", job, span_start);
            let await_span = rec.open();
            let await_start = rec.now_ns();
            inflight.insert(
                job,
                InFlight {
                    t0,
                    hi: req.priority == HI,
                    span,
                    span_start,
                    await_span,
                    await_start,
                },
            );
            if let Err(e) = client.send(&Request::Await { job }) {
                fail(&mut t, &inflight, format!("await send: {e}"));
                return t;
            }
        } else {
            match client.recv() {
                Ok(Response::JobResult { job, ok, .. }) => {
                    if !finish(&mut t, &mut inflight, rec, job, ok) {
                        fail(&mut t, &inflight, format!("result for unknown job {job}"));
                        return t;
                    }
                }
                Ok(other) => {
                    fail(&mut t, &inflight, format!("unexpected frame {other:?}"));
                    return t;
                }
                Err(e) => {
                    fail(&mut t, &inflight, format!("recv: {e}"));
                    return t;
                }
            }
        }
    }
    t
}
