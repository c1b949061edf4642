//! `loadgen` — the romp-serve load generator and latency reporter.
//!
//! ```text
//! loadgen --addr HOST:PORT [--clients N | --sweep 1,4,16,64] [--requests N]
//!         [--pipeline N] [--rate R] [--mix epcc|npb|mixed|hi=10,batch=90]
//!         [--hi-deadline-ms MS] [--hi-p99-max-us US] [--json]
//! loadgen --workers-sweep 0,1,2,4 [--server-bin PATH] [other flags]
//! loadgen --addr HOST:PORT --ping
//! loadgen --addr HOST:PORT --shutdown
//! ```
//!
//! `--mix hi=P,batch=Q` is the **mixed-priority** mode: `P` percent of
//! each client's stream is tagged Hi priority with a tight explicit
//! deadline (`--hi-deadline-ms`, default 150), the rest floods the Batch
//! lane.  The report adds per-class p50/p99 and shed counts; a
//! `ShedDeadline` answer abandons that job (it is *not* retried — the
//! server's verdict is that the deadline cannot be met) and counts toward
//! the class's `sheds`.  With `--hi-p99-max-us` the process exits
//! non-zero when the Hi class misses the bound or records any failed or
//! shed job — the CI overload gate.
//!
//! `--workers-sweep` runs one phase per pool width, spawning a fresh
//! `romp-serve` child for each (`0` = the single-process baseline, `N>0`
//! = `--workers N` cluster mode), waiting for its readiness line,
//! driving the phase, and shutting it down — the `BENCH_cluster.json`
//! scaling experiment.  The server binary is located next to this one
//! unless `--server-bin` says otherwise.
//!
//! Each client thread owns one connection and keeps up to `--pipeline N`
//! requests in flight on it: a submission is followed immediately by an
//! `await`, and the server writes each `JobResult` the moment the job
//! finishes — no polling, no extra round trips.  Submission responses
//! arrive in request order; results arrive in completion order and are
//! correlated by job id.  `--pipeline 1` (the default) degenerates to the
//! classic closed loop, one round trip at a time.
//!
//! With `--rate R` the generator is **open-loop**: arrivals follow a
//! fixed schedule of `R` requests/second per client, and latency is
//! measured from the *scheduled* arrival, so time spent catching up after
//! a slow response is charged to the server (coordinated-omission-free,
//! the wrk2 discipline).  Without `--rate` it is closed-loop maximum
//! throughput and latency is submit → result.
//!
//! `Rejected { retry_after_ms }` answers are counted, honoured (bounded
//! sleep) and retried — a full-queue episode shows up as rejections and
//! latency, never as a lost request.  Any protocol-level surprise is a
//! hard error counted in `protocol_errors`; the process exits non-zero
//! if any occurred (the CI smoke's assertion).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_sync::Mutex;
use romp_epcc::Construct;
use romp_npb::{Class, NpbKernel};
use romp_serve::{Client, JobSpec, Request, Response};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--clients N | --sweep 1,4,16,64] \
         [--requests N] [--pipeline N] [--rate R] \
         [--mix epcc|npb|mixed|hi=10,batch=90] [--hi-deadline-ms MS] \
         [--hi-p99-max-us US] [--json]\n\
         \x20      loadgen --workers-sweep 0,1,2,4 [--server-bin PATH] [flags]\n\
         \x20      loadgen --addr HOST:PORT --ping | --shutdown"
    );
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Epcc,
    Npb,
    Mixed,
    /// Mixed-priority: `hi_pct` percent of the stream is Hi priority
    /// with a tight deadline, the rest Batch (EPCC specs throughout).
    Priority {
        hi_pct: u64,
    },
}

impl Mix {
    fn parse(s: &str) -> Option<Mix> {
        match s {
            "epcc" => Some(Mix::Epcc),
            "npb" => Some(Mix::Npb),
            "mixed" => Some(Mix::Mixed),
            _ => {
                // "hi=10,batch=90" (the batch share is implied; when both
                // are given they must sum to 100).
                let mut hi: Option<u64> = None;
                let mut batch: Option<u64> = None;
                for part in s.split(',') {
                    let (k, v) = part.split_once('=')?;
                    let v: u64 = v.trim().parse().ok()?;
                    match k.trim() {
                        "hi" => hi = Some(v),
                        "batch" => batch = Some(v),
                        _ => return None,
                    }
                }
                let hi_pct = hi?;
                if hi_pct > 100 || batch.is_some_and(|b| hi_pct + b != 100) {
                    return None;
                }
                Some(Mix::Priority { hi_pct })
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            Mix::Epcc => "epcc",
            Mix::Npb => "npb",
            Mix::Mixed => "mixed",
            Mix::Priority { .. } => "priority",
        }
    }

    /// Whether the k-th request rides the Hi lane (priority mix only).
    fn is_hi(self, k: u64) -> bool {
        match self {
            Mix::Priority { hi_pct } => k % 100 < hi_pct,
            _ => false,
        }
    }

    /// The k-th request's job.  EPCC constructs rotate so the stream
    /// exercises the whole construct matrix; NPB jobs alternate EP and
    /// IS, and the mixed stream folds one in every 16th request.
    fn job(self, k: u64) -> JobSpec {
        const CONSTRUCTS: [Construct; 6] = [
            Construct::Barrier,
            Construct::Parallel,
            Construct::Reduction,
            Construct::Critical,
            Construct::Single,
            Construct::ParallelFor,
        ];
        let npb = |n: u64| JobSpec::Npb {
            kernel: if n.is_multiple_of(2) {
                NpbKernel::Ep
            } else {
                NpbKernel::Is
            },
            class: Class::S,
            threads: 2,
        };
        match self {
            Mix::Npb => npb(k),
            // `k` is always odd here, so alternate on the NPB slot's
            // own index instead.
            Mix::Mixed if k % 16 == 15 => npb(k / 16),
            _ => JobSpec::Epcc {
                construct: CONSTRUCTS[(k % CONSTRUCTS.len() as u64) as usize],
                threads: 2,
                inner_reps: 8,
            },
        }
    }
}

/// Rank quantile over a sorted latency vector, microseconds.
fn quantile_us_of(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let n = sorted_ns.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted_ns[rank - 1] as f64 / 1_000.0
}

/// Per-priority-class accounting (priority mix only; class 0 = Hi,
/// class 1 = Batch).
#[derive(Default)]
struct ClassTally {
    latencies_ns: Mutex<Vec<u64>>,
    completed: AtomicU64,
    failed: AtomicU64,
    sheds: AtomicU64,
}

#[derive(Default)]
struct PhaseTally {
    latencies_ns: Mutex<Vec<u64>>,
    completed: AtomicU64,
    failed_verification: AtomicU64,
    rejections: AtomicU64,
    sheds: AtomicU64,
    protocol_errors: AtomicU64,
    classes: [ClassTally; 2],
}

/// One class's digest in a [`PhaseReport`].
struct ClassReport {
    name: &'static str,
    completed: u64,
    failed: u64,
    sheds: u64,
    latencies_ns: Vec<u64>,
}

impl ClassReport {
    fn to_json(&self) -> String {
        format!(
            "\"{}\": {{\"completed\": {}, \"failed\": {}, \"sheds\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            self.name,
            self.completed,
            self.failed,
            self.sheds,
            quantile_us_of(&self.latencies_ns, 0.50),
            quantile_us_of(&self.latencies_ns, 0.99),
        )
    }
}

struct PhaseReport {
    clients: usize,
    completed: u64,
    failed_verification: u64,
    rejections: u64,
    sheds: u64,
    protocol_errors: u64,
    wall_s: f64,
    latencies_ns: Vec<u64>,
    /// `[Hi, Batch]`, present for the priority mix.
    classes: Option<[ClassReport; 2]>,
}

impl PhaseReport {
    fn throughput_rps(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }

    fn quantile_us(&self, q: f64) -> f64 {
        quantile_us_of(&self.latencies_ns, q)
    }

    fn mean_us(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.latencies_ns.iter().sum();
        sum as f64 / self.latencies_ns.len() as f64 / 1_000.0
    }

    fn to_json(&self) -> String {
        let classes = match &self.classes {
            Some([hi, batch]) => {
                format!(", \"classes\": {{{}, {}}}", hi.to_json(), batch.to_json())
            }
            None => String::new(),
        };
        format!(
            "{{\"clients\": {}, \"completed\": {}, \"failed_verification\": {}, \
             \"rejections\": {}, \"sheds\": {}, \"protocol_errors\": {}, \"wall_s\": {:.4}, \
             \"throughput_rps\": {:.2}, \"mean_us\": {:.1}, \"p50_us\": {:.1}, \
             \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}{classes}}}",
            self.clients,
            self.completed,
            self.failed_verification,
            self.rejections,
            self.sheds,
            self.protocol_errors,
            self.wall_s,
            self.throughput_rps(),
            self.mean_us(),
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
        )
    }

    fn render(&self) -> String {
        let mut line = format!(
            "clients={:<3} completed={:<6} rejected={:<5} shed={:<4} proto_err={:<3} \
             {:>8.1} req/s   p50={:.1}us p90={:.1}us p99={:.1}us p999={:.1}us",
            self.clients,
            self.completed,
            self.rejections,
            self.sheds,
            self.protocol_errors,
            self.throughput_rps(),
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
        );
        if let Some(classes) = &self.classes {
            for c in classes {
                line.push_str(&format!(
                    "\n  {:<5} completed={:<6} failed={:<4} shed={:<4} p50={:.1}us p99={:.1}us",
                    c.name,
                    c.completed,
                    c.failed,
                    c.sheds,
                    quantile_us_of(&c.latencies_ns, 0.50),
                    quantile_us_of(&c.latencies_ns, 0.99),
                ));
            }
        }
        line
    }
}

/// Account one `JobResult` arriving on the wire.  Returns `false` for a
/// result that matches nothing in flight (a misrouted response — counted
/// as a protocol error by the caller).
fn note_completion(
    inflight: &mut HashMap<u64, (Instant, Option<usize>)>,
    local_lat: &mut Vec<u64>,
    tally: &PhaseTally,
    done: &mut u64,
    job: u64,
    ok: bool,
) -> bool {
    let Some((t0, class)) = inflight.remove(&job) else {
        return false;
    };
    let lat = t0.elapsed().as_nanos() as u64;
    local_lat.push(lat);
    *done += 1;
    tally.completed.fetch_add(1, Ordering::Relaxed);
    if !ok {
        tally.failed_verification.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(c) = class {
        let ct = &tally.classes[c];
        ct.latencies_ns.lock().push(lat);
        ct.completed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            ct.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    true
}

/// One client thread's share of a phase: a pipelined submit/await window
/// of up to `pipeline` in-flight jobs on a single connection.
#[allow(clippy::too_many_arguments)] // one knob per CLI flag
fn client_worker(
    addr: String,
    mix: Mix,
    hi_deadline_ms: u32,
    client_idx: u64,
    requests: u64,
    rate: f64,
    pipeline: u64,
    tally: Arc<PhaseTally>,
) {
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: connect failed: {e}");
            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let start = Instant::now();
    let interval = if rate > 0.0 {
        Some(Duration::from_secs_f64(1.0 / rate))
    } else {
        None
    };
    let mut local_lat = Vec::with_capacity(requests as usize);
    let mut inflight: HashMap<u64, (Instant, Option<usize>)> = HashMap::new();
    let mut sent = 0u64;
    let mut done = 0u64;
    let fail = |what: &str, tally: &PhaseTally| {
        eprintln!("loadgen: {what}");
        tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
    };
    'phase: while done < requests {
        if sent < requests && (inflight.len() as u64) < pipeline {
            // Open-loop: the k-th request is *due* at start + k·interval;
            // latency accrues from the due time even if we are behind.
            let due = interval.map(|iv| start + iv * (sent as u32));
            if let Some(due) = due {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let t0 = due.unwrap_or_else(Instant::now);
            let k = client_idx.wrapping_mul(7919).wrapping_add(sent);
            let spec = mix.job(k);
            // The priority mix: Hi jobs carry a tight deadline on lane 1,
            // everything else floods the Batch lane.
            let class = match mix {
                Mix::Priority { .. } => Some(if mix.is_hi(k) { 0 } else { 1 }),
                _ => None,
            };
            let (deadline_ms, priority) = match class {
                Some(0) => (hi_deadline_ms, 1u8),
                Some(_) => (0, 2u8),
                None => (0, 0u8),
            };
            let submit = Request::Submit {
                spec,
                deadline_ms,
                idem_key: 0,
                affinity: client_idx.wrapping_add(1),
                priority,
            };
            let retry_until = Instant::now() + Duration::from_secs(60);
            // Send the submission, then read until its (request-ordered)
            // answer arrives; any JobResult met on the way is a completed
            // await from earlier in the pipeline.  `None` = shed (the job
            // is abandoned, never retried).
            let job = loop {
                if let Err(e) = client.send(&submit) {
                    fail(&format!("submit send failed: {e}"), &tally);
                    break 'phase;
                }
                let sync = loop {
                    match client.recv() {
                        Ok(Response::JobResult { job, ok, .. }) => {
                            if !note_completion(
                                &mut inflight,
                                &mut local_lat,
                                &tally,
                                &mut done,
                                job,
                                ok,
                            ) {
                                fail(&format!("unexpected result for job {job}"), &tally);
                                break 'phase;
                            }
                        }
                        Ok(resp) => break resp,
                        Err(e) => {
                            fail(&format!("recv failed: {e}"), &tally);
                            break 'phase;
                        }
                    }
                };
                match sync {
                    Response::Accepted { job } => break Some(job),
                    Response::Rejected { retry_after_ms } => {
                        tally.rejections.fetch_add(1, Ordering::Relaxed);
                        if Instant::now() >= retry_until {
                            fail("admission retry budget exhausted", &tally);
                            break 'phase;
                        }
                        std::thread::sleep(Duration::from_millis(
                            u64::from(retry_after_ms).clamp(1, 250),
                        ));
                    }
                    Response::ShedDeadline { .. } => break None,
                    other => {
                        fail(&format!("unexpected submit answer: {other:?}"), &tally);
                        break 'phase;
                    }
                }
            };
            let Some(job) = job else {
                tally.sheds.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = class {
                    tally.classes[c].sheds.fetch_add(1, Ordering::Relaxed);
                }
                sent += 1;
                done += 1;
                continue;
            };
            inflight.insert(job, (t0, class));
            if let Err(e) = client.send(&Request::Await { job }) {
                fail(&format!("await send failed: {e}"), &tally);
                break 'phase;
            }
            sent += 1;
        } else {
            // Window full (or all submitted): block for the next result.
            match client.recv() {
                Ok(Response::JobResult { job, ok, .. }) => {
                    if !note_completion(&mut inflight, &mut local_lat, &tally, &mut done, job, ok) {
                        fail(&format!("unexpected result for job {job}"), &tally);
                        break 'phase;
                    }
                }
                Ok(other) => {
                    fail(
                        &format!("unexpected frame awaiting results: {other:?}"),
                        &tally,
                    );
                    break 'phase;
                }
                Err(e) => {
                    fail(&format!("recv failed: {e}"), &tally);
                    break 'phase;
                }
            }
        }
    }
    tally.latencies_ns.lock().extend_from_slice(&local_lat);
}

fn run_phase(
    addr: &str,
    mix: Mix,
    hi_deadline_ms: u32,
    clients: usize,
    requests: u64,
    rate: f64,
    pipeline: u64,
) -> PhaseReport {
    let tally = Arc::new(PhaseTally::default());
    let per = requests / clients as u64;
    let extra = requests % clients as u64;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let tally = Arc::clone(&tally);
            let n = per + u64::from((c as u64) < extra);
            std::thread::spawn(move || {
                client_worker(
                    addr,
                    mix,
                    hi_deadline_ms,
                    c as u64,
                    n,
                    rate,
                    pipeline,
                    tally,
                )
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut latencies_ns = std::mem::take(&mut *tally.latencies_ns.lock());
    latencies_ns.sort_unstable();
    let classes = matches!(mix, Mix::Priority { .. }).then(|| {
        let digest = |name: &'static str, ct: &ClassTally| {
            let mut lat = std::mem::take(&mut *ct.latencies_ns.lock());
            lat.sort_unstable();
            ClassReport {
                name,
                completed: ct.completed.load(Ordering::Relaxed),
                failed: ct.failed.load(Ordering::Relaxed),
                sheds: ct.sheds.load(Ordering::Relaxed),
                latencies_ns: lat,
            }
        };
        [
            digest("hi", &tally.classes[0]),
            digest("batch", &tally.classes[1]),
        ]
    });
    PhaseReport {
        clients,
        completed: tally.completed.load(Ordering::Relaxed),
        failed_verification: tally.failed_verification.load(Ordering::Relaxed),
        rejections: tally.rejections.load(Ordering::Relaxed),
        sheds: tally.sheds.load(Ordering::Relaxed),
        protocol_errors: tally.protocol_errors.load(Ordering::Relaxed),
        wall_s,
        latencies_ns,
        classes,
    }
}

/// Locate `romp-serve` next to this executable (cargo puts workspace
/// binaries in one target directory).
fn locate_server_bin() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for d in [dir, dir.parent().unwrap_or(dir)] {
        let cand = d.join("romp-serve");
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

/// Launch a server for one `--workers-sweep` phase and wait for its
/// readiness line.  Returns the child and the bound address.
fn spawn_server(bin: &std::path::Path, workers: usize) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut cmd = std::process::Command::new(bin);
    cmd.args(["--addr", "127.0.0.1:0"]);
    if workers > 0 {
        cmd.args(["--workers", &workers.to_string()]);
    }
    cmd.stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut child = cmd.spawn().unwrap_or_else(|e| {
        eprintln!("loadgen: spawn {} failed: {e}", bin.display());
        std::process::exit(1);
    });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap_or_else(|e| {
        eprintln!("loadgen: server readiness line: {e}");
        std::process::exit(1);
    });
    let addr = match line.trim().strip_prefix("romp-serve listening on ") {
        Some(a) => a.to_string(),
        None => {
            eprintln!("loadgen: unexpected server banner: {line:?}");
            let _ = child.kill();
            std::process::exit(1);
        }
    };
    // Keep the pipe drained so the drain report never blocks the server.
    std::thread::spawn(move || {
        let mut sink = String::new();
        use std::io::Read;
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr)
}

fn main() {
    let mut addr: Option<String> = None;
    let mut clients = 4usize;
    let mut sweep: Option<Vec<usize>> = None;
    let mut workers_sweep: Option<Vec<usize>> = None;
    let mut server_bin: Option<std::path::PathBuf> = None;
    let mut requests = 200u64;
    let mut rate = 0.0f64;
    let mut pipeline = 1u64;
    let mut mix = Mix::Epcc;
    let mut hi_deadline_ms = 150u32;
    let mut hi_p99_max_us = 0f64;
    let mut json = false;
    let mut ping = false;
    let mut shutdown = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |j: usize| args.get(j).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--addr" => {
                addr = Some(need(i + 1));
                i += 2;
            }
            "--clients" => {
                clients = need(i + 1)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--sweep" => {
                let v: Option<Vec<usize>> = need(i + 1)
                    .split(',')
                    .map(|t| t.trim().parse().ok().filter(|&n| n >= 1))
                    .collect();
                sweep = Some(v.unwrap_or_else(|| usage()));
                i += 2;
            }
            "--workers-sweep" => {
                let v: Option<Vec<usize>> = need(i + 1)
                    .split(',')
                    .map(|t| t.trim().parse().ok())
                    .collect();
                workers_sweep = Some(v.unwrap_or_else(|| usage()));
                i += 2;
            }
            "--server-bin" => {
                server_bin = Some(need(i + 1).into());
                i += 2;
            }
            "--requests" => {
                requests = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rate" => {
                rate = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--pipeline" => {
                pipeline = need(i + 1)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--mix" => {
                mix = Mix::parse(&need(i + 1)).unwrap_or_else(|| usage());
                i += 2;
            }
            "--hi-deadline-ms" => {
                hi_deadline_ms = need(i + 1)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--hi-p99-max-us" => {
                hi_p99_max_us = need(i + 1)
                    .parse()
                    .ok()
                    .filter(|&n: &f64| n > 0.0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--ping" => {
                ping = true;
                i += 1;
            }
            "--shutdown" => {
                shutdown = true;
                i += 1;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // Worker-pool scaling mode: one fresh server per phase.
    if let Some(widths) = workers_sweep {
        if ping || shutdown || sweep.is_some() || addr.is_some() || widths.is_empty() {
            usage();
        }
        let bin = server_bin.or_else(locate_server_bin).unwrap_or_else(|| {
            eprintln!("loadgen: romp-serve binary not found (pass --server-bin PATH)");
            std::process::exit(1);
        });
        let mut phases: Vec<(usize, PhaseReport)> = Vec::new();
        for &w in &widths {
            if !json {
                eprintln!(
                    "loadgen: phase workers={w} clients={clients} requests={requests} \
                     pipeline={pipeline} ..."
                );
            }
            let (mut child, srv_addr) = spawn_server(&bin, w);
            let report = run_phase(
                &srv_addr,
                mix,
                hi_deadline_ms,
                clients,
                requests,
                rate,
                pipeline,
            );
            if let Err(e) = Client::connect(srv_addr.as_str()).and_then(|mut c| c.shutdown()) {
                eprintln!("loadgen: shutdown after workers={w} failed: {e}");
            }
            let status = child.wait().expect("server exit status");
            if !status.success() {
                eprintln!("loadgen: server (workers={w}) exited with {status}");
                std::process::exit(1);
            }
            phases.push((w, report));
        }
        if json {
            let mut s = String::from("{\n  \"benchmark\": \"cluster_loadgen\",\n");
            s.push_str(&format!(
                "  \"host_cores\": {},\n",
                std::thread::available_parallelism()
                    .map(|v| v.get())
                    .unwrap_or(1)
            ));
            s.push_str(&format!("  \"mix\": \"{}\",\n", mix.label()));
            s.push_str(&format!("  \"requests_per_phase\": {requests},\n"));
            s.push_str(&format!("  \"clients\": {clients},\n"));
            s.push_str(&format!("  \"pipeline\": {pipeline},\n"));
            s.push_str("  \"phases\": [\n");
            for (i, (w, r)) in phases.iter().enumerate() {
                s.push_str(&format!("    {{\"workers\": {w}, "));
                s.push_str(&r.to_json()[1..]);
                s.push_str(if i + 1 == phases.len() { "\n" } else { ",\n" });
            }
            s.push_str("  ]\n}");
            println!("{s}");
        } else {
            for (w, r) in &phases {
                println!("workers={w:<2} {}", r.render());
            }
        }
        let bad: u64 = phases.iter().map(|(_, r)| r.protocol_errors).sum();
        let incomplete = phases
            .iter()
            .any(|(_, r)| r.completed + r.sheds != requests || r.failed_verification != 0);
        if bad > 0 || incomplete {
            eprintln!("loadgen: FAILED (protocol_errors={bad}, incomplete={incomplete})");
            std::process::exit(1);
        }
        return;
    }

    let addr = addr.unwrap_or_else(|| usage());

    if ping {
        match Client::connect(addr.as_str()).and_then(|mut c| c.ping()) {
            Ok(()) => {
                eprintln!("loadgen: {addr} is alive");
                return;
            }
            Err(e) => {
                eprintln!("loadgen: ping {addr} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if shutdown {
        match Client::connect(addr.as_str()).and_then(|mut c| c.shutdown()) {
            Ok(outstanding) => {
                eprintln!("loadgen: drain requested, {outstanding} jobs outstanding");
                return;
            }
            Err(e) => {
                eprintln!("loadgen: shutdown {addr} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let concurrencies = sweep.unwrap_or_else(|| vec![clients]);
    let mut reports = Vec::new();
    for &c in &concurrencies {
        if !json {
            eprintln!("loadgen: phase clients={c} requests={requests} pipeline={pipeline} ...");
        }
        reports.push(run_phase(
            &addr,
            mix,
            hi_deadline_ms,
            c,
            requests,
            rate,
            pipeline,
        ));
    }

    if json {
        let mut s = String::from("{\n  \"benchmark\": \"serve_loadgen\",\n");
        s.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
        ));
        s.push_str(&format!("  \"mix\": \"{}\",\n", mix.label()));
        s.push_str(&format!("  \"requests_per_phase\": {requests},\n"));
        s.push_str(&format!("  \"pipeline\": {pipeline},\n"));
        s.push_str(&format!("  \"open_loop_rate_per_client\": {rate},\n"));
        s.push_str("  \"phases\": [\n");
        for (i, r) in reports.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&r.to_json());
            s.push_str(if i + 1 == reports.len() { "\n" } else { ",\n" });
        }
        s.push_str("  ]\n}");
        println!("{s}");
    } else {
        for r in &reports {
            println!("{}", r.render());
        }
    }

    let bad: u64 = reports.iter().map(|r| r.protocol_errors).sum();
    let incomplete = reports
        .iter()
        .any(|r| r.completed + r.sheds != requests || r.failed_verification != 0);
    if bad > 0 || incomplete {
        eprintln!("loadgen: FAILED (protocol_errors={bad}, incomplete={incomplete})");
        std::process::exit(1);
    }
    // The overload gate: the Hi class must finish everything it was
    // admitted for (no deadline kills, no sheds) within the p99 bound.
    if hi_p99_max_us > 0.0 {
        for r in &reports {
            let Some([hi, _]) = &r.classes else {
                eprintln!("loadgen: --hi-p99-max-us requires --mix hi=..,batch=..");
                std::process::exit(2);
            };
            let p99 = quantile_us_of(&hi.latencies_ns, 0.99);
            if hi.failed != 0 || hi.sheds != 0 || p99 > hi_p99_max_us {
                eprintln!(
                    "loadgen: FAILED hi-class gate (failed={}, sheds={}, p99={p99:.1}us, \
                     bound={hi_p99_max_us:.1}us)",
                    hi.failed, hi.sheds
                );
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_stream_runs_both_npb_kernels() {
        let kernels: Vec<NpbKernel> = (0..64)
            .filter_map(|k| match Mix::Mixed.job(k) {
                JobSpec::Npb { kernel, .. } => Some(kernel),
                _ => None,
            })
            .collect();
        assert_eq!(kernels.len(), 4, "one NPB job per 16 requests");
        assert!(kernels.contains(&NpbKernel::Ep));
        assert!(kernels.contains(&NpbKernel::Is));
    }
}
