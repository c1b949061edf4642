//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR
//! ```
//!
//! Usually started through `python3 perfbench/run.py`, which builds the
//! `romp-serve`/`romp-worker` release binaries and this program first and
//! passes `--bin-dir`.  Run it from the repository root; it writes only
//! under `.bench_out/` there.
//!
//! Workloads (load comes from this one process: at most two client
//! threads, one connection each):
//!
//! * `rpc_inproc` — `romp-serve --backend mca --threads 2`; one
//!   connection, closed loop, one request in flight; EPCC jobs (team 2,
//!   8 inner reps) on the Normal lane.
//! * `rpc_cluster` — the same traffic against `--workers 1
//!   --worker-threads 2`: the router, MCAPI wire, MTAPI task and MRAPI
//!   rmem sit on the blocking path.
//! * `saturated_priority` — in-process with `--shed`; two connections,
//!   eight requests pipelined on each; 10% Hi (150 ms deadline), 90% Batch.
//! * `kernels` — no server: the same EPCC job stream executed directly on
//!   an MCA runtime with `romp_serve::job::execute`.
//!
//! Every workload also runs the paper's measurements in-process, spread
//! between the replicas of its request phase: Table I (EPCC syncbench at
//! team size 2, MCA and native) and NPB CG/MG/FT/IS class W on MCA with
//! verification.  `kernels` gives them most of its time.
//!
//! Each run measures its request phase on several fresh replicas of the
//! system (server processes, or runtimes for `kernels`), each warmed up
//! and then timed in segments.  The host's steal time is read over each
//! segment, and the segments with the least steal (at most the lower
//! quartile of the shares: on a calm host, nearly all) make the figures:
//! throughput is their verified completions over their summed wall time,
//! and the latency quantiles are taken over all their samples pooled.
//! Steal is CPU time the hypervisor gave to other guests, which the
//! program under test cannot cause, so the choice never hides a slowdown
//! of the program.  The NPB time is the sum over the kernels of each
//! one's median over the least-disturbed sets, a Table I cell the median
//! over runtime pairs of the median over each pair's least-disturbed
//! rounds, and `setup_s` the
//! median launch-to-ready time of the replicas and further launches.
//! `hi_latency_p99_us` is the p99 of the top lane present: Hi on
//! `saturated_priority`, every request elsewhere.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! request phase untraced and then traced, reads the server's `Stats`
//! before and after each segment, times the layer probes, prints the
//! per-layer metrics (0 for a layer the workload does not run), the
//! latency ledger and the tracing overhead, and writes the spans to
//! `.bench_out/`.  The last line of standard output is the result
//! object; the exit code is non-zero on any correctness failure.

mod gen;
mod host;
mod json;
mod kernels;
mod layers;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use romp::BackendKind;
use romp_serve::Client;

use gen::{stream_rng, Generator, LaneMix};
use json::StatsDelta;
use romp_trace::json_escape;
use serve::{ServerSpec, Tally};
use spans::{Recorder, Span};
use stats::{highest_supported, least_disturbed, mean, median, rank_quantile, supports, Ledger};

/// Launches (server processes, or runtime pairs for `kernels`) per run;
/// `setup_s` is their median.
const SETUPS: usize = 41;

/// Segments each replica's timed phase is cut into; the end-to-end
/// figures pool the segments the host disturbed least.
const SEGMENTS: usize = 4;

/// Fresh runtime pairs Table I is measured on per run, spread over it.
const TABLE1_PAIRS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RpcInproc,
    RpcCluster,
    SaturatedPriority,
    Kernels,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "rpc_inproc" => Workload::RpcInproc,
            "rpc_cluster" => Workload::RpcCluster,
            "saturated_priority" => Workload::SaturatedPriority,
            "kernels" => Workload::Kernels,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::RpcInproc => "rpc_inproc",
            Workload::RpcCluster => "rpc_cluster",
            Workload::SaturatedPriority => "saturated_priority",
            Workload::Kernels => "kernels",
        }
    }

    fn server(self) -> Option<ServerSpec> {
        match self {
            Workload::RpcInproc => Some(ServerSpec {
                workers: None,
                shed: false,
            }),
            Workload::RpcCluster => Some(ServerSpec {
                workers: Some(1),
                shed: false,
            }),
            Workload::SaturatedPriority => Some(ServerSpec {
                workers: None,
                shed: true,
            }),
            Workload::Kernels => None,
        }
    }

    /// Client connections and requests in flight on each.
    fn load(self) -> (usize, usize) {
        match self {
            Workload::SaturatedPriority => (2, 8),
            _ => (1, 1),
        }
    }

    /// Fresh instances of the system (server processes, or runtimes for
    /// `kernels`) each run measures in turn.
    fn replicas(self) -> usize {
        match self {
            Workload::RpcInproc | Workload::RpcCluster => 10,
            Workload::SaturatedPriority => 9,
            Workload::Kernels => 6,
        }
    }

    fn mix(self) -> LaneMix {
        LaneMix {
            hi_pct: (self == Workload::SaturatedPriority).then_some(10),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload rpc_inproc|rpc_cluster|saturated_priority|kernels \
         --seed N --seconds S --trace 0|1 [--bin-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&val),
            "--seed" => seed = val.parse().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(val)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.unwrap_or_else(|| PathBuf::from(".bench_build/release")),
    }
}

/// Shares of `--seconds` given to each phase.
struct Budget {
    table1: f64,
    npb: f64,
    warmup: f64,
    /// Each timed request phase (one untraced, plus one traced with
    /// `--trace 1`).
    timed: f64,
    /// Each layer probe (`--trace 1` only).
    probe: f64,
}

impl Budget {
    fn of(w: Workload, trace: bool) -> Budget {
        match (w == Workload::Kernels, trace) {
            (false, false) => Budget {
                table1: 0.10,
                npb: 0.38,
                warmup: 0.04,
                timed: 0.48,
                probe: 0.0,
            },
            (false, true) => Budget {
                table1: 0.07,
                npb: 0.26,
                warmup: 0.04,
                timed: 0.22,
                probe: 0.012,
            },
            (true, false) => Budget {
                table1: 0.25,
                npb: 0.40,
                warmup: 0.03,
                timed: 0.32,
                probe: 0.0,
            },
            (true, true) => Budget {
                table1: 0.18,
                npb: 0.26,
                warmup: 0.03,
                timed: 0.19,
                probe: 0.015,
            },
        }
    }
}

/// What the run measured and checked.
#[derive(Default)]
struct Report {
    e2e: Vec<(&'static str, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    samples: Vec<(String, u64)>,
}

impl Report {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.001))
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Latency summary of one phase's samples, microseconds.
struct Latency {
    n: usize,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn latency(ns: &[u64]) -> Option<Latency> {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    Some(Latency {
        n: v.len(),
        mean_us: mean(&v)?,
        p50_us: rank_quantile(&v, 0.5)?,
        p99_us: rank_quantile(&v, 0.99)?,
    })
}

/// One timed request phase's outcome.
struct Phase {
    tally: Tally,
    wall_s: f64,
    /// Share of the host's CPU time stolen while the phase ran.
    steal: Option<f64>,
    delta: Option<StatsDelta>,
    spans: Recorder,
}

/// Run the connections' closed loops for `dur`; with `snap`, bracket the
/// phase with `Stats` snapshots taken over the first connection.
fn serve_phase(
    clients: &mut [Client],
    gens: &mut [Generator],
    pipeline: usize,
    dur: Duration,
    traced: bool,
    epoch: Instant,
    snap: bool,
) -> Result<Phase, String> {
    let before = if snap {
        Some(serve::snapshot(&mut clients[0])?)
    } else {
        None
    };
    let cpu0 = host::CpuTimes::now();
    let t0 = Instant::now();
    let until = t0 + dur;
    let results: Vec<(Tally, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(gens.iter_mut())
            .map(|(c, g)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch, traced);
                    let t = serve::client_loop(c, g, pipeline, until, &mut rec);
                    (t, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let steal = host::steal_since(cpu0);
    let mut tally = Tally::default();
    let mut spans = Recorder::new(epoch, traced);
    for (t, r) in results {
        tally.merge(t);
        spans.absorb(r);
    }
    let delta = match before {
        Some(b) => Some(serve::snapshot(&mut clients[0])?.since(&b)),
        None => None,
    };
    Ok(Phase {
        tally,
        wall_s,
        steal,
        delta,
        spans,
    })
}

/// The `kernels` request phase: the job stream executed directly on the
/// runtime, no server.
fn direct_phase(
    rt: &romp::Runtime,
    gen: &mut Generator,
    dur: Duration,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let mut spans = Recorder::new(epoch, traced);
    let mut tally = Tally::default();
    let cpu0 = host::CpuTimes::now();
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let req = gen.next_request();
        tally.attempted += 1;
        let id = spans.open();
        let s0 = spans.now_ns();
        let r0 = Instant::now();
        let out = romp_serve::job::execute(rt, &req.spec);
        let lat = r0.elapsed().as_nanos() as u64;
        spans.close(id, 0, "serve.job.execute", tally.attempted, s0);
        tally.completed += 1;
        tally.lat_ns.push(lat);
        if !out.ok {
            tally.failed_verification += 1;
            tally.errors.push(format!("job failed: {}", out.detail));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Phase {
        tally,
        wall_s,
        steal: host::steal_since(cpu0),
        delta: None,
        spans,
    }
}

/// Account a timed phase's failures and samples in the report.
fn account(rep: &mut Report, label: &str, ph: &Phase) {
    rep.attempted += ph.tally.attempted;
    rep.failed += ph.tally.failed();
    rep.failures.extend(ph.tally.errors.iter().take(5).cloned());
    rep.samples
        .push((label.to_string(), ph.tally.lat_ns.len() as u64));
    if let Some(d) = &ph.delta {
        let served = d.counter("serve.jobs.completed");
        let client = ph.tally.completed - ph.tally.failed_verification;
        if served != client {
            rep.fail(format!(
                "{label}: serve.jobs.completed grew by {served} but the client saw {client} completions"
            ));
        }
        // A retried job was orphaned by a worker death.
        let retries = d.counter("cluster.retries");
        if retries > 0 {
            rep.fail(format!("{label}: {retries} cluster retries"));
        }
    }
}

/// End-to-end figures of a set of timed segments, pooled: verified
/// completions over the segments' summed wall time, and quantiles over
/// all their samples.  A p99 is `None` when the samples cannot support
/// it.
struct Figures {
    throughput: f64,
    p50_us: f64,
    p99_us: Option<f64>,
    hi_p99_us: Option<f64>,
    /// Samples behind `p99_us` and `hi_p99_us`.
    n: usize,
    top_n: usize,
}

fn p99_if_supported(ns: &[u64]) -> Option<f64> {
    latency(ns)
        .filter(|l| supports(l.n, 0.99))
        .map(|l| l.p99_us)
}

/// `None` when no request completed.
fn figures(phases: &[&Phase]) -> Option<Figures> {
    let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
    let verified: u64 = phases
        .iter()
        .map(|p| p.tally.completed - p.tally.failed_verification)
        .sum();
    let lat: Vec<u64> = phases
        .iter()
        .flat_map(|p| p.tally.lat_ns.iter().copied())
        .collect();
    // The top lane present: Hi when the mix has one, else every request.
    let hi: Vec<u64> = phases
        .iter()
        .flat_map(|p| p.tally.hi_lat_ns.iter().copied())
        .collect();
    let top = if hi.is_empty() { &lat } else { &hi };
    Some(Figures {
        throughput: verified as f64 / wall_s,
        p50_us: latency(&lat)?.p50_us,
        p99_us: p99_if_supported(&lat),
        hi_p99_us: p99_if_supported(top),
        n: lat.len(),
        top_n: top.len(),
    })
}

/// Whether the segments' samples, pooled, support both p99s.
fn supports_p99s(phases: &[&Phase]) -> bool {
    let count = |f: fn(&Tally) -> usize| phases.iter().map(|p| f(&p.tally)).sum::<usize>();
    let (all, hi) = (count(|t| t.lat_ns.len()), count(|t| t.hi_lat_ns.len()));
    supports(all, 0.99) && (hi == 0 || supports(hi, 0.99))
}

/// A pooled p99, or a failure when its samples cannot support one.
fn required_p99(rep: &mut Report, what: &str, p99: Option<f64>, n: usize) -> f64 {
    p99.unwrap_or_else(|| {
        rep.fail(format!(
            "{what}: {n} samples cannot support a p99 (highest supported: {:?})",
            highest_supported(n)
        ));
        f64::NAN
    })
}

/// What every request-phase replica of a run shares.
struct ReplicaCtx<'a> {
    args: &'a Args,
    warm: Duration,
    /// Length of one timed segment.
    seg: Duration,
    /// `TMPDIR` of the servers (cluster sockets and rmem files).
    tmp: PathBuf,
    epoch: Instant,
}

/// The request phase's launches and timed segments.
#[derive(Default)]
struct Requests {
    setups: Vec<f64>,
    untraced: Vec<Phase>,
    traced: Vec<Phase>,
}

/// Measure request-phase replicas `range`: launch a fresh system, warm
/// it up, time its segments (untraced, then traced with `--trace 1`),
/// and for a server check its drain.
fn run_replicas(
    ctx: &ReplicaCtx,
    range: std::ops::Range<usize>,
    rep: &mut Report,
    out: &mut Requests,
) -> Result<(), String> {
    let w = ctx.args.workload;
    let (conns, pipeline) = w.load();
    for r in range {
        // Traced, the two passes swap order from one replica to the next,
        // so drift within a replica does not read as tracing cost.
        let passes: &[bool] = match (ctx.args.trace, r % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut gens: Vec<Generator> = (0..conns)
            .map(|c| Generator::new(ctx.args.seed, (r * conns + c) as u64, w.mix()))
            .collect();
        if let Some(spec) = w.server() {
            let (server, d) = serve::launch(&ctx.args.bin_dir, spec, &ctx.tmp)?;
            out.setups.push(d.as_secs_f64());
            let mut clients = (0..conns)
                .map(|_| serve::connect(&server.addr))
                .collect::<Result<Vec<_>, _>>()?;
            let wp = serve_phase(
                &mut clients,
                &mut gens,
                pipeline,
                ctx.warm,
                false,
                ctx.epoch,
                false,
            )?;
            if wp.tally.failed() > 0 {
                rep.fail(format!("warm-up: {} failed requests", wp.tally.failed()));
            }
            for &t in passes {
                for _ in 0..SEGMENTS {
                    let ph = serve_phase(
                        &mut clients,
                        &mut gens,
                        pipeline,
                        ctx.seg,
                        t,
                        ctx.epoch,
                        true,
                    )?;
                    if t {
                        out.traced.push(ph);
                    } else {
                        out.untraced.push(ph);
                    }
                }
            }
            check_drain(rep, "measured server", server.shutdown(&mut clients[0])?);
        } else {
            let t0 = Instant::now();
            let rt = kernels::ready_runtime(BackendKind::Mca)?;
            out.setups.push(t0.elapsed().as_secs_f64());
            let gen = &mut gens[0];
            let wp = direct_phase(&rt, gen, ctx.warm, false, ctx.epoch);
            if wp.tally.failed() > 0 {
                rep.fail(format!("warm-up: {} failed jobs", wp.tally.failed()));
            }
            for &t in passes {
                for _ in 0..SEGMENTS {
                    let ph = direct_phase(&rt, gen, ctx.seg, t, ctx.epoch);
                    if t {
                        out.traced.push(ph);
                    } else {
                        out.untraced.push(ph);
                    }
                }
            }
        }
    }
    Ok(())
}

fn run(args: &Args, out_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let b = Budget::of(w, args.trace);
    let s = args.seconds;
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, args.trace);
    let mut rep = Report::default();

    // -- The request phase, on several fresh replicas of the system (a
    // server process, or a runtime for `kernels`); each gets a warm-up,
    // an untraced timed phase and, traced, a second timed phase.  After
    // each replica, with no server running, a share of the paper's
    // measurements runs in-process: NPB sets, and every few replicas a
    // Table I runtime pair.  So both sample the whole run, and neither
    // a burst of host contention nor a slow stretch of the host lands on
    // one of them alone.  The layer probes (traced) run halfway.
    let replicas = w.replicas();
    let ctx = ReplicaCtx {
        args,
        warm: secs(s * b.warmup / replicas as f64),
        seg: secs(s * b.timed / (replicas * SEGMENTS) as f64),
        tmp: out_dir.join("tmp"),
        epoch,
    };
    std::fs::create_dir_all(&ctx.tmp).map_err(|e| format!("{}: {e}", ctx.tmp.display()))?;
    let mut req = Requests::default();
    let mut table1 = kernels::Table1Runs::new();
    let mut npb_runs = kernels::NpbRuns::default();
    let mut rng = stream_rng(args.seed, 1 << 40);
    for r in 0..replicas {
        run_replicas(&ctx, r..r + 1, &mut rep, &mut req)?;
        if (r + 1) * TABLE1_PAIRS / replicas > r * TABLE1_PAIRS / replicas {
            table1.pair(secs(s * b.table1 / TABLE1_PAIRS as f64), &mut rec)?;
        }
        let share = (r + 1) as f64 / replicas as f64;
        npb_runs.sets(&mut rng, secs(s * b.npb * share), &mut rec)?;
        if args.trace && r + 1 == replicas / 2 {
            layer_probes(args, secs(s * b.probe), &mut rec, &mut rep, out_dir)?;
        }
    }
    let pairs = table1.pairs();
    let table = table1.finish();
    rep.attempted += table.cells.len() as u64;
    for bad in table.bad_cells() {
        rep.fail(format!("Table I cell not finite and positive: {bad}"));
    }
    let npb = npb_runs.finish();
    rep.attempted += npb.attempted;
    for f in &npb.failed {
        rep.fail(f.clone());
    }
    println!(
        "table1: {} runtime pairs, {} rounds; npb: {} verified set(s) of CG/MG/FT/IS class W",
        pairs,
        table.rounds,
        npb.set_times.len()
    );
    for c in &table.cells {
        println!(
            "  {:<13} native {:>8.3} us   mca {:>8.3} us   mca/native {:>6.3}",
            c.construct.label(),
            c.native_us,
            c.mca_us,
            c.mca_us / c.native_us
        );
    }
    for k in &npb.rows {
        println!(
            "  NPB {}.W {:>8.4} s {:>10.2} Mop/s",
            k.name, k.time_s, k.mops
        );
    }
    let sets: Vec<String> = npb
        .set_times
        .iter()
        .map(|(t, st)| format!("{t:.4} ({})", st.map_or("-".into(), |v| format!("{v:.3}"))))
        .collect();
    println!("npb set times s (steal): [{}]", sets.join(", "));

    let Requests {
        mut setups,
        untraced,
        traced,
    } = req;
    for (i, ph) in untraced.iter().enumerate() {
        account(&mut rep, &format!("untraced.{i}"), ph);
    }
    for (i, ph) in traced.iter().enumerate() {
        account(&mut rep, &format!("traced.{i}"), ph);
    }
    // Further launches, measured for set-up time only.
    while setups.len() < SETUPS {
        if let Some(spec) = w.server() {
            let (server, d) = serve::launch(&args.bin_dir, spec, &ctx.tmp)?;
            setups.push(d.as_secs_f64());
            let mut c = serve::connect(&server.addr)?;
            check_drain(&mut rep, "set-up server", server.shutdown(&mut c)?);
        } else {
            let t0 = Instant::now();
            let rt = kernels::ready_runtime(BackendKind::Mca)?;
            setups.push(t0.elapsed().as_secs_f64());
            drop(rt);
        }
    }

    // -- End-to-end metrics over the untraced segments, pooled.
    let kept = least_disturbed(&untraced, |p| p.steal, supports_p99s);
    let figs = figures(&kept).ok_or("no untraced request completed")?;
    let p99 = required_p99(&mut rep, "latency", figs.p99_us, figs.n);
    let hi_p99 = required_p99(&mut rep, "top-lane latency", figs.hi_p99_us, figs.top_n);
    rep.e2e = vec![
        ("setup_s", median(&setups).unwrap_or(f64::NAN), "s"),
        ("throughput_rps", figs.throughput, "1/s"),
        ("latency_p50_us", figs.p50_us, "us"),
        ("latency_p99_us", p99, "us"),
        ("hi_latency_p99_us", hi_p99, "us"),
        (
            "epcc_ratio_geomean",
            table.ratio_geomean().unwrap_or(f64::NAN),
            "ratio",
        ),
        (
            "epcc_mca_us_geomean",
            table.mca_geomean().unwrap_or(f64::NAN),
            "us",
        ),
        ("npb_time_s", npb.time_s, "s"),
    ];
    let total = |f: fn(&Tally) -> u64| untraced.iter().map(|p| f(&p.tally)).sum::<u64>();
    println!(
        "requests: {} completed over {replicas} replicas x {} segments ({} setups), {} rejected, {} shed; \
         figures from the {} least-disturbed segments: {} latency samples, {} top-lane",
        total(|t| t.completed),
        SEGMENTS,
        setups.len(),
        total(|t| t.rejections),
        total(|t| t.sheds),
        kept.len(),
        figs.n,
        figs.top_n,
    );
    let all: Vec<&Phase> = untraced.iter().collect();
    if let Some(a) = figures(&all) {
        println!(
            "all segments pooled: throughput {:.1} 1/s, p50 {:.1} us, p99 {}, top-lane p99 {}",
            a.throughput,
            a.p50_us,
            a.p99_us.map_or("-".into(), |v| format!("{v:.1} us")),
            a.hi_p99_us.map_or("-".into(), |v| format!("{v:.1} us")),
        );
    }
    // Per-segment figures, for reading a run: where in it the host was
    // noisy.
    let segs: Vec<Option<Figures>> = untraced.iter().map(|p| figures(&[p])).collect();
    let list = |f: fn(&Figures) -> Option<f64>| {
        segs.iter()
            .map(|x| {
                x.as_ref()
                    .and_then(f)
                    .map_or("-".into(), |v| format!("{v:.1}"))
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let steals: Vec<String> = untraced
        .iter()
        .map(|p| p.steal.map_or("-".into(), |v| format!("{v:.3}")))
        .collect();
    println!("segment steal: [{}]", steals.join(","));
    println!("segment throughput 1/s: [{}]", list(|f| Some(f.throughput)));
    println!("segment p50 us: [{}]", list(|f| Some(f.p50_us)));
    println!("segment p99 us: [{}]", list(|f| f.p99_us));
    println!("segment top-lane p99 us: [{}]", list(|f| f.hi_p99_us));

    // -- Per-layer metrics: the traced segments, pooled.
    if args.trace {
        let tfigs = figures(&least_disturbed(&traced, |p| p.steal, supports_p99s))
            .ok_or("no traced request completed")?;
        let mut delta: Option<StatsDelta> = None;
        let mut lat_ns = Vec::new();
        for t in &traced {
            lat_ns.extend_from_slice(&t.tally.lat_ns);
            if let Some(d) = &t.delta {
                delta.get_or_insert_with(StatsDelta::default).add(d);
            }
        }
        let (u50, t50) = (figs.p50_us, tfigs.p50_us);
        let (urps, trps) = (figs.throughput, tfigs.throughput);
        println!(
            "tracing overhead ({}): latency_p50 {:+.2} us ({:+.1}%), throughput {:+.1} 1/s ({:+.1}%)",
            w.name(),
            t50 - u50,
            100.0 * (t50 / u50 - 1.0),
            trps - urps,
            100.0 * (trps / urps - 1.0)
        );
        for t in traced {
            rec.absorb(t.spans);
        }
        let client_mean_us = latency(&lat_ns)
            .ok_or("no traced request completed")?
            .mean_us;
        server_layers(&mut rep, w, delta.as_ref(), client_mean_us, rec.spans());
        for c in &table.cells {
            let k = kernels::construct_key(c.construct);
            rep.layer(format!("romp.epcc.{k}.mca_us"), c.mca_us, "us");
            rep.layer(format!("romp.epcc.{k}.native_us"), c.native_us, "us");
        }
        rep.layer("romp.barriers", npb.barriers, "count");
        rep.layer("romp.steals_local", npb.steals_local, "count");
        rep.layer("romp.steals_remote", npb.steals_remote, "count");
        for k in &npb.rows {
            let n = k.name.to_ascii_lowercase();
            rep.layer(format!("npb.{n}.time_s"), k.time_s, "s");
            rep.layer(format!("npb.{n}.mops"), k.mops, "Mop/s");
        }
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        rec.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", rec.spans().len(), path.display());
    }
    Ok(rep)
}

/// Time the layer probes, in-process with no server running, and record
/// their per-layer metrics.
fn layer_probes(
    args: &Args,
    pb: Duration,
    rec: &mut Recorder,
    rep: &mut Report,
    out_dir: &Path,
) -> Result<(), String> {
    let w = args.workload;
    let (conns, pipeline) = w.load();
    let mix = w.mix();
    let reqs = layers::sample_requests(args.seed, mix, 256);
    let mca = kernels::ready_runtime(BackendKind::Mca)?;
    let (exec_us, exec_ok) = rec.time("layer.serve.job.execute", 0, || {
        layers::job_execute_us(&mca, &reqs, pb)
    });
    if !exec_ok {
        rep.fail("serve.job.execute probe: a job failed verification".into());
    }
    drop(mca);
    rep.layer("serve.job.execute_us", exec_us, "us");
    let v = rec.time("layer.serve.protocol.codec", 0, || {
        layers::protocol_codec_ns(&reqs, pb)
    });
    rep.layer("serve.protocol.codec_ns", v, "ns");
    let depth = conns * pipeline;
    let v = rec.time("layer.serve.queue.push_pop", 0, || {
        layers::queue_push_pop_ns(&reqs, depth, pb)
    });
    rep.layer("serve.queue.push_pop_ns", v, "ns");
    let v = rec.time("layer.trace.histogram_record", 0, || {
        layers::histogram_record_ns(pb)
    });
    rep.layer("trace.histogram_record_ns", v, "ns");
    let v = rec.time("layer.cluster.proto.codec", 0, || {
        layers::cluster_codec_ns(&reqs, pb)
    });
    rep.layer("cluster.proto.codec_ns", v, "ns");
    let v = rec.time("layer.mcapi.wire_rtt", 0, || layers::wire_rtt_us(&reqs, pb))?;
    rep.layer("mcapi.wire_rtt_us", v, "us");
    let v = rec.time("layer.mtapi.task_roundtrip", 0, || {
        layers::mtapi_roundtrip_us(pb)
    })?;
    rep.layer("mtapi.task_roundtrip_us", v, "us");
    let v = rec.time("layer.mrapi.rmem_write_read", 0, || {
        layers::rmem_write_read_us(out_dir, &reqs, pb)
    })?;
    rep.layer("mrapi.rmem_write_read_us", v, "us");
    let v = rec.time("layer.mrapi.mutex_lock_unlock", 0, || {
        layers::mutex_lock_unlock_ns(pb)
    })?;
    rep.layer("mrapi.mutex_lock_unlock_ns", v, "ns");
    Ok(())
}

fn check_drain(rep: &mut Report, what: &str, d: serve::Drain) {
    if !d.exit_ok || d.dropped != 0 || d.rmem_leaked != 0 {
        rep.fail(format!(
            "{what}: server drain dropped={} rmem_leaked={} exit_ok={}",
            d.dropped, d.rmem_leaked, d.exit_ok
        ));
    }
}

/// The `Stats`-derived per-layer metrics and the ledger.  Layers the
/// workload does not run read 0.
fn server_layers(
    rep: &mut Report,
    w: Workload,
    delta: Option<&StatsDelta>,
    client_mean_us: f64,
    spans: &[Span],
) {
    let Some(d) = delta else {
        for name in [
            "serve.queue_wait_us",
            "serve.exec_us",
            "serve.handle_us",
            "serve.total_us",
            "serve.residual_us",
            "cluster.unattributed_us",
        ] {
            rep.layer(name, 0.0, "us");
        }
        for (name, unit) in [
            ("serve.reactor.batch_mean", "count"),
            ("serve.reactor.wakeups_per_job", "count"),
            ("serve.admission.rejected_frac", "ratio"),
            ("serve.sched.sheds", "count"),
            ("serve.sched.deadline_miss", "count"),
            ("cluster.rmem.inline_frac", "ratio"),
            ("cluster.retries", "count"),
        ] {
            rep.layer(name, 0.0, unit);
        }
        return;
    };
    let jobs = (d.counter("serve.jobs.completed") + d.counter("serve.jobs.failed")).max(1) as f64;
    let queue = d.mean("serve.latency.queue_ns") / 1e3;
    let exec = d.mean("serve.latency.exec_ns") / 1e3;
    let total = d.mean("serve.latency.total_ns") / 1e3;
    let handle = d.mean("serve.latency.handle_ns") / 1e3;
    let handle_per_job = d.histogram("serve.latency.handle_ns").1 as f64 / 1e3 / jobs;
    let probe = |n: &str| {
        rep.layers
            .iter()
            .find(|(name, _, _)| name == n)
            .map_or(f64::NAN, |(_, v, _)| *v)
    };
    let [job_probe, wire, mtapi, rmem, codec] = [
        "serve.job.execute_us",
        "mcapi.wire_rtt_us",
        "mtapi.task_roundtrip_us",
        "mrapi.rmem_write_read_us",
        "cluster.proto.codec_ns",
    ]
    .map(probe);
    // A cluster worker reports its wall time before it waits for the
    // job's task, so `serve.latency.exec_ns` there leaves the execution
    // out; the job itself is timed by the `serve.job.execute` probe.
    let (exec_stage, job_exec) = if w == Workload::RpcCluster {
        ("worker exec (probe)", job_probe)
    } else {
        ("serve.exec", exec)
    };
    let unattributed = total - queue - job_exec;
    // Client time the server's admission-to-terminal span does not cover:
    // the wire, the reactor and the client itself.
    let residual = client_mean_us - total;
    let accepted = d.counter("serve.submit.accepted");
    let rejected = d.counter("serve.submit.rejected");
    let sheds: u64 = ["hi", "normal", "batch"]
        .iter()
        .map(|l| d.counter(&format!("serve.sched.sheds.{l}")))
        .sum();
    let dispatched = d.counter("cluster.dispatched");
    rep.layer("serve.queue_wait_us", queue, "us");
    rep.layer("serve.exec_us", exec, "us");
    rep.layer("serve.handle_us", handle, "us");
    rep.layer("serve.total_us", total, "us");
    rep.layer("serve.residual_us", residual, "us");
    rep.layer("cluster.unattributed_us", unattributed, "us");
    rep.layer(
        "serve.reactor.batch_mean",
        d.mean("serve.reactor.batch_size"),
        "count",
    );
    rep.layer(
        "serve.reactor.wakeups_per_job",
        d.counter("serve.reactor.wakeups") as f64 / jobs,
        "count",
    );
    rep.layer(
        "serve.admission.rejected_frac",
        rejected as f64 / (accepted + rejected).max(1) as f64,
        "ratio",
    );
    rep.layer("serve.sched.sheds", sheds as f64, "count");
    rep.layer(
        "serve.sched.deadline_miss",
        d.counter("serve.sched.deadline_miss") as f64,
        "count",
    );
    rep.layer(
        "cluster.rmem.inline_frac",
        if dispatched > 0 {
            d.counter("cluster.rmem.inline") as f64 / dispatched as f64
        } else {
            0.0
        },
        "ratio",
    );
    rep.layer(
        "cluster.retries",
        d.counter("cluster.retries") as f64,
        "count",
    );

    let server_gap = if w == Workload::RpcCluster {
        "cluster hop (unattributed)"
    } else {
        "dispatch (unattributed)"
    };
    let ledger = Ledger {
        client_mean_us,
        stages: vec![
            ("serve.handle", handle_per_job),
            ("serve.queue_wait", queue),
            (exec_stage, job_exec),
            (server_gap, unattributed),
        ],
    };
    println!(
        "ledger ({}, traced phase, mean per request; residual = wire + reactor + client):\n{}",
        w.name(),
        ledger.render()
    );
    if let (Some(sub), Some(aw)) = (
        spans::mean_us(spans, "client.submit"),
        spans::mean_us(spans, "client.await"),
    ) {
        println!("  client spans: submit round trip {sub:.2} us, await {aw:.2} us");
    }
    if w == Workload::RpcCluster {
        println!(
            "  serve.exec as the worker reports it: {exec:.2} us (taken before the task's wait, \
             so without the job's execution; not in the ledger)"
        );
        println!(
            "  cluster hop, layer probes alone (one each per request): wire round trip {:.2} us, \
             MTAPI task {:.2} us, rmem write+read {:.3} us, ToWorker/ToRouter codec {:.3} us",
            wire,
            mtapi,
            rmem,
            2.0 * codec / 1e3
        );
    }
    println!(
        "  ledger residual share of client mean: {:.1}%",
        100.0 * ledger.residual_share()
    );
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rep = match run(&args, &out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    for (name, v, unit) in &rep.e2e {
        if !v.is_finite() {
            rep.failures.push(format!("{name} is not a finite number"));
            rep.failed += 1;
        }
        println!("{name:<22} {v:>14.6} {unit}");
    }
    let error_rate = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "{:<22} {:>14.6} ratio ({} failed of {} attempted)",
        "error_rate", error_rate, rep.failed, rep.attempted
    );
    for (name, v, unit) in &rep.layers {
        println!("{name:<34} {v:>14.4} {unit}");
    }
    for f in &rep.failures {
        println!("FAIL: {f}");
    }
    let (conns, pipeline) = args.workload.load();
    let samples: Vec<String> = rep
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\":{n}"))
        .collect();
    let host = format!(
        "{{\"workload\":\"{}\",\"nproc\":{nproc},\"backend\":\"mca\",\"server_threads\":2,\
         \"worker_threads\":{},\"client_connections\":{conns},\"pipeline\":{pipeline},\
         \"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"samples\":{{{}}}}}",
        args.workload.name(),
        if args.workload == Workload::RpcCluster {
            "2"
        } else {
            "null"
        },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_escape(&commit()),
        samples.join(",")
    );
    println!("host {host}");
    let correct = rep.failed == 0;
    let metrics: Vec<String> = if args.trace {
        rep.layers
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{u}\"}}",
                    json_escape(n),
                    num(*v)
                )
            })
            .collect()
    } else {
        rep.e2e
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect()
    };
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    );
    let file = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, format!("{{\"host\":{host},\"result\":{result}}}\n")) {
        eprintln!("perfbench: {}: {e}", file.display());
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
