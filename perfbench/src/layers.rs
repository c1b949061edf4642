//! Per-layer probes: each times one layer's public functions directly,
//! from outside, with inputs shaped like the workload's own traffic.
//!
//! A probe runs a discarded warm-up batch, then batches until its budget
//! is spent, and reports the median batch mean.

use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use mca_mcapi::WireChan;
use mca_mrapi::sync::MutexAttributes;
use mca_mrapi::{DomainId, MrapiSystem, NodeId, RmemAttributes, MRAPI_TIMEOUT_INFINITE};
use mca_mtapi::Mtapi;
use romp::{CancelToken, Runtime};
use romp_cluster::proto::{ToRouter, ToWorker};
use romp_serve::{JobQueue, JobSpec, JobState, QueuedJob, Request, Response, DEFAULT_LANE_WEIGHTS};
use romp_trace::Histogram;

use crate::gen::{GenRequest, Generator};
use crate::stats::median;

/// MRAPI domain of the benchmark's own nodes (apart from the cluster's).
const PROBE_DOMAIN: u32 = 11;
/// `Request`/`Response::encode` emit whole frames; `decode` takes the
/// body after this big-endian `u32` length prefix.
const FRAME_PREFIX: usize = 4;

/// Time `op` in batches of `batch` calls for `budget` (at least three
/// batches, after one discarded warm-up batch); the median batch mean in
/// nanoseconds per call.
pub fn per_call_ns(budget: Duration, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    for _ in 0..batch {
        op(i);
        i += 1;
    }
    let mut means = Vec::new();
    let t0 = Instant::now();
    while means.len() < 3 || t0.elapsed() < budget {
        let b0 = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        means.push(b0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&means).unwrap_or(f64::NAN)
}

/// The workload's request stream, materialised for the probes.
pub fn sample_requests(seed: u64, gen_mix: crate::gen::LaneMix, n: usize) -> Vec<GenRequest> {
    let mut g = Generator::new(seed, 1 << 32, gen_mix);
    (0..n).map(|_| g.next_request()).collect()
}

/// A result detail the size of the ones EPCC jobs return.
fn detail_of(spec: &JobSpec) -> String {
    match spec {
        JobSpec::Epcc {
            construct,
            threads,
            inner_reps,
        } => {
            format!("{} x{inner_reps} on {threads} threads", construct.label())
        }
        other => format!("{other:?}"),
    }
}

/// `romp_serve::job::execute` on `rt`, microseconds per job.
pub fn job_execute_us(rt: &Runtime, reqs: &[GenRequest], budget: Duration) -> (f64, bool) {
    let mut all_ok = true;
    let ns = per_call_ns(budget, 32, |i| {
        let out = romp_serve::job::execute(rt, &reqs[i % reqs.len()].spec);
        all_ok &= out.ok;
    });
    (ns / 1e3, all_ok)
}

/// Encode and decode of the four frames one request costs (Submit,
/// Accepted, Await, JobResult), nanoseconds per frame.
pub fn protocol_codec_ns(reqs: &[GenRequest], budget: Duration) -> f64 {
    let frames: Vec<(Request, Request, Response, Response)> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let job = 1000 + i as u64;
            (
                Request::Submit {
                    spec: r.spec,
                    deadline_ms: r.deadline_ms,
                    idem_key: 0,
                    affinity: 0,
                    priority: r.priority,
                },
                Request::Await { job },
                Response::Accepted { job },
                Response::JobResult {
                    job,
                    ok: true,
                    wall_us: 80,
                    detail: detail_of(&r.spec),
                },
            )
        })
        .collect();
    let per_request = per_call_ns(budget, 256, |i| {
        let (submit, await_, accepted, result) = &frames[i % frames.len()];
        for req in [submit, await_] {
            black_box(
                Request::decode(&black_box(req.encode())[FRAME_PREFIX..]).expect("round trip"),
            );
        }
        for resp in [accepted, result] {
            black_box(
                Response::decode(&black_box(resp.encode())[FRAME_PREFIX..]).expect("round trip"),
            );
        }
    });
    per_request / 4.0
}

/// `JobQueue` push then pop with the workload's lane mix, nanoseconds
/// per pair, at the depth the workload keeps (`depth` jobs queued).
pub fn queue_push_pop_ns(reqs: &[GenRequest], depth: usize, budget: Duration) -> f64 {
    let q = JobQueue::with_weights(depth + 1, DEFAULT_LANE_WEIGHTS);
    let job = |i: usize| {
        let r = &reqs[i % reqs.len()];
        QueuedJob {
            id: i as u64,
            spec: r.spec,
            enqueued_ns: i as u64,
            cancel: CancelToken::new(),
            deadline_ns: (r.deadline_ms > 0)
                .then(|| i as u64 + u64::from(r.deadline_ms) * 1_000_000),
            affinity: 0,
            priority: r.priority,
        }
    };
    for i in 0..depth {
        q.try_push(job(i)).expect("below capacity");
    }
    per_call_ns(budget, 256, |i| {
        q.try_push(job(depth + i)).expect("below capacity");
        black_box(q.try_pop().expect("non-empty"));
    })
}

/// `Histogram::record` of latency-like values, nanoseconds per record.
pub fn histogram_record_ns(budget: Duration) -> f64 {
    let h = Histogram::exponential_ns();
    per_call_ns(budget, 4096, |i| {
        h.record(black_box(20_000 + (i as u64 * 7919) % 200_000))
    })
}

/// `ToWorker::Dispatch` and `ToRouter::Done` encode and decode,
/// nanoseconds per message.
pub fn cluster_codec_ns(reqs: &[GenRequest], budget: Duration) -> f64 {
    let msgs: Vec<(ToWorker, ToRouter)> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let job = 1000 + i as u64;
            (
                ToWorker::Dispatch { job, spec: r.spec },
                ToRouter::Done {
                    job,
                    state: JobState::Done,
                    ok: true,
                    wall_us: 80,
                    slot: romp_cluster::proto::SLOT_INLINE,
                    len: 0,
                    inline: detail_of(&r.spec).into_bytes(),
                },
            )
        })
        .collect();
    per_call_ns(budget, 256, |i| {
        let (d, done) = &msgs[i % msgs.len()];
        black_box(ToWorker::decode(&black_box(d.encode())).expect("round trip"));
        black_box(ToRouter::decode(&black_box(done.encode())).expect("round trip"));
    }) / 2.0
}

/// `WireChan` ping-pong over a socket pair: a Dispatch-sized packet one
/// way, a Done-sized packet back; microseconds per round trip.
pub fn wire_rtt_us(reqs: &[GenRequest], budget: Duration) -> Result<f64, String> {
    let (a, b) = UnixStream::pair().map_err(|e| e.to_string())?;
    let a = WireChan::from_stream(a).map_err(|e| e.to_string())?;
    let b = WireChan::from_stream(b).map_err(|e| e.to_string())?;
    let r = &reqs[0];
    let ping = ToWorker::Dispatch {
        job: 1,
        spec: r.spec,
    }
    .encode();
    let pong = ToRouter::Done {
        job: 1,
        state: JobState::Done,
        ok: true,
        wall_us: 80,
        slot: romp_cluster::proto::SLOT_INLINE,
        len: 0,
        inline: detail_of(&r.spec).into_bytes(),
    }
    .encode();
    let echo = std::thread::spawn(move || {
        while let Ok(p) = b.recv() {
            if p.is_empty() || b.send(&pong).is_err() {
                break;
            }
        }
    });
    let mut err = None;
    let ns = per_call_ns(budget, 64, |_| {
        if err.is_none() {
            if let Err(e) = a.send(&ping).and_then(|_| a.recv()) {
                err = Some(e.to_string());
            }
        }
    });
    let _ = a.send(&[]);
    let _ = echo.join();
    match err {
        Some(e) => Err(format!("wire ping-pong: {e}")),
        None => Ok(ns / 1e3),
    }
}

/// MTAPI `Job::start` + `Task::wait` of a trivial action on a one-thread
/// pool, microseconds per task.
pub fn mtapi_roundtrip_us(budget: Duration) -> Result<f64, String> {
    let mtapi = Mtapi::initialize(PROBE_DOMAIN, 1, 1).map_err(|e| e.to_string())?;
    mtapi
        .create_action(1, |input| input.to_vec())
        .map_err(|e| e.to_string())?;
    let job = mtapi.job(1).map_err(|e| e.to_string())?;
    let mut err = None;
    let ns = per_call_ns(budget, 64, |i| {
        let out = job
            .start((i as u64).to_be_bytes().to_vec())
            .and_then(|t| t.wait(None));
        if let Err(e) = out {
            err.get_or_insert(e.to_string());
        }
    });
    match err {
        Some(e) => Err(format!("mtapi: {e}")),
        None => Ok(ns / 1e3),
    }
}

/// MRAPI file-backed rmem: write a result detail into a slot and read it
/// back, microseconds per pair.
pub fn rmem_write_read_us(
    dir: &Path,
    reqs: &[GenRequest],
    budget: Duration,
) -> Result<f64, String> {
    let sys = MrapiSystem::new_t4240();
    let node = sys
        .initialize(DomainId(PROBE_DOMAIN), NodeId(2))
        .map_err(|e| e.to_string())?;
    let path = dir.join("probe-rmem.bin");
    let slot_bytes = 256usize;
    let slots = 32usize;
    let rmem = node
        .rmem_create_file(7, &path, slot_bytes * slots, &RmemAttributes::default())
        .map_err(|e| e.to_string())?;
    let details: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| detail_of(&r.spec).into_bytes())
        .collect();
    let mut buf = vec![0u8; slot_bytes];
    let mut err = None;
    let ns = per_call_ns(budget, 64, |i| {
        let d = &details[i % details.len()];
        let off = (i % slots) * slot_bytes;
        let out = rmem
            .write(off, d)
            .and_then(|_| rmem.read(off, &mut buf[..d.len()]));
        if let Err(e) = out {
            err.get_or_insert(e.to_string());
        } else if &buf[..d.len()] != d.as_slice() {
            err.get_or_insert("rmem read back different bytes".into());
        }
    });
    let _ = rmem.delete();
    let _ = std::fs::remove_file(&path);
    match err {
        Some(e) => Err(format!("rmem: {e}")),
        None => Ok(ns / 1e3),
    }
}

/// Uncontended MRAPI mutex lock + unlock, nanoseconds per pair.
pub fn mutex_lock_unlock_ns(budget: Duration) -> Result<f64, String> {
    let sys = MrapiSystem::new_t4240();
    let node = sys
        .initialize(DomainId(PROBE_DOMAIN), NodeId(3))
        .map_err(|e| e.to_string())?;
    let m = node
        .mutex_create(42, &MutexAttributes::default())
        .map_err(|e| e.to_string())?;
    let mut err = None;
    let ns = per_call_ns(budget, 1024, |_| {
        let out = m.lock(MRAPI_TIMEOUT_INFINITE).and_then(|k| m.unlock(&k));
        if let Err(e) = out {
            err.get_or_insert(e.to_string());
        }
    });
    match err {
        Some(e) => Err(format!("mrapi mutex: {e}")),
        None => Ok(ns),
    }
}
