//! The worker process: one MRAPI node running one `romp` runtime,
//! executing jobs the router dispatches over the MCAPI wire.
//!
//! Lifecycle: connect to the router's Unix socket ([`mca_mcapi::WireChan`]),
//! create the file-backed rmem result segment, send `Hello`, then serve
//! `Dispatch`/`Cancel`/`Release` messages until `Exit` (graceful — waits
//! for in-flight jobs, deletes the segment) or the channel dies (the
//! router is gone; exit immediately, the OS reclaims everything).
//!
//! Inside the process the dispatch vocabulary is MTAPI: the romp job is
//! action `JOB_RUN_SPEC` on the worker's [`Mtapi`] runtime, started as
//! one task per `Dispatch` and awaited by a completion thread that
//! writes the result detail into an rmem slot (or inline when no slot
//! fits) and answers `Done`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mca_mcapi::WireChan;
use mca_mrapi::{DomainId, MrapiSystem, NodeId, RmemAttributes};
use mca_mtapi::{Mtapi, MtapiStatus, Task};
use mca_sync::Mutex;
use romp::{BackendKind, CancelToken, Config, Runtime};
use romp_serve::job::run_supervised;
use romp_serve::lifecycle::terminal_for;
use romp_serve::protocol::{spec_from_bytes, spec_to_bytes};
use romp_serve::{JobOutcome, JobState};

use crate::proto::{ToRouter, ToWorker, SLOT_INLINE};

/// The MTAPI job id carrying "run a romp job spec".
pub const JOB_RUN_SPEC: u32 = 1;

/// The MRAPI domain all cluster workers initialize into.
pub const CLUSTER_DOMAIN: u32 = 7;

/// Worker construction parameters (parsed from `romp-worker` flags).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The router's Unix-socket path to connect to.
    pub socket: PathBuf,
    /// This worker's index in the pool (also its MRAPI node id).
    pub worker_id: u32,
    /// romp pool threads for job execution.
    pub threads: usize,
    /// Which romp backend to run jobs on.
    pub backend: BackendKind,
    /// Path of the file backing the rmem result segment.
    pub rmem_path: PathBuf,
    /// Result slots in the segment.
    pub slots: u32,
    /// Bytes per result slot.
    pub slot_bytes: u32,
    /// Heartbeat period, milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            socket: PathBuf::new(),
            worker_id: 0,
            threads: 2,
            backend: BackendKind::Native,
            rmem_path: PathBuf::new(),
            slots: 32,
            slot_bytes: 8192,
            heartbeat_ms: 25,
        }
    }
}

/// One started task queued for the completion thread.
struct Finished {
    job: u64,
    task: Task,
}

/// Worker process body.  Returns the process exit code: `0` after a
/// graceful `Exit`, non-zero when the router vanished or setup failed.
pub fn run_worker(cfg: WorkerConfig) -> i32 {
    let chan = match WireChan::connect(&cfg.socket, Duration::from_secs(5)) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("romp-worker[{}]: connect failed: {e}", cfg.worker_id);
            return 2;
        }
    };

    // MRAPI node + the file-backed result segment the router attaches.
    let sys = MrapiSystem::new_t4240();
    let node = match sys.initialize(DomainId(CLUSTER_DOMAIN), NodeId(cfg.worker_id)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("romp-worker[{}]: mrapi init failed: {e}", cfg.worker_id);
            return 2;
        }
    };
    let seg_bytes = (cfg.slots as usize) * (cfg.slot_bytes as usize);
    let rmem = match node.rmem_create_file(
        cfg.worker_id,
        &cfg.rmem_path,
        seg_bytes.max(1),
        &RmemAttributes::default(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("romp-worker[{}]: rmem create failed: {e}", cfg.worker_id);
            return 2;
        }
    };

    // The romp runtime every job executes on (this process's pool).
    let rt = match Runtime::with_config(
        Config::from_env()
            .with_backend(cfg.backend)
            .with_num_threads(cfg.threads.max(1)),
    ) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("romp-worker[{}]: runtime failed: {e}", cfg.worker_id);
            return 2;
        }
    };

    // MTAPI: the remote-dispatch vocabulary.  One action — "run a romp
    // job spec" — executed by the MTAPI pool (1 worker: jobs already
    // parallelize internally through the romp pool; a second MTAPI
    // thread would just contend for it).
    let mtapi = match Mtapi::initialize(CLUSTER_DOMAIN, cfg.worker_id, 1) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            eprintln!("romp-worker[{}]: mtapi init failed: {e}", cfg.worker_id);
            return 2;
        }
    };
    let tokens: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::new(Mutex::new(HashMap::new()));
    let action_rt = rt.clone();
    let action_tokens = Arc::clone(&tokens);
    mtapi
        .create_action(JOB_RUN_SPEC, move |input| {
            run_spec_action(&action_rt, &action_tokens, input)
        })
        .expect("fresh action table");
    let job_handle = mtapi.job(JOB_RUN_SPEC).expect("action registered");

    // Free result slots (indices into the rmem segment).
    let free_slots: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new((0..cfg.slots).rev().collect()));
    let inflight = Arc::new(AtomicU32::new(0));

    // Hello must be the first packet on the wire (the router's accept
    // path waits for it), so send it before the heartbeat starts.
    let hello = ToRouter::Hello {
        worker: cfg.worker_id,
        pid: std::process::id(),
        rmem_id: cfg.worker_id,
        slots: cfg.slots,
        slot_bytes: cfg.slot_bytes,
    };
    if chan.send(&hello.encode()).is_err() {
        return 3;
    }

    // Heartbeat thread: liveness beacon; a send error means the router
    // is gone — nothing left to serve.
    {
        let chan = Arc::clone(&chan);
        let inflight = Arc::clone(&inflight);
        let period = Duration::from_millis(cfg.heartbeat_ms.max(1));
        let mtapi = Arc::clone(&mtapi);
        std::thread::Builder::new()
            .name("worker-heartbeat".into())
            .spawn(move || {
                let mut seq = 0u64;
                loop {
                    seq += 1;
                    let msg = ToRouter::Heartbeat {
                        seq,
                        inflight: inflight.load(Ordering::Relaxed),
                        executed: mtapi.tasks_executed() as u64,
                    };
                    if chan.send(&msg.encode()).is_err() {
                        std::process::exit(3);
                    }
                    std::thread::sleep(period);
                }
            })
            .expect("spawn heartbeat");
    }

    // Completion thread: awaits finished MTAPI tasks in dispatch order,
    // moves the detail into an rmem slot (zero-copy fetch) or inline,
    // answers Done.
    let (done_tx, done_rx) = mpsc::channel::<Finished>();
    let completion = {
        let chan = Arc::clone(&chan);
        let tokens = Arc::clone(&tokens);
        let free_slots = Arc::clone(&free_slots);
        let inflight = Arc::clone(&inflight);
        let slot_bytes = cfg.slot_bytes;
        let rmem = node.rmem_get(cfg.worker_id).expect("own segment");
        std::thread::Builder::new()
            .name("worker-completion".into())
            .spawn(move || {
                while let Ok(fin) = done_rx.recv() {
                    // The action measures its own run; a task that never
                    // ran reports 0.
                    let (state, ok, wall_us, detail) = match fin.task.wait(None) {
                        Ok(bytes) => decode_outcome(&bytes),
                        Err(e) if e.0 == MtapiStatus::ErrTaskCancelled => (
                            JobState::Cancelled,
                            false,
                            0,
                            b"cancelled before start".to_vec(),
                        ),
                        Err(e) => (
                            JobState::Failed,
                            false,
                            0,
                            format!("mtapi: {e}").into_bytes(),
                        ),
                    };
                    tokens.lock().remove(&fin.job);
                    inflight.fetch_sub(1, Ordering::Relaxed);
                    // Prefer the shared-memory path; fall back inline
                    // when the detail outgrows a slot or none is free.
                    let mut slot = SLOT_INLINE;
                    if detail.len() <= slot_bytes as usize {
                        if let Some(s) = free_slots.lock().pop() {
                            if rmem
                                .write((s as usize) * (slot_bytes as usize), &detail)
                                .is_ok()
                            {
                                slot = s;
                            } else {
                                free_slots.lock().push(s);
                            }
                        }
                    }
                    let msg = ToRouter::Done {
                        job: fin.job,
                        state,
                        ok,
                        wall_us,
                        slot,
                        len: detail.len() as u32,
                        inline: if slot == SLOT_INLINE {
                            detail
                        } else {
                            Vec::new()
                        },
                    };
                    if chan.send(&msg.encode()).is_err() {
                        std::process::exit(3);
                    }
                }
            })
            .expect("spawn completion")
    };

    // Main loop: control messages until Exit or channel death.
    loop {
        let pkt = match chan.recv() {
            Ok(p) => p,
            // Router died or closed without Exit: nothing to flush that
            // anyone will read.  The OS reclaims the mapping; the file
            // is the router's to clean up.
            Err(_) => return 3,
        };
        match ToWorker::decode(&pkt) {
            Ok(ToWorker::Dispatch { job, spec }) => {
                let token = CancelToken::new();
                tokens.lock().insert(job, token.clone());
                inflight.fetch_add(1, Ordering::Relaxed);
                let mut input = Vec::with_capacity(16);
                input.extend_from_slice(&job.to_be_bytes());
                input.extend_from_slice(&spec_to_bytes(&spec));
                match job_handle.start(input) {
                    Ok(task) => {
                        let _ = done_tx.send(Finished { job, task });
                    }
                    Err(e) => {
                        tokens.lock().remove(&job);
                        inflight.fetch_sub(1, Ordering::Relaxed);
                        let msg = ToRouter::Done {
                            job,
                            state: JobState::Failed,
                            ok: false,
                            wall_us: 0,
                            slot: SLOT_INLINE,
                            len: 0,
                            inline: format!("task start: {e}").into_bytes(),
                        };
                        if chan.send(&msg.encode()).is_err() {
                            return 3;
                        }
                    }
                }
            }
            Ok(ToWorker::Cancel { job, deadline }) => {
                if let Some(token) = tokens.lock().get(&job) {
                    if deadline {
                        token.cancel_deadline();
                    } else {
                        token.cancel();
                    }
                }
            }
            Ok(ToWorker::Release { slot }) => {
                if slot < cfg.slots {
                    let mut free = free_slots.lock();
                    if !free.contains(&slot) {
                        free.push(slot);
                    }
                }
            }
            Ok(ToWorker::Exit) => break,
            // A malformed control packet is a router bug; refuse loudly
            // rather than guessing.
            Err(e) => {
                eprintln!("romp-worker[{}]: bad control packet: {e}", cfg.worker_id);
                return 4;
            }
        }
    }

    // Graceful exit: let in-flight jobs finish (the completion thread
    // drains them through Done), then tear down.
    while inflight.load(Ordering::Relaxed) > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(done_tx);
    let _ = completion.join();
    let _ = rmem.delete();
    let _ = std::fs::remove_file(&cfg.rmem_path);
    0
}

/// The MTAPI action body: decode `[job u64][spec]`, arm the runtime with
/// the job's token, execute under `catch_unwind`, encode the outcome.
fn run_spec_action(
    rt: &Runtime,
    tokens: &Mutex<HashMap<u64, CancelToken>>,
    input: &[u8],
) -> Vec<u8> {
    let Some(job_bytes) = input.get(..8) else {
        return encode_outcome(
            JobState::Failed,
            &JobOutcome {
                ok: false,
                wall_us: 0,
                detail: "truncated dispatch input".into(),
            },
        );
    };
    let job = u64::from_be_bytes(job_bytes.try_into().unwrap());
    let spec = match spec_from_bytes(&input[8..]) {
        Ok(s) => s,
        Err(e) => {
            return encode_outcome(
                JobState::Failed,
                &JobOutcome {
                    ok: false,
                    wall_us: 0,
                    detail: format!("bad spec: {e}"),
                },
            )
        }
    };
    let token = tokens.lock().get(&job).cloned().unwrap_or_default();
    // Cancelled while queued behind other tasks: skip execution.
    if let Some(reason) = token.reason() {
        let (state, outcome) = terminal_for(
            Some(reason),
            JobOutcome {
                ok: false,
                wall_us: 0,
                detail: "cancelled while queued on worker".into(),
            },
        );
        return encode_outcome(state, &outcome);
    }
    let (state, outcome) = run_supervised(rt, &spec, &token, 0);
    encode_outcome(state, &outcome)
}

/// `[state u8][ok u8][wall_us u64][detail…]` — the action's output bytes.
fn encode_outcome(state: JobState, outcome: &JobOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + outcome.detail.len());
    out.push(state.to_u8());
    out.push(u8::from(outcome.ok));
    out.extend_from_slice(&outcome.wall_us.to_be_bytes());
    out.extend_from_slice(outcome.detail.as_bytes());
    out
}

/// Inverse of [`encode_outcome`]: `(state, ok, wall_us, detail)`.
/// Lossy on hostile bytes (a worker's own action produced them, so
/// malformation means a worker bug).
fn decode_outcome(bytes: &[u8]) -> (JobState, bool, u64, Vec<u8>) {
    let Some(wall) = bytes.get(2..10) else {
        return (JobState::Failed, false, 0, b"short outcome".to_vec());
    };
    let state = JobState::from_u8(bytes[0]).unwrap_or(JobState::Failed);
    let wall_us = u64::from_be_bytes(wall.try_into().expect("8-byte slice"));
    (state, bytes[1] != 0, wall_us, bytes[10..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_codec_roundtrips() {
        let out = JobOutcome {
            ok: true,
            wall_us: 12345,
            detail: "verified: sum matches".into(),
        };
        let enc = encode_outcome(JobState::Done, &out);
        let (state, ok, wall_us, detail) = decode_outcome(&enc);
        assert_eq!(state, JobState::Done);
        assert!(ok);
        assert_eq!(wall_us, out.wall_us);
        assert_eq!(detail, out.detail.as_bytes());
    }

    #[test]
    fn short_outcome_fails_closed() {
        let (state, ok, _, _) = decode_outcome(&[1, 2, 3]);
        assert_eq!(state, JobState::Failed);
        assert!(!ok);
    }
}
