//! The transport seam between connection byte streams and the serving
//! core (PR 7).
//!
//! The epoll reactor and the deterministic simulator (`romp-sim`) both
//! need the *same* per-connection logic — incremental frame decode,
//! request routing, submit batching, await parking, write backpressure,
//! EOF arming — but drive it from different event sources (socket
//! readiness vs. virtual-time events).  This module holds that shared
//! logic:
//!
//! * [`ServeCore`] — what a connection needs from the serving stack.
//!   The production [`Shared`](crate::server) state and the simulator's
//!   core both implement the accessor methods; the request-routing
//!   *policy* (admission, idempotency, fetch/await consumption, cancel,
//!   drain) and the job-lifecycle *bookkeeping* (pop and terminal
//!   accounting, watchdog-sweep application, the `Stats` document)
//!   live in this trait's provided methods, so neither can diverge
//!   between production and simulation.
//! * [`Session`] — one connection's transport-independent state: the
//!   [`RecvBuf`]/[`SendBuf`] pair plus the close/EOF/deferral flags.
//! * [`route_frames`] — decode-and-route every buffered frame on a
//!   session (the reactor's old `decode_conn`, verbatim policy).

use crate::job::{JobLimits, JobOutcome, JobState};
use crate::lifecycle::{
    retry_after_hint, CancelOutcome, Consumed, ExecEwma, JobTable, StageRefusal,
};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, ProtoError, Request, Response};
use crate::queue::{lane_name, lane_of, JobQueue, QueuedJob, LANES};
use crate::reactor::{RecvBuf, SendBuf};
use crate::JobSpec;
use mca_platform::Clock;
use romp_trace::{json_escape, MetricsRegistry};

/// Per-connection write-buffer bound: past this, the connection is not
/// read or decoded until the peer drains responses (backpressure).
pub const WBUF_LIMIT: usize = 256 * 1024;

/// Bound on frames decoded from one connection in one service pass, so a
/// single flood cannot starve its neighbours within a wakeup.
pub const FRAMES_PER_PASS: usize = 4096;

/// How an `Await` request resolves right now.
pub enum AwaitDisposition {
    /// Answer immediately (terminal result consumed, or `UnknownJob`).
    Ready(Response),
    /// The job is live but not terminal: park the connection; the
    /// completion bus will answer it.
    Pending,
}

/// What one connection needs from the serving stack, implemented by the
/// production server's shared state and by the simulator's core.
///
/// The provided methods are the serving *policy* — admission with
/// idempotency, batch admission bookkeeping, fetch/await consumption,
/// cancel semantics, drain — and the job-lifecycle *bookkeeping* — pop
/// and terminal accounting, watchdog-sweep application, the `Stats`
/// document — expressed once over the accessors, so production and the
/// simulator cannot drift apart.
pub trait ServeCore {
    /// The job lifecycle table.
    fn table(&self) -> &JobTable;
    /// The bounded admission queue.
    fn queue(&self) -> &JobQueue;
    /// The serving metric instruments.
    fn metrics(&self) -> &Metrics;
    /// The registry the instruments live in (embedded in `Stats`).
    fn registry(&self) -> &MetricsRegistry;
    /// The execution-time EWMAs feeding backpressure and shedding.
    fn ewma(&self) -> &ExecEwma;
    /// Per-job validation limits.
    fn limits(&self) -> &JobLimits;
    /// Deadline applied to jobs that do not request one (ms; 0 = none).
    fn default_deadline_ms(&self) -> u32;
    /// Whether a drain has begun (refuse new submissions).
    fn draining(&self) -> bool;
    /// Begin the drain: set the flag and close the queue.
    fn begin_drain(&self);
    /// The runtime's activity counter (watchdog progress detection).
    fn activity(&self) -> u64;
    /// The execution backend's name, for `Stats`.
    fn backend_label(&self) -> &str;
    /// Whether the backend has fallen back (MCA→native), for `Stats`.
    fn degraded(&self) -> bool;
    /// A job reached a terminal state: notify whoever parks `Await`s.
    /// Called only after the table holds the outcome.
    fn on_complete(&self, job: u64);

    /// Operator-triggered rolling restart of the worker pool.  Returns
    /// the number of workers being cycled, or `None` when there is no
    /// pool behind this core (the single-process server and the
    /// simulator), which answers the client with a typed refusal.
    fn rolling_restart(&self) -> Option<u64> {
        None
    }

    /// The worker pool's JSON object, spliced into `Stats` under
    /// `"cluster"` when present.
    fn cluster_json(&self) -> Option<String> {
        None
    }

    /// The clock requests are timestamped against.
    fn clock(&self) -> &Clock {
        self.table().clock()
    }

    /// Whether admission-time deadline shedding is enabled (off by
    /// default: a deadline job then waits its turn and the watchdog
    /// enforces the deadline, exactly the pre-shed behavior).
    fn shed_enabled(&self) -> bool {
        false
    }

    /// Lower bound on `retry_after_ms` hints (cold-start guard: before
    /// the first completion the EWMA is 0 and an unfloored hint would
    /// synchronize every refused client into an immediate retry wave).
    fn retry_floor_ms(&self) -> u32 {
        10
    }

    /// Smoothed per-job execution time (ns) — the retry-after basis.
    fn ewma_ns(&self) -> u64 {
        self.ewma().global_ns()
    }

    /// Smoothed execution time for one job class (`JobSpec::label`),
    /// `None` until that class completes its first job.  The shed gate
    /// falls back to the global EWMA for never-seen classes.
    fn class_ewma_ns(&self, label: &str) -> Option<u64> {
        self.ewma().class_ns(label)
    }

    /// Refresh the per-lane depth gauges from the queue.
    fn set_lane_depths(&self) {
        let depths = self.queue().lane_depths();
        for (lane, &d) in depths.iter().enumerate() {
            self.metrics().sched_depth[lane].set(d as u64);
        }
    }

    /// Pop accounting, once per job the dispatcher takes off the queue:
    /// queue-wait latency and the depth gauges.
    fn record_pop(&self, qjob: &QueuedJob) {
        let m = self.metrics();
        m.lat_queue
            .record(self.clock().now_ns().saturating_sub(qjob.enqueued_ns));
        m.queue_depth.set(self.queue().len() as u64);
        self.set_lane_depths();
    }

    /// Terminal accounting, once per job the dispatcher ran: execution
    /// latency, the EWMAs (`label` is the job's `JobSpec::label`), the
    /// per-state counter, the table entry with its total and
    /// cancel-latency stamps, and the completion notice.
    fn record_terminal(
        &self,
        job: u64,
        label: &str,
        state: JobState,
        outcome: JobOutcome,
        exec_ns: u64,
    ) {
        let m = self.metrics();
        m.lat_exec.record(exec_ns);
        self.ewma().note(label, exec_ns);
        match state {
            JobState::Done => m.completed.incr(),
            JobState::Cancelled => m.cancelled.incr(),
            JobState::TimedOut => m.timed_out.incr(),
            _ => m.failed.incr(),
        }
        if let Some(stamp) = self.table().finish(job, state, outcome) {
            m.lat_total.record(stamp.total_ns);
            if let Some(ns) = stamp.cancel_latency_ns {
                m.wd_cancel_latency.record(ns);
            }
        }
        self.on_complete(job);
    }

    /// One watchdog tick: run the table's sweep and apply its report —
    /// deadline and miss counters, dedup gauges, completion notices for
    /// queued-deadline kills.  Returns the stalled job to escalate, if
    /// any; the escalation itself is the caller's (it differs between
    /// the in-process runtime, the worker pool and the simulator).
    fn watchdog_sweep(&self, grace_ns: u64) -> Option<u64> {
        let m = self.metrics();
        m.wd_ticks.incr();
        let report = self.table().sweep(self.activity(), grace_ns);
        let killed = report.deadline_killed.len() as u64;
        // Every fired deadline is an accepted job the shed gate (when
        // on) predicted would make it — each one is also a miss.
        let fired = killed + report.deadline_fired_running;
        m.wd_deadline_fired.add(fired);
        m.sched_deadline_miss.add(fired);
        m.timed_out.add(killed);
        m.dedup_size.set(report.dedup_size);
        m.dedup_evictions.add(report.dedup_evicted);
        for &id in &report.deadline_killed {
            self.on_complete(id);
        }
        report.escalate
    }

    /// Jobs accepted but not yet finished.
    fn outstanding(&self) -> u64 {
        let m = self.metrics();
        let done = m.completed.get() + m.failed.get() + m.cancelled.get() + m.timed_out.get();
        m.accepted.get().saturating_sub(done)
    }

    /// The live `Stats` JSON document.
    fn stats_json(&self) -> String {
        let m = self.metrics();
        let cluster = self
            .cluster_json()
            .map(|j| format!("\"cluster\":{j},"))
            .unwrap_or_default();
        let depths = self.queue().lane_depths();
        let lanes = (0..LANES)
            .map(|l| {
                format!(
                    "\"{}\":{{\"depth\":{},\"admits\":{},\"sheds\":{}}}",
                    lane_name(l),
                    depths[l],
                    m.sched_admits[l].get(),
                    m.sched_sheds[l].get()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let classes = self
            .ewma()
            .classes()
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"backend\":\"{}\",\"degraded\":{},\"draining\":{},\
             \"queue_depth\":{},\"queue_cap\":{},\"outstanding\":{},\
             \"accepted\":{},\"rejected\":{},\"completed\":{},\"failed\":{},\
             \"cancelled\":{},\"timed_out\":{},{cluster}\
             \"sched\":{{\"lanes\":{{{lanes}}},\"deadline_miss\":{},\"shed\":{},\
             \"class_ewma_ns\":{{{classes}}}}},\
             \"metrics\":{}}}",
            json_escape(self.backend_label()),
            self.degraded(),
            self.draining(),
            self.queue().len(),
            self.queue().cap(),
            self.outstanding(),
            m.accepted.get(),
            m.rejected.get(),
            m.completed.get(),
            m.failed.get(),
            m.cancelled.get(),
            m.timed_out.get(),
            m.sched_deadline_miss.get(),
            self.shed_enabled(),
            self.registry().snapshot().to_json(),
        )
    }

    /// The backpressure hint for a refused client (see
    /// [`retry_after_hint`]).
    fn retry_after_ms(&self) -> u32 {
        retry_after_hint(self.ewma_ns(), self.queue().len(), self.retry_floor_ms())
    }

    /// Stage a submission: validate, mint the id, insert the table
    /// entry, claim the idempotency key.  `Ok` hands back the
    /// queue-ready job for this wakeup's [`ServeCore::admit_batch`];
    /// `Err` is the immediate response and nothing joins the batch.
    ///
    /// A duplicate of a *staged but unadmitted* submission is answered
    /// `Rejected { retry_after_ms }`, never `Accepted`: handing out the
    /// original's id before admission confirms could leave the
    /// duplicate holding a dangling id if admission then fails (the
    /// lost-job race `romp-sim` reproduces; see [`crate::lifecycle`]).
    ///
    /// With shedding enabled, a deadline-carrying job whose predicted
    /// completion (lane-aware queue wait + its class's service-time
    /// EWMA) already exceeds its deadline slack is refused with
    /// [`Response::ShedDeadline`] *after* staging: the idempotency
    /// check must run first (a duplicate of an admitted job answers
    /// `Accepted`, never a shed), so a shed unwinds the staging via
    /// [`JobTable::retract`] like a failed admission does.
    fn prepare_submit(
        &self,
        spec: JobSpec,
        deadline_ms: u32,
        idem_key: u64,
        affinity: u64,
        priority: u8,
    ) -> Result<QueuedJob, Response> {
        if self.draining() {
            return Err(Response::Error {
                code: ErrorCode::Draining,
                msg: "server is draining".into(),
            });
        }
        match self.table().stage(
            spec,
            deadline_ms,
            self.default_deadline_ms(),
            self.limits(),
            idem_key,
            affinity,
            priority,
        ) {
            Ok(qjob) => {
                if self.shed_enabled() {
                    if let Some(deadline_ns) = qjob.deadline_ns {
                        let slack_ns = deadline_ns.saturating_sub(self.clock().now_ns());
                        let wait_jobs = self.queue().predicted_wait_jobs(priority);
                        let global_ns = self.ewma_ns();
                        let self_ns = self.class_ewma_ns(&qjob.spec.label()).unwrap_or(global_ns);
                        let predicted_ns =
                            wait_jobs.saturating_mul(global_ns).saturating_add(self_ns);
                        if predicted_ns > slack_ns {
                            self.table().retract(qjob.id);
                            self.metrics().sched_sheds[lane_of(priority)].incr();
                            return Err(Response::ShedDeadline {
                                predicted_wait_ms: (predicted_ns / 1_000_000)
                                    .clamp(1, u64::from(u32::MAX))
                                    as u32,
                            });
                        }
                    }
                }
                Ok(qjob)
            }
            Err(StageRefusal::Invalid(why)) => {
                self.metrics().invalid.incr();
                Err(Response::Error {
                    code: ErrorCode::BadPayload,
                    msg: why.into(),
                })
            }
            Err(StageRefusal::IdemAdmitted(job)) => {
                self.metrics().idem_hits.incr();
                Err(Response::Accepted { job })
            }
            Err(StageRefusal::IdemPending) => {
                self.metrics().idem_hits.incr();
                self.metrics().rejected.incr();
                Err(Response::Rejected {
                    retry_after_ms: self.retry_after_ms(),
                })
            }
        }
    }

    /// Admit one wakeup's worth of prepared submissions as a single
    /// batch — one queue lock, one dispatcher wakeup.  Returns one
    /// response per input job, in order: `Accepted` for the admitted
    /// prefix (whose idempotency entries flip to *admitted*),
    /// `Rejected`/`Draining` (with staging retracted) for the rest.
    fn admit_batch(&self, jobs: Vec<QueuedJob>) -> Vec<Response> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        let lanes: Vec<usize> = jobs.iter().map(|j| lane_of(j.priority)).collect();
        let res = self.queue().try_push_batch(jobs);
        if res.admitted > 0 {
            self.metrics().accepted.add(res.admitted as u64);
            self.metrics().queue_depth.set(res.depth as u64);
            self.metrics().queue_peak.record_max(res.depth as u64);
            for &lane in &lanes[..res.admitted] {
                self.metrics().sched_admits[lane].incr();
            }
            self.set_lane_depths();
            self.table().confirm_admitted(&ids[..res.admitted]);
        }
        ids.iter()
            .enumerate()
            .map(|(i, &id)| {
                if i < res.admitted {
                    Response::Accepted { job: id }
                } else {
                    self.table().retract(id);
                    if res.closed {
                        Response::Error {
                            code: ErrorCode::Draining,
                            msg: "server is draining".into(),
                        }
                    } else {
                        self.metrics().rejected.incr();
                        Response::Rejected {
                            retry_after_ms: self.retry_after_ms(),
                        }
                    }
                }
            })
            .collect()
    }

    /// Resolve an `Await`: consume like a `Fetch` if the job is
    /// terminal, park otherwise.  Called both at request time and again
    /// when the completion bus reports the job finished — the first
    /// parked waiter to get here consumes the outcome, later ones
    /// observe `UnknownJob`.
    fn try_complete_await(&self, job: u64) -> AwaitDisposition {
        match self.table().consume(job) {
            Consumed::NotReady(_) => AwaitDisposition::Pending,
            consumed => AwaitDisposition::Ready(consumed_response(job, consumed)),
        }
    }

    /// Handle every request kind that answers immediately and in
    /// request order.  `Submit` and `Await` are routed by
    /// [`route_frames`] before this point (they batch and park
    /// respectively); their arms here are defensive only.
    fn sync_request(&self, req: Request) -> Response {
        match req {
            Request::Cancel { job } => {
                self.metrics().req_cancel.incr();
                match self.table().cancel(job, self.activity()) {
                    CancelOutcome::Unknown => Response::Error {
                        code: ErrorCode::UnknownJob,
                        msg: format!("job {job}"),
                    },
                    CancelOutcome::KilledQueued => {
                        self.metrics().cancelled.incr();
                        // Outside the jobs lock: a parked Await on this
                        // job answers now.
                        self.on_complete(job);
                        Response::Status {
                            job,
                            state: JobState::Cancelled,
                        }
                    }
                    CancelOutcome::Cancelling => Response::Status {
                        job,
                        state: JobState::Cancelling,
                    },
                    CancelOutcome::Unchanged(state) => Response::Status { job, state },
                }
            }
            Request::Poll { job } => {
                self.metrics().req_poll.incr();
                match self.table().poll(job) {
                    Some(state) => Response::Status { job, state },
                    None => Response::Error {
                        code: ErrorCode::UnknownJob,
                        msg: format!("job {job}"),
                    },
                }
            }
            Request::Fetch { job } => {
                self.metrics().req_fetch.incr();
                consumed_response(job, self.table().consume(job))
            }
            Request::Stats => {
                self.metrics().req_stats.incr();
                Response::Stats {
                    json: self.stats_json(),
                }
            }
            Request::Ping => {
                self.metrics().req_ping.incr();
                Response::Pong
            }
            Request::Shutdown => {
                self.begin_drain();
                Response::Draining {
                    outstanding: self.outstanding(),
                }
            }
            Request::Restart => match self.rolling_restart() {
                Some(workers) => Response::Restarting { workers },
                None => Response::Error {
                    code: ErrorCode::BadPayload,
                    msg: "rolling restart requires a worker pool (--workers)".into(),
                },
            },
            Request::Submit { .. } | Request::Await { .. } => Response::Error {
                code: ErrorCode::BadPayload,
                msg: "internal: submit/await bypassed the reactor".into(),
            },
        }
    }
}

/// The `Fetch` answer for a consume attempt (`Await` parks on
/// `NotReady` instead of answering it).
fn consumed_response(job: u64, consumed: Consumed) -> Response {
    match consumed {
        Consumed::Result(_, out) => Response::JobResult {
            job,
            ok: out.ok,
            wall_us: out.wall_us,
            detail: out.detail,
        },
        Consumed::NotReady(_) => Response::Error {
            code: ErrorCode::NotReady,
            msg: format!("job {job} still pending"),
        },
        Consumed::Unknown => Response::Error {
            code: ErrorCode::UnknownJob,
            msg: format!("job {job}"),
        },
    }
}

/// One connection's transport-independent state: frame reassembly, the
/// response buffer, and the close/EOF/deferral flags.  The production
/// reactor pairs it with a `TcpStream`; the simulator with a virtual
/// link.
pub struct Session {
    /// Incremental frame reassembly for the inbound byte stream.
    pub rbuf: RecvBuf,
    /// Buffered responses awaiting a writable transport.
    pub wbuf: SendBuf,
    /// Peer closed its write side; close once buffered frames are
    /// handled.
    pub eof: bool,
    /// Finish flushing `wbuf`, then close (hostile-frame or EOF path).
    pub close_after_flush: bool,
    /// Marked dead; the transport sweeps it.
    pub closed: bool,
    /// Decoding was deferred (write backpressure or the per-pass frame
    /// cap); revisit without waiting for a new transport event.
    pub decode_deferred: bool,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A fresh session with empty buffers.
    pub fn new() -> Session {
        Session {
            rbuf: RecvBuf::new(),
            wbuf: SendBuf::new(),
            eof: false,
            close_after_flush: false,
            closed: false,
            decode_deferred: false,
        }
    }

    /// After a decode pass: if the peer sent EOF and decoding is
    /// quiescent (no deferred frames), arm the flush-then-close path.
    /// A deferred pass (frame cap or write backpressure) still has
    /// complete frames buffered, and the close contract answers those
    /// first.
    pub fn arm_close_if_quiescent(&mut self) {
        if self.eof && !self.close_after_flush && !self.decode_deferred {
            self.close_after_flush = true;
        }
    }

    /// Whether the write buffer is past the backpressure cap.
    pub fn backpressured(&self) -> bool {
        self.wbuf.pending() >= WBUF_LIMIT
    }
}

/// A response slot staged during decoding: either already known, or the
/// n-th member of this wakeup's submit batch (filled after admission).
pub enum PendingResp {
    /// Response known at decode time (sync requests, refusals).
    Ready(Response),
    /// The n-th member of the wakeup's submit batch; the response is
    /// the n-th element of [`ServeCore::admit_batch`]'s return.
    Submit(usize),
}

/// Decode every complete frame buffered on `sess`, staging one response
/// slot per request.  `Submit`s join `batch` (admitted later, as one
/// batch for the whole wakeup); `Await`s that cannot answer yet push
/// their job id onto `parked` and stage nothing.
pub fn route_frames<C: ServeCore + ?Sized>(
    core: &C,
    sess: &mut Session,
    batch: &mut Vec<QueuedJob>,
    parked: &mut Vec<u64>,
) -> Vec<PendingResp> {
    let metrics = core.metrics();
    let mut out = Vec::new();
    // The fairness bound counts every decoded frame, not just staged
    // responses — parked `Await`s stage nothing, and a flood of them
    // must not decode unboundedly within one pass.
    let mut decoded = 0usize;
    while decoded < FRAMES_PER_PASS {
        match sess.rbuf.next_frame() {
            Ok(Some(body)) => {
                decoded += 1;
                let t0 = core.clock().now_ns();
                let staged = match Request::decode(&body) {
                    Ok(Request::Submit {
                        spec,
                        deadline_ms,
                        idem_key,
                        affinity,
                        priority,
                    }) => {
                        metrics.req_submit.incr();
                        match core.prepare_submit(spec, deadline_ms, idem_key, affinity, priority) {
                            Ok(qjob) => {
                                batch.push(qjob);
                                Some(PendingResp::Submit(batch.len() - 1))
                            }
                            Err(resp) => Some(PendingResp::Ready(resp)),
                        }
                    }
                    Ok(Request::Await { job }) => {
                        metrics.req_await.incr();
                        match core.try_complete_await(job) {
                            AwaitDisposition::Ready(resp) => Some(PendingResp::Ready(resp)),
                            AwaitDisposition::Pending => {
                                parked.push(job);
                                None
                            }
                        }
                    }
                    Ok(req) => Some(PendingResp::Ready(core.sync_request(req))),
                    Err(e) => {
                        // Frame boundaries are intact; the payload is bad.
                        // Answer and keep the connection.
                        metrics.proto_errors.incr();
                        Some(PendingResp::Ready(Response::Error {
                            code: match e {
                                ProtoError::BadPayload(_) => ErrorCode::BadPayload,
                                _ => ErrorCode::BadFrame,
                            },
                            msg: e.to_string(),
                        }))
                    }
                };
                metrics
                    .lat_handle
                    .record(core.clock().now_ns().saturating_sub(t0));
                if let Some(s) = staged {
                    out.push(s);
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Hostile length prefix: the byte stream cannot be
                // trusted again — answer once, then close.
                metrics.proto_errors.incr();
                out.push(PendingResp::Ready(Response::Error {
                    code: ErrorCode::BadFrame,
                    msg: e.to_string(),
                }));
                sess.close_after_flush = true;
                break;
            }
        }
    }
    if decoded >= FRAMES_PER_PASS {
        sess.decode_deferred = true;
    }
    out
}
