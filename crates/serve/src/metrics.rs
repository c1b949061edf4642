//! The serving layer's metric instruments, resolved once per server.
//!
//! Every instrument lives in a [`MetricsRegistry`] — the production server
//! uses the shared runtime's registry (so one `Stats` request exposes the
//! whole stack), while the deterministic simulator (`romp-sim`) constructs
//! its own registry and reads the very same `serve.*` names back for
//! invariant checks.  Handles are `Arc`s interned by name, so holding this
//! struct makes every bump a lock-free atomic op.

use std::sync::Arc;

use romp_trace::{Counter, Gauge, Histogram, MetricsRegistry};

/// Cached metric instruments (resolved once; bumped lock-free).
///
/// Semi-internal: public so `romp-sim` can drive the same serving core
/// with its own registry, not a stable API for general consumption.
pub struct Metrics {
    /// Submissions admitted to the queue.
    pub accepted: Arc<Counter>,
    /// Submissions refused with a retry hint (backpressure).
    pub rejected: Arc<Counter>,
    /// Submissions refused by validation.
    pub invalid: Arc<Counter>,
    /// Jobs finished `Done`.
    pub completed: Arc<Counter>,
    /// Jobs finished `Failed` (verification failure or panic).
    pub failed: Arc<Counter>,
    /// Jobs finished `Cancelled`.
    pub cancelled: Arc<Counter>,
    /// Jobs finished `TimedOut`.
    pub timed_out: Arc<Counter>,
    /// Submissions answered from the idempotency map.
    pub idem_hits: Arc<Counter>,
    /// Malformed frames / payloads observed.
    pub proto_errors: Arc<Counter>,
    /// `Submit` requests decoded.
    pub req_submit: Arc<Counter>,
    /// `Poll` requests decoded.
    pub req_poll: Arc<Counter>,
    /// `Fetch` requests decoded.
    pub req_fetch: Arc<Counter>,
    /// `Await` requests decoded.
    pub req_await: Arc<Counter>,
    /// `Cancel` requests decoded.
    pub req_cancel: Arc<Counter>,
    /// `Stats` requests decoded.
    pub req_stats: Arc<Counter>,
    /// `Ping` requests decoded.
    pub req_ping: Arc<Counter>,
    /// Queue depth after the latest admission or pop.
    pub queue_depth: Arc<Gauge>,
    /// High-water queue depth.
    pub queue_peak: Arc<Gauge>,
    /// Admission-to-dispatch wait, ns.
    pub lat_queue: Arc<Histogram>,
    /// Execution wall time, ns.
    pub lat_exec: Arc<Histogram>,
    /// Admission-to-terminal latency, ns.
    pub lat_total: Arc<Histogram>,
    /// Per-request decode+route time, ns.
    pub lat_handle: Arc<Histogram>,
    /// Watchdog sweeps performed.
    pub wd_ticks: Arc<Counter>,
    /// Deadlines the watchdog fired.
    pub wd_deadline_fired: Arc<Counter>,
    /// Watchdog escalations (backend poisoned).
    pub wd_escalations: Arc<Counter>,
    /// Cancel-request-to-terminal latency, ns.
    pub wd_cancel_latency: Arc<Histogram>,
    /// Live idempotency-map entries.
    pub dedup_size: Arc<Gauge>,
    /// Idempotency entries evicted (cap or TTL).
    pub dedup_evictions: Arc<Counter>,
    /// Poll wakeups (reactor loop iterations).
    pub reactor_wakeups: Arc<Counter>,
    /// Readiness events per wakeup.
    pub reactor_events: Arc<Histogram>,
    /// Submit batch sizes per service pass.
    pub reactor_batch: Arc<Histogram>,
    /// Connections currently registered.
    pub reactor_conns: Arc<Gauge>,
    /// Per-lane queue depth after the latest admission or pop
    /// (Hi/Normal/Batch).
    pub sched_depth: [Arc<Gauge>; 3],
    /// Per-lane submissions admitted.
    pub sched_admits: [Arc<Counter>; 3],
    /// Per-lane submissions shed at admission (`ShedDeadline`).
    pub sched_sheds: [Arc<Counter>; 3],
    /// Accepted jobs that still missed their deadline (queued or running
    /// past it — each one is a prediction the shed gate got wrong).
    pub sched_deadline_miss: Arc<Counter>,
}

impl Metrics {
    /// Resolve every serving instrument in `reg`.
    pub fn new(reg: &MetricsRegistry) -> Self {
        // Small-count histograms (events per wakeup, submit batch sizes)
        // get power-of-two count buckets, not the ns-latency defaults.
        let counts: Vec<u64> = (0..=10).map(|p| 1u64 << p).collect();
        Metrics {
            accepted: reg.counter("serve.submit.accepted"),
            rejected: reg.counter("serve.submit.rejected"),
            invalid: reg.counter("serve.submit.invalid"),
            completed: reg.counter("serve.jobs.completed"),
            failed: reg.counter("serve.jobs.failed"),
            cancelled: reg.counter("serve.jobs.cancelled"),
            timed_out: reg.counter("serve.jobs.timed_out"),
            idem_hits: reg.counter("serve.submit.idem_hits"),
            proto_errors: reg.counter("serve.proto.errors"),
            req_submit: reg.counter("serve.req.submit"),
            req_poll: reg.counter("serve.req.poll"),
            req_fetch: reg.counter("serve.req.fetch"),
            req_await: reg.counter("serve.req.await"),
            req_cancel: reg.counter("serve.req.cancel"),
            req_stats: reg.counter("serve.req.stats"),
            req_ping: reg.counter("serve.req.ping"),
            queue_depth: reg.gauge("serve.queue.depth"),
            queue_peak: reg.gauge("serve.queue.peak"),
            lat_queue: reg.histogram_ns("serve.latency.queue_ns"),
            lat_exec: reg.histogram_ns("serve.latency.exec_ns"),
            lat_total: reg.histogram_ns("serve.latency.total_ns"),
            lat_handle: reg.histogram_ns("serve.latency.handle_ns"),
            wd_ticks: reg.counter("watchdog.ticks"),
            wd_deadline_fired: reg.counter("watchdog.deadline_fired"),
            wd_escalations: reg.counter("watchdog.escalations"),
            wd_cancel_latency: reg.histogram_ns("watchdog.cancel_latency_ns"),
            dedup_size: reg.gauge("serve.dedup.size"),
            dedup_evictions: reg.counter("serve.dedup.evictions"),
            reactor_wakeups: reg.counter("serve.reactor.wakeups"),
            reactor_events: reg.histogram("serve.reactor.events_per_wakeup", &counts),
            reactor_batch: reg.histogram("serve.reactor.batch_size", &counts),
            reactor_conns: reg.gauge("serve.reactor.connections"),
            sched_depth: [
                reg.gauge("serve.sched.depth.hi"),
                reg.gauge("serve.sched.depth.normal"),
                reg.gauge("serve.sched.depth.batch"),
            ],
            sched_admits: [
                reg.counter("serve.sched.admits.hi"),
                reg.counter("serve.sched.admits.normal"),
                reg.counter("serve.sched.admits.batch"),
            ],
            sched_sheds: [
                reg.counter("serve.sched.sheds.hi"),
                reg.counter("serve.sched.sheds.normal"),
                reg.counter("serve.sched.sheds.batch"),
            ],
            sched_deadline_miss: reg.counter("serve.sched.deadline_miss"),
        }
    }
}
