//! The simulator's serving core: the production `ServeCore` policy and
//! bookkeeping over virtual-clock state.
//!
//! [`SimCore`] owns the *same* building blocks the production server
//! does — a [`JobTable`] (on the virtual clock), the bounded
//! [`JobQueue`], the `serve.*` [`Metrics`] resolved from a private
//! registry, and the [`ExecEwma`] — and implements [`ServeCore`], so
//! admission, idempotency, fetch/await consumption, cancel, drain, pop
//! and terminal accounting, watchdog-sweep application and the `Stats`
//! document run the production code paths verbatim.  Only the accessors
//! differ: single-threaded `Cell`s replace atomics, and completions are
//! collected for the event loop to deliver instead of broadcast over
//! mailboxes.

use std::cell::{Cell, RefCell};

use mca_platform::Clock;
use romp_serve::lifecycle::ExecEwma;
use romp_serve::session::ServeCore;
use romp_serve::{DedupConfig, JobLimits, JobQueue, JobTable, Metrics};
use romp_trace::MetricsRegistry;

/// Construction knobs for a [`SimCore`].
pub struct SimCoreConfig {
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// Deadline for jobs that do not request one (ms; 0 = none).
    pub default_deadline_ms: u32,
    /// Idempotency map bounds.
    pub dedup: DedupConfig,
    /// Enable deadline-based admission shedding.
    pub shed: bool,
}

/// The simulated serving stack's shared state (see module docs).
pub struct SimCore {
    table: JobTable,
    queue: JobQueue,
    metrics: Metrics,
    registry: MetricsRegistry,
    limits: JobLimits,
    default_deadline_ms: u32,
    shed: bool,
    draining: Cell<bool>,
    ewma: ExecEwma,
    activity: Cell<u64>,
    completions: RefCell<Vec<u64>>,
}

impl SimCore {
    /// A core on `clock` (the run's virtual clock).
    pub fn new(clock: Clock, cfg: SimCoreConfig) -> Self {
        let registry = MetricsRegistry::new();
        let metrics = Metrics::new(&registry);
        SimCore {
            table: JobTable::new(clock, cfg.dedup),
            queue: JobQueue::new(cfg.queue_cap),
            metrics,
            registry,
            limits: JobLimits {
                allow_diag: true,
                ..JobLimits::default()
            },
            default_deadline_ms: cfg.default_deadline_ms,
            shed: cfg.shed,
            draining: Cell::new(false),
            ewma: ExecEwma::default(),
            activity: Cell::new(0),
            completions: RefCell::new(Vec::new()),
        }
    }

    /// Bump the activity counter (the watchdog's progress signal; the
    /// production runtime bumps it per region/task milestone).
    pub fn bump_activity(&self) {
        self.activity.set(self.activity.get() + 1);
    }

    /// Drain the completion notifications queued by
    /// [`ServeCore::on_complete`] since the last call.
    pub fn take_completions(&self) -> Vec<u64> {
        std::mem::take(&mut *self.completions.borrow_mut())
    }
}

impl ServeCore for SimCore {
    fn table(&self) -> &JobTable {
        &self.table
    }

    fn queue(&self) -> &JobQueue {
        &self.queue
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn ewma(&self) -> &ExecEwma {
        &self.ewma
    }

    fn limits(&self) -> &JobLimits {
        &self.limits
    }

    fn default_deadline_ms(&self) -> u32 {
        self.default_deadline_ms
    }

    fn draining(&self) -> bool {
        self.draining.get()
    }

    fn begin_drain(&self) {
        self.draining.set(true);
        self.queue.close();
    }

    fn shed_enabled(&self) -> bool {
        self.shed
    }

    fn activity(&self) -> u64 {
        self.activity.get()
    }

    fn backend_label(&self) -> &str {
        "sim"
    }

    fn degraded(&self) -> bool {
        false
    }

    fn on_complete(&self, job: u64) {
        self.completions.borrow_mut().push(job);
    }
}
