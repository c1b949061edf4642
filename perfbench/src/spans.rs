//! In-memory spans for the traced run.
//!
//! The benchmark times the calls it makes into each layer's public
//! functions from outside: one span per call site, with its start, end,
//! parent span and the job id it belongs to.  Spans stay in memory while
//! the run measures and are written out as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use romp_trace::json_escape;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A per-thread span buffer; disabled recorders cost one branch a call.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (0 when disabled; 0 also means "no parent").
    pub fn open(&self) -> u64 {
        if self.enabled {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a finished span.
    pub fn close(&mut self, id: u64, parent: u64, name: &'static str, job: u64, start_ns: u64) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                id,
                parent,
                name,
                job,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time `f` as one span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open();
        let t0 = self.now_ns();
        let out = f();
        self.close(id, parent, name, 0, t0);
        out
    }

    /// Move another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object a line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                json_escape(s.name),
                s.job,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Mean duration in microseconds of the spans named `name`.
pub fn mean_us(spans: &[Span], name: &str) -> Option<f64> {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    crate::stats::mean(&d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        let v = r.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert_eq!(r.open(), 0);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_average() {
        let mut r = Recorder::new(Instant::now(), true);
        let parent = r.open();
        let t0 = r.now_ns();
        r.time("child", parent, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        r.close(parent, 0, "parent", 42, t0);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, parent);
        assert_eq!(s[1].job, 42);
        assert!(s[1].end_ns >= s[0].end_ns && s[1].start_ns <= s[0].start_ns);
        assert!(mean_us(s, "child").unwrap() >= 1000.0);
        assert_eq!(mean_us(s, "none"), None);
    }
}
