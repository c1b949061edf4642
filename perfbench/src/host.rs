//! The host's CPU time accounts, read from `/proc/stat`: how much of the
//! machine's CPU time the hypervisor gave to other guests while a phase
//! ran (steal time).  The program under test cannot cause steal, so it
//! measures the host's disturbance of a phase independently of the
//! figures the phase produced.

/// Cumulative CPU time of all CPUs, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    pub steal: u64,
    pub total: u64,
}

impl CpuTimes {
    /// The current accounts; `None` where `/proc/stat` is not readable.
    pub fn now() -> Option<CpuTimes> {
        parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Share of the CPU time since `earlier` that was stolen; `None` when
    /// no tick elapsed.
    pub fn steal_since(&self, earlier: &CpuTimes) -> Option<f64> {
        let total = self.total.checked_sub(earlier.total).filter(|&t| t > 0)?;
        Some(self.steal.saturating_sub(earlier.steal) as f64 / total as f64)
    }
}

/// Share of the CPU time stolen since `before` was read.
pub fn steal_since(before: Option<CpuTimes>) -> Option<f64> {
    CpuTimes::now()?.steal_since(&before?)
}

/// Parse the aggregate `cpu` line of a `/proc/stat` document: user, nice,
/// system, idle, iowait, irq, softirq and steal make up the total (guest
/// time is already counted in user).
pub fn parse(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    (v.len() == 8).then(|| CpuTimes {
        steal: v[7],
        total: v.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_from_two_stat_documents() {
        let a = parse("cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            a,
            CpuTimes {
                steal: 50,
                total: 1000
            }
        );
        let b = parse("intr 5\ncpu  160 0 60 900 0 0 0 80 7 0\n").unwrap();
        assert_eq!(b.steal_since(&a), Some(30.0 / 200.0));
        assert_eq!(a.steal_since(&a), None);
        assert_eq!(parse("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse("cpu  1 2 x 4 5 6 7 8\n"), None);
    }
}
