//! The benchmark's own arithmetic: rank quantiles and the sample-support
//! rule, medians, geometric means, and the latency ledger.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the `ceil(q·n)`-th
/// smallest sample (rank clamped to `1..=n`).  `None` when empty.
pub fn rank_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the rank-`q` sample of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Whether `n` samples support reporting the `q` quantile: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The highest of the usual percentiles `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supports(n, q))
}

/// The items the host disturbed least, least first: those whose share
/// of CPU time stolen from the machine while they ran is at most the
/// lower quartile of the shares (so at least a quarter of them; on a
/// calm host most shares are 0 and most items are kept), then further
/// items in order of steal until `enough` holds for the items kept.  All
/// of them, in their original order, when any steal share is unknown.
/// The choice never looks at the items' own figures, so a slowdown of
/// the program under test moves the kept items as much as the others.
pub fn least_disturbed<'a, T>(
    items: &'a [T],
    steal: impl Fn(&T) -> Option<f64>,
    enough: impl Fn(&[&'a T]) -> bool,
) -> Vec<&'a T> {
    let Some(mut ranked) = items
        .iter()
        .map(|x| steal(x).map(|s| (s, x)))
        .collect::<Option<Vec<_>>>()
    else {
        return items.iter().collect();
    };
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let shares: Vec<f64> = ranked.iter().map(|r| r.0).collect();
    let Some(limit) = rank_quantile(&shares, 0.25) else {
        return Vec::new();
    };
    let mut ranked: Vec<&T> = ranked.into_iter().map(|(_, x)| x).collect();
    let mut keep = shares.iter().filter(|&&s| s <= limit).count();
    while keep < ranked.len() && !enough(&ranked[..keep]) {
        keep += 1;
    }
    ranked.truncate(keep);
    ranked
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Geometric mean; `None` when empty or when any value is not a finite
/// positive number (a geomean over such values means nothing).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Client-observed time against the sum of the named stage times, with
/// the residual stated rather than hidden.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Mean client submit→result time, microseconds.
    pub client_mean_us: f64,
    /// `(stage, mean µs per request)` on the request's blocking path.
    pub stages: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Sum of the stage times.
    pub fn attributed_us(&self) -> f64 {
        self.stages.iter().map(|(_, us)| us).sum()
    }

    /// Client time no stage accounts for (negative when the stages
    /// over-count, e.g. overlapping pipelined requests).
    pub fn residual_us(&self) -> f64 {
        self.client_mean_us - self.attributed_us()
    }

    /// The residual as a share of the client mean.
    pub fn residual_share(&self) -> f64 {
        if self.client_mean_us > 0.0 {
            self.residual_us() / self.client_mean_us
        } else {
            0.0
        }
    }

    /// Human-readable ledger, one stage a line.
    pub fn render(&self) -> String {
        let mut s = format!(
            "  client mean                  {:>10.2} us\n",
            self.client_mean_us
        );
        for (name, us) in &self.stages {
            let share = if self.client_mean_us > 0.0 {
                100.0 * us / self.client_mean_us
            } else {
                0.0
            };
            s.push_str(&format!("  {name:<28} {us:>10.2} us  {share:>6.1}%\n"));
        }
        s.push_str(&format!(
            "  residual                     {:>10.2} us  {:>6.1}%",
            self.residual_us(),
            100.0 * self.residual_share()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(rank_quantile(&v, 0.50), Some(50.0));
        assert_eq!(rank_quantile(&v, 0.99), Some(99.0));
        assert_eq!(rank_quantile(&v, 0.995), Some(100.0));
        assert_eq!(rank_quantile(&v, 0.0), Some(1.0));
        assert_eq!(rank_quantile(&v, 1.0), Some(100.0));
        assert_eq!(rank_quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(rank_quantile(&[], 0.5), None);
        // Three samples: the median is the second, p90 the third.
        assert_eq!(rank_quantile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(rank_quantile(&[1.0, 2.0, 3.0], 0.9), Some(3.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th: exactly 10 beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // p50 of 20 samples is the 10th: 10 beyond.
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(150), Some(0.9));
        assert_eq!(highest_supported(19), None);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn least_disturbed_keeps_the_quarter_with_least_steal() {
        let segs = [
            ("a", 0.10),
            ("b", 0.0),
            ("c", 0.02),
            ("d", 0.01),
            ("e", 0.30),
            ("f", 0.05),
            ("g", 0.04),
            ("h", 0.0),
        ];
        fn names(kept: Vec<&(&'static str, f64)>) -> Vec<&'static str> {
            kept.iter().map(|s| s.0).collect()
        }
        let steal = |s: &(&str, f64)| Some(s.1);
        let any = |_: &[&(&str, f64)]| true;
        assert_eq!(names(least_disturbed(&segs, steal, any)), ["b", "h"]);
        assert_eq!(names(least_disturbed(&segs[..5], steal, any)), ["b", "d"]);
        assert_eq!(names(least_disturbed(&segs[..1], steal, any)), ["a"]);
        // Too few kept for the caller: the next least disturbed join.
        let four = |k: &[&(&str, f64)]| k.len() >= 4;
        assert_eq!(
            names(least_disturbed(&segs, steal, four)),
            ["b", "h", "d", "c"]
        );
        let never = |_: &[&(&str, f64)]| false;
        assert_eq!(least_disturbed(&segs, steal, never).len(), 8);
        // Ties at the quartile are all kept.
        let calm = [("a", 0.0), ("b", 0.0), ("c", 0.0), ("d", 0.05)];
        assert_eq!(names(least_disturbed(&calm, steal, any)), ["a", "b", "c"]);
        // Unknown steal anywhere: keep everything, in order.
        let kept = least_disturbed(&segs, |s| (s.0 != "c").then_some(s.1), never);
        assert_eq!(names(kept), ["a", "b", "c", "d", "e", "f", "g", "h"]);
        assert!(least_disturbed(&[] as &[(&str, f64)], steal, any).is_empty());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        // Reciprocal ratios cancel.
        let g = geomean(&[0.5, 2.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn ledger_residual_is_client_minus_stages() {
        let l = Ledger {
            client_mean_us: 130.0,
            stages: vec![("queue", 9.0), ("exec", 82.0), ("handle", 1.0)],
        };
        assert!((l.attributed_us() - 92.0).abs() < 1e-12);
        assert!((l.residual_us() - 38.0).abs() < 1e-12);
        assert!((l.residual_share() - 38.0 / 130.0).abs() < 1e-12);
        let over = Ledger {
            client_mean_us: 10.0,
            stages: vec![("exec", 12.0)],
        };
        assert!((over.residual_us() + 2.0).abs() < 1e-12);
        let empty = Ledger {
            client_mean_us: 0.0,
            stages: vec![],
        };
        assert_eq!(empty.residual_share(), 0.0);
        assert!(l.render().contains("residual"));
    }
}
