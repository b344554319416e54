//! The arithmetic behind every reported figure: percentiles, counter
//! windows, span self times and same-key overlap.

use vrr_core::metrics::Registry;

/// Percentiles the benchmark may report, highest first.
const PERCENTILES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The small slack keeps e.g. 99.9% of 10 000 at rank 9 990 despite the
    // binary rounding of 99.9.
    let r = (p / 100.0 * n as f64 - 1e-6).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Percentile `p` (nearest rank) of ascending `sorted`, or 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len())]
}

/// Samples of `n` that lie strictly above percentile `p`'s rank.
fn beyond(p: f64, n: usize) -> usize {
    n - (rank(p, n) + 1)
}

/// The highest percentile with at least [`TAIL_SAMPLES`] samples beyond
/// it among `n` samples, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    PERCENTILES
        .into_iter()
        .find(|&p| beyond(p, n) >= TAIL_SAMPLES)
}

/// Sorts `samples` ascending (they are finite durations).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples
}

/// Median of `samples` (nearest rank), or 0 when empty.
pub fn median(samples: Vec<f64>) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Arithmetic mean, or 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Two metrics snapshots taken on either side of the timed window.
pub struct CounterWindow<'a> {
    /// Snapshot taken just before the window opened.
    pub before: &'a Registry,
    /// Snapshot taken just after it closed.
    pub after: &'a Registry,
}

impl CounterWindow<'_> {
    /// How much counter `name{labels}` grew across the window.
    pub fn delta(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.after
            .counter(name, labels)
            .saturating_sub(self.before.counter(name, labels))
    }

    /// `(sum, count)` growth of histogram `name{labels}` across the window.
    pub fn histogram_delta(&self, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
        let read = |reg: &Registry| {
            reg.histogram(name, labels)
                .map_or((0, 0), |h| (h.sum(), h.count()))
        };
        let (s0, c0) = read(self.before);
        let (s1, c1) = read(self.after);
        (s1.saturating_sub(s0), c1.saturating_sub(c0))
    }

    /// Mean of the observations histogram `name{labels}` received during
    /// the window, or 0 when it received none.
    pub fn histogram_mean(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let (sum, count) = self.histogram_delta(name, labels);
        ratio(sum as f64, count as f64)
    }
}

/// Sum of every series of counter `name` in Prometheus text `text`.
pub fn prometheus_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name).then(|| value.parse::<u64>().ok())?
        })
        .sum()
}

/// A span's self time: its length minus the part of it that the union of
/// its `children` covers. All times are on one clock, in any unit.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Marks every interval that overlaps at least one other interval of the
/// same group. `items` are `(group, start, end)`; intervals touching at a
/// single instant do not overlap.
pub fn overlapping(items: &[(u64, u64, u64)]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_unstable_by_key(|&i| (items[i].0, items[i].1));
    let mut marked = vec![false; items.len()];
    // The interval with the furthest end seen so far in the current group.
    let mut reach: Option<(u64, u64, usize)> = None;
    for i in order {
        let (group, start, end) = items[i];
        match reach {
            Some((g, furthest, owner)) if g == group && start < furthest => {
                marked[i] = true;
                marked[owner] = true;
                if end > furthest {
                    reach = Some((group, end, i));
                }
            }
            _ => reach = Some((group, end, i)),
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrr_core::metrics::MetricsSink;

    #[test]
    fn the_reported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        for n in [1_000, 1_234, 10_000, 123_457] {
            let p = highest_supported_percentile(n).unwrap();
            assert!(beyond(p, n) >= TAIL_SAMPLES, "n {n} p {p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn counter_windows_report_growth_inside_the_window() {
        let mut before = Registry::new();
        before.counter_add("vrr_executor_commands_total", &[], 100);
        before.observe("vrr_read_latency_ticks", &[], 10);
        let mut after = before.clone();
        after.counter_add("vrr_executor_commands_total", &[], 50);
        after.observe("vrr_read_latency_ticks", &[], 20);
        after.observe("vrr_read_latency_ticks", &[], 40);
        let w = CounterWindow {
            before: &before,
            after: &after,
        };
        assert_eq!(w.delta("vrr_executor_commands_total", &[]), 50);
        assert_eq!(w.delta("vrr_absent_total", &[]), 0);
        assert_eq!(w.histogram_delta("vrr_read_latency_ticks", &[]), (60, 2));
        assert_eq!(w.histogram_mean("vrr_read_latency_ticks", &[]), 30.0);
        assert_eq!(w.histogram_mean("vrr_absent", &[]), 0.0);
    }

    #[test]
    fn prometheus_counters_sum_their_series() {
        let text = "# TYPE vrr_net_wire_frames_sent_total counter\n\
                    vrr_net_wire_frames_sent_total{scheme=\"tcp\"} 7\n\
                    vrr_net_wire_frames_sent_total{scheme=\"x\"} 3\n\
                    vrr_net_wire_frames_sent_totally 100\n\
                    vrr_net_wire_bytes_sent_total 11\n";
        assert_eq!(
            prometheus_counter(text, "vrr_net_wire_frames_sent_total"),
            10
        );
        assert_eq!(
            prometheus_counter(text, "vrr_net_wire_bytes_sent_total"),
            11
        );
        assert_eq!(prometheus_counter(text, "vrr_missing_total"), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 90)]), 20);
        // Overlapping children count once; parts outside the span none.
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 60), (90, 120)]), 40);
        assert_eq!(self_time((10, 20), &[(0, 5), (30, 40)]), 10);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn overlap_marks_every_interval_sharing_time_with_a_same_group_one() {
        let items = [
            (0, 0, 10),    // overlaps the long one
            (0, 1, 100),   // overlaps everything in group 0
            (0, 5, 6),     // inside both
            (0, 100, 110), // touches the long one only at an instant
            (1, 2, 8),     // other group: alone
            (1, 8, 9),     // touches, does not overlap
        ];
        assert_eq!(
            overlapping(&items),
            vec![true, true, true, false, false, false]
        );
        assert_eq!(overlapping(&[]), Vec::<bool>::new());
    }
}
