//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! quartiles as Python's `statistics.quantiles(values, n=4)` computes them,
//! open-loop due-time accounting and the parent-versus-change verdict.

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder a tail is reported on, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Nearest-rank percentile of `sorted` (ascending), refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it. The median is the one
/// percentile reported from any non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    // The small slack keeps e.g. 99.9% of 10 000 at rank 9 990 despite
    // binary rounding.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    if p > 50.0 && beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank.min(n) - 1])
}

/// The highest percentile on [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, with its value.
pub fn highest_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Sorts a copy of `values` ascending (NaNs are never produced by the
/// benchmark; they would sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// and `statistics.median` give them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), median(&data)?, cut(3)))
}

/// Latency of each open-loop request, charged from when it was *due*
/// rather than when it was sent: a stall that delays the generator or the
/// server is charged to every request that was due during it.
pub fn latencies_from_due(due: &[f64], done: &[f64]) -> Vec<f64> {
    due.iter().zip(done).map(|(d, f)| f - d).collect()
}

/// How late the generator sent each request (send time minus due time).
pub fn lateness(due: &[f64], sent: &[f64]) -> Vec<f64> {
    due.iter()
        .zip(sent)
        .map(|(d, s)| (s - d).max(0.0))
        .collect()
}

/// Whether an open-loop rung kept up: the backlog (requests sent but not
/// answered) at the end of the rung's second half is not larger than in
/// its first half by more than `slack` requests.
pub fn backlog_growing(
    outstanding_first_half: usize,
    outstanding_second_half: usize,
    slack: usize,
) -> bool {
    outstanding_second_half > outstanding_first_half + slack
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    fn is_better(self, change: f64, parent: f64) -> bool {
        match self {
            Better::Lower => change < parent,
            Better::Higher => change > parent,
        }
    }
}

/// The outcome of comparing a change's runs with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least nine tenths of the pairs and moved the median by more
    /// than the parent's own quartile spread.
    Improved,
    /// Worse than the parent's median by more than the bound.
    Regressed,
    /// Neither: no worse than the bound allows.
    WithinBound,
    /// A side's run-to-run spread exceeds the bound, so "no change" cannot
    /// be claimed.
    Unresolved,
}

impl Verdict {
    /// The verdict's report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed beyond bound",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric: both sides' quartiles, the pair wins and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent quartiles (q1, median, q3).
    pub parent: (f64, f64, f64),
    /// Change quartiles (q1, median, q3).
    pub change: (f64, f64, f64),
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired runs of a parent and a change by the rule of
/// choosing-metrics §6.5 and §8: a gain needs ≥ 9/10 pair wins and a
/// median move larger than the parent's quartile spread; a side whose
/// relative spread exceeds `bound` leaves the metric unresolved unless
/// every change run beats every parent run; otherwise a median worse by
/// more than `bound` (a share of the parent's median) is a regression.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Comparison> {
    let pq = quartiles(parent)?;
    let cq = quartiles(change)?;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.is_better(**c, **p))
        .count();
    let (p_med, c_med) = (pq.1, cq.1);
    let parent_iqr = pq.2 - pq.0;
    let gain_rule = wins * 10 >= pairs * 9
        && better.is_better(c_med, p_med)
        && (c_med - p_med).abs() > parent_iqr;
    let spread_of = |q: (f64, f64, f64)| {
        if q.1 == 0.0 {
            if q.2 > q.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (q.2 - q.0) / q.1.abs()
        }
    };
    let too_noisy = spread_of(pq) > bound || spread_of(cq) > bound;
    let dominates = change
        .iter()
        .all(|c| parent.iter().all(|p| better.is_better(*c, *p)));
    let worse_by = match better {
        Better::Lower => c_med - p_med,
        Better::Higher => p_med - c_med,
    };
    let verdict = if gain_rule {
        Verdict::Improved
    } else if too_noisy && !dominates {
        Verdict::Unresolved
    } else if worse_by > bound * p_med.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Some(Comparison {
        parent: pq,
        change: cq,
        wins,
        pairs,
        verdict,
    })
}

/// Compares failure ratios on their own row: any increase of the median
/// is a regression, any decrease an improvement.
pub fn compare_failures(parent: &[f64], change: &[f64]) -> Option<Verdict> {
    let p = median(parent)?;
    let c = median(change)?;
    Some(if c > p {
        Verdict::Regressed
    } else if c < p {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completion times of a single in-order server fed requests at `due`
    /// times with the given service times.
    fn fifo_completions(due: &[f64], service: &[f64]) -> Vec<f64> {
        let mut free_at = f64::NEG_INFINITY;
        due.iter()
            .zip(service)
            .map(|(&d, &s)| {
                free_at = free_at.max(d) + s;
                free_at
            })
            .collect()
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        // p95 of 200 samples leaves exactly 10 beyond; 199 leaves 9.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        assert_eq!(percentile(&ramp(199), 95.0), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // The median is always reportable.
        assert_eq!(percentile(&ramp(1), 50.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_tail_walks_down_the_ladder() {
        assert_eq!(highest_tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(highest_tail(&ramp(1_000)), Some((99.0, 990.0)));
        assert_eq!(highest_tail(&ramp(300)), Some((95.0, 285.0)));
        assert_eq!(highest_tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(highest_tail(&ramp(99)), None, "too few samples refuse");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, med, q3) = quartiles(&ramp(10)).unwrap();
        assert_eq!((q1, med, q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn a_stall_is_charged_to_every_later_request() {
        // Requests due every 1 ms, served in 0.1 ms, except request 3,
        // which stalls the server for 50 ms.
        let due: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut service = vec![0.1; 100];
        service[3] = 50.0;
        let done = fifo_completions(&due, &service);
        let lat = latencies_from_due(&due, &done);
        assert!((lat[2] - 0.1).abs() < 1e-9);
        assert!((lat[3] - 50.0).abs() < 1e-9);
        // Every request due during the stall waits for it to clear.
        for (i, l) in lat.iter().enumerate().take(53).skip(4) {
            assert!(*l > 1.0, "request {i} should carry the stall, got {l}");
        }
        // Once the backlog drains, latency returns to the service time.
        assert!((lat[99] - 0.1).abs() < 1e-9);
        // Timing from send instead would hide it when the generator sent
        // each request only after the previous reply (coordinated omission).
        let sent_late: Vec<f64> = done.iter().zip(&service).map(|(d, s)| d - s).collect();
        let from_send = latencies_from_due(&sent_late, &done);
        assert!((from_send[10] - 0.1).abs() < 1e-9);
        assert!(lateness(&due, &sent_late)[10] > 1.0);
    }

    #[test]
    fn backlog_rule() {
        assert!(!backlog_growing(3, 4, 2));
        assert!(backlog_growing(3, 40, 2));
    }

    #[test]
    fn compare_verdicts() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        // A clear gain: every pair won, median moved beyond the spread.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let c = compare(&parent, &faster, Better::Lower, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!((c.wins, c.pairs), (10, 10));
        // A clear regression beyond a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            compare(&parent, &slower, Better::Lower, 0.1)
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        // A small move inside the bound.
        let same: Vec<f64> = parent.iter().map(|v| v * 1.02).collect();
        assert_eq!(
            compare(&parent, &same, Better::Lower, 0.1).unwrap().verdict,
            Verdict::WithinBound
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            compare(&parent, &slower, Better::Higher, 0.1)
                .unwrap()
                .verdict,
            Verdict::Improved
        );
        // Spread wider than the bound: unresolved, not unchanged.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            compare(&parent, &noisy, Better::Lower, 0.1)
                .unwrap()
                .verdict,
            Verdict::Unresolved
        );
        // …unless every change run beats every parent run.
        let noisy_but_faster = [5.0, 9.0, 6.0, 8.5, 7.0, 5.5, 9.5, 6.5, 8.0, 7.5];
        assert_ne!(
            compare(&parent, &noisy_but_faster, Better::Lower, 0.1)
                .unwrap()
                .verdict,
            Verdict::Unresolved
        );
        assert_eq!(compare(&[1.0], &[1.0], Better::Lower, 0.1), None);
    }

    #[test]
    fn failures_compare_on_their_own_row() {
        assert_eq!(
            compare_failures(&[0.0, 0.0], &[0.0, 0.0]),
            Some(Verdict::WithinBound)
        );
        assert_eq!(
            compare_failures(&[0.0, 0.0], &[0.1, 0.1]),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            compare_failures(&[0.2, 0.2], &[0.0, 0.0]),
            Some(Verdict::Improved)
        );
    }
}
