//! Summary statistics and request accounting.

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `(0, 1)`, reported only when at least
/// [`TAIL_BEYOND`] samples lie beyond it (p90 needs 100 samples, p99
/// needs 1000); `None` otherwise.
pub fn tail_percentile(v: &[f64], p: f64) -> Option<f64> {
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// Outcome counts of a run's requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests the generator sent.
    pub attempted: u64,
    /// Requests that ended in an error (transport, status, model error).
    pub errored: u64,
    /// Requests refused by admission control (HTTP 429); they count as
    /// failed.
    pub shed: u64,
}

impl Outcomes {
    /// Failed requests, shed ones included.
    pub fn failed(&self) -> u64 {
        self.errored + self.shed
    }

    /// Failed plus shed, over attempted (0 for an empty run).
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Open-loop latency: from when the request was *due* (its slot in the
/// arrival schedule) to `event_s`, both on the window clock, in ms. A
/// request the generator sent late is charged for the lateness too.
pub fn since_due_ms(due_s: f64, event_s: f64) -> f64 {
    (event_s - due_s) * 1e3
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None, "99 samples leave 9 beyond");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), TAIL_BEYOND);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), None);
        assert!(tail_percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn shed_requests_count_as_failed() {
        let o = Outcomes {
            attempted: 40,
            errored: 1,
            shed: 3,
        };
        assert_eq!(o.failed(), 4);
        assert!((o.error_frac() - 0.1).abs() < 1e-12);
        assert_eq!(Outcomes::default().error_frac(), 0.0);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Due at 1.0 s, sent late at 1.2 s, answered at 1.5 s: the client
        // sees 300 ms but the request waited 500 ms since it was due.
        let (due, sent, done) = (1.0, 1.2, 1.5);
        assert!((since_due_ms(due, done) - 500.0).abs() < 1e-9);
        assert!(since_due_ms(due, done) > since_due_ms(sent, done));
    }
}
