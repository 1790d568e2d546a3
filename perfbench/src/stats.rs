//! Small measurement helpers: timing summaries, `/proc` memory readings and
//! open-loop due-time accounting.

use std::time::{Duration, Instant};

/// Samples needed beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A timing summary: the median plus the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is; `100` (the maximum) when there are too
    /// few samples for any percentile to have enough beyond it.
    pub tail_pct: f64,
}

/// Summarizes `samples`, or `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let (tail, tail_pct) = if n > TAIL_BEYOND {
        // Nearest rank with exactly TAIL_BEYOND samples above it.
        (sorted[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
    } else {
        (sorted[n - 1], 100.0)
    };
    Some(Summary { count: n, p50: median_sorted(&sorted), tail, tail_pct })
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The median, or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.p50)
}

/// Nearest-rank percentile `pct` (0–100), or `None` for no samples.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Memory figures from `/proc/<pid>/status`, in KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcMem {
    /// `VmHWM`: peak resident set size.
    pub hwm_kb: u64,
    /// `VmRSS`: current resident set size.
    pub rss_kb: u64,
}

/// Parses the `VmHWM` and `VmRSS` lines of a `/proc/<pid>/status` text.
/// A process that has exited (a zombie) has neither.
pub fn parse_status(text: &str) -> Option<ProcMem> {
    let field = |key: &str| {
        text.lines().find_map(|line| {
            let rest = line.strip_prefix(key)?.strip_prefix(':')?;
            rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        })
    };
    Some(ProcMem { hwm_kb: field("VmHWM")?, rss_kb: field("VmRSS")? })
}

pub fn read_status(pid: u32) -> Option<ProcMem> {
    std::fs::read_to_string(format!("/proc/{pid}/status")).ok().as_deref().and_then(parse_status)
}

/// An open-loop schedule: tick `k` is due at `start + k * interval`,
/// whether or not the system kept up.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, tick: u64) -> Instant {
        self.start + self.interval * u32::try_from(tick).expect("tick count fits u32")
    }

    /// How long after tick `tick` was due the result was seen, in ms. This
    /// counts the wait a stalled generator or system imposed on the work,
    /// not only the time since it was actually sent.
    pub fn latency_ms(&self, tick: u64, seen: Instant) -> f64 {
        ms(seen.saturating_duration_since(self.due(tick)))
    }

    /// How late tick `tick` was actually sent, in ms (0 when on time).
    pub fn lateness_ms(&self, tick: u64, sent: Instant) -> f64 {
        ms(sent.saturating_duration_since(self.due(tick)))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), TAIL_BEYOND);

        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!((s.tail, s.tail_pct), (989.0, 99.0));
    }

    #[test]
    fn few_samples_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.count, s.p50, s.tail, s.tail_pct), (3, 2.0, 3.0, 100.0));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5.0));
        assert_eq!(percentile(&samples, 99.0), Some(10.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(mean(&samples), Some(5.5));
    }

    #[test]
    fn status_parsing_reads_peak_and_current_rss() {
        let text = "Name:\tmoche\nVmPeak:\t  900000 kB\nVmHWM:\t   71234 kB\nVmRSS:\t   70001 kB\n";
        assert_eq!(parse_status(text), Some(ProcMem { hwm_kb: 71234, rss_kb: 70001 }));
        // A zombie's status has no memory lines.
        assert_eq!(parse_status("Name:\tmoche\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_status("VmHWM:\tlots kB\nVmRSS:\t1 kB\n"), None);
        let own = read_status(std::process::id()).expect("this process is alive");
        assert!(own.hwm_kb >= own.rss_kb && own.rss_kb > 0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule { start, interval: Duration::from_millis(50) };
        assert_eq!(schedule.due(3), start + Duration::from_millis(150));
        // Tick 3 went out 30 ms late and its result came back 5 ms later:
        // the latency is 35 ms, not the 5 ms since the send.
        let sent = schedule.due(3) + Duration::from_millis(30);
        let seen = sent + Duration::from_millis(5);
        assert!((schedule.lateness_ms(3, sent) - 30.0).abs() < 1e-9);
        assert!((schedule.latency_ms(3, seen) - 35.0).abs() < 1e-9);
        // An early send is not negative lateness.
        assert_eq!(schedule.lateness_ms(3, schedule.due(2)), 0.0);
    }
}
