//! Result collection, percentiles, `/proc` readers and the final JSON
//! line.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (inserts + extracts, pops, or items).
    pub attempted: u64,
    /// Operations that failed (a `None` from a non-empty queue, a lost
    /// or duplicated item).
    pub failed: u64,
    /// Correctness problems found by the end-of-run checks.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add every metric of `list` not pushed yet, with value 0.
    pub fn fill_missing(&mut self, list: &[(&str, &'static str)]) {
        for &(name, unit) in list {
            if self.metric(name).is_none() {
                self.push(name, 0.0, unit);
            }
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Correct when no check failed and no operation failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The single JSON object the benchmark prints as its last line.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values cannot be JSON numbers; a ratio over an
            // empty base reads 0 instead.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

/// A sample value that percentiles can read as `f64`.
pub trait Sample: Copy {
    fn to_f64(self) -> f64;
}

impl Sample for u32 {
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Sample for u64 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Sample for f64 {
    fn to_f64(self) -> f64 {
        self
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice.
pub fn percentile<T: Sample>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].to_f64()
}

/// Quantile of integer samples with each value spread evenly over its
/// unit interval (the mid-distribution quantile): the nearest-rank value
/// `v`, placed within `[v - 0.5, v + 0.5]` by where `q` falls among the
/// samples equal to `v`. A shift of the distribution then shows even
/// while the integer quantile stays on one value.
pub fn discrete_quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let v = percentile(sorted, q) as u32;
    let below = sorted.partition_point(|&x| x < v);
    let upto = sorted.partition_point(|&x| x <= v);
    let within = (q * sorted.len() as f64 - below as f64) / (upto - below) as f64;
    f64::from(v) - 0.5 + within.clamp(0.0, 1.0)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time of the whole process (every thread, live or ended), in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a writable timespec, as the call expects.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as u64 * 1_000_000_000 + ts.nsec as u64;
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    0
}

/// CPU time the calling thread has spent running, in nanoseconds (first
/// field of `/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Difference of a counter between two `obs::Snapshot`s (0 if absent).
pub fn delta(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn discrete_quantile_interpolates_within_ties() {
        // Four 5s, then 6s: the median falls half-way through the 6s.
        let v = [5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6];
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(discrete_quantile(&v, 0.5), 5.75);
        assert_eq!(discrete_quantile(&v, 1.0), 6.5);
        assert_eq!(discrete_quantile(&[7, 8, 9], 0.5), 8.0);
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.push("x.p50_us", 1.5, "us");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"x.p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
