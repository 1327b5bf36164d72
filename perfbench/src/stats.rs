//! Sample summaries, host facts, and the result report.

use std::fmt::Write as _;
use std::fs;
use std::time::Duration;

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The `q`-quantile (0 < q < 1) of `v` by nearest rank.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest of p99 and p90 that has at least ten samples beyond it.
pub fn tail(v: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99), ("p90", 90)]
        .into_iter()
        .find(|&(_, pct)| v.len() * (100 - pct) / 100 >= 10)
        .map(|(name, pct)| (name, quantile(v, f64::from(pct as u32) / 100.0)))
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Worker threads the benchmark may use: `available_parallelism`.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size of the last-level cache, from sysfs (0 when unreadable).
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Ok(level), Ok(size)) = (
            fs::read_to_string(format!("{dir}/level")),
            fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything a run prints: metrics for the result line, exact counts,
/// informational lines, and the operation tallies.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric measured over `samples` samples and prints it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        println!("metric {name} = {value} {unit} (n={samples})");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records an exact count; counts repeat exactly for a fixed seed.
    pub fn count(&mut self, name: &str, value: u64) {
        println!("count {name} = {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value: value as f64,
            unit: "count",
            samples: 1,
        });
    }

    /// Prints a figure that is not part of the result line.
    pub fn info(&self, name: &str, value: impl std::fmt::Display) {
        println!("info {name} = {value}");
    }

    /// Counts one checked operation, printing the reason if it failed.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            println!(
                "FAILED {what}: {}",
                why.chars().take(200).collect::<String>()
            );
        }
    }

    /// Medians `values`, reports it, and prints the tail where one exists.
    pub fn timing(&mut self, name: &str, values: &[f64], unit: &'static str) {
        if values.is_empty() {
            println!("metric {name} = n/a (n=0)");
            return;
        }
        self.metric(name, median(values), unit, values.len());
        match tail(values) {
            Some((p, t)) => println!("tail {name} {p} = {t} {unit} (n={})", values.len()),
            None => println!(
                "tail {name} none: fewer than 10 samples beyond p90 (n={})",
                values.len()
            ),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line, holding exactly the metrics named in `keep`.
    pub fn result_line(&self, keep: &[&str]) -> String {
        let mut metrics = String::new();
        for name in keep {
            let m = self
                .metrics
                .iter()
                .rev()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(m.value.is_finite(), "metric {name} is not finite");
            assert!(m.samples > 0);
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p90", 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p99", 990.0)));
        assert_eq!(tail(&v[..99]), None);
    }
}
