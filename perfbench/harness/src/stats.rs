//! Sample statistics, check tallies, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: the benchmark's input generator. Kept here rather than
/// borrowed from the library so that inputs never change with it.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `base` scaled by a uniform factor within ±3%.
    pub fn jitter(&mut self, base: u64) -> u64 {
        (base as f64 * (0.97 + 0.06 * self.unit())).round() as u64
    }
}

/// Median of `xs` (mean of the two middle values for even lengths).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Each input's fastest run: `runs` holds one row per repetition, with
/// one time per input in a fixed order.
///
/// Other tenants of a shared host only ever add time to a run, and they
/// do it in phases of tens of seconds that slow every run inside them by
/// up to 1.5×. The medians of one benchmark run's repetitions moved by
/// 20% between runs of the same code; the fastest repetition is the one
/// least disturbed.
pub fn fastest<'a>(runs: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for row in runs {
        if best.is_empty() {
            best = row.clone();
        }
        for (b, &x) in best.iter_mut().zip(row) {
            *b = b.min(x);
        }
    }
    assert!(!best.is_empty(), "fastest of no runs");
    best
}

/// The tail rule: the highest whole percentile, at most 99, that leaves
/// at least ten samples strictly beyond its nearest-rank position.
/// `None` when even the median leaves fewer than ten (under 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&q| {
        let rank = (q as usize * n).div_ceil(100);
        n - rank >= 10
    })
}

/// Nearest-rank percentile `q` of `xs`.
pub fn percentile(xs: &[f64], q: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// A latency summary: median and the tail the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    /// Percentile used for the tail (the maximum when `None`).
    pub tail_q: Option<u32>,
    pub tail: f64,
}

impl Latency {
    pub fn of(xs: &[f64]) -> Latency {
        let tail_q = tail_percentile(xs.len());
        Latency {
            samples: xs.len(),
            p50: median(xs),
            tail_q,
            tail: percentile(xs, tail_q.unwrap_or(100)),
        }
    }

    /// How the tail was taken, for the human-readable report.
    pub fn describe(&self) -> String {
        match self.tail_q {
            Some(q) => format!("tail is p{q} of {} samples", self.samples),
            None => format!("tail is the maximum of {} samples", self.samples),
        }
    }
}

/// Output checks: every check is one attempted operation; a mismatch
/// is a failed one and is reported on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation that has no output to check.
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
        ok
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Output {
    pub tally: Tally,
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Deterministic counts for drift checks against pinned values.
    counts: BTreeMap<String, u64>,
    notes: Vec<String>,
}

impl Output {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.insert(name.into(), value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// One JSON line: the check tally, metrics, counts, and notes.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        s.push_str("},\"counts\":{");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{name}\":{value}");
        }
        s.push_str("},\"notes\":[");
        for (i, note) in self.notes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}\"{}\"",
                note.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(2000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(54), Some(81));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let q = tail_percentile(n).expect("n >= 20");
            let rank = (q as usize * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} q={q}");
            if q < 99 {
                let next = ((q + 1) as usize * n).div_ceil(100);
                assert!(n - next < 10, "n={n}: p{} also qualifies", q + 1);
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), 990.0);
        assert_eq!(percentile(&xs, 50), 500.0);
        let lat = Latency::of(&xs);
        assert_eq!((lat.samples, lat.tail_q, lat.tail), (1000, Some(99), 990.0));
        assert_eq!(lat.p50, 500.5);
        let few = Latency::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail_q, few.tail, few.p50), (None, 3.0, 2.0));
        assert!(few.describe().contains("maximum of 3"));
    }

    #[test]
    fn fastest_takes_each_inputs_minimum() {
        let runs = vec![vec![3.0, 1.0], vec![2.0, 4.0], vec![5.0, 1.5]];
        assert_eq!(fastest(&runs), vec![2.0, 1.0]);
        assert_eq!(fastest(&runs[..1]), vec![3.0, 1.0]);
    }

    #[test]
    fn tally_counts_failed_checks_among_attempts() {
        let mut t = Tally::default();
        t.op();
        t.op();
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "mismatch".into()));
        assert_eq!((t.attempted, t.failed), (4, 1));
    }

    #[test]
    fn output_is_one_json_line_with_full_precision() {
        let mut out = Output::default();
        out.metric("setup_s", 0.123456789012, "s");
        out.count("events", 17730);
        out.note("say \"hi\"");
        out.tally.check(false, || "x".into());
        let json = out.to_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1,"));
        assert!(json.contains("\"setup_s\":{\"value\":0.123456789012,\"unit\":\"s\"}"));
        assert!(json.contains("\"counts\":{\"events\":17730}"));
        assert!(json.contains("\"notes\":[\"say \\\"hi\\\"\"]"));
    }
}
