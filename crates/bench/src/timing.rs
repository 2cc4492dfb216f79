//! A self-contained micro-benchmark timer (the criterion replacement).
//!
//! The workspace builds with zero external dependencies, so the
//! statistical machinery of criterion is replaced by the part the
//! benches actually used: run a closure a few times to warm caches and
//! the branch predictor, time a fixed number of samples with the
//! monotonic wall clock, and report the median (robust against a stray
//! descheduling) plus min/mean for context.
//!
//! Output is one human-readable line and one JSON line per benchmark,
//! so results can be grepped (`^{`) into a series and diffed across
//! commits — the regression workflow ROADMAP's perf items rely on.
//!
//! Environment knobs: `STREAMSIM_BENCH_SAMPLES` (default 11) and
//! `STREAMSIM_BENCH_WARMUP` (default 3) apply to every group.
//!
//! # Example
//!
//! ```
//! let mut group = streamsim_bench::timing::group("demo");
//! group.throughput(1_000);
//! group.bench_function("sum", || (0..1_000u64).sum::<u64>());
//! group.finish();
//! ```

#[expect(
    clippy::disallowed_types,
    reason = "the timing harness reads the monotonic clock"
)]
use std::time::Instant;

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: u32 = 11;
/// Default number of untimed warm-up iterations per benchmark.
pub const DEFAULT_WARMUP: u32 = 3;

/// A named group of related benchmarks sharing a throughput setting,
/// mirroring criterion's `benchmark_group` so the bench sources read
/// the same.
pub struct Group {
    name: String,
    samples: u32,
    warmup: u32,
    /// Elements processed per iteration, for derived rates.
    elements: Option<u64>,
}

/// Starts a benchmark group. Results print as they complete.
pub fn group(name: &str) -> Group {
    Group {
        name: name.to_string(),
        samples: crate::env_u32("STREAMSIM_BENCH_SAMPLES", DEFAULT_SAMPLES),
        warmup: crate::env_u32("STREAMSIM_BENCH_WARMUP", DEFAULT_WARMUP),
        elements: None,
    }
}

impl Group {
    /// Declares how many logical elements one iteration processes, so
    /// results also report a rate (elements per second).
    pub fn throughput(&mut self, elements: u64) {
        self.elements = Some(elements);
    }

    /// Overrides the sample count for the remaining benchmarks in this
    /// group (criterion's `sample_size`).
    pub fn sample_size(&mut self, samples: u32) {
        self.samples = samples.max(1);
    }

    /// Times `f`: `warmup` untimed runs, then `samples` timed runs;
    /// reports the median. The closure's result is passed through
    /// [`std::hint::black_box`] so the work cannot be optimised away.
    #[expect(clippy::disallowed_types, reason = "times each sample")]
    pub fn bench_function<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut ns: Vec<u128> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        let median = ns[ns.len() / 2];
        let min = ns[0];
        let mean = ns.iter().sum::<u128>() / ns.len() as u128;
        let full = format!("{}/{}", self.name, name);

        let rate = self.elements.map(|e| {
            if median == 0 {
                f64::INFINITY
            } else {
                e as f64 * 1e9 / median as f64
            }
        });
        match (self.elements, rate) {
            (Some(e), Some(r)) => println!(
                "bench {full:<40} median {:>12}  min {:>12}  ({e} elems, {:.1} Melem/s)",
                fmt_ns(median),
                fmt_ns(min),
                r / 1e6
            ),
            _ => println!(
                "bench {full:<40} median {:>12}  min {:>12}",
                fmt_ns(median),
                fmt_ns(min)
            ),
        }
        let mut json = format!(
            "{{\"benchmark\":\"{full}\",\"median_ns\":{median},\"min_ns\":{min},\
             \"mean_ns\":{mean},\"samples\":{}",
            ns.len()
        );
        if let (Some(e), Some(r)) = (self.elements, rate) {
            json.push_str(&format!(",\"elements\":{e},\"elems_per_sec\":{r:.1}"));
        }
        json.push('}');
        println!("{json}");
    }

    /// Ends the group (kept for criterion source compatibility; results
    /// are printed eagerly so there is nothing left to flush).
    pub fn finish(self) {}
}

fn fmt_ns(ns: u128) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.2} µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_samples_is_reported() {
        // Smoke test: the harness runs the closure warmup + samples
        // times and does not panic.
        let mut calls = 0u32;
        let mut g = group("timing-test");
        g.sample_size(5);
        g.bench_function("counter", || {
            calls += 1;
            calls
        });
        g.finish();
        assert_eq!(calls, 5 + DEFAULT_WARMUP);
    }

    #[test]
    fn formats_cover_magnitudes() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(25_000), "25.00 µs");
        assert_eq!(fmt_ns(25_000_000), "25.00 ms");
        assert_eq!(fmt_ns(25_000_000_000), "25.00 s");
    }
}
