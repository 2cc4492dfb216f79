//! Shared plumbing for the self-timed bench targets.
//!
//! Each `[[bench]]` target with `harness = false` is a small `main`
//! timed with the monotonic wall clock. `recording`, `replay` and
//! `model` time a current path against its frozen reference and emit
//! the tracked `BENCH_*.json` artifacts the perf ledger ingests. The
//! paper's tables and figures are regenerated by
//! `streamsim-report <artifact>`, not by bench targets, and perfbench
//! times the report end to end and per layer.
//!
//! Knobs shared by every target: `STREAMSIM_BENCH_SAMPLES` and
//! `STREAMSIM_BENCH_WARMUP` ([`env_u32`]), and `STREAMSIM_BENCH_WRITE` /
//! `STREAMSIM_BENCH_ENFORCE` ([`write_and_enforce`]).

#[expect(
    clippy::disallowed_types,
    reason = "the timing harness reads the monotonic clock"
)]
use std::time::Instant;

/// A positive integer from the environment variable `key`, or
/// `default` when it is unset, unparsable or zero.
#[expect(
    clippy::disallowed_methods,
    reason = "the STREAMSIM_BENCH_* knobs are the harness's configuration"
)]
pub fn env_u32(key: &str, default: u32) -> u32 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Median wall time of `f` over `samples` timed runs, after `warmup`
/// untimed ones, in nanoseconds. Each result passes through
/// [`std::hint::black_box`] so the work cannot be optimised away.
#[expect(clippy::disallowed_types, reason = "times each sample")]
pub fn median_ns<R>(samples: u32, warmup: u32, mut f: impl FnMut() -> R) -> u128 {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut ns: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// The tail every tracked bench shares. With `STREAMSIM_BENCH_WRITE=1`
/// it writes `summary` to `BENCH_<benchmark>.json` at the repository
/// root; with `STREAMSIM_BENCH_ENFORCE=<min>` it exits non-zero unless
/// `speedup` reaches `<min>` (the CI perf smokes use this).
#[expect(
    clippy::disallowed_methods,
    reason = "STREAMSIM_BENCH_WRITE and STREAMSIM_BENCH_ENFORCE are the harness's configuration"
)]
pub fn write_and_enforce(benchmark: &str, summary: &str, speedup: f64) {
    if std::env::var("STREAMSIM_BENCH_WRITE").as_deref() == Ok("1") {
        let path = format!(
            "{}/../../BENCH_{benchmark}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, summary).expect("write the BENCH_*.json artifact");
        println!("{benchmark} summary written to {path}");
    }

    if let Ok(min) = std::env::var("STREAMSIM_BENCH_ENFORCE") {
        let min: f64 = min
            .trim()
            .parse()
            .expect("STREAMSIM_BENCH_ENFORCE is a float");
        if speedup < min {
            eprintln!("{benchmark} speedup {speedup:.3}x below enforced minimum {min}x");
            std::process::exit(1);
        }
        println!("{benchmark} speedup {speedup:.3}x meets enforced minimum {min}x");
    }
}

/// Builds the shared `streamsim-bench-v2` summary row every tracked
/// `BENCH_*.json` artifact leads with (see `streamsim_obs::BENCH_SCHEMA`
/// and the ledger docs). The row is flat JSONL: header keys first
/// (`run_config` is the [`streamsim_obs::fingerprint64`] of
/// `config_text`, `run_steps` the wall-clock-free work count), then the
/// benchmark's numeric metrics in the given order.
pub fn bench_summary_line(
    benchmark: &str,
    scale: &str,
    samples: u32,
    config_text: &str,
    run_steps: u64,
    work_unit: &str,
    metrics: &[(&str, f64)],
) -> String {
    use streamsim_obs::{fingerprint64, json_escape, BENCH_SCHEMA};
    let mut line = format!(
        "{{\"schema\":{},\"table\":\"summary\",\"benchmark\":{},\"scale\":{},\
         \"samples\":{samples},\"run_config\":\"{:016x}\",\"run_steps\":{run_steps},\
         \"work_unit\":{}",
        json_escape(BENCH_SCHEMA),
        json_escape(benchmark),
        json_escape(scale),
        fingerprint64(config_text),
        json_escape(work_unit),
    );
    for (key, value) in metrics {
        line.push_str(&format!(",{}:{value}", streamsim_obs::json_escape(key)));
    }
    line.push('}');
    line
}

/// A flat `streamsim-bench-v2` detail row (`table` names the row kind,
/// e.g. `workload` / `family` / `cell`); `fields` are pre-rendered
/// `"key":value` fragments.
pub fn bench_detail_line(benchmark: &str, table: &str, fields: &str) -> String {
    use streamsim_obs::{json_escape, BENCH_SCHEMA};
    format!(
        "{{\"schema\":{},\"table\":{},\"benchmark\":{},{fields}}}",
        json_escape(BENCH_SCHEMA),
        json_escape(table),
        json_escape(benchmark),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_is_flat_and_schema_tagged() {
        let line = bench_summary_line(
            "recording",
            "quick",
            9,
            "cfg",
            3_514_559,
            "refs",
            &[("speedup", 1.488), ("reference_ns", 60269845.0)],
        );
        assert!(line.starts_with("{\"schema\":\"streamsim-bench-v2\",\"table\":\"summary\""));
        assert!(line.contains("\"benchmark\":\"recording\""), "{line}");
        assert!(line.contains("\"run_steps\":3514559"), "{line}");
        assert!(line.contains("\"speedup\":1.488"), "{line}");
        assert!(!line.contains('\n'), "one flat line: {line}");
        let detail = bench_detail_line("recording", "workload", "\"name\":\"embar\",\"refs\":7");
        assert!(detail.contains("\"table\":\"workload\""), "{detail}");
        assert!(detail.ends_with("\"refs\":7}"), "{detail}");
    }
}
