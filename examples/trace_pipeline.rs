//! The trace pipeline: generate once, store compressed, replay anywhere.
//!
//! The paper's workflow was Shade → sampled trace files → simulator. This
//! example reproduces that pipeline with the library API: generate a
//! benchmark's reference stream, time-sample it as the paper did, store
//! it in the delta-compressed trace format, and replay the stored trace
//! through two different stream configurations — without regenerating.
//!
//! Run with:
//! ```text
//! cargo run --release --example trace_pipeline
//! ```

use streamsim::{
    benchmark, collect_trace, record_miss_trace, run_streams, Access, ChunkSampler, RecordOptions,
    StreamConfig,
};
use streamsim_trace::io::{read_trace, write_trace};
use streamsim_workloads::combinators::RecordedTrace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate and time-sample, as the paper did (10k on / 90k off).
    let workload = benchmark("applu").expect("known benchmark");
    let full: Vec<Access> = collect_trace(workload.as_ref());
    let mut sampled: Vec<Access> = Vec::new();
    ChunkSampler::new(10_000, 90_000).sample(&full, &mut |kept| sampled.extend_from_slice(kept));
    println!(
        "generated {} references, paper sampling kept {} ({:.1}%)",
        full.len(),
        sampled.len(),
        100.0 * sampled.len() as f64 / full.len() as f64
    );

    // 2. Store in the compressed trace format.
    let path = std::env::temp_dir().join("applu-sampled.sstr");
    {
        let file = std::fs::File::create(&path)?;
        write_trace(std::io::BufWriter::new(file), &sampled)?;
    }
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "stored {} ({:.2} MB, {:.1} bits/ref vs 64 raw)",
        path.display(),
        bytes as f64 / (1 << 20) as f64,
        8.0 * bytes as f64 / sampled.len() as f64
    );

    // 3. Reload and replay through two configurations.
    let reloaded = {
        let file = std::fs::File::open(&path)?;
        read_trace(std::io::BufReader::new(file))?
    };
    assert_eq!(reloaded, sampled, "lossless round trip");
    let replay = RecordedTrace::new("applu-sampled", reloaded);
    let miss_trace = record_miss_trace(&replay, &RecordOptions::default())?;
    println!("\nreplaying {} primary-cache misses:", miss_trace.fetches());
    for (label, config) in [
        ("10 streams, unfiltered", StreamConfig::paper_basic(10)?),
        (
            "10 streams + unit filter",
            StreamConfig::paper_filtered(10)?,
        ),
    ] {
        let stats = run_streams(&miss_trace, config);
        println!(
            "  {label:<26} hit {:>5.1}%   EB {:>5.1}%",
            stats.hit_rate() * 100.0,
            stats.extra_bandwidth() * 100.0
        );
    }

    std::fs::remove_file(&path).ok();
    println!("\n(time sampling preserves the hit-rate picture at a tenth of the cost —");
    println!("compare against an unsampled run with RecordOptions::default())");
    Ok(())
}
