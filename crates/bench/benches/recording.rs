//! Timing: the recording hot loop (chunked generation + SoA L1) against
//! the pre-PR implementation.
//!
//! Recording is the part of every experiment that touches each
//! reference — everything downstream works on the ~100× smaller miss
//! trace — so it is the loop worth keeping hardware-fast. This bench
//! pits the current [`record_miss_trace`] (chunk-batched emission into
//! the structure-of-arrays `SetAssocCache`) against a faithful
//! reconstruction of the pre-PR path: per-reference closure dispatch
//! into [`ReferenceCache`], the verbatim array-of-structs model kept in
//! `streamsim_cache::reference`. Both paths are run over the quick
//! scorecard workload set and must produce identical miss events, which
//! the bench asserts before timing anything.
//!
//! Output: one human + JSON line per (workload, path) pair in the usual
//! harness shape, plus a summary. With `STREAMSIM_BENCH_WRITE=1` the
//! summary is written to `BENCH_recording.json` at the repo root — the
//! tracked artifact EXPERIMENTS.md describes. With
//! `STREAMSIM_BENCH_ENFORCE=<min>` the run exits non-zero unless the
//! aggregate speedup reaches `<min>` (the CI perf smoke uses this).
//!
//! Knobs: `STREAMSIM_BENCH_SAMPLES` (default 5 here) and
//! `STREAMSIM_BENCH_WARMUP` (default 1 here) — recording a full
//! workload per sample is expensive, so the defaults are small.

use streamsim_bench::{env_u32, median_ns};
use streamsim_cache::reference::ReferenceCache;
use streamsim_cache::AccessOutcome;
use streamsim_core::experiments::{workload_set, ExperimentOptions, Scale};
use streamsim_core::{record_miss_trace, MissEvent, RecordOptions};
use streamsim_trace::{Access, AccessKind};
use streamsim_workloads::Workload;

/// The pre-PR recording loop: closure-based generation into the
/// array-of-structs reference cache, one virtual call per reference.
fn reference_record(w: &dyn Workload, record: &RecordOptions) -> Vec<MissEvent> {
    let mut icache = ReferenceCache::new(record.icache).expect("valid L1");
    let mut dcache = ReferenceCache::new(record.dcache).expect("valid L1");
    let block = record.dcache.block();
    let mut events = Vec::new();
    w.generate(&mut |access: Access| {
        let outcome = match access.kind {
            AccessKind::IFetch => icache.access(access.addr, access.kind),
            AccessKind::Load | AccessKind::Store => dcache.access(access.addr, access.kind),
        };
        match outcome {
            AccessOutcome::Hit | AccessOutcome::Bypassed => {}
            AccessOutcome::Miss { writeback } => {
                events.push(MissEvent::Fetch {
                    addr: access.addr,
                    kind: access.kind,
                });
                if let Some(victim) = writeback {
                    events.push(MissEvent::Writeback {
                        base: victim.base_addr(block),
                    });
                }
            }
        }
    });
    events
}

fn report_line(name: &str, path: &str, ns: u128, refs: u64) {
    let refs_per_sec = refs as f64 * 1e9 / ns as f64;
    println!(
        "bench recording/{name}/{path:<9} median {:>12.2} ms  ({refs} refs, {:.1} Mref/s)",
        ns as f64 / 1e6,
        refs_per_sec / 1e6
    );
    println!(
        "{{\"benchmark\":\"recording/{name}/{path}\",\"median_ns\":{ns},\
         \"refs\":{refs},\"refs_per_sec\":{refs_per_sec:.1}}}"
    );
}

fn main() {
    let samples = env_u32("STREAMSIM_BENCH_SAMPLES", 5);
    let warmup = env_u32("STREAMSIM_BENCH_WARMUP", 1);
    let record = ExperimentOptions::quick().record_options();
    let workloads = workload_set(Scale::Quick);

    let mut per_workload = Vec::new();
    let (mut total_refs, mut total_ref_ns, mut total_cur_ns) = (0u64, 0u128, 0u128);
    for w in &workloads {
        let name = w.name().to_owned();

        // Reference-count the stream and pin byte-identity between the
        // two paths before timing either.
        let mut refs = 0u64;
        let mut batch = Vec::new();
        w.generate_chunks(&mut batch, &mut |chunk: &[Access]| {
            refs += chunk.len() as u64
        });
        let current = record_miss_trace(w.as_ref(), &record).expect("valid L1");
        let reference = reference_record(w.as_ref(), &record);
        assert_eq!(
            current.events(),
            &reference[..],
            "{name}: SoA+chunked recording diverges from the reference path"
        );

        let cur_ns = median_ns(samples, warmup, || {
            record_miss_trace(w.as_ref(), &record).expect("valid L1")
        });
        let ref_ns = median_ns(samples, warmup, || reference_record(w.as_ref(), &record));
        report_line(&name, "reference", ref_ns, refs);
        report_line(&name, "current", cur_ns, refs);

        total_refs += refs;
        total_ref_ns += ref_ns;
        total_cur_ns += cur_ns;
        per_workload.push((name, refs, ref_ns, cur_ns));
    }

    let speedup = total_ref_ns as f64 / total_cur_ns as f64;
    let cur_rate = total_refs as f64 * 1e9 / total_cur_ns as f64;
    let ref_rate = total_refs as f64 * 1e9 / total_ref_ns as f64;
    println!(
        "bench recording/total: {total_refs} refs — reference {:.1} Mref/s, \
         current {:.1} Mref/s, speedup {speedup:.2}x",
        ref_rate / 1e6,
        cur_rate / 1e6
    );

    // The shared streamsim-bench-v2 artifact: one flat summary row the
    // perf ledger ingests, then one detail row per workload.
    let config_text = format!("recording quick {record:?}");
    let header = streamsim_bench::bench_summary_line(
        "recording",
        "quick",
        samples,
        &config_text,
        total_refs,
        "refs",
        &[
            ("reference_ns", total_ref_ns as f64),
            ("current_ns", total_cur_ns as f64),
            ("refs_per_sec", (cur_rate * 10.0).round() / 10.0),
            (
                "ns_per_ref",
                (total_cur_ns as f64 / total_refs as f64 * 1e3).round() / 1e3,
            ),
            ("speedup", (speedup * 1e3).round() / 1e3),
        ],
    );
    let rows: Vec<String> = per_workload
        .iter()
        .map(|(name, refs, ref_ns, cur_ns)| {
            streamsim_bench::bench_detail_line(
                "recording",
                "workload",
                &format!(
                    "\"name\":\"{name}\",\"refs\":{refs},\"reference_ns\":{ref_ns},\
                     \"current_ns\":{cur_ns},\"speedup\":{:.3}",
                    *ref_ns as f64 / *cur_ns as f64
                ),
            )
        })
        .collect();
    let summary = format!("{header}\n{}\n", rows.join("\n"));

    streamsim_bench::write_and_enforce("recording", &summary, speedup);
}
