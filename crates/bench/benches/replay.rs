//! Timing: the replay hot loop (batched delivery + fused families + SoA
//! stream state) against the pre-PR implementation.
//!
//! Replay is where the paper's sweeps spend their time once recording is
//! amortised: every table and figure walks the same recorded miss trace
//! against a *family* of configuration cells. This bench pits the
//! current path — [`replay_streams`] (fused, chunk-batched, SoA stream
//! state) and [`replay_l2`] (LRU cells read from one recency stack per
//! set count) — against a faithful reconstruction of the pre-PR path:
//! one virtual call per event per cell, streams modelled by
//! [`ReferenceStreamSystem`], the verbatim pre-SoA system kept in
//! `streamsim_streams::reference`, and each L2 cell by its own
//! [`L2Observer`]. Both paths are run over every (workload, family) pair
//! and must produce identical statistics, which the bench asserts before
//! timing anything — for the `l2` family that pins the stack pass
//! against the set-associative cache model.
//!
//! Throughput is counted in *deliveries* — events × cells — so fusing a
//! family does not deflate the rate.
//!
//! Output: one human + JSON line per (workload, family, path) triple in
//! the usual harness shape, plus a summary. With
//! `STREAMSIM_BENCH_WRITE=1` the summary is written to
//! `BENCH_replay.json` at the repo root — the tracked artifact
//! EXPERIMENTS.md describes. With `STREAMSIM_BENCH_ENFORCE=<min>` the
//! run exits non-zero unless the aggregate speedup reaches `<min>` (the
//! CI perf smoke uses this).
//!
//! Knobs: `STREAMSIM_BENCH_SAMPLES` (default 5 here) and
//! `STREAMSIM_BENCH_WARMUP` (default 1 here).

use streamsim_bench::{env_u32, median_ns};
use streamsim_cache::{CacheConfig, CacheStats, SetSampling};
use streamsim_core::experiments::{workload_set, ExperimentOptions, Scale};
use streamsim_core::{
    record_miss_trace, replay_l2, replay_streams, L2Observer, Miss, MissObserver, MissTrace,
};
use streamsim_streams::reference::ReferenceStreamSystem;
use streamsim_streams::{Allocation, StreamConfig, StreamStats};
use streamsim_trace::BlockSize;

/// The pre-PR stream replay: walk the event vector once, fan each event
/// out to every cell through a per-event call into the pre-SoA system.
fn reference_replay_streams(trace: &MissTrace, configs: &[StreamConfig]) -> Vec<StreamStats> {
    let mut systems: Vec<ReferenceStreamSystem> = configs
        .iter()
        .map(|&c| ReferenceStreamSystem::new(c))
        .collect();
    for event in trace.events() {
        for sys in &mut systems {
            match event.decode() {
                Miss::Fetch { addr, .. } => {
                    sys.on_l1_miss(addr);
                }
                Miss::Writeback { base } => {
                    sys.on_writeback(base.block(BlockSize::default()));
                }
            }
        }
    }
    for sys in &mut systems {
        sys.finalize();
    }
    systems.iter().map(ReferenceStreamSystem::stats).collect()
}

/// The pre-PR secondary-cache replay: per-event dispatch into one
/// [`L2Observer`] (a `SetAssocCache`) per cell. Its three cells have
/// three set counts, so `replay_l2` gives each its own recency stack
/// and the timing measures the stack layout, not stack sharing.
fn reference_replay_l2(
    trace: &MissTrace,
    cells: &[(CacheConfig, Option<SetSampling>)],
) -> Vec<CacheStats> {
    let mut observers: Vec<L2Observer> = cells
        .iter()
        .map(|&(config, sampling)| L2Observer::new(config, sampling).expect("valid L2 cell"))
        .collect();
    for event in trace.events() {
        for o in &mut observers {
            match event.decode() {
                Miss::Fetch { addr, kind } => o.on_fetch(addr, kind),
                Miss::Writeback { base } => o.on_writeback(base),
            }
        }
    }
    for o in &mut observers {
        o.finish();
    }
    observers.iter().map(L2Observer::stats).collect()
}

/// The stream-configuration families every workload is swept against:
/// the Figure 3 stream-count sweep, a unit-filter size sweep, and a
/// czone-size sweep — the three shapes the paper's stream sections use.
fn stream_families() -> Vec<(&'static str, Vec<StreamConfig>)> {
    let fig3 = (1..=10)
        .map(|n| StreamConfig::paper_basic(n).expect("valid stream count"))
        .collect();
    let filter = [4, 8, 16, 32]
        .iter()
        .map(|&entries| {
            StreamConfig::new(10, 2, Allocation::UnitFilter { entries }).expect("valid filter")
        })
        .collect();
    let czone = [8, 16, 24]
        .iter()
        .map(|&bits| StreamConfig::paper_strided(10, bits).expect("valid czone"))
        .collect();
    vec![("fig3", fig3), ("filter", filter), ("czone", czone)]
}

fn report_line(workload: &str, family: &str, path: &str, ns: u128, deliveries: u64) {
    let del_per_sec = deliveries as f64 * 1e9 / ns as f64;
    println!(
        "bench replay/{workload}/{family:<6}/{path:<9} median {:>10.2} ms  \
         ({deliveries} deliveries, {:.1} Mdel/s)",
        ns as f64 / 1e6,
        del_per_sec / 1e6
    );
    println!(
        "{{\"benchmark\":\"replay/{workload}/{family}/{path}\",\"median_ns\":{ns},\
         \"deliveries\":{deliveries},\"deliveries_per_sec\":{del_per_sec:.1}}}"
    );
}

struct FamilyRow {
    workload: String,
    family: &'static str,
    cells: u64,
    deliveries: u64,
    ref_ns: u128,
    cur_ns: u128,
}

fn main() {
    let samples = env_u32("STREAMSIM_BENCH_SAMPLES", 5);
    let warmup = env_u32("STREAMSIM_BENCH_WARMUP", 1);
    let record = ExperimentOptions::quick().record_options();
    let workloads = workload_set(Scale::Quick);

    let l2_block = BlockSize::default();
    let l2_cells = [
        (
            CacheConfig::new(256 << 10, 1, l2_block).expect("valid L2"),
            None,
        ),
        (
            CacheConfig::new(1 << 20, 2, l2_block).expect("valid L2"),
            None,
        ),
        (
            CacheConfig::new(4 << 20, 4, l2_block).expect("valid L2"),
            None,
        ),
    ];

    let mut rows: Vec<FamilyRow> = Vec::new();
    for w in &workloads {
        let name = w.name().to_owned();
        let trace = record_miss_trace(w.as_ref(), &record).expect("valid L1");
        let events = trace.events().len() as u64;

        for (family, configs) in stream_families() {
            // Pin byte-identity between the two paths before timing.
            let current = replay_streams(&trace, &configs);
            let reference = reference_replay_streams(&trace, &configs);
            assert_eq!(
                current, reference,
                "{name}/{family}: fused SoA replay diverges from the reference path"
            );

            let cur_ns = median_ns(samples, warmup, || replay_streams(&trace, &configs));
            let ref_ns = median_ns(samples, warmup, || {
                reference_replay_streams(&trace, &configs)
            });
            let cells = configs.len() as u64;
            let deliveries = events * cells;
            report_line(&name, family, "reference", ref_ns, deliveries);
            report_line(&name, family, "current", cur_ns, deliveries);
            rows.push(FamilyRow {
                workload: name.clone(),
                family,
                cells,
                deliveries,
                ref_ns,
                cur_ns,
            });
        }

        {
            let current = replay_l2(&trace, &l2_cells).expect("valid L2 cells");
            let reference = reference_replay_l2(&trace, &l2_cells);
            assert_eq!(
                current, reference,
                "{name}/l2: the recency-stack replay diverges from per-event caches"
            );

            let cur_ns = median_ns(samples, warmup, || {
                replay_l2(&trace, &l2_cells).expect("valid L2 cells")
            });
            let ref_ns = median_ns(samples, warmup, || reference_replay_l2(&trace, &l2_cells));
            let cells = l2_cells.len() as u64;
            let deliveries = events * cells;
            report_line(&name, "l2", "reference", ref_ns, deliveries);
            report_line(&name, "l2", "current", cur_ns, deliveries);
            rows.push(FamilyRow {
                workload: name.clone(),
                family: "l2",
                cells,
                deliveries,
                ref_ns,
                cur_ns,
            });
        }
    }

    let total_deliveries: u64 = rows.iter().map(|r| r.deliveries).sum();
    let total_ref_ns: u128 = rows.iter().map(|r| r.ref_ns).sum();
    let total_cur_ns: u128 = rows.iter().map(|r| r.cur_ns).sum();
    let speedup = total_ref_ns as f64 / total_cur_ns as f64;
    let cur_rate = total_deliveries as f64 * 1e9 / total_cur_ns as f64;
    let ref_rate = total_deliveries as f64 * 1e9 / total_ref_ns as f64;
    println!(
        "bench replay/total: {total_deliveries} deliveries — reference {:.1} Mdel/s, \
         current {:.1} Mdel/s, speedup {speedup:.2}x",
        ref_rate / 1e6,
        cur_rate / 1e6
    );

    // Per-family aggregate speedups, with an honest note naming any
    // family that misses the tentpole's 2x target on this machine.
    let mut families: Vec<&'static str> = Vec::new();
    for r in &rows {
        if !families.contains(&r.family) {
            families.push(r.family);
        }
    }
    let mut family_lines = Vec::new();
    let mut below_target = Vec::new();
    for family in &families {
        let fam_ref: u128 = rows
            .iter()
            .filter(|r| r.family == *family)
            .map(|r| r.ref_ns)
            .sum();
        let fam_cur: u128 = rows
            .iter()
            .filter(|r| r.family == *family)
            .map(|r| r.cur_ns)
            .sum();
        let fam_speedup = fam_ref as f64 / fam_cur as f64;
        println!("bench replay/family/{family}: speedup {fam_speedup:.2}x");
        family_lines.push(format!(
            "\"family\":\"{family}\",\"reference_ns\":{fam_ref},\
             \"current_ns\":{fam_cur},\"speedup\":{fam_speedup:.3}"
        ));
        if fam_speedup < 2.0 {
            below_target.push(format!("{family} ({fam_speedup:.2}x)"));
        }
    }
    // Cells below parity get named too: a (workload, family) pair where
    // the batched path loses to the per-event reference outright is
    // worth a reader's attention even when its family aggregate is fine.
    let below_parity: Vec<String> = rows
        .iter()
        .filter(|r| r.cur_ns > r.ref_ns)
        .map(|r| {
            format!(
                "{}/{} ({:.2}x)",
                r.workload,
                r.family,
                r.ref_ns as f64 / r.cur_ns as f64
            )
        })
        .collect();
    let mut note = if below_target.is_empty() {
        "every family meets the 2x aggregate target".to_owned()
    } else {
        format!(
            "families below the 2x target on this machine: {}",
            below_target.join(", ")
        )
    };
    if !below_parity.is_empty() {
        note.push_str(&format!(
            "; cells below parity with the per-event reference: {} — \
             the chunk-size sweep (256/512/1024/2048) shows these are not \
             a chunking artifact, candidates differ by under noise",
            below_parity.join(", ")
        ));
    }

    // The shared streamsim-bench-v2 artifact: one flat summary row the
    // perf ledger ingests, then family and cell detail rows. The honest
    // per-machine note travels as its own row so the summary stays
    // purely numeric.
    let config_text = format!("replay quick families {families:?}");
    let header = streamsim_bench::bench_summary_line(
        "replay",
        "quick",
        samples,
        &config_text,
        total_deliveries,
        "deliveries",
        &[
            ("reference_ns", total_ref_ns as f64),
            ("current_ns", total_cur_ns as f64),
            ("deliveries_per_sec", (cur_rate * 10.0).round() / 10.0),
            ("speedup", (speedup * 1e3).round() / 1e3),
        ],
    );
    let note_line = streamsim_bench::bench_detail_line(
        "replay",
        "note",
        &format!("\"text\":{}", streamsim_obs::json_escape(&note)),
    );
    let family_rows: Vec<String> = family_lines
        .iter()
        .map(|fields| streamsim_bench::bench_detail_line("replay", "family", fields))
        .collect();
    let cell_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            streamsim_bench::bench_detail_line(
                "replay",
                "cell",
                &format!(
                    "\"workload\":\"{}\",\"family\":\"{}\",\"cells\":{},\
                     \"deliveries\":{},\"reference_ns\":{},\"current_ns\":{},\"speedup\":{:.3}",
                    r.workload,
                    r.family,
                    r.cells,
                    r.deliveries,
                    r.ref_ns,
                    r.cur_ns,
                    r.ref_ns as f64 / r.cur_ns as f64
                ),
            )
        })
        .collect();
    let summary = format!(
        "{header}\n{note_line}\n{}\n{}\n",
        family_rows.join("\n"),
        cell_rows.join("\n")
    );

    streamsim_bench::write_and_enforce("replay", &summary, speedup);
}
