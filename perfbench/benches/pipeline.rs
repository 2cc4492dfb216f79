//! One run of one benchmark workload, driven by `perfbench/run.py`.
//!
//! Each invocation is a fresh process with a cold `TraceStore`. It runs
//! the workload's pipeline through the library's public API on the
//! production thread pool, `ExecutorHandle::threads(n)` with `n` the
//! machine's available parallelism, and computes what
//! `streamsim-report` computes for the same arguments: the fifteen
//! Table 1 miss traces are recorded first (the set-up), then every
//! artifact of the workload runs on the shared store and is rendered as
//! text and as JSONL rows.
//!
//! ```text
//! pipeline --workload <name> --mode <timed|info|traced> --out <rows.jsonl>
//!          [--spans <spans.jsonl>] [--accuracy <rows.jsonl>] [--setup-reps <n>]
//! ```
//!
//! * `timed` forces observability off, whatever `STREAMSIM_LOG` says,
//!   and reports set-up seconds, pipeline seconds, CPU seconds and peak
//!   RSS over the pipeline. With `--setup-reps n` it then repeats the
//!   set-up on `n - 1` more cold stores and reports every set-up time.
//! * `info` runs the same pipeline with `streamsim_obs` at
//!   `Level::Info`, so its wall time against `timed` is the cost of the
//!   in-program counters, histograms and spans.
//! * `traced` keeps observability off and records spans in this file
//!   around every public call of the pipeline, then times each layer's
//!   entry point alone, on one thread, over the workload's own traces
//!   and replay families.
//!
//! The artifact rows go to `--out` for the golden check, which `run.py`
//! makes with `streamsim-report --diff` after this process exits. The
//! last stdout line is one JSON object with the run's numbers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use streamsim::experiments::{
    self, ablations, fig3, fig9, sweep, table4, traffic, ExperimentOptions, Scale,
};
use streamsim::{
    parse_flat_json_line, render_json_lines, render_text, replay_l2, replay_streams,
    stream_geometry, Allocation, BlockSize, CacheConfig, ExecutorHandle, JsonValue, MissEvent,
    MissTrace, SetSampling, StreamConfig, TraceStore, Workload,
};
use streamsim_cache::TwoLevel;
use streamsim_model::{keep_with_band, predict_streams, Objectives};
use streamsim_obs::Level;

/// What one workload runs.
struct Spec {
    scale: Scale,
    sampling: Option<(u64, u64)>,
    prescreen: bool,
    artifacts: Vec<&'static str>,
}

/// The benchmark's workloads; `perfbench/README.md` says why each is
/// there.
fn spec(name: &str) -> Option<Spec> {
    let report = experiments::default_artifacts();
    match name {
        "report-paper" => Some(Spec {
            scale: Scale::Paper,
            sampling: None,
            prescreen: false,
            artifacts: report,
        }),
        "report-sampled" => Some(Spec {
            scale: Scale::Paper,
            sampling: Some((10_000, 90_000)),
            prescreen: false,
            artifacts: report,
        }),
        "sweep-prescreen" => Some(Spec {
            scale: Scale::Quick,
            sampling: None,
            prescreen: true,
            artifacts: vec!["sweep"],
        }),
        _ => None,
    }
}

fn options_for(spec: &Spec, threads: usize) -> ExperimentOptions {
    ExperimentOptions {
        scale: spec.scale,
        sampling: spec.sampling,
        prescreen: spec.prescreen,
        ..ExperimentOptions::default()
    }
    .with_executor(ExecutorHandle::threads(threads))
}

/// One closed span: name, start and end in seconds since the tracer's
/// origin, and the span that caused it.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start: f64,
    end: f64,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so calls it
    /// makes can name it as their parent. Returns `f`'s result and the
    /// span's duration in seconds.
    fn span<R>(
        &self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let result = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span log lock").push(Span {
            id,
            parent,
            name: name.into(),
            start,
            end,
        });
        (result, end - start)
    }

    /// Seconds of `span` not covered by its children (overlapping
    /// children, such as parallel recordings, count once).
    fn self_seconds(spans: &[Span], span: &Span) -> f64 {
        let mut children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(|s| (s.start, s.end))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end - span.start) - covered
    }

    fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log lock");
        let mut out = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{}}}\n",
                s.id,
                s.name,
                s.start,
                s.end,
                Self::self_seconds(&spans, s)
            ));
        }
        std::fs::write(path, out)
    }
}

/// Runs `f`, inside a span when tracing.
fn traced<R>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    match tracer {
        Some(t) => t.span(name, None, |_| f()),
        None => {
            let start = Instant::now();
            let result = f();
            (result, start.elapsed().as_secs_f64())
        }
    }
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 1..]
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// What one pass of the pipeline produced.
struct Pipeline {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    rows: Vec<String>,
    artifact_s: Vec<(&'static str, f64)>,
    render_s: f64,
    panicked: Vec<&'static str>,
}

/// Set-up, then every artifact run on the warm store and rendered as
/// text and JSONL. The clock stops after the last render; a driver that
/// panics leaves its rows out, so the golden check fails all of them.
fn run_pipeline(spec: &Spec, options: &ExperimentOptions, tracer: Option<&Tracer>) -> Pipeline {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    match tracer {
        None => {
            black_box(experiments::miss_traces(options));
        }
        Some(t) => {
            // `miss_traces` is `prefill_on` over the Table 1 workloads:
            // one `TraceStore::record` per workload on the executor.
            // Spelled out here so each recording gets a child span.
            t.span("setup", None, |setup| {
                let workloads = experiments::workload_set(options.scale);
                let record = options.record_options();
                let refs: Vec<&dyn Workload> = workloads.iter().map(Box::as_ref).collect();
                black_box(options.parallel_map(refs, |w: &dyn Workload| {
                    t.span(
                        format!("trace_store.record.{}", w.name()),
                        Some(setup),
                        |_| {
                            options
                                .store
                                .record(w, &record)
                                .expect("paper L1 configuration is valid")
                        },
                    )
                    .0
                }));
            });
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    let mut rows = Vec::new();
    let mut artifact_s = Vec::new();
    let mut render_s = 0.0;
    let mut panicked = Vec::new();
    for &name in &spec.artifacts {
        let (artifact, secs) = traced(tracer, &format!("experiments.{name}"), || {
            catch_unwind(AssertUnwindSafe(|| {
                experiments::run_artifact(name, options).expect("known artifact name")
            }))
        });
        artifact_s.push((name, secs));
        let Ok(artifact) = artifact else {
            panicked.push(name);
            continue;
        };
        let ((text, lines), secs) = traced(tracer, &format!("sink.render.{name}"), || {
            (
                render_text(artifact.as_ref()),
                render_json_lines(artifact.as_ref()),
            )
        });
        render_s += secs;
        black_box(text);
        rows.extend(lines);
    }
    let wall_s = start.elapsed().as_secs_f64();
    Pipeline {
        setup_s,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        peak_rss_mib: peak_rss_mib(),
        rows,
        artifact_s,
        render_s,
        panicked,
    }
}

/// The stream families the report replays, by layer metric name.
fn stream_families() -> Vec<(&'static str, Vec<StreamConfig>)> {
    let fig3 = fig3::STREAM_COUNTS
        .iter()
        .map(|&n| StreamConfig::paper_basic(n).expect("valid stream count"))
        .collect();
    let filter = ablations::FILTER_SIZES
        .iter()
        .map(|&entries| {
            StreamConfig::new(10, 2, Allocation::UnitFilter { entries }).expect("valid filter")
        })
        .collect();
    let czone = fig9::CZONE_BITS
        .iter()
        .map(|&bits| StreamConfig::paper_strided(10, bits).expect("valid czone"))
        .collect();
    vec![("fig3", fig3), ("filter", filter), ("czone", czone)]
}

/// The L2 cells the report replays: Table 4's capacity x associativity
/// grid at the trace's block size, and the traffic study's 1 MB L2.
fn l2_cells(block: BlockSize) -> Vec<(CacheConfig, Option<SetSampling>)> {
    let mut cells: Vec<(CacheConfig, Option<SetSampling>)> = table4::L2_SIZES
        .iter()
        .flat_map(|&cap| [1u32, 2, 4].map(|assoc| (cap, assoc)))
        .filter_map(|(cap, assoc)| Some((CacheConfig::secondary(cap, assoc, block).ok()?, None)))
        .collect();
    cells.push((
        CacheConfig::new(traffic::L2_BYTES, 2, BlockSize::default()).expect("valid L2"),
        None,
    ));
    cells
}

/// The Table 1 kernels whose traces the layer phase replays: one per
/// access pattern (stencil, sparse, butterfly, random scatter, strided
/// block solver, particle). Replaying all fifteen at paper scale would
/// take over a minute per traced run.
const REPLAY_KERNELS: [&str; 6] = ["mgrid", "cgm", "fftpde", "is", "appbt", "mdg"];

/// Counts that a run without layer timing can also derive, from the
/// Table 1 traces in its store and the survivors its sweep reported.
/// The traced run must produce the same values.
fn pipeline_counts(
    spec: &Spec,
    options: &ExperimentOptions,
    rows: &[String],
) -> Vec<(String, f64)> {
    let traces = experiments::miss_traces(options);
    let events: u64 = traces.iter().map(|(_, t)| t.events().len() as u64).sum();
    let replayed: u64 = traces
        .iter()
        .filter(|(name, _)| REPLAY_KERNELS.contains(&name.as_str()))
        .map(|(_, t)| t.events().len() as u64 * l2_cells(t.l1_block()).len() as u64)
        .sum();
    let mut counts = vec![
        ("miss_trace.events".to_owned(), events as f64),
        ("cache.l2_deliveries".to_owned(), replayed as f64),
    ];
    if spec.sampling.is_none() {
        // Unsampled, the L1 sees every generated reference.
        let refs: u64 = traces.iter().map(|(_, t)| t.l1().refs()).sum();
        counts.push(("workloads.refs".to_owned(), refs as f64));
    }
    let marker = rows.iter().find_map(|line| {
        let fields = parse_flat_json_line(line).ok()?;
        let num = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                JsonValue::Num(n) if k == key => Some(*n),
                _ => None,
            })
        };
        Some((num("cells_simulated")?, num("cells_total")?))
    });
    if let Some((simulated, total)) = marker {
        let configs: u64 = stream_families()
            .iter()
            .map(|(_, c)| c.len() as u64)
            .sum::<u64>()
            + simulated as u64;
        let replayed: u64 = traces
            .iter()
            .filter(|(name, _)| REPLAY_KERNELS.contains(&name.as_str()))
            .map(|(_, t)| t.events().len() as u64 * configs)
            .sum();
        counts.push(("streams.deliveries".to_owned(), replayed as f64));
        counts.push(("model.survivor_frac".to_owned(), simulated / total));
    }
    counts
}

/// Work done by one layer entry point and the seconds it took.
#[derive(Default)]
struct Rate {
    work: u64,
    secs: f64,
}

impl Rate {
    fn add(&mut self, work: u64, secs: f64) {
        self.work += work;
        self.secs += secs;
    }

    /// Work per second, in units of `unit`.
    fn per_s(&self, unit: f64) -> f64 {
        self.work as f64 / self.secs.max(1e-9) / unit
    }
}

/// Each layer's entry point timed alone, serially on this thread, on
/// the workload's own inputs. Over all fifteen Table 1 workloads:
/// generation (chunked and closure), recording through
/// `TraceStore::record`, the coupled `TwoLevel` hierarchy, the model's
/// profile pass (`TraceStore::profiles_on`) and `predict_streams` over
/// the sweep grid, which picks the survivors as the pre-screened sweep
/// does. Over the [`REPLAY_KERNELS`] traces: the report's stream
/// families and L2 cells (`replay_streams`, `replay_l2`), then the
/// survivors as one fused family.
fn layer_phase(spec: &Spec, tracer: &Tracer, metrics: &mut Vec<(String, f64)>) {
    let record = options_for(spec, 1).record_options();
    let store = TraceStore::new();
    let workloads = experiments::workload_set(spec.scale);
    let families = stream_families();
    let grid = sweep::cells();
    let one = ExecutorHandle::threads(1);
    const MEGA: f64 = 1e6;

    let mut chunks = Rate::default();
    let mut closure = Rate::default();
    let mut recording = Rate::default();
    let mut l1 = Rate::default();
    let mut l1_misses = 0u64;
    let mut events = 0u64;
    let mut hierarchy = Rate::default();
    let mut profiling = Rate::default();
    let mut predicting = Rate::default();
    let mut family_rates: Vec<Rate> = families.iter().map(|_| Rate::default()).collect();
    let mut l2 = Rate::default();
    let mut sweeping = Rate::default();
    // Per workload, each grid cell's predicted (hit, eb).
    let mut predicted: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut replayed: Vec<(usize, Arc<MissTrace>)> = Vec::new();
    let mut batch = Vec::new();

    tracer.span("layers", None, |layers| {
        for (index, w) in workloads.iter().enumerate() {
            let name = w.name();
            let span = |layer: &str| format!("{layer}.{name}");
            let (refs, chunk_secs) =
                tracer.span(span("workloads.generate_chunks"), Some(layers), |_| {
                    let mut n = 0u64;
                    w.generate_chunks(&mut batch, &mut |chunk| n += black_box(chunk).len() as u64);
                    n
                });
            chunks.add(refs, chunk_secs);
            let (n, secs) = tracer.span(span("workloads.generate"), Some(layers), |_| {
                let mut n = 0u64;
                w.generate(&mut |access| {
                    black_box(access);
                    n += 1;
                });
                n
            });
            closure.add(n, secs);

            let (trace, secs) = tracer.span(span("trace_store.record"), Some(layers), |_| {
                store
                    .record(w.as_ref(), &record)
                    .expect("paper L1 configuration is valid")
            });
            recording.add(refs, secs);
            // The L1's self time: recording minus the generation inside it.
            l1.add(trace.l1().refs(), (secs - chunk_secs).max(0.0));
            l1_misses += trace.l1().misses();
            events += trace.events().len() as u64;

            // The coupled hierarchy over the full reference stream, as
            // the cpi driver runs it.
            let (n, secs) = tracer.span(span("cache.two_level"), Some(layers), |_| {
                let l2 =
                    CacheConfig::new(traffic::L2_BYTES, 2, BlockSize::default()).expect("valid L2");
                let mut system =
                    TwoLevel::new(record.icache, record.dcache, l2).expect("valid hierarchy");
                let mut n = 0u64;
                w.generate(&mut |access| {
                    system.access(access);
                    n += 1;
                });
                black_box(system.memory_traffic_bytes());
                n
            });
            hierarchy.add(n, secs);

            let (profiles, secs) = tracer.span(span("model.profiles_on"), Some(layers), |_| {
                store
                    .profiles_on(std::slice::from_ref(w), &record, one.executor())
                    .expect("paper L1 configuration is valid")
            });
            profiling.add(trace.events().len() as u64, secs);
            let profile = &profiles[0];
            let (cells, secs) = tracer.span(span("model.predict_streams"), Some(layers), |_| {
                grid.iter()
                    .map(|cell| {
                        let geom = stream_geometry(profile, &cell.config)
                            .expect("every sweep cell is modelled");
                        let estimate = predict_streams(profile, geom);
                        (estimate.hit_rate, estimate.extra_bandwidth)
                    })
                    .collect::<Vec<_>>()
            });
            predicting.add(cells.len() as u64, secs);
            predicted.push(cells);
            if REPLAY_KERNELS.contains(&name) {
                replayed.push((index, trace));
            }
        }

        let mean = |over: &[usize]| -> Vec<Objectives> {
            let n = over.len().max(1) as f64;
            (0..grid.len())
                .map(|c| Objectives {
                    hit: over.iter().map(|&w| predicted[w][c].0).sum::<f64>() / n,
                    eb: over.iter().map(|&w| predicted[w][c].1).sum::<f64>() / n,
                })
                .collect()
        };
        let all: Vec<usize> = (0..workloads.len()).collect();
        let keep = keep_with_band(&mean(&all), sweep::PRESCREEN_BAND);
        let survivors: Vec<usize> = (0..grid.len()).filter(|&c| keep[c]).collect();
        let configs: Vec<StreamConfig> = survivors.iter().map(|&c| grid[c].config).collect();

        let mut simulated = vec![0.0; configs.len()];
        for (index, trace) in &replayed {
            let span = |layer: &str| format!("{layer}.{}", workloads[*index].name());
            let events = trace.events().len() as u64;
            for ((family, family_configs), rate) in families.iter().zip(&mut family_rates) {
                let (stats, secs) =
                    tracer.span(span(&format!("replay.{family}")), Some(layers), |_| {
                        replay_streams(trace, family_configs)
                    });
                black_box(stats);
                rate.add(events * family_configs.len() as u64, secs);
            }
            let cells = l2_cells(trace.l1_block());
            let (stats, secs) = tracer.span(span("replay.l2"), Some(layers), |_| {
                replay_l2(trace, &cells).expect("valid L2 cells")
            });
            black_box(stats);
            l2.add(events * cells.len() as u64, secs);
            let (stats, secs) = tracer.span(span("replay.sweep"), Some(layers), |_| {
                replay_streams(trace, &configs)
            });
            sweeping.add(events * configs.len() as u64, secs);
            for (sum, s) in simulated.iter_mut().zip(&stats) {
                *sum += s.hit_rate() / replayed.len() as f64;
            }
        }
        // The model's error on the survivors, predicted and simulated
        // over the same traces.
        let on_replayed = mean(&replayed.iter().map(|(w, _)| *w).collect::<Vec<_>>());
        let err_pts = survivors
            .iter()
            .zip(&simulated)
            .map(|(&c, sim)| (on_replayed[c].hit - sim).abs() * 100.0)
            .sum::<f64>()
            / survivors.len().max(1) as f64;

        let m = &mut *metrics;
        m.push(("workloads.refs".into(), chunks.work as f64));
        m.push((
            "workloads.gen_chunks_mrefs_per_s".into(),
            chunks.per_s(MEGA),
        ));
        m.push((
            "workloads.gen_closure_mrefs_per_s".into(),
            closure.per_s(MEGA),
        ));
        m.push(("cache.l1_mrefs_per_s".into(), l1.per_s(MEGA)));
        m.push((
            "cache.l1_miss_ratio".into(),
            l1_misses as f64 / l1.work.max(1) as f64,
        ));
        m.push(("miss_trace.mrefs_per_s".into(), recording.per_s(MEGA)));
        m.push(("miss_trace.events".into(), events as f64));
        m.push((
            "trace_store.setup_event_mib".into(),
            (events * std::mem::size_of::<MissEvent>() as u64) as f64 / (1u64 << 20) as f64,
        ));
        for ((family, _), rate) in families.iter().zip(&family_rates) {
            m.push((format!("streams.{family}_mdlv_per_s"), rate.per_s(MEGA)));
        }
        m.push(("streams.sweep_mdlv_per_s".into(), sweeping.per_s(MEGA)));
        m.push((
            "streams.deliveries".into(),
            (family_rates.iter().map(|r| r.work).sum::<u64>() + sweeping.work) as f64,
        ));
        m.push(("cache.l2_mdlv_per_s".into(), l2.per_s(MEGA)));
        m.push(("cache.l2_deliveries".into(), l2.work as f64));
        m.push(("cache.hierarchy_mrefs_per_s".into(), hierarchy.per_s(MEGA)));
        m.push(("model.profile_mevents_per_s".into(), profiling.per_s(MEGA)));
        m.push(("model.predict_kcells_per_s".into(), predicting.per_s(1e3)));
        m.push((
            "model.survivor_frac".into(),
            configs.len() as f64 / grid.len() as f64,
        ));
        m.push(("model.err_pts".into(), err_pts));
    });
}

fn json_object(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn write_rows(path: &str, rows: &[String]) -> Result<(), String> {
    let mut text = rows.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

struct Args {
    workload: String,
    mode: String,
    out: String,
    spans: Option<String>,
    accuracy: Option<String>,
    setup_reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--mode" | "--out" | "--spans" | "--accuracy" | "--setup-reps"
        ) {
            // `cargo bench` passes `--bench`; anything else is a mistake.
            if flag == "--bench" {
                continue;
            }
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |key: &str| flags.remove(key);
    Ok(Args {
        workload: take("--workload").ok_or("--workload is required")?,
        mode: take("--mode").unwrap_or_else(|| "timed".to_owned()),
        out: take("--out").ok_or("--out is required")?,
        spans: take("--spans"),
        accuracy: take("--accuracy"),
        setup_reps: match take("--setup-reps") {
            Some(n) => n.parse().map_err(|_| format!("bad --setup-reps '{n}'"))?,
            None => 1,
        },
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let spec =
        spec(&args.workload).ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    streamsim_obs::set_level(match args.mode.as_str() {
        "timed" | "traced" => Level::Off,
        "info" => Level::Info,
        other => return Err(format!("unknown mode '{other}'")),
    });
    let tracer = (args.mode == "traced").then(Tracer::new);
    let options = options_for(&spec, threads);
    let run = run_pipeline(&spec, &options, tracer.as_ref());
    write_rows(&args.out, &run.rows)?;

    let mut metrics: Vec<(String, f64)> = vec![
        ("setup_s".into(), run.setup_s),
        ("wall_s".into(), run.wall_s),
        ("cpu_s".into(), run.cpu_s),
        ("peak_rss_mib".into(), run.peak_rss_mib),
        ("sink.rows".into(), run.rows.len() as f64),
        ("sink.render_s".into(), run.render_s),
        ("trace_store.traces".into(), options.store.len() as f64),
        (
            "trace_store.useful_record_frac".into(),
            options.store.len() as f64 / options.store.misses().max(1) as f64,
        ),
    ];
    let counts = pipeline_counts(&spec, &options, &run.rows);
    if let Some(path) = &args.accuracy {
        if !spec.artifacts.contains(&"scorecard") {
            // The paper comparison for a workload whose artifacts hold
            // none: the scorecard on the same warm store, untimed.
            let card =
                experiments::run_artifact("scorecard", &options).expect("known artifact name");
            write_rows(path, &render_json_lines(card.as_ref()))?;
        }
    }
    drop(options);

    // More cold set-ups, after the pipeline's peak RSS was read, so the
    // reported set-up time is a median rather than one sample.
    let mut setup_samples = vec![run.setup_s];
    for _ in 1..args.setup_reps {
        let fresh = options_for(&spec, threads);
        let start = Instant::now();
        black_box(experiments::miss_traces(&fresh));
        setup_samples.push(start.elapsed().as_secs_f64());
    }

    if let Some(tracer) = &tracer {
        layer_phase(&spec, tracer, &mut metrics);
        let spans = tracer.spans.lock().expect("span log lock");
        let top: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name != "layers")
            .map(|s| s.end - s.start)
            .sum();
        metrics.push(("harness.top_span_s".into(), top));
        drop(spans);
        if let Some(path) = &args.spans {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }

    let artifact_s: Vec<(String, f64)> = run
        .artifact_s
        .iter()
        .map(|(name, secs)| ((*name).to_owned(), *secs))
        .collect();
    let panicked: Vec<String> = run.panicked.iter().map(|n| format!("\"{n}\"")).collect();
    let setup_samples: Vec<String> = setup_samples.iter().map(f64::to_string).collect();
    println!(
        "{{\"workload\":\"{}\",\"mode\":\"{}\",\"threads\":{threads},\"metrics\":{},\"counts\":{},\"artifact_s\":{},\"setup_samples\":[{}],\"panicked\":[{}]}}",
        args.workload,
        args.mode,
        json_object(&metrics),
        json_object(&counts),
        json_object(&artifact_s),
        setup_samples.join(","),
        panicked.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
