//! `streamsim-trace` — generate, inspect and replay reference traces.
//!
//! ```text
//! USAGE:
//!   streamsim-trace gen <benchmark> <file>     generate a benchmark trace
//!   streamsim-trace info <file>                print trace statistics
//!   streamsim-trace replay <file> [streams]    run a stored trace through
//!                                              the paper's memory system
//!                                              (default 10 streams, at
//!                                              most 1024)
//!   streamsim-trace list                       list benchmark names
//! ```
//!
//! Traces are stored in the delta-compressed `SSTR` format (see
//! `streamsim_trace::io`), typically 3–6× smaller than eight bytes per
//! reference. A malformed or truncated file fails with an `error:` line
//! and exit status 1, and so does a `replay` of a file holding an
//! address of 2^62 or more, which a recorded miss event cannot hold.
//! A `STREAMSIM_TRACE_OUT` timeline naming the trace file fails the same
//! way before either file is touched.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use streamsim::{
    record_miss_trace, run_streams, MissEvent, RecordOptions, StreamConfig, TraceStats,
};
use streamsim_trace::io::{read_trace, write_trace};
use streamsim_workloads::combinators::RecordedTrace;
use streamsim_workloads::{benchmark, benchmark_names, collect_trace};

mod operands;

/// The largest stream count `replay` accepts. The configuration sweep
/// stops at 16 streams; the bound keeps a mistyped count from
/// allocating gigabytes of stream buffers before the replay starts.
const MAX_STREAMS: usize = 1024;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn cmd_gen(name: &str, path: &str) -> ExitCode {
    let Some(workload) = benchmark(name) else {
        return fail(&format!("unknown benchmark '{name}' (try `list`)"));
    };
    let trace = collect_trace(workload.as_ref());
    let file = match File::create(path) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot create {path}: {e}")),
    };
    if let Err(e) = write_trace(BufWriter::new(file), &trace) {
        return fail(&format!("cannot write {path}: {e}"));
    }
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "{name}: {} references -> {path} ({:.1} MB, {:.1} bits/ref)",
        trace.len(),
        bytes as f64 / (1 << 20) as f64,
        8.0 * bytes as f64 / trace.len().max(1) as f64,
    );
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Vec<streamsim::Access>, ExitCode> {
    let file = File::open(path).map_err(|e| fail(&format!("cannot open {path}: {e}")))?;
    read_trace(BufReader::new(file)).map_err(|e| fail(&format!("cannot read {path}: {e}")))
}

fn cmd_info(path: &str) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let stats = TraceStats::from_trace(trace.iter().copied());
    println!("{stats}");
    println!("top strides (bytes, count):");
    for (stride, count) in stats.strides().top(8) {
        println!("  {stride:>12}  {count}");
    }
    ExitCode::SUCCESS
}

fn cmd_replay(path: &str, streams: usize) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    // A recorded miss event packs its address into 62 bits; reject the
    // file here rather than panic while recording it.
    if let Some(access) = trace.iter().find(|a| a.addr.raw() >= MissEvent::ADDR_LIMIT) {
        return fail(&format!(
            "{path}: address {} is not below 2^62, the bound of a recorded miss event",
            access.addr
        ));
    }
    let workload = RecordedTrace::new(path, trace);
    let config = match StreamConfig::paper_filtered(streams) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let trace = match record_miss_trace(&workload, &RecordOptions::default()) {
        Ok(t) => t,
        Err(e) => return fail(&e.to_string()),
    };
    let stats = run_streams(&trace, config);
    println!(
        "refs {}  L1 misses {}  stream hit {:.1}%  EB {:.1}%",
        trace.l1().refs(),
        trace.l1().misses(),
        stats.hit_rate() * 100.0,
        stats.extra_bandwidth() * 100.0,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = match std::env::args_os()
        .skip(1)
        .map(std::ffi::OsString::into_string)
        .collect()
    {
        Ok(args) => args,
        Err(arg) => {
            return fail(&format!(
                "argument '{}' is not valid UTF-8",
                arg.to_string_lossy()
            ))
        }
    };
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let trace = match args.as_slice() {
        ["gen", _, path] | ["info", path] | ["replay", path] | ["replay", path, _] => Some(*path),
        _ => None,
    };
    // The timeline file is created before the command runs, so an
    // unwritable STREAMSIM_TRACE_OUT fails at once, not after the work;
    // one naming the trace file would truncate it first.
    let timeline = streamsim_obs::trace_out_path();
    if let Err(e) = operands::check_distinct(&[
        ("the trace file", trace),
        ("STREAMSIM_TRACE_OUT", timeline.as_deref()),
    ]) {
        return fail(&e);
    }
    if let Some(path) = &timeline {
        if let Err(e) = File::create(path) {
            return fail(&format!("cannot create {path}: {e}"));
        }
    }
    let code = match args.as_slice() {
        ["gen", name, path] => cmd_gen(name, path),
        ["info", path] => cmd_info(path),
        ["replay", path] => cmd_replay(path, 10),
        ["replay", path, n] => match n.parse() {
            Ok(n) if (1..=MAX_STREAMS).contains(&n) => cmd_replay(path, n),
            _ => fail(&format!(
                "stream count must be an integer from 1 to {MAX_STREAMS}"
            )),
        },
        ["list"] => {
            for name in benchmark_names() {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        ["-h"] | ["--help"] | [] => {
            println!(
                "streamsim-trace: generate, inspect and replay reference traces\n\n\
                 USAGE:\n  streamsim-trace gen <benchmark> <file>\n  \
                 streamsim-trace info <file>\n  streamsim-trace replay <file> [streams]\n  \
                 streamsim-trace list"
            );
            ExitCode::SUCCESS
        }
        _ => fail("unrecognised command (try --help)"),
    };
    // STREAMSIM_TRACE_OUT: flush any collected trace_event timeline.
    match streamsim_obs::flush_trace() {
        None => {}
        Some(Ok((path, events))) => eprintln!("{events} trace events written to {path}"),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}
