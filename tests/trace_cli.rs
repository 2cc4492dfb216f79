//! Integration tests for the `streamsim-trace` binary.

use std::process::Command;

use streamsim::{record_miss_trace, run_streams, RecordOptions, StreamConfig};
use streamsim_trace::io::read_trace;
use streamsim_workloads::combinators::RecordedTrace;

fn trace_tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamsim-trace"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("streamsim-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn list_names_all_benchmarks() {
    let out = trace_tool().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 15);
    assert!(text.contains("fftpde"));
}

#[test]
fn gen_info_replay_round_trip() {
    let path = tmp("mdg.sstr");
    let out = trace_tool()
        .args(["gen", "mdg", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{:?}", out);
    assert!(path.exists());

    let out = trace_tool()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("refs"), "{text}");
    assert!(text.contains("top strides"), "{text}");

    let out = trace_tool()
        .args(["replay", path.to_str().unwrap(), "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();

    // The printed numbers are the library's for the same file: record
    // the stored trace through the paper L1, replay 4 filtered streams.
    let file = std::fs::File::open(&path).unwrap();
    let refs = read_trace(std::io::BufReader::new(file)).unwrap();
    let workload = RecordedTrace::new(path.to_str().unwrap(), refs);
    let trace = record_miss_trace(&workload, &RecordOptions::default()).unwrap();
    let stats = run_streams(&trace, StreamConfig::paper_filtered(4).unwrap());
    let expected = format!(
        "refs {}  L1 misses {}  stream hit {:.1}%  EB {:.1}%",
        trace.l1().refs(),
        trace.l1().misses(),
        stats.hit_rate() * 100.0,
        stats.extra_bandwidth() * 100.0,
    );
    assert_eq!(text.trim_end(), expected);

    std::fs::remove_file(&path).ok();
}

#[test]
fn gen_rejects_unknown_benchmark() {
    let path = tmp("nope.sstr");
    let out = trace_tool()
        .args(["gen", "nope", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn replay_rejects_missing_file() {
    let out = trace_tool()
        .args(["replay", "/nonexistent/trace.sstr"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn replay_rejects_stream_counts_above_the_bound() {
    // The count is checked before the file is opened, so the buffers
    // are never allocated and no trace is needed.
    for n in ["100000000", "18446744073709551615"] {
        let out = trace_tool()
            .args(["replay", "/nonexistent/trace.sstr", n])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{n}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with("error: stream count must be an integer from 1 to 1024"),
            "{n}: {err}"
        );
    }
}

#[test]
fn info_rejects_a_header_claiming_more_records_than_the_file_holds() {
    // A bare 16-byte header claiming 2^40 records must fail cleanly,
    // not abort trying to allocate for the claim.
    let path = tmp("hostile.sstr");
    let mut header = b"SSTR".to_vec();
    header.extend_from_slice(&2u32.to_le_bytes());
    header.extend_from_slice(&(1u64 << 40).to_le_bytes());
    std::fs::write(&path, header).unwrap();
    let out = trace_tool()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("error: "), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn help_runs() {
    let out = trace_tool().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}
