//! Integration tests for the `streamsim-trace` binary.

use std::process::Command;

use streamsim::{record_miss_trace, run_streams, Access, Addr, RecordOptions, StreamConfig};
use streamsim_trace::io::{read_trace, write_trace};
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

/// An unwritable timeline path fails before the command does any work:
/// `gen` exits 1 naming the path and leaves its trace file unwritten.
#[test]
fn unwritable_trace_out_fails_before_gen_writes() {
    let path = tmp("trace-out-first.sstr");
    std::fs::remove_file(&path).ok();
    let out = trace_tool()
        .env("STREAMSIM_TRACE_OUT", "/nonexistent/dir/t.json")
        .args(["gen", "embar", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot create /nonexistent/dir/t.json:"),
        "{stderr}"
    );
    assert!(
        !path.exists(),
        "gen ran before the timeline path was checked"
    );
}

/// Runs `args` with the timeline at `timeline`: the exit code and
/// stderr.
fn with_timeline(timeline: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = trace_tool()
        .env("STREAMSIM_TRACE_OUT", timeline)
        .args(args)
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

const COLLISION: &str = "error: the trace file and STREAMSIM_TRACE_OUT name the same file";

/// A timeline naming the trace `info` or `replay` reads (here also
/// through an alias of its path and through a hard link) fails without
/// touching the trace.
#[test]
fn a_trace_named_as_the_timeline_stays_intact() {
    let path = tmp("timeline-collision.sstr");
    let refs: Vec<Access> = (0..4096).map(|i| Access::load(Addr::new(i * 8))).collect();
    write_trace(std::fs::File::create(&path).unwrap(), &refs).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let text = path.to_str().unwrap();
    let alias = text.replace("timeline-", "./timeline-");
    let link = text.replace("timeline-", "link-to-timeline-");
    std::fs::remove_file(&link).ok();
    std::fs::hard_link(&path, &link).unwrap();
    let cases: [(&str, &[&str]); 3] = [
        (text, &["info", text]),
        (&alias, &["replay", text, "4"]),
        (&link, &["info", text]),
    ];
    for (timeline, args) in cases {
        let (code, stderr) = with_timeline(timeline, args);
        let intact = std::fs::read(&path).unwrap() == bytes;
        assert!(intact, "{args:?} touched the trace");
        assert_eq!(code, Some(1), "{args:?}");
        assert!(stderr.starts_with(COLLISION), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&link).ok();
}

/// `gen` refuses an output the timeline would overwrite, before writing
/// anything.
#[test]
fn gen_refuses_an_output_named_as_the_timeline() {
    let path = tmp("gen-timeline.sstr");
    std::fs::remove_file(&path).ok();
    let text = path.to_str().unwrap();
    let (code, stderr) = with_timeline(text, &["gen", "embar", text]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with(COLLISION), "{stderr}");
    assert!(!path.exists(), "gen wrote its trace");
}

/// A command-line argument that is not valid UTF-8 is an input error,
/// not a panic.
#[cfg(unix)]
#[test]
fn non_utf8_argument_fails_with_an_error_line() {
    use std::os::unix::ffi::OsStrExt;

    let out = trace_tool()
        .arg("info")
        .arg(std::ffi::OsStr::from_bytes(b"\xff"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
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
fn replay_rejects_addresses_a_miss_event_cannot_hold() {
    // A miss event packs its address into 62 bits: the first address
    // past the bound must fail with an error line, not a panic.
    let path = tmp("wide-address.sstr");
    let refs = [
        Access::load(Addr::new(64)),
        Access::load(Addr::new(1 << 62)),
    ];
    write_trace(std::fs::File::create(&path).unwrap(), &refs).unwrap();
    let path_text = path.to_str().unwrap();
    let out = trace_tool()
        .args(["replay", path_text])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.starts_with(&format!(
            "error: {path_text}: address 0x4000000000000000 is not below 2^62"
        )),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn help_runs() {
    let out = trace_tool().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}
