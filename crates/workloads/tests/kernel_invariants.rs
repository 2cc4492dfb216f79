//! Cross-kernel invariants: every benchmark kernel, at a reduced size,
//! must satisfy the contract the simulators rely on.

use streamsim_trace::{AccessKind, TraceStats};
use streamsim_workloads::collect_trace;

mod common;
use common::small_kernels;

#[test]
fn all_kernels_are_deterministic() {
    for w in small_kernels() {
        assert_eq!(
            collect_trace(w.as_ref()),
            collect_trace(w.as_ref()),
            "{} must be deterministic",
            w.name()
        );
    }
}

/// Determinism regression at the byte level: the *serialized* reference
/// stream of every kernel is identical across two independent
/// generations. This is stronger than comparing `Vec<Access>` — it pins
/// the full trace-encode pipeline, which is what experiments hash and
/// cache on disk, so a PRNG or encoder change can never silently
/// reshuffle a kernel's reference stream.
#[test]
fn all_kernels_emit_byte_identical_reference_streams() {
    use streamsim_trace::io::write_trace;
    for w in small_kernels() {
        let encode = || {
            let mut buf = Vec::new();
            write_trace(&mut buf, &collect_trace(w.as_ref())).unwrap();
            buf
        };
        let first = encode();
        let second = encode();
        assert_eq!(
            first,
            second,
            "{}: serialized reference streams differ between runs",
            w.name()
        );
        assert!(!first.is_empty(), "{}", w.name());
    }
}

#[test]
fn all_kernels_emit_all_reference_kinds() {
    for w in small_kernels() {
        let stats = TraceStats::from_trace(collect_trace(w.as_ref()));
        assert!(stats.count(AccessKind::Load) > 0, "{}", w.name());
        assert!(stats.count(AccessKind::Store) > 0, "{}", w.name());
        assert!(stats.count(AccessKind::IFetch) > 0, "{}", w.name());
    }
}

#[test]
fn data_and_code_segments_never_overlap() {
    for w in small_kernels() {
        let trace = collect_trace(w.as_ref());
        for a in &trace {
            match a.kind {
                AccessKind::IFetch => assert!(
                    a.addr.raw() < 0x1000_0000,
                    "{}: ifetch in the data segment at {}",
                    w.name(),
                    a.addr
                ),
                _ => assert!(
                    a.addr.raw() >= 0x1000_0000,
                    "{}: data reference in the code segment at {}",
                    w.name(),
                    a.addr
                ),
            }
        }
    }
}

#[test]
fn footprint_metadata_is_consistent_with_the_trace() {
    // data_set_bytes is the modelled footprint; the trace's touched data
    // span must be within an order of magnitude of it (the span can be
    // larger because of allocator alignment padding between arrays, or
    // smaller when a size-scaled field dominates the declared footprint).
    for w in small_kernels() {
        let trace = collect_trace(w.as_ref());
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for a in trace.iter().filter(|a| a.kind != AccessKind::IFetch) {
            lo = lo.min(a.addr.raw());
            hi = hi.max(a.addr.raw());
        }
        let span = hi - lo;
        let declared = w.data_set_bytes();
        // Kernels may place arrays in widely separated storage regions
        // (appsp models separate COMMON blocks ~1 GB apart), so the span
        // bound includes that regioning allowance.
        assert!(
            span <= declared.saturating_mul(40) + (1 << 31),
            "{}: span {span} vs declared {declared}",
            w.name()
        );
        assert!(
            span * 40 >= declared.min(span * 40),
            "{}: declared footprint should not dwarf the touched span",
            w.name()
        );
    }
}

#[test]
fn instruction_working_sets_fit_a_small_icache() {
    // The paper's unified streams rely on the 64 KB I-cache absorbing
    // instruction fetches; each kernel's modelled loop body must be tiny.
    for w in small_kernels() {
        let trace = collect_trace(w.as_ref());
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for a in trace.iter().filter(|a| a.kind == AccessKind::IFetch) {
            lo = lo.min(a.addr.raw());
            hi = hi.max(a.addr.raw());
        }
        assert!(
            hi - lo <= 16 * 1024,
            "{}: code region spans {} bytes",
            w.name(),
            hi - lo
        );
    }
}

#[test]
fn store_fractions_are_plausible() {
    // Scientific codes store between ~5% and ~60% of their data refs.
    for w in small_kernels() {
        let stats = TraceStats::from_trace(collect_trace(w.as_ref()));
        let f = stats.store_fraction();
        assert!((0.01..0.8).contains(&f), "{}: store fraction {f}", w.name());
    }
}
