//! Property-based tests for the trace format and the time sampler,
//! on the in-tree `streamsim-quickcheck` harness.

use streamsim_prng::quickcheck::{check, Gen};
use streamsim_prng::{Rng, RngCore};

use streamsim_trace::io::{read_trace, write_trace};
use streamsim_trace::{Access, AccessKind, Addr, ChunkSampler};

fn arbitrary_trace(g: &mut Gen, max_len: usize) -> Vec<Access> {
    g.vec(0..max_len, |g| {
        let addr = g.gen_range(0u64..1 << 62);
        let kind = g.pick(&[AccessKind::Load, AccessKind::Store, AccessKind::IFetch]);
        Access::new(Addr::new(addr), kind)
    })
}

/// The format round-trips any trace, including wild deltas that need
/// full-width varints.
#[test]
fn compressed_round_trips() {
    check("compressed_round_trips", |g| {
        let trace = arbitrary_trace(g, 200);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    });
}

/// Encoded output is never catastrophically large: at most 11 bytes per
/// record (1 kind byte + a 10-byte varint) plus the header.
#[test]
fn compressed_size_is_bounded() {
    check("compressed_size_is_bounded", |g| {
        let trace = arbitrary_trace(g, 200);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert!(buf.len() <= 16 + trace.len() * 11);
    });
}

/// Truncating a trace anywhere after the header yields an error, never
/// a silently short trace.
#[test]
fn truncation_is_detected() {
    check("truncation_is_detected", |g| {
        let trace = arbitrary_trace(g, 100);
        g.assume(!trace.is_empty());
        let cut = g.gen_range(0usize..200);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let cut = 16 + cut % (buf.len() - 16);
        g.assume(cut < buf.len());
        buf.truncate(cut);
        assert!(read_trace(&buf[..]).is_err());
    });
}

/// Bytes shaped like `records` record bodies: mostly valid kind tags,
/// each before a varint of one to eleven bytes (ten is the longest
/// valid one) whose continuation bits are mostly well formed, so that
/// accepted and rejected inputs are both common.
fn hostile_body(g: &mut Gen, records: u64) -> Vec<u8> {
    let mut body = Vec::new();
    for _ in 0..records {
        let tags = if g.gen_bool(0.98) { 3 } else { 256 };
        body.push(g.gen_range(0u32..tags) as u8);
        let longest = if g.gen_bool(0.95) { 9 } else { 11 };
        let len = g.gen_range(1usize..=longest);
        for i in 0..len {
            let byte = g.next_u64() as u8;
            body.push(match (i + 1 == len, g.gen_bool(0.99)) {
                (false, true) => byte | 0x80,
                (true, true) => byte & 0x7f,
                (_, false) => byte,
            });
        }
    }
    body
}

/// `read_trace` never panics on arbitrary input, whether or not it
/// starts with a valid header; any trace it accepts re-encodes and reads
/// back equal.
#[test]
fn arbitrary_bytes_never_panic_the_reader() {
    check("arbitrary_bytes_never_panic_the_reader", |g| {
        let mut bytes = Vec::new();
        if g.gen_bool(0.8) {
            // A valid header whose count usually matches the body.
            let records = g.gen_range(0u64..24);
            let claimed = if g.gen_bool(0.7) {
                records
            } else {
                g.gen_range(0u64..32)
            };
            write_trace(&mut bytes, &[]).unwrap();
            bytes[8..16].copy_from_slice(&claimed.to_le_bytes());
            bytes.extend(hostile_body(g, records));
        } else {
            bytes.extend(g.vec(0usize..64, |g| g.next_u64() as u8));
        }
        if let Ok(trace) = read_trace(&bytes[..]) {
            let mut again = Vec::new();
            write_trace(&mut again, &trace).unwrap();
            assert_eq!(read_trace(&again[..]).unwrap(), trace);
        }
    });
}

/// The sampler keeps exactly the references whose position falls in an
/// "on" window, in order, however the stream is split into chunks.
#[test]
fn sampler_matches_reference_model() {
    check("sampler_matches_reference_model", |g| {
        let trace = arbitrary_trace(g, 150);
        let on = g.gen_range(1u64..20);
        let off = g.gen_range(0u64..20);
        let mut sampler = ChunkSampler::new(on, off);
        let mut sampled = Vec::new();
        let mut rest = &trace[..];
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(g.gen_range(0usize..40).min(rest.len()));
            sampler.sample(chunk, &mut |kept| sampled.extend_from_slice(kept));
            rest = tail;
        }
        let expected: Vec<Access> = trace
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64) % (on + off) < on)
            .map(|(_, &a)| a)
            .collect();
        assert_eq!(sampled, expected);
    });
}
