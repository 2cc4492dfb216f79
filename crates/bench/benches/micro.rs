//! Micro-benchmarks: throughput of each simulator component.
//!
//! These measure the simulator itself (accesses per second), not the
//! modelled hardware — useful to keep the experiment harness fast enough
//! to sweep the paper's parameter space. Timed by the in-tree
//! `streamsim_bench::timing` harness (warmup + median-of-N wall clock,
//! one JSON line per benchmark for regression tracking).

use streamsim_bench::timing;
use streamsim_cache::{CacheConfig, SetAssocCache, SplitL1};
use streamsim_core::{record_miss_trace, run_streams, RecordOptions};
use streamsim_streams::{CzoneFilter, StreamConfig, StreamSystem};
use streamsim_trace::io::{read_trace, write_trace};
use streamsim_trace::{Access, Addr, WordAddr};
use streamsim_workloads::generators::{RandomGather, SequentialSweep};
use streamsim_workloads::{collect_trace, Workload};

const N: u64 = 100_000;

fn bench_l1() {
    let trace: Vec<Access> = collect_trace(&SequentialSweep {
        arrays: 2,
        bytes_per_array: 256 * 1024,
        passes: 1,
        elem: 8,
    });
    let mut group = timing::group("l1");
    group.throughput(trace.len() as u64);
    group.bench_function("split_l1_sequential", || {
        let mut l1 = SplitL1::paper().expect("valid");
        for &a in &trace {
            std::hint::black_box(l1.access(a));
        }
        l1.combined_stats().misses()
    });
    group.finish();
}

fn bench_cache_random() {
    let trace: Vec<Access> = collect_trace(&RandomGather {
        footprint: 1 << 20,
        count: N,
        seed: 3,
    });
    let mut group = timing::group("cache");
    group.throughput(trace.len() as u64);
    group.bench_function("set_assoc_random_refs", || {
        let mut cache = SetAssocCache::new(CacheConfig::paper_l1().expect("valid")).expect("valid");
        for &a in &trace {
            std::hint::black_box(cache.access(a.addr, a.kind));
        }
        cache.stats().misses()
    });
    group.finish();
}

fn bench_streams() {
    let mut group = timing::group("streams");
    group.throughput(N);

    group.bench_function("unit_stream_hits", || {
        let mut sys = StreamSystem::new(StreamConfig::paper_basic(10).expect("valid"));
        for i in 0..N {
            std::hint::black_box(sys.on_l1_miss(Addr::new(i * 32)));
        }
        sys.stats().hits
    });

    group.bench_function("filtered_random_misses", || {
        // Worst case for the lookup path: every miss scans all buffers
        // and the filter.
        let mut sys = StreamSystem::new(StreamConfig::paper_filtered(10).expect("valid"));
        for i in 0..N {
            let addr = Addr::new((i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 0xFFFF_FFE0);
            std::hint::black_box(sys.on_l1_miss(addr));
        }
        sys.stats().misses()
    });

    group.bench_function("czone_strided_misses", || {
        let mut sys = StreamSystem::new(StreamConfig::paper_strided(10, 16).expect("valid"));
        for i in 0..N {
            std::hint::black_box(sys.on_l1_miss(Addr::new(0x100000 + i * 4096)));
        }
        sys.stats().hits
    });
    group.finish();
}

fn bench_pipeline() {
    let workload = SequentialSweep {
        arrays: 4,
        bytes_per_array: 256 * 1024,
        passes: 1,
        elem: 8,
    };
    let refs = {
        let mut count = 0u64;
        workload.generate(&mut |_| count += 1);
        count
    };
    let mut group = timing::group("pipeline");
    group.sample_size(7);
    group.throughput(refs);
    group.bench_function("record_and_replay", || {
        let trace = record_miss_trace(&workload, &RecordOptions::default()).expect("valid");
        run_streams(&trace, StreamConfig::paper_filtered(10).expect("valid")).hits
    });
    group.finish();
}

fn bench_filters() {
    let mut group = timing::group("filters");
    group.throughput(N);
    group.bench_function("czone_lookup_mixed", || {
        // A mixture of strided and scattered word addresses.
        let mut filter = CzoneFilter::new(16, 16);
        let mut detections = 0u64;
        for i in 0..N {
            let w = if i % 3 == 0 {
                WordAddr::from_index(0x10_0000 + i * 256)
            } else {
                WordAddr::from_index((i.wrapping_mul(0x9E37_79B9)) & 0xF_FFFF)
            };
            if std::hint::black_box(filter.lookup(w)).is_some() {
                detections += 1;
            }
        }
        detections
    });
    group.finish();
}

fn bench_trace_io() {
    let trace: Vec<Access> = (0..N)
        .map(|i| Access::load(Addr::new(0x1000_0000 + i * 8)))
        .collect();
    let mut group = timing::group("trace_io");
    group.throughput(N);
    group.bench_function("write_compressed", || {
        let mut buf = Vec::with_capacity(N as usize * 3);
        write_trace(&mut buf, &trace).expect("in-memory write");
        buf.len()
    });
    let mut encoded = Vec::new();
    write_trace(&mut encoded, &trace).expect("in-memory write");
    group.bench_function("read_compressed", || {
        read_trace(&encoded[..]).expect("valid").len()
    });
    group.finish();
}

fn main() {
    bench_l1();
    bench_cache_random();
    bench_streams();
    bench_filters();
    bench_trace_io();
    bench_pipeline();
}
