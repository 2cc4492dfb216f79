//! Bridge between recorded miss traces and the analytical models in
//! `streamsim-model`.
//!
//! The model crate is deliberately ignorant of simulator types — it
//! consumes raw block/word indices and returns plain estimates. This
//! module does the translation in both directions: a [`MissTrace`] is
//! walked once into a [`LocalityProfile`] ([`profile_trace`]), and the
//! simulator's [`StreamConfig`] / [`CacheConfig`] are mapped onto the
//! model's geometry types ([`stream_geometry`], [`l2_geometry`]).
//!
//! Not every simulator configuration is modelled: the profile is taken
//! at the trace's own L1 block and the default word size, which must be
//! the stream systems' fixed 32-byte block and 4-byte word, and the
//! predictors only understand the paper's head-only match policy and
//! its three allocation policies. [`stream_geometry`] returns `None`
//! for anything else, and callers fall back to simulation for those
//! cells — the model prunes work, it never silently mis-scores a
//! configuration it cannot represent.

use streamsim_cache::CacheConfig;
use streamsim_model::{
    profile_events, AllocModel, L2Geometry, LocalityProfile, ProfileEvent, StreamGeometry,
};
use streamsim_streams::{Allocation, MatchPolicy, StreamConfig};
use streamsim_trace::{BlockSize, WordSize};

use crate::{Miss, MissTrace};

/// Builds `trace`'s locality profile in one pass over the events.
///
/// The profile is taken at the trace's L1 block granularity with the
/// default word size (the granularities every paper sweep uses), and
/// carries the recorded L1's exact reference/miss counts.
pub fn profile_trace(trace: &MissTrace) -> LocalityProfile {
    let mut span = streamsim_obs::span("locality");
    span.items(trace.events().len() as u64);
    let block = trace.l1_block();
    let word = WordSize::default();
    let events = trace
        .events()
        .iter()
        .map(move |event| match event.decode() {
            Miss::Fetch { addr, .. } => ProfileEvent::Fetch {
                block: addr.block(block).index(),
                word: addr.word(word).index(),
            },
            Miss::Writeback { base } => ProfileEvent::Writeback {
                block: base.block(block).index(),
            },
        });
    let mut profile = profile_events(block.bytes(), word.bytes(), events);
    profile.l1_refs = trace.l1().refs();
    profile.l1_misses = trace.l1().misses();
    profile
}

/// Maps a simulator stream configuration onto the model's geometry, or
/// `None` if the cell is outside the modelled space (a profile whose
/// block or word differs from the stream systems' fixed 32-byte block
/// and 4-byte word, a non-head-only match policy, or the min-delta
/// ablation allocator).
pub fn stream_geometry(profile: &LocalityProfile, config: &StreamConfig) -> Option<StreamGeometry> {
    if profile.l1_block_bytes != BlockSize::default().bytes()
        || profile.word_bytes != WordSize::default().bytes()
        || config.match_policy() != MatchPolicy::HeadOnly
    {
        return None;
    }
    let alloc = match config.allocation() {
        Allocation::OnMiss => AllocModel::OnMiss,
        Allocation::UnitFilter { entries } => AllocModel::UnitFilter { entries },
        Allocation::UnitAndStrideFilters {
            unit_entries,
            czone_bits,
            ..
        } => AllocModel::UnitStride {
            entries: unit_entries,
            czone_bits,
        },
        _ => return None,
    };
    Some(StreamGeometry {
        num_streams: config.num_streams(),
        depth: config.depth(),
        alloc,
    })
}

/// Maps a secondary-cache configuration onto the model's geometry.
///
/// The model assumes LRU replacement (the simulator's secondary-cache
/// default); other replacement policies are approximated by the same
/// curve.
pub fn l2_geometry(config: &CacheConfig) -> L2Geometry {
    L2Geometry {
        bytes: config.size_bytes(),
        assoc: config.assoc() as u64,
        block_bytes: config.block().bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_miss_trace, RecordOptions};
    use streamsim_model::predict_streams;
    use streamsim_trace::BlockSize;
    use streamsim_workloads::generators::SequentialSweep;

    fn trace() -> MissTrace {
        let w = SequentialSweep {
            arrays: 2,
            bytes_per_array: 128 * 1024,
            passes: 2,
            elem: 8,
        };
        record_miss_trace(&w, &RecordOptions::default()).unwrap()
    }

    #[test]
    fn profile_counts_match_the_trace() {
        let t = trace();
        let p = profile_trace(&t);
        assert_eq!(p.events, t.events().len() as u64);
        assert_eq!(p.fetches, t.fetches());
        assert_eq!(p.writebacks, t.writebacks());
        assert_eq!(p.l1_block_bytes, t.l1_block().bytes());
        assert_eq!(p.l1_refs, t.l1().refs());
        assert_eq!(p.l1_misses, t.l1().misses());
        assert!((p.l1_miss_rate() - t.l1().misses() as f64 / t.l1().refs() as f64).abs() < 1e-12);
    }

    #[test]
    fn sequential_sweep_predicts_high_stream_hit_rate() {
        let t = trace();
        let p = profile_trace(&t);
        let config = StreamConfig::paper_basic(4).unwrap();
        let geom = stream_geometry(&p, &config).unwrap();
        let est = predict_streams(&p, geom);
        let measured = crate::run_streams(&t, config).hit_rate();
        assert!(
            (est.hit_rate - measured).abs() < 0.05,
            "model {est:?} vs measured {measured}"
        );
    }

    #[test]
    fn unmodelled_configurations_are_rejected() {
        let p = profile_trace(&trace());
        let any_entry = StreamConfig::paper_basic(4)
            .unwrap()
            .with_match_policy(MatchPolicy::AnyEntry);
        assert!(stream_geometry(&p, &any_entry).is_none());
        let basic = StreamConfig::paper_basic(4).unwrap();
        let wide_l1 = LocalityProfile {
            l1_block_bytes: 64,
            ..p.clone()
        };
        assert!(stream_geometry(&wide_l1, &basic).is_none());
        let min_delta = StreamConfig::new(
            4,
            2,
            Allocation::MinDelta {
                entries: 16,
                max_stride_words: 64,
            },
        )
        .unwrap();
        assert!(stream_geometry(&p, &min_delta).is_none());
    }

    #[test]
    fn geometry_mapping_preserves_parameters() {
        let p = profile_trace(&trace());
        let strided = StreamConfig::paper_strided(6, 14).unwrap();
        let geom = stream_geometry(&p, &strided).unwrap();
        assert_eq!(geom.num_streams, 6);
        assert_eq!(geom.depth, strided.depth());
        assert_eq!(
            geom.alloc,
            AllocModel::UnitStride {
                entries: 16,
                czone_bits: 14
            }
        );
        let cache = CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap();
        let l2 = l2_geometry(&cache);
        assert_eq!(l2.bytes, 1 << 20);
        assert_eq!(l2.assoc, 2);
        assert_eq!(l2.block_bytes, 64);
    }
}
