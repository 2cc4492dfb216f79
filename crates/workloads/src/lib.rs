//! Synthetic workload kernels standing in for the paper's traced programs.
//!
//! The paper traced fifteen Fortran applications from the NAS and PERFECT
//! suites with Shade. Those traces (and the exact binaries) are long gone,
//! so this crate substitutes *synthetic kernels*: small Rust programs that
//! execute the same loop nests over a modelled address space and emit the
//! resulting reference stream. Stream-buffer behaviour depends only on the
//! address stream — its mixture of sequential sweeps, constant strides and
//! irregular indirections — which each kernel is written to match, guided
//! by what the paper reports about its counterpart (e.g. `fftpde` is
//! dominated by large power-of-two strides, `adm` and `dyfesm` by
//! scatter/gather, `cgm` by sequential index/value arrays plus a banded
//! gather).
//!
//! Every workload emits its trace in chunks through
//! [`Workload::generate_chunks`] (kernels fill them through a
//! [`Tracer`]), so traces never need to be materialised; feed the chunks
//! through [`streamsim_trace::ChunkSampler`] for the paper's time
//! sampling, or use [`collect_trace`] when a `Vec` is convenient.
//!
//! # Example
//!
//! ```
//! use streamsim_workloads::{benchmark, collect_trace};
//!
//! let embar = benchmark("embar").expect("known benchmark");
//! let trace = collect_trace(embar.as_ref());
//! assert!(!trace.is_empty());
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod combinators;
pub mod generators;
pub mod kernels;
mod layout;
mod tracer;

use std::fmt;

use streamsim_trace::Access;

pub use layout::{AddressSpace, Array1, Array2, Array3, Array4};
pub use tracer::{Tracer, DEFAULT_CHUNK};

/// The benchmark suite a workload models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Suite {
    /// NAS parallel benchmarks.
    Nas,
    /// PERFECT club benchmarks.
    Perfect,
    /// Synthetic patterns that do not model a specific paper benchmark.
    Synthetic,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Nas => f.write_str("NAS"),
            Suite::Perfect => f.write_str("PERFECT"),
            Suite::Synthetic => f.write_str("synthetic"),
        }
    }
}

/// A reference-trace generator modelling one benchmark.
///
/// Implementations must be deterministic: two calls to
/// [`Workload::generate_chunks`] emit identical traces, whatever the
/// batch capacity. Workloads are `Send + Sync` so experiment sweeps can
/// generate traces from worker threads, and `Debug` so every instance
/// can describe its full parameterisation (the basis of the default
/// [`Workload::fingerprint`]).
pub trait Workload: Send + Sync + fmt::Debug {
    /// Short benchmark name as the paper spells it (e.g. `"fftpde"`).
    fn name(&self) -> &str;

    /// Which suite the modelled program belongs to.
    fn suite(&self) -> Suite;

    /// One-line description of the program and the access pattern the
    /// kernel reproduces.
    fn description(&self) -> &str;

    /// The modelled data footprint in bytes (Table 1's "Data Set Size").
    fn data_set_bytes(&self) -> u64;

    /// Emits the complete reference trace in chunks, so consumers pay
    /// one indirect call per chunk instead of per reference. A kernel
    /// fills `batch` up to its capacity ([`DEFAULT_CHUNK`] if
    /// unallocated) and hands it to `emit` each time; a stored trace
    /// hands over slices instead. No chunk is empty, and the
    /// concatenation of the chunks does not depend on the capacity.
    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access]));

    /// Pushes the complete reference trace into `sink`, one reference
    /// at a time: the concatenation of [`Workload::generate_chunks`]'s
    /// chunks, for callers that want a per-reference callback.
    fn generate(&self, sink: &mut dyn FnMut(Access)) {
        self.generate_chunks(&mut Vec::new(), &mut |chunk| {
            chunk.iter().for_each(|&a| sink(a));
        });
    }

    /// A string identifying this workload instance's reference stream,
    /// used as a memoisation key by trace caches: two workloads with
    /// equal fingerprints must generate identical traces.
    ///
    /// The default covers every kernel whose derived `Debug` output
    /// spells out all trace-determining parameters (type name included).
    /// Override it only when `Debug` is lossy or unboundedly large
    /// (e.g. a recorded-trace wrapper).
    fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Materialises a workload's trace into a vector.
pub fn collect_trace(workload: &dyn Workload) -> Vec<Access> {
    let mut trace = Vec::new();
    workload.generate_chunks(&mut Vec::new(), &mut |chunk| {
        trace.extend_from_slice(chunk);
    });
    trace
}

/// All fifteen paper benchmarks at their default (paper) input sizes, in
/// Table 1 order: the eight NAS programs, then the seven PERFECT programs.
pub fn all_benchmarks() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(kernels::Embar::paper()),
        Box::new(kernels::Mgrid::paper()),
        Box::new(kernels::Cgm::paper()),
        Box::new(kernels::Fftpde::paper()),
        Box::new(kernels::Is::paper()),
        Box::new(kernels::Appsp::paper()),
        Box::new(kernels::Appbt::paper()),
        Box::new(kernels::Applu::paper()),
        Box::new(kernels::Spec77::paper()),
        Box::new(kernels::Adm::paper()),
        Box::new(kernels::Bdna::paper()),
        Box::new(kernels::Dyfesm::paper()),
        Box::new(kernels::Mdg::paper()),
        Box::new(kernels::Qcd::paper()),
        Box::new(kernels::Trfd::paper()),
    ]
}

/// Looks up a paper benchmark by name (default input size).
pub fn benchmark(name: &str) -> Option<Box<dyn Workload>> {
    all_benchmarks().into_iter().find(|w| w.name() == name)
}

/// The names of all fifteen paper benchmarks, in Table 1 order.
pub fn benchmark_names() -> Vec<&'static str> {
    vec![
        "embar", "mgrid", "cgm", "fftpde", "is", "appsp", "appbt", "applu", "spec77", "adm",
        "bdna", "dyfesm", "mdg", "qcd", "trfd",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_fifteen() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 15);
        let names: Vec<&str> = all.iter().map(|w| w.name()).collect();
        assert_eq!(names, benchmark_names());
    }

    #[test]
    fn nas_and_perfect_split() {
        let all = all_benchmarks();
        assert_eq!(all.iter().filter(|w| w.suite() == Suite::Nas).count(), 8);
        assert_eq!(
            all.iter().filter(|w| w.suite() == Suite::Perfect).count(),
            7
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("fftpde").is_some());
        assert!(benchmark("nonexistent").is_none());
    }

    #[test]
    fn descriptions_and_footprints_are_nonempty() {
        for w in all_benchmarks() {
            assert!(!w.description().is_empty(), "{}", w.name());
            assert!(w.data_set_bytes() > 0, "{}", w.name());
        }
    }

    #[test]
    fn suite_display() {
        assert_eq!(Suite::Nas.to_string(), "NAS");
        assert_eq!(Suite::Perfect.to_string(), "PERFECT");
        assert_eq!(Suite::Synthetic.to_string(), "synthetic");
    }
}
