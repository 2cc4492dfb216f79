//! Run provenance: the identity of an experiment run.
//!
//! A result row without provenance cannot be compared across machines
//! or commits. [`RunManifest`] captures the quantities that determine
//! (seed, configuration) or merely describe (thread count) a run; the
//! report layer stamps the deterministic subset into every JSON row as
//! `run_*` keys and emits the full manifest as its own artifact.

use crate::json_escape;

/// The provenance of one experiment run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// The PRNG seed the run's L1 replacement policy draws from (the
    /// workload seeds are fixed per kernel and covered by `config`).
    pub seed: u64,
    /// Hex fingerprint of the full run configuration (scale, sampling,
    /// L1 geometry and replacement policy).
    pub config: String,
    /// Worker threads available to the run (the machine's
    /// `available_parallelism` unless set).
    pub threads: u64,
    /// Input-size scale label (`"Paper"` / `"Quick"`).
    pub scale: String,
    /// Time-sampling label (`"off"` or `"on/off"` reference counts).
    pub sampling: String,
    /// Wall-clock-free run duration: total span-declared items (engine
    /// work units — references recorded, deliveries replayed). `0` means
    /// "not yet measured" (the manifest is emitted before the run
    /// starts; the report layer re-emits the measured value at the end
    /// via [`RunManifest::steps_json_line`]). A monotonic work count,
    /// not a clock, so ledger rows stay comparable across machines.
    pub run_steps: u64,
}

impl RunManifest {
    /// Builds a manifest; `threads` defaults to the machine's available
    /// parallelism.
    pub fn new(seed: u64, config_text: &str, scale: &str, sampling: &str) -> Self {
        RunManifest {
            seed,
            config: format!("{:016x}", fingerprint64(config_text)),
            threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            scale: scale.to_owned(),
            sampling: sampling.to_owned(),
            run_steps: 0,
        }
    }

    /// The manifest with a measured work count (see
    /// [`RunManifest::run_steps`]).
    pub fn with_run_steps(mut self, run_steps: u64) -> Self {
        self.run_steps = run_steps;
        self
    }

    /// The deterministic stamp keys added to every JSON row. `run_*`
    /// keys are provenance, not measurements: `streamsim-report --diff`
    /// excludes them from both row identity and drift comparison.
    pub fn row_stamp(&self) -> Vec<(&'static str, StampValue)> {
        vec![
            ("run_config", StampValue::Text(self.config.clone())),
            ("run_seed", StampValue::Int(self.seed)),
            ("run_threads", StampValue::Int(self.threads)),
        ]
    }

    /// The manifest as one flat JSONL record (`artifact":"manifest"`).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"artifact\":\"manifest\",\"table\":\"run\",\"run_config\":{},\
             \"run_seed\":{},\"run_threads\":{},\"scale\":{},\"sampling\":{},\
             \"run_steps\":{}}}",
            json_escape(&self.config),
            self.seed,
            self.threads,
            json_escape(&self.scale),
            json_escape(&self.sampling),
            self.run_steps,
        )
    }

    /// The measured work count as its own trailing manifest record
    /// (`"table":"run_steps"`): the run manifest leads the JSON file
    /// before any work has happened, so the span-derived total is
    /// appended once the run ends.
    pub fn steps_json_line(&self) -> String {
        format!(
            "{{\"artifact\":\"manifest\",\"table\":\"run_steps\",\"run_config\":{},\
             \"run_steps\":{}}}",
            json_escape(&self.config),
            self.run_steps,
        )
    }
}

/// A stamp field value (mirrors the sink cell values without depending
/// on the sink crate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StampValue {
    /// An exact integer.
    Int(u64),
    /// A string.
    Text(String),
}

/// FNV-1a over the UTF-8 bytes: a stable 64-bit fingerprint for
/// configuration text. Not cryptographic — it only needs to change when
/// the configuration does.
pub fn fingerprint64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64("abc"), fingerprint64("abc"));
        assert_ne!(fingerprint64("abc"), fingerprint64("abd"));
    }

    #[test]
    fn manifest_renders_one_flat_line() {
        let m = RunManifest {
            seed: 7,
            config: "00ff".into(),
            threads: 4,
            scale: "Quick".into(),
            sampling: "off".into(),
            run_steps: 0,
        };
        assert_eq!(
            m.to_json_line(),
            "{\"artifact\":\"manifest\",\"table\":\"run\",\"run_config\":\"00ff\",\
             \"run_seed\":7,\"run_threads\":4,\"scale\":\"Quick\",\"sampling\":\"off\",\
             \"run_steps\":0}"
        );
        let stamp = m.row_stamp();
        assert_eq!(stamp[0].0, "run_config");
        assert_eq!(stamp[1], ("run_seed", StampValue::Int(7)));
    }

    #[test]
    fn run_steps_round_trips_and_trails() {
        let m = RunManifest::new(1, "cfg", "Quick", "off");
        assert_eq!(m.run_steps, 0, "unknown before the run");
        let m = m.with_run_steps(3_514_559);
        assert_eq!(m.run_steps, 3_514_559);
        assert!(m.to_json_line().contains("\"run_steps\":3514559"));
        let trailing = m.steps_json_line();
        assert!(trailing.contains("\"table\":\"run_steps\""), "{trailing}");
        assert!(trailing.contains("\"run_steps\":3514559"), "{trailing}");
        assert!(
            trailing.contains(&format!("\"run_config\":\"{}\"", m.config)),
            "{trailing}"
        );
    }

    #[test]
    fn new_fingerprints_the_config_text() {
        let a = RunManifest::new(1, "cfg-a", "Quick", "off");
        let b = RunManifest::new(1, "cfg-b", "Quick", "off");
        assert_ne!(a.config, b.config);
        assert!(a.threads >= 1);
    }
}
