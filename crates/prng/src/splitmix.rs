//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014; Vigna's public-domain
//! reference implementation).

use crate::RngCore;

/// A SplitMix64 generator, used to expand one `u64` seed into the state
/// of a larger generator (see [`crate::Xoshiro256StarStar::seed_from_u64`]).
///
/// Every distinct seed yields a distinct full-period sequence of all
/// 2^64 values, which makes it ideal for seeding: even adjacent seeds
/// (0, 1, 2, …) produce uncorrelated downstream state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from any 64-bit seed (all values valid).
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// One step of the reference algorithm.
    #[expect(
        clippy::should_implement_trait,
        reason = "not an Iterator: the sequence never ends, so `Option` would only add noise"
    )]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Outputs pinned to the published reference implementation
    /// (sebastiano vigna's splitmix64.c), so a port to any platform that
    /// diverges from the algorithm fails loudly.
    #[test]
    fn matches_reference_vectors() {
        let mut g = SplitMix64::new(0);
        let got: Vec<u64> = (0..5).map(|_| g.next()).collect();
        assert_eq!(
            got,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
                0x1B39_896A_51A8_749B,
            ]
        );
        let mut g = SplitMix64::new(42);
        assert_eq!(g.next(), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(g.next(), 0x28EF_E333_B266_F103);
    }

    #[test]
    fn distinct_seeds_diverge() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(1);
            (0..8).map(|_| g.next()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(2);
            (0..8).map(|_| g.next()).collect()
        };
        assert_ne!(a, b);
    }
}
