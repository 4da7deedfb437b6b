//! The workspace's one seeded generator.
//!
//! Every seeded draw in the library — the reconstructed topologies, the
//! bimodal base matrices, the evaluation family's corners and samples, the
//! failure grid's SRLGs and flash crowds — goes through [`splitmix64`],
//! either as the stream of a [`SplitMix64`] or as a one-shot hash. The
//! stream is pinned bit for bit by this module's test, so a platform or an
//! edit that moves it fails by name.

/// The SplitMix64 step: advance `x` by the golden-ratio increment and mix
/// it. Used directly as a hash where a result must be a pure function of
/// its inputs (the failure grid's events), and as the output function of
/// [`SplitMix64`].
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 increment, ⌊2⁶⁴/φ⌋ rounded to odd.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A seeded SplitMix64 stream. Not cryptographic: every use is a
/// reproducible experiment, where determinism and statistical quality are
/// what matter.
#[derive(Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream for `seed` (a pure function of it).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin: the lowest bit of one draw.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// An index in `0..n` (by remainder, so very slightly biased for `n`
    /// not a power of two).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi]` (up to rounding): `lo + unit·(hi − lo)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorded from the generator this module replaced (the vendored
    /// `rand` stand-in, SplitMix64 too) and from the failure grid's former
    /// private step.
    #[test]
    fn the_stream_matches_the_recorded_table() {
        let table: [(u64, [u64; 4]); 4] = [
            (
                0,
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                    0xF88B_B8A8_724C_81EC,
                ],
            ),
            (
                1,
                [
                    0x910A_2DEC_8902_5CC1,
                    0xBEEB_8DA1_658E_EC67,
                    0xF893_A2EE_FB32_555E,
                    0x71C1_8690_EE42_C90B,
                ],
            ),
            (
                42,
                [
                    0xBDD7_3226_2FEB_6E95,
                    0x28EF_E333_B266_F103,
                    0x4752_6757_130F_9F52,
                    0x581C_E1FF_0E4A_E394,
                ],
            ),
            (
                0xC0_707E,
                [
                    0x0A1F_E002_F24B_25E9,
                    0x811B_9FFD_19BF_84B5,
                    0xF195_AA73_1B98_B3EC,
                    0x1651_2316_1D49_4B9B,
                ],
            ),
        ];
        for (seed, expected) in table {
            let mut rng = SplitMix64::new(seed);
            let drawn = [(); 4].map(|_| rng.next_u64());
            assert_eq!(drawn, expected, "seed {seed:#x}");
        }

        let mut rng = SplitMix64::new(42);
        let units = [(); 2].map(|_| rng.unit().to_bits());
        assert_eq!(units, [0x3FE7_BAE6_44C5_FD6D, 0x3FC4_77F1_99D9_3378]);
        let coins = [(); 8].map(|_| rng.coin());
        assert_eq!(
            coins,
            [false, false, false, false, true, false, true, false]
        );
        let indices = [(); 4].map(|_| rng.below(7));
        assert_eq!(indices, [5, 6, 1, 4]);
        let uniforms = [(); 2].map(|_| rng.uniform(1.0, 2.0).to_bits());
        assert_eq!(uniforms, [0x3FFA_A47E_31C0_2E78, 0x3FF3_4145_2C54_D7C3]);

        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0xDEAD_BEEF), 0x4ADF_B90F_68C9_EB9B);
    }
}
