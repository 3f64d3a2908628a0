//! Synthetic microphone signal source for the SC benchmark.
//!
//! The paper samples a Knowles SPU0414HR5H analogue microphone \[11\]. The
//! simulation substitutes a deterministic signal generator: a mixture of
//! tones plus wideband noise, seeded per acquisition window so runs are
//! repeatable while windows still differ.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates microphone sample windows.
#[derive(Clone, Debug, PartialEq)]
pub struct Microphone {
    sample_rate: f64,
    seed: u64,
    windows_taken: u64,
}

impl Microphone {
    /// Creates a microphone sampled at `sample_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not positive.
    pub fn new(sample_rate: f64, seed: u64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        Self {
            sample_rate,
            seed,
            windows_taken: 0,
        }
    }

    /// 16 kHz acquisition, the SPU0414's audio band.
    pub fn spu0414(seed: u64) -> Self {
        Self::new(16_000.0, seed)
    }

    /// Configured sample rate.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of windows acquired so far.
    pub fn windows_taken(&self) -> u64 {
        self.windows_taken
    }

    /// Acquires a window of `n` samples: a 440 Hz "signal" tone, a 5 kHz
    /// interferer, and noise. Each call advances the window counter so
    /// successive acquisitions differ deterministically.
    pub fn acquire(&mut self, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.windows_taken));
        self.windows_taken += 1;
        let w = 2.0 * std::f64::consts::PI / self.sample_rate;
        (0..n)
            .map(|i| {
                let t = i as f64;
                (440.0 * w * t).sin()
                    + 0.5 * (5000.0 * w * t).sin()
                    + 0.2 * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fir::FirFilter;

    #[test]
    fn windows_are_deterministic_but_distinct() {
        let mut a = Microphone::spu0414(1);
        let mut b = Microphone::spu0414(1);
        assert_eq!(a.acquire(64), b.acquire(64));
        // Second window differs from the first.
        let w1 = a.acquire(64);
        let mut c = Microphone::spu0414(1);
        let w0 = c.acquire(64);
        assert_ne!(w0, w1);
        assert_eq!(a.windows_taken(), 2);
    }

    #[test]
    fn filtering_recovers_the_low_tone() {
        // End-to-end SC kernel: the 5 kHz interferer is filtered out.
        let mut mic = Microphone::spu0414(7);
        let window = mic.acquire(512);
        // Cutoff 1 kHz at 16 kHz sampling → normalized 0.0625.
        let filter = FirFilter::lowpass(0.0625, 63);
        let clean = filter.apply(&window);
        // The interferer at 5 kHz (normalized 0.3125) is strongly
        // attenuated: compare spectral magnitude via the filter response.
        assert!(filter.magnitude_at(440.0 / 16_000.0) > 0.9);
        assert!(filter.magnitude_at(5000.0 / 16_000.0) < 0.01);
        // Output amplitude close to the 440 Hz tone alone (amplitude 1).
        let peak = clean[100..]
            .iter()
            .cloned()
            .fold(0.0_f64, |m, x| m.max(x.abs()));
        assert!(peak > 0.7 && peak < 1.3, "peak {peak}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        Microphone::new(0.0, 1);
    }
}
