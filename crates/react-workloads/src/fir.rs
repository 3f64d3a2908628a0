//! FIR filtering: the Sense-and-Compute benchmark's digital kernel.
//!
//! The paper's SC benchmark samples a low-power microphone and "digitally
//! filter\[s\]" the readings (§4.2). We implement a windowed-sinc low-pass
//! FIR design plus streaming application, so the benchmark runs real DSP.

use std::f64::consts::PI;

/// Outputs computed per pass of [`FirFilter::apply`].
const BLOCK: usize = 8;

/// A finite-impulse-response filter.
#[derive(Clone, Debug, PartialEq)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Builds a filter from explicit taps.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "filter needs taps");
        Self { taps }
    }

    /// Designs a low-pass filter with the windowed-sinc method
    /// (Hamming window). `cutoff` is the normalized cutoff frequency in
    /// `(0, 0.5)` (fraction of the sample rate); `taps` is the filter
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is outside `(0, 0.5)` or `taps` is zero.
    pub fn lowpass(cutoff: f64, taps: usize) -> Self {
        assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must be in (0, 0.5)");
        assert!(taps > 0, "need at least one tap");
        let m = (taps - 1) as f64;
        let mut h: Vec<f64> = (0..taps)
            .map(|i| {
                let n = i as f64 - m / 2.0;
                let sinc = if n.abs() < 1e-12 {
                    2.0 * cutoff
                } else {
                    (2.0 * PI * cutoff * n).sin() / (PI * n)
                };
                let window = 0.54 - 0.46 * (2.0 * PI * i as f64 / m.max(1.0)).cos();
                sinc * window
            })
            .collect();
        // Normalize to unity DC gain.
        let sum: f64 = h.iter().sum();
        for tap in &mut h {
            *tap /= sum;
        }
        Self::new(h)
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if the filter has no taps (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// The tap coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Filters a signal (zero-padded convolution, output length equals
    /// input length).
    ///
    /// Output `i` is `0.0 + Σ taps[k]·signal[i−k]` over the valid taps
    /// `k ≤ i`, summed in ascending `k`. Outputs are computed eight at a
    /// time, each in its own accumulator, so the summation order — and
    /// therefore every bit of the result — is that of the one-output
    /// loop.
    pub fn apply(&self, signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        let last_tap = self.taps.len() - 1;
        let mut out = vec![0.0; n];
        let blocked = n - n % BLOCK;
        for i0 in (0..blocked).step_by(BLOCK) {
            let mut acc = [0.0; BLOCK];
            // Taps valid for every output of the block.
            let shared = i0.min(last_tap);
            for (k, &tap) in self.taps[..=shared].iter().enumerate() {
                let xs: &[f64; BLOCK] = signal[i0 - k..i0 - k + BLOCK]
                    .try_into()
                    .expect("block-sized window");
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a += tap * x;
                }
            }
            // Near the start, later outputs see a few more taps.
            for (j, a) in acc.iter_mut().enumerate() {
                for k in shared + 1..=(i0 + j).min(last_tap) {
                    *a += self.taps[k] * signal[i0 + j - k];
                }
            }
            out[i0..i0 + BLOCK].copy_from_slice(&acc);
        }
        for (i, o) in out.iter_mut().enumerate().skip(blocked) {
            let mut acc = 0.0;
            for (k, &tap) in self.taps[..=i.min(last_tap)].iter().enumerate() {
                acc += tap * signal[i - k];
            }
            *o = acc;
        }
        out
    }

    /// Magnitude response at normalized frequency `f` (fraction of the
    /// sample rate).
    pub fn magnitude_at(&self, f: f64) -> f64 {
        let omega = 2.0 * PI * f;
        let (mut re, mut im) = (0.0, 0.0);
        for (n, &tap) in self.taps.iter().enumerate() {
            re += tap * (omega * n as f64).cos();
            im -= tap * (omega * n as f64).sin();
        }
        (re * re + im * im).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_has_unity_dc_gain() {
        let f = FirFilter::lowpass(0.1, 63);
        assert!((f.magnitude_at(0.0) - 1.0).abs() < 1e-9);
        assert!((f.taps().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_attenuates_high_frequencies() {
        let f = FirFilter::lowpass(0.1, 63);
        assert!(f.magnitude_at(0.05) > 0.9);
        assert!(f.magnitude_at(0.3) < 0.01);
    }

    #[test]
    fn filtering_passes_dc() {
        let f = FirFilter::lowpass(0.1, 31);
        let out = f.apply(&[1.0; 200]);
        // After the transient, output settles at 1.
        assert!((out[150] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn filtering_removes_high_frequency_tone() {
        let f = FirFilter::lowpass(0.05, 63);
        let signal: Vec<f64> = (0..400)
            .map(|n| (2.0 * PI * 0.3 * n as f64).sin())
            .collect();
        let out = f.apply(&signal);
        let tail_energy: f64 = out[100..].iter().map(|x| x * x).sum();
        let in_energy: f64 = signal[100..].iter().map(|x| x * x).sum();
        assert!(tail_energy / in_energy < 1e-4);
    }

    #[test]
    fn apply_is_linear() {
        let f = FirFilter::lowpass(0.2, 15);
        let a: Vec<f64> = (0..50).map(|n| (n as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..50).map(|n| (n as f64 * 1.3).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let fa = f.apply(&a);
        let fb = f.apply(&b);
        let fsum = f.apply(&sum);
        for i in 0..50 {
            assert!((fsum[i] - (2.0 * fa[i] + 3.0 * fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn explicit_taps() {
        let f = FirFilter::new(vec![0.5, 0.5]);
        let out = f.apply(&[1.0, 0.0, 1.0]);
        assert_eq!(out, vec![0.5, 0.5, 0.5]);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn bad_cutoff_panics() {
        FirFilter::lowpass(0.7, 11);
    }

    #[test]
    #[should_panic(expected = "taps")]
    fn empty_taps_panic() {
        FirFilter::new(vec![]);
    }
}
