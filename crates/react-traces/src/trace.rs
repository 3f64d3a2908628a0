//! The core power-trace container.

use react_units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

use crate::TraceStats;

/// A uniformly sampled harvested-power time series.
///
/// Samples are *powers available at the harvester output*; the replay
/// frontend (see `react-harvest`) converts them into buffer input current
/// through a converter model, mirroring the Ekho-style DAC replay the
/// paper uses (§4.3).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    name: String,
    /// Sample interval in seconds.
    dt: f64,
    /// Power samples in watts.
    samples: Vec<f64>,
}

impl PowerTrace {
    /// Creates a trace from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or `samples` is empty.
    pub fn new(name: impl Into<String>, dt: Seconds, samples: Vec<Watts>) -> Self {
        assert!(dt.get() > 0.0, "sample interval must be positive");
        assert!(!samples.is_empty(), "trace must contain samples");
        Self {
            name: name.into(),
            dt: dt.get(),
            samples: samples.into_iter().map(Watts::get).collect(),
        }
    }

    /// Creates a constant-power trace (continuous supply experiments).
    pub fn constant(name: impl Into<String>, power: Watts, duration: Seconds, dt: Seconds) -> Self {
        let n = (duration.get() / dt.get()).ceil().max(1.0) as usize;
        Self::new(name, dt, vec![power; n])
    }

    /// Trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sample interval.
    pub fn sample_interval(&self) -> Seconds {
        Seconds::new(self.dt)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace has no samples (cannot happen via `new`).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total trace duration.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.dt * self.samples.len() as f64)
    }

    /// The zero-order-hold sample index covering time `t`, or `None`
    /// for times outside the trace (negative, non-finite, or at/past the
    /// end). This is the single source of truth for lookup semantics:
    /// [`PowerTrace::power_at`] and [`WindowCache`](crate::WindowCache)
    /// both resolve through it, so their edge behaviour is identical by
    /// construction.
    #[inline]
    pub(crate) fn sample_index(&self, t: f64) -> Option<usize> {
        if t < 0.0 || t.is_nan() {
            // Negative and NaN both fall outside the trace.
            return None;
        }
        let idx = t / self.dt;
        if idx >= self.samples.len() as f64 {
            return None;
        }
        Some(idx as usize)
    }

    /// Harvested power at time `t` (zero-order hold). Returns zero beyond
    /// the end of the trace — the paper lets systems run on stored energy
    /// after the trace completes (§5) — and for negative or non-finite
    /// times.
    pub fn power_at(&self, t: Seconds) -> Watts {
        match self.sample_index(t.get()) {
            Some(idx) => Watts::new(self.samples[idx]),
            None => Watts::ZERO,
        }
    }

    /// The zero-order-hold window covering `t`: `(power, start, end)`.
    ///
    /// Window semantics match [`PowerTrace::power_at`] exactly: inside
    /// the trace the window is the covering sample's span; at or past
    /// the end it is the infinite zero-power tail `[duration, +inf)`;
    /// for negative or non-finite times it degenerates to `(0 W, 0, 0)`.
    /// [`WindowCache`](crate::WindowCache) builds the cached fast path
    /// of every streaming adapter from this one computation.
    pub fn window_at(&self, t: Seconds) -> (Watts, Seconds, Seconds) {
        match self.sample_index(t.get()) {
            Some(idx) => (
                Watts::new(self.samples[idx]),
                Seconds::new(idx as f64 * self.dt),
                Seconds::new((idx + 1) as f64 * self.dt),
            ),
            None if t.get() >= self.duration().get() => {
                (Watts::ZERO, self.duration(), Seconds::new(f64::INFINITY))
            }
            None => (Watts::ZERO, Seconds::ZERO, Seconds::ZERO),
        }
    }

    /// Total harvestable energy, `Σ p·dt`.
    pub fn total_energy(&self) -> Joules {
        Joules::new(self.samples.iter().sum::<f64>() * self.dt)
    }

    /// Iterates over `(time, power)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, Watts)> + '_ {
        self.samples
            .iter()
            .enumerate()
            .map(move |(i, &p)| (Seconds::new(i as f64 * self.dt), Watts::new(p)))
    }

    /// Raw sample values in watts.
    pub fn samples(&self) -> impl Iterator<Item = Watts> + '_ {
        self.samples.iter().map(|&p| Watts::new(p))
    }

    /// Summary statistics.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_samples(self.duration(), &self.samples)
    }

    /// Multiplies every sample by `factor` (mean scales, CV is invariant).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            name: self.name.clone(),
            dt: self.dt,
            samples: self.samples.iter().map(|p| p * factor).collect(),
        }
    }

    /// Raises every sample to `gamma` (adjusts CV; used by calibration).
    #[must_use]
    pub fn powed(&self, gamma: f64) -> Self {
        Self {
            name: self.name.clone(),
            dt: self.dt,
            samples: self.samples.iter().map(|p| p.powf(gamma)).collect(),
        }
    }

    /// Returns the sub-trace covering `[0, duration)`.
    #[must_use]
    pub fn truncated(&self, duration: Seconds) -> Self {
        let n = ((duration.get() / self.dt) as usize).clamp(1, self.samples.len());
        Self {
            name: self.name.clone(),
            dt: self.dt,
            samples: self.samples[..n].to_vec(),
        }
    }

    /// Fraction of total energy contributed by samples above `threshold`
    /// (the paper's §2.1.2 spike-energy metric).
    pub fn energy_fraction_above(&self, threshold: Watts) -> f64 {
        let total: f64 = self.samples.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let above: f64 = self.samples.iter().filter(|&&p| p > threshold.get()).sum();
        above / total
    }

    /// Fraction of time spent below `threshold` (§2.1.2).
    pub fn time_fraction_below(&self, threshold: Watts) -> f64 {
        let below = self
            .samples
            .iter()
            .filter(|&&p| p < threshold.get())
            .count();
        below as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> PowerTrace {
        let samples = (0..10).map(|i| Watts::from_milli(i as f64)).collect();
        PowerTrace::new("ramp", Seconds::new(0.5), samples)
    }

    #[test]
    fn duration_and_len() {
        let t = ramp();
        assert_eq!(t.len(), 10);
        assert!((t.duration().get() - 5.0).abs() < 1e-12);
        assert!(!t.is_empty());
        assert_eq!(t.name(), "ramp");
    }

    #[test]
    fn power_at_zero_order_hold() {
        let t = ramp();
        assert_eq!(t.power_at(Seconds::new(0.0)), Watts::ZERO);
        assert!((t.power_at(Seconds::new(0.6)).to_milli() - 1.0).abs() < 1e-12);
        assert!((t.power_at(Seconds::new(4.99)).to_milli() - 9.0).abs() < 1e-12);
        // Beyond the end and before the start: zero.
        assert_eq!(t.power_at(Seconds::new(5.1)), Watts::ZERO);
        assert_eq!(t.power_at(Seconds::new(-1.0)), Watts::ZERO);
    }

    #[test]
    fn window_at_matches_power_at_semantics() {
        let t = ramp();
        // Interior point: window spans the covering sample.
        let (p, start, end) = t.window_at(Seconds::new(0.6));
        assert!((p.to_milli() - 1.0).abs() < 1e-12);
        assert!((start.get() - 0.5).abs() < 1e-12);
        assert!((end.get() - 1.0).abs() < 1e-12);
        // Past the end: the infinite zero tail.
        let (p, start, end) = t.window_at(Seconds::new(5.0));
        assert_eq!(p, Watts::ZERO);
        assert!((start.get() - 5.0).abs() < 1e-12);
        assert_eq!(end.get(), f64::INFINITY);
        // Negative and NaN: degenerate zero window.
        for bad in [-1.0, f64::NAN] {
            let (p, start, end) = t.window_at(Seconds::new(bad));
            assert_eq!(p, Watts::ZERO);
            assert_eq!(start, Seconds::ZERO);
            assert_eq!(end, Seconds::ZERO);
        }
        // The reported power always agrees with power_at.
        for time in [0.0, 0.49, 0.5, 2.3, 4.99, 5.0, 80.0] {
            let s = Seconds::new(time);
            assert_eq!(t.window_at(s).0, t.power_at(s), "at t={time}");
        }
    }

    #[test]
    fn total_energy_sums_samples() {
        let t = ramp();
        // Σ 0..9 mW × 0.5 s = 45 mW · 0.5 = 22.5 mJ.
        assert!((t.total_energy().to_milli() - 22.5).abs() < 1e-9);
    }

    #[test]
    fn constant_trace() {
        let t = PowerTrace::constant(
            "c",
            Watts::from_milli(2.0),
            Seconds::new(10.0),
            Seconds::new(0.1),
        );
        assert_eq!(t.len(), 100);
        assert!((t.total_energy().to_milli() - 20.0).abs() < 1e-9);
        let s = t.stats();
        assert!(s.cv < 1e-12);
    }

    #[test]
    fn scaling_changes_mean_not_cv() {
        let t = ramp();
        let t2 = t.scaled(3.0);
        assert!((t2.stats().mean_power.get() - 3.0 * t.stats().mean_power.get()).abs() < 1e-12);
        assert!((t2.stats().cv - t.stats().cv).abs() < 1e-12);
    }

    #[test]
    fn powed_changes_cv() {
        let t = ramp();
        let flat = t.powed(0.2);
        assert!(flat.stats().cv < t.stats().cv);
        let spiky = t.powed(3.0);
        assert!(spiky.stats().cv > t.stats().cv);
    }

    #[test]
    fn truncation() {
        let t = ramp().truncated(Seconds::new(2.0));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn spike_metrics() {
        let samples = vec![
            Watts::from_milli(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(17.0),
        ];
        let t = PowerTrace::new("spiky", Seconds::new(1.0), samples);
        assert!((t.energy_fraction_above(Watts::from_milli(10.0)) - 0.85).abs() < 1e-12);
        assert!((t.time_fraction_below(Watts::from_milli(3.0)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_time_power_pairs() {
        let t = ramp();
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v.len(), 10);
        assert!((v[3].0.get() - 1.5).abs() < 1e-12);
        assert!((v[3].1.to_milli() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must contain samples")]
    fn empty_trace_panics() {
        PowerTrace::new("bad", Seconds::new(1.0), vec![]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dt_panics() {
        PowerTrace::new("bad", Seconds::ZERO, vec![Watts::ZERO]);
    }

    #[test]
    fn serde_roundtrip() {
        let t = ramp();
        let json = serde_json::to_string(&t).unwrap();
        let back: PowerTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
