//! Amortized-O(1) monotone trace lookup.
//!
//! The simulation kernel queries harvested power once per step, with
//! times that almost always move forward by one timestep. Resolving each
//! query through [`PowerTrace::power_at`]'s division-and-bounds-check is
//! wasted work on that access pattern; [`WindowCache`] caches the
//! current zero-order-hold window and answers in-window queries with two
//! float compares, re-seeking (via the authoritative
//! [`PowerTrace::window_at`] computation) only when a query leaves the
//! window. Owning adapters (react-env's `TraceSource`) embed the
//! cache, so the ulp-sensitive boundary logic lives in exactly one
//! place.
//!
//! Out-of-order queries are always correct — they just pay the re-seek —
//! so the cache is a drop-in for `power_at` at every call site.

use react_units::Seconds;

use crate::PowerTrace;

/// Nudges a positive finite float down by two ulps (identity at 0 and
/// `+inf`).
///
/// This is the conservative upper bound of every cached window in the
/// workspace: a zero-order-hold lookup at a time in the last ulps below
/// a computed window end can round onto the next sample, so a cache
/// answers only strictly below `two_ulps_down(end)` and re-seeks above.
#[inline]
pub fn two_ulps_down(x: f64) -> f64 {
    if x > 0.0 && x != f64::INFINITY {
        f64::from_bits(x.to_bits() - 2)
    } else {
        x
    }
}

/// Nudges a non-negative finite float up by two ulps.
#[inline]
fn two_ulps_up(x: f64) -> f64 {
    if x == f64::INFINITY {
        x
    } else {
        f64::from_bits(x.to_bits() + 2)
    }
}

/// The cached zero-order-hold window shared by every trace cursor.
///
/// `lookup` returns *exactly* what [`PowerTrace::power_at`] returns for
/// every `t` (including negative, boundary, and past-end times): the
/// fast path only answers queries strictly inside the cached window
/// shrunk by two ulps on each side, and everything else re-seeks
/// through [`PowerTrace::window_at`], the same computation `power_at`
/// resolves through.
///
/// The cache is not bound to a trace — **every `lookup` call on one
/// cache must pass the same trace** (as owning adapters do by
/// construction); switching traces mid-stream can answer from the
/// previous trace's cached window.
#[derive(Clone, Debug)]
pub struct WindowCache {
    /// Cached window sample value (0 past the end of the trace).
    power: f64,
    /// Conservative (shrunk) fast-path bounds of the cached window.
    fast_lo: f64,
    fast_hi: f64,
    /// True window end (start of the next sample), `+inf` past the end.
    window_end: f64,
}

impl Default for WindowCache {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowCache {
    /// An empty cache; the first lookup seeks.
    pub fn new() -> Self {
        Self {
            power: 0.0,
            fast_lo: f64::INFINITY,
            fast_hi: f64::NEG_INFINITY,
            window_end: 0.0,
        }
    }

    /// Re-positions the cache on the window covering `t`, using the
    /// authoritative [`PowerTrace::window_at`] computation.
    fn seek(&mut self, trace: &PowerTrace, t: f64) {
        let (power, start, end) = trace.window_at(Seconds::new(t));
        self.power = power.get();
        if end > start {
            self.fast_lo = two_ulps_up(start.get());
            self.fast_hi = two_ulps_down(end.get());
        } else {
            // Degenerate (negative/NaN) window: never cache it.
            self.fast_lo = f64::INFINITY;
            self.fast_hi = f64::NEG_INFINITY;
        }
        self.window_end = end.get();
    }

    /// Power and window end covering `t` — identical to
    /// [`PowerTrace::power_at`] (and `window_at`'s end) for all inputs,
    /// amortized O(1) for monotone queries.
    #[inline]
    pub fn lookup(&mut self, trace: &PowerTrace, t: f64) -> (f64, f64) {
        if !(t > self.fast_lo && t < self.fast_hi) {
            self.seek(trace, t);
        }
        (self.power, self.window_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::Watts;

    /// Available power at `t` through `cache`.
    fn power_at(cache: &mut WindowCache, trace: &PowerTrace, t: Seconds) -> Watts {
        Watts::new(cache.lookup(trace, t.get()).0)
    }

    fn ramp() -> PowerTrace {
        let samples = (0..10).map(|i| Watts::from_milli(i as f64)).collect();
        PowerTrace::new("ramp", Seconds::new(0.5), samples)
    }

    #[test]
    fn monotone_walk_matches_power_at() {
        let t = ramp();
        let mut c = WindowCache::new();
        let mut time = -0.25;
        while time < 6.0 {
            let s = Seconds::new(time);
            assert_eq!(power_at(&mut c, &t, s), t.power_at(s), "at t={time}");
            time += 0.001;
        }
    }

    #[test]
    fn boundary_times_match_exactly() {
        let t = ramp();
        let mut c = WindowCache::new();
        for i in 0..=12 {
            for ulps in [-2i64, -1, 0, 1, 2] {
                let base = i as f64 * 0.5;
                let tt = if base == 0.0 {
                    if ulps < 0 {
                        -f64::from_bits((-ulps) as u64)
                    } else {
                        f64::from_bits(ulps as u64)
                    }
                } else {
                    f64::from_bits((base.to_bits() as i64 + ulps) as u64)
                };
                let s = Seconds::new(tt);
                assert_eq!(
                    power_at(&mut c, &t, s),
                    t.power_at(s),
                    "boundary {i} ulps {ulps}"
                );
            }
        }
    }

    #[test]
    fn out_of_order_queries_are_correct() {
        let t = ramp();
        let mut c = WindowCache::new();
        // A scrambled sequence covering backwards jumps, repeats, far
        // seeks past the end, and negative times.
        for &time in &[3.1, 0.2, 4.9, 4.9, 0.0, 7.5, -1.0, 2.6, 100.0, 1.1] {
            let s = Seconds::new(time);
            assert_eq!(power_at(&mut c, &t, s), t.power_at(s), "at t={time}");
        }
    }

    #[test]
    fn negative_and_past_end_are_zero() {
        let t = ramp();
        let mut c = WindowCache::new();
        assert_eq!(power_at(&mut c, &t, Seconds::new(-0.001)), Watts::ZERO);
        assert_eq!(power_at(&mut c, &t, Seconds::new(5.0)), Watts::ZERO);
        assert_eq!(power_at(&mut c, &t, Seconds::new(1e12)), Watts::ZERO);
        assert_eq!(power_at(&mut c, &t, Seconds::new(f64::NAN)), Watts::ZERO);
        // And the trace agrees on every one of those.
        for time in [-0.001, 5.0, 1e12, f64::NAN] {
            assert_eq!(t.power_at(Seconds::new(time)), Watts::ZERO);
        }
    }

    #[test]
    fn sample_window_reports_constant_power_span() {
        let t = ramp();
        let mut c = WindowCache::new();
        let (p, end) = c.lookup(&t, 1.26);
        assert!((p * 1e3 - 2.0).abs() < 1e-12);
        assert!((end - 1.5).abs() < 1e-12);
        // Past the end: zero power, infinite window.
        let (p, end) = c.lookup(&t, 9.0);
        assert_eq!(p, 0.0);
        assert_eq!(end, f64::INFINITY);
    }

    #[test]
    fn dense_random_times_match_power_at() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let t = ramp();
        let mut c = WindowCache::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20_000 {
            let time = rng.gen_range(-1.0..7.0);
            let s = Seconds::new(time);
            assert_eq!(power_at(&mut c, &t, s), t.power_at(s), "at t={time}");
        }
    }
}
