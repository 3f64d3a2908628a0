//! The streaming power-source abstraction and the recorded-trace
//! adapter.
//!
//! A [`PowerSource`] is the generalization of a bounded
//! [`PowerTrace`]: a piecewise-constant harvested-power signal that may
//! extend over an *unbounded* horizon, materialized lazily segment by
//! segment. Two queries make it usable by the simulation engine without
//! ever sampling the whole signal:
//!
//! * [`PowerSource::power_at`] — the fine-step query the kernel issues
//!   while the MCU runs, and
//! * [`PowerSource::segment`] — the piecewise-constant span covering a
//!   time, whose end is the *next-event hint* the adaptive kernel uses
//!   to integrate whole MCU-off stretches in closed form.
//!
//! Sources are stateful cursors (generative models keep an RNG and the
//! current dwell), but they are *logically pure*: a seeded source
//! answers every time query with the same value no matter the query
//! order. Backward queries trigger a graceful rewind — the generator
//! restarts from its seed and replays forward — so out-of-order probes
//! (easy to trigger from the streaming kernel) are always correct, just
//! slower.

use std::sync::Arc;

use react_traces::PowerTrace;
use react_units::{Seconds, Watts};

/// Derives the seed salt for one node of a fleet from the fleet seed
/// and the node's index — the cheap per-node stream fan-out the fleet
/// runner jitters its environments with.
///
/// A splitmix64-style finalizer: each (seed, index) pair lands on a
/// decorrelated 64-bit salt without allocating or streaming state, so
/// fanning a base scenario out to 10⁵⁺ nodes costs one multiply chain
/// per node. The identity case is preserved: fleet seed 0, node 0
/// yields salt 0 — the canonical registry stream every existing
/// baseline pins down.
pub fn node_salt(fleet_seed: u64, node_index: u64) -> u64 {
    let mut z = fleet_seed ^ node_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One observable event in the victim's execution, reported back to the
/// environment through the simulator's feedback channel.
///
/// A real energy attacker cannot read the node's registers, but it can
/// watch externally visible behavior: the power gate snapping closed
/// (boot), the rail collapsing (brown-out), the radio keying up, and —
/// with an oscilloscope on the harvesting rail — the capacitance steps
/// of an adaptive buffer reconfiguring. Stateful adversaries
/// ([`AdaptiveAttack`](crate::AdaptiveAttack)) consume these events to
/// time their strikes; benign sources ignore them (the default
/// [`PowerSource::observe`] is a no-op).
///
/// Event times are the simulator's clock at emission. The feedback
/// contract is causal: an event at time `t` may only influence the
/// source's output at times `≥ t` (asserted by the adversary property
/// tests — an attacker can never rewrite the past it was already
/// queried about).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VictimEvent {
    /// The power gate enabled the MCU (cold or warm boot).
    Boot {
        /// Simulator clock at the gate transition.
        at: Seconds,
    },
    /// The rail fell to the brown-out threshold and the gate opened.
    BrownOut {
        /// Simulator clock at the gate transition.
        at: Seconds,
    },
    /// The workload keyed a power-hungry peripheral (radio) on.
    RadioOn {
        /// Simulator clock at the rising edge.
        at: Seconds,
    },
    /// The radio-class peripheral released.
    RadioOff {
        /// Simulator clock at the falling edge.
        at: Seconds,
    },
    /// The buffer's controller reconfigured its capacitance.
    Reconfig {
        /// Simulator clock when the reconfiguration became visible.
        at: Seconds,
    },
}

impl VictimEvent {
    /// The event's timestamp.
    pub fn at(self) -> Seconds {
        match self {
            VictimEvent::Boot { at }
            | VictimEvent::BrownOut { at }
            | VictimEvent::RadioOn { at }
            | VictimEvent::RadioOff { at }
            | VictimEvent::Reconfig { at } => at,
        }
    }
}

/// One piecewise-constant span of a power signal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Constant available power over the span.
    pub power: Watts,
    /// Time at which the power next changes (`+inf` for a constant
    /// tail). The adaptive kernel integrates analytically up to here.
    pub end: Seconds,
}

impl Segment {
    /// A zero-power segment ending at `end`.
    pub fn dark(end: Seconds) -> Self {
        Self {
            power: Watts::ZERO,
            end,
        }
    }
}

/// A streaming harvested-power signal: seeded, piecewise-constant, and
/// (for generative models) unbounded.
///
/// Implementations take `&mut self` because they are cursors — they
/// cache the segment covering the last query — but they must behave as
/// pure functions of time: any query order yields the same values, with
/// non-monotone queries handled by an internal rewind.
pub trait PowerSource: std::fmt::Debug + Send {
    /// Human-readable source name (shows up in scenario listings).
    fn name(&self) -> &str;

    /// The piecewise-constant segment covering `t`. Negative or
    /// non-finite times yield a degenerate zero segment.
    fn segment(&mut self, t: Seconds) -> Segment;

    /// Available power at `t`; the default resolves through
    /// [`PowerSource::segment`].
    fn power_at(&mut self, t: Seconds) -> Watts {
        self.segment(t).power
    }

    /// Bounded signal duration, or `None` for unbounded streaming
    /// sources. Bounded sources deliver zero power past their duration
    /// (matching [`PowerTrace::power_at`] semantics); simulations over
    /// unbounded sources must pick an explicit horizon.
    fn duration(&self) -> Option<Seconds> {
        None
    }

    /// Feedback channel: the simulator reports externally visible
    /// victim behavior ([`VictimEvent`]) back to the environment.
    /// Benign sources ignore it (this default); stateful adversaries
    /// adapt their strike schedule to it. Implementations must stay
    /// causal — an event at `t` may only change outputs at times `≥ t`.
    fn observe(&mut self, event: VictimEvent) {
        let _ = event;
    }

    /// Clones the source behind a box, preserving seed and
    /// configuration (the cursor position need not survive — a clone
    /// may rewind). Lets `Box<dyn PowerSource>` registries hand out
    /// per-run cursors.
    fn clone_source(&self) -> Box<dyn PowerSource>;
}

impl PowerSource for Box<dyn PowerSource> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn segment(&mut self, t: Seconds) -> Segment {
        (**self).segment(t)
    }

    fn power_at(&mut self, t: Seconds) -> Watts {
        (**self).power_at(t)
    }

    fn duration(&self) -> Option<Seconds> {
        (**self).duration()
    }

    fn observe(&mut self, event: VictimEvent) {
        (**self).observe(event)
    }

    fn clone_source(&self) -> Box<dyn PowerSource> {
        (**self).clone_source()
    }
}

impl Clone for Box<dyn PowerSource> {
    fn clone(&self) -> Self {
        self.clone_source()
    }
}

/// Clamps a computed segment end to land strictly after the query
/// time `t` (which must be finite and non-negative — models
/// early-return degenerate segments before reaching their end
/// arithmetic otherwise). Base-plus-offset boundary arithmetic can
/// round an end back onto `t` itself — `floor(t/period)·period +
/// breakpoint` with an inexact breakpoint, or `(idx+1)·dt` on a
/// quantized grid — which would hand segment walkers a non-advancing
/// window and hang them. Every model routes its final end through
/// here, so the `end > t` trait contract holds at every representable
/// time; the claimed constant span in the degenerate case is one ulp
/// (trivially true), which the kernel treats as a fine step anyway.
#[inline]
pub(crate) fn end_after(t: f64, end: f64) -> f64 {
    if end > t {
        end
    } else {
        f64::from_bits(t.to_bits() + 1)
    }
}

/// Splits `t ≥ 0` into `(cycle_base, phase)` for a periodic signal:
/// `cycle_base = floor(t/period)·period`, phase clamped non-negative.
/// The quotient can round *up* exactly at a cycle boundary, which would
/// otherwise yield a one-ulp-negative phase — and, downstream, an
/// underflowing breakpoint lookup or a non-advancing segment. Every
/// periodic model resolves its phase through here so that boundary
/// subtlety lives in one place.
#[inline]
pub(crate) fn cycle_phase(t: f64, period: f64) -> (f64, f64) {
    let base = (t / period).floor() * period;
    (base, (t - base).max(0.0))
}

/// A recorded [`PowerTrace`] viewed as a [`PowerSource`].
///
/// This is the adapter that makes every pre-existing code path one
/// instance of the streaming abstraction: the trace is held behind an
/// [`Arc`] (shared with sweep/matrix runners), and queries resolve
/// through a [`WindowCache`] fast path, so `power_at` here is
/// bit-identical to [`PowerTrace::power_at`] for every input.
///
/// [`WindowCache`]: react_traces::WindowCache
#[derive(Clone, Debug)]
pub struct TraceSource {
    trace: Arc<PowerTrace>,
    cache: react_traces::WindowCache,
}

impl TraceSource {
    /// Wraps a trace (owned or already shared) as a streaming source.
    pub fn new(trace: impl Into<Arc<PowerTrace>>) -> Self {
        let trace = trace.into();
        let mut cache = react_traces::WindowCache::new();
        cache.lookup(&trace, 0.0);
        Self { trace, cache }
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }
}

impl PowerSource for TraceSource {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn segment(&mut self, t: Seconds) -> Segment {
        let (power, end) = self.cache.lookup(&self.trace, t.get());
        // A query can land exactly on its window's float-degenerate
        // upper boundary (`(idx+1)·dt` rounds to `t` itself); the
        // power value stays `power_at(t)` bit-for-bit and the end is
        // nudged one ulp so walkers always advance.
        let end = if t.get() >= 0.0 && t.get().is_finite() {
            end_after(t.get(), end)
        } else {
            end
        };
        Segment {
            power: Watts::new(power),
            end: Seconds::new(end),
        }
    }

    fn duration(&self) -> Option<Seconds> {
        Some(self.trace.duration())
    }

    fn clone_source(&self) -> Box<dyn PowerSource> {
        Box::new(self.clone())
    }
}

/// Samples a source onto a fixed-`dt` grid, producing a bounded
/// [`PowerTrace`] with zero-order-hold semantics (sample `i` holds
/// `power_at(i·dt)`). The trace covers the *whole* horizon: when the
/// horizon is not a multiple of `dt`, the trailing partial window is
/// held at full width rather than dropped. This is the *opposite* of
/// how the engine normally consumes sources — the whole point of
/// streaming is never doing this at fine resolution over long
/// horizons — but it is what comparison baselines, CSV export, and the
/// round-trip tests need.
///
/// # Panics
///
/// Panics if `dt` is not positive or `horizon < dt`.
pub fn materialize(
    source: &mut dyn PowerSource,
    name: impl Into<String>,
    dt: Seconds,
    horizon: Seconds,
) -> PowerTrace {
    assert!(dt.get() > 0.0, "sample interval must be positive");
    assert!(horizon >= dt, "horizon shorter than one sample");
    // Ceil so no tail of the horizon is silently zeroed; the 1e-9
    // guard keeps near-exact quotients (600.0 / 0.1 → 6000.000…01)
    // from gaining a spurious extra sample.
    let n = ((horizon.get() / dt.get()) - 1e-9).ceil().max(1.0) as usize;
    let samples = (0..n)
        .map(|i| source.power_at(Seconds::new(i as f64 * dt.get())))
        .collect();
    PowerTrace::new(name, dt, samples)
}

/// Environment-side outage statistics over a bounded window, computed
/// by walking native segments (the signal is never materialized).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DarkStats {
    /// Longest contiguous span at or below the dark floor, in seconds
    /// (adjacent dark segments are merged).
    pub longest_dark_s: f64,
    /// Fraction of the window spent at or below the dark floor.
    pub dark_fraction: f64,
    /// Native piecewise-constant segments the window decomposes into —
    /// the work the adaptive kernel actually pays for the environment.
    pub segments: u64,
}

/// Walks `source` segment by segment over `[0, horizon)` and reduces it
/// to [`DarkStats`] against a `floor` power threshold. This is the
/// environment half of the scenario report's responsiveness story: the
/// longest outage an environment *presents* is what a buffer's longest
/// outage *survived* is judged against.
pub fn dark_stats(source: &mut dyn PowerSource, horizon: Seconds, floor: Watts) -> DarkStats {
    assert!(
        horizon.get() > 0.0 && horizon.get().is_finite(),
        "dark_stats needs a bounded positive window"
    );
    let mut stats = DarkStats::default();
    let mut dark_run = 0.0_f64;
    let mut dark_total = 0.0_f64;
    let mut t = 0.0;
    while t < horizon.get() {
        let seg = source.segment(Seconds::new(t));
        let end = seg.end.get().min(horizon.get());
        let span = (end - t).max(0.0);
        stats.segments += 1;
        if seg.power <= floor {
            dark_run += span;
            dark_total += span;
            stats.longest_dark_s = stats.longest_dark_s.max(dark_run);
        } else {
            dark_run = 0.0;
        }
        if seg.end.get() >= horizon.get() {
            break;
        }
        // Defense in depth: a source that ever hands back a
        // non-advancing segment (contract violation) must not hang the
        // walk — step one ulp and keep going.
        t = if seg.end.get() > t {
            seg.end.get()
        } else {
            f64::from_bits(t.to_bits() + 1)
        };
    }
    stats.dark_fraction = dark_total / horizon.get();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_traces::PowerTrace;

    fn ramp() -> PowerTrace {
        let samples = (0..10).map(|i| Watts::from_milli(i as f64)).collect();
        PowerTrace::new("ramp", Seconds::new(0.5), samples)
    }

    #[test]
    fn trace_source_matches_power_at_everywhere() {
        let trace = ramp();
        let mut source = TraceSource::new(trace.clone());
        let mut time = -0.25;
        while time < 6.5 {
            let s = Seconds::new(time);
            assert_eq!(source.power_at(s), trace.power_at(s), "at t={time}");
            time += 0.003;
        }
        // Scrambled probes, including past-end, negative, and NaN.
        for &time in &[3.1, 0.2, 4.9, 0.0, 7.5, -1.0, 2.6, 100.0, 1.1] {
            let s = Seconds::new(time);
            assert_eq!(source.power_at(s), trace.power_at(s), "at t={time}");
        }
        assert_eq!(source.power_at(Seconds::new(f64::NAN)), Watts::ZERO);
    }

    #[test]
    fn trace_source_segments_cover_sample_windows() {
        let trace = ramp();
        let mut source = TraceSource::new(trace);
        let seg = source.segment(Seconds::new(1.26));
        assert!((seg.power.to_milli() - 2.0).abs() < 1e-12);
        assert!((seg.end.get() - 1.5).abs() < 1e-12);
        // Past the end: the infinite zero tail.
        let seg = source.segment(Seconds::new(9.0));
        assert_eq!(seg.power, Watts::ZERO);
        assert_eq!(seg.end.get(), f64::INFINITY);
        assert_eq!(source.duration(), Some(Seconds::new(5.0)));
    }

    #[test]
    fn materialize_round_trips_a_trace() {
        let trace = ramp();
        let mut source = TraceSource::new(trace.clone());
        let back = materialize(&mut source, "ramp", Seconds::new(0.5), Seconds::new(5.0));
        assert_eq!(back, trace);
    }

    #[test]
    fn segment_walk_advances_across_degenerate_dt_boundaries() {
        // 0.1 s is inexact in binary: for some k, `k·0.1` rounds to a
        // double whose quotient by 0.1 floors back to `k − 1`, so a
        // walker standing exactly on that boundary used to get a
        // window ending at its own query time and spin forever (seen
        // at t = 43·0.1 on the RF Cart paper trace). The source must
        // uphold the `end > t` contract at every representable time.
        let trace = PowerTrace::constant(
            "w",
            Watts::from_milli(1.0),
            Seconds::new(100.0),
            Seconds::new(0.1),
        );
        let mut source = TraceSource::new(trace);
        let mut t = 0.0;
        let mut n = 0u64;
        while t < 100.0 {
            let seg = source.segment(Seconds::new(t));
            assert!(seg.end.get() > t, "non-advancing segment at t={t}");
            n += 1;
            assert!(n < 1_100, "walk did not terminate");
            t = seg.end.get();
        }
    }

    #[test]
    fn periodic_models_advance_across_inexact_breakpoints() {
        // `floor(t/period)·period + breakpoint` with an inexact 0.1 s
        // breakpoint rounds an interval end back onto the query time a
        // few cycles in (verified numerically: a Mobility walker used
        // to stall on the third segment with period 0.7). Every
        // periodic model must keep `end > t` anyway.
        let mut m = crate::Mobility::cyclic(
            "m",
            vec![
                (Seconds::new(0.0), Watts::from_milli(1.0)),
                (Seconds::new(0.1), Watts::from_milli(2.0)),
            ],
            Seconds::new(0.7),
        );
        let mut t = 0.0;
        for _ in 0..64 {
            let seg = m.segment(Seconds::new(t));
            assert!(seg.end.get() > t, "mobility stalled at t={t:.17}");
            t = seg.end.get();
        }
        // Same base-plus-offset arithmetic under an attack wrapper.
        let mut a = crate::EnergyAttack::new(m).with_blackout(
            Seconds::new(0.7),
            Seconds::new(0.1),
            Seconds::new(0.3),
        );
        let mut t = 0.0;
        for _ in 0..64 {
            let seg = a.segment(Seconds::new(t));
            assert!(seg.end.get() > t, "attack stalled at t={t:.17}");
            t = seg.end.get();
        }
    }

    #[test]
    fn dark_stats_merge_adjacent_dark_segments() {
        // 0-2 s dark, 2-3 s lit, 3-5 s dark (two 1 s samples merge).
        let samples = vec![
            Watts::ZERO,
            Watts::ZERO,
            Watts::from_milli(5.0),
            Watts::ZERO,
            Watts::ZERO,
        ];
        let trace = PowerTrace::new("d", Seconds::new(1.0), samples);
        let mut source = TraceSource::new(trace);
        let stats = dark_stats(&mut source, Seconds::new(5.0), Watts::from_micro(1.0));
        assert!((stats.longest_dark_s - 2.0).abs() < 1e-9, "{stats:?}");
        assert!((stats.dark_fraction - 0.8).abs() < 1e-9, "{stats:?}");
        assert!(stats.segments >= 4);
        // The window clamps: only the first dark second counts.
        let mut source = TraceSource::new(PowerTrace::new(
            "d2",
            Seconds::new(1.0),
            vec![Watts::ZERO, Watts::from_milli(1.0)],
        ));
        let stats = dark_stats(&mut source, Seconds::new(1.5), Watts::from_micro(1.0));
        assert!((stats.longest_dark_s - 1.0).abs() < 1e-9, "{stats:?}");
    }

    #[test]
    fn node_salt_fan_out_is_distinct_and_identity_preserving() {
        // Fleet seed 0 node 0 must be the canonical (unsalted) stream.
        assert_eq!(node_salt(0, 0), 0);
        // Consecutive node indices must land on decorrelated salts, and
        // different fleet seeds must not collide for the same node.
        let mut seen = std::collections::HashSet::new();
        for node in 0..10_000u64 {
            assert!(seen.insert(node_salt(7, node)), "collision at node {node}");
        }
        for node in 1..1_000u64 {
            assert_ne!(node_salt(7, node), node_salt(8, node));
            // And no low-bit degeneracy: neighbors differ in many bits.
            let x = node_salt(7, node) ^ node_salt(7, node + 1);
            assert!(x.count_ones() > 8, "weak diffusion at node {node}");
        }
    }

    #[test]
    fn boxed_sources_clone_and_forward() {
        let mut boxed: Box<dyn PowerSource> = Box::new(TraceSource::new(ramp()));
        let mut copy = boxed.clone();
        let t = Seconds::new(2.6);
        assert_eq!(boxed.power_at(t), copy.power_at(t));
        assert_eq!(boxed.name(), "ramp");
        assert_eq!(boxed.duration(), Some(Seconds::new(5.0)));
    }
}
