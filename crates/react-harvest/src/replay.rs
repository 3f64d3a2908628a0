//! Ekho-style record-and-replay power frontend (§4.3), generalized
//! over streaming sources.

use std::sync::Arc;

use react_env::{PowerSource, TraceSource, VictimEvent};
use react_traces::PowerTrace;
use react_units::{Seconds, Volts, Watts};

use crate::Converter;

/// Replays a power source into a buffer through a converter model.
///
/// The paper's frontend drives the energy buffer from a high-drive DAC,
/// measuring load voltage and current and servoing the DAC to the
/// programmed power level; we model the steady-state result: at time `t`
/// the rail receives `η(P_avail(t)) · P_avail(t)` watts. Each buffer
/// turns that power into charge at its receiving element's voltage,
/// under the harvester IC's charge-current ceiling
/// (`react_buffers::power_intake`).
///
/// `PowerReplay` is generic over its [`PowerSource`]. The default is
/// [`TraceSource`] — a recorded [`PowerTrace`] held behind an [`Arc`]
/// so parallel sweep/matrix runners share samples without cloning —
/// and `PowerReplay::new(trace, ..)` still builds exactly that. Any
/// other source (the generative `react-env` models, unbounded and
/// never materialized) goes through [`PowerReplay::from_source`].
#[derive(Clone, Debug)]
pub struct PowerReplay<S = TraceSource> {
    source: S,
    converter: Converter,
}

impl PowerReplay<TraceSource> {
    /// Creates a trace-replay frontend (the recorded-trace path every
    /// paper experiment uses).
    pub fn new(trace: impl Into<Arc<PowerTrace>>, converter: Converter) -> Self {
        Self::from_source(TraceSource::new(trace), converter)
    }
}

impl<S: PowerSource + Clone> PowerReplay<S> {
    /// Creates a replay frontend over any streaming source.
    pub fn from_source(source: S, converter: Converter) -> Self {
        Self { source, converter }
    }

    /// The power source being replayed.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// The converter model in use.
    pub fn converter(&self) -> &Converter {
        &self.converter
    }

    /// Bounded source duration, or `None` for unbounded streaming
    /// environments (which need an explicit simulation horizon).
    pub fn source_duration(&self) -> Option<Seconds> {
        self.source.duration()
    }

    /// Rail power delivered for `available` ambient power with the
    /// buffer at `v_buffer` — the conversion step with the source lookup
    /// already done, so callers holding the available power from a
    /// previous query don't pay it twice.
    #[inline]
    pub fn rail_power_from(&self, available: Watts, v_buffer: Volts) -> Watts {
        self.converter.output_power(available, v_buffer)
    }

    /// Starts a stepping cursor over a copy of the replay: the cursor
    /// owns its own source clone (sources are stateful segment walkers),
    /// so each run streams independently while the replay itself stays
    /// shareable.
    pub fn cursor(&self) -> ReplayCursor<S> {
        self.clone().into_cursor()
    }

    /// Turns the replay into its stepping cursor, handing the cursor the
    /// replay's own source to walk (the simulation engine's path: it
    /// owns its replay already, so nothing is cloned).
    pub fn into_cursor(self) -> ReplayCursor<S> {
        ReplayCursor {
            replay: self,
            window: RailWindow::EMPTY,
        }
    }
}

/// The stepping input of one run: a [`PowerReplay`] whose source the
/// cursor walks, plus the current source segment *after conversion*.
///
/// Sources are piecewise constant and the converter's efficiency curve
/// and cold-start floor are static functions of available power, so the
/// rail power is constant over a whole segment except for the OVP
/// cutoff, which depends on the rail voltage. The cursor therefore
/// converts once per segment and each later query inside the segment
/// checks only the cutoff. A query is served from the cache while
/// `from ≤ t < two_ulps_down(end)`: [`react_traces::two_ulps_down`] is
/// the same conservative bound [`react_traces::WindowCache`] uses,
/// because a recorded trace can read the next sample in the last ulps
/// below a computed window end. Every other query re-reads the source
/// segment, and [`ReplayCursor::observe`] drops the cache, since an
/// adaptive source may commit new strike windows in response.
///
/// Answers are bit-identical to `rail_power_from(power_at(t), v)` for
/// every query order; the simulator's monotone access pattern pays one
/// source lookup per segment instead of one per step.
#[derive(Clone, Debug)]
pub struct ReplayCursor<S = TraceSource> {
    replay: PowerReplay<S>,
    window: RailWindow,
}

/// One cached converted segment (see [`ReplayCursor`]).
#[derive(Clone, Copy, Debug)]
struct RailWindow {
    /// The query time the segment was read at: the cache's lower bound.
    from: f64,
    /// `two_ulps_down(segment end)`: the cache's strict upper bound.
    until: f64,
    /// The converted rail power, before the OVP cutoff.
    rail: Watts,
}

impl RailWindow {
    /// A cache no query hits.
    const EMPTY: Self = Self {
        from: f64::INFINITY,
        until: f64::NEG_INFINITY,
        rail: Watts::ZERO,
    };
}

impl<S: PowerSource + Clone> ReplayCursor<S> {
    /// Reads the source segment covering `t`, caches its conversion and
    /// returns its end.
    fn refill(&mut self, t: Seconds) -> Seconds {
        let seg = self.replay.source.segment(t);
        self.window = RailWindow {
            from: t.get(),
            until: react_traces::two_ulps_down(seg.end.get()),
            rail: self.replay.converter.converted_power(seg.power),
        };
        seg.end
    }

    /// The cached rail power with the OVP cutoff applied at `v_buffer`.
    #[inline]
    fn cut_off(&self, v_buffer: Volts) -> Watts {
        if self.replay.converter.ovp_cuts_off(v_buffer) {
            Watts::ZERO
        } else {
            self.window.rail
        }
    }

    /// Rail power delivered at `t` with the buffer at `v_buffer`: the
    /// fine-step query, served from the cached segment.
    #[inline]
    pub fn rail_power(&mut self, t: Seconds, v_buffer: Volts) -> Watts {
        let tt = t.get();
        if !(tt >= self.window.from && tt < self.window.until) {
            self.refill(t);
        }
        self.cut_off(v_buffer)
    }

    /// The piecewise-constant span covering `t` *after conversion*: the
    /// rail power the buffer charges from over the span, plus the
    /// next-event hint (`+inf` on a constant tail). Because the
    /// converter's efficiency curve is a static function of available
    /// power (and its OVP cutoff sits above every buffer's rail clamp),
    /// one conversion covers the whole segment, so the closed-form
    /// strides survive non-ideal converters unchanged. Always reads the
    /// source, and leaves the span cached for the fine steps after it.
    #[inline]
    pub fn rail_window(&mut self, t: Seconds, v_buffer: Volts) -> (Watts, Seconds) {
        let end = self.refill(t);
        (self.cut_off(v_buffer), end)
    }

    /// The raw source span covering `t`: available power (before
    /// conversion) plus the time at which it next changes.
    #[inline]
    pub fn sample_window(&mut self, t: Seconds) -> (Watts, Seconds) {
        let seg = self.replay.source.segment(t);
        (seg.power, seg.end)
    }

    /// Forwards a victim-side event to the underlying source's feedback
    /// channel and drops the cached segment. Benign sources ignore the
    /// event; adaptive adversaries ([`react_env::AdaptiveAttack`])
    /// commit strike windows in response. Only this cursor's private
    /// source observes the event — the replay it was cloned from stays
    /// untouched, so parallel runs never leak feedback into each other.
    #[inline]
    pub fn observe(&mut self, event: VictimEvent) {
        self.window = RailWindow::EMPTY;
        self.replay.source.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_env::{AdaptiveAttack, AttackPolicy, MarkovRf};
    use react_traces::PowerTrace;

    fn replay(power_mw: f64) -> PowerReplay {
        let trace = PowerTrace::constant(
            "const",
            Watts::from_milli(power_mw),
            Seconds::new(100.0),
            Seconds::new(0.1),
        );
        PowerReplay::new(trace, Converter::ideal())
    }

    #[test]
    fn no_power_after_trace_ends() {
        let mut input = replay(3.3).cursor();
        assert_eq!(
            input.rail_power(Seconds::new(200.0), Volts::new(2.0)),
            Watts::ZERO
        );
    }

    #[test]
    fn converter_losses_reduce_rail_power() {
        let trace = PowerTrace::constant(
            "c",
            Watts::from_milli(10.0),
            Seconds::new(10.0),
            Seconds::new(0.1),
        );
        let ideal = PowerReplay::new(trace.clone(), Converter::ideal());
        let rf = PowerReplay::new(trace, Converter::rf_rectifier());
        let (v, t) = (Volts::new(2.0), Seconds::new(1.0));
        let rf_rail = rf.cursor().rail_power(t, v);
        assert!(rf_rail < ideal.cursor().rail_power(t, v));
        // 55 % at 10 mW.
        assert!((rf_rail.to_milli() - 5.5).abs() < 1e-6);
    }

    #[test]
    fn accessors() {
        let r = replay(1.0);
        assert_eq!(r.source_duration(), Some(Seconds::new(100.0)));
        assert_eq!(r.source().trace().name(), "const");
        assert_eq!(r.converter().kind(), crate::ConverterKind::Ideal);
    }

    #[test]
    fn cached_rail_power_matches_the_uncached_conversion_bit_for_bit() {
        // Samples straddle both converters' cold-start floors (5 µW and
        // 15 µW, one sample exactly on each), on an inexact 0.1 s grid
        // long enough to hold windows (16, 33, 38) whose last ulp reads
        // the next sample.
        let levels = [0.0, 4.0, 5.0, 6.0, 14.0, 15.0, 16.0, 900.0, 2.0e4];
        let samples = (0..40).map(|i| Watts::from_micro(levels[i % 9])).collect();
        let trace = PowerTrace::new("floors", Seconds::new(0.1), samples);
        // Rail voltages on both sides of the 4.2 V OVP cutoff, one ulp
        // below it and exactly on it.
        let below_ovp = f64::from_bits(4.2_f64.to_bits() - 1);
        let volts = [0.0, 2.5, below_ovp, 4.2, 5.0].map(Volts::new);
        // An adversary that blacks the source out the instant it sees
        // a boot: a cursor that kept its window across the event would
        // answer with the pre-strike power.
        let striking = AdaptiveAttack::new(
            TraceSource::new(trace.clone()),
            AttackPolicy::BootTriggered {
                delay: Seconds::ZERO,
                strike: Seconds::new(0.05),
                rearm: Seconds::ZERO,
            },
        );
        for converter in [Converter::rf_rectifier(), Converter::boost_charger()] {
            check_cursor(&PowerReplay::new(trace.clone(), converter.clone()), &volts);
            check_cursor(
                &PowerReplay::from_source(striking.clone(), converter),
                &volts,
            );
        }
    }

    /// Walks a 1 ms grid through `replay` with a cursor, a stride window
    /// and a boot now and then, then probes the last two ulps below
    /// every window end from inside the window, comparing every answer
    /// bit for bit with the uncached conversion of an independent
    /// source clone that sees the same events.
    fn check_cursor<S: PowerSource + Clone>(replay: &PowerReplay<S>, volts: &[Volts]) {
        let mut cursor = replay.cursor();
        let mut uncached = replay.source().clone();
        let mut t = 0.0;
        let mut i = 0usize;
        while t < 4.2 {
            let v = volts[i % volts.len()];
            let at = Seconds::new(t);
            let got = match i % 97 {
                // Strides read the window; feedback drops the cache.
                0 => cursor.rail_window(at, v).0,
                50 => {
                    cursor.observe(VictimEvent::Boot { at });
                    uncached.observe(VictimEvent::Boot { at });
                    cursor.rail_power(at, v)
                }
                _ => cursor.rail_power(at, v),
            };
            let want = replay.rail_power_from(uncached.power_at(at), v);
            assert_eq!(got.get().to_bits(), want.get().to_bits(), "t={t} v={v:?}");
            t += 1e-3;
            i += 1;
        }
        let v = volts[1];
        for k in 0..40 {
            let (_, end) = cursor.rail_window(Seconds::new((k as f64 + 0.5) * 0.1), v);
            for ulps in [2, 1] {
                let at = Seconds::new(f64::from_bits(end.get().to_bits() - ulps));
                let want = replay.rail_power_from(uncached.power_at(at), v);
                let got = cursor.rail_power(at, v);
                assert_eq!(
                    got.get().to_bits(),
                    want.get().to_bits(),
                    "{ulps} ulps below {end:?}"
                );
            }
        }
    }

    #[test]
    fn streaming_source_replay_has_no_bounded_duration() {
        let field = MarkovRf::new(
            "ge",
            Watts::from_milli(5.0),
            Watts::from_micro(20.0),
            Seconds::new(5.0),
            Seconds::new(30.0),
            9,
        );
        let r = PowerReplay::from_source(field, Converter::ideal());
        assert_eq!(r.source_duration(), None);
        let mut cursor = r.cursor();
        // The cursor streams segments with finite next-event hints.
        let (p, end) = cursor.sample_window(Seconds::new(10.0));
        assert!(p.get() >= 0.0);
        assert!(end.get() > 10.0 && end.get().is_finite());
        // Two cursors over the same replay see the same seeded stream.
        let mut other = r.cursor();
        for i in 0..500 {
            let t = Seconds::new(i as f64 * 0.7);
            assert_eq!(
                cursor.rail_power(t, Volts::new(2.5)),
                other.rail_power(t, Volts::new(2.5))
            );
        }
    }
}
