//! Energy-attack adversary: blackouts that starve the harvester and
//! spoofed bursts that trick it.
//!
//! Application-aware energy attacks (see PAPERS.md, "Application-aware
//! Energy Attack Mitigation in the Battery-less IoT") come in two
//! flavors this model reproduces as a wrapper around any benign
//! environment:
//!
//! * **blackout** — the attacker suppresses the field in periodic
//!   windows, starving the node exactly when it expects income, and
//! * **spoofed burst** — the attacker presents a strong fake field in
//!   short windows, baiting an adaptive buffer into reconfiguring for
//!   surplus (REACT expanding its bank array) before yanking the power.
//!
//! Windows are deterministic periodic spans, so attacked environments
//! stay seeded-reproducible end to end.

use react_units::{Seconds, Watts};

use crate::source::{PowerSource, Segment, VictimEvent};

/// A periodic attack window: active whenever
/// `t mod period ∈ [offset, offset + len)`.
#[derive(Clone, Copy, Debug)]
struct AttackWindow {
    period: f64,
    offset: f64,
    len: f64,
}

impl AttackWindow {
    fn new(period: Seconds, offset: Seconds, len: Seconds) -> Self {
        let (period, offset, len) = (period.get(), offset.get(), len.get());
        assert!(period > 0.0, "attack period must be positive");
        assert!(len > 0.0, "attack window must have positive length");
        assert!(
            offset >= 0.0 && offset + len <= period,
            "attack window must fit inside the period"
        );
        Self {
            period,
            offset,
            len,
        }
    }

    /// Whether the window is active at `t ≥ 0`, plus the absolute time
    /// of the next activation edge (either kind).
    fn probe(&self, t: f64) -> (bool, f64) {
        let (cycle_base, phase) = crate::source::cycle_phase(t, self.period);
        if phase < self.offset {
            (false, cycle_base + self.offset)
        } else if phase < self.offset + self.len {
            (true, cycle_base + self.offset + self.len)
        } else {
            (false, cycle_base + self.period + self.offset)
        }
    }
}

/// An adversary wrapped around a benign power source.
///
/// Precedence: blackout beats spoof beats the inner environment (an
/// attacker that can null the field nulls its own bait too).
#[derive(Clone, Debug)]
pub struct EnergyAttack<S> {
    inner: S,
    name: String,
    blackout: Option<AttackWindow>,
    spoof: Option<AttackWindow>,
    spoof_power: f64,
}

impl<S: PowerSource> EnergyAttack<S> {
    /// Wraps `inner` with no attacks configured (a transparent
    /// pass-through until windows are added).
    pub fn new(inner: S) -> Self {
        let name = format!("attack({})", inner.name());
        Self {
            inner,
            name,
            blackout: None,
            spoof: None,
            spoof_power: 0.0,
        }
    }

    /// Adds periodic blackout windows
    /// (`t mod period ∈ [offset, offset + len)` → zero power).
    ///
    /// # Panics
    ///
    /// Panics unless the window fits inside a positive period.
    pub fn with_blackout(mut self, period: Seconds, offset: Seconds, len: Seconds) -> Self {
        self.blackout = Some(AttackWindow::new(period, offset, len));
        self
    }

    /// Adds periodic spoofed-burst windows presenting `power` regardless
    /// of the real field.
    ///
    /// # Panics
    ///
    /// Panics unless the window fits inside a positive period and
    /// `power` is non-negative.
    pub fn with_spoof(
        mut self,
        period: Seconds,
        offset: Seconds,
        len: Seconds,
        power: Watts,
    ) -> Self {
        assert!(power.get() >= 0.0, "spoof power must be non-negative");
        self.spoof = Some(AttackWindow::new(period, offset, len));
        self.spoof_power = power.get();
        self
    }
}

impl<S: PowerSource + Clone + 'static> PowerSource for EnergyAttack<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn segment(&mut self, t: Seconds) -> Segment {
        let tt = t.get();
        if !tt.is_finite() || tt < 0.0 {
            return Segment::dark(Seconds::ZERO);
        }
        // Always walk the inner source so its cursor stays warm, then
        // clip the segment at every attack-window edge. Shorter
        // segments are always safe — the kernel just strides again.
        let inner = self.inner.segment(t);
        let mut end = inner.end.get();
        let mut power = inner.power.get();
        if let Some(w) = self.spoof {
            let (active, edge) = w.probe(tt);
            if active {
                power = self.spoof_power;
            }
            end = end.min(edge);
        }
        if let Some(w) = self.blackout {
            let (active, edge) = w.probe(tt);
            if active {
                power = 0.0;
            }
            end = end.min(edge);
        }
        Segment {
            power: Watts::new(power),
            // Attack-window edges are `cycle_base + offset` sums that
            // can round back onto `t`; keep the walker advancing.
            end: Seconds::new(crate::source::end_after(tt, end)),
        }
    }

    fn duration(&self) -> Option<Seconds> {
        // Spoof windows inject power forever, regardless of the inner
        // source — a spoofed signal is never bounded. Blackouts only
        // null the field, so they preserve the inner bound (zero stays
        // zero past it).
        if self.spoof.is_some() {
            None
        } else {
            self.inner.duration()
        }
    }

    fn observe(&mut self, event: VictimEvent) {
        // The fixed-window adversary ignores feedback; its benign
        // inner environment still gets the forward (wrappers nest).
        self.inner.observe(event);
    }

    fn clone_source(&self) -> Box<dyn PowerSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mobility;

    fn steady(power_mw: f64) -> Mobility {
        Mobility::schedule(
            "steady",
            vec![(Seconds::new(0.0), Watts::from_milli(power_mw))],
        )
    }

    #[test]
    fn blackout_nulls_the_field_inside_windows() {
        let mut src = EnergyAttack::new(steady(2.0)).with_blackout(
            Seconds::new(100.0),
            Seconds::new(20.0),
            Seconds::new(10.0),
        );
        assert_eq!(src.power_at(Seconds::new(5.0)), Watts::from_milli(2.0));
        assert_eq!(src.power_at(Seconds::new(25.0)), Watts::ZERO);
        assert_eq!(src.power_at(Seconds::new(35.0)), Watts::from_milli(2.0));
        // And again next period.
        assert_eq!(src.power_at(Seconds::new(125.0)), Watts::ZERO);
        // Segment edges line up with window edges.
        let seg = src.segment(Seconds::new(5.0));
        assert!((seg.end.get() - 20.0).abs() < 1e-9);
        let seg = src.segment(Seconds::new(25.0));
        assert!((seg.end.get() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn spoof_presents_fake_power_and_blackout_wins() {
        let mut src = EnergyAttack::new(steady(1.0))
            .with_spoof(
                Seconds::new(60.0),
                Seconds::new(0.0),
                Seconds::new(5.0),
                Watts::from_milli(25.0),
            )
            .with_blackout(Seconds::new(60.0), Seconds::new(2.0), Seconds::new(6.0));
        // Spoof active, blackout not yet: bait power.
        assert_eq!(src.power_at(Seconds::new(1.0)), Watts::from_milli(25.0));
        // Both active: blackout wins.
        assert_eq!(src.power_at(Seconds::new(3.0)), Watts::ZERO);
        // Only blackout: still dark.
        assert_eq!(src.power_at(Seconds::new(6.0)), Watts::ZERO);
        // Neither: the real field.
        assert_eq!(src.power_at(Seconds::new(30.0)), Watts::from_milli(1.0));
    }

    #[test]
    fn spoof_unbinds_duration_but_blackout_preserves_it() {
        use crate::TraceSource;
        use react_traces::PowerTrace;

        let trace = PowerTrace::constant(
            "t",
            Watts::from_milli(2.0),
            Seconds::new(10.0),
            Seconds::new(0.1),
        );
        // Blackouts only null the field: past the inner end the signal
        // stays zero, so the bound survives.
        let mut dark = EnergyAttack::new(TraceSource::new(trace.clone())).with_blackout(
            Seconds::new(4.0),
            Seconds::new(1.0),
            Seconds::new(1.0),
        );
        assert_eq!(dark.duration(), Some(Seconds::new(10.0)));
        assert_eq!(dark.power_at(Seconds::new(50.0)), Watts::ZERO);
        // A spoofed field keeps injecting power forever, so the source
        // must report itself unbounded.
        let mut baited = EnergyAttack::new(TraceSource::new(trace)).with_spoof(
            Seconds::new(4.0),
            Seconds::new(0.0),
            Seconds::new(1.0),
            Watts::from_milli(25.0),
        );
        assert_eq!(baited.duration(), None);
        assert_eq!(baited.power_at(Seconds::new(40.5)), Watts::from_milli(25.0));
    }

    #[test]
    fn window_boundary_ulp_probes_always_advance() {
        let mut src = EnergyAttack::new(steady(1.0)).with_blackout(
            Seconds::new(100.0),
            Seconds::new(0.0),
            Seconds::new(10.0),
        );
        for k in 1..500u64 {
            let boundary = k as f64 * 100.0;
            for ulps in [-2i64, -1, 0, 1, 2] {
                let tt = f64::from_bits((boundary.to_bits() as i64 + ulps) as u64);
                let seg = src.segment(Seconds::new(tt));
                assert!(seg.end.get() > tt, "segment stalled at {tt}");
            }
        }
    }

    #[test]
    fn pass_through_without_windows() {
        let mut src = EnergyAttack::new(steady(3.0));
        let seg = src.segment(Seconds::new(42.0));
        assert_eq!(seg.power, Watts::from_milli(3.0));
        assert_eq!(seg.end.get(), f64::INFINITY);
        assert_eq!(src.name(), "attack(steady)");
    }
}
