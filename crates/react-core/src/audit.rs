//! Online invariant auditing: cross-checking committed coarse strides.
//!
//! The adaptive kernel's closed forms integrate with the buffer's
//! *believed* (datasheet) component values. Under hardware drift
//! ([`react_circuit::FaultPlan`]) those values go stale, and every
//! coarse stride silently books physics that no longer happen. The
//! [`InvariantAuditor`] rides the stride-commit seam and checks each
//! committed stride against invariants the honest fine integrator
//! maintains by construction:
//!
//! * **Energy-conservation ledger residual** — per-stride, the booked
//!   `Δdelivered` must equal the booked losses plus the observed change
//!   in stored energy. The closed forms book `delivered := ΔE + losses`
//!   so benign strides hold this to rounding dust; a capacitance-fade
//!   fault leaves a `½·(C_believed − C_actual)·Δ(v²)` residual.
//! * **Voltage-bound and dwell sanity** — the committed rail voltage is
//!   finite and inside physical bounds; the stride advanced a positive
//!   span no longer than its window.
//! * **Harvest bound** — energy booked as harvested over the stride
//!   cannot exceed the rail power times the span.
//! * **Sampled leakage shadow check** — a self-consistent believed
//!   model hides leakage growth from the residual (the books balance
//!   around the wrong leakage), so the auditor compares the believed
//!   leakage booking against a trapezoid estimate from the buffer's
//!   *actual*-law [`leakage probes`](react_buffers::EnergyBuffer::leakage_probe)
//!   at the stride endpoints, gated to strides with a small relative
//!   voltage change where the two-point quadrature is trustworthy.
//!
//! On divergence the engine degrades the faulted regime's fast path to
//! fine stepping for the rest of the run (the fine integrator always
//! uses the live, drifted spec) — the same graceful-degradation posture
//! as the NaN invariant guard, surfaced through
//! [`FallbackReason::AuditDegraded`](react_telemetry::FallbackReason)
//! and the `audit_*` counters in [`RunMetrics`](crate::RunMetrics).

use react_buffers::EnergyBuffer;
use react_circuit::EnergyLedger;
use react_units::{Joules, Seconds, Volts, Watts};

/// The [`InvariantAuditor`]'s one setting. Its tolerances are the
/// constants below.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditConfig {
    /// Stride-length clamp while auditing: bounds how far one wrong
    /// closed-form stride can run before its commit is cross-checked,
    /// i.e. the worst-case detection latency in simulated seconds.
    pub max_stride: Seconds,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            max_stride: Seconds::new(300.0),
        }
    }
}

/// Absolute slack on the per-stride ledger residual, in joules. Benign
/// strides hold the residual to floating-point dust, so this only needs
/// to cover rounding noise.
const RESIDUAL_ABS: Joules = Joules::new(1e-9);
/// Relative slack on the ledger residual, scaled by the run's
/// cumulative energy magnitude.
const RESIDUAL_REL: f64 = 1e-9;
/// Absolute slack on the harvest bound, in joules.
const HARVEST_ABS: Joules = Joules::new(1e-9);
/// Relative slack on the harvest bound.
const HARVEST_REL: f64 = 1e-6;
/// Absolute floor under which the leakage shadow check never trips
/// (sub-`LEAK_ABS` bookings are numerically indistinct), in joules.
const LEAK_ABS: Joules = Joules::new(1e-5);
/// Relative mismatch between the believed leakage booking and the
/// actual-law trapezoid estimate that trips the shadow check. Loose by
/// design: the two-point quadrature is approximate, and real drift
/// grows leakage by integer factors.
const LEAK_REL: f64 = 0.35;
/// Largest relative voltage change across a stride for which the
/// leakage shadow check is attempted (beyond it the endpoint trapezoid
/// is not a credible quadrature).
const LEAK_DV_REL: f64 = 0.1;
/// Any committed rail voltage above this is a violation outright.
const V_MAX: Volts = Volts::new(6.0);

/// Pre-stride state captured for the post-commit cross-check.
#[derive(Clone, Copy, Debug)]
pub struct AuditSnapshot {
    ledger: EnergyLedger,
    stored: Joules,
    voltage: Volts,
    leak_power: Option<Watts>,
}

impl AuditSnapshot {
    /// Captures the buffer's books, stored energy, rail voltage, and
    /// actual-law leakage power immediately before a stride.
    pub fn capture<B: EnergyBuffer + ?Sized>(buffer: &B) -> Self {
        Self {
            ledger: *buffer.ledger(),
            stored: buffer.stored_energy(),
            voltage: buffer.rail_voltage(),
            leak_power: buffer.leakage_probe(),
        }
    }
}

/// The online stride auditor: counts checks and trips; the engine owns
/// the per-regime degradation flags.
#[derive(Clone, Debug)]
pub struct InvariantAuditor {
    config: AuditConfig,
    checks: u64,
    trips: u64,
}

impl InvariantAuditor {
    /// Creates an auditor with the given stride clamp.
    pub fn new(config: AuditConfig) -> Self {
        Self {
            config,
            checks: 0,
            trips: 0,
        }
    }

    /// The stride-length clamp the engine applies while auditing.
    pub fn max_stride(&self) -> Seconds {
        self.config.max_stride
    }

    /// Strides cross-checked so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Divergences detected so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Cross-checks one committed stride against the pre-stride
    /// snapshot. Returns `true` when the stride violated an invariant
    /// (the caller degrades the regime's fast path).
    pub fn check<B: EnergyBuffer + ?Sized>(
        &mut self,
        snap: &AuditSnapshot,
        buffer: &B,
        p_rail: Watts,
        advanced: Seconds,
        window: Seconds,
        dt: Seconds,
    ) -> bool {
        self.checks += 1;
        let tripped = self.violates(snap, buffer, p_rail, advanced, window, dt);
        if tripped {
            self.trips += 1;
        }
        tripped
    }

    fn violates<B: EnergyBuffer + ?Sized>(
        &self,
        snap: &AuditSnapshot,
        buffer: &B,
        p_rail: Watts,
        advanced: Seconds,
        window: Seconds,
        dt: Seconds,
    ) -> bool {
        let stored = buffer.stored_energy();
        let v = buffer.rail_voltage();

        // Voltage-bound and finiteness sanity.
        if !v.get().is_finite() || !stored.get().is_finite() {
            return true;
        }
        if v.get() < -1e-9 || v > V_MAX || stored.get() < -1e-9 {
            return true;
        }

        // Dwell sanity: a committed stride advanced a positive span no
        // longer than the window it was given (plus one quantization
        // step for grid round-up).
        if !advanced.get().is_finite()
            || advanced.get() <= 0.0
            || advanced.get() > window.get() + dt.get() + 1e-9
        {
            return true;
        }

        let after = buffer.ledger();
        let d = |a: Joules, b: Joules| a.get() - b.get();
        let delta_delivered = d(after.delivered, snap.ledger.delivered);
        let delta_leaked = d(after.leaked, snap.ledger.leaked);
        let losses = delta_leaked
            + d(after.switch_loss, snap.ledger.switch_loss)
            + d(after.diode_loss, snap.ledger.diode_loss)
            + d(after.load_consumed, snap.ledger.load_consumed)
            + d(after.overhead_consumed, snap.ledger.overhead_consumed);
        let delta_stored = stored.get() - snap.stored.get();

        // Energy-conservation ledger residual, against a cumulative
        // scale so week-long runs keep ulp headroom.
        let residual = delta_delivered - losses - delta_stored;
        let scale = after
            .delivered
            .get()
            .abs()
            .max(stored.get().abs())
            .max(snap.stored.get().abs());
        if residual.abs() > RESIDUAL_ABS.get() + RESIDUAL_REL * scale {
            return true;
        }

        // Harvest bound: the books cannot create rail energy.
        let delta_harvested = d(after.harvested, snap.ledger.harvested);
        let cap = p_rail.get().max(0.0) * advanced.get();
        if delta_harvested > cap + HARVEST_ABS.get() + HARVEST_REL * cap {
            return true;
        }

        // Sampled leakage shadow check: believed booking vs the
        // actual-law trapezoid, only where the quadrature is credible.
        if let (Some(p0), Some(p1)) = (snap.leak_power, buffer.leakage_probe()) {
            let dv = (v.get() - snap.voltage.get()).abs();
            if dv <= LEAK_DV_REL * snap.voltage.get().abs().max(0.1) {
                let est = 0.5 * (p0.get() + p1.get()) * advanced.get();
                let err = (delta_leaked - est).abs();
                if err > LEAK_ABS.get() + LEAK_REL * est.abs().max(delta_leaked.abs()) {
                    return true;
                }
            }
        }

        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_buffers::StaticBuffer;
    use react_circuit::FaultKind;

    fn charged_10mf(v: f64) -> StaticBuffer {
        let mut b = StaticBuffer::static_10mf();
        b.set_voltage(Volts::new(v));
        b
    }

    fn stride(b: &mut StaticBuffer, p_mw: f64, span_s: f64) -> Seconds {
        b.idle_advance(
            Watts::from_milli(p_mw),
            Seconds::new(span_s),
            Volts::new(3.3),
            Seconds::from_milli(1.0),
        )
    }

    #[test]
    fn benign_strides_never_trip() {
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let mut b = charged_10mf(1.0);
        for _ in 0..20 {
            let snap = AuditSnapshot::capture(&b);
            let advanced = stride(&mut b, 2.0, 60.0);
            if advanced.get() == 0.0 {
                break;
            }
            assert!(!aud.check(
                &snap,
                &b,
                Watts::from_milli(2.0),
                advanced,
                Seconds::new(60.0),
                Seconds::from_milli(1.0),
            ));
        }
        assert!(aud.checks() > 0);
        assert_eq!(aud.trips(), 0);
    }

    #[test]
    fn capacitance_fade_trips_the_ledger_residual() {
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let mut b = charged_10mf(1.5);
        assert!(b.apply_fault(FaultKind::CapacitanceFade { factor: 0.7 }));
        let snap = AuditSnapshot::capture(&b);
        let advanced = stride(&mut b, 2.0, 60.0);
        assert!(advanced.get() > 0.0);
        assert!(aud.check(
            &snap,
            &b,
            Watts::from_milli(2.0),
            advanced,
            Seconds::new(60.0),
            Seconds::from_milli(1.0),
        ));
        assert_eq!(aud.trips(), 1);
    }

    #[test]
    fn leakage_growth_trips_the_shadow_check() {
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        // Pure leak decay, with the stride sized off the datasheet
        // leakage power so the booked energy clears the absolute floor
        // while the voltage barely moves (the shadow check's gated
        // regime).
        let mut b = charged_10mf(3.0);
        let p_datasheet = b.leakage_probe().expect("statics probe").get();
        assert!(b.apply_fault(FaultKind::LeakageGrowth { factor: 8.0 }));
        let span = (5e-4 / p_datasheet.max(1e-12)).clamp(10.0, 3000.0);
        let snap = AuditSnapshot::capture(&b);
        let advanced = stride(&mut b, 0.0, span);
        assert!(advanced.get() > 0.0);
        assert!(aud.check(
            &snap,
            &b,
            Watts::ZERO,
            advanced,
            Seconds::new(span),
            Seconds::from_milli(1.0),
        ));
    }

    #[test]
    fn dwell_overrun_trips() {
        let mut aud = InvariantAuditor::new(AuditConfig::default());
        let mut b = charged_10mf(1.0);
        let snap = AuditSnapshot::capture(&b);
        let advanced = stride(&mut b, 2.0, 60.0);
        // Claim the window was shorter than the committed span.
        assert!(aud.check(
            &snap,
            &b,
            Watts::from_milli(2.0),
            advanced,
            Seconds::new(advanced.get() / 2.0),
            Seconds::from_milli(1.0),
        ));
    }
}
