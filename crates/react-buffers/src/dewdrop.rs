//! Dewdrop-style adaptive-enable-voltage buffer (extension baseline).
//!
//! Dewdrop \[6\] keeps a single static capacitor but varies the *enable
//! voltage*: instead of waiting for a fixed 3.3 V, the runtime computes
//! the voltage at which the buffer holds exactly enough energy for the
//! next task quantum and starts there. Energy stays fully fungible, but
//! the reactivity–longevity tradeoff of the capacitor size itself remains
//! (§2.4). This crate includes it as an extension baseline for the
//! ablations; it is not part of the paper's evaluated set.

use react_circuit::{CapacitorSpec, EnergyLedger};
use react_units::{Amps, Farads, Joules, Seconds, Volts, Watts};

use crate::{EnergyBuffer, StaticBuffer};

/// A static buffer that recommends a task-aware enable voltage.
#[derive(Clone, Debug)]
pub struct DewdropBuffer {
    inner: StaticBuffer,
    brownout: Volts,
    task_quantum: Joules,
}

impl DewdropBuffer {
    /// Creates a Dewdrop-style buffer over `spec` sized so one task
    /// quantum of `task_quantum` is available at the adaptive enable
    /// point.
    pub fn new(spec: CapacitorSpec, brownout: Volts, task_quantum: Joules) -> Self {
        Self {
            inner: StaticBuffer::new("Dewdrop", spec),
            brownout,
            task_quantum,
        }
    }

    /// Reference configuration: 3 mF supercap, 1.8 V brown-out, 5 mJ
    /// task quantum.
    pub fn reference() -> Self {
        Self::new(
            CapacitorSpec::supercap_scaled(Farads::from_milli(3.0)),
            Volts::new(1.8),
            Joules::from_milli(5.0),
        )
    }

    /// The adaptive enable voltage: the lowest voltage at which the
    /// buffer holds one task quantum above brown-out,
    /// `V = sqrt(V_br² + 2·E/C)`, clamped to the rail.
    pub fn adaptive_enable_voltage(&self) -> Volts {
        let c = self.inner.equivalent_capacitance().get();
        let v =
            (self.brownout.get() * self.brownout.get() + 2.0 * self.task_quantum.get() / c).sqrt();
        Volts::new(v.min(crate::static_buf::RAIL_CLAMP.get()))
    }

    /// Access to the underlying capacitor for test setup.
    pub fn set_voltage(&mut self, v: Volts) {
        self.inner.set_voltage(v);
    }
}

impl EnergyBuffer for DewdropBuffer {
    fn name(&self) -> &str {
        "Dewdrop"
    }

    fn rail_voltage(&self) -> Volts {
        self.inner.rail_voltage()
    }

    fn equivalent_capacitance(&self) -> Farads {
        self.inner.equivalent_capacitance()
    }

    fn stored_energy(&self) -> Joules {
        self.inner.stored_energy()
    }

    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        self.inner.usable_energy_above(v_floor)
    }

    /// Dewdrop's runtime reasons about energy-per-task, which is the
    /// same contract as the longevity API.
    fn supports_longevity(&self) -> bool {
        true
    }

    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, mcu_running: bool) {
        self.inner.step(input, load, dt, mcu_running);
    }

    /// Dewdrop is electrically a static capacitor — its MCU-off charge
    /// phases integrate in the same closed form, so it inherits the
    /// inner buffer's idle fast path unchanged (the adaptive *enable
    /// voltage* only moves the `v_stop` the kernel passes in).
    fn supports_idle_fast_path(&self) -> bool {
        self.inner.supports_idle_fast_path()
    }

    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        self.inner.idle_advance(input, duration, v_stop, fine_dt)
    }

    /// The MCU-on sleep fast path forwards the same way: the adaptive
    /// enable voltage changes when the gate closes, not the physics of
    /// a powered stretch.
    fn supports_powered_fast_path(&self) -> bool {
        self.inner.supports_powered_fast_path()
    }

    fn powered_advance(
        &mut self,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        self.inner
            .powered_advance(input, load, duration, v_stop, v_wake, fine_dt)
    }

    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        self.inner.rail_voltage_for_usable(energy, v_floor)
    }

    /// Hardware drift hits the underlying capacitor, so fault support
    /// (and the believed/actual split) forwards to the inner buffer.
    fn apply_fault(&mut self, kind: react_circuit::FaultKind) -> bool {
        self.inner.apply_fault(kind)
    }

    fn leakage_probe(&self) -> Option<Watts> {
        self.inner.leakage_probe()
    }

    fn ledger(&self) -> &EnergyLedger {
        self.inner.ledger()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_enable_between_brownout_and_rail() {
        let d = DewdropBuffer::reference();
        let v = d.adaptive_enable_voltage();
        // sqrt(1.8² + 2·5m/3m) = sqrt(3.24 + 3.333) ≈ 2.564 V.
        assert!((v.get() - (3.24_f64 + 10.0 / 3.0).sqrt()).abs() < 1e-9);
        assert!(v > Volts::new(1.8) && v < Volts::new(3.3));
    }

    #[test]
    fn huge_quantum_clamps_to_rail() {
        let d = DewdropBuffer::new(
            CapacitorSpec::supercap_scaled(Farads::from_milli(1.0)),
            Volts::new(1.8),
            Joules::new(1.0),
        );
        assert_eq!(d.adaptive_enable_voltage(), crate::static_buf::RAIL_CLAMP);
    }

    #[test]
    fn behaves_as_static_buffer_electrically() {
        let mut d = DewdropBuffer::reference();
        for _ in 0..1000 {
            d.step(
                Watts::from_milli(2.0),
                Amps::ZERO,
                Seconds::from_milli(1.0),
                false,
            );
        }
        assert!(d.rail_voltage().get() > 0.2);
        assert!(d.supports_longevity());
        assert_eq!(d.name(), "Dewdrop");
    }
}
