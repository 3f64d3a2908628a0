//! Capybara-style dual-capacitor buffer (extension baseline).
//!
//! Capybara \[7\] switches between heterogeneous static banks under
//! programmer direction: a small capacitor powers reactive, interruptible
//! work; a large capacitor is pre-charged for high-energy atomic tasks
//! (§2.3). Charging the big bank *reserves* energy — if the task mix
//! changes, that reservation was speculative and the energy sits leaking.
//! We model the common two-bank design: the rail always runs from the
//! small capacitor; the harvester charges the small capacitor first, then
//! the big one; connecting the big bank to the rail equalizes it into the
//! small one (dissipative if their voltages differ).
//!
//! Nothing in a simulated run calls [`CapybaraBuffer::connect_big`]:
//! no workload directs the banks, so every run keeps the 10 mF burst
//! bank off the rail. [`EnergyBuffer::usable_energy_above`] still counts
//! that bank as reachable, so the longevity check of RT and PF sees
//! energy no run can spend. The `ablations/Capybara baseline/*` rows of
//! the paper report carry this.

use react_circuit::{pair_equalize, Capacitor, CapacitorSpec, EnergyLedger};
use react_units::{Amps, Farads, Joules, Seconds, Volts, Watts};

use crate::static_buf::RAIL_CLAMP;
use crate::{power_intake, EnergyBuffer};

/// The Capybara-style buffer.
#[derive(Clone, Debug)]
pub struct CapybaraBuffer {
    small: Capacitor,
    big: Capacitor,
    /// `true` while the big bank is switched onto the rail.
    big_connected: bool,
    ledger: EnergyLedger,
}

impl CapybaraBuffer {
    /// Creates the buffer from small/large capacitor specs.
    pub fn new(small: CapacitorSpec, big: CapacitorSpec) -> Self {
        Self {
            small: Capacitor::new(small.with_max_voltage(RAIL_CLAMP)),
            big: Capacitor::new(big.with_max_voltage(RAIL_CLAMP)),
            big_connected: false,
            ledger: EnergyLedger::new(),
        }
    }

    /// Reference configuration: 770 µF reactive bank + 10 mF burst bank.
    pub fn reference() -> Self {
        Self::new(
            CapacitorSpec::ceramic_scaled(Farads::from_micro(770.0)),
            CapacitorSpec::supercap_scaled(Farads::from_milli(10.0)),
        )
    }

    /// `true` while the burst bank is on the rail.
    pub fn is_big_connected(&self) -> bool {
        self.big_connected
    }

    /// Programmer direction: connect the burst bank to the rail for a
    /// high-energy atomic task. Equalization between the banks dissipates
    /// energy if their voltages differ.
    pub fn connect_big(&mut self) {
        if !self.big_connected {
            let out = pair_equalize(&mut self.small, &mut self.big);
            self.ledger.switch_loss += out.dissipated;
            self.big_connected = true;
        }
    }

    /// Programmer direction: return to the reactive (small-bank) mode.
    pub fn disconnect_big(&mut self) {
        self.big_connected = false;
    }

    /// Voltage on the burst bank (diagnostics).
    pub fn big_voltage(&self) -> Volts {
        self.big.voltage()
    }

    /// Force voltages (test setup).
    pub fn set_voltages(&mut self, small: Volts, big: Volts) {
        self.small.set_voltage(small);
        self.big.set_voltage(big);
    }
}

impl EnergyBuffer for CapybaraBuffer {
    fn name(&self) -> &str {
        "Capybara"
    }

    fn rail_voltage(&self) -> Volts {
        self.small.voltage()
    }

    fn equivalent_capacitance(&self) -> Farads {
        if self.big_connected {
            self.small.capacitance() + self.big.capacitance()
        } else {
            self.small.capacitance()
        }
    }

    fn stored_energy(&self) -> Joules {
        self.small.energy() + self.big.energy()
    }

    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        let mut usable = Joules::ZERO;
        for (cap, reachable) in [(&self.small, true), (&self.big, true)] {
            // The big bank is reachable by connecting it (software's
            // choice), so both count — but only energy above the floor.
            if reachable && cap.voltage() > v_floor {
                usable += cap.capacitance().energy_at(cap.voltage())
                    - cap.capacitance().energy_at(v_floor);
            }
        }
        usable
    }

    fn supports_longevity(&self) -> bool {
        true
    }

    fn capacitance_level(&self) -> u32 {
        self.big_connected as u32
    }

    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, _mcu_running: bool) {
        // Leakage on both banks (the speculation cost §2.3 describes).
        self.ledger.leaked += self.small.leak(dt) + self.big.leak(dt);

        // Load from the rail (both banks when connected; they equalize
        // continuously, so split by capacitance).
        let before = self.small.energy() + self.big.energy();
        if self.big_connected {
            let c_total = self.small.capacitance() + self.big.capacitance();
            let dq = load * dt;
            let q_small = dq.get() * (self.small.capacitance() / c_total);
            self.small.draw(Amps::new(q_small / dt.get()), dt);
            self.big
                .draw(Amps::new((dq.get() - q_small) / dt.get()), dt);
        } else {
            self.small.draw(load, dt);
        }
        self.ledger.load_consumed += before - (self.small.energy() + self.big.energy());

        // Harvest: small bank first (reactivity), then the big bank.
        if input.get() > 0.0 {
            let before = self.small.energy() + self.big.energy();
            let dq = power_intake(input, self.small.voltage(), dt);
            let clip_small = self.small.deposit(dq / dt, dt);
            let mut clipped = Joules::ZERO;
            if clip_small.get() > 0.0 {
                // Redirect the surplus to the big bank.
                let surplus_q = clip_small.get() / RAIL_CLAMP.get();
                clipped = self.big.deposit(Amps::new(surplus_q / dt.get()), dt);
            }
            let delivered = (self.small.energy() + self.big.energy()) - before;
            self.ledger.deposit(delivered, clipped);
        }

        // Keep equalized while connected (quasi-static, negligible loss).
        if self.big_connected {
            let out = pair_equalize(&mut self.small, &mut self.big);
            self.ledger.switch_loss += out.dissipated;
        }
    }

    fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bank_charges_first() {
        let mut c = CapybaraBuffer::reference();
        for _ in 0..500 {
            c.step(
                Watts::from_milli(1.0),
                Amps::ZERO,
                Seconds::from_milli(1.0),
                false,
            );
        }
        assert!(c.rail_voltage().get() > 0.3);
        assert!(c.big_voltage().get() < 0.01);
    }

    #[test]
    fn surplus_spills_into_big_bank() {
        let mut c = CapybaraBuffer::reference();
        c.set_voltages(Volts::new(3.6), Volts::ZERO);
        for _ in 0..1000 {
            c.step(
                Watts::from_milli(20.0),
                Amps::ZERO,
                Seconds::from_milli(1.0),
                false,
            );
        }
        assert!(
            c.big_voltage().get() > 0.4,
            "big bank at {}",
            c.big_voltage().get()
        );
        assert_eq!(c.ledger().clipped, Joules::ZERO);
    }

    #[test]
    fn connecting_mismatched_banks_dissipates() {
        let mut c = CapybaraBuffer::reference();
        c.set_voltages(Volts::new(3.3), Volts::new(1.0));
        c.connect_big();
        assert!(c.is_big_connected());
        assert!(c.ledger().switch_loss.get() > 0.0);
        // Rail pulled down toward the big bank.
        assert!(c.rail_voltage().get() < 1.5);
    }

    #[test]
    fn connecting_matched_banks_is_cheap() {
        let mut c = CapybaraBuffer::reference();
        c.set_voltages(Volts::new(3.0), Volts::new(3.0));
        c.connect_big();
        assert!(c.ledger().switch_loss.get() < 1e-12);
        assert!((c.equivalent_capacitance().to_milli() - 10.77).abs() < 0.01);
        c.disconnect_big();
        assert!((c.equivalent_capacitance().to_micro() - 770.0).abs() < 1e-6);
    }

    #[test]
    fn usable_counts_both_banks() {
        let mut c = CapybaraBuffer::reference();
        c.set_voltages(Volts::new(3.3), Volts::new(3.3));
        let usable = c.usable_energy_above(Volts::new(1.8));
        let expected = 0.5 * (770e-6 + 10e-3) * (3.3f64.powi(2) - 1.8f64.powi(2));
        assert!((usable.get() - expected).abs() < 1e-9);
    }

    #[test]
    fn load_splits_when_connected() {
        let mut c = CapybaraBuffer::reference();
        c.set_voltages(Volts::new(3.3), Volts::new(3.3));
        c.connect_big();
        for _ in 0..1000 {
            c.step(
                Watts::ZERO,
                Amps::from_milli(10.0),
                Seconds::from_milli(1.0),
                false,
            );
        }
        // Both banks sagged together.
        assert!((c.rail_voltage().get() - c.big_voltage().get()).abs() < 0.01);
        assert!(c.rail_voltage().get() < 3.3);
    }
}
