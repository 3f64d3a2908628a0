//! The comparator power gate.

use react_units::Volts;

/// The enable/brown-out power gate (§4): connects the MCU once the
/// buffer reaches the enable voltage and disconnects it at the brown-out
//  voltage, with hysteresis in between.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerGate {
    enable_at: Volts,
    brownout_at: Volts,
    closed: bool,
}

impl PowerGate {
    /// Creates an open gate.
    ///
    /// # Panics
    ///
    /// Panics if `enable_at <= brownout_at` (no hysteresis band).
    pub fn new(enable_at: Volts, brownout_at: Volts) -> Self {
        assert!(
            enable_at > brownout_at,
            "enable voltage must exceed brown-out voltage"
        );
        Self {
            enable_at,
            brownout_at,
            closed: false,
        }
    }

    /// The paper's testbed gate: enable at 3.3 V, disconnect at 1.8 V.
    pub fn paper_testbed() -> Self {
        Self::new(Volts::new(3.3), Volts::new(1.8))
    }

    /// Enable threshold.
    pub fn enable_voltage(&self) -> Volts {
        self.enable_at
    }

    /// Brown-out threshold.
    pub fn brownout_voltage(&self) -> Volts {
        self.brownout_at
    }

    /// `true` while the load is connected.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Moves the enable threshold — the defensive "raised gate"
    /// response to a suspected energy attack (boot only once more
    /// charge is banked), and its restoration once the alarm clears.
    /// Only the *enable* side moves; the brown-out threshold is fixed
    /// by the regulator's dropout and never a software knob.
    ///
    /// # Panics
    ///
    /// Panics if `enable_at <= brownout_at` (no hysteresis band).
    pub fn set_enable_voltage(&mut self, enable_at: Volts) {
        assert!(
            enable_at > self.brownout_at,
            "enable voltage must exceed brown-out voltage"
        );
        self.enable_at = enable_at;
    }

    /// Updates the gate with the present buffer voltage; returns `true`
    /// if the gate state changed.
    pub fn update(&mut self, v: Volts) -> bool {
        let next = if self.closed {
            v > self.brownout_at
        } else {
            v >= self.enable_at
        };
        let changed = next != self.closed;
        self.closed = next;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_hysteresis() {
        let mut g = PowerGate::paper_testbed();
        assert!(!g.is_closed());
        assert!(!g.update(Volts::new(3.0))); // below enable: stays open
        assert!(g.update(Volts::new(3.3))); // enables
        assert!(g.is_closed());
        assert!(!g.update(Volts::new(2.0))); // above brown-out: stays closed
        assert!(g.update(Volts::new(1.8))); // browns out (v must exceed 1.8)
        assert!(!g.is_closed());
        assert!(!g.update(Volts::new(2.5))); // needs full 3.3 V again
    }

    #[test]
    fn raised_enable_gate_defers_the_boot() {
        let mut g = PowerGate::paper_testbed();
        g.set_enable_voltage(Volts::new(3.5));
        assert!(!g.update(Volts::new(3.3))); // old threshold no longer boots
        assert!(g.update(Volts::new(3.5)));
        assert!(g.is_closed());
        g.set_enable_voltage(Volts::new(3.3)); // restore: closed state kept
        assert!(g.is_closed());
        assert_eq!(g.enable_voltage(), Volts::new(3.3));
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn raising_below_brownout_panics() {
        let mut g = PowerGate::paper_testbed();
        g.set_enable_voltage(Volts::new(1.5));
    }

    #[test]
    fn gate_reports_thresholds() {
        let g = PowerGate::paper_testbed();
        assert_eq!(g.enable_voltage(), Volts::new(3.3));
        assert_eq!(g.brownout_voltage(), Volts::new(1.8));
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn inverted_gate_panics() {
        PowerGate::new(Volts::new(1.8), Volts::new(3.3));
    }
}
