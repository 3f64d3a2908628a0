//! The microcontroller power model.

use react_units::{Amps, Hertz, Seconds};

/// MCU operating mode, mirroring MSP430 low-power modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PowerMode {
    /// CPU running (benchmark code executing).
    Active,
    /// LPM3: CPU halted, timer running — the "responsive sleep" the paper
    /// uses while waiting for deadlines or REACT charge levels.
    Sleep,
    /// LPM4.5-style deep sleep: only the wake-up circuitry is powered.
    #[default]
    DeepSleep,
}

/// Static electrical parameters of the microcontroller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McuSpec {
    /// Supply current while [`PowerMode::Active`].
    pub active_current: Amps,
    /// Supply current in [`PowerMode::Sleep`] (timer alive).
    pub sleep_current: Amps,
    /// Supply current in [`PowerMode::DeepSleep`].
    pub deep_sleep_current: Amps,
    /// CPU clock while active.
    pub clock: Hertz,
    /// Time spent booting (active current) after the gate enables.
    pub boot_time: Seconds,
}

impl McuSpec {
    /// MSP430FR5994-class numbers at 3.3 V: 1.5 mA active (the paper's
    /// §2.1 representative figure), 2 µA LPM3, 0.5 µA deep sleep,
    /// 8 MHz clock, 5 ms boot.
    pub fn msp430fr5994() -> Self {
        Self {
            active_current: Amps::from_milli(1.5),
            sleep_current: Amps::from_micro(2.0),
            deep_sleep_current: Amps::from_micro(0.5),
            clock: Hertz::new(8e6),
            boot_time: Seconds::from_milli(5.0),
        }
    }

    /// Supply current in `mode`.
    pub fn current(&self, mode: PowerMode) -> Amps {
        match mode {
            PowerMode::Active => self.active_current,
            PowerMode::Sleep => self.sleep_current,
            PowerMode::DeepSleep => self.deep_sleep_current,
        }
    }

    /// Wall-clock time to execute `cycles` CPU cycles.
    pub fn cycles_to_time(&self, cycles: u64) -> Seconds {
        Seconds::new(cycles as f64 / self.clock.get())
    }
}

/// A live MCU: mode plus boot-sequencing state.
///
/// The MCU draws no current at all while it is unpowered (the power
/// gate holds it off, or its brown-out reset holds it); when power
/// returns, it boots (active current for
/// [`McuSpec::boot_time`]) and then enters the mode the workload
/// requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mcu {
    spec: McuSpec,
    mode: PowerMode,
    powered: bool,
    boot_remaining: Seconds,
    /// Count of completed power-on boots.
    boots: u64,
}

impl Mcu {
    /// Creates an unpowered MCU.
    pub fn new(spec: McuSpec) -> Self {
        Self {
            spec,
            mode: PowerMode::DeepSleep,
            powered: false,
            boot_remaining: Seconds::ZERO,
            boots: 0,
        }
    }

    /// The static parameters.
    pub fn spec(&self) -> &McuSpec {
        &self.spec
    }

    /// Current operating mode (meaningful only while powered).
    pub fn mode(&self) -> PowerMode {
        self.mode
    }

    /// `true` while the MCU has power: the power gate has it enabled
    /// and it is out of brown-out reset.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// `true` if the MCU is powered and past its boot sequence.
    pub fn is_running(&self) -> bool {
        self.powered && self.boot_remaining.get() <= 0.0
    }

    /// Number of completed boots (power cycles) so far.
    pub fn boot_count(&self) -> u64 {
        self.boots
    }

    /// Power gate turned on: begin the boot sequence.
    pub fn power_on(&mut self) {
        if !self.powered {
            self.powered = true;
            self.boot_remaining = self.spec.boot_time;
            self.mode = PowerMode::Active;
            self.boots += 1;
        }
    }

    /// Power gate turned off: volatile state is lost.
    pub fn power_off(&mut self) {
        self.powered = false;
        self.boot_remaining = Seconds::ZERO;
        self.mode = PowerMode::DeepSleep;
    }

    /// Requests an operating mode (no-op while off or booting).
    pub fn set_mode(&mut self, mode: PowerMode) {
        if self.is_running() {
            self.mode = mode;
        }
    }

    /// Supply current the MCU draws in its present state, without
    /// advancing time: zero while unpowered, active current while
    /// booting, otherwise the present mode's current. This is what a
    /// coarse sleep stride integrates — [`step`](Self::step) returns
    /// the same value but also advances the boot sequence, so the
    /// adaptive kernel's closed-form paths must read it from here.
    pub fn running_current(&self) -> Amps {
        if !self.powered {
            return Amps::ZERO;
        }
        if self.boot_remaining.get() > 0.0 {
            return self.spec.active_current;
        }
        self.spec.current(self.mode)
    }

    /// Advances time; returns the supply current drawn over the step.
    pub fn step(&mut self, dt: Seconds) -> Amps {
        if !self.powered {
            return Amps::ZERO;
        }
        if self.boot_remaining.get() > 0.0 {
            self.boot_remaining = (self.boot_remaining - dt).max(Seconds::ZERO);
            return self.spec.active_current;
        }
        self.spec.current(self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_currents() {
        let s = McuSpec::msp430fr5994();
        assert!((s.current(PowerMode::Active).to_milli() - 1.5).abs() < 1e-12);
        assert!((s.current(PowerMode::Sleep).to_micro() - 2.0).abs() < 1e-12);
        assert!((s.current(PowerMode::DeepSleep).to_micro() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycles_to_time_at_8mhz() {
        let s = McuSpec::msp430fr5994();
        assert!((s.cycles_to_time(8_000_000).get() - 1.0).abs() < 1e-12);
        assert!((s.cycles_to_time(80_000).to_milli() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unpowered_draws_nothing() {
        let mut m = Mcu::new(McuSpec::msp430fr5994());
        assert!(!m.is_powered());
        assert_eq!(m.step(Seconds::from_milli(1.0)), Amps::ZERO);
    }

    #[test]
    fn boot_sequence_draws_active_current() {
        let mut m = Mcu::new(McuSpec::msp430fr5994());
        m.power_on();
        assert!(m.is_powered());
        assert!(!m.is_running());
        // During the 5 ms boot, active current even if sleep requested.
        m.set_mode(PowerMode::Sleep); // ignored while booting
        let i = m.step(Seconds::from_milli(1.0));
        assert!((i.to_milli() - 1.5).abs() < 1e-12);
        for _ in 0..5 {
            m.step(Seconds::from_milli(1.0));
        }
        assert!(m.is_running());
        assert_eq!(m.boot_count(), 1);
    }

    #[test]
    fn mode_changes_once_running() {
        let mut m = Mcu::new(McuSpec::msp430fr5994());
        m.power_on();
        for _ in 0..6 {
            m.step(Seconds::from_milli(1.0));
        }
        m.set_mode(PowerMode::Sleep);
        let i = m.step(Seconds::from_milli(1.0));
        assert!((i.to_micro() - 2.0).abs() < 1e-12);
        m.set_mode(PowerMode::DeepSleep);
        let i = m.step(Seconds::from_milli(1.0));
        assert!((i.to_micro() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn running_current_reads_without_stepping() {
        let mut m = Mcu::new(McuSpec::msp430fr5994());
        assert_eq!(m.running_current(), Amps::ZERO);
        m.power_on();
        // Booting: active current, and reading does not advance boot.
        assert!((m.running_current().to_milli() - 1.5).abs() < 1e-12);
        assert!(!m.is_running());
        for _ in 0..6 {
            m.step(Seconds::from_milli(1.0));
        }
        m.set_mode(PowerMode::Sleep);
        // The sleep stride integrates exactly this 2 µA LPM3 draw.
        assert!((m.running_current().to_micro() - 2.0).abs() < 1e-12);
        assert_eq!(m.running_current(), m.step(Seconds::from_milli(1.0)));
    }

    #[test]
    fn power_off_resets_mode() {
        let mut m = Mcu::new(McuSpec::msp430fr5994());
        m.power_on();
        for _ in 0..6 {
            m.step(Seconds::from_milli(1.0));
        }
        m.set_mode(PowerMode::Active);
        m.power_off();
        assert!(!m.is_powered());
        assert_eq!(m.mode(), PowerMode::DeepSleep);
        // Re-boot increments the counter.
        m.power_on();
        assert_eq!(m.boot_count(), 2);
    }

    #[test]
    fn double_power_on_is_idempotent() {
        let mut m = Mcu::new(McuSpec::msp430fr5994());
        m.power_on();
        m.power_on();
        assert_eq!(m.boot_count(), 1);
    }
}
