//! RT — Radio Transmission benchmark (§4.2).
//!
//! Sends buffered sensor data to a base station: high persistence
//! (transmission bursts are atomic and energy-intensive) and low
//! reactivity (sending may be delayed until energy is available). On
//! longevity-capable buffers (REACT, Morphy) the workload uses the
//! software-directed longevity API (§3.4.1): it sleeps until the buffer
//! guarantees enough energy for a full burst. On static buffers it
//! transmits greedily — and wastes energy on doomed attempts, which is
//! exactly the §5.4 failure mode.

use react_mcu::Peripheral;
use react_units::{Joules, Seconds};

use crate::costs;
use crate::{LoadDemand, WakeHint, Workload, WorkloadEnv};

/// Packets per burst.
const BURST_PACKETS: u64 = 16;

/// Wire bytes of one burst: [`BURST_PACKETS`] frames of a 60-byte
/// payload plus the 8-byte [`radio`](crate::radio) header and CRC.
const BURST_BYTES: u64 = BURST_PACKETS * (8 + 60);

/// The Radio Transmission workload.
#[derive(Clone, Debug)]
pub struct RadioTransmit {
    radio: Peripheral,
    burst: Seconds,
    energy_needed: Joules,
    op_remaining: Option<Seconds>,
    ops: u64,
    failed: u64,
}

impl RadioTransmit {
    /// Creates the benchmark with the calibrated burst parameters.
    pub fn new() -> Self {
        let radio = Peripheral::radio_tx();
        let mcu_active = react_units::Amps::from_milli(1.5);
        Self {
            energy_needed: costs::op_energy_estimate(
                radio.rated_current() + mcu_active,
                costs::RT_BURST,
            ),
            radio,
            burst: costs::RT_BURST,
            op_remaining: None,
            ops: 0,
            failed: 0,
        }
    }

    /// Energy the longevity API is asked to guarantee per burst.
    pub fn energy_needed(&self) -> Joules {
        self.energy_needed
    }

    /// Total wire bytes of the completed bursts.
    pub fn bytes_sent(&self) -> u64 {
        self.ops * BURST_BYTES
    }
}

impl Default for RadioTransmit {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for RadioTransmit {
    fn name(&self) -> &'static str {
        "RT"
    }

    fn on_power_up(&mut self, _now: Seconds) {}

    fn on_power_down(&mut self, _now: Seconds) {
        if self.op_remaining.take().is_some() {
            // Burst aborted mid-air: energy wasted, data still queued.
            self.failed += 1;
        }
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        if let Some(remaining) = self.op_remaining {
            let left = remaining - env.dt;
            if left.get() <= 0.0 {
                self.ops += 1;
                self.op_remaining = None;
            } else {
                self.op_remaining = Some(left);
            }
            return LoadDemand::active_with(self.radio.rated_current());
        }

        // Idle with data pending (the backlog is unbounded).
        if env.supports_longevity && env.usable_energy < self.energy_needed {
            // §3.4.1: wait in responsive sleep until the buffer
            // guarantees a full burst.
            return LoadDemand::sleep_with(react_units::Amps::ZERO);
        }
        self.op_remaining = Some(self.burst);
        LoadDemand::active_with(self.radio.rated_current())
    }

    /// RT's only sleep is the §3.4.1 longevity wait: charge until the
    /// buffer guarantees a full burst. The kernel strides to the
    /// predicted energy crossing.
    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        if self.op_remaining.is_some() || !env.supports_longevity {
            return WakeHint::Immediate;
        }
        WakeHint::WhenEnergy {
            energy: self.energy_needed,
            deadline: None,
        }
    }

    fn finalize(&mut self, _now: Seconds) {}

    fn ops_completed(&self) -> u64 {
        self.ops
    }

    fn ops_failed(&self) -> u64 {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::Packet;
    use react_units::Volts;

    fn env(usable_mj: f64, longevity: bool) -> WorkloadEnv {
        WorkloadEnv {
            now: Seconds::ZERO,
            dt: Seconds::new(0.001),
            rail_voltage: Volts::new(3.3),
            usable_energy: Joules::from_milli(usable_mj),
            supports_longevity: longevity,
        }
    }

    #[test]
    fn transmits_when_energy_is_plentiful() {
        let mut rt = RadioTransmit::new();
        for _ in 0..700 {
            rt.step(&env(100.0, true));
        }
        // 0.7 s at 0.3 s per burst → 2 complete bursts.
        assert_eq!(rt.ops_completed(), 2);
        assert_eq!(rt.bytes_sent(), 2 * BURST_BYTES);
    }

    #[test]
    fn burst_bytes_match_the_encoded_frames() {
        let frame = Packet::new(1, 0, vec![0; 60]).encode();
        assert_eq!(BURST_BYTES, frame.len() as u64 * BURST_PACKETS);
    }

    #[test]
    fn longevity_capable_buffer_waits_for_energy() {
        let mut rt = RadioTransmit::new();
        let d = rt.step(&env(1.0, true)); // 1 mJ « needed
        assert_eq!(d.mode, react_mcu::PowerMode::Sleep);
        assert_eq!(rt.ops_completed(), 0);
        assert_eq!(rt.ops_failed(), 0);
    }

    #[test]
    fn static_buffer_attempts_doomed_transmissions() {
        let mut rt = RadioTransmit::new();
        let d = rt.step(&env(1.0, false)); // no API: tries anyway
        assert_eq!(d.mode, react_mcu::PowerMode::Active);
        assert!(d.peripheral_current.to_milli() > 4.0);
        // Brown-out halfway through.
        rt.on_power_down(Seconds::new(0.1));
        assert_eq!(rt.ops_failed(), 1);
        assert_eq!(rt.ops_completed(), 0);
    }

    #[test]
    fn energy_estimate_covers_the_burst() {
        let rt = RadioTransmit::new();
        // (5 + 1.5) mA × 3.3 V × 0.3 s × 1.3 ≈ 8.37 mJ.
        assert!((rt.energy_needed().to_milli() - 8.37).abs() < 0.1);
    }

    #[test]
    fn resumes_after_failure() {
        let mut rt = RadioTransmit::new();
        rt.step(&env(100.0, true));
        rt.on_power_down(Seconds::new(0.001));
        rt.on_power_up(Seconds::new(10.0));
        for _ in 0..310 {
            rt.step(&env(100.0, true));
        }
        assert_eq!(rt.ops_completed(), 1);
        assert_eq!(rt.ops_failed(), 1);
    }
}
