//! Composite workload: periodic sensing *plus* opportunistic radio
//! upload on one platform.
//!
//! §4.2 of the paper notes that although each benchmark is evaluated in
//! isolation, "full systems are likely to exercise combinations of each
//! requirement — one platform should support all reactivity,
//! persistence, and efficiency requirements." This workload is that
//! combination: sense every period (reactivity-bound, like SC) and
//! transmit a burst once enough measurements are buffered
//! (persistence-bound, like RT). Sensing preempts charging toward a
//! transmission, exactly like PF's fungibility story.

use react_mcu::Peripheral;
use react_units::{Joules, Seconds};

use crate::costs;
use crate::events::EventSchedule;
use crate::{LoadDemand, WakeHint, Workload, WorkloadEnv};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Idle,
    Sampling(Seconds),
    Computing(Seconds),
    Transmitting(Seconds),
}

/// Sense-then-upload composite application.
#[derive(Clone, Debug)]
pub struct SenseAndSend {
    deadlines: EventSchedule,
    mic_power: Peripheral,
    radio: Peripheral,
    phase: Phase,
    /// Measurements buffered in FRAM awaiting upload.
    buffered: u64,
    /// Measurements per transmission burst.
    batch: u64,
    tx_energy: Joules,
    measurements: u64,
    uploads: u64,
    missed: u64,
    failed: u64,
}

impl SenseAndSend {
    /// Creates the composite workload: sense every [`costs::SC_PERIOD`],
    /// upload every `batch` measurements.
    pub fn new(horizon: Seconds, batch: u64) -> Self {
        assert!(batch > 0, "batch must be positive");
        let radio = Peripheral::radio_tx();
        let mcu_active = react_units::Amps::from_milli(1.5);
        Self {
            deadlines: EventSchedule::periodic(costs::SC_PERIOD, horizon),
            mic_power: Peripheral::microphone(),
            tx_energy: costs::op_energy_estimate(
                radio.rated_current() + mcu_active,
                costs::RT_BURST,
            ),
            radio,
            phase: Phase::Idle,
            buffered: 0,
            batch,
            measurements: 0,
            uploads: 0,
            missed: 0,
            failed: 0,
        }
    }

    /// Measurements currently buffered for upload.
    pub fn buffered(&self) -> u64 {
        self.buffered
    }

    /// Completed uploads (each covers one batch).
    pub fn uploads(&self) -> u64 {
        self.uploads
    }

    /// Completed measurements.
    pub fn measurements(&self) -> u64 {
        self.measurements
    }
}

impl Workload for SenseAndSend {
    fn name(&self) -> &'static str {
        "SC+RT"
    }

    fn on_power_up(&mut self, _now: Seconds) {}

    fn on_power_down(&mut self, _now: Seconds) {
        match self.phase {
            Phase::Idle => {}
            Phase::Transmitting(_) => {
                // Burst lost; measurements stay buffered for retry.
                self.failed += 1;
            }
            _ => self.failed += 1,
        }
        self.phase = Phase::Idle;
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        // Sensing deadlines preempt everything except an in-flight
        // radio burst (bursts are atomic).
        while let Some(t) = self.deadlines.peek() {
            if t > env.now {
                break;
            }
            self.deadlines.take_due(t);
            let fresh = (env.now - t) <= costs::EVENT_GRACE;
            if fresh && self.phase == Phase::Idle {
                self.phase = Phase::Sampling(costs::SC_SAMPLE);
            } else {
                self.missed += 1;
            }
        }

        match self.phase {
            Phase::Idle => {
                if self.buffered >= self.batch {
                    let ready = !env.supports_longevity || env.usable_energy >= self.tx_energy;
                    if ready {
                        self.phase = Phase::Transmitting(costs::RT_BURST);
                        return LoadDemand::active_with(self.radio.rated_current());
                    }
                }
                // Wait with the acoustic front end biased.
                LoadDemand::sleep_with(self.mic_power.rated_current())
            }
            Phase::Sampling(remaining) => {
                let left = remaining - env.dt;
                self.phase = if left.get() <= 0.0 {
                    Phase::Computing(costs::SC_COMPUTE)
                } else {
                    Phase::Sampling(left)
                };
                LoadDemand::active_with(self.mic_power.rated_current())
            }
            Phase::Computing(remaining) => {
                let left = remaining - env.dt;
                if left.get() <= 0.0 {
                    self.measurements += 1;
                    self.buffered += 1;
                    self.phase = Phase::Idle;
                } else {
                    self.phase = Phase::Computing(left);
                }
                LoadDemand::active()
            }
            Phase::Transmitting(remaining) => {
                let left = remaining - env.dt;
                if left.get() <= 0.0 {
                    self.uploads += 1;
                    self.buffered = self.buffered.saturating_sub(self.batch);
                    self.phase = Phase::Idle;
                } else {
                    self.phase = Phase::Transmitting(left);
                }
                LoadDemand::active_with(self.radio.rated_current())
            }
        }
    }

    /// Idle with no batch pending sleeps until the next sensing
    /// deadline; with a full batch buffered (a longevity buffer
    /// charging toward the upload) the wait ends at the TX energy
    /// threshold or the next deadline, whichever comes first.
    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        if self.phase != Phase::Idle {
            return WakeHint::Immediate;
        }
        if self.buffered >= self.batch {
            if !env.supports_longevity {
                return WakeHint::Immediate;
            }
            return WakeHint::WhenEnergy {
                energy: self.tx_energy,
                deadline: self.deadlines.peek(),
            };
        }
        match self.deadlines.peek() {
            Some(t) => WakeHint::At(t),
            None => WakeHint::Never,
        }
    }

    fn finalize(&mut self, now: Seconds) {
        self.missed += self.deadlines.take_due(now) as u64;
    }

    /// Primary figure of merit: completed uploads (each worth a batch of
    /// delivered measurements).
    fn ops_completed(&self) -> u64 {
        self.uploads
    }

    fn ops_failed(&self) -> u64 {
        self.failed
    }

    fn aux_completed(&self) -> u64 {
        self.measurements
    }

    fn events_missed(&self) -> u64 {
        self.missed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::Volts;

    fn env(now: f64, usable_mj: f64, longevity: bool) -> WorkloadEnv {
        WorkloadEnv {
            now: Seconds::new(now),
            dt: Seconds::new(0.001),
            rail_voltage: Volts::new(3.3),
            usable_energy: Joules::from_milli(usable_mj),
            supports_longevity: longevity,
        }
    }

    fn run(w: &mut SenseAndSend, from_s: f64, to_s: f64, usable_mj: f64, longevity: bool) {
        let mut t = from_s;
        while t < to_s {
            w.step(&env(t, usable_mj, longevity));
            t += 0.001;
        }
    }

    #[test]
    fn senses_then_uploads_in_batches() {
        let mut w = SenseAndSend::new(Seconds::new(120.0), 3);
        run(&mut w, 0.0, 31.0, 100.0, true);
        // Deadlines at 5..30: six measurements, two batches of three.
        assert_eq!(w.measurements(), 6);
        assert_eq!(w.uploads(), 2);
        assert_eq!(w.buffered(), 0);
        assert_eq!(w.events_missed(), 0);
    }

    #[test]
    fn upload_waits_for_energy_on_longevity_buffers() {
        let mut w = SenseAndSend::new(Seconds::new(120.0), 1);
        run(&mut w, 0.0, 6.0, 1.0, true); // 1 mJ « burst energy
        assert_eq!(w.measurements(), 1);
        assert_eq!(w.uploads(), 0);
        assert_eq!(w.buffered(), 1);
        // Energy arrives: upload completes.
        run(&mut w, 6.0, 7.0, 100.0, true);
        assert_eq!(w.uploads(), 1);
    }

    #[test]
    fn sensing_preempts_charging_for_upload() {
        // Batch of 1 pending, not enough energy to send — the next
        // deadline must still be sensed (fungibility).
        let mut w = SenseAndSend::new(Seconds::new(120.0), 2);
        run(&mut w, 0.0, 11.0, 1.0, true);
        assert_eq!(w.measurements(), 2);
        assert_eq!(w.events_missed(), 0);
    }

    #[test]
    fn burst_is_atomic_under_power_failure() {
        let mut w = SenseAndSend::new(Seconds::new(120.0), 1);
        run(&mut w, 0.0, 5.05, 100.0, true); // sensing done, tx started
        w.on_power_down(Seconds::new(5.3));
        assert_eq!(w.ops_failed(), 1);
        assert_eq!(w.buffered(), 1, "data survives in FRAM");
        // Retry succeeds after reboot.
        w.on_power_up(Seconds::new(6.0));
        run(&mut w, 6.0, 6.5, 100.0, true);
        assert_eq!(w.uploads(), 1);
    }

    #[test]
    fn static_buffers_attempt_uploads_greedily() {
        let mut w = SenseAndSend::new(Seconds::new(120.0), 1);
        run(&mut w, 0.0, 5.05, 0.5, false);
        // Even without energy, the (non-longevity) system has started
        // the burst by now.
        let d = w.step(&env(5.06, 0.5, false));
        assert!(d.peripheral_current.to_milli() > 4.0);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        SenseAndSend::new(Seconds::new(10.0), 0);
    }
}
