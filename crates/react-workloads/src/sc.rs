//! SC — Sense and Compute benchmark (§4.2).
//!
//! Exits a deep-sleep mode every five seconds to sample a low-power
//! microphone and digitally filter the reading. Values reactivity (the
//! system must be *on* to catch a deadline); individual ops are cheap.

use react_mcu::Peripheral;
use react_units::Seconds;

use crate::costs;
use crate::events::EventSchedule;
use crate::fir::FirFilter;
use crate::mic::Microphone;
use crate::{LoadDemand, WakeHint, Workload, WorkloadEnv};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Idle,
    Sampling(Seconds),
    Computing(Seconds),
}

/// Samples per acquisition window (10 ms at the SPU0414's 16 kHz).
const WINDOW: usize = 160;

/// Seed of measurement window 0; window `k` draws its noise from
/// `MIC_SEED + k`.
const MIC_SEED: u64 = 0x5C_5EED;

/// The Sense-and-Compute workload.
///
/// Its simulated cost comes from [`costs`]; the DSP itself runs only
/// when [`last_level`](Self::last_level) asks for its output.
#[derive(Clone, Debug)]
pub struct SenseCompute {
    deadlines: EventSchedule,
    mic_power: Peripheral,
    phase: Phase,
    /// Completed measurements; measurement `k` filtered window `k`.
    ops: u64,
    failed: u64,
    missed: u64,
}

impl SenseCompute {
    /// Creates the benchmark with deadlines every
    /// [`costs::SC_PERIOD`] for `horizon` of wall-clock time.
    pub fn new(horizon: Seconds) -> Self {
        Self {
            deadlines: EventSchedule::periodic(costs::SC_PERIOD, horizon),
            mic_power: Peripheral::microphone(),
            phase: Phase::Idle,
            ops: 0,
            failed: 0,
            missed: 0,
        }
    }

    /// The filtered signal level of the most recent completed
    /// measurement (0.0 before the first): acquires its microphone
    /// window, low-passes it and returns the mean square. A failed
    /// measurement consumes no window.
    pub fn last_level(&self) -> f64 {
        let Some(window) = self.ops.checked_sub(1) else {
            return 0.0;
        };
        let samples = Microphone::spu0414(MIC_SEED.wrapping_add(window)).acquire(WINDOW);
        let filtered = FirFilter::lowpass(0.0625, 63).apply(&samples);
        filtered.iter().map(|x| x * x).sum::<f64>() / filtered.len() as f64
    }
}

impl Workload for SenseCompute {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn on_power_up(&mut self, _now: Seconds) {}

    fn on_power_down(&mut self, _now: Seconds) {
        if self.phase != Phase::Idle {
            self.failed += 1;
            self.phase = Phase::Idle;
        }
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        // Consume deadlines that have fired; stale ones (older than the
        // grace window — e.g. fired while we were dark) are missed.
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
            // The SPU0414 is an always-on acoustic front end: the mic
            // stays biased between deadlines so a sample can start
            // immediately — this is the benchmark's standing draw.
            Phase::Idle => LoadDemand::sleep_with(self.mic_power.rated_current()),
            Phase::Sampling(remaining) => {
                let left = remaining - env.dt;
                if left.get() <= 0.0 {
                    self.phase = Phase::Computing(costs::SC_COMPUTE);
                } else {
                    self.phase = Phase::Sampling(left);
                }
                LoadDemand::active_with(self.mic_power.rated_current())
            }
            Phase::Computing(remaining) => {
                let left = remaining - env.dt;
                if left.get() <= 0.0 {
                    self.ops += 1;
                    self.phase = Phase::Idle;
                } else {
                    self.phase = Phase::Computing(left);
                }
                LoadDemand::active()
            }
        }
    }

    /// Between deadlines the demand is the fixed mic-bias sleep — the
    /// archetypal duty-cycled LPM3 wait the sleep fast path collapses.
    fn next_wake(&self, _env: &WorkloadEnv) -> WakeHint {
        if self.phase != Phase::Idle {
            return WakeHint::Immediate;
        }
        match self.deadlines.peek() {
            Some(t) => WakeHint::At(t),
            None => WakeHint::Never,
        }
    }

    fn finalize(&mut self, now: Seconds) {
        // Deadlines that fired while dark at the end of the run.
        self.missed += self.deadlines.take_due(now) as u64;
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }

    fn ops_failed(&self) -> u64 {
        self.failed
    }

    fn events_missed(&self) -> u64 {
        self.missed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::{Joules, Volts};

    fn env(now: f64, dt: f64) -> WorkloadEnv {
        WorkloadEnv {
            now: Seconds::new(now),
            dt: Seconds::new(dt),
            rail_voltage: Volts::new(3.3),
            usable_energy: Joules::new(1.0),
            supports_longevity: false,
        }
    }

    fn run(sc: &mut SenseCompute, from_s: f64, to_s: f64) {
        let dt = 0.001;
        let mut t = from_s;
        while t < to_s {
            sc.step(&env(t, dt));
            t += dt;
        }
    }

    #[test]
    fn services_deadlines_when_always_on() {
        let mut sc = SenseCompute::new(Seconds::new(60.0));
        sc.on_power_up(Seconds::ZERO);
        run(&mut sc, 0.0, 31.0);
        // Deadlines at 5..30 s: six measurements, none missed.
        assert_eq!(sc.ops_completed(), 6);
        assert_eq!(sc.events_missed(), 0);
        assert!(sc.last_level() > 0.0);
    }

    #[test]
    fn misses_deadlines_while_dark() {
        let mut sc = SenseCompute::new(Seconds::new(60.0));
        // Dark from 0–17 s (deadlines at 5, 10, 15 missed), then on.
        sc.on_power_up(Seconds::new(17.0));
        run(&mut sc, 17.0, 31.0);
        assert_eq!(sc.events_missed(), 3);
        // Deadlines at 20, 25, 30 serviced.
        assert_eq!(sc.ops_completed(), 3);
    }

    #[test]
    fn sleeps_between_deadlines_with_mic_biased() {
        let mut sc = SenseCompute::new(Seconds::new(60.0));
        let d = sc.step(&env(1.0, 0.001));
        assert_eq!(d.mode, react_mcu::PowerMode::Sleep);
        // The acoustic front end stays biased while idle.
        assert!((d.peripheral_current.to_micro() - 155.0).abs() < 1e-9);
    }

    #[test]
    fn mic_is_powered_only_while_sampling() {
        let mut sc = SenseCompute::new(Seconds::new(60.0));
        // Jump to the first deadline.
        let d = sc.step(&env(5.0, 0.001));
        assert!(d.peripheral_current.to_micro() > 100.0);
        // Advance past sampling into compute.
        for i in 0..12 {
            sc.step(&env(5.001 + i as f64 * 0.001, 0.001));
        }
        let d = sc.step(&env(5.014, 0.001));
        // Compute phase: mic current off (only the idle bias remains
        // when the op finishes).
        assert_eq!(d.peripheral_current, react_units::Amps::ZERO);
    }

    #[test]
    fn power_failure_mid_measurement_fails_it() {
        let mut sc = SenseCompute::new(Seconds::new(60.0));
        sc.step(&env(5.0, 0.001)); // starts sampling
        sc.on_power_down(Seconds::new(5.001));
        assert_eq!(sc.ops_failed(), 1);
        assert_eq!(sc.ops_completed(), 0);
    }

    /// The level the eager meter reported for window `k`: one
    /// microphone acquiring windows `0..=k` in turn.
    fn eager_level(window: u64) -> f64 {
        let mut mic = Microphone::spu0414(MIC_SEED);
        for _ in 0..window {
            mic.acquire(WINDOW);
        }
        let filtered = FirFilter::lowpass(0.0625, 63).apply(&mic.acquire(WINDOW));
        filtered.iter().map(|x| x * x).sum::<f64>() / filtered.len() as f64
    }

    #[test]
    fn failed_measurement_consumes_no_window() {
        let mut sc = SenseCompute::new(Seconds::new(60.0));
        assert_eq!(sc.last_level(), 0.0);
        sc.step(&env(5.0, 0.001)); // starts sampling
        sc.on_power_down(Seconds::new(5.001));
        assert_eq!(sc.last_level(), 0.0);
        sc.on_power_up(Seconds::new(9.0));
        run(&mut sc, 9.0, 11.0); // services the 10 s deadline
        assert_eq!((sc.ops_completed(), sc.ops_failed()), (1, 1));
        assert_eq!(sc.last_level().to_bits(), eager_level(0).to_bits());
        assert_ne!(sc.last_level(), eager_level(1));
    }

    #[test]
    fn finalize_counts_trailing_missed_deadlines() {
        let mut sc = SenseCompute::new(Seconds::new(60.0));
        run(&mut sc, 0.0, 6.0); // services the 5 s deadline
        sc.finalize(Seconds::new(60.0));
        // Deadlines at 10..60 (11 of them) fired while "dark".
        assert_eq!(sc.events_missed(), 11);
        assert_eq!(sc.ops_completed(), 1);
    }
}
