//! DE — Data Encryption benchmark (§4.2).
//!
//! Continuously encrypts 1 KiB buffers with AES-128 in software: no
//! reactivity requirement, low persistence requirement, predictable
//! power draw. The paper uses it to characterize software/power
//! overhead. Each encryption is modeled by its cost, [`costs::DE_OP`]
//! of MCU-active time.

use react_units::Seconds;

use crate::costs;
use crate::{LoadDemand, WakeHint, Workload, WorkloadEnv};

/// The Data Encryption workload.
#[derive(Clone, Debug)]
pub struct DataEncryption {
    op_duration: Seconds,
    op_remaining: Option<Seconds>,
    /// Completed encryption ops.
    ops: u64,
    failed: u64,
}

impl DataEncryption {
    /// Creates the benchmark with the calibrated op duration.
    pub fn new() -> Self {
        Self::with_op_duration(costs::DE_OP)
    }

    /// Creates the benchmark with a custom per-op duration.
    pub fn with_op_duration(op_duration: Seconds) -> Self {
        Self {
            op_duration,
            op_remaining: None,
            ops: 0,
            failed: 0,
        }
    }

    /// One step of the op in flight, or of a fresh one.
    fn count_down(&mut self, dt: Seconds) {
        let remaining = self.op_remaining.get_or_insert(self.op_duration);
        *remaining -= dt;
        if remaining.get() <= 0.0 {
            self.ops += 1;
            self.op_remaining = None;
        }
    }

    /// Steps the op in flight (or a fresh one) until it completes or
    /// `budget` steps run out, and returns the steps it took. A
    /// countdown that stops moving (an infinite or NaN duration, or one
    /// `dt` no longer dents) never completes and later steps change
    /// nothing, so it returns `budget` at once.
    fn step_op(&mut self, dt: Seconds, budget: u64) -> u64 {
        for taken in 1..=budget {
            let before = self.op_remaining;
            self.count_down(dt);
            match self.op_remaining {
                None => return taken,
                Some(r) if r.get().is_nan() || before == Some(r) => return budget,
                Some(_) => {}
            }
        }
        budget
    }
}

impl Default for DataEncryption {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for DataEncryption {
    fn name(&self) -> &'static str {
        "DE"
    }

    fn on_power_up(&mut self, _now: Seconds) {}

    fn on_power_down(&mut self, _now: Seconds) {
        if self.op_remaining.take().is_some() {
            self.failed += 1;
        }
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        self.count_down(env.dt);
        LoadDemand::active()
    }

    /// Finishes the op in flight step by step, then steps one fresh op
    /// to count its steps. Every fresh op repeats the same countdown
    /// from `op_duration`, so the whole ops left in the stretch book at
    /// once, and only the remainder is stepped.
    fn replay_steady(&mut self, _first: u64, steps: u64, env: &WorkloadEnv) {
        let mut left = steps;
        if self.op_remaining.is_some() {
            left -= self.step_op(env.dt, left);
        }
        if left > 0 {
            let per_op = self.step_op(env.dt, left);
            left -= per_op;
            if self.op_remaining.is_none() {
                self.ops += left / per_op;
                self.step_op(env.dt, left % per_op);
            }
        }
    }

    /// DE never sleeps — the CPU encrypts continuously at one constant
    /// draw, so its demand is steady from boot to brown-out.
    fn next_wake(&self, _env: &WorkloadEnv) -> WakeHint {
        WakeHint::Steady
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
    use react_units::{Joules, Volts};

    fn env(dt: f64) -> WorkloadEnv {
        WorkloadEnv {
            now: Seconds::ZERO,
            dt: Seconds::new(dt),
            rail_voltage: Volts::new(3.3),
            usable_energy: Joules::new(1.0),
            supports_longevity: false,
        }
    }

    #[test]
    fn completes_ops_at_expected_rate() {
        let mut de = DataEncryption::new();
        de.on_power_up(Seconds::ZERO);
        // 1 s of 1 ms steps at 100 ms/op → 10 ops.
        for _ in 0..1000 {
            let d = de.step(&env(0.001));
            assert_eq!(d.mode, react_mcu::PowerMode::Active);
        }
        assert_eq!(de.ops_completed(), 10);
        assert_eq!(de.ops_failed(), 0);
    }

    #[test]
    fn power_failure_loses_in_flight_op() {
        let mut de = DataEncryption::new();
        for _ in 0..50 {
            de.step(&env(0.001)); // halfway through an op
        }
        de.on_power_down(Seconds::new(0.05));
        assert_eq!(de.ops_completed(), 0);
        assert_eq!(de.ops_failed(), 1);
        // Fresh op after reboot.
        de.on_power_up(Seconds::new(1.0));
        for _ in 0..100 {
            de.step(&env(0.001));
        }
        assert_eq!(de.ops_completed(), 1);
    }

    #[test]
    fn failed_ops_are_counted_apart_from_completed_ones() {
        let mut de = DataEncryption::new();
        // Complete, fail, complete, fail, complete.
        for completes in [true, false, true, false, true] {
            let steps = if completes { 100 } else { 50 };
            for _ in 0..steps {
                de.step(&env(0.001));
            }
            if !completes {
                de.on_power_down(Seconds::ZERO);
            }
        }
        assert_eq!((de.ops_completed(), de.ops_failed()), (3, 2));
    }

    #[test]
    fn custom_duration() {
        let mut de = DataEncryption::with_op_duration(Seconds::new(0.01));
        for _ in 0..100 {
            de.step(&env(0.001));
        }
        assert_eq!(de.ops_completed(), 10);
    }

    #[test]
    fn name_is_de() {
        assert_eq!(DataEncryption::new().name(), "DE");
    }
}
