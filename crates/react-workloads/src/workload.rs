//! The workload abstraction the simulator drives.

use react_mcu::PowerMode;
use react_units::{Amps, Joules, Seconds, Volts};

/// What the running software sees each step: time, the rail, and the
/// buffer's energy book-keeping (REACT's capacitance-level surrogate is
/// exposed as usable energy, §3.4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadEnv {
    /// Wall-clock time.
    pub now: Seconds,
    /// Step length.
    pub dt: Seconds,
    /// Voltage at the load rail.
    pub rail_voltage: Volts,
    /// Energy the buffer can still deliver above the brown-out voltage.
    pub usable_energy: Joules,
    /// `true` if the buffer exposes the software longevity API
    /// (REACT and Morphy do; static buffers cannot, §3.4.1).
    pub supports_longevity: bool,
}

/// The workload's demand for the step: an MCU mode plus switched
/// peripheral current.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadDemand {
    /// Requested MCU power mode.
    pub mode: PowerMode,
    /// Total peripheral current switched on (radio, microphone, …).
    pub peripheral_current: Amps,
}

impl LoadDemand {
    /// CPU-only active execution.
    pub fn active() -> Self {
        Self {
            mode: PowerMode::Active,
            peripheral_current: Amps::ZERO,
        }
    }

    /// Responsive sleep (LPM3), optionally with a peripheral held on.
    pub fn sleep_with(peripheral_current: Amps) -> Self {
        Self {
            mode: PowerMode::Sleep,
            peripheral_current,
        }
    }

    /// Active with a peripheral on.
    pub fn active_with(peripheral_current: Amps) -> Self {
        Self {
            mode: PowerMode::Active,
            peripheral_current,
        }
    }
}

/// When a sleeping workload next needs the CPU — the contract behind
/// the adaptive kernel's MCU-on sleep fast path.
///
/// A workload that just demanded [`PowerMode::Sleep`] may be asked
/// where its next wake-up lies. Returning [`WakeHint::At`] promises:
/// fine-stepping any time strictly before the hint would return the
/// **same** `Sleep` demand (mode *and* peripheral current) and mutate
/// no observable state, *regardless of how `rail_voltage` or
/// `usable_energy` evolve over the stretch* — the kernel freezes the
/// workload while buffer physics advance in closed form. A demand that
/// reads the energy budget each step (the §3.4.1 longevity waits)
/// answers [`WakeHint::WhenEnergy`] instead, with the same promise
/// weakened to hold only while `usable_energy` stays *below* the
/// threshold (the kernel stops the stride at the predicted crossing).
/// At the hinted wake-up the demand differs or a timer/event fires
/// (the wake-hint property suite enforces this).
///
/// A *running* workload may answer [`WakeHint::Steady`] instead: every
/// step from now until power-down returns the demand of its last step
/// (an `Active` mode and its peripheral current), whatever the rail
/// voltage and usable energy. The kernel then integrates the buffer in
/// closed form under that constant load, and hands the covered steps to
/// [`Workload::replay_steady`], so its counters advance exactly as fine
/// steps would advance them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WakeHint {
    /// No coarse stride may be taken: the workload is active, about to
    /// act, or its sleep demand depends on state the kernel cannot
    /// reduce to a wake condition.
    Immediate,
    /// Running, and every step returns the demand of the last step,
    /// whatever the rail voltage and usable energy, until power-down.
    /// Only a workload whose last demand was `Active` may answer it; a
    /// sleeping workload's LPM3 path treats it as [`WakeHint::Immediate`].
    Steady,
    /// Asleep until the given absolute time.
    At(Seconds),
    /// A §3.4.1 longevity wait: asleep until `usable_energy` first
    /// reaches `energy` — or `deadline` arrives (the next timer/event
    /// the sleeping workload still reacts to), whichever is earlier.
    /// The kernel turns the energy threshold into a predicted
    /// rail-voltage crossing and stops the stride there.
    WhenEnergy {
        /// Usable energy (above the brown-out floor) that ends the wait.
        energy: Joules,
        /// Earlier timer wake-up, if one is pending.
        deadline: Option<Seconds>,
    },
    /// Asleep with no pending timer: only external power events end
    /// the wait.
    Never,
}

/// A benchmark application driven by the simulator.
///
/// The simulator calls [`step`](Workload::step) only while the MCU is
/// powered and past boot; power transitions arrive through
/// [`on_power_up`](Workload::on_power_up) /
/// [`on_power_down`](Workload::on_power_down). Progress counters must be
/// kept in nonvolatile state (conceptually FRAM): they survive power
/// failure, but any in-flight operation is lost.
pub trait Workload {
    /// Display name (`DE`, `SC`, `RT`, `PF`).
    fn name(&self) -> &'static str;

    /// Called when the MCU finishes booting after the gate enables.
    fn on_power_up(&mut self, now: Seconds);

    /// Called when the gate disconnects the MCU (brown-out). In-flight
    /// operations fail here.
    fn on_power_down(&mut self, now: Seconds);

    /// One simulation step while running; returns the load demand.
    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand;

    /// Where the workload's next wake-up lies, or whether its running
    /// demand holds (see [`WakeHint`] for the exact contract). The
    /// default is the always-safe [`WakeHint::Immediate`], which keeps
    /// fine-step behavior; duty-cycled workloads override it with their
    /// next timer deadline so the kernel can integrate whole LPM3
    /// stretches in closed form, and a workload whose active demand
    /// never changes (DE) answers [`WakeHint::Steady`] so the kernel can
    /// integrate its MCU-active time too, replaying the covered steps
    /// through [`replay_steady`](Workload::replay_steady).
    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        let _ = env;
        WakeHint::Immediate
    }

    /// Runs the `steps` steps `first..first + steps` of an active stride
    /// that entered at `env` (step `i` at `env.now + i·dt`), leaving the
    /// state those [`step`](Workload::step) calls would leave. The
    /// kernel calls it only after the workload declared
    /// [`WakeHint::Steady`], so the demands are known and not returned.
    /// The default makes the calls; a workload whose state has a closed
    /// form over a steady stretch (DE counts whole ops) overrides it.
    fn replay_steady(&mut self, first: u64, steps: u64, env: &WorkloadEnv) {
        let mut step_env = *env;
        for i in first..first + steps {
            step_env.now = env.now + Seconds::new(env.dt.get() * i as f64);
            self.step(&step_env);
        }
    }

    /// Called once when the simulation ends, with the final time, so
    /// workloads can account for deadlines that passed while dark.
    fn finalize(&mut self, now: Seconds);

    /// Primary figure of merit (encryptions, samples, transmissions,
    /// packets forwarded).
    fn ops_completed(&self) -> u64;

    /// Operations started but lost to power failure.
    fn ops_failed(&self) -> u64 {
        0
    }

    /// Secondary count (PF reports packets received here).
    fn aux_completed(&self) -> u64 {
        0
    }

    /// External events (deadlines, packet arrivals) that could not be
    /// served.
    fn events_missed(&self) -> u64 {
        0
    }
}

/// Forwarding impl so the simulation engine can be generic over
/// `W: Workload` (monomorphized hot loop) while `WorkloadKind`-style
/// `Box<dyn Workload>` constructors keep working as thin wrappers.
impl<T: Workload + ?Sized> Workload for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_power_up(&mut self, now: Seconds) {
        (**self).on_power_up(now)
    }

    fn on_power_down(&mut self, now: Seconds) {
        (**self).on_power_down(now)
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        (**self).step(env)
    }

    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        (**self).next_wake(env)
    }

    fn replay_steady(&mut self, first: u64, steps: u64, env: &WorkloadEnv) {
        (**self).replay_steady(first, steps, env)
    }

    fn finalize(&mut self, now: Seconds) {
        (**self).finalize(now)
    }

    fn ops_completed(&self) -> u64 {
        (**self).ops_completed()
    }

    fn ops_failed(&self) -> u64 {
        (**self).ops_failed()
    }

    fn aux_completed(&self) -> u64 {
        (**self).aux_completed()
    }

    fn events_missed(&self) -> u64 {
        (**self).events_missed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_constructors() {
        let a = LoadDemand::active();
        assert_eq!(a.mode, PowerMode::Active);
        assert_eq!(a.peripheral_current, Amps::ZERO);

        let s = LoadDemand::sleep_with(Amps::from_micro(1.0));
        assert_eq!(s.mode, PowerMode::Sleep);
        assert!((s.peripheral_current.to_micro() - 1.0).abs() < 1e-12);

        let w = LoadDemand::active_with(Amps::from_milli(18.0));
        assert_eq!(w.mode, PowerMode::Active);
        assert!((w.peripheral_current.to_milli() - 18.0).abs() < 1e-12);
    }
}
