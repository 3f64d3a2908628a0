//! Timing wrappers for the simulator's three pluggable layers.
//!
//! `Simulator<B, W, S>` is generic over the buffer, the workload and
//! the power source, so a traced cell swaps each `Box<dyn …>` for a
//! wrapper that forwards every trait method — defaulted ones included,
//! or the kernel would silently take another path — and times the
//! methods that do the layer's work. Counters live in thread-locals:
//! a cell runs start to finish on one worker thread, and the wrappers
//! never nest (no layer calls another through the kernel's handles),
//! so a layer's self time is its total time.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use react_buffers::EnergyBuffer;
use react_circuit::{EnergyLedger, FaultKind};
use react_harvest::{PowerSource, Segment, VictimEvent};
use react_telemetry::FallbackReason;
use react_units::{Amps, Farads, Joules, Seconds, Volts, Watts};
use react_workloads::{LoadDemand, WakeHint, Workload, WorkloadEnv};

/// Calls, wall time and useful outcomes of one timed method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside the calls, timer cost included.
    pub ns: u64,
    /// Calls that returned a positive stride (closed forms only).
    pub useful: u64,
}

impl Counter {
    const ZERO: Counter = Counter {
        calls: 0,
        ns: 0,
        useful: 0,
    };

    /// Adds another counter into this one.
    pub fn add(&mut self, other: &Counter) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.useful += other.useful;
    }
}

/// The timed methods, named after the layer's module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// `PowerSource::segment`.
    Segment,
    /// `PowerSource::power_at`.
    PowerAt,
    /// `EnergyBuffer::step` (fine-step physics).
    BufferStep,
    /// `EnergyBuffer::idle_advance` (MCU-off closed form).
    IdleAdvance,
    /// `EnergyBuffer::powered_advance` (LPM3 closed form).
    PoweredAdvance,
    /// `EnergyBuffer::rail_voltage_for_usable` (wake-voltage inversion).
    RailForUsable,
    /// `Workload::step`.
    WorkloadStep,
    /// `Workload::next_wake`.
    NextWake,
}

/// Number of [`Probe`]s.
pub const PROBES: usize = 8;

impl Probe {
    /// Every probe, in counter-index order.
    pub const ALL: [Probe; PROBES] = [
        Probe::Segment,
        Probe::PowerAt,
        Probe::BufferStep,
        Probe::IdleAdvance,
        Probe::PoweredAdvance,
        Probe::RailForUsable,
        Probe::WorkloadStep,
        Probe::NextWake,
    ];

    /// Metric-name prefix (`<module>.<method>`).
    pub fn name(self) -> &'static str {
        match self {
            Probe::Segment => "env.segment",
            Probe::PowerAt => "env.power_at",
            Probe::BufferStep => "buffers.step",
            Probe::IdleAdvance => "buffers.idle_advance",
            Probe::PoweredAdvance => "buffers.powered_advance",
            Probe::RailForUsable => "buffers.rail_voltage_for_usable",
            Probe::WorkloadStep => "workloads.step",
            Probe::NextWake => "workloads.next_wake",
        }
    }
}

/// Per-probe counters of one cell.
pub type Counters = [Counter; PROBES];

thread_local! {
    static COUNTERS: [Cell<Counter>; PROBES] = const { [const { Cell::new(Counter::ZERO) }; PROBES] };
}

fn record(probe: Probe, ns: u64, useful: bool) {
    COUNTERS.with(|c| {
        let slot = &c[probe as usize];
        let mut v = slot.get();
        v.calls += 1;
        v.ns += ns;
        v.useful += u64::from(useful);
        slot.set(v);
    });
}

#[inline]
fn timed<T>(probe: Probe, f: impl FnOnce() -> T) -> T {
    timed_useful(probe, f, |_| false)
}

#[inline]
fn timed_useful<T>(probe: Probe, f: impl FnOnce() -> T, useful: impl FnOnce(&T) -> bool) -> T {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    record(probe, ns, useful(&out));
    out
}

/// Returns this thread's counters and zeroes them.
pub fn take_counters() -> Counters {
    COUNTERS.with(|c| std::array::from_fn(|i| c[i].replace(Counter::ZERO)))
}

/// What one timed call costs the timer itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimerCost {
    /// Nanoseconds an empty call reads between its two clock reads;
    /// subtracted from every layer's time.
    pub inside_ns: f64,
    /// Nanoseconds an empty timed call adds to the caller's wall time
    /// in all; the part outside the clock reads lands in the caller's
    /// (the kernel's) self time and is subtracted there.
    pub per_call_ns: f64,
}

/// Measures [`TimerCost`] with empty timed calls: the median of a few
/// batches, each long enough to swamp the clock's resolution.
pub fn calibrate() -> TimerCost {
    const CALLS: u64 = 200_000;
    let saved = take_counters();
    let mut inside = Vec::new();
    let mut per_call = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        for i in 0..CALLS {
            timed(Probe::Segment, || black_box(i));
        }
        let total = start.elapsed().as_nanos() as f64;
        let c = take_counters()[Probe::Segment as usize];
        inside.push(c.ns as f64 / CALLS as f64);
        per_call.push(total / CALLS as f64);
    }
    COUNTERS.with(|c| {
        for (slot, v) in c.iter().zip(saved) {
            slot.set(v);
        }
    });
    TimerCost {
        inside_ns: crate::stats::median(&mut inside),
        per_call_ns: crate::stats::median(&mut per_call),
    }
}

/// A power source whose `segment` and `power_at` calls are timed.
#[derive(Debug)]
pub struct TimedSource(pub Box<dyn PowerSource>);

impl Clone for TimedSource {
    fn clone(&self) -> Self {
        TimedSource(self.0.clone_source())
    }
}

impl PowerSource for TimedSource {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn segment(&mut self, t: Seconds) -> Segment {
        timed(Probe::Segment, || self.0.segment(t))
    }

    fn power_at(&mut self, t: Seconds) -> Watts {
        timed(Probe::PowerAt, || self.0.power_at(t))
    }

    fn duration(&self) -> Option<Seconds> {
        self.0.duration()
    }

    fn observe(&mut self, event: VictimEvent) {
        self.0.observe(event)
    }

    fn clone_source(&self) -> Box<dyn PowerSource> {
        Box::new(self.clone())
    }
}

/// An energy buffer whose fine step and closed forms are timed.
pub struct TimedBuffer(pub Box<dyn EnergyBuffer>);

impl EnergyBuffer for TimedBuffer {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn rail_voltage(&self) -> Volts {
        self.0.rail_voltage()
    }

    fn input_voltage(&self) -> Volts {
        self.0.input_voltage()
    }

    fn equivalent_capacitance(&self) -> Farads {
        self.0.equivalent_capacitance()
    }

    fn stored_energy(&self) -> Joules {
        self.0.stored_energy()
    }

    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        self.0.usable_energy_above(v_floor)
    }

    fn supports_longevity(&self) -> bool {
        self.0.supports_longevity()
    }

    fn capacitance_level(&self) -> u32 {
        self.0.capacitance_level()
    }

    fn supports_idle_fast_path(&self) -> bool {
        self.0.supports_idle_fast_path()
    }

    fn reconfiguration_count(&self) -> u64 {
        self.0.reconfiguration_count()
    }

    fn defensive_reconfigure(&mut self) -> bool {
        self.0.defensive_reconfigure()
    }

    fn capacitance_dwell(&self) -> Vec<(u32, f64)> {
        self.0.capacitance_dwell()
    }

    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, mcu_running: bool) {
        timed(Probe::BufferStep, || {
            self.0.step(input, load, dt, mcu_running)
        })
    }

    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        timed_useful(
            Probe::IdleAdvance,
            || self.0.idle_advance(input, duration, v_stop, fine_dt),
            |advanced| advanced.get() > 0.0,
        )
    }

    fn supports_powered_fast_path(&self) -> bool {
        self.0.supports_powered_fast_path()
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
        timed_useful(
            Probe::PoweredAdvance,
            || {
                self.0
                    .powered_advance(input, load, duration, v_stop, v_wake, fine_dt)
            },
            |advanced| advanced.is_some_and(|a| a.get() > 0.0),
        )
    }

    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        timed(Probe::RailForUsable, || {
            self.0.rail_voltage_for_usable(energy, v_floor)
        })
    }

    fn take_fallback(&mut self) -> Option<FallbackReason> {
        self.0.take_fallback()
    }

    fn apply_fault(&mut self, kind: FaultKind) -> bool {
        self.0.apply_fault(kind)
    }

    fn leakage_probe(&self) -> Option<Watts> {
        self.0.leakage_probe()
    }

    fn ledger(&self) -> &EnergyLedger {
        self.0.ledger()
    }
}

/// A workload whose `step` and `next_wake` calls are timed.
pub struct TimedWorkload(pub Box<dyn Workload>);

impl Workload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_power_up(&mut self, now: Seconds) {
        self.0.on_power_up(now)
    }

    fn on_power_down(&mut self, now: Seconds) {
        self.0.on_power_down(now)
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        timed(Probe::WorkloadStep, || self.0.step(env))
    }

    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        timed(Probe::NextWake, || self.0.next_wake(env))
    }

    fn finalize(&mut self, now: Seconds) {
        self.0.finalize(now)
    }

    fn ops_completed(&self) -> u64 {
        self.0.ops_completed()
    }

    fn ops_failed(&self) -> u64 {
        self.0.ops_failed()
    }

    fn aux_completed(&self) -> u64 {
        self.0.aux_completed()
    }

    fn events_missed(&self) -> u64 {
        self.0.events_missed()
    }
}
