//! The energy-buffer abstraction every architecture implements.

use react_circuit::EnergyLedger;
use react_telemetry::FallbackReason;
use react_units::{Amps, Coulombs, Farads, Joules, Seconds, Volts, Watts};

/// Converts harvested rail power into charge at a receiving element's
/// voltage, modelling the constant-current cold-start region of real
/// boost chargers: below [`CONVERSION_FLOOR`] the converter delivers its
/// current limit rather than unbounded current.
pub fn power_intake(power: Watts, v_element: Volts, dt: Seconds) -> Coulombs {
    if power.get() <= 0.0 {
        return Coulombs::ZERO;
    }
    let v_eff = v_element.max(CONVERSION_FLOOR);
    (power / v_eff).min(CHARGE_CURRENT_LIMIT) * dt
}

/// Minimum conversion voltage (constant-current region boundary).
pub const CONVERSION_FLOOR: Volts = Volts::new(0.3);

/// Charge-current ceiling of the harvester IC.
pub const CHARGE_CURRENT_LIMIT: Amps = Amps::new(0.05);

/// An energy buffer between the harvester frontend and the load.
///
/// One `step` advances the buffer by `dt`: the harvester offers `input`
/// *power* at the rail (converters move power, not fixed current — each
/// buffer converts it to charge at its receiving element's voltage via
/// [`power_intake`]), the load draws `load` current, internal physics
/// (leakage, diode conduction, controller actions) play out, and every
/// joule is booked into the [`EnergyLedger`].
pub trait EnergyBuffer {
    /// Display name used in tables (`"770 µF"`, `"REACT"`, …).
    fn name(&self) -> &str;

    /// Voltage presented to the load rail.
    fn rail_voltage(&self) -> Volts;

    /// Voltage the *harvester* sees at the buffer's input node. For a
    /// single capacitor this is the rail; REACT's input isolation diodes
    /// steer charging current to the lowest-voltage connected element
    /// (§3.2.1), so its input node sits at that element's voltage.
    fn input_voltage(&self) -> Volts {
        self.rail_voltage()
    }

    /// Present equivalent capacitance at the rail.
    fn equivalent_capacitance(&self) -> Farads;

    /// Total energy stored across all internal capacitors.
    fn stored_energy(&self) -> Joules;

    /// Energy this buffer can still deliver to the load above `v_floor`
    /// (the brown-out voltage), accounting for the buffer's own
    /// extraction mechanism (REACT's series reclamation, a static
    /// buffer's plain ½C(V²−V_f²)).
    fn usable_energy_above(&self, v_floor: Volts) -> Joules;

    /// `true` if the buffer exposes the software-directed longevity API
    /// (§3.4.1). REACT and Morphy do; static buffers cannot.
    fn supports_longevity(&self) -> bool {
        false
    }

    /// The buffer's capacitance-level surrogate for stored energy
    /// (§3.4.1): 0 for static buffers, the bank/ladder step otherwise.
    fn capacitance_level(&self) -> u32 {
        0
    }

    /// `true` if this buffer's MCU-off physics are coarse-integrable:
    /// its [`idle_advance`](Self::idle_advance) collapses whole charge
    /// phases in closed form instead of replaying fine steps. The
    /// adaptive simulation kernel only hands idle trace windows to
    /// buffers that report `true`; everything else runs through the
    /// ordinary fine-step loop, keeping step counts honest.
    fn supports_idle_fast_path(&self) -> bool {
        false
    }

    /// Count of capacitance reconfigurations the buffer's controller has
    /// performed (REACT bank switches, Morphy ladder moves). Zero for
    /// buffers without a controller.
    fn reconfiguration_count(&self) -> u64 {
        0
    }

    /// Shifts the buffer into a more conservative posture in response
    /// to a suspected energy attack (see [`crate::defense`]): adaptive
    /// buffers step their capacitance ladder *down* one level, banking
    /// less per cycle but surviving shallower charge windows. Returns
    /// `true` if a reconfiguration actually happened. Buffers without a
    /// controller have no defensive posture and return `false`.
    fn defensive_reconfigure(&mut self) -> bool {
        false
    }

    /// Dwell time per [`capacitance_level`](Self::capacitance_level):
    /// `(level, seconds)` pairs covering the whole simulated time, in
    /// ascending level order. Empty for buffers that never change level.
    /// Both kernels must account this identically — the equivalence
    /// suite asserts it.
    fn capacitance_dwell(&self) -> Vec<(u32, f64)> {
        Vec::new()
    }

    /// Advances the buffer by `dt`. `mcu_running` gates controller
    /// software that runs on the target MCU (REACT's poller); externally
    /// powered controllers (Morphy) ignore it.
    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, mcu_running: bool);

    /// Advances the buffer through an MCU-off stretch: constant rail
    /// `input` power, zero load, for up to `duration`, stopping early
    /// once the rail reaches `v_stop` (the voltage that powers the MCU:
    /// the power gate's enable voltage, or brown-out behind a welded
    /// switch).
    /// Returns the simulated time actually advanced, always a whole
    /// number of `fine_dt` steps except possibly a short final partial
    /// step at the end of `duration`.
    ///
    /// The default implementation replays the fixed-timestep reference
    /// loop ([`reference_idle_advance`]) exactly, so buffers with idle
    /// dynamics the closed forms do not cover keep step-identical
    /// semantics. Buffers whose idle physics are coarse-integrable —
    /// [`StaticBuffer`](crate::StaticBuffer),
    /// [`ReactBuffer`](crate::ReactBuffer),
    /// [`MorphyBuffer`](crate::MorphyBuffer) — override this to
    /// integrate whole charge phases analytically (see
    /// [`charge_ode`](crate::charge_ode)), which is what makes the
    /// adaptive simulation kernel fast.
    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        reference_idle_advance(self, input, duration, v_stop, fine_dt)
    }

    /// `true` if this buffer's MCU-**on** sleep physics are
    /// coarse-integrable: [`powered_advance`](Self::powered_advance)
    /// collapses workload-idle LPM3 stretches in closed form. The
    /// adaptive kernel's sleep fast path only engages on buffers that
    /// report `true`.
    fn supports_powered_fast_path(&self) -> bool {
        false
    }

    /// Advances the buffer through an MCU-on, workload-asleep stretch:
    /// constant rail `input` power and a constant `load` current (the
    /// MCU's sleep draw plus any peripheral held through the sleep, per
    /// `LoadDemand::sleep_with`), for up to `duration`, stopping early —
    /// quantized *up* onto the `fine_dt` grid — once the rail falls to
    /// `v_stop` (the power gate's brown-out voltage) or rises to
    /// `v_wake` (the predicted crossing of the sleeping workload's
    /// §3.4.1 energy threshold, from
    /// [`rail_voltage_for_usable`](Self::rail_voltage_for_usable)).
    /// Returns the simulated time actually advanced, or `None` when the
    /// buffer's present state has no closed form (the kernel falls back
    /// to fine stepping; controller buffers use this for e.g.
    /// un-equalized bank states). Controller buffers must keep their
    /// poll/reconfiguration bookkeeping step-identical to the fine-step
    /// reference.
    fn powered_advance(
        &mut self,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        let _ = (input, load, duration, v_stop, v_wake, fine_dt);
        None
    }

    /// The rail voltage at which
    /// [`usable_energy_above(v_floor)`](Self::usable_energy_above)
    /// first reaches `energy`, under the buffer's *present*
    /// configuration (bank/ladder topology frozen) — how the kernel
    /// turns a workload's `WakeHint::WhenEnergy` threshold into the
    /// `powered_advance` stop voltage. `None` when the relation has no
    /// simple inverse; the result may exceed the rail clamp (the wait
    /// is then unreachable in this configuration and the stride runs to
    /// its other bounds).
    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        let _ = (energy, v_floor);
        None
    }

    /// Query-and-clear the reason the most recent
    /// [`idle_advance`](Self::idle_advance)/[`powered_advance`](Self::powered_advance)
    /// call refused (or returned a zero stride), for telemetry.
    /// Controller buffers record *why* their closed form declined —
    /// guard-band proximity, un-equalized topology — instead of
    /// swallowing it; the kernel only reads this when a recorder is
    /// enabled, and the default (buffers with nothing to report) is
    /// `None`, which the kernel attributes from its own state.
    fn take_fallback(&mut self) -> Option<FallbackReason> {
        None
    }

    /// Applies a hardware-drift fault to the live buffer. Returns
    /// `true` when the buffer models this fault kind — the drift
    /// mutated its *actual* component values while the closed-form
    /// fast paths keep integrating with the stale datasheet (believed)
    /// values, which is exactly the divergence the invariant auditor
    /// exists to catch. The default declines every kind: buffers
    /// without a believed/actual split simply don't drift (kernel-level
    /// faults — comparator offset, harvester derate, stuck switches —
    /// are applied by the simulator and affect every buffer).
    fn apply_fault(&mut self, kind: react_circuit::FaultKind) -> bool {
        let _ = kind;
        false
    }

    /// The *actual* instantaneous leakage power at the present
    /// operating point — the invariant auditor's shadow probe, checked
    /// against the closed forms' believed leakage booking. `None` when
    /// the buffer cannot report a single-capacitor leakage law
    /// (composite topologies), which skips the shadow check.
    fn leakage_probe(&self) -> Option<Watts> {
        None
    }

    /// Energy accounting so far.
    fn ledger(&self) -> &EnergyLedger;
}

/// The fixed-timestep reference idle loop: constant rail `input`, zero
/// load, MCU off, stopping early at `v_stop`. This is the single
/// definition behind [`EnergyBuffer::idle_advance`]'s default *and* the
/// controller buffers' fallback paths for states their closed forms do
/// not cover — sharing it guarantees the fallbacks can never drift from
/// the reference semantics the equivalence suite pins.
pub fn reference_idle_advance<B: EnergyBuffer + ?Sized>(
    buffer: &mut B,
    input: Watts,
    duration: Seconds,
    v_stop: Volts,
    fine_dt: Seconds,
) -> Seconds {
    let total = duration.get();
    let dt = fine_dt.get();
    assert!(dt > 0.0, "fine timestep must be positive");
    let mut elapsed = 0.0_f64;
    while elapsed < total {
        if buffer.rail_voltage() >= v_stop {
            break;
        }
        let h = dt.min(total - elapsed);
        buffer.step(input, Amps::ZERO, Seconds::new(h), false);
        elapsed += h;
    }
    Seconds::new(elapsed)
}

/// Forwarding impl so the simulation engine can be generic over
/// `B: EnergyBuffer` while `BufferKind::build`'s `Box<dyn EnergyBuffer>`
/// constructors keep working as thin wrappers. Every method forwards
/// through the box so concrete overrides (notably `idle_advance`) are
/// preserved under dynamic dispatch.
impl<T: EnergyBuffer + ?Sized> EnergyBuffer for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn rail_voltage(&self) -> Volts {
        (**self).rail_voltage()
    }

    fn input_voltage(&self) -> Volts {
        (**self).input_voltage()
    }

    fn equivalent_capacitance(&self) -> Farads {
        (**self).equivalent_capacitance()
    }

    fn stored_energy(&self) -> Joules {
        (**self).stored_energy()
    }

    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        (**self).usable_energy_above(v_floor)
    }

    fn supports_longevity(&self) -> bool {
        (**self).supports_longevity()
    }

    fn capacitance_level(&self) -> u32 {
        (**self).capacitance_level()
    }

    fn supports_idle_fast_path(&self) -> bool {
        (**self).supports_idle_fast_path()
    }

    fn reconfiguration_count(&self) -> u64 {
        (**self).reconfiguration_count()
    }

    fn defensive_reconfigure(&mut self) -> bool {
        (**self).defensive_reconfigure()
    }

    fn capacitance_dwell(&self) -> Vec<(u32, f64)> {
        (**self).capacitance_dwell()
    }

    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, mcu_running: bool) {
        (**self).step(input, load, dt, mcu_running)
    }

    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        (**self).idle_advance(input, duration, v_stop, fine_dt)
    }

    fn supports_powered_fast_path(&self) -> bool {
        (**self).supports_powered_fast_path()
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
        (**self).powered_advance(input, load, duration, v_stop, v_wake, fine_dt)
    }

    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        (**self).rail_voltage_for_usable(energy, v_floor)
    }

    fn take_fallback(&mut self) -> Option<FallbackReason> {
        (**self).take_fallback()
    }

    fn apply_fault(&mut self, kind: react_circuit::FaultKind) -> bool {
        (**self).apply_fault(kind)
    }

    fn leakage_probe(&self) -> Option<Watts> {
        (**self).leakage_probe()
    }

    fn ledger(&self) -> &EnergyLedger {
        (**self).ledger()
    }
}

/// Catalog of buffer designs evaluated in the paper (§4.1) plus the
/// extension baselines from the related-work discussion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// 770 µF static buffer (equal reactivity to REACT's LLB).
    Static770uF,
    /// 10 mF static buffer.
    Static10mF,
    /// 17 mF static buffer (≈ REACT's full capacity).
    Static17mF,
    /// The REACT prototype (Table 1 configuration).
    React,
    /// The Morphy \[49\] switched-capacitor network (8 × 2 mF).
    Morphy,
    /// Dewdrop-style \[6\] static buffer with an adaptive enable voltage.
    Dewdrop,
    /// Capybara-style \[7\] dual-capacitor programmer-selected buffer.
    Capybara,
}

impl BufferKind {
    /// The five designs the paper's tables compare, in column order.
    pub const PAPER_COLUMNS: [BufferKind; 5] = [
        BufferKind::Static770uF,
        BufferKind::Static10mF,
        BufferKind::Static17mF,
        BufferKind::Morphy,
        BufferKind::React,
    ];

    /// Table-style display label.
    pub fn label(self) -> &'static str {
        match self {
            BufferKind::Static770uF => "770 µF",
            BufferKind::Static10mF => "10 mF",
            BufferKind::Static17mF => "17 mF",
            BufferKind::React => "REACT",
            BufferKind::Morphy => "Morphy",
            BufferKind::Dewdrop => "Dewdrop",
            BufferKind::Capybara => "Capybara",
        }
    }

    /// The inverse of [`label`](Self::label): resolves a table-style
    /// display label (as embedded in scenario-report cell ids like
    /// `"rf-sparse-week/770 µF/s0"`) back to its kind.
    pub fn from_label(label: &str) -> Option<BufferKind> {
        [
            BufferKind::Static770uF,
            BufferKind::Static10mF,
            BufferKind::Static17mF,
            BufferKind::React,
            BufferKind::Morphy,
            BufferKind::Dewdrop,
            BufferKind::Capybara,
        ]
        .into_iter()
        .find(|k| k.label() == label)
    }

    /// Builds a fresh buffer of this kind with the paper's parameters.
    pub fn build(self) -> Box<dyn EnergyBuffer> {
        match self {
            BufferKind::Static770uF => Box::new(crate::StaticBuffer::static_770uf()),
            BufferKind::Static10mF => Box::new(crate::StaticBuffer::static_10mf()),
            BufferKind::Static17mF => Box::new(crate::StaticBuffer::static_17mf()),
            BufferKind::React => Box::new(crate::ReactBuffer::paper_prototype()),
            BufferKind::Morphy => Box::new(crate::MorphyBuffer::paper_implementation()),
            BufferKind::Dewdrop => Box::new(crate::StaticBuffer::dewdrop()),
            BufferKind::Capybara => Box::new(crate::CapybaraBuffer::reference()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(BufferKind::Static770uF.label(), "770 µF");
        assert_eq!(BufferKind::React.label(), "REACT");
        assert_eq!(BufferKind::PAPER_COLUMNS.len(), 5);
        // REACT is the last column, as in Tables 2/4/5.
        assert_eq!(BufferKind::PAPER_COLUMNS[4], BufferKind::React);
    }

    #[test]
    fn build_constructs_every_kind() {
        for kind in [
            BufferKind::Static770uF,
            BufferKind::Static10mF,
            BufferKind::Static17mF,
            BufferKind::React,
            BufferKind::Morphy,
            BufferKind::Dewdrop,
            BufferKind::Capybara,
        ] {
            let buf = kind.build();
            assert!(
                buf.rail_voltage().get().abs() < 1e-9,
                "{} starts empty",
                buf.name()
            );
            assert!(buf.equivalent_capacitance().get() > 0.0);
        }
    }
}
