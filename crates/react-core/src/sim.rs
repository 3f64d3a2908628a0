//! The simulation engine: harvester → buffer → gate → MCU → workload.
//!
//! Two kernels share one accounting path:
//!
//! * [`KernelMode::FixedDt`] — the reference loop: every run advances in
//!   uniform `dt` steps (1 ms by default). Simple, slow, and the ground
//!   truth the adaptive kernel is validated against.
//! * [`KernelMode::Adaptive`] (default) — wherever the load holds
//!   still, nothing in the system needs millisecond resolution. While
//!   the power gate is open and the MCU is off, the buffer just
//!   integrates harvested charge ([`EnergyBuffer::idle_advance`], up to
//!   the enable-voltage crossing); while the MCU sleeps in LPM3 between
//!   workload wakes, it integrates charge against the standing sleep
//!   draw ([`EnergyBuffer::powered_advance`], up to the next wake or
//!   the brown-out crossing); and while a running workload declares its
//!   demand steady ([`WakeHint::Steady`]), the same closed form carries
//!   the buffer under the active draw, and the covered steps are handed
//!   to the workload's [`Workload::replay_steady`] in bulk (DE books
//!   whole ops at once). All three run through one stride
//!   path over whole zero-order-hold source windows, quantized back
//!   onto the `dt` grid, collapsing ~10⁵-step phases into a handful of
//!   strides. Wherever the demand may change — or a buffer has no
//!   closed form — the kernel drops back to fine `dt` steps. Sleep and
//!   idle strides leave workload semantics bit-identical; active
//!   strides keep the workload's operations bit-identical to the same
//!   count of fine steps, while the buffer's trajectory moves within
//!   the kernel-equivalence tolerance.
//!
//! Both kernels read their input through one
//! [`ReplayCursor`](react_harvest::ReplayCursor): a stride asks it for
//! the converted source window at the clock, and a fine step asks it
//! for the rail power at the clock, which it answers from that cached
//! window until the step grid leaves the segment, so a fine step pays
//! for its physics and not for a source lookup and a conversion.
//!
//! The engine is generic over the buffer, workload, power source and
//! telemetry recorder (`Simulator<B, W, S, R>`), monomorphizing the hot
//! loop for concrete types; the `Box<dyn …>` components that
//! [`Scenario::simulator`](crate::Scenario::simulator) builds still work
//! through forwarding impls and default type parameters.

use react_buffers::defense::{AttackDetector, DefenseConfig};
use react_buffers::{BufferKind, EnergyBuffer};
use react_circuit::{FaultKind, FaultPlan};
use react_harvest::{PowerReplay, PowerSource, ReplayCursor, TraceSource, VictimEvent};
use react_mcu::{Mcu, McuSpec, PowerGate, PowerMode};
use react_telemetry::{
    EventKind, FallbackReason, NullRecorder, Recorder, Regime, SimEvent, StrideKind,
};
use react_units::{Amps, Seconds, Volts};
use react_workloads::{LoadDemand, WakeHint, Workload, WorkloadEnv};

use crate::audit::{AuditConfig, AuditSnapshot, InvariantAuditor};
use crate::calib;
use crate::metrics::{RunMetrics, RunOutcome, VoltageSample};

/// A run that cannot even start — the configuration is unsatisfiable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The power source is unbounded and no harvest horizon was set:
    /// the run would never terminate. Fix with
    /// [`Simulator::with_horizon`].
    UnboundedSource,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnboundedSource => {
                write!(f, "unbounded power source: set Simulator::with_horizon")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Peripheral draw at or above this reads as "the radio is keyed" to
/// the victim-event feedback channel (the RF workloads' radio draws
/// are 6–18 mA; sensor bias currents sit well below 1 mA).
const RADIO_SENSE_CURRENT: Amps = Amps::new(1.0e-3);

/// Which stepping strategy [`Simulator::run`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Uniform fixed-`dt` stepping (the validation reference).
    FixedDt,
    /// Analytic coarse strides while the system is off, fine `dt` steps
    /// while the MCU runs or near gate transitions.
    #[default]
    Adaptive,
}

/// A configured simulation: every testbed component from §4 of the
/// paper, assembled.
///
/// Generic over the power source as well as buffer and workload: the
/// default [`TraceSource`] replays a recorded trace exactly as before,
/// while streaming `react-env` sources run unbounded environments —
/// those need an explicit [`Simulator::with_horizon`].
pub struct Simulator<
    B = Box<dyn EnergyBuffer>,
    W = Box<dyn Workload>,
    S = TraceSource,
    R = NullRecorder,
> {
    replay: PowerReplay<S>,
    buffer: B,
    mcu: Mcu,
    gate: PowerGate,
    workload: W,
    dt: Seconds,
    kernel: KernelMode,
    probe_interval: Option<Seconds>,
    max_drain: Seconds,
    /// Explicit harvest horizon (plays the role of the trace end for
    /// unbounded sources; also truncates bounded ones).
    horizon: Option<Seconds>,
    /// Fraction of CPU time the buffer's on-MCU software component
    /// steals (REACT's 10 Hz poller, §5.1). Zero for static buffers and
    /// externally-controlled Morphy.
    software_overhead: f64,
    /// Whether victim events (boots, brown-outs, radio spans, buffer
    /// reconfigurations) are forwarded to the power source's feedback
    /// channel. Off by default: benign sources ignore the events, so
    /// only adversarial scenarios pay for the emission.
    feedback: bool,
    /// Attack-detection defense; `None` runs undefended.
    defense: Option<DefenseConfig>,
    /// Scheduled hardware-drift faults; empty by default (healthy run).
    faults: FaultPlan,
    /// Invariant-auditor tolerances; `None` runs unaudited.
    audit: Option<AuditConfig>,
    /// Telemetry sink. [`NullRecorder`] by default, in which case every
    /// instrumentation branch in the engine compiles away.
    recorder: R,
}

impl<B: EnergyBuffer, W: Workload, S: PowerSource + Clone> Simulator<B, W, S> {
    /// Builds a simulator with paper-default gate thresholds, MCU spec,
    /// timestep, and drain allowance.
    ///
    /// REACT's on-MCU poller overhead (§5.1) is charged to any buffer
    /// whose name is [`BufferKind::React`]'s label. It is keyed on the
    /// name rather than a kind because the engine is handed a buffer,
    /// not a kind: every `ReactConfig` the paper's ablations build
    /// reports that name, and a wrapper that forwards `name` (a timing
    /// shim, say) keeps the overhead.
    pub fn new(replay: PowerReplay<S>, buffer: B, workload: W) -> Self {
        let software_overhead = if buffer.name() == BufferKind::React.label() {
            calib::REACT_SOFTWARE_OVERHEAD
        } else {
            0.0
        };
        Self {
            replay,
            buffer,
            mcu: Mcu::new(McuSpec::msp430fr5994()),
            gate: PowerGate::new(calib::ENABLE_VOLTAGE, calib::BROWNOUT_VOLTAGE),
            workload,
            dt: calib::DEFAULT_DT,
            kernel: KernelMode::default(),
            probe_interval: None,
            max_drain: calib::MAX_DRAIN_TIME,
            horizon: None,
            software_overhead,
            feedback: false,
            defense: None,
            faults: FaultPlan::empty(),
            audit: None,
            recorder: NullRecorder,
        }
    }
}

impl<B: EnergyBuffer, W: Workload, S: PowerSource + Clone, R: Recorder> Simulator<B, W, S, R> {
    /// Replaces the telemetry recorder (changing the simulator's
    /// recorder type): `with_recorder(RingRecorder::default())` turns
    /// event capture on, `with_recorder(StepAttribution::default())`
    /// profiles where the engine steps go. Recording never changes
    /// simulation results — the telemetry suite pins bit-identity
    /// against [`NullRecorder`] runs.
    pub fn with_recorder<R2: Recorder>(self, recorder: R2) -> Simulator<B, W, S, R2> {
        Simulator {
            replay: self.replay,
            buffer: self.buffer,
            mcu: self.mcu,
            gate: self.gate,
            workload: self.workload,
            dt: self.dt,
            kernel: self.kernel,
            probe_interval: self.probe_interval,
            max_drain: self.max_drain,
            horizon: self.horizon,
            software_overhead: self.software_overhead,
            feedback: self.feedback,
            defense: self.defense,
            faults: self.faults,
            audit: self.audit,
            recorder,
        }
    }

    /// Sets the harvest horizon: how long the environment is replayed
    /// before the run enters its drain phase. Mandatory for unbounded
    /// streaming sources; on bounded traces it acts as a truncation.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is positive and finite.
    pub fn with_horizon(mut self, horizon: Seconds) -> Self {
        assert!(
            horizon.get() > 0.0 && horizon.get().is_finite(),
            "horizon must be positive and finite"
        );
        self.horizon = Some(horizon);
        self
    }

    /// Overrides the timestep.
    pub fn with_timestep(mut self, dt: Seconds) -> Self {
        assert!(dt.get() > 0.0, "timestep must be positive");
        self.dt = dt;
        self
    }

    /// Selects the stepping kernel (adaptive by default).
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Enables voltage probing at the given interval (Fig. 1 / Fig. 6).
    pub fn with_probe(mut self, interval: Seconds) -> Self {
        self.probe_interval = Some(interval);
        self
    }

    /// Overrides the power gate (Dewdrop's adaptive enable voltage).
    pub fn with_gate(mut self, gate: PowerGate) -> Self {
        self.gate = gate;
        self
    }

    /// Overrides the drain allowance after the trace ends.
    pub fn with_max_drain(mut self, max_drain: Seconds) -> Self {
        self.max_drain = max_drain;
        self
    }

    /// Disables the buffer's on-MCU software overhead (the §5.1
    /// characterization runs DE with and without it).
    pub fn without_software_overhead(mut self) -> Self {
        self.software_overhead = 0.0;
        self
    }

    /// Opens the victim-event feedback channel: boots, brown-outs,
    /// radio spans, and buffer reconfigurations are reported to the
    /// power source via [`PowerSource::observe`]. Adaptive adversaries
    /// ([`react_env::AdaptiveAttack`]) time their strikes off this
    /// channel; benign sources ignore it. Off by default so benign
    /// cells pay nothing.
    pub fn with_feedback(mut self) -> Self {
        self.feedback = true;
        self
    }

    /// Arms the detect-and-degrade defense: an [`AttackDetector`]
    /// watches the gate-event series, and while alarmed the simulator
    /// raises the effective enable gate, steps the buffer into its
    /// conservative posture at each boot, and holds the workload in
    /// LPM3 for an exponential backoff after each attack-correlated
    /// reboot.
    pub fn with_defense(mut self, config: DefenseConfig) -> Self {
        self.defense = Some(config);
        self
    }

    /// Schedules mid-run hardware-drift faults ([`FaultPlan`]):
    /// capacitance fade, leakage growth, comparator offset, a welded
    /// load switch, harvester derating. Events fire at the top of the
    /// engine iteration whose clock has reached them, and coarse
    /// strides never integrate across a pending event.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Arms the kernel-level invariant auditor: every committed coarse
    /// stride is cross-checked online (ledger residual, voltage and
    /// dwell sanity, harvest bound, sampled leakage shadow check), and
    /// a divergence permanently degrades the faulted regime's fast
    /// path to honest fine stepping. Audited runs also clamp stride
    /// lengths to [`AuditConfig::max_stride`], so their step counts —
    /// not their physics — differ from unaudited runs.
    pub fn with_auditor(mut self, config: AuditConfig) -> Self {
        self.audit = Some(config);
        self
    }

    /// Runs the simulation to completion and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics on an unsatisfiable configuration (see [`SimError`]);
    /// [`Simulator::try_into_core`] is the fallible path.
    pub fn run(self) -> RunOutcome {
        self.run_recorded().0
    }

    /// Runs the simulation to completion and returns the outcome
    /// together with the recorder and everything it captured.
    ///
    /// # Panics
    ///
    /// Panics on an unsatisfiable configuration (see [`SimError`]);
    /// [`Simulator::try_into_core`] is the fallible path.
    pub fn run_recorded(self) -> (RunOutcome, R) {
        let mut core = self.try_into_core().unwrap_or_else(|e| panic!("{e}"));
        while core.advance() {}
        core.finish_telemetry()
    }

    /// Converts this configured simulator into its resumable engine
    /// core without running it. The fleet shard loop builds each cell
    /// this way so it can meter engine steps against a watchdog
    /// budget; stepping a core to completion is exactly
    /// [`Simulator::run_recorded`] (the run methods are implemented on
    /// top of it), so a fleet cell is bit-identical to a scalar run.
    ///
    /// # Errors
    ///
    /// [`SimError::UnboundedSource`] if the power source never ends and
    /// no [`Simulator::with_horizon`] was set.
    pub fn try_into_core(self) -> Result<SimCore<B, W, S, R>, SimError> {
        SimCore::new(self)
    }
}

/// The resumable simulation engine: one configured run, advanced one
/// engine iteration at a time.
///
/// [`Simulator::run_recorded`] is a thin loop over this type, so driving a
/// core one iteration at a time — as the fleet shard loop does, to
/// check each cell's watchdog budget between iterations — performs
/// exactly the same floating-point operations in exactly the same
/// order as a monolithic run.
///
/// Each iteration of [`SimCore::advance`] is either one closed-form
/// coarse stride (idle, LPM3-sleep or steady-active fast path) or one
/// fine `dt` step;
/// [`SimCore::now`] exposes the cell clock between iterations. The core
/// owns the run's [`ReplayCursor`]: strides read a whole converted
/// source window from it, fine steps the cached rail power at the
/// clock, and the victim-event feedback goes through it to the source.
pub struct SimCore<
    B = Box<dyn EnergyBuffer>,
    W = Box<dyn Workload>,
    S = TraceSource,
    R = NullRecorder,
> {
    /// The run's input: the replay's source, walked one cached
    /// converted segment at a time. Strides and fine steps both read it.
    input: ReplayCursor<S>,
    buffer: B,
    mcu: Mcu,
    gate: PowerGate,
    workload: W,
    dt: Seconds,
    probe_interval: Option<Seconds>,
    trace_end: Seconds,
    hard_end: Seconds,
    software_overhead: f64,
    feedback: bool,
    /// Which regimes have a closed-form fast path, indexed by
    /// [`Regime::index`]. The active regime's is taken only while the
    /// workload declares its demand steady.
    fast: [bool; Regime::COUNT],
    sleep_peripheral: Amps,
    /// Peripheral current of the workload's last demand when that
    /// demand was `Active` and the workload declared it steady
    /// ([`WakeHint::Steady`]) right after the step; `None` otherwise and
    /// across a power cycle. An active stride holds this load.
    steady_peripheral: Option<Amps>,
    t: Seconds,
    probe_acc: Seconds,
    on_since: Option<Seconds>,
    /// Outages *survived*: dark spans that ended in a reboot. The run
    /// starts in one (cold start), and the trailing drain-out is
    /// deliberately excluded — the system never came back from it.
    off_since: Option<Seconds>,
    off_max: f64,
    cycle_sum: f64,
    cycle_max: f64,
    cycles: u64,
    poll_debt: f64,
    engine_steps: u64,
    /// Boxed, because only gate edges and fault events touch it. Held
    /// inline, it moves the fields every step reads: REACT's DE hour
    /// cells then ran about 1.5× slower (`perfbench` fine-burst).
    detector: Option<Box<AttackDetector>>,
    base_enable: react_units::Volts,
    hold_until: Option<Seconds>,
    defensive_reconfigs: u64,
    last_reconfig_count: u64,
    radio_on: bool,
    guard_active: bool,
    /// Scheduled hardware-drift faults, applied in time order.
    fault_plan: FaultPlan,
    /// Index of the next unapplied fault event.
    fault_next: usize,
    /// Accumulated comparator-offset drift on the enable threshold, in
    /// volts (folded into every effective-enable computation).
    comparator_offset: f64,
    /// Multiplicative harvester derating on rail power (1.0 healthy).
    derate: f64,
    /// The power gate's load switch has welded closed: the comparator
    /// no longer matters, and only the MCU's own brown-out reset
    /// decides whether it runs.
    welded: bool,
    /// Online stride auditor; `None` runs unaudited.
    auditor: Option<InvariantAuditor>,
    /// Auditor verdicts, indexed by [`Regime::index`]: a tripped
    /// regime's fast path is permanently degraded to fine stepping for
    /// the rest of the run.
    degraded: [bool; Regime::COUNT],
    finished: bool,
    metrics: RunMetrics,
    series: Vec<VoltageSample>,
    recorder: R,
    /// Open coalesced fine-step span, `(regime, reason, start_s,
    /// steps)`: consecutive fine steps sharing one classification
    /// collapse into a single [`EventKind::FineSpan`] event, flushed on
    /// class change, coarse stride, or finish. Only maintained while
    /// `R::ENABLED`.
    fine_span: Option<(Regime, FallbackReason, f64, u64)>,
    /// Buffer reconfigurations already emitted as telemetry events.
    tele_reconfig_count: u64,
    /// Detector detections already emitted as telemetry events.
    tele_detections: u64,
}

/// Emits one [`EventKind::Reconfig`] event per not-yet-reported
/// reconfiguration (free function so it can run inside disjoint field
/// borrows of the core).
fn tele_note_reconfigs<R: Recorder>(
    recorder: &mut R,
    count: u64,
    seen: &mut u64,
    t: f64,
    defensive: bool,
) {
    while *seen < count {
        *seen += 1;
        recorder.record(&SimEvent {
            t,
            span: 0.0,
            kind: EventKind::Reconfig { defensive },
        });
    }
}

/// Emits one [`EventKind::Detection`] event per not-yet-reported
/// detector hit.
fn tele_note_detections<R: Recorder>(recorder: &mut R, count: u64, seen: &mut u64, t: f64) {
    while *seen < count {
        *seen += 1;
        recorder.record(&SimEvent {
            t,
            span: 0.0,
            kind: EventKind::Detection,
        });
    }
}

impl<B: EnergyBuffer, W: Workload, S: PowerSource + Clone, R: Recorder> SimCore<B, W, S, R> {
    fn new(sim: Simulator<B, W, S, R>) -> Result<Self, SimError> {
        let Simulator {
            replay,
            buffer,
            mcu,
            gate,
            workload,
            dt,
            kernel,
            probe_interval,
            max_drain,
            horizon,
            software_overhead,
            feedback,
            defense,
            faults,
            audit,
            recorder,
        } = sim;

        // The harvest horizon: an explicit override, else the bounded
        // source duration. Unbounded streaming environments have
        // neither end nor a natural stop, so they must pick one.
        let trace_end = horizon
            .or_else(|| replay.source_duration())
            .ok_or(SimError::UnboundedSource)?;
        let hard_end = trace_end + max_drain;

        let metrics = RunMetrics {
            initial_stored: buffer.stored_energy(),
            ..Default::default()
        };
        // Preallocate the probe series for the worst-case sample count —
        // trace plus the full drain tail over the probe interval — so
        // probed runs never pay Vec regrowth (capped at 64 Ki samples to
        // bound the reserve; pathological millisecond-probe runs fall
        // back to amortized growth past the cap).
        let series = match probe_interval {
            Some(interval) => {
                let expected = (hard_end.get() / interval.get().max(1e-9)) as usize + 16;
                Vec::with_capacity(expected.min(1 << 16))
            }
            None => Vec::new(),
        };
        // The idle fast path is only worth taking for buffers whose
        // MCU-off physics integrate in closed form; everything else
        // fine-steps through the main loop, keeping step counts honest.
        // The sleep fast path is its mirror image for MCU-**on**,
        // workload-idle LPM3 stretches (§2.1: responsive sleep is where
        // batteryless nodes spend almost all of their on-time).
        let fast = Regime::ALL.map(|regime| {
            kernel == KernelMode::Adaptive
                && match regime {
                    Regime::Idle => buffer.supports_idle_fast_path(),
                    Regime::Sleep | Regime::Active => buffer.supports_powered_fast_path(),
                }
        });
        let base_enable = gate.enable_voltage();
        let last_reconfig_count = buffer.reconfiguration_count();
        let tele_reconfig_count = last_reconfig_count;

        Ok(Self {
            input: replay.into_cursor(),
            buffer,
            mcu,
            gate,
            workload,
            dt,
            probe_interval,
            trace_end,
            hard_end,
            software_overhead,
            feedback,
            fast,
            // Peripheral current of the most recent sleep demand — what
            // the workload holds powered through the stretch (mic bias,
            // wake-up receiver). Valid whenever the MCU sits in `Sleep`,
            // which only a workload step can request.
            sleep_peripheral: Amps::ZERO,
            steady_peripheral: None,
            t: Seconds::ZERO,
            probe_acc: Seconds::ZERO,
            on_since: None,
            off_since: Some(Seconds::ZERO),
            off_max: 0.0,
            cycle_sum: 0.0,
            cycle_max: 0.0,
            cycles: 0,
            poll_debt: 0.0,
            engine_steps: 0,
            detector: defense.map(|_| Box::default()),
            base_enable,
            hold_until: None,
            defensive_reconfigs: 0,
            last_reconfig_count,
            radio_on: false,
            // Kernel invariant guard: a non-finite rail voltage or
            // harvest power means some model produced garbage; the
            // engine degrades to sanitized fine-stepping for the
            // offending span and counts it (once per contiguous span)
            // instead of propagating NaNs.
            guard_active: false,
            fault_plan: faults,
            fault_next: 0,
            comparator_offset: 0.0,
            derate: 1.0,
            welded: false,
            auditor: audit.map(InvariantAuditor::new),
            degraded: [false; Regime::COUNT],
            finished: false,
            metrics,
            series,
            recorder,
            fine_span: None,
            tele_reconfig_count,
            tele_detections: 0,
        })
    }

    /// Closes the open coalesced fine-step span (if any) at the current
    /// clock and hands it to the recorder.
    fn flush_fine_span(&mut self) {
        if let Some((regime, reason, start, steps)) = self.fine_span.take() {
            self.recorder.record(&SimEvent {
                t: start,
                span: self.t.get() - start,
                kind: EventKind::FineSpan {
                    regime,
                    reason,
                    steps,
                },
            });
        }
    }

    /// Folds one classified fine step into the open span, flushing and
    /// reopening on a (regime, reason) change.
    fn tele_note_fine_step(&mut self, regime: Regime, reason: FallbackReason, t_entry: f64) {
        match self.fine_span.as_mut() {
            Some((r, re, _, steps)) if *r == regime && *re == reason => *steps += 1,
            _ => {
                self.flush_fine_span();
                self.fine_span = Some((regime, reason, t_entry, 1));
            }
        }
    }

    /// The cell clock: simulated seconds advanced so far.
    pub fn now(&self) -> Seconds {
        self.t
    }

    /// Engine iterations executed so far (fine steps plus coarse
    /// strides). The fleet kernel's per-cell watchdog meters this to
    /// turn a wedged cell into a reported timeout instead of a hung
    /// shard.
    pub fn engine_steps(&self) -> u64 {
        self.engine_steps
    }

    /// One converter-composed source window starting at the clock —
    /// the environment is disconnected past the harvest horizon, so
    /// the drain phase runs on stored energy alone, matching
    /// bounded-trace semantics (power_at is zero past the end) for
    /// streaming sources too; rail power is constant over the whole
    /// span (static efficiency curve, OVP above the rail clamp), so
    /// one conversion at the stride's entry voltage covers the
    /// closed-form integration.
    fn stride_window(&mut self) -> (react_units::Watts, Seconds) {
        let (p_rail, window_end) = if self.t >= self.trace_end {
            (react_units::Watts::ZERO, self.hard_end)
        } else {
            let (p, end) = self.input.rail_window(self.t, self.buffer.input_voltage());
            (self.derated(p), end.min(self.trace_end))
        };
        let mut end = window_end.min(self.hard_end);
        // Closed forms never integrate across a pending fault event —
        // the stride stops at the event so it fires on time and the
        // post-fault physics start from the event's state.
        end = end.min(self.fault_plan.next_at(self.fault_next));
        // While auditing, clamp stride length: one wrong believed-model
        // stride can run at most `max_stride` before its commit is
        // cross-checked (the auditor's detection-latency bound).
        if let Some(aud) = &self.auditor {
            end = end.min(self.t + aud.max_stride());
        }
        (p_rail, end)
    }

    /// Harvester derating scales rail power; the healthy 1.0 path leaves
    /// the value untouched bit-for-bit. Strides and fine steps both
    /// apply it, so every kernel and step shape sees the same faulted
    /// rail.
    fn derated(&self, p_rail: react_units::Watts) -> react_units::Watts {
        if self.derate != 1.0 {
            react_units::Watts::new(p_rail.get() * self.derate)
        } else {
            p_rail
        }
    }

    /// Applies every fault event whose time has arrived, in schedule
    /// order. Buffer-level drifts go through
    /// [`EnergyBuffer::apply_fault`]; comparator offset, a welded
    /// switch, and harvester derating act on the engine's own
    /// periphery models.
    fn apply_due_faults(&mut self) {
        while self.fault_next < self.fault_plan.events().len() {
            let ev = self.fault_plan.events()[self.fault_next];
            if self.t < ev.at {
                break;
            }
            self.fault_next += 1;
            self.metrics.faults_injected += 1;
            if R::ENABLED {
                self.recorder.record(&SimEvent {
                    t: self.t.get(),
                    span: 0.0,
                    kind: EventKind::FaultInjected {
                        label: ev.kind.label(),
                    },
                });
            }
            match ev.kind {
                FaultKind::ComparatorOffset { volts } => {
                    self.comparator_offset += volts;
                    let raise = self
                        .detector
                        .as_ref()
                        .map_or(Volts::new(0.0), |d| d.gate_raise());
                    let eff = react_circuit::offset_enable(
                        self.base_enable + raise,
                        self.comparator_offset,
                        self.gate.brownout_voltage(),
                    );
                    self.gate.set_enable_voltage(eff);
                }
                FaultKind::HarvesterDerate { factor } => {
                    self.derate *= factor;
                }
                FaultKind::SwitchStuckClosed => {
                    // The weld takes hold at the fault's instant, not at
                    // the next gate servicing, which a coarse stride could
                    // push hours away.
                    self.welded = true;
                    let v = self.buffer.rail_voltage();
                    if v.get().is_finite() {
                        self.service_gate(v);
                    }
                }
                kind => {
                    // Capacitance fade / leakage growth: buffers that
                    // do not model the drift simply ignore it.
                    let _ = self.buffer.apply_fault(kind);
                }
            }
        }
    }

    /// Cross-checks a just-committed stride against its pre-stride
    /// snapshot; a trip permanently degrades the regime's fast path
    /// and is surfaced as an [`EventKind::AuditTrip`].
    fn audit_stride(
        &mut self,
        snap: Option<AuditSnapshot>,
        p_rail: react_units::Watts,
        advanced: Seconds,
        window: Seconds,
        regime: Regime,
    ) {
        let Some(snap) = snap else { return };
        let Some(aud) = self.auditor.as_mut() else {
            return;
        };
        if aud.check(&snap, &self.buffer, p_rail, advanced, window, self.dt) {
            self.degraded[regime.index()] = true;
            if R::ENABLED {
                self.recorder.record(&SimEvent {
                    t: self.t.get(),
                    span: 0.0,
                    kind: EventKind::AuditTrip { regime },
                });
            }
        }
    }

    /// The enable threshold the gate should sit at, folding the
    /// defensive raise and any comparator-offset drift together. With
    /// no offset this is exactly the pre-fault expression.
    fn effective_enable(&self, raise: Volts) -> Volts {
        let nominal = self.base_enable + raise;
        if self.comparator_offset != 0.0 {
            react_circuit::offset_enable(
                nominal,
                self.comparator_offset,
                self.gate.brownout_voltage(),
            )
        } else {
            nominal
        }
    }

    /// Reports controller reconfigurations by delta to the feedback
    /// channel and, when recording, as [`EventKind::Reconfig`] events.
    /// They can land inside fine steps or coarse strides, and the count
    /// is the one signal both kernels agree on exactly. The notice is
    /// stamped at the current clock, at or after the physical switch,
    /// so an adversary acting on it can never reach back before it.
    fn note_reconfigs(&mut self) {
        if self.feedback {
            let rc = self.buffer.reconfiguration_count();
            if rc > self.last_reconfig_count {
                self.last_reconfig_count = rc;
                self.input.observe(VictimEvent::Reconfig { at: self.t });
            }
        }
        if R::ENABLED {
            let rc = self.buffer.reconfiguration_count();
            tele_note_reconfigs(
                &mut self.recorder,
                rc,
                &mut self.tele_reconfig_count,
                self.t.get(),
                false,
            );
        }
    }

    /// Accrues `span` toward the probe interval and, once it is due,
    /// samples the rail as of time `at`.
    fn probe(&mut self, span: Seconds, at: Seconds, on: bool) {
        if let Some(interval) = self.probe_interval {
            self.probe_acc += span;
            if self.probe_acc >= interval {
                self.probe_acc = Seconds::ZERO;
                self.series.push(VoltageSample {
                    time_s: at.get(),
                    voltage_v: self.buffer.rail_voltage().get(),
                    on,
                    capacitance_f: self.buffer.equivalent_capacitance().get(),
                });
            }
        }
    }

    /// Books an advanced coarse stride: probe samples are stamped one
    /// step back, where the reference kernel records them.
    fn commit_stride(&mut self, advanced: Seconds, kind: StrideKind) {
        if R::ENABLED {
            self.flush_fine_span();
            self.recorder.record(&SimEvent {
                t: self.t.get(),
                span: advanced.get(),
                kind: EventKind::CoarseStride { kind },
            });
        }
        self.engine_steps += 1;
        self.t += advanced;
        self.note_reconfigs();
        let on = kind != StrideKind::Idle;
        if on {
            self.metrics.on_time += advanced;
        }
        self.probe(advanced, (self.t - self.dt).max(Seconds::ZERO), on);
        self.check_termination();
    }

    /// Termination: past the trace, once the MCU loses power it can
    /// never restart (no input power) — or at the hard cap. Losing power
    /// is the gate opening, or behind a welded switch the MCU's first
    /// brown-out reset, so a welded cell ends with its drain rather than
    /// at the hard cap.
    fn check_termination(&mut self) {
        if (self.t >= self.trace_end && !self.mcu.is_powered()) || self.t >= self.hard_end {
            self.finished = true;
        }
    }

    /// Advances the run by one engine iteration — one closed-form
    /// coarse stride or one fine `dt` step — and reports whether the
    /// run is still live (`false` once finished).
    pub fn advance(&mut self) -> bool {
        if self.finished {
            return false;
        }
        if self.fault_next < self.fault_plan.events().len() {
            self.apply_due_faults();
        }
        let dt = self.dt;
        let v = self.buffer.rail_voltage();
        // Invariant guard: a non-finite rail voltage disables both
        // fast paths for this span (their closed forms would chew
        // on garbage) and is counted once per contiguous span.
        let v_ok = v.get().is_finite();

        // Telemetry: classify this iteration from its *entry* state
        // (the gate/MCU may flip mid-step). Fine steps coalesce into
        // spans by (regime, reason); refusal reasons come from
        // `try_stride` below, structural reasons are derived at the
        // bottom. All of it folds away under `NullRecorder`.
        let entry_regime = if !R::ENABLED {
            Regime::Active // unused when recording is off
        } else if !self.mcu.is_powered() {
            Regime::Idle
        } else if self.mcu.is_running() && self.mcu.mode() == PowerMode::Sleep {
            Regime::Sleep
        } else {
            Regime::Active
        };
        let entry_poll_debt = if R::ENABLED { self.poll_debt } else { 0.0 };
        let t_entry = if R::ENABLED { self.t.get() } else { 0.0 };

        // A defensive hold releases only once its backoff timer has
        // expired *and* the rail has recovered to the effective
        // enable level: waking mid-blackout with a half-drained
        // buffer just donates the remaining charge to the next
        // strike, so the workload waits out both the hold and the
        // recharge and always restarts from a full buffer.
        if v_ok && self.hold_until.is_some_and(|h| self.t >= h) && v >= self.gate.enable_voltage() {
            self.hold_until = None;
            if R::ENABLED {
                self.recorder.record(&SimEvent {
                    t: self.t.get(),
                    span: 0.0,
                    kind: EventKind::BackoffRelease,
                });
            }
        }

        let (idle, sleep, active) = (
            Regime::Idle.index(),
            Regime::Sleep.index(),
            Regime::Active.index(),
        );
        let stride = if self.fast[idle]
            && !self.degraded[idle]
            && v_ok
            && !self.mcu.is_powered()
            && v < self.power_up_voltage()
        {
            // Adaptive idle fast path: MCU dark — the only
            // dynamics are buffer physics (plus, for controller-driven
            // buffers, threshold-sparse controller decisions) under a
            // piecewise-constant input, which `idle_advance`
            // integrates in one stride.
            Some(self.try_stride(StrideKind::Idle, (Seconds::new(f64::INFINITY), None)))
        } else if self.fast[sleep]
            && !self.degraded[sleep]
            && v_ok
            && self.mcu.is_running()
            && self.mcu.mode() == PowerMode::Sleep
            && self.poll_debt < dt.get()
            && v > self.gate.brownout_voltage()
        {
            // Adaptive sleep fast path: MCU asleep in LPM3
            // on a quiet workload — the only dynamics are buffer
            // physics under the standing sleep draw (MCU sleep current
            // plus the held peripheral), which `powered_advance`
            // integrates in closed form up to the workload's next
            // wake-up, the end of the converter-composed source
            // segment, or the predicted brown-out crossing (quantized
            // onto the `dt` grid). A pending poll-service debt keeps
            // the stretch on fine steps (the serviced step runs the CPU
            // active).
            Some(match self.sleep_wake(v) {
                Some(wake) => self.try_stride(StrideKind::Powered, wake),
                // The wake resolved to "now": immediate, stale,
                // energy-satisfied, or deadline-due.
                None => Err(FallbackReason::TransitionDue),
            })
        } else if self.fast[active]
            && !self.degraded[active]
            && v_ok
            && self.mcu.is_running()
            && self.mcu.mode() == PowerMode::Active
            && v > self.gate.brownout_voltage()
            && self.holds_steady()
        {
            // Adaptive active fast path: MCU running a
            // workload whose demand holds — the buffer integrates the
            // active draw in closed form up to the source window, a
            // probe, a fault event or the brown-out crossing, and the
            // workload replays its steps across the stride.
            Some(self.try_stride(StrideKind::Active, (Seconds::new(f64::INFINITY), None)))
        } else {
            None
        };
        if stride == Some(Ok(())) {
            return !self.finished;
        }
        let fine_reason = stride.and_then(Result::err);

        self.engine_steps += 1;

        // Power gate.
        self.service_gate(v);

        self.post_gate_fine_step(v, dt, entry_regime, entry_poll_debt, t_entry, fine_reason)
    }

    /// The rail voltage that powers a dark MCU: the gate's enable
    /// voltage, or behind a welded switch anything above brown-out.
    /// The idle stride stops there so the boot fires on time.
    fn power_up_voltage(&self) -> Volts {
        if self.welded {
            self.gate.brownout_voltage()
        } else {
            self.gate.enable_voltage()
        }
    }

    /// What the workload sees at the current clock with the rail at `v`.
    fn workload_env(&self, v: Volts) -> WorkloadEnv {
        WorkloadEnv {
            now: self.t,
            dt: self.dt,
            rail_voltage: v,
            usable_energy: self
                .buffer
                .usable_energy_above(self.gate.brownout_voltage()),
            supports_longevity: self.buffer.supports_longevity(),
        }
    }

    /// Whether an active stride may hold the workload's last demand:
    /// the workload declared it steady after its last step, and no
    /// defensive hold is pending. A poll-service step draws the active
    /// current without the demand's peripheral, so under poll overhead
    /// only a peripheral-free demand holds.
    fn holds_steady(&self) -> bool {
        self.hold_until.is_none()
            && self
                .steady_peripheral
                .is_some_and(|p| p == Amps::ZERO || self.software_overhead == 0.0)
    }

    /// Replays the workload across `steps` steps covered by an active
    /// stride from its entry `env`, as fine steps would drive it: a step
    /// with poll debt due services the buffer's software instead of the
    /// workload (same active draw), every other step runs the workload
    /// and accrues the poll overhead. The debt recurrence is per step;
    /// each run of consecutive workload steps goes to
    /// [`Workload::replay_steady`] in one call, and without overhead the
    /// whole stride is one run.
    fn replay_steady(&mut self, steps: u64, env: WorkloadEnv) {
        let dt = self.dt.get();
        if self.software_overhead == 0.0 {
            self.workload.replay_steady(0, steps, &env);
            return;
        }
        let mut run_start = 0;
        for i in 0..steps {
            if self.poll_debt >= dt {
                self.poll_debt -= dt;
                if i > run_start {
                    self.workload.replay_steady(run_start, i - run_start, &env);
                }
                run_start = i + 1;
            } else {
                self.poll_debt += self.software_overhead * dt;
            }
        }
        if steps > run_start {
            self.workload
                .replay_steady(run_start, steps - run_start, &env);
        }
    }

    /// Where an LPM3 sleep stride must stop: a wake *time* plus, for
    /// §3.4.1 energy waits, a wake *voltage* — the rail level at which
    /// the buffer's usable pool first covers the workload's threshold,
    /// where the stride must stop so the per-step energy check
    /// observes the crossing. `None` means the wake is due now.
    fn sleep_wake(&self, v: Volts) -> Option<(Seconds, Option<Volts>)> {
        let far = Seconds::new(f64::INFINITY);
        // During a defensive backoff hold the workload is pinned in
        // LPM3 regardless of its own schedule: the stride runs to the
        // hold's expiry or, once the timer is out, to the rail's
        // recovery crossing at the effective enable level (where the
        // loop-top release check clears the hold).
        match self.hold_until {
            Some(h) if h > self.t => return Some((h, None)),
            Some(_) => return Some((far, Some(self.gate.enable_voltage()))),
            None => {}
        }
        let env = self.workload_env(v);
        match self.workload.next_wake(&env) {
            WakeHint::Immediate | WakeHint::Steady => None,
            // A stale hint (at or behind the clock) gets the fine-step
            // treatment rather than a zero stride.
            WakeHint::At(tw) if tw > self.t => Some((tw, None)),
            WakeHint::At(_) => None,
            // Already awake (or an event is due): the wake-up itself
            // runs on fine steps.
            WakeHint::WhenEnergy { energy, deadline }
                if env.usable_energy >= energy || deadline.is_some_and(|d| d <= self.t) =>
            {
                None
            }
            WakeHint::WhenEnergy { energy, deadline } => self
                .buffer
                .rail_voltage_for_usable(energy, self.gate.brownout_voltage())
                .map(|v_wake| (deadline.unwrap_or(far), Some(v_wake))),
            WakeHint::Never => Some((far, None)),
        }
    }

    /// Attempts one closed-form coarse stride of `kind`, stopping at
    /// the source window, the next probe sample, or `wake` (a time and,
    /// for sleep strides, an optional wake voltage). An active stride
    /// covers whole `dt` steps only, so the workload replays an exact
    /// step count. On success the stride is committed and audited, and
    /// a gate edge the closed form parked on is serviced at the commit.
    /// On refusal nothing has advanced and the error says why the
    /// iteration fine-steps.
    fn try_stride(
        &mut self,
        kind: StrideKind,
        (wake, v_wake): (Seconds, Option<Volts>),
    ) -> Result<(), FallbackReason> {
        let dt = self.dt;
        let (p_rail, window_end) = self.stride_window();
        let mut stride_end = window_end.min(wake);
        if let Some(interval) = self.probe_interval {
            // Never integrate across a probe boundary.
            stride_end = stride_end.min(self.t + (interval - self.probe_acc).max(dt));
        }
        let mut stride = stride_end - self.t;
        if kind == StrideKind::Active {
            stride = dt * (stride.get() / dt.get()).floor();
        }
        let long_enough = stride >= calib::MIN_COARSE_STRIDE.max(dt + dt);
        if !p_rail.get().is_finite() {
            return Err(FallbackReason::NanGuard);
        }
        if !long_enough {
            return Err(FallbackReason::ShortStride);
        }
        let snap = self
            .auditor
            .is_some()
            .then(|| AuditSnapshot::capture(&self.buffer));
        let entry_env =
            (kind == StrideKind::Active).then(|| self.workload_env(self.buffer.rail_voltage()));
        let advanced = match kind {
            StrideKind::Idle => {
                self.buffer
                    .idle_advance(p_rail, stride, self.power_up_voltage(), dt)
            }
            StrideKind::Powered | StrideKind::Active => {
                let held = if kind == StrideKind::Active {
                    self.steady_peripheral.unwrap_or(Amps::ZERO)
                } else {
                    self.sleep_peripheral
                };
                self.buffer
                    .powered_advance(
                        p_rail,
                        self.mcu.running_current() + held,
                        stride,
                        self.gate.brownout_voltage(),
                        v_wake,
                        dt,
                    )
                    .unwrap_or(Seconds::ZERO)
            }
        };
        if advanced.get() > 0.0 {
            if let Some(env) = entry_env {
                // The quantized brown-out crossing lands inside the last
                // covered step, whose entry the gate still saw closed:
                // the workload ran in every covered step.
                let steps = (advanced.get() / dt.get()).round() as u64;
                self.replay_steady(steps, env);
            }
            self.commit_stride(advanced, kind);
            self.audit_stride(snap, p_rail, advanced, stride, kind.regime());
            // A stride that parked on a gate crossing has *discovered*
            // the edge (idle: the boot; sleep: the brown-out). Service
            // it at the commit so the next iteration steps in the
            // regime it actually runs in instead of burning a fine
            // step on the hand-off.
            let v_now = self.buffer.rail_voltage();
            if !self.finished && v_now.get().is_finite() {
                self.service_gate(v_now);
                // The serviced edge can flip the termination condition
                // (a trace-end brown-out must end the run here, not
                // after another stride).
                self.check_termination();
            }
            Ok(())
        } else if R::ENABLED {
            Err(self
                .buffer
                .take_fallback()
                .unwrap_or(FallbackReason::NoClosedForm))
        } else {
            Err(FallbackReason::NoClosedForm)
        }
    }

    /// Services the power gate against the rail voltage `v` at the
    /// current clock: a closing edge boots the MCU (with detector,
    /// defense, and feedback hooks), an opening edge powers it down
    /// and closes the duty-cycle books. Called from every fine step
    /// and from coarse-stride commits whose closed form parked the
    /// rail on a gate crossing — servicing the edge at the commit
    /// keeps the hand-off out of the next iteration's fine-step
    /// attribution while leaving the physics timeline unchanged (the
    /// edge fires at the same simulated instant either way).
    fn service_gate(&mut self, v: Volts) {
        // A healthy gate's MCU is powered exactly while the gate is
        // closed, which already implies a rail above brown-out. Behind a
        // welded switch only the MCU's brown-out reset is left: it holds
        // the MCU in reset at or below brown-out and releases it above.
        let changed = if self.welded {
            (v > self.gate.brownout_voltage()) != self.mcu.is_powered()
        } else {
            self.gate.update(v)
        };
        if changed {
            if !self.mcu.is_powered() {
                self.mcu.power_on();
                if self.metrics.first_on_latency.is_none() {
                    self.metrics.first_on_latency = Some(self.t);
                }
                self.on_since = Some(self.t);
                if let Some(start) = self.off_since.take() {
                    self.off_max = self.off_max.max((self.t - start).get());
                }
                if self.feedback {
                    self.input.observe(VictimEvent::Boot { at: self.t });
                }
                if R::ENABLED {
                    self.recorder.record(&SimEvent {
                        t: self.t.get(),
                        span: 0.0,
                        kind: EventKind::Boot,
                    });
                }
                if let Some(det) = self.detector.as_mut() {
                    det.on_boot(self.t);
                    if R::ENABLED {
                        tele_note_detections(
                            &mut self.recorder,
                            det.detections(),
                            &mut self.tele_detections,
                            self.t.get(),
                        );
                    }
                    if det.alarmed() {
                        // Attack-correlated reboot: hold the
                        // workload back for the current backoff and
                        // bank less per cycle.
                        let hold = det.backoff();
                        if hold.get() > 0.0 {
                            self.hold_until = Some(self.t + hold);
                            if R::ENABLED {
                                self.recorder.record(&SimEvent {
                                    t: self.t.get(),
                                    span: 0.0,
                                    kind: EventKind::BackoffHold,
                                });
                            }
                        }
                        if self.buffer.defensive_reconfigure() {
                            self.defensive_reconfigs += 1;
                            if R::ENABLED {
                                let rc = self.buffer.reconfiguration_count();
                                tele_note_reconfigs(
                                    &mut self.recorder,
                                    rc,
                                    &mut self.tele_reconfig_count,
                                    self.t.get(),
                                    true,
                                );
                            }
                        }
                    }
                    let raise = det.gate_raise();
                    let eff = self.effective_enable(raise);
                    self.gate.set_enable_voltage(eff);
                }
            } else {
                self.mcu.power_off();
                self.steady_peripheral = None;
                self.workload.on_power_down(self.t);
                if let Some(start) = self.on_since.take() {
                    let len = (self.t - start).get();
                    self.cycle_sum += len;
                    self.cycle_max = self.cycle_max.max(len);
                    self.cycles += 1;
                }
                self.off_since = Some(self.t);
                if R::ENABLED {
                    self.recorder.record(&SimEvent {
                        t: self.t.get(),
                        span: 0.0,
                        kind: EventKind::BrownOut,
                    });
                    if self.hold_until.is_some() {
                        // A brown-out cancels the defensive hold;
                        // close its span here.
                        self.recorder.record(&SimEvent {
                            t: self.t.get(),
                            span: 0.0,
                            kind: EventKind::BackoffRelease,
                        });
                    }
                }
                self.hold_until = None;
                if self.feedback {
                    self.input.observe(VictimEvent::BrownOut { at: self.t });
                    if self.radio_on {
                        // Power loss keys the radio off with it.
                        self.radio_on = false;
                        self.input.observe(VictimEvent::RadioOff { at: self.t });
                    }
                }
                if let Some(det) = self.detector.as_mut() {
                    det.on_brownout(self.t);
                    if R::ENABLED {
                        tele_note_detections(
                            &mut self.recorder,
                            det.detections(),
                            &mut self.tele_detections,
                            self.t.get(),
                        );
                    }
                    let raise = det.gate_raise();
                    let eff = self.effective_enable(raise);
                    self.gate.set_enable_voltage(eff);
                }
            }
        }
    }

    /// The tail of a fine step past the gate edge: workload software,
    /// MCU sequencing, harvest + buffer physics, accounting, and the
    /// step's telemetry classification.
    fn post_gate_fine_step(
        &mut self,
        v: Volts,
        dt: Seconds,
        entry_regime: Regime,
        entry_poll_debt: f64,
        t_entry: f64,
        fine_reason: Option<FallbackReason>,
    ) -> bool {
        let v_ok = v.get().is_finite();

        // Workload software (only past boot).
        let mut peripheral = Amps::ZERO;
        if self.mcu.is_running() {
            if self.hold_until.is_some() {
                // Defensive backoff: the workload is held in
                // LPM3 — no steps, no progress, minimal draw —
                // starving an attacker that times strikes off
                // the workload's activity. (The loop-top
                // release check clears the hold once the timer
                // is out and the rail has recovered.)
                self.mcu.set_mode(react_mcu::PowerMode::Sleep);
                self.sleep_peripheral = Amps::ZERO;
            } else if self.poll_debt >= dt.get() {
                // The buffer's software component (REACT's 10 Hz
                // poller) services its interrupt: CPU active, no
                // workload progress this step. §5.1 measures this
                // as a 1.8 % penalty on *active* execution.
                self.poll_debt -= dt.get();
                self.mcu.set_mode(react_mcu::PowerMode::Active);
            } else {
                let env = self.workload_env(v);
                let LoadDemand {
                    mode,
                    peripheral_current,
                } = self.workload.step(&env);
                self.mcu.set_mode(mode);
                peripheral = peripheral_current;
                if mode == react_mcu::PowerMode::Sleep {
                    self.sleep_peripheral = peripheral_current;
                }
                // After each active step, ask with that step's
                // environment whether its demand now holds for every
                // later step; an active stride relies on the answer.
                let active = Regime::Active.index();
                self.steady_peripheral = (mode == react_mcu::PowerMode::Active
                    && self.fast[active]
                    && !self.degraded[active]
                    && self.workload.next_wake(&env) == WakeHint::Steady)
                    .then_some(peripheral_current);
                if self.feedback {
                    // Radio spans, by their draw signature: the
                    // RF workloads key 6–18 mA peripherals, so a
                    // milliamp threshold cleanly separates them
                    // from sensor bias currents.
                    let keyed = peripheral_current >= RADIO_SENSE_CURRENT;
                    if keyed != self.radio_on {
                        self.radio_on = keyed;
                        self.input.observe(if keyed {
                            VictimEvent::RadioOn { at: self.t }
                        } else {
                            VictimEvent::RadioOff { at: self.t }
                        });
                    }
                }
                // Poll overhead accrues against active cycles
                // only; a sleeping CPU wakes for ~100 µs per
                // poll, which is already inside the LPM3 budget.
                if mode == react_mcu::PowerMode::Active {
                    self.poll_debt += self.software_overhead * dt.get();
                }
            }
        }

        // MCU current for this step (handles boot sequencing; the
        // workload's first step lands after boot).
        let was_running = self.mcu.is_running();
        let mcu_current = self.mcu.step(dt);
        if !was_running && self.mcu.is_running() {
            self.workload.on_power_up(self.t);
        }

        // Harvest + buffer physics. The converter delivers *power*;
        // the buffer converts it to charge at its input node's
        // voltage (for REACT the lowest connected element, §3.2.1).
        // Past the horizon the environment is disconnected (see
        // `stride_window`). Inside a source segment the cursor answers
        // from its cached conversion.
        let input = if self.t >= self.trace_end {
            react_units::Watts::ZERO
        } else {
            let p = self.input.rail_power(self.t, self.buffer.input_voltage());
            self.derated(p)
        };
        // Invariant guard, input side: a non-finite harvest sample
        // is sanitized to zero before it can poison the buffer
        // state. Together with the rail-voltage check above, one
        // contiguous offending span counts as one fallback.
        let input_ok = input.get().is_finite();
        let input = if input_ok {
            input
        } else {
            react_units::Watts::ZERO
        };
        if v_ok && input_ok {
            self.guard_active = false;
        } else if !self.guard_active {
            self.guard_active = true;
            self.metrics.guard_fallbacks += 1;
        }
        self.buffer
            .step(input, mcu_current + peripheral, dt, self.mcu.is_running());
        self.note_reconfigs();

        // Accounting: an MCU held in brown-out reset counts as off.
        let on = self.mcu.is_powered();
        if on {
            self.metrics.on_time += dt;
        }
        self.probe(dt, self.t, on);

        self.t += dt;
        if R::ENABLED {
            // Structural classification for fine steps no refusal site
            // annotated: the entry state makes fine stepping inherent.
            let r = entry_regime.index();
            let reason = fine_reason.unwrap_or(match entry_regime {
                // An active stride is attempted only for a workload that
                // declares a steady demand; any other active step is
                // inherent, unless the auditor degraded the fast path.
                Regime::Active if self.degraded[r] => FallbackReason::AuditDegraded,
                Regime::Active => FallbackReason::McuActive,
                _ if !v_ok => FallbackReason::NanGuard,
                _ if !self.fast[r] => FallbackReason::FastPathOff,
                _ if self.degraded[r] => FallbackReason::AuditDegraded,
                Regime::Sleep if entry_poll_debt >= dt.get() => FallbackReason::PollDebt,
                // Idle: enable crossing due (boot edge) or a post-brown-
                // out MCU-discharge transient. Sleep: brown-out crossing
                // due, or a wake/hold edge.
                _ => FallbackReason::TransitionDue,
            });
            self.tele_note_fine_step(entry_regime, reason, t_entry);
        }
        self.check_termination();
        !self.finished
    }

    /// Finalizes the run and yields its outcome. Call after
    /// [`SimCore::advance`] returns `false`; finishing a live run
    /// truncates it at the current clock (metrics are finalized as if
    /// the run ended there).
    pub fn finish(self) -> RunOutcome {
        self.finish_telemetry().0
    }

    /// [`SimCore::finish`], but also yields the recorder with
    /// everything it captured (the open fine-step span is flushed
    /// first).
    pub fn finish_telemetry(mut self) -> (RunOutcome, R) {
        if R::ENABLED {
            self.flush_fine_span();
        }
        // Close any open on-period.
        if let Some(start) = self.on_since {
            let len = (self.t - start).get();
            self.cycle_sum += len;
            self.cycle_max = self.cycle_max.max(len);
            self.cycles += 1;
        }
        self.workload.finalize(self.t);

        let mut metrics = self.metrics;
        metrics.ops_completed = self.workload.ops_completed();
        metrics.ops_failed = self.workload.ops_failed();
        metrics.aux_completed = self.workload.aux_completed();
        metrics.events_missed = self.workload.events_missed();
        metrics.total_time = self.t;
        metrics.boots = self.mcu.boot_count();
        metrics.engine_steps = self.engine_steps;
        metrics.mean_on_period = if self.cycles > 0 {
            Seconds::new(self.cycle_sum / self.cycles as f64)
        } else {
            Seconds::ZERO
        };
        metrics.max_on_period = Seconds::new(self.cycle_max);
        metrics.max_off_period = Seconds::new(self.off_max);
        // Controller accounting comes from the buffer itself, which
        // tracks it through both fine steps and coarse idle strides, so
        // the two kernels agree on it (asserted by the equivalence
        // suite).
        metrics.reconfigurations = self.buffer.reconfiguration_count();
        metrics.capacitance_dwell = self
            .buffer
            .capacitance_dwell()
            .into_iter()
            .map(|(level, seconds)| crate::metrics::LevelDwell { level, seconds })
            .collect();
        metrics.ledger = *self.buffer.ledger();
        metrics.final_stored = self.buffer.stored_energy();
        if let Some(det) = &self.detector {
            metrics.detections = det.detections();
            metrics.false_positives = det.false_positives();
        }
        metrics.defensive_reconfigurations = self.defensive_reconfigs;
        if let Some(aud) = &self.auditor {
            metrics.audit_checks = aud.checks();
            metrics.audit_trips = aud.trips();
        }

        (
            RunOutcome {
                metrics,
                voltage_series: self.series,
            },
            self.recorder,
        )
    }
}

/// Convenience: an always-on load of `current` amps modelled as a
/// workload (used by Fig. 1's static-buffer illustration, §2.1).
#[derive(Clone, Debug)]
pub struct ConstantLoad {
    current: Amps,
    on_time_ops: u64,
}

impl ConstantLoad {
    /// Creates a constant-current pseudo-workload.
    pub fn new(current: Amps) -> Self {
        Self {
            current,
            on_time_ops: 0,
        }
    }
}

impl Workload for ConstantLoad {
    fn name(&self) -> &'static str {
        "constant-load"
    }

    fn on_power_up(&mut self, _now: Seconds) {}

    fn on_power_down(&mut self, _now: Seconds) {}

    fn step(&mut self, _env: &WorkloadEnv) -> LoadDemand {
        self.on_time_ops += 1;
        // The MCU draw is modelled by the MCU itself; this adds the
        // *extra* draw beyond the 1.5 mA active current.
        LoadDemand::active_with(self.current)
    }

    fn finalize(&mut self, _now: Seconds) {}

    fn ops_completed(&self) -> u64 {
        self.on_time_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_buffers::BufferKind;
    use react_harvest::Converter;
    use react_traces::PowerTrace;
    use react_units::{Volts, Watts};

    fn constant_replay(power_mw: f64, duration_s: f64) -> PowerReplay {
        PowerReplay::new(
            PowerTrace::constant(
                "const",
                Watts::from_milli(power_mw),
                Seconds::new(duration_s),
                Seconds::new(0.1),
            ),
            Converter::ideal(),
        )
    }

    #[test]
    fn system_charges_enables_and_runs() {
        let sim = Simulator::new(
            constant_replay(10.0, 30.0),
            BufferKind::Static770uF.build(),
            Box::new(react_workloads::DataEncryption::new()),
        );
        let out = sim.run();
        let m = &out.metrics;
        // 770 µF to 3.3 V at ~3 mA-ish: well under a second.
        let latency = m.first_on_latency.expect("system must start");
        assert!(latency.get() < 5.0, "latency {latency:?}");
        assert!(m.ops_completed > 0);
        assert!(m.on_time.get() > 10.0);
        assert!(m.boots >= 1);
        assert!(m.relative_conservation_error() < 1e-3);
    }

    #[test]
    fn no_power_means_no_start() {
        let sim = Simulator::new(
            constant_replay(0.0, 5.0),
            BufferKind::Static770uF.build(),
            Box::new(react_workloads::DataEncryption::new()),
        );
        let out = sim.run();
        assert_eq!(out.metrics.first_on_latency, None);
        assert_eq!(out.metrics.ops_completed, 0);
        assert_eq!(out.metrics.boots, 0);
    }

    #[test]
    fn drain_continues_past_trace_end() {
        // Strong charge for 5 s, then the trace ends; a 17 mF buffer
        // keeps the DE benchmark alive well past it.
        let sim = Simulator::new(
            constant_replay(50.0, 5.0),
            BufferKind::Static17mF.build(),
            Box::new(react_workloads::DataEncryption::new()),
        );
        let out = sim.run();
        assert!(out.metrics.total_time.get() > 6.0);
        // And the buffer ends near the brown-out voltage, drained.
        assert!(out.metrics.final_stored.to_milli() < 40.0);
    }

    #[test]
    fn probing_collects_series() {
        let sim = Simulator::new(
            constant_replay(5.0, 10.0),
            BufferKind::Static770uF.build(),
            Box::new(react_workloads::DataEncryption::new()),
        )
        .with_probe(Seconds::new(0.5));
        let out = sim.run();
        assert!(out.voltage_series.len() >= 15);
        assert!(out.voltage_series.iter().any(|s| s.on));
        // Capacitance column is the static value throughout.
        assert!(out
            .voltage_series
            .iter()
            .all(|s| (s.capacitance_f - 770e-6).abs() < 1e-9));
    }

    #[test]
    fn react_connects_banks_under_surplus() {
        let sim = Simulator::new(
            constant_replay(20.0, 60.0),
            BufferKind::React.build(),
            Box::new(react_workloads::DataEncryption::new()),
        )
        .with_probe(Seconds::new(0.5));
        let out = sim.run();
        // Under strong surplus, REACT must have expanded beyond the LLB.
        let max_cap = out
            .voltage_series
            .iter()
            .map(|s| s.capacitance_f)
            .fold(0.0, f64::max);
        assert!(max_cap > 1e-3, "REACT never expanded: {max_cap}");
        assert!(out.metrics.ops_completed > 0);
    }

    #[test]
    fn mean_cycle_tracks_buffer_size() {
        // §2.1.1: larger buffers have longer uninterrupted periods.
        let run = |kind: BufferKind| {
            Simulator::new(
                constant_replay(2.0, 120.0),
                kind.build(),
                Box::new(react_workloads::DataEncryption::new()),
            )
            .run()
            .metrics
        };
        let small = run(BufferKind::Static770uF);
        let big = run(BufferKind::Static10mF);
        if small.boots > 0 && big.boots > 0 {
            assert!(big.mean_on_period >= small.mean_on_period);
        }
    }

    #[test]
    fn adaptive_kernel_takes_far_fewer_steps() {
        // A weak supply spends most of the run charging: the adaptive
        // kernel should collapse those phases by orders of magnitude.
        let run = |kernel: KernelMode| {
            Simulator::new(
                constant_replay(1.0, 120.0),
                BufferKind::Static10mF.build(),
                Box::new(react_workloads::DataEncryption::new()),
            )
            .with_kernel(kernel)
            .run()
            .metrics
        };
        let fixed = run(KernelMode::FixedDt);
        let adaptive = run(KernelMode::Adaptive);
        // The ON phase must stay at fine resolution, so the floor here
        // is set by the ~20 % duty cycle; charge phases collapse ~100×.
        assert!(
            adaptive.engine_steps * 3 < fixed.engine_steps,
            "adaptive {} vs fixed {} steps",
            adaptive.engine_steps,
            fixed.engine_steps
        );
        // …while agreeing on what actually happened.
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-9);
        assert_eq!(adaptive.boots, fixed.boots);
        assert!(rel(adaptive.on_time.get(), fixed.on_time.get()) < 0.02);
        let (a_ops, f_ops) = (adaptive.ops_completed as f64, fixed.ops_completed as f64);
        assert!(rel(a_ops, f_ops) < 0.02, "ops {a_ops} vs {f_ops}");
        assert!(adaptive.relative_conservation_error() < 1e-3);
    }

    #[test]
    fn adaptive_kernel_collapses_pure_charge_phases() {
        // 0.2 mW into 10 mF never reaches 3.3 V in 120 s: the whole run
        // is one long charge phase, which the adaptive kernel walks in
        // per-sample-window strides (~100× fewer iterations).
        let run = |kernel: KernelMode| {
            Simulator::new(
                constant_replay(0.2, 120.0),
                BufferKind::Static10mF.build(),
                Box::new(react_workloads::DataEncryption::new()),
            )
            .with_kernel(kernel)
            .run()
            .metrics
        };
        let fixed = run(KernelMode::FixedDt);
        let adaptive = run(KernelMode::Adaptive);
        assert_eq!(adaptive.boots, 0);
        assert_eq!(fixed.boots, 0);
        assert!(
            adaptive.engine_steps * 50 < fixed.engine_steps,
            "adaptive {} vs fixed {} steps",
            adaptive.engine_steps,
            fixed.engine_steps
        );
        // Final stored energy agrees to well under a percent.
        let (a, f) = (adaptive.final_stored.get(), fixed.final_stored.get());
        assert!((a - f).abs() < 0.005 * f, "stored {a} vs {f}");
    }

    #[test]
    fn monomorphized_simulator_accepts_concrete_types() {
        // Concrete buffer + concrete workload: fully static dispatch.
        let sim = Simulator::new(
            constant_replay(10.0, 20.0),
            react_buffers::StaticBuffer::static_770uf(),
            react_workloads::DataEncryption::new(),
        );
        let out = sim.run();
        assert!(out.metrics.ops_completed > 0);
    }

    #[test]
    fn constant_load_workload() {
        let mut w = ConstantLoad::new(Amps::from_milli(1.0));
        let env = WorkloadEnv {
            now: Seconds::ZERO,
            dt: Seconds::new(0.001),
            rail_voltage: Volts::new(3.0),
            usable_energy: react_units::Joules::new(1.0),
            supports_longevity: false,
        };
        let d = w.step(&env);
        assert_eq!(d.mode, react_mcu::PowerMode::Active);
        assert!((d.peripheral_current.to_milli() - 1.0).abs() < 1e-12);
    }
}
