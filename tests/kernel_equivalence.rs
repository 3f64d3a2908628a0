//! Adaptive-kernel validation: every workload × buffer combination must
//! produce the same deployment outcome under the adaptive kernel as
//! under the fixed-`dt` reference, within tight tolerance.
//!
//! The adaptive kernel takes coarse strides while the MCU is dark, while
//! it sleeps in LPM3 between workload wakes, and while a running
//! workload declares its demand steady (DE's continuous encryption),
//! quantizing enable and brown-out crossings back onto the fine-step
//! grid, so ops/boots/on-time should agree to within the reference
//! kernel's own discretization noise. Conservation must hold
//! independently in both. An active stride replays the workload's
//! covered steps in bulk, and that replay must be bit-identical to
//! stepping the workload once per covered step. Three capped SC and DE
//! cells are pinned to recorded outcomes.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use react_repro::buffers::defense::DefenseConfig;
use react_repro::buffers::{BufferKind, EnergyBuffer};
use react_repro::circuit::FaultCampaign;
use react_repro::core::scenario_report::REPORT_BUFFERS;
use react_repro::core::{
    calib, find_scenario, scenario_registry, AuditConfig, KernelMode, RunMetrics, Scenario,
    Simulator, WorkloadKind,
};
use react_repro::env::PowerSource;
use react_repro::harvest::PowerReplay;
use react_repro::traces::{paper_trace, PaperTrace};
use react_repro::units::Seconds;
use react_repro::workloads::{LoadDemand, WakeHint, Workload, WorkloadEnv};

fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + abs
}

/// The [`Scenario::paper`] run on the first 120 s of RF Cart, under the
/// fixed-`dt` reference and the adaptive kernel.
fn assert_equivalent(buffer: BufferKind, workload: WorkloadKind) {
    let s = Scenario {
        horizon: Seconds::new(120.0),
        ..Scenario::paper(PaperTrace::RfCart, buffer, workload)
    };
    let r = s.run_with_kernel(KernelMode::FixedDt).metrics;
    let a = s.run_with_kernel(KernelMode::Adaptive).metrics;
    let label = format!("{} × {}", buffer.label(), workload.label());
    assert_metrics_equivalent(&label, &r, &a);
}

fn assert_metrics_equivalent(label: &str, r: &RunMetrics, a: &RunMetrics) {
    // Every benign matrix cell is well-posed: the kernel invariant
    // guard (non-finite rail voltage or harvest power) must never have
    // tripped in either kernel.
    assert_eq!(r.guard_fallbacks, 0, "{label}: reference guard fallbacks");
    assert_eq!(a.guard_fallbacks, 0, "{label}: adaptive guard fallbacks");
    assert!(
        rel_close(a.ops_completed as f64, r.ops_completed as f64, 0.02, 2.0),
        "{label}: ops {} vs {}",
        a.ops_completed,
        r.ops_completed
    );
    assert!(
        (a.boots as i64 - r.boots as i64).unsigned_abs() <= 2.max(r.boots / 50),
        "{label}: boots {} vs {}",
        a.boots,
        r.boots
    );
    assert!(
        rel_close(a.on_time.get(), r.on_time.get(), 0.02, 0.05),
        "{label}: on_time {:?} vs {:?}",
        a.on_time,
        r.on_time
    );
    match (a.first_on_latency, r.first_on_latency) {
        (None, None) => {}
        (Some(la), Some(lr)) => assert!(
            (la.get() - lr.get()).abs() < 0.1,
            "{label}: latency {la:?} vs {lr:?}"
        ),
        (la, lr) => panic!("{label}: latency {la:?} vs {lr:?}"),
    }
    // Controller accounting: coarse idle strides must book the same
    // reconfiguration counts and per-capacitance dwell time as the
    // fixed-dt reference (boot-time quantization allows the same slack
    // as the boots assertion).
    assert!(
        (a.reconfigurations as i64 - r.reconfigurations as i64).unsigned_abs()
            <= 2.max(r.reconfigurations / 50),
        "{label}: reconfigurations {} vs {}",
        a.reconfigurations,
        r.reconfigurations
    );
    // Dwell accounting: both kernels must book the same total dwell…
    let (ta, tr) = (
        a.capacitance_dwell.iter().map(|d| d.seconds).sum::<f64>(),
        r.capacitance_dwell.iter().map(|d| d.seconds).sum::<f64>(),
    );
    assert!(
        rel_close(ta, tr, 0.02, 0.5),
        "{label}: total dwell {ta} s vs {tr} s"
    );
    // …distributed across levels the same way, measured as the
    // earth-mover distance over the level axis. Comparator decisions
    // bifurcate on sub-mV voltage differences, so a near-threshold poll
    // can trade a whole plateau of dwell between *adjacent* levels
    // (cost: its duration × 1 level) — chatter the metric tolerates —
    // while a stride that books dwell at the wrong level or not at all
    // pays the full level distance and trips the bound.
    let top = a
        .capacitance_dwell
        .iter()
        .chain(&r.capacitance_dwell)
        .map(|d| d.level)
        .max()
        .unwrap_or(0);
    let mut emd = 0.0;
    let mut carry = 0.0;
    for level in 0..=top {
        carry += a.dwell_at(level) - r.dwell_at(level);
        emd += carry.abs();
    }
    // The largest legitimate chatter observed (REACT × SC on RF Cart:
    // one marginal poll trading a 35 s level-7/8 plateau, plus the
    // knock-on lag reaching the top levels) measures 0.19 × total; the
    // bound sits just above it so anything structurally worse fails.
    let emd_bound = 0.5 + 0.20 * a.total_time.get().max(r.total_time.get());
    assert!(
        emd <= emd_bound,
        "{label}: dwell distributions differ by {emd:.1} level·s (bound {emd_bound:.1}): {:?} vs {:?}",
        a.capacitance_dwell,
        r.capacitance_dwell
    );
    // Both kernels must balance their own energy books.
    assert!(
        r.relative_conservation_error() < 1e-3,
        "{label}: reference conservation {}",
        r.relative_conservation_error()
    );
    assert!(
        a.relative_conservation_error() < 1e-3,
        "{label}: adaptive conservation {}",
        a.relative_conservation_error()
    );
    // Step counts: runs with idle phases collapse them; runs that stay
    // on (PF sleeps through the whole trace with the gate closed) can
    // only add the occasional partial stride at window boundaries, never
    // meaningful overhead.
    assert!(
        a.engine_steps as f64 <= r.engine_steps as f64 * 1.02 + 16.0,
        "{label}: adaptive took {} steps vs reference {}",
        a.engine_steps,
        r.engine_steps
    );
    // The idle closed form engages: dark time collapses into strides.
    // Steps beyond the powered time's fine steps must stay a small
    // fraction of the fine steps the dark time would take. Measured:
    // at most 0.014 of them (sleepy 770 µF × RT; DE on RF Cart takes
    // 0.011 on every buffer). With the idle stride disabled it is ~1.
    let dt = calib::DEFAULT_DT.get();
    let extra = a.engine_steps as f64 - a.on_time.get() / dt;
    let dark = (a.total_time.get() - a.on_time.get()) / dt;
    assert!(
        extra <= dark / 20.0 + 64.0,
        "{label}: dark time did not collapse — {extra:.0} steps beyond the powered \
         time against {dark:.0} dark fine steps"
    );
}

/// The buffers the equivalence suite pins: the paper's set plus the
/// Dewdrop extension baseline (whose sleep/idle physics forward to the
/// static closed forms).
const EQUIVALENCE_BUFFERS: [BufferKind; 5] = [
    BufferKind::Static770uF,
    BufferKind::Static10mF,
    BufferKind::React,
    BufferKind::Morphy,
    BufferKind::Dewdrop,
];

#[test]
fn de_matches_reference_on_all_buffers() {
    for buffer in EQUIVALENCE_BUFFERS {
        assert_equivalent(buffer, WorkloadKind::DataEncryption);
    }
}

#[test]
fn sc_matches_reference_on_all_buffers() {
    for buffer in EQUIVALENCE_BUFFERS {
        assert_equivalent(buffer, WorkloadKind::SenseCompute);
    }
}

#[test]
fn rt_matches_reference_on_all_buffers() {
    for buffer in EQUIVALENCE_BUFFERS {
        assert_equivalent(buffer, WorkloadKind::RadioTransmit);
    }
}

#[test]
fn pf_matches_reference_on_all_buffers() {
    for buffer in EQUIVALENCE_BUFFERS {
        assert_equivalent(buffer, WorkloadKind::PacketForward);
    }
}

/// Sleep-dominated deployments: a steady supply keeps the gate closed
/// for essentially the whole run, so nearly every step is responsive
/// sleep between SC deadlines / PF arrivals / RT energy waits — the
/// regime the MCU-on sleep fast path integrates in closed form. The
/// adaptive kernel must agree with the fixed-1 ms reference on every
/// buffer (including the §3.4.1 energy-threshold wake-ups on
/// REACT/Morphy/Dewdrop) *and* actually collapse the sleeping time for
/// the duty-cycled workloads.
#[test]
fn sleep_dominated_workloads_match_reference_on_all_buffers() {
    use react_repro::harvest::Converter;
    use react_repro::traces::PowerTrace;
    use react_repro::units::Watts;

    let trace = Arc::new(PowerTrace::constant(
        "sleepy-steady",
        Watts::from_milli(5.0),
        Seconds::new(120.0),
        Seconds::new(0.1),
    ));
    // A bare engine on a synthetic trace; PF draws its arrivals from a
    // fixed seed.
    let run = |buffer: BufferKind, workload: WorkloadKind, kernel: KernelMode| {
        let workload = workload.build_streaming(trace.duration(), 0xAF_2024_FFFF);
        let replay = PowerReplay::new(Arc::clone(&trace), Converter::ideal());
        Simulator::new(replay, buffer.build(), workload)
            .with_kernel(kernel)
            .run()
            .metrics
    };
    for buffer in EQUIVALENCE_BUFFERS {
        for workload in [
            WorkloadKind::SenseCompute,
            WorkloadKind::PacketForward,
            WorkloadKind::RadioTransmit,
        ] {
            let r = run(buffer, workload, KernelMode::FixedDt);
            let a = run(buffer, workload, KernelMode::Adaptive);
            let label = format!("sleepy {} × {}", buffer.label(), workload.label());
            assert_metrics_equivalent(&label, &r, &a);
            // The duty-cycled workloads must be sleep-dominated and
            // collapse. RT is exempt from the collapse floor: its
            // steady-supply runs are transmission-bound (greedy
            // back-to-back bursts on statics, energy-gated but still
            // mostly active elsewhere), and REACT's reclamation
            // cascades near v_low keep its drain tail on fine steps by
            // design — the blackout-scenario cells cover RT's
            // energy-wake collapse instead.
            if workload != WorkloadKind::RadioTransmit {
                assert!(
                    r.on_time.get() > 0.9 * r.total_time.get(),
                    "{label}: not sleep-dominated (on {:?} of {:?})",
                    r.on_time,
                    r.total_time
                );
                assert!(
                    a.engine_steps * 3 < r.engine_steps,
                    "{label}: sleep fast path idle — {} vs {} steps",
                    a.engine_steps,
                    r.engine_steps
                );
            }
        }
    }
}

/// A pathological always-asleep workload holding a power-hungry radio:
/// the closed-form sleep stride must integrate the held peripheral
/// current (`LoadDemand::sleep_with`), not just the 2 µA LPM3 core —
/// the `McuSpec::current` call-site audit. A CPU-only integration
/// would keep the node alive for hours instead of seconds.
#[test]
fn sleep_stride_integrates_held_peripheral_current() {
    use react_repro::core::Simulator;
    use react_repro::harvest::{Converter, PowerReplay};
    use react_repro::traces::PowerTrace;
    use react_repro::units::{Amps, Watts};
    use react_repro::workloads::{LoadDemand, WakeHint, Workload, WorkloadEnv};

    #[derive(Clone)]
    struct RadioSleep;
    impl Workload for RadioSleep {
        fn name(&self) -> &'static str {
            "radio-sleep"
        }
        fn on_power_up(&mut self, _now: Seconds) {}
        fn on_power_down(&mut self, _now: Seconds) {}
        fn step(&mut self, _env: &WorkloadEnv) -> LoadDemand {
            LoadDemand::sleep_with(Amps::from_milli(5.0))
        }
        fn next_wake(&self, _env: &WorkloadEnv) -> WakeHint {
            WakeHint::Never
        }
        fn finalize(&mut self, _now: Seconds) {}
        fn ops_completed(&self) -> u64 {
            0
        }
    }

    let trace = Arc::new(PowerTrace::constant(
        "charge-then-dark",
        Watts::from_milli(50.0),
        Seconds::new(10.0),
        Seconds::new(0.1),
    ));
    let run = |kernel: KernelMode| {
        Simulator::new(
            PowerReplay::new(Arc::clone(&trace), Converter::ideal()),
            BufferKind::Static10mF.build(),
            RadioSleep,
        )
        .with_max_drain(Seconds::new(1200.0))
        .with_kernel(kernel)
        .run()
        .metrics
    };
    let fixed = run(KernelMode::FixedDt);
    let adaptive = run(KernelMode::Adaptive);

    assert_eq!(adaptive.boots, fixed.boots);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-9);
    assert!(
        rel(adaptive.on_time.get(), fixed.on_time.get()) < 0.02,
        "on_time {:?} vs {:?}",
        adaptive.on_time,
        fixed.on_time
    );
    // 10 mF × 1.8 V / 5 mA ≈ 3.6 s of drain after the trace ends: the
    // radio's draw dominates. A CPU-only (2 µA) integration would
    // report ~9000 s (capped at the 1200 s drain allowance).
    assert!(
        adaptive.on_time.get() < 60.0,
        "radio-on sleep integrated as CPU-only LPM3: on for {:?}",
        adaptive.on_time
    );
    assert!(
        adaptive.engine_steps * 10 < fixed.engine_steps,
        "sleep stride idle: {} vs {} steps",
        adaptive.engine_steps,
        fixed.engine_steps
    );
    assert!(adaptive.relative_conservation_error() < 1e-3);
}

/// The static-size sweep on the adaptive kernel agrees point by point
/// with the same sweep on the fixed-`dt` reference kernel.
#[test]
fn sweep_parallel_adaptive_matches_serial_reference() {
    use react_repro::core::sweep::static_size_sweep_with;
    use react_repro::units::Farads;

    let trace = paper_trace(PaperTrace::RfObstructed).truncated(Seconds::new(60.0));
    let sizes = [
        Farads::from_micro(500.0),
        Farads::from_milli(2.0),
        Farads::from_milli(10.0),
    ];
    let reference = static_size_sweep_with(
        &trace,
        WorkloadKind::DataEncryption,
        &sizes,
        KernelMode::FixedDt,
    );
    let fast = static_size_sweep_with(
        &trace,
        WorkloadKind::DataEncryption,
        &sizes,
        KernelMode::Adaptive,
    );
    assert_eq!(reference.len(), fast.len());
    for (r, f) in reference.iter().zip(&fast) {
        assert_eq!(r.capacitance, f.capacitance);
        assert!(
            rel_close(
                f.metrics.ops_completed as f64,
                r.metrics.ops_completed as f64,
                0.02,
                2.0
            ),
            "{:?}: ops {} vs {}",
            r.capacitance,
            f.metrics.ops_completed,
            r.metrics.ops_completed
        );
    }
}

/// Forwards the [`Workload`] methods an active-stride replay does not
/// touch to the wrapped workload in field `0`.
macro_rules! forward_workload {
    () => {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn on_power_up(&mut self, now: Seconds) {
            self.0.on_power_up(now)
        }
        fn on_power_down(&mut self, now: Seconds) {
            self.0.on_power_down(now)
        }
        fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
            self.0.next_wake(env)
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
    };
}

/// Forwards every method except `replay_steady`, so an active stride
/// replays its covered steps through the trait's default loop, one
/// `step` call each.
struct PerStep<W>(W);

impl<W: Workload> Workload for PerStep<W> {
    forward_workload!();
    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        self.0.step(env)
    }
}

/// Forwards every method, `replay_steady` included, and counts the
/// `step` calls made on it.
struct CountSteps<W>(W, Rc<Cell<u64>>);

impl<W: Workload> Workload for CountSteps<W> {
    forward_workload!();
    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        self.1.set(self.1.get() + 1);
        self.0.step(env)
    }
    fn replay_steady(&mut self, first: u64, steps: u64, env: &WorkloadEnv) {
        self.0.replay_steady(first, steps, env)
    }
}

/// Builds `s` the way [`Scenario::simulator`] does, with its workload
/// wrapped by `wrap`.
fn wrapped_simulator<W: Workload>(
    s: &Scenario,
    wrap: impl FnOnce(Box<dyn Workload>) -> W,
) -> Simulator<Box<dyn EnergyBuffer>, W, Box<dyn PowerSource>> {
    let replay = PowerReplay::from_source(s.source(), s.converter.build());
    let workload = wrap(s.build_workload());
    let mut sim = Simulator::new(replay, s.buffer.build(), workload)
        .with_timestep(s.dt)
        .with_horizon(s.horizon)
        .with_gate(s.gate());
    if s.env.adversarial() {
        sim = sim.with_feedback();
    }
    if s.defended {
        sim = sim.with_defense(DefenseConfig::default());
    }
    if s.fault != FaultCampaign::None {
        sim = sim.with_faults(s.fault.plan(s.fault_seed(), s.horizon));
    }
    if s.audited {
        sim = sim.with_auditor(AuditConfig::default());
    }
    sim
}

/// Every scalar of a run's metrics, floats by their bits. The
/// exhaustive destructuring makes a new field a compile error here.
fn metric_bits(m: &RunMetrics) -> Vec<(&'static str, u64)> {
    let RunMetrics {
        ops_completed,
        ops_failed,
        aux_completed,
        events_missed,
        first_on_latency,
        on_time,
        total_time,
        boots,
        mean_on_period,
        max_on_period,
        max_off_period,
        engine_steps,
        reconfigurations,
        guard_fallbacks,
        detections,
        false_positives,
        defensive_reconfigurations,
        faults_injected,
        audit_checks,
        audit_trips,
        capacitance_dwell,
        ledger,
        initial_stored,
        final_stored,
    } = m;
    let mut bits = vec![
        ("ops_completed", *ops_completed),
        ("ops_failed", *ops_failed),
        ("aux_completed", *aux_completed),
        ("events_missed", *events_missed),
        (
            "first_on_latency",
            first_on_latency.map_or(u64::MAX, |l| l.get().to_bits()),
        ),
        ("on_time", on_time.get().to_bits()),
        ("total_time", total_time.get().to_bits()),
        ("boots", *boots),
        ("mean_on_period", mean_on_period.get().to_bits()),
        ("max_on_period", max_on_period.get().to_bits()),
        ("max_off_period", max_off_period.get().to_bits()),
        ("engine_steps", *engine_steps),
        ("reconfigurations", *reconfigurations),
        ("guard_fallbacks", *guard_fallbacks),
        ("detections", *detections),
        ("false_positives", *false_positives),
        ("defensive_reconfigurations", *defensive_reconfigurations),
        ("faults_injected", *faults_injected),
        ("audit_checks", *audit_checks),
        ("audit_trips", *audit_trips),
        ("ledger.harvested", ledger.harvested.get().to_bits()),
        ("ledger.delivered", ledger.delivered.get().to_bits()),
        ("ledger.clipped", ledger.clipped.get().to_bits()),
        ("ledger.leaked", ledger.leaked.get().to_bits()),
        ("ledger.diode_loss", ledger.diode_loss.get().to_bits()),
        ("ledger.switch_loss", ledger.switch_loss.get().to_bits()),
        ("ledger.load_consumed", ledger.load_consumed.get().to_bits()),
        (
            "ledger.overhead_consumed",
            ledger.overhead_consumed.get().to_bits(),
        ),
        ("initial_stored", initial_stored.get().to_bits()),
        ("final_stored", final_stored.get().to_bits()),
    ];
    for d in capacitance_dwell {
        bits.push(("dwell.level", d.level as u64));
        bits.push(("dwell.seconds", d.seconds.to_bits()));
    }
    bits
}

/// Replaying an active stride in bulk (`Workload::replay_steady`) is
/// bit-identical to stepping the workload once per covered step: every
/// DE report row on every report buffer at salt 0, REACT's poll-debt
/// runs included, leaves every metric scalar bit-equal with the
/// default per-step loop.
#[test]
fn bulk_steady_replay_is_bit_identical_to_per_step() {
    let mut checked = 0;
    for row in scenario_registry()
        .iter()
        .filter(|s| s.workload == WorkloadKind::DataEncryption)
    {
        for &buffer in &REPORT_BUFFERS {
            let s = row.with_buffer(buffer);
            let bulk = s.simulator().run().metrics;
            let stepped = wrapped_simulator(&s, PerStep).run().metrics;
            assert_eq!(
                metric_bits(&bulk),
                metric_bits(&stepped),
                "{} / {}",
                s.name,
                buffer.label()
            );
            assert!(
                bulk.ops_completed > 0,
                "{} / {}: no op",
                s.name,
                buffer.label()
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 40, "DE report rows x buffers");
}

/// The engine hands an active stride's covered steps to the workload
/// in bulk, through the `Box<dyn Workload>` forward, so DE on the
/// 770 µF buffer under the spoof-baiter is stepped directly only on
/// fine steps: 123 calls, where the default per-step loop makes 3.6M.
#[test]
fn active_strides_replay_de_without_stepping_it() {
    let s = find_scenario("attack-baitswitch-hour-de")
        .expect("registry scenario")
        .with_buffer(BufferKind::Static770uF);
    let count = |per_step: bool| {
        let calls = Rc::new(Cell::new(0));
        let counted = |w| CountSteps(w, Rc::clone(&calls));
        let out = if per_step {
            wrapped_simulator(&s, |w| PerStep(counted(w))).run()
        } else {
            wrapped_simulator(&s, |w| Box::new(counted(w)) as Box<dyn Workload>).run()
        };
        (calls.get(), out.metrics.ops_completed)
    };
    let (bulk_calls, bulk_ops) = count(false);
    let (stepped_calls, stepped_ops) = count(true);
    assert_eq!(bulk_ops, stepped_ops);
    assert_eq!((bulk_calls, stepped_calls), (123, 3_600_605));
}

fn truncated(name: &str, horizon_s: f64) -> Scenario {
    let mut s = *find_scenario(name).expect("registry scenario");
    s.horizon = s.horizon.min(Seconds::new(horizon_s));
    s
}

/// (ops, engine steps, final stored energy bits) of three capped SC and
/// DE cells, pinned so a workload change meant to be outcome-neutral
/// shows when it is not; the DE cell's steps and stored energy are
/// those since its MCU-active time runs in active strides.
#[test]
fn sc_and_de_cells_match_recorded_outcomes() {
    for (name, horizon_s, expected) in [
        (
            "diurnal-day-react-sc",
            3600.0,
            (355, 4775, 4570455925511652526),
        ),
        (
            "rf-sparse-week",
            6.0 * 3600.0,
            (101, 976, 4565922996638005458),
        ),
        ("rf-ge-hour-react-de", 300.0, (163, 33, 4563387086623499714)),
    ] {
        let m = truncated(name, horizon_s).run().metrics;
        let got = (
            m.ops_completed,
            m.engine_steps,
            m.final_stored.get().to_bits(),
        );
        assert_eq!(got, expected, "{name} capped at {horizon_s} s");
    }
}
