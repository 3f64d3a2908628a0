//! Scenario-report subsystem: converter-on-streaming correctness and
//! the report/conformance pipeline end to end (unit-test sized — the
//! full matrix is the `report scenario` binary's job, gated in CI).

use react_repro::buffers::BufferKind;
use react_repro::circuit::FaultCampaign;
use react_repro::core::scenario_report::{REPORT_BUFFERS, REPORT_SEEDS};
use react_repro::core::{
    build_report, cell_id, compare_reports, expand_cells, fault_scenario_registry, find_scenario,
    scenario_registry, KernelMode, Scenario,
};
use react_repro::harvest::ConverterKind;
use react_repro::prelude::*;
use react_repro::units::Seconds;

fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + abs
}

/// Acceptance: at least three unfaulted scenarios (of either registry)
/// declare a non-ideal converter, and each still collapses its MCU-off
/// phases through the adaptive kernel's closed-form fast path — engine
/// steps stay well under the fixed-`dt` step count even after
/// truncating the horizon to keep the test quick.
#[test]
fn non_ideal_converter_scenarios_keep_the_fast_path() {
    let non_ideal: Vec<&Scenario> = scenario_registry()
        .iter()
        .chain(fault_scenario_registry())
        .filter(|s| s.fault == FaultCampaign::None)
        .filter(|s| s.converter != ConverterKind::Ideal)
        .collect();
    assert!(
        non_ideal.len() >= 3,
        "only {} scenarios declare a non-ideal converter",
        non_ideal.len()
    );
    assert!(
        non_ideal
            .iter()
            .any(|s| s.converter == ConverterKind::RfRectifier),
        "an RF/attack scenario must declare the rectifier"
    );
    assert!(
        non_ideal
            .iter()
            .any(|s| s.converter == ConverterKind::BoostCharger),
        "a diurnal scenario must declare the boost charger"
    );
    // Every non-ideal scenario stays within the fixed-dt step budget
    // (the fast path can only remove steps, never add them) and keeps
    // its books balanced…
    for &s in &non_ideal {
        let mut s = *s;
        s.horizon = s.horizon.min(Seconds::new(1200.0));
        let m = s.run().metrics;
        let fixed_dt_steps = (s.horizon.get() / s.dt.get()) as u64;
        assert!(
            m.engine_steps <= fixed_dt_steps + 16,
            "{}: {} engine steps vs {} fixed-dt",
            s.name,
            m.engine_steps,
            fixed_dt_steps
        );
        assert!(
            m.relative_conservation_error() < 1e-3,
            "{}: conservation {}",
            s.name,
            m.relative_conservation_error()
        );
    }
    // …and on idle-dominated environments the converter must not cost
    // the closed-form collapse: engine steps stay WELL under the
    // fixed-dt count. (Scenarios that keep the MCU lit most of the
    // run — e.g. REACT riding out blackout attacks at 75 % duty —
    // rightly fine-step that on-time; they are excluded by design.)
    for (name, cap_s, min_collapse) in [
        ("rf-sparse-week", 3600.0, 10),
        ("stormy-day-morphy-de", 7200.0, 3),
        ("rf-ge-hour-react-de", 1200.0, 3),
    ] {
        let mut s = *find_scenario(name).expect("registered");
        assert!(s.converter != ConverterKind::Ideal, "{name} went ideal");
        s.horizon = s.horizon.min(Seconds::new(cap_s));
        let m = s.run().metrics;
        let fixed_dt_steps = (s.horizon.get() / s.dt.get()) as u64;
        assert!(
            m.engine_steps * min_collapse < fixed_dt_steps,
            "{name}: converter broke the fast path ({} engine steps vs {} fixed-dt)",
            m.engine_steps,
            fixed_dt_steps
        );
    }
}

/// Kernel equivalence through a non-ideal converter on a streaming
/// source: the rectifier's load-dependent efficiency must not open any
/// gap between the closed-form idle strides and the fixed-`dt`
/// reference.
#[test]
fn rf_rectifier_scenario_is_kernel_equivalent() {
    let mut s = *find_scenario("rf-ge-hour-react-de").expect("registered");
    assert_eq!(s.converter, ConverterKind::RfRectifier);
    s.horizon = Seconds::new(600.0);
    assert_kernel_equivalent(&s);
}

/// Same contract for the boost charger on a diurnal source, across the
/// sunrise ramp (the envelope steps exercise many short converter
/// segments, including spans under the cold-start floor).
#[test]
fn boost_charger_scenario_is_kernel_equivalent() {
    let mut s = *find_scenario("stormy-day-morphy-de").expect("registered");
    assert_eq!(s.converter, ConverterKind::BoostCharger);
    s.horizon = Seconds::new(7200.0); // sunrise starts at t = 0
    assert_kernel_equivalent(&s);
}

fn assert_kernel_equivalent(s: &Scenario) {
    let r = s.run_with_kernel(KernelMode::FixedDt).metrics;
    let a = s.run_with_kernel(KernelMode::Adaptive).metrics;
    let label = s.name;
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
    assert!(
        rel_close(
            a.max_off_period.get(),
            r.max_off_period.get(),
            0.02,
            2.0 * s.dt.get()
        ),
        "{label}: max_off {:?} vs {:?}",
        a.max_off_period,
        r.max_off_period
    );
    assert!(
        a.relative_conservation_error() < 1e-3 && r.relative_conservation_error() < 1e-3,
        "{label}: conservation {} / {}",
        a.relative_conservation_error(),
        r.relative_conservation_error()
    );
    // The fast path must actually have collapsed something.
    assert!(
        a.engine_steps * 2 < r.engine_steps,
        "{label}: adaptive {} vs fixed {} steps",
        a.engine_steps,
        r.engine_steps
    );
}

/// `Converter::ideal()` through the streaming path is bit-identical to
/// the raw source: rail power IS the available power, for every probe,
/// on the exact segment boundaries included. (The pre-converter
/// engine fed `power_at` straight to the buffer; the ideal converter
/// must reproduce that history exactly — the paper-trace registry
/// scenario equality test in `react_core::scenario` relies on it.)
#[test]
fn ideal_converter_streaming_path_is_bit_identical() {
    use react_repro::harvest::{Converter, PowerReplay};

    let s = find_scenario("mobility-day-10mf-sc").expect("registered");
    let mut raw = s.source();
    let replay = PowerReplay::from_source(s.source(), Converter::ideal());
    let mut cursor = replay.cursor();
    let v = react_repro::units::Volts::new(2.5);
    let mut t = 0.0f64;
    while t < s.horizon.get() {
        let probe = Seconds::new(t);
        let available = raw.power_at(probe);
        let rail = cursor.rail_power(probe, v);
        assert_eq!(
            available.get().to_bits(),
            rail.get().to_bits(),
            "ideal converter altered power at t={t}"
        );
        // Hop segment to segment so boundaries are probed exactly.
        let seg = raw.segment(probe);
        assert_eq!(cursor.rail_window(probe, v).0, seg.power);
        t = seg.end.get().min(t + 977.0);
    }
}

/// A unit-test-sized slice of the report matrix conforms to itself and
/// catches injected drift — the same code path the CI scenario gate
/// runs over the committed baseline.
#[test]
fn report_slice_gates_like_ci() {
    let mut rows: Vec<Scenario> = ["rf-ge-hour-react-de", "attack-blackout-hour-react-rt"]
        .iter()
        .map(|n| *find_scenario(n).expect("registered"))
        .collect();
    for s in &mut rows {
        s.horizon = Seconds::new(300.0);
    }
    let cells = expand_cells(&rows, &[BufferKind::Static770uF, BufferKind::React], &[0]);
    let (report, _) = build_report(&cells, &|s| (s.run(), ()));
    assert_eq!(report.cells.len(), 4);
    assert!(compare_reports(&report, &report).is_empty());

    let mut drifted = report.clone();
    drifted.cells[2].reconfigurations += 40;
    let violations = compare_reports(&report, &drifted);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].contains(&report.cells[2].id()),
        "violation must name the offending cell: {violations:?}"
    );
}

/// The default report axes stay what the committed baseline was built
/// from; widening them is fine but must come with a baseline refresh.
#[test]
fn report_axes_match_committed_baseline_shape() {
    assert_eq!(REPORT_BUFFERS.len(), 4);
    assert!(REPORT_BUFFERS.contains(&BufferKind::Dewdrop));
    assert_eq!(REPORT_SEEDS, [0, 1]);
    let rows = scenario_registry();
    assert!(rows.len() >= 8, "registry shrank to {} rows", rows.len());
    // Every row × buffer × seed cell id is unique.
    let mut ids = std::collections::HashSet::new();
    for s in rows {
        for b in REPORT_BUFFERS {
            for seed in REPORT_SEEDS {
                assert!(ids.insert(cell_id(s.name, b.label(), seed)));
            }
        }
    }
}

/// Dewdrop is electrically a static buffer, so it must ride the idle
/// fast path — a week-scale Dewdrop report cell would otherwise cost
/// tens of millions of fine steps.
#[test]
fn dewdrop_rides_the_idle_fast_path() {
    let mut s = *find_scenario("rf-sparse-week").expect("registered");
    s.buffer = BufferKind::Dewdrop;
    s.horizon = Seconds::new(3600.0);
    let m = s.run().metrics;
    let fixed_dt_steps = (s.horizon.get() / s.dt.get()) as u64;
    assert!(
        m.engine_steps * 3 < fixed_dt_steps,
        "Dewdrop fine-stepped: {} vs {}",
        m.engine_steps,
        fixed_dt_steps
    );
}

/// ROADMAP item closed this PR: scenario runs used to hard-code the
/// paper's fixed 3.3 V enable for every buffer, handicapping Dewdrop —
/// whose whole design is the *adaptive* enable voltage (≈2.56 V for
/// the reference configuration). `Scenario::gate` now wires it in, and
/// under blackout attacks the lower enable must get Dewdrop back on
/// the air measurably sooner after each outage.
#[test]
fn dewdrop_scenarios_run_under_the_adaptive_enable_gate() {
    use react_repro::buffers::DewdropBuffer;
    use react_repro::core::Simulator;
    use react_repro::harvest::PowerReplay;
    use react_repro::mcu::PowerGate;

    let s = find_scenario("attack-blackout-hour-react-rt")
        .expect("registered")
        .with_buffer(BufferKind::Dewdrop);
    // The wired gate is Dewdrop's adaptive enable, not the 3.3 V fixed
    // testbed gate: √(1.8² + 2·5 mJ / 3 mF) ≈ 2.564 V.
    let expected = DewdropBuffer::reference().adaptive_enable_voltage();
    assert!((s.gate().enable_voltage().get() - expected.get()).abs() < 1e-12);
    assert!(expected.get() < 2.6 && expected.get() > 2.5);

    let run_with_gate = |gate: PowerGate| {
        let replay = PowerReplay::from_source(s.source(), s.converter.build());
        let workload = s.workload.build_streaming(s.horizon, s.workload_seed());
        Simulator::new(replay, s.buffer.build(), workload)
            .with_timestep(s.dt)
            .with_horizon(s.horizon)
            .with_gate(gate)
            .run()
            .metrics
    };
    let adaptive_gate = run_with_gate(s.gate());
    let fixed_gate = run_with_gate(PowerGate::paper_testbed());

    // The registry run IS the adaptive-gate run…
    let via_registry = s.run().metrics;
    assert_eq!(via_registry.boots, adaptive_gate.boots);
    assert_eq!(via_registry.ops_completed, adaptive_gate.ops_completed);
    // …and the adaptive enable changes the cell as Dewdrop intends:
    // a shallower charge target means coming back from the cold start
    // (and every blackout) sooner.
    let (la, lf) = (
        adaptive_gate.first_on_latency.expect("starts"),
        fixed_gate.first_on_latency.expect("starts"),
    );
    assert!(
        la < lf,
        "adaptive enable must start sooner: {la:?} vs {lf:?}"
    );
    assert!(
        adaptive_gate.on_time > fixed_gate.on_time,
        "adaptive enable must increase on-air time under attack: {:?} vs {:?}",
        adaptive_gate.on_time,
        fixed_gate.on_time
    );
}

/// ROADMAP item closed this PR: the mobility-week cells dominated the
/// report matrix (~55 M fine steps each — LPM3 keeps the MCU lit for
/// most of the commuter week). The MCU-on sleep fast path must
/// collapse a full mobility-week cell by well over the 10× floor while
/// still living the whole week.
#[test]
fn mobility_week_sleep_fast_path_collapses_the_cell() {
    let s = find_scenario("mobility-week-pf")
        .expect("registered")
        .with_buffer(BufferKind::Dewdrop);
    let m = s.run().metrics;
    let fixed_dt_steps = (s.horizon.get() / s.dt.get()) as u64;
    assert!(
        m.engine_steps * 10 < fixed_dt_steps,
        "mobility-week sleep collapse below 10×: {} engine steps vs {} fixed-dt",
        m.engine_steps,
        fixed_dt_steps
    );
    // The week actually happened: mostly on, packets forwarded, books
    // balanced.
    assert!(m.total_time >= s.horizon);
    assert!(m.duty_cycle() > 0.5, "duty {:.3}", m.duty_cycle());
    assert!(m.ops_completed > 1000, "ops {}", m.ops_completed);
    assert!(m.relative_conservation_error() < 1e-3);
}
