//! Streaming-environment integration: registry scenarios through the
//! real engine.
//!
//! The headline guarantees under test:
//!
//! 1. a registry scenario with a week-long horizon runs to completion
//!    through the adaptive kernel *without materializing* a
//!    full-resolution trace (engine steps collapse by orders of
//!    magnitude against the fixed-`dt` step count), and
//! 2. streaming sources obey the same kernel-equivalence contract as
//!    replayed traces — adaptive vs fixed-`dt` metrics agree within
//!    the tolerances `tests/kernel_equivalence.rs` uses (which itself
//!    now exercises `TraceSource`-wrapped paper traces on all four
//!    workloads, since every trace replay routes through it).

use react_repro::circuit::FaultCampaign;
use react_repro::core::fom::figure_of_merit;
use react_repro::core::scenario::WEEK;
use react_repro::core::{
    build_report, fault_scenario_registry, find_scenario, scenario_registry, KernelMode, Scenario,
};
use react_repro::units::Seconds;

fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + abs
}

#[test]
fn week_scenario_streams_to_completion_through_adaptive_kernel() {
    let s = find_scenario("rf-sparse-week").expect("registered");
    assert!(s.horizon >= WEEK, "the registry must carry a week horizon");
    let out = s.run();
    let m = &out.metrics;
    // The deployment survived the whole week (plus drain tail).
    assert!(m.total_time >= s.horizon, "ended at {:?}", m.total_time);
    // It actually lived: thousands of charge/discharge cycles and real
    // work done across the sparse bursts.
    assert!(m.boots > 100, "boots {}", m.boots);
    assert!(m.ops_completed > 100, "ops {}", m.ops_completed);
    // Never materialized, never fine-stepped the dark spans: the
    // fixed-dt reference would need horizon/dt ≈ 60 M steps.
    let fixed_dt_steps = (s.horizon.get() / s.dt.get()) as u64;
    assert!(
        m.engine_steps * 20 < fixed_dt_steps,
        "engine steps {} vs fixed-dt {}",
        m.engine_steps,
        fixed_dt_steps
    );
    // Both kernels keep their books balanced; streaming is no excuse.
    assert!(m.relative_conservation_error() < 1e-3);
}

/// Adaptive vs fixed-`dt` on a streaming static-buffer scenario.
#[test]
fn streaming_static_scenario_is_kernel_equivalent() {
    let mut s: Scenario = *find_scenario("rf-ge-hour-10mf-de").expect("registered");
    s.horizon = Seconds::new(600.0); // keep the reference run affordable
    assert_metrics_equivalent(&s);
}

/// Adaptive vs fixed-`dt` on a streaming REACT scenario under an
/// adversarial (spoof + blackout) environment — the controller-aware
/// idle fast path against hostile segment patterns.
#[test]
fn streaming_attack_scenario_is_kernel_equivalent_on_react() {
    let mut s: Scenario = *find_scenario("attack-spoof-hour-react-de").expect("registered");
    s.horizon = Seconds::new(600.0);
    assert_metrics_equivalent(&s);
}

fn assert_metrics_equivalent(s: &Scenario) {
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
    match (a.first_on_latency, r.first_on_latency) {
        (None, None) => {}
        (Some(la), Some(lr)) => assert!(
            (la.get() - lr.get()).abs() < 0.1,
            "{label}: latency {la:?} vs {lr:?}"
        ),
        (la, lr) => panic!("{label}: latency {la:?} vs {lr:?}"),
    }
    assert!(
        (a.reconfigurations as i64 - r.reconfigurations as i64).unsigned_abs()
            <= 2.max(r.reconfigurations / 50),
        "{label}: reconfigurations {} vs {}",
        a.reconfigurations,
        r.reconfigurations
    );
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
    assert!(
        a.engine_steps as f64 <= r.engine_steps as f64 * 1.02 + 16.0,
        "{label}: adaptive took {} steps vs reference {}",
        a.engine_steps,
        r.engine_steps
    );
}

/// Past the harvest horizon the environment is disconnected: the drain
/// phase runs on stored energy alone, exactly as a bounded trace's
/// zero tail behaves. A steady streaming source must therefore not
/// keep the system alive through the (two-hour) drain allowance.
#[test]
fn environment_disconnects_at_the_horizon() {
    use react_repro::buffers::BufferKind;
    use react_repro::env::Mobility;
    use react_repro::harvest::{Converter, PowerReplay};
    use react_repro::prelude::*;
    use react_repro::units::Watts;

    let steady = Mobility::schedule("steady", vec![(Seconds::new(0.0), Watts::from_milli(5.0))]);
    let out = Simulator::new(
        PowerReplay::from_source(steady, Converter::ideal()),
        BufferKind::Static770uF.build(),
        Box::new(react_repro::workloads::DataEncryption::new()),
    )
    .with_horizon(Seconds::new(30.0))
    .run();
    let total = out.metrics.total_time.get();
    // Ran the full horizon, then browned out within seconds — not the
    // 7200 s drain cap a still-connected 5 mW source would sustain.
    assert!(total >= 30.0, "ended early at {total}");
    assert!(total < 90.0, "source still connected at {total} s");
    assert!(out.metrics.ops_completed > 0);
}

/// A registry selection runs through the report's parallel runner,
/// preserving input order, and each parallel cell equals a serial
/// `Scenario::run` of the same scenario.
#[test]
fn registry_selection_runs_in_parallel_and_is_deterministic() {
    let mut picks: Vec<Scenario> = ["rf-ge-hour-10mf-de", "attack-blackout-hour-react-rt"]
        .iter()
        .map(|n| *find_scenario(n).expect("registered"))
        .collect();
    for s in &mut picks {
        s.horizon = Seconds::new(240.0); // unit-test sized
    }
    let (parallel, _) = build_report(&picks, &|s| (s.run(), ()));
    assert_eq!(parallel.cells.len(), picks.len());
    for (p, s) in parallel.cells.iter().zip(&picks) {
        let serial = s.run().metrics;
        assert_eq!(p.scenario, s.name);
        assert_eq!(p.boots, serial.boots, "{}", s.name);
        assert_eq!(p.engine_steps, serial.engine_steps, "{}", s.name);
        assert_eq!(p.fom, figure_of_merit(s.workload, &serial), "{}", s.name);
    }
}

/// Every unfaulted entry of either registry is well-formed and its
/// environment streams.
#[test]
fn registry_is_well_formed() {
    let all: Vec<&Scenario> = scenario_registry()
        .iter()
        .chain(fault_scenario_registry())
        .filter(|s| s.fault == FaultCampaign::None)
        .collect();
    assert!(all.len() >= 8, "registry shrank to {}", all.len());
    assert!(
        all.iter().any(|s| s.horizon >= WEEK),
        "registry must keep a week-horizon scenario"
    );
    for s in all {
        let mut env = s.source();
        let seg = env.segment(Seconds::ZERO);
        assert!(seg.power.get().is_finite(), "{}", s.name);
        assert!(seg.end > Seconds::ZERO, "{}", s.name);
    }
}
