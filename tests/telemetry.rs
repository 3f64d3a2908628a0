//! Telemetry-layer acceptance tests: recording must be *observational*
//! (bit-identical metrics whether a run records nothing, a step
//! profile, or the full event stream), the step-attribution ledger
//! must balance exactly against the engine's own accounting, the sink
//! tables must name the known kernel hotspots, and the fleet kernel's
//! merged profile must equal the node-order merge of scalar profiles.

use proptest::prelude::*;
use react_repro::buffers::BufferKind;
use react_repro::core::scenario_report::{REPORT_BUFFERS, REPORT_SEEDS};
use react_repro::core::{
    build_report, calib, expand_cells, find_scenario, render_class_sinks, run_fleet,
    scenario_registry, CellAttribution, FleetRunOptions, FleetSpec, KernelMode, RunMetrics,
    Scenario, Simulator,
};
use react_repro::env::{PowerSource, Segment};
use react_repro::harvest::{Converter, PowerReplay};
use react_repro::mcu::PowerGate;
use react_repro::telemetry::{
    chrome_trace_json, EventKind, FallbackReason, Regime, RingRecorder, StepAttribution,
};
use react_repro::units::{Seconds, Watts};

/// The fields a recorder could plausibly perturb, compared bit-for-bit
/// (floats via `to_bits`, so even a ULP of drift fails).
fn assert_bit_identical(label: &str, a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.engine_steps, b.engine_steps, "{label}: engine_steps");
    assert_eq!(a.ops_completed, b.ops_completed, "{label}: ops");
    assert_eq!(a.boots, b.boots, "{label}: boots");
    assert_eq!(
        a.reconfigurations, b.reconfigurations,
        "{label}: reconfigurations"
    );
    assert_eq!(
        a.guard_fallbacks, b.guard_fallbacks,
        "{label}: guard_fallbacks"
    );
    assert_eq!(
        a.final_stored.get().to_bits(),
        b.final_stored.get().to_bits(),
        "{label}: final_stored"
    );
    assert_eq!(
        a.on_time.get().to_bits(),
        b.on_time.get().to_bits(),
        "{label}: on_time"
    );
    assert_eq!(
        a.total_time.get().to_bits(),
        b.total_time.get().to_bits(),
        "{label}: total_time"
    );
}

/// A truncated copy of a registry scenario (full horizons belong to
/// the release-build report, not debug-build tests).
fn truncated(name: &str, horizon_s: f64) -> Scenario {
    let mut s = *find_scenario(name).expect("registry scenario");
    s.horizon = s.horizon.min(Seconds::new(horizon_s));
    s
}

/// The tentpole contract, pinned across the whole report matrix:
/// attaching a `StepAttribution` or a full `RingRecorder` must leave
/// every metric bit-identical to the unrecorded run, and the profile's
/// step total must equal the engine's own step counter exactly.
/// Recording volume is pinned too: the attribution profile is a fixed
/// array, so a recorded run's extra cost scales with the events it
/// emits, and those stay within two per engine step.
#[test]
fn recording_is_bit_identical_across_report_matrix() {
    for base in scenario_registry() {
        for buffer in REPORT_BUFFERS {
            let mut s = base.with_buffer(buffer);
            s.horizon = s.horizon.min(Seconds::new(60.0));
            let label = format!("{}/{}", s.name, buffer.label());
            let plain = s.run().metrics;
            let (attributed, attr) = s.run_recorded(StepAttribution::default());
            let (traced, ring) = s.run_recorded(RingRecorder::default());
            assert_bit_identical(&label, &plain, &attributed.metrics);
            assert_bit_identical(&label, &plain, &traced.metrics);
            assert_eq!(
                attr.total_steps(),
                plain.engine_steps,
                "{label}: attribution must account for every engine step"
            );
            assert!(!ring.is_empty(), "{label}: the default ring records events");
            assert_eq!(ring.dropped(), 0, "{label}: 60 s must fit the default ring");
            let events = ring.len() as u64 + ring.dropped();
            assert!(
                events <= 2 * plain.engine_steps,
                "{label}: {events} events recorded over {} engine steps",
                plain.engine_steps
            );
        }
    }
}

/// Recording stays observational across active strides: a DE cell
/// whose MCU-active time runs in closed form (a poll-overhead REACT cell
/// and a static one) records the same bits as its unrecorded run, and
/// its profile shows the active strides.
#[test]
fn active_strides_record_bit_identically() {
    for buffer in [BufferKind::React, BufferKind::Static770uF] {
        let s = truncated("rf-ge-hour-react-de", 600.0).with_buffer(buffer);
        let label = format!("{}/{}", s.name, buffer.label());
        let plain = s.run().metrics;
        let (attributed, attr) = s.run_recorded(StepAttribution::default());
        let (traced, _) = s.run_recorded(RingRecorder::default());
        assert_bit_identical(&label, &plain, &attributed.metrics);
        assert_bit_identical(&label, &plain, &traced.metrics);
        assert!(
            attr.bin(Regime::Active, None).steps > 0,
            "{label}: no active stride"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identity is not an artifact of the fixed report axes: it
    /// holds for randomly drawn (scenario, buffer, seed) cells too.
    #[test]
    fn recording_is_bit_identical_on_random_cells(
        pick in 0usize..64,
        salt in 0u64..100,
    ) {
        let scenarios = scenario_registry();
        let base = scenarios[pick % scenarios.len()];
        let buffer = REPORT_BUFFERS[pick / scenarios.len() % REPORT_BUFFERS.len()];
        let mut s = base.with_buffer(buffer).with_seed_salt(salt);
        s.horizon = s.horizon.min(Seconds::new(45.0));
        let plain = s.run().metrics;
        let (attributed, attr) = s.run_recorded(StepAttribution::default());
        prop_assert_eq!(plain.engine_steps, attributed.metrics.engine_steps);
        prop_assert_eq!(
            plain.final_stored.get().to_bits(),
            attributed.metrics.final_stored.get().to_bits()
        );
        prop_assert_eq!(
            plain.on_time.get().to_bits(),
            attributed.metrics.on_time.get().to_bits()
        );
        prop_assert_eq!(attr.total_steps(), plain.engine_steps);
    }
}

/// The attribution ledger must balance: steps match the engine counter
/// exactly, simulated seconds telescope back to the horizon, and the
/// per-regime marginals sum to the totals.
#[test]
fn attribution_accounts_for_every_step_and_second() {
    // A mixed cell: boots, idle charging and active bursts all occur
    // within two simulated hours.
    let s = truncated("stormy-day-morphy-de", 7200.0);
    let (outcome, attr) = s.run_recorded(StepAttribution::default());
    let m = outcome.metrics;

    assert_eq!(attr.total_steps(), m.engine_steps);
    // Attributed seconds cover the whole simulated span: the horizon
    // plus however much of the post-trace drain tail the buffer
    // sustained (bounded by the calibrated drain allowance).
    let horizon = m.total_time.get();
    assert!(
        attr.total_seconds() >= horizon * (1.0 - 1e-9),
        "attributed {} s < run {} s",
        attr.total_seconds(),
        horizon
    );
    assert!(
        attr.total_seconds() <= horizon + calib::MAX_DRAIN_TIME.get() + 1e-6,
        "attributed {} s overruns horizon {} s past the drain allowance",
        attr.total_seconds(),
        horizon
    );
    let regime_steps: u64 = Regime::ALL.iter().map(|&r| attr.regime_steps(r)).sum();
    let regime_seconds: f64 = Regime::ALL.iter().map(|&r| attr.regime_seconds(r)).sum();
    assert_eq!(regime_steps, attr.total_steps());
    assert!((regime_seconds - attr.total_seconds()).abs() <= 1e-9 * horizon.max(1.0));
    assert_eq!(attr.coarse_steps() + attr.fine_steps(), attr.total_steps());
    // The mixed cell genuinely exercises both step granularities.
    assert!(attr.coarse_steps() > 0, "no coarse strides attributed");
    assert!(attr.fine_steps() > 0, "no fine steps attributed");

    // The fixed-`dt` reference has no fast path: it never strides, and
    // every idle and sleep fine step is attributed to that. The stormy
    // cell only charges in its first 600 s; the plateau cell sleeps too.
    for (name, sleeps) in [("stormy-day-morphy-de", false), ("react-plateau-sc", true)] {
        let (_, fixed) = truncated(name, 600.0)
            .simulator()
            .with_kernel(KernelMode::FixedDt)
            .with_recorder(StepAttribution::default())
            .run_recorded();
        assert_eq!(
            fixed.coarse_steps(),
            0,
            "{name}: the fixed-dt kernel strode"
        );
        assert!(
            fixed.regime_steps(Regime::Idle) > 0,
            "{name}: no idle steps"
        );
        assert_eq!(
            fixed.regime_steps(Regime::Sleep) > 0,
            sleeps,
            "{name}: sleep steps"
        );
        for regime in [Regime::Idle, Regime::Sleep] {
            assert_eq!(
                fixed.bin(regime, Some(FallbackReason::FastPathOff)).steps,
                fixed.regime_steps(regime),
                "{name}: {} fine steps outside fast-path-off: {:?}",
                regime.label(),
                fixed.rows()
            );
        }
    }
}

/// A power model that emits NaN over a mid-run window (same shape as
/// the adversarial guard test): the guard's degraded fine steps must
/// land in the `nan-guard` attribution class.
#[derive(Clone, Debug)]
struct NanBurst {
    fault_start: Seconds,
    fault_end: Seconds,
    horizon: Seconds,
}

impl PowerSource for NanBurst {
    fn name(&self) -> &str {
        "nan-burst"
    }

    fn segment(&mut self, t: Seconds) -> Segment {
        if t < self.fault_start {
            Segment {
                power: Watts::from_milli(5.0),
                end: self.fault_start,
            }
        } else if t < self.fault_end {
            Segment {
                power: Watts::new(f64::NAN),
                end: self.fault_end,
            }
        } else {
            Segment {
                power: Watts::from_milli(5.0),
                end: self.horizon,
            }
        }
    }

    fn duration(&self) -> Option<Seconds> {
        Some(self.horizon)
    }

    fn clone_source(&self) -> Box<dyn PowerSource> {
        Box::new(self.clone())
    }
}

#[test]
fn nan_guard_fallbacks_are_attributed_to_the_nan_class() {
    let horizon = Seconds::new(120.0);
    let source = NanBurst {
        fault_start: Seconds::new(30.0),
        fault_end: Seconds::new(60.0),
        horizon,
    };
    let replay = PowerReplay::from_source(source, Converter::ideal());
    let workload = react_repro::core::WorkloadKind::SenseCompute.build_streaming(horizon, 7);
    let (outcome, attr) = Simulator::new(replay, BufferKind::React.build(), workload)
        .with_timestep(Seconds::new(0.001))
        .with_horizon(horizon)
        .with_gate(PowerGate::new(
            calib::ENABLE_VOLTAGE,
            calib::BROWNOUT_VOLTAGE,
        ))
        .with_recorder(StepAttribution::default())
        .run_recorded();
    let m = outcome.metrics;
    assert!(m.guard_fallbacks >= 1, "fault window must trip the guard");
    let nan_steps: u64 = Regime::ALL
        .iter()
        .map(|&r| attr.bin(r, Some(FallbackReason::NanGuard)).steps)
        .sum();
    assert!(
        nan_steps >= 1,
        "guarded fine steps must be classed nan-guard, got bins {:?}",
        attr.rows()
    );
    assert_eq!(attr.total_steps(), m.engine_steps);
}

/// The formerly attribution-named kernel hotspots must *stay*
/// collapsed: the near-threshold plateau used to park REACT on the
/// un-equalized-bank no-closed-form path (~15.7k steps/sim-hour) and
/// in the comparator guard band (~3.5k steps/sim-hour), and the stormy
/// commuter day kept Morphy's MCU-off idle fine-stepping across
/// transition boundaries (~445 steps/sim-hour). The staged
/// equalization solve, the LLB microstate-offset guard resolution, and
/// the idle dead-band bulk stride eliminated those sinks; the residual
/// rates are pinned here with headroom over the measured residuals but
/// far below the pre-collapse rates, so a kernel change that re-opens
/// a fallback path fails locally before the CI attribution gate runs.
#[test]
fn collapsed_kernel_hotspots_stay_collapsed() {
    let plateau = *find_scenario("react-plateau-sc").expect("registry scenario");
    let (_, plateau_attr) = plateau
        .with_buffer(BufferKind::React)
        .run_recorded(StepAttribution::default());
    let plateau_hours = plateau_attr.total_seconds() / 3600.0;
    // The whole cell collapses, whichever class a re-opened path would
    // book its steps in: measured 97× fewer steps than fixed `dt`,
    // ~1× with REACT's closed forms forced to refuse.
    let fixed_dt_steps = plateau_attr.total_seconds() / plateau.dt.get();
    assert!(
        plateau_attr.total_steps() as f64 * 20.0 < fixed_dt_steps,
        "plateau cell collapse below 20×: {} engine steps vs {fixed_dt_steps:.0} fixed-dt",
        plateau_attr.total_steps()
    );
    let rate = |steps: u64| steps as f64 / plateau_hours;
    let ncf = plateau_attr
        .bin(Regime::Sleep, Some(FallbackReason::NoClosedForm))
        .steps;
    assert!(
        rate(ncf) < 2500.0,
        "plateau no-closed-form re-opened: {:.0} steps/h (pre-collapse ~15.7k/h)",
        rate(ncf)
    );
    let guard = plateau_attr
        .bin(Regime::Sleep, Some(FallbackReason::GuardBand))
        .steps;
    assert!(
        rate(guard) < 704.0,
        "plateau guard-band re-opened: {:.0} steps/h (pre-collapse ~3.5k/h)",
        rate(guard)
    );
    // The residual slivers must still exist — both refusal paths guard
    // genuine comparator knife edges, and a zero count would mean the
    // guard itself stopped engaging.
    assert!(ncf > 0, "staged solve must still refuse residual cases");
    assert!(
        guard > 0,
        "guard band must still refuse the residual sliver"
    );

    let stormy = truncated("stormy-day-morphy-de", 21600.0);
    let (_, stormy_attr) = stormy
        .with_buffer(BufferKind::Morphy)
        .run_recorded(StepAttribution::default());
    let transition = stormy_attr
        .bin(Regime::Idle, Some(FallbackReason::TransitionDue))
        .steps;
    assert!(
        transition <= 50,
        "stormy Morphy idle transition-due re-opened: {transition} steps over 6 h \
         (pre-collapse ~445/h; the dead-band bulk stride should absorb these)"
    );

    // With the hotspots collapsed, neither class may qualify a hottest
    // cell in the sink table any more (both sit under its 500-step
    // qualification floor), and the idle transition row vanishes from
    // these two cells entirely.
    let cells = vec![
        CellAttribution {
            id: "react-plateau-sc/REACT/s0".into(),
            scenario: "react-plateau-sc".into(),
            buffer: "REACT".into(),
            seed: 0,
            attr: plateau_attr,
        },
        CellAttribution {
            id: "stormy-day-morphy-de/Morphy/s0".into(),
            scenario: "stormy-day-morphy-de".into(),
            buffer: "Morphy".into(),
            seed: 0,
            attr: stormy_attr,
        },
    ];
    let rendered = render_class_sinks(&cells).render();
    if let Some(guard_row) = rendered.lines().find(|l| l.contains("guard-band")) {
        assert!(
            !guard_row.contains("react-plateau-sc/REACT/s0"),
            "plateau cell should no longer qualify as the guard-band sink: {guard_row}"
        );
    }
}

/// The defended boot-strike cell's event stream must tell the whole
/// defense story — detection, backoff hold, release — and export as
/// parseable Chrome `trace_event` JSON. 10 ms steps keep the hour-long
/// cell affordable in debug builds (the detect-and-ramp transient
/// needs the full horizon, as in the adversarial suite).
#[test]
fn defended_attack_trace_exports_detection_and_backoff() {
    let mut s = *find_scenario("attack-bootstrike-hour-de-defended").expect("registry scenario");
    s.dt = Seconds::new(0.01);
    let (outcome, ring) = s.run_recorded(RingRecorder::default());
    assert!(outcome.metrics.detections >= 1, "defense must detect");
    let events: Vec<_> = ring.into_events();
    let has = |pred: fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    assert!(
        has(|k| matches!(k, EventKind::Detection)),
        "stream must carry the detection instant"
    );
    assert!(
        has(|k| matches!(k, EventKind::BackoffHold)),
        "stream must carry the backoff hold"
    );
    assert!(
        has(|k| matches!(k, EventKind::BackoffRelease)),
        "stream must carry the backoff release"
    );
    assert!(
        has(|k| matches!(k, EventKind::Boot)),
        "stream must carry boots"
    );

    let json = chrome_trace_json(&events, "attack-bootstrike-hour-de-defended/REACT/s0");
    let value: serde::Value = serde_json::from_str(&json).expect("trace JSON must parse");
    let text = serde_json::to_string(&value).expect("round-trip");
    assert!(text.contains("\"traceEvents\""), "Chrome trace envelope");
    assert!(text.contains("backoff"), "backoff spans must be exported");
    assert!(text.contains("detection"), "detections must be exported");
}

/// The fleet kernel's merged profile must equal the node-order merge
/// of independent scalar profiles (same contract as the aggregate
/// bit-identity test, extended to telemetry), whether driven directly
/// or through `run_fleet` with attribution on.
#[test]
fn fleet_attribution_matches_scalar_node_order_merge() {
    let mut base = *find_scenario("rf-sparse-week").expect("registry scenario");
    base.horizon = Seconds::new(1800.0);
    let mut spec = FleetSpec::new(base, 9, 42);
    spec.shard_size = 4;

    // Scalar reference, folded exactly as the fleet folds: node order
    // within each shard, shards in index order.
    let mut reference = StepAttribution::default();
    for shard in 0..spec.shard_count() {
        let (start, end) = spec.shard_range(shard);
        let mut shard_attr = StepAttribution::default();
        for i in start..end {
            let (_, attr) = spec
                .node_scenario(i)
                .run_recorded(StepAttribution::default());
            shard_attr.merge(&attr);
        }
        reference.merge(&shard_attr);
    }

    let result = run_fleet(
        &spec,
        &FleetRunOptions {
            attribution: true,
            ..Default::default()
        },
    )
    .expect("fleet run");
    let fleet_attr = result.attribution.expect("attribution requested");
    assert_eq!(fleet_attr, reference);
    assert!(fleet_attr.total_steps() > 0);
    // Attribution off stays off — the default-path contract.
    let plain = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
    assert!(plain.attribution.is_none());
    assert_eq!(plain.aggregate, result.aggregate);
}

/// The scenario-report plumbing carries one profile per healthy cell,
/// aligned with the report's cell order.
#[test]
fn attributed_report_covers_every_cell() {
    let mut scenarios = vec![truncated("react-plateau-sc", 900.0)];
    scenarios.push(truncated("rf-ge-hour-react-de", 120.0));
    let cells = expand_cells(&scenarios, &REPORT_BUFFERS[..2], &REPORT_SEEDS);
    let (report, profiles) = build_report(&cells, &|s: &Scenario| {
        s.run_recorded(StepAttribution::default())
    });
    assert!(report.poisoned.is_empty());
    assert_eq!(profiles.len(), report.cells.len());
    for (cell, profile) in report.cells.iter().zip(profiles) {
        let attr = CellAttribution::new(cell, profile);
        assert_eq!(cell.id(), attr.id);
        assert_eq!(
            attr.attr.total_steps(),
            cell.engine_steps,
            "{}: profile must match the reported step count",
            attr.id
        );
    }
}
