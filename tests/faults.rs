//! Fault-injection acceptance tests: the audited adaptive kernel must
//! track a fine-stepped reference on faulted cells, benign cells must
//! remain bit-identical with zero auditor trips, an injected
//! capacitance fade must be detected within a bounded number of
//! committed strides, and no campaign may run a workload step at or
//! below brown-out.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use react_repro::buffers::BufferKind;
use react_repro::circuit::{FaultCampaign, FaultPlan};
use react_repro::core::{
    calib, find_scenario, AuditConfig, KernelMode, RunMetrics, Scenario, Simulator,
};
use react_repro::harvest::PowerReplay;
use react_repro::telemetry::{EventKind, FallbackReason, Regime, RingRecorder, StrideKind};
use react_repro::units::Seconds;
use react_repro::workloads::{LoadDemand, WakeHint, Workload, WorkloadEnv};

/// Same buffer matrix the kernel-equivalence suite pins.
const MATRIX_BUFFERS: [BufferKind; 5] = [
    BufferKind::Static770uF,
    BufferKind::Static10mF,
    BufferKind::React,
    BufferKind::Morphy,
    BufferKind::Dewdrop,
];

/// A truncated copy of a registry scenario (full horizons belong to
/// the release-build report, not debug-build tests).
fn truncated(name: &str, horizon_s: f64) -> Scenario {
    let mut s = *find_scenario(name).expect("registry scenario");
    s.horizon = s.horizon.min(Seconds::new(horizon_s));
    s
}

fn rel_close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + abs
}

/// The acceptance pin: under a capacitance-fade + comparator-offset
/// campaign, the audited adaptive kernel (which degrades the faulted
/// regime to fine-stepping once the auditor trips) must stay within
/// the kernel-equivalence tolerances of a fine-stepped reference run
/// over the *same* fault plan.
#[test]
fn audited_adaptive_tracks_fine_stepped_reference_under_fade_offset() {
    let s = truncated("fault-fade-offset-hour-10mf-de-audited", 1800.0);
    let reference = s.run_with_kernel(KernelMode::FixedDt).metrics;
    let audited = s.run_with_kernel(KernelMode::Adaptive).metrics;

    // The campaign fired identically on both kernels: fade at 25 % of
    // the horizon, comparator offset at 50 %.
    assert_eq!(reference.faults_injected, 2);
    assert_eq!(audited.faults_injected, 2);
    // Only the adaptive kernel commits closed-form strides, so only it
    // cross-checks them — and the fade must trip the ledger check.
    assert!(audited.audit_checks > 0, "no strides were audited");
    assert!(audited.audit_trips >= 1, "fade escaped the auditor");

    let r_ops = reference.ops_completed as f64;
    let a_ops = audited.ops_completed as f64;
    assert!(
        rel_close(r_ops, a_ops, 0.02, 2.0),
        "ops diverged under faults: reference {r_ops} vs audited {a_ops}"
    );
    let boot_tol = 2u64.max(reference.boots / 50);
    assert!(
        reference.boots.abs_diff(audited.boots) <= boot_tol,
        "boots diverged: reference {} vs audited {}",
        reference.boots,
        audited.boots
    );
    assert!(
        rel_close(reference.on_time.get(), audited.on_time.get(), 0.02, 0.05),
        "on-time diverged: reference {} vs audited {}",
        reference.on_time.get(),
        audited.on_time.get()
    );
    // Both kernels book the *actual* (faulted) physics on fine steps,
    // and the auditor bounds how long mis-specced strides can run, so
    // conservation stays honest on both sides.
    assert!(
        reference.relative_conservation_error() < 1e-3,
        "reference conservation error {}",
        reference.relative_conservation_error()
    );
    assert!(
        audited.relative_conservation_error() < 1e-2,
        "audited conservation error {}",
        audited.relative_conservation_error()
    );
}

/// An injected capacitance fade must trip the auditor within a bounded
/// number of committed strides: the audited kernel clamps strides to
/// `max_stride`, so detection lands within a few stride-lengths of the
/// injection, never an open-ended drift.
#[test]
fn capacitance_fade_detected_within_bounded_strides() {
    let s = truncated("fault-fade-offset-hour-10mf-de-audited", 1800.0);
    let (out, ring) = s.run_recorded(RingRecorder::default());
    assert!(out.metrics.audit_trips >= 1, "fade escaped the auditor");

    let events = ring.into_events();
    let fade_t = events
        .iter()
        .find(
            |e| matches!(e.kind, EventKind::FaultInjected { label } if label == "capacitance-fade"),
        )
        .map(|e| e.t)
        .expect("capacitance fade was injected");
    let trip_t = events
        .iter()
        .find(|e| e.t >= fade_t && matches!(e.kind, EventKind::AuditTrip { .. }))
        .map(|e| e.t)
        .expect("no audit trip after the fade");

    // Detection latency is bounded by the audited stride clamp: the
    // residual shows up on the first committed closed-form stride that
    // spends the stale believed capacitance. Allow a handful of
    // clamped strides for regimes that fine-step across the injection.
    let max_stride = AuditConfig::default().max_stride.get();
    assert!(
        trip_t - fade_t <= 4.0 * max_stride,
        "detection too slow: fade at {fade_t:.1} s, trip at {trip_t:.1} s \
         (budget {} s)",
        4.0 * max_stride
    );

    // A tripped regime stays degraded: after the first idle trip no
    // idle stride commits again, and every later idle fine span is
    // attributed to the degradation.
    let after_idle_trip = events
        .iter()
        .skip_while(|e| {
            !matches!(
                e.kind,
                EventKind::AuditTrip {
                    regime: Regime::Idle
                }
            )
        })
        .skip(1);
    let mut degraded_spans = 0;
    for e in after_idle_trip {
        match e.kind {
            EventKind::CoarseStride {
                kind: StrideKind::Idle,
            } => panic!("idle stride at {:.3} s after the idle regime tripped", e.t),
            EventKind::FineSpan {
                regime: Regime::Idle,
                reason,
                ..
            } => {
                assert_eq!(
                    reason,
                    FallbackReason::AuditDegraded,
                    "idle fine span at {:.3} s after the trip",
                    e.t
                );
                degraded_spans += 1;
            }
            _ => {}
        }
    }
    assert!(degraded_spans > 0, "no idle fine span after the idle trip");
}

/// Benign cells must be bit-identical to pre-fault-era runs: arming an
/// *empty* fault plan (the only thing the fault seam adds to a benign
/// run) changes nothing, down to the last stored-energy bit.
#[test]
fn benign_cells_bit_identical_with_empty_fault_plan() {
    let s = truncated("rf-ge-hour-10mf-de", 1200.0);
    let plain = s.run().metrics;
    let seamed = s.simulator().with_faults(FaultPlan::empty()).run().metrics;
    assert_bit_identical("empty fault plan", &plain, &seamed);
    assert_eq!(plain.faults_injected, 0);
    assert_eq!(plain.audit_checks, 0);
    assert_eq!(plain.audit_trips, 0);
}

/// The fields the fault seam could plausibly perturb, compared
/// bit-for-bit (floats via `to_bits`, so even a ULP of drift fails).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Benign audited runs across the kernel-equivalence buffer matrix
    /// never trip the auditor: every committed stride cross-checks
    /// clean when the hardware matches its believed spec.
    #[test]
    fn benign_matrix_never_trips_auditor(
        salt in 0u64..1000,
        which in 0usize..MATRIX_BUFFERS.len(),
    ) {
        let mut s = truncated("rf-ge-hour-10mf-de", 600.0)
            .with_buffer(MATRIX_BUFFERS[which])
            .with_seed_salt(salt);
        s.audited = true;
        let m = s.run().metrics;
        prop_assert!(m.audit_checks > 0, "{}: no strides audited", MATRIX_BUFFERS[which].label());
        prop_assert_eq!(m.audit_trips, 0);
        prop_assert_eq!(m.faults_injected, 0);
    }
}

/// The auditor covers the active regime: under the fade campaign an
/// active stride books the stale believed capacitance, the auditor trips
/// on it and degrades only the active fast path, and every later active
/// step is fine-stepped and attributed to the degradation.
#[test]
fn fade_trips_and_degrades_the_active_regime() {
    let s = truncated("fault-fade-offset-hour-10mf-de-audited", 1800.0);
    let (out, ring) = s.run_recorded(RingRecorder::default());
    let events = ring.into_events();
    let active_strides = |from: usize| {
        events[from..]
            .iter()
            .filter(|e| {
                e.kind
                    == EventKind::CoarseStride {
                        kind: StrideKind::Active,
                    }
            })
            .count()
    };
    assert!(active_strides(0) > 0, "DE took no active stride");
    let trip = events
        .iter()
        .position(|e| {
            e.kind
                == EventKind::AuditTrip {
                    regime: Regime::Active,
                }
        })
        .expect("the fade never tripped the active regime");
    assert!(out.metrics.audit_trips >= 1);
    assert_eq!(active_strides(trip), 0, "an active stride after the trip");
    let mut degraded_spans = 0;
    for e in &events[trip..] {
        if let EventKind::FineSpan {
            regime: Regime::Active,
            reason,
            ..
        } = e.kind
        {
            assert_eq!(reason, FallbackReason::AuditDegraded, "at {:.3} s", e.t);
            degraded_spans += 1;
        }
    }
    assert!(degraded_spans > 0, "no active fine span after the trip");
}

/// Every fault campaign, healthy included.
const CAMPAIGNS: [FaultCampaign; 5] = [
    FaultCampaign::None,
    FaultCampaign::FadeOffset,
    FaultCampaign::Derate,
    FaultCampaign::StuckClosed,
    FaultCampaign::Drift,
];

/// Wraps a workload and records the lowest rail voltage any of its
/// steps ran at. An op can only complete inside a step, so this also
/// bounds the rail of every completed op.
struct LowestStepRail {
    inner: Box<dyn Workload>,
    lowest: Rc<Cell<f64>>,
}

impl Workload for LowestStepRail {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_power_up(&mut self, now: Seconds) {
        self.inner.on_power_up(now);
    }
    fn on_power_down(&mut self, now: Seconds) {
        self.inner.on_power_down(now);
    }
    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        self.lowest
            .set(self.lowest.get().min(env.rail_voltage.get()));
        self.inner.step(env)
    }
    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        self.inner.next_wake(env)
    }
    fn finalize(&mut self, now: Seconds) {
        self.inner.finalize(now);
    }
    fn ops_completed(&self) -> u64 {
        self.inner.ops_completed()
    }
    fn ops_failed(&self) -> u64 {
        self.inner.ops_failed()
    }
    fn aux_completed(&self) -> u64 {
        self.inner.aux_completed()
    }
    fn events_missed(&self) -> u64 {
        self.inner.events_missed()
    }
}

/// Runs `s` under `kernel` the way [`Scenario::simulator`] builds it,
/// with its workload wrapped, and returns the run's ops and the lowest
/// rail voltage any workload step saw.
fn ops_and_lowest_step_rail(s: &Scenario, kernel: KernelMode) -> (u64, f64) {
    let lowest = Rc::new(Cell::new(f64::INFINITY));
    let workload = LowestStepRail {
        inner: s.workload.build_streaming(s.horizon, s.workload_seed()),
        lowest: Rc::clone(&lowest),
    };
    let replay = PowerReplay::from_source(s.source(), s.converter.build());
    let out = Simulator::new(replay, s.buffer.build(), workload)
        .with_timestep(s.dt)
        .with_horizon(s.horizon)
        .with_gate(s.gate())
        .with_kernel(kernel)
        .with_faults(s.fault.plan(s.fault_seed(), s.horizon))
        .run();
    (out.metrics.ops_completed, lowest.get())
}

/// An MCU cannot execute below brown-out, whatever the power gate
/// does: under every fault campaign and in both kernels, no workload
/// step runs (and so no op completes) with the rail at or below
/// `BROWNOUT_VOLTAGE`. A welded switch keeps the load connected, so
/// only the MCU's own brown-out reset can hold this.
fn assert_no_step_at_or_below_brownout(buffer: BufferKind) {
    let brownout = calib::BROWNOUT_VOLTAGE.get();
    for campaign in CAMPAIGNS {
        let mut s = truncated("rf-ge-hour-10mf-de", 600.0).with_buffer(buffer);
        s.fault = campaign;
        for kernel in [KernelMode::Adaptive, KernelMode::FixedDt] {
            let (ops, lowest) = ops_and_lowest_step_rail(&s, kernel);
            let label = format!("{} / {} / {kernel:?}", buffer.label(), campaign.label());
            assert!(ops > 0, "{label}: no op completed");
            assert!(
                lowest > brownout,
                "{label}: a workload step ran at {lowest} V, at or below brown-out ({brownout} V)"
            );
        }
    }
}

#[test]
fn no_step_below_brownout_on_static_10mf() {
    assert_no_step_at_or_below_brownout(BufferKind::Static10mF);
}

#[test]
fn no_step_below_brownout_on_react() {
    assert_no_step_at_or_below_brownout(BufferKind::React);
}

#[test]
fn no_step_below_brownout_on_morphy() {
    assert_no_step_at_or_below_brownout(BufferKind::Morphy);
}

/// A welded switch leaves the MCU to boot-loop at brown-out: it resets
/// there and boots the moment the rail rises past it. The adaptive
/// kernel carries the dark spans between boots in idle strides, and the
/// run ends at the first reset past the horizon. Fine-stepping a 0 V
/// rail to the hard cap took 9,303,640 engine steps on this cell. Both
/// kernels agree on the loop within the kernel-equivalence tolerances.
#[test]
fn welded_switch_boot_loops_at_brownout_and_kernels_agree() {
    let s = *find_scenario("fault-stuck-closed-hour-10mf-de").expect("registry scenario");
    let a = s.run_with_kernel(KernelMode::Adaptive).metrics;
    assert_eq!(a.engine_steps, 29_701, "adaptive engine steps");
    assert!(a.boots > 1_000, "no boot loop: {} boots", a.boots);

    let r = s.run_with_kernel(KernelMode::FixedDt).metrics;
    assert!(
        rel_close(r.ops_completed as f64, a.ops_completed as f64, 0.02, 2.0),
        "ops: reference {} vs adaptive {}",
        r.ops_completed,
        a.ops_completed
    );
    assert!(
        r.boots.abs_diff(a.boots) <= 2u64.max(r.boots / 50),
        "boots: reference {} vs adaptive {}",
        r.boots,
        a.boots
    );
    assert!(
        rel_close(r.on_time.get(), a.on_time.get(), 0.02, 0.05),
        "on-time: reference {} vs adaptive {}",
        r.on_time.get(),
        a.on_time.get()
    );
}
