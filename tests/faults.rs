//! Fault-injection acceptance tests: the audited adaptive kernel must
//! track a fine-stepped reference on faulted cells, benign cells must
//! remain bit-identical with zero auditor trips, and an injected
//! capacitance fade must be detected within a bounded number of
//! committed strides.

use proptest::prelude::*;
use react_repro::buffers::BufferKind;
use react_repro::circuit::FaultPlan;
use react_repro::core::{find_scenario, AuditConfig, KernelMode, RunMetrics, Scenario};
use react_repro::telemetry::{EventKind, FallbackReason, Regime, RingRecorder, StrideKind};
use react_repro::units::Seconds;

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
