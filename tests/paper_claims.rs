//! The paper's qualitative claims, checked on reduced-scale runs.
//!
//! The full-scale tables and figures are regenerated and pinned value
//! for value by `report paper` (`react_bench::paper`, gated against
//! `ci/paper-baseline.json`); these tests pin the *shape* of each claim
//! so a regression that inverts a paper result fails CI.

use react_repro::buffers::{
    BufferKind, EnergyBuffer, MorphyBuffer, ReactBuffer, ReactConfig, StaticBuffer,
};
use react_repro::harvest::{Converter, PowerReplay};
use react_repro::prelude::*;

/// `buffer` × `workload` on a synthetic trace: a bare engine, no
/// scenario axis.
fn run_on(trace: &PowerTrace, buffer: BufferKind, workload: WorkloadKind) -> RunMetrics {
    let replay = PowerReplay::new(trace.clone(), Converter::ideal());
    let workload = workload.build_streaming(trace.duration(), 0);
    Simulator::new(replay, buffer.build(), workload)
        .run()
        .metrics
}

/// The [`Scenario::paper`] run on RF Cart, cut to its first `horizon_s`
/// seconds.
fn rf_cart_slice(buffer: BufferKind, workload: WorkloadKind, horizon_s: f64) -> RunMetrics {
    Scenario {
        horizon: Seconds::new(horizon_s),
        ..Scenario::paper(PaperTrace::RfCart, buffer, workload)
    }
    .run()
    .metrics
}

/// §5.2: from a cold start REACT charges like its last-level buffer —
/// latency within a whisker of the 770 µF static design and far below
/// the equal-capacity static buffer.
#[test]
fn react_latency_matches_small_static() {
    let latency = |kind: BufferKind| {
        rf_cart_slice(kind, WorkloadKind::DataEncryption, 120.0)
            .first_on_latency
            .expect("starts under cart power")
            .get()
    };
    let small = latency(BufferKind::Static770uF);
    let react = latency(BufferKind::React);
    let big = latency(BufferKind::Static17mF);
    assert!(
        (react - small).abs() / small < 0.15,
        "REACT latency {react} vs 770 µF {small}"
    );
    assert!(big > 3.0 * react, "17 mF latency {big} vs REACT {react}");
}

/// §5.3: a transient power spike overwhelms the small static buffer
/// (burned at the clamp) while REACT expands its banks to absorb it.
/// This is the volatility story — a *constant* surplus would eventually
/// fill any finite buffer.
#[test]
fn react_captures_surplus_the_small_buffer_clips() {
    // 10 s of modest power, a 5 s / 20 mW spike, then a long drought.
    let dt = Seconds::new(0.1);
    let mut samples = Vec::new();
    samples.extend(std::iter::repeat_n(Watts::from_milli(2.0), 100));
    samples.extend(std::iter::repeat_n(Watts::from_milli(20.0), 50));
    samples.extend(std::iter::repeat_n(Watts::from_micro(50.0), 600));
    let trace = PowerTrace::new("spike", dt, samples);
    let run = |kind: BufferKind| run_on(&trace, kind, WorkloadKind::SenseCompute);
    let small = run(BufferKind::Static770uF);
    let react = run(BufferKind::React);
    assert!(
        react.ledger.clipped.get() < 0.25 * small.ledger.clipped.get(),
        "small clipped {} mJ, REACT clipped {} mJ",
        small.ledger.clipped.to_milli(),
        react.ledger.clipped.to_milli()
    );
    // The captured energy funds more sensing through the drought.
    assert!(react.ops_completed >= small.ops_completed);
}

/// §5.4: the 770 µF buffer cannot complete an atomic radio burst from
/// stored energy — it wastes energy on doomed attempts — while REACT's
/// longevity guarantee eliminates failed bursts.
#[test]
fn longevity_guarantee_eliminates_doomed_bursts() {
    let run = |kind: BufferKind| {
        Scenario::paper(PaperTrace::RfCart, kind, WorkloadKind::RadioTransmit)
            .run()
            .metrics
    };
    let small = run(BufferKind::Static770uF);
    let react = run(BufferKind::React);
    assert!(
        small.ops_failed > 10,
        "expected many doomed static attempts, saw {}",
        small.ops_failed
    );
    assert!(
        react.ops_failed <= small.ops_failed / 10,
        "REACT failed {} vs static {}",
        react.ops_failed,
        small.ops_failed
    );
    assert!(react.ops_completed > small.ops_completed);
}

/// §2.1.2, Fig. 1: at night a small buffer reaches its turn-on voltage on
/// the trickle a large one never stores up, so it is on for more of the
/// night (paper: 1 mF 5.7 % vs 10 mF 3.3 %). Same runs as the paper
/// gate's `fig1/night/*` rows.
#[test]
fn small_buffer_outlasts_large_at_night() {
    let on_percent = |c_mf| {
        100.0
            * react_bench::paper::fig1_run(c_mf, PaperTrace::SolarNight, false)
                .metrics
                .duty_cycle()
    };
    let (small, large) = (on_percent(1.0), on_percent(10.0));
    assert!(
        small > large,
        "night on-time: 1 mF {small:.2} % vs 10 mF {large:.2} %"
    );
}

/// §3.3.1 + §5.5: Morphy's fully-connected fabric dissipates real energy
/// every reconfiguration; REACT's isolated banks reconfigure for free.
#[test]
fn morphy_pays_switching_losses_react_does_not() {
    let run = |kind: BufferKind| rf_cart_slice(kind, WorkloadKind::DataEncryption, 150.0);
    let morphy = run(BufferKind::Morphy);
    let react = run(BufferKind::React);
    assert!(
        morphy.ledger.switch_loss.get() > 0.0,
        "Morphy reconfigured without loss"
    );
    assert_eq!(react.ledger.switch_loss.get(), 0.0);
}

/// Eq. 1 / Eq. 2 consistency on the shipped Table 1 configuration.
#[test]
fn table1_configuration_respects_equations() {
    let config = ReactConfig::paper_prototype();
    assert_eq!(config.validate(), Ok(()));
    for bank in &config.banks {
        let v = config.eq1_post_boost_voltage(bank.unit.capacitance, bank.count);
        assert!(v <= config.v_high);
    }
}

/// §2.1.1: with the same charge profile, larger static buffers give
/// longer uninterrupted work periods (longevity) but slower charging
/// (reactivity).
#[test]
fn reactivity_longevity_tradeoff() {
    // Input low enough that the 1.5 mA active load cannot reach a
    // voltage equilibrium above brown-out (1.5 mW / 1.5 mA = 1 V), so
    // both systems genuinely duty-cycle.
    let trace = PowerTrace::constant(
        "steady",
        Watts::from_milli(1.5),
        Seconds::new(200.0),
        Seconds::new(0.1),
    );
    let run = |kind: BufferKind| run_on(&trace, kind, WorkloadKind::DataEncryption);
    let small = run(BufferKind::Static770uF);
    let big = run(BufferKind::Static10mF);
    let ls = small.first_on_latency.unwrap().get();
    let lb = big.first_on_latency.unwrap().get();
    assert!(lb > 5.0 * ls, "big latency {lb} vs small {ls}");
    assert!(big.max_on_period >= small.max_on_period);
}

/// §3.2: REACT's cold-start capacitance is exactly the last-level
/// buffer; banks join only after software acts.
#[test]
fn react_cold_start_is_llb_only() {
    let react = ReactBuffer::paper_prototype();
    assert!((react.equivalent_capacitance().to_micro() - 770.0).abs() < 1e-9);
    assert_eq!(react.capacitance_level(), 0);
}

/// Morphy's smallest ladder configuration is smaller than REACT's LLB —
/// which is why Table 4 shows Morphy enabling slightly sooner.
#[test]
fn morphy_min_config_smaller_than_llb() {
    let morphy = MorphyBuffer::paper_implementation();
    let react = ReactBuffer::paper_prototype();
    assert!(morphy.equivalent_capacitance() < react.equivalent_capacitance());
    // And a static buffer exposes exactly its capacitance.
    assert!(
        (StaticBuffer::static_17mf()
            .equivalent_capacitance()
            .to_milli()
            - 17.0)
            .abs()
            < 1e-9
    );
}

/// §5.1: REACT's software poller costs DE a small share of its
/// throughput on continuous power (paper: 1.8 % at 10 Hz).
#[test]
fn software_poller_costs_between_half_and_five_percent_of_de() {
    let with = react_bench::paper::overhead_de_ops(true) as f64;
    let without = react_bench::paper::overhead_de_ops(false) as f64;
    let penalty = 100.0 * (1.0 - with / without);
    assert!(
        penalty > 0.5 && penalty < 5.0,
        "software penalty {penalty}%"
    );
}

/// Fig. 6: under RF Mobile's bursts REACT expands beyond its 770 µF
/// last-level buffer.
#[test]
fn react_expands_beyond_its_llb_under_rf_mobile() {
    let run = react_bench::paper::fig6_run(BufferKind::React);
    let peak = react_bench::paper::peak_capacitance(&run);
    assert!(peak > 770e-6, "REACT peak capacitance {peak} F");
}
