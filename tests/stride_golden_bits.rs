//! Bit-exact pins of the controller buffers' closed-form strides.
//!
//! Morphy's and REACT's `idle_advance`/`powered_advance` walk the week
//! one 10 Hz controller poll at a time; every segment replays the poll
//! accumulator, solves the charge ODE in closed form and commits the
//! network and the energy books. These tests drive forced states through
//! the public stride API and pin, by `to_bits`, what a stride returns
//! and leaves behind: the advanced time, the rail voltage and every
//! `EnergyLedger` field, plus the ladder/bank level and the
//! reconfiguration count. A refactor of the walk that is meant to be
//! outcome-neutral must leave every pin unchanged; the perfbench digest
//! folds only end-of-run metrics, so a last-ULP drift in the books
//! would pass it.
//!
//! Each case runs two strides, so the poll phase and cooldown one stride
//! leaves behind shape the segments of the next.
//!
//! The fine-step cases pin the same state after runs of `step` from
//! forced states: the network and bank bookkeeping of a fine step is
//! meant to move only when outcomes are meant to move.

use react_repro::buffers::{EnergyBuffer, MorphyBuffer, ReactBuffer, StaticBuffer};
use react_repro::circuit::BankMode;
use react_repro::telemetry::FallbackReason;
use react_repro::units::{Amps, Seconds, Volts, Watts};

const DT: f64 = 1e-3;

/// One stride's pins: advanced time, rail, the eight ledger fields,
/// capacitance level and reconfiguration count.
fn pins(buffer: &dyn EnergyBuffer, advanced: Option<Seconds>) -> Vec<u64> {
    let l = buffer.ledger();
    let mut out = vec![advanced.map_or(u64::MAX, |a| a.get().to_bits())];
    out.extend(
        [
            buffer.rail_voltage(),
            Volts::new(l.harvested.get()),
            Volts::new(l.delivered.get()),
            Volts::new(l.clipped.get()),
            Volts::new(l.leaked.get()),
            Volts::new(l.diode_loss.get()),
            Volts::new(l.switch_loss.get()),
            Volts::new(l.load_consumed.get()),
            Volts::new(l.overhead_consumed.get()),
        ]
        .map(|v| v.get().to_bits()),
    );
    out.push(u64::from(buffer.capacitance_level()));
    out.push(buffer.reconfiguration_count());
    out
}

fn morphy(level: usize, v: f64) -> MorphyBuffer {
    let mut m = MorphyBuffer::paper_implementation();
    m.force_state(level, Volts::new(v));
    m
}

fn idle(b: &mut dyn EnergyBuffer, input_w: f64, seconds: f64, v_stop: f64) -> Vec<u64> {
    let adv = b.idle_advance(
        Watts::new(input_w),
        Seconds::new(seconds),
        Volts::new(v_stop),
        Seconds::new(DT),
    );
    pins(b, Some(adv))
}

fn powered(
    b: &mut dyn EnergyBuffer,
    input_w: f64,
    load_a: f64,
    seconds: f64,
    v_stop: f64,
    v_wake: Option<f64>,
) -> Vec<u64> {
    let adv = b.powered_advance(
        Watts::new(input_w),
        Amps::new(load_a),
        Seconds::new(seconds),
        Volts::new(v_stop),
        v_wake.map(Volts::new),
        Seconds::new(DT),
    );
    pins(b, adv)
}

fn check(label: &str, got: &[Vec<u64>], want: &[&[u64]]) {
    let got_hex: Vec<Vec<String>> = got
        .iter()
        .map(|s| s.iter().map(|b| format!("{b:#018x}")).collect())
        .collect();
    assert_eq!(got.len(), want.len(), "{label}: stride count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.as_slice(),
            *w,
            "{label}: stride {i} pins moved; now {:?}",
            got_hex[i]
        );
    }
}

/// Morphy idle at ladder level 0, dark, below the comparator band: every
/// poll reads "low" at the bottom of the ladder and does nothing. The
/// horizons end mid-step and mid-period.
#[test]
fn morphy_idle_dark_below_band_at_level_0() {
    let mut m = morphy(0, 1.0);
    let got = [
        idle(&mut m, 0.0, 12.3456, 3.3),
        idle(&mut m, 2.0e-6, 7.77, 3.3),
    ];
    check("morphy idle level 0", &got, MORPHY_IDLE_LEVEL0);
}

/// Morphy powered at the top of the ladder, pinned on the rail clamp by
/// a strong harvest: polls read "high" but there is no level to climb.
#[test]
fn morphy_powered_on_the_clamp_at_the_top() {
    let mut m = morphy(10, 3.6);
    let got = [
        powered(&mut m, 0.05, 2.0e-6, 5.0, 1.8, None),
        powered(&mut m, 0.05, 2.0e-6, 1.2345, 1.8, None),
    ];
    check("morphy powered top", &got, MORPHY_POWERED_TOP);
}

/// A ladder move starts the 0.3 s cooldown; the segments right after it
/// drain the cooldown while polls are suppressed, then the controller
/// boosts back down below `v_low`.
#[test]
fn morphy_cooldown_after_a_reconfigure() {
    let mut m = morphy(0, 1.5);
    assert!(m.defensive_reconfigure());
    let mut got = vec![idle(&mut m, 0.0, 1.05, 3.3)];
    let mut p = morphy(5, 2.5);
    assert!(p.defensive_reconfigure());
    got.push(powered(&mut p, 1.0e-4, 5.0e-6, 0.75, 1.0, None));
    got.push(powered(&mut p, 1.0e-4, 5.0e-6, 2.0, 1.0, None));
    check("morphy cooldown", &got, MORPHY_COOLDOWN);
}

/// Strides that stop mid-segment: idle at `v_stop`, powered at the
/// brown-out `v_stop` and at the wake voltage.
#[test]
fn morphy_stops_mid_segment() {
    let mut a = morphy(0, 1.0);
    let mut b = morphy(0, 1.85);
    let mut c = morphy(0, 1.5);
    let got = [
        idle(&mut a, 1.0e-3, 3.0, 1.5),
        powered(&mut b, 0.0, 1.0e-3, 3.0, 1.8, None),
        powered(&mut c, 1.0e-3, 1.0e-5, 3.0, 1.0, Some(1.7)),
    ];
    check("morphy mid-segment stop", &got, MORPHY_MID_SEGMENT);
}

/// Morphy's comparator dead band in bulk: the accumulator is replayed in
/// closed form and the next stride's polls land on its phase.
#[test]
fn morphy_dead_band_bulk_then_polls() {
    let mut m = morphy(4, 2.6);
    let mut p = morphy(6, 2.4);
    let got = [
        idle(&mut m, 2.0e-5, 100.05, 3.3),
        idle(&mut m, 2.0e-5, 0.437, 3.3),
        powered(&mut p, 0.0, 3.0e-6, 80.0, 1.8, None),
        powered(&mut p, 0.0, 3.0e-6, 0.5, 1.8, None),
    ];
    check("morphy dead band", &got, MORPHY_DEAD_BAND);
}

/// REACT's equalized walk: rising through `v_high` with only the LLB
/// (the poll connects a bank and hands back), then an equalized pack
/// falling through `v_low` (the poll boosts a bank), then the dead band
/// in bulk.
#[test]
fn react_equalized_walk_through_reconfiguring_polls() {
    let mut up = ReactBuffer::paper_prototype();
    up.set_llb_voltage(Volts::new(3.3));
    let mut down = ReactBuffer::paper_prototype();
    down.set_llb_voltage(Volts::new(2.0));
    down.force_bank_state(0, Volts::new(2.0), BankMode::Parallel);
    down.force_bank_state(1, Volts::new(2.0 / 3.0), BankMode::Series);
    let mut band = ReactBuffer::paper_prototype();
    band.set_llb_voltage(Volts::new(2.7));
    band.force_bank_state(0, Volts::new(0.9), BankMode::Series);
    let got = [
        powered(&mut up, 5.0e-3, 1.0e-6, 4.0, 1.8, None),
        powered(&mut up, 5.0e-3, 1.0e-6, 0.3, 1.8, None),
        powered(&mut down, 0.0, 2.0e-3, 4.0, 1.2, None),
        powered(&mut down, 0.0, 2.0e-3, 0.25, 1.2, None),
        powered(&mut band, 2.0e-5, 4.0e-6, 45.5, 1.8, Some(3.45)),
        powered(&mut band, 2.0e-5, 4.0e-6, 0.333, 1.8, Some(3.45)),
    ];
    check("react equalized", &got, REACT_EQUALIZED);
}

/// Disconnected REACT banks holding charge leak on their own
/// exponentials through every committed span, the supercap bank at a
/// different rate than the ceramics.
#[test]
fn react_disconnected_banks_leak_through_the_walk() {
    let mut r = ReactBuffer::paper_prototype();
    r.set_llb_voltage(Volts::new(2.6));
    r.force_bank_state(0, Volts::new(2.6), BankMode::Parallel);
    r.force_bank_state(2, Volts::new(1.0), BankMode::Disconnected);
    r.force_bank_state(3, Volts::new(0.8), BankMode::Disconnected);
    r.force_bank_state(4, Volts::new(1.2), BankMode::Disconnected);
    let got = [
        powered(&mut r, 1.0e-5, 2.0e-6, 30.0, 1.8, None),
        powered(&mut r, 1.0e-5, 2.0e-6, 0.55, 1.8, None),
    ];
    check("react disconnected leak", &got, REACT_DISCONNECTED);
}

/// REACT's staged path: an equalized parallel pack plus a freshly
/// connected low series bank under micro-power intake.
#[test]
fn react_staged_walk() {
    let mut r = ReactBuffer::paper_prototype();
    r.set_llb_voltage(Volts::new(2.8));
    r.force_bank_state(0, Volts::new(2.8), BankMode::Parallel);
    r.force_bank_state(1, Volts::new(0.3), BankMode::Series);
    let mut near = ReactBuffer::paper_prototype();
    near.set_llb_voltage(Volts::new(1.95));
    near.force_bank_state(0, Volts::new(1.95), BankMode::Parallel);
    near.force_bank_state(1, Volts::new(0.1), BankMode::Series);
    let got = [
        powered(&mut r, 1.0e-4, 5.0e-5, 8.0, 1.2, None),
        powered(&mut r, 1.0e-4, 5.0e-5, 0.45, 1.2, None),
        powered(&mut near, 5.0e-5, 3.0e-4, 6.0, 1.2, None),
    ];
    check("react staged", &got, REACT_STAGED);
}

/// Morphy's idle walk does not hand back at a ladder move: a dark
/// mid-ladder network leaks down through `v_low`, the poll steps it down
/// a level (boosting the terminal back into the band), and the same
/// stride walks on from the re-read network.
#[test]
fn morphy_idle_walks_on_through_a_ladder_move() {
    let mut m = morphy(2, 1.93);
    let got = [idle(&mut m, 0.0, 600.0, 3.3), idle(&mut m, 0.0, 0.5, 3.3)];
    assert_eq!(got[0][0], 600.0_f64.to_bits(), "the walk went on");
    assert!(m.reconfiguration_count() > 0);
    check("morphy idle ladder move", &got, MORPHY_IDLE_LADDER_MOVE);
}

/// A dead-band stride right after a ladder move drains the cooldown it
/// covers: the load pulls the terminal out of the band and through
/// `v_low`, and the first poll there may step the ladder down again.
#[test]
fn morphy_band_stride_drains_the_cooldown() {
    let mut m = morphy(3, 2.4);
    assert!(m.defensive_reconfigure());
    let got = [
        powered(&mut m, 0.0, 5.0e-4, 3.0, 1.0, None),
        powered(&mut m, 0.0, 5.0e-4, 3.0, 1.0, None),
    ];
    check("morphy band cooldown", &got, MORPHY_BAND_COOLDOWN);
}

/// REACT's staged walk until the charging front meets the falling pack:
/// the met output diode conducts, and the rest of the stride re-enters
/// `powered_advance` from the re-partitioned (equalized) state.
#[test]
fn react_staged_walk_couples_and_re_enters() {
    let mut r = ReactBuffer::paper_prototype();
    r.set_llb_voltage(Volts::new(2.6));
    r.force_bank_state(0, Volts::new(2.6), BankMode::Parallel);
    r.force_bank_state(1, Volts::new(2.55 / 3.0), BankMode::Series);
    let got = [
        powered(&mut r, 1.0e-4, 5.0e-5, 10.0, 1.2, None),
        powered(&mut r, 1.0e-4, 5.0e-5, 0.35, 1.2, None),
    ];
    assert_eq!(got[0][0], 10.0_f64.to_bits(), "the re-entered walk ran on");
    check("react staged coupling", &got, REACT_STAGED_COUPLING);
}

/// A slow climb through `v_high`: a mid-stride poll lands inside the
/// residual guard band, so the stride commits what it walked and stops
/// short; the next stride's first poll lands there again and is refused
/// outright (`None`, `GuardBand`). The staged walk does the same on a
/// pack falling slowly through `v_low` behind a dark low bank.
#[test]
fn react_guard_band_refuses_after_a_partial_advance() {
    let mut up = ReactBuffer::paper_prototype();
    up.set_llb_voltage(Volts::new(3.47));
    up.force_bank_state(0, Volts::new(3.47), BankMode::Parallel);
    let mut down = ReactBuffer::paper_prototype();
    down.set_llb_voltage(Volts::new(1.95));
    down.force_bank_state(0, Volts::new(1.95), BankMode::Parallel);
    down.force_bank_state(1, Volts::new(0.1), BankMode::Series);
    let mut got = Vec::new();
    let mut reasons = Vec::new();
    for (b, input, load) in [(&mut up, 2.0e-4, 1.0e-6), (&mut down, 0.0, 2.0e-5)] {
        for _ in 0..2 {
            got.push(powered(b, input, load, 10.0, 1.2, None));
            reasons.push(b.take_fallback());
        }
    }
    let guard = Some(FallbackReason::GuardBand);
    assert_eq!(reasons, [None, guard, None, guard]);
    check("react guard band", &got, REACT_GUARD_PARTIAL);
}

/// The reason each walk records for a stride it refuses outright, read
/// through `take_fallback`: a stop already due (`TransitionDue`), a
/// closed form that declines (`NoClosedForm`, here an infinite intake).
/// Morphy's idle stride records none.
#[test]
fn refused_strides_record_their_reason() {
    use FallbackReason::{NoClosedForm, TransitionDue};
    let mut got = Vec::new();
    let mut reasons = Vec::new();
    let mut m = morphy(3, 2.5);
    got.push(idle(&mut m, 0.0, 1.0, 2.4));
    reasons.push(m.take_fallback());
    got.push(powered(&mut m, 0.0, 1.0e-5, 1.0, 2.6, None));
    reasons.push(m.take_fallback());
    got.push(powered(&mut m, f64::INFINITY, 1.0e-5, 1.0, 1.8, None));
    reasons.push(m.take_fallback());
    let mut eq = ReactBuffer::paper_prototype();
    eq.set_llb_voltage(Volts::new(2.5));
    eq.force_bank_state(0, Volts::new(2.5), BankMode::Parallel);
    got.push(powered(&mut eq, 0.0, 1.0e-5, 1.0, 1.8, Some(2.4)));
    reasons.push(eq.take_fallback());
    got.push(powered(&mut eq, f64::INFINITY, 1.0e-5, 1.0, 1.8, None));
    reasons.push(eq.take_fallback());
    let mut staged = ReactBuffer::paper_prototype();
    staged.set_llb_voltage(Volts::new(2.5));
    staged.force_bank_state(0, Volts::new(2.5), BankMode::Parallel);
    staged.force_bank_state(1, Volts::new(0.2), BankMode::Series);
    got.push(powered(&mut staged, 1.0e-5, 1.0e-5, 1.0, 2.6, None));
    reasons.push(staged.take_fallback());
    got.push(powered(&mut staged, 1.0e-3, 1.0e-5, 1.0, 1.8, None));
    reasons.push(staged.take_fallback());
    assert_eq!(
        reasons,
        [
            None,
            Some(TransitionDue),
            Some(NoClosedForm),
            Some(TransitionDue),
            Some(NoClosedForm),
            Some(TransitionDue),
            Some(NoClosedForm),
        ]
    );
    check("refused strides", &got, REFUSED);
}

/// Runs `n` fine steps at constant input and load, then pins the state
/// (the advanced-time slot is `u64::MAX`: a fine step has no stride).
fn fine(
    b: &mut dyn EnergyBuffer,
    input_w: f64,
    load_a: f64,
    n: usize,
    mcu_running: bool,
) -> Vec<u64> {
    for _ in 0..n {
        b.step(
            Watts::new(input_w),
            Amps::new(load_a),
            Seconds::new(DT),
            mcu_running,
        );
    }
    pins(b, None)
}

/// Morphy's fine steps at both ends of the ladder: level 0 charging
/// under a load and then draining dark; level 10 driven onto the rail
/// clamp, then drawn down through `v_low` so the controller steps down.
#[test]
fn morphy_fine_steps_at_level_0_and_10() {
    let mut low = morphy(0, 1.0);
    let mut top = morphy(10, 3.0);
    let got = [
        fine(&mut low, 1.0e-3, 2.0e-4, 700, true),
        fine(&mut low, 0.0, 1.0e-3, 300, true),
        fine(&mut top, 0.05, 1.0e-3, 1500, true),
        fine(&mut top, 0.0, 0.2, 900, true),
    ];
    check("morphy fine levels", &got, MORPHY_FINE_LEVELS);
}

/// Morphy fine-stepping a mid-ladder partition right after a reconfigure
/// whose chains sit at different terminal voltages: the fabric
/// equalizes them on the first step (switch loss) and the within-chain
/// imbalance leaks off.
#[test]
fn morphy_fine_steps_unbalanced_after_reconfigure() {
    let mut m = morphy(3, 2.5);
    assert!(m.defensive_reconfigure());
    m.set_all_voltages(Volts::new(0.7));
    let got = [
        fine(&mut m, 0.0, 0.0, 1, true),
        fine(&mut m, 2.0e-3, 5.0e-4, 450, true),
        fine(&mut m, 0.0, 5.0e-4, 450, false),
    ];
    check("morphy fine unbalanced", &got, MORPHY_FINE_UNBALANCED);
}

/// A capacitance fade mid-run: Morphy does not model the drift, so its
/// fine steps carry on from an untouched network.
#[test]
fn morphy_fine_steps_through_a_capacitance_fade() {
    use react_repro::circuit::FaultKind;
    let mut m = morphy(5, 2.2);
    let mut got = vec![fine(&mut m, 1.0e-3, 3.0e-4, 400, true)];
    assert!(!m.apply_fault(FaultKind::CapacitanceFade { factor: 0.7 }));
    got.push(fine(&mut m, 1.0e-3, 3.0e-4, 400, true));
    check("morphy fine fade", &got, MORPHY_FINE_FADE);
}

/// REACT fine steps with disconnected banks holding charge: each leaks
/// on its own while the LLB and a connected parallel bank carry the
/// load; then the MCU drops and every switch opens.
#[test]
fn react_fine_steps_with_disconnected_banks_leaking() {
    let mut r = ReactBuffer::paper_prototype();
    r.set_llb_voltage(Volts::new(2.6));
    r.force_bank_state(0, Volts::new(2.6), BankMode::Parallel);
    r.force_bank_state(2, Volts::new(1.0), BankMode::Disconnected);
    r.force_bank_state(3, Volts::new(0.8), BankMode::Disconnected);
    r.force_bank_state(4, Volts::new(1.2), BankMode::Disconnected);
    let got = [
        fine(&mut r, 1.0e-5, 2.0e-6, 600, true),
        fine(&mut r, 1.0e-5, 0.0, 400, false),
    ];
    check("react fine disconnected", &got, REACT_FINE_DISCONNECTED);
}

/// REACT fine steps whose harvest routes to a connected series bank
/// sitting below the LLB, until it charges up to the LLB and couples.
#[test]
fn react_fine_steps_route_input_to_a_connected_bank() {
    let mut r = ReactBuffer::paper_prototype();
    r.set_llb_voltage(Volts::new(2.4));
    r.force_bank_state(0, Volts::new(2.4), BankMode::Parallel);
    r.force_bank_state(1, Volts::new(0.2), BankMode::Series);
    let got = [
        fine(&mut r, 2.0e-3, 1.0e-4, 250, true),
        fine(&mut r, 2.0e-3, 1.0e-4, 900, true),
    ];
    check("react fine routed", &got, REACT_FINE_ROUTED);
}

/// REACT fine steps through polls that reconfigure: the LLB is drawn
/// down through `v_low`, the poll boosts the parallel bank to series,
/// and the drain sweep right after it dumps the boosted bank into the
/// LLB; then a strong harvest climbs through `v_high`.
#[test]
fn react_fine_steps_drain_sweep_after_a_poll() {
    let mut r = ReactBuffer::paper_prototype();
    r.set_llb_voltage(Volts::new(1.95));
    r.force_bank_state(0, Volts::new(1.95), BankMode::Parallel);
    let got = [
        fine(&mut r, 0.0, 2.0e-3, 120, true),
        fine(&mut r, 0.0, 2.0e-3, 200, true),
        fine(&mut r, 0.08, 1.0e-4, 1200, true),
    ];
    check("react fine drain sweep", &got, REACT_FINE_DRAIN_SWEEP);
}

/// A static capacitor's fine steps, the bulk of every fine-stepped
/// matrix: charged onto its voltage ceiling under a load (clipping),
/// drained to empty (the zero-voltage leak path), then recharged.
#[test]
fn static_fine_steps_clip_drain_and_recharge() {
    let mut c = StaticBuffer::static_770uf();
    c.set_voltage(Volts::new(1.0));
    let got = [
        fine(&mut c, 1.0e-2, 1.0e-3, 1500, true),
        fine(&mut c, 0.0, 2.0e-3, 1500, true),
        fine(&mut c, 1.0e-4, 0.0, 500, false),
    ];
    check("static fine", &got, STATIC_FINE);
}

const MORPHY_IDLE_LEVEL0: &[&[u64]] = &[
    &[
        0x4028b0f27bb2fec5,
        0x3fefd7f713f57c82,
        0x3c42c18d00000000,
        0x3c42c18d00000000,
        0x0000000000000000,
        0x3eb472a03249b64c,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    &[
        0x401f147ae147ae14,
        0x3ff0d7b531ee1547,
        0x3ef04b7cab215565,
        0x3ef04b7cab215565,
        0x0000000000000000,
        0x3ec1022a9909c152,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
];
const MORPHY_POWERED_TOP: &[&[u64]] = &[
    &[
        0x4014000000000000,
        0x400ccccccccccccc,
        0x3fd0000000000000,
        0x3f3d529b14e28950,
        0x3fcff156b2758eb6,
        0x3f3af6a04248f49e,
        0x0000000000000000,
        0x0000000000000000,
        0x3f02dfd694ccab40,
        0x0000000000000000,
        0x000000000000000a,
        0x0000000000000000,
    ],
    &[
        0x3ff3c083126e978d,
        0x400ccccccccccccc,
        0x3fd3f34d6a161e50,
        0x3f4247fe4e082a43,
        0x3fd3ea296aef1a36,
        0x3f40cf713327e0b5,
        0x0000000000000000,
        0x0000000000000000,
        0x3f0788d1ae04a0ff,
        0x0000000000000000,
        0x000000000000000a,
        0x0000000000000000,
    ],
];
const MORPHY_COOLDOWN: &[&[u64]] = &[
    &[
        0x3ff0cccccccccccd,
        0x3fe40dac4b4b02a8,
        0x3c024dc000000000,
        0x3c024dc000000000,
        0x0000000000000000,
        0x3e79ddde9d5a921b,
        0x0000000000000000,
        0x3f25cca10d45c976,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000002,
    ],
    &[
        0x3fd3333333333337,
        0x3ff4f9980a04c3e0,
        0x3eff75104d551f1b,
        0x3eff75104d551f1b,
        0x0000000000000000,
        0x3ebb2810234ff516,
        0x0000000000000000,
        0x3f82053d0f61b610,
        0x3ebfbd7948cc4ca0,
        0x0000000000000000,
        0x0000000000000005,
        0x0000000000000002,
    ],
    &[
        0x3fd3333333333337,
        0x3ff8c00c2235e56a,
        0x3f0f75104d551ddc,
        0x3f0f75104d551ddc,
        0x0000000000000000,
        0x3ec50cd435fee8e0,
        0x0000000000000000,
        0x3f82969a0f7f8fe8,
        0x3ed032f3b7bddc70,
        0x0000000000000000,
        0x0000000000000004,
        0x0000000000000003,
    ],
];
const MORPHY_MID_SEGMENT: &[&[u64]] = &[
    &[
        0x3fc4189374bc6a83,
        0x3ff807e8f3236d2f,
        0x3f24940bbb1f1f7f,
        0x3f24940bbb1f1f7f,
        0x0000000000000000,
        0x3e5b39a181a2568f,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    &[
        0x3f8a9fbe76c8b43c,
        0x3ffcc491c80b4eb0,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3e32676295edc000,
        0x0000000000000000,
        0x0000000000000000,
        0x3ef8dd206c8711d8,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    &[
        0x3fb4fdf3b645a1cf,
        0x3ffb399a561ce4f8,
        0x3f157eed45e91869,
        0x3f157eed45e91869,
        0x0000000000000000,
        0x3e5679008b2cf000,
        0x0000000000000000,
        0x0000000000000000,
        0x3eb60d52cc2abb6b,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
];
const MORPHY_DEAD_BAND: &[&[u64]] = &[
    &[
        0x4059033333333333,
        0x400651787e332c34,
        0x3f606466b1e5c0b8,
        0x3f606466b1e5c0b8,
        0x0000000000000000,
        0x3f47abf96bfcb5be,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000004,
        0x0000000000000000,
    ],
    &[
        0x3fdbf7ced916872b,
        0x4006530bbc0d52ff,
        0x3f6076baf259cf1f,
        0x3f6076baf259cf1f,
        0x0000000000000000,
        0x3f47c8494ba0172b,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000004,
        0x0000000000000000,
    ],
    &[
        0x4054000000000000,
        0x400229f76f525f97,
        0x3c28000000000000,
        0x3c28000000000000,
        0x0000000000000000,
        0x3f4894e53131f531,
        0x0000000000000000,
        0x0000000000000000,
        0x3f425cc7e8bde7b5,
        0x0000000000000000,
        0x0000000000000006,
        0x0000000000000000,
    ],
    &[
        0x3fe0000000000000,
        0x40022855cd9e782b,
        0x3c53a40000000000,
        0x3c53a40000000000,
        0x0000000000000000,
        0x3f48ba10313a21cc,
        0x0000000000000000,
        0x0000000000000000,
        0x3f427958642037fb,
        0x0000000000000000,
        0x0000000000000006,
        0x0000000000000000,
    ],
];
const REACT_EQUALIZED: &[&[u64]] = &[
    &[
        0x3fc999999999999f,
        0x400ccccccccccccc,
        0x3f50624dd2f1a9fa,
        0x3f4a34a7168344a0,
        0x3f2a3fd23d803d4a,
        0x3ebfaa16e76a0fea,
        0x0000000000000000,
        0x0000000000000000,
        0x3ea75dd01471f38a,
        0x3e8ad7f29abcaf4e,
        0x0000000000000001,
        0x0000000000000001,
    ],
    &[
        0xffffffffffffffff,
        0x400ccccccccccccc,
        0x3f50624dd2f1a9fa,
        0x3f4a34a7168344a0,
        0x3f2a3fd23d803d4a,
        0x3ebfaa16e76a0fea,
        0x0000000000000000,
        0x0000000000000000,
        0x3ea75dd01471f38a,
        0x3e8ad7f29abcaf4e,
        0x0000000000000001,
        0x0000000000000001,
    ],
    &[
        0x3fb999999999999f,
        0x3ffdf3d61cdaccfc,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3ea4097fc326da00,
        0x0000000000000000,
        0x0000000000000000,
        0x3f396033cf61c431,
        0x3ec7a7e765297a7c,
        0x0000000000000002,
        0x0000000000000001,
    ],
    &[
        0x3fb999999999999f,
        0x400042a34b7fe7d9,
        0x3c1fdc0000000000,
        0x3c1fdc0000000000,
        0x0000000000000000,
        0x3eb2c2a2142a5900,
        0x3f3a4f2a63facfec,
        0x0000000000000000,
        0x3f487ee655aa0eea,
        0x3ed1f39d7114953c,
        0x0000000000000001,
        0x0000000000000002,
    ],
    &[
        0x4046c00000000000,
        0x4003d2d819bcf41e,
        0x3f4dd1a21ea35939,
        0x3f4dd1a21ea35939,
        0x0000000000000000,
        0x3f3103bd7a60a27b,
        0x0000000000000000,
        0x0000000000000000,
        0x3f3edc424b6055e9,
        0x3f45c48d632a71c3,
        0x0000000000000001,
        0x0000000000000000,
    ],
    &[
        0x3fd54fdf3b645a1d,
        0x4003cfaa72c65af3,
        0x3f4e09805c5bcb90,
        0x3f4e09805c5bcb90,
        0x0000000000000000,
        0x3f3120f1b0ba22d7,
        0x0000000000000000,
        0x0000000000000000,
        0x3f3f139df509eb93,
        0x3f45ed5605fb5490,
        0x0000000000000001,
        0x0000000000000000,
    ],
];
const REACT_DISCONNECTED: &[&[u64]] = &[
    &[
        0x403e000000000000,
        0x40038bfa5f84618f,
        0x3f33a92a30553252,
        0x3f33a92a30553252,
        0x0000000000000000,
        0x3f3a8f0b523229e1,
        0x0000000000000000,
        0x0000000000000000,
        0x3f23d46758b65d74,
        0x3f3cb46bacf7446f,
        0x0000000000000002,
        0x0000000000000000,
    ],
    &[
        0x3fe199999999999a,
        0x40038623f433e80e,
        0x3f34057082491aff,
        0x3f34057082491aff,
        0x0000000000000000,
        0x3f3b05351cba50df,
        0x0000000000000000,
        0x0000000000000000,
        0x3f242e88e7ac0db3,
        0x3f3d3b24435640ff,
        0x0000000000000002,
        0x0000000000000000,
    ],
];
const REACT_STAGED: &[&[u64]] = &[
    &[
        0x4020000000000000,
        0x400456bbd75ccf3d,
        0x3f4a3754ec99e4b0,
        0x3f4a3754ec99e4b0,
        0x0000000000000000,
        0x3f16c0f416b7f601,
        0x3d9eaad500000000,
        0x0000000000000000,
        0x3f51525397a8d7b1,
        0x3f2d91e13e73d915,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0x3fdccccccccccccd,
        0x400447ad14245e79,
        0x3f4bb0d1b039e20f,
        0x3f4bb0d1b039e20f,
        0x0000000000000000,
        0x3f17f6eac0b236b7,
        0x3d9eaad500000000,
        0x0000000000000000,
        0x3f5241e7db0206c9,
        0x3f2f3baf8390c3b1,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0x3fd3333333333337,
        0x3ffe226305943034,
        0x3eef7d03eb05ada1,
        0x3eef7d03eb05ada1,
        0x0000000000000000,
        0x3ebadad20b96d15d,
        0x0000000000000000,
        0x0000000000000000,
        0x3f269c413fa07a9a,
        0x3ee1bded8bdf1bdd,
        0x0000000000000002,
        0x0000000000000001,
    ],
];
const MORPHY_FINE_LEVELS: &[&[u64]] = &[
    &[
        0xffffffffffffffff,
        0x40015d895f1b12e1,
        0x3f46f4bbe1b39959,
        0x3f46f4bbe1b39959,
        0x0000000000000000,
        0x3e8b9312f3ee2400,
        0x0000000000000000,
        0x3c4f000000000000,
        0x3f2efb8ce02bc072,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x3fef0e367a3ac8f0,
        0x3f46f4bbe1b39959,
        0x3f46f4bbe1b39959,
        0x0000000000000000,
        0x3e92f75a93318300,
        0x0000000000000000,
        0x3c52400000000000,
        0x3f472f58e24d8a21,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x400ccccccccccccc,
        0x3fb33390fcecc645,
        0x3fa2f1512333435e,
        0x3fa375d0d6a649ef,
        0x3f1e1e6579456c00,
        0x0000000000000000,
        0x3d13c00000000000,
        0x3f754f2c44b5d790,
        0x0000000000000000,
        0x000000000000000a,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x0000000000000000,
        0x3fb33390fcecc645,
        0x3fa2f1512333435e,
        0x3fa375d0d6a649ef,
        0x3f2016f3e3ea853d,
        0x0000000000000000,
        0x3f537d5392621f12,
        0x3fbb913f56ae070e,
        0x0000000000000000,
        0x0000000000000007,
        0x0000000000000003,
    ],
];
const MORPHY_FINE_UNBALANCED: &[&[u64]] = &[
    &[
        0xffffffffffffffff,
        0x3ffae146fb1f7ed9,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3e280d438e900000,
        0x0000000000000000,
        0x3f4cc6214092af18,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000004,
        0x0000000000000001,
    ],
    &[
        0xffffffffffffffff,
        0x3ffcca581de66d6a,
        0x3f4d7ec4e35f1684,
        0x3f4d7ec4e35f1684,
        0x0000000000000000,
        0x3eb674fddb9a5e40,
        0x0000000000000000,
        0x3f507fdcacfbd0f4,
        0x3f39a7588d600620,
        0x0000000000000000,
        0x0000000000000003,
        0x0000000000000002,
    ],
    &[
        0xffffffffffffffff,
        0x400009aa5d5f1cc4,
        0x3f4d7ec4e35f1684,
        0x3f4d7ec4e35f1684,
        0x0000000000000000,
        0x3ec4f93d04f80eb0,
        0x0000000000000000,
        0x3f61948a4c9e27ed,
        0x3f4a9125fb3c6a78,
        0x0000000000000000,
        0x0000000000000001,
        0x0000000000000004,
    ],
];
const MORPHY_FINE_FADE: &[&[u64]] = &[
    &[
        0xffffffffffffffff,
        0x4001b838a60f173d,
        0x3f3a370efdbad640,
        0x3f3a370efdbad640,
        0x0000000000000000,
        0x3ec9f43e9ada1000,
        0x0000000000000000,
        0x0000000000000000,
        0x3f315c2c490a7b60,
        0x0000000000000000,
        0x0000000000000005,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x4001d638487c52cd,
        0x3f4a370eb2d66900,
        0x3f4a370eb2d66900,
        0x0000000000000000,
        0x3eda20efeb37d000,
        0x0000000000000000,
        0x0000000000000000,
        0x3f416b1208565160,
        0x0000000000000000,
        0x0000000000000005,
        0x0000000000000000,
    ],
];
const REACT_FINE_DISCONNECTED: &[&[u64]] = &[
    &[
        0xffffffffffffffff,
        0x4004c656f799d856,
        0x3ed92a750c514800,
        0x3ed92a750c514800,
        0x0000000000000000,
        0x3ee1debb913865a0,
        0x3d9353d740000000,
        0x0000000000000000,
        0x3eca28106b971400,
        0x3ee25efb8ab83300,
        0x0000000000000002,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x4004c7e09323f3de,
        0x3ee4f8b6ddfe6400,
        0x3ee4f8b6ddfe6400,
        0x0000000000000000,
        0x3eedc4fea4c8f520,
        0x3d9353d740000000,
        0x0000000000000000,
        0x3eca28106b971400,
        0x3ee335bb1e334600,
        0x0000000000000000,
        0x0000000000000000,
    ],
];
const REACT_FINE_ROUTED: &[&[u64]] = &[
    &[
        0xffffffffffffffff,
        0x40034665f25fd75a,
        0x3f406ea00d750fd0,
        0x3f406ea00d750fd0,
        0x0000000000000000,
        0x3ec279524aff0eac,
        0x3e6e7f9e17160000,
        0x0000000000000000,
        0x3f0f5dba1933d900,
        0x3edd91db0c320c00,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x4006446277ad3201,
        0x3f62dcddd52470be,
        0x3f62dcddd52470be,
        0x0000000000000000,
        0x3ee8ff9f3f80c63b,
        0x3eaca7c429154000,
        0x0000000000000000,
        0x3f334360101c1c90,
        0x3f0100ab2b240140,
        0x0000000000000003,
        0x0000000000000000,
    ],
];
const REACT_FINE_DRAIN_SWEEP: &[&[u64]] = &[
    &[
        0xffffffffffffffff,
        0x40009c90d00250ab,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3ea3aba22709f440,
        0x3f3cbda74d18bf7c,
        0x0000000000000000,
        0x3f3e2297813f7190,
        0x3ebd64c35f568400,
        0x0000000000000001,
        0x0000000000000001,
    ],
    &[
        0xffffffffffffffff,
        0x3ff92e999b93587c,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3eb3914974875920,
        0x3f3cbdf57ac069bc,
        0x0000000000000000,
        0x3f538771e86a4b72,
        0x3ec980559b7d2800,
        0x0000000000000000,
        0x0000000000000002,
    ],
    &[
        0xffffffffffffffff,
        0x400c91a2f54bd028,
        0x3fb6efb4b6c7335f,
        0x3fb005a00a7564d5,
        0x3f9ba852b1473a33,
        0x3f0f651c487e4468,
        0x3f3cbe994da930bc,
        0x0000000000000000,
        0x3f5a845cad07abf2,
        0x3f0be45d291b9950,
        0x000000000000000a,
        0x000000000000000c,
    ],
];
const STATIC_FINE: &[&[u64]] = &[
    &[
        0xffffffffffffffff,
        0x400ccccccccccccc,
        0x3f8ebdf2919ba4cd,
        0x3f834017198d9310,
        0x3f76fbb6f01c21be,
        0x3ee9f5756e8c9ee0,
        0x0000000000000000,
        0x0000000000000000,
        0x3f7396ed91cfc359,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x0000000000000000,
        0x3f8ebdf2919ba4cd,
        0x3f834017198d9310,
        0x3f76fbb6f01c21be,
        0x3ef1dcdd07138c6e,
        0x0000000000000000,
        0x0000000000000000,
        0x3f8401027e4f96f3,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x3fcbb2da7f35f8c3,
        0x3f8ec7671daf45a6,
        0x3f83498ba5a133e9,
        0x3f76fbb6f01c21be,
        0x3ef1de7cf80f5402,
        0x0000000000000000,
        0x0000000000000000,
        0x3f8401027e4f96f3,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
    ],
];
const MORPHY_IDLE_LADDER_MOVE: &[&[u64]] = &[
    &[
        0x4082c00000000000,
        0x3ffccc32c87e0f1f,
        0x3cb4cf11440e5640,
        0x3cb4cf11440e5640,
        0x0000000000000000,
        0x3f48fc00c8d6771b,
        0x0000000000000000,
        0x3f426f52fa338af4,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000002,
    ],
    &[
        0x3fe0000000000000,
        0x3ffccabc5c04eed6,
        0x3cb4d647d40e5640,
        0x3cb4d647d40e5640,
        0x0000000000000000,
        0x3f48ffdb97cecd15,
        0x0000000000000000,
        0x3f426f52fa338af4,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000002,
    ],
];
const REACT_STAGED_COUPLING: &[&[u64]] = &[
    &[
        0x4024000000000000,
        0x40037909a014ede0,
        0x3f50624eb7a875ee,
        0x3f50624eb7a875ee,
        0x0000000000000000,
        0x3f1a633686244bce,
        0x3d7d161800000000,
        0x0000000000000000,
        0x3f54978f3da77a86,
        0x3f327b2cc70867ad,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0x3fd6666666666666,
        0x40036df89711aa0a,
        0x3f50f51bae66adca,
        0x3f50f51bae66adca,
        0x0000000000000000,
        0x3f1b405a04128a5e,
        0x3d7d161800000000,
        0x0000000000000000,
        0x3f554a065dcd290a,
        0x3f3320c41acc8a07,
        0x0000000000000003,
        0x0000000000000000,
    ],
];
const REACT_GUARD_PARTIAL: &[&[u64]] = &[
    &[
        0x3fe999999999999d,
        0x400bf8a22e2de1ce,
        0x3f24f8b588e368fc,
        0x3f24f8b588e368fc,
        0x0000000000000000,
        0x3eed670e3d44ad02,
        0x0000000000000000,
        0x0000000000000000,
        0x3ec760214b260b18,
        0x3ee87ea6f9ff5ff5,
        0x0000000000000002,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x400bf8a22e2de1ce,
        0x3f24f8b588e368fc,
        0x3f24f8b588e368fc,
        0x0000000000000000,
        0x3eed670e3d44ad02,
        0x0000000000000000,
        0x0000000000000000,
        0x3ec760214b260b18,
        0x3ee87ea6f9ff5ff5,
        0x0000000000000002,
        0x0000000000000000,
    ],
    &[
        0x3ffccccccccccb8a,
        0x3ffe72430d73a266,
        0x3c26080000000000,
        0x3c26080000000000,
        0x0000000000000000,
        0x3ee4499e1a09a0a4,
        0x0000000000000000,
        0x0000000000000000,
        0x3f122e37499eb284,
        0x3f0a9ce451cea89e,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x3ffe72430d73a266,
        0x3c26080000000000,
        0x3c26080000000000,
        0x0000000000000000,
        0x3ee4499e1a09a0a4,
        0x0000000000000000,
        0x0000000000000000,
        0x3f122e37499eb284,
        0x3f0a9ce451cea89e,
        0x0000000000000003,
        0x0000000000000000,
    ],
];
const REFUSED: &[&[u64]] = &[
    &[
        0x0000000000000000,
        0x4004000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0x0000000000000000,
        0x4004000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0x0000000000000000,
        0x4004000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0x0000000000000000,
        0x4004000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000002,
        0x0000000000000000,
    ],
    &[
        0x0000000000000000,
        0x4004000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000002,
        0x0000000000000000,
    ],
    &[
        0x0000000000000000,
        0x4004000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000003,
        0x0000000000000000,
    ],
    &[
        0xffffffffffffffff,
        0x4004000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000003,
        0x0000000000000000,
    ],
];
const MORPHY_BAND_COOLDOWN: &[&[u64]] = &[
    &[
        0x3ffb3333333332ff,
        0x3ffe60aea55443d3,
        0x3c47400000000000,
        0x3c47400000000000,
        0x0000000000000000,
        0x3ede5ba0a4205136,
        0x0000000000000000,
        0x3f439a0788b63fe0,
        0x3f5cd152325c3def,
        0x0000000000000000,
        0x0000000000000003,
        0x0000000000000002,
    ],
    &[
        0x3fd3333333333337,
        0x40004a0756c454a7,
        0x3c58700000000000,
        0x3c58700000000000,
        0x0000000000000000,
        0x3ee148861a074b61,
        0x0000000000000000,
        0x3f556d73596f1a80,
        0x3f60b3c368ba83f5,
        0x0000000000000000,
        0x0000000000000002,
        0x0000000000000003,
    ],
];
