//! Round-trip and determinism properties of the streaming sources.
//!
//! The contract under test: materializing any [`PowerSource`] into a
//! fixed-`dt` [`PowerTrace`] and re-wrapping it in [`TraceSource`]
//! reproduces `power_at` within sampling error — *exactly* on the
//! sampling grid, where no error term exists — and seeded sources are
//! bit-identical across two instantiations, including after the
//! graceful rewind a backward (non-monotone) probe triggers. Segments
//! hold their power at every time the simulation engine's fine steps
//! read them from its cached window, which is what lets it convert a
//! segment once.

use proptest::prelude::*;
use react_env::{
    materialize, AdaptiveAttack, AttackPolicy, Diurnal, EnergyAttack, MarkovRf, Mobility,
    PowerSource, TraceSource, VictimEvent,
};
use react_traces::two_ulps_down;
use react_units::{Seconds, Watts};

/// Builds one of several representative sources from sampled
/// parameters — the "any `PowerSource`" quantifier of the property.
fn build_source(which: usize, seed: u64, p_mw: f64, dwell_s: f64) -> Box<dyn PowerSource> {
    let rf = || {
        MarkovRf::new(
            "rf",
            Watts::from_milli(p_mw),
            Watts::from_micro(10.0),
            Seconds::new(dwell_s),
            Seconds::new(3.0 * dwell_s),
            seed,
        )
        .with_jitter(0.4)
    };
    let sun = || {
        Diurnal::new("sun", Watts::from_milli(p_mw), seed)
            .with_period(Seconds::new(240.0), 0.5)
            .with_envelope_step(Seconds::new(10.0))
            .with_clouds(Seconds::new(4.0 * dwell_s), Seconds::new(dwell_s), 0.3)
    };
    let walk = || {
        Mobility::cyclic(
            "walk",
            vec![
                (Seconds::new(0.0), Watts::from_micro(40.0)),
                (Seconds::new(20.0), Watts::from_milli(p_mw)),
                (Seconds::new(45.0), Watts::from_micro(1.0)),
            ],
            Seconds::new(90.0),
        )
    };
    match which % 4 {
        0 => Box::new(rf()),
        1 => Box::new(sun()),
        2 => Box::new(walk()),
        _ => Box::new(
            EnergyAttack::new(rf())
                .with_spoof(
                    Seconds::new(60.0),
                    Seconds::new(5.0),
                    Seconds::new(4.0),
                    Watts::from_milli(20.0),
                )
                .with_blackout(Seconds::new(60.0), Seconds::new(30.0), Seconds::new(10.0)),
        ),
    }
}

/// [`build_source`]'s four sources plus two the engine's cached input
/// window leans on hardest: a recorded trace on an inexact 0.1 s grid
/// (index 4), whose `t/dt` lookups round near every window end, and a
/// boot-triggered adaptive attacker (index 5), whose schedule changes
/// with every observed event.
fn build_engine_source(which: usize, seed: u64, p_mw: f64, dwell_s: f64) -> Box<dyn PowerSource> {
    match which {
        4 => Box::new(TraceSource::new(materialize(
            &mut build_source(0, seed, p_mw, dwell_s),
            "rf@0.1s",
            Seconds::new(0.1),
            Seconds::new(600.0),
        ))),
        5 => Box::new(AdaptiveAttack::new(
            build_source(0, seed, p_mw, dwell_s),
            AttackPolicy::BootTriggered {
                delay: Seconds::new(0.7),
                strike: Seconds::new(dwell_s),
                rearm: Seconds::new(3.0),
            },
        )),
        _ => build_source(which, seed, p_mw, dwell_s),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Materialize → TraceSource reproduces the source on the sampling
    /// grid exactly (zero-order hold both sides), and seeded sources
    /// are bit-identical across two instantiations.
    #[test]
    fn materialized_sources_round_trip(
        which in 0usize..4,
        seed in 0u64..10_000,
        p_mw in 0.5..20.0f64,
        dwell_s in 0.5..12.0f64,
        dt_ms in 20.0..500.0f64,
    ) {
        let horizon = Seconds::new(600.0);
        let dt = Seconds::new(dt_ms / 1e3);
        let mut original = build_source(which, seed, p_mw, dwell_s);
        let trace = materialize(
            &mut build_source(which, seed, p_mw, dwell_s),
            "mat",
            dt,
            horizon,
        );
        let mut wrapped = TraceSource::new(trace);
        // Interior of each hold window, the wrapped source must return
        // the original's grid sample bit for bit (probing safely inside
        // the window sidesteps the one-ulp grid-boundary ambiguity of
        // `t/dt` — the only sampling error the contract allows there).
        for i in 0..(horizon.get() / dt.get()) as usize {
            let grid = Seconds::new(i as f64 * dt.get());
            for frac in [0.31, 0.5, 0.93] {
                let probe = Seconds::new((i as f64 + frac) * dt.get());
                prop_assert_eq!(
                    wrapped.power_at(probe),
                    original.power_at(grid),
                    "held sample {} at frac {}",
                    i,
                    frac
                );
            }
        }
    }

    /// Two instantiations of the same seeded source agree bit for bit
    /// along any shared probe sequence, even when one of them is
    /// dragged through backward probes (graceful rewind).
    #[test]
    fn seeded_sources_are_bit_identical(
        which in 0usize..4,
        seed in 0u64..10_000,
        p_mw in 0.5..20.0f64,
        dwell_s in 0.5..12.0f64,
    ) {
        let mut a = build_source(which, seed, p_mw, dwell_s);
        let mut b = build_source(which, seed, p_mw, dwell_s);
        // Walk `a` far ahead, then yank it backwards: the rewind must
        // land it on exactly the stream a fresh walker sees.
        let _ = a.power_at(Seconds::new(5000.0));
        for i in 0..400 {
            let t = Seconds::new(i as f64 * 1.37);
            prop_assert_eq!(a.power_at(t), b.power_at(t), "at step {}", i);
        }
        // And segments agree with power values at their own start.
        for i in 0..40 {
            let t = Seconds::new(11.0 * i as f64);
            let seg = a.segment(t);
            prop_assert!(seg.end > t, "segment must extend past its query");
            prop_assert_eq!(seg.power, b.power_at(t));
        }
    }

    /// Segment spans are internally constant: probing anywhere inside
    /// a reported span returns the span's power. That includes the
    /// engine's access pattern, fine-grid times `u += dt` from the
    /// segment query up to the cache bound `two_ulps_down(seg.end)`,
    /// with a stride of whole steps in between, and the times after a
    /// feedback event.
    #[test]
    fn segments_hold_constant_power(
        which in 0usize..6,
        seed in 0u64..10_000,
        p_mw in 0.5..20.0f64,
        dwell_s in 0.5..12.0f64,
        dt_ms in 0.5..25.0f64,
    ) {
        let dt = dt_ms / 1e3;
        let mut src = build_engine_source(which, seed, p_mw, dwell_s);
        let mut probe = build_engine_source(which, seed, p_mw, dwell_s);
        let mut fine = build_engine_source(which, seed, p_mw, dwell_s);
        let mut t = 0.0;
        for k in 0..120 {
            if k % 7 == 3 {
                // Every source sees the same feedback at the clock;
                // the adaptive attacker commits a strike from it.
                let boot = VictimEvent::Boot { at: Seconds::new(t) };
                for s in [&mut src, &mut probe, &mut fine] {
                    s.observe(boot);
                }
            }
            let seg = src.segment(Seconds::new(t));
            let bound = two_ulps_down(seg.end.get());
            let mut u = t;
            let mut steps = 0;
            while u < bound {
                prop_assert_eq!(
                    fine.power_at(Seconds::new(u)),
                    seg.power,
                    "fine step {} at {} in [{}, {})",
                    steps,
                    u,
                    t,
                    seg.end.get()
                );
                steps += 1;
                u += dt;
                if steps == 200 {
                    // A stride of whole steps lands short of the end;
                    // fine steps resume from there.
                    if !bound.is_finite() {
                        break;
                    }
                    let skip = ((bound - u) / dt).floor() - 200.0;
                    if skip > 0.0 {
                        u += skip * dt;
                    }
                }
            }
            let end = seg.end.get().min(t + 500.0);
            for frac in [0.25, 0.5, 0.9] {
                let inside = t + frac * (end - t);
                if inside >= end {
                    // A one-ulp span has no interior: the probe rounded
                    // onto its end, which belongs to the next segment.
                    continue;
                }
                prop_assert_eq!(
                    probe.power_at(Seconds::new(inside)),
                    seg.power,
                    "inside segment [{}, {})",
                    t,
                    seg.end.get()
                );
            }
            if seg.end.get() == f64::INFINITY {
                break;
            }
            t = seg.end.get();
        }
    }
}

/// Regression for the streaming kernel's backward probes: the probe
/// pattern the adaptive kernel emits (a window query at `t`, then a
/// stamped sample one step back) must never corrupt a source's stream.
#[test]
fn kernel_style_backward_probes_are_harmless() {
    let mut src = build_source(0, 77, 4.0, 2.0);
    let mut reference = build_source(0, 77, 4.0, 2.0);
    let dt = 0.01;
    let mut t = 0.0;
    while t < 2000.0 {
        let seg = src.segment(Seconds::new(t));
        // Stamp "one step back", as the probe series does.
        let back = (t - dt).max(0.0);
        assert_eq!(
            src.power_at(Seconds::new(back)),
            reference.power_at(Seconds::new(back)),
            "backward stamp at {back}"
        );
        assert_eq!(src.power_at(Seconds::new(t)), seg.power);
        t = seg.end.get().min(t + 50.0);
    }
}
