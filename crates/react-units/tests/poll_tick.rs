//! `PollTick` against the naive per-step accumulator loop, by `to_bits`:
//! random steps, periods, starting accumulators and elapsed times, with
//! horizons that end mid-period and step counts spanning several resets.

use proptest::prelude::*;
use react_units::{PollTick, Seconds};

/// One naive step: `h = min(dt, total − elapsed)`, reset at the period.
fn naive_step(acc: &mut f64, elapsed: &mut f64, dt: f64, period: f64, total: f64) -> (f64, bool) {
    let h = dt.min(total - *elapsed);
    *elapsed += h;
    *acc += h;
    if *acc >= period {
        *acc = 0.0;
        return (h, true);
    }
    (h, false)
}

fn bits(x: Seconds) -> u64 {
    x.get().to_bits()
}

#[test]
fn one_millisecond_ticks_poll_at_ten_hertz() {
    let tick = PollTick::new(Seconds::new(1e-3), Seconds::new(0.1));
    assert_eq!(tick.steps_per_period(), 100);
    let seg = tick.segment(Seconds::ZERO, Seconds::ZERO, Seconds::new(1.0));
    assert_eq!((seg.steps, seg.fired, seg.acc), (100, true, Seconds::ZERO));
    // A horizon inside the period stops short of the poll.
    let seg = tick.segment(Seconds::ZERO, Seconds::ZERO, Seconds::new(0.0505));
    assert_eq!((seg.steps, seg.fired), (51, false));
    assert_eq!(seg.elapsed, Seconds::new(0.0505));
}

#[test]
fn retuning_keeps_the_period() {
    let tick = PollTick::new(Seconds::new(1e-3), Seconds::new(0.1));
    assert_eq!(tick.at_dt(Seconds::new(1e-3)), tick);
    let coarse = tick.at_dt(Seconds::new(0.01));
    assert_eq!(coarse.period(), tick.period());
    // Ten 0.01 s steps sum to 0.09999…: the poll lands on the 11th.
    assert_eq!(coarse.steps_per_period(), 11);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// One segment: steps until the poll fires or the horizon ends.
    #[test]
    fn segment_matches_naive_loop(
        dt in 1e-4..2e-2f64,
        period in 1e-2..0.5f64,
        acc_frac in 0.0..1.0f64,
        elapsed in 0.0..50.0f64,
        horizon_periods in 0.0..1.5f64,
    ) {
        let tick = PollTick::new(Seconds::new(dt), Seconds::new(period));
        let acc0 = acc_frac * period;
        let total = elapsed + horizon_periods * period;
        let seg = tick.segment(Seconds::new(acc0), Seconds::new(elapsed), Seconds::new(total));

        let (mut acc, mut e, mut steps, mut fired) = (acc0, elapsed, 0u64, false);
        while e < total {
            steps += 1;
            if naive_step(&mut acc, &mut e, dt, period, total).1 {
                fired = true;
                break;
            }
        }
        prop_assert_eq!(seg.steps, steps);
        prop_assert_eq!(seg.fired, fired);
        prop_assert_eq!(bits(seg.acc), acc.to_bits());
        prop_assert_eq!(bits(seg.elapsed), e.to_bits());
    }

    /// Segments from a reset accumulator at elapsed times across many
    /// binades, often just below a power of two, with horizons just
    /// past or short of a whole period.
    #[test]
    fn segment_from_a_reset_matches_naive_loop(
        dt in 1e-4..2e-2f64,
        period in 1e-2..0.5f64,
        log2_elapsed in -12.0..24.0f64,
        below_top in 0.0..1.0f64,
        near_top in 0u8..2,
        horizon_periods in 0.9..1.1f64,
    ) {
        let tick = PollTick::new(Seconds::new(dt), Seconds::new(period));
        let mut elapsed = log2_elapsed.exp2();
        if near_top == 1 {
            // Within a few steps of the next binade.
            let top = 2f64.powi(log2_elapsed.floor() as i32 + 1);
            elapsed = top - below_top * 4.0 * period;
        }
        let total = elapsed + horizon_periods * period;
        let seg = tick.segment(Seconds::ZERO, Seconds::new(elapsed), Seconds::new(total));

        let (mut acc, mut e, mut steps, mut fired) = (0.0, elapsed, 0u64, false);
        while e < total {
            steps += 1;
            if naive_step(&mut acc, &mut e, dt, period, total).1 {
                fired = true;
                break;
            }
        }
        prop_assert_eq!(seg.steps, steps);
        prop_assert_eq!(seg.fired, fired);
        prop_assert_eq!(bits(seg.acc), acc.to_bits());
        prop_assert_eq!(bits(seg.elapsed), e.to_bits());
    }

    /// A fixed number of steps, possibly through several polls and past
    /// the horizon's last partial step.
    #[test]
    fn replay_matches_naive_loop(
        dt in 1e-4..2e-2f64,
        period in 1e-2..0.5f64,
        acc_frac in 0.0..1.0f64,
        elapsed in 0.0..50.0f64,
        horizon_periods in 0.0..4.0f64,
        n_frac in 0.0..1.0f64,
    ) {
        let tick = PollTick::new(Seconds::new(dt), Seconds::new(period));
        let acc0 = acc_frac * period;
        let total = elapsed + horizon_periods * period;
        let n = (n_frac * (horizon_periods * period / dt).ceil()) as u64;
        let mut hs = Vec::new();
        let span = tick.replay(
            Seconds::new(acc0),
            Seconds::new(elapsed),
            Seconds::new(total),
            n,
            |h| hs.push(h.get().to_bits()),
        );

        let (mut acc, mut e, mut fired) = (acc0, elapsed, false);
        let mut naive_hs = Vec::new();
        for _ in 0..n {
            let (h, f) = naive_step(&mut acc, &mut e, dt, period, total);
            naive_hs.push(h.to_bits());
            fired |= f;
        }
        prop_assert_eq!(span.steps, n);
        prop_assert_eq!(span.fired, fired);
        prop_assert_eq!(bits(span.acc), acc.to_bits());
        prop_assert_eq!(bits(span.elapsed), e.to_bits());
        prop_assert_eq!(hs, naive_hs);
    }

    /// Bulk whole-step advance through several resets.
    #[test]
    fn advance_matches_naive_loop(
        dt in 1e-4..2e-2f64,
        period in 1e-2..0.5f64,
        acc_frac in 0.0..1.0f64,
        periods in 0.0..6.0f64,
    ) {
        let tick = PollTick::new(Seconds::new(dt), Seconds::new(period));
        let acc0 = acc_frac * period;
        let n = (periods * tick.steps_per_period() as f64) as u64;
        let mut acc = acc0;
        for _ in 0..n {
            acc += dt;
            if acc >= period {
                acc = 0.0;
            }
        }
        prop_assert_eq!(bits(tick.advance(Seconds::new(acc0), n)), acc.to_bits());
    }
}
