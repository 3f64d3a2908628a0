//! A controller's poll accumulator on the fine-step grid, replayed in
//! bulk.

use crate::Seconds;

/// A poll accumulator counted in fine steps: each step of
/// `h = min(dt, total − elapsed)` adds `h` to the accumulator and to the
/// elapsed time, and the accumulator resets to exactly zero on the step
/// where it reaches the period (the poll fires there).
///
/// From an exact-zero accumulator every period re-adds the same `dt`
/// sequence, so the number of whole steps per period is a constant; the
/// tick caches it for its `(dt, period)` pair. Every method reproduces
/// the per-step float sequence bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PollTick {
    dt: f64,
    period: f64,
    steps_per_period: u64,
}

/// Where a replay of poll ticks ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TickSpan {
    /// Steps replayed.
    pub steps: u64,
    /// Accumulator after the last step (zero if the poll fired on it).
    pub acc: Seconds,
    /// Elapsed time after the last step.
    pub elapsed: Seconds,
    /// Whether the poll fired on any replayed step.
    pub fired: bool,
}

impl PollTick {
    /// The tick for fine step `dt` and poll `period`. A period the
    /// accumulator never reaches (infinite or NaN) never fires.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is positive.
    pub fn new(dt: Seconds, period: Seconds) -> Self {
        let (dt, period) = (dt.get(), period.get());
        assert!(dt > 0.0, "fine timestep must be positive");
        let mut steps_per_period = u64::MAX;
        if period < f64::INFINITY {
            let mut acc = 0.0;
            steps_per_period = 0;
            loop {
                acc += dt;
                steps_per_period += 1;
                if acc >= period {
                    break;
                }
            }
        }
        Self {
            dt,
            period,
            steps_per_period,
        }
    }

    /// This tick retuned to fine step `dt` (itself if `dt` is unchanged).
    pub fn at_dt(self, dt: Seconds) -> Self {
        if dt.get() == self.dt {
            self
        } else {
            Self::new(dt, Seconds::new(self.period))
        }
    }

    /// The fine step.
    pub fn dt(&self) -> Seconds {
        Seconds::new(self.dt)
    }

    /// The poll period.
    pub fn period(&self) -> Seconds {
        Seconds::new(self.period)
    }

    /// Whole steps from an exact-zero accumulator to the next poll.
    pub fn steps_per_period(&self) -> u64 {
        self.steps_per_period
    }

    /// Replays steps from `acc`/`elapsed` until the poll fires or
    /// `elapsed` reaches `total`: one controller segment.
    pub fn segment(&self, acc: Seconds, elapsed: Seconds, total: Seconds) -> TickSpan {
        let (dt, period, total) = (self.dt, self.period, total.get());
        let (mut acc, mut elapsed) = (acc.get(), elapsed.get());
        if acc == 0.0 {
            if let Some(end) = self.whole_period_end(elapsed, total) {
                return Self::span(self.steps_per_period, 0.0, end, true);
            }
        }
        let mut steps = 0;
        while elapsed < total {
            let h = dt.min(total - elapsed);
            elapsed += h;
            acc += h;
            steps += 1;
            if acc >= period {
                return Self::span(steps, 0.0, elapsed, true);
            }
        }
        Self::span(steps, acc, elapsed, false)
    }

    /// Replays exactly `n` steps from `acc`/`elapsed` toward `total`,
    /// resetting on every poll and handing each step's `h` to `each`.
    pub fn replay(
        &self,
        acc: Seconds,
        elapsed: Seconds,
        total: Seconds,
        n: u64,
        mut each: impl FnMut(Seconds),
    ) -> TickSpan {
        let (dt, period, total) = (self.dt, self.period, total.get());
        let (mut acc, mut elapsed) = (acc.get(), elapsed.get());
        let mut fired = false;
        for _ in 0..n {
            let h = dt.min(total - elapsed);
            elapsed += h;
            each(Seconds::new(h));
            acc += h;
            if acc >= period {
                acc = 0.0;
                fired = true;
            }
        }
        Self::span(n, acc, elapsed, fired)
    }

    /// The accumulator after `n` whole steps of `dt` from `acc`, in
    /// O(steps per period) instead of O(`n`): after the first reset the
    /// pattern repeats exactly.
    pub fn advance(&self, acc: Seconds, n: u64) -> Seconds {
        let (dt, period) = (self.dt, self.period);
        let mut acc = acc.get();
        let mut used = 0;
        while used < n {
            acc += dt;
            used += 1;
            if acc >= period {
                let mut acc = 0.0;
                for _ in 0..(n - used) % self.steps_per_period {
                    acc += dt;
                }
                return Seconds::new(acc);
            }
        }
        Seconds::new(acc)
    }

    /// The elapsed time one whole period of steps after an exact-zero
    /// accumulator at `elapsed`, in O(1) — or `None` where that needs
    /// the step loop. While `elapsed + dt` stays inside `elapsed`'s
    /// binade, each step rounds `dt` onto the same ulp grid, so every
    /// step adds the same increment exactly (unless `dt` sits on a
    /// half-ulp tie, whose rounding depends on the running value), and
    /// `n` steps are `elapsed + n·increment` with no rounding at all.
    fn whole_period_end(&self, elapsed: f64, total: f64) -> Option<f64> {
        let n = self.steps_per_period;
        if !(f64::MIN_POSITIVE..f64::MAX).contains(&elapsed) || n == u64::MAX {
            return None;
        }
        let exponent = elapsed.to_bits() >> 52;
        let ulp = f64::from_bits(exponent.checked_sub(52)? << 52);
        let binade_top = f64::from_bits((exponent + 1) << 52);
        let step = (elapsed + self.dt) - elapsed;
        // The increment is `dt` rounded to the grid; Sterbenz makes the
        // difference exact, so a tie shows as exactly half an ulp.
        if !(0.5 * step <= self.dt && self.dt <= 2.0 * step) || (self.dt - step).abs() == 0.5 * ulp
        {
            return None;
        }
        let end = elapsed + n as f64 * step;
        // Every step stays in the binade and, as the step loop checks,
        // leaves a whole `dt` before the horizon.
        let last_start = elapsed + (n - 1) as f64 * step;
        (end < binade_top && total - last_start >= self.dt).then_some(end)
    }

    fn span(steps: u64, acc: f64, elapsed: f64, fired: bool) -> TickSpan {
        TickSpan {
            steps,
            acc: Seconds::new(acc),
            elapsed: Seconds::new(elapsed),
            fired,
        }
    }
}
