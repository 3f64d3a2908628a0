//! External event schedules (packet arrivals, delivered deadlines).
//!
//! The paper uses a secondary, wall-powered MSP430 to deliver events to
//! the system under test (§4.2) so reactivity-bound benchmarks face
//! deadlines that do not care whether the system is charged. An
//! [`EventSchedule`] is the same thing in simulation: a fixed, seeded
//! list of arrival times generated before the run starts. Periodic
//! schedules compute each time from its index instead of storing it, so
//! a week of 5 s deadlines costs two words, not a vector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use react_units::Seconds;

/// A sorted schedule of event times, fixed before the run starts.
#[derive(Clone, Debug)]
pub struct EventSchedule {
    times: Times,
    cursor: usize,
}

#[derive(Clone, Debug)]
enum Times {
    Listed(Vec<f64>),
    /// Event `i` (from 0) at `(i + 1)·period`.
    Periodic {
        period: f64,
        count: usize,
    },
}

/// Schedules are equal when they hold the same times and the same
/// number of them are consumed, however the times are stored.
impl PartialEq for EventSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.cursor == other.cursor
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.time(i) == other.time(i))
    }
}

impl EventSchedule {
    /// Builds a schedule from explicit times (sorted internally).
    pub fn from_times(mut times: Vec<Seconds>) -> Self {
        times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN times"));
        Self {
            times: Times::Listed(times.into_iter().map(Seconds::get).collect()),
            cursor: 0,
        }
    }

    /// Poisson arrivals at `rate` events/second over `duration`,
    /// deterministic for a given `seed`.
    pub fn poisson(rate: f64, duration: Seconds, seed: u64) -> Self {
        assert!(rate >= 0.0, "negative rate");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut times = Vec::new();
        let mut t = 0.0;
        if rate > 0.0 {
            loop {
                let u: f64 = rng.gen_range(1e-12..1.0);
                t += -u.ln() / rate;
                if t >= duration.get() {
                    break;
                }
                times.push(t);
            }
        }
        Self {
            times: Times::Listed(times),
            cursor: 0,
        }
    }

    /// Strictly periodic events at `period`, starting one period in.
    pub fn periodic(period: Seconds, duration: Seconds) -> Self {
        assert!(period.get() > 0.0, "period must be positive");
        Self {
            times: Times::Periodic {
                period: period.get(),
                count: (duration.get() / period.get()).floor() as usize,
            },
            cursor: 0,
        }
    }

    /// Time of event `i`; `i` must be below [`len`](Self::len).
    fn time(&self, i: usize) -> f64 {
        match &self.times {
            Times::Listed(times) => times[i],
            Times::Periodic { period, .. } => (i + 1) as f64 * period,
        }
    }

    /// Total number of events in the schedule.
    pub fn len(&self) -> usize {
        match &self.times {
            Times::Listed(times) => times.len(),
            Times::Periodic { count, .. } => *count,
        }
    }

    /// `true` if the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.len() - self.cursor
    }

    /// The next pending event time, if any.
    pub fn peek(&self) -> Option<Seconds> {
        (self.cursor < self.len()).then(|| Seconds::new(self.time(self.cursor)))
    }

    /// Consumes and returns every event with time ≤ `now`.
    pub fn take_due(&mut self, now: Seconds) -> usize {
        let start = self.cursor;
        while self.peek().is_some_and(|t| t <= now) {
            self.cursor += 1;
        }
        self.cursor - start
    }

    /// All event times (for inspection/tests).
    pub fn iter(&self) -> impl Iterator<Item = Seconds> + '_ {
        (0..self.len()).map(|i| Seconds::new(self.time(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_rate_accurate() {
        let a = EventSchedule::poisson(0.5, Seconds::new(2000.0), 9);
        let b = EventSchedule::poisson(0.5, Seconds::new(2000.0), 9);
        assert_eq!(a, b);
        // ≈1000 events expected; Poisson σ ≈ 32.
        assert!((a.len() as f64 - 1000.0).abs() < 150.0, "got {}", a.len());
    }

    #[test]
    fn poisson_zero_rate_is_empty() {
        let s = EventSchedule::poisson(0.0, Seconds::new(100.0), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn periodic_schedule() {
        let s = EventSchedule::periodic(Seconds::new(5.0), Seconds::new(21.0));
        let times: Vec<f64> = s.iter().map(|t| t.get()).collect();
        assert_eq!(times, vec![5.0, 10.0, 15.0, 20.0]);
    }

    /// The times `periodic` stored before it computed them on demand.
    fn stored_periodic_times(period: f64, duration: f64) -> Vec<f64> {
        let n = (duration / period).floor() as usize;
        (1..=n).map(|i| i as f64 * period).collect()
    }

    #[test]
    fn periodic_times_are_bit_equal_to_stored_times() {
        // 21 s; one day plus the 2 h drain tail (`DAY + MAX_DRAIN_TIME`);
        // horizons that are not a multiple of the period; a period that is
        // not exactly representable.
        for (period, duration) in [
            (5.0, 21.0),
            (5.0, 86_400.0 + 7_200.0),
            (5.0, 1_003.7),
            (0.7, 250.0),
            (0.1, 43.05),
        ] {
            let stored = stored_periodic_times(period, duration);
            let mut s = EventSchedule::periodic(Seconds::new(period), Seconds::new(duration));
            let mut listed =
                EventSchedule::from_times(stored.iter().map(|&t| Seconds::new(t)).collect());
            let bits = |s: &EventSchedule| s.iter().map(|t| t.get().to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&s),
                stored.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(s.len(), stored.len());
            assert_eq!(s.is_empty(), stored.is_empty());
            assert_eq!(s, listed);
            // Consume in uneven bites; every query agrees with the list.
            let mut now = 0.0;
            while listed.remaining() > 0 {
                now += 3.3 * period;
                assert_eq!(
                    s.take_due(Seconds::new(now)),
                    listed.take_due(Seconds::new(now))
                );
                assert_eq!(s.remaining(), listed.remaining());
                assert_eq!(
                    s.peek().map(|t| t.get().to_bits()),
                    listed.peek().map(|t| t.get().to_bits())
                );
                assert_eq!(s, listed);
            }
            assert_eq!(s.peek(), None);
            assert_eq!(s.take_due(Seconds::new(f64::MAX)), 0);
        }
    }

    #[test]
    fn periodic_schedule_shorter_than_a_period_is_empty() {
        let s = EventSchedule::periodic(Seconds::new(5.0), Seconds::new(4.9));
        assert!(s.is_empty());
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.peek(), None);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn take_due_consumes_in_order() {
        let mut s = EventSchedule::periodic(Seconds::new(1.0), Seconds::new(5.5));
        assert_eq!(s.len(), 5);
        assert_eq!(s.take_due(Seconds::new(2.5)), 2);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.peek(), Some(Seconds::new(3.0)));
        assert_eq!(s.take_due(Seconds::new(2.9)), 0);
        assert_eq!(s.take_due(Seconds::new(100.0)), 3);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.peek(), None);
    }

    #[test]
    fn from_times_sorts() {
        let s = EventSchedule::from_times(vec![
            Seconds::new(3.0),
            Seconds::new(1.0),
            Seconds::new(2.0),
        ]);
        let v: Vec<f64> = s.iter().map(|t| t.get()).collect();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn events_fall_inside_duration() {
        let s = EventSchedule::poisson(0.2, Seconds::new(300.0), 7);
        for t in s.iter() {
            assert!(t.get() >= 0.0 && t.get() < 300.0);
        }
    }
}
