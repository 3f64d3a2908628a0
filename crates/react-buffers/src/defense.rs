//! Charge-slope anomaly detection for energy-attack defense.
//!
//! The attack-mitigation literature (PAPERS.md, Singhal et al.) shows
//! batteryless victims can detect adaptive energy attacks from their
//! own power-cycle telemetry: an attacker that strikes right after
//! boot produces *repeated near-boot brown-outs*, and a spoof-baiter
//! produces *implausibly fast recharges* (the real ambient field could
//! never refill the buffer that quickly). Both signals are visible in
//! the gate-event series alone — boot and brown-out timestamps — which
//! the reference and adaptive simulation kernels agree on exactly, so
//! detection never perturbs kernel equivalence the way per-poll
//! voltage thresholds would.
//!
//! [`AttackDetector`] consumes that series and drives three defensive
//! responses in the simulator: a conservative capacitance ladder
//! ([`EnergyBuffer::defensive_reconfigure`]), a raised effective
//! enable gate (boot later, with more banked energy), and an
//! exponential-backoff restart of the workload after repeated
//! attack-correlated reboots.
//!
//! [`EnergyBuffer::defensive_reconfigure`]: crate::EnergyBuffer::defensive_reconfigure

use react_units::{Seconds, Volts};

/// Arms the detect-and-degrade defense
/// (`Simulator::with_defense(DefenseConfig::default())` in `react-core`).
/// It carries no knobs: the detector's thresholds are the constants
/// below, since every caller ran the same values. The type stays
/// because the benchmark harness in `perfbench/` arms the defense
/// through it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DefenseConfig {}

/// An on-period shorter than this is a *near-boot brown-out* — the
/// victim died suspiciously soon after waking.
const SHORT_CYCLE: Seconds = Seconds::new(2.0);
/// A brown-out→boot recharge faster than this is an *implausible
/// charge slope* — more power on the air than the deployment's ambient
/// field plausibly delivers.
const MIN_RECHARGE: Seconds = Seconds::new(0.25);
/// Consecutive suspicious cycles before the alarm trips.
const STREAK_TO_FLAG: u32 = 3;
/// How far the effective enable gate rises while alarmed. REACT's rail
/// clamp sits at 3.5 V: the raise must leave headroom below it or the
/// victim can never re-arm.
const GATE_RAISE: Volts = Volts::new(0.1);
/// Hard cap on the total gate raise.
const GATE_RAISE_MAX: Volts = Volts::new(0.4);
/// Workload-restart hold after the first attack-correlated reboot while
/// alarmed; doubles per subsequent suspicious cycle. The ramp has to
/// overtake a realistic strike length (tens of seconds) within a few
/// doublings — a victim that sleeps *through* the whole blackout
/// survives it on µA of sleep current instead of paying a deep
/// discharge. Long holds additionally convert strike-free recharge time
/// into banked capacitance (REACT's controller steps up whenever the
/// sleeping rail reaches `v_high`), amortizing the fixed per-strike
/// cost over a much larger work window.
const BACKOFF_BASE: Seconds = Seconds::new(16.0);
/// Cap on the exponential backoff hold.
const BACKOFF_MAX: Seconds = Seconds::new(480.0);
/// Quiet time (no suspicious cycles) after which the alarm clears. On a
/// weak ambient field a full strike cycle (blackout + recharge) runs
/// minutes; the alarm must outlive several of them or it ages out
/// between consecutive strikes.
const CLEAR_AFTER: Seconds = Seconds::new(900.0);

/// Detects energy attacks from the victim's own gate-event series and
/// tracks the defensive posture (alarm, gate raise, restart backoff).
///
/// Starts quiet ([`Default`]). Feed it every boot and brown-out with
/// [`AttackDetector::on_boot`] / [`AttackDetector::on_brownout`];
/// query the posture with
/// [`AttackDetector::alarmed`], [`AttackDetector::gate_raise`] and
/// [`AttackDetector::backoff`].
#[derive(Clone, Debug, Default)]
pub struct AttackDetector {
    last_boot_at: Option<f64>,
    last_brownout_at: Option<f64>,
    /// Consecutive suspicious power cycles (reset by a healthy cycle).
    streak: u32,
    /// Whether the current cycle's recharge was already implausible —
    /// a long on-period must not clear a streak the boot-side signal
    /// started (spoofed cycles run long before the bait is cut).
    cycle_suspicious: bool,
    /// Time of the most recent suspicious cycle.
    last_suspicious_at: f64,
    alarmed: bool,
    /// Suspicious cycles observed since the current alarm was raised —
    /// escalates the backoff, and distinguishes a confirmed attack from
    /// a false alarm at clear time.
    post_raise_suspicious: u32,
    /// When the previous alarm cleared. A successful defense *masks*
    /// the attacker (held cycles look healthy), so a cleared alarm
    /// followed promptly by fresh suspicion is the same attacker
    /// recidivating, not a new coincidence: re-alarm on a single
    /// suspicious cycle, and don't book the earlier clear as a false
    /// positive.
    last_cleared_at: Option<f64>,
    /// Whether the live alarm was raised inside the recidivism window
    /// (not a genuinely fresh detection).
    recidivist_alarm: bool,
    /// Backoff escalation at the moment the previous alarm cleared,
    /// restored on a recidivist re-alarm so the hold resumes at the
    /// length that was already covering the attacker's blackout.
    last_ramp: u32,
    detections: u64,
    false_positives: u64,
}

impl AttackDetector {
    /// Records a boot at `t`. An implausibly fast recharge from the
    /// previous brown-out counts as a suspicious cycle (spoofed field).
    pub fn on_boot(&mut self, t: Seconds) {
        let t = t.get();
        self.maybe_clear(t);
        self.cycle_suspicious = match self.last_brownout_at {
            Some(down) => t - down < MIN_RECHARGE.get(),
            None => false,
        };
        if self.cycle_suspicious {
            self.note_suspicious(t);
        }
        self.last_boot_at = Some(t);
    }

    /// Records a brown-out at `t`. Dying within `short_cycle` of the
    /// boot counts as a suspicious cycle (near-boot brown-out); a
    /// longer on-period is healthy and resets the streak.
    pub fn on_brownout(&mut self, t: Seconds) {
        let t = t.get();
        self.maybe_clear(t);
        if let Some(up) = self.last_boot_at {
            if t - up < SHORT_CYCLE.get() {
                self.note_suspicious(t);
            } else if !self.cycle_suspicious {
                // Fully healthy cycle: plausible recharge AND a long
                // on-period. Only that clears the streak.
                self.streak = 0;
            }
        }
        self.last_brownout_at = Some(t);
    }

    fn note_suspicious(&mut self, t: f64) {
        self.streak = self.streak.saturating_add(1);
        self.last_suspicious_at = t;
        if self.alarmed {
            self.post_raise_suspicious = self.post_raise_suspicious.saturating_add(1);
            return;
        }
        let recidivist = self
            .last_cleared_at
            .is_some_and(|c| t - c < CLEAR_AFTER.get());
        let needed = if recidivist { 1 } else { STREAK_TO_FLAG };
        if self.streak >= needed {
            self.alarmed = true;
            self.recidivist_alarm = recidivist;
            self.post_raise_suspicious = if recidivist { self.last_ramp } else { 0 };
            self.detections += 1;
        }
    }

    fn maybe_clear(&mut self, t: f64) {
        if self.alarmed && t - self.last_suspicious_at >= CLEAR_AFTER.get() {
            // The alarm aged out. If nothing suspicious happened after
            // a *fresh* raise, the streak that tripped it was benign
            // variance. A recidivist alarm is exempt: the hold masks
            // the very evidence that would confirm it.
            if self.post_raise_suspicious == 0 && !self.recidivist_alarm {
                self.false_positives += 1;
            }
            self.alarmed = false;
            self.streak = 0;
            self.last_ramp = self.post_raise_suspicious.max(self.last_ramp);
            self.post_raise_suspicious = 0;
            self.last_cleared_at = Some(t);
        }
    }

    /// `true` while the defensive posture is active.
    pub fn alarmed(&self) -> bool {
        self.alarmed
    }

    /// How far to raise the effective enable gate right now.
    pub fn gate_raise(&self) -> Volts {
        if self.alarmed {
            GATE_RAISE.min(GATE_RAISE_MAX)
        } else {
            Volts::ZERO
        }
    }

    /// How long to hold the workload after a boot right now: zero when
    /// quiet, exponential in the attack-correlated reboots while
    /// alarmed, capped at `backoff_max`.
    pub fn backoff(&self) -> Seconds {
        if !self.alarmed {
            return Seconds::ZERO;
        }
        let doubling = 1u64 << self.post_raise_suspicious.min(16);
        let hold = BACKOFF_BASE.get() * doubling as f64;
        Seconds::new(hold.min(BACKOFF_MAX.get()))
    }

    /// Alarms raised so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Alarms that cleared without any suspicious cycle after the
    /// raise — benign variance mistaken for an attack.
    pub fn false_positives(&self) -> u64 {
        self.false_positives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    /// Boot → near-boot brown-out cycles with period `gap`.
    fn strike_cycles(d: &mut AttackDetector, start: f64, n: usize, gap: f64) -> f64 {
        let mut t = start;
        for _ in 0..n {
            d.on_boot(s(t));
            d.on_brownout(s(t + 0.5));
            t += gap;
        }
        t
    }

    #[test]
    fn repeated_near_boot_brownouts_trip_the_alarm() {
        let mut d = AttackDetector::default();
        strike_cycles(&mut d, 0.0, 2, 10.0);
        assert!(!d.alarmed(), "two suspicious cycles are below the streak");
        strike_cycles(&mut d, 20.0, 1, 10.0);
        assert!(d.alarmed());
        assert_eq!(d.detections(), 1);
        assert!(d.gate_raise() > Volts::ZERO);
        assert!(d.backoff() >= Seconds::new(4.0));
    }

    #[test]
    fn healthy_cycles_reset_the_streak() {
        let mut d = AttackDetector::default();
        strike_cycles(&mut d, 0.0, 2, 10.0);
        d.on_boot(s(30.0));
        d.on_brownout(s(50.0)); // 20 s on-period: healthy
        strike_cycles(&mut d, 60.0, 2, 10.0);
        assert!(!d.alarmed(), "streak must restart after a healthy cycle");
        assert_eq!(d.detections(), 0);
    }

    #[test]
    fn implausible_recharge_counts_as_suspicious() {
        let mut d = AttackDetector::default();
        let mut t = 0.0;
        d.on_boot(s(t));
        for _ in 0..3 {
            d.on_brownout(s(t + 30.0)); // long, healthy on-period…
            t += 30.1; // …but back up 100 ms later: spoofed field
            d.on_boot(s(t));
        }
        assert!(d.alarmed());
    }

    #[test]
    fn backoff_escalates_and_caps_while_alarmed() {
        let mut d = AttackDetector::default();
        let t = strike_cycles(&mut d, 0.0, 3, 10.0);
        assert_eq!(d.backoff(), BACKOFF_BASE);
        strike_cycles(&mut d, t, 1, 10.0);
        assert_eq!(d.backoff().get(), BACKOFF_BASE.get() * 2.0);
        strike_cycles(&mut d, t + 10.0, 10, 10.0);
        assert_eq!(d.backoff(), BACKOFF_MAX);
    }

    #[test]
    fn confirmed_alarm_clears_without_a_false_positive() {
        let mut d = AttackDetector::default();
        let t = strike_cycles(&mut d, 0.0, 3, 10.0);
        strike_cycles(&mut d, t, 1, 10.0); // attack continues post-raise
        d.on_boot(s(t + 1200.0)); // long quiet: alarm ages out
        assert!(!d.alarmed());
        assert_eq!(d.false_positives(), 0);
        assert_eq!(d.detections(), 1);
    }

    #[test]
    fn unconfirmed_alarm_counts_a_false_positive() {
        let mut d = AttackDetector::default();
        strike_cycles(&mut d, 0.0, 3, 10.0); // trips the alarm…
        d.on_boot(s(1200.0)); // …then nothing suspicious ever again
        assert!(!d.alarmed());
        assert_eq!(d.false_positives(), 1);
    }

    #[test]
    fn quiet_detector_reports_no_posture() {
        let d = AttackDetector::default();
        assert!(!d.alarmed());
        assert_eq!(d.gate_raise(), Volts::ZERO);
        assert_eq!(d.backoff(), Seconds::ZERO);
        assert_eq!(d.detections(), 0);
        assert_eq!(d.false_positives(), 0);
    }
}
