//! Hardware-degradation fault injection: seeded, deterministic
//! mid-run drift events.
//!
//! Deployed batteryless hardware does not keep its datasheet values:
//! capacitors fade, leakage rises with temperature and age, comparators
//! develop offset, load switches weld, and harvester frontends derate.
//! A [`FaultPlan`] is a time-sorted schedule of such events; the
//! simulation kernel applies each event the first time its clock
//! reaches the event's timestamp, and clamps coarse strides so no
//! closed-form span ever integrates *across* a fault edge.
//!
//! Plans are either scheduled explicitly ([`FaultPlan::scheduled`]) or
//! sampled from a named [`FaultCampaign`] with a splitmix64 stream
//! seeded per node exactly like `node_salt`, so a 100k-node fleet
//! campaign reproduces bit-exactly from one committed seed.

use react_units::{Seconds, Volts};

/// One kind of component drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Effective capacitance multiplies by `factor` (< 1 for fade).
    /// The terminal voltage is preserved — charge redistributes inside
    /// the dielectric — so the stored energy drops; models book the
    /// loss as leakage.
    CapacitanceFade {
        /// Multiplier on the capacitance (0 < factor ≤ 1 for fade).
        factor: f64,
    },
    /// Leakage current multiplies by `factor` (> 1 for growth).
    LeakageGrowth {
        /// Multiplier on the datasheet leakage current.
        factor: f64,
    },
    /// The enable comparator develops a fixed input offset: the gate
    /// now closes at `nominal + volts` instead of the nominal enable
    /// threshold (positive offset delays every boot).
    ComparatorOffset {
        /// Offset added to the effective enable threshold, volts.
        volts: f64,
    },
    /// The load switch welds closed: the load stays connected through
    /// brown-out, so the gate's hysteresis is gone. The MCU's own
    /// brown-out reset still holds it off at or below brown-out, and it
    /// boots again the moment the rail rises past it (a boot-looping
    /// node).
    SwitchStuckClosed,
    /// The harvester frontend derates: rail power multiplies by
    /// `factor` (< 1) from this point on.
    HarvesterDerate {
        /// Multiplier on post-converter rail power.
        factor: f64,
    },
}

impl FaultKind {
    /// Short label for telemetry and tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CapacitanceFade { .. } => "capacitance-fade",
            FaultKind::LeakageGrowth { .. } => "leakage-growth",
            FaultKind::ComparatorOffset { .. } => "comparator-offset",
            FaultKind::SwitchStuckClosed => "switch-stuck-closed",
            FaultKind::HarvesterDerate { .. } => "harvester-derate",
        }
    }
}

/// One scheduled drift event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Simulation time the drift manifests.
    pub at: Seconds,
    /// What drifts.
    pub kind: FaultKind,
}

/// A time-sorted schedule of drift events for one node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The inert plan: no events, no effect on any run.
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// A plan from explicit events (sorted by time on construction, so
    /// callers may list them in any order).
    pub fn scheduled(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at.get().total_cmp(&b.at.get()));
        FaultPlan { events }
    }

    /// The events, ascending in time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` if the plan holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the first event at index ≥ `next`, or `+inf` once
    /// the plan is exhausted — the stride-window clamp the kernel uses
    /// so closed forms never integrate across a fault edge.
    pub fn next_at(&self, next: usize) -> Seconds {
        self.events
            .get(next)
            .map_or(Seconds::new(f64::INFINITY), |e| e.at)
    }
}

/// A named, reproducible fault-sampling family — the scenario/fleet
/// axis. `Copy` so it can live inside `Scenario` literals; the actual
/// [`FaultPlan`] is expanded per run from the node's seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FaultCampaign {
    /// No faults (every pre-existing scenario).
    #[default]
    None,
    /// The acceptance-criteria pair, scheduled deterministically: a
    /// 30 % capacitance fade at 25 % of the horizon and a +150 mV
    /// comparator offset at 50 %.
    FadeOffset,
    /// Harvester derate to 60 % at 30 % of the horizon.
    Derate,
    /// Load switch welds closed at 40 % of the horizon: the MCU boot-loops
    /// at brown-out instead of waiting for the enable voltage.
    StuckClosed,
    /// Stochastic drift: 1–3 events sampled per node from the fade /
    /// leakage-growth / derate / comparator-offset families at
    /// seed-determined times and magnitudes.
    Drift,
}

impl FaultCampaign {
    /// Registry label (also the fingerprint segment for fleet specs).
    pub fn label(self) -> &'static str {
        match self {
            FaultCampaign::None => "none",
            FaultCampaign::FadeOffset => "fade-offset",
            FaultCampaign::Derate => "derate",
            FaultCampaign::StuckClosed => "stuck-closed",
            FaultCampaign::Drift => "drift",
        }
    }

    /// Expands the campaign into a concrete plan for one node. `seed`
    /// is the node's fault seed (fleets salt it per node); scheduled
    /// campaigns ignore it, `Drift` drives a splitmix64 stream with it.
    pub fn plan(self, seed: u64, horizon: Seconds) -> FaultPlan {
        let h = horizon.get();
        match self {
            FaultCampaign::None => FaultPlan::empty(),
            FaultCampaign::FadeOffset => FaultPlan::scheduled(vec![
                FaultEvent {
                    at: Seconds::new(0.25 * h),
                    kind: FaultKind::CapacitanceFade { factor: 0.7 },
                },
                FaultEvent {
                    at: Seconds::new(0.50 * h),
                    kind: FaultKind::ComparatorOffset { volts: 0.15 },
                },
            ]),
            FaultCampaign::Derate => FaultPlan::scheduled(vec![FaultEvent {
                at: Seconds::new(0.30 * h),
                kind: FaultKind::HarvesterDerate { factor: 0.6 },
            }]),
            FaultCampaign::StuckClosed => FaultPlan::scheduled(vec![FaultEvent {
                at: Seconds::new(0.40 * h),
                kind: FaultKind::SwitchStuckClosed,
            }]),
            FaultCampaign::Drift => {
                let mut stream = SplitMix::new(seed);
                let n = 1 + (stream.next() % 3) as usize;
                let events = (0..n)
                    .map(|_| {
                        // Events land in the middle 80 % of the horizon
                        // so every sampled fault has room to matter.
                        let at = Seconds::new(h * (0.1 + 0.8 * stream.unit()));
                        let kind = match stream.next() % 4 {
                            0 => FaultKind::CapacitanceFade {
                                factor: 0.5 + 0.4 * stream.unit(),
                            },
                            1 => FaultKind::LeakageGrowth {
                                factor: 2.0 + 8.0 * stream.unit(),
                            },
                            2 => FaultKind::HarvesterDerate {
                                factor: 0.4 + 0.5 * stream.unit(),
                            },
                            _ => FaultKind::ComparatorOffset {
                                volts: 0.05 + 0.15 * stream.unit(),
                            },
                        };
                        FaultEvent { at, kind }
                    })
                    .collect();
                FaultPlan::scheduled(events)
            }
        }
    }
}

/// Effective comparator enable threshold under an accumulated offset,
/// clamped so the gate keeps a hysteresis band above brown-out (a
/// hardware offset can delay boots indefinitely but cannot invert the
/// comparator pair).
pub fn offset_enable(nominal: Volts, offset: f64, brownout: Volts) -> Volts {
    Volts::new((nominal.get() + offset).max(brownout.get() + 0.05))
}

/// splitmix64 stream — the same finalizer `node_salt` uses, so fault
/// sampling inherits the fleet's per-node decorrelation guarantees.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: Seconds = Seconds::new(3600.0);

    #[test]
    fn scheduled_plans_sort_by_time() {
        let plan = FaultPlan::scheduled(vec![
            FaultEvent {
                at: Seconds::new(30.0),
                kind: FaultKind::LeakageGrowth { factor: 2.0 },
            },
            FaultEvent {
                at: Seconds::new(10.0),
                kind: FaultKind::CapacitanceFade { factor: 0.5 },
            },
        ]);
        assert_eq!(plan.events()[0].at, Seconds::new(10.0));
        assert_eq!(plan.next_at(0), Seconds::new(10.0));
        assert_eq!(plan.next_at(1), Seconds::new(30.0));
        assert!(plan.next_at(2).get().is_infinite());
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert!(plan.next_at(0).get().is_infinite());
        assert_eq!(FaultCampaign::None.plan(7, HOUR), FaultPlan::empty());
    }

    #[test]
    fn drift_sampling_is_seed_deterministic_and_decorrelated() {
        let a = FaultCampaign::Drift.plan(42, HOUR);
        let b = FaultCampaign::Drift.plan(42, HOUR);
        assert_eq!(a, b, "same seed must replay the identical plan");
        let mut distinct = false;
        for seed in 0..16u64 {
            if FaultCampaign::Drift.plan(seed, HOUR) != a {
                distinct = true;
                break;
            }
        }
        assert!(distinct, "different seeds must sample different plans");
        for e in a.events() {
            assert!(e.at.get() >= 0.1 * HOUR.get() && e.at.get() <= 0.9 * HOUR.get());
        }
    }

    #[test]
    fn fade_offset_matches_acceptance_schedule() {
        let plan = FaultCampaign::FadeOffset.plan(0, HOUR);
        assert_eq!(plan.events().len(), 2);
        assert!(matches!(
            plan.events()[0].kind,
            FaultKind::CapacitanceFade { factor } if (factor - 0.7).abs() < 1e-12
        ));
        assert!(matches!(
            plan.events()[1].kind,
            FaultKind::ComparatorOffset { volts } if (volts - 0.15).abs() < 1e-12
        ));
    }

    #[test]
    fn offset_enable_clamps_above_brownout() {
        let e = offset_enable(Volts::new(3.3), 0.15, Volts::new(1.8));
        assert!((e.get() - 3.45).abs() < 1e-12);
        // A pathological negative offset can never invert the band.
        let floor = offset_enable(Volts::new(3.3), -5.0, Volts::new(1.8));
        assert!((floor.get() - 1.85).abs() < 1e-12);
    }

    #[test]
    fn campaign_labels_are_distinct() {
        let all = [
            FaultCampaign::None,
            FaultCampaign::FadeOffset,
            FaultCampaign::Derate,
            FaultCampaign::StuckClosed,
            FaultCampaign::Drift,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}
