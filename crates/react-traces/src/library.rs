//! The paper's trace library (Table 3) plus the §2.1 illustration traces.
//!
//! Each library trace is synthesized with a fixed seed and calibrated to
//! the published duration, mean power, and coefficient of variation. The
//! generator *shape* is chosen to match each trace's description in §5:
//! the cart trace is periodic (the cart circles past the transmitter),
//! the mobile/pedestrian traces are spiky, the obstruction trace is a
//! smooth low-power baseline.

use std::sync::{Arc, OnceLock};

use react_units::{Seconds, Watts};

use crate::{PowerTrace, SynthKind, TraceSynthesizer};

/// Identifiers for the five evaluation traces (Table 3) and the two
/// §2.1 illustration traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperTrace {
    /// RF harvester on a moving office cart: 313 s, 2.12 mW, CV 103 %.
    RfCart,
    /// RF harvester behind an obstruction: 313 s, 0.227 mW, CV 61 %.
    RfObstructed,
    /// Mobile RF harvester: 318 s, 0.5 mW, CV 166 %.
    RfMobile,
    /// EnHANTs-style campus walk, solar: 3609 s, 5.18 mW, CV 207 %.
    SolarCampus,
    /// EnHANTs-style commute, solar: 6030 s, 0.148 mW, CV 333 %.
    SolarCommute,
    /// §2.1 pedestrian solar trace used for Figure 1 (≈3500 s; 82 % of
    /// energy above 10 mW, 77 % of time below 3 mW).
    Pedestrian,
    /// §2.1.2 night-time solar trace (very low, steady power).
    SolarNight,
}

impl PaperTrace {
    /// All five Table 3 evaluation traces, in the paper's row order.
    pub const EVALUATION: [PaperTrace; 5] = [
        PaperTrace::RfCart,
        PaperTrace::RfObstructed,
        PaperTrace::RfMobile,
        PaperTrace::SolarCampus,
        PaperTrace::SolarCommute,
    ];

    /// The short display name used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PaperTrace::RfCart => "RF Cart",
            PaperTrace::RfObstructed => "RF Obs.",
            PaperTrace::RfMobile => "RF Mob.",
            PaperTrace::SolarCampus => "Sol. Camp.",
            PaperTrace::SolarCommute => "Sol. Comm.",
            PaperTrace::Pedestrian => "Pedestrian",
            PaperTrace::SolarNight => "Sol. Night",
        }
    }
}

/// A row of Table 3: the published target statistics for a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table3Row {
    /// Which trace the row describes.
    pub trace: PaperTrace,
    /// Published duration in seconds.
    pub duration_s: f64,
    /// Published mean power in milliwatts.
    pub avg_power_mw: f64,
    /// Published coefficient of variation in percent.
    pub cv_percent: f64,
}

/// Table 3 of the paper, verbatim.
pub const TABLE3_TARGETS: [Table3Row; 5] = [
    Table3Row {
        trace: PaperTrace::RfCart,
        duration_s: 313.0,
        avg_power_mw: 2.12,
        cv_percent: 103.0,
    },
    Table3Row {
        trace: PaperTrace::RfObstructed,
        duration_s: 313.0,
        avg_power_mw: 0.227,
        cv_percent: 61.0,
    },
    Table3Row {
        trace: PaperTrace::RfMobile,
        duration_s: 318.0,
        avg_power_mw: 0.5,
        cv_percent: 166.0,
    },
    Table3Row {
        trace: PaperTrace::SolarCampus,
        duration_s: 3609.0,
        avg_power_mw: 5.18,
        cv_percent: 207.0,
    },
    Table3Row {
        trace: PaperTrace::SolarCommute,
        duration_s: 6030.0,
        avg_power_mw: 0.148,
        cv_percent: 333.0,
    },
];

/// A library trace (fixed seed; fully deterministic). Each variant is
/// synthesized once per process and handed out shared: the solar
/// traces take tens of milliseconds to synthesize, and every cell of a
/// trace × buffer matrix replays its trace without copying a sample.
pub fn paper_trace(which: PaperTrace) -> Arc<PowerTrace> {
    static LIBRARY: [OnceLock<Arc<PowerTrace>>; 7] = [const { OnceLock::new() }; 7];
    Arc::clone(LIBRARY[which as usize].get_or_init(|| Arc::new(synthesize(which))))
}

fn synthesize(which: PaperTrace) -> PowerTrace {
    match which {
        PaperTrace::RfCart => TraceSynthesizer::new(
            which.label(),
            SynthKind::Periodic {
                period: 35.0,
                width: 8.0,
                amplitude: 12.0,
            },
            Seconds::new(313.0),
            0x5_EAC7_0001,
        )
        .baseline_dynamics(0.08, 0.5)
        .mean_power(Watts::from_milli(2.12))
        .coefficient_of_variation(1.03)
        .build(),

        PaperTrace::RfObstructed => TraceSynthesizer::new(
            which.label(),
            SynthKind::Baseline,
            Seconds::new(313.0),
            0x5_EAC7_0002,
        )
        .baseline_dynamics(0.05, 0.4)
        .mean_power(Watts::from_milli(0.227))
        .coefficient_of_variation(0.61)
        .build(),

        PaperTrace::RfMobile => TraceSynthesizer::new(
            which.label(),
            SynthKind::Spiky {
                rate: 0.12,
                amplitude: 10.0,
                decay: 1.5,
            },
            Seconds::new(318.0),
            0x5_EAC7_0003,
        )
        .baseline_dynamics(0.1, 0.6)
        .mean_power(Watts::from_milli(0.5))
        .coefficient_of_variation(1.66)
        .build(),

        PaperTrace::SolarCampus => solar_campus_trace(),

        PaperTrace::SolarCommute => solar_commute_trace(),

        PaperTrace::Pedestrian => pedestrian_trace(),

        PaperTrace::SolarNight => TraceSynthesizer::new(
            which.label(),
            SynthKind::Baseline,
            Seconds::new(1800.0),
            0x5_EAC7_0007,
        )
        .baseline_dynamics(0.05, 0.3)
        .mean_power(Watts::from_micro(40.0))
        .coefficient_of_variation(0.3)
        .build(),
    }
}

/// EnHANTs-style campus walk (3609 s). The walk starts indoors — the
/// paper's Table 4 shows even large buffers taking ~740 s to first
/// enable, so the first ~11 minutes carry little power — then moves
/// outdoors through alternating shade and sun. Calibrated to Table 3
/// (5.18 mW mean, CV 207 %).
fn solar_campus_trace() -> PowerTrace {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let dt = 0.1_f64;
    let n = (3609.0 / dt) as usize;
    let mut rng = StdRng::seed_from_u64(0x5_EAC7_0004);
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * dt;
        let p_mw = if t < 650.0 {
            // Indoors: dim ambient light.
            rng.gen_range(0.02..0.3)
        } else {
            // Outdoors: shade/sun dwells.
            let phase = ((t - 650.0) / 90.0) as u64;
            let mut dwell_rng = StdRng::seed_from_u64(0x5_EAC7_0004 ^ phase);
            if dwell_rng.gen_bool(0.55) {
                rng.gen_range(0.3..3.0) // shade
            } else {
                rng.gen_range(8.0..60.0) // direct sun bursts
            }
        };
        samples.push(Watts::from_milli(p_mw));
    }
    let raw = PowerTrace::new("Sol. Camp.", Seconds::new(dt), samples);
    crate::synth::calibrate(&raw, Watts::from_milli(5.18), 2.07)
}

/// EnHANTs-style commute (6030 s): bright outdoor stretches separated by
/// long dark intervals (stations, vehicles) — the structure behind the
/// paper's Table 4 latencies (196–213 s) and the Sol. Comm. reactivity
/// results. Calibrated to Table 3 (0.148 mW mean, CV 333 %).
fn solar_commute_trace() -> PowerTrace {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let dt = 0.1_f64;
    let n = (6030.0 / dt) as usize;
    let mut rng = StdRng::seed_from_u64(0x5_EAC7_0005);
    // (start, end, kind): kind 0 = dark, 1 = dim, 2 = bright.
    let segments: [(f64, f64, u8); 9] = [
        (0.0, 120.0, 1),     // leaving home: window light
        (120.0, 400.0, 2),   // walk to the station
        (400.0, 2100.0, 0),  // subway
        (2100.0, 2500.0, 2), // transfer outdoors
        (2500.0, 4100.0, 0), // second leg underground
        (4100.0, 4400.0, 2), // street walk
        (4400.0, 5300.0, 0), // office corridors
        (5300.0, 5600.0, 2), // courtyard
        (5600.0, 6030.0, 1), // desk by the window
    ];
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * dt;
        let kind = segments
            .iter()
            .find(|&&(s, e, _)| t >= s && t < e)
            .map(|&(_, _, k)| k)
            .unwrap_or(0);
        let p_mw = match kind {
            0 => rng.gen_range(0.0005..0.004), // darkness
            1 => rng.gen_range(0.01..0.08),    // dim indoor
            _ => rng.gen_range(0.3..4.0),      // outdoor bursts
        };
        samples.push(Watts::from_milli(p_mw));
    }
    let raw = PowerTrace::new("Sol. Comm.", Seconds::new(dt), samples);
    crate::synth::calibrate(&raw, Watts::from_milli(0.148), 3.33)
}

/// The §2.1 pedestrian solar trace backing Figure 1: a 22 %-efficient
/// 5 cm² panel on a walking wearer. Built so that ~82 % of total energy
/// arrives in >10 mW spikes while ~77 % of the time sits below 3 mW —
/// the exact volatility structure the paper reports.
fn pedestrian_trace() -> PowerTrace {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let dt = 0.1_f64;
    let n = (3500.0 / dt) as usize;
    let mut rng = StdRng::seed_from_u64(0x5_EAC7_0006);
    let mut samples = Vec::with_capacity(n);

    // Dwell-based three-state model: shade (<3 mW), partial (3–10 mW),
    // direct sun (>10 mW). Dwells are exponential; target occupancy
    // 0.77 / 0.13 / 0.10.
    #[derive(Clone, Copy, PartialEq)]
    enum Sky {
        Shade,
        Partial,
        Direct,
    }
    let mut state = Sky::Shade;
    let mut dwell = 0.0_f64;
    // Mean dwell per state (s) and target *time* occupancy. Selection
    // probability is occupancy/dwell so that time shares land on
    // 0.77 / 0.13 / 0.10.
    let dwells = [25.0, 6.0, 5.0];
    let occupancy = [0.77, 0.13, 0.10];
    let weights: Vec<f64> = occupancy.iter().zip(&dwells).map(|(o, d)| o / d).collect();
    let weight_sum: f64 = weights.iter().sum();
    for _ in 0..n {
        if dwell <= 0.0 {
            let u: f64 = rng.gen_range(0.0..weight_sum);
            state = if u < weights[0] {
                Sky::Shade
            } else if u < weights[0] + weights[1] {
                Sky::Partial
            } else {
                Sky::Direct
            };
            let mean_dwell = match state {
                Sky::Shade => dwells[0],
                Sky::Partial => dwells[1],
                Sky::Direct => dwells[2],
            };
            let u2: f64 = rng.gen_range(1e-6..1.0);
            dwell = -mean_dwell * u2.ln();
        }
        dwell -= dt;
        let p_mw = match state {
            Sky::Shade => rng.gen_range(0.1..2.5),
            Sky::Partial => rng.gen_range(3.2..9.5),
            // Direct sun on a 5 cm², 22 % panel peaks near 110 mW
            // (1 kW/m² × 5 cm² × 22 %); reflections push slightly higher.
            Sky::Direct => rng.gen_range(30.0..120.0),
        };
        samples.push(Watts::from_milli(p_mw));
    }
    PowerTrace::new("Pedestrian", Seconds::new(dt), samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_stats_match_published_values() {
        for row in TABLE3_TARGETS {
            let t = paper_trace(row.trace);
            let s = t.stats();
            assert!(
                (s.duration.get() - row.duration_s).abs() <= 0.2,
                "{}: duration {} vs {}",
                row.trace.label(),
                s.duration.get(),
                row.duration_s
            );
            assert!(
                (s.mean_power.to_milli() - row.avg_power_mw).abs() / row.avg_power_mw < 0.01,
                "{}: mean {} mW vs {} mW",
                row.trace.label(),
                s.mean_power.to_milli(),
                row.avg_power_mw
            );
            assert!(
                (s.cv_percent() - row.cv_percent).abs() < 5.0,
                "{}: CV {}% vs {}%",
                row.trace.label(),
                s.cv_percent(),
                row.cv_percent
            );
        }
    }

    #[test]
    fn traces_are_deterministic() {
        // A fresh synthesis reproduces the memoized trace.
        for which in [PaperTrace::RfCart, PaperTrace::Pedestrian] {
            assert_eq!(*paper_trace(which), synthesize(which));
        }
    }

    #[test]
    fn pedestrian_matches_section_2_1_structure() {
        let t = paper_trace(PaperTrace::Pedestrian);
        let spike_energy = t.energy_fraction_above(Watts::from_milli(10.0));
        let low_time = t.time_fraction_below(Watts::from_milli(3.0));
        assert!(
            (spike_energy - 0.82).abs() < 0.08,
            "spike energy share {spike_energy}"
        );
        assert!(
            (low_time - 0.77).abs() < 0.05,
            "low-power time share {low_time}"
        );
    }

    #[test]
    fn night_trace_is_microwatt_scale() {
        let t = paper_trace(PaperTrace::SolarNight);
        let s = t.stats();
        assert!(s.mean_power.to_micro() < 100.0);
        assert!(s.mean_power.to_micro() > 10.0);
    }

    #[test]
    fn labels_are_table_style() {
        assert_eq!(PaperTrace::RfCart.label(), "RF Cart");
        assert_eq!(PaperTrace::SolarCommute.label(), "Sol. Comm.");
        assert_eq!(PaperTrace::EVALUATION.len(), 5);
    }
}
