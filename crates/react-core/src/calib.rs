//! Calibration constants — the single source of truth README's
//! "Calibration and workload costs" section points at.
//!
//! Everything tunable in the reproduction lives here or is re-exported
//! here, with provenance:
//!
//! | Constant | Value | Source |
//! |----------|-------|--------|
//! | MCU active current | 1.5 mA | paper §2.1 "representative deployment" |
//! | Enable / brown-out | 3.3 V / 1.8 V | paper §4 |
//! | Rail clamp | 3.6 V | paper Fig. 6 clipping level |
//! | V_high / V_low | 3.5 V / 1.9 V | paper §5.1 / §3.3.5 worked example |
//! | Poll rate | 10 Hz | paper §5.1 |
//! | REACT HW overhead | ≈68 µW (13.6 µW/bank) | paper §5.1 |
//! | REACT SW overhead | 1.8 % CPU | paper §5.1 |
//! | Op costs | see `react_workloads::costs` | datasheets + §4.2 |

use react_traces::PaperTrace;
use react_units::{Seconds, Volts};

/// Default simulation timestep (1 ms).
pub const DEFAULT_DT: Seconds = Seconds::new(0.001);

/// Power-gate enable voltage (§4).
pub const ENABLE_VOLTAGE: Volts = Volts::new(3.3);

/// Power-gate brown-out voltage (§4).
pub const BROWNOUT_VOLTAGE: Volts = Volts::new(1.8);

/// Fraction of CPU time REACT's 10 Hz software poller consumes (§5.1).
pub const REACT_SOFTWARE_OVERHEAD: f64 = 0.018;

/// How long past the end of the trace a simulation may run while the
/// system drains its stored energy (§5: "we let the system run until it
/// drains the buffer capacitor").
pub const MAX_DRAIN_TIME: Seconds = Seconds::new(7200.0);

/// Shortest MCU-off stretch the adaptive kernel hands to the analytic
/// idle integrator; anything shorter runs through the fine-step path,
/// where per-stride bookkeeping would cost more than it saves. Four
/// default timesteps is well under every trace's 100 ms sample window.
pub const MIN_COARSE_STRIDE: Seconds = Seconds::new(0.004);

/// Packet-arrival rate (packets/second) for the PF benchmark on each
/// evaluation trace. Derived from the packet counts in the paper's
/// Table 5 so the offered load matches the original experiment's scale.
pub fn pf_arrival_rate(trace: PaperTrace) -> f64 {
    match trace {
        PaperTrace::RfCart => 0.16,
        PaperTrace::RfObstructed => 0.013,
        PaperTrace::RfMobile => 0.10,
        PaperTrace::SolarCampus => 0.080,
        PaperTrace::SolarCommute => 0.014,
        PaperTrace::Pedestrian | PaperTrace::SolarNight => 0.05,
    }
}

/// Seed for each trace's PF arrival schedule (fixed for
/// reproducibility).
pub fn pf_arrival_seed(trace: PaperTrace) -> u64 {
    0xAF_2024_0000 + trace as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the invariants
    fn constants_are_consistent() {
        assert!(BROWNOUT_VOLTAGE < ENABLE_VOLTAGE);
        assert!((DEFAULT_DT.to_milli() - 1.0).abs() < 1e-12);
        assert!(REACT_SOFTWARE_OVERHEAD > 0.0 && REACT_SOFTWARE_OVERHEAD < 0.1);
    }

    #[test]
    fn pf_rates_track_table5_ordering() {
        // The cart trace sees the most packets, the obstructed the
        // fewest — matching Table 5's offered load.
        assert!(pf_arrival_rate(PaperTrace::RfCart) > pf_arrival_rate(PaperTrace::RfMobile));
        assert!(
            pf_arrival_rate(PaperTrace::RfObstructed) < pf_arrival_rate(PaperTrace::SolarCampus)
        );
    }

    #[test]
    fn pf_seeds_are_distinct() {
        let mut seeds: Vec<u64> = PaperTrace::EVALUATION
            .iter()
            .map(|&t| pf_arrival_seed(t))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5);
    }
}
