//! Per-run metrics: what the paper's tables are made of.

use react_circuit::EnergyLedger;
use react_units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

/// Everything measured over one simulated deployment.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Completed benchmark operations (Table 2 / Table 5 "Tx").
    pub ops_completed: u64,
    /// Operations lost to power failure.
    pub ops_failed: u64,
    /// Secondary count (Table 5 "Rx" for PF).
    pub aux_completed: u64,
    /// External events the system could not serve.
    pub events_missed: u64,
    /// Time from cold start to the first gate-enable (Table 4). `None`
    /// if the system never started.
    pub first_on_latency: Option<Seconds>,
    /// Total time the power gate was closed.
    pub on_time: Seconds,
    /// Total simulated time (trace + drain).
    pub total_time: Seconds,
    /// Completed power cycles (gate close → open).
    pub boots: u64,
    /// Mean uninterrupted on-period (the §2.1.1 longevity measure).
    pub mean_on_period: Seconds,
    /// Longest uninterrupted on-period.
    pub max_on_period: Seconds,
    /// Longest outage *survived*: the longest span the gate stayed open
    /// that still ended in a reboot (includes the cold start; excludes
    /// the trailing drain-out the system never returns from). The
    /// scenario report's persistence column.
    pub max_off_period: Seconds,
    /// Kernel iterations the engine executed: fine steps plus coarse
    /// idle strides. The adaptive/fixed ratio of this count is the
    /// structural speedup of a run, which tier-1 tests pin.
    pub engine_steps: u64,
    /// Capacitance reconfigurations the buffer's controller performed
    /// (REACT bank switches, Morphy ladder moves; zero for statics).
    pub reconfigurations: u64,
    /// Spans where the kernel's invariant guard tripped (non-finite
    /// harvest power or rail voltage) and the engine degraded to
    /// fine-stepping instead of propagating garbage. Zero for every
    /// well-posed run — the kernel-equivalence suite asserts it.
    #[serde(default)]
    pub guard_fallbacks: u64,
    /// Energy-attack alarms the defense raised (0 when undefended).
    #[serde(default)]
    pub detections: u64,
    /// Alarms that cleared with no suspicious activity after the raise
    /// — benign variance mistaken for an attack.
    #[serde(default)]
    pub false_positives: u64,
    /// Capacitance reconfigurations commanded by the *defense* (also
    /// included in [`reconfigurations`](Self::reconfigurations)).
    #[serde(default)]
    pub defensive_reconfigurations: u64,
    /// Hardware-drift fault events the fault plan injected mid-run.
    #[serde(default)]
    pub faults_injected: u64,
    /// Committed strides the invariant auditor cross-checked.
    #[serde(default)]
    pub audit_checks: u64,
    /// Auditor divergences: strides whose cross-checks failed, each
    /// permanently degrading the affected regime's fast path to fine
    /// stepping. Zero for every benign run — the fault suite asserts it.
    #[serde(default)]
    pub audit_trips: u64,
    /// Time spent at each capacitance level (§3.4.1 surrogate), in
    /// ascending level order. Empty for buffers without levels.
    pub capacitance_dwell: Vec<LevelDwell>,
    /// Energy accounting.
    pub ledger: EnergyLedger,
    /// Stored energy at the start of the run.
    pub initial_stored: Joules,
    /// Stored energy left at the end of the run.
    pub final_stored: Joules,
}

/// Time spent at one capacitance level over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LevelDwell {
    /// The buffer's capacitance level (bank/ladder step).
    pub level: u32,
    /// Seconds spent at that level.
    pub seconds: f64,
}

impl RunMetrics {
    /// Seconds the buffer spent at capacitance `level` (0.0 if never).
    pub fn dwell_at(&self, level: u32) -> f64 {
        self.capacitance_dwell
            .iter()
            .find(|d| d.level == level)
            .map_or(0.0, |d| d.seconds)
    }

    /// Fraction of the run the system was on (§2.1.2 operational duty).
    pub fn duty_cycle(&self) -> f64 {
        if self.total_time.get() <= 0.0 {
            0.0
        } else {
            self.on_time.get() / self.total_time.get()
        }
    }

    /// Conservation residual relative to harvested energy; ≈0 for a
    /// sound simulation.
    pub fn relative_conservation_error(&self) -> f64 {
        let scale = self
            .ledger
            .harvested
            .get()
            .max(self.initial_stored.get())
            .max(1e-12);
        self.ledger
            .conservation_residual(self.initial_stored, self.final_stored)
            .get()
            .abs()
            / scale
    }
}

/// One probed sample of the run (Fig. 1 / Fig. 6 series).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VoltageSample {
    /// Wall-clock time in seconds.
    pub time_s: f64,
    /// Buffer rail voltage in volts.
    pub voltage_v: f64,
    /// Whether the system was on.
    pub on: bool,
    /// Equivalent buffer capacitance in farads (REACT/Morphy vary it).
    pub capacitance_f: f64,
}

/// A finished run: metrics plus the optional probe series.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Scalar results.
    pub metrics: RunMetrics,
    /// Voltage series (present when probing was enabled).
    pub voltage_series: Vec<VoltageSample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle() {
        let m = RunMetrics {
            on_time: Seconds::new(25.0),
            total_time: Seconds::new(100.0),
            ..Default::default()
        };
        assert!((m.duty_cycle() - 0.25).abs() < 1e-12);
        assert_eq!(RunMetrics::default().duty_cycle(), 0.0);
    }

    #[test]
    fn conservation_error_zero_for_balanced() {
        let mut m = RunMetrics::default();
        m.ledger.delivered = Joules::new(2.0);
        m.ledger.load_consumed = Joules::new(1.5);
        m.final_stored = Joules::new(0.5);
        m.ledger.harvested = Joules::new(2.0);
        assert!(m.relative_conservation_error() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let m = RunMetrics {
            ops_completed: 42,
            first_on_latency: Some(Seconds::new(6.65)),
            ..Default::default()
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
