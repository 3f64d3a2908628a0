//! REACT configuration: thresholds, bank layout, and the §3.3.5 sizing
//! constraints (Equations 1 and 2).

use react_circuit::{BankSpec, CapacitorSpec};
use react_units::{Farads, Ohms, Seconds, Volts, Watts};

/// The most configurable banks a [`ReactConfig`] may declare. The
/// buffer's per-bank scratch lives in fixed-size arrays of this length
/// (the paper's prototype has five banks).
pub const MAX_BANKS: usize = 8;

/// Error validating a [`ReactConfig`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// Threshold ordering broken (needs `v_low < v_high ≤ rail clamp`).
    BadThresholds,
    /// A bank violates Eq. 2: its parallel→series boost at `v_low` would
    /// overshoot `v_high` at the last-level buffer.
    BankTooLarge {
        /// Index of the offending bank (0-based, excluding the LLB).
        bank: usize,
        /// The unit-capacitance limit from Eq. 2.
        limit: Farads,
    },
    /// No banks configured.
    NoBanks,
    /// More banks than [`MAX_BANKS`].
    TooManyBanks,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadThresholds => write!(f, "thresholds must satisfy v_low < v_high"),
            Self::BankTooLarge { bank, limit } => write!(
                f,
                "bank {bank} unit capacitance exceeds the Eq. 2 limit of {limit:.1}"
            ),
            Self::NoBanks => write!(f, "at least one configurable bank is required"),
            Self::TooManyBanks => write!(f, "at most {MAX_BANKS} configurable banks are supported"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full REACT configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ReactConfig {
    /// The last-level buffer (bank 0 in Table 1).
    pub llb: CapacitorSpec,
    /// Configurable banks in connection order (banks 1–5 in Table 1).
    pub banks: Vec<BankSpec>,
    /// Rail overvoltage clamp (Fig. 6: clipping at 3.6 V).
    pub rail_clamp: Volts,
    /// Upper comparator threshold (buffer near capacity): 3.5 V (§5.1).
    pub v_high: Volts,
    /// Lower comparator threshold (buffer near empty).
    pub v_low: Volts,
    /// Software polling period (§5.1 characterizes 10 Hz).
    pub poll_period: Seconds,
    /// Quiescent draw per *connected* bank (§5.1: ≈68 µW total over five
    /// banks, ≈13.6 µW each).
    pub overhead_per_bank: Watts,
    /// Always-on instrumentation draw (two comparators).
    pub instrumentation_overhead: Watts,
    /// Ideal-diode on-resistance (LM66100-class).
    pub diode_r: Ohms,
    /// Charge reclamation (§3.3.4): when `true` (the paper's design), a
    /// near-empty signal boosts parallel banks into series before
    /// disconnecting them; when `false`, banks are simply disconnected —
    /// the strawman §3.3.4 compares against (N² more stranded energy).
    pub charge_reclamation: bool,
}

impl ReactConfig {
    /// The paper's prototype: Table 1 banks, 770 µF LLB, 3.5 V / 1.9 V
    /// thresholds, 10 Hz polling.
    pub fn paper_prototype() -> Self {
        let ceramic = |uf: f64| CapacitorSpec::ceramic_scaled(Farads::from_micro(uf));
        Self {
            llb: ceramic(770.0),
            banks: vec![
                BankSpec::new(ceramic(220.0), 3),
                BankSpec::new(ceramic(440.0), 3),
                BankSpec::new(ceramic(880.0), 3),
                BankSpec::new(ceramic(880.0), 3),
                BankSpec::new(CapacitorSpec::supercap_5mf(), 2),
            ],
            rail_clamp: Volts::new(3.6),
            v_high: Volts::new(3.5),
            v_low: Volts::new(1.9),
            poll_period: Seconds::new(0.1),
            overhead_per_bank: Watts::from_micro(13.6),
            instrumentation_overhead: Watts::from_micro(1.0),
            diode_r: Ohms::new(0.079),
            charge_reclamation: true,
        }
    }

    /// Maximum total capacitance (LLB + every bank in parallel).
    pub fn max_capacitance(&self) -> Farads {
        self.llb.capacitance
            + self
                .banks
                .iter()
                .map(|b| b.parallel_capacitance())
                .sum::<Farads>()
    }

    /// Minimum (cold-start) capacitance: just the LLB.
    pub fn min_capacitance(&self) -> Farads {
        self.llb.capacitance
    }

    /// Eq. 1: last-level buffer voltage after boosting a bank of `n`
    /// unit capacitors (`c_unit` each) from parallel to series at
    /// `v_low`.
    pub fn eq1_post_boost_voltage(&self, c_unit: Farads, n: usize) -> Volts {
        let nf = n as f64;
        let c_ser = c_unit.get() / nf;
        let c_last = self.llb.capacitance.get();
        let v_low = self.v_low.get();
        Volts::new((nf * v_low) * c_ser / (c_last + c_ser) + v_low * c_last / (c_last + c_ser))
    }

    /// Eq. 2: the unit-capacitance ceiling for a bank of `n` capacitors.
    /// Returns `None` when the constraint does not bind
    /// (`n·v_low ≤ v_high`).
    pub fn eq2_unit_capacitance_limit(&self, n: usize) -> Option<Farads> {
        let nf = n as f64;
        let (v_low, v_high) = (self.v_low.get(), self.v_high.get());
        if nf * v_low <= v_high {
            return None;
        }
        let c_last = self.llb.capacitance.get();
        Some(Farads::new(
            nf * c_last * (v_high - v_low) / (nf * v_low - v_high),
        ))
    }

    /// Validates thresholds and every bank against Eq. 2.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.v_low < self.v_high && self.v_high <= self.rail_clamp) {
            return Err(ConfigError::BadThresholds);
        }
        if self.banks.is_empty() {
            return Err(ConfigError::NoBanks);
        }
        if self.banks.len() > MAX_BANKS {
            return Err(ConfigError::TooManyBanks);
        }
        for (i, bank) in self.banks.iter().enumerate() {
            if let Some(limit) = self.eq2_unit_capacitance_limit(bank.count) {
                if bank.unit.capacitance > limit {
                    return Err(ConfigError::BankTooLarge { bank: i, limit });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prototype_matches_table_1() {
        let c = ReactConfig::paper_prototype();
        assert!((c.llb.capacitance.to_micro() - 770.0).abs() < 1e-9);
        assert_eq!(c.banks.len(), 5);
        let sizes: Vec<f64> = c
            .banks
            .iter()
            .map(|b| b.unit.capacitance.to_micro())
            .collect();
        for (got, want) in sizes.iter().zip([220.0, 440.0, 880.0, 880.0, 5000.0]) {
            assert!((got - want).abs() < 1e-6, "bank size {got} vs {want}");
        }
        let counts: Vec<usize> = c.banks.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![3, 3, 3, 3, 2]);
        // Range 770 µF – 18.03 mF as §4 reports.
        assert!((c.min_capacitance().to_micro() - 770.0).abs() < 1e-9);
        assert!((c.max_capacitance().to_milli() - 18.03).abs() < 1e-3);
    }

    #[test]
    fn paper_prototype_satisfies_eq2() {
        assert_eq!(ReactConfig::paper_prototype().validate(), Ok(()));
    }

    #[test]
    fn eq2_limit_values() {
        let c = ReactConfig::paper_prototype();
        // N = 3: 3·770µ·(3.5−1.9)/(3·1.9−3.5) = 3·770µ·1.6/2.2 = 1680 µF.
        let lim3 = c.eq2_unit_capacitance_limit(3).unwrap();
        assert!((lim3.to_micro() - 3.0 * 770.0 * 1.6 / 2.2).abs() < 1e-6);
        // N = 2: 2·770µ·1.6/0.3 ≈ 8213 µF — the 5 mF supercap bank fits.
        let lim2 = c.eq2_unit_capacitance_limit(2).unwrap();
        assert!(lim2.to_micro() > 5000.0);
        // N = 1: 1·1.9 < 3.5 → unconstrained.
        assert_eq!(c.eq2_unit_capacitance_limit(1), None);
    }

    #[test]
    fn eq1_boost_stays_below_v_high_for_paper_banks() {
        let c = ReactConfig::paper_prototype();
        for bank in &c.banks {
            let v = c.eq1_post_boost_voltage(bank.unit.capacitance, bank.count);
            assert!(v <= c.v_high, "bank boost to {v:?} exceeds v_high");
            // And the boost actually raises the LLB above v_low.
            if bank.count as f64 * c.v_low.get() > c.v_low.get() {
                assert!(v > c.v_low);
            }
        }
    }

    #[test]
    fn oversized_bank_fails_validation() {
        let mut c = ReactConfig::paper_prototype();
        c.banks[0] = BankSpec::new(CapacitorSpec::ceramic_scaled(Farads::from_milli(5.0)), 3);
        match c.validate() {
            Err(ConfigError::BankTooLarge { bank: 0, .. }) => {}
            other => panic!("expected BankTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bad_thresholds_fail_validation() {
        let mut c = ReactConfig::paper_prototype();
        c.v_low = Volts::new(3.6);
        assert_eq!(c.validate(), Err(ConfigError::BadThresholds));
        let mut c2 = ReactConfig::paper_prototype();
        c2.v_high = Volts::new(5.0); // above the rail clamp
        assert_eq!(c2.validate(), Err(ConfigError::BadThresholds));
    }

    #[test]
    fn empty_banks_fail_validation() {
        let mut c = ReactConfig::paper_prototype();
        c.banks.clear();
        assert_eq!(c.validate(), Err(ConfigError::NoBanks));
        let mut c = ReactConfig::paper_prototype();
        let bank = c.banks[0];
        c.banks.resize(MAX_BANKS + 1, bank);
        assert_eq!(c.validate(), Err(ConfigError::TooManyBanks));
    }

    #[test]
    fn config_error_display() {
        let e = ConfigError::BankTooLarge {
            bank: 2,
            limit: Farads::from_micro(100.0),
        };
        assert!(format!("{e}").contains("bank 2"));
    }
}
