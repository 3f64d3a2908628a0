//! End-to-end energy accounting.
//!
//! Every joule that enters or leaves a buffer during a simulation is
//! recorded here, so experiments can report *where the energy went* —
//! the paper's efficiency arguments (§2.1.2, §5.5) are claims about this
//! breakdown — and so property tests can assert conservation.

use react_units::Joules;

/// Per-run energy accounting. All fields are cumulative joules.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnergyLedger {
    /// Energy made available by the harvester frontend (converter output).
    pub harvested: Joules,
    /// Energy accepted into the buffer capacitors.
    pub delivered: Joules,
    /// Energy burned by overvoltage protection when the buffer was full.
    pub clipped: Joules,
    /// Energy lost to capacitor leakage.
    pub leaked: Joules,
    /// Energy dissipated in isolation/ideal diodes.
    pub diode_loss: Joules,
    /// Energy dissipated by switching (equalization current surges).
    pub switch_loss: Joules,
    /// Energy delivered to the computational load.
    pub load_consumed: Joules,
    /// Energy consumed by the buffer's own management hardware/software.
    pub overhead_consumed: Joules,
}

impl EnergyLedger {
    /// A fresh, all-zero ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books one harvester deposit: `delivered` entered storage and
    /// `clipped` burned in overvoltage protection; the harvester made
    /// both available.
    #[inline]
    pub fn deposit(&mut self, delivered: Joules, clipped: Joules) {
        self.delivered += delivered;
        self.clipped += clipped;
        self.harvested += delivered + clipped;
    }

    /// Closes an idle stride against the committed stored-energy change
    /// `delta_e`: it books `leaked` and the management `drained`, then
    /// deposits `delivered = max(ΔE + leaked + drained, 0)` beside
    /// `clipped`, so the conservation residual stays exactly zero unless
    /// the clamp at zero bites.
    #[inline]
    pub fn close_net(&mut self, delta_e: Joules, leaked: Joules, drained: Joules, clipped: Joules) {
        let delivered = (delta_e + leaked + drained).max(Joules::ZERO);
        self.leaked += leaked;
        self.overhead_consumed += drained;
        self.deposit(delivered, clipped);
    }

    /// Closes a powered stride on gross delivery: `G = max(ΔE + leaked +
    /// load + drained + clipped, 0)` is what the harvester made
    /// available, of which `G − clipped` entered storage. Books `leaked`,
    /// `load`, `drained` and `clipped` as given.
    #[inline]
    pub fn close_gross(
        &mut self,
        delta_e: Joules,
        leaked: Joules,
        load: Joules,
        drained: Joules,
        clipped: Joules,
    ) {
        let gross = (delta_e + leaked + load + drained + clipped).max(Joules::ZERO);
        self.leaked += leaked;
        self.load_consumed += load;
        self.overhead_consumed += drained;
        self.clipped += clipped;
        self.delivered += gross - clipped;
        self.harvested += gross;
    }

    /// Sum of all recorded outflows and losses (everything except
    /// `harvested`/`delivered`, which are inflows).
    pub fn total_outflow(&self) -> Joules {
        self.clipped
            + self.leaked
            + self.diode_loss
            + self.switch_loss
            + self.load_consumed
            + self.overhead_consumed
    }

    /// Conservation residual: `delivered + initial_stored − outflows −
    /// final_stored`, where outflows are everything drawn *from the
    /// stored pool* (leakage, switch and diode dissipation, load,
    /// overhead). Clipped energy never enters the pool (`harvested =
    /// delivered + clipped`), so it is excluded. Should be ~0 for a
    /// correct simulation.
    pub fn conservation_residual(&self, initial_stored: Joules, final_stored: Joules) -> Joules {
        self.delivered + initial_stored
            - (self.leaked
                + self.switch_loss
                + self.diode_loss
                + self.load_consumed
                + self.overhead_consumed
                + final_stored)
    }

    /// Fraction of harvested energy that reached the load; the paper's
    /// end-to-end efficiency notion (§5.5). Zero if nothing harvested.
    pub fn end_to_end_efficiency(&self) -> f64 {
        if self.harvested.get() <= 0.0 {
            0.0
        } else {
            self.load_consumed.get() / self.harvested.get()
        }
    }

    /// Merges another ledger into this one (for aggregating runs).
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.harvested += other.harvested;
        self.delivered += other.delivered;
        self.clipped += other.clipped;
        self.leaked += other.leaked;
        self.diode_loss += other.diode_loss;
        self.switch_loss += other.switch_loss;
        self.load_consumed += other.load_consumed;
        self.overhead_consumed += other.overhead_consumed;
    }
}

impl std::fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "harvested:  {:>10.3} mJ", self.harvested.to_milli())?;
        writeln!(f, "delivered:  {:>10.3} mJ", self.delivered.to_milli())?;
        writeln!(f, "clipped:    {:>10.3} mJ", self.clipped.to_milli())?;
        writeln!(f, "leaked:     {:>10.3} mJ", self.leaked.to_milli())?;
        writeln!(f, "diode loss: {:>10.3} mJ", self.diode_loss.to_milli())?;
        writeln!(f, "switch loss:{:>10.3} mJ", self.switch_loss.to_milli())?;
        writeln!(f, "load:       {:>10.3} mJ", self.load_consumed.to_milli())?;
        write!(
            f,
            "overhead:   {:>10.3} mJ",
            self.overhead_consumed.to_milli()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outflow_sums_everything_but_inflows() {
        let ledger = EnergyLedger {
            harvested: Joules::new(10.0),
            delivered: Joules::new(9.0),
            clipped: Joules::new(1.0),
            leaked: Joules::new(0.5),
            diode_loss: Joules::new(0.1),
            switch_loss: Joules::new(0.2),
            load_consumed: Joules::new(6.0),
            overhead_consumed: Joules::new(0.3),
        };
        assert!((ledger.total_outflow().get() - 8.1).abs() < 1e-12);
    }

    #[test]
    fn conservation_residual_zero_when_balanced() {
        let ledger = EnergyLedger {
            delivered: Joules::new(5.0),
            leaked: Joules::new(1.0),
            load_consumed: Joules::new(3.0),
            ..Default::default()
        };
        let r = ledger.conservation_residual(Joules::new(0.5), Joules::new(1.5));
        assert!(r.get().abs() < 1e-12);
    }

    fn j(x: f64) -> Joules {
        Joules::new(x)
    }

    #[test]
    fn deposit_books_delivered_and_clipped_as_harvested() {
        let mut ledger = EnergyLedger::new();
        ledger.deposit(j(0.75), j(0.25));
        let want = EnergyLedger {
            harvested: j(1.0),
            delivered: j(0.75),
            clipped: j(0.25),
            ..Default::default()
        };
        assert_eq!(ledger, want);
    }

    #[test]
    fn net_closure_books_exactly_its_operands() {
        let mut ledger = EnergyLedger::new();
        // ΔE = 1, leaked 0.5, drained 0.25, clipped 0.125.
        ledger.close_net(j(1.0), j(0.5), j(0.25), j(0.125));
        let want = EnergyLedger {
            harvested: j(1.875),
            delivered: j(1.75),
            clipped: j(0.125),
            leaked: j(0.5),
            overhead_consumed: j(0.25),
            ..Default::default()
        };
        assert_eq!(ledger, want);
    }

    #[test]
    fn gross_closure_books_exactly_its_operands() {
        let mut ledger = EnergyLedger::new();
        // ΔE = −1, leaked 0.5, load 2, drained 0.25, clipped 0.125:
        // G = 1.875, of which 1.75 entered storage.
        ledger.close_gross(j(-1.0), j(0.5), j(2.0), j(0.25), j(0.125));
        let want = EnergyLedger {
            harvested: j(1.875),
            delivered: j(1.75),
            clipped: j(0.125),
            leaked: j(0.5),
            load_consumed: j(2.0),
            overhead_consumed: j(0.25),
            ..Default::default()
        };
        assert_eq!(ledger, want);
    }

    /// The closures derive `delivered` from the committed ΔE, so the
    /// residual is zero while ΔE + outflows ≥ 0. Below that, the clamp
    /// at zero books no delivery and the residual is exactly the amount
    /// clamped away.
    #[test]
    fn closure_residual_is_zero_until_the_clamp_bites() {
        let (e0, leaked, load, drained) = (4.0, 0.5, 0.25, 0.125);
        for delta_e in [1.0, 0.0, -0.625, -0.875, -1.5] {
            let e1 = j(e0 + delta_e);
            let mut net = EnergyLedger::new();
            net.close_net(j(delta_e), j(leaked), j(drained), j(0.0625));
            let clamped = -(delta_e + leaked + drained).min(0.0);
            assert_eq!(net.conservation_residual(j(e0), e1), j(clamped));

            let mut gross = EnergyLedger::new();
            gross.close_gross(j(delta_e), j(leaked), j(load), j(drained), j(0.0625));
            let clamped = -(delta_e + leaked + load + drained + 0.0625).min(0.0);
            assert_eq!(gross.conservation_residual(j(e0), e1), j(clamped));
        }
    }

    #[test]
    fn efficiency_is_load_over_harvested() {
        let ledger = EnergyLedger {
            harvested: Joules::new(8.0),
            load_consumed: Joules::new(2.0),
            ..Default::default()
        };
        assert!((ledger.end_to_end_efficiency() - 0.25).abs() < 1e-12);
        assert_eq!(EnergyLedger::new().end_to_end_efficiency(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyLedger {
            harvested: Joules::new(1.0),
            load_consumed: Joules::new(0.5),
            ..Default::default()
        };
        let b = EnergyLedger {
            harvested: Joules::new(2.0),
            switch_loss: Joules::new(0.25),
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.harvested.get() - 3.0).abs() < 1e-12);
        assert!((a.switch_loss.get() - 0.25).abs() < 1e-12);
        assert!((a.load_consumed.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_every_field() {
        let s = format!("{}", EnergyLedger::new());
        for key in [
            "harvested",
            "delivered",
            "clipped",
            "leaked",
            "diode",
            "switch",
            "load",
            "overhead",
        ] {
            assert!(s.contains(key), "display missing {key}");
        }
    }
}
