//! Morphy-style fully-interconnected capacitor network (Fig. 4, §3.3.1).
//!
//! Morphy \[49\] wires a set of equal capacitors through a switch fabric so
//! software can realize many equivalent capacitances: any *partition* of
//! the capacitors into series chains, with the chains placed in parallel.
//! Unlike REACT's isolated banks, reconfiguration connects chains at
//! different voltages in parallel, so charge surges through the switches
//! and energy is dissipated — the paper's Fig. 5 waste, reproduced here
//! exactly (25 % for the 4-capacitor example, 56.25 % for the 8-capacitor
//! one; see this module's tests).

use std::fmt;

use react_units::{Coulombs, Farads, Joules, Seconds, Volts};

use crate::{Capacitor, CapacitorSpec, EqualizeOutcome};

/// A partition of `n` capacitors into series chains placed in parallel.
///
/// `chains[j]` is the length of chain `j`; lengths must sum to the number
/// of capacitors in the network.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Partition {
    chains: Vec<usize>,
}

/// Error building a [`Partition`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A chain had length zero.
    EmptyChain,
    /// No chains at all.
    NoChains,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyChain => write!(f, "partition contains an empty chain"),
            Self::NoChains => write!(f, "partition contains no chains"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl Partition {
    /// Builds a partition from chain lengths.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if `chains` is empty or contains a zero
    /// length.
    pub fn new(chains: Vec<usize>) -> Result<Self, PartitionError> {
        if chains.is_empty() {
            return Err(PartitionError::NoChains);
        }
        if chains.contains(&0) {
            return Err(PartitionError::EmptyChain);
        }
        Ok(Self { chains })
    }

    /// All capacitors in one series chain.
    pub fn all_series(n: usize) -> Self {
        Self::new(vec![n]).expect("n > 0")
    }

    /// All capacitors in parallel.
    pub fn all_parallel(n: usize) -> Self {
        Self::new(vec![1; n]).expect("n > 0")
    }

    /// Chain lengths.
    pub fn chains(&self) -> &[usize] {
        &self.chains
    }

    /// Number of capacitors covered.
    pub fn capacitor_count(&self) -> usize {
        self.chains.iter().sum()
    }

    /// Equivalent capacitance for unit capacitance `c`:
    /// `Σ_j c / L_j` (chains in parallel, each chain `c/L`).
    pub fn equivalent_capacitance(&self, c: Farads) -> Farads {
        Farads::new(self.chains.iter().map(|&l| c.get() / l as f64).sum())
    }
}

/// The live network: per-capacitor charge plus the active partition.
///
/// The network keeps its derived sums current across every mutation
/// instead of re-summing them on each query: the per-chain capacitances
/// `c_unit/L` and the terminal capacitance (per partition), and the
/// chain voltages, the terminal voltage and the stored energy (per
/// charge change). Each is computed by the same expression, summed in
/// the same order, as a fresh pass over the capacitors would, so every
/// query answers bit for bit what it did when it re-summed. A fine step
/// mutates the network four times (equalize, leak, draw, deposit) and
/// queries it a dozen times; the queries are now free.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainNetwork {
    caps: Vec<Capacitor>,
    partition: Partition,
    /// `c_unit / L` for each chain, in partition order.
    chain_c: Vec<f64>,
    /// `Σ c_unit / L`: the terminal capacitance.
    c_terminal: f64,
    /// Each chain's terminal voltage (the sum of its capacitors').
    chain_v: Vec<f64>,
    /// Capacitance-weighted mean chain voltage.
    v_terminal: f64,
    /// Energy stored across all capacitors, summed in index order.
    energy: f64,
}

impl ChainNetwork {
    /// Creates a network of `n` empty unit capacitors in the given
    /// starting partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly `n` capacitors.
    pub fn new(unit: CapacitorSpec, n: usize, start: Partition) -> Self {
        assert_eq!(
            start.capacitor_count(),
            n,
            "partition must cover all {n} capacitors"
        );
        let mut network = Self {
            caps: vec![Capacitor::new(unit); n],
            partition: start,
            chain_c: Vec::new(),
            c_terminal: 0.0,
            chain_v: Vec::new(),
            v_terminal: 0.0,
            energy: 0.0,
        };
        network.refresh_partition();
        network.refresh_charge();
        network
    }

    /// Recomputes the per-partition sums: each chain's `c_unit / L` and
    /// their total (the [`Partition::equivalent_capacitance`] sum).
    fn refresh_partition(&mut self) {
        let c_unit = self.caps[0].spec().capacitance.get();
        self.chain_c.clear();
        self.chain_c
            .extend(self.partition.chains().iter().map(|&l| c_unit / l as f64));
        self.c_terminal = self.chain_c.iter().sum();
    }

    /// Recomputes the per-charge sums after the capacitors moved: chain
    /// voltages, the terminal voltage and the stored energy.
    fn refresh_charge(&mut self) {
        self.chain_v.clear();
        let (mut start, mut num, mut den) = (0, 0.0, 0.0);
        for (&len, &chain_c) in self.partition.chains().iter().zip(&self.chain_c) {
            let v = chain_voltage(&self.caps[start..start + len]);
            start += len;
            self.chain_v.push(v);
            num += chain_c * v;
            den += chain_c;
        }
        self.v_terminal = num / den;
        self.energy = self.caps.iter().map(|c| c.energy().get()).sum();
    }

    /// The active partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Equivalent capacitance at the terminals.
    #[inline]
    pub fn terminal_capacitance(&self) -> Farads {
        Farads::new(self.c_terminal)
    }

    /// Terminal voltage: the (common) chain voltage. With chains placed in
    /// parallel, all chain voltages are equal after reconfiguration; we
    /// report the capacitance-weighted mean to stay well-defined mid-step.
    #[inline]
    pub fn terminal_voltage(&self) -> Volts {
        Volts::new(self.v_terminal)
    }

    /// Total stored energy across all capacitors.
    #[inline]
    pub fn stored_energy(&self) -> Joules {
        Joules::new(self.energy)
    }

    /// The unit capacitor spec shared by every capacitor.
    pub fn unit_spec(&self) -> &CapacitorSpec {
        self.caps[0].spec()
    }

    /// Lowest and highest chain terminal voltage (the fast-path guard
    /// checks these agree before coarse-integrating).
    pub fn chain_voltage_range(&self) -> (Volts, Volts) {
        let (lo, hi) = self
            .chain_v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        (Volts::new(lo), Volts::new(hi))
    }

    /// Commits a closed-form idle solution in one pass: every chain's
    /// terminal lands on `v_end` while within-chain imbalance (each
    /// capacitor's offset from its chain mean) decays by
    /// `decay = e^{−(g/C)·T}`. Only valid when the chains share a common
    /// terminal voltage — the idle-phase invariant the fast path checks
    /// with [`chain_voltage_range`].
    ///
    /// Returns the within-chain imbalance *before* the commit (the sum
    /// over capacitors of the squared offset from their chain mean,
    /// whose decay the fast path books as leakage) and the
    /// [`stored_energy`] and [`terminal_voltage`] *after* it.
    ///
    /// [`chain_voltage_range`]: Self::chain_voltage_range
    /// [`stored_energy`]: Self::stored_energy
    /// [`terminal_voltage`]: Self::terminal_voltage
    pub fn commit_idle_solution(&mut self, v_end: Volts, decay: f64) -> (f64, Joules, Volts) {
        let mut imbalance = 0.0;
        let chains = chains_mut(&mut self.caps, self.partition.chains());
        for (chain, &chain_v) in chains.zip(&self.chain_v) {
            let n = chain.len() as f64;
            let mean0 = chain_v / n;
            let mean1 = v_end.get() / n;
            for cap in chain {
                let w = cap.voltage().get() - mean0;
                imbalance += w * w;
                cap.set_voltage(Volts::new(mean1 + w * decay));
            }
        }
        self.refresh_charge();
        (imbalance, self.stored_energy(), self.terminal_voltage())
    }

    /// Sets every chain's terminal voltage to `v`, balancing the
    /// capacitors within each chain (test setup).
    pub fn set_chain_terminals(&mut self, v: Volts) {
        for chain in chains_mut(&mut self.caps, self.partition.chains()) {
            let unit_v = Volts::new(v.get() / chain.len() as f64);
            for cap in chain {
                cap.set_voltage(unit_v);
            }
        }
        self.refresh_charge();
    }

    /// Forces every capacitor to voltage `v` (test setup).
    pub fn set_all_voltages(&mut self, v: Volts) {
        for cap in &mut self.caps {
            cap.set_voltage(v);
        }
        self.refresh_charge();
    }

    /// Reconfigures to a new partition. Capacitor assignment is by index:
    /// the first `L₀` capacitors form chain 0, and so on. After the
    /// switches settle, the chains — now in parallel — equalize their
    /// terminal voltages through the fabric, dissipating energy.
    ///
    /// Returns the equalization outcome (dissipated energy is the
    /// Fig. 5 switching waste).
    ///
    /// # Panics
    ///
    /// Panics if the new partition does not cover every capacitor.
    pub fn reconfigure(&mut self, new: Partition) -> EqualizeOutcome {
        assert_eq!(
            new.capacitor_count(),
            self.caps.len(),
            "partition must cover all capacitors"
        );
        self.partition = new;
        self.refresh_partition();
        self.refresh_charge();
        self.equalize()
    }

    /// Equalizes chain terminal voltages (they are wired in parallel, so
    /// current flows through the switch fabric until they agree — the
    /// continuous cost of holding an unbalanced network together).
    /// Charge moves between chains; within a chain every capacitor sees
    /// the same transferred charge.
    pub fn equalize(&mut self) -> EqualizeOutcome {
        let e_before = self.stored_energy();
        // The common voltage is the capacitance-weighted mean of the
        // chain voltages: the terminal voltage.
        let v_star = self.v_terminal;

        let mut moved = 0.0;
        let chains = chains_mut(&mut self.caps, self.partition.chains());
        for ((chain, &c_chain), &chain_v) in chains.zip(&self.chain_c).zip(&self.chain_v) {
            let dq = c_chain * (v_star - chain_v);
            moved += dq.abs();
            for cap in chain {
                cap.shift_charge(Coulombs::new(dq));
            }
        }
        self.refresh_charge();

        let e_after = self.stored_energy();
        EqualizeOutcome {
            final_voltage: Volts::new(v_star),
            dissipated: (e_before - e_after).max(Joules::ZERO),
            charge_moved: Coulombs::new(moved / 2.0),
        }
    }

    /// Deposits terminal charge `dq`, splitting across chains in
    /// proportion to chain capacitance (they share the terminal voltage).
    /// Returns clipped energy if any capacitor hits its ceiling.
    pub fn deposit_charge(&mut self, dq: Coulombs) -> Joules {
        let c_total = self.c_terminal;
        let mut clipped = Joules::ZERO;
        let chains = chains_mut(&mut self.caps, self.partition.chains());
        for (chain, &c_chain) in chains.zip(&self.chain_c) {
            let chain_dq = dq.get() * (c_chain / c_total);
            for cap in chain {
                let head = cap.charge_headroom().get();
                let store = chain_dq.min(head);
                cap.shift_charge(Coulombs::new(store));
                let excess = chain_dq - store;
                if excess > 0.0 {
                    clipped += Coulombs::new(excess) * cap.voltage();
                }
            }
        }
        self.refresh_charge();
        clipped
    }

    /// Draws terminal charge; chains supply in proportion to their
    /// capacitance, so every chain's terminal voltage falls by the same
    /// `ΔV = dq / C_eq`. The draw is limited so no *chain* is driven
    /// below zero volts (individual capacitors inside an unbalanced
    /// series chain may legitimately swing through zero). Returns the
    /// charge delivered.
    pub fn draw_charge(&mut self, dq: Coulombs) -> Coulombs {
        if dq.get() <= 0.0 {
            return Coulombs::ZERO;
        }
        let c_total = self.c_terminal;
        // Requested uniform voltage drop across all (parallel) chains.
        let dv_req = dq.get() / c_total;
        let v_min = self.chain_v.iter().copied().fold(f64::MAX, f64::min);
        let scale = if dv_req <= 0.0 {
            0.0
        } else {
            (v_min.max(0.0) / dv_req).min(1.0)
        };
        let chains = chains_mut(&mut self.caps, self.partition.chains());
        for (chain, &c_chain) in chains.zip(&self.chain_c) {
            let chain_dq = dq.get() * (c_chain / c_total) * scale;
            for cap in chain {
                cap.shift_charge(Coulombs::new(-chain_dq));
            }
        }
        self.refresh_charge();
        Coulombs::new(dq.get() * scale)
    }

    /// One leakage step across all capacitors; returns energy lost.
    pub fn leak(&mut self, dt: Seconds) -> Joules {
        let lost = self.caps.iter_mut().map(|c| c.leak(dt)).sum();
        self.refresh_charge();
        lost
    }
}

/// A chain's terminal voltage: the sum of its capacitors' voltages.
fn chain_voltage(chain: &[Capacitor]) -> f64 {
    chain.iter().map(|c| c.voltage().get()).sum()
}

/// The capacitors of each chain of lengths `lens`, mutably, in order.
fn chains_mut<'a>(
    caps: &'a mut [Capacitor],
    lens: &'a [usize],
) -> impl Iterator<Item = &'a mut [Capacitor]> {
    let mut rest = caps;
    lens.iter().map(move |&len| {
        let (chain, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        chain
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::Farads;

    fn net(n: usize, start: Partition) -> ChainNetwork {
        let unit = CapacitorSpec::new(Farads::from_milli(2.0)).with_max_voltage(Volts::new(6.3));
        ChainNetwork::new(unit, n, start)
    }

    #[test]
    fn partition_validation() {
        assert!(Partition::new(vec![]).is_err());
        assert!(Partition::new(vec![2, 0, 1]).is_err());
        let p = Partition::new(vec![4, 4]).unwrap();
        assert_eq!(p.capacitor_count(), 8);
    }

    #[test]
    fn equivalent_capacitance_of_configs() {
        let c = Farads::from_milli(2.0);
        assert!(
            (Partition::all_series(8)
                .equivalent_capacitance(c)
                .to_micro()
                - 250.0)
                .abs()
                < 1e-9
        );
        assert!(
            (Partition::all_parallel(8)
                .equivalent_capacitance(c)
                .to_milli()
                - 16.0)
                .abs()
                < 1e-9
        );
        let p = Partition::new(vec![4, 4]).unwrap();
        assert!((p.equivalent_capacitance(c).to_milli() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn figure5_four_capacitor_loss_is_25_percent() {
        // Full series at terminal V → take one cap into parallel with the
        // 3-chain: E_new/E_old = 0.75 (§3.3.1).
        let mut n = net(4, Partition::all_series(4));
        n.set_all_voltages(Volts::new(1.0)); // terminal 4 V
        let e_old = n.stored_energy();
        let out = n.reconfigure(Partition::new(vec![3, 1]).unwrap());
        let e_new = n.stored_energy();
        assert!((e_new.get() / e_old.get() - 0.75).abs() < 1e-12);
        assert!((out.dissipated.get() - 0.25 * e_old.get()).abs() < 1e-12);
        // Final terminal voltage 3V/8 of the original 4 V terminal.
        assert!((out.final_voltage.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn figure5_eight_capacitor_loss_is_5625_percent() {
        // 8-parallel → 7-series-1-parallel wastes 56.25 % (§3.3.1).
        let mut n = net(8, Partition::all_parallel(8));
        n.set_all_voltages(Volts::new(1.0));
        let e_old = n.stored_energy();
        let out = n.reconfigure(Partition::new(vec![7, 1]).unwrap());
        let e_new = n.stored_energy();
        assert!((1.0 - e_new.get() / e_old.get() - 0.5625).abs() < 1e-12);
        assert!((out.dissipated.get() - 0.5625 * e_old.get()).abs() < 1e-12);
    }

    #[test]
    fn reconfigure_same_shape_equal_voltages_is_lossless() {
        let mut n = net(8, Partition::all_parallel(8));
        n.set_all_voltages(Volts::new(2.0));
        let out = n.reconfigure(Partition::all_parallel(8));
        assert!(out.dissipated.get() < 1e-15);
    }

    #[test]
    fn terminal_charge_conserved_during_equalization() {
        // Rewiring changes the terminal-charge representation, but the
        // equalization itself conserves Σ C_chain·V_chain: the common
        // voltage is the capacitance-weighted mean of chain voltages.
        let mut n = net(8, Partition::all_parallel(8));
        n.set_all_voltages(Volts::new(2.0));
        // New partition [4,2,2]: chain voltages 8 V, 4 V, 4 V with chain
        // capacitances 0.5 mF, 1 mF, 1 mF → V* = 12 mC / 2.5 mF = 4.8 V.
        let out = n.reconfigure(Partition::new(vec![4, 2, 2]).unwrap());
        assert!((out.final_voltage.get() - 4.8).abs() < 1e-12);
        assert!((n.terminal_voltage().get() - 4.8).abs() < 1e-12);
        // Terminal charge after equalization matches 2.5 mF × 4.8 V.
        let q_term = n.terminal_capacitance().get() * n.terminal_voltage().get();
        assert!((q_term - 12e-3).abs() < 1e-12);
        // Energy strictly decreased (chains were at different voltages).
        assert!(out.dissipated.get() > 0.0);
    }

    #[test]
    fn deposit_raises_terminal_voltage() {
        let mut n = net(4, Partition::new(vec![2, 2]).unwrap());
        // C_eq = 2 × (2mF/2) = 2 mF.
        let clipped = n.deposit_charge(Coulombs::from_milli(2.0));
        assert_eq!(clipped, Joules::ZERO);
        assert!((n.terminal_voltage().get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn draw_lowers_terminal_voltage_and_limits_at_zero() {
        let mut n = net(4, Partition::all_parallel(4));
        n.set_all_voltages(Volts::new(1.0));
        // 8 mC stored at 1 V on 8 mF.
        let got = n.draw_charge(Coulombs::from_milli(4.0));
        assert!((got.to_milli() - 4.0).abs() < 1e-9);
        assert!((n.terminal_voltage().get() - 0.5).abs() < 1e-9);
        let got2 = n.draw_charge(Coulombs::from_milli(100.0));
        assert!(got2.to_milli() <= 4.0 + 1e-9);
        assert!(n.terminal_voltage().get() >= -1e-12);
    }

    #[test]
    fn terminal_voltage_weighted_mean_mid_step() {
        let mut n = net(2, Partition::all_parallel(2));
        n.set_all_voltages(Volts::new(2.0));
        // Both parallel at 2 V → terminal 2 V.
        assert!((n.terminal_voltage().get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn leak_drains_network() {
        let unit = CapacitorSpec::electrolytic_2mf();
        let mut n = ChainNetwork::new(unit, 8, Partition::all_parallel(8));
        n.set_all_voltages(Volts::new(3.0));
        let lost = n.leak(Seconds::new(10.0));
        assert!(lost.get() > 0.0);
        assert!(n.terminal_voltage().get() < 3.0);
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn mismatched_partition_panics() {
        let mut n = net(4, Partition::all_parallel(4));
        n.reconfigure(Partition::all_parallel(5));
    }
}
