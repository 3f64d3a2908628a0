//! Morphy \[49\]: software-defined charge storage over a fully-connected
//! switched-capacitor network (§2.4, §4.1).
//!
//! Eight 2 mF electrolytic capacitors sit in a switch fabric that can
//! realize any partition into series chains placed in parallel. Software
//! walks an eleven-configuration ladder from 250 µF (all series) to
//! 16 mF (all parallel). Unlike REACT's isolated banks, a reconfiguration
//! connects chains at *different* voltages, so charge surges through the
//! fabric and dissipates energy (§3.3.1) — the effect the paper's
//! evaluation shows wiping out Morphy's adaptivity advantage.
//!
//! Per §4.1 we replicate the paper's *favorable* Morphy setup: the
//! controller runs from external (USB) power, so its draw is **not**
//! charged to the harvested-energy ledger.

use react_circuit::{CapacitorSpec, ChainNetwork, EnergyLedger, Partition};
use react_telemetry::FallbackReason;
use react_units::{Amps, Coulombs, Farads, Joules, PollTick, Seconds, Volts, Watts};

use crate::charge_ode::{self, ChargeOde, PoweredOde, PoweredSolution};
use crate::walk::{self, Controller, PollModel};
use crate::{power_intake, EnergyBuffer};

/// The Morphy buffer: network + always-powered controller.
#[derive(Clone, Debug)]
pub struct MorphyBuffer {
    network: ChainNetwork,
    ladder: Vec<Partition>,
    level: usize,
    rail_clamp: Volts,
    v_high: Volts,
    v_low: Volts,
    /// The 10 Hz poll, counted in fine steps (retuned to each stride's
    /// step).
    tick: PollTick,
    poll_acc: Seconds,
    /// Settling window after a switch before another is allowed —
    /// prevents the controller thrashing on its own voltage transients.
    cooldown: Seconds,
    cooldown_left: Seconds,
    ledger: EnergyLedger,
    reconfigurations: u64,
    /// Seconds spent at each ladder level (index = level).
    dwell: Vec<f64>,
    /// Telemetry: why the last refused closed-form stride fell back
    /// (query-and-clear via `EnergyBuffer::take_fallback`).
    fallback: Option<FallbackReason>,
}

impl MorphyBuffer {
    /// The §4.1 implementation: 8 × 2 mF electrolytics, eleven
    /// configurations spanning 250 µF – 16 mF, thresholds shared with
    /// REACT.
    pub fn paper_implementation() -> Self {
        let ladder = Self::standard_ladder();
        let network = ChainNetwork::new(CapacitorSpec::electrolytic_2mf(), 8, ladder[0].clone());
        Self {
            network,
            ladder,
            level: 0,
            rail_clamp: Volts::new(3.6),
            v_high: Volts::new(3.5),
            v_low: Volts::new(1.9),
            tick: PollTick::new(Seconds::from_milli(1.0), Seconds::new(0.1)),
            poll_acc: Seconds::ZERO,
            cooldown: Seconds::new(0.3),
            cooldown_left: Seconds::ZERO,
            ledger: EnergyLedger::new(),
            reconfigurations: 0,
            dwell: Vec::new(),
            fallback: None,
        }
    }

    /// The eleven-partition ladder (ascending equivalent capacitance) for
    /// eight unit capacitors: 0.25, 1.0, 1.33, 2.33, 2.5, 4.0, 4.33,
    /// 7.0, 8.5, 10.0, 16.0 mF for C_unit = 2 mF.
    pub fn standard_ladder() -> Vec<Partition> {
        [
            vec![8],
            vec![4, 4],
            vec![6, 2],
            vec![3, 3, 2],
            vec![4, 2, 2],
            vec![2, 2, 2, 2],
            vec![6, 1, 1],
            vec![2, 2, 2, 1, 1],
            vec![4, 1, 1, 1, 1],
            vec![2, 2, 1, 1, 1, 1],
            vec![1, 1, 1, 1, 1, 1, 1, 1],
        ]
        .into_iter()
        .map(|chains| Partition::new(chains).expect("valid ladder partition"))
        .collect()
    }

    /// Present ladder level (0 = smallest capacitance).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of (dissipative) reconfigurations so far.
    pub fn reconfiguration_count(&self) -> u64 {
        self.reconfigurations
    }

    /// Force every capacitor to a voltage (test setup).
    pub fn set_all_voltages(&mut self, v: Volts) {
        self.network.set_all_voltages(v);
    }

    /// Jump to ladder `level` with every chain balanced at terminal
    /// voltage `v`, controller timers cleared (test setup).
    pub fn force_state(&mut self, level: usize, v: Volts) {
        self.network.reconfigure(self.ladder[level].clone());
        self.level = level;
        self.network.set_chain_terminals(v);
        self.cooldown_left = Seconds::ZERO;
        self.poll_acc = Seconds::ZERO;
    }

    /// Accrues dwell time at the present ladder level.
    fn note_dwell(&mut self, seconds: f64) {
        if self.dwell.len() <= self.level {
            self.dwell.resize(self.level + 1, 0.0);
        }
        self.dwell[self.level] += seconds;
    }

    /// Moves from the current partition to `level` one capacitor at a
    /// time — the way the switch fabric physically rewires (§3.3.1's
    /// Fig. 5 analysis is exactly one such move). Every intermediate
    /// repartition equalizes through the fabric and dissipates.
    fn reconfigure_to(&mut self, level: usize) {
        for step in transition_path(
            self.network.partition().chains(),
            self.ladder[level].chains(),
        ) {
            let outcome = self.network.reconfigure(step);
            self.ledger.switch_loss += outcome.dissipated;
        }
        self.level = level;
        self.reconfigurations += 1;
        self.cooldown_left = self.cooldown;
    }

    fn poll_controller(&mut self) {
        let v = self.network.terminal_voltage();
        if v >= self.v_high && self.level + 1 < self.ladder.len() {
            self.reconfigure_to(self.level + 1);
        } else if v <= self.v_low && self.level > 0 {
            self.reconfigure_to(self.level - 1);
        }
    }

    /// Stride-phase invariant: the chains share one terminal voltage
    /// (the continuous equalization of the fine-step loop). Forced test
    /// states may break it.
    fn chains_unequal(&self) -> bool {
        let (lo, hi) = self.network.chain_voltage_range();
        let (lo, hi) = (lo.get(), hi.get());
        hi - lo > 1e-9 * hi.abs().max(1.0)
    }
}

/// Morphy under the poll walk. Between ladder moves the equalized
/// network is one terminal capacitor; the walk carries its capacitance,
/// voltage and stored energy from segment to segment instead of
/// re-deriving them from the network.
struct MorphyWalk<'a> {
    buffer: &'a mut MorphyBuffer,
    /// Leak rate `g/C` of a unit capacitor, which every chain shares.
    k: f64,
    p_in: f64,
    /// The powered stride's LPM3 load, a constant rail current; `None`
    /// for the dark idle stride.
    load: Option<f64>,
    c_eq: f64,
    v: f64,
    e: f64,
}

impl<'a> MorphyWalk<'a> {
    fn new(buffer: &'a mut MorphyBuffer, input: Watts, load: Option<Amps>) -> Self {
        let network = &buffer.network;
        let unit = network.unit_spec();
        Self {
            k: charge_ode::leakage_conductance(&unit.leakage) / unit.capacitance.get(),
            p_in: input.get().max(0.0),
            load: load.map(|i| i.get().max(0.0)),
            c_eq: network.terminal_capacitance().get(),
            v: network.terminal_voltage().get(),
            e: network.stored_energy().get(),
            buffer,
        }
    }

    /// Re-reads the terminal from the network after a ladder move.
    fn reread(&mut self) {
        let network = &self.buffer.network;
        self.c_eq = network.terminal_capacitance().get();
        self.v = network.terminal_voltage().get();
        self.e = network.stored_energy().get();
    }

    /// The terminal's powered ODE. The idle stride's dead band uses it
    /// too, because its terminal can fall under leakage (`ChargeOde`
    /// only has a rising stop): with zero load it reduces to the idle
    /// ODE and stops both at the lower band edge and at the band top.
    fn ode(&self) -> PoweredOde {
        PoweredOde {
            c: self.c_eq,
            g: self.c_eq * self.k,
            v_max: self.buffer.rail_clamp.get(),
            p_in: self.p_in,
            i_load: self.load.unwrap_or(0.0),
            p_drain: 0.0,
            v_drain_min: f64::INFINITY,
        }
    }
}

impl PollModel for MorphyWalk<'_> {
    type Span = PoweredSolution;

    fn controller(&mut self) -> Controller<'_> {
        let b = &mut *self.buffer;
        Controller {
            tick: &mut b.tick,
            acc: &mut b.poll_acc,
            cooldown: Some(&mut b.cooldown_left),
            // Only the powered stride records a refusal.
            fallback: self.load.is_some().then_some(&mut b.fallback),
            thresholds: (b.v_low.get(), b.v_high.get()),
        }
    }

    fn enter(&mut self) -> f64 {
        self.v.max(0.0)
    }

    fn band(&mut self, window: f64, lo: f64, hi: f64, dt: f64) -> Option<(f64, Self::Span)> {
        let v = self.v.max(0.0);
        charge_ode::integrate_powered_quantized(&self.ode(), v, window, lo, Some(hi), dt)
    }

    #[inline]
    fn segment(&mut self, h: f64, lo: f64, hi: Option<f64>, dt: f64) -> Option<(f64, Self::Span)> {
        let ode = self.ode();
        match (self.load, hi) {
            // The idle stride's rising stop: the drain-free idle ODE.
            (None, Some(v_stop)) => {
                let ode = ChargeOde {
                    c: ode.c,
                    g: ode.g,
                    v_max: ode.v_max,
                    p_in: ode.p_in,
                    p_drain: 0.0,
                    v_drain_min: f64::INFINITY,
                };
                let (t, sol) = charge_ode::integrate_quantized(&ode, self.v, h, v_stop, dt)?;
                let sol = PoweredSolution {
                    v_final: sol.v_final,
                    leaked: sol.leaked,
                    clipped: sol.clipped,
                    ..PoweredSolution::default()
                };
                Some((t, sol))
            }
            _ => charge_ode::integrate_powered_quantized(&ode, self.v, h, lo, hi, dt),
        }
    }

    /// The terminal lands on `v_final` while the within-chain imbalance
    /// decays on its own e^{−2kt}, leaking ½C_unit·Σw²·(1−e^{−2kT}) on
    /// top of the terminal's G_eff·v² integral; the books close against
    /// the committed energies, the powered stride's on gross delivery.
    #[inline]
    fn commit(&mut self, t_adv: f64, sol: &PoweredSolution) {
        let buffer = &mut *self.buffer;
        let decay = (-self.k * t_adv).exp();
        let (imbalance, e_after, v_after) = buffer
            .network
            .commit_idle_solution(Volts::new(sol.v_final), decay);
        let c_unit = buffer.network.unit_spec().capacitance.get();
        let leaked = Joules::new(sol.leaked + 0.5 * c_unit * imbalance * (1.0 - decay * decay));
        let delta_e = e_after - Joules::new(self.e);
        let clipped = Joules::new(sol.clipped);
        let (ledger, load) = (&mut buffer.ledger, Joules::new(sol.load_consumed));
        match self.load {
            None => ledger.close_net(delta_e, leaked, Joules::ZERO, clipped),
            Some(_) => ledger.close_gross(delta_e, leaked, load, Joules::ZERO, clipped),
        }
        buffer.note_dwell(t_adv);
        self.v = v_after.get();
        self.e = e_after.get();
    }

    /// The threshold handler reads the settled terminal voltage and may
    /// move the ladder. The idle stride walks on from the re-read
    /// network; the powered stride hands back, since the move made the
    /// kernel's precomputed wake voltage (and the workload's
    /// usable-energy picture) stale.
    fn poll(&mut self) -> bool {
        let before = self.buffer.reconfigurations;
        self.buffer.poll_controller();
        if self.buffer.reconfigurations == before {
            return false;
        }
        if self.load.is_some() {
            return true;
        }
        self.reread();
        false
    }
}

/// Decomposes a repartition into single-capacitor moves: each step takes
/// one capacitor from an over-long chain and gives it to an under-long
/// one (positions matched by index; chains are created/absorbed at the
/// tail). Returns the sequence of intermediate partitions *including*
/// the target.
pub fn transition_path(from: &[usize], to: &[usize]) -> Vec<Partition> {
    let width = from.len().max(to.len());
    let mut cur: Vec<usize> = from.to_vec();
    cur.resize(width, 0);
    let mut target: Vec<usize> = to.to_vec();
    target.resize(width, 0);

    let mut path = Vec::new();
    loop {
        let donor = (0..width).find(|&i| cur[i] > target[i]);
        let receiver = (0..width).find(|&i| cur[i] < target[i]);
        match (donor, receiver) {
            (Some(d), Some(r)) => {
                cur[d] -= 1;
                cur[r] += 1;
                let chains: Vec<usize> = cur.iter().copied().filter(|&l| l > 0).collect();
                path.push(Partition::new(chains).expect("intermediate partition valid"));
            }
            _ => break,
        }
    }
    path
}

impl EnergyBuffer for MorphyBuffer {
    fn name(&self) -> &str {
        "Morphy"
    }

    fn rail_voltage(&self) -> Volts {
        self.network.terminal_voltage().max(Volts::ZERO)
    }

    fn equivalent_capacitance(&self) -> Farads {
        self.network.terminal_capacitance()
    }

    fn stored_energy(&self) -> Joules {
        self.network.stored_energy()
    }

    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        // Energy deliverable in the *current* configuration — further
        // down-switching reclaims more but dissipates in the fabric and
        // takes controller polls, so it is not promised for atomic ops.
        let v = self.network.terminal_voltage();
        if v <= v_floor {
            return Joules::ZERO;
        }
        let c = self.network.terminal_capacitance();
        c.energy_at(v) - c.energy_at(v_floor)
    }

    fn supports_longevity(&self) -> bool {
        true
    }

    fn capacitance_level(&self) -> u32 {
        self.level as u32
    }

    fn supports_idle_fast_path(&self) -> bool {
        true
    }

    fn reconfiguration_count(&self) -> u64 {
        self.reconfigurations
    }

    /// Morphy's conservative posture is one ladder level up: a more
    /// parallel-heavy partition stores more energy at the same rail
    /// voltage, which is what lets the MCU sleep through an attacker's
    /// blackout without browning out. No-op (returns `false`) at the
    /// top of the ladder.
    fn defensive_reconfigure(&mut self) -> bool {
        if self.level + 1 >= self.ladder.len() {
            return false;
        }
        self.reconfigure_to(self.level + 1);
        true
    }

    fn capacitance_dwell(&self) -> Vec<(u32, f64)> {
        self.dwell
            .iter()
            .enumerate()
            .filter(|(_, s)| **s > 0.0)
            .map(|(level, s)| (level as u32, *s))
            .collect()
    }

    /// Controller-aware closed-form idle integration. Between controller
    /// decision points the network is electrically one fixed capacitor:
    /// equalized chains share the terminal voltage, every chain decays
    /// at the same `g/C` rate regardless of length, and deposits split
    /// in proportion to chain capacitance — so each inter-poll segment
    /// integrates through the shared regime solver. At each 10 Hz poll
    /// boundary (its fine-step accumulator replayed bit for bit by
    /// [`PollTick`], so poll times match the fine-step reference) the
    /// controller's threshold handler fires; a reconfiguration changes
    /// the effective capacitance (and may boost the terminal past
    /// `v_stop` — the §3.3.4 reclamation path), and integration resumes
    /// with the new ladder level.
    /// `v_stop` crossings are quantized up to the fine-step grid exactly
    /// like the static fast path.
    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        assert!(fine_dt.get() > 0.0, "fine timestep must be positive");
        if duration.get() <= 0.0 {
            return Seconds::ZERO;
        }
        // The first reference step would dissipate un-equalized chains
        // through the fabric, which is not worth a closed form — replay
        // finely instead.
        if self.chains_unequal() {
            return crate::reference_idle_advance(self, input, duration, v_stop, fine_dt);
        }
        let mut walk = MorphyWalk::new(self, input, None);
        // Morphy has no guard band, so the walk never refuses outright.
        let no_floor = Volts::new(f64::NEG_INFINITY);
        walk::walk_polls(&mut walk, fine_dt, duration, no_floor, Some(v_stop))
            .map_or(Seconds::ZERO, Seconds::new)
    }

    fn supports_powered_fast_path(&self) -> bool {
        true
    }

    /// Controller-aware closed-form *powered* integration (MCU on,
    /// workload asleep): identical poll-to-poll segment walk to
    /// [`idle_advance`](EnergyBuffer::idle_advance) — the externally
    /// powered controller does not care whether the target sleeps —
    /// with the LPM3 sleep load folded into the quadratic solver as a
    /// constant rail current and the early exit flipped to the
    /// brown-out crossing (quantized up onto the fine grid). Forced
    /// un-equalized chain states have no closed form (`None`).
    fn powered_advance(
        &mut self,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        assert!(fine_dt.get() > 0.0, "fine timestep must be positive");
        if duration.get() <= 0.0 {
            return Some(Seconds::ZERO);
        }
        if self.chains_unequal() {
            self.fallback = Some(FallbackReason::NoClosedForm);
            return None;
        }
        let mut walk = MorphyWalk::new(self, input, Some(load));
        walk::walk_polls(&mut walk, fine_dt, duration, v_stop, v_wake).map(Seconds::new)
    }

    fn take_fallback(&mut self) -> Option<FallbackReason> {
        self.fallback.take()
    }

    /// In the present ladder configuration the network is one terminal
    /// capacitor, so the §3.4.1 wait inverts like a static buffer's.
    /// (Ladder moves change `C_eq`; the kernel re-derives the crossing
    /// after every stride, so the frozen-topology assumption holds.)
    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        let c = self.network.terminal_capacitance().get();
        let vf = v_floor.get().max(0.0);
        Some(Volts::new(
            (vf * vf + 2.0 * energy.get().max(0.0) / c).sqrt(),
        ))
    }

    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, _mcu_running: bool) {
        // Dwell accounting uses the level at the top of the step, before
        // the controller acts — both kernels share this convention.
        self.note_dwell(dt.get());

        // 0. Chains are hard-wired in parallel: any imbalance equalizes
        // through the switch fabric continuously, dissipating as it
        // goes — the ongoing cost of the fully-connected design.
        let eq = self.network.equalize();
        self.ledger.switch_loss += eq.dissipated;

        // 1. Leakage.
        self.ledger.leaked += self.network.leak(dt);

        // 2. Load.
        let before = self.network.stored_energy();
        self.network.draw_charge(load * dt);
        self.ledger.load_consumed += before - self.network.stored_energy();

        // 3. Harvest with rail clamping (power converts to charge at the
        // network terminal).
        if input.get() > 0.0 {
            let v = self.network.terminal_voltage();
            let dq = power_intake(input, v, dt);
            let headroom =
                (self.network.terminal_capacitance() * (self.rail_clamp - v)).max(Coulombs::ZERO);
            let store = dq.min(headroom);
            let before = self.network.stored_energy();
            let unit_clip = self.network.deposit_charge(store);
            let delivered = self.network.stored_energy() - before;
            let clipped = unit_clip + (dq - store) * self.rail_clamp;
            self.ledger.deposit(delivered, clipped);
        }

        // 4. Controller: externally powered, polls regardless of the
        // target MCU's state.
        self.cooldown_left = (self.cooldown_left - dt).max(Seconds::ZERO);
        self.poll_acc += dt;
        if self.poll_acc >= self.tick.period() {
            self.poll_acc = Seconds::ZERO;
            if self.cooldown_left.get() <= 0.0 {
                self.poll_controller();
            }
        }
    }

    fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_spans_paper_range_ascending() {
        let ladder = MorphyBuffer::standard_ladder();
        assert_eq!(ladder.len(), 11);
        let c = Farads::from_milli(2.0);
        let caps: Vec<f64> = ladder
            .iter()
            .map(|p| p.equivalent_capacitance(c).to_milli())
            .collect();
        assert!((caps[0] - 0.25).abs() < 1e-9);
        assert!((caps[10] - 16.0).abs() < 1e-9);
        for w in caps.windows(2) {
            assert!(w[0] < w[1], "ladder not ascending: {caps:?}");
        }
        // Every partition covers all eight capacitors.
        assert!(ladder.iter().all(|p| p.capacitor_count() == 8));
    }

    #[test]
    fn starts_at_minimum_capacitance() {
        let m = MorphyBuffer::paper_implementation();
        assert!((m.equivalent_capacitance().to_micro() - 250.0).abs() < 1e-6);
        assert_eq!(m.level(), 0);
        assert!(m.supports_longevity());
    }

    #[test]
    fn charges_like_a_small_capacitor_initially() {
        let mut m = MorphyBuffer::paper_implementation();
        // 0.5 mW for 250 ms ≈ 0.125 mJ on 250 µF → 1 V.
        for _ in 0..250 {
            m.step(
                Watts::from_micro(500.0),
                Amps::ZERO,
                Seconds::from_milli(1.0),
                false,
            );
        }
        let expected = (2.0 * 0.125e-3 / 250e-6_f64).sqrt();
        assert!((m.rail_voltage().get() - expected).abs() < 0.1);
    }

    #[test]
    fn overvoltage_steps_up_and_dissipates() {
        let mut m = MorphyBuffer::paper_implementation();
        m.set_all_voltages(Volts::new(3.55 / 8.0)); // terminal ≈ 3.55 V
        let e_before = m.stored_energy();
        m.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), false);
        assert_eq!(m.level(), 1);
        assert_eq!(m.reconfiguration_count(), 1);
        // [8] → [4,4] walks through [7,1], [6,2], [5,3]: every
        // intermediate connects mismatched chains and dissipates —
        // §3.3.1's complaint about fully-connected fabrics.
        assert!(
            m.ledger().switch_loss.get() > 0.2 * e_before.get(),
            "loss {:?} vs stored {e_before:?}",
            m.ledger().switch_loss
        );
        // Capacitance did grow to the level-1 value.
        assert!((m.equivalent_capacitance().to_milli() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_move_path_reproduces_figure5_loss() {
        // One step of the path — [4] series → [3,1] — is the paper's
        // Fig. 5 example: 25 % of stored energy dissipated.
        let unit = react_circuit::CapacitorSpec::new(Farads::from_milli(2.0))
            .with_max_voltage(Volts::new(1e6));
        let mut n = react_circuit::ChainNetwork::new(unit, 4, Partition::all_series(4));
        n.set_all_voltages(Volts::new(1.0));
        let e_old = n.stored_energy();
        let path = transition_path(&[4], &[3, 1]);
        assert_eq!(path.len(), 1);
        let out = n.reconfigure(path[0].clone());
        assert!((out.dissipated.get() - 0.25 * e_old.get()).abs() < 1e-12);
    }

    #[test]
    fn transition_path_connects_ladder_levels() {
        let ladder = MorphyBuffer::standard_ladder();
        for w in ladder.windows(2) {
            let path = transition_path(w[0].chains(), w[1].chains());
            assert!(!path.is_empty());
            assert_eq!(path.last().unwrap(), &w[1]);
            // Every intermediate covers all 8 capacitors.
            assert!(path.iter().all(|p| p.capacitor_count() == 8));
        }
        // Identity transition needs no moves.
        assert!(transition_path(&[4, 4], &[4, 4]).is_empty());
    }

    #[test]
    fn undervoltage_steps_down_to_boost() {
        let mut m = MorphyBuffer::paper_implementation();
        m.set_all_voltages(Volts::new(0.85));
        m.reconfigure_to(1); // level 1 via single-cap moves
        m.cooldown_left = Seconds::ZERO;
        // Drain to v_low and poll: the controller steps back down.
        m.set_all_voltages(Volts::new(1.85 / 4.0));
        let loss_before = m.ledger().switch_loss;
        m.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), false);
        assert_eq!(m.level(), 0);
        // The boost dissipated energy in the fabric on the way.
        assert!(m.ledger().switch_loss > loss_before);
    }

    #[test]
    fn cooldown_prevents_thrash() {
        let mut m = MorphyBuffer::paper_implementation();
        m.set_all_voltages(Volts::new(3.55 / 8.0));
        m.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), false);
        assert_eq!(m.reconfiguration_count(), 1);
        // Terminal is low now, but the cooldown holds for 0.3 s.
        m.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), false);
        assert_eq!(m.reconfiguration_count(), 1);
        // After the cooldown it may act again.
        for _ in 0..10 {
            m.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), false);
        }
        assert!(m.reconfiguration_count() >= 2);
    }

    #[test]
    fn clips_at_rail() {
        let mut m = MorphyBuffer::paper_implementation();
        m.set_all_voltages(Volts::new(3.6 / 8.0));
        m.step(
            Watts::from_milli(100.0),
            Amps::ZERO,
            Seconds::from_milli(1.0),
            false,
        );
        assert!(m.ledger().clipped.get() > 0.0);
        assert!(m.rail_voltage().get() <= 3.6 + 1e-9);
    }

    #[test]
    fn controller_runs_even_with_mcu_off() {
        let mut m = MorphyBuffer::paper_implementation();
        m.set_all_voltages(Volts::new(3.55 / 8.0));
        m.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), false);
        assert_eq!(m.level(), 1, "externally powered controller must act");
    }

    #[test]
    fn usable_energy_is_current_config() {
        let mut m = MorphyBuffer::paper_implementation();
        m.set_all_voltages(Volts::new(2.0 / 8.0)); // level 0 ([8]) at 2 V
        let usable = m.usable_energy_above(Volts::new(1.8));
        let expected = 0.5 * 250e-6 * (2.0_f64.powi(2) - 1.8_f64.powi(2));
        assert!((usable.get() - expected).abs() < 1e-9);
        assert_eq!(m.usable_energy_above(Volts::new(2.5)), Joules::ZERO);
    }
}
