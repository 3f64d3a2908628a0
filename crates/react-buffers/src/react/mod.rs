//! REACT: the paper's reconfigurable, energy-adaptive capacitor buffer.
//!
//! Hardware structure (Fig. 2): a small always-connected *last-level
//! buffer* (LLB) feeds the load; configurable [`SeriesParallelBank`]s sit
//! behind isolation diodes — charged only from the harvester, discharged
//! only into the LLB. Two comparators watch the LLB voltage; a software
//! state machine polled at 10 Hz steps bank configurations up
//! (disconnected → series → parallel) on a near-capacity signal and down
//! (parallel → series → disconnected) on a near-empty signal, reclaiming
//! otherwise-stranded charge by boosting bank output voltage (§3.3.4).
//!
//! Because banks only ever reconfigure between full-series and
//! full-parallel, no current flows between capacitors during a switch:
//! reconfiguration is lossless, unlike the fully-connected network of
//! [`MorphyBuffer`](crate::MorphyBuffer).

mod config;

pub use config::{ConfigError, ReactConfig, MAX_BANKS};

use react_circuit::{BankMode, Capacitor, EnergyLedger, SeriesParallelBank};
use react_telemetry::FallbackReason;
use react_units::{Amps, Coulombs, Farads, Joules, PollTick, Seconds, Volts, Watts};

use crate::charge_ode::{self, ChargeOde};
use crate::{power_intake, EnergyBuffer, CHARGE_CURRENT_LIMIT, CONVERSION_FLOOR};

/// Rail voltage above which the comparators and instrumentation draw
/// their quiescent power.
const INSTRUMENTATION_FLOOR: f64 = 0.5;

/// Residual comparator ambiguity (V) around `v_high`/`v_low` where the
/// reconstructed LLB reading is not trusted to resolve a poll: the
/// microstate-offset reconstruction is accurate to the fine-step churn's
/// step-to-step spread (a load-dip plus one input deposit across the
/// LLB, well under a millivolt at sleep currents), so only polls this
/// close to a threshold still refuse the closed-form stride.
const RESIDUAL_GUARD: f64 = 0.002;

/// Input-power ceiling (W) for the staged un-equalized solve. The
/// staged closed forms carry residual discretization error that grows
/// with the square of the harvest power; below this ceiling the error
/// is sub-microvolt over minutes-long strides, above it the fine-step
/// reference is both exact and cheap (high power means imminent
/// reconfigurations, so strides would be short regardless).
const STAGED_INPUT_MAX: f64 = 2.0e-4;

/// Margin (V) inside the comparator thresholds where the powered
/// strides integrate the dead band in bulk.
const BAND_GUARD: f64 = 0.02;

fn connected(bank: &&SeriesParallelBank) -> bool {
    bank.mode() != BankMode::Disconnected
}

/// A set of bank indices held inline, so the stride paths that gather
/// banks never touch the heap.
struct BankSet {
    idx: [usize; MAX_BANKS],
    len: usize,
}

impl BankSet {
    /// The indices `keep` accepts, in bank order.
    fn filtered(banks: &[SeriesParallelBank], keep: impl Fn(usize) -> bool) -> Self {
        let mut set = Self {
            idx: [0; MAX_BANKS],
            len: 0,
        };
        for i in (0..banks.len()).filter(|&i| keep(i)) {
            set.idx[set.len] = i;
            set.len += 1;
        }
        set
    }

    fn as_slice(&self) -> &[usize] {
        &self.idx[..self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [usize] {
        &mut self.idx[..self.len]
    }
}

/// Places a connected bank's terminal at `v`.
fn set_terminal(bank: &mut SeriesParallelBank, v: f64) {
    let unit_v = match bank.mode() {
        BankMode::Series => v / bank.spec().count as f64,
        BankMode::Parallel => v,
        BankMode::Disconnected => unreachable!("connected banks only"),
    };
    bank.set_unit_voltage(Volts::new(unit_v));
}

/// The REACT buffer: LLB + banks + instrumentation + controller FSM.
#[derive(Clone, Debug)]
pub struct ReactBuffer {
    config: ReactConfig,
    llb: Capacitor,
    banks: Vec<SeriesParallelBank>,
    /// The software poll, counted in fine steps (retuned to each
    /// stride's step).
    tick: PollTick,
    poll_acc: Seconds,
    ledger: EnergyLedger,
    reconfigurations: u64,
    /// Whether the MCU was running last step — REACT's bank switches are
    /// normally-open (§3.2), so every bank disconnects (keeping its
    /// charge) the moment the MCU loses power.
    mcu_was_running: bool,
    /// Seconds spent at each capacitance level (index = level).
    dwell: Vec<f64>,
    /// Telemetry: why the last refused closed-form stride fell back
    /// (query-and-clear via `EnergyBuffer::take_fallback`).
    fallback: Option<FallbackReason>,
}

impl ReactBuffer {
    /// Builds a buffer from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ReactConfig::validate`]
    /// (use `validate` first for a recoverable error).
    pub fn new(config: ReactConfig) -> Self {
        config.validate().expect("invalid REACT configuration");
        let llb_spec = config.llb.with_max_voltage(config.rail_clamp);
        Self {
            llb: Capacitor::new(llb_spec),
            banks: config
                .banks
                .iter()
                .map(|&b| SeriesParallelBank::new(b))
                .collect(),
            tick: PollTick::new(Seconds::from_milli(1.0), config.poll_period),
            config,
            poll_acc: Seconds::ZERO,
            ledger: EnergyLedger::new(),
            reconfigurations: 0,
            mcu_was_running: false,
            dwell: Vec::new(),
            fallback: None,
        }
    }

    /// The paper's Table 1 prototype.
    pub fn paper_prototype() -> Self {
        Self::new(ReactConfig::paper_prototype())
    }

    /// The active configuration.
    pub fn config(&self) -> &ReactConfig {
        &self.config
    }

    /// Bank modes in connection order (diagnostics/tests).
    pub fn bank_modes(&self) -> Vec<BankMode> {
        self.banks.iter().map(|b| b.mode()).collect()
    }

    /// Count of bank reconfigurations performed so far.
    pub fn reconfiguration_count(&self) -> u64 {
        self.reconfigurations
    }

    /// Force LLB voltage (test setup).
    pub fn set_llb_voltage(&mut self, v: Volts) {
        self.llb.set_voltage(v);
    }

    /// Force a bank's unit voltage and mode (test setup).
    pub fn force_bank_state(&mut self, index: usize, unit_voltage: Volts, mode: BankMode) {
        self.banks[index].set_unit_voltage(unit_voltage);
        self.banks[index].reconfigure(mode);
    }

    /// Accrues dwell time at the present capacitance level.
    fn note_dwell(&mut self, seconds: f64) {
        let level = EnergyBuffer::capacitance_level(self) as usize;
        if self.dwell.len() <= level {
            self.dwell.resize(level + 1, 0.0);
        }
        self.dwell[level] += seconds;
    }

    /// Output isolation diodes: every connected bank whose terminal sits
    /// above the LLB dumps charge into it until the voltages meet.
    fn drain_banks_into_llb(&mut self) {
        const EPS: f64 = 1e-6;
        // Every bank's terminal voltage and the LLB's voltage and energy,
        // computed once: a drain moves only its bank and the LLB, which
        // are re-read after it for the next candidate and booking.
        let mut v_banks = [Volts::ZERO; MAX_BANKS];
        for (v, bank) in v_banks.iter_mut().zip(&self.banks) {
            *v = bank.terminal_voltage();
        }
        let mut v_llb = self.llb.voltage();
        let mut e_llb = None;
        // Bounded sweep: each bank needs at most one equalization per
        // call because diodes only conduct bank→LLB (the LLB only rises).
        for _ in 0..self.banks.len() {
            let candidate = self
                .banks
                .iter()
                .zip(v_banks)
                .enumerate()
                .filter(|(_, (b, _))| connected(b))
                .map(|(i, (_, v))| (i, v))
                .filter(|(_, v)| v.get() > v_llb.get() + EPS)
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite voltages"));
            let Some((idx, v_bank)) = candidate else {
                break;
            };
            let bank = &mut self.banks[idx];
            let c_bank = bank.terminal_capacitance();
            let c_llb = self.llb.capacitance();
            let e_before = bank.stored_energy() + *e_llb.get_or_insert_with(|| self.llb.energy());
            let v_star = (c_bank * v_bank + c_llb * v_llb) / (c_bank + c_llb);
            let dq = c_bank * (v_bank - v_star);
            let got = bank.draw_charge(dq);
            self.llb.shift_charge(got);
            let e_llb_after = self.llb.energy();
            let e_after = bank.stored_energy() + e_llb_after;
            self.ledger.diode_loss += (e_before - e_after).max(Joules::ZERO);
            v_banks[idx] = bank.terminal_voltage();
            v_llb = self.llb.voltage();
            e_llb = Some(e_llb_after);
        }
    }

    /// Input isolation diodes route harvester power to the
    /// lowest-voltage connected element (§3.2.1); the converter delivers
    /// charge at that element's voltage.
    fn route_input(&mut self, input: Watts, dt: Seconds) {
        if input.get() <= 0.0 {
            return;
        }
        // Candidates: LLB plus connected banks, by terminal voltage.
        let llb_v = self.llb.voltage();
        let bank_candidate = self
            .banks
            .iter()
            .enumerate()
            .filter(|(_, b)| connected(b))
            .map(|(i, b)| (i, b.terminal_voltage()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite voltages"));

        // Every element's stored energy, computed once for both sides of
        // the booking: the deposit moves exactly one of them.
        let mut e_banks = [Joules::ZERO; MAX_BANKS];
        for (e, bank) in e_banks.iter_mut().zip(&self.banks) {
            *e = bank.stored_energy();
        }
        let e_banks = &mut e_banks[..self.banks.len()];
        let e_llb = self.llb.energy();
        let e_banks_before = e_banks.iter().copied().sum::<Joules>();
        let e_before = e_llb + e_banks_before;

        let (clipped, e_after) = match bank_candidate {
            Some((idx, v_bank)) if v_bank < llb_v => {
                // Charge the bank, clamping its terminal at the rail.
                let dq = power_intake(input, v_bank, dt);
                let bank = &mut self.banks[idx];
                let headroom = bank.terminal_capacitance() * (self.config.rail_clamp - v_bank);
                let store = dq.min(headroom.max(Coulombs::ZERO));
                let clip_units = bank.deposit_charge(store);
                e_banks[idx] = bank.stored_energy();
                let clipped = clip_units + (dq - store) * self.config.rail_clamp;
                (clipped, e_llb + e_banks.iter().copied().sum::<Joules>())
            }
            _ => {
                let dq = power_intake(input, llb_v, dt);
                let clipped = self.llb.deposit(dq / dt, dt);
                (clipped, self.llb.energy() + e_banks_before)
            }
        };

        let delivered = (e_after - e_before).max(Joules::ZERO);
        self.ledger.delivered += delivered;
        self.ledger.clipped += clipped;
        self.ledger.harvested += delivered + clipped;
    }

    /// One software poll (§3.4): read the comparators, step the bank
    /// state machine.
    fn poll_controller(&mut self) {
        self.poll_controller_at(self.llb.voltage());
    }

    /// One software poll resolved against an explicit comparator
    /// reading: the closed-form strides pass the *reconstructed* LLB
    /// voltage (committed pack average plus the tracked microstate
    /// offset) since the committed state only carries the average.
    fn poll_controller_at(&mut self, v: Volts) {
        if v >= self.config.v_high {
            self.step_up();
        } else if v <= self.config.v_low {
            self.step_down();
        }
    }

    /// Near-capacity: connect the next bank in series, or promote the
    /// most recently connected series bank to parallel.
    ///
    /// A disconnected bank that *retained* a high charge (normally-open
    /// switches opened at a brown-out) reconnects in parallel instead —
    /// reconnecting it in series would multiply its terminal voltage
    /// past the rail and burn the charge in the clamp.
    fn step_up(&mut self) {
        let v_high = self.config.v_high;
        for bank in &mut self.banks {
            match bank.mode() {
                BankMode::Disconnected => {
                    let n = bank.spec().count as f64;
                    if bank.unit_voltage() * n > v_high {
                        bank.reconfigure(BankMode::Parallel);
                    } else {
                        bank.reconfigure(BankMode::Series);
                    }
                    self.reconfigurations += 1;
                    return;
                }
                BankMode::Series => {
                    bank.reconfigure(BankMode::Parallel);
                    self.reconfigurations += 1;
                    return;
                }
                BankMode::Parallel => continue,
            }
        }
    }

    /// Near-empty: reclaim charge by boosting the most recently expanded
    /// bank (parallel → series), or disconnect a drained series bank.
    /// With reclamation disabled (ablation), parallel banks disconnect
    /// outright, stranding their sub-threshold charge (§3.3.4).
    fn step_down(&mut self) {
        let reclaim = self.config.charge_reclamation;
        for bank in self.banks.iter_mut().rev() {
            match bank.mode() {
                BankMode::Parallel => {
                    bank.reconfigure(if reclaim {
                        BankMode::Series
                    } else {
                        BankMode::Disconnected
                    });
                    self.reconfigurations += 1;
                    return;
                }
                BankMode::Series => {
                    bank.reconfigure(BankMode::Disconnected);
                    self.reconfigurations += 1;
                    return;
                }
                BankMode::Disconnected => continue,
            }
        }
    }

    /// The LLB's and every connected bank's stored energy, summed in
    /// bank order.
    fn pack_energy(&self) -> f64 {
        self.llb.energy().get()
            + self
                .banks
                .iter()
                .filter(connected)
                .map(|b| b.stored_energy().get())
                .sum::<f64>()
    }

    /// Disconnected banks keep leaking on their own exponentials
    /// (`dv/dt = −(g/C)·v` per unit capacitor); consecutive banks with
    /// the same rate share one `exp`.
    fn decay_disconnected(&mut self, t_adv: f64) {
        let mut decay = (f64::NAN, 0.0);
        for bank in &mut self.banks {
            if bank.mode() != BankMode::Disconnected {
                continue;
            }
            let unit = bank.spec().unit;
            let k = charge_ode::leakage_conductance(&unit.leakage) / unit.capacitance.get();
            if k > 0.0 && bank.unit_voltage().get() > 0.0 {
                if decay.0 != k {
                    decay = (k, (-k * t_adv).exp());
                }
                let e_before = bank.stored_energy();
                bank.set_unit_voltage(Volts::new(bank.unit_voltage().get() * decay.1));
                self.ledger.leaked += e_before - bank.stored_energy();
            }
        }
    }

    /// Books one equalized span: the LLB and every connected bank land
    /// on `fin.v_final`, the ledger closes against the committed pack
    /// energy (`e_pack`, carried from span to span), disconnected banks
    /// decay, and dwell accrues.
    fn commit_equalized(
        &mut self,
        fin: &charge_ode::PoweredSolution,
        t_adv: f64,
        e_pack: &mut f64,
    ) {
        self.llb.set_voltage(Volts::new(fin.v_final));
        for bank in self.banks.iter_mut() {
            if bank.mode() != BankMode::Disconnected {
                set_terminal(bank, fin.v_final);
            }
        }
        let e_after = self.pack_energy();
        let delta_e = e_after - *e_pack;
        *e_pack = e_after;
        let delivered_gross =
            (delta_e + fin.leaked + fin.load_consumed + fin.drained + fin.clipped).max(0.0);
        self.ledger.leaked += Joules::new(fin.leaked);
        self.ledger.load_consumed += Joules::new(fin.load_consumed);
        self.ledger.overhead_consumed += Joules::new(fin.drained);
        self.ledger.clipped += Joules::new(fin.clipped);
        self.ledger.delivered += Joules::new(delivered_gross - fin.clipped);
        self.ledger.harvested += Joules::new(delivered_gross);
        self.decay_disconnected(t_adv);
        self.note_dwell(t_adv);
    }

    /// Staged closed-form sleep integration for the *un-equalized* bank
    /// state: one or more connected banks sit below the pack (freshly
    /// connected drained banks still charging up behind their blocking
    /// output diodes). While the diodes block, the circuit is a set of
    /// decoupled closed-form trajectories — the input diodes route the
    /// whole harvester intake to the *charging front* (the lowest-voltage
    /// banks, which the per-step routing keeps level, so they charge as
    /// one combined capacitance), every other low bank decays on its own
    /// leak, and the LLB plus the already-equalized banks drain under the
    /// sleep load and overhead. The stride walks poll-to-poll committing
    /// all trajectories, bulk-striding the comparator dead band exactly
    /// like the equalized path, and cuts every span at the earliest
    /// predicted topology event: the front absorbing the next-lowest
    /// bank, or a diode-coupling with the falling pack (from either
    /// side). On coupling, `drain_banks_into_llb` equalizes the met pair
    /// — booking the (second-order, quantization-sized) loss through the
    /// same ∫q·dt energy closure the fine-step reference uses — and the
    /// remainder of the stride re-enters `powered_advance`, which
    /// re-partitions the (smaller) un-equalized set or continues in the
    /// equalized combined-capacitor form.
    #[allow(clippy::too_many_arguments)]
    fn staged_powered_advance(
        &mut self,
        mut lows: BankSet,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        let vs = v_stop.get();
        let vw = v_wake.map(Volts::get);
        let total = duration.get();
        let dt = fine_dt.get();

        // The pack: LLB plus every connected bank already equalized
        // with it (the low banks are excluded by construction).
        let pack = BankSet::filtered(&self.banks, |i| {
            !lows.as_slice().contains(&i) && connected(&&self.banks[i])
        });
        let pack = pack.as_slice();
        let llb_spec = *self.llb.spec();
        let llb_v = self.llb.voltage().get();
        let mut c_pack = llb_spec.capacitance.get();
        let mut g_pack = charge_ode::leakage_conductance(&llb_spec.leakage);
        let mut charge = c_pack * llb_v;
        for &i in pack {
            let unit = self.banks[i].spec().unit;
            let k = charge_ode::leakage_conductance(&unit.leakage) / unit.capacitance.get();
            let c_term = self.banks[i].terminal_capacitance().get();
            charge += c_term * self.banks[i].terminal_voltage().get();
            c_pack += c_term;
            g_pack += k * c_term;
        }
        let mut v_pack = charge / c_pack;
        // LLB microstate offset for comparator reconstruction, exactly
        // as in the equalized path.
        let llb_offset = llb_v - v_pack;

        // Low banks ascending by terminal voltage (a stable sort, which
        // at this length is an in-place insertion sort); per-bank
        // terminal capacitance and leak rate ride along.
        lows.as_mut_slice().sort_by(|&a, &b| {
            self.banks[a]
                .terminal_voltage()
                .get()
                .total_cmp(&self.banks[b].terminal_voltage().get())
        });
        let lows = lows.as_slice();
        let (mut low_v, mut low_c, mut low_k) =
            ([0.0; MAX_BANKS], [0.0; MAX_BANKS], [0.0; MAX_BANKS]);
        for (j, &i) in lows.iter().enumerate() {
            let bank = &self.banks[i];
            let unit = bank.spec().unit;
            low_v[j] = bank.terminal_voltage().get();
            low_c[j] = bank.terminal_capacitance().get();
            low_k[j] = charge_ode::leakage_conductance(&unit.leakage) / unit.capacitance.get();
        }
        // The charging front: `lows[..front_len]` share the lowest
        // voltage and split the harvester intake, so they charge as one
        // combined capacitance at `v_front`.
        let mut front_len = 1usize;
        let mut v_front = low_v[0];

        // The powered stride only runs while the MCU is on (see the
        // equalized path).
        self.mcu_was_running = true;

        let p_in = input.get().max(0.0);
        let i_load = load.get().max(0.0);
        // The overhead draw scales with every *connected* bank,
        // including the ones still charging up.
        let overhead = self.config.instrumentation_overhead.get()
            + self.config.overhead_per_bank.get() * (pack.len() + lows.len()) as f64;
        let pack_ode = charge_ode::PoweredOde {
            c: c_pack,
            g: g_pack,
            v_max: llb_spec.max_voltage.get(),
            p_in: 0.0,
            i_load,
            p_drain: overhead,
            v_drain_min: INSTRUMENTATION_FLOOR,
        };
        let rail_clamp = self.config.rail_clamp.get();
        let front_ode = |n: usize| {
            let c: f64 = low_c[..n].iter().sum();
            let g: f64 = low_c[..n].iter().zip(&low_k[..n]).map(|(c, k)| c * k).sum();
            ChargeOde {
                c,
                g,
                v_max: rail_clamp,
                p_in,
                p_drain: 0.0,
                v_drain_min: f64::INFINITY,
            }
        };
        // The fine reference deposits each step's intake charge at the
        // step-*start* voltage, so every Euler step books a `dq²/2C`
        // quadrature excess over the continuous closed form — material
        // on a small, low-voltage charging front (`dq ∝ 1/v`). Summed
        // along the front's own trajectory the excess has closed forms
        // per converter regime: `i²·dt·t/2C` through the
        // constant-current region and `(p·dt/4)·ln(v1²/v0²)` through
        // constant-power. Booking it (on a front that does not clip)
        // keeps staged strides step-faithful to the reference
        // discretization.
        let euler_intake_excess = |v0: f64, v1: f64, c: f64| -> f64 {
            if p_in <= 0.0 || v1 <= v0 || c <= 0.0 {
                return 0.0;
            }
            let v_floor = CONVERSION_FLOOR.get();
            let i_limit = CHARGE_CURRENT_LIMIT.get();
            let i_cc = (p_in / v_floor).min(i_limit);
            let v_cc = v_floor.max(p_in / i_limit);
            let mut excess = 0.0;
            let v_cc_end = v1.min(v_cc);
            if v0 < v_cc_end {
                let t_cc = c * (v_cc_end - v0) / i_cc;
                excess += i_cc * i_cc * dt * t_cc / (2.0 * c);
            }
            let va = v0.max(v_cc);
            if v1 > va {
                excess += p_in * dt * 0.25 * ((v1 * v1) / (va * va)).ln();
            }
            excess
        };
        let front_solve = |ode: &ChargeOde, v0: f64, t: f64| {
            let mut fin = charge_ode::integrate(ode, v0, t, None)?;
            if fin.clipped == 0.0 {
                let e = euler_intake_excess(v0, fin.v_final, ode.c);
                fin.v_final = (fin.v_final * fin.v_final + 2.0 * e / ode.c)
                    .sqrt()
                    .min(rail_clamp);
            }
            Some(fin)
        };

        // Books one decoupled span: the pack and the front land on
        // their own closed-form finals, the remaining low banks decay
        // on their leaks, and the ledger closes against the committed
        // energies exactly (∫q·dt = ΔE on each trajectory, summed; the
        // group energy carries from span to span).
        let group_energy = |this: &Self| -> f64 {
            this.llb.energy().get()
                + pack
                    .iter()
                    .chain(lows.iter())
                    .map(|&i| this.banks[i].stored_energy().get())
                    .sum::<f64>()
        };
        let mut e_group = group_energy(self);
        macro_rules! commit_staged {
            ($pack_fin:expr, $front_fin:expr, $t_adv:expr) => {{
                let pack_fin = $pack_fin;
                let front_fin = $front_fin;
                let t_adv = $t_adv;
                self.llb.set_voltage(Volts::new(pack_fin.v_final));
                for &i in pack {
                    set_terminal(&mut self.banks[i], pack_fin.v_final);
                }
                for j in 0..front_len {
                    set_terminal(&mut self.banks[lows[j]], front_fin.v_final);
                }
                // Low banks behind both blocking diodes just leak; the
                // drop is booked so the gross-delivery closure below
                // stays an identity.
                let mut decay_leaked = 0.0;
                for j in front_len..lows.len() {
                    let i = lows[j];
                    let e_b = self.banks[i].stored_energy();
                    low_v[j] *= (-low_k[j] * t_adv).exp();
                    set_terminal(&mut self.banks[i], low_v[j]);
                    decay_leaked += (e_b - self.banks[i].stored_energy()).get();
                }
                let e_after = group_energy(self);
                let delta_e = e_after - e_group;
                e_group = e_after;
                let leaked = pack_fin.leaked + front_fin.leaked + decay_leaked;
                let clipped = pack_fin.clipped + front_fin.clipped;
                let delivered_gross =
                    (delta_e + leaked + pack_fin.load_consumed + pack_fin.drained + clipped)
                        .max(0.0);
                self.ledger.leaked += Joules::new(leaked);
                self.ledger.load_consumed += Joules::new(pack_fin.load_consumed);
                self.ledger.overhead_consumed += Joules::new(pack_fin.drained);
                self.ledger.clipped += Joules::new(clipped);
                self.ledger.delivered += Joules::new(delivered_gross - clipped);
                self.ledger.harvested += Joules::new(delivered_gross);
                self.decay_disconnected(t_adv);
                self.note_dwell(t_adv);
                v_pack = pack_fin.v_final;
                v_front = front_fin.v_final;
            }};
        }

        // Topology events resolve once trajectories are within the
        // equalization sweep's own epsilon of each other.
        const MEET_EPS: f64 = 1e-6;
        // Quantize a predicted event time up onto the step grid.
        let quantize_meet = |meet: Option<f64>, horizon: f64| -> f64 {
            match meet {
                Some(t) => ((t / dt).ceil() * dt).max(dt).min(horizon),
                None => horizon,
            }
        };

        self.tick = self.tick.at_dt(fine_dt);
        let tick = self.tick;
        let period = tick.period().get();
        let mut elapsed = 0.0_f64;
        let mut refusal = FallbackReason::TransitionDue;
        let mut coupled = false;
        while elapsed < total {
            // The front absorbs the next-lowest bank once level with it
            // (per-step routing alternates deposits between them, which
            // is charge-equivalent to charging the merged capacitance).
            while front_len < lows.len() && v_front >= low_v[front_len] - MEET_EPS {
                let c_f: f64 = low_c[..front_len].iter().sum();
                let j = front_len;
                v_front = (c_f * v_front + low_c[j] * low_v[j]) / (c_f + low_c[j]);
                front_len += 1;
            }
            if v_pack <= vs || vw.is_some_and(|vw| v_pack >= vw) {
                break;
            }
            // Diode coupling: the front caught the falling pack, or the
            // pack fell onto a decaying low bank. Either way that output
            // diode conducts and the decoupled forms are stale.
            if v_front >= v_pack - MEET_EPS
                || (front_len < lows.len() && low_v[lows.len() - 1] >= v_pack - MEET_EPS)
            {
                coupled = true;
                break;
            }

            // The earliest predicted topology event bounds every span
            // this iteration integrates.
            let fr_ode = front_ode(front_len);
            let event_cut = |h: f64| -> f64 {
                let mut cut = quantize_meet(
                    charge_ode::staged_meet_time(&fr_ode, v_front, &pack_ode, v_pack, h),
                    h,
                );
                if front_len < lows.len() {
                    let j = front_len;
                    let next_fall = charge_ode::PoweredOde {
                        c: low_c[j],
                        g: low_c[j] * low_k[j],
                        v_max: rail_clamp,
                        p_in: 0.0,
                        i_load: 0.0,
                        p_drain: 0.0,
                        v_drain_min: f64::INFINITY,
                    };
                    cut = cut.min(quantize_meet(
                        charge_ode::staged_meet_time(&fr_ode, v_front, &next_fall, low_v[j], h),
                        h,
                    ));
                    let top = lows.len() - 1;
                    let top_rise = ChargeOde {
                        c: low_c[top],
                        g: low_c[top] * low_k[top],
                        v_max: rail_clamp,
                        p_in: 0.0,
                        p_drain: 0.0,
                        v_drain_min: f64::INFINITY,
                    };
                    cut = cut.min(quantize_meet(
                        charge_ode::staged_meet_time(&top_rise, low_v[top], &pack_ode, v_pack, h),
                        h,
                    ));
                }
                cut
            };

            // 0. Comparator dead band, in bulk — same guard bounds as
            // the equalized path, additionally cut at the predicted
            // topology events.
            let band_lo = (self.config.v_low.get() + BAND_GUARD).max(vs);
            let band_hi = self.config.v_high.get() - BAND_GUARD;
            let band_stop_up = vw.map_or(band_hi, |vw| vw.min(band_hi));
            let whole = (((total - elapsed) / dt).floor() * dt).max(0.0);
            if v_pack > band_lo && v_pack < band_stop_up && whole > 3.0 * period {
                let window = event_cut(whole);
                if window > 3.0 * period {
                    if let Some((t_adv, pack_fin)) = charge_ode::integrate_powered_quantized(
                        &pack_ode,
                        v_pack,
                        window,
                        band_lo,
                        Some(band_stop_up),
                        dt,
                    ) {
                        if t_adv > 2.0 * period {
                            let Some(front_fin) = front_solve(&fr_ode, v_front, t_adv) else {
                                refusal = FallbackReason::NoClosedForm;
                                break;
                            };
                            commit_staged!(pack_fin, front_fin, t_adv);
                            self.poll_acc =
                                tick.advance(self.poll_acc, (t_adv / dt).round() as u64);
                            elapsed += t_adv;
                            continue;
                        }
                    }
                }
            }

            // 1. Replay the poll ticks up to the next poll.
            let seg = tick.segment(self.poll_acc, Seconds::new(elapsed), duration);
            let seg_horizon = seg.elapsed.get() - elapsed;

            // 2. All decoupled closed forms over the segment, cut at
            // the earliest topology event so no committed span ever
            // integrates past a routing or coupling change.
            let horizon_eff = event_cut(seg_horizon);
            let Some((t_adv, pack_fin)) =
                charge_ode::integrate_powered_quantized(&pack_ode, v_pack, horizon_eff, vs, vw, dt)
            else {
                refusal = FallbackReason::NoClosedForm;
                break;
            };
            if t_adv <= 0.0 {
                refusal = FallbackReason::NoClosedForm;
                break;
            }
            let finished = t_adv >= seg_horizon - 1e-15;
            let Some(front_fin) = front_solve(&fr_ode, v_front, t_adv) else {
                refusal = FallbackReason::NoClosedForm;
                break;
            };

            // Guard band: resolve the poll against the reconstructed
            // LLB voltage; only the residual sliver still refuses.
            let v_poll = pack_fin.v_final + llb_offset;
            if seg.fired
                && finished
                && ((v_poll - self.config.v_high.get()).abs() < RESIDUAL_GUARD
                    || (v_poll - self.config.v_low.get()).abs() < RESIDUAL_GUARD)
            {
                if elapsed == 0.0 {
                    self.fallback = Some(FallbackReason::GuardBand);
                    return None;
                }
                refusal = FallbackReason::GuardBand;
                break;
            }

            // 3. Commit every trajectory and the energy books.
            commit_staged!(pack_fin, front_fin, t_adv);

            // 4. Controller bookkeeping.
            let mut no_cooldown = Seconds::ZERO;
            if crate::commit_segment_ticks(
                &tick,
                seg,
                t_adv,
                duration,
                &mut self.poll_acc,
                &mut elapsed,
                &mut no_cooldown,
            ) {
                let before = self.reconfigurations;
                self.poll_controller_at(Volts::new(v_pack + llb_offset));
                if self.reconfigurations != before {
                    self.drain_banks_into_llb();
                    // Bank topology changed: every trajectory is
                    // stale, so hand control back to the kernel.
                    break;
                }
            }
        }

        if coupled && elapsed < total {
            // A diode conducts: equalize the met pair (booking the
            // quantization-sized second-order loss through the
            // reference's own diode-loss closure) and continue the
            // stride from the re-partitioned state.
            self.drain_banks_into_llb();
            return match self.powered_advance(
                input,
                load,
                Seconds::new(total - elapsed),
                v_stop,
                v_wake,
                fine_dt,
            ) {
                Some(rest) => Some(Seconds::new(elapsed) + rest),
                // The re-partitioned walk refused from the
                // post-coupling state; the staged prefix still
                // advanced, so commit it and let the kernel re-stride
                // (clearing the refusal the inner call recorded — this
                // stride is not refused).
                None if elapsed > 0.0 => {
                    self.fallback = None;
                    Some(Seconds::new(elapsed))
                }
                None => None,
            };
        }
        if elapsed == 0.0 {
            self.fallback = Some(refusal);
        }
        Some(Seconds::new(elapsed))
    }
}

impl EnergyBuffer for ReactBuffer {
    fn name(&self) -> &str {
        "REACT"
    }

    fn rail_voltage(&self) -> Volts {
        self.llb.voltage()
    }

    fn input_voltage(&self) -> Volts {
        // The input diodes steer current to the lowest-voltage connected
        // element; the harvester sees that node.
        let bank_min = self
            .banks
            .iter()
            .filter(connected)
            .map(|b| b.terminal_voltage())
            .fold(f64::MAX, |m, v| m.min(v.get()));
        Volts::new(self.llb.voltage().get().min(bank_min))
    }

    fn equivalent_capacitance(&self) -> Farads {
        self.llb.capacitance()
            + self
                .banks
                .iter()
                .map(|b| b.terminal_capacitance())
                .sum::<Farads>()
    }

    fn stored_energy(&self) -> Joules {
        self.llb.energy() + self.banks.iter().map(|b| b.stored_energy()).sum::<Joules>()
    }

    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        // The §3.4.1 guarantee: energy deliverable during an *atomic*
        // operation, i.e. without waiting on reconfiguration cascades.
        // Connected banks ride the LLB down through their output diodes
        // at their present terminal capacitance; disconnected banks and
        // charge below `v_floor` (recoverable later via series boosts,
        // §3.3.4) are deliberately not promised to the application.
        let mut usable = Joules::ZERO;
        if self.llb.voltage() > v_floor {
            usable += self.llb.capacitance().energy_at(self.llb.voltage())
                - self.llb.capacitance().energy_at(v_floor);
        }
        for bank in &self.banks {
            if bank.mode() == BankMode::Disconnected {
                continue;
            }
            let v = bank.terminal_voltage();
            if v > v_floor {
                let c = bank.terminal_capacitance();
                usable += c.energy_at(v) - c.energy_at(v_floor);
            }
        }
        usable
    }

    fn supports_longevity(&self) -> bool {
        true
    }

    fn capacitance_level(&self) -> u32 {
        self.banks
            .iter()
            .map(|b| match b.mode() {
                BankMode::Disconnected => 0,
                BankMode::Series => 1,
                BankMode::Parallel => 2,
            })
            .sum()
    }

    fn supports_idle_fast_path(&self) -> bool {
        true
    }

    fn reconfiguration_count(&self) -> u64 {
        self.reconfigurations
    }

    /// REACT's conservative posture is one step *up* the expansion
    /// sequence: reconnect the most recently stranded bank, whose
    /// normally-open switches retained its charge across the forced
    /// brown-out. The extra committed capacitance is what lets the MCU
    /// sleep through an attacker's blackout without browning out
    /// again. No-op (returns `false`) once every bank is connected in
    /// parallel.
    fn defensive_reconfigure(&mut self) -> bool {
        let before = self.reconfigurations;
        self.step_up();
        self.reconfigurations > before
    }

    fn capacitance_dwell(&self) -> Vec<(u32, f64)> {
        self.dwell
            .iter()
            .enumerate()
            .filter(|(_, s)| **s > 0.0)
            .map(|(level, s)| (level as u32, *s))
            .collect()
    }

    /// Controller-aware closed-form idle integration. While the MCU is
    /// dark REACT's normally-open switches hold every bank disconnected
    /// and the 10 Hz poller cannot run, so the LLB is electrically a
    /// fixed-capacitance static buffer with one extra term: the
    /// always-on instrumentation draw (two comparators) above the
    /// 0.5 V `INSTRUMENTATION_FLOOR`. The shared regime solver integrates
    /// the whole stride in closed form — quantizing any `v_stop`
    /// crossing up to the fine-step grid, exactly like the static fast
    /// path — while each disconnected bank decays on its own
    /// leakage exponential.
    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        let v0 = self.llb.voltage().get();
        let vs = v_stop.get();
        if v0 >= vs || duration.get() <= 0.0 {
            return Seconds::ZERO;
        }
        assert!(fine_dt.get() > 0.0, "fine timestep must be positive");

        // The first MCU-off step of the reference opens every bank
        // switch (§3.2); replicate it before integrating.
        if self.mcu_was_running {
            for bank in &mut self.banks {
                bank.reconfigure(BankMode::Disconnected);
            }
            self.mcu_was_running = false;
        }
        // Forced test states can leave banks connected with the MCU flag
        // already clear; their diode routing has no closed form, so
        // replay the reference loop for them.
        if self.banks.iter().any(|b| connected(&b)) {
            return crate::reference_idle_advance(self, input, duration, v_stop, fine_dt);
        }

        let spec = *self.llb.spec();
        let ode = ChargeOde {
            c: spec.capacitance.get(),
            g: charge_ode::leakage_conductance(&spec.leakage),
            v_max: spec.max_voltage.get(),
            p_in: input.get().max(0.0),
            p_drain: self.config.instrumentation_overhead.get(),
            v_drain_min: INSTRUMENTATION_FLOOR,
        };
        let Some((t_adv, fin)) =
            charge_ode::integrate_quantized(&ode, v0, duration.get(), vs, fine_dt.get())
        else {
            // Drain active inside a constant-current regime (≥ 25 mW
            // input): no elementary solution.
            return crate::reference_idle_advance(self, input, duration, v_stop, fine_dt);
        };

        // LLB flows. delivered := ΔE + losses keeps the ledger residual
        // exactly zero; clamp the p = 0 case's rounding dust at zero.
        let e0 = self.llb.energy();
        self.llb.set_voltage(Volts::new(fin.v_final));
        let delta_e = self.llb.energy() - e0;
        let delivered = Joules::new((delta_e.get() + fin.leaked + fin.drained).max(0.0));
        self.ledger.leaked += Joules::new(fin.leaked);
        self.ledger.overhead_consumed += Joules::new(fin.drained);
        self.ledger.delivered += delivered;
        self.ledger.clipped += Joules::new(fin.clipped);
        self.ledger.harvested += delivered + Joules::new(fin.clipped);

        self.decay_disconnected(t_adv);

        // The reference resets the poll accumulator on every MCU-off
        // step; all capacitance dwell lands at level 0 (banks open).
        self.poll_acc = Seconds::ZERO;
        self.note_dwell(t_adv);
        Seconds::new(t_adv)
    }

    fn supports_powered_fast_path(&self) -> bool {
        true
    }

    /// Controller-aware closed-form *powered* integration: MCU on,
    /// workload asleep in LPM3. Unlike the dark phase, the 10 Hz
    /// software poller is alive, so the stride walks poll-to-poll
    /// segments exactly like [`MorphyBuffer`](crate::MorphyBuffer)'s
    /// idle path: between polls the LLB and every output-diode-coupled
    /// bank move as **one combined capacitor** (connected banks sit
    /// pinned at the LLB voltage — the equalized steady state
    /// `drain_banks_into_llb` maintains each fine step, whose continuum
    /// limit has zero diode loss), with the comparator/instrumentation
    /// draw (plus the per-connected-bank overhead) as a constant-power
    /// drain and the sleep load as a constant current. At each poll
    /// boundary the threshold handler runs (its accumulator replayed
    /// bit for bit by [`PollTick`], so poll times match the reference);
    /// a reconfiguration
    /// changes the bank topology, so the stride ends there and the
    /// kernel re-strides from the new state. Un-equalized connected
    /// banks (a bank charging up from below the LLB, forced test
    /// states) have no closed form — `None` falls back to fine steps.
    fn powered_advance(
        &mut self,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        let vs = v_stop.get();
        let vw = v_wake.map(Volts::get);
        let total = duration.get();
        let dt = fine_dt.get();
        assert!(dt > 0.0, "fine timestep must be positive");
        if total <= 0.0 {
            return Some(Seconds::ZERO);
        }

        // Diode-coupled steady state: the fine-step loop's per-step
        // interleaving (load draw → bank equalization → deposit into
        // the lowest element) keeps every connected bank within one
        // step's deposit of the LLB. A bank sitting *below* that band —
        // a freshly connected drained bank still charging up behind its
        // blocking output diode — is a genuinely decoupled state, which
        // the staged two-trajectory solve handles; a bank pinned *above*
        // the LLB (forced test states — continuous diode conduction
        // would have equalized it) has no closed form.
        let llb_v = self.llb.voltage().get();
        let equalize_tol = 0.01 * llb_v.abs().max(1.0);
        let (mut any_low, mut any_high, mut n_connected) = (false, false, 0usize);
        for bank in self.banks.iter().filter(connected) {
            let v = bank.terminal_voltage().get();
            any_low |= v < llb_v - equalize_tol;
            any_high |= v > llb_v + equalize_tol;
            n_connected += 1;
        }
        if any_high {
            self.fallback = Some(FallbackReason::NoClosedForm);
            return None;
        }
        if any_low {
            // The staged decoupled solve only engages at micro-power
            // intake. Its per-step discretization corrections (the
            // charging front's `dq²/2C` quadrature) scale with the
            // *square* of the input power, so at trickle currents —
            // the plateau-parked regime it exists for — the closed
            // forms track the fine reference to sub-microvolt, while
            // during harvest bursts the un-equalized state fine-steps
            // exactly like the reference (bursts also reconfigure the
            // banks within a poll or two, so there is no long stride
            // to win there anyway).
            if input.get() > STAGED_INPUT_MAX {
                self.fallback = Some(FallbackReason::NoClosedForm);
                return None;
            }
            let lows = BankSet::filtered(&self.banks, |i| {
                let bank = &self.banks[i];
                connected(&bank) && bank.terminal_voltage().get() < llb_v - equalize_tol
            });
            return self
                .staged_powered_advance(lows, input, load, duration, v_stop, v_wake, fine_dt);
        }

        // Enter the stride from the charge-weighted combined voltage
        // (what continuous diode conduction converges to). Nothing is
        // committed yet — the guard-band fallback below must leave the
        // buffer untouched so the fine steps it hands back to really
        // are the reference microdynamics. The first committed span
        // lands everything on its `v_final`, and the second-order
        // equalization loss folds into that commit's energy closure.
        let mut v_cur = if n_connected == 0 {
            llb_v
        } else {
            let mut num = self.llb.capacitance().get() * llb_v;
            let mut den = self.llb.capacitance().get();
            for bank in self.banks.iter().filter(connected) {
                let c = bank.terminal_capacitance().get();
                num += c * bank.terminal_voltage().get();
                den += c;
            }
            num / den
        };

        // LLB microstate offset: the combined capacitor reproduces the
        // *pack average*, but the 10 Hz comparator reads the LLB
        // specifically, which the fine-step churn (load dip →
        // re-equalization → input deposit) holds a quasi-stationary few
        // mV off the average. The offset at entry — left behind by the
        // genuine microdynamics of the preceding fine steps, under the
        // same input/load this stride integrates — reconstructs the
        // comparator's reading at every in-stride poll.
        let llb_offset = llb_v - v_cur;

        // The powered stride only runs while the MCU is on; keep the
        // normally-open-switch bookkeeping consistent for the next
        // MCU-off transition (a fine step would set the same flag).
        self.mcu_was_running = true;

        let llb_spec = *self.llb.spec();
        let mut c_eq = llb_spec.capacitance.get();
        let mut g_eq = charge_ode::leakage_conductance(&llb_spec.leakage);
        for bank in self.banks.iter().filter(connected) {
            // A bank's terminal decays at its unit's g/C rate in both
            // modes, so its terminal conductance is k·C_terminal.
            let unit = bank.spec().unit;
            let k = charge_ode::leakage_conductance(&unit.leakage) / unit.capacitance.get();
            let c_term = bank.terminal_capacitance().get();
            c_eq += c_term;
            g_eq += k * c_term;
        }
        let ode = charge_ode::PoweredOde {
            c: c_eq,
            g: g_eq,
            v_max: llb_spec.max_voltage.get(),
            p_in: input.get().max(0.0),
            i_load: load.get().max(0.0),
            p_drain: self.config.instrumentation_overhead.get()
                + self.config.overhead_per_bank.get() * n_connected as f64,
            v_drain_min: INSTRUMENTATION_FLOOR,
        };

        self.tick = self.tick.at_dt(fine_dt);
        let tick = self.tick;
        let period = tick.period().get();
        let mut e_pack = self.pack_energy();
        let mut elapsed = 0.0_f64;
        // Telemetry: why a zero-length stride was refused (stop
        // condition already satisfied unless a break says otherwise).
        let mut refusal = FallbackReason::TransitionDue;
        while elapsed < total {
            let v_now = v_cur;
            if v_now <= vs || vw.is_some_and(|vw| v_now >= vw) {
                break;
            }

            // 0. Comparator dead band, in bulk: while the rail sits
            // strictly inside (v_low, v_high) — with the same guard
            // margin the per-poll path uses — every poll reads "Ok"
            // and fires nothing, so whole spans of the sleep integrate
            // in ONE solve instead of poll-by-poll, with the poll
            // accumulator advanced in closed form. The stride stops at
            // the band edges (quantized onto the step grid); threshold
            // approaches then fall to the per-poll walk below.
            let band_lo = (self.config.v_low.get() + BAND_GUARD).max(vs);
            let band_hi = self.config.v_high.get() - BAND_GUARD;
            let band_stop_up = vw.map_or(band_hi, |vw| vw.min(band_hi));
            let whole = (((total - elapsed) / dt).floor() * dt).max(0.0);
            if v_now > band_lo && v_now < band_stop_up && whole > 3.0 * period {
                if let Some((t_adv, fin)) = charge_ode::integrate_powered_quantized(
                    &ode,
                    v_now,
                    whole,
                    band_lo,
                    Some(band_stop_up),
                    dt,
                ) {
                    if t_adv > 2.0 * period {
                        self.commit_equalized(&fin, t_adv, &mut e_pack);
                        v_cur = fin.v_final;
                        self.poll_acc = tick.advance(self.poll_acc, (t_adv / dt).round() as u64);
                        elapsed += t_adv;
                        continue;
                    }
                }
            }

            // 1. Replay the poll ticks up to the next poll.
            let seg = tick.segment(self.poll_acc, Seconds::new(elapsed), duration);
            let seg_horizon = seg.elapsed.get() - elapsed;

            // 2. Closed-form integration of the inter-poll segment.
            let Some((t_adv, fin)) =
                charge_ode::integrate_powered_quantized(&ode, v_now, seg_horizon, vs, vw, dt)
            else {
                refusal = FallbackReason::NoClosedForm;
                break; // hand the rest back to the fine-step loop
            };
            if t_adv <= 0.0 {
                // A zero-length quantized advance with the rail pinned
                // at a comparator edge is the guard band refusing the
                // stride; anywhere else the closed form itself gave up.
                refusal = if (v_now - self.config.v_high.get()).abs() < BAND_GUARD
                    || (v_now - self.config.v_low.get()).abs() < BAND_GUARD
                {
                    FallbackReason::GuardBand
                } else {
                    FallbackReason::NoClosedForm
                };
                break;
            }

            // Comparator guard band: polls landing near a threshold
            // resolve against the *reconstructed* LLB voltage (pack
            // average plus the tracked microstate offset) instead of
            // refusing the whole ±20 mV band. Only a residual sliver —
            // where the reconstruction error (the churn's step-to-step
            // spread, well under a millivolt at sleep currents) could
            // genuinely flip the comparator — still falls back to fine
            // steps, which are the reference microdynamics.
            let v_poll = fin.v_final + llb_offset;
            if seg.fired
                && t_adv >= seg_horizon - 1e-15
                && n_connected > 0
                && ((v_poll - self.config.v_high.get()).abs() < RESIDUAL_GUARD
                    || (v_poll - self.config.v_low.get()).abs() < RESIDUAL_GUARD)
            {
                if elapsed == 0.0 {
                    self.fallback = Some(FallbackReason::GuardBand);
                    return None;
                }
                refusal = FallbackReason::GuardBand;
                break;
            }

            // 3. Commit the combined capacitor and the energy books.
            self.commit_equalized(&fin, t_adv, &mut e_pack);
            v_cur = fin.v_final;

            // 4. Controller bookkeeping.
            let mut no_cooldown = Seconds::ZERO;
            if crate::commit_segment_ticks(
                &tick,
                seg,
                t_adv,
                duration,
                &mut self.poll_acc,
                &mut elapsed,
                &mut no_cooldown,
            ) {
                let before = self.reconfigurations;
                // The comparator reads the reconstructed LLB voltage,
                // not the committed pack average.
                self.poll_controller_at(Volts::new(v_cur + llb_offset));
                if self.reconfigurations != before {
                    self.drain_banks_into_llb();
                    // Bank topology changed: the combined capacitor is
                    // stale, so hand control back to the kernel.
                    break;
                }
            }
        }
        if elapsed == 0.0 {
            self.fallback = Some(refusal);
        }
        Some(Seconds::new(elapsed))
    }

    fn take_fallback(&mut self) -> Option<FallbackReason> {
        self.fallback.take()
    }

    /// With the LLB and every connected bank riding at one rail voltage
    /// (the equalized sleep-stride invariant), the usable pool is
    /// `½·C_active·(v² − v_floor²)` for `C_active` = LLB + connected
    /// terminals — the same inverse as a static buffer of that size.
    /// Disconnected banks are not promised to the application (§3.4.1),
    /// so they do not move the crossing.
    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        let c_active = self.llb.capacitance()
            + self
                .banks
                .iter()
                .filter(connected)
                .map(|b| b.terminal_capacitance())
                .sum::<Farads>();
        let vf = v_floor.get().max(0.0);
        Some(Volts::new(
            (vf * vf + 2.0 * energy.get().max(0.0) / c_active.get()).sqrt(),
        ))
    }

    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, mcu_running: bool) {
        // Dwell accounting uses the level at the top of the step, before
        // any controller action — both kernels share this convention.
        self.note_dwell(dt.get());

        // 0. Normally-open switches (§3.2): when the MCU loses power the
        // switch drivers de-energize and every bank disconnects, keeping
        // its charge. Cold starts therefore always see only the LLB.
        if self.mcu_was_running && !mcu_running {
            for bank in &mut self.banks {
                bank.reconfigure(BankMode::Disconnected);
            }
        }
        self.mcu_was_running = mcu_running;

        // 1. Leakage everywhere (disconnected banks still leak).
        self.ledger.leaked += self.llb.leak(dt);
        for bank in &mut self.banks {
            self.ledger.leaked += bank.leak(dt);
        }

        // 2. Load + REACT's own quiescent draw come from the LLB.
        let v = self.llb.voltage();
        let mut e_llb = self.llb.energy();
        if v.get() > INSTRUMENTATION_FLOOR {
            let connected = self.banks.iter().filter(connected).count() as f64;
            let overhead =
                self.config.instrumentation_overhead + self.config.overhead_per_bank * connected;
            let i_overhead = overhead / v;
            // Book the overhead separately from the application load.
            let before = e_llb;
            self.llb.draw(i_overhead, dt);
            e_llb = self.llb.energy();
            self.ledger.overhead_consumed += before - e_llb;
        }
        self.llb.draw(load, dt);
        self.ledger.load_consumed += e_llb - self.llb.energy();

        // 3. Output diodes hold the LLB up from the banks.
        self.drain_banks_into_llb();

        // 4. Harvester input to the lowest-voltage element.
        self.route_input(input, dt);

        // 5. Software controller, 10 Hz while the MCU runs (§3.4). A
        // reconfiguration takes effect immediately: the output diodes
        // conduct as soon as a boosted bank rises above the LLB, so
        // drain again after a poll.
        if mcu_running {
            self.poll_acc += dt;
            if self.poll_acc >= self.config.poll_period {
                self.poll_acc = Seconds::ZERO;
                let before = self.reconfigurations;
                self.poll_controller();
                if self.reconfigurations != before {
                    self.drain_banks_into_llb();
                }
            }
        } else {
            self.poll_acc = Seconds::ZERO;
        }
    }

    fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charged_react(v: f64) -> ReactBuffer {
        let mut r = ReactBuffer::paper_prototype();
        r.set_llb_voltage(Volts::new(v));
        r
    }

    #[test]
    fn cold_start_uses_only_the_llb() {
        let r = ReactBuffer::paper_prototype();
        assert!((r.equivalent_capacitance().to_micro() - 770.0).abs() < 1e-9);
        assert_eq!(r.capacitance_level(), 0);
        assert!(r.bank_modes().iter().all(|&m| m == BankMode::Disconnected));
    }

    #[test]
    fn overvoltage_signal_connects_banks_stepwise() {
        let mut r = charged_react(3.55);
        // One poll period with the MCU running.
        r.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), true);
        assert_eq!(r.bank_modes()[0], BankMode::Series);
        assert_eq!(r.capacitance_level(), 1);
        // Keep the LLB pinned high: next poll promotes to parallel.
        r.set_llb_voltage(Volts::new(3.55));
        r.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), true);
        assert_eq!(r.bank_modes()[0], BankMode::Parallel);
        // Then the second bank connects in series.
        r.set_llb_voltage(Volts::new(3.55));
        r.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), true);
        assert_eq!(r.bank_modes()[1], BankMode::Series);
        assert_eq!(r.reconfiguration_count(), 3);
    }

    #[test]
    fn controller_is_dead_while_mcu_is_off() {
        let mut r = charged_react(3.55);
        for _ in 0..20 {
            r.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), false);
        }
        assert_eq!(r.capacitance_level(), 0);
    }

    #[test]
    fn undervoltage_boosts_parallel_bank_and_spikes_llb() {
        let mut r = ReactBuffer::paper_prototype();
        r.set_llb_voltage(Volts::new(1.9));
        // Bank 0 (3 × 220 µF) charged in parallel at 1.9 V.
        r.force_bank_state(0, Volts::new(1.9), BankMode::Parallel);
        let e_before = r.stored_energy();
        r.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), true);
        // Controller flips the bank to series (3 × 1.9 = 5.7 V terminal);
        // the output diode then dumps it into the LLB.
        assert_eq!(r.bank_modes()[0], BankMode::Series);
        let v = r.rail_voltage();
        // Eq. 1 for C_unit = 220 µF, N = 3: ≈ 2.18 V.
        let expected = r
            .config()
            .eq1_post_boost_voltage(Farads::from_micro(220.0), 3);
        assert!(
            (v.get() - expected.get()).abs() < 0.02,
            "post-boost LLB {v:?} vs Eq.1 {expected:?}"
        );
        assert!(v > Volts::new(1.9) && v < r.config().v_high);
        // Equalization dissipated something, booked as diode loss.
        assert!(r.ledger().diode_loss.get() > 0.0);
        assert!(r.stored_energy() < e_before);
    }

    #[test]
    fn bank_reconfiguration_itself_is_lossless() {
        let mut r = ReactBuffer::paper_prototype();
        r.force_bank_state(2, Volts::new(1.5), BankMode::Parallel);
        let e = r.banks[2].stored_energy();
        r.banks[2].reconfigure(BankMode::Series);
        assert!((r.banks[2].stored_energy().get() - e.get()).abs() < 1e-15);
    }

    #[test]
    fn input_routes_to_lowest_voltage_element() {
        let mut r = charged_react(3.0);
        r.force_bank_state(0, Volts::new(0.2), BankMode::Series); // 0.6 V terminal
        let llb_e = r.llb.energy();
        r.step(
            Watts::from_milli(10.0),
            Amps::ZERO,
            Seconds::from_milli(1.0),
            false,
        );
        // The bank (lower terminal) got the charge, not the LLB.
        assert!(r.banks[0].unit_voltage() > Volts::new(0.2));
        assert!(r.llb.energy() <= llb_e + Joules::new(1e-12));
    }

    #[test]
    fn llb_clips_when_everything_full() {
        let mut r = charged_react(3.6);
        r.step(
            Watts::from_milli(30.0),
            Amps::ZERO,
            Seconds::from_milli(1.0),
            false,
        );
        assert!(r.ledger().clipped.get() > 0.0);
        assert!((r.rail_voltage().get() - 3.6).abs() < 1e-9);
    }

    #[test]
    fn banks_above_llb_hold_it_up() {
        let mut r = charged_react(2.0);
        r.force_bank_state(1, Volts::new(3.0), BankMode::Parallel); // 3 V terminal
        r.step(
            Watts::ZERO,
            Amps::from_milli(1.5),
            Seconds::from_milli(1.0),
            false,
        );
        // The LLB equalized up toward the bank.
        assert!(r.rail_voltage().get() > 2.5);
    }

    #[test]
    fn usable_energy_counts_reclaimable_bank_charge() {
        let mut r = ReactBuffer::paper_prototype();
        r.set_llb_voltage(Volts::new(3.3));
        r.force_bank_state(4, Volts::new(3.3), BankMode::Parallel); // 2×5 mF
        let usable = r.usable_energy_above(Volts::new(1.8));
        // LLB: ½·770µ·(3.3²−1.8²) ≈ 2.94 mJ. Bank 5 (2 × 5 mF parallel
        // at 3.3 V) rides the LLB down: ½·10m·(3.3²−1.8²) ≈ 38.25 mJ.
        let expected = 0.5 * (770e-6 + 10e-3) * (3.3_f64.powi(2) - 1.8_f64.powi(2));
        assert!(
            (usable.get() - expected).abs() < 1e-6,
            "usable {} mJ",
            usable.to_milli()
        );
        // A disconnected charged bank is not promised to the app.
        r.force_bank_state(4, Volts::new(3.3), BankMode::Disconnected);
        let llb_only = r.usable_energy_above(Volts::new(1.8));
        assert!((llb_only.get() - 0.5 * 770e-6 * (3.3_f64.powi(2) - 1.8_f64.powi(2))).abs() < 1e-6);
    }

    #[test]
    fn overhead_scales_with_connected_banks() {
        let mut none = charged_react(3.0);
        let mut many = charged_react(3.0);
        for i in 0..5 {
            many.force_bank_state(i, Volts::new(3.0), BankMode::Parallel);
        }
        for _ in 0..1000 {
            none.step(Watts::ZERO, Amps::ZERO, Seconds::from_milli(1.0), false);
            many.step(Watts::ZERO, Amps::ZERO, Seconds::from_milli(1.0), false);
        }
        assert!(many.ledger().overhead_consumed > none.ledger().overhead_consumed);
        // ~68 µW for one second across five banks.
        let drawn = many.ledger().overhead_consumed.to_micro();
        assert!(drawn > 50.0 && drawn < 90.0, "overhead {drawn} µJ");
    }

    #[test]
    fn step_down_sequence_reverses_step_up() {
        let mut r = charged_react(1.8);
        r.force_bank_state(0, Volts::new(1.0), BankMode::Parallel);
        r.force_bank_state(1, Volts::new(1.0), BankMode::Parallel);
        r.set_llb_voltage(Volts::new(1.8));
        r.step(Watts::ZERO, Amps::ZERO, Seconds::new(0.1), true);
        // The *last* connected bank (index 1) boosts first.
        assert_eq!(r.bank_modes()[1], BankMode::Series);
        assert_eq!(r.bank_modes()[0], BankMode::Parallel);
    }

    #[test]
    fn energy_conservation_over_noisy_run() {
        let mut r = ReactBuffer::paper_prototype();
        let e0 = r.stored_energy();
        for i in 0..20_000u32 {
            let input = if i % 7 < 4 {
                Watts::from_milli(8.0)
            } else {
                Watts::ZERO
            };
            let load = if i % 5 < 2 {
                Amps::from_milli(1.5)
            } else {
                Amps::ZERO
            };
            r.step(input, load, Seconds::from_milli(1.0), i % 3 == 0);
        }
        let resid = r.ledger().conservation_residual(e0, r.stored_energy());
        assert!(
            resid.get().abs() < 1e-3 * r.ledger().harvested.get().max(1e-9),
            "residual {} J vs harvested {} J",
            resid.get(),
            r.ledger().harvested.get()
        );
    }
}
