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

use crate::charge_ode::{self, ChargeOde, IdleSolution, PoweredSolution};
use crate::walk::{self, Controller, PollModel, BAND_GUARD};
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

        self.ledger
            .deposit((e_after - e_before).max(Joules::ZERO), clipped);
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

    /// The LLB plus the connected banks `pack` (in bank order) as one
    /// combined capacitor: its charge, capacitance and leakage
    /// conductance. A bank's terminal decays at its unit's g/C rate in
    /// both modes, so its terminal conductance is k·C_terminal.
    fn combined<'b>(&self, pack: impl Iterator<Item = &'b SeriesParallelBank>) -> (f64, f64, f64) {
        let llb = self.llb.spec();
        let mut c = llb.capacitance.get();
        let mut g = charge_ode::leakage_conductance(&llb.leakage);
        let mut charge = c * self.llb.voltage().get();
        for bank in pack {
            let unit = bank.spec().unit;
            let k = charge_ode::leakage_conductance(&unit.leakage) / unit.capacitance.get();
            let c_term = bank.terminal_capacitance().get();
            charge += c_term * bank.terminal_voltage().get();
            c += c_term;
            g += k * c_term;
        }
        (charge, c, g)
    }

    /// The poll controller under a stride walk; it has no cooldown.
    fn controller(&mut self) -> Controller<'_> {
        Controller {
            tick: &mut self.tick,
            acc: &mut self.poll_acc,
            cooldown: None,
            fallback: Some(&mut self.fallback),
            thresholds: (self.config.v_low.get(), self.config.v_high.get()),
        }
    }

    /// Whether `v` sits within `margin` of a comparator threshold.
    fn near_threshold(&self, v: f64, margin: f64) -> bool {
        (v - self.config.v_high.get()).abs() < margin
            || (v - self.config.v_low.get()).abs() < margin
    }

    /// One in-stride poll against the reconstructed LLB voltage `v`
    /// (the committed state only carries the pack average). A
    /// reconfiguration drains any boosted bank into the LLB and hands
    /// the stride back: the bank topology changed, so every closed form
    /// is stale.
    fn poll_in_stride(&mut self, v: f64) -> bool {
        let before = self.reconfigurations;
        self.poll_controller_at(Volts::new(v));
        if self.reconfigurations == before {
            return false;
        }
        self.drain_banks_into_llb();
        true
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
        lows: BankSet,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        let total = duration.get();
        let mut walk = StagedWalk::new(self, lows, input, load, fine_dt.get());
        let elapsed = walk::walk_polls(&mut walk, fine_dt, duration, v_stop, v_wake)?;
        if walk.coupled && elapsed < total {
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
        Some(Seconds::new(elapsed))
    }
}

/// Topology events resolve once trajectories are within the
/// equalization sweep's own epsilon of each other.
const MEET_EPS: f64 = 1e-6;

/// The equalized pack under the poll walk: the LLB and every
/// output-diode-coupled bank move as one combined capacitor.
struct EqualizedWalk<'a> {
    buffer: &'a mut ReactBuffer,
    ode: charge_ode::PoweredOde,
    /// The pack voltage.
    v: f64,
    /// The committed pack energy, carried from span to span.
    e_pack: f64,
    /// LLB microstate offset: the comparator reads the pack average
    /// plus this.
    llb_offset: f64,
    /// Whether any bank is connected; only then can the reconstructed
    /// LLB reading sit in the residual guard band.
    banked: bool,
}

impl PollModel for EqualizedWalk<'_> {
    type Span = PoweredSolution;

    fn controller(&mut self) -> Controller<'_> {
        self.buffer.controller()
    }

    fn enter(&mut self) -> f64 {
        self.v
    }

    fn segment(&mut self, h: f64, lo: f64, hi: Option<f64>, dt: f64) -> Option<(f64, Self::Span)> {
        charge_ode::integrate_powered_quantized(&self.ode, self.v, h, lo, hi, dt)
    }

    /// A zero-length quantized advance with the rail pinned at a
    /// comparator edge is the guard band refusing the stride; anywhere
    /// else the closed form itself gave up.
    fn stalled(&self) -> FallbackReason {
        if self.buffer.near_threshold(self.v, BAND_GUARD) {
            FallbackReason::GuardBand
        } else {
            FallbackReason::NoClosedForm
        }
    }

    /// Polls landing near a threshold resolve against the reconstructed
    /// LLB voltage instead of refusing the whole ±20 mV band. Only a
    /// residual sliver — where the reconstruction error (the churn's
    /// step-to-step spread, well under a millivolt at sleep currents)
    /// could genuinely flip the comparator — still falls back to fine
    /// steps, which are the reference microdynamics.
    fn guarded(&self, fin: &PoweredSolution) -> bool {
        let v_poll = fin.v_final + self.llb_offset;
        self.banked && self.buffer.near_threshold(v_poll, RESIDUAL_GUARD)
    }

    /// The LLB and every connected bank land on `fin.v_final`, the
    /// ledger closes against the committed pack energy, disconnected
    /// banks decay, and dwell accrues.
    #[inline]
    fn commit(&mut self, t_adv: f64, fin: &PoweredSolution) {
        let buffer = &mut *self.buffer;
        buffer.llb.set_voltage(Volts::new(fin.v_final));
        for bank in buffer
            .banks
            .iter_mut()
            .filter(|b| b.mode() != BankMode::Disconnected)
        {
            set_terminal(bank, fin.v_final);
        }
        let e_after = buffer.pack_energy();
        let delta_e = e_after - self.e_pack;
        self.e_pack = e_after;
        buffer.ledger.close_gross(
            Joules::new(delta_e),
            Joules::new(fin.leaked),
            Joules::new(fin.load_consumed),
            Joules::new(fin.drained),
            Joules::new(fin.clipped),
        );
        buffer.decay_disconnected(t_adv);
        buffer.note_dwell(t_adv);
        self.v = fin.v_final;
    }

    fn poll(&mut self) -> bool {
        self.buffer.poll_in_stride(self.v + self.llb_offset)
    }
}

/// The un-equalized state under the poll walk: the pack (LLB plus the
/// equalized banks), the charging front and the other low banks, each
/// on its own closed-form trajectory while the output diodes block.
struct StagedWalk<'a> {
    buffer: &'a mut ReactBuffer,
    /// Connected banks equalized with the LLB, in bank order.
    pack: BankSet,
    /// Connected banks below the pack, ascending by terminal voltage,
    /// with each one's voltage, terminal capacitance and leak rate.
    lows: BankSet,
    low_v: [f64; MAX_BANKS],
    low_c: [f64; MAX_BANKS],
    low_k: [f64; MAX_BANKS],
    /// The charging front: `lows[..front_len]` share the lowest voltage
    /// and split the harvester intake, so they charge as one combined
    /// capacitance at `v_front`.
    front_len: usize,
    v_front: f64,
    v_pack: f64,
    pack_ode: charge_ode::PoweredOde,
    /// LLB microstate offset for comparator reconstruction, exactly as
    /// in the equalized walk.
    llb_offset: f64,
    p_in: f64,
    rail_clamp: f64,
    dt: f64,
    /// The committed energy of the LLB, the pack and the low banks,
    /// carried from span to span.
    e_group: f64,
    /// Whether the walk handed back at a diode coupling.
    coupled: bool,
}

impl<'a> StagedWalk<'a> {
    fn new(
        buffer: &'a mut ReactBuffer,
        mut lows: BankSet,
        input: Watts,
        load: Amps,
        dt: f64,
    ) -> Self {
        // The pack: LLB plus every connected bank already equalized
        // with it (the low banks are excluded by construction).
        let pack = BankSet::filtered(&buffer.banks, |i| {
            !lows.as_slice().contains(&i) && connected(&&buffer.banks[i])
        });
        let pack_banks = pack.as_slice().iter().map(|&i| &buffer.banks[i]);
        let (charge, c_pack, g_pack) = buffer.combined(pack_banks);
        let v_pack = charge / c_pack;

        // Low banks ascending by terminal voltage (a stable sort, which
        // at this length is an in-place insertion sort); per-bank
        // terminal capacitance and leak rate ride along.
        let v = |i: usize| buffer.banks[i].terminal_voltage().get();
        lows.as_mut_slice().sort_by(|&a, &b| v(a).total_cmp(&v(b)));
        let (mut low_v, mut low_c, mut low_k) =
            ([0.0; MAX_BANKS], [0.0; MAX_BANKS], [0.0; MAX_BANKS]);
        for (j, &i) in lows.as_slice().iter().enumerate() {
            let bank = &buffer.banks[i];
            let unit = bank.spec().unit;
            low_v[j] = bank.terminal_voltage().get();
            low_c[j] = bank.terminal_capacitance().get();
            low_k[j] = charge_ode::leakage_conductance(&unit.leakage) / unit.capacitance.get();
        }

        // The powered stride only runs while the MCU is on (see the
        // equalized path).
        buffer.mcu_was_running = true;

        let pack_ode = charge_ode::PoweredOde {
            c: c_pack,
            g: g_pack,
            v_max: buffer.llb.spec().max_voltage.get(),
            p_in: 0.0,
            i_load: load.get().max(0.0),
            // The overhead draw scales with every *connected* bank,
            // including the ones still charging up.
            p_drain: buffer.config.instrumentation_overhead.get()
                + buffer.config.overhead_per_bank.get() * (pack.len + lows.len) as f64,
            v_drain_min: INSTRUMENTATION_FLOOR,
        };
        let mut walk = Self {
            pack,
            lows,
            low_v,
            low_c,
            low_k,
            front_len: 1,
            v_front: low_v[0],
            v_pack,
            pack_ode,
            llb_offset: buffer.llb.voltage().get() - v_pack,
            p_in: input.get().max(0.0),
            rail_clamp: buffer.config.rail_clamp.get(),
            dt,
            e_group: 0.0,
            coupled: false,
            buffer,
        };
        walk.e_group = walk.group_energy();
        walk
    }

    /// The LLB's, the pack's and every low bank's stored energy.
    fn group_energy(&self) -> f64 {
        let banks = &self.buffer.banks;
        self.buffer.llb.energy().get()
            + self
                .pack
                .as_slice()
                .iter()
                .chain(self.lows.as_slice())
                .map(|&i| banks[i].stored_energy().get())
                .sum::<f64>()
    }

    /// The charging front's combined ODE, fed the whole harvester
    /// intake.
    fn front_ode(&self) -> ChargeOde {
        let n = self.front_len;
        let c: f64 = self.low_c[..n].iter().sum();
        let g: f64 = self.low_c[..n]
            .iter()
            .zip(&self.low_k[..n])
            .map(|(c, k)| c * k)
            .sum();
        ChargeOde {
            c,
            g,
            v_max: self.rail_clamp,
            p_in: self.p_in,
            p_drain: 0.0,
            v_drain_min: f64::INFINITY,
        }
    }

    /// The fine reference deposits each step's intake charge at the
    /// step-*start* voltage, so every Euler step books a `dq²/2C`
    /// quadrature excess over the continuous closed form — material on
    /// a small, low-voltage charging front (`dq ∝ 1/v`). Summed along
    /// the front's own trajectory the excess has closed forms per
    /// converter regime: `i²·dt·t/2C` through the constant-current
    /// region and `(p·dt/4)·ln(v1²/v0²)` through constant-power.
    /// Booking it (on a front that does not clip) keeps staged strides
    /// step-faithful to the reference discretization.
    fn euler_intake_excess(&self, v0: f64, v1: f64, c: f64) -> f64 {
        let (p_in, dt) = (self.p_in, self.dt);
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
    }

    /// The front's trajectory over `t`, Euler excess included.
    fn front_solve(&self, t: f64) -> Option<IdleSolution> {
        let ode = &self.front_ode();
        let mut fin = charge_ode::integrate(ode, self.v_front, t, None)?;
        if fin.clipped == 0.0 {
            let e = self.euler_intake_excess(self.v_front, fin.v_final, ode.c);
            fin.v_final = (fin.v_final * fin.v_final + 2.0 * e / ode.c)
                .sqrt()
                .min(self.rail_clamp);
        }
        Some(fin)
    }

    /// A predicted event time quantized up onto the step grid.
    fn quantize_meet(&self, meet: Option<f64>, horizon: f64) -> f64 {
        match meet {
            Some(t) => ((t / self.dt).ceil() * self.dt).max(self.dt).min(horizon),
            None => horizon,
        }
    }
}

impl PollModel for StagedWalk<'_> {
    type Span = (PoweredSolution, IdleSolution);

    fn controller(&mut self) -> Controller<'_> {
        self.buffer.controller()
    }

    /// The front absorbs the next-lowest bank once level with it
    /// (per-step routing alternates deposits between them, which is
    /// charge-equivalent to charging the merged capacitance).
    fn enter(&mut self) -> f64 {
        while self.front_len < self.lows.len
            && self.v_front >= self.low_v[self.front_len] - MEET_EPS
        {
            let c_f: f64 = self.low_c[..self.front_len].iter().sum();
            let j = self.front_len;
            self.v_front =
                (c_f * self.v_front + self.low_c[j] * self.low_v[j]) / (c_f + self.low_c[j]);
            self.front_len += 1;
        }
        self.v_pack
    }

    /// Diode coupling: the front caught the falling pack, or the pack
    /// fell onto a decaying low bank. Either way that output diode
    /// conducts and the decoupled forms are stale.
    fn couples(&mut self) -> bool {
        let n = self.lows.len;
        self.coupled = self.v_front >= self.v_pack - MEET_EPS
            || (self.front_len < n && self.low_v[n - 1] >= self.v_pack - MEET_EPS);
        self.coupled
    }

    /// The earliest predicted topology event: the front meeting the
    /// pack or the next-lowest bank, or the topmost low bank meeting the
    /// pack.
    fn cut(&self, h: f64) -> f64 {
        let (fr_ode, v_front) = (&self.front_ode(), self.v_front);
        let mut cut = self.quantize_meet(
            charge_ode::staged_meet_time(fr_ode, v_front, &self.pack_ode, self.v_pack, h),
            h,
        );
        if self.front_len < self.lows.len {
            let j = self.front_len;
            let next_fall = charge_ode::PoweredOde {
                c: self.low_c[j],
                g: self.low_c[j] * self.low_k[j],
                v_max: self.rail_clamp,
                p_in: 0.0,
                i_load: 0.0,
                p_drain: 0.0,
                v_drain_min: f64::INFINITY,
            };
            cut = cut.min(self.quantize_meet(
                charge_ode::staged_meet_time(fr_ode, v_front, &next_fall, self.low_v[j], h),
                h,
            ));
            let top = self.lows.len - 1;
            let top_rise = ChargeOde {
                c: self.low_c[top],
                g: self.low_c[top] * self.low_k[top],
                v_max: self.rail_clamp,
                p_in: 0.0,
                p_drain: 0.0,
                v_drain_min: f64::INFINITY,
            };
            cut = cut.min(self.quantize_meet(
                charge_ode::staged_meet_time(
                    &top_rise,
                    self.low_v[top],
                    &self.pack_ode,
                    self.v_pack,
                    h,
                ),
                h,
            ));
        }
        cut
    }

    fn segment(&mut self, h: f64, lo: f64, hi: Option<f64>, dt: f64) -> Option<(f64, Self::Span)> {
        let (t_adv, pack_fin) =
            charge_ode::integrate_powered_quantized(&self.pack_ode, self.v_pack, h, lo, hi, dt)?;
        let front_fin = self.front_solve(t_adv)?;
        Some((t_adv, (pack_fin, front_fin)))
    }

    /// Resolves the poll against the reconstructed LLB voltage; only the
    /// residual sliver still refuses.
    fn guarded(&self, (pack_fin, _): &Self::Span) -> bool {
        let v_poll = pack_fin.v_final + self.llb_offset;
        self.buffer.near_threshold(v_poll, RESIDUAL_GUARD)
    }

    /// The pack and the front land on their own closed-form finals, the
    /// remaining low banks decay on their leaks, and the ledger closes
    /// against the committed energies exactly (∫q·dt = ΔE on each
    /// trajectory, summed).
    fn commit(&mut self, t_adv: f64, (pack_fin, front_fin): &Self::Span) {
        let buffer = &mut *self.buffer;
        let lows = self.lows.as_slice();
        buffer.llb.set_voltage(Volts::new(pack_fin.v_final));
        for &i in self.pack.as_slice() {
            set_terminal(&mut buffer.banks[i], pack_fin.v_final);
        }
        for &i in &lows[..self.front_len] {
            set_terminal(&mut buffer.banks[i], front_fin.v_final);
        }
        // Low banks behind both blocking diodes just leak; the drop is
        // booked so the gross-delivery closure below stays an identity.
        let mut decay_leaked = 0.0;
        for (j, &i) in lows.iter().enumerate().skip(self.front_len) {
            let e_b = buffer.banks[i].stored_energy();
            self.low_v[j] *= (-self.low_k[j] * t_adv).exp();
            set_terminal(&mut buffer.banks[i], self.low_v[j]);
            decay_leaked += (e_b - buffer.banks[i].stored_energy()).get();
        }
        let e_after = self.group_energy();
        let delta_e = e_after - self.e_group;
        self.e_group = e_after;
        let leaked = pack_fin.leaked + front_fin.leaked + decay_leaked;
        let clipped = pack_fin.clipped + front_fin.clipped;
        let buffer = &mut *self.buffer;
        buffer.ledger.close_gross(
            Joules::new(delta_e),
            Joules::new(leaked),
            Joules::new(pack_fin.load_consumed),
            Joules::new(pack_fin.drained),
            Joules::new(clipped),
        );
        buffer.decay_disconnected(t_adv);
        buffer.note_dwell(t_adv);
        self.v_pack = pack_fin.v_final;
        self.v_front = front_fin.v_final;
    }

    fn poll(&mut self) -> bool {
        self.buffer.poll_in_stride(self.v_pack + self.llb_offset)
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
        // exactly zero; the closure clamps the p = 0 case's rounding
        // dust at zero.
        let e0 = self.llb.energy();
        self.llb.set_voltage(Volts::new(fin.v_final));
        self.ledger.close_net(
            self.llb.energy() - e0,
            Joules::new(fin.leaked),
            Joules::new(fin.drained),
            Joules::new(fin.clipped),
        );

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
        assert!(fine_dt.get() > 0.0, "fine timestep must be positive");
        if duration.get() <= 0.0 {
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
        // committed yet — the walk's guard-band fallback must leave the
        // buffer untouched so the fine steps it hands back to really
        // are the reference microdynamics. The first committed span
        // lands everything on its `v_final`, and the second-order
        // equalization loss folds into that commit's energy closure.
        let (charge, c_eq, g_eq) = self.combined(self.banks.iter().filter(connected));
        let v_cur = if n_connected == 0 {
            llb_v
        } else {
            charge / c_eq
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

        let ode = charge_ode::PoweredOde {
            c: c_eq,
            g: g_eq,
            v_max: self.llb.spec().max_voltage.get(),
            p_in: input.get().max(0.0),
            i_load: load.get().max(0.0),
            p_drain: self.config.instrumentation_overhead.get()
                + self.config.overhead_per_bank.get() * n_connected as f64,
            v_drain_min: INSTRUMENTATION_FLOOR,
        };

        let e_pack = self.pack_energy();
        let mut walk = EqualizedWalk {
            buffer: self,
            ode,
            v: v_cur,
            e_pack,
            llb_offset,
            banked: n_connected > 0,
        };
        walk::walk_polls(&mut walk, fine_dt, duration, v_stop, v_wake).map(Seconds::new)
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
