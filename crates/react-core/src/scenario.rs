//! Named scenario registry: environment × buffer × workload × horizon.
//!
//! The paper's evaluation is a fixed trace × buffer matrix; the
//! registry generalizes it into *named deployments* over streaming
//! environments — generative `react-env` models with week-long (or
//! unbounded) horizons, adversarial attack fields, and the paper's own
//! recorded traces wrapped as [`TraceSource`] instances of the same
//! abstraction. Each [`Scenario`] is a complete, reproducible run
//! description; the scenario report expands a selection over buffers
//! and seeds and runs it rayon-parallel. [`Scenario::paper`] describes
//! one cell of the paper's own trace × buffer matrix the same way, and
//! [`Scenario::simulator`] turns every scenario into its simulator.
//!
//! [`SCENARIOS`] holds the report's rows; [`FAULT_SCENARIOS`] holds the
//! fault campaigns together with the healthy 10 mF and Dewdrop twins
//! they are scored against. Twins are derived, never named: a cell's
//! [`Scenario::twin`] is the registered entry equal to it with the
//! fault campaign, auditor, attack wrapper and defense at rest.
//! Variants are declared as one-axis edits of their base entry, so the
//! two cannot drift apart on any other axis.
//!
//! Long-horizon scenarios pick a coarser fine-step (10 ms instead of
//! 1 ms) — the adaptive kernel strides MCU-off spans analytically
//! either way, so the fine step only paces MCU-on execution.
//!
//! [`TraceSource`]: react_harvest::TraceSource

use react_buffers::defense::DefenseConfig;
use react_buffers::{BufferKind, EnergyBuffer, StaticBuffer};
use react_circuit::FaultCampaign;
use react_env::{
    AdaptiveAttack, AttackPolicy, Diurnal, EnergyAttack, MarkovRf, Mobility, PowerSource,
    TraceSource,
};
use react_harvest::{ConverterKind, PowerReplay};
use react_telemetry::Recorder;
use react_traces::{paper_trace, PaperTrace};
use react_units::{Joules, Seconds, Watts};
use react_workloads::{EventSchedule, PacketForward, Workload};

use crate::audit::AuditConfig;
use crate::calib;
use crate::metrics::RunOutcome;
use crate::sim::{KernelMode, Simulator};
use crate::WorkloadKind;

/// One week of simulated deployment time.
pub const WEEK: Seconds = Seconds::new(7.0 * 86_400.0);

/// One day of simulated deployment time.
pub const DAY: Seconds = Seconds::new(86_400.0);

/// Seed base for registry environments (each model offsets it).
const ENV_SEED: u64 = 0xE57_2026_0000;

/// Folds the report matrix's seed salt into a base seed. Salt 0 is the
/// identity, preserving every canonical registry stream. All salted
/// seeds — environment models and workload event streams alike — go
/// through this one mix, so the seed axis can never half-apply.
#[inline]
fn salt_seed(base: u64, salt: u64) -> u64 {
    base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The registry's named environment classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// Diurnal solar, mostly clear skies (20 mW clear-sky peak).
    DiurnalClear,
    /// Diurnal solar under heavy broken cloud (12 mW peak, long
    /// overcast dwells at 8 % transmission).
    DiurnalStormy,
    /// Gilbert–Elliott ambient-RF field, office-density bursts.
    RfGilbertElliott,
    /// Sparse RF field: short weak bursts separated by minutes-long
    /// outages (the persistence stress case).
    RfSparse,
    /// Daily commuter mobility schedule (home → walk → subway → office,
    /// repeated every 24 h).
    MobilityCommuter,
    /// The office RF field under periodic 15-minute blackout attacks
    /// every hour (starvation adversary).
    AttackBlackout,
    /// A sparse field under spoofed 25 mW bait bursts followed by
    /// two-minute blackouts (reconfiguration-bait adversary).
    AttackSpoof,
    /// The office RF field under a *stateful* boot-triggered adversary:
    /// it observes the victim's boots through the feedback channel and
    /// blacks out the field just after each cold start.
    AttackBootStrike,
    /// The office RF field under a stateful spoof-baiter: a fake 25 mW
    /// field whenever the victim is down, cut to a blackout the moment
    /// the victim commits (first reconfiguration or radio-on).
    AttackBaitSwitch,
    /// The office RF field under a budget-limited boot-triggered
    /// adversary rationing a finite pool of blackout seconds.
    AttackBudget,
    /// A deterministic near-threshold field: a charge burst followed by
    /// a trickle chosen so REACT's equilibrium parks inside the ±20 mV
    /// comparator guard band — the adaptive kernel's worst case, pinned
    /// here as a registry cell before anyone optimizes the fallback.
    NearThresholdPlateau,
    /// A recorded paper trace wrapped as a streaming source.
    Paper(PaperTrace),
}

impl EnvKind {
    /// Display label for listings.
    pub fn label(self) -> &'static str {
        match self {
            EnvKind::DiurnalClear => "diurnal/clear",
            EnvKind::DiurnalStormy => "diurnal/stormy",
            EnvKind::RfGilbertElliott => "rf/gilbert-elliott",
            EnvKind::RfSparse => "rf/sparse",
            EnvKind::MobilityCommuter => "mobility/commuter",
            EnvKind::AttackBlackout => "attack/blackout",
            EnvKind::AttackSpoof => "attack/spoof",
            EnvKind::AttackBootStrike => "attack/boot-strike",
            EnvKind::AttackBaitSwitch => "attack/bait-switch",
            EnvKind::AttackBudget => "attack/budgeted",
            EnvKind::NearThresholdPlateau => "mobility/near-threshold",
            EnvKind::Paper(p) => p.label(),
        }
    }

    /// Whether this environment contains a *stateful* adversary that
    /// needs the simulator's victim-event feedback channel open.
    /// (The fixed-schedule attack wrappers don't observe the victim.)
    pub fn adversarial(self) -> bool {
        matches!(
            self,
            EnvKind::AttackBootStrike | EnvKind::AttackBaitSwitch | EnvKind::AttackBudget
        )
    }

    /// The field this environment's adversary wraps: the office RF
    /// field for the blackout, boot-strike, bait-switch and budget
    /// attacks, the sparse field for the spoofer, and the environment
    /// itself for every benign class. An environment is adversarial
    /// exactly when `benign() != self`.
    pub fn benign(self) -> EnvKind {
        match self {
            EnvKind::AttackBlackout
            | EnvKind::AttackBootStrike
            | EnvKind::AttackBaitSwitch
            | EnvKind::AttackBudget => EnvKind::RfGilbertElliott,
            EnvKind::AttackSpoof => EnvKind::RfSparse,
            other => other,
        }
    }

    /// Builds a fresh seeded source for this environment. Every call
    /// returns an identical stream (fixed seeds), so scenario runs are
    /// reproducible end to end.
    pub fn build(self) -> Box<dyn PowerSource> {
        self.build_salted(0)
    }

    /// Whether this environment's stream actually changes under a
    /// seed salt. Deterministic environments — mobility schedules and
    /// recorded traces — ignore the salt entirely, so re-salting them
    /// replays the identical stream.
    pub fn salt_sensitive(self) -> bool {
        !matches!(
            self,
            EnvKind::MobilityCommuter | EnvKind::NearThresholdPlateau | EnvKind::Paper(_)
        )
    }

    /// Builds this environment with its base seed perturbed by `salt` —
    /// the report matrix's seed axis. Salt 0 is exactly [`EnvKind::build`]
    /// (the stream every pre-existing test and baseline pins down);
    /// other salts re-seed the stochastic models while deterministic
    /// environments (mobility schedules, recorded traces) ignore the
    /// salt entirely.
    pub fn build_salted(self, salt: u64) -> Box<dyn PowerSource> {
        let seed = |base: u64| salt_seed(base, salt);
        // The RF field an RF environment streams or an attack wraps.
        let field = || rf_field_salted(self.benign(), salt);
        match self {
            EnvKind::DiurnalClear => Box::new(
                Diurnal::new(self.label(), Watts::from_milli(20.0), seed(ENV_SEED + 1))
                    .with_clouds(Seconds::new(1800.0), Seconds::new(240.0), 0.25),
            ),
            EnvKind::DiurnalStormy => Box::new(
                Diurnal::new(self.label(), Watts::from_milli(12.0), seed(ENV_SEED + 2))
                    .with_clouds(Seconds::new(400.0), Seconds::new(900.0), 0.08),
            ),
            EnvKind::RfGilbertElliott | EnvKind::RfSparse => Box::new(field()),
            EnvKind::MobilityCommuter => Box::new(Mobility::cyclic(
                self.label(),
                vec![
                    // Overnight at home: dim ambient light.
                    (Seconds::new(0.0), Watts::from_micro(50.0)),
                    // 07:00 walk to the station.
                    (Seconds::new(7.0 * 3600.0), Watts::from_milli(4.0)),
                    // 07:30 subway: nearly dark.
                    (Seconds::new(7.5 * 3600.0), Watts::from_micro(2.0)),
                    // 08:30 office desk by the window.
                    (Seconds::new(8.5 * 3600.0), Watts::from_micro(300.0)),
                    // 17:00 commute home.
                    (Seconds::new(17.0 * 3600.0), Watts::from_milli(4.0)),
                    // 17:30 subway again.
                    (Seconds::new(17.5 * 3600.0), Watts::from_micro(2.0)),
                    // 18:30 evening at home.
                    (Seconds::new(18.5 * 3600.0), Watts::from_micro(80.0)),
                ],
                DAY,
            )),
            EnvKind::AttackBlackout => Box::new(EnergyAttack::new(field()).with_blackout(
                Seconds::new(3600.0),
                Seconds::new(600.0),
                Seconds::new(900.0),
            )),
            EnvKind::AttackSpoof => Box::new(
                EnergyAttack::new(field())
                    .with_spoof(
                        Seconds::new(600.0),
                        Seconds::new(0.0),
                        Seconds::new(3.0),
                        Watts::from_milli(25.0),
                    )
                    .with_blackout(Seconds::new(600.0), Seconds::new(3.0), Seconds::new(120.0)),
            ),
            EnvKind::AttackBootStrike => Box::new(AdaptiveAttack::new(
                field(),
                AttackPolicy::BootTriggered {
                    delay: Seconds::new(0.5),
                    strike: Seconds::new(45.0),
                    rearm: Seconds::new(15.0),
                },
            )),
            EnvKind::AttackBaitSwitch => Box::new(AdaptiveAttack::new(
                field(),
                AttackPolicy::SpoofBait {
                    bait: Watts::from_milli(25.0),
                    blackout: Seconds::new(90.0),
                    rearm: Seconds::new(30.0),
                },
            )),
            EnvKind::AttackBudget => Box::new(AdaptiveAttack::new(
                field(),
                AttackPolicy::Budgeted {
                    delay: Seconds::new(0.5),
                    strike: Seconds::new(45.0),
                    budget: Seconds::new(600.0),
                },
            )),
            EnvKind::NearThresholdPlateau => Box::new(Mobility::schedule(
                self.label(),
                vec![
                    // Charge burst: fills REACT's LLB and first banks.
                    (Seconds::new(0.0), Watts::from_milli(20.0)),
                    // Trickle sized to REACT's sleeping draw near the
                    // 3.5 V upper comparator, parking the equilibrium
                    // inside the ±20 mV guard band.
                    (Seconds::new(60.0), Watts::from_micro(80.0)),
                ],
            )),
            EnvKind::Paper(p) => Box::new(TraceSource::new(paper_trace(p))),
        }
    }
}

/// Builds an RF field as its concrete model (attack wrappers need the
/// sized inner type, not a box), with the report matrix's seed salt
/// folded into the base seed (salt 0 = the canonical stream). `kind`
/// is one of the two RF fields, which every attack's
/// [`EnvKind::benign`] is.
fn rf_field_salted(kind: EnvKind, salt: u64) -> MarkovRf {
    let seed = |base: u64| salt_seed(base, salt);
    match kind {
        EnvKind::RfGilbertElliott => MarkovRf::new(
            kind.label(),
            Watts::from_milli(6.0),
            Watts::from_micro(30.0),
            Seconds::new(8.0),
            Seconds::new(45.0),
            seed(ENV_SEED + 3),
        )
        .with_jitter(0.3),
        EnvKind::RfSparse => MarkovRf::new(
            kind.label(),
            Watts::from_milli(3.0),
            Watts::from_micro(5.0),
            Seconds::new(2.0),
            Seconds::new(180.0),
            seed(ENV_SEED + 4),
        )
        .with_jitter(0.2),
        other => unreachable!("{other:?} streams no RF field"),
    }
}

/// One named, fully reproducible deployment description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Registry key.
    pub name: &'static str,
    /// What the scenario exercises.
    pub description: &'static str,
    /// Environment class.
    pub env: EnvKind,
    /// Buffer design under test.
    pub buffer: BufferKind,
    /// Benchmark application.
    pub workload: WorkloadKind,
    /// Harvester converter between the environment and the buffer.
    /// RF/attack scenarios declare the rectifier model, diurnal/solar
    /// the boost charger; `Ideal` keeps the paper's
    /// power-already-at-the-rail semantics.
    pub converter: ConverterKind,
    /// Harvest horizon (how long the environment streams).
    pub horizon: Seconds,
    /// Fine-step size while the MCU runs.
    pub dt: Seconds,
    /// Seed perturbation for the report matrix's seed axis: 0 is the
    /// canonical registry stream, other values re-seed the stochastic
    /// environment and workload models.
    pub seed_salt: u64,
    /// Whether the run arms the detect-and-degrade defense
    /// ([`DefenseConfig`]). The red-vs-blue registry
    /// pairs each adversary with a defended and an undefended entry;
    /// benign scenarios run undefended.
    pub defended: bool,
    /// Hardware-drift fault campaign, expanded into a per-node
    /// [`FaultPlan`](react_circuit::FaultPlan) from the scenario's
    /// fault seed. [`FaultCampaign::None`] (every pre-existing entry)
    /// leaves the run untouched.
    pub fault: FaultCampaign,
    /// Whether the run arms the kernel invariant auditor
    /// ([`AuditConfig`] default stride clamp). Audited runs clamp stride
    /// lengths, so their step counts differ from unaudited twins; the
    /// fault registry pairs each campaign with an audited and an
    /// unaudited entry.
    pub audited: bool,
}

impl Scenario {
    /// `buffer` running `workload` on one of the paper's library traces
    /// (§4's testbed): the trace replays at the buffer rail through the
    /// ideal converter for its full duration on millisecond fine steps,
    /// and every other axis stays at rest. Table 2–5 cells and the
    /// paper report's baselines are these runs.
    pub fn paper(trace: PaperTrace, buffer: BufferKind, workload: WorkloadKind) -> Self {
        Scenario {
            name: trace.label(),
            description: "a paper library trace replayed on the §4 testbed",
            env: EnvKind::Paper(trace),
            buffer,
            workload,
            converter: ConverterKind::Ideal,
            horizon: paper_trace(trace).duration(),
            dt: calib::DEFAULT_DT,
            seed_salt: 0,
            defended: false,
            fault: FaultCampaign::None,
            audited: false,
        }
    }

    /// Builds this scenario's (seeded, fresh) environment source.
    pub fn source(&self) -> Box<dyn PowerSource> {
        self.env.build_salted(self.seed_salt)
    }

    /// This scenario with a different buffer design (the report
    /// matrix's buffer axis).
    pub fn with_buffer(mut self, buffer: BufferKind) -> Self {
        self.buffer = buffer;
        self
    }

    /// This scenario re-seeded (the report matrix's seed axis).
    pub fn with_seed_salt(mut self, salt: u64) -> Self {
        self.seed_salt = salt;
        self
    }

    /// Deterministic seed for this scenario's fault plan: the workload
    /// seed (already name- and salt-derived, so fleet nodes get
    /// distinct plans for free through `seed_salt`) remixed through a
    /// fault-specific constant so fault timing never correlates with
    /// workload event arrivals.
    pub fn fault_seed(&self) -> u64 {
        self.workload_seed() ^ 0xFAD3_D21F_7C65_A1B3
    }

    /// The twin this scenario is scored against: the registered entry
    /// equal to it with the fault campaign, the auditor, the attack
    /// wrapper ([`EnvKind::benign`]) and the defense all at rest, on
    /// every axis but name, description and seed salt (a report pairs
    /// replicates by salt itself). `None` when every one of those axes
    /// already is at rest, or when the rested cell is not registered.
    /// The reports divide this cell's FoM by the twin's to get the *FoM
    /// retained* under attack or under faults
    /// ([`ScenarioReport::retained`]).
    ///
    /// [`ScenarioReport::retained`]: crate::ScenarioReport::retained
    pub fn twin(&self) -> Option<&'static str> {
        let twin = Scenario {
            env: self.env.benign(),
            defended: false,
            fault: FaultCampaign::None,
            audited: false,
            ..*self
        };
        if twin == *self {
            return None;
        }
        SCENARIOS
            .iter()
            .chain(&FAULT_SCENARIOS)
            .find(|s| {
                **s == Scenario {
                    name: s.name,
                    description: s.description,
                    seed_salt: s.seed_salt,
                    ..twin
                }
            })
            .map(|s| s.name)
    }

    /// The same as [`Scenario::twin`]. The benchmark harness in
    /// `perfbench/` pairs the fault registry through this name.
    pub fn healthy_twin(&self) -> Option<&'static str> {
        self.twin()
    }

    /// Whether a non-zero seed salt changes this scenario's run at
    /// all: either the environment is stochastic, or the workload
    /// draws on its event-stream seed (only packet forwarding does).
    /// Fully deterministic cells replay bit-identically under every
    /// salt, so the report skips their replicates.
    pub fn seed_salt_matters(&self) -> bool {
        self.env.salt_sensitive() || self.workload == WorkloadKind::PacketForward
    }

    /// Deterministic per-scenario seed for workload event streams
    /// (public so baselines can rebuild the identical workload).
    /// FNV-1a over the scenario name — a stable algorithm, unlike the
    /// standard library's `DefaultHasher`, so seeds (and therefore PF
    /// arrival streams) survive toolchain upgrades. The seed salt folds
    /// in on top (salt 0 leaves the canonical seed untouched).
    pub fn workload_seed(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let base = self
            .name
            .bytes()
            .fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
        salt_seed(base, self.seed_salt)
    }

    /// Builds this scenario's (fresh) workload: SC deadlines and PF
    /// arrivals span the horizon. PF on a paper trace replays that
    /// trace's packet stream ([`calib::pf_arrival_rate`] and
    /// [`calib::pf_arrival_seed`], fixed per trace as the paper's
    /// external event generator is); every other PF cell draws its
    /// arrivals from [`Scenario::workload_seed`]. Both seeds fold in the
    /// seed salt.
    pub fn build_workload(&self) -> Box<dyn Workload> {
        match (self.workload, self.env) {
            (WorkloadKind::PacketForward, EnvKind::Paper(p)) => {
                let seed = salt_seed(calib::pf_arrival_seed(p), self.seed_salt);
                let rate = calib::pf_arrival_rate(p);
                let arrivals = EventSchedule::poisson(rate, self.horizon, seed);
                Box::new(PacketForward::new(arrivals))
            }
            (kind, _) => kind.build_streaming(self.horizon, self.workload_seed()),
        }
    }

    /// Runs the scenario with the default adaptive kernel.
    pub fn run(&self) -> RunOutcome {
        self.run_with_kernel(KernelMode::Adaptive)
    }

    /// Runs the scenario with a telemetry recorder attached and returns
    /// the outcome together with the recorder — a
    /// [`react_telemetry::StepAttribution`] for the "where the steps go"
    /// profile, a [`react_telemetry::RingRecorder`] for the typed event
    /// stream. Recording is bit-identity-neutral, so the outcome is
    /// interchangeable with [`Scenario::run`]'s.
    pub fn run_recorded<R: Recorder>(&self, recorder: R) -> (RunOutcome, R) {
        self.simulator().with_recorder(recorder).run_recorded()
    }

    /// The power gate this scenario runs under: the paper's fixed
    /// 3.3 V / 1.8 V testbed gate for every buffer except Dewdrop,
    /// whose runtime computes its *adaptive* enable voltage — the
    /// lowest voltage holding one 5 mJ task quantum above brown-out,
    /// √(1.8² + 2·5 mJ / 3 mF) ≈ 2.564 V. The fixed gate would measure
    /// a strictly handicapped version of the design.
    pub fn gate(&self) -> react_mcu::PowerGate {
        if self.buffer == BufferKind::Dewdrop {
            let enable = StaticBuffer::dewdrop()
                .rail_voltage_for_usable(Joules::from_milli(5.0), calib::BROWNOUT_VOLTAGE)
                .expect("static inversion is total");
            react_mcu::PowerGate::new(enable, calib::BROWNOUT_VOLTAGE)
        } else {
            react_mcu::PowerGate::new(calib::ENABLE_VOLTAGE, calib::BROWNOUT_VOLTAGE)
        }
    }

    /// Runs the scenario under an explicit kernel (the fixed-`dt`
    /// reference exists for validation; week-scale scenarios are only
    /// practical under the adaptive kernel).
    pub fn run_with_kernel(&self, kernel: KernelMode) -> RunOutcome {
        self.simulator().with_kernel(kernel).run()
    }

    /// Builds the fully configured [`Simulator`] this scenario runs —
    /// the single construction recipe shared by [`Scenario::run`], the
    /// fleet kernel and every [`Scenario::paper`] run, so a fleet cell is
    /// bit-identical to a scalar run of the same (scenario, salt) pair
    /// and every buffer runs under its own [`Scenario::gate`]. Defaults
    /// to the adaptive kernel; callers may override with
    /// [`Simulator::with_kernel`].
    pub fn simulator(
        &self,
    ) -> Simulator<Box<dyn EnergyBuffer>, Box<dyn Workload>, Box<dyn PowerSource>> {
        let replay = PowerReplay::from_source(self.source(), self.converter.build());
        let mut sim = Simulator::new(replay, self.buffer.build(), self.build_workload())
            .with_timestep(self.dt)
            .with_horizon(self.horizon)
            .with_gate(self.gate());
        if self.env.adversarial() {
            // Stateful adversaries observe the victim; benign cells
            // skip the emission entirely.
            sim = sim.with_feedback();
        }
        if self.defended {
            sim = sim.with_defense(DefenseConfig::default());
        }
        if self.fault != FaultCampaign::None {
            sim = sim.with_faults(self.fault.plan(self.fault_seed(), self.horizon));
        }
        if self.audited {
            sim = sim.with_auditor(AuditConfig::default());
        }
        sim
    }
}

/// Millisecond fine steps, for sub-hour scenarios.
const DT_FINE: Seconds = Seconds::new(0.001);

/// 10 ms fine steps, for day/week horizons.
const DT_LONG: Seconds = Seconds::new(0.01);

// Entries other entries are one-axis edits of. Writing a variant as
// `Scenario { name, description, <axis>, ..BASE }` keeps it equal to its
// base on every other axis, which twin derivation relies on.

/// The benign office-field cell the stateful adversaries are scored
/// against, and the base of the other hour-long office-field cells.
const RF_GE_HOUR_REACT: Scenario = Scenario {
    name: "rf-ge-hour-react-de",
    description: "an hour of office RF bursts, continuous encryption on REACT",
    env: EnvKind::RfGilbertElliott,
    buffer: BufferKind::React,
    workload: WorkloadKind::DataEncryption,
    converter: ConverterKind::RfRectifier,
    horizon: Seconds::new(3600.0),
    dt: DT_FINE,
    seed_salt: 0,
    defended: false,
    fault: FaultCampaign::None,
    audited: false,
};

const RF_GE_HOUR_10MF: Scenario = Scenario {
    name: "rf-ge-hour-10mf-de",
    description: "the same office field on the best static buffer, healthy 10 mF campaign twin",
    buffer: BufferKind::Static10mF,
    ..RF_GE_HOUR_REACT
};

const RF_GE_HOUR_DEWDROP: Scenario = Scenario {
    name: "rf-ge-hour-dewdrop-de",
    description: "healthy Dewdrop twin the drift campaign is scored against",
    buffer: BufferKind::Dewdrop,
    ..RF_GE_HOUR_REACT
};

const ATTACK_BOOTSTRIKE: Scenario = Scenario {
    name: "attack-bootstrike-hour-de",
    description: "boot-triggered adversary striking after each cold start, undefended",
    env: EnvKind::AttackBootStrike,
    ..RF_GE_HOUR_REACT
};

const ATTACK_BAITSWITCH: Scenario = Scenario {
    name: "attack-baitswitch-hour-de",
    description: "spoof-baiter cutting power once the victim commits, undefended",
    env: EnvKind::AttackBaitSwitch,
    ..RF_GE_HOUR_REACT
};

const ATTACK_BUDGET: Scenario = Scenario {
    name: "attack-budget-hour-de",
    description: "budget-limited adversary rationing blackout seconds, undefended",
    env: EnvKind::AttackBudget,
    ..RF_GE_HOUR_REACT
};

const FAULT_FADE_OFFSET: Scenario = Scenario {
    name: "fault-fade-offset-hour-10mf-de",
    description: "capacitance fade then comparator offset mid-run, undefended kernel",
    fault: FaultCampaign::FadeOffset,
    ..RF_GE_HOUR_10MF
};

const FAULT_DERATE: Scenario = Scenario {
    name: "fault-derate-hour-10mf-de",
    description: "harvester derating to 60 % mid-run, undefended kernel",
    fault: FaultCampaign::Derate,
    ..RF_GE_HOUR_10MF
};

const FAULT_STUCK_CLOSED: Scenario = Scenario {
    name: "fault-stuck-closed-hour-10mf-de",
    description: "power switch welding closed mid-run, undefended kernel",
    fault: FaultCampaign::StuckClosed,
    ..RF_GE_HOUR_10MF
};

const FAULT_DRIFT: Scenario = Scenario {
    name: "fault-drift-hour-dewdrop-de",
    description: "stochastic drift events (fade/leakage/derate/offset) on Dewdrop",
    fault: FaultCampaign::Drift,
    ..RF_GE_HOUR_DEWDROP
};

/// The built-in scenario registry: exactly the scenario report's rows.
/// No two entries differ only in their buffer, because the report
/// supplies the buffer axis itself.
pub const SCENARIOS: [Scenario; 16] = [
    Scenario {
        name: "rf-sparse-week",
        description: "persistence: a week in a sparse RF field, streamed segment by segment",
        env: EnvKind::RfSparse,
        buffer: BufferKind::Static770uF,
        workload: WorkloadKind::SenseCompute,
        converter: ConverterKind::RfRectifier,
        horizon: WEEK,
        dt: DT_LONG,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    Scenario {
        name: "mobility-week-pf",
        description: "a week of daily commutes forwarding packets on REACT",
        env: EnvKind::MobilityCommuter,
        buffer: BufferKind::React,
        workload: WorkloadKind::PacketForward,
        converter: ConverterKind::Ideal,
        horizon: WEEK,
        dt: DT_LONG,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    Scenario {
        name: "diurnal-day-react-sc",
        description: "responsiveness: one clear solar day of periodic sensing on REACT",
        env: EnvKind::DiurnalClear,
        buffer: BufferKind::React,
        workload: WorkloadKind::SenseCompute,
        converter: ConverterKind::BoostCharger,
        horizon: DAY,
        dt: DT_LONG,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    Scenario {
        name: "stormy-day-morphy-de",
        description: "a stormy solar day of continuous encryption on Morphy",
        env: EnvKind::DiurnalStormy,
        buffer: BufferKind::Morphy,
        workload: WorkloadKind::DataEncryption,
        converter: ConverterKind::BoostCharger,
        horizon: DAY,
        dt: DT_LONG,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    RF_GE_HOUR_REACT,
    Scenario {
        name: "mobility-day-10mf-sc",
        description: "one commuter day of periodic sensing on a 10 mF buffer",
        env: EnvKind::MobilityCommuter,
        buffer: BufferKind::Static10mF,
        workload: WorkloadKind::SenseCompute,
        converter: ConverterKind::Ideal,
        horizon: DAY,
        dt: DT_LONG,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    Scenario {
        name: "attack-blackout-hour-react-rt",
        description: "starvation adversary: hourly blackouts under atomic radio bursts",
        env: EnvKind::AttackBlackout,
        buffer: BufferKind::React,
        workload: WorkloadKind::RadioTransmit,
        converter: ConverterKind::RfRectifier,
        horizon: Seconds::new(3600.0),
        dt: DT_FINE,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    Scenario {
        name: "attack-spoof-hour-react-de",
        description: "bait adversary: spoofed surplus bursts then blackout, on REACT",
        env: EnvKind::AttackSpoof,
        buffer: BufferKind::React,
        workload: WorkloadKind::DataEncryption,
        converter: ConverterKind::RfRectifier,
        horizon: Seconds::new(3600.0),
        dt: DT_FINE,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    Scenario {
        name: "paper-rfcart-de",
        description: "the recorded RF Cart trace as a TraceSource registry instance",
        env: EnvKind::Paper(PaperTrace::RfCart),
        buffer: BufferKind::Static770uF,
        workload: WorkloadKind::DataEncryption,
        converter: ConverterKind::Ideal,
        horizon: Seconds::new(313.0),
        dt: DT_FINE,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
    // ---- Red-vs-blue family: each stateful adversary paired with an
    // undefended and a defended entry, scored as FoM retained against
    // the benign rf-ge-hour twin. ----
    ATTACK_BOOTSTRIKE,
    Scenario {
        name: "attack-bootstrike-hour-de-defended",
        description: "the boot-triggered adversary against the detect-and-degrade defense",
        defended: true,
        ..ATTACK_BOOTSTRIKE
    },
    ATTACK_BAITSWITCH,
    Scenario {
        name: "attack-baitswitch-hour-de-defended",
        description: "the spoof-baiter against the detect-and-degrade defense",
        defended: true,
        ..ATTACK_BAITSWITCH
    },
    ATTACK_BUDGET,
    Scenario {
        name: "attack-budget-hour-de-defended",
        description: "the budget-limited adversary against the detect-and-degrade defense",
        defended: true,
        ..ATTACK_BUDGET
    },
    Scenario {
        name: "react-plateau-sc",
        description: "near-threshold trickle parking REACT inside the comparator guard band",
        env: EnvKind::NearThresholdPlateau,
        buffer: BufferKind::React,
        workload: WorkloadKind::SenseCompute,
        converter: ConverterKind::Ideal,
        horizon: Seconds::new(900.0),
        dt: DT_LONG,
        seed_salt: 0,
        defended: false,
        fault: FaultCampaign::None,
        audited: false,
    },
];

/// The fault-campaign registry: hardware-drift campaigns on the office
/// RF field, each paired as an unaudited and an audited entry, plus the
/// healthy 10 mF and Dewdrop twins the campaigns are scored against.
/// Kept separate from [`SCENARIOS`] so the benign scenario and fleet
/// baselines stay byte-identical; `report fault` runs this registry as
/// declared and gates it against `ci/fault-baseline.json`.
pub const FAULT_SCENARIOS: [Scenario; 10] = [
    FAULT_FADE_OFFSET,
    Scenario {
        name: "fault-fade-offset-hour-10mf-de-audited",
        description: "the fade-then-offset campaign with the invariant auditor armed",
        audited: true,
        ..FAULT_FADE_OFFSET
    },
    FAULT_DERATE,
    Scenario {
        name: "fault-derate-hour-10mf-de-audited",
        description: "the derating campaign with the invariant auditor armed",
        audited: true,
        ..FAULT_DERATE
    },
    FAULT_STUCK_CLOSED,
    Scenario {
        name: "fault-stuck-closed-hour-10mf-de-audited",
        description: "the welded-switch campaign with the invariant auditor armed",
        audited: true,
        ..FAULT_STUCK_CLOSED
    },
    FAULT_DRIFT,
    Scenario {
        name: "fault-drift-hour-dewdrop-de-audited",
        description: "the stochastic drift campaign with the invariant auditor armed",
        audited: true,
        ..FAULT_DRIFT
    },
    RF_GE_HOUR_DEWDROP,
    RF_GE_HOUR_10MF,
];

/// The full built-in registry.
pub fn scenario_registry() -> &'static [Scenario] {
    &SCENARIOS
}

/// The fault-campaign registry (see [`FAULT_SCENARIOS`]).
pub fn fault_scenario_registry() -> &'static [Scenario] {
    &FAULT_SCENARIOS
}

/// Looks up a scenario by name, searching the benign registry first
/// and the fault registry second.
pub fn find_scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS
        .iter()
        .chain(FAULT_SCENARIOS.iter())
        .find(|s| s.name == name)
}

/// A report cell's stable identity, `scenario/buffer/s<seed>` (the
/// buffer by its label). [`resolve_cell`] parses it back.
pub fn cell_id(scenario: &str, buffer: &str, seed: u64) -> String {
    format!("{scenario}/{buffer}/s{seed}")
}

/// Resolves a bare scenario name (its registered buffer, salt 0) or a
/// full [`cell_id`] to the scenario that cell runs: the registered
/// entry with the id's buffer and seed salt.
pub fn resolve_cell(id: &str) -> Result<Scenario, String> {
    if !id.contains('/') {
        return find_scenario(id)
            .copied()
            .ok_or_else(|| format!("unknown scenario {id:?}"));
    }
    let mut parts = id.rsplitn(3, '/');
    let (seed_part, buffer_part, scenario_part) = match (parts.next(), parts.next(), parts.next()) {
        (Some(s), Some(b), Some(sc)) => (s, b, sc),
        _ => return Err(format!("cell id {id:?} is not scenario/buffer/s<seed>")),
    };
    let seed: u64 = seed_part
        .strip_prefix('s')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("cell id {id:?}: seed field {seed_part:?} is not s<number>"))?;
    let buffer = BufferKind::from_label(buffer_part)
        .ok_or_else(|| format!("cell id {id:?}: unknown buffer {buffer_part:?}"))?;
    let base = find_scenario(scenario_part)
        .ok_or_else(|| format!("cell id {id:?}: unknown scenario {scenario_part:?}"))?;
    Ok(base.with_buffer(buffer).with_seed_salt(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let all: Vec<&Scenario> = scenario_registry()
            .iter()
            .chain(fault_scenario_registry())
            .collect();
        for s in &all {
            assert_eq!(
                all.iter().filter(|o| o.name == s.name).count(),
                1,
                "duplicate scenario name {}",
                s.name
            );
            assert!(find_scenario(s.name).is_some());
            assert!(s.horizon.get() > 0.0);
            assert!(s.dt.get() > 0.0);
        }
        assert!(find_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn benign_registry_carries_no_faults() {
        for s in scenario_registry() {
            assert_eq!(s.fault, FaultCampaign::None, "{}", s.name);
            assert!(!s.audited, "{}", s.name);
            // Only an attack moves a benign-registry cell off its twin.
            assert!(s.twin().is_none() || s.env.benign() != s.env, "{}", s.name);
        }
    }

    #[test]
    fn fault_registry_twins_resolve() {
        for s in fault_scenario_registry() {
            if s.fault == FaultCampaign::None {
                continue;
            }
            let twin = s.twin().expect("faulted scenario has a twin");
            let healthy = find_scenario(twin).expect("twin registered");
            assert_eq!(healthy.fault, FaultCampaign::None, "{twin}");
            assert!(!healthy.audited, "{twin}");
            assert_eq!(healthy.buffer, s.buffer, "{}", s.name);
            assert_eq!(healthy.env, s.env, "{}", s.name);
            assert_eq!(healthy.workload, s.workload, "{}", s.name);
            // The plan is seeded and non-empty inside the horizon.
            let plan = s.fault.plan(s.fault_seed(), s.horizon);
            assert!(!plan.is_empty(), "{}", s.name);
            let again = s.fault.plan(s.fault_seed(), s.horizon);
            assert_eq!(plan.events().len(), again.events().len(), "{}", s.name);
        }
    }

    #[test]
    fn no_two_report_rows_differ_only_in_buffer() {
        for (i, a) in scenario_registry().iter().enumerate() {
            for b in &scenario_registry()[i + 1..] {
                let a_on_b = Scenario {
                    name: b.name,
                    description: b.description,
                    buffer: b.buffer,
                    ..*a
                };
                assert_ne!(
                    a_on_b, *b,
                    "{} and {} differ only in buffer",
                    a.name, b.name
                );
            }
        }
    }

    #[test]
    fn every_variant_is_a_one_axis_edit_of_its_declared_base() {
        let all = scenario_registry().iter().chain(fault_scenario_registry());
        let mut variants = 0;
        for s in all.filter(|s| s.defended || s.audited) {
            let base_name = s
                .name
                .strip_suffix("-defended")
                .or_else(|| s.name.strip_suffix("-audited"))
                .unwrap_or_else(|| panic!("{}: variant name lacks its axis suffix", s.name));
            let base = find_scenario(base_name).expect("declared base is registered");
            assert!(!base.defended && !base.audited, "{base_name}");
            let reset = Scenario {
                name: base.name,
                description: base.description,
                defended: false,
                audited: false,
                ..*s
            };
            assert_eq!(reset, *base, "{} drifted from its base", s.name);
            assert_eq!(s.twin(), base.twin(), "{}", s.name);
            variants += 1;
        }
        assert_eq!(variants, 7);
    }

    #[test]
    fn derived_twins_pair_exactly_the_attacked_and_faulted_cells() {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for s in scenario_registry().iter().chain(fault_scenario_registry()) {
            pairs.extend(s.twin().map(|twin| (s.name, twin)));
        }
        let react = "rf-ge-hour-react-de";
        let static10 = "rf-ge-hour-10mf-de";
        let dewdrop = "rf-ge-hour-dewdrop-de";
        assert_eq!(
            pairs,
            [
                ("attack-bootstrike-hour-de", react),
                ("attack-bootstrike-hour-de-defended", react),
                ("attack-baitswitch-hour-de", react),
                ("attack-baitswitch-hour-de-defended", react),
                ("attack-budget-hour-de", react),
                ("attack-budget-hour-de-defended", react),
                ("fault-fade-offset-hour-10mf-de", static10),
                ("fault-fade-offset-hour-10mf-de-audited", static10),
                ("fault-derate-hour-10mf-de", static10),
                ("fault-derate-hour-10mf-de-audited", static10),
                ("fault-stuck-closed-hour-10mf-de", static10),
                ("fault-stuck-closed-hour-10mf-de-audited", static10),
                ("fault-drift-hour-dewdrop-de", dewdrop),
                ("fault-drift-hour-dewdrop-de-audited", dewdrop),
            ]
        );
    }

    #[test]
    fn attack_environments_unwrap_to_their_rf_field() {
        for s in scenario_registry() {
            let attacked = s.env.label().starts_with("attack/");
            assert_eq!(s.env.benign() != s.env, attacked, "{}", s.name);
            assert_eq!(s.env.benign().benign(), s.env.benign(), "{}", s.name);
        }
    }

    #[test]
    fn every_cell_id_resolves_to_its_scenario() {
        let report = crate::scenario_report::expand_cells(
            scenario_registry(),
            &crate::scenario_report::REPORT_BUFFERS,
            &crate::scenario_report::REPORT_SEEDS,
        );
        for s in report.iter().chain(&crate::scenario_report::fault_cells()) {
            let id = cell_id(s.name, s.buffer.label(), s.seed_salt);
            assert_eq!(resolve_cell(&id), Ok(*s), "{id}");
        }
        // A bare name is the registered entry.
        let bare = find_scenario("rf-ge-hour-10mf-de").copied();
        assert_eq!(resolve_cell("rf-ge-hour-10mf-de").ok(), bare);
    }

    #[test]
    fn malformed_cell_ids_are_rejected() {
        for (id, message) in [
            ("no-such-scenario", r#"unknown scenario "no-such-scenario""#),
            (
                "rf-sparse-week/s0",
                r#"cell id "rf-sparse-week/s0" is not scenario/buffer/s<seed>"#,
            ),
            (
                "rf-sparse-week/REACT/0",
                r#"cell id "rf-sparse-week/REACT/0": seed field "0" is not s<number>"#,
            ),
            (
                "rf-sparse-week/Nope/s0",
                r#"cell id "rf-sparse-week/Nope/s0": unknown buffer "Nope""#,
            ),
            (
                "no-such/REACT/s0",
                r#"cell id "no-such/REACT/s0": unknown scenario "no-such""#,
            ),
        ] {
            assert_eq!(resolve_cell(id), Err(message.to_string()), "{id}");
        }
    }

    #[test]
    fn audited_fault_scenario_injects_and_detects() {
        let mut s = *find_scenario("fault-fade-offset-hour-10mf-de-audited").expect("registered");
        s.horizon = Seconds::new(2400.0); // past both events, still quick
        let out = s.run();
        assert!(out.metrics.faults_injected >= 1, "no fault fired");
        assert!(out.metrics.audit_checks > 0, "auditor never ran");
        assert!(out.metrics.audit_trips >= 1, "fade escaped the auditor");
    }

    #[test]
    fn every_environment_builds_and_streams() {
        let unfaulted = scenario_registry()
            .iter()
            .chain(fault_scenario_registry())
            .filter(|s| s.fault == FaultCampaign::None);
        for s in unfaulted {
            let mut env = s.source();
            let mut t = 0.0;
            // Walk a few segments and spot-check the contract.
            for _ in 0..32 {
                let seg = env.segment(Seconds::new(t));
                assert!(
                    seg.power.get() >= 0.0 && seg.power.get().is_finite(),
                    "{}: power {:?}",
                    s.name,
                    seg.power
                );
                assert!(seg.end.get() > t, "{}: segment must advance", s.name);
                if seg.end.get() == f64::INFINITY {
                    break;
                }
                t = seg.end.get();
            }
            // Seeded: a second build replays the same stream.
            let mut again = s.source();
            for i in 0..64 {
                let probe = Seconds::new(i as f64 * 17.3);
                assert_eq!(
                    env.power_at(probe),
                    again.power_at(probe),
                    "{}: stream not reproducible",
                    s.name
                );
            }
        }
    }

    #[test]
    fn paper_constructor_is_the_registered_paper_cell() {
        let s = find_scenario("paper-rfcart-de").expect("registered");
        let built = Scenario::paper(
            PaperTrace::RfCart,
            BufferKind::Static770uF,
            WorkloadKind::DataEncryption,
        );
        assert_eq!(
            built,
            Scenario {
                name: built.name,
                description: built.description,
                ..*s
            }
        );
    }

    #[test]
    fn no_registry_entry_forwards_packets_on_a_paper_trace() {
        // PF on a paper trace is the one cell whose workload
        // `build_workload` does not draw from `build_streaming(horizon,
        // workload_seed())`. perfbench's `traced_simulator` copies the
        // recipe and builds every workload that way, so its traced runs
        // match the registry's only while no registered cell is PF on a
        // paper trace.
        for s in scenario_registry().iter().chain(fault_scenario_registry()) {
            assert!(
                !(s.workload == WorkloadKind::PacketForward && matches!(s.env, EnvKind::Paper(_))),
                "{}: PF on a paper trace",
                s.name
            );
        }
    }

    #[test]
    fn short_streaming_scenario_runs_to_completion() {
        let mut s = *find_scenario("rf-ge-hour-10mf-de").expect("registered");
        s.horizon = Seconds::new(300.0); // keep the unit test quick
        let out = s.run();
        assert!(out.metrics.total_time >= s.horizon);
        assert!(out.metrics.relative_conservation_error() < 1e-3);
    }
}
