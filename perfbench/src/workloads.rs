//! The benchmark's workloads: which cells each one runs, from a seed.
//!
//! Seed `s` runs the report matrix's salt axis at salts `{2s, 2s+1}`,
//! so seed 0 is the committed matrix's `[0, 1]`, and derives the fleet
//! seed so that seed 0 is the quick fleet's `0xF1EE7`.

use react_circuit::FaultCampaign;
use react_core::scenario::DAY;
use react_core::scenario_report::REPORT_BUFFERS;
use react_core::{
    fault_scenario_registry, find_scenario, report_scenarios, EnvKind, FleetBins, FleetSpec,
    Scenario,
};

/// The quick fleet's committed seed (`fleet_report --quick`).
pub const QUICK_FLEET_SEED: u64 = 0x000F_1EE7;

/// Base scenario of the fleet workload.
pub const FLEET_BASE: &str = "rf-sparse-week";

/// Nodes in the fleet workload: two default-size shards.
pub const FLEET_NODES: usize = 2048;

/// Report rows whose cells spend at least 99 % of their engine steps
/// in fine steps: the deduplicated 1 ms hour rows plus the stormy day.
pub const FINE_BURST_ROWS: [&str; 11] = [
    "rf-ge-hour-react-de",
    "attack-blackout-hour-react-rt",
    "attack-spoof-hour-react-de",
    "paper-rfcart-de",
    "attack-bootstrike-hour-de",
    "attack-bootstrike-hour-de-defended",
    "attack-baitswitch-hour-de",
    "attack-baitswitch-hour-de-defended",
    "attack-budget-hour-de",
    "attack-budget-hour-de-defended",
    "stormy-day-morphy-de",
];

/// The other report rows: day and week horizons that the closed-form
/// strides dominate.
pub const DARK_WEEK_ROWS: [&str; 5] = [
    "rf-sparse-week",
    "mobility-week-pf",
    "diurnal-day-react-sc",
    "mobility-day-10mf-sc",
    "react-plateau-sc",
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Surplus regime: fine-stepped hour cells plus the fault matrix.
    FineBurst,
    /// Deficit regime: week and day cells run mostly in closed form.
    DarkWeek,
    /// The quick fleet's configuration at a benchmark-sized node count.
    FleetDay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::FineBurst, Workload::DarkWeek, Workload::FleetDay];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FineBurst => "fine-burst",
            Workload::DarkWeek => "dark-week",
            Workload::FleetDay => "fleet-day",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells a matrix workload runs, in a fixed order (empty for
    /// the fleet, whose cells `run_fleet` builds itself).
    pub fn cells(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::FineBurst => {
                let mut cells = matrix(&FINE_BURST_ROWS, seed);
                for s in fault_runs() {
                    cells.extend(salts(seed).map(|salt| s.with_seed_salt(salt)));
                }
                cells
            }
            Workload::DarkWeek => matrix(&DARK_WEEK_ROWS, seed),
            Workload::FleetDay => Vec::new(),
        }
    }
}

/// The two seed salts benchmark seed `seed` runs.
pub fn salts(seed: u64) -> [u64; 2] {
    let base = seed.wrapping_mul(2);
    [base, base.wrapping_add(1)]
}

/// The fleet seed benchmark seed `seed` runs.
pub fn fleet_seed(seed: u64) -> u64 {
    QUICK_FLEET_SEED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The fleet workload's spec, with the pilot-calibrated binning
/// `fleet_report --quick` uses.
pub fn fleet_spec(seed: u64) -> FleetSpec {
    let mut base = *find_scenario(FLEET_BASE).expect("fleet base scenario is registered");
    base.horizon = base.horizon.min(DAY);
    let mut spec = FleetSpec::new(base, FLEET_NODES, fleet_seed(seed));
    spec.bins = FleetBins::calibrated(&base, spec.fleet_seed);
    spec
}

/// Whether a cell runs without an attacker and without faults, so the
/// kernel's invariant guard must never trip on it.
pub fn is_benign(s: &Scenario) -> bool {
    s.fault == FaultCampaign::None
        && !matches!(
            s.env,
            EnvKind::AttackBlackout
                | EnvKind::AttackSpoof
                | EnvKind::AttackBootStrike
                | EnvKind::AttackBaitSwitch
                | EnvKind::AttackBudget
        )
}

/// Report rows named in `names` × [`REPORT_BUFFERS`] × the seed's
/// salts. Unlike the report, deterministic rows run both salts too, so
/// every seed does the same amount of work.
fn matrix(names: &[&str], seed: u64) -> Vec<Scenario> {
    let rows: Vec<Scenario> = report_scenarios()
        .into_iter()
        .filter(|s| names.contains(&s.name))
        .collect();
    assert_eq!(
        rows.len(),
        names.len(),
        "every workload row is a report row"
    );
    let mut cells = Vec::with_capacity(rows.len() * REPORT_BUFFERS.len() * 2);
    for row in &rows {
        for buffer in REPORT_BUFFERS {
            for salt in salts(seed) {
                cells.push(row.with_buffer(buffer).with_seed_salt(salt));
            }
        }
    }
    cells
}

/// The fault registry plus the healthy twins it is scored against,
/// each run as declared, as `build_fault_report` runs them.
fn fault_runs() -> Vec<Scenario> {
    let mut runs = fault_scenario_registry().to_vec();
    let twins: Vec<Scenario> = runs
        .iter()
        .filter_map(|s| s.healthy_twin())
        .filter_map(find_scenario)
        .copied()
        .collect();
    for twin in twins {
        if !runs.iter().any(|s| s.name == twin.name) {
            runs.push(twin);
        }
    }
    runs
}
