//! The CI gates' shared path, and each report kind's own parts.
//!
//! Every gate works the same way: it holds a fresh report, optionally
//! loads a committed baseline (`ci/<kind>-baseline.json`), optionally
//! writes the fresh report as the new baseline, compares the two, and
//! exits 0 ok / 1 violation / 2 usage, IO or parse error / 3 poisoned
//! cells. [`run_gate`] is that path, written once. A report kind only
//! supplies how its baseline document is read and written and how two
//! reports compare — the [`Gate`] trait.
//!
//! | kind          | report type           | compared                                     |
//! |---------------|-----------------------|----------------------------------------------|
//! | `scenario`    | [`ScenarioReport`]    | per-cell FoM fields, resilience, survival    |
//! | `fault`       | [`ScenarioReport`]    | the same, over the fault-campaign matrix     |
//! | `fleet`       | [`FleetReport`]       | fingerprint, then the percentile summary     |
//! | `attribution` | [`AttributionBudget`] | fallback steps per simulated hour, two-sided |
//! | `paper`       | [`PaperReport`]       | every paper-table value, exactly, by key     |
//!
//! Every gate compares deterministic quantities — outcomes, counters
//! and step rates — so none of them can fail on timer noise. Wall-clock
//! throughput is measured by the repository benchmark (`perfbench/`),
//! not gated here.

use react_core::{
    compare_fleet_reports, compare_reports, find_scenario, FleetReport, ScenarioReport,
};
use serde::{Deserialize, Serialize};

use crate::paper::PaperReport;

/// Exit code: the gate passed (or nothing was gated).
pub const EXIT_OK: u8 = 0;
/// Exit code: the fresh report violates the baseline.
pub const EXIT_VIOLATION: u8 = 1;
/// Exit code: bad usage, or a file could not be read, parsed or written.
pub const EXIT_ERROR: u8 = 2;
/// Exit code: the gate passed (or was not asked for), but some cells
/// panicked and the matrix completed around them.
pub const EXIT_POISONED: u8 = 3;

/// One report kind served by the `report` binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The scenario figure-of-merit matrix.
    Scenario,
    /// The fault-campaign matrix.
    Fault,
    /// The quick fleet's percentile summary.
    Fleet,
    /// The scenario matrix's kernel-overhead budget.
    Attribution,
    /// The paper's tables and figures.
    Paper,
}

impl Kind {
    /// Every kind, in the order the usage text lists them.
    pub const ALL: [Kind; 5] = [
        Kind::Scenario,
        Kind::Fault,
        Kind::Fleet,
        Kind::Attribution,
        Kind::Paper,
    ];

    /// The kind's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Scenario => "scenario",
            Kind::Fault => "fault",
            Kind::Fleet => "fleet",
            Kind::Attribution => "attribution",
            Kind::Paper => "paper",
        }
    }

    /// Looks a kind up by its command-line name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The committed baseline this kind gates against, relative to the
    /// workspace root.
    pub fn baseline(self) -> String {
        format!("ci/{}-baseline.json", self.name())
    }

    /// Loads a baseline document through this kind's loader and
    /// compares it against itself, returning the violations (a sound
    /// baseline has none).
    pub fn self_check(self, text: &str) -> Result<Vec<String>, String> {
        fn check<G: Gate>(text: &str) -> Result<Vec<String>, String> {
            let baseline = G::parse(text)?;
            Ok(baseline.compare(&baseline).violations)
        }
        match self {
            Kind::Scenario | Kind::Fault => check::<ScenarioReport>(text),
            Kind::Fleet => check::<FleetReport>(text),
            Kind::Attribution => check::<AttributionBudget>(text),
            Kind::Paper => check::<PaperReport>(text),
        }
    }
}

/// What a comparison found.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Lines printed whatever the verdict: a verdict table, counts.
    pub table: Vec<String>,
    /// One line per violation; empty = conformant.
    pub violations: Vec<String>,
}

/// A report kind's own parts of a gate. The baseline document is the
/// report itself, so a baseline always compares clean against itself.
pub trait Gate: Serialize + Deserialize {
    /// Parses a baseline document.
    fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The document `--write-baseline` writes.
    fn to_baseline(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("serialize: {e}"))
    }

    /// Compares `self`, the fresh report, against `baseline`.
    fn compare(&self, baseline: &Self) -> Comparison;

    /// Cells whose run panicked, one `id: message` line each.
    fn poisoned(&self) -> Vec<String> {
        Vec::new()
    }
}

fn load<G: Gate>(path: &str) -> Result<G, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    G::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The shared gate path: lists poisoned cells, loads the `check`
/// baseline, writes the `write` baseline, compares, prints the
/// violations, and returns the exit code.
///
/// The check baseline is loaded *before* any write, so
/// `--check X --write-baseline X` gates against the committed file
/// rather than the bytes just produced.
pub fn run_gate<G: Gate>(kind: Kind, current: &G, check: Option<&str>, write: Option<&str>) -> u8 {
    let name = kind.name();
    let poisoned = current.poisoned();
    if !poisoned.is_empty() {
        eprintln!(
            "report {name}: {} poisoned cell(s) — the matrix completed around them:",
            poisoned.len()
        );
        for p in &poisoned {
            eprintln!("  {p}");
        }
    }

    let baseline = match check.map(load::<G>).transpose() {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("report {name}: {e}");
            return EXIT_ERROR;
        }
    };

    if let Some(path) = write {
        let written = current.to_baseline().and_then(|doc| {
            std::fs::write(path, doc).map_err(|e| format!("write baseline {path}: {e}"))
        });
        if let Err(e) = written {
            eprintln!("report {name}: {e}");
            return EXIT_ERROR;
        }
        println!("baseline written to {path}");
    }

    if let (Some(path), Some(baseline)) = (check, baseline) {
        let Comparison { table, violations } = current.compare(&baseline);
        for line in &table {
            println!("{line}");
        }
        if !violations.is_empty() {
            eprintln!("{name} gate: {} violation(s) vs {path}:", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!(
                "if the change is intentional, refresh the baseline with \
                 `report {name} --write-baseline {path}`"
            );
            return EXIT_VIOLATION;
        }
        println!("{name} gate: conformant with {path}");
    }

    if poisoned.is_empty() {
        EXIT_OK
    } else {
        EXIT_POISONED
    }
}

impl Gate for ScenarioReport {
    fn compare(&self, baseline: &Self) -> Comparison {
        let new_cells = self
            .cells
            .iter()
            .filter(|c| baseline.cell(&c.id()).is_none())
            .count();
        Comparison {
            table: vec![format!(
                "{} baseline cells compared; {new_cells} cell(s) have no baseline yet",
                baseline.cells.len()
            )],
            violations: compare_reports(baseline, self),
        }
    }

    fn poisoned(&self) -> Vec<String> {
        self.poisoned
            .iter()
            .map(|p| format!("{}: {}", p.id(), p.message))
            .collect()
    }
}

impl Gate for FleetReport {
    fn compare(&self, baseline: &Self) -> Comparison {
        Comparison {
            table: vec![format!("fleet fingerprint {}", self.fingerprint)],
            violations: compare_fleet_reports(baseline, self),
        }
    }
}

/// Tolerated relative drift per attribution budget (either direction).
const MAX_DRIFT: f64 = 0.25;

/// Absolute slack (steps per simulated hour) under which drift is
/// always tolerated, so near-zero budgets (a fully collapsed class)
/// don't flap on a single libm-shifted step.
const ABS_SLACK_PER_HOUR: f64 = 60.0;

/// Cell × class budgets always measured, on top of the matrix-wide
/// rows: the named step sinks the staged solve, the guard-band
/// microstate offset, and the idle dead-band bulk stride were built to
/// collapse. Pinning them per cell keeps a regression in one sink from
/// hiding inside the matrix-wide average.
const PINNED_CELLS: &[(&str, &str)] = &[
    ("react-plateau-sc/REACT/s0", "sleep fine:no-closed-form"),
    ("react-plateau-sc/REACT/s0", "sleep fine:guard-band"),
    ("stormy-day-morphy-de/Morphy/s1", "idle fine:transition-due"),
];

const BUDGET_COMMENT: &str = "Kernel-overhead budget: fallback fine-steps per simulated hour \
     over the benign scenario matrix. Refresh with `report attribution --write-baseline` after \
     an intentional kernel change.";

/// One budget row: engine fallback steps per simulated hour in one
/// class, matrix-wide over the benign cells (`"cell": "*"`) or for one
/// named cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Budget {
    /// Cell id, or `"*"` for the benign matrix-wide aggregate.
    pub cell: String,
    /// Class label in the attribution table's vocabulary,
    /// `"<regime> fine:<reason>"`, e.g. `"sleep fine:guard-band"`.
    pub class: String,
    /// Steps per simulated hour.
    pub steps_per_hour: f64,
}

/// The scenario matrix's kernel-overhead budget: what
/// `ci/attribution-baseline.json` commits, and what
/// [`AttributionBudget::measure`] reads off a fresh
/// `SCENARIO_attribution.json`.
///
/// The scenario gate pins *what* the matrix computes; this gate pins
/// *how hard the kernel works to compute it*. The comparison is
/// two-sided: above the budget (more fine-stepping) a collapsed
/// fallback path re-opened; far below it the kernel got structurally
/// leaner and the win must be re-pinned, otherwise the slack would mask
/// the next regression.
///
/// `fine:mcu-active` classes are workload-driven (the MCU really is
/// awake), and coarse bins are the steps the kernel is *supposed* to
/// take, so neither is budgeted. Cells whose scenario runs an
/// `attack/*` environment are excluded from the matrix-wide rows —
/// adversarial fields exist to force fine-stepping, so they would drown
/// the benign budget.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttributionBudget {
    /// What the document is and how to refresh it.
    pub comment: String,
    /// The budget rows.
    pub entries: Vec<Budget>,
}

/// One cell of `SCENARIO_attribution.json`, as far as the budget reads it.
#[derive(Deserialize)]
struct AttributedCell {
    id: String,
    scenario: String,
    attr: Profile,
}

#[derive(Deserialize)]
struct Profile {
    total_seconds: f64,
    rows: Vec<ProfileRow>,
}

#[derive(Deserialize)]
struct ProfileRow {
    regime: String,
    class: String,
    steps: f64,
}

impl AttributedCell {
    /// Steps in one `(regime, class)` bin (absent bins are zero).
    fn steps(&self, regime: &str, class: &str) -> f64 {
        self.attr
            .rows
            .iter()
            .filter(|r| r.regime == regime && r.class == class)
            .map(|r| r.steps)
            .sum()
    }

    /// Benign = the registry scenario does not run an attack
    /// environment (same predicate as the class-sinks table).
    fn benign(&self) -> bool {
        find_scenario(&self.scenario).is_none_or(|s| s.env.benign() == s.env)
    }
}

/// Splits `"sleep fine:guard-band"` into `("sleep", "guard-band")`.
fn split_class(label: &str) -> Result<(&str, &str), String> {
    label
        .split_once(" fine:")
        .ok_or_else(|| format!("class label {label:?} is not `<regime> fine:<reason>`"))
}

impl AttributionBudget {
    /// Measures the budget off a `SCENARIO_attribution.json` document:
    /// a matrix-wide row for every fallback class the benign cells
    /// step in, plus the pinned per-cell rows whose cell is present.
    pub fn measure(attribution_json: &str) -> Result<Self, String> {
        let cells: Vec<AttributedCell> =
            serde_json::from_str(attribution_json).map_err(|e| e.to_string())?;
        let rate = |c: &AttributedCell, regime: &str, class: &str| {
            let hours = c.attr.total_seconds / 3600.0;
            // `+ 0.0` normalizes the negative zero an absent bin's
            // empty sum can produce.
            if hours > 0.0 {
                c.steps(regime, class) / hours + 0.0
            } else {
                0.0
            }
        };
        let benign: Vec<&AttributedCell> = cells.iter().filter(|c| c.benign()).collect();
        let mut classes: Vec<(&str, &str)> = Vec::new();
        for row in benign.iter().flat_map(|c| &c.attr.rows) {
            let key = (row.regime.as_str(), row.class.as_str());
            if row.class != "coarse" && row.class != "mcu-active" && !classes.contains(&key) {
                classes.push(key);
            }
        }
        classes.sort();
        let mut entries = Vec::new();
        for (regime, class) in classes {
            let steps: f64 = benign.iter().map(|c| c.steps(regime, class)).sum();
            let hours: f64 = benign.iter().map(|c| c.attr.total_seconds / 3600.0).sum();
            entries.push(Budget {
                cell: "*".into(),
                class: format!("{regime} fine:{class}"),
                steps_per_hour: if hours > 0.0 { steps / hours } else { 0.0 },
            });
        }
        for &(cell, label) in PINNED_CELLS {
            let (regime, class) = split_class(label)?;
            if let Some(c) = cells.iter().find(|c| c.id == cell) {
                entries.push(Budget {
                    cell: cell.into(),
                    class: label.into(),
                    steps_per_hour: rate(c, regime, class),
                });
            }
        }
        Ok(AttributionBudget {
            comment: BUDGET_COMMENT.into(),
            entries,
        })
    }
}

impl Gate for AttributionBudget {
    /// Rates rounded to 0.1 step per hour; every pinned cell must be
    /// present.
    fn to_baseline(&self) -> Result<String, String> {
        for &(cell, label) in PINNED_CELLS {
            if !self
                .entries
                .iter()
                .any(|e| e.cell == cell && e.class == label)
            {
                return Err(format!("pinned cell {cell} missing from the report"));
            }
        }
        let mut rounded = self.clone();
        for e in &mut rounded.entries {
            // `+ 0.0` normalizes a negative zero out of the rounding.
            e.steps_per_hour = (e.steps_per_hour * 10.0).round() / 10.0 + 0.0;
        }
        let json = serde_json::to_string(&rounded).map_err(|e| format!("serialize: {e}"))?;
        Ok(json + "\n")
    }

    fn compare(&self, baseline: &Self) -> Comparison {
        let mut table = vec![format!(
            "{:<34} {:<28} {:>10} {:>10} {:>10}  verdict",
            "cell", "class", "base/h", "cur/h", "slack/h"
        )];
        let mut violations = Vec::new();
        for entry in &baseline.entries {
            if let Err(e) = split_class(&entry.class) {
                violations.push(format!("{}: {e}", entry.cell));
                continue;
            }
            let slack = (entry.steps_per_hour * MAX_DRIFT).max(ABS_SLACK_PER_HOUR);
            // A matrix-wide class no benign cell stepped in measures 0.
            let measured = self
                .entries
                .iter()
                .find(|e| e.cell == entry.cell && e.class == entry.class)
                .map(|e| e.steps_per_hour)
                .or((entry.cell == "*").then_some(0.0));
            let Some(cur) = measured else {
                violations.push(format!(
                    "{} {}: cell missing from the current attribution report",
                    entry.cell, entry.class
                ));
                table.push(format!(
                    "{:<34} {:<28} {:>10.1} {:>10} {:>10.1}  MISSING",
                    entry.cell, entry.class, entry.steps_per_hour, "-", slack
                ));
                continue;
            };
            let verdict = if cur > entry.steps_per_hour + slack {
                violations.push(format!(
                    "{} {}: {:.1} steps/h exceeds the {:.1}/h budget (+{:.1}/h slack) — \
                     kernel-overhead regression, a collapsed fallback path re-opened",
                    entry.cell, entry.class, cur, entry.steps_per_hour, slack
                ));
                "REGRESSED"
            } else if cur < entry.steps_per_hour - slack {
                violations.push(format!(
                    "{} {}: {:.1} steps/h is far below the {:.1}/h budget (−{:.1}/h slack) — \
                     baseline is stale, re-pin the win: report attribution --write-baseline \
                     ci/attribution-baseline.json",
                    entry.cell, entry.class, cur, entry.steps_per_hour, slack
                ));
                "STALE BASELINE"
            } else {
                "ok"
            };
            table.push(format!(
                "{:<34} {:<28} {:>10.1} {:>10.1} {:>10.1}  {verdict}",
                entry.cell, entry.class, entry.steps_per_hour, cur, slack
            ));
        }
        table.push(format!(
            "{} class budgets, ±{:.0}% (abs slack {:.0}/h)",
            baseline.entries.len(),
            MAX_DRIFT * 100.0,
            ABS_SLACK_PER_HOUR
        ));
        Comparison { table, violations }
    }
}
