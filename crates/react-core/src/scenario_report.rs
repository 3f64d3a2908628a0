//! The scenario figure-of-merit report — "the Table 2 of environments".
//!
//! The paper's Table 2 / Fig. 7 quantify each buffer design over a
//! fixed matrix of *recorded traces*. This module asks the same
//! question over the streaming scenario registry: for every named
//! environment, how much useful work does each buffer design get done
//! (the figure of merit), how responsive is it (on-time fraction,
//! longest outage survived), and how persistent (boots, controller
//! reconfigurations)? The registry expands into a full
//! environment × buffer × seed matrix, runs rayon-parallel through the
//! adaptive kernel, and reduces every cell to a [`ScenarioCell`].
//!
//! Adversarial scenarios additionally score *resilience*: each
//! attacked cell is paired with its benign twin
//! ([`Scenario::benign_twin`]) and reported as the fraction of the
//! figure of merit retained under attack ([`ResilienceRow`]), which
//! the CI gate bounds alongside the raw fields. The matrix itself is
//! crash-proof: every cell runs inside `catch_unwind`, so a panicking
//! model poisons that one cell ([`PoisonedCell`]) instead of taking
//! down the runner — and any poisoned cell fails the gate.
//!
//! Because every scenario is seeded and deterministic, the rendered
//! report is a *committable baseline*: CI regenerates it and diffs the
//! FoM / on-time / reconfiguration fields against
//! `ci/scenario-baseline.json` under explicit per-field tolerances,
//! turning scenario behavior itself into a regression gate. The
//! tolerances absorb the only legitimate cross-machine variation
//! (libm differences shifting a boot across a threshold); anything
//! larger is a semantic change that must ship with a baseline
//! refresh.

use rayon::prelude::*;
use react_buffers::BufferKind;
use react_env::dark_stats;
use react_telemetry::{FallbackReason, Regime, StepAttribution};
use react_units::Watts;
use serde::{Deserialize, Serialize};

use crate::fom::{figure_of_merit, fom_per_hour};
use crate::metrics::RunOutcome;
use crate::report::TextTable;
use crate::scenario::{
    cell_id, fault_scenario_registry, find_scenario, scenario_registry, Scenario,
};

/// The report's buffer axis: the paper's reactive designs plus the
/// static and adaptive-enable baselines.
pub const REPORT_BUFFERS: [BufferKind; 4] = [
    BufferKind::Static770uF,
    BufferKind::React,
    BufferKind::Morphy,
    BufferKind::Dewdrop,
];

/// The report's seed axis: the canonical registry streams (salt 0)
/// plus one re-seeded replicate of every stochastic environment.
pub const REPORT_SEEDS: [u64; 2] = [0, 1];

/// Power floor below which the environment counts as dark (outage) for
/// the environment-side statistics.
pub const DARK_FLOOR: Watts = Watts::new(10e-6);

/// One (environment, buffer, seed) cell of the report matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// Registry scenario the cell derives from.
    pub scenario: String,
    /// Environment label.
    pub environment: String,
    /// Buffer design label.
    pub buffer: String,
    /// Workload label.
    pub workload: String,
    /// Converter model label.
    pub converter: String,
    /// Seed salt (0 = the canonical registry stream).
    pub seed: u64,
    /// Whether the detect-and-degrade defense was armed for this cell.
    #[serde(default)]
    pub defended: bool,
    /// Whether the kernel invariant auditor was armed for this cell.
    #[serde(default)]
    pub audited: bool,
    /// The paper's figure of merit (ops, or rx+tx for PF).
    pub fom: f64,
    /// FoM per deployed hour (comparable across horizons).
    pub fom_per_hour: f64,
    /// Fraction of the deployment the system was on (responsiveness).
    pub on_time_fraction: f64,
    /// Longest outage survived, in seconds (responsiveness under
    /// starvation; includes the cold start, excludes the final
    /// drain-out).
    pub longest_outage_survived_s: f64,
    /// Completed power cycles — every one is a checkpoint/restore in a
    /// transiently-powered system (persistence).
    pub boots: u64,
    /// Buffer-controller reconfigurations (persistence overhead).
    pub reconfigurations: u64,
    /// Kernel invariant-guard fallbacks (0 for every well-posed cell).
    #[serde(default)]
    pub guard_fallbacks: u64,
    /// Energy-attack alarms the defense raised (0 when undefended).
    #[serde(default)]
    pub detections: u64,
    /// Alarms that cleared with no post-raise suspicious activity.
    #[serde(default)]
    pub false_positives: u64,
    /// Reconfigurations commanded by the defense specifically.
    #[serde(default)]
    pub defensive_reconfigurations: u64,
    /// Hardware-drift fault events the fault plan injected (0 for
    /// every benign registry cell).
    #[serde(default)]
    pub faults_injected: u64,
    /// Committed strides the invariant auditor cross-checked (0 when
    /// unaudited).
    #[serde(default)]
    pub audit_checks: u64,
    /// Auditor divergences that degraded a fast path (0 for every
    /// benign cell — the fault suite asserts it).
    #[serde(default)]
    pub audit_trips: u64,
    /// Kernel iterations the engine spent on the cell (not gated here:
    /// `report attribution` budgets the fallback steps; kept for the
    /// fast-path collapse column).
    pub engine_steps: u64,
    /// `horizon / dt` — what the fixed-`dt` reference kernel would
    /// have paid; `fixed_dt_steps / engine_steps` is the collapse
    /// factor the adaptive kernel achieved on this cell.
    pub fixed_dt_steps: u64,
    /// Wall-clock seconds this cell took to simulate. Diagnostic only:
    /// excluded from equality and from the conformance gate (absolute
    /// wall-clock does not transfer across runners — `perfbench/`
    /// measures it), but printed per cell so matrix-dominating cells
    /// are visible in CI logs.
    pub elapsed_s: f64,
}

/// Equality ignores `elapsed_s`: two runs of the same deterministic
/// matrix are the same report no matter how long the cells took.
impl PartialEq for ScenarioCell {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario
            && self.environment == other.environment
            && self.buffer == other.buffer
            && self.workload == other.workload
            && self.converter == other.converter
            && self.seed == other.seed
            && self.defended == other.defended
            && self.audited == other.audited
            && self.fom == other.fom
            && self.fom_per_hour == other.fom_per_hour
            && self.on_time_fraction == other.on_time_fraction
            && self.longest_outage_survived_s == other.longest_outage_survived_s
            && self.boots == other.boots
            && self.reconfigurations == other.reconfigurations
            && self.guard_fallbacks == other.guard_fallbacks
            && self.detections == other.detections
            && self.false_positives == other.false_positives
            && self.defensive_reconfigurations == other.defensive_reconfigurations
            && self.faults_injected == other.faults_injected
            && self.audit_checks == other.audit_checks
            && self.audit_trips == other.audit_trips
            && self.engine_steps == other.engine_steps
            && self.fixed_dt_steps == other.fixed_dt_steps
    }
}

impl ScenarioCell {
    /// Stable identity within a report (`scenario/buffer/s<seed>`).
    pub fn id(&self) -> String {
        cell_id(&self.scenario, &self.buffer, self.seed)
    }

    /// The adaptive kernel's step-collapse factor on this cell.
    pub fn step_collapse(&self) -> f64 {
        if self.engine_steps == 0 {
            0.0
        } else {
            self.fixed_dt_steps as f64 / self.engine_steps as f64
        }
    }
}

/// A matrix cell whose run panicked. The runner catches the unwind,
/// records the cell here, and keeps going — one diverging model never
/// takes down the rest of the matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PoisonedCell {
    /// Registry scenario the cell derives from.
    pub scenario: String,
    /// Buffer design label.
    pub buffer: String,
    /// Seed salt.
    pub seed: u64,
    /// The panic payload, when it was a string (it almost always is).
    pub message: String,
}

impl PoisonedCell {
    /// Stable identity, aligned with [`ScenarioCell::id`].
    pub fn id(&self) -> String {
        cell_id(&self.scenario, &self.buffer, self.seed)
    }
}

/// One attacked cell paired with its benign twin: how much of the
/// figure of merit survived the adversary.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceRow {
    /// Attacked registry scenario.
    pub scenario: String,
    /// Buffer design label.
    pub buffer: String,
    /// Seed salt.
    pub seed: u64,
    /// Whether the detect-and-degrade defense was armed.
    pub defended: bool,
    /// Figure of merit under attack.
    pub fom_attacked: f64,
    /// Figure of merit of the benign twin (same workload, horizon and
    /// converter, no adversary).
    pub fom_benign: f64,
    /// `fom_attacked / fom_benign` (1.0 when the twin did no work —
    /// an attack cannot lose work that was never available).
    pub retained: f64,
}

impl ResilienceRow {
    /// Stable identity of the attacked cell, aligned with
    /// [`ScenarioCell::id`].
    pub fn id(&self) -> String {
        cell_id(&self.scenario, &self.buffer, self.seed)
    }
}

/// One faulted cell paired with its healthy twin: how much of the
/// figure of merit survived the hardware-drift campaign, and whether
/// the invariant auditor caught the drift.
#[derive(Clone, Debug, PartialEq)]
pub struct SurvivalRow {
    /// Faulted registry scenario.
    pub scenario: String,
    /// Fault campaign label.
    pub campaign: String,
    /// Buffer design label.
    pub buffer: String,
    /// Seed salt.
    pub seed: u64,
    /// Whether the invariant auditor was armed.
    pub audited: bool,
    /// Fault events injected over the run.
    pub faults_injected: u64,
    /// Auditor divergences that degraded a fast path.
    pub audit_trips: u64,
    /// Figure of merit under the fault campaign.
    pub fom_faulted: f64,
    /// Figure of merit of the healthy twin (same environment, buffer,
    /// and workload, no faults, no auditor).
    pub fom_healthy: f64,
    /// `fom_faulted / fom_healthy` (1.0 when the twin did no work — a
    /// fault cannot lose work that was never available).
    pub retained: f64,
}

impl SurvivalRow {
    /// Stable identity of the faulted cell, aligned with
    /// [`ScenarioCell::id`].
    pub fn id(&self) -> String {
        cell_id(&self.scenario, &self.buffer, self.seed)
    }
}

/// Environment-side summary for one (scenario, seed): what the
/// environment *presented*, independent of any buffer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnvSummary {
    /// Registry scenario.
    pub scenario: String,
    /// Environment label.
    pub environment: String,
    /// Converter model label.
    pub converter: String,
    /// Seed salt.
    pub seed: u64,
    /// Harvest horizon in seconds.
    pub horizon_s: f64,
    /// Native piecewise-constant segments over the horizon.
    pub segments: u64,
    /// Fraction of the horizon below the dark floor.
    pub dark_fraction: f64,
    /// Longest contiguous dark span the environment presented, in
    /// seconds (the outage a persistent buffer must survive).
    pub longest_dark_s: f64,
}

/// The full scenario report: environment summaries plus the
/// environment × buffer × seed cell matrix.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Per-(scenario, seed) environment statistics.
    pub environments: Vec<EnvSummary>,
    /// The cell matrix, in deterministic expansion order
    /// (scenario-major, then buffer, then seed).
    pub cells: Vec<ScenarioCell>,
    /// Cells whose run panicked (isolated, not fatal to the matrix).
    /// Empty for a healthy report; any entry fails the CI gate.
    #[serde(default)]
    pub poisoned: Vec<PoisonedCell>,
}

impl ScenarioReport {
    /// Looks up a cell by its [`ScenarioCell::id`].
    pub fn cell(&self, id: &str) -> Option<&ScenarioCell> {
        self.cells.iter().find(|c| c.id() == id)
    }

    /// Mean REACT-normalized FoM per buffer across all (environment,
    /// seed) rows where REACT did any work — Fig. 7's bars, taken over
    /// environments instead of recorded traces.
    pub fn react_normalized(&self) -> Vec<(String, f64)> {
        let buffers: Vec<String> = dedup_keys(self.cells.iter().map(|c| c.buffer.clone()));
        buffers
            .into_iter()
            .map(|buffer| {
                let mut sum = 0.0;
                let mut n = 0usize;
                for react in self
                    .cells
                    .iter()
                    .filter(|c| c.buffer == BufferKind::React.label() && c.fom > 0.0)
                {
                    if let Some(this) = self.cells.iter().find(|c| {
                        c.buffer == buffer && c.scenario == react.scenario && c.seed == react.seed
                    }) {
                        sum += this.fom / react.fom;
                        n += 1;
                    }
                }
                (buffer, if n > 0 { sum / n as f64 } else { 0.0 })
            })
            .collect()
    }

    /// Renders the cell matrix as an aligned text table.
    pub fn render_cells(&self) -> TextTable {
        let mut table = TextTable::new(
            "Scenario figure-of-merit report (the Table 2 of environments)",
            &[
                "scenario",
                "buffer",
                "seed",
                "FoM",
                "FoM/h",
                "on %",
                "outage (s)",
                "boots",
                "reconf",
                "collapse",
                "wall (s)",
            ],
        );
        for c in &self.cells {
            table.push_row(&[
                c.scenario.clone(),
                c.buffer.clone(),
                c.seed.to_string(),
                format!("{:.0}", c.fom),
                format!("{:.1}", c.fom_per_hour),
                format!("{:.1}", 100.0 * c.on_time_fraction),
                format!("{:.0}", c.longest_outage_survived_s),
                c.boots.to_string(),
                c.reconfigurations.to_string(),
                format!("{:.0}×", c.step_collapse()),
                format!("{:.2}", c.elapsed_s),
            ]);
        }
        table
    }

    /// Sum of per-cell wall-clock — the single-core-equivalent cost of
    /// the matrix (the parallel build finishes faster; this is the
    /// number future perf work on the matrix moves).
    pub fn total_cell_seconds(&self) -> f64 {
        self.cells.iter().map(|c| c.elapsed_s).sum()
    }

    /// Renders the environment summaries as an aligned text table.
    pub fn render_environments(&self) -> TextTable {
        let mut table = TextTable::new(
            "Environments",
            &[
                "scenario",
                "environment",
                "converter",
                "seed",
                "horizon (h)",
                "segments",
                "dark %",
                "longest dark (s)",
            ],
        );
        for e in &self.environments {
            table.push_row(&[
                e.scenario.clone(),
                e.environment.clone(),
                e.converter.clone(),
                e.seed.to_string(),
                format!("{:.1}", e.horizon_s / 3600.0),
                e.segments.to_string(),
                format!("{:.1}", 100.0 * e.dark_fraction),
                format!("{:.0}", e.longest_dark_s),
            ]);
        }
        table
    }

    /// Pairs every attacked cell with its benign twin (same buffer and
    /// seed, [`Scenario::benign_twin`] scenario) and computes the
    /// fraction of the figure of merit that survived the adversary.
    /// Cells whose twin is absent from the report are skipped — a
    /// partial matrix cannot score resilience.
    pub fn resilience(&self) -> Vec<ResilienceRow> {
        self.cells
            .iter()
            .filter_map(|c| {
                let twin = find_scenario(&c.scenario)?.benign_twin()?;
                let benign = self
                    .cells
                    .iter()
                    .find(|b| b.scenario == twin && b.buffer == c.buffer && b.seed == c.seed)?;
                let retained = if benign.fom > 0.0 {
                    c.fom / benign.fom
                } else {
                    1.0
                };
                Some(ResilienceRow {
                    scenario: c.scenario.clone(),
                    buffer: c.buffer.clone(),
                    seed: c.seed,
                    defended: c.defended,
                    fom_attacked: c.fom,
                    fom_benign: benign.fom,
                    retained,
                })
            })
            .collect()
    }

    /// Pairs every faulted cell with its healthy twin (same buffer and
    /// seed, [`Scenario::healthy_twin`] scenario) and computes the
    /// fraction of the figure of merit that survived the fault
    /// campaign. Cells whose twin is absent from the report are
    /// skipped — a partial matrix cannot score survival. The fault
    /// registry carries every healthy twin, so the lookup searches this
    /// report's cells only.
    pub fn survival(&self) -> Vec<SurvivalRow> {
        self.cells
            .iter()
            .filter_map(|c| {
                let s = find_scenario(&c.scenario)?;
                let twin = s.healthy_twin()?;
                let healthy = self
                    .cells
                    .iter()
                    .find(|h| h.scenario == twin && h.buffer == c.buffer && h.seed == c.seed)?;
                let retained = if healthy.fom > 0.0 {
                    c.fom / healthy.fom
                } else {
                    1.0
                };
                Some(SurvivalRow {
                    scenario: c.scenario.clone(),
                    campaign: s.fault.label().to_string(),
                    buffer: c.buffer.clone(),
                    seed: c.seed,
                    audited: c.audited,
                    faults_injected: c.faults_injected,
                    audit_trips: c.audit_trips,
                    fom_faulted: c.fom,
                    fom_healthy: healthy.fom,
                    retained,
                })
            })
            .collect()
    }

    /// Renders the FoM-retained-under-faults table.
    pub fn render_survival(&self) -> TextTable {
        let mut table = TextTable::new(
            "FoM retained under faults (faulted / healthy twin)",
            &[
                "scenario",
                "campaign",
                "buffer",
                "audited",
                "faults",
                "trips",
                "FoM",
                "healthy FoM",
                "retained",
            ],
        );
        for r in self.survival() {
            table.push_row(&[
                r.scenario.clone(),
                r.campaign.clone(),
                r.buffer.clone(),
                if r.audited { "yes" } else { "no" }.to_string(),
                r.faults_injected.to_string(),
                r.audit_trips.to_string(),
                format!("{:.0}", r.fom_faulted),
                format!("{:.0}", r.fom_healthy),
                format!("{:.3}", r.retained),
            ]);
        }
        table
    }

    /// Renders the FoM-retained-under-attack table.
    pub fn render_resilience(&self) -> TextTable {
        let mut table = TextTable::new(
            "FoM retained under attack (attacked / benign twin)",
            &[
                "scenario",
                "buffer",
                "seed",
                "defended",
                "FoM",
                "benign FoM",
                "retained",
            ],
        );
        for r in self.resilience() {
            table.push_row(&[
                r.scenario.clone(),
                r.buffer.clone(),
                r.seed.to_string(),
                if r.defended { "yes" } else { "no" }.to_string(),
                format!("{:.0}", r.fom_attacked),
                format!("{:.0}", r.fom_benign),
                format!("{:.3}", r.retained),
            ]);
        }
        table
    }

    /// Renders the Fig. 7-style REACT-normalized summary.
    pub fn render_normalized(&self) -> TextTable {
        let mut table = TextTable::new(
            "Mean FoM normalized to REACT (across environments × seeds)",
            &["buffer", "score"],
        );
        for (buffer, score) in self.react_normalized() {
            table.push_row(&[buffer, format!("{score:.3}")]);
        }
        table
    }
}

/// First-occurrence dedup preserving order.
fn dedup_keys<K: PartialEq>(keys: impl Iterator<Item = K>) -> Vec<K> {
    let mut seen = Vec::new();
    for k in keys {
        if !seen.contains(&k) {
            seen.push(k);
        }
    }
    seen
}

/// The report's environment rows as an owned list: exactly
/// [`scenario_registry`], whose entries never differ only in buffer, so
/// the report's buffer axis duplicates no row. New callers use
/// [`scenario_registry`]; `perfbench/` still calls this.
pub fn report_scenarios() -> Vec<Scenario> {
    scenario_registry().to_vec()
}

/// Best-effort string form of a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Expands report rows × buffers × seed salts into the explicit cell
/// list [`build_report`] runs, in deterministic order: row-major, then
/// buffer, then seed.
pub fn expand_cells(rows: &[Scenario], buffers: &[BufferKind], seeds: &[u64]) -> Vec<Scenario> {
    let mut cells = Vec::with_capacity(rows.len() * buffers.len() * seeds.len());
    for s in rows {
        for &buffer in buffers {
            for &seed in seeds {
                // Fully deterministic cells replay bit-identically
                // under every salt — rerunning them would only pad the
                // matrix with duplicates masquerading as replicates.
                if seed != 0 && !s.seed_salt_matters() {
                    continue;
                }
                cells.push(s.with_buffer(buffer).with_seed_salt(seed));
            }
        }
    }
    cells
}

/// The fault-campaign cell list: every [`FAULT_SCENARIOS`] entry run
/// *as declared* (its own buffer — faulted scenarios are not expanded
/// over a buffer axis, because each campaign's healthy twin is
/// buffer-specific). The registry carries every healthy twin, so
/// [`ScenarioReport::survival`] scores every campaign in-report. Cells
/// are grouped by buffer in first-appearance order. This is what
/// `report fault` runs and gates against `ci/fault-baseline.json`.
///
/// [`FAULT_SCENARIOS`]: crate::scenario::FAULT_SCENARIOS
pub fn fault_cells() -> Vec<Scenario> {
    let mut cells = fault_scenario_registry().to_vec();
    let groups: Vec<BufferKind> = dedup_keys(cells.iter().map(|s| s.buffer));
    cells.sort_by_key(|s| groups.iter().position(|&b| b == s.buffer));
    cells
}

/// Runs an explicit cell list (see [`expand_cells`], [`fault_cells`])
/// and reduces it to a report. `runner` returns each cell's outcome
/// together with its recorder — `|s| (s.run(), ())` for a plain run,
/// `|s| s.run_recorded(StepAttribution::default())` for step
/// attribution (see [`Scenario::run_recorded`]). Cells fan out
/// over worker threads, and results come back in cell order.
///
/// Every cell runs inside `catch_unwind`: a panicking runner poisons
/// that one cell (recorded in [`ScenarioReport::poisoned`]) while the
/// rest of the matrix completes and reports normally. The returned
/// recorders are aligned with `report.cells`; poisoned cells have none.
pub fn build_report<R: Send>(
    cells: &[Scenario],
    runner: &(dyn Fn(&Scenario) -> (RunOutcome, R) + Sync),
) -> (ScenarioReport, Vec<R>) {
    let cell = |s: &Scenario| -> Result<(ScenarioCell, R), PoisonedCell> {
        let started = std::time::Instant::now();
        let (out, recorder) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(s)))
            .map_err(|payload| PoisonedCell {
                scenario: s.name.to_string(),
                buffer: s.buffer.label().to_string(),
                seed: s.seed_salt,
                message: panic_message(payload),
            })?;
        let elapsed_s = started.elapsed().as_secs_f64();
        let m = &out.metrics;
        let cell = ScenarioCell {
            scenario: s.name.to_string(),
            environment: s.env.label().to_string(),
            buffer: s.buffer.label().to_string(),
            workload: s.workload.label().to_string(),
            converter: s.converter.label().to_string(),
            seed: s.seed_salt,
            defended: s.defended,
            audited: s.audited,
            fom: figure_of_merit(s.workload, m),
            fom_per_hour: fom_per_hour(s.workload, m, s.horizon),
            on_time_fraction: m.duty_cycle(),
            longest_outage_survived_s: m.max_off_period.get(),
            boots: m.boots,
            reconfigurations: m.reconfigurations,
            guard_fallbacks: m.guard_fallbacks,
            detections: m.detections,
            false_positives: m.false_positives,
            defensive_reconfigurations: m.defensive_reconfigurations,
            faults_injected: m.faults_injected,
            audit_checks: m.audit_checks,
            audit_trips: m.audit_trips,
            engine_steps: m.engine_steps,
            fixed_dt_steps: (s.horizon.get() / s.dt.get()).round() as u64,
            elapsed_s,
        };
        Ok((cell, recorder))
    };
    let results: Vec<Result<(ScenarioCell, R), PoisonedCell>> =
        cells.par_iter().map(cell).collect();
    let mut report = ScenarioReport::default();
    let mut recorders = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok((c, recorder)) => {
                report.cells.push(c);
                recorders.push(recorder);
            }
            Err(p) => report.poisoned.push(p),
        }
    }

    // One environment row per (scenario, salt) the cells cover. A
    // deterministic environment presents the same dark spans under
    // every salt (even when its workload is seeded), so it gets a row
    // for salt 0 only.
    let mut env_rows: Vec<&Scenario> = Vec::new();
    for s in cells {
        if (s.seed_salt == 0 || s.env.salt_sensitive())
            && !env_rows
                .iter()
                .any(|e| e.name == s.name && e.seed_salt == s.seed_salt)
        {
            env_rows.push(s);
        }
    }
    let summary = |s: &&Scenario| -> EnvSummary {
        let mut source = s.source();
        let stats = dark_stats(source.as_mut(), s.horizon, DARK_FLOOR);
        EnvSummary {
            scenario: s.name.to_string(),
            environment: s.env.label().to_string(),
            converter: s.converter.label().to_string(),
            seed: s.seed_salt,
            horizon_s: s.horizon.get(),
            segments: stats.segments,
            dark_fraction: stats.dark_fraction,
            longest_dark_s: stats.longest_dark_s,
        }
    };
    report.environments = env_rows.par_iter().map(summary).collect();
    (report, recorders)
}

/// One report cell's step-attribution profile: where the engine's
/// steps (and the simulated seconds they covered) went, by
/// regime × fallback reason.
#[derive(Clone, Debug, Serialize)]
pub struct CellAttribution {
    /// [`ScenarioCell::id`] of the profiled cell.
    pub id: String,
    /// Registry scenario the cell derives from.
    pub scenario: String,
    /// Buffer design label.
    pub buffer: String,
    /// Seed salt.
    pub seed: u64,
    /// The cell's step-attribution profile.
    pub attr: StepAttribution,
}

impl CellAttribution {
    /// Pairs a report cell with the profile its run recorded (the
    /// recorders [`build_report`] returns under a
    /// [`Scenario::run_recorded`] runner with a [`StepAttribution`]).
    pub fn new(cell: &ScenarioCell, attr: StepAttribution) -> Self {
        CellAttribution {
            id: cell.id(),
            scenario: cell.scenario.clone(),
            buffer: cell.buffer.clone(),
            seed: cell.seed,
            attr,
        }
    }
}

/// Folds every cell profile into one matrix-wide [`StepAttribution`].
pub fn merged_attribution(cells: &[CellAttribution]) -> StepAttribution {
    let mut merged = StepAttribution::default();
    for c in cells {
        merged.merge(&c.attr);
    }
    merged
}

/// Renders the "where the steps go" table: one row per cell, ranked by
/// fine-step count, naming each cell's dominant fine-step class. The
/// top rows of this table are the matrix's step sinks — the cells (and
/// kernel reasons) any engine perf work should target first.
pub fn render_attribution(cells: &[CellAttribution]) -> TextTable {
    let mut table = TextTable::new(
        "Where the steps go (cells ranked by fine-step count)",
        &[
            "cell",
            "steps",
            "fine",
            "fine %",
            "top fine class",
            "class steps",
            "class sim (s)",
        ],
    );
    let mut ranked: Vec<&CellAttribution> = cells.iter().collect();
    ranked.sort_by(|a, b| {
        b.attr
            .fine_steps()
            .cmp(&a.attr.fine_steps())
            .then_with(|| a.id.cmp(&b.id))
    });
    for c in ranked {
        let total = c.attr.total_steps();
        let fine = c.attr.fine_steps();
        let share = if total == 0 {
            0.0
        } else {
            100.0 * fine as f64 / total as f64
        };
        let (label, steps, seconds) = match c.attr.top_fine_row() {
            Some(row) => (
                row.label(),
                row.steps.to_string(),
                format!("{:.1}", row.seconds),
            ),
            None => ("-".to_string(), "0".to_string(), "0.0".to_string()),
        };
        table.push_row(&[
            c.id.clone(),
            total.to_string(),
            fine.to_string(),
            format!("{share:.1}"),
            label,
            steps,
            seconds,
        ]);
    }
    table
}

/// Noise floor for a cell to qualify as a class's hottest sink: below
/// this many steps a cell's density says nothing (a 120 s trace cell
/// with 100 steps posts a huge steps/hour figure on no evidence).
const MIN_SINK_STEPS: u64 = 500;

/// Renders the kernel-overhead sink table: one row per populated
/// *fallback* class (regime × fine-step reason, `mcu-active` excluded
/// — fine-stepping while the MCU computes is the workload, not
/// overhead), with the class's matrix-wide step total and its hottest
/// **benign** cell. Adversarial cells are excluded from the hottest
/// column because their stepping is attacker-driven (the resilience
/// table scores that); the remaining cells rank by fine-step *density*
/// (steps per simulated hour, over a 500-step noise floor),
/// so a 15-minute plateau cell burning 900 guard-band steps outranks a
/// week-long cell that merely accumulates more. This is the table that
/// names `react-plateau-sc/REACT` as the guard-band (and
/// no-closed-form) sink and the stormy-day Morphy cells as the idle
/// fine-stepping sinks.
pub fn render_class_sinks(cells: &[CellAttribution]) -> TextTable {
    let mut table = TextTable::new(
        "Kernel-overhead sinks by class (hottest benign cell = most steps per simulated hour)",
        &[
            "class",
            "steps",
            "share %",
            "hottest benign cell",
            "cell steps",
            "cell steps/h",
        ],
    );
    let matrix_total = merged_attribution(cells).total_steps().max(1);
    // Cells whose registry scenario runs any attack environment
    // (stateful adversary or fixed-schedule wrapper alike) never
    // qualify as a sink; synthetic cells outside the registry count as
    // benign.
    let benign =
        |c: &CellAttribution| find_scenario(&c.scenario).is_none_or(|s| s.env.benign() == s.env);
    struct ClassSink<'a> {
        label: String,
        total: u64,
        hottest: Option<(&'a CellAttribution, u64, f64)>,
    }
    let mut classes: Vec<ClassSink<'_>> = Vec::new();
    for &regime in &Regime::ALL {
        for &reason in &FallbackReason::ALL {
            if reason == FallbackReason::McuActive {
                continue;
            }
            let mut class_total = 0u64;
            let mut hottest: Option<(&CellAttribution, u64, f64)> = None;
            for c in cells {
                let bin = c.attr.bin(regime, Some(reason));
                class_total += bin.steps;
                if bin.steps < MIN_SINK_STEPS || !benign(c) {
                    continue;
                }
                let hours = c.attr.total_seconds() / 3600.0;
                let rate = if hours > 0.0 {
                    bin.steps as f64 / hours
                } else {
                    0.0
                };
                let beats = match hottest {
                    None => true,
                    // Tie on rate falls back to the lower cell id so the
                    // table is deterministic across thread schedules.
                    Some((prev, _, prev_rate)) => {
                        rate > prev_rate || (rate == prev_rate && c.id < prev.id)
                    }
                };
                if beats {
                    hottest = Some((c, bin.steps, rate));
                }
            }
            if class_total > 0 {
                classes.push(ClassSink {
                    label: format!("{} fine:{}", regime.label(), reason.label()),
                    total: class_total,
                    hottest,
                });
            }
        }
    }
    classes.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.label.cmp(&b.label)));
    for sink in classes {
        let (id, steps, rate) = match sink.hottest {
            Some((cell, steps, rate)) => (cell.id.clone(), steps.to_string(), format!("{rate:.0}")),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        table.push_row(&[
            sink.label,
            sink.total.to_string(),
            format!("{:.2}", 100.0 * sink.total as f64 / matrix_total as f64),
            id,
            steps,
            rate,
        ]);
    }
    table
}

// Per-field tolerances of the CI conformance gate. They absorb
// cross-platform libm drift (a boot sliding across a threshold, a few
// operations gained or lost at a segment edge) without letting real
// behavioral changes through.
/// Relative tolerance on the figure of merit.
const FOM_REL: f64 = 0.05;
/// Absolute slack on the figure of merit (for near-zero cells).
const FOM_ABS: f64 = 3.0;
/// Absolute tolerance on the on-time fraction.
const ON_TIME_ABS: f64 = 0.02;
/// Relative tolerance on counters (boots, reconfigurations).
const COUNT_REL: f64 = 0.05;
/// Absolute slack on counters.
const COUNT_ABS: f64 = 2.0;
/// Relative tolerance on the longest outage survived.
const OUTAGE_REL: f64 = 0.05;
/// Absolute slack on the longest outage survived, in seconds.
const OUTAGE_ABS_S: f64 = 2.0;
/// Absolute tolerance on the FoM-retained-under-attack ratio.
const RETAINED_ABS: f64 = 0.05;

fn within(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + abs
}

/// Diffs `current` against `baseline` under the gate's tolerances,
/// returning one human-readable violation per out-of-tolerance field
/// or missing cell (empty = conformant). Cells present only in
/// `current` are new scenarios, not violations — they flow into the
/// next committed baseline.
pub fn compare_reports(baseline: &ScenarioReport, current: &ScenarioReport) -> Vec<String> {
    let mut violations = Vec::new();
    // Poisoned cells are unconditional failures: a panicking model is
    // never within tolerance of anything.
    for p in &current.poisoned {
        violations.push(format!("{}: cell poisoned: {}", p.id(), p.message));
    }
    // Resilience is gated on the derived ratio, not just the raw FoM:
    // the attacked and benign cells can drift together within their
    // own tolerances while the defense's value quietly evaporates.
    let current_resilience = current.resilience();
    for base in baseline.resilience() {
        let id = base.id();
        let Some(cur) = current_resilience.iter().find(|r| r.id() == id) else {
            // The attacked or twin cell is gone; the missing-cell check
            // below reports which.
            continue;
        };
        if !within(cur.retained, base.retained, 0.0, RETAINED_ABS) {
            violations.push(format!(
                "{id}: FoM retained {:.3} vs baseline {:.3} (±{:.3})",
                cur.retained, base.retained, RETAINED_ABS
            ));
        }
    }
    // Fault survival is gated the same way: the faulted and healthy
    // cells can drift together within their own tolerances while the
    // degradation story quietly changes.
    let current_survival = current.survival();
    for base in baseline.survival() {
        let id = base.id();
        let Some(cur) = current_survival.iter().find(|r| r.id() == id) else {
            continue;
        };
        if !within(cur.retained, base.retained, 0.0, RETAINED_ABS) {
            violations.push(format!(
                "{id}: FoM retained under faults {:.3} vs baseline {:.3} (±{:.3})",
                cur.retained, base.retained, RETAINED_ABS
            ));
        }
        // An audited campaign that stops tripping (or a benign twin
        // that starts) is a detection regression, not noise.
        if (base.audit_trips > 0) != (cur.audit_trips > 0) {
            violations.push(format!(
                "{id}: audit trips {} vs baseline {} (detection flipped)",
                cur.audit_trips, base.audit_trips
            ));
        }
    }
    for base in &baseline.cells {
        let id = base.id();
        let Some(cur) = current.cell(&id) else {
            violations.push(format!("{id}: cell missing from current report"));
            continue;
        };
        if !within(cur.fom, base.fom, FOM_REL, FOM_ABS) {
            violations.push(format!(
                "{id}: FoM {:.1} vs baseline {:.1} (±{:.0}% + {:.0})",
                cur.fom,
                base.fom,
                100.0 * FOM_REL,
                FOM_ABS
            ));
        }
        if !within(
            cur.on_time_fraction,
            base.on_time_fraction,
            0.0,
            ON_TIME_ABS,
        ) {
            violations.push(format!(
                "{id}: on-time {:.3} vs baseline {:.3} (±{:.3})",
                cur.on_time_fraction, base.on_time_fraction, ON_TIME_ABS
            ));
        }
        for (field, cur_n, base_n) in [
            ("boots", cur.boots, base.boots),
            (
                "reconfigurations",
                cur.reconfigurations,
                base.reconfigurations,
            ),
            ("faults-injected", cur.faults_injected, base.faults_injected),
            ("audit-trips", cur.audit_trips, base.audit_trips),
        ] {
            if !within(cur_n as f64, base_n as f64, COUNT_REL, COUNT_ABS) {
                violations.push(format!(
                    "{id}: {field} {cur_n} vs baseline {base_n} (±{:.0}% + {:.0})",
                    100.0 * COUNT_REL,
                    COUNT_ABS
                ));
            }
        }
        if !within(
            cur.longest_outage_survived_s,
            base.longest_outage_survived_s,
            OUTAGE_REL,
            OUTAGE_ABS_S,
        ) {
            violations.push(format!(
                "{id}: longest outage {:.1} s vs baseline {:.1} s (±{:.0}% + {:.0} s)",
                cur.longest_outage_survived_s,
                base.longest_outage_survived_s,
                100.0 * OUTAGE_REL,
                OUTAGE_ABS_S
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::find_scenario;
    use react_units::Seconds;

    /// Unrecorded report over rows × buffers × seeds.
    fn plain(rows: &[Scenario], buffers: &[BufferKind], seeds: &[u64]) -> ScenarioReport {
        build_report(&expand_cells(rows, buffers, seeds), &|s| (s.run(), ())).0
    }

    fn tiny_report() -> ScenarioReport {
        // One short scenario, two buffers, one seed: fast enough for a
        // unit test while exercising the whole reduction path.
        let mut s = *find_scenario("rf-ge-hour-10mf-de").expect("registered");
        s.horizon = Seconds::new(240.0);
        plain(&[s], &[BufferKind::Static10mF, BufferKind::React], &[0])
    }

    #[test]
    fn report_reduces_cells_and_environments() {
        let r = tiny_report();
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.environments.len(), 1);
        for c in &r.cells {
            assert!(c.fom >= 0.0);
            assert!((0.0..=1.0).contains(&c.on_time_fraction));
            assert!(c.fixed_dt_steps > 0);
        }
        assert!(r.environments[0].segments > 0);
        assert!(r.cell(&r.cells[0].id()).is_some());
        assert!(r.cell("no/such/cell").is_none());
    }

    #[test]
    fn report_is_deterministic_and_parallel_invariant() {
        let mut s = *find_scenario("rf-ge-hour-10mf-de").expect("registered");
        s.horizon = Seconds::new(240.0);
        let cells = expand_cells(&[s], &[BufferKind::Static10mF], &[0, 1]);
        let parallel = build_report(&cells, &|s| (s.run(), ())).0;
        assert_eq!(parallel, build_report(&cells, &|s| (s.run(), ())).0);
        // Each parallel cell equals a serial run of the same scenario.
        assert_eq!(parallel.cells.len(), cells.len());
        for (cell, s) in parallel.cells.iter().zip(&cells) {
            let m = s.run().metrics;
            assert_eq!(cell.fom, figure_of_merit(s.workload, &m), "{}", cell.id());
            assert_eq!(cell.boots, m.boots, "{}", cell.id());
            assert_eq!(cell.engine_steps, m.engine_steps, "{}", cell.id());
        }
        // Different seeds genuinely re-seed the stochastic field.
        assert_ne!(parallel.cells[0].fom, parallel.cells[1].fom);
    }

    #[test]
    fn self_comparison_is_conformant_and_drift_is_caught() {
        let r = tiny_report();
        assert!(compare_reports(&r, &r).is_empty());

        let mut drifted = r.clone();
        drifted.cells[0].fom *= 1.5;
        drifted.cells[0].fom += 50.0;
        drifted.cells[1].on_time_fraction += 0.5;
        let violations = compare_reports(&r, &drifted);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("FoM"), "{violations:?}");
        assert!(violations[1].contains("on-time"), "{violations:?}");

        let mut missing = r.clone();
        missing.cells.remove(0);
        let violations = compare_reports(&r, &missing);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{violations:?}");
    }

    #[test]
    fn deterministic_cells_skip_salt_replicates() {
        // Paper trace + DE: neither environment nor workload draws on
        // the salt — one cell and one env row despite two seeds.
        let paper = *find_scenario("paper-rfcart-de").expect("registered");
        assert!(!paper.seed_salt_matters());
        let r = plain(&[paper], &[BufferKind::Static770uF], &[0, 1]);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.environments.len(), 1);
        // Mobility + PF: the environment is deterministic but the
        // packet arrivals are seeded — cells replicate, env rows don't.
        let mut commute = *find_scenario("mobility-week-pf").expect("registered");
        commute.horizon = Seconds::new(600.0);
        assert!(commute.seed_salt_matters());
        let r = plain(&[commute], &[BufferKind::Static770uF], &[0, 1]);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.environments.len(), 1);
    }

    #[test]
    fn poisoned_cells_are_isolated_and_gated() {
        let mut s = *find_scenario("rf-ge-hour-10mf-de").expect("registered");
        s.horizon = Seconds::new(240.0);
        let healthy = tiny_report();
        let cells = expand_cells(&[s], &[BufferKind::Static10mF, BufferKind::React], &[0]);
        let (r, recorders) = build_report(&cells, &|s| {
            if s.buffer == BufferKind::React {
                panic!("injected fault: buffer model diverged");
            }
            (s.run(), s.buffer)
        });
        // The healthy cell survived its poisoned neighbour.
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].buffer, BufferKind::Static10mF.label());
        // Recorders stay aligned with the surviving cells.
        assert_eq!(recorders, [BufferKind::Static10mF]);
        assert_eq!(r.poisoned.len(), 1);
        assert_eq!(r.poisoned[0].buffer, BufferKind::React.label());
        assert!(r.poisoned[0].message.contains("injected fault"));
        // The gate flags both the poisoning and the hole it left.
        let violations = compare_reports(&healthy, &r);
        assert!(
            violations.iter().any(|v| v.contains("poisoned")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("missing")),
            "{violations:?}"
        );
    }

    #[test]
    fn resilience_pairs_attacked_cells_with_their_benign_twin() {
        let horizon = Seconds::new(240.0);
        let mut benign = *find_scenario("rf-ge-hour-react-de").expect("registered");
        let mut attacked = *find_scenario("attack-bootstrike-hour-de").expect("registered");
        let mut defended =
            *find_scenario("attack-bootstrike-hour-de-defended").expect("registered");
        benign.horizon = horizon;
        attacked.horizon = horizon;
        defended.horizon = horizon;
        let r = plain(&[benign, attacked, defended], &[BufferKind::React], &[0]);
        let rows = r.resilience();
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows.iter().any(|row| row.defended));
        assert!(rows.iter().any(|row| !row.defended));
        for row in &rows {
            assert!(row.fom_benign > 0.0, "{row:?}");
            assert!(row.retained >= 0.0, "{row:?}");
        }
        assert!(!r.render_resilience().render().is_empty());
        // Shifting the attacked FoM shifts the retained ratio past the
        // gate, not just the raw FoM field.
        let mut drifted = r.clone();
        let idx = drifted
            .cells
            .iter()
            .position(|c| c.scenario == "attack-bootstrike-hour-de")
            .expect("attacked cell present");
        drifted.cells[idx].fom = drifted.cells[idx].fom * 3.0 + 100.0;
        let violations = compare_reports(&r, &drifted);
        assert!(
            violations.iter().any(|v| v.contains("retained")),
            "{violations:?}"
        );
    }

    #[test]
    fn fault_survival_pairs_faulted_cells_with_their_healthy_twin() {
        let horizon = Seconds::new(600.0);
        let mut audited =
            *find_scenario("fault-fade-offset-hour-10mf-de-audited").expect("registered");
        let mut unaudited = *find_scenario("fault-fade-offset-hour-10mf-de").expect("registered");
        let mut healthy = *find_scenario("rf-ge-hour-10mf-de").expect("registered");
        audited.horizon = horizon;
        unaudited.horizon = horizon;
        healthy.horizon = horizon;
        let r = plain(
            &[audited, unaudited, healthy],
            &[BufferKind::Static10mF],
            &[0],
        );
        let rows = r.survival();
        assert_eq!(rows.len(), 2, "{rows:?}");
        for row in &rows {
            assert_eq!(row.campaign, "fade-offset");
            assert!(row.faults_injected >= 1, "{row:?}");
            assert!(row.fom_healthy > 0.0, "{row:?}");
            assert!(row.retained >= 0.0, "{row:?}");
        }
        let audited_row = rows.iter().find(|r| r.audited).expect("audited row");
        assert!(audited_row.audit_trips >= 1, "{audited_row:?}");
        assert!(!r.render_survival().render().is_empty());
        // An audited campaign that stops tripping is a detection
        // regression the gate must flag, whatever the FoM does.
        let mut drifted = r.clone();
        let idx = drifted
            .cells
            .iter()
            .position(|c| c.audited)
            .expect("audited cell present");
        drifted.cells[idx].audit_trips = 0;
        let violations = compare_reports(&r, &drifted);
        assert!(
            violations.iter().any(|v| v.contains("detection flipped")),
            "{violations:?}"
        );
    }

    #[test]
    fn serde_round_trip() {
        let r = tiny_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn react_normalization_over_environments() {
        let r = tiny_report();
        let scores = r.react_normalized();
        let react = scores
            .iter()
            .find(|(b, _)| b == BufferKind::React.label())
            .expect("REACT scored");
        assert!((react.1 - 1.0).abs() < 1e-12, "{scores:?}");
    }
}
