//! Shared harness helpers for the table/figure regeneration benches.
//!
//! Every bench in `benches/` regenerates one of the paper's artefacts
//! (Tables 2–5, Figures 1/6/7, the §5.1 overhead characterization, and
//! the ablations), printing the same rows/series the paper reports and
//! then timing a representative kernel under criterion.
//!
//! [`gate`] holds the CI gates the `report` binary runs; every one
//! compares deterministic quantities. Wall-clock performance is
//! measured by the repository benchmark, `perfbench/`.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod gate;

use react_buffers::BufferKind;
use react_core::report::TextTable;
use react_core::{find_scenario, ExperimentMatrix, FleetBins, FleetSpec, WorkloadKind};
use react_traces::PaperTrace;
use react_units::Seconds;

/// Renders an ops-count matrix (Table 2 / Table 5 style) as a text
/// table, one row per trace plus the mean row.
pub fn render_ops_table(title: &str, matrix: &ExperimentMatrix) -> TextTable {
    let headers: Vec<String> = std::iter::once("Trace".to_string())
        .chain(
            matrix
                .rows
                .first()
                .map(|r| {
                    r.cells
                        .iter()
                        .map(|c| c.buffer.label().to_string())
                        .collect::<Vec<String>>()
                })
                .unwrap_or_default(),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TextTable::new(title, &header_refs);
    for row in &matrix.rows {
        let mut cells = vec![row.trace.label().to_string()];
        cells.extend(
            row.cells
                .iter()
                .map(|c| c.outcome.metrics.ops_completed.to_string()),
        );
        table.push_row(&cells);
    }
    let mut mean = vec!["Mean".to_string()];
    mean.extend(matrix.mean_ops().iter().map(|(_, v)| format!("{v:.0}")));
    table.push_row(&mean);
    table
}

/// The workspace-root `target/paper-artifacts/` directory, regardless
/// of the working directory cargo launched the bench with (benches run
/// with the package dir as cwd, which would scatter artifacts under
/// `crates/react-bench/target`).
fn artifact_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target/paper-artifacts")
}

/// Writes a rendered artefact (text and optional CSV) under the
/// workspace `target/paper-artifacts/` so bench output survives the
/// run.
pub fn save_artifact(name: &str, text: &str, csv: Option<&str>) {
    let dir = artifact_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), text);
        if let Some(csv) = csv {
            let _ = std::fs::write(dir.join(format!("{name}.csv")), csv);
        }
    }
}

/// Writes `contents` verbatim as `target/paper-artifacts/<file_name>`
/// under the workspace root, returning the written path (the `report`
/// binary uses it for `SCENARIO_report.json` and its siblings).
pub fn save_named_artifact(file_name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Reads `target/paper-artifacts/<file_name>` under the workspace root
/// (the current report of the gates that do not build their own).
pub fn read_artifact(file_name: &str) -> Result<String, String> {
    let path = artifact_dir().join(file_name);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Default fleet base scenario: the cheapest salt-sensitive week-class
/// cell.
const FLEET_SCENARIO: &str = "rf-sparse-week";

/// Full-fleet node count (the acceptance-scale run).
const FLEET_NODES: usize = 100_000;

/// Quick-fleet node count (the CI gate).
const QUICK_FLEET_NODES: usize = 10_000;

/// Quick-fleet horizon cap: one day.
const QUICK_FLEET_HORIZON: Seconds = Seconds::new(86_400.0);

/// The committed fleet seed (arbitrary, fixed forever).
const FLEET_SEED: u64 = 0x000F_1EE7;

/// The `report fleet` configuration: `scenario` (default
/// `rf-sparse-week`) fanned out to `nodes` salted cells under the
/// committed fleet seed, with pilot-calibrated binning. `quick` caps
/// the horizon at one day and defaults to 10 000 nodes instead of
/// 100 000; `fleet_spec(None, None, true)` is the quick fleet that
/// `ci/fleet-baseline.json` pins.
pub fn fleet_spec(
    scenario: Option<&str>,
    nodes: Option<usize>,
    quick: bool,
) -> Result<FleetSpec, String> {
    let name = scenario.unwrap_or(FLEET_SCENARIO);
    let mut base = *find_scenario(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
    if quick {
        base.horizon = base.horizon.min(QUICK_FLEET_HORIZON);
    }
    let nodes = nodes.unwrap_or(if quick {
        QUICK_FLEET_NODES
    } else {
        FLEET_NODES
    });
    let mut spec = FleetSpec::new(base, nodes, FLEET_SEED);
    spec.bins = FleetBins::calibrated(&base, FLEET_SEED);
    Ok(spec)
}

/// The five evaluation traces (re-exported for benches).
pub fn evaluation_traces() -> [PaperTrace; 5] {
    PaperTrace::EVALUATION
}

/// The five buffer columns of the paper's tables.
pub fn paper_buffers() -> [BufferKind; 5] {
    BufferKind::PAPER_COLUMNS
}

/// All four benchmarks.
pub fn paper_workloads() -> [WorkloadKind; 4] {
    WorkloadKind::ALL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_cover_paper_matrix() {
        assert_eq!(evaluation_traces().len(), 5);
        assert_eq!(paper_buffers().len(), 5);
        assert_eq!(paper_workloads().len(), 4);
    }
}
