//! The `report` binary's gates and the paper's evaluation.
//!
//! [`gate`] holds the CI gates the `report` binary runs; every one
//! compares deterministic quantities. [`paper`] regenerates the paper's
//! artefacts (Tables 2–5, Figures 1/6/7, the §5.1 overhead, the §3.3.1
//! switching loss and the ablations) for `report paper`. Wall-clock
//! performance is measured by the repository benchmark, `perfbench/`.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod gate;
pub mod paper;

use react_core::{find_scenario, FleetBins, FleetSpec};
use react_units::Seconds;

/// The workspace-root `target/paper-artifacts/` directory, regardless
/// of the working directory (`cargo test` runs with the package dir as
/// cwd, which would scatter artifacts under `crates/react-bench/target`).
fn artifact_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target/paper-artifacts")
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
