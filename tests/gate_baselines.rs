//! The committed CI baselines under tier-1: every `ci/*.json` belongs
//! to exactly one `report` kind, loads through that kind's own loader,
//! and compares clean against itself, and the shared gate path maps a
//! drifted baseline to exit 1, a malformed one to exit 2 and poisoned
//! cells to exit 3. A schema change that strands a committed baseline
//! fails here instead of in a CI gate. The fault gate runs in full: its
//! matrix is small enough for a debug build; the paper gate builds its
//! cheap sections. The one other `ci/` file, the benchmark digest pin,
//! must name every benchmark workload and be read by a CI step.

use std::path::{Path, PathBuf};

use react_bench::gate::{run_gate, Gate, Kind, EXIT_ERROR, EXIT_OK, EXIT_POISONED, EXIT_VIOLATION};
use react_bench::paper::{self, PaperReport};
use react_repro::core::{build_report, fault_cells, FleetReport, PoisonedCell, ScenarioReport};

fn workspace() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn committed(kind: Kind) -> String {
    workspace().join(kind.baseline()).display().to_string()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A temporary file for this test binary, holding `contents`.
fn temp_file(name: &str, contents: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("write temporary baseline");
    path.display().to_string()
}

/// The one `ci/` file no `report` kind loads: the benchmark digests the
/// build-test workflow compares perfbench's output with.
const PERFBENCH_DIGESTS: &str = "ci/perfbench-digests.txt";

#[test]
fn every_ci_file_is_claimed_by_exactly_one_kind() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(workspace().join("ci"))
        .expect("ci/ exists")
        .map(|entry| entry.expect("ci/ entry").path())
        .collect();
    files.sort();
    assert!(!files.is_empty());
    let digests = workspace().join(PERFBENCH_DIGESTS);
    assert!(files.contains(&digests), "{PERFBENCH_DIGESTS} is missing");
    for file in files.iter().filter(|f| **f != digests) {
        let claims: Vec<Kind> = Kind::ALL
            .into_iter()
            .filter(|k| workspace().join(k.baseline()) == *file)
            .collect();
        assert_eq!(
            claims.len(),
            1,
            "{} is claimed by {claims:?}",
            file.display()
        );
    }
    for kind in Kind::ALL {
        assert!(
            files.contains(&workspace().join(kind.baseline())),
            "{kind:?} has no committed baseline"
        );
    }
}

#[test]
fn perfbench_digests_pin_every_benchmark_workload_and_ci_reads_them() {
    let text = read(&workspace().join(PERFBENCH_DIGESTS).display().to_string());
    let pins: Vec<(&str, &str)> = text
        .lines()
        .map(|line| match line.split(' ').collect::<Vec<_>>()[..] {
            [seed, "digest", name, hex]
                if seed.parse::<u64>().is_ok()
                    && hex.len() == 16
                    && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) =>
            {
                (seed, name)
            }
            _ => panic!("{PERFBENCH_DIGESTS}: malformed line {line:?}"),
        })
        .collect();
    assert_eq!(
        pins,
        [
            ("0", "fine-burst"),
            ("0", "dark-week"),
            ("0", "fleet"),
            ("1", "dark-week"),
            ("2", "dark-week"),
            ("1", "fine-burst"),
            ("1", "fleet"),
        ]
    );
    let workflow = read(
        &workspace()
            .join(".github/workflows/ci.yml")
            .display()
            .to_string(),
    );
    assert!(
        workflow.contains(PERFBENCH_DIGESTS),
        "no CI step reads {PERFBENCH_DIGESTS}"
    );
    // CI runs every pinned workload at its seed and matches the line
    // keyed by that seed; the fleet digest comes from `fleet-day`.
    assert!(workflow.contains(r#"grep -qxF "$seed $line""#));
    for (seed, name) in pins {
        let workload = if name == "fleet" { "fleet-day" } else { name };
        assert!(
            workflow.contains(&format!(" {workload}:{seed}")),
            "CI does not run {workload} at seed {seed}"
        );
    }
}

#[test]
fn every_baseline_loads_and_compares_clean_against_itself() {
    for kind in Kind::ALL {
        let path = committed(kind);
        let violations = kind
            .self_check(&read(&path))
            .unwrap_or_else(|e| panic!("{path} does not load as a {kind:?} baseline: {e}"));
        assert!(violations.is_empty(), "{path}: {violations:?}");
    }
}

#[test]
fn shared_path_maps_drift_to_1_and_malformed_baselines_to_2() {
    let path = committed(Kind::Scenario);
    let current = ScenarioReport::parse(&read(&path)).expect("scenario baseline loads");
    assert_eq!(
        run_gate(Kind::Scenario, &current, Some(&path), None),
        EXIT_OK
    );

    let mut drifted = current.clone();
    drifted.cells[0].fom = drifted.cells[0].fom * 2.0 + 100.0;
    let drifted_path = temp_file(
        "drifted-scenario-baseline.json",
        &drifted.to_baseline().expect("serializes"),
    );
    assert_eq!(
        run_gate(Kind::Scenario, &current, Some(&drifted_path), None),
        EXIT_VIOLATION
    );

    let paper_path = committed(Kind::Paper);
    let paper = PaperReport::parse(&read(&paper_path)).expect("paper baseline loads");
    assert_eq!(
        run_gate(Kind::Paper, &paper, Some(&paper_path), None),
        EXIT_OK
    );
    let mut changed = paper.clone();
    changed.values[0].value += 1.0;
    let mut dropped = paper.clone();
    dropped.values.pop();
    for (name, drifted) in [("changed", changed), ("dropped", dropped)] {
        let drifted_path = temp_file(
            &format!("{name}-paper-baseline.json"),
            &drifted.to_baseline().expect("serializes"),
        );
        assert_eq!(
            run_gate(Kind::Paper, &paper, Some(&drifted_path), None),
            EXIT_VIOLATION,
            "{name}"
        );
    }

    let truncated = temp_file("truncated-baseline.json", r#"{"environments":["#);
    let wrong_shape = committed(Kind::Attribution);
    let missing = workspace().join("ci/no-such-baseline.json");
    for bad in [truncated, wrong_shape, missing.display().to_string()] {
        assert_eq!(
            run_gate(Kind::Scenario, &current, Some(&bad), None),
            EXIT_ERROR,
            "{bad}"
        );
    }
}

#[test]
fn check_reads_the_baseline_before_write_baseline_replaces_it() {
    let committed_text = read(&committed(Kind::Fleet));
    let path = temp_file("fleet-baseline.json", &committed_text);
    let mut drifted = FleetReport::parse(&committed_text).expect("fleet baseline loads");
    drifted.summary.fom_mean *= 2.0;
    assert_eq!(
        run_gate(Kind::Fleet, &drifted, Some(&path), Some(&path)),
        EXIT_VIOLATION
    );
    // The write still happened, so the refreshed baseline now passes.
    assert_eq!(FleetReport::parse(&read(&path)), Ok(drifted.clone()));
    assert_eq!(run_gate(Kind::Fleet, &drifted, Some(&path), None), EXIT_OK);
}

#[test]
fn poisoned_cells_exit_3_unless_the_gate_already_failed() {
    let path = committed(Kind::Fault);
    let mut current = ScenarioReport::parse(&read(&path)).expect("fault baseline loads");
    current.poisoned.push(PoisonedCell {
        scenario: "injected".into(),
        buffer: "REACT".into(),
        seed: 0,
        message: "injected fault".into(),
    });
    assert_eq!(run_gate(Kind::Fault, &current, None, None), EXIT_POISONED);
    // Under `--check` a poisoned cell is a violation in its own right.
    assert_eq!(
        run_gate(Kind::Fault, &current, Some(&path), None),
        EXIT_VIOLATION
    );
}

#[test]
fn quick_fleet_spec_matches_the_committed_fleet_baseline() {
    let baseline =
        FleetReport::parse(&read(&committed(Kind::Fleet))).expect("fleet baseline loads");
    let spec = react_bench::fleet_spec(None, None, true).expect("quick fleet spec");
    assert_eq!(spec.fingerprint(), baseline.fingerprint);
}

#[test]
fn paper_gate_builds_table3_and_switching_loss_as_committed() {
    let fresh = PaperReport::new(&[paper::table3(), paper::switching_loss()]);
    let baseline =
        PaperReport::parse(&read(&committed(Kind::Paper))).expect("paper baseline loads");
    let pinned: Vec<_> = baseline
        .values
        .into_iter()
        .filter(|v| v.key.starts_with("table3/") || v.key.starts_with("switching_loss/"))
        .collect();
    assert!(!pinned.is_empty());
    assert_eq!(fresh.values, pinned);
}

#[test]
fn fault_matrix_passes_the_committed_fault_gate() {
    let (report, _) = build_report(&fault_cells(), &|s| (s.run(), ()));
    assert!(report.poisoned.is_empty(), "{:?}", report.poisoned);
    let path = committed(Kind::Fault);
    assert_eq!(run_gate(Kind::Fault, &report, Some(&path), None), EXIT_OK);
}
