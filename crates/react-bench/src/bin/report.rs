//! The report runner behind every CI gate.
//!
//! ```text
//! report <kind> [--check <baseline.json>] [--write-baseline <path>] [options]
//!
//! report scenario [--quick]     # scenario FoM matrix   -> SCENARIO_report.json, SCENARIO_attribution.{json,txt}
//! report fault [--quick]        # fault-campaign matrix -> FAULT_report.json
//! report fleet [--quick] [--nodes <n>] [--scenario <name>]
//!                               # salted fleet          -> FLEET_report.json, FLEET_attribution.{json,txt}
//! report attribution            # kernel-overhead budget of SCENARIO_attribution.json
//! report paper                  # Tables 2–5, Figs. 1/6/7, §5.1, §3.3.1 -> PAPER_report.json, PAPER_ledgers.csv, <table>.{txt,csv}
//! ```
//!
//! Every kind produces its current report, prints it, and hands it to
//! the shared gate path ([`react_bench::gate::run_gate`]): `--check`
//! compares it against a committed baseline (`ci/<kind>-baseline.json`
//! in CI) and `--write-baseline` writes it as the new one. The check
//! baseline is loaded before anything is written, so `--check X
//! --write-baseline X` still gates against the committed file. Exit
//! codes: 0 ok, 1 gate violation, 2 usage, IO or parse error, 3
//! poisoned cells (a cell's run panicked; the rest of the matrix
//! completed around it).
//!
//! Artifacts land in the workspace-root `target/paper-artifacts/`.
//!
//! * **scenario** expands the scenario registry into the
//!   environment × buffer × seed matrix, runs it in parallel through
//!   the adaptive kernel with step attribution on (bit-identical to the
//!   unrecorded run by the telemetry contract), and prints the
//!   environment, cell, attribution, resilience and normalized tables.
//!   Because every scenario is seeded and deterministic, a violation
//!   means scenario *behavior* changed. To trace one cell, use
//!   `sim_trace <scenario/buffer/s<seed>>`.
//! * **fault** runs the fault-campaign registry as declared — every
//!   drift campaign as an unaudited/audited pair plus the healthy twins
//!   survival is scored against — and prints the cell and survival
//!   tables. On
//!   top of the FoM fields the gate covers the fault counters, the
//!   survival ratios, and any flipped auditor detection.
//! * **fleet** fans one base scenario (default `rf-sparse-week`) out to
//!   a salted fleet, reduces it shard by shard into streaming
//!   percentile histograms, and prints the summary and the fleet-wide
//!   top fine-step sources. The committed baseline *is* the `--quick`
//!   configuration (10k nodes, one day); the report fingerprint binds
//!   the gate to the exact fleet configuration, so a full-size report
//!   never gates against it.
//! * **attribution** reads the `SCENARIO_attribution.json` that
//!   `report scenario` wrote and budgets each fallback class in engine
//!   steps per simulated hour, two-sided
//!   ([`react_bench::gate::AttributionBudget`]).
//! * **paper** regenerates the paper's evaluation
//!   ([`react_bench::paper`]): Tables 2–5, Fig. 7 with REACT's
//!   improvement over each baseline, the Fig. 1 and Fig. 6 summaries and
//!   series, the ablations, the §5.1 overhead and the §3.3.1 switching
//!   loss, running each workload matrix once. Every run is seeded, so
//!   the gate compares every value exactly. `PAPER_ledgers.csv` holds
//!   the energy ledger of every matrix cell.
//!
//! Every kind gates deterministic quantities, so a gate never fails on
//! timer noise; wall-clock performance is measured by `perfbench/`.
//!
//! `--quick` caps scenario and fault horizons at 15 minutes for a local
//! preview; those numbers are not comparable to a committed baseline,
//! so there it refuses to combine with `--check` or `--write-baseline`.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::process::ExitCode;
use std::time::Instant;

use react_bench::gate::{run_gate, AttributionBudget, Gate, Kind, EXIT_ERROR};
use react_bench::paper::{self, PaperReport};
use react_bench::{fleet_spec, read_artifact, save_named_artifact};
use react_core::scenario_report::{REPORT_BUFFERS, REPORT_SEEDS};
use react_core::{
    build_report, expand_cells, fault_cells, merged_attribution, render_attribution,
    render_class_sinks, run_fleet, scenario_registry, CellAttribution, FleetReport,
    FleetRunOptions, Scenario, ScenarioReport,
};
use react_telemetry::StepAttribution;
use react_units::Seconds;
use serde::Serialize;

const USAGE: &str = "usage: report <scenario|fault|fleet|attribution|paper> \
                     [--check <baseline.json>] [--write-baseline <path>] [options]";

/// Flags that take a value; every other flag is a switch.
const VALUE_FLAGS: [&str; 4] = ["--check", "--write-baseline", "--nodes", "--scenario"];

/// Horizon cap of the scenario and fault `--quick` previews.
const PREVIEW_HORIZON: Seconds = Seconds::new(900.0);

/// The parsed command line: a kind and the flags it accepts.
struct Cli {
    kind: Kind,
    flags: Vec<(String, Option<String>)>,
}

/// Whether `kind` accepts `flag`.
fn accepts(kind: Kind, flag: &str) -> bool {
    match flag {
        "--check" | "--write-baseline" => true,
        "--quick" => matches!(kind, Kind::Scenario | Kind::Fault | Kind::Fleet),
        "--nodes" | "--scenario" => kind == Kind::Fleet,
        _ => false,
    }
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let (kind, rest) = args.split_first().ok_or(USAGE)?;
        let kind = Kind::from_name(kind)
            .ok_or_else(|| format!("unknown report kind {kind:?}\n{USAGE}"))?;
        let mut flags = Vec::new();
        let mut rest = rest.iter();
        while let Some(flag) = rest.next() {
            if !accepts(kind, flag) {
                return Err(format!("{} does not take {flag:?}\n{USAGE}", kind.name()));
            }
            let value = if VALUE_FLAGS.contains(&flag.as_str()) {
                let v = rest
                    .next()
                    .ok_or_else(|| format!("usage: report {} {flag} <value>", kind.name()))?;
                Some(v.clone())
            } else {
                None
            };
            flags.push((flag.clone(), value));
        }
        Ok(Cli { kind, flags })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A scenario or fault cell list, each horizon capped at
    /// [`PREVIEW_HORIZON`] under `--quick`, and whether it was. Preview
    /// horizons produce cells under the same ids as the full matrix, so
    /// letting them near a baseline would poison the gate.
    fn preview(&self, mut cells: Vec<Scenario>) -> Result<(Vec<Scenario>, bool), String> {
        let quick = self.has("--quick");
        if quick && (self.has("--check") || self.has("--write-baseline")) {
            return Err("--quick output is not comparable to a committed baseline".into());
        }
        if quick {
            for s in &mut cells {
                s.horizon = s.horizon.min(PREVIEW_HORIZON);
            }
        }
        Ok((cells, quick))
    }
}

fn to_json<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| format!("serialize: {e}"))
}

fn save(file_name: &str, contents: &str) -> Result<(), String> {
    let path =
        save_named_artifact(file_name, contents).map_err(|e| format!("write {file_name}: {e}"))?;
    println!("{file_name} written to {}", path.display());
    Ok(())
}

fn scenario(cli: &Cli) -> Result<ScenarioReport, String> {
    let (cells, quick) = cli.preview(expand_cells(
        scenario_registry(),
        &REPORT_BUFFERS,
        &REPORT_SEEDS,
    ))?;
    let started = Instant::now();
    let (report, profiles) = build_report(&cells, &|s: &Scenario| {
        s.run_recorded(StepAttribution::default())
    });
    let elapsed = started.elapsed().as_secs_f64();
    let attributions: Vec<CellAttribution> = report
        .cells
        .iter()
        .zip(profiles)
        .map(|(cell, attr)| CellAttribution::new(cell, attr))
        .collect();
    let attribution_tables = format!(
        "{}\n{}\n{}",
        render_attribution(&attributions).render(),
        render_class_sinks(&attributions).render(),
        merged_attribution(&attributions).render()
    );

    println!("{}", report.render_environments().render());
    println!("{}", report.render_cells().render());
    println!("{attribution_tables}");
    if !report.resilience().is_empty() {
        println!("{}", report.render_resilience().render());
    }
    print!("{}", report.render_normalized().render());
    println!(
        "\n{} cells over {} environments in {:.1} s wall-clock \
         ({:.1} s total cell runtime, single-core equivalent){}",
        report.cells.len(),
        report.environments.len(),
        elapsed,
        report.total_cell_seconds(),
        if quick { "  (--quick preview)" } else { "" }
    );

    save("SCENARIO_report.json", &to_json(&report)?)?;
    save("SCENARIO_attribution.json", &to_json(&attributions)?)?;
    save("SCENARIO_attribution.txt", &attribution_tables)?;
    Ok(report)
}

fn fault(cli: &Cli) -> Result<ScenarioReport, String> {
    let (cells, quick) = cli.preview(fault_cells())?;
    let started = Instant::now();
    let (report, _) = build_report(&cells, &|s| (s.run(), ()));
    let elapsed = started.elapsed().as_secs_f64();

    println!("{}", report.render_cells().render());
    print!("{}", report.render_survival().render());
    println!(
        "\n{} cells ({} survival pairs) in {:.1} s wall-clock{}",
        report.cells.len(),
        report.survival().len(),
        elapsed,
        if quick { "  (--quick preview)" } else { "" }
    );

    save("FAULT_report.json", &to_json(&report)?)?;
    Ok(report)
}

fn fleet(cli: &Cli) -> Result<FleetReport, String> {
    let nodes = cli
        .value("--nodes")
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("--nodes {raw:?} is not a count"))
        })
        .transpose()?;
    let spec = fleet_spec(cli.value("--scenario"), nodes, cli.has("--quick"))?;
    let opts = FleetRunOptions {
        parallel: true,
        attribution: true,
    };

    println!(
        "fleet: {} × {} nodes, horizon {:.0} s, seed {:#x}, {} shards of {} (fingerprint {})",
        spec.base.name,
        spec.nodes,
        spec.base.horizon.get(),
        spec.fleet_seed,
        spec.shard_count(),
        spec.shard_size,
        spec.fingerprint(),
    );

    let started = Instant::now();
    let result = run_fleet(&spec, &opts)?;
    let elapsed = started.elapsed().as_secs_f64();

    let report = FleetReport::from_run(&spec, result.aggregate, elapsed);
    let s = &report.summary;
    println!(
        "\n{:>12}  {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "mean", "p5", "p50", "p95", "p99"
    );
    println!(
        "{:>12}  {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
        "fom (ops)", s.fom_mean, s.fom_p5, s.fom_p50, s.fom_p95, s.fom_p99
    );
    println!(
        "{:>12}  {:>12.4} {:>12.4} {:>12.4} {:>12} {:>12}",
        "on-frac", s.on_frac_mean, s.on_frac_p5, s.on_frac_p50, "-", "-"
    );
    println!(
        "{:>12}  {:>12} {:>12} {:>12.1} {:>12.1} {:>12}",
        "outage (s)", "-", "-", s.outage_p50_s, s.outage_p95_s, "-"
    );
    println!(
        "\n{} nodes, {:.0} total ops, worst outage {:.1} s, mean boots {:.1}; {:.1} s wall-clock",
        s.nodes, s.total_ops, s.outage_max_s, s.boots_mean, elapsed
    );
    save("FLEET_report.json", &to_json(&report)?)?;

    if let Some(attr) = &result.attribution {
        println!("\ntop fine-step sources across the fleet:");
        for row in attr.rows().iter().filter(|r| r.reason.is_some()).take(8) {
            let share = if attr.total_steps() == 0 {
                0.0
            } else {
                100.0 * row.steps as f64 / attr.total_steps() as f64
            };
            println!(
                "  {:>28}  {:>14} steps  {share:>5.1} %  {:>14.1} sim-s",
                row.label(),
                row.steps,
                row.seconds
            );
        }
        save("FLEET_attribution.json", &to_json(attr)?)?;
        save("FLEET_attribution.txt", &attr.render())?;
    }
    Ok(report)
}

fn paper() -> Result<PaperReport, String> {
    let started = Instant::now();
    let (sections, ledgers) = paper::build();
    let elapsed = started.elapsed().as_secs_f64();
    let report = PaperReport::new(&sections);
    let mut files = vec![("PAPER_ledgers.csv".to_string(), ledgers)];
    for s in sections {
        println!("{}", s.text);
        if let Some(csv) = s.csv {
            files.push((format!("{}.csv", s.name), csv));
        }
        files.push((format!("{}.txt", s.name), s.text));
    }
    files.push(("PAPER_report.json".into(), report.to_baseline()?));
    for (name, contents) in &files {
        save_named_artifact(name, contents).map_err(|e| format!("write {name}: {e}"))?;
    }
    println!(
        "{} values in {elapsed:.1} s wall-clock; {} artifacts written to target/paper-artifacts/",
        report.values.len(),
        files.len()
    );
    Ok(report)
}

fn run(args: &[String]) -> Result<u8, String> {
    let cli = Cli::parse(args)?;
    let (kind, check, write) = (
        cli.kind,
        cli.value("--check"),
        cli.value("--write-baseline"),
    );
    Ok(match kind {
        Kind::Scenario => run_gate(kind, &scenario(&cli)?, check, write),
        Kind::Fault => run_gate(kind, &fault(&cli)?, check, write),
        Kind::Fleet => run_gate(kind, &fleet(&cli)?, check, write),
        Kind::Attribution => {
            let file = "SCENARIO_attribution.json";
            let budget = AttributionBudget::measure(&read_artifact(file)?)
                .map_err(|e| format!("{file}: {e}"))?;
            run_gate(kind, &budget, check, write)
        }
        Kind::Paper => run_gate(kind, &paper()?, check, write),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        EXIT_ERROR
    }))
}
