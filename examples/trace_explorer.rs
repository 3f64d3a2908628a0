//! Trace explorer: synthesize, inspect, and export the paper's power
//! traces (Table 3) plus a custom one — and, in `env` mode, browse the
//! streaming-environment scenario registry.
//!
//! ```text
//! cargo run --release --example trace_explorer [output-dir]
//! cargo run --release --example trace_explorer env
//! cargo run --release --example trace_explorer env <scenario> [horizon-s]
//! cargo run --release --example trace_explorer report [scenario] [horizon-s]
//! ```
//!
//! Trace mode writes each trace as `time_s,power_w` CSV for plotting.
//! `env` alone lists every scenario of both registries (the report rows
//! and the fault campaigns with their healthy twins); with a scenario name it
//! materializes that scenario's environment at a coarse 1 s grid over
//! the requested horizon (default: the scenario's own, capped at one
//! week) and prints summary statistics. `report` runs the scenario
//! figure-of-merit matrix (environment × buffer × seed) and prints the
//! same tables the `report scenario` binary gates CI with — filtered to
//! one scenario and/or a truncated horizon if asked, full otherwise.

use react_repro::core::scenario_report::{REPORT_BUFFERS, REPORT_SEEDS};
use react_repro::core::{
    build_report, expand_cells, fault_scenario_registry, find_scenario, scenario_registry,
};
use react_repro::env::materialize;
use react_repro::prelude::*;
use react_repro::traces::{write_csv, SynthKind, TraceSynthesizer};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next() {
        Some(mode) if mode == "env" => env_mode(args.next(), args.next()),
        Some(mode) if mode == "report" => report_mode(args.next(), args.next()),
        out_dir => trace_mode(out_dir.unwrap_or_else(|| "target/traces".into())),
    }
}

/// Runs the scenario figure-of-merit report — the whole registry
/// matrix, or one scenario (optionally horizon-truncated) for a quick
/// interactive look.
fn report_mode(scenario: Option<String>, horizon: Option<String>) {
    let mut rows = match &scenario {
        None => scenario_registry().to_vec(),
        Some(name) => match find_scenario(name) {
            Some(s) => vec![*s],
            None => {
                eprintln!("unknown scenario {name:?}; run `trace_explorer env` for the list");
                std::process::exit(1);
            }
        },
    };
    if let Some(h) = horizon {
        let h = Seconds::new(h.parse::<f64>().expect("horizon must be seconds"));
        for s in &mut rows {
            s.horizon = s.horizon.min(h);
        }
    }
    let cells = expand_cells(&rows, &REPORT_BUFFERS, &REPORT_SEEDS);
    let (report, _) = build_report(&cells, &|s| (s.run(), ()));
    print!("{}", report.render_environments().render());
    println!();
    print!("{}", report.render_cells().render());
    println!();
    print!("{}", report.render_normalized().render());
}

/// Lists the scenarios of both registries, or materializes one
/// environment and prints its summary statistics.
fn env_mode(scenario: Option<String>, horizon: Option<String>) {
    let Some(name) = scenario else {
        println!(
            "{:<40} {:<20} {:<8} {:<3} {:>12} {:>7}   description",
            "scenario", "environment", "buffer", "wl", "horizon (s)", "dt (ms)"
        );
        for s in scenario_registry().iter().chain(fault_scenario_registry()) {
            println!(
                "{:<40} {:<20} {:<8} {:<3} {:>12.0} {:>7.0}   {}",
                s.name,
                s.env.label(),
                s.buffer.label(),
                s.workload.label(),
                s.horizon.get(),
                s.dt.to_milli(),
                s.description,
            );
        }
        println!("\nrun `trace_explorer env <scenario> [horizon-s]` for environment stats");
        return;
    };

    let Some(s) = find_scenario(&name) else {
        eprintln!("unknown scenario {name:?}; run `trace_explorer env` for the list");
        std::process::exit(1);
    };
    let horizon = match horizon {
        Some(h) => Seconds::new(h.parse::<f64>().expect("horizon must be seconds")),
        None => s.horizon.min(Seconds::new(7.0 * 86_400.0)),
    };
    assert!(horizon.get() > 1.0, "horizon must exceed the 1 s stat grid");

    // Walk the streaming source once to count its native segments —
    // the cost the adaptive kernel actually pays — then materialize on
    // a coarse grid for the summary statistics.
    let mut source = s.source();
    let mut segments = 0u64;
    let mut t = 0.0;
    while t < horizon.get() {
        let seg = source.segment(Seconds::new(t));
        segments += 1;
        if seg.end.get() == f64::INFINITY {
            break;
        }
        t = seg.end.get();
    }
    let trace = materialize(&mut source, s.env.label(), Seconds::new(1.0), horizon);
    let stats = trace.stats();
    println!("scenario    : {}  ({})", s.name, s.description);
    println!(
        "environment : {}  ({} native segments over {:.0} s)",
        s.env.label(),
        segments,
        horizon.get()
    );
    println!(
        "buffer      : {}   workload: {}   fine step: {} ms",
        s.buffer.label(),
        s.workload.label(),
        s.dt.to_milli()
    );
    println!(
        "power       : mean {:.3} mW, peak {:.1} mW, CV {:.0}%",
        stats.mean_power.to_milli(),
        stats.peak_power.to_milli(),
        stats.cv_percent()
    );
    println!(
        "energy      : {:.2} J harvestable over {:.1} h",
        stats.total_energy.get(),
        horizon.get() / 3600.0
    );
    println!(
        "dark time   : {:.0}% below 10 µW",
        100.0 * trace.time_fraction_below(Watts::from_micro(10.0))
    );
}

/// The original mode: synthesize and export the paper's trace library.
fn trace_mode(out_dir: String) {
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    println!(
        "{:<12} {:>9} {:>12} {:>8} {:>10} {:>10}",
        "trace", "time (s)", "avg (mW)", "CV", "peak (mW)", "energy (J)"
    );
    for which in [
        PaperTrace::RfCart,
        PaperTrace::RfObstructed,
        PaperTrace::RfMobile,
        PaperTrace::SolarCampus,
        PaperTrace::SolarCommute,
        PaperTrace::Pedestrian,
        PaperTrace::SolarNight,
    ] {
        let trace = paper_trace(which);
        let s = trace.stats();
        println!(
            "{:<12} {:>9.0} {:>12.3} {:>7.0}% {:>10.1} {:>10.2}",
            trace.name(),
            s.duration.get(),
            s.mean_power.to_milli(),
            s.cv_percent(),
            s.peak_power.to_milli(),
            s.total_energy.get(),
        );
        let path = format!("{out_dir}/{}.csv", trace.name().replace([' ', '.'], "_"));
        write_csv(&trace, &path).expect("write trace CSV");
    }

    // A custom synthetic trace: windy-day vibration harvester, say.
    let custom = TraceSynthesizer::new(
        "custom-vibration",
        SynthKind::Spiky {
            rate: 0.3,
            amplitude: 4.0,
            decay: 0.8,
        },
        Seconds::new(600.0),
        42,
    )
    .mean_power(Watts::from_milli(0.8))
    .coefficient_of_variation(1.2)
    .build();
    let s = custom.stats();
    println!(
        "{:<12} {:>9.0} {:>12.3} {:>7.0}% {:>10.1} {:>10.2}   (custom)",
        custom.name(),
        s.duration.get(),
        s.mean_power.to_milli(),
        s.cv_percent(),
        s.peak_power.to_milli(),
        s.total_energy.get(),
    );
    write_csv(&custom, format!("{out_dir}/custom_vibration.csv")).expect("write custom CSV");
    println!("\nCSV files written to {out_dir}/");
}
