//! Buffer sizing study (§2.1): there is no one right static capacitor.
//!
//! Sweeps static buffer sizes from 200 µF to 30 mF on two very different
//! traces and shows the optimum moving — then runs REACT on both to show
//! it tracking the per-trace winner without a design-time choice.
//!
//! ```text
//! cargo run --release -p react-repro --example buffer_sizing
//! ```

use react_repro::core::sweep::{best_static_size, log_spaced_sizes, static_size_sweep};
use react_repro::prelude::*;

fn main() {
    let sizes = log_spaced_sizes(Farads::from_micro(200.0), Farads::from_milli(30.0), 8);
    let workload = WorkloadKind::DataEncryption;

    for which in [PaperTrace::RfCart, PaperTrace::SolarCommute] {
        let trace = paper_trace(which);
        println!("trace: {} — {}", trace.name(), trace.stats());
        let points = static_size_sweep(&trace, workload, &sizes);
        for p in &points {
            println!(
                "  static {:>8.0} µF: {:>5} ops, latency {}",
                p.capacitance.to_micro(),
                p.metrics.ops_completed,
                p.metrics
                    .first_on_latency
                    .map(|l| format!("{:>6.1} s", l.get()))
                    .unwrap_or_else(|| " never".into()),
            );
        }
        let best = best_static_size(workload, &points);
        let react = Scenario::paper(which, BufferKind::React, workload).run();
        println!(
            "  -> best static: {:.0} µF with {} ops; REACT (no tuning): {} ops\n",
            best.capacitance.to_micro(),
            best.metrics.ops_completed,
            react.metrics.ops_completed,
        );
    }
    println!(
        "The optimal static size moves by an order of magnitude between\n\
         traces; REACT sits at or near each optimum with one hardware\n\
         configuration — the paper's central claim."
    );
}
