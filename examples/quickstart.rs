//! Quickstart: run one paper experiment end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the REACT buffer (Table 1 configuration), replays the RF
//! Mobile trace through the harvester frontend, runs the
//! Sense-and-Compute benchmark, and prints where every millijoule went.

use react_repro::prelude::*;

fn main() {
    let trace = paper_trace(PaperTrace::RfMobile);
    println!("trace: {} — {}", trace.name(), trace.stats());

    let outcome = Scenario::paper(
        PaperTrace::RfMobile,
        BufferKind::React,
        WorkloadKind::SenseCompute,
    )
    .run();
    let m = &outcome.metrics;

    println!();
    println!("buffer:            REACT (770 µF LLB + 5 banks, 18.03 mF max)");
    println!(
        "first enable:      {}",
        m.first_on_latency
            .map(|l| format!("{:.2} s after cold start", l.get()))
            .unwrap_or_else(|| "never".into())
    );
    println!(
        "measurements:      {} completed, {} missed deadlines",
        m.ops_completed, m.events_missed
    );
    println!(
        "on-time:           {:.0} s of {:.0} s simulated",
        m.on_time.get(),
        m.total_time.get()
    );
    println!(
        "power cycles:      {} (mean {:.1} s)",
        m.boots,
        m.mean_on_period.get()
    );
    println!();
    println!("energy ledger:");
    println!("{}", m.ledger);
    println!();
    println!(
        "end-to-end efficiency: {:.1} % of harvested energy reached the load",
        100.0 * m.ledger.end_to_end_efficiency()
    );
    assert!(
        m.relative_conservation_error() < 1e-3,
        "energy conservation violated"
    );
    println!("energy conservation: OK (residual < 0.1 %)");
}
