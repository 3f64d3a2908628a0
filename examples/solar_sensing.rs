//! Solar sensing deployment: compare every buffer design on the
//! campus-walk trace running the Sense-and-Compute benchmark — the
//! scenario the paper's introduction motivates (periodic sensing from
//! volatile solar power).
//!
//! ```text
//! cargo run --release --example solar_sensing
//! ```

use react_repro::core::report::TextTable;
use react_repro::prelude::*;

fn main() {
    let trace = paper_trace(PaperTrace::SolarCampus);
    println!("trace: {} — {}", trace.name(), trace.stats());
    println!();

    let mut table = TextTable::new(
        "Sense-and-Compute on the campus walk",
        &[
            "Buffer",
            "Samples",
            "Missed",
            "Latency (s)",
            "Duty",
            "Clipped (mJ)",
            "Efficiency",
        ],
    );
    for kind in BufferKind::PAPER_COLUMNS {
        let out = Scenario::paper(PaperTrace::SolarCampus, kind, WorkloadKind::SenseCompute).run();
        let m = &out.metrics;
        table.push_row(&[
            kind.label().to_string(),
            m.ops_completed.to_string(),
            m.events_missed.to_string(),
            m.first_on_latency
                .map(|l| format!("{:.0}", l.get()))
                .unwrap_or_else(|| "-".into()),
            format!("{:.0}%", 100.0 * m.duty_cycle()),
            format!("{:.0}", m.ledger.clipped.to_milli()),
            format!("{:.0}%", 100.0 * m.ledger.end_to_end_efficiency()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The reactive buffers (770 µF, REACT) enable quickly after the indoor\n\
         stretch; the large static buffers spend the morning charging. REACT\n\
         then expands its banks to bank the midday sun, so it both starts\n\
         early AND clips almost nothing."
    );
}
