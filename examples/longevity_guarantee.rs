//! Software-directed longevity (§3.4.1): guaranteeing an atomic radio
//! burst completes before starting it.
//!
//! Runs the Radio-Transmission benchmark on the RF Cart trace twice:
//! once on the 770 µF static buffer (which blindly attempts bursts it
//! cannot finish) and once on REACT (which sleeps until the buffer
//! guarantees the burst). Also peeks at the REACT buffer directly to
//! show the capacitance-level surrogate the API is built on.
//!
//! ```text
//! cargo run --release --example longevity_guarantee
//! ```

use react_repro::buffers::{EnergyBuffer, ReactBuffer};
use react_repro::prelude::*;

fn main() {
    println!("-- RT benchmark, RF Cart trace --\n");
    for kind in [BufferKind::Static770uF, BufferKind::React] {
        let out = Scenario::paper(PaperTrace::RfCart, kind, WorkloadKind::RadioTransmit).run();
        let m = &out.metrics;
        let attempts = m.ops_completed + m.ops_failed;
        println!(
            "{:>7}: {:>3} bursts completed / {:>3} attempted ({} wasted on doomed attempts)",
            kind.label(),
            m.ops_completed,
            attempts,
            m.ops_failed
        );
    }

    println!("\n-- capacitance level as an energy surrogate --\n");
    // Drive a bare REACT buffer with steady surplus power and watch the
    // level climb as banks connect and fill; the longevity API promises
    // energy exactly when the level (and bank voltages) say so.
    let mut react = ReactBuffer::paper_prototype();
    let brownout = Volts::new(1.8);
    for second in 0..60 {
        for _ in 0..1000 {
            react.step(
                Watts::from_milli(12.0),
                Amps::from_micro(10.0),
                Seconds::from_milli(1.0),
                true,
            );
        }
        if second % 10 == 0 {
            println!(
                "t = {:>2} s: level {:>2}, equivalent C {:>7.2} mF, usable {:>6.2} mJ",
                second + 1,
                react.capacitance_level(),
                react.equivalent_capacitance().to_milli(),
                react.usable_energy_above(brownout).to_milli()
            );
        }
    }
    println!(
        "\nA radio burst needs ≈8.4 mJ with margin: software sets that as its\n\
         minimum level, sleeps, and wakes with completion guaranteed (§3.4.1)."
    );
}
