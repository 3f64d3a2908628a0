//! Power traces for the REACT reproduction.
//!
//! The paper drives its testbed with recorded RF traces \[3\] and EnHANTs
//! solar irradiance traces \[12\] (Table 3). Neither dataset ships with the
//! paper, so this crate *synthesizes* traces with the same published
//! statistics — duration, mean power, and coefficient of variation — plus
//! the spike structure the paper describes in §2.1.2 (82 % of energy in
//! >10 mW spikes, 77 % of time below 3 mW for the pedestrian trace).
//! > Generators are deterministic given a seed; the library traces use
//! > fixed seeds so every experiment in the repository is reproducible.
//!
//! # Examples
//!
//! ```
//! use react_traces::{paper_trace, PaperTrace};
//!
//! let t = paper_trace(PaperTrace::RfCart);
//! let stats = t.stats();
//! assert!((stats.duration.get() - 313.0).abs() < 1.0);
//! assert!((stats.mean_power.to_milli() - 2.12).abs() < 0.05);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod cursor;
mod io;
mod library;
mod stats;
mod synth;
mod trace;

pub use cursor::{two_ulps_down, WindowCache};
pub use io::write_csv;
pub use library::{paper_trace, PaperTrace, Table3Row, TABLE3_TARGETS};
pub use stats::TraceStats;
pub use synth::{SynthKind, TraceSynthesizer};
pub use trace::PowerTrace;
