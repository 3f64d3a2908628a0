//! Harvester frontend models for the REACT reproduction.
//!
//! The paper's testbed replays recorded power traces through a
//! programmable supply (inspired by Ekho \[14\]) and emulates the
//! load-dependent behaviour of a commercial RF-to-DC converter
//! (Powercast P2110B \[37\]) and a solar boost charger (TI bq25570 \[20\])
//! — §4.3. This crate provides those models:
//!
//! * [`EfficiencyCurve`] — piecewise-linear efficiency vs. input power.
//! * [`Converter`] — RF rectifier, solar boost charger, or ideal
//!   pass-through, each mapping *available* harvested power to power
//!   actually delivered at the buffer rail.
//! * [`PowerReplay`] — the record-and-replay frontend: any streaming
//!   [`PowerSource`] (a recorded trace or a generative `react-env`
//!   environment) in, converted rail power out.
//! * [`ReplayCursor`] — one run's stepping input: the replay's source
//!   walked one converted segment at a time, so in-segment queries
//!   check only the converter's OVP cutoff.
//!
//! # Examples
//!
//! ```
//! use react_harvest::{Converter, PowerReplay};
//! use react_traces::{paper_trace, PaperTrace};
//! use react_units::{Seconds, Volts};
//!
//! let replay = PowerReplay::new(paper_trace(PaperTrace::RfCart), Converter::rf_rectifier());
//! let mut input = replay.cursor();
//! let rail = input.rail_power(Seconds::new(10.0), Volts::new(2.5));
//! assert!(rail.get() >= 0.0);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod converter;
mod replay;

pub use converter::{Converter, ConverterKind, EfficiencyCurve};
pub use replay::{PowerReplay, ReplayCursor};
// Re-exported so downstream code can name the replay's source types
// without a direct react-env dependency.
pub use react_env::{PowerSource, Segment, TraceSource, VictimEvent};
