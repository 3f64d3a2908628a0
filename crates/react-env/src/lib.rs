//! Streaming stochastic environment engine for the REACT reproduction.
//!
//! The paper evaluates on five recorded traces (Table 3), but its core
//! claims — responsiveness under dynamic harvesting, persistence across
//! long outages — are claims about *environment classes*. This crate
//! models those classes directly as seeded, unbounded, streaming
//! [`PowerSource`]s instead of bounded sample arrays:
//!
//! * [`Diurnal`] — day/night solar envelope × Markov cloud process.
//! * [`MarkovRf`] — Gilbert–Elliott on/off ambient-RF field.
//! * [`Mobility`] — scheduled field-strength transitions (commutes).
//! * [`EnergyAttack`] — fixed-schedule blackout/spoof adversary.
//! * [`AdaptiveAttack`] — stateful adversaries ([`AttackPolicy`]) that
//!   watch the victim through [`VictimEvent`] feedback and adapt.
//!
//! [`TraceSource`] wraps any recorded [`PowerTrace`]
//! (react-traces) so every pre-existing code path is one instance of
//! the same abstraction, and [`materialize`] goes the other way for
//! baselines and export.
//!
//! The key engine contract is [`PowerSource::segment`]: sources are
//! piecewise-constant and report the end of the span covering any
//! query time, so the adaptive simulation kernel keeps doing
//! closed-form idle advances over *unbounded* horizons — a week-long
//! blackout is one stride, never a million samples.
//!
//! [`PowerTrace`]: react_traces::PowerTrace
//!
//! # Examples
//!
//! ```
//! use react_env::{Diurnal, EnergyAttack, PowerSource};
//! use react_units::{Seconds, Watts};
//!
//! // A solar deployment under periodic hour-long blackout attacks.
//! let mut env = EnergyAttack::new(Diurnal::new("sun", Watts::from_milli(20.0), 42))
//!     .with_blackout(Seconds::new(4.0 * 3600.0), Seconds::ZERO, Seconds::new(3600.0));
//! let seg = env.segment(Seconds::new(2.0 * 3600.0));
//! assert!(seg.power.get() >= 0.0);
//! assert!(seg.end > Seconds::new(2.0 * 3600.0));
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod adaptive;
mod attack;
mod diurnal;
mod markov;
mod mobility;
mod source;

pub use adaptive::{AdaptiveAttack, AttackPolicy};
pub use attack::EnergyAttack;
pub use diurnal::Diurnal;
pub use markov::MarkovRf;
pub use mobility::Mobility;
pub use source::{
    dark_stats, materialize, node_salt, DarkStats, PowerSource, Segment, TraceSource, VictimEvent,
};
