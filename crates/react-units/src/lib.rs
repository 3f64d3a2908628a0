//! Typed physical quantities for the REACT reproduction.
//!
//! Every quantity the simulation manipulates — time, voltage, current,
//! power, energy, charge, capacitance, resistance, frequency — is a
//! dedicated newtype over `f64` ([C-NEWTYPE]). The types implement the
//! physically meaningful arithmetic (`Volts * Amps = Watts`,
//! `Watts * Seconds = Joules`, `Farads * Volts = Coulombs`, …) so unit
//! errors become type errors instead of silently wrong joule counts.
//! [`PollTick`] counts a controller's poll period in fine steps.
//!
//! # Examples
//!
//! ```
//! use react_units::{Farads, Volts, Joules};
//!
//! let c = Farads::from_micro(770.0);
//! let v = Volts::new(3.3);
//! // E = ½·C·V²
//! let e: Joules = c.energy_at(v);
//! assert!((e.get() - 0.5 * 770e-6 * 3.3 * 3.3).abs() < 1e-12);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod ops;
mod scalar;
mod tick;

pub use scalar::{Amps, Coulombs, Farads, Hertz, Joules, Ohms, Seconds, Volts, Watts};
pub use tick::{PollTick, TickSpan};

/// Convenient glob import of every quantity type.
pub mod prelude {
    pub use crate::{Amps, Coulombs, Farads, Hertz, Joules, Ohms, Seconds, Volts, Watts};
}
