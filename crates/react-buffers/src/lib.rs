//! Energy-buffer architectures for batteryless systems.
//!
//! This crate holds the paper's primary contribution and its baselines:
//!
//! * [`StaticBuffer`] — fixed capacitors (770 µF / 10 mF / 17 mF, §4.1),
//!   and Dewdrop \[6\] ([`StaticBuffer::dewdrop`]): a 3 mF capacitor
//!   whose runtime moves only the enable voltage (§2.4).
//! * [`ReactBuffer`] — REACT: the last-level buffer plus isolated
//!   series/parallel banks with a polled software controller (§3).
//! * [`MorphyBuffer`] — the Morphy \[49\] fully-interconnected
//!   switched-capacitor network used as the dynamic-buffer comparison.
//! * [`CapybaraBuffer`] — the dual-capacitor extension baseline from
//!   the related-work discussion (§2.3), used by the ablations.
//!
//! All designs implement [`EnergyBuffer`] and are driven step-by-step by
//! the simulator in `react-core`, or strided in closed form
//! ([`charge_ode`]). REACT's and Morphy's strides replay their 10 Hz
//! controller poll by poll through one shared walk, to which each
//! buffer supplies only its own physics. Every booking goes through
//! `EnergyLedger::deposit`, `close_net` or `close_gross`.
//!
//! # Examples
//!
//! ```
//! use react_buffers::{BufferKind, EnergyBuffer};
//! use react_units::{Amps, Seconds, Watts};
//!
//! let mut buffer = BufferKind::React.build();
//! // Charge at 3 mW for one simulated second.
//! for _ in 0..1000 {
//!     buffer.step(Watts::from_milli(3.0), Amps::ZERO, Seconds::from_milli(1.0), false);
//! }
//! assert!(buffer.rail_voltage().get() > 1.0);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod buffer;
mod capybara;
pub mod charge_ode;
pub mod defense;
mod morphy;
mod react;
pub mod static_buf;
mod walk;

pub use buffer::{
    power_intake, reference_idle_advance, BufferKind, EnergyBuffer, CHARGE_CURRENT_LIMIT,
    CONVERSION_FLOOR,
};
pub use capybara::CapybaraBuffer;
pub use morphy::{transition_path as morphy_transition_path, MorphyBuffer};
pub use react::{ConfigError, ReactBuffer, ReactConfig, MAX_BANKS};
pub use static_buf::StaticBuffer;
