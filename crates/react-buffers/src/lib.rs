//! Energy-buffer architectures for batteryless systems.
//!
//! This crate holds the paper's primary contribution and its baselines:
//!
//! * [`StaticBuffer`] — fixed capacitors (770 µF / 10 mF / 17 mF, §4.1).
//! * [`ReactBuffer`] — REACT: the last-level buffer plus isolated
//!   series/parallel banks with a polled software controller (§3).
//! * [`MorphyBuffer`] — the Morphy \[49\] fully-interconnected
//!   switched-capacitor network used as the dynamic-buffer comparison.
//! * [`DewdropBuffer`] / [`CapybaraBuffer`] — extension baselines from
//!   the related-work discussion (§2.3–2.4), used by the ablations.
//!
//! All designs implement [`EnergyBuffer`] and are driven step-by-step by
//! the simulator in `react-core`.
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
mod dewdrop;
mod morphy;
mod react;
pub mod static_buf;

pub use buffer::{
    power_intake, reference_idle_advance, BufferKind, EnergyBuffer, CHARGE_CURRENT_LIMIT,
    CONVERSION_FLOOR,
};

/// Replays a poll accumulator (`acc += dt` per step, reset to exactly
/// `0.0` on `acc ≥ period`) over `steps` uniform steps in O(steps per
/// window) instead of O(steps): after the first reset the pattern is
/// periodic *bit-exactly*, because every window re-accumulates the
/// same `dt` sequence from the same exact zero. The controller
/// buffers' dead-band bulk strides use this so week-long sleeps don't
/// pay a per-step bookkeeping loop.
pub(crate) fn bulk_poll_acc(acc0: f64, steps: u64, dt: f64, period: f64) -> f64 {
    let mut acc = acc0;
    let mut used = 0u64;
    while used < steps {
        acc += dt;
        used += 1;
        if acc >= period {
            acc = 0.0;
            break;
        }
    }
    if used == steps {
        return acc;
    }
    // Steps per window from an exact-zero start (constant thereafter).
    let mut n_pp = 0u64;
    let mut probe = 0.0;
    loop {
        probe += dt;
        n_pp += 1;
        if probe >= period {
            break;
        }
    }
    let rem = (steps - used) % n_pp;
    let mut acc = 0.0;
    for _ in 0..rem {
        acc += dt;
    }
    acc
}
pub use capybara::CapybaraBuffer;
pub use dewdrop::DewdropBuffer;
pub use morphy::{transition_path as morphy_transition_path, MorphyBuffer};
pub use react::{ConfigError, ReactBuffer, ReactConfig};
pub use static_buf::StaticBuffer;
