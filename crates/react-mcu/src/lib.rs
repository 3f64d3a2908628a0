//! MSP430-class microcontroller and peripheral models.
//!
//! The paper's testbed is an MSP430FR5994 \[22\] behind a comparator power
//! gate (enable at 3.3 V, disconnect at 1.8 V, §4), with benchmark
//! peripherals emulated by toggling a resistor sized to the relevant
//! datasheet (§4.2). This crate models exactly that:
//!
//! * [`Mcu`] / [`McuSpec`] / [`PowerMode`] — active/LPM3/deep-sleep
//!   current draws and boot cost.
//! * [`PowerGate`] — the enable/brown-out comparator circuit.
//! * [`Peripheral`] — microphone \[11\], sub-GHz radio \[31\], wake-up
//!   receiver \[18\], and the paper's emulation resistor.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod gate;
mod mcu;
mod peripherals;

pub use gate::PowerGate;
pub use mcu::{Mcu, McuSpec, PowerMode};
pub use peripherals::Peripheral;
