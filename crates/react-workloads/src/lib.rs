//! The paper's four benchmark workloads and their software substrates.
//!
//! §4.2 of the paper evaluates REACT with four applications spanning the
//! reactivity/persistence design space:
//!
//! | Benchmark | Reactivity | Persistence | Kernel |
//! |-----------|-----------|-------------|--------|
//! | [`DataEncryption`] (DE) | none | low | real AES-128 ([`aes`]) |
//! | [`SenseCompute`] (SC)   | high | low | mic + FIR ([`mic`], [`fir`]) |
//! | [`RadioTransmit`] (RT)  | low  | high | framed radio bursts ([`radio`]) |
//! | [`PacketForward`] (PF)  | high | high | receive + forward ([`radio`]) |
//!
//! Workloads implement [`Workload`] and are driven by the simulator in
//! `react-core`, which bills each op the datasheet-derived time and
//! energy in [`costs`]. The kernels are real, tested software
//! (FIPS-verified AES, a designed FIR filter, CRC-framed packets), and
//! they run when a caller asks for their output: a workload only counts
//! its ops, and [`SenseCompute::last_level`] and
//! [`DataEncryption::digest`] recompute the result from that count.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod aes;
mod composite;
pub mod costs;
mod de;
mod events;
pub mod fir;
pub mod mic;
mod pf;
pub mod radio;
mod rt;
mod sc;
mod workload;

pub use composite::SenseAndSend;
pub use de::DataEncryption;
pub use events::EventSchedule;
pub use pf::PacketForward;
pub use rt::RadioTransmit;
pub use sc::SenseCompute;
pub use workload::{LoadDemand, WakeHint, Workload, WorkloadEnv};
