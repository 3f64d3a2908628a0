//! The paper's four benchmark workloads, as cost models.
//!
//! §4.2 of the paper evaluates REACT with four applications spanning the
//! reactivity/persistence design space. Each is modeled by what it
//! costs, not by what it computes:
//!
//! | Benchmark | Reactivity | Persistence | Op duration | MCU + peripheral current | Longevity estimate |
//! |-----------|-----------|-------------|-------------|--------------------------|--------------------|
//! | [`DataEncryption`] (DE) | none | low | 100 ms per encryption | MCU active (1.5 mA) | none |
//! | [`SenseCompute`] (SC)   | high | low | 10 ms sample + 20 ms filter, every 5 s | active + 155 µA mic (biased in sleep too) | none |
//! | [`RadioTransmit`] (RT)  | low  | high | 300 ms burst | active + 5 mA radio TX | ≈8.4 mJ per burst |
//! | [`PacketForward`] (PF)  | high | high | 100 ms receive, 150 ms forward | active + 4 mA RX / 5 mA TX; 3 µA wake-up receiver in sleep | ≈2.4 mJ per receive, ≈4.2 mJ per forward |
//!
//! Workloads implement [`Workload`] and are driven by the simulator in
//! `react-core`, which bills each op the datasheet-derived time and
//! energy in [`costs`]. A workload only counts its ops: no outcome
//! depends on the bytes an op would encrypt, filter or send, so none
//! are computed.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod costs;
mod de;
mod events;
mod pf;
mod rt;
mod sc;
mod workload;

pub use de::DataEncryption;
pub use events::EventSchedule;
pub use pf::PacketForward;
pub use rt::RadioTransmit;
pub use sc::SenseCompute;
pub use workload::{LoadDemand, WakeHint, Workload, WorkloadEnv};
