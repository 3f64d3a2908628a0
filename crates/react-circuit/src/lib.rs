//! Circuit-level models for the REACT reproduction.
//!
//! The paper's contribution is a hardware energy buffer built from
//! capacitors, ideal-diode circuits, and break-before-make switches. This
//! crate provides the charge/energy bookkeeping those components obey:
//!
//! * [`Capacitor`] / [`CapacitorSpec`] — `Q = C·V`, `E = ½·C·V²`, voltage
//!   clamping, and leakage (`I ∝ V/V_rated`).
//! * [`Diode`] — ideal-diode (comparator + pass FET, LM66100-class) and
//!   Schottky conduction models, including the §3.3.2 efficiency gap.
//! * [`equalize`] — charge-conserving, dissipative parallel equalization:
//!   the physics behind both REACT's Eq. 1 and Morphy's switching loss
//!   (Fig. 5, §3.3.1).
//! * [`SeriesParallelBank`] — REACT's isolated N-capacitor banks (Fig. 3),
//!   whose series↔parallel reconfiguration conserves energy exactly.
//! * [`ChainNetwork`] — Morphy-style fully-interconnected networks (Fig. 4)
//!   whose reconfiguration dissipates energy through chain equalization.
//! * [`EnergyLedger`] — end-to-end accounting of every joule in a run.
//!
//! # Examples
//!
//! ```
//! use react_circuit::{Capacitor, CapacitorSpec};
//! use react_units::Volts;
//!
//! let mut cap = Capacitor::new(CapacitorSpec::ceramic_220uf());
//! cap.set_voltage(Volts::new(3.0));
//! assert!((cap.voltage().get() - 3.0).abs() < 1e-12);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod bank;
mod capacitor;
mod diode;
pub mod equalize;
mod fault;
mod ledger;
mod network;

pub use bank::{BankMode, BankSpec, SeriesParallelBank};
pub use capacitor::{Capacitor, CapacitorSpec, LeakageSpec};
pub use diode::{Diode, DiodeKind, DiodeTransfer};
pub use equalize::{pair_equalize, pool_equalize, EqualizeOutcome};
pub use fault::{offset_enable, FaultCampaign, FaultEvent, FaultKind, FaultPlan};
pub use ledger::EnergyLedger;
pub use network::{ChainNetwork, Partition, PartitionError};
