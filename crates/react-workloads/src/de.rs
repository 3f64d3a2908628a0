//! DE — Data Encryption benchmark (§4.2).
//!
//! Continuously performs AES-128 encryptions in software: no reactivity
//! requirement, low persistence requirement, predictable power draw. The
//! paper uses it to characterize software/power overhead.

use react_units::Seconds;

use crate::aes::Aes128;
use crate::costs;
use crate::{LoadDemand, WakeHint, Workload, WorkloadEnv};

/// Key every DE op encrypts under.
const KEY: &[u8; 16] = b"react-asplos2024";

/// Bytes DE encrypts per op.
const BUFFER_BYTES: usize = 1024;

/// The Data Encryption workload.
///
/// Its simulated cost comes from [`costs`]; the encryption itself runs
/// only when [`digest`](Self::digest) asks for its output.
#[derive(Clone, Debug)]
pub struct DataEncryption {
    op_duration: Seconds,
    op_remaining: Option<Seconds>,
    /// Completed ops, each one AES-128 ECB pass over the buffer.
    ops: u64,
    failed: u64,
}

impl DataEncryption {
    /// Creates the benchmark with the calibrated op duration.
    pub fn new() -> Self {
        Self::with_op_duration(costs::DE_OP)
    }

    /// Creates the benchmark with a custom per-op duration (overhead
    /// characterization sweeps use this).
    pub fn with_op_duration(op_duration: Seconds) -> Self {
        Self {
            op_duration,
            op_remaining: None,
            ops: 0,
            failed: 0,
        }
    }

    /// XOR of every ciphertext byte over all completed ops: replays the
    /// `ops` in-place encryptions of the 1 KiB buffer (byte `i` starts
    /// as `i % 251`). A failed op never encrypted, so it is not
    /// replayed. O(ops) AES work per call: a test hook, not a per-step
    /// query.
    pub fn digest(&self) -> u8 {
        let aes = Aes128::new(KEY);
        let mut buffer: [u8; BUFFER_BYTES] = std::array::from_fn(|i| (i % 251) as u8);
        let mut digest = 0;
        for _ in 0..self.ops {
            aes.encrypt_ecb(&mut buffer);
            digest = buffer.iter().fold(digest, |d, &b| d ^ b);
        }
        digest
    }
}

impl Default for DataEncryption {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for DataEncryption {
    fn name(&self) -> &'static str {
        "DE"
    }

    fn on_power_up(&mut self, _now: Seconds) {}

    fn on_power_down(&mut self, _now: Seconds) {
        if self.op_remaining.take().is_some() {
            self.failed += 1;
        }
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        let remaining = self.op_remaining.get_or_insert(self.op_duration);
        *remaining -= env.dt;
        if remaining.get() <= 0.0 {
            self.ops += 1;
            self.op_remaining = None;
        }
        LoadDemand::active()
    }

    /// DE never sleeps — the CPU encrypts continuously.
    fn next_wake(&self, _env: &WorkloadEnv) -> WakeHint {
        WakeHint::Immediate
    }

    fn finalize(&mut self, _now: Seconds) {}

    fn ops_completed(&self) -> u64 {
        self.ops
    }

    fn ops_failed(&self) -> u64 {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::{Joules, Volts};

    fn env(dt: f64) -> WorkloadEnv {
        WorkloadEnv {
            now: Seconds::ZERO,
            dt: Seconds::new(dt),
            rail_voltage: Volts::new(3.3),
            usable_energy: Joules::new(1.0),
            supports_longevity: false,
        }
    }

    #[test]
    fn completes_ops_at_expected_rate() {
        let mut de = DataEncryption::new();
        de.on_power_up(Seconds::ZERO);
        // 1 s of 1 ms steps at 100 ms/op → 10 ops.
        for _ in 0..1000 {
            let d = de.step(&env(0.001));
            assert_eq!(d.mode, react_mcu::PowerMode::Active);
        }
        assert_eq!(de.ops_completed(), 10);
        assert_eq!(de.ops_failed(), 0);
    }

    #[test]
    fn digest_changes_as_ops_complete() {
        let mut de = DataEncryption::new();
        assert_eq!(de.digest(), 0);
        for _ in 0..200 {
            de.step(&env(0.001));
        }
        // The buffer has been re-encrypted; digest almost surely moved.
        assert_ne!(de.digest(), 0);
    }

    #[test]
    fn power_failure_loses_in_flight_op() {
        let mut de = DataEncryption::new();
        for _ in 0..50 {
            de.step(&env(0.001)); // halfway through an op
        }
        de.on_power_down(Seconds::new(0.05));
        assert_eq!(de.ops_completed(), 0);
        assert_eq!(de.ops_failed(), 1);
        // Fresh op after reboot.
        de.on_power_up(Seconds::new(1.0));
        for _ in 0..100 {
            de.step(&env(0.001));
        }
        assert_eq!(de.ops_completed(), 1);
    }

    #[test]
    fn digest_replays_only_completed_ops() {
        let mut de = DataEncryption::new();
        // Complete, fail, complete, fail, complete.
        for completes in [true, false, true, false, true] {
            let steps = if completes { 100 } else { 50 };
            for _ in 0..steps {
                de.step(&env(0.001));
            }
            if !completes {
                de.on_power_down(Seconds::ZERO);
            }
        }
        assert_eq!((de.ops_completed(), de.ops_failed()), (3, 2));
        // Three eager encryptions of the buffer, folded after each.
        let aes = Aes128::new(KEY);
        let mut buffer: [u8; BUFFER_BYTES] = std::array::from_fn(|i| (i % 251) as u8);
        let mut expected = 0u8;
        for _ in 0..de.ops_completed() {
            for block in buffer.chunks_exact_mut(16) {
                aes.encrypt_block(block.try_into().expect("16-byte block"));
            }
            for &b in &buffer {
                expected ^= b;
            }
        }
        assert_eq!(de.digest(), expected);
    }

    #[test]
    fn custom_duration() {
        let mut de = DataEncryption::with_op_duration(Seconds::new(0.01));
        for _ in 0..100 {
            de.step(&env(0.001));
        }
        assert_eq!(de.ops_completed(), 10);
    }

    #[test]
    fn name_is_de() {
        assert_eq!(DataEncryption::new().name(), "DE");
    }
}
