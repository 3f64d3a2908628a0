//! Per-operation timing/energy constants shared by the benchmarks.
//!
//! These are the calibration constants README's "Calibration and
//! workload costs" section documents: durations come from datasheet
//! timings and the paper's description of each benchmark. With
//! `react_core::calib` they are the only "tuned" numbers in the
//! reproduction.

use react_units::{Amps, Joules, Seconds, Volts};

/// DE: one bulk encryption (1 KiB AES-128 + FRAM logging) at 8 MHz.
pub const DE_OP: Seconds = Seconds::new(0.100);

/// SC: microphone acquisition window (mic powered).
pub const SC_SAMPLE: Seconds = Seconds::new(0.010);
/// SC: FIR filtering + thresholding of the window.
pub const SC_COMPUTE: Seconds = Seconds::new(0.020);
/// SC: sensing deadline period (§4.2: "once every five seconds").
pub const SC_PERIOD: Seconds = Seconds::new(5.0);

/// RT: one atomic transmission burst: 16 framed packets, each a 60-byte
/// payload plus an 8-byte header and CRC (1,088 wire bytes ≈ 1 KiB),
/// plus preamble/settling time at the ZL70251's low data rate.
pub const RT_BURST: Seconds = Seconds::new(0.300);

/// PF: receive window for one incoming packet.
pub const PF_RX: Seconds = Seconds::new(0.100);
/// PF: forwarding transmission for one packet.
pub const PF_TX: Seconds = Seconds::new(0.150);

/// Safety margin applied to longevity energy estimates (§3.4.1): the
/// software asks for somewhat more than the op's nominal energy so the
/// guarantee holds under worst-case voltage.
pub const LONGEVITY_MARGIN: f64 = 1.3;

/// Grace window for servicing a just-fired external event: radio
/// preamble / sync tolerance.
pub const EVENT_GRACE: Seconds = Seconds::new(0.020);

/// Nominal rail voltage used for energy estimates in software.
pub const NOMINAL_RAIL: Volts = Volts::new(3.3);

/// Energy estimate for an operation drawing `current` (MCU + peripheral)
/// for `duration`, with the longevity margin applied.
pub fn op_energy_estimate(current: Amps, duration: Seconds) -> Joules {
    current * NOMINAL_RAIL * duration * LONGEVITY_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_scale_linearly() {
        let e1 = op_energy_estimate(Amps::from_milli(10.0), Seconds::new(0.1));
        let e2 = op_energy_estimate(Amps::from_milli(20.0), Seconds::new(0.1));
        assert!((e2.get() / e1.get() - 2.0).abs() < 1e-12);
        // 10 mA × 3.3 V × 0.1 s × 1.3 = 4.29 mJ.
        assert!((e1.to_milli() - 4.29).abs() < 1e-9);
    }

    #[test]
    fn radio_ops_exceed_small_buffer_capacity() {
        // The RT burst must not fit in the 770 µF buffer's usable energy
        // (≈2.9 mJ from 3.3 V to 1.8 V) — that is the premise of §5.4.
        let tx = op_energy_estimate(Amps::from_milli(5.0) + Amps::from_milli(1.5), RT_BURST);
        assert!(tx.to_milli() > 2.9, "RT burst {} mJ", tx.to_milli());
    }
}
