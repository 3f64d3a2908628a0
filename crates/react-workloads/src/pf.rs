//! PF — Packet Forwarding benchmark (§4.2, §5.4.1).
//!
//! Listens for unpredictable incoming packets and retransmits them:
//! reception is uncontrollable and reactivity-bound (a packet can only be
//! received exactly when it arrives) while forwarding is deferrable but
//! energy-hungry. The benchmark exercises energy *fungibility*: on
//! longevity-capable buffers the workload charges toward a transmission
//! but abandons that reservation whenever a new packet arrives and enough
//! energy is on hand to receive it.

use react_mcu::{McuSpec, Peripheral};
use react_units::{Joules, Seconds};

use crate::costs;
use crate::events::EventSchedule;
use crate::{LoadDemand, WakeHint, Workload, WorkloadEnv};

#[derive(Clone, Debug, PartialEq)]
enum State {
    /// Deep listen: LPM3 + wake-up receiver.
    Listening,
    /// Actively receiving a packet.
    Receiving { remaining: Seconds },
    /// Forwarding the head-of-queue packet.
    Transmitting { remaining: Seconds },
}

/// The Packet Forwarding workload.
#[derive(Clone, Debug)]
pub struct PacketForward {
    arrivals: EventSchedule,
    radio_rx: Peripheral,
    radio_tx: Peripheral,
    wurx: Peripheral,
    rx_energy: Joules,
    tx_energy: Joules,
    state: State,
    /// Received packets awaiting forwarding.
    queued: usize,
    received: u64,
    forwarded: u64,
    missed: u64,
    failed: u64,
}

impl PacketForward {
    /// Creates the benchmark for a given arrival schedule.
    pub fn new(arrivals: EventSchedule) -> Self {
        let radio_rx = Peripheral::radio_rx();
        let radio_tx = Peripheral::radio_tx();
        let mcu_active = McuSpec::msp430fr5994().active_current;
        Self {
            rx_energy: costs::op_energy_estimate(
                radio_rx.rated_current() + mcu_active,
                costs::PF_RX,
            ),
            tx_energy: costs::op_energy_estimate(
                radio_tx.rated_current() + mcu_active,
                costs::PF_TX,
            ),
            arrivals,
            radio_rx,
            radio_tx,
            wurx: Peripheral::wakeup_receiver(),
            state: State::Listening,
            queued: 0,
            received: 0,
            forwarded: 0,
            missed: 0,
            failed: 0,
        }
    }

    /// Packets received so far (Table 5 "Rx").
    pub fn packets_received(&self) -> u64 {
        self.received
    }

    /// Packets forwarded so far (Table 5 "Tx").
    pub fn packets_forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets currently buffered for forwarding.
    pub fn queue_depth(&self) -> usize {
        self.queued
    }

    /// Energy estimates used with the longevity API.
    pub fn energy_estimates(&self) -> (Joules, Joules) {
        (self.rx_energy, self.tx_energy)
    }

    fn try_start_receive(&mut self, env: &WorkloadEnv) -> bool {
        // Half-duplex: busy radios miss the packet. Longevity-capable
        // software additionally checks it can finish the reception.
        let idle = matches!(self.state, State::Listening);
        let has_energy = !env.supports_longevity || env.usable_energy >= self.rx_energy;
        if idle && has_energy {
            self.state = State::Receiving {
                remaining: costs::PF_RX,
            };
            true
        } else {
            false
        }
    }
}

impl Workload for PacketForward {
    fn name(&self) -> &'static str {
        "PF"
    }

    fn on_power_up(&mut self, _now: Seconds) {}

    fn on_power_down(&mut self, _now: Seconds) {
        match self.state {
            State::Receiving { .. } => {
                // The packet in the air is gone.
                self.failed += 1;
                self.missed += 1;
            }
            State::Transmitting { .. } => {
                // Forwarding failed; packet stays queued for retry.
                self.failed += 1;
            }
            State::Listening => {}
        }
        self.state = State::Listening;
    }

    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        // Handle arrivals. Fresh arrivals can preempt a pending
        // transmission *reservation* (not an in-flight one): that is the
        // fungibility story of §5.4.1 — while charging for TX the system
        // still receives if it can.
        while let Some(t) = self.arrivals.peek() {
            if t > env.now {
                break;
            }
            self.arrivals.take_due(t);
            let fresh = (env.now - t) <= costs::EVENT_GRACE;
            if !(fresh && self.try_start_receive(env)) {
                self.missed += 1;
            }
        }

        match self.state {
            State::Receiving { remaining } => {
                let left = remaining - env.dt;
                if left.get() <= 0.0 {
                    // The channel is noiseless: every reception decodes.
                    self.received += 1;
                    self.queued += 1;
                    self.state = State::Listening;
                } else {
                    self.state = State::Receiving { remaining: left };
                }
                LoadDemand::active_with(self.radio_rx.rated_current())
            }
            State::Transmitting { remaining } => {
                let left = remaining - env.dt;
                if left.get() <= 0.0 {
                    self.queued -= 1;
                    self.forwarded += 1;
                    self.state = State::Listening;
                } else {
                    self.state = State::Transmitting { remaining: left };
                }
                LoadDemand::active_with(self.radio_tx.rated_current())
            }
            State::Listening => {
                if self.queued > 0 {
                    let ready = !env.supports_longevity || env.usable_energy >= self.tx_energy;
                    if ready {
                        self.state = State::Transmitting {
                            remaining: costs::PF_TX,
                        };
                        return LoadDemand::active_with(self.radio_tx.rated_current());
                    }
                }
                // Deep listen, wake-up receiver on.
                LoadDemand::sleep_with(self.wurx.rated_current())
            }
        }
    }

    /// Deep listen with an empty queue sleeps until the next packet
    /// arrival — the wake-up receiver's whole point. With packets
    /// queued (a longevity buffer charging toward a forward), the wait
    /// ends at the TX energy threshold or the next arrival, whichever
    /// comes first — §5.4.1's fungibility story.
    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        if !matches!(self.state, State::Listening) {
            return WakeHint::Immediate;
        }
        if self.queued > 0 {
            if !env.supports_longevity {
                return WakeHint::Immediate;
            }
            return WakeHint::WhenEnergy {
                energy: self.tx_energy,
                deadline: self.arrivals.peek(),
            };
        }
        match self.arrivals.peek() {
            Some(t) => WakeHint::At(t),
            None => WakeHint::Never,
        }
    }

    fn finalize(&mut self, now: Seconds) {
        self.missed += self.arrivals.take_due(now) as u64;
    }

    fn ops_completed(&self) -> u64 {
        self.forwarded
    }

    fn ops_failed(&self) -> u64 {
        self.failed
    }

    fn aux_completed(&self) -> u64 {
        self.received
    }

    fn events_missed(&self) -> u64 {
        self.missed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::Volts;

    fn env(now: f64, usable_mj: f64, longevity: bool) -> WorkloadEnv {
        WorkloadEnv {
            now: Seconds::new(now),
            dt: Seconds::new(0.001),
            rail_voltage: Volts::new(3.3),
            usable_energy: Joules::from_milli(usable_mj),
            supports_longevity: longevity,
        }
    }

    fn arrivals_at(times: &[f64]) -> EventSchedule {
        EventSchedule::from_times(times.iter().map(|&t| Seconds::new(t)).collect())
    }

    fn run(pf: &mut PacketForward, from_s: f64, to_s: f64, usable_mj: f64, longevity: bool) {
        let dt = 0.001;
        let mut t = from_s;
        while t < to_s {
            pf.step(&env(t, usable_mj, longevity));
            t += dt;
        }
    }

    #[test]
    fn receives_and_forwards_with_energy() {
        let mut pf = PacketForward::new(arrivals_at(&[1.0]));
        run(&mut pf, 0.0, 2.0, 100.0, true);
        assert_eq!(pf.packets_received(), 1);
        assert_eq!(pf.packets_forwarded(), 1);
        assert_eq!(pf.events_missed(), 0);
        assert_eq!(pf.queue_depth(), 0);
    }

    #[test]
    fn misses_packets_that_arrive_while_dark() {
        let mut pf = PacketForward::new(arrivals_at(&[1.0]));
        // First step happens long after the arrival.
        run(&mut pf, 5.0, 5.1, 100.0, true);
        assert_eq!(pf.events_missed(), 1);
        assert_eq!(pf.packets_received(), 0);
    }

    #[test]
    fn longevity_buffer_defers_rx_without_energy() {
        let mut pf = PacketForward::new(arrivals_at(&[1.0]));
        run(&mut pf, 0.999, 1.01, 0.5, true); // 0.5 mJ < rx estimate
        assert_eq!(pf.events_missed(), 1);
        assert_eq!(pf.packets_received(), 0);
    }

    #[test]
    fn static_buffer_attempts_rx_and_fails_on_brownout() {
        let mut pf = PacketForward::new(arrivals_at(&[1.0]));
        run(&mut pf, 0.999, 1.05, 0.5, false); // tries anyway
        pf.on_power_down(Seconds::new(1.05));
        assert_eq!(pf.ops_failed(), 1);
        assert_eq!(pf.events_missed(), 1);
    }

    #[test]
    fn charging_for_tx_still_receives_new_packets() {
        // Longevity mode with enough for RX but not TX: the queued packet
        // waits, but a new arrival is still received (fungibility).
        let mut pf = PacketForward::new(arrivals_at(&[1.0, 2.0]));
        run(&mut pf, 0.0, 3.0, 4.0, true); // 4 mJ ≥ rx (≈3.2) < tx (≈12.5)
        assert_eq!(pf.packets_received(), 2);
        assert_eq!(pf.packets_forwarded(), 0);
        assert_eq!(pf.queue_depth(), 2);
        // Energy arrives: both forwarded.
        run(&mut pf, 3.0, 3.5, 100.0, true);
        assert_eq!(pf.packets_forwarded(), 2);
    }

    #[test]
    fn half_duplex_misses_arrival_during_tx() {
        // Two arrivals 50 ms apart: the second lands mid-RX of the first.
        let mut pf = PacketForward::new(arrivals_at(&[1.0, 1.05]));
        run(&mut pf, 0.0, 2.0, 100.0, true);
        assert_eq!(pf.packets_received(), 1);
        assert_eq!(pf.events_missed(), 1);
    }

    #[test]
    fn finalize_counts_unserved_arrivals() {
        let mut pf = PacketForward::new(arrivals_at(&[1.0, 2.0, 3.0]));
        pf.finalize(Seconds::new(10.0));
        assert_eq!(pf.events_missed(), 3);
    }

    #[test]
    fn estimates_ordered_rx_below_tx() {
        let pf = PacketForward::new(arrivals_at(&[]));
        let (rx, tx) = pf.energy_estimates();
        assert!(rx < tx);
        assert!(rx.to_milli() > 2.0);
    }
}
