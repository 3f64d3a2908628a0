//! The `Recorder` seam and the bounded-memory ring recorder.

use std::collections::VecDeque;

use crate::event::SimEvent;

/// A sink for simulation events, threaded through the engine as a
/// monomorphized type parameter.
///
/// `ENABLED` is an associated constant so that every instrumentation
/// block in the engine — `if R::ENABLED { … }` — folds away entirely
/// when the recorder is [`NullRecorder`]. Implementations must never
/// feed information back into the simulation: recording must not
/// change results (the integration suite pins this bit-for-bit).
pub trait Recorder {
    /// Whether the engine should emit events at all. When `false`, the
    /// engine skips every telemetry branch and [`Recorder::record`] is
    /// never called.
    const ENABLED: bool;

    /// Accept one event.
    fn record(&mut self, event: &SimEvent);

    /// Fold another recorder of the same type into this one, in
    /// deterministic (caller-ordered) sequence — the fleet runner uses
    /// this to merge per-cell recorders in node-index order.
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;
}

/// The do-nothing default recorder. `ENABLED = false`, so the engine
/// compiles the entire telemetry layer away and runs bit-identical to
/// (and as fast as) a build without it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    fn record(&mut self, _event: &SimEvent) {}

    fn absorb(&mut self, _other: Self) {}
}

/// A bounded ring of the most recent events.
///
/// Memory is `O(capacity)` regardless of run length; once full, the
/// oldest event is discarded per new event and counted in
/// [`RingRecorder::dropped`].
#[derive(Clone, Debug)]
pub struct RingRecorder {
    events: VecDeque<SimEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Default ring capacity: 65 536 events (~2.5 MiB), enough to hold
    /// every event of a coalesced day-scale cell.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A ring holding at most `capacity` events (`0` records nothing
    /// and counts everything as dropped).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            events: VecDeque::with_capacity(capacity.min(Self::DEFAULT_CAPACITY)),
            capacity,
            dropped: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SimEvent> {
        self.events.iter()
    }

    /// Consume the ring into a `Vec`, oldest first.
    pub fn into_events(self) -> Vec<SimEvent> {
        self.events.into_iter().collect()
    }
}

/// A ring with [`RingRecorder::DEFAULT_CAPACITY`].
impl Default for RingRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl Recorder for RingRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, event: &SimEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
            if self.capacity == 0 {
                return;
            }
        }
        self.events.push_back(*event);
    }

    fn absorb(&mut self, other: Self) {
        self.dropped += other.dropped;
        for event in other.events {
            self.record(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn boot_at(t: f64) -> SimEvent {
        SimEvent {
            t,
            span: 0.0,
            kind: EventKind::Boot,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut ring = RingRecorder::new(3);
        for i in 0..10 {
            ring.record(&boot_at(i as f64));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let kept: Vec<f64> = ring.iter().map(|e| e.t).collect();
        assert_eq!(kept, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn default_ring_records_at_default_capacity() {
        let mut ring = RingRecorder::default();
        ring.record(&boot_at(1.0));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.capacity, RingRecorder::DEFAULT_CAPACITY);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = RingRecorder::new(0);
        ring.record(&boot_at(1.0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn absorb_appends_in_order() {
        let mut a = RingRecorder::new(8);
        a.record(&boot_at(1.0));
        let mut b = RingRecorder::new(8);
        b.record(&boot_at(2.0));
        a.absorb(b);
        let ts: Vec<f64> = a.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![1.0, 2.0]);
    }
}
