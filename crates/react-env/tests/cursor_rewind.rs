//! Regression: non-monotone [`TraceSource`] queries.
//!
//! The streaming kernel makes backward probes easy to trigger — the
//! adaptive kernel stamps probe samples "one step back" from a stride
//! end, drain accounting re-reads the window it just left, and
//! scenario code re-queries a time after peeking ahead at a segment
//! boundary. The source's contract is graceful rewind: every query,
//! in any order, answers exactly what [`PowerTrace::power_at`] would,
//! and the window its cache leaves behind never corrupts later
//! queries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use react_env::{PowerSource, TraceSource};
use react_traces::{paper_trace, PaperTrace, PowerTrace};
use react_units::{Seconds, Watts};

fn ramp(n: usize, dt: f64) -> PowerTrace {
    let samples = (0..n).map(|i| Watts::from_milli(i as f64)).collect();
    PowerTrace::new("ramp", Seconds::new(dt), samples)
}

/// The kernel's probe-stamping pattern: advance by a stride, then read
/// one fine step *behind* the new position before continuing forward.
#[test]
fn kernel_style_backward_stamps_match_power_at() {
    let trace = ramp(500, 0.1);
    let mut cursor = TraceSource::new(trace.clone());
    let dt = 0.001;
    let mut t = 0.0;
    while t < trace.duration().get() + 2.0 {
        let seg = cursor.segment(Seconds::new(t));
        assert_eq!(seg.power, trace.power_at(Seconds::new(t)), "window at {t}");
        // Stamp one step back (the probe-series pattern).
        let back = Seconds::new((t - dt).max(0.0));
        assert_eq!(cursor.power_at(back), trace.power_at(back), "stamp at {t}");
        // The backward probe must not poison the forward walk.
        assert_eq!(
            cursor.power_at(Seconds::new(t)),
            trace.power_at(Seconds::new(t)),
            "re-read at {t}"
        );
        t = seg.end.get().min(t + 7.3).max(t + dt);
    }
}

/// Interleaved far jumps in both directions, including repeated
/// boundary landings, pre-trace and past-end times.
#[test]
fn random_bidirectional_walk_matches_power_at() {
    let trace = ramp(200, 0.25);
    let mut cursor = TraceSource::new(trace.clone());
    let mut rng = StdRng::seed_from_u64(0xC0_FFEE);
    let mut t = 0.0_f64;
    for step in 0..20_000 {
        // Mostly forward, frequently backward, occasionally wild.
        let jump: f64 = match step % 7 {
            0..=3 => rng.gen_range(0.0..0.4),
            4 | 5 => rng.gen_range(-0.6..0.0),
            _ => rng.gen_range(-60.0..80.0),
        };
        t = (t + jump).clamp(-5.0, 70.0);
        let s = Seconds::new(t);
        assert_eq!(
            cursor.power_at(s),
            trace.power_at(s),
            "at t={t} step {step}"
        );
    }
}

/// Backward probes on a real library trace, hammering exact sample
/// boundaries from both sides.
#[test]
fn boundary_pingpong_on_a_paper_trace() {
    let trace = paper_trace(PaperTrace::RfCart);
    let mut cursor = TraceSource::new(trace.clone());
    let dt = trace.sample_interval().get();
    for i in (0..3000).step_by(7) {
        let boundary = i as f64 * dt;
        for offset in [1e-9, -1e-9, 0.0, dt * 0.5, -dt * 0.5] {
            let s = Seconds::new((boundary + offset).max(-1.0));
            assert_eq!(
                cursor.power_at(s),
                trace.power_at(s),
                "boundary {i} offset {offset}"
            );
        }
    }
}
