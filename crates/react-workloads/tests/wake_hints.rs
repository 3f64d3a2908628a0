//! Wake-hint consistency: the sleep fast path's correctness contract.
//!
//! For every workload, `next_wake` must be consistent with `step`:
//! fine-stepping to the hinted time produces only the same `Sleep`
//! demand (mode *and* peripheral current) with no observable state
//! change — under *randomized* energy along the replay, so a workload
//! whose sleep actually depends on the energy budget cannot hide a
//! timer hint — and at the hinted time the demand differs or a
//! timer/event fires. A stale hint that silently held would corrupt
//! the fast path (the kernel would freeze a workload that needed to
//! run), which is exactly what these properties guard against. A
//! running workload that declares its demand steady must return that
//! one `Active` demand on every later step, under randomized energy
//! and rail voltage, since the kernel integrates the buffer under it,
//! and its `replay_steady` must leave the state that many `step` calls
//! would leave, since the kernel replays a stride's steps through it.

use proptest::prelude::*;
use react_mcu::PowerMode;
use react_units::{Joules, Seconds, Volts};
use react_workloads::{
    DataEncryption, EventSchedule, LoadDemand, PacketForward, RadioTransmit, SenseCompute,
    WakeHint, Workload, WorkloadEnv,
};

fn env(now: f64, dt: f64, usable_mj: f64, longevity: bool) -> WorkloadEnv {
    WorkloadEnv {
        now: Seconds::new(now),
        dt: Seconds::new(dt),
        rail_voltage: Volts::new(3.0),
        usable_energy: Joules::from_milli(usable_mj),
        supports_longevity: longevity,
    }
}

fn counters(w: &dyn Workload) -> (u64, u64, u64, u64) {
    (
        w.ops_completed(),
        w.ops_failed(),
        w.aux_completed(),
        w.events_missed(),
    )
}

/// A tiny deterministic energy stream for the replay (the contract
/// must hold however the budget evolves below any threshold).
struct EnergyStream(u64);

impl EnergyStream {
    fn next_mj(&mut self, below_mj: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (self.0 >> 33) as f64 / (1u64 << 31) as f64;
        unit * below_mj
    }
}

/// Checks the hint the workload gives at `now` (immediately after its
/// last `step` at `now`) against a fine-step replay.
fn assert_hint_consistent<W: Workload + Clone>(
    w: &W,
    now: f64,
    dt: f64,
    longevity: bool,
    seed: u64,
) {
    let mut stream = EnergyStream(seed | 1);
    let probe_env = env(now, dt, stream.next_mj(20.0), longevity);
    let hint = w.next_wake(&probe_env);
    // (horizon, event expected at the horizon, energy cap during replay)
    let (horizon, expect_event, cap_mj) = match hint {
        WakeHint::Immediate => return, // always safe: no stride taken
        WakeHint::Steady => return assert_steady(w, now, dt, longevity, &mut stream),
        WakeHint::Never => (now + 50.0, false, 20.0),
        WakeHint::At(t) => {
            assert!(t.get() > now, "stale time hint {t:?} at now={now}");
            (t.get(), true, 20.0)
        }
        WakeHint::WhenEnergy { energy, deadline } => {
            // The promise only holds below the threshold; replay with
            // the budget pinned under it.
            let cap = (energy.to_milli() * 0.999).max(1e-6);
            match deadline {
                Some(d) => {
                    assert!(
                        d.get() > now,
                        "stale energy-wait deadline {d:?} at now={now}"
                    );
                    (d.get(), true, cap)
                }
                None => (now + 50.0, false, cap),
            }
        }
    };

    let mut clone = w.clone();
    let before = counters(&clone);
    let mut frozen: Option<LoadDemand> = None;
    let mut t = now + dt;
    while t < horizon - 1e-9 {
        let d = clone.step(&env(t, dt, stream.next_mj(cap_mj), longevity));
        assert_eq!(
            d.mode,
            PowerMode::Sleep,
            "woke early at t={t} under hint {hint:?}"
        );
        if let Some(f) = frozen {
            assert_eq!(d, f, "sleep demand changed mid-stride at t={t}");
        } else {
            frozen = Some(d);
        }
        assert_eq!(
            counters(&clone),
            before,
            "observable state mutated mid-stride at t={t}"
        );
        t += dt;
    }
    if expect_event {
        // At the hinted time the demand differs or a timer fires.
        let d = clone.step(&env(horizon, dt, stream.next_mj(cap_mj), longevity));
        let after = counters(&clone);
        assert!(
            frozen.is_none_or(|f| d != f) || after != before,
            "nothing observable happened at the hinted wake t={horizon} ({hint:?})"
        );
    }
    // An energy wait must actually end once the budget covers it.
    if let WakeHint::WhenEnergy { energy, .. } = hint {
        let mut woken = w.clone();
        let d = woken.step(&env(now + dt, dt, energy.to_milli() * 1.01, longevity));
        let after = counters(&woken);
        assert!(
            d.mode == PowerMode::Active || after != counters(w),
            "energy wait did not end above its threshold ({hint:?})"
        );
    }
}

/// Checks a [`WakeHint::Steady`] declaration: every later step returns
/// one `Active` demand, whatever the energy budget and rail voltage,
/// and replaying steps in bulk matches stepping them.
fn assert_steady<W: Workload + Clone>(
    w: &W,
    now: f64,
    dt: f64,
    longevity: bool,
    stream: &mut EnergyStream,
) {
    let entry = env(now + dt, dt, stream.next_mj(20.0), longevity);
    for n in [0, 1, 2, 99, 100, 101, 1000] {
        assert_replay_matches_steps(w, 0, n, &entry, 2000);
    }
    let mut clone = w.clone();
    let mut steady: Option<LoadDemand> = None;
    let mut t = now + dt;
    for _ in 0..2000 {
        let e = WorkloadEnv {
            rail_voltage: Volts::new(1.8 + stream.next_mj(1.7)),
            ..env(t, dt, stream.next_mj(20.0), longevity)
        };
        let d = clone.step(&e);
        assert_eq!(
            d.mode,
            PowerMode::Active,
            "a steady workload slept at t={t}"
        );
        assert_eq!(
            *steady.get_or_insert(d),
            d,
            "steady demand changed at t={t}"
        );
        t += dt;
    }
}

/// The step (1-based) on which the workload's next op completes, if it
/// does within `limit` steps from `e`'s clock.
fn next_completion<W: Workload>(w: &mut W, e: &WorkloadEnv, limit: u64) -> Option<u64> {
    let ops = w.ops_completed();
    (1..=limit).find(|&i| {
        w.step(&WorkloadEnv {
            now: e.now + e.dt * (i - 1) as f64,
            ..*e
        });
        w.ops_completed() > ops
    })
}

/// `replay_steady(first, n, e)` leaves what `n` calls to `step` leave:
/// the same completed ops, the same step on which the next op
/// completes (searched up to `limit` steps), and the same failed ops
/// after a power-down.
fn assert_replay_matches_steps<W: Workload + Clone>(
    w: &W,
    first: u64,
    n: u64,
    e: &WorkloadEnv,
    limit: u64,
) {
    let mut replayed = w.clone();
    replayed.replay_steady(first, n, e);
    let mut stepped = w.clone();
    for i in first..first + n {
        stepped.step(&WorkloadEnv {
            now: e.now + e.dt * i as f64,
            ..*e
        });
    }
    let label = format!("{} replaying {n} steps from step {first}", w.name());
    assert_eq!(
        replayed.ops_completed(),
        stepped.ops_completed(),
        "{label}: ops"
    );
    let end = WorkloadEnv {
        now: e.now + e.dt * (first + n) as f64,
        ..*e
    };
    let (mut r, mut s) = (replayed.clone(), stepped.clone());
    assert_eq!(
        next_completion(&mut r, &end, limit),
        next_completion(&mut s, &end, limit),
        "{label}: next op completion"
    );
    replayed.on_power_down(end.now);
    stepped.on_power_down(end.now);
    assert_eq!(
        replayed.ops_failed(),
        stepped.ops_failed(),
        "{label}: failed ops after a power-down"
    );
}

/// Drives a workload with generous energy for `prefix_s`, returning
/// the time of its last step.
fn drive<W: Workload>(w: &mut W, prefix_s: f64, dt: f64, longevity: bool) -> f64 {
    w.on_power_up(Seconds::ZERO);
    let mut t = 0.0;
    let mut last = 0.0;
    while t < prefix_s {
        w.step(&env(t, dt, 15.0, longevity));
        last = t;
        t += dt;
    }
    last
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SC: between deadlines the hint is the next deadline, and it is
    /// exact under any energy history.
    #[test]
    fn sc_hints_are_consistent(prefix_s in 0.0..40.0f64, dt_ms in 1u64..=20, seed in any::<u64>()) {
        let dt = dt_ms as f64 * 1e-3;
        let mut w = SenseCompute::new(Seconds::new(120.0));
        let now = drive(&mut w, prefix_s, dt, false);
        assert_hint_consistent(&w, now, dt, false, seed);
    }

    /// PF: empty-queue listening hints the next arrival; charging
    /// toward a forward hints the TX energy threshold with the next
    /// arrival as deadline.
    #[test]
    fn pf_hints_are_consistent(
        prefix_s in 0.0..60.0f64,
        dt_ms in 1u64..=20,
        rate_c in 1u64..=4,
        longevity in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let dt = dt_ms as f64 * 1e-3;
        let arrivals = EventSchedule::poisson(0.05 * rate_c as f64, Seconds::new(120.0), seed);
        let mut w = PacketForward::new(arrivals);
        let now = drive(&mut w, prefix_s, dt, longevity);
        assert_hint_consistent(&w, now, dt, longevity, seed);
    }

    /// PF charging toward a TX on a longevity buffer must hint the
    /// energy wait (never a bare timer): the low-energy prefix leaves
    /// packets queued.
    #[test]
    fn pf_queued_packets_hint_the_energy_wait(dt_ms in 1u64..=10, seed in any::<u64>()) {
        let dt = dt_ms as f64 * 1e-3;
        let mut w = PacketForward::new(EventSchedule::poisson(0.2, Seconds::new(120.0), seed));
        w.on_power_up(Seconds::ZERO);
        // Enough energy to receive (≈3.2 mJ), never enough to forward.
        let mut t = 0.0;
        while t < 60.0 {
            w.step(&env(t, dt, 4.0, true));
            t += dt;
        }
        if w.queue_depth() > 0 {
            match w.next_wake(&env(t, dt, 4.0, true)) {
                WakeHint::Immediate | WakeHint::WhenEnergy { .. } => {}
                other => panic!("queued packets must wait on energy, got {other:?}"),
            }
            assert_hint_consistent(&w, t - dt, dt, true, seed);
        }
    }

    /// RT: the longevity wait hints its burst energy; static buffers
    /// (greedy transmission) never promise anything.
    #[test]
    fn rt_hints_are_consistent(prefix_s in 0.0..5.0f64, longevity in any::<bool>(), seed in any::<u64>()) {
        let dt = 1e-3;
        let mut w = RadioTransmit::new();
        // Low-energy prefix so longevity runs park in the sleep wait.
        w.on_power_up(Seconds::ZERO);
        let mut t = 0.0;
        let mut last = 0.0;
        while t < prefix_s {
            w.step(&env(t, dt, 1.0, longevity));
            last = t;
            t += dt;
        }
        assert_hint_consistent(&w, last, dt, longevity, seed);
    }

    /// DE: the CPU encrypts continuously, so once it has stepped its
    /// demand is steady under any energy and rail history.
    #[test]
    fn de_declares_a_steady_demand(prefix_s in 0.0..2.0f64, dt_ms in 1u64..=20, seed in any::<u64>()) {
        let dt = dt_ms as f64 * 1e-3;
        let mut w = DataEncryption::new();
        let now = drive(&mut w, prefix_s + dt, dt, false);
        prop_assert_eq!(w.next_wake(&env(now, dt, 1.0, false)), WakeHint::Steady);
        assert_hint_consistent(&w, now, dt, false, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// DE's bulk replay books whole ops at once: from any phase of the
    /// op in flight, over any stretch up to three ops and a step, it
    /// matches stepping, for step sizes that divide its op duration or
    /// not, and for op durations that never complete.
    #[test]
    fn de_replay_matches_stepping(
        dt_i in 0usize..DE_STEPS.len(),
        duration_i in 0usize..6,
        custom_s in 0.0..0.3f64,
        phase_seed in any::<u64>(),
        n_seed in any::<u64>(),
        first in 0u64..10_000,
    ) {
        let dt = DE_STEPS[dt_i];
        let duration = [0.1, custom_s, 0.0, dt, f64::INFINITY, f64::NAN][duration_i];
        let fresh = DataEncryption::with_op_duration(Seconds::new(duration));
        let e = env(1.0, dt, 1.0, false);
        // Steps per op; an op that never completes gets a short span.
        let limit = 1_000;
        let per_op = next_completion(&mut fresh.clone(), &e, limit).unwrap_or(50);
        let mut w = fresh;
        for i in 0..phase_seed % per_op {
            w.step(&env(dt * i as f64, dt, 1.0, false));
        }
        let n = n_seed % (3 * per_op + 2);
        assert_replay_matches_steps(&w, first, n, &e, limit);
    }
}

/// The fine steps DE's replay is checked at: the 1 ms and 10 ms grids
/// the scenarios use, and one that divides no op duration.
const DE_STEPS: [f64; 3] = [1e-3, 10e-3, 0.7e-3];
