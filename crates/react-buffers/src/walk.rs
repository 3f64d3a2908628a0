//! The poll walk behind REACT's and Morphy's closed-form strides.
//!
//! Both controllers are software pollers: every poll period they read
//! their comparators and may reconfigure (REACT's bank state machine,
//! §3.4; Morphy's externally powered ladder). A stride replays that poll
//! chain one segment at a time, so poll times stay step-identical to
//! the fine-step reference, and integrates each segment in closed form.
//! [`walk_polls`] owns the chain; a [`PollModel`] supplies one buffer's
//! physics.

use react_telemetry::FallbackReason;
use react_units::{PollTick, Seconds, Volts};

/// Margin (V) inside the comparator thresholds where the walk
/// integrates the dead band in bulk.
pub(crate) const BAND_GUARD: f64 = 0.02;

/// A controller under the walk: the poll state it advances, the
/// thresholds it reads, and where a refused stride records why.
pub(crate) struct Controller<'a> {
    /// The poll, counted in fine steps (retuned to the stride's step).
    pub tick: &'a mut PollTick,
    /// The poll accumulator.
    pub acc: &'a mut Seconds,
    /// The settling window after a reconfiguration, during which a
    /// poll does nothing (Morphy); `None` for a controller without one.
    pub cooldown: Option<&'a mut Seconds>,
    /// `None` for a stride that records no refusal.
    pub fallback: Option<&'a mut Option<FallbackReason>>,
    /// The comparator thresholds `(v_low, v_high)`.
    pub thresholds: (f64, f64),
}

/// One buffer's physics under [`walk_polls`]. Every solve starts from
/// the state the model carries and quantizes its stop crossings up onto
/// the fine-step grid.
pub(crate) trait PollModel {
    /// A solved span, ready to commit.
    type Span;

    /// The controller the walk advances.
    fn controller(&mut self) -> Controller<'_>;

    /// Settles the model at a segment boundary and returns the voltage
    /// the stop checks and the dead band read.
    fn enter(&mut self) -> f64;

    /// Whether the walk must hand back before this segment because the
    /// model's closed forms went stale (REACT's staged diode coupling).
    /// The walk records no refusal for it.
    fn couples(&mut self) -> bool {
        false
    }

    /// `horizon` cut at the model's next predicted topology event.
    fn cut(&self, horizon: f64) -> f64 {
        horizon
    }

    /// A span over up to `h`, stopping once the voltage falls to `lo` or
    /// rises to `hi`; `None` when there is no closed form.
    fn segment(&mut self, h: f64, lo: f64, hi: Option<f64>, dt: f64) -> Option<(f64, Self::Span)>;

    /// A dead-band span over up to `window`, stopping at `lo` or `hi`.
    fn band(&mut self, window: f64, lo: f64, hi: f64, dt: f64) -> Option<(f64, Self::Span)> {
        self.segment(window, lo, Some(hi), dt)
    }

    /// Why a segment that advanced nothing was refused.
    fn stalled(&self) -> FallbackReason {
        FallbackReason::NoClosedForm
    }

    /// Whether a segment that ends on a poll lands in the comparator's
    /// residual guard band, where only the fine steps can tell what the
    /// poll reads.
    fn guarded(&self, _span: &Self::Span) -> bool {
        false
    }

    /// Commits a span `t_adv` long: the buffer's state, its energy books
    /// and its dwell.
    fn commit(&mut self, t_adv: f64, span: &Self::Span);

    /// Fires the poll; `true` hands the rest of the stride back.
    fn poll(&mut self) -> bool;
}

/// Walks poll-to-poll segments for up to `duration`, stopping once the
/// model's voltage falls to `v_floor` or rises to `v_top`. Returns the
/// time advanced, or `None` when the first segment's poll lands in the
/// guard band. A stride that advanced nothing records why.
///
/// Each segment first tries the comparator dead band in bulk: while the
/// voltage sits strictly inside `(v_low, v_high)` with a guard margin,
/// every poll reads "Ok", so whole spans integrate in one solve with
/// the accumulator advanced in closed form and the cooldown drained.
/// Otherwise it replays the poll ticks up to the next poll, solves and
/// commits that segment, and fires the poll at its end.
pub(crate) fn walk_polls<M: PollModel>(
    model: &mut M,
    fine_dt: Seconds,
    duration: Seconds,
    v_floor: Volts,
    v_top: Option<Volts>,
) -> Option<f64> {
    let (total, dt) = (duration.get(), fine_dt.get());
    let (v_floor, v_top) = (v_floor.get(), v_top.map(Volts::get));
    let (tick, v_low, v_high) = {
        let c = model.controller();
        *c.tick = c.tick.at_dt(fine_dt);
        (*c.tick, c.thresholds.0, c.thresholds.1)
    };
    let period = tick.period().get();
    let mut elapsed = 0.0_f64;
    // Why a zero-length stride was refused: the stop condition already
    // holds unless a break says otherwise.
    let mut refusal = FallbackReason::TransitionDue;
    let (mut coupled, mut refused_outright) = (false, false);
    while elapsed < total {
        let v = model.enter();
        if v <= v_floor || v_top.is_some_and(|vt| v >= vt) {
            break;
        }
        if model.couples() {
            coupled = true;
            break;
        }

        // 0. The comparator dead band, in bulk.
        let band_lo = (v_low + BAND_GUARD).max(v_floor);
        let band_hi = v_high - BAND_GUARD;
        let band_stop_up = v_top.map_or(band_hi, |vt| vt.min(band_hi));
        let whole = (((total - elapsed) / dt).floor() * dt).max(0.0);
        if v > band_lo && v < band_stop_up && whole > 3.0 * period {
            let window = model.cut(whole);
            let span = (window > 3.0 * period)
                .then(|| model.band(window, band_lo, band_stop_up, dt))
                .flatten();
            if let Some((t_adv, span)) = span.filter(|&(t_adv, _)| t_adv > 2.0 * period) {
                model.commit(t_adv, &span);
                let c = model.controller();
                *c.acc = tick.advance(*c.acc, (t_adv / dt).round() as u64);
                if let Some(cooldown) = c.cooldown {
                    *cooldown = (*cooldown - Seconds::new(t_adv)).max(Seconds::ZERO);
                }
                elapsed += t_adv;
                continue;
            }
        }

        // 1. Replay the poll ticks up to the next poll (bounded by the
        // stride horizon).
        let seg = tick.segment(*model.controller().acc, Seconds::new(elapsed), duration);
        let seg_horizon = seg.elapsed.get() - elapsed;

        // 2. The segment in closed form, cut at any topology event.
        let Some((t_adv, span)) = model.segment(model.cut(seg_horizon), v_floor, v_top, dt) else {
            refusal = FallbackReason::NoClosedForm;
            break; // hand the rest back to the fine-step loop
        };
        if t_adv <= 0.0 {
            refusal = model.stalled();
            break;
        }
        let finished = t_adv >= seg_horizon - 1e-15;
        if seg.fired && finished && model.guarded(&span) {
            refusal = FallbackReason::GuardBand;
            refused_outright = elapsed == 0.0;
            break;
        }

        // 3. Commit the span.
        model.commit(t_adv, &span);

        // 4. Commit the poll ticks. A finished segment with no cooldown
        // left commits by assignment; a draining cooldown or a stop
        // mid-segment replays per step (a poll can only land on the
        // segment's last step). The poll fires with the controller ready.
        let fires = {
            let c = model.controller();
            let mut none = Seconds::ZERO;
            let cooldown = c.cooldown.unwrap_or(&mut none);
            let ticks = if finished && cooldown.get() <= 0.0 {
                seg
            } else {
                let steps = if finished {
                    seg.steps
                } else {
                    (t_adv / dt).round().max(1.0) as u64
                };
                tick.replay(*c.acc, Seconds::new(elapsed), duration, steps, |h| {
                    *cooldown = (*cooldown - h).max(Seconds::ZERO);
                })
            };
            (*c.acc, elapsed) = (ticks.acc, ticks.elapsed.get());
            ticks.fired && finished && cooldown.get() <= 0.0
        };
        if fires && model.poll() {
            break;
        }
    }
    if elapsed == 0.0 && !coupled {
        if let Some(fallback) = model.controller().fallback {
            *fallback = Some(refusal);
        }
    }
    (!refused_outright).then_some(elapsed)
}
