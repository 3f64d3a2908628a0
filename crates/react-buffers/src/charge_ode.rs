//! Closed-form integration of a buffer's charge/decay dynamics: the
//! MCU-off regime solver ([`integrate`]) behind every buffer's
//! `idle_advance` fast path, and the powered solver
//! ([`integrate_powered`], see [`PoweredOde`]) that adds a constant
//! rail-current load for `powered_advance`.
//!
//! The per-step reference physics (leak, optional management draw, then
//! [`power_intake`](crate::power_intake) deposit) discretize the ODE
//!
//! ```text
//! C·dv/dt = i_in(v) − G·v − [v > V_d]·P_d/v
//! ```
//!
//! with `i_in(v) = min(p / max(v, V_floor), I_limit)` for `p > 0`. The
//! trajectory is piecewise linear either in `v` (constant-current
//! regions) or in `u = v²` (the power-limited region, where
//! `du/dt = 2(p − P_d − G·u)/C` — the "RC charge curve" with leakage as
//! the R and the management drain folded into the source term). Each
//! regime therefore has an exact exponential solution and an invertible
//! crossing time; the integrator walks the regimes in sequence,
//! accumulating the exact leakage and drain integrals, and holds with
//! clipping at the overvoltage clamp.
//!
//! A constant *current* plus a constant *power* draw has no elementary
//! solution, so when the drain is active inside a constant-current
//! region [`integrate`] returns `None` and the caller falls back to fine
//! stepping. With `p_drain == 0` (plain static buffers, Morphy's
//! externally powered network) the solver is total.

use react_circuit::LeakageSpec;

use crate::{CHARGE_CURRENT_LIMIT, CONVERSION_FLOOR};

/// One idle integration problem: a single equivalent capacitor charged
/// by the harvester frontend and drained by leakage plus (optionally) a
/// constant-power management load active above a voltage threshold.
#[derive(Clone, Copy, Debug)]
pub struct ChargeOde {
    /// Equivalent capacitance at the rail (F).
    pub c: f64,
    /// Leakage conductance, `I_leak(v) = g·v` (S).
    pub g: f64,
    /// Overvoltage clamp (V); charge arriving above it burns in the
    /// protection circuit.
    pub v_max: f64,
    /// Input power offered at the rail (W, ≥ 0).
    pub p_in: f64,
    /// Constant management power drawn from the capacitor while the rail
    /// sits above `v_drain_min` (W). Zero for buffers without an
    /// on-supply controller.
    pub p_drain: f64,
    /// Voltage above which `p_drain` is active.
    pub v_drain_min: f64,
}

/// Result of one closed-form idle integration.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdleSolution {
    /// Time integrated (≤ the requested horizon; shorter only when the
    /// stop voltage was reached first).
    pub elapsed: f64,
    /// Terminal voltage.
    pub v_final: f64,
    /// Energy lost to leakage over `elapsed`, `∫ G·v² dt`.
    pub leaked: f64,
    /// Energy consumed by the management drain over `elapsed`.
    pub drained: f64,
    /// Energy burned by the overvoltage clamp over `elapsed`.
    pub clipped: f64,
}

/// Leakage conductance of a capacitor spec (`I_rated / V_rated`).
pub fn leakage_conductance(leakage: &LeakageSpec) -> f64 {
    if leakage.rated_voltage.get() > 0.0 {
        leakage.current_at_rated.get() / leakage.rated_voltage.get()
    } else {
        0.0
    }
}

/// Integrates the idle ODE from `v_start` for up to `horizon` seconds,
/// stopping early once the voltage reaches `v_stop`. Returns `None` when
/// the trajectory enters a constant-current regime with the drain active
/// (no elementary solution — callers fall back to fine stepping).
pub fn integrate(
    ode: &ChargeOde,
    v_start: f64,
    horizon: f64,
    v_stop: Option<f64>,
) -> Option<IdleSolution> {
    const V_FLOOR: f64 = CONVERSION_FLOOR.get();
    const I_LIMIT: f64 = CHARGE_CURRENT_LIMIT.get();
    let ChargeOde {
        c,
        g,
        v_max,
        p_in: p,
        p_drain,
        v_drain_min,
    } = *ode;

    // Any non-finite input poisons the closed forms — decline and let
    // the caller fall back to fine stepping (the kernel guard counts
    // the fallback).
    if !(v_start.is_finite() && horizon.is_finite() && p.is_finite() && g.is_finite()) {
        return None;
    }

    let mut v = v_start.max(0.0);
    let mut remaining = horizon;
    let mut leaked = 0.0;
    let mut drained = 0.0;
    let mut clipped = 0.0;

    // Exact ∫(a + b·e^{−k t})² dt over [0, T], scaled by `g`: the
    // leakage integral for the linear-in-v regimes.
    let leak_integral_v = |a: f64, b: f64, k: f64, t: f64| -> f64 {
        if g == 0.0 {
            return 0.0;
        }
        if k <= 0.0 {
            // b is constant (no decay term): v = a + b.
            let vv = a + b;
            return g * vv * vv * t;
        }
        let e1 = -(-k * t).exp_m1(); // 1 − e^{−kT}
        let e2 = -(-2.0 * k * t).exp_m1(); // 1 − e^{−2kT}
        g * (a * a * t + 2.0 * a * b * e1 / k + b * b * e2 / (2.0 * k))
    };

    for _ in 0..64 {
        if remaining <= 0.0 {
            break;
        }
        if let Some(vs) = v_stop {
            if v >= vs {
                break;
            }
        }
        let target = v_stop.unwrap_or(f64::INFINITY).min(v_max);
        let drain_on = p_drain > 0.0 && v > v_drain_min;

        // Overvoltage clamp hold: input refills leakage (and the drain,
        // if active at the clamp); the rest burns.
        if v >= v_max - 1e-12 {
            let i_in = if p > 0.0 {
                (p / v_max.max(V_FLOOR)).min(I_LIMIT)
            } else {
                0.0
            };
            let p_d = if p_drain > 0.0 && v_max > v_drain_min {
                p_drain
            } else {
                0.0
            };
            let p_leak = g * v_max * v_max;
            let p_arrive = i_in * v_max;
            if p_arrive >= p_leak + p_d {
                leaked += p_leak * remaining;
                drained += p_d * remaining;
                clipped += (p_arrive - p_leak - p_d) * remaining;
                // Replacement charge arrives continuously; v stays put.
                return Some(IdleSolution {
                    elapsed: horizon,
                    v_final: v_max,
                    leaked,
                    drained,
                    clipped,
                });
            }
            // Outflow outruns the input: fall through and decay below
            // the clamp via the ordinary regimes.
        }

        // Exactly at the drain threshold (a state the pin case below
        // itself produces, and where `drain_on`'s strict comparison
        // matches the reference's `v > V_d` check):
        //
        // * Chatter equilibrium — input strong enough to climb with the
        //   drain off, too weak with it on. The fine-step reference
        //   oscillates within one step of the threshold; the continuum
        //   limit pins the rail there, splitting the input between
        //   leakage and the management drain.
        // * Pass-through — input strong enough to climb even with the
        //   drain on. Hop an ulp above the threshold so the rest of the
        //   rise integrates with the drain active (classifying from
        //   exactly the threshold would otherwise run drain-off all the
        //   way to the target).
        if p_drain > 0.0 && p > 0.0 && (v - v_drain_min).abs() <= 1e-9 && v_drain_min >= V_FLOOR {
            let u = v_drain_min * v_drain_min;
            let rising_below = p - g * u > 0.0;
            let falling_above = p - p_drain - g * u <= 0.0;
            if rising_below && falling_above && v_drain_min < target && p / v_drain_min < I_LIMIT {
                leaked += g * u * remaining;
                drained += (p - g * u) * remaining;
                v = v_drain_min;
                remaining = 0.0;
                break;
            }
            if rising_below && !falling_above && v <= v_drain_min {
                v = f64::from_bits(v_drain_min.to_bits() + 1);
                continue; // reclassify with the drain active
            }
        }

        // Constant-current regimes: linear ODE C·dv/dt = i − G·v. Only
        // closed-form while the drain is off.
        let const_current = if p <= 0.0 && !drain_on {
            Some((0.0, f64::INFINITY)) // pure decay everywhere
        } else if p <= 0.0 {
            None // pure drain decay: linear in u, handled below
        } else if v < V_FLOOR {
            Some(((p / V_FLOOR).min(I_LIMIT), V_FLOOR))
        } else if p / v >= I_LIMIT {
            Some((I_LIMIT, p / I_LIMIT))
        } else {
            None
        };

        if let Some((i, regime_top)) = const_current {
            if drain_on {
                return None; // constant current + constant power: no closed form
            }
            let k = g / c;
            let slope0 = (i - g * v) / c;
            // Crossing the drain threshold from below toggles the ODE,
            // so it bounds the regime like the stop/clamp target does.
            let mut upper = target.min(regime_top);
            if p_drain > 0.0 && v < v_drain_min {
                upper = upper.min(v_drain_min);
            }
            if slope0 <= 0.0 {
                // Decaying (or flat): stays in regime; integrate out.
                let (a, b) = if g > 0.0 {
                    (i / g, v - i / g)
                } else {
                    (0.0, v)
                };
                let v_end = if g > 0.0 {
                    a + b * (-k * remaining).exp()
                } else {
                    v // i == 0 && g == 0: nothing moves
                };
                leaked += leak_integral_v(a, b, k, remaining);
                v = v_end;
                remaining = 0.0;
                break;
            }
            // Rising: time to the regime/target boundary.
            let (a, b) = if g > 0.0 {
                (i / g, v - i / g)
            } else {
                (v, 0.0)
            };
            let t_hit = if g > 0.0 {
                let ratio = (upper - a) / (v - a);
                if ratio <= 0.0 || ratio >= 1.0 {
                    f64::INFINITY // boundary at/behind the asymptote
                } else {
                    -ratio.ln() / k
                }
            } else {
                (upper - v) * c / i
            };
            if t_hit >= remaining {
                let v_end = if g > 0.0 {
                    a + b * (-k * remaining).exp()
                } else {
                    v + i * remaining / c
                };
                leaked += if g > 0.0 {
                    leak_integral_v(a, b, k, remaining)
                } else {
                    0.0
                };
                v = v_end.min(upper);
                remaining = 0.0;
                break;
            }
            leaked += if g > 0.0 {
                leak_integral_v(a, b, k, t_hit)
            } else {
                0.0
            };
            remaining -= t_hit;
            // Land an ulp past the boundary so the next iteration
            // classifies into the adjacent regime.
            v = f64::from_bits(upper.to_bits() + 1);
            continue;
        }

        // Power-limited regime (with the drain folded into the source
        // term when active): linear ODE in u = v²,
        // du/dt = (2/C)(p_net − G·u).
        let p_net = if drain_on { p - p_drain } else { p };
        let u = v * v;
        let k2 = 2.0 * g / c;
        let du0 = 2.0 * (p_net - g * u) / c;
        // Regime bounds: rising caps at the stop/clamp target or the
        // drain threshold from below; decaying exits at the drain
        // threshold from above (the drain switches off there).
        let upper_v = if !drain_on && p_drain > 0.0 && v < v_drain_min {
            target.min(v_drain_min)
        } else {
            target
        };
        let lower_v = if drain_on && v_drain_min >= V_FLOOR {
            v_drain_min
        } else {
            0.0
        };

        let ueq = if g > 0.0 { p_net / g } else { 0.0 };
        let u_after = |tt: f64| -> f64 {
            if g > 0.0 {
                ueq + (u - ueq) * (-k2 * tt).exp()
            } else {
                u + 2.0 * p_net * tt / c
            }
        };
        let leak_over = |tt: f64| -> f64 {
            if g > 0.0 {
                // ∫u dt for u = ueq + (u0−ueq)e^{−k2 t}.
                let e1 = -(-k2 * tt).exp_m1();
                g * (ueq * tt + (u - ueq) * e1 / k2)
            } else {
                0.0
            }
        };

        if du0 <= 0.0 {
            // Decaying toward u_eq (negative when the drain outruns the
            // input); the only exit is the drain threshold from above.
            let lower_u = lower_v * lower_v;
            let t_exit = if lower_u > 0.0 && u > lower_u {
                if g > 0.0 {
                    if ueq < lower_u {
                        let ratio = (lower_u - ueq) / (u - ueq);
                        -ratio.ln() / k2
                    } else {
                        f64::INFINITY // equilibrium above the boundary
                    }
                } else if p_net < 0.0 {
                    (lower_u - u) * c / (2.0 * p_net)
                } else {
                    f64::INFINITY // g == 0 && p_net == 0: flat
                }
            } else {
                f64::INFINITY
            };
            if t_exit >= remaining {
                leaked += leak_over(remaining);
                if drain_on {
                    drained += p_drain * remaining;
                }
                v = u_after(remaining).max(0.0).sqrt();
                remaining = 0.0;
                break;
            }
            leaked += leak_over(t_exit);
            if drain_on {
                drained += p_drain * t_exit;
            }
            remaining -= t_exit;
            // Land an ulp below the threshold: drain off next iteration.
            v = f64::from_bits(lower_v.to_bits() - 1);
            continue;
        }

        // Rising toward the regime's upper boundary.
        let upper_u = upper_v * upper_v;
        let t_hit = if g > 0.0 {
            let ratio = (upper_u - ueq) / (u - ueq);
            if ratio <= 0.0 || ratio >= 1.0 {
                f64::INFINITY // boundary at/behind the asymptote
            } else {
                -ratio.ln() / k2
            }
        } else {
            (upper_u - u) * c / (2.0 * p_net)
        };
        if t_hit >= remaining {
            let u_end = u_after(remaining).min(upper_u);
            leaked += leak_over(remaining);
            if drain_on {
                drained += p_drain * remaining;
            }
            v = u_end.max(0.0).sqrt();
            remaining = 0.0;
            break;
        }
        leaked += leak_over(t_hit);
        if drain_on {
            drained += p_drain * t_hit;
        }
        remaining -= t_hit;
        if let Some(vs) = v_stop {
            if upper_v >= vs {
                v = vs;
                break;
            }
        }
        v = f64::from_bits(upper_v.to_bits() + 1).min(v_max);
    }

    Some(IdleSolution {
        elapsed: horizon - remaining,
        v_final: v,
        leaked,
        drained,
        clipped,
    })
}

/// Two-pass quantized integration for `idle_advance` implementations:
/// pass 1 finds where (if at all) the trajectory crosses `v_stop`; the
/// crossing time is rounded *up* onto the `fine_dt` grid so the power
/// gate observes the enable crossing at the same timestep quantization
/// as the fixed-dt reference kernel; pass 2 integrates exactly that long
/// to book the energy flows. When pass 1 ran the full horizon without
/// stopping (the common long-charge-phase case), its solution already is
/// the answer. Returns the advanced time and the matching solution, or
/// `None` when the trajectory has no closed form (see [`integrate`]).
pub fn integrate_quantized(
    ode: &ChargeOde,
    v_start: f64,
    duration: f64,
    v_stop: f64,
    fine_dt: f64,
) -> Option<(f64, IdleSolution)> {
    assert!(fine_dt > 0.0, "fine timestep must be positive");
    if v_start >= v_stop || duration <= 0.0 {
        return Some((
            0.0,
            IdleSolution {
                v_final: v_start,
                ..IdleSolution::default()
            },
        ));
    }
    let probe = integrate(ode, v_start, duration, Some(v_stop))?;
    if probe.elapsed >= duration {
        return Some((duration, probe));
    }
    // Crossed early: quantize the crossing up to the step grid.
    let t_adv = ((probe.elapsed / fine_dt).ceil() * fine_dt)
        .max(fine_dt)
        .min(duration);
    let fin = integrate(ode, v_start, t_adv, None)?;
    Some((t_adv, fin))
}

/// One powered-sleep integration problem: the idle ODE plus a constant
/// *current* load at the rail — the LPM3 MCU draw and any peripheral the
/// workload holds through the sleep stretch. The governing equation is
///
/// ```text
/// C·dv/dt = i_in(v) − G·v − I_load − [v > V_d]·P_d/v
/// ```
///
/// Multiplying by `v` puts every regime in one quadratic normal form,
/// `C·v·dv/dt = q(v) = γ + β·v − G·v²` (constant-current input folds
/// into `β`, power-limited input and the management drain into `γ`), so
/// `t(v)`, `∫v dt`, and — via the energy identity `∫q dt = ΔE` — every
/// ledger flow have exact log/atan primitives. Unlike the MCU-off
/// solver, the mixed constant-current-plus-constant-power case is *not*
/// a fallback here: the quadratic form covers it.
#[derive(Clone, Copy, Debug)]
pub struct PoweredOde {
    /// Equivalent capacitance at the rail (F).
    pub c: f64,
    /// Leakage conductance, `I_leak(v) = g·v` (S).
    pub g: f64,
    /// Overvoltage clamp (V).
    pub v_max: f64,
    /// Input power offered at the rail (W, ≥ 0).
    pub p_in: f64,
    /// Constant-current load at the rail (A, ≥ 0): MCU sleep current
    /// plus any peripheral held through the stretch.
    pub i_load: f64,
    /// Constant management power drawn while `v > v_drain_min` (W).
    pub p_drain: f64,
    /// Voltage above which `p_drain` is active.
    pub v_drain_min: f64,
}

/// Result of one closed-form powered integration, with every ledger
/// flow closed so `delivered − leaked − drained − load_consumed −
/// clipped == ΔE` to machine precision.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoweredSolution {
    /// Time integrated (≤ the requested horizon; shorter only when the
    /// stop voltage was reached first).
    pub elapsed: f64,
    /// Terminal voltage.
    pub v_final: f64,
    /// Energy the harvester delivered into storage (incl. clipped).
    pub delivered: f64,
    /// Energy lost to leakage, `∫ G·v² dt`.
    pub leaked: f64,
    /// Energy consumed by the management drain.
    pub drained: f64,
    /// Energy consumed by the constant-current load, `I·∫v dt`.
    pub load_consumed: f64,
    /// Energy burned by the overvoltage clamp.
    pub clipped: f64,
}

/// Antiderivative bundle for `q(v) = a·v² + b·v + c`: `i1 = ∫ v/q dv`
/// gives crossing times (`t = C·Δi1`), `i2 = ∫ v²/q dv` the load
/// integral (`∫v dt = C·Δi2`, or better conditioned, `r·t` plus `C`
/// times [`Quad::excess_over_root`]). Only evaluated on root-free
/// intervals —
/// the walker confines each segment between its regime boundaries and
/// the nearest equilibrium, where `q` keeps one sign.
#[derive(Clone, Copy, Debug)]
struct Quad {
    a: f64,
    b: f64,
    c: f64,
}

impl Quad {
    #[inline]
    fn q(&self, v: f64) -> f64 {
        (self.a * v + self.b) * v + self.c
    }

    /// Antiderivative of `1/q`.
    fn i0(&self, v: f64) -> f64 {
        let Quad { a, b, c } = *self;
        if a == 0.0 {
            if b == 0.0 {
                return v / c;
            }
            return (b * v + c).abs().ln() / b;
        }
        let disc = b * b - 4.0 * a * c;
        if disc > 0.0 {
            let sq = disc.sqrt();
            let r1 = (-b - sq) / (2.0 * a);
            let r2 = (-b + sq) / (2.0 * a);
            ((v - r2) / (v - r1)).abs().ln() / (a * (r2 - r1))
        } else if disc == 0.0 {
            let r = -b / (2.0 * a);
            -1.0 / (a * (v - r))
        } else {
            let sq = (-disc).sqrt();
            2.0 / sq * ((2.0 * a * v + b) / sq).atan()
        }
    }

    /// Antiderivative of `v/q`.
    fn i1(&self, v: f64) -> f64 {
        let Quad { a, b, c } = *self;
        if a == 0.0 {
            if b == 0.0 {
                return v * v / (2.0 * c);
            }
            return v / b - (c / b) * self.i0(v);
        }
        self.q(v).abs().ln() / (2.0 * a) - (b / (2.0 * a)) * self.i0(v)
    }

    /// Antiderivative of `v²/q`.
    fn i2(&self, v: f64) -> f64 {
        let Quad { a, b, c } = *self;
        if a == 0.0 {
            if b == 0.0 {
                return v * v * v / (3.0 * c);
            }
            return v * v / (2.0 * b) - (c / b) * self.i1(v);
        }
        v / a - (b / a) * self.i1(v) - (c / a) * self.i0(v)
    }

    /// `∫ v·(v − r)/q dv` from `v0` to `v1`, for a root `r` of `q`: so
    /// `C` times it is `∫(v − r) dt` along a trajectory settling on `r`.
    /// Factoring `q = (v − r)·(a·v + β)` with `β = b + a·r` leaves the
    /// integrand `v/(a·v + β)`, which is regular at `r` — unlike `i2`,
    /// whose difference cancels catastrophically there. With
    /// `h = Δv/(1 + u·v0)`, `u = a/β` and `z = u·h`, the integral is
    /// `(v0·h + h²·φ(z))/β` for `φ(z) = (z − ln(1 + z))/z²`, a series
    /// near `z = 0` (the leak-free `a = 0` case is `φ = ½`). `None` at a
    /// double root (`q'(r) = a·r + β = 0`, as for pure leakage decay
    /// toward 0 V), where the cofactor vanishes at `r` too.
    fn excess_over_root(&self, r: f64, v0: f64, v1: f64) -> Option<f64> {
        let beta = self.b + self.a * r;
        if self.a * r + beta == 0.0 {
            return None;
        }
        let u = self.a / beta;
        let h = (v1 - v0) / (1.0 + u * v0);
        let z = u * h;
        let phi = if z.abs() < 1e-3 {
            0.5 - z * (1.0 / 3.0 - z * (0.25 - z * (0.2 - z / 6.0)))
        } else {
            (z - z.ln_1p()) / (z * z)
        };
        Some((v0 * h + h * h * phi) / beta).filter(|x| x.is_finite())
    }

    /// Real roots in ascending order.
    fn roots(&self) -> (Option<f64>, Option<f64>) {
        let Quad { a, b, c } = *self;
        if a == 0.0 {
            if b == 0.0 {
                return (None, None);
            }
            return (Some(-c / b), None);
        }
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return (None, None);
        }
        let sq = disc.sqrt();
        let r1 = (-b - sq) / (2.0 * a);
        let r2 = (-b + sq) / (2.0 * a);
        if r1 <= r2 {
            (Some(r1), Some(r2))
        } else {
            (Some(r2), Some(r1))
        }
    }

    /// Inverts `t(v) = target` on the monotone stretch from `v0`
    /// toward `v_lim` (`v_lim` may be an equilibrium root, where
    /// `t → ∞`; it is never evaluated itself). Newton with a bisection
    /// safeguard: `dt/dv = C·v/q(v)` is exact, so from the Euler
    /// initial guess the solve usually lands in two or three
    /// iterations — this runs once per poll segment on the controller
    /// buffers' sleep strides, so it is hot.
    fn invert(&self, cc: f64, v0: f64, v_lim: f64, target: f64) -> f64 {
        let base = self.i1(v0);
        let rising = v0 <= v_lim;
        let (mut lo, mut hi) = if rising { (v0, v_lim) } else { (v_lim, v0) };
        let mut v = v0 + self.q(v0) / (cc * v0) * target;
        if !(v > lo && v < hi) {
            v = 0.5 * (lo + hi);
        }
        for _ in 0..60 {
            let t = cc * (self.i1(v) - base);
            let err = t - target;
            // Tighten the bracket (t grows along the trajectory: with
            // v0 on the `lo` side when rising, the `hi` side when not).
            if (err < 0.0) == rising {
                lo = v;
            } else {
                hi = v;
            }
            if err.abs() <= 1e-12 * target.abs() {
                break;
            }
            let q = self.q(v);
            let mut next = if q != 0.0 {
                v - err * q / (cc * v)
            } else {
                0.5 * (lo + hi)
            };
            if !(next > lo && next < hi) {
                next = 0.5 * (lo + hi);
            }
            if next == v || lo >= hi {
                break;
            }
            v = next;
        }
        v
    }
}

/// Integrates the powered ODE from `v_start` for up to `horizon`
/// seconds, stopping early once the voltage *falls to* `v_stop` (the
/// power gate's brown-out threshold) or — when `v_wake` is given —
/// *rises to* it (the predicted crossing of a sleeping workload's
/// §3.4.1 energy threshold). Rising trajectories otherwise hold at the
/// overvoltage clamp. Returns `None` only for malformed inputs; every
/// regime has a closed form.
pub fn integrate_powered(
    ode: &PoweredOde,
    v_start: f64,
    horizon: f64,
    v_stop: f64,
    v_wake: Option<f64>,
) -> Option<PoweredSolution> {
    const V_FLOOR: f64 = CONVERSION_FLOOR.get();
    const I_LIMIT: f64 = CHARGE_CURRENT_LIMIT.get();
    let PoweredOde {
        c,
        g,
        v_max,
        p_in: p,
        i_load,
        p_drain,
        v_drain_min,
    } = *ode;
    // A powered stretch starts above the brown-out voltage; an empty
    // rail (or malformed problem — including any non-finite input, which
    // the kernel guard degrades to fine-stepping) is the fine-step
    // loop's business.
    let well_formed = c > 0.0
        && horizon.is_finite()
        && v_start > 0.0
        && v_start.is_finite()
        && p.is_finite()
        && i_load.is_finite()
        && g.is_finite()
        && p_drain.is_finite();
    if !well_formed {
        return None;
    }

    let mut v = v_start.min(v_max);
    let mut remaining = horizon;
    let mut sol = PoweredSolution {
        v_final: v,
        ..PoweredSolution::default()
    };

    // Books one integrated segment, closing the leakage flow against
    // the energy identity so the ledger balances exactly. `∫v dt` is
    // `c·Δi2` (a segment that cannot move books its start voltage), as
    // long as the leakage it closes on stays physical: on a monotone
    // segment `∫G·v² dt` lies between `G·lo²·t` and `G·hi²·t`. Outside
    // that band the `i2` difference has cancelled — near the root, or
    // under a small leakage against a milliamp load — and `∫v dt` is
    // re-taken as `root·t` plus the regular excess `∫(v − root) dt`
    // about a real root of `q`, which books the time a settled
    // trajectory sits at its root at the root's voltage.
    let book = |sol: &mut PoweredSolution,
                quad: &Quad,
                v0: f64,
                v1: f64,
                t: f64,
                i_const: Option<f64>,
                drain_on: bool,
                root: Option<f64>| {
        let drained = if drain_on { p_drain * t } else { 0.0 };
        let de = 0.5 * c * (v1 * v1 - v0 * v0);
        // (delivered, load, leaked) for one `∫v dt`: ∫q dt = ΔE ⇒
        // leaked = delivered − drained − load − ΔE exactly.
        let flows = |int_v: f64| {
            let delivered = match i_const {
                Some(i) => i * int_v,
                None => p * t,
            };
            let load = i_load * int_v;
            (delivered, load, delivered - drained - load - de)
        };
        let mut f = flows(if v1 == v0 {
            v0 * t
        } else {
            c * (quad.i2(v1) - quad.i2(v0))
        });
        let (lo, hi) = (v0.min(v1), v0.max(v1));
        let dust = 1e-12 * (f.0.abs() + f.1.abs() + de.abs() + drained);
        let physical =
            f.2.is_finite() && f.2 >= g * lo * lo * t - dust && f.2 <= g * hi * hi * t + dust;
        if !physical {
            if let Some(r) = root {
                if let Some(excess) = quad.excess_over_root(r, v0, v1) {
                    f = flows(r * t + c * excess);
                }
            }
        }
        let (_, load, leaked) = f;
        // Clamp the g = 0 case's rounding dust at zero and re-close.
        let leaked = leaked.max(0.0);
        sol.delivered += de + leaked + drained + load;
        sol.leaked += leaked;
        sol.drained += drained;
        sol.load_consumed += load;
        sol.elapsed += t;
        sol.v_final = v1;
    };

    for _ in 0..64 {
        if remaining <= 0.0 || v <= v_stop {
            break;
        }
        if let Some(vw) = v_wake {
            if v >= vw {
                break;
            }
        }

        // Overvoltage clamp hold: net inflow at the clamp burns in the
        // protection circuit while the rail sits pinned.
        if v >= v_max - 1e-12 {
            let i_in = if p > 0.0 {
                (p / v_max.max(V_FLOOR)).min(I_LIMIT)
            } else {
                0.0
            };
            let p_d = if p_drain > 0.0 && v_max > v_drain_min {
                p_drain
            } else {
                0.0
            };
            let inflow = i_in * v_max;
            let outflow = g * v_max * v_max + i_load * v_max + p_d;
            if inflow >= outflow {
                sol.delivered += inflow * remaining;
                sol.leaked += g * v_max * v_max * remaining;
                sol.drained += p_d * remaining;
                sol.load_consumed += i_load * v_max * remaining;
                sol.clipped += (inflow - outflow) * remaining;
                sol.elapsed += remaining;
                sol.v_final = v_max;
                return Some(sol);
            }
            // Outflow outruns the clamp input: decays below via the
            // ordinary regimes.
        }

        let drain_on = p_drain > 0.0 && v > v_drain_min;

        // Input regime at v: constant current (dark / cold-start floor /
        // current-limited) or power-limited, with its v-interval.
        let (i_const, regime_lo, regime_hi) = if p <= 0.0 {
            (Some(0.0), 0.0, f64::INFINITY)
        } else if v < V_FLOOR {
            (Some((p / V_FLOOR).min(I_LIMIT)), 0.0, V_FLOOR)
        } else if p / v >= I_LIMIT {
            (Some(I_LIMIT), V_FLOOR, p / I_LIMIT)
        } else {
            (None, (p / I_LIMIT).max(V_FLOOR), f64::INFINITY)
        };

        let gamma = match i_const {
            Some(_) => 0.0,
            None => p,
        } - if drain_on { p_drain } else { 0.0 };
        let beta = i_const.unwrap_or(0.0) - i_load;
        let quad = Quad {
            a: -g,
            b: beta,
            c: gamma,
        };

        let q0 = quad.q(v);
        if q0 == 0.0 {
            // Equilibrium: inflow exactly balances outflow; the rail
            // holds for the rest of the horizon.
            let delivered = match i_const {
                Some(i) => i * v,
                None => p,
            };
            sol.delivered += delivered * remaining;
            sol.leaked += g * v * v * remaining;
            sol.drained += if drain_on { p_drain * remaining } else { 0.0 };
            sol.load_consumed += i_load * v * remaining;
            sol.elapsed += remaining;
            sol.v_final = v;
            return Some(sol);
        }

        // Regime boundary in the direction of motion (the drain
        // threshold toggles the ODE, so it bounds like the rest).
        let rising = q0 > 0.0;
        let vb = if rising {
            let mut vb = regime_hi.min(v_max);
            if let Some(vw) = v_wake {
                vb = vb.min(vw);
            }
            if p_drain > 0.0 && !drain_on && v < v_drain_min {
                vb = vb.min(v_drain_min);
            }
            vb
        } else {
            let mut vb = regime_lo.max(v_stop).max(0.0);
            if drain_on && v_drain_min > vb {
                vb = v_drain_min;
            }
            vb
        };

        // Equilibrium root strictly between v and the boundary makes the
        // boundary unreachable: integrate out the horizon toward it.
        let (r_lo, r_hi) = quad.roots();
        let blocking = if rising {
            [r_lo, r_hi]
                .into_iter()
                .flatten()
                .filter(|&r| r > v && r <= vb)
                .fold(None::<f64>, |m, r| Some(m.map_or(r, |m| m.min(r))))
        } else {
            [r_lo, r_hi]
                .into_iter()
                .flatten()
                .filter(|&r| r < v && r >= vb)
                .fold(None::<f64>, |m, r| Some(m.map_or(r, |m| m.max(r))))
        };

        if let Some(r) = blocking {
            let v_end = quad.invert(c, v, r, remaining);
            book(
                &mut sol,
                &quad,
                v,
                v_end,
                remaining,
                i_const,
                drain_on,
                Some(r),
            );
            return Some(sol);
        }
        // No root lies on this segment: anchor its booking on the real
        // root nearest the rail, whose cofactor stays farthest from 0.
        let anchor = [r_lo, r_hi]
            .into_iter()
            .flatten()
            .min_by(|x, y| (x - v).abs().total_cmp(&(y - v).abs()));

        let t_hit = c * (quad.i1(vb) - quad.i1(v));
        if !t_hit.is_finite() || t_hit >= remaining {
            let v_end = quad.invert(c, v, vb, remaining);
            book(
                &mut sol, &quad, v, v_end, remaining, i_const, drain_on, anchor,
            );
            return Some(sol);
        }
        book(&mut sol, &quad, v, vb, t_hit, i_const, drain_on, anchor);
        remaining -= t_hit;
        // Land an ulp past the boundary so the next iteration
        // classifies into the adjacent regime (never above the clamp,
        // never below an empty rail).
        if !rising && vb <= 0.0 {
            break;
        }
        v = if rising {
            f64::from_bits(vb.to_bits() + 1).min(v_max)
        } else {
            f64::from_bits(vb.to_bits() - 1)
        };
        sol.v_final = v;
    }

    Some(sol)
}

/// Two-pass quantized powered integration, mirroring
/// [`integrate_quantized`]: pass 1 finds the brown-out (or wake-energy)
/// crossing, if any; the crossing time is rounded *up* onto the
/// `fine_dt` grid so the power gate — and the sleeping workload's
/// per-step energy check — observe it at the same timestep quantization
/// as the fixed-dt reference; pass 2 integrates exactly that long for
/// the energy books. Returns the advanced time and the matching
/// solution.
pub fn integrate_powered_quantized(
    ode: &PoweredOde,
    v_start: f64,
    duration: f64,
    v_stop: f64,
    v_wake: Option<f64>,
    fine_dt: f64,
) -> Option<(f64, PoweredSolution)> {
    assert!(fine_dt > 0.0, "fine timestep must be positive");
    let woken = |v: f64| v_wake.is_some_and(|vw| v >= vw);
    if v_start <= v_stop || woken(v_start) || duration <= 0.0 {
        return Some((
            0.0,
            PoweredSolution {
                v_final: v_start,
                ..PoweredSolution::default()
            },
        ));
    }
    let probe = integrate_powered(ode, v_start, duration, v_stop, v_wake)?;
    if probe.elapsed >= duration {
        return Some((duration, probe));
    }
    if probe.v_final > v_stop && !woken(probe.v_final) {
        // Regime-walker exhaustion (pathological chatter): commit the
        // whole-step prefix and let the caller fine-step the rest.
        let t_adv = (probe.elapsed / fine_dt).floor() * fine_dt;
        if t_adv < fine_dt {
            return None;
        }
        let fin = integrate_powered(ode, v_start, t_adv, f64::NEG_INFINITY, None)?;
        return Some((t_adv, fin));
    }
    // Crossed a stop early: quantize the crossing up to the grid.
    let t_adv = ((probe.elapsed / fine_dt).ceil() * fine_dt)
        .max(fine_dt)
        .min(duration);
    let fin = integrate_powered(ode, v_start, t_adv, f64::NEG_INFINITY, None)?;
    Some((t_adv, fin))
}

/// Meet time of two *decoupled* trajectories: a bank charging from
/// `v_bank` under `bank` (diode-isolated, so it takes the whole
/// harvester input and no load) and a pack starting at `v_pack > v_bank`
/// under `pack` (load + overhead, no input). This is REACT's
/// un-equalized sleep state: the output diode blocks until the bank
/// terminal rises to the falling pack voltage, at which point the two
/// couple and move as one combined capacitor. Returns the first `t ≤
/// horizon` with `v_bank(t) ≥ v_pack(t)`, or `None` when the
/// trajectories do not meet within the horizon (or either closed form
/// declines).
///
/// Both trajectories have exact closed forms, so the crossing is found
/// by bisection on the *gap* `v_bank(t) − v_pack(t)` — each probe is two
/// O(regimes) solver calls, not a simulation. The gap is negative at 0
/// by precondition; the bracket `[lo, hi]` maintains `gap(lo) < 0 ≤
/// gap(hi)`, so the returned time errs at most `horizon·2⁻⁵⁰` late —
/// callers quantize it up onto the fine-step grid anyway.
pub fn staged_meet_time(
    bank: &ChargeOde,
    v_bank: f64,
    pack: &PoweredOde,
    v_pack: f64,
    horizon: f64,
) -> Option<f64> {
    if !horizon.is_finite() || horizon <= 0.0 || v_bank >= v_pack {
        return None;
    }
    let gap = |t: f64| -> Option<f64> {
        let vb = integrate(bank, v_bank, t, None)?.v_final;
        let vp = integrate_powered(pack, v_pack, t, f64::NEG_INFINITY, None)?.v_final;
        Some(vb - vp)
    };
    if gap(horizon)? < 0.0 {
        return None;
    }
    let (mut lo, mut hi) = (0.0_f64, horizon);
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if gap(mid)? < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ode(p_in: f64, p_drain: f64) -> ChargeOde {
        ChargeOde {
            c: 10e-3,
            g: 0.3e-6 / 5.5,
            v_max: 3.6,
            p_in,
            p_drain,
            v_drain_min: 0.5,
        }
    }

    #[test]
    fn zero_drain_charge_reaches_stop() {
        let sol = integrate(&ode(2e-3, 0.0), 0.0, 600.0, Some(3.3)).unwrap();
        assert!(sol.elapsed < 600.0, "should cross before the horizon");
        assert!((sol.v_final - 3.3).abs() < 1e-9);
        assert_eq!(sol.drained, 0.0);
    }

    #[test]
    fn drain_slows_the_charge() {
        let plain = integrate(&ode(2e-3, 0.0), 1.0, 600.0, Some(3.3)).unwrap();
        let drained = integrate(&ode(2e-3, 50e-6), 1.0, 600.0, Some(3.3)).unwrap();
        assert!(
            drained.elapsed > plain.elapsed * 1.005,
            "drain must delay the crossing: {} vs {}",
            drained.elapsed,
            plain.elapsed
        );
        assert!(drained.drained > 0.0);
    }

    #[test]
    fn drain_energy_is_power_times_time_above_threshold() {
        // Start above the threshold with strong input: drain runs the
        // whole horizon.
        let sol = integrate(&ode(5e-3, 20e-6), 1.0, 50.0, None).unwrap();
        assert!((sol.drained - 20e-6 * 50.0).abs() < 1e-12);
    }

    #[test]
    fn weak_input_pins_at_drain_threshold() {
        // 5 µW input < 20 µW drain: climbs to the threshold and chatters
        // there; the continuum limit holds the rail at the threshold with
        // the input split between leakage and drain.
        let sol = integrate(&ode(5e-6, 20e-6), 0.45, 2000.0, Some(3.3)).unwrap();
        assert!((sol.elapsed - 2000.0).abs() < 1e-9);
        assert!(
            (sol.v_final - 0.5).abs() < 1e-6,
            "pinned at threshold, got {}",
            sol.v_final
        );
        // All input energy accounted between leak and drain.
        let input_energy = 5e-6 * sol.elapsed;
        assert!((sol.leaked + sol.drained - input_energy).abs() < 0.05 * input_energy);
    }

    #[test]
    fn drain_decay_crosses_threshold_and_switches_off() {
        // No input: decays from 1 V through the 0.5 V threshold; below it
        // only leakage acts, so the voltage settles slowly rather than
        // draining to zero at constant power.
        let sol = integrate(&ode(0.0, 20e-6), 1.0, 5000.0, None).unwrap();
        assert!(sol.v_final < 0.5);
        assert!(
            sol.v_final > 0.2,
            "leak-only decay is slow: {}",
            sol.v_final
        );
        assert!(sol.drained > 0.0);
    }

    #[test]
    fn drain_stays_active_when_starting_exactly_at_threshold() {
        // The pin case commits v_final == v_drain_min exactly; a later
        // window with stronger input must integrate the rise *with* the
        // drain on, not classify drain-off from the boundary.
        let pinned = integrate(&ode(5e-6, 20e-6), 0.45, 2000.0, Some(3.3)).unwrap();
        assert_eq!(
            pinned.v_final, 0.5,
            "pin must land exactly on the threshold"
        );
        let resumed = integrate(&ode(2e-3, 20e-6), pinned.v_final, 600.0, Some(3.3)).unwrap();
        // Crossing time matches a run that merely passes through the
        // threshold (starting an ulp below), and the drain is booked for
        // the whole rise.
        let through = integrate(&ode(2e-3, 20e-6), 0.4999, 600.0, Some(3.3)).unwrap();
        assert!(
            (resumed.elapsed - through.elapsed).abs() < 0.01 * through.elapsed,
            "boundary start {} vs pass-through {}",
            resumed.elapsed,
            through.elapsed
        );
        assert!(
            (resumed.drained - 20e-6 * resumed.elapsed).abs() < 0.01 * resumed.drained,
            "drain must run for the whole rise: {} vs {}",
            resumed.drained,
            20e-6 * resumed.elapsed
        );
    }

    #[test]
    fn mixed_constant_current_drain_reports_no_closed_form() {
        // 30 mW at 0.6 V is past the 50 mA charge-current limit, with the
        // drain active: no elementary solution.
        assert!(integrate(&ode(30e-3, 20e-6), 0.6, 10.0, None).is_none());
    }

    #[test]
    fn quantized_crossing_lands_on_grid() {
        let (t_adv, sol) = integrate_quantized(&ode(2e-3, 0.0), 0.0, 600.0, 3.3, 1e-3).unwrap();
        let steps = t_adv / 1e-3;
        assert!((steps - steps.round()).abs() < 1e-6, "steps {steps}");
        assert!(sol.v_final >= 3.3 - 1e-6);
    }

    fn powered(p_in: f64, i_load: f64, p_drain: f64) -> PoweredOde {
        PoweredOde {
            c: 10e-3,
            g: 0.3e-6 / 5.5,
            v_max: 3.6,
            p_in,
            i_load,
            p_drain,
            v_drain_min: 0.5,
        }
    }

    /// Dense Euler reference of the same continuous powered ODE.
    fn euler_powered(ode: &PoweredOde, v0: f64, horizon: f64, v_stop: f64) -> (f64, f64) {
        const V_FLOOR: f64 = CONVERSION_FLOOR.get();
        const I_LIMIT: f64 = CHARGE_CURRENT_LIMIT.get();
        let dt = 1e-4;
        let mut v = v0;
        let mut t = 0.0;
        while t < horizon {
            if v <= v_stop {
                break;
            }
            let i_in = if ode.p_in > 0.0 {
                (ode.p_in / v.max(V_FLOOR)).min(I_LIMIT)
            } else {
                0.0
            };
            let p_d = if ode.p_drain > 0.0 && v > ode.v_drain_min {
                ode.p_drain / v
            } else {
                0.0
            };
            let dv = (i_in - ode.g * v - ode.i_load - p_d) * dt / ode.c;
            v = (v + dv).min(ode.v_max).max(0.0);
            t += dt;
        }
        (t, v)
    }

    #[test]
    fn powered_dark_drain_matches_euler_and_crosses_brownout() {
        // 200 µA LPM3+radio draw, no input: C·ΔV/I ≈ 75 s to brown-out.
        let o = powered(0.0, 200e-6, 0.0);
        let sol = integrate_powered(&o, 3.3, 600.0, 1.8, None).unwrap();
        let (t_ref, _) = euler_powered(&o, 3.3, 600.0, 1.8);
        assert!(
            (sol.elapsed - t_ref).abs() < 0.01 * t_ref,
            "crossing {} vs euler {}",
            sol.elapsed,
            t_ref
        );
        assert!((sol.v_final - 1.8).abs() < 1e-6);
        assert!(sol.load_consumed > 0.0 && sol.delivered == 0.0);
    }

    #[test]
    fn powered_charge_rises_and_holds_at_clamp() {
        let o = powered(5e-3, 100e-6, 0.0);
        let sol = integrate_powered(&o, 2.0, 400.0, 1.8, None).unwrap();
        let (_, v_ref) = euler_powered(&o, 2.0, 400.0, 1.8);
        assert!((sol.elapsed - 400.0).abs() < 1e-9);
        assert!(
            (sol.v_final - v_ref).abs() < 0.01 * v_ref,
            "v {} vs euler {v_ref}",
            sol.v_final
        );
        assert!((sol.v_final - 3.6).abs() < 1e-9, "must reach the clamp");
        assert!(sol.clipped > 0.0);
    }

    #[test]
    fn powered_equilibrium_is_asymptotic() {
        // 2.5 mW input vs 1 mA load: equilibrium just under 2.5 V.
        let o = powered(2.5e-3, 1e-3, 0.0);
        let sol = integrate_powered(&o, 2.0, 2000.0, 0.5, None).unwrap();
        let (_, v_ref) = euler_powered(&o, 2.0, 2000.0, 0.5);
        assert!((sol.elapsed - 2000.0).abs() < 1e-9);
        assert!(
            (sol.v_final - v_ref).abs() < 0.005,
            "v {} vs euler {v_ref}",
            sol.v_final
        );
        assert!((sol.v_final - 2.5).abs() < 0.01, "v {}", sol.v_final);
    }

    #[test]
    fn powered_mixed_drain_and_load_matches_euler() {
        // The case the MCU-off solver refuses (constant current +
        // constant power): the quadratic form handles it exactly.
        let o = powered(1e-3, 150e-6, 60e-6);
        for v0 in [3.3, 2.2, 1.9] {
            let sol = integrate_powered(&o, v0, 300.0, 1.8, None).unwrap();
            let (t_ref, v_ref) = euler_powered(&o, v0, 300.0, 1.8);
            assert!(
                (sol.elapsed - t_ref).abs() < 0.01 * t_ref.max(1.0),
                "v0={v0}: t {} vs euler {t_ref}",
                sol.elapsed
            );
            assert!(
                (sol.v_final - v_ref).abs() < 0.01 * v_ref.max(0.1),
                "v0={v0}: v {} vs euler {v_ref}",
                sol.v_final
            );
            assert!(sol.drained > 0.0);
        }
    }

    #[test]
    fn powered_books_balance_exactly() {
        for (p, i, d, v0) in [
            (0.0, 2e-6, 0.0, 3.3),
            (2e-3, 150e-6, 0.0, 2.0),
            (5e-3, 1e-3, 60e-6, 1.9),
            (20e-3, 100e-6, 0.0, 3.55),
            (0.0, 5e-3, 20e-6, 3.0),
        ] {
            let o = powered(p, i, d);
            let sol = integrate_powered(&o, v0, 250.0, 0.4, None).unwrap();
            let de = 0.5 * o.c * (sol.v_final * sol.v_final - v0 * v0);
            let resid =
                sol.delivered - sol.leaked - sol.drained - sol.load_consumed - sol.clipped - de;
            assert!(
                resid.abs() < 1e-9 * sol.delivered.max(sol.load_consumed).max(1e-6),
                "p={p} i={i} d={d}: residual {resid}"
            );
        }
    }

    #[test]
    fn powered_quantized_crossing_lands_on_grid() {
        let o = powered(0.0, 500e-6, 0.0);
        let (t_adv, sol) = integrate_powered_quantized(&o, 3.3, 600.0, 1.8, None, 1e-3).unwrap();
        let steps = t_adv / 1e-3;
        assert!((steps - steps.round()).abs() < 1e-6, "steps {steps}");
        assert!(sol.v_final <= 1.8 + 1e-9, "v {}", sol.v_final);
        assert!(t_adv < 600.0);
    }

    #[test]
    fn conservation_in_every_mode() {
        for (p, d, v0) in [
            (2e-3, 0.0, 0.0),
            (2e-3, 20e-6, 0.0),
            (0.0, 20e-6, 2.5),
            (0.0, 0.0, 2.5),
            (10e-3, 20e-6, 3.55),
        ] {
            let o = ode(p, d);
            let sol = integrate(&o, v0, 300.0, None).unwrap();
            let e0 = 0.5 * o.c * v0 * v0;
            let e1 = 0.5 * o.c * sol.v_final * sol.v_final;
            let input = sol.leaked + sol.drained + sol.clipped + (e1 - e0);
            // Input energy implied by the books must be non-negative and
            // bounded by the offered power.
            assert!(
                input >= -1e-9,
                "p={p} d={d} v0={v0}: negative implied input {input}"
            );
            assert!(
                input <= p * sol.elapsed + 1e-9,
                "p={p} d={d} v0={v0}: implied input {input} exceeds offered {}",
                p * sol.elapsed
            );
        }
    }
}
