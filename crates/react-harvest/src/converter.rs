//! Load-dependent power converter models.

use react_units::{Volts, Watts};

/// Piecewise-linear efficiency as a function of input power.
///
/// Points are `(input power in watts, efficiency 0..=1)` and must be
/// sorted by input power. Below the first point efficiency falls linearly
/// to zero at zero input; above the last point it is held constant.
#[derive(Clone, Debug, PartialEq)]
pub struct EfficiencyCurve {
    points: Vec<(f64, f64)>,
}

impl EfficiencyCurve {
    /// Builds a curve from sorted `(input_w, efficiency)` points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one point is supplied, points are unsorted,
    /// or an efficiency is outside `[0, 1]`.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "efficiency curve needs points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "efficiency curve points must be sorted");
        }
        for &(p, e) in &points {
            assert!(p >= 0.0, "negative input power");
            assert!((0.0..=1.0).contains(&e), "efficiency outside [0,1]");
        }
        Self { points }
    }

    /// Efficiency at `input` power.
    pub fn at(&self, input: Watts) -> f64 {
        let p = input.get();
        if p <= 0.0 {
            return 0.0;
        }
        let first = self.points[0];
        if p <= first.0 {
            // Linear ramp from zero.
            return first.1 * p / first.0;
        }
        for w in self.points.windows(2) {
            let (p0, e0) = w[0];
            let (p1, e1) = w[1];
            if p <= p1 {
                let f = (p - p0) / (p1 - p0);
                return e0 + f * (e1 - e0);
            }
        }
        self.points.last().expect("nonempty").1
    }
}

/// Which converter is modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConverterKind {
    /// Lossless pass-through (analytic experiments).
    Ideal,
    /// Powercast P2110B-class RF-to-DC rectifier + boost.
    RfRectifier,
    /// TI bq25570-class solar boost charger with MPPT and cold start.
    BoostCharger,
}

impl ConverterKind {
    /// Table-style display label.
    pub fn label(self) -> &'static str {
        match self {
            ConverterKind::Ideal => "ideal",
            ConverterKind::RfRectifier => "rf-rectifier",
            ConverterKind::BoostCharger => "boost-charger",
        }
    }

    /// Builds the converter model of this kind — the dispatch scenario
    /// declarations use, so a `ConverterKind` is a complete, copyable
    /// converter description.
    pub fn build(self) -> Converter {
        match self {
            ConverterKind::Ideal => Converter::ideal(),
            ConverterKind::RfRectifier => Converter::rf_rectifier(),
            ConverterKind::BoostCharger => Converter::boost_charger(),
        }
    }
}

/// A harvester power converter: available ambient power in, rail power
/// out, with load-dependent efficiency (§4.3).
#[derive(Clone, Debug, PartialEq)]
pub struct Converter {
    kind: ConverterKind,
    curve: EfficiencyCurve,
    /// Below this available power the converter cannot start at all.
    cold_start_floor: Watts,
    /// Conversion stops above this rail voltage (converter OVP) — the
    /// buffer's own clamp usually binds first.
    max_output_voltage: Volts,
}

impl Converter {
    /// Lossless pass-through.
    pub fn ideal() -> Self {
        Self {
            kind: ConverterKind::Ideal,
            curve: EfficiencyCurve::new(vec![(1e-9, 1.0)]),
            cold_start_floor: Watts::ZERO,
            max_output_voltage: Volts::new(1e9),
        }
    }

    /// P2110B-class RF rectifier: peaks near 55 % around 10 mW input,
    /// poor below ~100 µW.
    pub fn rf_rectifier() -> Self {
        Self {
            kind: ConverterKind::RfRectifier,
            curve: EfficiencyCurve::new(vec![
                (10e-6, 0.05),
                (100e-6, 0.30),
                (1e-3, 0.50),
                (10e-3, 0.55),
                (100e-3, 0.50),
            ]),
            cold_start_floor: Watts::from_micro(5.0),
            max_output_voltage: Volts::new(4.2),
        }
    }

    /// bq25570-class solar boost charger: ≈80–90 % over the useful range,
    /// 15 µW cold-start floor.
    pub fn boost_charger() -> Self {
        Self {
            kind: ConverterKind::BoostCharger,
            curve: EfficiencyCurve::new(vec![
                (10e-6, 0.30),
                (100e-6, 0.70),
                (1e-3, 0.80),
                (10e-3, 0.90),
                (100e-3, 0.85),
            ]),
            cold_start_floor: Watts::from_micro(15.0),
            max_output_voltage: Volts::new(4.2),
        }
    }

    /// The modelled device family.
    pub fn kind(&self) -> ConverterKind {
        self.kind
    }

    /// Power delivered to the rail for `available` ambient power at rail
    /// voltage `v_out`: zero at or below the cold-start floor or once the
    /// OVP cutoff stops conversion at `v_out`, `η(P)·P` otherwise.
    pub fn output_power(&self, available: Watts, v_out: Volts) -> Watts {
        if self.ovp_cuts_off(v_out) {
            return Watts::ZERO;
        }
        self.converted_power(available)
    }

    /// The rail-voltage-independent part of [`Converter::output_power`]:
    /// zero at or below the cold-start floor, `η(P)·P` above it. A
    /// piecewise-constant source stays piecewise-constant through it, so
    /// one call covers a whole source segment.
    pub(crate) fn converted_power(&self, available: Watts) -> Watts {
        if available <= self.cold_start_floor {
            return Watts::ZERO;
        }
        available * self.curve.at(available)
    }

    /// Whether the OVP cutoff stops conversion at rail voltage `v_out`.
    #[inline]
    pub(crate) fn ovp_cuts_off(&self, v_out: Volts) -> bool {
        v_out >= self.max_output_voltage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_interpolates() {
        let c = EfficiencyCurve::new(vec![(1e-3, 0.4), (10e-3, 0.6)]);
        assert!((c.at(Watts::from_milli(1.0)) - 0.4).abs() < 1e-12);
        assert!((c.at(Watts::from_milli(10.0)) - 0.6).abs() < 1e-12);
        assert!((c.at(Watts::from_milli(5.5)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn curve_ramps_to_zero_below_first_point() {
        let c = EfficiencyCurve::new(vec![(1e-3, 0.4)]);
        assert!((c.at(Watts::from_micro(500.0)) - 0.2).abs() < 1e-12);
        assert_eq!(c.at(Watts::ZERO), 0.0);
    }

    #[test]
    fn curve_saturates_above_last_point() {
        let c = EfficiencyCurve::new(vec![(1e-3, 0.4), (10e-3, 0.6)]);
        assert!((c.at(Watts::new(1.0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_points_panic() {
        EfficiencyCurve::new(vec![(2e-3, 0.5), (1e-3, 0.4)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_efficiency_panics() {
        EfficiencyCurve::new(vec![(1e-3, 1.4)]);
    }

    #[test]
    fn ideal_passes_through() {
        let c = Converter::ideal();
        let out = c.output_power(Watts::from_milli(3.0), Volts::new(2.0));
        assert!((out.to_milli() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rf_rectifier_efficiency_is_load_dependent() {
        let c = Converter::rf_rectifier();
        let lo = c.output_power(Watts::from_micro(100.0), Volts::new(2.0));
        let hi = c.output_power(Watts::from_milli(10.0), Volts::new(2.0));
        // 30 % at 100 µW vs 55 % at 10 mW.
        assert!((lo.to_micro() - 30.0).abs() < 1e-6);
        assert!((hi.to_milli() - 5.5).abs() < 1e-6);
    }

    #[test]
    fn cold_start_floor_blocks_tiny_inputs() {
        let c = Converter::boost_charger();
        assert_eq!(
            c.output_power(Watts::from_micro(10.0), Volts::new(1.0)),
            Watts::ZERO
        );
        assert!(
            c.output_power(Watts::from_micro(50.0), Volts::new(1.0))
                .get()
                > 0.0
        );
    }

    #[test]
    fn overvoltage_stops_conversion() {
        let c = Converter::rf_rectifier();
        assert_eq!(
            c.output_power(Watts::from_milli(5.0), Volts::new(4.5)),
            Watts::ZERO
        );
    }

    #[test]
    fn kinds_accessible() {
        assert_eq!(Converter::ideal().kind(), ConverterKind::Ideal);
        assert_eq!(Converter::rf_rectifier().kind(), ConverterKind::RfRectifier);
        assert_eq!(
            Converter::boost_charger().kind(),
            ConverterKind::BoostCharger
        );
    }

    #[test]
    fn kind_build_round_trips() {
        for kind in [
            ConverterKind::Ideal,
            ConverterKind::RfRectifier,
            ConverterKind::BoostCharger,
        ] {
            assert_eq!(kind.build().kind(), kind);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn output_is_constant_in_voltage_below_ovp() {
        // The fast-path contract: over a piecewise-constant available
        // power segment, the rail power must not depend on the buffer
        // voltage anywhere below the OVP point — so a whole segment can
        // be integrated in closed form with one conversion.
        for kind in [ConverterKind::RfRectifier, ConverterKind::BoostCharger] {
            let c = kind.build();
            let p = Watts::from_milli(2.5);
            let at_low = c.output_power(p, Volts::new(0.5));
            for v in [1.0, 1.8, 2.7, 3.3, 3.6] {
                assert_eq!(
                    c.output_power(p, Volts::new(v)),
                    at_low,
                    "{kind:?} varies with voltage at {v} V"
                );
            }
        }
    }
}
