//! Server energy-consumption models (paper §III-A and Fig. 3).
//!
//! The paper deliberately does **not** fix a functional form for server
//! energy: it only requires each server's consumption `g_n(ω)` to be *convex*
//! in the clock frequency `ω`, and lets every server have its own function.
//! This crate provides that abstraction ([`EnergyModel`]) plus the concrete
//! families used in the literature and in the paper's own evaluation:
//!
//! * [`QuadraticEnergy`] — the paper's evaluation model: a least-squares
//!   quadratic fit of measured Intel i7-3770K package power over
//!   1.8–3.6 GHz ([`i7_3770k_points`], [`fit_i7_3770k`]), perturbed per
//!   server as `a(1+0.01e), b(1+0.1e), c(1+0.1e)` with `e ~ N(0,1)`
//!   ([`perturbed_fleet`]).
//! * [`LinearEnergy`] — the linear model of Yang et al. (paper ref. \[8\]).
//! * [`CubicEnergy`] — the classical `P ∝ f³` DVFS model.
//! * [`Scaled`] — multi-socket/core scaling of any base model.
//!
//! All models report power in **watts** as a function of frequency in **Hz**,
//! with an analytic derivative so the P2-B bisection solver converges at
//! machine precision. [`energy_cost_dollars`] converts power and a price in
//! $/kWh into the per-slot cost `p_t · g_n(ω_{n,t})` of eq. (13).
//!
//! # Examples
//!
//! ```
//! use eotora_energy::{fit_i7_3770k, EnergyModel};
//!
//! let model = fit_i7_3770k();
//! let p_low = model.power_watts(1.8e9);
//! let p_high = model.power_watts(3.6e9);
//! assert!(p_low < p_high);
//! assert!((25.0..35.0).contains(&p_low));
//! assert!((70.0..85.0).contains(&p_high));
//! ```

use std::fmt;

use eotora_optim::least_squares::polyfit;
use eotora_optim::scalar::is_convex_on;
use eotora_util::rng::Pcg32;
use serde::{Deserialize, Serialize};

/// A convex power-vs-frequency curve for one server.
///
/// Implementations must be convex on the server's feasible frequency range —
/// the paper's standing assumption, checkable with [`validate_convexity`].
pub trait EnergyModel: fmt::Debug + Send + Sync {
    /// Power draw in watts at clock frequency `freq_hz`.
    fn power_watts(&self, freq_hz: f64) -> f64;

    /// Derivative of power with respect to frequency, in watts per Hz.
    fn power_derivative(&self, freq_hz: f64) -> f64;

    /// If this model is (a scaling of) a quadratic `a·f² + b·f + c` (f in
    /// GHz), returns the effective coefficients — enabling the closed-form
    /// P2-B frequency step (a cubic root instead of bisection). The default
    /// is `None`; generic models fall back to the iterative solver.
    fn as_quadratic(&self) -> Option<QuadraticEnergy> {
        None
    }
}

/// Quadratic power curve `P(f) = a·f² + b·f + c` with `f` in GHz and `P` in
/// watts — the family the paper fits to real i7-3770K measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadraticEnergy {
    /// Quadratic coefficient (W/GHz²); must be non-negative for convexity.
    pub a: f64,
    /// Linear coefficient (W/GHz).
    pub b: f64,
    /// Constant term (W): idle/uncore power.
    pub c: f64,
}

impl QuadraticEnergy {
    /// Creates a quadratic model.
    ///
    /// # Panics
    ///
    /// Panics if `a < 0` (non-convex).
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        assert!(a >= 0.0, "quadratic coefficient must be non-negative for convexity");
        Self { a, b, c }
    }

    /// The paper's per-server perturbation: coefficients scaled by
    /// `(1+0.01e)`, `(1+0.1e)`, `(1+0.1e)` for a single standard normal `e`.
    /// The quadratic coefficient is clamped at zero to preserve convexity in
    /// the (measure-zero in practice) tail `e < −100`.
    pub fn perturbed(&self, e: f64) -> Self {
        Self {
            a: (self.a * (1.0 + 0.01 * e)).max(0.0),
            b: self.b * (1.0 + 0.1 * e),
            c: self.c * (1.0 + 0.1 * e),
        }
    }
}

impl EnergyModel for QuadraticEnergy {
    fn power_watts(&self, freq_hz: f64) -> f64 {
        let f = freq_hz / 1e9;
        self.a * f * f + self.b * f + self.c
    }

    fn power_derivative(&self, freq_hz: f64) -> f64 {
        let f = freq_hz / 1e9;
        (2.0 * self.a * f + self.b) / 1e9
    }

    fn as_quadratic(&self) -> Option<QuadraticEnergy> {
        Some(*self)
    }
}

/// Linear power curve `P(f) = slope·f + intercept` (`f` in GHz), per the
/// mobile-streaming model of the paper's reference \[8\].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearEnergy {
    /// Slope in W/GHz; must be non-negative (power increases with clock).
    pub slope: f64,
    /// Intercept in W.
    pub intercept: f64,
}

impl LinearEnergy {
    /// Creates a linear model.
    ///
    /// # Panics
    ///
    /// Panics if `slope < 0`.
    pub fn new(slope: f64, intercept: f64) -> Self {
        assert!(slope >= 0.0, "power must be non-decreasing in frequency");
        Self { slope, intercept }
    }
}

impl EnergyModel for LinearEnergy {
    fn power_watts(&self, freq_hz: f64) -> f64 {
        self.slope * (freq_hz / 1e9) + self.intercept
    }

    fn power_derivative(&self, _freq_hz: f64) -> f64 {
        self.slope / 1e9
    }
}

/// Cubic DVFS power curve `P(f) = k·f³ + idle` (`f` in GHz) — the classical
/// dynamic-power model (`P ∝ C·V²·f` with `V ∝ f`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CubicEnergy {
    /// Cubic coefficient in W/GHz³; must be non-negative.
    pub k: f64,
    /// Idle power in W.
    pub idle: f64,
}

impl CubicEnergy {
    /// Creates a cubic model.
    ///
    /// # Panics
    ///
    /// Panics if `k < 0`.
    pub fn new(k: f64, idle: f64) -> Self {
        assert!(k >= 0.0, "cubic coefficient must be non-negative");
        Self { k, idle }
    }
}

impl EnergyModel for CubicEnergy {
    fn power_watts(&self, freq_hz: f64) -> f64 {
        let f = freq_hz / 1e9;
        self.k * f * f * f + self.idle
    }

    fn power_derivative(&self, freq_hz: f64) -> f64 {
        let f = freq_hz / 1e9;
        3.0 * self.k * f * f / 1e9
    }
}

/// Scales a base model by a constant factor — e.g. a 64-core server modeled
/// as 16 four-core i7 packages.
#[derive(Debug)]
pub struct Scaled {
    inner: Box<dyn EnergyModel>,
    factor: f64,
}

impl Scaled {
    /// Wraps `inner`, multiplying its power and derivative by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn new(inner: Box<dyn EnergyModel>, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Self { inner, factor }
    }
}

impl EnergyModel for Scaled {
    fn power_watts(&self, freq_hz: f64) -> f64 {
        self.factor * self.inner.power_watts(freq_hz)
    }

    fn power_derivative(&self, freq_hz: f64) -> f64 {
        self.factor * self.inner.power_derivative(freq_hz)
    }

    fn as_quadratic(&self) -> Option<QuadraticEnergy> {
        self.inner.as_quadratic().map(|q| QuadraticEnergy {
            a: self.factor * q.a,
            b: self.factor * q.b,
            c: self.factor * q.c,
        })
    }
}

/// Measured package power of an Intel i7-3770K across its DVFS range,
/// digitized from public reviews to match the paper's Fig. 3 diamonds:
/// `(frequency in GHz, power in watts)`.
pub const I7_3770K_POINTS: [(f64, f64); 10] = [
    (1.8, 27.0),
    (2.0, 31.0),
    (2.2, 35.5),
    (2.4, 40.5),
    (2.6, 46.0),
    (2.8, 52.0),
    (3.0, 58.5),
    (3.2, 65.0),
    (3.4, 71.5),
    (3.6, 78.5),
];

/// The i7-3770K measurement points as `(freq_ghz, watts)` vectors.
pub fn i7_3770k_points() -> (Vec<f64>, Vec<f64>) {
    let freqs = I7_3770K_POINTS.iter().map(|&(f, _)| f).collect();
    let watts = I7_3770K_POINTS.iter().map(|&(_, p)| p).collect();
    (freqs, watts)
}

/// Least-squares quadratic fit of [`I7_3770K_POINTS`] — the paper's black
/// curve in Fig. 3.
pub fn fit_i7_3770k() -> QuadraticEnergy {
    let (freqs, watts) = i7_3770k_points();
    let fit = polyfit(&freqs, &watts, 2).expect("the embedded points are well-conditioned");
    QuadraticEnergy::new(fit.coeffs[2].max(0.0), fit.coeffs[1], fit.coeffs[0])
}

/// Generates `n` per-server energy models by perturbing the i7 fit with one
/// standard normal draw per server (the paper's §VI-A recipe), each scaled by
/// the corresponding entry of `core_scale` (e.g. `cores / 4.0` to model a
/// many-core server as multiple 4-core packages).
///
/// # Panics
///
/// Panics if `core_scale.len() != n` or any scale is non-positive.
pub fn perturbed_fleet(n: usize, core_scale: &[f64], seed: u64) -> Vec<Box<dyn EnergyModel>> {
    assert_eq!(core_scale.len(), n, "one scale per server required");
    let base = fit_i7_3770k();
    let mut rng = Pcg32::seed_stream(seed, 0xE0E0);
    (0..n)
        .map(|idx| {
            let e = rng.standard_normal();
            let model = base.perturbed(e);
            Box::new(Scaled::new(Box::new(model), core_scale[idx])) as Box<dyn EnergyModel>
        })
        .collect()
}

/// Dollar cost of running at `power_watts` for `slot_hours` under a price of
/// `price_per_kwh` — the paper's `p_t · g_n(ω_{n,t})` with explicit units.
///
/// # Examples
///
/// ```
/// use eotora_energy::energy_cost_dollars;
///
/// // 1 kW for one hour at $0.10/kWh costs 10 cents.
/// assert!((energy_cost_dollars(0.10, 1000.0, 1.0) - 0.10).abs() < 1e-12);
/// ```
pub fn energy_cost_dollars(price_per_kwh: f64, power_watts: f64, slot_hours: f64) -> f64 {
    price_per_kwh * (power_watts / 1000.0) * slot_hours
}

/// Checks that `model` is convex on `[freq_min_hz, freq_max_hz]` by sampling
/// the midpoint inequality (the paper's standing assumption on every `g_n`).
pub fn validate_convexity(model: &dyn EnergyModel, freq_min_hz: f64, freq_max_hz: f64) -> bool {
    is_convex_on(|f| model.power_watts(f), freq_min_hz, freq_max_hz, 128, 1e-7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_util::assert_close;

    #[test]
    fn i7_fit_is_tight() {
        let (freqs, watts) = i7_3770k_points();
        let fit = polyfit(&freqs, &watts, 2).unwrap();
        assert!(fit.r_squared > 0.999, "r² = {}", fit.r_squared);
    }

    #[test]
    fn i7_fit_matches_measurements() {
        let m = fit_i7_3770k();
        for &(f, p) in &I7_3770K_POINTS {
            let pred = m.power_watts(f * 1e9);
            assert!((pred - p).abs() < 1.0, "at {f} GHz: {pred} vs {p}");
        }
    }

    #[test]
    fn quadratic_derivative_consistent() {
        let m = QuadraticEnergy::new(5.0, 2.0, 10.0);
        let f = 2.5e9;
        let h = 1e3;
        let numeric = (m.power_watts(f + h) - m.power_watts(f - h)) / (2.0 * h);
        assert_close!(m.power_derivative(f), numeric, 1e-6);
    }

    #[test]
    fn cubic_derivative_consistent() {
        let m = CubicEnergy::new(2.0, 8.0);
        let f = 3.0e9;
        let h = 1e3;
        let numeric = (m.power_watts(f + h) - m.power_watts(f - h)) / (2.0 * h);
        assert_close!(m.power_derivative(f), numeric, 1e-6);
    }

    #[test]
    fn linear_model_shape() {
        let m = LinearEnergy::new(20.0, 5.0);
        assert_close!(m.power_watts(2.0e9), 45.0, 1e-12);
        assert_close!(m.power_derivative(1.0e9) * 1e9, 20.0, 1e-12);
    }

    #[test]
    fn all_families_convex_on_dvfs_range() {
        let models: Vec<Box<dyn EnergyModel>> = vec![
            Box::new(fit_i7_3770k()),
            Box::new(LinearEnergy::new(20.0, 5.0)),
            Box::new(CubicEnergy::new(1.5, 10.0)),
        ];
        for m in &models {
            assert!(validate_convexity(m.as_ref(), 1.8e9, 3.6e9));
        }
    }

    #[test]
    fn perturbation_follows_paper_recipe() {
        let base = QuadraticEnergy::new(10.0, 100.0, 50.0);
        let p = base.perturbed(1.0);
        assert_close!(p.a, 10.1, 1e-12);
        assert_close!(p.b, 110.0, 1e-12);
        assert_close!(p.c, 55.0, 1e-12);
        let n = base.perturbed(-1.0);
        assert_close!(n.a, 9.9, 1e-12);
        assert_close!(n.b, 90.0, 1e-12);
    }

    #[test]
    fn fleet_is_deterministic_and_scaled() {
        let scales = vec![16.0, 32.0];
        let a = perturbed_fleet(2, &scales, 9);
        let b = perturbed_fleet(2, &scales, 9);
        for f in [1.8e9, 2.7e9, 3.6e9] {
            assert_close!(a[0].power_watts(f), b[0].power_watts(f), 1e-12);
        }
        // Per-4-core power at 3.6 GHz is ~78 W; a 64-core (16×) server should
        // draw roughly 16×.
        let p = a[0].power_watts(3.6e9);
        assert!((1000.0..1600.0).contains(&p), "power {p}");
    }

    #[test]
    fn fleet_members_differ() {
        let fleet = perturbed_fleet(4, &[1.0; 4], 3);
        let p: Vec<f64> = fleet.iter().map(|m| m.power_watts(3.0e9)).collect();
        assert!(p.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6));
    }

    #[test]
    fn fleet_all_convex() {
        let fleet = perturbed_fleet(16, &[16.0; 16], 4);
        for m in &fleet {
            assert!(validate_convexity(m.as_ref(), 1.8e9, 3.6e9));
        }
    }

    #[test]
    fn as_quadratic_propagates_through_scaling() {
        let q = QuadraticEnergy::new(4.0, 3.0, 2.0);
        let scaled = Scaled::new(Box::new(q), 16.0);
        let eff = scaled.as_quadratic().unwrap();
        assert_close!(eff.a, 64.0, 1e-12);
        assert_close!(eff.b, 48.0, 1e-12);
        assert_close!(eff.c, 32.0, 1e-12);
        // Generic models stay opaque.
        assert!(LinearEnergy::new(1.0, 0.0).as_quadratic().is_none());
        let nested = Scaled::new(Box::new(CubicEnergy::new(1.0, 0.0)), 2.0);
        assert!(nested.as_quadratic().is_none());
    }

    #[test]
    fn cost_units() {
        // 500 W for 30 minutes at $0.08/kWh = 0.5 kW × 0.5 h × 0.08 = $0.02.
        assert_close!(energy_cost_dollars(0.08, 500.0, 0.5), 0.02, 1e-12);
        assert_eq!(energy_cost_dollars(0.10, 0.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_quadratic_panics() {
        QuadraticEnergy::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "one scale per server")]
    fn fleet_scale_mismatch_panics() {
        perturbed_fleet(3, &[1.0], 0);
    }
}
