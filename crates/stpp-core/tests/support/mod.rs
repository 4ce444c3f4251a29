//! Shared test-support module for the stpp-core integration suites.
//!
//! The order-independence suite needs deterministic synthetic sweeps
//! (geometries + recordings); keeping the generators here stops each
//! suite from growing its own slightly-different copy.

use proptest::prelude::*;
use proptest::ProptestConfig;
use stpp_core::{PhaseProfile, ReferenceProfileParams, StppConfig, StppInput, TagObservations};

/// Proptest configuration honouring the `PROPTEST_CASES` environment
/// variable (CI bumps it well above the local default; the vendored
/// proptest does not read it on its own).
pub fn proptest_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

/// A deterministic synthetic sweep: one V-shaped phase profile per tag
/// with a shared hardware offset, optional per-tag perpendicular-distance
/// spread, deterministic pseudo-noise, and periodic sample dropout.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Per-tag `(x position m, perpendicular distance m)`.
    pub tags: Vec<(f64, f64)>,
    /// Shared hardware phase offset, radians.
    pub mu: f64,
    /// Reader speed, m/s.
    pub speed: f64,
    /// Sampling interval, seconds.
    pub dt: f64,
    /// Samples per tag before dropout.
    pub samples: usize,
    /// Phase-noise amplitude, radians (deterministic pseudo-noise).
    pub noise: f64,
    /// Drop every `dropout`-th sample (`0` = keep everything).
    pub dropout: usize,
    /// Sakoe-Chiba band for the segmented DTW (`None` = exact).
    pub band: Option<usize>,
}

/// The carrier wavelength every synthetic sweep uses, metres.
pub const WAVELENGTH_M: f64 = 0.326;

impl SweepSpec {
    /// Builds the pipeline input for this sweep. Fully deterministic:
    /// the "noise" is a fixed quasi-random phase jitter derived from the
    /// sample and tag indices, so the same spec always produces the same
    /// bits.
    pub fn input(&self) -> StppInput {
        let observations: Vec<TagObservations> = self
            .tags
            .iter()
            .enumerate()
            .map(|(id, &(tag_x, d_perp))| {
                let pairs: Vec<(f64, f64)> = (0..self.samples)
                    .filter(|i| self.dropout == 0 || i % self.dropout != 0)
                    .map(|i| {
                        let t = i as f64 * self.dt;
                        let d = ((self.speed * t - tag_x).powi(2) + d_perp * d_perp).sqrt();
                        let jitter = self.noise * (i as f64 * 7.31 + id as f64 * 2.17).sin();
                        (t, std::f64::consts::TAU * 2.0 * d / WAVELENGTH_M + self.mu + jitter)
                    })
                    .collect();
                TagObservations {
                    id: id as u64,
                    epc: rfid_gen2::Epc::from_serial(id as u64),
                    profile: PhaseProfile::from_pairs(&pairs),
                }
            })
            .collect();
        StppInput {
            observations,
            nominal_speed_mps: self.speed,
            wavelength_m: WAVELENGTH_M,
            perpendicular_distance_m: Some(self.nearest_perpendicular_m()),
        }
    }

    /// The `StppConfig` this sweep's band selects.
    pub fn config(&self) -> StppConfig {
        StppConfig { dtw_band: self.band, ..StppConfig::default() }
    }

    /// The reference geometry [`input`](Self::input) localizes against:
    /// the sweep speed and the nearest tag's perpendicular distance.
    pub fn reference_params(&self) -> ReferenceProfileParams {
        ReferenceProfileParams::new(self.speed, self.nearest_perpendicular_m(), WAVELENGTH_M)
    }

    fn nearest_perpendicular_m(&self) -> f64 {
        self.tags.iter().map(|t| t.1).fold(f64::INFINITY, f64::min)
    }
}

/// Strategy over synthetic sweeps: 3–8 tags spread along the aisle, a
/// shared hardware offset anywhere on the circle (including the 0/2π
/// boundary region), mild noise, optional dropout, and either the exact
/// or a banded alignment.
pub fn arb_sweep() -> impl Strategy<Value = SweepSpec> {
    (
        proptest::collection::vec((0.3f64..2.7, 0.26f64..0.40), 3..8),
        0.0f64..std::f64::consts::TAU,
        0.06f64..0.16,
        (0.03f64..0.07, 380usize..620),
        (0.0f64..0.25, 0usize..5),
        0usize..24,
    )
        .prop_map(|(tags, mu, speed, (dt, samples), (noise, dropout), band_raw)| SweepSpec {
            tags,
            mu,
            speed,
            dt,
            samples,
            noise,
            // dropout 0/1 keep everything (i % 1 == 0 would drop all).
            dropout: if dropout < 2 { 0 } else { dropout },
            band: if band_raw < 16 { None } else { Some(band_raw - 8) },
        })
}
