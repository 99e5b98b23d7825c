//! Compressor configuration.

use crate::metrics::DeviationMetric;

/// How many points the data-centric rotation warm-up buffers by default —
/// the paper suggests "the first few points (e.g. 5)" (§V-D).
pub const DEFAULT_ROTATION_WARMUP: usize = 5;

/// Data-centric rotation behaviour (paper §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationMode {
    /// No rotation: quadrants are axis-aligned at every segment start.
    Disabled,
    /// Buffer the first `warmup` effective points of each segment, rotate
    /// the frame so the start→centroid direction lies on the +x axis, and
    /// only then start populating the quadrant systems. Tightens the hulls
    /// because points split across two quadrants around the axis.
    DataCentric {
        /// Number of points buffered before fixing the rotation (≥ 1).
        warmup: usize,
    },
}

impl Default for RotationMode {
    fn default() -> Self {
        RotationMode::DataCentric {
            warmup: DEFAULT_ROTATION_WARMUP,
        }
    }
}

/// Which upper/lower bound formulas the quadrant systems use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsMode {
    /// Provably sound bounds over the clipped-wedge significant points (ray
    /// /box intersections plus the box corners inside the angular wedge —
    /// still ≤ 8 points per quadrant). The upper bound is guaranteed to
    /// dominate the true deviation, which is what preserves the error
    /// guarantee when a point is admitted without a full scan.
    #[default]
    Sound,
    /// The formulas exactly as printed in Theorems 5.3–5.5, for ablation
    /// and fidelity comparison. The printed upper bound of Theorems 5.3/5.4
    /// (`max{d_intersection}`) can under-estimate the true deviation when a
    /// box corner inside the wedge protrudes past both bounding rays'
    /// intersection points; [`BoundsMode::Sound`] closes that gap.
    PaperExact,
    /// Theorem 5.2 only: bounds from the four box corners, ignoring the
    /// angular bounding lines. Sound but loose — the paper introduces the
    /// advanced theorems precisely because these "can hardly avoid any
    /// deviation computation". Kept for the bound-tier ablation.
    CoarseCorners,
}

/// Configuration shared by the BQS and Fast BQS compressors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BqsConfig {
    /// Error tolerance `d` in metres (must be finite and > 0).
    pub tolerance: f64,
    /// Deviation metric.
    pub metric: DeviationMetric,
    /// Data-centric rotation behaviour.
    pub rotation: RotationMode,
    /// Bound formula selection.
    pub bounds_mode: BoundsMode,
}

impl BqsConfig {
    /// Creates a configuration with the paper's defaults: point-to-line
    /// metric, data-centric rotation with a 5-point warm-up, sound bounds.
    pub fn new(tolerance: f64) -> Result<BqsConfig, ConfigError> {
        let config = BqsConfig {
            tolerance,
            metric: DeviationMetric::default(),
            rotation: RotationMode::default(),
            bounds_mode: BoundsMode::default(),
        };
        config.validate()?;
        Ok(config)
    }

    /// Replaces the deviation metric.
    pub fn with_metric(mut self, metric: DeviationMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Replaces the rotation mode.
    pub fn with_rotation(mut self, rotation: RotationMode) -> Self {
        self.rotation = rotation;
        self
    }

    /// Replaces the bounds mode.
    pub fn with_bounds_mode(mut self, bounds_mode: BoundsMode) -> Self {
        self.bounds_mode = bounds_mode;
        self
    }

    /// Checks the configuration invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.tolerance.is_finite() || self.tolerance <= 0.0 {
            return Err(ConfigError::InvalidTolerance {
                tolerance: self.tolerance,
            });
        }
        if let RotationMode::DataCentric { warmup } = self.rotation {
            if warmup == 0 {
                return Err(ConfigError::ZeroWarmup);
            }
        }
        Ok(())
    }
}

/// Configuration errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Tolerance must be finite and strictly positive.
    InvalidTolerance {
        /// The rejected value.
        tolerance: f64,
    },
    /// A data-centric rotation warm-up of zero points cannot fix a frame.
    ZeroWarmup,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidTolerance { tolerance } => {
                write!(f, "tolerance must be finite and > 0, got {tolerance}")
            }
            ConfigError::ZeroWarmup => write!(f, "rotation warm-up must be ≥ 1 point"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BqsConfig::new(10.0).unwrap();
        assert_eq!(c.tolerance, 10.0);
        assert_eq!(c.metric, DeviationMetric::PointToLine);
        assert_eq!(
            c.rotation,
            RotationMode::DataCentric {
                warmup: DEFAULT_ROTATION_WARMUP
            }
        );
        assert_eq!(c.bounds_mode, BoundsMode::Sound);
    }

    #[test]
    fn rejects_bad_tolerances() {
        assert!(BqsConfig::new(0.0).is_err());
        assert!(BqsConfig::new(-1.0).is_err());
        assert!(BqsConfig::new(f64::NAN).is_err());
        assert!(BqsConfig::new(f64::INFINITY).is_err());
    }

    #[test]
    fn rejects_zero_warmup() {
        let c = BqsConfig::new(1.0)
            .unwrap()
            .with_rotation(RotationMode::DataCentric { warmup: 0 });
        assert_eq!(c.validate(), Err(ConfigError::ZeroWarmup));
    }

    #[test]
    fn builder_methods() {
        let c = BqsConfig::new(5.0)
            .unwrap()
            .with_metric(DeviationMetric::PointToSegment)
            .with_rotation(RotationMode::Disabled)
            .with_bounds_mode(BoundsMode::PaperExact);
        assert_eq!(c.metric, DeviationMetric::PointToSegment);
        assert_eq!(c.rotation, RotationMode::Disabled);
        assert_eq!(c.bounds_mode, BoundsMode::PaperExact);
        assert!(c.validate().is_ok());
    }
}
