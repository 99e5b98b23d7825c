//! # bqs-geo — geometry substrate for the BQS trajectory-compression library
//!
//! This crate provides every geometric primitive the Bounded Quadrant System
//! (Liu et al., ICDE 2015) builds on:
//!
//! * planar and 3-D vectors/points ([`Vec2`], [`Point2`], [`Point3`],
//!   [`TimedPoint`], [`LocationPoint`]),
//! * point-to-line and point-to-segment distances ([`mod@line`]),
//! * angles, quadrants and rotations ([`angle`], [`rotation`]),
//! * axis-aligned bounding boxes in 2-D and 3-D ([`rect`], [`prism`]),
//! * planes and plane/prism intersections for the 3-D BQS ([`plane`]),
//! * exact convex hulls used to cross-check the BQS bounding hulls ([`hull`]),
//! * the WGS-84 ↔ UTM transverse-Mercator projection the paper uses to map GPS
//!   fixes into a metric coordinate frame ([`proj`]),
//! * polyline utilities (path length, brute-force deviation scans) ([`polyline`]).
//!
//! Everything here is deliberately dependency-free and
//! allocation-conscious: the BQS fast path must run on a 4 KB-RAM class device,
//! so the primitives avoid hidden heap usage.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod angle;
pub mod columnar;
pub mod hull;
pub mod line;
pub mod plane;
pub mod point;
pub mod polyline;
pub mod prism;
pub mod proj;
pub mod rect;
pub mod rotation;
pub mod vec2;

pub use angle::{normalize_angle, Quadrant};
pub use columnar::ColumnarBatch;
pub use hull::convex_hull;
pub use line::{point_to_line_distance, point_to_segment_distance, Line2, Line3, Segment2};
pub use plane::Plane;
pub use point::{LocationPoint, Point2, Point3, TimedPoint};
pub use polyline::{
    max_deviation, max_deviation_segment, max_deviation_to_chord, max_deviation_to_chord_segment,
    path_length, verify_error_bound,
};
pub use prism::Prism;
pub use proj::{utm_from_wgs84, wgs84_from_utm, UtmCoord, UtmZone};
pub use rect::Rect;
pub use rotation::Rot2;
pub use vec2::Vec2;

/// Convenient result alias for fallible geometry operations.
pub type GeoResult<T> = Result<T, GeoError>;

/// Errors produced by geometry routines.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// A coordinate was not finite (NaN or infinite).
    NonFiniteCoordinate {
        /// Human-readable description of the offending value.
        what: &'static str,
    },
    /// A latitude outside the transverse-Mercator validity band was supplied.
    LatitudeOutOfRange {
        /// The offending latitude in degrees.
        latitude: f64,
    },
    /// A longitude outside [-180, 180) was supplied.
    LongitudeOutOfRange {
        /// The offending longitude in degrees.
        longitude: f64,
    },
    /// A degenerate geometric object (zero-length line, empty hull, ...) was
    /// used where a non-degenerate one is required.
    Degenerate {
        /// Human-readable description of the degeneracy.
        what: &'static str,
    },
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::NonFiniteCoordinate { what } => {
                write!(f, "non-finite coordinate: {what}")
            }
            GeoError::LatitudeOutOfRange { latitude } => {
                write!(f, "latitude {latitude} out of UTM range [-80, 84]")
            }
            GeoError::LongitudeOutOfRange { longitude } => {
                write!(f, "longitude {longitude} out of range [-180, 180)")
            }
            GeoError::Degenerate { what } => write!(f, "degenerate geometry: {what}"),
        }
    }
}

impl std::error::Error for GeoError {}
