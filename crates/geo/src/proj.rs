//! WGS-84 ↔ UTM projection.
//!
//! The BQS builds its virtual coordinate system on "the UTM (Universal
//! Transverse Mercator) projected x and y axes" (paper §V-A). This module
//! implements the projection from scratch — Karney-style Krüger series of
//! order 6, accurate to well under a millimetre inside a zone — so GPS fixes
//! (`⟨lat, lon, t⟩`) can be mapped into the metric frame the compressors
//! operate in, with no external geodesy dependency.

use crate::point::{LocationPoint, Point2, TimedPoint};
use crate::{GeoError, GeoResult};

/// WGS-84 semi-major axis (metres).
pub const WGS84_A: f64 = 6_378_137.0;
/// WGS-84 flattening.
pub const WGS84_F: f64 = 1.0 / 298.257_223_563;
/// UTM scale factor at the central meridian.
pub const UTM_K0: f64 = 0.9996;
/// UTM false easting (metres).
pub const UTM_FALSE_EASTING: f64 = 500_000.0;
/// UTM false northing for the southern hemisphere (metres).
pub const UTM_FALSE_NORTHING_SOUTH: f64 = 10_000_000.0;

/// A UTM zone: longitudinal band 1–60 plus hemisphere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UtmZone {
    /// Zone number, 1–60.
    pub number: u8,
    /// True for the northern hemisphere.
    pub north: bool,
}

impl UtmZone {
    /// The zone containing a WGS-84 coordinate (ignoring the Norway/Svalbard
    /// exceptions, which the paper's field sites do not touch).
    pub fn for_wgs84(latitude: f64, longitude: f64) -> GeoResult<UtmZone> {
        validate_wgs84(latitude, longitude)?;
        let lon = normalize_lon(longitude);
        let number = (((lon + 180.0) / 6.0).floor() as i32).clamp(0, 59) as u8 + 1;
        Ok(UtmZone {
            number,
            north: latitude >= 0.0,
        })
    }

    /// Central meridian of the zone in degrees.
    #[inline]
    pub fn central_meridian_deg(self) -> f64 {
        f64::from(self.number) * 6.0 - 183.0
    }
}

/// A projected UTM coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtmCoord {
    /// Easting in metres (false easting applied).
    pub easting: f64,
    /// Northing in metres (false northing applied in the south).
    pub northing: f64,
    /// Zone the coordinate is expressed in.
    pub zone: UtmZone,
}

impl UtmCoord {
    /// The coordinate as a planar point (easting = x, northing = y).
    #[inline]
    pub fn to_point(self) -> Point2 {
        Point2::new(self.easting, self.northing)
    }
}

fn normalize_lon(longitude: f64) -> f64 {
    let mut lon = (longitude + 180.0) % 360.0;
    if lon < 0.0 {
        lon += 360.0;
    }
    lon - 180.0
}

fn validate_wgs84(latitude: f64, longitude: f64) -> GeoResult<()> {
    if !latitude.is_finite() {
        return Err(GeoError::NonFiniteCoordinate { what: "latitude" });
    }
    if !longitude.is_finite() {
        return Err(GeoError::NonFiniteCoordinate { what: "longitude" });
    }
    if !(-80.0..=84.0).contains(&latitude) {
        return Err(GeoError::LatitudeOutOfRange { latitude });
    }
    Ok(())
}

/// Precomputed Krüger series coefficients (order 6) for WGS-84.
struct Kruger {
    /// Rectifying radius `A`.
    a_rect: f64,
    /// Forward series α₁..α₆.
    alpha: [f64; 6],
    /// Inverse series β₁..β₆.
    beta: [f64; 6],
}

impl Kruger {
    // The coefficients are polynomial in the third flattening n; constants
    // from Karney (2011), "Transverse Mercator with an accuracy of a few
    // nanometers".
    fn wgs84() -> &'static Kruger {
        use std::sync::OnceLock;
        static K: OnceLock<Kruger> = OnceLock::new();
        K.get_or_init(|| {
            let n = WGS84_F / (2.0 - WGS84_F);
            let n2 = n * n;
            let n3 = n2 * n;
            let n4 = n3 * n;
            let n5 = n4 * n;
            let n6 = n5 * n;
            let a_rect = WGS84_A / (1.0 + n) * (1.0 + n2 / 4.0 + n4 / 64.0 + n6 / 256.0);
            let alpha = [
                n / 2.0 - 2.0 / 3.0 * n2 + 5.0 / 16.0 * n3 + 41.0 / 180.0 * n4 - 127.0 / 288.0 * n5
                    + 7891.0 / 37800.0 * n6,
                13.0 / 48.0 * n2 - 3.0 / 5.0 * n3 + 557.0 / 1440.0 * n4 + 281.0 / 630.0 * n5
                    - 1_983_433.0 / 1_935_360.0 * n6,
                61.0 / 240.0 * n3 - 103.0 / 140.0 * n4
                    + 15_061.0 / 26_880.0 * n5
                    + 167_603.0 / 181_440.0 * n6,
                49_561.0 / 161_280.0 * n4 - 179.0 / 168.0 * n5 + 6_601_661.0 / 7_257_600.0 * n6,
                34_729.0 / 80_640.0 * n5 - 3_418_889.0 / 1_995_840.0 * n6,
                212_378_941.0 / 319_334_400.0 * n6,
            ];
            let beta = [
                n / 2.0 - 2.0 / 3.0 * n2 + 37.0 / 96.0 * n3 - 1.0 / 360.0 * n4 - 81.0 / 512.0 * n5
                    + 96_199.0 / 604_800.0 * n6,
                1.0 / 48.0 * n2 + 1.0 / 15.0 * n3 - 437.0 / 1440.0 * n4 + 46.0 / 105.0 * n5
                    - 1_118_711.0 / 3_870_720.0 * n6,
                17.0 / 480.0 * n3 - 37.0 / 840.0 * n4 - 209.0 / 4480.0 * n5
                    + 5569.0 / 90_720.0 * n6,
                4397.0 / 161_280.0 * n4 - 11.0 / 504.0 * n5 - 830_251.0 / 7_257_600.0 * n6,
                4583.0 / 161_280.0 * n5 - 108_847.0 / 3_991_680.0 * n6,
                20_648_693.0 / 638_668_800.0 * n6,
            ];
            Kruger {
                a_rect,
                alpha,
                beta,
            }
        })
    }
}

/// Projects a WGS-84 coordinate into a specific UTM zone.
///
/// Projecting into a neighbouring zone is allowed (and is what a tracker
/// crossing a zone boundary needs to keep one contiguous frame); accuracy
/// degrades gracefully with distance from the central meridian.
pub fn utm_from_wgs84_zone(latitude: f64, longitude: f64, zone: UtmZone) -> GeoResult<UtmCoord> {
    validate_wgs84(latitude, longitude)?;
    let k = Kruger::wgs84();

    let phi = latitude.to_radians();
    let lam = normalize_lon(longitude - zone.central_meridian_deg()).to_radians();

    // Conformal latitude.
    let e = (WGS84_F * (2.0 - WGS84_F)).sqrt();
    let sin_phi = phi.sin();
    let t = sin_phi.tan_conformal(e);
    let xi_prime = t.atan2(lam.cos());
    let eta_prime = (lam.sin() / t.hypot(lam.cos())).asinh();

    let mut xi = xi_prime;
    let mut eta = eta_prime;
    for (j, a) in k.alpha.iter().enumerate() {
        let m = 2.0 * (j as f64 + 1.0);
        xi += a * (m * xi_prime).sin() * (m * eta_prime).cosh();
        eta += a * (m * xi_prime).cos() * (m * eta_prime).sinh();
    }

    let easting = UTM_K0 * k.a_rect * eta + UTM_FALSE_EASTING;
    let mut northing = UTM_K0 * k.a_rect * xi;
    if !zone.north {
        northing += UTM_FALSE_NORTHING_SOUTH;
    }
    Ok(UtmCoord {
        easting,
        northing,
        zone,
    })
}

/// Projects a WGS-84 coordinate into its natural UTM zone.
pub fn utm_from_wgs84(latitude: f64, longitude: f64) -> GeoResult<UtmCoord> {
    let zone = UtmZone::for_wgs84(latitude, longitude)?;
    utm_from_wgs84_zone(latitude, longitude, zone)
}

/// Inverse projection: UTM → WGS-84 `(latitude, longitude)` in degrees.
pub fn wgs84_from_utm(coord: UtmCoord) -> GeoResult<(f64, f64)> {
    if !coord.easting.is_finite() || !coord.northing.is_finite() {
        return Err(GeoError::NonFiniteCoordinate {
            what: "utm coordinate",
        });
    }
    let k = Kruger::wgs84();

    let mut northing = coord.northing;
    if !coord.zone.north {
        northing -= UTM_FALSE_NORTHING_SOUTH;
    }
    let xi = northing / (UTM_K0 * k.a_rect);
    let eta = (coord.easting - UTM_FALSE_EASTING) / (UTM_K0 * k.a_rect);

    let mut xi_prime = xi;
    let mut eta_prime = eta;
    for (j, b) in k.beta.iter().enumerate() {
        let m = 2.0 * (j as f64 + 1.0);
        xi_prime -= b * (m * xi).sin() * (m * eta).cosh();
        eta_prime -= b * (m * xi).cos() * (m * eta).sinh();
    }

    // τ′ = tan(χ), the conformal tangent recovered from the series.
    let tau_prime = xi_prime.sin() / eta_prime.sinh().hypot_with(xi_prime.cos());

    // Newton-iterate Karney's relation τ′(τ) = τ√(1+σ²) − σ√(1+τ²) to
    // recover τ = tan(φ). This mirrors GeographicLib's `Math::tauf`.
    let e = (WGS84_F * (2.0 - WGS84_F)).sqrt();
    let e2m = 1.0 - e * e;
    let hyp = |x: f64| (1.0 + x * x).sqrt();
    let taupf = |tau: f64| {
        let sigma = (e * (e * tau / hyp(tau)).atanh()).sinh();
        tau * hyp(sigma) - sigma * hyp(tau)
    };
    let mut tau = tau_prime / e2m; // first-order seed
    for _ in 0..8 {
        let taupa = taupf(tau);
        let dtau = (tau_prime - taupa) * (1.0 + e2m * tau * tau) / (e2m * hyp(tau) * hyp(taupa));
        tau += dtau;
        if dtau.abs() < 1e-14 * (1.0 + tau.abs()) {
            break;
        }
    }
    let phi = tau.atan();

    let lam = eta_prime.sinh().atan2(xi_prime.cos());
    let lon = normalize_lon(lam.to_degrees() + coord.zone.central_meridian_deg());
    Ok((phi.to_degrees(), lon))
}

/// Small helper trait to keep the series code readable.
trait ConformalExt {
    fn tan_conformal(self, e: f64) -> f64;
    fn hypot_with(self, other: f64) -> f64;
}

impl ConformalExt for f64 {
    /// τ' = conformal tangent from sin(φ) (Karney's τ′ construction).
    #[inline]
    fn tan_conformal(self, e: f64) -> f64 {
        // self is sin(phi)
        let sin_phi = self;
        let cos_phi = (1.0 - sin_phi * sin_phi).max(0.0).sqrt();
        if cos_phi == 0.0 {
            return if sin_phi >= 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        let tau = sin_phi / cos_phi;
        let sigma = (e * (e * sin_phi).atanh()).sinh();
        tau * (1.0 + sigma * sigma).sqrt() - sigma * (1.0 + tau * tau).sqrt()
    }

    #[inline]
    fn hypot_with(self, other: f64) -> f64 {
        self.hypot(other)
    }
}

/// A streaming projector that fixes the zone on the first point so an entire
/// trace shares one planar frame, then projects each GPS fix to a
/// [`TimedPoint`].
#[derive(Debug, Default, Clone)]
pub struct TraceProjector {
    zone: Option<UtmZone>,
}

impl TraceProjector {
    /// Creates a projector with no zone fixed yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a projector pinned to a given zone.
    pub fn with_zone(zone: UtmZone) -> Self {
        TraceProjector { zone: Some(zone) }
    }

    /// The zone fixed so far, if any.
    pub fn zone(&self) -> Option<UtmZone> {
        self.zone
    }

    /// Projects one GPS fix, fixing the zone on first use.
    pub fn project(&mut self, fix: LocationPoint) -> GeoResult<TimedPoint> {
        let zone = match self.zone {
            Some(z) => z,
            None => {
                let z = UtmZone::for_wgs84(fix.latitude, fix.longitude)?;
                self.zone = Some(z);
                z
            }
        };
        let utm = utm_from_wgs84_zone(fix.latitude, fix.longitude, zone)?;
        Ok(TimedPoint::at(utm.to_point(), fix.timestamp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test coordinates spanning hemispheres and zone offsets, including the
    /// paper's Brisbane field site.
    const REFERENCES: &[(f64, f64, u8, bool)] = &[
        // lat, lon, zone, north
        (-27.4698, 153.0251, 56, false), // Brisbane (field site)
        (51.4778, -0.0014, 30, true),    // Greenwich
        (40.7128, -74.0060, 18, true),   // New York
        (-33.8688, 151.2093, 56, false), // Sydney
        (0.0, 0.0, 31, true),            // equator/prime meridian
        (63.5, 10.4, 32, true),          // high latitude
    ];

    /// Independent transverse-Mercator forward projection using the classic
    /// Snyder/USGS series (Map Projections — A Working Manual, eqs. 8-9..8-15).
    /// A completely different derivation from the Krüger series used by the
    /// implementation, so agreement validates both.
    fn snyder_utm(lat: f64, lon: f64, zone: UtmZone) -> (f64, f64) {
        let a = WGS84_A;
        let f = WGS84_F;
        let e2 = f * (2.0 - f);
        let ep2 = e2 / (1.0 - e2);
        let phi = lat.to_radians();
        let lam = (lon - zone.central_meridian_deg()).to_radians();

        let n = a / (1.0 - e2 * phi.sin().powi(2)).sqrt();
        let t = phi.tan().powi(2);
        let c = ep2 * phi.cos().powi(2);
        let big_a = lam * phi.cos();

        // Meridional arc M (Snyder 3-21).
        let m = a
            * ((1.0 - e2 / 4.0 - 3.0 * e2 * e2 / 64.0 - 5.0 * e2 * e2 * e2 / 256.0) * phi
                - (3.0 * e2 / 8.0 + 3.0 * e2 * e2 / 32.0 + 45.0 * e2 * e2 * e2 / 1024.0)
                    * (2.0 * phi).sin()
                + (15.0 * e2 * e2 / 256.0 + 45.0 * e2 * e2 * e2 / 1024.0) * (4.0 * phi).sin()
                - (35.0 * e2 * e2 * e2 / 3072.0) * (6.0 * phi).sin());

        let easting = UTM_K0
            * n
            * (big_a
                + (1.0 - t + c) * big_a.powi(3) / 6.0
                + (5.0 - 18.0 * t + t * t + 72.0 * c - 58.0 * ep2) * big_a.powi(5) / 120.0)
            + UTM_FALSE_EASTING;
        let mut northing = UTM_K0
            * (m + n
                * phi.tan()
                * (big_a * big_a / 2.0
                    + (5.0 - t + 9.0 * c + 4.0 * c * c) * big_a.powi(4) / 24.0
                    + (61.0 - 58.0 * t + t * t + 600.0 * c - 330.0 * ep2) * big_a.powi(6) / 720.0));
        if !zone.north {
            northing += UTM_FALSE_NORTHING_SOUTH;
        }
        (easting, northing)
    }

    #[test]
    fn agrees_with_independent_snyder_series_to_millimetres() {
        for &(lat, lon, zone, north) in REFERENCES {
            let utm = utm_from_wgs84(lat, lon).unwrap();
            assert_eq!(utm.zone.number, zone, "zone for ({lat}, {lon})");
            assert_eq!(utm.zone.north, north);
            let (e, n) = snyder_utm(lat, lon, utm.zone);
            assert!(
                (utm.easting - e).abs() < 2e-3,
                "easting for ({lat}, {lon}): kruger {}, snyder {e}",
                utm.easting
            );
            assert!(
                (utm.northing - n).abs() < 2e-3,
                "northing for ({lat}, {lon}): kruger {}, snyder {n}",
                utm.northing
            );
        }
    }

    #[test]
    fn known_anchor_values() {
        // (0°, 0°) is 3° west of zone 31's central meridian on the equator —
        // easting ≈ 166,021.44 m is a standard published UTM value.
        let utm = utm_from_wgs84(0.0, 0.0).unwrap();
        assert!((utm.easting - 166_021.44).abs() < 0.05, "{}", utm.easting);
        assert!(utm.northing.abs() < 1e-6);
        // A point on a central meridian projects to exactly 500 km easting,
        // and northing = k0 × meridional arc.
        let utm = utm_from_wgs84(45.0, -87.0).unwrap(); // zone 16 CM
        assert!((utm.easting - UTM_FALSE_EASTING).abs() < 1e-6);
        let expected = UTM_K0 * meridian_arc_m(45.0);
        assert!((utm.northing - expected).abs() < 1e-3, "{}", utm.northing);
    }

    #[test]
    fn round_trip_accuracy() {
        for &(lat, lon, ..) in REFERENCES {
            let utm = utm_from_wgs84(lat, lon).unwrap();
            let (lat2, lon2) = wgs84_from_utm(utm).unwrap();
            assert!((lat - lat2).abs() < 1e-8, "lat {lat} → {lat2}");
            assert!((lon - lon2).abs() < 1e-8, "lon {lon} → {lon2}");
        }
    }

    #[test]
    fn distances_locally_preserved() {
        // Two points ~1 km apart on the same meridian near the Brisbane
        // field site. The ellipsoidal ground distance is the meridional-arc
        // difference; near a central meridian the projected distance must be
        // that distance scaled by ~k0 = 0.9996 (scale grows quadratically
        // with easting offset; ~2.5 km offset here is negligible).
        let (lat1, lat2, lon) = (-27.4698, -27.4788, 153.0251);
        let a = utm_from_wgs84(lat1, lon).unwrap().to_point();
        let b = utm_from_wgs84(lat2, lon).unwrap().to_point();
        let d = a.distance(b);
        let arc = meridian_arc_m(lat2) - meridian_arc_m(lat1);
        let scale = d / arc.abs();
        assert!(
            (scale - UTM_K0).abs() < 1e-5,
            "projected {d} m vs meridian arc {arc} m (scale {scale})"
        );
    }

    /// Meridional arc length from the equator (Snyder 3-21), used as an
    /// independent ellipsoidal ground-distance reference along a meridian.
    fn meridian_arc_m(lat: f64) -> f64 {
        let e2 = WGS84_F * (2.0 - WGS84_F);
        let phi = lat.to_radians();
        WGS84_A
            * ((1.0 - e2 / 4.0 - 3.0 * e2 * e2 / 64.0 - 5.0 * e2 * e2 * e2 / 256.0) * phi
                - (3.0 * e2 / 8.0 + 3.0 * e2 * e2 / 32.0 + 45.0 * e2 * e2 * e2 / 1024.0)
                    * (2.0 * phi).sin()
                + (15.0 * e2 * e2 / 256.0 + 45.0 * e2 * e2 * e2 / 1024.0) * (4.0 * phi).sin()
                - (35.0 * e2 * e2 * e2 / 3072.0) * (6.0 * phi).sin())
    }

    #[test]
    fn zone_boundaries() {
        assert_eq!(UtmZone::for_wgs84(0.0, -180.0).unwrap().number, 1);
        assert_eq!(UtmZone::for_wgs84(0.0, 179.999).unwrap().number, 60);
        assert_eq!(UtmZone::for_wgs84(0.0, 0.0).unwrap().number, 31);
        assert_eq!(UtmZone::for_wgs84(0.0, -0.001).unwrap().number, 30);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(matches!(
            utm_from_wgs84(85.0, 0.0),
            Err(GeoError::LatitudeOutOfRange { .. })
        ));
        assert!(matches!(
            utm_from_wgs84(f64::NAN, 0.0),
            Err(GeoError::NonFiniteCoordinate { .. })
        ));
    }

    #[test]
    fn projector_fixes_zone_on_first_point() {
        let mut proj = TraceProjector::new();
        let a = proj
            .project(LocationPoint::new(-27.4698, 153.0251, 0.0))
            .unwrap();
        assert_eq!(proj.zone().unwrap().number, 56);
        // A later fix just across the 54/55 boundary still projects in zone 56.
        let b = proj
            .project(LocationPoint::new(-27.4698, 153.1, 60.0))
            .unwrap();
        assert_eq!(proj.zone().unwrap().number, 56);
        assert!(b.pos.x > a.pos.x);
        assert_eq!(b.t, 60.0);
    }

    #[test]
    fn longitude_wraps() {
        let a = utm_from_wgs84(10.0, 190.0).unwrap(); // == -170°
        let b = utm_from_wgs84(10.0, -170.0).unwrap();
        assert_eq!(a.zone, b.zone);
        assert!((a.easting - b.easting).abs() < 1e-6);
    }
}
