//! Deviation bound pairs and small helpers shared by the bound theorems.

use serde::{Deserialize, Serialize};

/// A pair `⟨d_lb, d_ub⟩` bounding the maximum deviation of a point set from
/// the current path line (paper §V-A step 5).
///
/// Invariant maintained by constructors: `lower ≤ upper`, both non-negative
/// and finite (a quadrant with no points contributes `EMPTY`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviationBounds {
    /// Smallest the maximum deviation can be.
    pub lower: f64,
    /// Largest the maximum deviation can be.
    pub upper: f64,
}

impl DeviationBounds {
    /// Bounds of an empty point set: deviation is exactly zero.
    pub const EMPTY: DeviationBounds = DeviationBounds {
        lower: 0.0,
        upper: 0.0,
    };

    /// Creates a bound pair, clamping the lower bound to the upper.
    ///
    /// The lower-bound formulas of Theorems 5.3–5.5 are heuristically tight
    /// and can in rare geometries exceed a sound upper bound; clamping keeps
    /// the pair consistent without affecting decision soundness (the upper
    /// bound is checked first by the compressors).
    #[inline]
    pub fn new(lower: f64, upper: f64) -> DeviationBounds {
        DeviationBounds {
            lower: lower.min(upper),
            upper,
        }
    }

    /// Merges bounds from two point sets: the combined maximum deviation is
    /// at least the larger lower bound and at most the larger upper bound
    /// (Algorithm 1 line 5 aggregation).
    #[inline]
    pub fn merge(self, other: DeviationBounds) -> DeviationBounds {
        DeviationBounds {
            lower: self.lower.max(other.lower),
            upper: self.upper.max(other.upper),
        }
    }

    /// Width of the gap between the bounds — the Fig. 3 tightness measure.
    #[inline]
    pub fn gap(self) -> f64 {
        self.upper - self.lower
    }

    /// True when the pair decides an inclusion/cut outcome for tolerance `d`
    /// without a full deviation computation.
    #[inline]
    pub fn is_conclusive(self, tolerance: f64) -> bool {
        self.upper <= tolerance || self.lower > tolerance
    }
}

/// Third-largest of four values (Theorem 5.5's corner lower bound).
///
/// A compare network rather than a sort — this runs once per decision per
/// quadrant the chord is not in. Split the values into two pairs; the
/// third-largest (= second-smallest) of the four is the smaller of "the
/// larger pair-minimum" and "the smaller pair-maximum".
#[inline]
pub fn third_largest(v: [f64; 4]) -> f64 {
    let (lo_ab, hi_ab) = (v[0].min(v[1]), v[0].max(v[1]));
    let (lo_cd, hi_cd) = (v[2].min(v[3]), v[2].max(v[3]));
    lo_ab.max(lo_cd).min(hi_ab.min(hi_cd))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_lower() {
        let b = DeviationBounds::new(5.0, 3.0);
        assert_eq!(b.lower, 3.0);
        assert_eq!(b.upper, 3.0);
        let b = DeviationBounds::new(1.0, 3.0);
        assert_eq!(b.lower, 1.0);
    }

    #[test]
    fn merge_takes_maxima() {
        let a = DeviationBounds::new(1.0, 5.0);
        let b = DeviationBounds::new(2.0, 3.0);
        let m = a.merge(b);
        assert_eq!(m.lower, 2.0);
        assert_eq!(m.upper, 5.0);
    }

    #[test]
    fn conclusiveness() {
        assert!(DeviationBounds::new(0.0, 4.0).is_conclusive(5.0)); // include
        assert!(DeviationBounds::new(6.0, 9.0).is_conclusive(5.0)); // cut
        assert!(!DeviationBounds::new(3.0, 7.0).is_conclusive(5.0)); // uncertain
                                                                     // Boundary semantics: upper == d is an include; lower == d is uncertain.
        assert!(DeviationBounds::new(1.0, 5.0).is_conclusive(5.0));
        assert!(!DeviationBounds::new(5.0, 6.0).is_conclusive(5.0));
    }

    #[test]
    fn third_largest_of_four() {
        assert_eq!(third_largest([1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(third_largest([4.0, 3.0, 2.0, 1.0]), 2.0);
        assert_eq!(third_largest([5.0, 5.0, 5.0, 5.0]), 5.0);
        assert_eq!(third_largest([0.0, 10.0, 0.0, 10.0]), 0.0);
        // Every arrangement of distinct and tied values agrees with a sort.
        for values in [
            [1.0f64, 2.0, 3.0, 4.0],
            [1.0, 1.0, 2.0, 3.0],
            [7.0, 2.0, 2.0, 9.0],
        ] {
            let mut sorted = values;
            sorted.sort_by(|a, b| b.total_cmp(a));
            for code in 0..256usize {
                let idx = [code & 3, (code >> 2) & 3, (code >> 4) & 3, code >> 6];
                if (0..4).all(|i| idx.contains(&i)) {
                    let v = idx.map(|i| values[i]);
                    assert_eq!(third_largest(v), sorted[2], "{v:?}");
                }
            }
        }
    }

    #[test]
    fn empty_bounds() {
        assert_eq!(DeviationBounds::EMPTY.gap(), 0.0);
        assert!(DeviationBounds::EMPTY.is_conclusive(0.1));
    }
}
