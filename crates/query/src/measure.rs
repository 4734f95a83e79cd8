//! The similarity measure a query is answered under.

/// The similarity measure a query is answered under — a value every engine
/// entry point takes, so one `exact` and one `approx` per engine cover
/// both measures. Deliberately exhaustive: a future measure (a normalized
/// or weighted variant) is a new variant here, and every engine's `match`
/// then fails to compile until it says what it does with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// Euclidean distance (the paper's default measure).
    Euclidean,
    /// Dynamic Time Warping under a Sakoe-Chiba band of half-width `band`
    /// (in points; `band = 0` degenerates to Euclidean alignment). The
    /// same index answers both measures (§V of the paper).
    Dtw {
        /// Sakoe-Chiba half-width in points; must be smaller than the
        /// series length.
        band: usize,
    },
}
