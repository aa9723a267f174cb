//! Window semantics: tumbling and sliding windows over simulated time.
//!
//! Windows are defined on the sample's `time` field (simulated cycles), on
//! a fixed grid anchored at an origin. A **sliding** window of length `L`
//! advancing by `S = L / panes` is maintained as `panes` **pane**
//! accumulators of width `S` each; the window closing at pane boundary
//! `t` merges the last `panes` panes. A **tumbling** window is the
//! one-pane special case (`S = L`). Because the pane accumulators are
//! mergeable with bit-exact sums (`drbw_core::features::FeatureAccumulator`),
//! a closed window's feature vector is identical to batch extraction over
//! the same time span.

/// Tumbling/sliding window geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    slide_cycles: f64,
    panes: usize,
}

impl WindowConfig {
    /// A tumbling window: length `length_cycles`, advancing by its own
    /// length.
    ///
    /// # Panics
    /// Panics unless `length_cycles` is positive and finite.
    pub fn tumbling(length_cycles: f64) -> Self {
        Self::sliding(length_cycles, 1)
    }

    /// A sliding window of length `length_cycles` advancing by
    /// `length_cycles / panes` (so `panes` sub-window accumulators are
    /// retained at any time).
    ///
    /// # Panics
    /// Panics unless `length_cycles` is positive and finite and
    /// `panes >= 1`.
    pub fn sliding(length_cycles: f64, panes: usize) -> Self {
        assert!(length_cycles.is_finite() && length_cycles > 0.0, "window length must be positive");
        assert!(panes >= 1, "a window needs at least one pane");
        Self { slide_cycles: length_cycles / panes as f64, panes }
    }

    /// Window length in cycles.
    pub fn length_cycles(&self) -> f64 {
        self.slide_cycles * self.panes as f64
    }

    /// Advance step (pane width) in cycles.
    pub fn slide_cycles(&self) -> f64 {
        self.slide_cycles
    }

    /// Panes per window.
    pub fn panes(&self) -> usize {
        self.panes
    }

    /// The pane grid index containing time `t` relative to `origin`
    /// (negative before the origin).
    pub fn pane_index(&self, origin: f64, t: f64) -> i64 {
        ((t - origin) / self.slide_cycles).floor() as i64
    }

    /// End boundary (cycles) of pane `index` relative to `origin`. (The
    /// `+ 1` is taken in `f64` so the last grid index cannot overflow;
    /// below 2⁵³ it is the same integer either way.)
    pub fn pane_end(&self, origin: f64, index: i64) -> f64 {
        origin + (index as f64 + 1.0) * self.slide_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_is_one_pane() {
        let w = WindowConfig::tumbling(1000.0);
        assert_eq!(w.panes(), 1);
        assert_eq!(w.slide_cycles(), 1000.0);
        assert_eq!(w.length_cycles(), 1000.0);
    }

    #[test]
    fn sliding_divides_length() {
        let w = WindowConfig::sliding(1000.0, 4);
        assert_eq!(w.slide_cycles(), 250.0);
        assert_eq!(w.length_cycles(), 1000.0);
    }

    #[test]
    fn pane_grid() {
        let w = WindowConfig::sliding(100.0, 2);
        assert_eq!(w.pane_index(0.0, 0.0), 0);
        assert_eq!(w.pane_index(0.0, 49.9), 0);
        assert_eq!(w.pane_index(0.0, 50.0), 1);
        assert_eq!(w.pane_index(0.0, 125.0), 2);
        assert_eq!(w.pane_index(10.0, 5.0), -1, "before the origin");
        assert_eq!(w.pane_end(0.0, 0), 50.0);
        assert_eq!(w.pane_end(10.0, 1), 110.0);
        assert_eq!(w.pane_end(0.0, -1), 0.0);
        assert_eq!(w.pane_index(0.0, f64::INFINITY), i64::MAX, "saturates");
        assert_eq!(w.pane_end(0.0, i64::MAX), 2f64.powi(63) * 50.0, "no overflow at the last index");
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        WindowConfig::tumbling(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one pane")]
    fn zero_panes_rejected() {
        WindowConfig::sliding(100.0, 0);
    }
}
