//! The streaming detector's internal metrics surface.
//!
//! Counters a production monitor exports: how much was ingested and lost,
//! how many windows were classified, how often verdicts flipped, and the
//! detection latency from contention onset to the first `rmc` verdict.

/// Monotonic counters maintained by the detector (ring loss accounting
/// lives with the ring itself; the replay harness combines both).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamMetrics {
    /// Samples ingested into window accumulators.
    pub samples_ingested: u64,
    /// Samples refused before they reached any window: a `node` or `home`
    /// outside the machine, or a latency that is negative, infinite or
    /// NaN. Every sample offered to the detector is either ingested or
    /// rejected.
    pub samples_rejected: u64,
    /// Samples that arrived for an already-sealed pane and were folded
    /// into the open one (out-of-order arrival; best-effort accounting).
    pub late_samples: u64,
    /// Windows closed and classified (all channels of a boundary count as
    /// one window).
    pub windows_classified: u64,
    /// Stable-verdict transitions emitted (both directions, all channels).
    pub verdict_transitions: u64,
    /// Cycle timestamp of the first window boundary at which any channel's
    /// stable verdict became `rmc`.
    pub first_rmc_verdict_cycles: Option<f64>,
}

impl StreamMetrics {
    /// Detection latency in cycles from `onset_cycles` (when contention
    /// began, by the caller's definition) to the first stable `rmc`
    /// verdict; `None` while no verdict has fired. Clamped at zero for
    /// onsets inside the first contended window.
    pub fn detection_latency_from(&self, onset_cycles: f64) -> Option<f64> {
        self.first_rmc_verdict_cycles.map(|t| (t - onset_cycles).max(0.0))
    }
}

impl std::fmt::Display for StreamMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ingested={} rejected={} late={} windows={} transitions={} first_rmc={}",
            self.samples_ingested,
            self.samples_rejected,
            self.late_samples,
            self.windows_classified,
            self.verdict_transitions,
            match self.first_rmc_verdict_cycles {
                Some(t) => format!("{t:.0}cyc"),
                None => "never".to_string(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_from_onset() {
        let mut m = StreamMetrics::default();
        assert_eq!(m.detection_latency_from(100.0), None);
        m.first_rmc_verdict_cycles = Some(1500.0);
        assert_eq!(m.detection_latency_from(1000.0), Some(500.0));
        assert_eq!(m.detection_latency_from(2000.0), Some(0.0), "onset mid-window clamps to zero");
    }

    #[test]
    fn display_is_compact() {
        let m = StreamMetrics { samples_ingested: 7, ..Default::default() };
        let s = m.to_string();
        assert!(s.contains("ingested=7") && s.contains("first_rmc=never"), "{s}");
    }
}
