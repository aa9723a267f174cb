//! Per-channel verdict hysteresis.
//!
//! Window-by-window tree verdicts flap at contention boundaries: a channel
//! hovering near the decision surface alternates `good`/`rmc` across
//! consecutive windows, which would fire a verdict event per window. The
//! detector therefore debounces: a channel's *stable* mode only flips
//! after `up` consecutive `rmc` windows (or `down` consecutive `good`
//! windows), and an event is emitted only on the flip.

use drbw_core::Mode;

/// Debounce thresholds, in consecutive windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HysteresisConfig {
    /// Consecutive `rmc` windows required to raise a contention verdict.
    pub up: u32,
    /// Consecutive `good` windows required to clear one.
    pub down: u32,
}

impl Default for HysteresisConfig {
    /// Two windows either way: one contended window never raises, one
    /// quiet window never clears.
    fn default() -> Self {
        Self { up: 2, down: 2 }
    }
}

/// The debounced verdict state of one channel.
#[derive(Debug, Clone, Copy)]
pub struct Hysteresis {
    cfg: HysteresisConfig,
    state: Mode,
    streak: u32,
}

impl Hysteresis {
    /// Start in `good` with empty streaks.
    ///
    /// # Panics
    /// Panics if either threshold is zero.
    pub fn new(cfg: HysteresisConfig) -> Self {
        assert!(cfg.up >= 1 && cfg.down >= 1, "hysteresis thresholds must be at least 1");
        Self { cfg, state: Mode::Good, streak: 0 }
    }

    /// The current stable mode.
    pub fn state(&self) -> Mode {
        self.state
    }

    /// Whether a `good` window would leave this state exactly as it is.
    pub(crate) fn is_settled_good(&self) -> bool {
        self.state == Mode::Good && self.streak == 0
    }

    /// Feed one window's raw verdict; returns the new stable mode when
    /// this observation flips the state, `None` otherwise.
    pub fn observe(&mut self, raw: Mode) -> Option<Mode> {
        if raw == self.state {
            self.streak = 0;
            return None;
        }
        self.streak += 1;
        let needed = if raw == Mode::Rmc { self.cfg.up } else { self.cfg.down };
        if self.streak >= needed {
            self.state = raw;
            self.streak = 0;
            Some(self.state)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_consecutive_windows_to_flip() {
        let mut h = Hysteresis::new(HysteresisConfig { up: 2, down: 3 });
        assert_eq!(h.observe(Mode::Rmc), None, "one rmc window is not enough");
        assert_eq!(h.observe(Mode::Rmc), Some(Mode::Rmc), "second consecutive rmc flips");
        assert_eq!(h.state(), Mode::Rmc);
        assert_eq!(h.observe(Mode::Rmc), None, "already rmc: no event");
        assert_eq!(h.observe(Mode::Good), None);
        assert_eq!(h.observe(Mode::Good), None);
        assert_eq!(h.observe(Mode::Good), Some(Mode::Good), "third consecutive good clears");
    }

    #[test]
    fn interruption_resets_the_streak() {
        let mut h = Hysteresis::new(HysteresisConfig { up: 2, down: 2 });
        assert_eq!(h.observe(Mode::Rmc), None);
        assert_eq!(h.observe(Mode::Good), None, "flap: streak broken");
        assert_eq!(h.observe(Mode::Rmc), None, "streak starts over");
        assert_eq!(h.observe(Mode::Rmc), Some(Mode::Rmc));
    }

    #[test]
    fn up_one_flips_immediately() {
        let mut h = Hysteresis::new(HysteresisConfig { up: 1, down: 1 });
        assert_eq!(h.observe(Mode::Rmc), Some(Mode::Rmc));
        assert_eq!(h.observe(Mode::Good), Some(Mode::Good));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_rejected() {
        Hysteresis::new(HysteresisConfig { up: 0, down: 2 });
    }
}
