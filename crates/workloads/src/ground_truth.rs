//! The paper's ground-truth rule (§VII.B): a case *actually* suffers
//! remote bandwidth contention if interleaving its memory speeds it up by
//! more than 10%, because interleaving balances requests across NUMA
//! domains and therefore relieves (only) bandwidth contention.

use crate::config::{RunConfig, Variant};
use crate::runner::{run, RunOutcome};
use crate::spec::Workload;
use numasim::config::MachineConfig;

/// Interleave speedup above which a case is deemed contended.
pub const GT_SPEEDUP_THRESHOLD: f64 = 1.10;

/// Ground-truth verdict for one case.
#[derive(Debug, Clone, Copy)]
pub struct GroundTruth {
    /// Speedup of the fully interleaved run over the baseline.
    pub interleave_speedup: f64,
    /// `true` when the speedup exceeds [`GT_SPEEDUP_THRESHOLD`].
    pub is_rmc: bool,
}

/// Evaluate the ground-truth rule for one case (two unprofiled runs).
///
/// # Panics
/// Panics if `rcfg` is not a baseline configuration.
pub fn actual_contention(workload: &dyn Workload, mcfg: &MachineConfig, rcfg: &RunConfig) -> GroundTruth {
    actual_contention_by(rcfg, |r| run(workload, mcfg, r, None))
}

/// The rule itself, over any source of unprofiled runs (`run_unprofiled`
/// is handed the baseline, then the fully interleaved configuration), so
/// a caller that memoizes runs applies exactly the rule
/// [`actual_contention`] does.
///
/// # Panics
/// Panics if `rcfg` is not a baseline configuration.
pub fn actual_contention_by(rcfg: &RunConfig, mut run_unprofiled: impl FnMut(&RunConfig) -> RunOutcome) -> GroundTruth {
    assert_eq!(rcfg.variant, Variant::Baseline, "ground truth starts from the baseline");
    let base = run_unprofiled(rcfg);
    let inter = run_unprofiled(&rcfg.with_variant(Variant::InterleaveAll));
    let interleave_speedup = inter.speedup_over(&base);
    GroundTruth { interleave_speedup, is_rmc: interleave_speedup > GT_SPEEDUP_THRESHOLD }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Input;
    use crate::micro::{Bandit, Sumv};

    #[test]
    fn large_multinode_sumv_is_rmc() {
        let gt = actual_contention(&Sumv, &MachineConfig::scaled(), &RunConfig::new(32, 4, Input::Large));
        assert!(gt.is_rmc, "speedup {}", gt.interleave_speedup);
    }

    #[test]
    fn small_sumv_is_good() {
        let gt = actual_contention(&Sumv, &MachineConfig::scaled(), &RunConfig::new(16, 4, Input::Small));
        assert!(!gt.is_rmc, "speedup {}", gt.interleave_speedup);
    }

    #[test]
    fn lone_bandit_is_good() {
        let gt = actual_contention(&Bandit, &MachineConfig::scaled(), &RunConfig::new(1, 2, Input::Large));
        assert!(!gt.is_rmc, "speedup {}", gt.interleave_speedup);
    }

    #[test]
    #[should_panic(expected = "starts from the baseline")]
    fn rejects_non_baseline() {
        let rcfg = RunConfig::new(16, 4, Input::Small).with_variant(Variant::InterleaveAll);
        actual_contention(&Sumv, &MachineConfig::scaled(), &rcfg);
    }
}
