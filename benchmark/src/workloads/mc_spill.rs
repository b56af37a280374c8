//! `mc_spill`: out-of-core, symmetry-reduced model checking of the
//! abstract ASURA model under a memory budget about a third of the
//! visited arena, the same ratio as the 128 MiB / 354 MB headline run.
//! It exercises expand, canonicalisation, dedup, merge and spill; no
//! other workload calls the `mc` crate.

use super::{expect, Failure, OpReport, Workload};
use crate::trace::Tracer;
use ccsql_mc::{explore_with, McOpts, McOutcome, Model};
use std::path::{Path, PathBuf};

pub const NOMINAL_OP_S: f64 = 3.0;

/// Orbit representatives explored per op; the cutoff is exact.
const BUDGET: usize = 600_000;
/// Resident-memory budget: about a third of the 9.6 MB arena.
const MEM_BUDGET: usize = 3 << 20;

const MODEL: Model = Model {
    nodes: 5,
    quota: 2,
    resp_depth: 2,
};

/// The outputs every op must reproduce exactly: (outcome, orbit
/// representatives, full states, transitions, dedup hits, levels,
/// frontier peak).
pub type Observed = (&'static str, usize, u64, u64, u64, usize, usize);

/// The pinned outputs.
pub const PINNED: Observed = (
    "BudgetExceeded",
    BUDGET,
    63_378_464,
    3_212_493,
    2_550_952,
    28,
    102_674,
);

pub struct McSpill {
    spill_dir: PathBuf,
    pinned: Observed,
}

impl McSpill {
    pub fn setup(scratch: &Path) -> Result<McSpill, String> {
        MODEL.validate()?;
        let spill_dir = scratch.join("spill");
        std::fs::create_dir_all(&spill_dir)
            .map_err(|e| format!("create {}: {e}", spill_dir.display()))?;
        Ok(McSpill {
            spill_dir,
            pinned: PINNED,
        })
    }

    /// Files left in the spill directory, which is then emptied.
    fn leftover_spill_files(&self) -> Result<usize, String> {
        let leftovers = std::fs::read_dir(&self.spill_dir)
            .map_err(|e| format!("read spill dir: {e}"))?
            .count();
        if leftovers > 0 {
            std::fs::remove_dir_all(&self.spill_dir)
                .and_then(|()| std::fs::create_dir_all(&self.spill_dir))
                .map_err(|e| format!("empty spill dir: {e}"))?;
        }
        Ok(leftovers)
    }
}

impl Workload for McSpill {
    fn op(&mut self, _i: usize, tr: &mut Tracer) -> OpReport {
        let opts = McOpts {
            budget: BUDGET,
            threads: 1,
            symmetry: true,
            mem_budget: MEM_BUDGET,
            spill_dir: Some(self.spill_dir.clone()),
            ..McOpts::default()
        };
        let (outcome, s) = tr.span("mc.explore", |_| {
            explore_with(&MODEL, MODEL.initial(), &opts)
        });
        let outcome = match outcome {
            McOutcome::Verified => "Verified",
            McOutcome::Violation(property) => property,
            McOutcome::Stuck => "Stuck",
            McOutcome::BudgetExceeded => "BudgetExceeded",
        };
        let observed = (
            outcome,
            s.states,
            s.orbit_states,
            s.transitions,
            s.dedup_hits,
            s.levels,
            s.frontier_peak,
        );
        let failure = match self.leftover_spill_files() {
            Err(e) => Some(Failure::Wrong(e)),
            Ok(n) if n > 0 => Some(Failure::Wrong(format!("{n} spill entries survived the op"))),
            Ok(_) if s.spilled_bytes == 0 => Some(Failure::Wrong(
                "nothing spilled under the memory budget".into(),
            )),
            Ok(_) => expect("mc", &observed, &self.pinned),
        };
        OpReport {
            work: s.states as u64,
            counts: vec![
                ("mc.states", s.states as f64),
                ("mc.orbit_states", s.orbit_states as f64),
                ("mc.transitions", s.transitions as f64),
                ("mc.dedup_hits", s.dedup_hits as f64),
                ("mc.levels", s.levels as f64),
                ("mc.frontier_peak", s.frontier_peak as f64),
                (
                    "mc.new_per_transition",
                    s.states as f64 / s.transitions as f64,
                ),
                ("mc.spilled_bytes", s.spilled_bytes as f64),
                ("mc.mem_peak_bytes", s.mem_peak_bytes as f64),
                (
                    "mc.mem_peak_per_budget",
                    s.mem_peak_bytes as f64 / MEM_BUDGET as f64,
                ),
            ],
            failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_outputs_pass_and_a_wrong_pin_fails_the_op() {
        let scratch =
            std::env::temp_dir().join(format!("ccsql-benchmark-mc-{}", std::process::id()));
        let mut w = McSpill::setup(&scratch).unwrap();
        let mut tr = Tracer::new(false);
        let report = w.op(0, &mut tr);
        assert_eq!(report.failure, None);
        assert!(report
            .counts
            .iter()
            .any(|&(n, v)| n == "mc.spilled_bytes" && v > 0.0));
        w.pinned.3 += 1;
        assert!(matches!(w.op(1, &mut tr).failure, Some(Failure::Wrong(_))));
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
