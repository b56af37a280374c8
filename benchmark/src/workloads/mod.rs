//! The four workloads. Each is arranged so that one layer does most of
//! its work and the others little or none:
//!
//! | workload    | dominant layer                    |
//! |-------------|-----------------------------------|
//! | `tables`    | `relalg` constraint solver        |
//! | `lint`      | `lint` (expression lints, flows)  |
//! | `mc_spill`  | `mc` engine and spill             |
//! | `sim_asura` | `sim` engine and fault layer      |
//!
//! Every op checks its outputs against pinned values; a mismatch fails
//! the op.

use crate::trace::Tracer;
use std::fmt::Debug;
use std::path::Path;

pub mod lint;
pub mod mc_spill;
pub mod sim_asura;
pub mod tables;

/// The workload names, in documentation order.
pub const NAMES: [&str; 4] = ["tables", "lint", "mc_spill", "sim_asura"];

/// Why an op failed.
#[derive(Debug, PartialEq)]
pub enum Failure {
    /// A known program defect the benchmark keeps visible: a coherence
    /// break or engine panic in a `sim_asura` chaos run (see README).
    /// The op counts as failed; the benchmark's outputs stay correct.
    Known(String),
    /// An output differs from its pinned value.
    Wrong(String),
}

/// What one op produced.
pub struct OpReport {
    /// Work units done (the numerator of `work_per_cpu_s`).
    pub work: u64,
    /// Per-layer counts and ratios of this op.
    pub counts: Vec<(&'static str, f64)>,
    /// `None` when every output matched.
    pub failure: Option<Failure>,
}

/// A workload after its one-time set-up.
pub trait Workload {
    /// Run op number `i`, wrapping each layer call in a `tr` span.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpReport;
}

/// Everything a workload's set-up may use.
pub struct Params<'a> {
    /// The workload seed (`--seed`).
    pub seed: u64,
    /// How many ops the run will make.
    pub ops: usize,
    /// A benchmark-owned scratch directory inside the checkout.
    pub scratch: &'a Path,
}

/// Nominal single-op wall time on the reference host, in seconds; a
/// run makes `max(11, round(--seconds / nominal))` timed ops.
pub fn nominal_op_s(name: &str) -> Option<f64> {
    Some(match name {
        "tables" => tables::NOMINAL_OP_S,
        "lint" => lint::NOMINAL_OP_S,
        "mc_spill" => mc_spill::NOMINAL_OP_S,
        "sim_asura" => sim_asura::NOMINAL_OP_S,
        _ => return None,
    })
}

/// Set up workload `name` (the timed one-time work).
pub fn setup(name: &str, p: &Params) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tables" => Box::new(tables::Tables::setup()?),
        "lint" => Box::new(lint::Lint::setup()?),
        "mc_spill" => Box::new(mc_spill::McSpill::setup(p.scratch)?),
        "sim_asura" => Box::new(sim_asura::SimAsura::setup(p.seed, p.ops)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Compare an op's observed outputs with the pinned ones.
pub fn expect<T: PartialEq + Debug>(what: &str, got: &T, want: &T) -> Option<Failure> {
    (got != want).then(|| Failure::Wrong(format!("{what}: got {got:?}, pinned {want:?}")))
}

/// The shipped spec packs, embedded at build time. Set-up parses them.
pub const PACKS: [(&str, &str); 7] = [
    (
        "bedrock_moesif",
        include_str!("../../../specs/bedrock_moesif.ccsql"),
    ),
    (
        "bedrock_moesif_buggy",
        include_str!("../../../specs/bedrock_moesif_buggy.ccsql"),
    ),
    ("fig3", include_str!("../../../specs/fig3.ccsql")),
    (
        "fig3_buggy",
        include_str!("../../../specs/fig3_buggy.ccsql"),
    ),
    (
        "fig3_flowbug",
        include_str!("../../../specs/fig3_flowbug.ccsql"),
    ),
    (
        "phase_priority",
        include_str!("../../../specs/phase_priority.ccsql"),
    ),
    (
        "phase_priority_buggy",
        include_str!("../../../specs/phase_priority_buggy.ccsql"),
    ),
];

/// Parse every spec pack.
pub fn parse_packs() -> Result<Vec<(&'static str, ccsql_relalg::SpecFile)>, String> {
    PACKS
        .iter()
        .map(|&(name, text)| {
            ccsql_relalg::specfile::parse_specfile(text)
                .map(|sf| (name, sf))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// An op that failed before producing its outputs.
pub fn broken(what: &str, err: impl std::fmt::Display) -> OpReport {
    OpReport {
        work: 0,
        counts: Vec::new(),
        failure: Some(Failure::Wrong(format!("{what}: {err}"))),
    }
}
