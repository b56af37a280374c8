//! `lint`: what `ccsql lint --protocol` runs under V1, plus the spec
//! packs' lint and the message-flow analyses. The largest static cost;
//! no other workload calls the `lint` crate.

use super::{expect, parse_packs, OpReport, Workload};
use crate::trace::Tracer;
use ccsql::gen::GeneratedProtocol;
use ccsql::vc::VcAssignment;
use ccsql_lint::{FlowsAnalysis, LintReport, Severity};
use ccsql_protocol::ProtocolSpec;
use ccsql_relalg::expr::SetContext;
use ccsql_relalg::SpecFile;

pub const NOMINAL_OP_S: f64 = 0.45;

/// A flow analysis summary: (flows, uncovered rows, deadlock-free for
/// every N, agrees with the VCG, diagnostic codes).
pub type FlowSummary = (usize, usize, bool, bool, Vec<&'static str>);

/// The outputs every op must reproduce exactly.
#[derive(Debug, PartialEq)]
pub struct Observed {
    /// `lint --protocol` (V1): (errors, warnings, infos).
    pub protocol: (usize, usize, usize),
    /// Per spec pack: (name, diagnostic codes in report order).
    pub packs: Vec<(&'static str, Vec<&'static str>)>,
    /// Per flow analysis (protocol V1, protocol V2, then each pack
    /// under V1): (name, summary or error).
    pub flows: Vec<(&'static str, Result<FlowSummary, String>)>,
}

/// The pinned outputs.
pub fn pinned() -> Observed {
    let clean = |flows| Ok((flows, 0, true, true, vec![]));
    Observed {
        protocol: (0, 0, 0),
        packs: vec![
            ("bedrock_moesif", vec![]),
            ("bedrock_moesif_buggy", vec![]),
            ("fig3", vec![]),
            (
                "fig3_buggy",
                vec![
                    "CCL020", "CCL006", "CCL006", "CCL010", "CCL010", "CCL003", "CCL006",
                ],
            ),
            ("fig3_flowbug", vec![]),
            ("phase_priority", vec![]),
            ("phase_priority_buggy", vec!["CCL011"; 4]),
        ],
        flows: vec![
            ("protocol_v1", Ok((14, 0, false, true, vec!["CCL031"]))),
            ("protocol_v2", clean(14)),
            ("bedrock_moesif", clean(6)),
            ("bedrock_moesif_buggy", clean(6)),
            ("fig3", clean(3)),
            (
                "fig3_buggy",
                Err(
                    "spec `Fig3Buggy` declares no role-tagged flow columns; flow analysis \
                     needs `flow COL(SRC, DEST)` directives (SRC/DEST: a role column or one \
                     of local/home/remote)"
                        .to_string(),
                ),
            ),
            ("fig3_flowbug", Ok((4, 0, false, true, vec!["CCL031"]))),
            ("phase_priority", clean(3)),
            ("phase_priority_buggy", clean(3)),
        ],
    }
}

pub struct Lint {
    gen: GeneratedProtocol,
    ctx: SetContext,
    packs: Vec<(&'static str, SpecFile)>,
    pinned: Observed,
}

impl Lint {
    pub fn setup() -> Result<Lint, String> {
        Ok(Lint {
            gen: GeneratedProtocol::generate_default().map_err(|e| e.to_string())?,
            ctx: ProtocolSpec::eval_context(),
            packs: parse_packs()?,
            pinned: pinned(),
        })
    }
}

fn codes(r: &LintReport) -> Vec<&'static str> {
    r.diagnostics().iter().map(|d| d.code).collect()
}

fn summarize(a: Result<FlowsAnalysis, String>) -> Result<FlowSummary, String> {
    let a = a?;
    let mut report = LintReport::new();
    a.lint(&mut report);
    report.finish();
    Ok((
        a.extraction.flows.len(),
        a.uncovered.len(),
        a.deadlock_free_all_n(),
        a.agrees_with_vcg(),
        codes(&report),
    ))
}

impl Workload for Lint {
    fn op(&mut self, _i: usize, tr: &mut Tracer) -> OpReport {
        let spec = &self.gen.spec;
        let report = tr.span("lint.protocol", |_| {
            ccsql_lint::lint_protocol(spec, &VcAssignment::v1())
        });
        let protocol = (
            report.count(Severity::Error),
            report.count(Severity::Warn),
            report.count(Severity::Info),
        );
        let mut diagnostics = report.diagnostics().len();

        let mut packs = Vec::new();
        for (name, sf) in &self.packs {
            let r = tr.span("lint.specfiles", |_| {
                ccsql_lint::lint_specfiles(&[sf], &self.ctx)
            });
            diagnostics += r.diagnostics().len();
            packs.push((*name, codes(&r)));
        }

        let mut flows = Vec::new();
        let gen = &self.gen;
        for (name, v) in [
            ("protocol_v1", VcAssignment::v1()),
            ("protocol_v2", VcAssignment::v2()),
        ] {
            let s = tr.span("lint.flows", |_| {
                summarize(ccsql_lint::flows::analyze_protocol(gen, &v))
            });
            flows.push((name, s));
        }
        for (name, sf) in &self.packs {
            let s = tr.span("lint.flows", |_| {
                summarize(ccsql_lint::flows::analyze_specfile(sf, &VcAssignment::v1()))
            });
            flows.push((*name, s));
        }
        diagnostics += flows
            .iter()
            .filter_map(|(_, s)| s.as_ref().ok())
            .map(|s| s.4.len())
            .sum::<usize>();

        let columns: usize = gen
            .spec
            .controllers
            .iter()
            .map(|c| c.spec.columns.len())
            .sum::<usize>()
            + self
                .packs
                .iter()
                .map(|(_, sf)| sf.spec.columns.len())
                .sum::<usize>();
        let observed = Observed {
            protocol,
            packs,
            flows,
        };
        OpReport {
            work: columns as u64,
            counts: vec![("lint.diagnostics", diagnostics as f64)],
            failure: expect("lint", &observed, &self.pinned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Failure;

    #[test]
    fn pinned_outputs_pass_and_a_wrong_pin_fails_the_op() {
        let mut w = Lint::setup().unwrap();
        let mut tr = Tracer::new(false);
        assert_eq!(w.op(0, &mut tr).failure, None);
        w.pinned.packs[3].1.pop();
        assert!(matches!(w.op(1, &mut tr).failure, Some(Failure::Wrong(_))));
    }
}
