//! `tables`: the paper's static flow as `ccsql gen/check/deadlock/map`
//! run it, plus the shipped spec packs. The constraint solver does most
//! of the work; no other workload spends much time in it.

use super::{broken, expect, parse_packs, OpReport, Workload};
use crate::trace::Tracer;
use ccsql::depend::{protocol_dependency_table, AnalysisConfig};
use ccsql::gen::GeneratedProtocol;
use ccsql::hwmap::HwMapping;
use ccsql::invariants;
use ccsql::liveness::BusyGraph;
use ccsql::vc::VcAssignment;
use ccsql::vcg::Vcg;
use ccsql_protocol::directory::OwnerTransfer;
use ccsql_protocol::{states, ProtocolSpec};
use ccsql_relalg::{GenMode, SpecFile};

pub const NOMINAL_OP_S: f64 = 0.19;

/// The outputs every op must reproduce exactly.
#[derive(Debug, PartialEq)]
pub struct Observed {
    /// Per directory revision (via memory, direct transfer):
    /// (tables, rows over all tables, `D` rows, `D` columns).
    pub revisions: Vec<(usize, usize, usize, usize)>,
    /// (invariants checked, invariants violated).
    pub invariants: (usize, usize),
    /// Per analysis (V1, V1 with transitive closure, V2): (dependency
    /// rows, VCG channels, VCG edges, channel sets of the VCG cycles).
    pub depend: Vec<(usize, usize, usize, Vec<Vec<String>>)>,
    /// `BusyGraph` liveness holds.
    pub liveness_ok: bool,
    /// (`ED` rows, `ED` columns, implementation tables, `ED`
    /// reconstructed, `D` preserved).
    pub hwmap: (usize, usize, usize, bool, bool),
    /// Per spec pack: (name, rows, columns, failed static checks).
    pub packs: Vec<(&'static str, usize, usize, Vec<String>)>,
}

/// The pinned outputs.
pub fn pinned() -> Observed {
    let vc2_vc4 = || vec![vec!["VC2".to_string(), "VC4".to_string()]];
    Observed {
        revisions: vec![(8, 618, 498, 30), (8, 620, 498, 30)],
        invariants: (60, 0),
        depend: vec![
            (1413, 5, 13, vc2_vc4()),
            (2587, 5, 13, vc2_vc4()),
            (785, 5, 9, vec![]),
        ],
        liveness_ok: true,
        hwmap: (994, 33, 9, true, true),
        packs: vec![
            ("bedrock_moesif", 24, 10, vec![]),
            ("bedrock_moesif_buggy", 24, 10, vec![]),
            ("fig3", 10, 9, vec![]),
            ("fig3_buggy", 8, 8, vec![]),
            ("fig3_flowbug", 11, 10, vec![]),
            ("phase_priority", 36, 9, vec![]),
            (
                "phase_priority_buggy",
                40,
                9,
                vec!["high-phase-never-bounced-when-free".to_string()],
            ),
        ],
    }
}

pub struct Tables {
    packs: Vec<(&'static str, SpecFile)>,
    pinned: Observed,
}

impl Tables {
    pub fn setup() -> Result<Tables, String> {
        Ok(Tables {
            packs: parse_packs()?,
            pinned: pinned(),
        })
    }
}

fn cycle_sets(vcg: &Vcg) -> Vec<Vec<String>> {
    vcg.cycles()
        .iter()
        .map(|c| c.channels.iter().map(|s| s.as_str().to_string()).collect())
        .collect()
}

impl Workload for Tables {
    fn op(&mut self, _i: usize, tr: &mut Tracer) -> OpReport {
        let specs = tr.span("protocol.spec", |_| {
            [
                ProtocolSpec::asura_with(OwnerTransfer::ViaMemory),
                ProtocolSpec::asura_with(OwnerTransfer::Direct),
            ]
        });
        let mut gens = Vec::new();
        for spec in specs {
            match tr.span("relalg.generate", |_| {
                GeneratedProtocol::generate_spec(spec, GenMode::Incremental)
            }) {
                Ok(g) => gens.push(g),
                Err(e) => return broken("generate_spec", e),
            }
        }
        let (mut candidates, mut gen_rows) = (0u64, 0usize);
        let mut revisions = Vec::new();
        for g in &gens {
            let rows: usize = g.stats.values().map(|s| s.rows).sum();
            candidates += g.stats.values().map(|s| s.candidates).sum::<u64>();
            gen_rows += rows;
            let Ok(d) = g.table("D") else {
                return broken("generate_spec", "no table D");
            };
            revisions.push((g.stats.len(), rows, d.len(), d.arity()));
        }
        let gen = &mut gens[0];

        let results = match tr.span("core.invariants", |_| invariants::check_all(&mut gen.db)) {
            Ok(r) => r,
            Err(e) => return broken("invariants", e),
        };
        let violated = invariants::failures(&results).len();

        let closure = AnalysisConfig {
            transitive_closure: true,
            ..AnalysisConfig::default()
        };
        let analyses = [
            (VcAssignment::v1(), AnalysisConfig::default()),
            (VcAssignment::v1(), closure),
            (VcAssignment::v2(), AnalysisConfig::default()),
        ];
        let mut depend = Vec::new();
        for (v, cfg) in &analyses {
            let deps = match tr.span("core.depend", |_| protocol_dependency_table(gen, v, cfg)) {
                Ok(d) => d,
                Err(e) => return broken("protocol_dependency_table", e),
            };
            let (channels, edges, cycles) = tr.span("core.vcg", |_| {
                let vcg = Vcg::build(&deps);
                (vcg.channels().len(), vcg.edges().len(), cycle_sets(&vcg))
            });
            depend.push((deps.rows.len(), channels, edges, cycles));
        }

        let Ok(d) = gen.table("D") else {
            return broken("generate_spec", "no table D");
        };
        let liveness_ok = match tr.span("core.liveness", |_| {
            BusyGraph::build(d, &states::busy_states())
        }) {
            Ok(g) => g.ok(),
            Err(e) => return broken("BusyGraph::build", e),
        };
        let hw = tr.span("core.hwmap", |_| {
            let m = HwMapping::build(gen)?;
            let c = m.check(d)?;
            Ok::<_, ccsql_relalg::Error>((
                m.ed.len(),
                m.ed.arity(),
                m.impl_tables.len(),
                c.ed_reconstructed,
                c.d_preserved,
            ))
        });
        let hwmap = match hw {
            Ok(h) => h,
            Err(e) => return broken("hwmap", e),
        };

        let mut packs = Vec::new();
        let mut pack_rows = 0;
        for (name, sf) in &self.packs {
            let solved = tr.span("relalg.specfile_solve", |_| {
                ccsql_relalg::specfile::solve_specfile_with(sf, true)
            });
            match solved {
                Ok((rel, failures)) => {
                    pack_rows += rel.len();
                    let failed = failures.into_iter().map(|(n, _)| n).collect();
                    packs.push((*name, rel.len(), rel.arity(), failed));
                }
                Err(e) => return broken(name, e),
            }
        }

        let depend_rows: usize = depend.iter().map(|d| d.0).sum();
        let vcg_cycles: usize = depend.iter().map(|d| d.3.len()).sum();
        let observed = Observed {
            revisions,
            invariants: (results.len(), violated),
            depend,
            liveness_ok,
            hwmap,
            packs,
        };
        OpReport {
            work: (gen_rows + pack_rows) as u64,
            counts: vec![
                ("relalg.candidates", candidates as f64),
                ("relalg.rows", gen_rows as f64),
                (
                    "relalg.rows_per_candidate",
                    gen_rows as f64 / candidates as f64,
                ),
                ("core.depend_rows", depend_rows as f64),
                ("core.vcg_cycles", vcg_cycles as f64),
            ],
            failure: expect("tables", &observed, &self.pinned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Failure;

    #[test]
    fn pinned_outputs_pass_and_a_wrong_pin_fails_the_op() {
        let mut w = Tables::setup().unwrap();
        let mut tr = Tracer::new(false);
        assert_eq!(w.op(0, &mut tr).failure, None);
        w.pinned.depend[0].0 += 1;
        assert!(matches!(w.op(1, &mut tr).failure, Some(Failure::Wrong(_))));
    }
}
