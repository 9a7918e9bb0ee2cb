//! Regeneration harness for every table and figure in the ASPLOS'16
//! evaluation, plus the ablations listed in `DESIGN.md`.
//!
//! Each experiment is a module with a `run(&ExpConfig) -> Result<R, _>`
//! function returning serializable structured data, and one or more
//! `render*` functions producing the text table printed by the
//! `icm-experiments` binary.
//!
//! Several ids are views of one study: a table row in the index below
//! that lists more than one id names one computation. The study runs
//! once ([`Experiment::run_study`]) and each view renders from its
//! result ([`Study::view`]); the binary and [`run_views`] run a study
//! once per run of adjacent selected views, so `all` runs each once.
//!
//! ```text
//! cargo run -p icm-experiments --release -- fig2
//! cargo run -p icm-experiments --release -- all --fast
//! ```
//!
//! | id | paper artifact |
//! |----|----------------|
//! | `fig2` | motivation: naive vs real lammps interference |
//! | `fig3` | propagation curves, 12 distributed apps |
//! | `fig4` / `table2` | heterogeneity policy errors / best policy |
//! | `table3` / `fig6` / `fig7` | profiling cost & accuracy |
//! | `table4` | bubble scores |
//! | `fig8` / `fig9` | pairwise model validation |
//! | `fig10` | QoS-aware placement |
//! | `fig11` / `table5` | throughput placement over the Table 5 mixes |
//! | `fig12` / `table6` / `fig13` | EC2 study |
//! | `ablation-*` | A1–A4 design-choice ablations |
//! | `ext-online` | online model refinement (§4.4 future work) |
//! | `ext-multiapp` | 3 tenants per host via score combination (§4.4) |
//! | `ext-energy` | wasted-CPU placement (conclusion's use case) |
//! | `ext-phases` | phase-varying sensitivity vs the static model (§4.4) |
//! | `ext-transfer` | model transfer across host generations (§6) |
//! | `ext-scale` | placement at 16 hosts / 8 tenants |
//! | `ext-iochannel` | the unprofiled network/disk I/O channel (§2.1) |
//! | `robustness` | resilient profiling under injected faults |
//! | `recovery` | self-healing runtime vs unmanaged baseline |
//! | `endurance` | checkpointable long run under randomized crashes |
//! | `fork` | one world branched mid-run under different policies |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod context;
pub mod ec2;
pub mod endurance;
pub mod explain;
pub mod extensions;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod flame;
pub mod placement_common;
pub mod profiling_source;
pub mod recovery;
pub mod results;
pub mod robustness;
pub mod serve;
pub mod table;
pub mod table3;
pub mod table4;
pub mod trace;
pub mod tracediff;

pub use context::{ExpConfig, ExpError};

use icm_json::{Json, ToJson};
use icm_obs::Tracer;

/// Every runnable experiment id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experiment {
    /// Fig. 2 — motivation.
    Fig2,
    /// Fig. 3 — propagation curves.
    Fig3,
    /// Fig. 4 — policy errors.
    Fig4,
    /// Table 2 — best policies.
    Table2,
    /// Table 3 — profiling cost/accuracy averages.
    Table3,
    /// Fig. 6 — per-app profiling error.
    Fig6,
    /// Fig. 7 — per-app profiling cost.
    Fig7,
    /// Table 4 — bubble scores.
    Table4,
    /// Fig. 8 — pairwise validation.
    Fig8,
    /// Fig. 9 — the M.Gems detail.
    Fig9,
    /// Fig. 10 — QoS placement.
    Fig10,
    /// Fig. 11 — throughput placement.
    Fig11,
    /// Table 5 — mixes.
    Table5,
    /// Fig. 12 — EC2 curves.
    Fig12,
    /// Table 6 — EC2 policies.
    Table6,
    /// Fig. 13 — EC2 validation.
    Fig13,
    /// Ablation A1 — binary-search ε.
    AblationInterp,
    /// Ablation A2 — search budget.
    AblationSa,
    /// Ablation A3 — policy samples.
    AblationSamples,
    /// Ablation A4 — multi-app scores.
    AblationMultiApp,
    /// Extension — online model refinement.
    ExtOnline,
    /// Extension — three tenants per host.
    ExtMultiApp,
    /// Extension — wasted-CPU placement.
    ExtEnergy,
    /// Extension — phase-varying sensitivity.
    ExtPhases,
    /// Extension — model transfer across host generations.
    ExtTransfer,
    /// Extension — placement quality vs cluster scale.
    ExtScale,
    /// Extension — the unprofiled network/disk I/O channel.
    ExtIoChannel,
    /// Robustness — resilient profiling under injected faults.
    Robustness,
    /// Recovery — self-healing runtime vs unmanaged baseline.
    Recovery,
    /// Endurance — checkpointable long run under randomized crashes.
    Endurance,
    /// Fork — one world branched mid-run under different policies.
    Fork,
    /// Serve — the placement daemon under scripted load with a
    /// mid-stream kill.
    Serve,
}

impl Experiment {
    /// All experiments in paper order.
    pub const ALL: [Experiment; 32] = [
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig4,
        Experiment::Table2,
        Experiment::Table3,
        Experiment::Fig6,
        Experiment::Fig7,
        Experiment::Table4,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Table5,
        Experiment::Fig12,
        Experiment::Table6,
        Experiment::Fig13,
        Experiment::AblationInterp,
        Experiment::AblationSa,
        Experiment::AblationSamples,
        Experiment::AblationMultiApp,
        Experiment::ExtOnline,
        Experiment::ExtMultiApp,
        Experiment::ExtEnergy,
        Experiment::ExtPhases,
        Experiment::ExtTransfer,
        Experiment::ExtScale,
        Experiment::ExtIoChannel,
        Experiment::Robustness,
        Experiment::Recovery,
        Experiment::Endurance,
        Experiment::Fork,
        Experiment::Serve,
    ];

    /// Command-line id.
    pub fn id(&self) -> &'static str {
        match self {
            Experiment::Fig2 => "fig2",
            Experiment::Fig3 => "fig3",
            Experiment::Fig4 => "fig4",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Table4 => "table4",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Table5 => "table5",
            Experiment::Fig12 => "fig12",
            Experiment::Table6 => "table6",
            Experiment::Fig13 => "fig13",
            Experiment::AblationInterp => "ablation-interp",
            Experiment::AblationSa => "ablation-sa",
            Experiment::AblationSamples => "ablation-samples",
            Experiment::AblationMultiApp => "ablation-multiapp",
            Experiment::ExtOnline => "ext-online",
            Experiment::ExtMultiApp => "ext-multiapp",
            Experiment::ExtEnergy => "ext-energy",
            Experiment::ExtPhases => "ext-phases",
            Experiment::ExtTransfer => "ext-transfer",
            Experiment::ExtScale => "ext-scale",
            Experiment::ExtIoChannel => "ext-iochannel",
            Experiment::Robustness => "robustness",
            Experiment::Recovery => "recovery",
            Experiment::Endurance => "endurance",
            Experiment::Fork => "fork",
            Experiment::Serve => "serve",
        }
    }

    /// Parses a command-line id.
    pub fn parse(id: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.id() == id)
    }

    /// The study this id is a view of, named by the study's first view
    /// in [`ALL`](Self::ALL). Ids that render one computation (`fig4`
    /// and `table2`, say) share a lead; every other id leads itself.
    pub fn lead(&self) -> Experiment {
        match self {
            Experiment::Table2 => Experiment::Fig4,
            Experiment::Fig6 | Experiment::Fig7 => Experiment::Table3,
            Experiment::Fig9 => Experiment::Fig8,
            Experiment::Table5 => Experiment::Fig11,
            Experiment::Table6 | Experiment::Fig13 => Experiment::Fig12,
            exp => *exp,
        }
    }

    /// Runs the study this id is a view of. Every view of the study
    /// then renders from the one result with [`Study::view`].
    ///
    /// Studies that emit structured events mid-run (`recovery`, whose
    /// supervisory loop traces detections and actions, and `endurance`)
    /// write them into `tracer`; the rest ignore it. This is what the
    /// binary's `--trace` flag threads through.
    ///
    /// # Errors
    ///
    /// Propagates the study's failure.
    pub fn run_study(&self, cfg: &ExpConfig, tracer: &Tracer) -> Result<Study, ExpError> {
        let lead = self.lead();
        let (text, json) = match lead {
            Experiment::Fig4 => return Ok(Study::Fig4(fig4::run(cfg)?)),
            Experiment::Table3 => return Ok(Study::Table3(table3::run(cfg)?)),
            Experiment::Fig8 => return Ok(Study::Fig8(fig8::run(cfg)?)),
            Experiment::Fig11 => return Ok(Study::Fig11(fig11::run(cfg)?)),
            Experiment::Fig12 => return Ok(Study::Ec2(ec2::run(cfg)?)),
            Experiment::Fig2 => rendered(&fig2::run(cfg)?, fig2::render),
            Experiment::Fig3 => rendered(&fig3::run(cfg)?, fig3::render),
            Experiment::Table4 => rendered(&table4::run(cfg)?, table4::render),
            Experiment::Fig10 => rendered(&fig10::run(cfg)?, fig10::render),
            Experiment::AblationInterp => {
                rendered(&ablations::run_interp(cfg)?, ablations::render_interp)
            }
            Experiment::AblationSa => rendered(&ablations::run_sa(cfg)?, ablations::render_sa),
            Experiment::AblationSamples => {
                rendered(&ablations::run_samples(cfg)?, ablations::render_samples)
            }
            Experiment::AblationMultiApp => {
                rendered(&ablations::run_multiapp(cfg)?, ablations::render_multiapp)
            }
            Experiment::ExtOnline => {
                rendered(&extensions::run_online(cfg)?, extensions::render_online)
            }
            Experiment::ExtMultiApp => {
                rendered(&extensions::run_multiapp(cfg)?, extensions::render_multiapp)
            }
            Experiment::ExtEnergy => {
                rendered(&extensions::run_energy(cfg)?, extensions::render_energy)
            }
            Experiment::ExtPhases => {
                rendered(&extensions::run_phases(cfg)?, extensions::render_phases)
            }
            Experiment::ExtTransfer => {
                rendered(&extensions::run_transfer(cfg)?, extensions::render_transfer)
            }
            Experiment::ExtScale => {
                rendered(&extensions::run_scale(cfg)?, extensions::render_scale)
            }
            Experiment::ExtIoChannel => rendered(
                &extensions::run_iochannel(cfg)?,
                extensions::render_iochannel,
            ),
            Experiment::Robustness => rendered(&robustness::run(cfg)?, robustness::render),
            Experiment::Recovery => rendered(&recovery::run_traced(cfg, tracer)?, recovery::render),
            Experiment::Endurance => {
                rendered(&endurance::run_traced(cfg, tracer)?, endurance::render)
            }
            Experiment::Fork => rendered(&endurance::run_fork(cfg)?, endurance::render_fork),
            Experiment::Serve => rendered(&serve::run(cfg)?, serve::render),
            Experiment::Table2
            | Experiment::Fig6
            | Experiment::Fig7
            | Experiment::Fig9
            | Experiment::Table5
            | Experiment::Table6
            | Experiment::Fig13 => unreachable!("`lead` maps a view to its study's first view"),
        };
        Ok(Study::Single(lead, text, json))
    }

    /// Runs the experiment's study, without tracing, and renders this
    /// one view of it: its text table and its structured JSON result,
    /// so callers that want both pay for one run. [`run_views`] and the
    /// binary render several adjacent views of one study from one run.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure.
    pub fn run_full(&self, cfg: &ExpConfig) -> Result<(String, Json), ExpError> {
        let study = self.run_study(cfg, &Tracer::disabled())?;
        Ok(study.view(*self).expect("an id is a view of its own study"))
    }

    /// Runs the experiment and returns its structured result as JSON,
    /// for downstream tooling (plotting, regression tracking).
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure.
    pub fn run_json(&self, cfg: &ExpConfig) -> Result<Json, ExpError> {
        self.run_full(cfg).map(|(_, json)| json)
    }

    /// Runs the experiment and returns its rendered text output.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure.
    pub fn run(&self, cfg: &ExpConfig) -> Result<String, ExpError> {
        self.run_full(cfg).map(|(text, _)| text)
    }
}

/// One study's result: the computation that one or more experiment ids
/// render views of. [`Experiment::run_study`] makes one;
/// [`view`](Study::view) renders each of its views from it.
#[derive(Debug, Clone, PartialEq)]
pub enum Study {
    /// `fig4` and `table2`: the heterogeneity policy study.
    Fig4(fig4::Fig4Result),
    /// `table3`, `fig6` and `fig7`: the profiling study.
    Table3(table3::Table3Result),
    /// `fig8` and `fig9`: the pairwise validation study.
    Fig8(fig8::Fig8Result),
    /// `fig11` and `table5`: the throughput placement study.
    Fig11(fig11::Fig11Result),
    /// `fig12`, `table6` and `fig13`: the EC2 study.
    Ec2(ec2::Ec2Result),
    /// A study with one view: its id, text table and JSON result,
    /// rendered when it ran.
    Single(Experiment, String, Json),
}

impl Study {
    /// Renders view `exp` of this study: its text table and its JSON
    /// result, which is the whole study's and so the same for every
    /// view. `None` when `exp` is not a view of this study.
    pub fn view(&self, exp: Experiment) -> Option<(String, Json)> {
        Some(match (self, exp) {
            (Study::Fig4(r), Experiment::Fig4) => rendered(r, fig4::render_fig4),
            (Study::Fig4(r), Experiment::Table2) => rendered(r, fig4::render_table2),
            (Study::Table3(r), Experiment::Table3) => rendered(r, table3::render_table3),
            (Study::Table3(r), Experiment::Fig6) => rendered(r, table3::render_fig6),
            (Study::Table3(r), Experiment::Fig7) => rendered(r, table3::render_fig7),
            (Study::Fig8(r), Experiment::Fig8) => rendered(r, fig8::render_fig8),
            (Study::Fig8(r), Experiment::Fig9) => rendered(r, fig8::render_fig9),
            (Study::Fig11(r), Experiment::Fig11) => rendered(r, fig11::render_fig11),
            (Study::Fig11(r), Experiment::Table5) => rendered(r, fig11::render_table5),
            (Study::Ec2(r), Experiment::Fig12) => rendered(r, ec2::render_fig12),
            (Study::Ec2(r), Experiment::Table6) => rendered(r, ec2::render_table6),
            (Study::Ec2(r), Experiment::Fig13) => rendered(r, ec2::render_fig13),
            (Study::Single(id, text, json), exp) if *id == exp => (text.clone(), json.clone()),
            _ => return None,
        })
    }
}

/// One view: the text table `render` draws from `result`, and the
/// result as JSON.
fn rendered<T: ToJson>(result: &T, render: fn(&T) -> String) -> (String, Json) {
    (render(result), result.to_json())
}

/// Splits `selected` into its runs of adjacent ids that view one study,
/// in order. [`ALL`](Experiment::ALL) keeps each study's views
/// adjacent, so it splits into one run per study.
pub fn study_runs(selected: &[Experiment]) -> impl Iterator<Item = &[Experiment]> {
    selected.chunk_by(|a, b| a.lead() == b.lead())
}

/// Renders `selected` in order, as `icm-experiments <id>...` does: each
/// of its [`study_runs`] runs its study once, renders every view from
/// that result and drops it after the last one. Returns each id with
/// its text table and JSON result, equal to what
/// [`Experiment::run_full`] gives for that id alone.
///
/// # Errors
///
/// Propagates the first failing study's error.
pub fn run_views(
    selected: &[Experiment],
    cfg: &ExpConfig,
) -> Result<Vec<(Experiment, String, Json)>, ExpError> {
    let mut views = Vec::with_capacity(selected.len());
    for run in study_runs(selected) {
        let study = run[0].run_study(cfg, &Tracer::disabled())?;
        for &exp in run {
            let (text, json) = study.view(exp).expect("a run views one study");
            views.push((exp, text, json));
        }
    }
    Ok(views)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for exp in Experiment::ALL {
            assert_eq!(Experiment::parse(exp.id()), Some(exp));
        }
        assert_eq!(Experiment::parse("nope"), None);
    }

    #[test]
    fn json_output_is_structured() {
        let cfg = ExpConfig {
            seed: 3,
            fast: true,
        };
        let value = Experiment::Fig2.run_json(&cfg).expect("runs");
        assert!(value.get("rows").is_some(), "Fig2Result exposes rows");
        let text = icm_json::to_string(&value);
        assert!(text.contains("interfering_nodes"));
    }

    #[test]
    fn every_id_maps_to_one_study_led_by_its_first_view() {
        let position = |exp: Experiment| Experiment::ALL.iter().position(|e| *e == exp);
        for exp in Experiment::ALL {
            let lead = exp.lead();
            assert_eq!(lead.lead(), lead, "{} leads another study", lead.id());
            assert!(position(lead) <= position(exp), "{}", exp.id());
        }
    }

    #[test]
    fn all_keeps_each_studys_views_adjacent() {
        let leads: Vec<Experiment> = study_runs(&Experiment::ALL).map(|run| run[0]).collect();
        let mut distinct = leads.clone();
        distinct.dedup();
        assert_eq!(leads, distinct);
        assert_eq!(
            leads.len(),
            Experiment::ALL.iter().filter(|e| e.lead() == **e).count(),
            "`all` would run some study twice"
        );
        assert_eq!(leads.len(), 25);
    }

    #[test]
    fn a_single_view_study_renders_only_its_own_id() {
        let study = Study::Single(Experiment::Fig2, "table".to_owned(), Json::Null);
        assert_eq!(
            study.view(Experiment::Fig2),
            Some(("table".to_owned(), Json::Null))
        );
        assert_eq!(study.view(Experiment::Fig3), None);
        assert_eq!(study.view(Experiment::Fig4), None);
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = Experiment::ALL.iter().map(Experiment::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Experiment::ALL.len());
    }
}
