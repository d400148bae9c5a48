//! Regeneration of every figure/table of the paper's evaluation.
//!
//! | id | paper content | function |
//! |----|---------------|----------|
//! | Fig. 6a | % accepted vs HPD (SER = 10⁻¹¹, ArC = 20) | [`fig6a`] |
//! | Fig. 6b | % accepted for HPD × ArC ∈ {15, 20, 25}   | [`fig6b`] |
//! | Fig. 6c | % accepted vs SER (HPD = 5 %, ArC = 20)   | [`fig6c`] |
//! | Fig. 6d | % accepted vs SER (HPD = 100 %, ArC = 20) | [`fig6d`] |
//! | §7 CC   | cruise controller MIN/MAX/OPT             | [`cruise_controller`] |

use ftes_gen::{cc_architecture_types, cc_system, ExperimentConfig};
use ftes_model::Cost;
use ftes_opt::optimize_fixed_architecture;
use serde::{Deserialize, Serialize};

use crate::experiment::{acceptance_row, sweep_opt_config, AcceptanceRow, Strategy};

/// The HPD sweep points of Fig. 6a/6b.
pub const HPD_POINTS: [f64; 4] = [0.05, 0.25, 0.50, 1.0];
/// The SER sweep points of Fig. 6c/6d.
pub const SER_POINTS: [f64; 3] = [1e-12, 1e-11, 1e-10];
/// The ArC columns of Fig. 6b.
pub const ARC_POINTS: [u64; 3] = [15, 20, 25];

fn condition(ser: f64, hpd: f64) -> ExperimentConfig {
    ExperimentConfig {
        ser_h1: ser,
        hpd,
        ..ExperimentConfig::default()
    }
}

/// Fig. 6a: acceptance vs HPD at SER = 10⁻¹¹ and ArC = 20.
pub fn fig6a(n_apps: usize) -> Vec<AcceptanceRow> {
    HPD_POINTS
        .iter()
        .map(|&hpd| {
            acceptance_row(
                format!("HPD = {:.0}%", hpd * 100.0),
                &condition(1e-11, hpd),
                n_apps,
                Cost::new(20),
            )
        })
        .collect()
}

/// Fig. 6b: the full HPD × ArC table at SER = 10⁻¹¹.
pub fn fig6b(n_apps: usize) -> Vec<(u64, Vec<AcceptanceRow>)> {
    use crate::experiment::run_condition;
    // One optimization run per (condition, strategy); acceptance evaluated
    // for all three ArC columns afterwards.
    HPD_POINTS
        .iter()
        .map(|&hpd| {
            let cond = condition(1e-11, hpd);
            let per_strategy: Vec<_> = Strategy::ALL
                .iter()
                .map(|&s| (s, run_condition(&cond, n_apps, s)))
                .collect();
            (hpd, per_strategy)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|(hpd, per_strategy)| {
            let rows: Vec<AcceptanceRow> = ARC_POINTS
                .iter()
                .map(|&arc| {
                    let get = |s: Strategy| {
                        per_strategy
                            .iter()
                            .find(|(st, _)| *st == s)
                            .expect("all strategies present")
                            .1
                            .acceptance(Cost::new(arc))
                    };
                    AcceptanceRow {
                        label: format!("HPD {:>3.0}% ArC {arc}", hpd * 100.0),
                        max: get(Strategy::Max),
                        min: get(Strategy::Min),
                        opt: get(Strategy::Opt),
                    }
                })
                .collect();
            ((hpd * 100.0) as u64, rows)
        })
        .collect()
}

/// Fig. 6c: acceptance vs SER at HPD = 5 % and ArC = 20.
pub fn fig6c(n_apps: usize) -> Vec<AcceptanceRow> {
    SER_POINTS
        .iter()
        .map(|&ser| {
            acceptance_row(
                format!("SER = {ser:.0e}"),
                &condition(ser, 0.05),
                n_apps,
                Cost::new(20),
            )
        })
        .collect()
}

/// Fig. 6d: acceptance vs SER at HPD = 100 % and ArC = 20.
pub fn fig6d(n_apps: usize) -> Vec<AcceptanceRow> {
    SER_POINTS
        .iter()
        .map(|&ser| {
            acceptance_row(
                format!("SER = {ser:.0e}"),
                &condition(ser, 1.0),
                n_apps,
                Cost::new(20),
            )
        })
        .collect()
}

/// Outcome of the cruise-controller experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CcOutcome {
    /// Best cost per strategy (`None` = not schedulable/reliable).
    pub min: Option<Cost>,
    /// MAX strategy result.
    pub max: Option<Cost>,
    /// OPT strategy result.
    pub opt: Option<Cost>,
}

impl CcOutcome {
    /// Cost improvement of OPT over MAX in percent (the paper reports
    /// 66 %), when both are feasible.
    pub fn opt_improvement_over_max(&self) -> Option<f64> {
        match (self.opt, self.max) {
            (Some(o), Some(m)) if m.units() > 0 => {
                Some(100.0 * (m.units() as f64 - o.units() as f64) / m.units() as f64)
            }
            _ => None,
        }
    }
}

/// Runs the §7 cruise-controller experiment: MIN / MAX / OPT on the fixed
/// ETM+ABS+TCM architecture.
pub fn cruise_controller() -> CcOutcome {
    let sys = cc_system();
    let types = cc_architecture_types();
    let run = |s: Strategy| {
        optimize_fixed_architecture(&sys, &types, &sweep_opt_config(s))
            .expect("CC system is structurally valid")
            .map(|sol| sol.cost)
    };
    CcOutcome {
        min: run(Strategy::Min),
        max: run(Strategy::Max),
        opt: run(Strategy::Opt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_reproduces_the_paper_qualitatively() {
        let out = cruise_controller();
        // Paper: CC is not schedulable with MIN ...
        assert_eq!(out.min, None);
        // ... schedulable with MAX and OPT ...
        assert_eq!(out.max, Some(Cost::new(75)));
        let opt = out.opt.expect("OPT feasible");
        // ... with OPT substantially cheaper than MAX (paper: 66 %).
        let improvement = out.opt_improvement_over_max().unwrap();
        assert!(
            improvement >= 50.0,
            "OPT {opt} improves only {improvement:.0}% over MAX"
        );
    }

    /// Pins Fig. 6a on a reduced grid (4 applications per HPD point)
    /// exactly, so any change to the engine's results shows at the
    /// figure level.
    ///
    /// The paper (150 applications) reports MAX 71/63/49/41, MIN
    /// 76/76/76/76 and OPT 94/86/84/84 % over HPD 5/25/50/100 %. The
    /// full-size reproduction tracks MIN and OPT but not MAX, which falls
    /// much faster with HPD (64.0/44.7/25.3/4.0 %): a known deviation of
    /// the reconstructed HPD model, open on the roadmap.
    #[test]
    fn fig6a_reduced_grid_is_pinned() {
        let rows: Vec<(String, f64, f64, f64)> = fig6a(4)
            .into_iter()
            .map(|r| (r.label, r.max, r.min, r.opt))
            .collect();
        // (label, MAX, MIN, OPT) in % of the 4 applications.
        let expected = [
            ("HPD = 5%", 75.0, 50.0, 100.0),
            ("HPD = 25%", 50.0, 50.0, 75.0),
            ("HPD = 50%", 25.0, 50.0, 75.0),
            ("HPD = 100%", 0.0, 50.0, 75.0),
        ]
        .map(|(label, max, min, opt)| (label.to_string(), max, min, opt));
        assert_eq!(rows, expected);
    }

    #[test]
    fn improvement_is_none_when_infeasible() {
        let out = CcOutcome {
            min: None,
            max: None,
            opt: Some(Cost::new(10)),
        };
        assert_eq!(out.opt_improvement_over_max(), None);
    }
}
