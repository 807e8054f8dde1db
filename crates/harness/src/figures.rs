//! Figure regeneration: the paper's Figure 2 (baseline BBV CoV curves at
//! 2/8/32 processors) and Figure 4 (BBV vs BBV+DDV at 8/32 processors),
//! plus the headline comparisons quoted in §III-A and §IV.

use dsm_analysis::curve::CovCurve;
use dsm_analysis::plot::AsciiChart;
use dsm_workloads::{App, Scale};
use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::parallel::{capture_matrix, RunReport};
use crate::sweep::{bbv_curve, bbv_ddv_curve};
use crate::trace::{capture_cached, SystemTrace};

/// Maximum phase count plotted (the paper's x-axes run to 25).
pub const MAX_PHASES: usize = 25;

/// One panel: an application at one or more system sizes / detectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Panel {
    pub app: App,
    pub n_procs: Option<usize>,
    /// (curve label, curve) pairs.
    pub curves: Vec<(String, CovCurve)>,
}

/// A multi-panel figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    pub name: String,
    pub panels: Vec<Panel>,
}

impl Figure {
    /// Render every panel as an ASCII log-y chart of the lower envelopes.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("==== {} ====\n\n", self.name));
        for panel in &self.panels {
            let title = match panel.n_procs {
                Some(p) => format!("{} CoV Curves ({}P)", panel.app.name(), p),
                None => format!("{} CoV Curves", panel.app.name()),
            };
            let mut chart = AsciiChart::new(title, 60, 14)
                .log_y()
                .labels("# of Phases", "Identifier CoV of CPI");
            let symbols = ['o', '+', 'x', '*', '#'];
            for (i, (label, curve)) in panel.curves.iter().enumerate() {
                let pts: Vec<(f64, f64)> = curve
                    .lower_envelope(MAX_PHASES)
                    .into_iter()
                    .map(|(k, c)| (k as f64, c.max(1e-4)))
                    .collect();
                chart.series(label.clone(), symbols[i % symbols.len()], pts);
            }
            out.push_str(&chart.render());
            out.push('\n');
        }
        out
    }

    /// Long-format CSV rows: app, procs, detector, phases, cov.
    pub fn csv(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let headers = vec!["app", "n_procs", "detector", "phases", "cov"];
        let mut rows = Vec::new();
        for panel in &self.panels {
            for (label, curve) in &panel.curves {
                for (k, cov) in curve.lower_envelope(MAX_PHASES) {
                    rows.push(vec![
                        panel.app.name().to_string(),
                        panel
                            .n_procs
                            .map(|p| p.to_string())
                            .unwrap_or_else(|| label.clone()),
                        label.clone(),
                        k.to_string(),
                        format!("{cov:.6}"),
                    ]);
                }
            }
        }
        (headers, rows)
    }

    /// Deterministic JSON of every panel's full curves (every sweep point,
    /// not just the envelope). Golden-regression fixtures and the
    /// serial-vs-parallel determinism test diff these bytes.
    pub fn to_json(&self) -> Json {
        let panels: Vec<Json> = self
            .panels
            .iter()
            .map(|panel| {
                let curves: Vec<Json> = panel
                    .curves
                    .iter()
                    .map(|(label, curve)| {
                        let points: Vec<Json> = curve
                            .points
                            .iter()
                            .map(|p| {
                                Json::obj()
                                    .field("phases", p.phases)
                                    .field("cov", p.cov)
                                    .field("bbv_threshold", p.bbv_threshold)
                                    .field("dds_threshold", p.dds_threshold)
                            })
                            .collect();
                        Json::obj()
                            .field("label", label.as_str())
                            .field("points", Json::Arr(points))
                    })
                    .collect();
                Json::obj()
                    .field("app", panel.app.name())
                    .field("n_procs", panel.n_procs)
                    .field("curves", Json::Arr(curves))
            })
            .collect();
        Json::obj()
            .field("name", self.name.as_str())
            .field("panels", Json::Arr(panels))
    }
}

/// Figure 2: baseline BBV CoV curves for every application at 2, 8, and 32
/// processors (one panel per application, one curve per system size).
pub fn figure2(scale: Scale) -> Figure {
    figure2_with_report(scale).0
}

/// [`figure2`] plus the engine's [`RunReport`] (cache traffic, wall time).
pub fn figure2_with_report(scale: Scale) -> (Figure, RunReport) {
    let sizes = [2usize, 8, 32];
    let configs: Vec<ExperimentConfig> = App::ALL
        .iter()
        .flat_map(|&app| sizes.iter().map(move |&p| config_at(app, p, scale)))
        .collect();
    let (_, report) = capture_matrix("fig2", &configs);

    let panels = App::ALL
        .iter()
        .map(|&app| Panel {
            app,
            n_procs: None,
            curves: sizes
                .iter()
                .map(|&p| {
                    let trace = capture_cached(config_at(app, p, scale));
                    (format!("{p}P"), bbv_curve(&trace))
                })
                .collect(),
        })
        .collect();
    (
        Figure {
            name: "Figure 2: Baseline BBV results".into(),
            panels,
        },
        report,
    )
}

/// Figure 4: BBV vs BBV+DDV curves for every application at 8 and 32
/// processors (one panel per application × size).
pub fn figure4(scale: Scale) -> Figure {
    figure4_with_report(scale).0
}

/// [`figure4`] plus the engine's [`RunReport`] (cache traffic, wall time).
pub fn figure4_with_report(scale: Scale) -> (Figure, RunReport) {
    let sizes = [8usize, 32];
    let configs: Vec<ExperimentConfig> = App::ALL
        .iter()
        .flat_map(|&app| sizes.iter().map(move |&p| config_at(app, p, scale)))
        .collect();
    let (_, report) = capture_matrix("fig4", &configs);

    let mut panels = Vec::new();
    for &p in &sizes {
        for &app in &App::ALL {
            let trace = capture_cached(config_at(app, p, scale));
            panels.push(Panel {
                app,
                n_procs: Some(p),
                curves: vec![
                    ("BBV".to_string(), bbv_curve(&trace)),
                    ("BBV+DDV".to_string(), bbv_ddv_curve(&trace)),
                ],
            });
        }
    }
    (
        Figure {
            name: "Figure 4: BBV+DDV results".into(),
            panels,
        },
        report,
    )
}

/// Experiment configuration for (app, size) at a scale.
pub fn config_at(app: App, p: usize, scale: Scale) -> ExperimentConfig {
    match scale {
        Scale::Paper => ExperimentConfig::paper(app, p),
        Scale::Scaled => ExperimentConfig::scaled(app, p),
        Scale::Test => ExperimentConfig::test(app, p),
    }
}

/// The detector-comparison table of `ablation` and `baselines`: every
/// workload at `n_procs`, captured through the engine, then each of
/// `curves(trace)` at the 7-, 15- and 25-phase budgets with its name padded
/// to `width`. Returns the text, the CSV rows (`app, name, phases, cov`)
/// and the engine's run report.
pub fn budget_table(
    name: &str,
    n_procs: usize,
    scale: Scale,
    width: usize,
    curves: impl Fn(&SystemTrace) -> Vec<(&'static str, CovCurve)>,
) -> (String, Vec<Vec<String>>, RunReport) {
    let configs: Vec<_> = App::ALL.iter().map(|&app| config_at(app, n_procs, scale)).collect();
    let (traces, run_report) = capture_matrix(name, &configs);
    let (mut out, mut rows) = (String::new(), Vec::new());
    for (app, trace) in App::ALL.into_iter().zip(&traces) {
        out.push_str(&format!("{}:\n", app.name()));
        for (label, curve) in curves(trace) {
            let at = |k: f64| {
                curve.cov_at_phases(k).map(|v| format!("{v:.3}")).unwrap_or_else(|| "  n/a".into())
            };
            out.push_str(&format!(
                "  {label:<width$} @7={} @15={} @25={}\n",
                at(7.0),
                at(15.0),
                at(25.0)
            ));
            for k in [7.0, 15.0, 25.0] {
                if let Some(cov) = curve.cov_at_phases(k) {
                    let cells = [app.name().into(), label.into(), format!("{k}"), format!("{cov:.6}")];
                    rows.push(cells.to_vec());
                }
            }
        }
        out.push('\n');
    }
    (out, rows, run_report)
}

/// The paper's §III-A LU headline: CoV at a fixed (7-phase) budget for
/// 2/8/32 processors, and the phase count needed for 20 % CoV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LuHeadline {
    pub cov_at_7_phases: Vec<(usize, Option<f64>)>,
    pub phases_for_20pct: Vec<(usize, Option<f64>)>,
}

pub fn headline_lu(scale: Scale) -> LuHeadline {
    let sizes = [2usize, 8, 32];
    let mut cov7 = Vec::new();
    let mut p20 = Vec::new();
    for &p in &sizes {
        let trace = capture_cached(config_at(App::Lu, p, scale));
        let c = bbv_curve(&trace);
        cov7.push((p, c.cov_at_phases(7.0)));
        p20.push((p, c.phases_at_cov(0.20)));
    }
    LuHeadline {
        cov_at_7_phases: cov7,
        phases_for_20pct: p20,
    }
}

/// The paper's §IV FMM headline: at 32P, CoV of both detectors at a fixed
/// phase budget, and the phase count each needs to reach the BBV's CoV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FmmHeadline {
    pub n_procs: usize,
    pub budget: f64,
    pub bbv_cov_at_budget: Option<f64>,
    pub ddv_cov_at_budget: Option<f64>,
    /// Phases each detector needs to reach the BBV's budget CoV.
    pub bbv_phases_at_target: Option<f64>,
    pub ddv_phases_at_target: Option<f64>,
}

pub fn headline_fmm(scale: Scale, n_procs: usize, budget: f64) -> FmmHeadline {
    let trace = capture_cached(config_at(App::Fmm, n_procs, scale));
    let bbv = bbv_curve(&trace);
    let ddv = bbv_ddv_curve(&trace);
    let bbv_cov = bbv.cov_at_phases(budget);
    let target = bbv_cov.unwrap_or(f64::INFINITY);
    FmmHeadline {
        n_procs,
        budget,
        bbv_cov_at_budget: bbv_cov,
        ddv_cov_at_budget: ddv.cov_at_phases(budget),
        bbv_phases_at_target: bbv.phases_at_cov(target),
        ddv_phases_at_target: ddv.phases_at_cov(target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_test_scale_has_all_panels() {
        let f = figure2(Scale::Test);
        assert_eq!(f.panels.len(), 4);
        for p in &f.panels {
            assert_eq!(p.curves.len(), 3);
            for (_, c) in &p.curves {
                assert!(!c.is_empty());
            }
        }
        let ascii = f.render_ascii();
        assert!(ascii.contains("LU CoV Curves"));
        assert!(ascii.contains("Equake CoV Curves"));
        let (h, rows) = f.csv();
        assert_eq!(h.len(), 5);
        assert!(!rows.is_empty());
    }

    #[test]
    fn figure4_test_scale_has_all_panels() {
        let f = figure4(Scale::Test);
        assert_eq!(f.panels.len(), 8);
        for p in &f.panels {
            assert_eq!(p.curves.len(), 2);
            assert_eq!(p.curves[0].0, "BBV");
            assert_eq!(p.curves[1].0, "BBV+DDV");
        }
    }

    #[test]
    fn headlines_compute() {
        let lu = headline_lu(Scale::Test);
        assert_eq!(lu.cov_at_7_phases.len(), 3);
        let fmm = headline_fmm(Scale::Test, 8, 7.0);
        assert_eq!(fmm.n_procs, 8);
    }
}
