//! Regeneration of the paper's three figures.
//!
//! * **Figure 1** — the two Pareto-optimal schedules of the Section 4.1
//!   instance (`p = [1, ½, ½]`, `s = [ε, 1, 1]`, two processors), with
//!   objective points `(1, 2)` and `(3/2, 1 + ε)`;
//! * **Figure 2** — the three Pareto-optimal schedules of the Section 4.3
//!   instance (`p = [1, ε, 1 − ε]`, `s = [ε, 1, 1 − ε]`), with points
//!   `(1, 2 − ε)`, `(1 + ε, 1 + ε)` and `(2 − ε, 1)`;
//! * **Figure 3** — the impossibility domain in ratio space: the Lemma 2
//!   staircases for `m = 2..6`, the Lemma 3 point `(3/2, 3/2)` and the
//!   dashed SBO∆ trade-off curve `(1 + ∆, 1 + 1/∆)`.
//!
//! Figures 1 and 2 are regenerated *from scratch*: the exhaustive
//! bi-objective enumerator of `sws-exact` recomputes the Pareto fronts of
//! the adversarial instances and the simulator renders each front
//! schedule as an ASCII Gantt chart.

use sws_core::prelude::*;
use sws_exact::pareto_enum::pareto_front;
use sws_simulator::gantt::GanttOptions;
use sws_simulator::render_gantt;
use sws_workloads::{lemma1_instance, lemma3_instance};

use crate::table::{fmt4, Table};

/// One Pareto-front entry of Figure 1 or Figure 2: the objective point,
/// the expected value from the paper and the ASCII Gantt rendering.
#[derive(Debug, Clone)]
pub struct FrontEntry {
    /// Achieved makespan.
    pub cmax: f64,
    /// Achieved maximum memory.
    pub mmax: f64,
    /// The paper's stated value for this point.
    pub expected: (f64, f64),
    /// ASCII Gantt chart of the schedule achieving the point.
    pub gantt: String,
}

/// The regenerated data of Figure 1 or Figure 2.
#[derive(Debug, Clone)]
pub struct ParetoFigure {
    /// Which paper figure this reproduces (1 or 2).
    pub figure: u8,
    /// The `ε` used to instantiate the adversarial instance.
    pub eps: f64,
    /// The Pareto-front entries, sorted by increasing makespan.
    pub entries: Vec<FrontEntry>,
}

impl ParetoFigure {
    /// True when every recomputed point matches the paper's value within
    /// `tol`.
    pub fn matches_paper(&self, tol: f64) -> bool {
        self.entries
            .iter()
            .all(|e| (e.cmax - e.expected.0).abs() <= tol && (e.mmax - e.expected.1).abs() <= tol)
    }

    /// The objective points as a table for the binaries.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Figure {} Pareto front (eps={})", self.figure, self.eps),
            &["point", "Cmax", "Mmax", "paper Cmax", "paper Mmax"],
        );
        for (i, e) in self.entries.iter().enumerate() {
            t.push_row(vec![
                format!("P{i}"),
                fmt4(e.cmax),
                fmt4(e.mmax),
                fmt4(e.expected.0),
                fmt4(e.expected.1),
            ]);
        }
        t
    }
}

/// Regenerates Figure 1: the Pareto front of the first adversarial
/// instance, with Gantt charts.
pub fn figure1(eps: f64) -> ParetoFigure {
    let inst = lemma1_instance(eps);
    let expected = vec![(1.0, 2.0), (1.5, 1.0 + eps)];
    pareto_figure(1, eps, &inst, &expected)
}

/// Regenerates Figure 2: the Pareto front of the second adversarial
/// instance, with Gantt charts.
pub fn figure2(eps: f64) -> ParetoFigure {
    let inst = lemma3_instance(eps);
    let expected = vec![(1.0, 2.0 - eps), (1.0 + eps, 1.0 + eps), (2.0 - eps, 1.0)];
    pareto_figure(2, eps, &inst, &expected)
}

fn pareto_figure(figure: u8, eps: f64, inst: &Instance, expected: &[(f64, f64)]) -> ParetoFigure {
    let front = pareto_front(inst);
    let mut entries: Vec<FrontEntry> = front
        .into_sorted()
        .into_iter()
        .map(|(pt, asg)| {
            let timed = asg.into_timed(inst.tasks());
            let gantt = render_gantt(inst.tasks(), &timed, &GanttOptions::default());
            FrontEntry {
                cmax: pt.cmax,
                mmax: pt.mmax,
                expected: (0.0, 0.0),
                gantt,
            }
        })
        .collect();
    entries.sort_by(|a, b| sws_model::numeric::total_cmp(a.cmax, b.cmax));
    // Attach the paper's expected values positionally (both lists are
    // sorted by makespan).
    for (entry, &exp) in entries.iter_mut().zip(expected) {
        entry.expected = exp;
    }
    ParetoFigure {
        figure,
        eps,
        entries,
    }
}

/// One series of Figure 3.
#[derive(Debug, Clone)]
pub struct Figure3Series {
    /// Series label (`"lemma2 m=3"`, `"lemma3"`, `"sbo"`).
    pub label: String,
    /// `(Cmax ratio, Mmax ratio)` samples.
    pub points: Vec<(f64, f64)>,
}

/// The regenerated data of Figure 3: one staircase per processor count,
/// the Lemma 3 point and the SBO∆ trade-off curve.
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// All series, in plotting order.
    pub series: Vec<Figure3Series>,
}

/// Regenerates Figure 3 with Lemma 2 staircases for `m ∈ [2, max_m]` and
/// granularity `k`, and the SBO curve sampled over `∆ ∈ [delta_min,
/// delta_max]`.
pub fn figure3(max_m: usize, k: usize, delta_min: f64, delta_max: f64) -> Figure3 {
    let mut series = Vec::new();
    for m in 2..=max_m.max(2) {
        series.push(Figure3Series {
            label: format!("lemma2 m={m}"),
            points: impossibility_frontier(m, k),
        });
    }
    series.push(Figure3Series {
        label: "lemma3".to_string(),
        points: vec![lemma3_point()],
    });
    series.push(Figure3Series {
        label: "sbo".to_string(),
        points: sbo_tradeoff_curve(delta_min, delta_max, 65),
    });
    Figure3 { series }
}

impl Figure3 {
    /// Flattens every series into one long table (label, x, y).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 3 impossibility domain and SBO trade-off",
            &["series", "cmax_ratio", "mmax_ratio"],
        );
        for s in &self.series {
            for &(x, y) in &s.points {
                t.push_row(vec![s.label.clone(), fmt4(x), fmt4(y)]);
            }
        }
        t
    }

    /// A coarse ASCII scatter plot of the figure (ratio space
    /// `[1, x_max] × [1, y_max]`), good enough to eyeball the domain shape
    /// in a terminal.
    pub fn ascii_plot(&self, cols: usize, rows: usize, x_max: f64, y_max: f64) -> String {
        assert!(cols >= 10 && rows >= 5, "plot needs a reasonable canvas");
        let mut canvas = vec![vec![' '; cols]; rows];
        for (si, s) in self.series.iter().enumerate() {
            let glyph = match s.label.as_str() {
                "sbo" => '*',
                "lemma3" => 'O',
                _ => char::from(b'2' + (si as u8 % 5)),
            };
            for &(x, y) in &s.points {
                if x > x_max || y > y_max || x < 1.0 || y < 1.0 {
                    continue;
                }
                let cx = ((x - 1.0) / (x_max - 1.0) * (cols - 1) as f64).round() as usize;
                let cy = ((y - 1.0) / (y_max - 1.0) * (rows - 1) as f64).round() as usize;
                canvas[rows - 1 - cy][cx] = glyph;
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "Mmax ratio 1..{y_max:.1} (vertical), Cmax ratio 1..{x_max:.1} (horizontal)\n",
        ));
        for row in canvas {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(cols));
        out.push('\n');
        out
    }

    /// Verifies that the SBO curve never enters the impossibility domain
    /// spanned by the staircases (the paper's Figure 3 shows the dashed
    /// curve outside the shaded region).
    pub fn sbo_curve_outside_domain(&self, max_m: usize, k: usize) -> bool {
        self.series
            .iter()
            .find(|s| s.label == "sbo")
            .map(|s| {
                s.points
                    .iter()
                    .all(|&(x, y)| !violates_impossibility(x, y, max_m, k))
            })
            .unwrap_or(true)
    }

    /// Summary of Figure 3's series for experiment logs: label and number
    /// of points.
    pub fn summary(&self) -> Vec<(String, usize)> {
        self.series
            .iter()
            .map(|s| (s.label.clone(), s.points.len()))
            .collect()
    }
}

/// The ∆ parameters the figures binary quotes alongside the SBO curve,
/// matching the paper's observation that the curve comes closest to the
/// impossibility domain around `∆ = 1` (the `(2, 2)` point).
pub fn sbo_reference_deltas() -> [f64; 5] {
    [0.25, 0.5, 1.0, 2.0, 4.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reproduces_the_paper_points() {
        let fig = figure1(1e-3);
        assert_eq!(fig.entries.len(), 2);
        assert!(fig.matches_paper(1e-9), "{:?}", fig.table());
        assert!(fig.entries[0].gantt.contains("t0"));
    }

    #[test]
    fn figure2_reproduces_the_paper_points() {
        let fig = figure2(0.25);
        assert_eq!(fig.entries.len(), 3);
        assert!(fig.matches_paper(1e-9));
        // The middle point is (1 + ε, 1 + ε).
        assert!((fig.entries[1].cmax - 1.25).abs() < 1e-9);
        assert!((fig.entries[1].mmax - 1.25).abs() < 1e-9);
    }

    #[test]
    fn figure2_middle_point_disappears_for_eps_above_one_half() {
        // The paper remarks the (1+ε, 1+ε) point is Pareto optimal only
        // for ε < 1/2; the instance constructor enforces that domain.
        assert!(std::panic::catch_unwind(|| figure2(0.7)).is_err());
    }

    #[test]
    fn figure3_contains_the_expected_series() {
        let fig = figure3(6, 16, 0.25, 4.0);
        let labels: Vec<String> = fig.summary().iter().map(|(l, _)| l.clone()).collect();
        assert!(labels.contains(&"lemma2 m=2".to_string()));
        assert!(labels.contains(&"lemma2 m=6".to_string()));
        assert!(labels.contains(&"lemma3".to_string()));
        assert!(labels.contains(&"sbo".to_string()));
        assert!(fig.sbo_curve_outside_domain(6, 16));
        assert_eq!(fig.table().header.len(), 3);
    }

    #[test]
    fn figure3_ascii_plot_has_the_requested_size() {
        let fig = figure3(3, 8, 0.5, 2.0);
        let plot = fig.ascii_plot(40, 12, 4.0, 4.0);
        let lines: Vec<&str> = plot.lines().collect();
        // 1 header + 12 canvas rows + 1 axis line.
        assert_eq!(lines.len(), 14);
        assert!(lines[1].len() >= 41);
        assert!(plot.contains('*'), "SBO curve must appear in the plot");
    }

    #[test]
    fn figure_tables_round_trip_to_csv() {
        let t = figure1(1e-3).table();
        let csv = t.to_csv();
        assert!(csv.lines().count() == 3);
        assert!(csv.starts_with("point,Cmax"));
    }
}
