//! Minimal SVG line charts for the reproduced figures.
//!
//! The `figure` harnesses can render each latency-vs-load figure to an SVG
//! that mirrors the paper's presentation (y-axis clipped at 100 cycles, one
//! series per scheme), and `pnoc obs` renders its per-channel occupancy
//! timeline. Hand-rolled — no plotting dependency — and deliberately
//! simple: polylines, ticks, a legend, on one shared frame.

use crate::figures::Curve;
use pnoc_noc::metrics::RunSummary;
use pnoc_obs::ChannelSample;
use std::fmt::Write as _;

/// Chart geometry and axes.
#[derive(Debug, Clone)]
pub struct PlotSpec {
    /// Figure title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Clip the y axis here (the paper clips latency plots at 100 cycles).
    pub y_max: f64,
    /// Canvas width in px.
    pub width: u32,
    /// Canvas height in px.
    pub height: u32,
    /// What the y axis plots.
    pub metric: Metric,
}

/// The run metric a chart plots on its y axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean latency; saturated points are drawn as a vertical run-off at the
    /// clip line and end the series there (the paper's convention).
    Latency,
    /// Per-class Jain fairness. Saturated points still carry a meaningful
    /// fairness value, so the series runs through them.
    Jain,
}

impl PlotSpec {
    /// The paper's standard latency plot: y clipped at 100 cycles.
    pub fn latency(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            x_label: "Workload (packets/cycle/core)".into(),
            y_label: "Latency (cycles)".into(),
            y_max: 100.0,
            width: 640,
            height: 420,
            metric: Metric::Latency,
        }
    }

    /// Per-class fairness plot: Jain index lives in (0, 1].
    pub fn jain(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            x_label: "Workload (packets/cycle/core)".into(),
            y_label: "Jain fairness index".into(),
            y_max: 1.0,
            width: 640,
            height: 420,
            metric: Metric::Jain,
        }
    }
}

/// Series colours (colour-blind-safe-ish palette).
const COLORS: [&str; 8] = [
    "#1b6ca8", "#d1495b", "#66a182", "#edae49", "#8d5a97", "#00798c", "#d1903a", "#3d3d3d",
];

/// Top and right margins of every chart, in px.
const MARGIN_T: f64 = 36.0;
const MARGIN_R: f64 = 16.0;

/// A chart's canvas, its plot area and what its axes show: everything every
/// chart draws before its series.
struct Frame<'a> {
    title: &'a str,
    x_label: &'a str,
    y_label: &'a str,
    /// Canvas size in px.
    w: f64,
    h: f64,
    /// Left margin (y tick labels) and bottom margin (x axis and legend).
    margin_l: f64,
    margin_b: f64,
    /// Axis ranges; both start at 0, and y clips at `y_max`.
    x_max: f64,
    y_max: f64,
    /// Number of y divisions, and the decimals of the y and x tick labels.
    y_ticks: u32,
    y_prec: usize,
    x_prec: usize,
}

impl Frame<'_> {
    fn plot_w(&self) -> f64 {
        self.w - self.margin_l - MARGIN_R
    }

    fn plot_h(&self) -> f64 {
        self.h - MARGIN_T - self.margin_b
    }

    fn x_of(&self, x: f64) -> f64 {
        self.margin_l + x / self.x_max * self.plot_w()
    }

    fn y_of(&self, y: f64) -> f64 {
        MARGIN_T + (1.0 - (y.min(self.y_max) / self.y_max)) * self.plot_h()
    }

    /// The y of legend row `row`, below the x axis label.
    fn legend_y(&self, row: usize) -> f64 {
        MARGIN_T + self.plot_h() + 52.0 + 16.0 * row as f64
    }

    /// Open the SVG document and draw the background, title, axes, ticks
    /// and axis labels.
    fn open(&self) -> String {
        let (w, h, margin_l) = (self.w, self.h, self.margin_l);
        let (plot_w, plot_h) = (self.plot_w(), self.plot_h());
        let bottom = MARGIN_T + plot_h;
        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h:.0}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">"#,
        );
        let _ = write!(
            svg,
            r#"<rect width="{w}" height="{h}" fill="white"/><text x="{}" y="20" text-anchor="middle" font-size="14" font-weight="bold">{}</text>"#,
            w / 2.0,
            xml_escape(self.title)
        );

        // Axes.
        let _ = write!(
            svg,
            r#"<line x1="{margin_l}" y1="{bottom}" x2="{}" y2="{bottom}" stroke="black"/><line x1="{margin_l}" y1="{MARGIN_T}" x2="{margin_l}" y2="{bottom}" stroke="black"/>"#,
            margin_l + plot_w,
        );
        let y_prec = self.y_prec;
        for i in 0..=self.y_ticks {
            let yv = self.y_max * f64::from(i) / f64::from(self.y_ticks);
            let y = self.y_of(yv);
            let _ = write!(
                svg,
                r#"<line x1="{}" y1="{y}" x2="{margin_l}" y2="{y}" stroke="black"/><text x="{}" y="{}" text-anchor="end">{yv:.y_prec$}</text>"#,
                margin_l - 4.0,
                margin_l - 8.0,
                y + 4.0,
            );
        }
        // X ticks: 6 divisions.
        let x_prec = self.x_prec;
        for i in 0..=6 {
            let xv = self.x_max * f64::from(i) / 6.0;
            let x = self.x_of(xv);
            let _ = write!(
                svg,
                r#"<line x1="{x}" y1="{bottom}" x2="{x}" y2="{}" stroke="black"/><text x="{x}" y="{}" text-anchor="middle">{xv:.x_prec$}</text>"#,
                bottom + 4.0,
                bottom + 18.0,
            );
        }
        // Axis labels.
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
            margin_l + plot_w / 2.0,
            bottom + 38.0,
            xml_escape(self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{}" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            xml_escape(self.y_label)
        );
        svg
    }
}

/// One series' line through `points` (already in px); nothing for none.
fn polyline(svg: &mut String, points: &[(f64, f64)], color: &str, stroke_width: &str) {
    if points.is_empty() {
        return;
    }
    let path: Vec<String> = points
        .iter()
        .map(|(x, y)| format!("{x:.1},{y:.1}"))
        .collect();
    let _ = write!(
        svg,
        r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="{stroke_width}"/>"#,
        path.join(" ")
    );
}

/// A legend entry: a short line in the series colour, then its label.
fn legend_entry(svg: &mut String, x: f64, y: f64, color: &str, label: &str) {
    let _ = write!(
        svg,
        r#"<line x1="{x}" y1="{y}" x2="{}" y2="{y}" stroke="{color}" stroke-width="2"/><text x="{}" y="{}">{}</text>"#,
        x + 24.0,
        x + 30.0,
        y + 4.0,
        xml_escape(label)
    );
}

/// Render `curves` (one series per curve, x = offered rate, y = the spec's
/// [`Metric`]) into an SVG document.
pub fn render_svg(spec: &PlotSpec, curves: &[Curve]) -> String {
    let (value, runoff): (fn(&RunSummary) -> f64, bool) = match spec.metric {
        Metric::Latency => (|s| s.avg_latency, true),
        Metric::Jain => (|s| s.class_jain, false),
    };
    // Room for the legend: one 16 px row per series. Charts with many
    // series grow the canvas downward rather than squeezing the plot.
    let legend_extra = (60.0 + 16.0 * curves.len() as f64 - 110.0).max(0.0);
    let frame = Frame {
        title: &spec.title,
        x_label: &spec.x_label,
        y_label: &spec.y_label,
        w: f64::from(spec.width),
        h: f64::from(spec.height) + legend_extra,
        margin_l: 64.0,
        margin_b: 110.0 + legend_extra,
        x_max: curves
            .iter()
            .flat_map(|c| c.points.iter().map(|(r, _)| *r))
            .fold(0.0f64, f64::max)
            .max(1e-9),
        y_max: spec.y_max,
        y_ticks: 5,
        // Decimal labels when the axis is fractional.
        y_prec: usize::from(spec.y_max <= 5.0),
        x_prec: 3,
    };
    let mut svg = frame.open();
    for (i, curve) in curves.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let mut points = Vec::new();
        for (rate, summary) in &curve.points {
            let clipped = runoff && summary.saturated;
            let y = if clipped { spec.y_max } else { value(summary) };
            if !y.is_finite() {
                continue;
            }
            points.push((frame.x_of(*rate), frame.y_of(y)));
            if clipped {
                break; // run-off: stop the series at saturation
            }
        }
        polyline(&mut svg, &points, color, "2");
        for (x, y) in &points {
            let _ = write!(
                svg,
                r#"<circle cx="{x:.1}" cy="{y:.1}" r="3" fill="{color}"/>"#
            );
        }
        legend_entry(
            &mut svg,
            frame.margin_l,
            frame.legend_y(i),
            color,
            &curve.label,
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Occupancy-timeline legend entries are capped here; with more channels
/// the legend would swallow the plot (colours cycle, so series beyond the
/// cap still render).
const LEGEND_MAX: usize = 8;

/// Render an occupancy sampler series as one polyline per channel (cycle on
/// x, input-buffer occupancy on y). `y_max` is the occupancy axis ceiling:
/// pass the home input-buffer capacity so a flat-topped trace visibly pins
/// to the top of the plot.
pub fn render_occupancy_svg(title: &str, samples: &[ChannelSample], y_max: u32) -> String {
    let frame = Frame {
        title,
        x_label: "Cycle",
        y_label: "Input-buffer occupancy (flits)",
        w: 820.0,
        h: 440.0,
        margin_l: 56.0,
        margin_b: 96.0,
        x_max: samples.iter().map(|s| s.cycle).max().unwrap_or(1).max(1) as f64,
        y_max: f64::from(y_max.max(1)),
        // Quarters of the buffer capacity.
        y_ticks: 4,
        y_prec: 0,
        x_prec: 0,
    };
    let mut channels: Vec<u32> = samples.iter().map(|s| s.channel).collect();
    channels.sort_unstable();
    channels.dedup();

    let mut svg = frame.open();
    // Samples are in cycle order per channel: the network records them in
    // its per-cycle step loop.
    for (i, &ch) in channels.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let points: Vec<_> = samples
            .iter()
            .filter(|s| s.channel == ch)
            .map(|s| {
                (
                    frame.x_of(s.cycle as f64),
                    frame.y_of(f64::from(s.occupancy)),
                )
            })
            .collect();
        polyline(&mut svg, &points, color, "1.5");
        if i < LEGEND_MAX {
            let x = frame.margin_l + (i % 4) as f64 * 180.0;
            let label = format!("channel {ch}");
            legend_entry(&mut svg, x, frame.legend_y(i / 4), color, &label);
        }
    }
    if channels.len() > LEGEND_MAX {
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" font-style="italic">… and {} more channels (colours cycle)</text>"#,
            frame.margin_l,
            frame.legend_y(2) + 4.0,
            channels.len() - LEGEND_MAX
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Write each `(name, spec, curves)` chart into `dir` as `<name>.svg`. An
/// error names the file.
pub fn write_charts(
    dir: &std::path::Path,
    charts: &[(String, PlotSpec, Vec<Curve>)],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut out = Vec::new();
    for (name, spec, curves) in charts {
        let path = dir.join(format!("{name}.svg"));
        crate::export::write_file(&path, render_svg(spec, curves))?;
        out.push(path);
    }
    Ok(out)
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_noc::metrics::{NetworkMetrics, RunSummary};

    fn summary(lat: f64, saturated: bool) -> RunSummary {
        let mut m = NetworkMetrics::new();
        m.generated_measured = 100;
        m.delivered_measured = if saturated { 10 } else { 100 };
        for _ in 0..m.delivered_measured {
            m.latency.record(lat);
            m.latency_rec.record(lat);
        }
        RunSummary::from_metrics::<&[u64]>(&m, &[], 100, 4, 0.1)
    }

    fn curve() -> Curve {
        Curve {
            label: "DHS <test>".into(),
            points: vec![
                (0.05, summary(10.0, false)),
                (0.10, summary(20.0, false)),
                (0.15, summary(90.0, true)),
            ],
        }
    }

    #[test]
    fn svg_has_structure() {
        let spec = PlotSpec::latency("Fig. test");
        let svg = render_svg(&spec, &[curve()]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("<polyline"));
        assert!(svg.contains("circle"));
        assert!(svg.contains("Fig. test"));
        // Labels are XML-escaped.
        assert!(svg.contains("DHS &lt;test&gt;"));
        assert!(!svg.contains("DHS <test>"));
    }

    #[test]
    fn saturated_points_clip_at_y_max() {
        let spec = PlotSpec::latency("clip");
        let svg = render_svg(&spec, &[curve()]);
        // y_of(100) for the saturated point = margin_t exactly (top of plot).
        assert!(svg.contains("cy=\"36.0\""), "saturated marker at clip line");
    }

    #[test]
    fn write_charts_creates_files() {
        let dir = std::env::temp_dir().join("pnoc_plot_test");
        let _ = std::fs::remove_dir_all(&dir);
        let charts = vec![(
            "fig_unit".to_string(),
            PlotSpec::latency("unit"),
            vec![curve()],
        )];
        let paths = write_charts(&dir, &charts).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].exists());
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.contains("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_errors_name_the_file() {
        // A directory below a regular file can never be created.
        let file = std::env::temp_dir().join(format!("pnoc_plot_file_{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let dir = file.join("sub");
        let charts = vec![(
            "fig_unit".to_string(),
            PlotSpec::latency("unit"),
            vec![curve()],
        )];
        let msg = write_charts(&dir, &charts).unwrap_err().to_string();
        let _ = std::fs::remove_file(&file);
        let want = format!("writing {}: ", dir.join("fig_unit.svg").display());
        assert!(msg.starts_with(&want), "{msg}");
    }

    #[test]
    fn empty_charts_render_axes_only() {
        let svgs = [
            render_svg(&PlotSpec::latency("empty"), &[]),
            render_occupancy_svg("empty", &[], 8),
        ];
        for svg in svgs {
            assert!(svg.contains("<line"));
            assert!(!svg.contains("<polyline"));
        }
    }

    #[test]
    fn rendered_bytes_are_pinned() {
        // Fixed inputs that reach every branch: two latency series with a
        // saturated run-off, a Jain chart's fractional ticks, and 12
        // occupancy channels past the legend cap, clipped at capacity 8.
        let latency = render_svg(&PlotSpec::latency("Fig. pin <&>"), &[curve(), curve()]);
        assert_eq!(latency, include_str!("../testdata/latency.svg"));
        let jain = render_svg(&PlotSpec::jain("Jain pin"), &[curve()]);
        assert_eq!(jain, include_str!("../testdata/jain.svg"));
        let mut samples = Vec::new();
        for cycle in (0..200u64).step_by(16) {
            for ch in 0..12usize {
                let occupancy = (cycle as usize / 16 + ch) % 11;
                samples.push(ChannelSample::new(cycle, ch, occupancy, 0, 0, 0, 0));
            }
        }
        let occupancy = render_occupancy_svg("occupancy <pin>", &samples, 8);
        assert_eq!(occupancy, include_str!("../testdata/occupancy.svg"));
    }
}
