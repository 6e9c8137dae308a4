//! Minimal SVG line charts for the reproduced figures.
//!
//! The `figure` harnesses can render each latency-vs-load figure to an SVG
//! that mirrors the paper's presentation (y-axis clipped at 100 cycles, one
//! series per scheme). Hand-rolled — no plotting dependency — and deliberately
//! simple: polylines, ticks, a legend.

use crate::figures::Curve;
use pnoc_noc::metrics::RunSummary;
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

/// Render `curves` (one series per curve, x = offered rate, y = the spec's
/// [`Metric`]) into an SVG document.
pub fn render_svg(spec: &PlotSpec, curves: &[Curve]) -> String {
    let (value, runoff): (fn(&RunSummary) -> f64, bool) = match spec.metric {
        Metric::Latency => (|s| s.avg_latency, true),
        Metric::Jain => (|s| s.class_jain, false),
    };
    let margin_l = 64.0;
    let margin_r = 16.0;
    let margin_t = 36.0;
    // Room for the legend: one 16 px row per series. Charts with many
    // series grow the canvas downward rather than squeezing the plot.
    let legend_extra = (60.0 + 16.0 * curves.len() as f64 - 110.0).max(0.0);
    let margin_b = 110.0 + legend_extra;
    let w = spec.width as f64;
    let h = spec.height as f64 + legend_extra;
    let plot_w = w - margin_l - margin_r;
    let plot_h = h - margin_t - margin_b;

    let x_max = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|(r, _)| *r))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let x_of = |x: f64| margin_l + x / x_max * plot_w;
    let y_of = |y: f64| margin_t + (1.0 - (y.min(spec.y_max) / spec.y_max)) * plot_h;

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{h:.0}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">"#,
        spec.width
    );
    let _ = write!(
        svg,
        r#"<rect width="{w}" height="{h}" fill="white"/><text x="{}" y="20" text-anchor="middle" font-size="14" font-weight="bold">{}</text>"#,
        w / 2.0,
        xml_escape(&spec.title)
    );

    // Axes.
    let _ = write!(
        svg,
        r#"<line x1="{margin_l}" y1="{}" x2="{}" y2="{}" stroke="black"/><line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" y2="{}" stroke="black"/>"#,
        margin_t + plot_h,
        margin_l + plot_w,
        margin_t + plot_h,
        margin_t + plot_h,
    );
    // Y ticks every y_max/5; decimal labels when the axis is fractional.
    let tick_prec = usize::from(spec.y_max <= 5.0);
    for i in 0..=5 {
        let yv = spec.y_max * i as f64 / 5.0;
        let y = y_of(yv);
        let _ = write!(
            svg,
            r#"<line x1="{}" y1="{y}" x2="{margin_l}" y2="{y}" stroke="black"/><text x="{}" y="{}" text-anchor="end">{yv:.tick_prec$}</text>"#,
            margin_l - 4.0,
            margin_l - 8.0,
            y + 4.0,
        );
    }
    // X ticks: 6 divisions.
    for i in 0..=6 {
        let xv = x_max * i as f64 / 6.0;
        let x = x_of(xv);
        let _ = write!(
            svg,
            r#"<line x1="{x}" y1="{}" x2="{x}" y2="{}" stroke="black"/><text x="{x}" y="{}" text-anchor="middle">{:.3}</text>"#,
            margin_t + plot_h,
            margin_t + plot_h + 4.0,
            margin_t + plot_h + 18.0,
            xv
        );
    }
    // Axis labels.
    let _ = write!(
        svg,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        margin_l + plot_w / 2.0,
        margin_t + plot_h + 38.0,
        xml_escape(&spec.x_label)
    );
    let _ = write!(
        svg,
        r#"<text x="16" y="{}" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
        margin_t + plot_h / 2.0,
        margin_t + plot_h / 2.0,
        xml_escape(&spec.y_label)
    );

    // Series.
    for (i, curve) in curves.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let mut path = String::new();
        let mut started = false;
        for (rate, summary) in &curve.points {
            let y = if runoff && summary.saturated {
                spec.y_max
            } else {
                value(summary)
            };
            if !y.is_finite() {
                continue;
            }
            let _ = write!(path, "{:.1},{:.1} ", x_of(*rate), y_of(y));
            started = true;
            if runoff && summary.saturated {
                break; // run-off: stop the series at saturation
            }
        }
        if started {
            let _ = write!(
                svg,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                path.trim_end()
            );
        }
        // Point markers.
        for (rate, summary) in &curve.points {
            let y = if runoff && summary.saturated {
                spec.y_max
            } else {
                value(summary)
            };
            if !y.is_finite() {
                continue;
            }
            let _ = write!(
                svg,
                r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                x_of(*rate),
                y_of(y)
            );
            if runoff && summary.saturated {
                break;
            }
        }
        // Legend entry.
        let ly = margin_t + plot_h + 52.0 + 16.0 * i as f64;
        let _ = write!(
            svg,
            r#"<line x1="{margin_l}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2"/><text x="{}" y="{}">{}</text>"#,
            margin_l + 24.0,
            margin_l + 30.0,
            ly + 4.0,
            xml_escape(&curve.label)
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
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, render_svg(spec, curves)))
            .map_err(|e| crate::export::writing(&path, e))?;
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
    fn empty_curves_render_axes_only() {
        let spec = PlotSpec::latency("empty");
        let svg = render_svg(&spec, &[]);
        assert!(svg.contains("<line"));
        assert!(!svg.contains("<polyline"));
    }
}
