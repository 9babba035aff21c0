//! Line-series rendering for the paper's figures: each figure experiment
//! prints its figure as labeled numeric series plus a coarse ASCII plot so
//! the curve shape is visible in a terminal.

/// A named series of (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Minimum and maximum y values.
    pub fn y_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, y) in &self.points {
            lo = lo.min(y);
            hi = hi.max(y);
        }
        (lo, hi)
    }

    /// Last y value (e.g. final-epoch MAE).
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }
}

/// Render series as columns of numbers (x, then one column per series).
pub fn render_columns(title: &str, xlabel: &str, series: &[Series]) -> String {
    let mut out = format!("== {title} ==\n");
    let mut header = format!("{xlabel:>10}");
    for s in series {
        header.push_str(&format!("  {:>16}", s.label));
    }
    out.push_str(&header);
    out.push('\n');
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..n {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|&(x, _)| x))
            .unwrap_or(0.0);
        let mut line = format!("{x:>10.2}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => line.push_str(&format!("  {y:>16.4}")),
                None => line.push_str(&format!("  {:>16}", "-")),
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// A coarse ASCII plot (log-free): `height` rows by one column per point of
/// the first series.
pub fn ascii_plot(series: &[Series], height: usize) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in series {
        let (a, b) = s.y_range();
        lo = lo.min(a);
        hi = hi.max(b);
    }
    if !lo.is_finite() || !hi.is_finite() || hi <= lo {
        return String::new();
    }
    let width = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    let mut grid = vec![vec![b' '; width]; height];
    let marks = [b'*', b'o', b'+', b'x', b'#', b'@'];
    for (si, s) in series.iter().enumerate() {
        for (xi, &(_, y)) in s.points.iter().enumerate() {
            let frac = (y - lo) / (hi - lo);
            let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][xi] = marks[si % marks.len()];
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let y = hi - (hi - lo) * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{y:>10.2} |"));
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{}={}", marks[i % marks.len()] as char, s.label))
        .collect();
    out.push_str(&format!("{:>10}  {}\n", "", legend.join("  ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn y_range_and_last() {
        let s = Series::new("a", vec![(0.0, 3.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(s.y_range(), (1.0, 3.0));
        assert_eq!(s.last_y(), Some(2.0));
    }

    #[test]
    fn columns_include_all_series() {
        let a = Series::new("alpha", vec![(1.0, 10.0)]);
        let b = Series::new("beta", vec![(1.0, 20.0)]);
        let out = render_columns("Fig", "x", &[a, b]);
        assert!(out.contains("alpha") && out.contains("beta"));
        assert!(out.contains("10.0000") && out.contains("20.0000"));
    }

    #[test]
    fn ascii_plot_has_height_rows() {
        let s = Series::new("a", vec![(0.0, 0.0), (1.0, 5.0), (2.0, 10.0)]);
        let plot = ascii_plot(&[s], 5);
        assert_eq!(plot.trim_end().lines().count(), 6); // 5 rows + legend
        assert!(plot.contains('*'));
    }

    #[test]
    fn ascii_plot_handles_flat_series() {
        let s = Series::new("a", vec![(0.0, 1.0), (1.0, 1.0)]);
        assert_eq!(ascii_plot(&[s], 4), "");
    }
}
