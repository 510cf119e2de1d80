//! # dpsc-bench — experiment harness utilities
//!
//! Shared machinery for the theorem-validation experiments (see DESIGN.md
//! §4 and the `experiments` binary): markdown table rendering, log–log
//! slope fitting (the "shape" checks), parallel trial execution, and probe
//! construction helpers.

use dpsc_textindex::{depth_groups, CorpusIndex};

/// A rendered experiment table (also serialized to JSON by the binary).
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (e.g. `t1_error_vs_ell`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form conclusions appended under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### `{}` — {}\n\n", self.id, self.title));
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain(std::iter::once(self.headers[c].len()))
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{:>w$}", c, w = w)).collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for r in &self.rows {
            out.push_str(&fmt_row(r));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {}\n", n));
        }
        out.push('\n');
        out
    }

    /// Renders as pretty-printed JSON. Hand-rolled (the build has no
    /// registry access for `serde`); strings are escaped per RFC 8259.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn arr(items: impl Iterator<Item = String>, indent: &str) -> String {
            let items: Vec<String> = items.collect();
            if items.is_empty() {
                return "[]".to_string();
            }
            format!("[\n{indent}  {}\n{indent}]", items.join(&format!(",\n{indent}  ")))
        }
        let headers = arr(self.headers.iter().map(|h| esc(h)), "  ");
        let rows = arr(self.rows.iter().map(|r| arr(r.iter().map(|c| esc(c)), "    ")), "  ");
        let notes = arr(self.notes.iter().map(|n| esc(n)), "  ");
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"headers\": {},\n  \"rows\": {},\n  \"notes\": {}\n}}",
            esc(&self.id),
            esc(&self.title),
            headers,
            rows,
            notes
        )
    }
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the growth exponent on
/// a log–log sweep. Non-positive values are skipped.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Mean of a slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Median of a slice (copies and sorts).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// Maximum of a slice.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

/// Runs `trials` independent seeded executions of `f` in parallel across
/// available cores (std scoped threads). Each call gets `(trial_index,
/// seed)`; results come back in trial order.
pub fn run_trials<T: Send>(
    trials: usize,
    base_seed: u64,
    f: impl Fn(usize, u64) -> T + Sync,
) -> Vec<T> {
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let results: Vec<std::sync::Mutex<Option<T>>> =
        (0..trials).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(trials) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out =
                    f(i, base_seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                *results[i].lock().expect("trial mutex not poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("trial mutex not poisoned").expect("trial completed"))
        .collect()
}

/// Probe set: the `per_length` most frequent distinct substrings at each of
/// a geometric ladder of lengths (`1, 2, 3, 4, 6, 8, 12, …` up to ℓ). These
/// become the pipeline's candidate trie in the error-measurement
/// experiments, so error is always measured on the same strings across
/// mechanisms.
pub fn frequent_probe_set(idx: &CorpusIndex, per_length: usize, delta_clip: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for d in length_ladder(idx.max_len()) {
        let mut groups = depth_groups(idx, d);
        groups.sort_by_key(|g| std::cmp::Reverse(g.count()));
        for g in groups.iter().take(per_length) {
            let _ = delta_clip;
            out.push(idx.decode_substring(g.witness_pos as usize, d));
        }
    }
    out
}

/// Geometric length ladder `1, 2, 3, 4, 6, 8, 12, 16, …` capped at `ell`.
pub fn length_ladder(ell: usize) -> Vec<usize> {
    let mut lens = vec![1usize, 2, 3];
    let mut v = 4usize;
    while v <= ell {
        lens.push(v);
        let mid = v + v / 2;
        if mid <= ell {
            lens.push(mid);
        }
        v *= 2;
    }
    lens.retain(|&l| l <= ell);
    lens.sort_unstable();
    lens.dedup();
    lens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_is_two() {
        let xs: Vec<f64> = vec![2.0, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        assert!((loglog_slope(&xs, &ys) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_sqrt_is_half() {
        let xs: Vec<f64> = vec![4.0, 16.0, 64.0, 256.0];
        let ys: Vec<f64> = xs.iter().map(|x| x.sqrt()).collect();
        assert!((loglog_slope(&xs, &ys) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ladder_is_sorted_unique() {
        let l = length_ladder(64);
        assert_eq!(l.first(), Some(&1));
        assert_eq!(l.last(), Some(&64));
        let mut s = l.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(l, s);
    }

    #[test]
    fn run_trials_is_ordered_and_complete() {
        let out = run_trials(17, 7, |i, seed| (i, seed));
        assert_eq!(out.len(), 17);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
        // Seeds are distinct.
        let seeds: std::collections::HashSet<u64> = out.iter().map(|(_, s)| *s).collect();
        assert_eq!(seeds.len(), 17);
    }

    #[test]
    fn table_markdown_renders() {
        let mut t = Table::new("demo", "Demo table", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("a note");
        let md = t.to_markdown();
        assert!(md.contains("| x | y |"));
        assert!(md.contains("> a note"));
    }
}
pub mod exps;
