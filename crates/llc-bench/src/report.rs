//! Plot/CSV/reporting helpers shared by the `paper` and `bench_scale` binaries.

use std::fs;
use std::path::{Path, PathBuf};

/// The output directory for regenerated figures (`results/`, created on
/// demand next to the workspace root or the current directory).
fn results_dir() -> PathBuf {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("cannot create results directory");
    dir.to_path_buf()
}

/// Write rows as CSV with a header line. Returns the path written.
///
/// # Panics
///
/// Panics on I/O failure (binaries want loud failures).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut text = String::with_capacity(rows.len() * 32 + header.len() + 1);
    text.push_str(header);
    text.push('\n');
    for row in rows {
        text.push_str(row);
        text.push('\n');
    }
    fs::write(&path, text).expect("cannot write CSV");
    path
}

/// Render one series as an ASCII chart (x left-to-right, y bottom-up).
pub fn ascii_plot(title: &str, series: &[(f64, f64)], width: usize, height: usize) -> String {
    ascii_plot_multi(title, &[("*", series)], width, height)
}

/// Render several series on a shared canvas, each with its own glyph.
pub fn ascii_plot_multi(
    title: &str,
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
) -> String {
    let width = width.max(10);
    let height = height.max(4);
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if all.is_empty() {
        return format!("{title}\n(empty series)\n");
    }
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    if (x_hi - x_lo).abs() < 1e-12 {
        x_hi = x_lo + 1.0;
    }
    if (y_hi - y_lo).abs() < 1e-12 {
        y_hi = y_lo + 1.0;
    }

    let mut canvas = vec![vec![' '; width]; height];
    for (glyph, s) in series {
        let g = glyph.chars().next().unwrap_or('*');
        for &(x, y) in s.iter() {
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            let cx = ((x - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
            let cy = ((y - y_lo) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            canvas[row][cx.min(width - 1)] = g;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in canvas.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_hi:>10.1} |")
        } else if i == height - 1 {
            format!("{y_lo:>10.1} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>10}  {}\n{:>10}  {:<width$.1}{:>rest$.1}\n",
        "",
        "-".repeat(width),
        "",
        x_lo,
        x_hi,
        width = width / 2,
        rest = width - width / 2,
    ));
    out
}

/// Format a `Duration` as milliseconds with 3 decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

/// `--quick` flag: shortened runs for CI and development.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `--check` flag: regression-gate mode — compare fresh measurements
/// against the committed baseline JSON and exit non-zero on regression
/// instead of rewriting the file.
pub fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Read the number at `"key":` inside the `"section": { … }` object of
/// one of this repo's hand-written benchmark reports.
///
/// This is *not* a JSON parser — it is the minimal extractor the
/// registry-less build can afford (no serde), sufficient for the flat
/// two-level objects `bench_scale` emits: find the
/// section name, then the first occurrence of the key after it, then
/// parse the literal that follows the colon.
pub fn json_number(text: &str, section: &str, key: &str) -> Option<f64> {
    let sect = format!("\"{section}\"");
    let rest = &text[text.find(&sect)? + sect.len()..];
    let needle = format!("\"{key}\"");
    let rest = &rest[rest.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Median of three runs of a timing measurement — the gate-calibration
/// primitive: a single timing run on a shared CI runner is hostage to
/// scheduler noise, while the median of three discards one bad draw in
/// either direction. Deterministic measurements (tracking MAEs) pass
/// through unchanged since all three runs agree.
pub fn median3<F: FnMut() -> f64>(mut measure: F) -> f64 {
    let mut runs = [measure(), measure(), measure()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The CPU model string of this machine (from `/proc/cpuinfo` on Linux),
/// or `"unknown"` — recorded in `BENCH_scale.json` so baselines can be
/// keyed per runner class instead of assuming one hardware profile.
fn cpu_model() -> String {
    if let Ok(text) = fs::read_to_string("/proc/cpuinfo") {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, name)) = rest.split_once(':') {
                    return name.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

/// The `"runner"` JSON object of `BENCH_scale.json` and its baselines:
/// `threads`, `os` and the CPU model — the key material of the
/// per-runner-class baseline store.
pub fn runner_json(threads: usize) -> String {
    format!(
        "\"runner\": {{\n    \"threads\": {threads},\n    \"os\": \"{}\",\n    \"cpu\": \"{}\"\n  }}",
        std::env::consts::OS,
        cpu_model().replace('"', "'"),
    )
}

/// The runner-class slug this machine belongs to, derived from
/// `runner.{threads, os, cpu}`: lowercase alphanumerics with runs of
/// everything else collapsed to single dashes (e.g.
/// `linux-1t-intel-r-xeon-r-processor-2-10ghz`). Two machines with the
/// same slug are "like runners" whose absolute measurements are
/// comparable.
pub fn runner_class(threads: usize) -> String {
    let raw = format!("{}-{}t-{}", std::env::consts::OS, threads, cpu_model());
    let mut slug = String::with_capacity(raw.len());
    let mut dash = false;
    for ch in raw.chars() {
        if ch.is_ascii_alphanumeric() {
            slug.push(ch.to_ascii_lowercase());
            dash = false;
        } else if !dash && !slug.is_empty() {
            slug.push('-');
            dash = true;
        }
    }
    slug.trim_end_matches('-').to_string()
}

/// Path of `bench`'s committed baseline for this machine's runner class:
/// `bench_baselines/<bench>/<runner-class>.json` at the workspace root.
fn class_baseline_path(bench: &str, threads: usize) -> PathBuf {
    Path::new("bench_baselines")
        .join(bench)
        .join(format!("{}.json", runner_class(threads)))
}

/// The committed per-class baseline for `bench` on this runner class, if
/// one exists. Gates prefer it over the single workspace-root
/// `BENCH_scale.json` — like runners compare absolute numbers directly, so
/// the tolerance can tighten.
pub fn load_class_baseline(bench: &str, threads: usize) -> Option<String> {
    fs::read_to_string(class_baseline_path(bench, threads)).ok()
}

/// `--rebaseline` flag: allow a full bench run to overwrite an
/// *existing* per-class baseline. Without it, baselines are only
/// written when the class has none yet — otherwise a regressed run
/// could silently replace the snapshot its own gate compares against,
/// ratcheting the regression in.
fn rebaseline_mode() -> bool {
    std::env::args().any(|a| a == "--rebaseline")
}

/// Store this run's report as the runner class's baseline snapshot —
/// but only when the class has no snapshot yet, or `--rebaseline` was
/// passed (a deliberate re-anchor). Returns the path written, or
/// `None` when an existing baseline was deliberately left alone.
///
/// # Panics
///
/// Panics on I/O failure (benches want loud failures).
pub fn write_class_baseline(bench: &str, threads: usize, json: &str) -> Option<PathBuf> {
    let path = class_baseline_path(bench, threads);
    if path.exists() && !rebaseline_mode() {
        println!(
            "kept existing {} (pass --rebaseline to overwrite)",
            path.display()
        );
        return None;
    }
    fs::create_dir_all(path.parent().expect("path has a parent"))
        .expect("cannot create bench_baselines directory");
    fs::write(&path, json).expect("cannot write per-class baseline");
    Some(path)
}

/// One gate comparison: fail (return an error line) when `measured`
/// falls more than `tolerance` (fractional) below `baseline`.
pub fn gate_ratio(label: &str, measured: f64, baseline: f64, tolerance: f64) -> Result<(), String> {
    let floor = baseline * (1.0 - tolerance);
    if measured < floor {
        Err(format!(
            "REGRESSION {label}: measured {measured:.2} < floor {floor:.2} \
             (baseline {baseline:.2}, tolerance {:.0}%)",
            tolerance * 100.0
        ))
    } else {
        println!(
            "gate ok  {label}: measured {measured:.2} >= floor {floor:.2} (baseline {baseline:.2})"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_reads_nested_keys() {
        let text = r#"{
  "threads": 4,
  "probes": { "speedup": 36.81, "hash_ns_per_probe": 1042.48 },
  "l1_decide": { "speedup": 24.90 }
}"#;
        assert_eq!(json_number(text, "probes", "speedup"), Some(36.81));
        assert_eq!(json_number(text, "l1_decide", "speedup"), Some(24.9));
        assert_eq!(
            json_number(text, "probes", "hash_ns_per_probe"),
            Some(1042.48)
        );
        assert_eq!(json_number(text, "nope", "speedup"), None);
        assert_eq!(json_number(text, "probes", "nope"), None);
    }

    #[test]
    fn gate_ratio_flags_regression_only() {
        assert!(gate_ratio("x", 10.0, 10.0, 0.2).is_ok());
        assert!(gate_ratio("x", 8.01, 10.0, 0.2).is_ok());
        assert!(gate_ratio("x", 7.9, 10.0, 0.2).is_err());
    }

    #[test]
    fn plot_renders_bounds_and_glyphs() {
        let series: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, (i * i) as f64)).collect();
        let p = ascii_plot("test", &series, 40, 10);
        assert!(p.contains("test"));
        assert!(p.contains('*'));
        assert!(p.contains("2401.0"), "max y labelled: {p}");
    }

    #[test]
    fn plot_multi_uses_distinct_glyphs() {
        let a: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        let b: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, (10 - i) as f64)).collect();
        let p = ascii_plot_multi("two", &[("a", &a), ("b", &b)], 30, 8);
        assert!(p.contains('a'));
        assert!(p.contains('b'));
    }

    #[test]
    fn empty_series_is_graceful() {
        let p = ascii_plot("none", &[], 30, 8);
        assert!(p.contains("empty"));
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(std::time::Duration::from_micros(1500)), "1.500 ms");
    }

    #[test]
    fn median3_discards_one_outlier() {
        let mut runs = [10.0, 300.0, 11.0].into_iter();
        assert_eq!(median3(|| runs.next().unwrap()), 11.0);
        let mut runs = [5.0, 5.0, 5.0].into_iter();
        assert_eq!(median3(|| runs.next().unwrap()), 5.0);
    }

    #[test]
    fn runner_json_carries_key_material() {
        let j = runner_json(4);
        assert!(j.contains("\"threads\": 4"));
        assert!(j.contains("\"os\""));
        assert!(j.contains("\"cpu\""));
        assert_eq!(json_number(&j, "runner", "threads"), Some(4.0));
    }
}
