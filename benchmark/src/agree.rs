//! `--agree K` (does the same code agree with itself?) and
//! `--compare BASE CAND` (did a change move a number?).
//!
//! Both reduce a metric's runs to a median and the quartiles Python's
//! `statistics.quantiles(values, n=4)` gives, and call the distance
//! between the quartiles, as a share of the median, the spread — the
//! same arithmetic the driver applies to this benchmark.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::manifest::{END_TO_END, WORKLOADS};
use crate::util::{median, quartiles_exclusive};
use mrhs_telemetry::json::Json;

/// Metric name → values over the runs of one workload.
type Runs = BTreeMap<String, Vec<f64>>;

struct Stat {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Stat {
    fn of(values: &[f64]) -> Stat {
        let mut v = values.to_vec();
        let (q1, q3) = quartiles_exclusive(&mut v);
        Stat { median: median(&mut v), q1, q3 }
    }

    /// Interquartile distance as a share of the median.
    fn spread(&self) -> f64 {
        if self.median != 0.0 {
            (self.q3 - self.q1) / self.median.abs()
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for Stat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:>10.4} [{:>10.4} {:>10.4}]", self.median, self.q1, self.q3)
    }
}

/// How much worse `cand` is than `base`, as a share of `base` (negative
/// when it is better), for a metric whose better direction is `better`.
fn worse_by(better: &str, base: f64, cand: f64) -> f64 {
    let change = (cand - base) / base.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Runs one workload in a child process and returns what it printed.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The `name value unit` lines of a run's output.
pub fn metric_lines(text: &str) -> impl Iterator<Item = (&str, f64, &str)> {
    text.lines().filter(|l| !l.starts_with(['#', '{'])).filter_map(|l| {
        let mut w = l.split_whitespace();
        Some((w.next()?, w.next()?.parse().ok()?, w.next()?))
    })
}

/// Two alternating sets of `k` runs per workload on seeds `seed..seed+k`;
/// with `hog > 0` the second set runs beside that many busy threads.
/// Prints, per workload × end-to-end metric, both sets' medians and
/// quartiles, |Δ| ÷ median, the wider spread and the bound; breaches
/// make the exit code non-zero.
pub fn agree(
    k: usize,
    hog: usize,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> ExitCode {
    let mut sets: [BTreeMap<&str, Runs>; 2] = Default::default();
    for i in 0..k {
        // Alternate which set goes first so drift hits both alike.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for w in &WORKLOADS {
                let contended = set == 1 && hog > 0;
                eprintln!(
                    "agree: set {} run {}/{k} {} seed {}{}",
                    ["A", "B"][set],
                    i + 1,
                    w.name,
                    seed + i as u64,
                    if contended {
                        format!(" beside {hog} busy threads")
                    } else {
                        String::new()
                    }
                );
                let dir = out_dir.join(format!("agree-{}", ["a", "b"][set]));
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
                let result = with_hogs(if contended { hog } else { 0 }, || {
                    run_child(w.name, seed + i as u64, seconds, false, &dir)
                });
                match result {
                    Ok(text) => {
                        let runs = sets[set].entry(w.name).or_default();
                        for (name, v, _) in metric_lines(&text) {
                            runs.entry(name.to_string()).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("agree: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
    }

    let label = if hog > 0 {
        format!("B beside {hog} busy threads")
    } else {
        "B".to_string()
    };
    println!("# --agree {k}: seeds {seed}..{}, {seconds} s per run; set A quiet, set {label}", seed + k as u64 - 1);
    println!(
        "{:<12} {:<18} {:>34} {:>34} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1 q3]",
        "B median [q1 q3]",
        "|Δ|/med",
        "spread",
        "bound"
    );
    // The seven judged metrics, then their uncorrected twins and the
    // host's pace for the record (no bound: never judged).
    const UNJUDGED: [&str; 6] = [
        "raw.setup_s",
        "raw.rhs_per_s",
        "raw.lat_p50_ms",
        "raw.lat_slow_ms",
        "raw.alt_lat_p50_ms",
        "host.pace",
    ];
    let mut breaches = 0;
    for w in &WORKLOADS {
        let judged = END_TO_END.iter().map(|m| (m.name, Some(m.bound)));
        for (name, bound) in judged.chain(UNJUDGED.iter().map(|n| (*n, None))) {
            let (Some(a), Some(b)) = (
                sets[0].get(w.name).and_then(|r| r.get(name)),
                sets[1].get(w.name).and_then(|r| r.get(name)),
            ) else {
                println!("{:<12} {name:<18} missing", w.name);
                breaches += usize::from(bound.is_some());
                continue;
            };
            let (sa, sb) = (Stat::of(a), Stat::of(b));
            let delta = ((sb.median - sa.median) / sa.median).abs();
            let spread = sa.spread().max(sb.spread());
            // The contract exempts the spread of setup_s, not its medians.
            let breach = bound
                .is_some_and(|b| delta > b || (name != "setup_s" && spread > b));
            breaches += usize::from(breach);
            println!(
                "{:<12} {name:<18} {sa} {sb} {delta:>8.4} {spread:>8.4} {:>6}  {}",
                w.name,
                bound.map_or("-".to_string(), |b| b.to_string()),
                match (bound, breach) {
                    (None, _) => "-",
                    (_, true) => "BREACH",
                    (_, false) => "ok",
                }
            );
        }
    }
    if breaches == 0 {
        println!("# agree: every workload × end-to-end metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("# agree: {breaches} breach(es)");
        ExitCode::from(1)
    }
}

/// Runs `f` beside `n` threads that spin until it returns.
fn with_hogs<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..n {
            scope.spawn(|| {
                let mut x = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    x = std::hint::black_box(
                        x.wrapping_mul(6364136223846793005).wrapping_add(1),
                    );
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Reads a `results.jsonl` file into workload → trace flag → runs.
fn read_results(path: &Path) -> Result<BTreeMap<String, [Runs; 2]>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out: BTreeMap<String, [Runs; 2]> = BTreeMap::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let bad = || format!("{}:{}: not a result record", path.display(), n + 1);
        let workload = v.get("workload").and_then(Json::as_str).ok_or_else(bad)?;
        let trace = v.get("trace").and_then(Json::as_f64).ok_or_else(bad)? != 0.0;
        let metrics = v.get("metrics").and_then(Json::as_obj).ok_or_else(bad)?;
        let runs =
            &mut out.entry(workload.to_string()).or_default()[usize::from(trace)];
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or_else(bad)?;
            runs.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// One row per workload × end-to-end metric from the untraced runs of
/// two result files — medians, quartiles, the candidate's ratio to its
/// base, and a verdict — then the per-layer medians of the traced
/// runs, unjudged. Non-zero exit when anything regressed.
pub fn compare(base: &Path, cand: &Path) -> ExitCode {
    let (b, c) = match (read_results(base), read_results(cand)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<12} {:<18} {:>34} {:>34} {:>22}  verdict",
        "workload",
        "metric",
        "base median [q1 q3]",
        "cand median [q1 q3]",
        "cand/base (base)"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        let (Some(bw), Some(cw)) = (b.get(w.name), c.get(w.name)) else { continue };
        for m in &END_TO_END {
            let (Some(bv), Some(cv)) = (bw[0].get(m.name), cw[0].get(m.name))
            else {
                continue;
            };
            let (sb, sc) = (Stat::of(bv), Stat::of(cv));
            let worse = worse_by(m.better, sb.median, sc.median);
            let verdict = if sb.spread().max(sc.spread()) > m.bound {
                "unresolved"
            } else if worse > m.bound {
                regressed += 1;
                "regressed"
            } else if -worse > sb.spread() && -worse > 0.0 {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{:<12} {:<18} {sb} {sc} {:>10.4} ({:>9.4})  {verdict} (n={}/{})",
                w.name,
                m.name,
                sc.median / sb.median,
                sb.median,
                bv.len(),
                cv.len()
            );
        }
    }
    println!("# per-layer medians of the traced runs (never judged)");
    for w in &WORKLOADS {
        let (Some(bw), Some(cw)) = (b.get(w.name), c.get(w.name)) else { continue };
        for (name, bv) in &bw[1] {
            let Some(cv) = cw[1].get(name) else { continue };
            let (mb, mc) = (median(&mut bv.clone()), median(&mut cv.clone()));
            // A traced run's end-to-end values are for its reader only.
            if END_TO_END.iter().any(|m| m.name == name.as_str()) {
                continue;
            }
            println!(
                "{:<12} {:<40} {mb:>12.5} {mc:>12.5} {:>10.4} ({mb:>9.4})",
                w.name,
                name,
                if mb != 0.0 { mc / mb } else { f64::NAN }
            );
        }
    }
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        println!("# compare: {regressed} regression(s)");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_better_direction() {
        assert!((worse_by("lower", 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worse_by("higher", 100.0, 110.0) < 0.0);
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let s = Stat::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
