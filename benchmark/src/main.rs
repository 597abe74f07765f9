//! The repo's benchmark: three time-boxed workloads (`sd_steps`,
//! `block_solve`, `serve`) on one busy compute thread, every timing
//! pace-corrected against the frozen `refsolve`. See `README.md`.
//!
//! Run through `benchmark/run.sh`, which builds this package, pins the
//! environment (`RAYON_NUM_THREADS=1`, flight-recorder directory) and
//! forwards its arguments here.

mod agree;
mod harness;
mod manifest;
mod pace;
mod reference;
mod report;
mod selfcheck;
mod spans;
mod util;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{end_to_end, host_layer, Ctx, Outcome};
use report::Report;

const USAGE: &str = "usage:
  run.sh --workload sd_steps|block_solve|serve --seed N [--seconds S] [--trace 0|1] [--out-dir D]
  run.sh --manifest
  run.sh --selfcheck
  run.sh --agree K [--hog N] [--seed N] [--seconds S] [--out-dir D]
  run.sh --compare BASE.jsonl CAND.jsonl";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out_dir: Option<PathBuf>,
    manifest: bool,
    selfcheck: bool,
    agree: Option<usize>,
    hog: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { seed: 1, ..Default::default() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(format!("--trace takes 0 or 1, not {other}"))
                    }
                }
            }
            "--out-dir" => a.out_dir = Some(PathBuf::from(value("a directory")?)),
            "--manifest" => a.manifest = true,
            "--selfcheck" => a.selfcheck = true,
            "--agree" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--agree: {e}"))?;
                if !(2..=32).contains(&k) {
                    return Err("--agree takes 2 to 32 runs per set".into());
                }
                a.agree = Some(k);
            }
            "--hog" => {
                a.hog =
                    value("a count")?.parse().map_err(|e| format!("--hog: {e}"))?;
                if a.hog > 16 {
                    return Err("--hog takes at most 16 threads".into());
                }
            }
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn dispatch(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    Ok(match name {
        "sd_steps" => workloads::sd_steps::run(ctx),
        "block_solve" => workloads::block_solve::run(ctx),
        "serve" => workloads::serve::run(ctx),
        _ => return Err(format!("unknown workload {name}\n{USAGE}")),
    })
}

/// Runs one workload (and, traced, the mini-runs that fill the other
/// layers) and returns its report.
fn run_workload(name: &str, mut ctx: Ctx) -> Result<Report, String> {
    let mut o = dispatch(name, &mut ctx)?;
    host_layer(&ctx, &mut o);
    if ctx.trace {
        // Layers this workload does not exercise: measured by mini-runs
        // of the workloads that do. What this run measured itself wins.
        for other in manifest::WORKLOADS.iter().filter(|w| w.name != name) {
            let mini = dispatch(other.name, &mut ctx.mini())?;
            o.attempted += mini.attempted;
            o.failed += mini.failed;
            for (metric, value) in mini.layer {
                o.layer.entry(metric).or_insert(value);
            }
        }
    }
    for note in &o.notes {
        println!("# {note}");
    }
    println!(
        "# {name}: seed {} · {} rounds in {:.1} s · {} reference windows over a {:.2} MiB matrix · {} spans",
        ctx.seed,
        o.rounds,
        ctx.seconds,
        ctx.pacer.windows(),
        ctx.pacer.matrix_mib(),
        ctx.tracer.len()
    );
    if ctx.trace {
        let path = ctx.out_dir.join(format!("{name}.spans.jsonl"));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    Ok(Report {
        workload: name.to_string(),
        seed: ctx.seed,
        trace: ctx.trace,
        correct: o.failed == 0 && ctx.pacer.checksum_ok,
        attempted: o.attempted,
        failed: o.failed,
        end_to_end: end_to_end(&o),
        layer: o.layer,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest::manifest_json());
        return ExitCode::SUCCESS;
    }
    if let Some((base, cand)) = &args.compare {
        return agree::compare(base, cand);
    }
    let out_dir =
        args.out_dir.clone().unwrap_or_else(|| PathBuf::from("benchmark/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    if args.selfcheck {
        return selfcheck::run(&out_dir);
    }
    let seconds = args.seconds.unwrap_or(manifest::RUN_SECONDS as f64);
    if let Some(k) = args.agree {
        return agree::agree(k, args.hog, args.seed, seconds, &out_dir);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let ctx = Ctx::new(args.seed, seconds, args.trace, out_dir.clone());
    let report = match run_workload(name, ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for line in report.text_lines() {
        println!("{line}");
    }
    if let Err(e) = report.append_record(&out_dir) {
        eprintln!("cannot append to {}/results.jsonl: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    println!("{}", report.contract_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{name}: {} of {} operations failed their check",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}
