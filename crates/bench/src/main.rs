//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro <experiment> [--particles N] [--reps N] [--seed N] [--full]
//!       [--bicgstab] [--json <path>]
//! ```
//! `--bicgstab` switches `ablation` to the nonsymmetric comparison of
//! one width-m block BiCGStab against m width-1 ones
//! (`repro ablation --bicgstab`).
//! where `<experiment>` is one of `table1 table2 table3 table4 table5
//! table6 table7 table8 fig1 fig2 fig2-model ablation fig3 fig4 fig5
//! fig6 fig7 fig8 verify-exchange engine cluster-mrhs all quick`.
//!
//! Sizes default to a laptop-scale 2,000 particles (the paper's
//! 300,000 scaled down); densities, iteration counts, and every trend
//! are size-portable, and `--full` restores paper scale.

mod cluster_exp;
mod common;
mod kernels;
mod mrhs_exp;
mod report;
mod sd_exp;

use common::Options;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let opts = Options::parse(&args).unwrap_or_else(|msg| {
        eprintln!("repro: {msg}");
        usage()
    });
    // Bracket the whole run with a telemetry snapshot so the
    // subcommand's own counters land in the report.
    let before = opts.json.as_ref().map(|_| report::start());

    match cmd {
        "table1" => kernels::table1(&opts),
        "table2" => kernels::table2(&opts),
        "fig1" => kernels::fig1(&opts),
        "fig2" => kernels::fig2(&opts),
        "fig2-model" => kernels::fig2_paper_model(&opts),
        "ablation" => {
            if opts.bicgstab {
                kernels::ablation_bicgstab(&opts)
            } else {
                kernels::ablation(&opts)
            }
        }
        "fig3" => cluster_exp::fig3(&opts),
        "fig4" => cluster_exp::fig4(&opts),
        "table3" => cluster_exp::table3(&opts),
        "verify-exchange" => cluster_exp::verify_exchange(&opts),
        "engine" => cluster_exp::engine(&opts),
        "cluster-mrhs" => cluster_exp::cluster_mrhs(&opts),
        "table4" => sd_exp::table4(&opts),
        "fig5" => sd_exp::fig5(&opts),
        "fig6" => sd_exp::fig6(&opts),
        "table5" => sd_exp::table5(&opts),
        "table6" => mrhs_exp::table6(&opts),
        "table7" => mrhs_exp::table7(&opts),
        "fig7" => mrhs_exp::fig7(&opts),
        "table8" => mrhs_exp::table8(&opts),
        "fig8" => mrhs_exp::fig8(&opts),
        "all" => {
            kernels::table1(&opts);
            kernels::table2(&opts);
            kernels::fig1(&opts);
            kernels::fig2(&opts);
            kernels::fig2_paper_model(&opts);
            cluster_exp::fig3(&opts);
            cluster_exp::fig4(&opts);
            cluster_exp::table3(&opts);
            cluster_exp::verify_exchange(&opts);
            cluster_exp::engine(&opts);
            cluster_exp::cluster_mrhs(&opts);
            sd_exp::table4(&opts);
            sd_exp::fig5(&opts);
            sd_exp::fig6(&opts);
            sd_exp::table5(&opts);
            mrhs_exp::table6(&opts);
            mrhs_exp::table7(&opts);
            mrhs_exp::fig7(&opts);
            mrhs_exp::table8(&opts);
            mrhs_exp::fig8(&opts);
        }
        "quick" => {
            // The model-only experiments plus a few real time steps: no
            // heavy measurement.
            kernels::fig1(&opts);
            kernels::fig2_paper_model(&opts);
            cluster_exp::table3(&opts);
            sd_exp::table4(&opts);
            mrhs_exp::fig8(&opts);
            mrhs_exp::quick_steps(&opts);
        }
        _ => usage(),
    }

    if let (Some(path), Some(before)) = (&opts.json, &before) {
        report::write(path, cmd, &opts, before);
    }
}

/// Prints the usage line to stderr and exits 2.
fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|table2|table3|table4|table5|table6|table7|\
         table8|fig1|fig2|fig2-model|ablation|fig3|fig4|fig5|fig6|fig7|\
         fig8|verify-exchange|engine|cluster-mrhs|all|quick> \
         [--particles N] [--reps N] [--seed N] [--full] [--bicgstab] \
         [--json <path>]"
    );
    std::process::exit(2);
}
