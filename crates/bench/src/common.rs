//! Shared experiment plumbing: workload generation, option parsing,
//! table printing.

use mrhs_core::ResistanceSystem;
use mrhs_sparse::BcrsMatrix;
use mrhs_stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

/// Command-line options shared by every experiment. They size and
/// seed what a subcommand prints to stdout.
#[derive(Clone, Debug)]
pub struct Options {
    /// Base particle count (the paper's 300,000 scaled down by default
    /// so every experiment finishes on a laptop; pass `--full` or
    /// `--particles N` to scale up).
    pub particles: usize,
    /// Measurement repetitions for timed kernels.
    pub reps: usize,
    /// RNG seed.
    pub seed: u64,
    /// Run the block-BiCGStab variant of an experiment (currently
    /// `ablation`): width-`m` block solves vs `m` width-1 block
    /// BiCGStab solves on a nonsymmetric operator.
    pub bicgstab: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { particles: 2000, reps: 5, seed: 20120521, bicgstab: false }
    }
}

impl Options {
    /// Parses `--particles N`, `--reps N`, `--seed N`, `--full` and
    /// `--bicgstab` from the argument list (unknown arguments are
    /// ignored by design so every subcommand accepts the same flags). A
    /// flag whose value is missing or malformed is an `Err` carrying the
    /// message to print.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        fn number<T: std::str::FromStr>(
            flag: &str,
            value: Option<&String>,
        ) -> Result<T, String> {
            value
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))
        }
        let mut o = Options::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--particles" => o.particles = number(a, it.next())?,
                "--reps" => o.reps = number(a, it.next())?,
                "--seed" => o.seed = number(a, it.next())?,
                "--full" => o.particles = 300_000,
                "--bicgstab" => o.bicgstab = true,
                _ => {}
            }
        }
        Ok(o)
    }
}

/// The three matrix flavours of Table I, produced (as in the paper) by
/// changing the interaction cutoff of the SD generator.
pub const TABLE1_CUTOFFS: [(&str, f64, f64); 3] = [
    // (name, s_cut, paper nnzb/nb)
    ("mat1", 2.25, 5.6),
    ("mat2", 3.2, 24.9),
    ("mat3", 4.1, 45.3),
];

thread_local! {
    static PACKED: std::cell::RefCell<
        std::collections::HashMap<(usize, u64), mrhs_stokes::ParticleSystem>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Packs (and memoizes) the standard 50%-occupancy particle system —
/// packing is the slow part and is independent of the matrix cutoff.
pub fn packed_system(n: usize, seed: u64) -> mrhs_stokes::ParticleSystem {
    PACKED.with(|cache| {
        cache
            .borrow_mut()
            .entry((n, seed))
            .or_insert_with(|| {
                SystemBuilder::new(n)
                    .volume_fraction(0.5)
                    .seed(seed)
                    .build()
                    .particles()
                    .clone()
            })
            .clone()
    })
}

/// Generates a Table I-style matrix: `n` particles at 50% occupancy with
/// the given cutoff.
pub fn sd_matrix(n: usize, s_cut: f64, seed: u64) -> BcrsMatrix {
    let particles = packed_system(n, seed);
    assemble_resistance(
        &particles,
        &ResistanceConfig { s_cut, ..Default::default() },
    )
}

/// Particle count for *kernel timing* experiments: at least 12,000 so
/// the matrices exceed any last-level cache and SPMV is genuinely
/// streaming from DRAM (Table II / Fig. 2 are bandwidth statements).
pub fn kernel_particles(opts: &Options) -> usize {
    opts.particles.max(12_000)
}

/// Generates the particle system and matrix together (the partitioners
/// need coordinates).
pub fn sd_system_and_matrix(
    n: usize,
    s_cut: f64,
    seed: u64,
) -> (mrhs_stokes::StokesianSystem, BcrsMatrix) {
    let system =
        SystemBuilder::new(n).volume_fraction(0.5).s_cut(s_cut).seed(seed).build();
    let m = system.assemble();
    (system, m)
}

/// Prints a header line for an experiment section.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Formats a float column to a fixed width.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "-".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Options::parse(&args)
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        assert_eq!(
            parse("fig2 --particles").unwrap_err(),
            "--particles needs a number"
        );
        assert_eq!(parse("fig2 --reps many").unwrap_err(), "--reps needs a number");
        assert_eq!(parse("fig2 --seed -1").unwrap_err(), "--seed needs a number");
    }

    #[test]
    fn a_good_line_still_parses() {
        let o =
            parse("ablation --particles 300 --reps 2 --seed 7 --bicgstab").unwrap();
        assert_eq!((o.particles, o.reps, o.seed), (300, 2, 7));
        assert!(o.bicgstab);
    }
}
