//! Width probe: what one serial GSPMV costs per stored block, by
//! width and kernel backend, on the resistance operators the benchmark
//! solves (φ = 0.5, default `ResistanceConfig`).
//!
//! The table behind EXPERIMENTS "Narrow widths": a width whose
//! ns/block sits above a wider one's is a width running the wrong
//! kernel. Widths 3, 5, 6 and 7 are off the width grid, where the
//! service's partial batches land: they run the strip-mined loop or a
//! vector body plus a scalar tail. One thread. On a shared host single timings swing by tens of
//! percent from one second to the next, so every (width, backend) cell
//! is visited once per round, `rounds` times over, and the table gives
//! each cell's median (and minimum) — cells are comparable with each
//! other, and a backend no change touched (`scalar`) is the yardstick
//! between two builds.
//!
//! ```text
//! cargo run --release --example width_probe -- [particles…] [--rounds N]
//! ```

use mrhs::sparse::{
    backend_available, gspmv_on, Backend, KernelKind, MultiVec, Schedule,
};
use mrhs::stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};
use std::time::Instant;

const WIDTHS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16];
/// Back-to-back calls per timing.
const CALLS: usize = 5;

fn main() {
    // Numbers are particle counts; `--rounds` takes the next one.
    let (mut sizes, mut rounds, mut rounds_next) = (Vec::new(), 200, false);
    let mut bad = false;
    for arg in std::env::args().skip(1) {
        match arg.parse::<usize>() {
            Ok(v) if rounds_next => (rounds, rounds_next) = (v, false),
            Ok(v) => sizes.push(v),
            Err(_) if arg == "--rounds" && !rounds_next => rounds_next = true,
            Err(_) => bad = true,
        }
    }
    if bad || rounds_next || rounds == 0 {
        eprintln!("usage: width_probe [particles…] [--rounds N]");
        std::process::exit(2);
    }
    if sizes.is_empty() {
        sizes = vec![1000, 2000, 4000];
    }
    let kinds: Vec<KernelKind> =
        KernelKind::ALL.into_iter().filter(|&k| backend_available(k)).collect();
    for particles in sizes {
        let system =
            SystemBuilder::new(particles).volume_fraction(0.5).seed(11).build();
        let a =
            assemble_resistance(system.particles(), &ResistanceConfig::default());
        println!(
            "\n{particles} particles: n = {}, {} blocks ({:.1}/row); \
             ns/block, median (min) of {rounds} rounds",
            a.n_rows(),
            a.nnz_blocks(),
            a.blocks_per_row()
        );
        // One (backend, x, y, samples) per width × backend cell.
        let mut cells: Vec<(Backend, MultiVec, MultiVec, Vec<f64>)> = Vec::new();
        for m in WIDTHS {
            for &kind in &kinds {
                let x =
                    MultiVec::from_flat(a.n_cols(), m, vec![1.0; a.n_cols() * m]);
                let y = MultiVec::zeros(a.n_rows(), m);
                cells.push((Backend::forced(kind), x, y, Vec::new()));
            }
        }
        for _ in 0..rounds {
            for (backend, x, y, samples) in &mut cells {
                gspmv_on(*backend, &a, x, y, Schedule::Serial); // warm-up
                let t = Instant::now();
                for _ in 0..CALLS {
                    gspmv_on(*backend, &a, x, y, Schedule::Serial);
                    std::hint::black_box(&y);
                }
                samples.push(t.elapsed().as_secs_f64() / CALLS as f64);
            }
        }
        print!("{:>4}", "m");
        for kind in &kinds {
            print!(" {:>16}", kind.as_str());
        }
        println!();
        let per_block = 1e9 / a.nnz_blocks() as f64;
        for (row, m) in cells.chunks_mut(kinds.len()).zip(WIDTHS) {
            print!("{m:>4}");
            for (_, _, _, samples) in row {
                samples.sort_by(f64::total_cmp);
                let (median, min) = (samples[samples.len() / 2], samples[0]);
                print!(
                    " {:>16}",
                    format!("{:.2} ({:.2})", median * per_block, min * per_block)
                );
            }
            println!();
        }
    }
}
