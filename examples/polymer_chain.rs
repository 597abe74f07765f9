//! A bonded polymer chain in a crowded suspension — the `f_P ≠ 0`
//! extension the paper names in §II-A ("bonded forces for simulating
//! long-chain molecules as a bonded chain of particles").
//!
//! A 12-bead chain is threaded through a sea of crowder particles; the
//! chain's bonds enter the governing equation as the deterministic
//! force `f_P`, and the whole system is advanced with the MRHS
//! algorithm. Tracks bond energy (should stay bounded — bonds hold) and
//! checks that no bond stretched past three rest lengths.
//!
//! ```text
//! cargo run --release --example polymer_chain
//! ```

use mrhs::core::{run_mrhs_chunk, MrhsConfig};
use mrhs::stokes::forces::bond_energy;
use mrhs::stokes::{chain_bonds, GaussianNoise, SystemBuilder};

fn main() {
    let n = 300;
    let chain_len = 12;
    let system = SystemBuilder::new(n).volume_fraction(0.35).seed(21).build();

    // Thread the chain greedily: start at particle 0 and repeatedly hop
    // to the nearest not-yet-used particle, so bonded beads start near
    // contact.
    let indices: Vec<usize> = {
        let p = system.particles();
        let mut used = vec![false; n];
        let mut chain = vec![0usize];
        used[0] = true;
        while chain.len() < chain_len {
            let last = *chain.last().unwrap();
            let next = (0..n)
                .filter(|&j| !used[j])
                .min_by(|&a, &b| {
                    p.distance(last, a).partial_cmp(&p.distance(last, b)).unwrap()
                })
                .unwrap();
            used[next] = true;
            chain.push(next);
        }
        chain
    };
    let bonds = chain_bonds(system.particles(), &indices, 1.1, 5.0);
    let mut system = system.with_bonds(bonds);
    println!(
        "{n} particles at 35% occupancy; {chain_len}-bead chain with {} bonds",
        system.bonds().len()
    );
    println!(
        "initial bond energy: {:.3}",
        bond_energy(system.particles(), system.bonds())
    );

    let mut noise = GaussianNoise::seed_from_u64(4);
    let cfg = MrhsConfig { m: 6, ..Default::default() };

    for chunk in 0..4 {
        let report = run_mrhs_chunk(&mut system, &mut noise, &cfg);
        println!(
            "chunk {chunk}: block solve {:>3} it, warm first solves {:>3}–{:>3} it, \
             bond energy {:8.3}",
            report.block_iterations,
            report
                .steps
                .iter()
                .map(|s| s.first_solve_iterations)
                .min()
                .unwrap(),
            report
                .steps
                .iter()
                .map(|s| s.first_solve_iterations)
                .max()
                .unwrap(),
            bond_energy(system.particles(), system.bonds())
        );
    }

    // The chain must not have flown apart: every bond within 3x rest.
    let max_stretch = system
        .bonds()
        .iter()
        .map(|b| system.particles().distance(b.i, b.j) / b.rest_length)
        .fold(0.0f64, f64::max);
    println!("max bond stretch: {max_stretch:.2}x rest length");
    assert!(max_stretch < 3.0, "chain integrity");
    println!("chain held together through Brownian motion — f_P works");
}
