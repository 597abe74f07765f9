//! Integration tests of the distributed GSPMV stack against the real
//! Stokesian matrices (sparse ← stokes ← cluster).

use mrhs::cluster::{ClusterGspmvModel, DistEngine, DistributedMatrix};
use mrhs::sparse::partition::{coordinate_partition, rcb_partition};
use mrhs::sparse::reorder::permute_symmetric;
use mrhs::sparse::{gspmv_serial, MultiVec};
use mrhs::stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

fn sd_case(
    n: usize,
    seed: u64,
) -> (mrhs::stokes::StokesianSystem, mrhs::sparse::BcrsMatrix) {
    let sys = SystemBuilder::new(n).volume_fraction(0.4).seed(seed).build();
    let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
    (sys, a)
}

fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
    let mut state = seed | 1;
    let mut mv = MultiVec::zeros(n, m);
    for v in mv.as_mut_slice() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    mv
}

#[test]
fn coordinate_partitioned_exchange_matches_serial_on_sd_matrix() {
    let (sys, a) = sd_case(150, 1);
    for nodes in [2usize, 4, 7] {
        let part = coordinate_partition(
            &a,
            sys.particles().positions(),
            sys.particles().box_lengths(),
            nodes,
        );
        let dm = DistributedMatrix::new(&a, &part);
        let permuted = permute_symmetric(&a, dm.permutation());
        let x = pseudo_multivec(a.n_rows(), 4, 3);
        let (y, stats) = DistEngine::new(dm).multiply(&x);
        let mut want = MultiVec::zeros(a.n_rows(), 4);
        gspmv_serial(&permuted, &x, &mut want);
        for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
            // relative: resistance entries reach ~1e4, so ULP noise does too
            assert!((u - v).abs() <= 1e-9 * u.abs().max(v.abs()).max(1.0));
        }
        if nodes > 1 {
            assert!(stats.comm.total_bytes() > 0, "halo must be exchanged");
        }
    }
}

#[test]
fn coordinate_partition_quality_comparable_to_rcb() {
    // The paper: coordinate partitioning gave communication volume and
    // balance comparable to METIS; we compare against RCB.
    let (sys, a) = sd_case(400, 2);
    let nodes = 8;
    let coord = coordinate_partition(
        &a,
        sys.particles().positions(),
        sys.particles().box_lengths(),
        nodes,
    );
    let rcb = rcb_partition(&a, sys.particles().positions(), nodes);
    let (ic, ir) = (coord.load_imbalance(&a), rcb.load_imbalance(&a));
    let (vc, vr) = (coord.communication_volume(&a), rcb.communication_volume(&a));
    assert!(ic < 1.7, "coordinate imbalance {ic}");
    assert!(ir < 1.7, "rcb imbalance {ir}");
    // within 2.5x of each other in volume
    let ratio = vc as f64 / vr.max(1) as f64;
    assert!(
        (0.4..=2.5).contains(&ratio),
        "comm volumes incomparable: coord {vc} vs rcb {vr}"
    );
}

#[test]
fn model_reproduces_paper_cluster_trends_on_sd_matrix() {
    let (sys, a) = sd_case(300, 3);
    let model = ClusterGspmvModel::paper_cluster();
    let scale = 300_000.0 / 300.0;
    let mut r16 = Vec::new();
    for nodes in [1usize, 8, 64] {
        let part = coordinate_partition(
            &a,
            sys.particles().positions(),
            sys.particles().box_lengths(),
            nodes,
        );
        let dm = DistributedMatrix::new(&a, &part);
        r16.push(model.relative_time(&dm, 16, scale));
    }
    // Fig. 4 shape: r(16) at 64 nodes sits below the single-node value.
    assert!(r16[2] < r16[0], "relative time should flatten at scale: {r16:?}");
}

#[test]
fn comm_fraction_projection_matches_table3_band() {
    let (sys, a) = sd_case(300, 4);
    let model = ClusterGspmvModel::paper_cluster();
    let scale = 300_000.0 / 300.0;
    let part = coordinate_partition(
        &a,
        sys.particles().positions(),
        sys.particles().box_lengths(),
        64,
    );
    let dm = DistributedMatrix::new(&a, &part);
    let f1 = model.comm_fraction(&dm, 1, scale);
    let f32 = model.comm_fraction(&dm, 32, scale);
    // Paper: 97% and 67%; allow a broad band around the trend.
    assert!(f1 > 0.6, "m=1 fraction {f1}");
    assert!(f32 < f1, "fraction must fall with m: {f1} -> {f32}");
}
