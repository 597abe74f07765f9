//! The halo exchange's message format and per-node steps.
//!
//! A node holds only its own rows of `X`; halo values arrive as packed
//! messages over channels (one mailbox per node), mirroring nonblocking
//! MPI. [`crate::engine::DistEngine`] drives these steps from its
//! persistent node threads: pack and post the sends, multiply the local
//! sub-matrix, scatter what arrived into the halo, apply the remote
//! sub-matrix.

use crate::distmat::NodeMatrix;
use mrhs_sparse::{gspmv_serial, MultiVec};

/// Communication statistics of one distributed multiply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Per node: bytes received.
    pub recv_bytes: Vec<usize>,
    /// Per node: messages received.
    pub recv_messages: Vec<usize>,
}

impl CommStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> usize {
        self.recv_bytes.iter().sum()
    }
}

/// One packed halo message: the sender, and the rows' values packed in
/// the receiver's halo order for that sender.
pub(crate) struct HaloMessage {
    pub(crate) from: usize,
    pub(crate) data: MultiVec,
}

/// Packs the rows node `q` must ship to one peer out of its owned
/// slice `x_own` (scalar rows, node-local indexing).
pub(crate) fn pack_rows(
    node: &NodeMatrix,
    x_own: &MultiVec,
    rows: &[usize],
) -> MultiVec {
    let scalar_rows: Vec<usize> = rows
        .iter()
        .flat_map(|&r| {
            let base = (r - node.rows.start) * 3;
            [base, base + 1, base + 2]
        })
        .collect();
    x_own.gather_row_list(&scalar_rows)
}

/// Scatters a received message into the halo multivector (halo-local
/// indexing: halo row `h` occupies scalar rows `3h..3h+3`).
pub(crate) fn scatter_message(
    node: &NodeMatrix,
    rows: &[usize],
    data: &MultiVec,
    x_halo: &mut MultiVec,
) {
    for (k, &r) in rows.iter().enumerate() {
        let h = node.halo.binary_search(&r).unwrap();
        for c in 0..3 {
            x_halo.row_mut(3 * h + c).copy_from_slice(data.row(3 * k + c));
        }
    }
}

/// `y += A_remote · x_halo`, using a scratch buffer so the fast
/// (overwriting) GSPMV kernels can be reused.
pub(crate) fn apply_remote(
    node: &NodeMatrix,
    x_halo: &MultiVec,
    y: &mut MultiVec,
    scratch: &mut MultiVec,
) {
    if node.halo.is_empty() || node.rows.is_empty() {
        return;
    }
    gspmv_serial(&node.a_remote, x_halo, scratch);
    for (yi, si) in y.as_mut_slice().iter_mut().zip(scratch.as_slice()) {
        *yi += si;
    }
}
