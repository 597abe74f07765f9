//! Matrix Market export.
//!
//! SD matrices are worth inspecting with external tools, so a BCRS
//! matrix can be written in the standard `MatrixMarket coordinate real
//! general` text format at scalar granularity (`sd_sim
//! --export-matrix`). Nothing in the workspace reads a matrix.

use crate::bcrs::BcrsMatrix;
use crate::BLOCK_DIM;
use std::io::Write;

/// Writes `a` in `coordinate real general` format (scalar entries,
/// 1-based indices). Explicit zeros inside blocks are skipped.
pub fn write_matrix_market<W: Write>(
    a: &BcrsMatrix,
    out: W,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(out);
    writeln!(out, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(out, "% exported by mrhs-sparse (BCRS 3x3 blocks)")?;
    let mut nnz = 0usize;
    for bi in 0..a.nb_rows() {
        let (_, blks) = a.block_row(bi);
        for b in blks {
            nnz += b.0.iter().filter(|v| **v != 0.0).count();
        }
    }
    writeln!(out, "{} {} {}", a.n_rows(), a.n_cols(), nnz)?;
    for bi in 0..a.nb_rows() {
        let (cols, blks) = a.block_row(bi);
        for (c, b) in cols.iter().zip(blks) {
            let bj = *c as usize;
            for i in 0..BLOCK_DIM {
                for j in 0..BLOCK_DIM {
                    let v = b.get(i, j);
                    if v != 0.0 {
                        writeln!(
                            out,
                            "{} {} {:.17e}",
                            bi * BLOCK_DIM + i + 1,
                            bj * BLOCK_DIM + j + 1,
                            v
                        )?;
                    }
                }
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block3;
    use crate::triplet::BlockTripletBuilder;

    /// Header, size line, 1-based indices, row-major order inside a
    /// block, block-row order across blocks, explicit zeros skipped.
    #[test]
    fn writes_the_expected_text() {
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(
            1,
            0,
            Block3::from_rows([
                [0.5, 1.0, 0.0],
                [0.0, -0.5, 0.0],
                [0.25, 0.0, 0.125],
            ]),
        );
        let mut buf = Vec::new();
        write_matrix_market(&t.build(), &mut buf).unwrap();
        let expected = "\
%%MatrixMarket matrix coordinate real general
% exported by mrhs-sparse (BCRS 3x3 blocks)
6 6 8
1 1 2.00000000000000000e0
2 2 2.00000000000000000e0
3 3 2.00000000000000000e0
4 1 5.00000000000000000e-1
4 2 1.00000000000000000e0
5 2 -5.00000000000000000e-1
6 1 2.50000000000000000e-1
6 3 1.25000000000000000e-1
";
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
    }
}
