//! # hbsp-apps — heterogeneous applications on the HBSP^k stack
//!
//! The paper's conclusion calls for "designing HBSP^k applications that
//! can take advantage of our efficient heterogeneous communication
//! algorithms". This crate does exactly that: complete SPMD
//! applications written against `hbsplib` and the collectives, runnable
//! on either engine, with the model's two design rules applied
//! throughout (fastest machines coordinate; workloads follow `c_j`):
//!
//! * [`sort`] — heterogeneous parallel sample sort: balanced scatter,
//!   local sort, splitter selection at `P_f`, bucket exchange, local
//!   merge — ends with a globally sorted distributed array;
//! * [`matvec`] — dense matrix–vector multiply: `c_j`-proportional
//!   block-row distribution, all-gather of the vector, local compute,
//!   gather of the result;
//! * [`stencil`] — iterative 1-D Jacobi relaxation with halo exchange:
//!   the repeated-superstep pattern, with heterogeneous domain
//!   decomposition.
//!
//! Payloads move one copy per hop: every send encodes straight from the
//! program's own slices into the engine's outbox
//! ([`hbsplib::Ctx::send_u32s`] and friends, or a `send_with` fill for
//! the sort's share bundles and the `[offset, values…]` blocks), and
//! every receive decodes straight out of the inbox with the borrowing
//! readers of [`hbsplib::codec`]. The wire formats — and so every
//! model word, h-relation and charged work unit — are those of plain
//! `encode_*`/`decode_*` round trips; `tests/apps_golden.rs` pins them
//! on both engines.

#![forbid(unsafe_code)]

pub mod matvec;
pub mod sort;
pub mod stencil;

pub use matvec::{simulate_matvec, MatVecRun};
pub use sort::{simulate_sample_sort, SampleSortRun};
pub use stencil::{reference_jacobi, simulate_stencil, StencilRun};

use hbsp_core::ProcId;
use hbsplib::{codec, Ctx};

/// Send `[offset, values…]` as `f64`s, with value `i` produced by
/// `value(i)` as it is written into the outbox — the wire format of
/// matvec's row blocks and partial results and of the stencil's
/// gathered field.
fn send_at(
    ctx: &mut Ctx<'_>,
    dst: ProcId,
    tag: u32,
    offset: usize,
    len: usize,
    value: impl Fn(usize) -> f64,
) {
    ctx.send_with(dst, tag, 8 * (1 + len), &mut |buf| {
        let (head, body) = buf.split_at_mut(8);
        head.copy_from_slice(&(offset as f64).to_le_bytes());
        for (i, cell) in body.chunks_exact_mut(8).enumerate() {
            cell.copy_from_slice(&value(i).to_le_bytes());
        }
    });
}

/// Read a payload written by [`send_at`]: the offset, then the values
/// as they are decoded.
fn read_at(payload: &[u8]) -> (usize, impl ExactSizeIterator<Item = f64> + '_) {
    let mut values = codec::f64s(payload);
    let offset = values.next().expect("payload carries an offset") as usize;
    (offset, values)
}
