//! # dspgemm-sparse — local sparse matrix kernels
//!
//! Everything a single rank computes locally, independent of MPI:
//!
//! * [`semiring`] — the algebraic structure SpGEMM is generic over. The paper
//!   evaluates `(+, ·)` for the algebraic dynamic algorithm and `(min, +)`
//!   for the general one; both (and more) are provided.
//! * [`triple`] — `(row, col, value)` entries: the interchange format for
//!   construction, updates and redistribution.
//! * [`csr`] / [`dcsr`] — static storage: compressed sparse row and the
//!   doubly-compressed variant for hypersparse matrices (Section IV: update
//!   matrices and SpGEMM intermediates are DCSR).
//! * [`dhb`] — the *dynamic* per-block storage: adjacency arrays with per-row
//!   hash indices, modelled on the DHB data structure the paper builds on
//!   (the paper's reference \[27\]): expected O(1) insert/update/delete of a non-zero.
//! * [`spa`] — sparse accumulators for Gustavson's row-wise product.
//! * [`workspace`] — reusable kernel workspaces (SPA scratch + flat output
//!   buffers), one lent to each multiply, so pipelined rounds stop
//!   reallocating.
//! * [`local_mm`] — Gustavson SpGEMM over any semiring, with flop accounting:
//!   one row loop on one workspace, generic over the entry payload (value,
//!   value + Bloom field of Section V-B, Bloom field alone) and the output
//!   mask.
//! * [`masked_mm`] — the row-structured output mask of the general dynamic
//!   algorithm (recompute only entries masked by `C*`, whose sorted rows are
//!   the mask).
//! * [`bloom`] — the ℓ=64-bit Bloom-filter bitfields `F`, `F*`, `E`, `R`.
//! * [`ops`] — the Bloom-guided row/column filter extraction `A^R`.
//! * [`dense`] — a tiny dense reference implementation used by tests and
//!   property checks (never by the fast paths).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod csr;
pub mod dcsr;
pub mod dense;
pub mod dhb;
pub mod local_mm;
pub mod masked_mm;
pub mod ops;
pub mod semiring;
pub mod spa;
pub mod triple;
pub mod workspace;

pub use csr::Csr;
pub use dcsr::Dcsr;
pub use dhb::DhbMatrix;
pub use semiring::{BoolOrAnd, F64MaxMin, F64Plus, MinPlus, Semiring, U64Plus};
pub use triple::{TalliedLane, Triple, TripleLane};

/// Row/column index type. All paper instances have `n < 2^32`; 32-bit indices
/// halve index bandwidth, which matters because communication volume is the
/// paper's key cost metric.
pub type Index = u32;

/// Access to the rows a Gustavson multiplication *indexes into* (the
/// right-hand side). Implemented by storages with O(1) row lookup: [`Csr`]
/// and [`DhbMatrix`] — deliberately **not** by [`Dcsr`], which matches the
/// paper's observation that its algorithms never need to index into a doubly
/// compressed layout.
///
/// Row entries are exposed as parallel `(cols, vals)` slices; entries within
/// a row carry **no ordering guarantee** (dynamic storage keeps insertion
/// order), which Gustavson's algorithm does not require.
pub trait RowRead<V> {
    /// Number of rows.
    fn nrows(&self) -> Index;
    /// Number of columns.
    fn ncols(&self) -> Index;
    /// The non-zeros of row `r` as parallel column/value slices.
    fn row(&self, r: Index) -> (&[Index], &[V]);
}

/// Iteration over the *non-empty* rows of the left-hand side of a Gustavson
/// multiplication. Implemented by [`Csr`], [`Dcsr`] and [`DhbMatrix`].
pub trait RowScan<V> {
    /// Number of rows.
    fn nrows(&self) -> Index;
    /// Number of columns.
    fn ncols(&self) -> Index;
    /// Total non-zeros.
    fn nnz(&self) -> usize;
    /// Calls `f(row, cols, vals)` for every non-empty row in increasing row
    /// order. Entries within a row carry no ordering guarantee.
    fn scan_rows(&self, f: impl FnMut(Index, &[Index], &[V]));
}
