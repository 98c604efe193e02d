//! # dspgemm-core — distributed dynamic sparse matrices and dynamic SpGEMM
//!
//! The paper's primary contribution, reproduced in full:
//!
//! * [`grid`] — the `√p × √p` process grid with row/column communicators and
//!   the 2D block distribution (Section IV).
//! * [`layout`] — explicit block layouts ([`Layout`]): the monotone row/col
//!   cut points of the distribution, uniform by default, movable at run
//!   time; plus the weighted cut solver [`layout::rebalance_cuts`].
//! * [`rebalance`] — the load-driven [`Rebalancer`]: decides on the per-rank
//!   block nnz the engine allgathers each epoch and, past a configurable
//!   imbalance threshold, migrates block boundaries (stripe
//!   re-redistribution) to a freshly solved layout.
//! * [`recovery`] — fault tolerance for engine sessions: per-batch
//!   write-ahead logs replicated to a buddy rank, periodic copy-on-write
//!   epoch anchors, and deterministic rollback + replay after a rank
//!   failure (including full replacement-rank rebuild).
//! * [`distmat`] — dynamic distributed matrices ([`DistMat`], DHB blocks)
//!   and hypersparse distributed update matrices ([`DistDcsr`]).
//! * [`redistribute`] — the two-phase counting-sort/alltoall update
//!   redistribution (Section IV-B).
//! * [`update`] — update-matrix assembly plus the local `A += A*`,
//!   `MERGE`, `MASK` operators (Section IV-A).
//! * [`summa`] — static sparse SUMMA (the paper's baseline algorithm and the
//!   producer of the initial product `C = A · B`), optionally fused with
//!   Bloom-filter tracking.
//! * [`dyn_algebraic`] — **Algorithm 1**: dynamic SpGEMM for algebraic
//!   updates, computing `C* = A*·B' + A·B*` with input-stationary broadcasts
//!   of only the hypersparse update blocks, a sparse merge-reduction of the
//!   Y pass's partials and a gather of the X pass's operands (Section V-A).
//! * [`dyn_general`] — **Algorithm 2**: dynamic SpGEMM for general updates
//!   via `COMPUTE_PATTERN`, Bloom-filtered extraction `A^R` and masked
//!   recomputation (Section V-B).
//! * [`engine`] — [`engine::DynSpGemm`], the user-facing session object that
//!   owns `A`, `B`, `C` (and the filter matrix `F`) and runs each update
//!   batch through its algorithm's one batch body — the bodies' one public
//!   entry; in shared mode it maintains `C = A · A` with one stored operand,
//!   the same bodies with `B` absent.
//! * [`observer`] — the [`Observer`] a session hands each tracked batch's
//!   update blocks and product delta (`()` on a plain engine), the hook the
//!   `dspgemm-analytics` view registry runs on.
//! * [`spmv`] — distributed sparse matrix–vector multiplication reusing
//!   SUMMA's row/column communication domains ([`spmv::DistVec`]), the
//!   kernel behind the vector-shaped analytics views.
//! * [`pipeline`] — the pipelined round scheduler: double-buffers the
//!   broadcast/multiply rounds of every SpGEMM path over the nonblocking
//!   collectives so round `k + 1`'s panels are in flight while round `k`'s
//!   local multiply runs (communication/compute overlap).
//! * [`report`] — the one per-call meter ([`meter`]) and the
//!   [`BatchReport`] every engine batch returns: wall time, stages, this
//!   rank's own sends per category, exposed vs. hidden wait, and the work.
//! * [`exec`] — the session-level kernel workspaces ([`exec::Exec`], one
//!   per payload) every SpGEMM path runs on, so pipelined rounds stop
//!   reallocating accumulators.
//! * [`snapshot`] — epoch-versioned immutable snapshots of `{A, C}`
//!   published after committed batches ([`snapshot::Snapshot`]), built
//!   block-granular copy-on-write over the live matrices; readers pin an
//!   epoch and query it bit-stably while further batches commit — the
//!   serving interface behind `dspgemm-analytics`.
//!
//! ## Quick example
//!
//! ```
//! use dspgemm_core::{engine::DynSpGemm, grid::Grid, distmat::DistMat};
//! use dspgemm_sparse::{semiring::U64Plus, Triple};
//! use dspgemm_util::stats::PhaseTimer;
//!
//! let out = dspgemm_mpi::run(4, |comm| {
//!     let grid = Grid::new(comm);
//!     let mut timer = PhaseTimer::new();
//!     let n = 32;
//!     // B = a fixed matrix; A starts empty and will grow dynamically.
//!     let b_triples = if comm.rank() == 0 {
//!         (0..n).map(|i| Triple::new(i, (i + 1) % n, 1u64)).collect()
//!     } else {
//!         vec![]
//!     };
//!     let a = DistMat::empty(&grid, n, n);
//!     let b = DistMat::from_global_triples(&grid, n, n, b_triples, 1, &mut timer);
//!     let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
//!     // Insert a batch into A; C = A·B is updated dynamically.
//!     let ups = if comm.rank() == 0 { vec![Triple::new(0, 0, 2u64)] } else { vec![] };
//!     eng.apply_algebraic(&grid, ups, vec![]);
//!     eng.c.global_nnz(&grid)
//! });
//! assert_eq!(out.results, vec![1, 1, 1, 1]); // c_{0,1} = 2·b_{0,1}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distmat;
pub mod dyn_algebraic;
pub mod dyn_general;
pub mod engine;
pub mod exec;
pub mod grid;
pub mod layout;
pub mod observer;
pub mod pipeline;
pub mod rebalance;
pub mod recovery;
pub mod redistribute;
pub mod report;
pub mod snapshot;
pub mod spmv;
pub mod summa;
pub mod update;

pub use distmat::{DistDcsr, DistMat};
pub use engine::{Batch, DynSpGemm};
pub use exec::Exec;
pub use grid::Grid;
pub use layout::Layout;
pub use observer::Observer;
pub use rebalance::{RebalanceConfig, Rebalancer};
pub use recovery::{RecoveryConfig, RecoveryReport};
pub use report::{meter, BatchReport};
pub use snapshot::{Snapshot, SnapshotMat, SnapshotStore};

/// Phase names used by the SpGEMM breakdown (the paper's Fig. 12 series).
pub mod phase {
    /// Algorithm 2's point-to-point transpose exchange of the filtered
    /// extraction `A^R` with the transpose rank (Algorithm 1 has none: its
    /// round roots' blocks come out of the batch's redistribution).
    pub const SEND_RECV: &str = "send/recv";
    /// Row/column broadcasts of update blocks.
    pub const BCAST: &str = "bcast";
    /// Local Gustavson multiplications.
    pub const LOCAL_MULT: &str = "local mult.";
    /// Update redistribution (scatter of tuples to owners).
    pub const SCATTER: &str = "scatter";
    /// Sparse merge-reduction of partial result blocks, and the X pass's
    /// gather and fold of its operands.
    pub const REDUCE_SCATTER: &str = "reduce-scatter";
    /// Applying updates / merged results into local dynamic matrices.
    pub const LOCAL_UPDATE: &str = "local update";
    /// A session's publish of the epoch its batch committed.
    pub const PUBLISH: &str = "publish";
}
