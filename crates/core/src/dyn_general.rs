//! Algorithm 2: MPI-parallel dynamic SpGEMM for general updates.
//!
//! General updates are "incompatible" with the semiring — deletions, value
//! increases under `(min, +)`, unsetting under `(∨, ∧)` — so `C'` cannot be
//! patched additively. But `C'` can only differ from `C` at positions that
//! are non-zero in `C* = A*·B' + A·B*` (structurally), so the algorithm
//! *recomputes exactly those positions*, pruning everything else:
//!
//! 1. `COMPUTE_PATTERN` — the Algorithm-1 machinery with the pattern kernel
//!    produces each rank's block of `C*`'s sparsity pattern together with
//!    the Bloom filter `F*` of contributing inner indices;
//! 2. `E = (F ⊕ F*) masked at C*`, reduced bitwise-or over each process row
//!    into the per-row filter vector `R`;
//! 3. `A^R` — the rows `i` of `A'` with `r_i ≠ 0`, keeping only columns `k`
//!    whose bit `k mod 64` is set in `r_i` (a *superset* of what is needed:
//!    Bloom filters have no false negatives, so nothing required is lost);
//! 4. Algorithm 1's X pass under a mask broadcasts `A^R` over rows and `C*`
//!    over columns, recomputes `Z = A^R·B'` masked at `C*` (with updated
//!    filter `H`), and merge-reduces partials onto the owners;
//! 5. locally, `Z` replaces the masked entries of `C` (absent ⇒ the entry
//!    became structurally zero ⇒ delete), and `H` replaces them in `F`.
//!
//! Like Algorithm 1 it has one batch body for both shapes,
//! `general_batch`, which takes `B` as an `Option` (absent: `C = A·A`, and
//! `A`'s one prepared update serves both passes of `COMPUTE_PATTERN`; the
//! masked recompute runs against `A'` itself). The one public entry is
//! [`crate::engine::DynSpGemm::apply_general`].

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::dyn_algebraic::{compute_cstar, x_pass, Operands, TransposeMode, Update};
use crate::exec::Exec;
use crate::grid::Grid;
use crate::layout::{uniform_layout, Layout};
use crate::observer::{BatchDelta, Observer, PendingBatch, ViewCx};
use crate::phase;
use crate::update::{apply_mask, apply_merge, build_update_matrices_in, Dedup, Lane};
use dspgemm_sparse::dhb::DhbRow;
use dspgemm_sparse::local_mm::{Bloom, Pattern};
use dspgemm_sparse::ops::extract_filtered;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Dcsr, Index, RowScan, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// A batch of general updates with global indices: value writes (`sets`)
/// and structural deletions (`deletes`).
#[derive(Debug, Clone, Default)]
pub struct GeneralUpdates<V> {
    /// `(i, j, x)`: set position `(i, j)` to `x` (insert or overwrite).
    pub sets: Vec<Triple<V>>,
    /// Positions to remove.
    pub deletes: Vec<(Index, Index)>,
}

impl<V: Elem> GeneralUpdates<V> {
    /// An empty batch.
    pub fn new() -> Self {
        Self {
            sets: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Total number of update tuples.
    pub fn len(&self) -> usize {
        self.sets.len() + self.deletes.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty() && self.deletes.is_empty()
    }
}

/// The update matrices of one operand of a general update: the MERGE matrix
/// (sets), the MASK matrix (deletes), the combined structural pattern `A*`
/// and the block of it this rank broadcasts as a round root. Produced by
/// [`prepare_general_update_mode`] (and, crate-internally, by every general
/// batch's one redistribution); holding it lets that redistribution feed
/// several consumers (a session's observer and its own apply).
pub struct PreparedGeneral<V> {
    /// Redistributed `sets` as a hypersparse MERGE matrix.
    pub set_mat: DistDcsr<V>,
    /// Redistributed `deletes` as a hypersparse MASK matrix.
    pub del_mat: DistDcsr<V>,
    /// Structural union of both — the `A*` of `COMPUTE_PATTERN`, the
    /// semiring zero at every position (the pattern kernel reads no value).
    pub star: DistDcsr<V>,
    /// The block of `star` `COMPUTE_PATTERN`'s round roots broadcast
    /// (`A*_{j,i}` at rank `(i, j)`, Section V-C).
    pub star_root: Arc<Dcsr<V>>,
}

/// Builds the update matrices of every operand's general-update batch from
/// one redistribution — three lanes per operand: sets, deletes, and the
/// root lane of the combined pattern. Collective over the grid.
///
/// The pattern holds the semiring zero at every position, so its duplicates
/// fold to the same value in whatever order they arrive, and the root block
/// is the natural star's block at the transposed position, entry for entry.
pub(crate) fn prepare_general_operands<S: Semiring>(
    grid: &Grid,
    operands: Vec<(&Arc<Layout>, GeneralUpdates<S::Elem>)>,
    timer: &mut PhaseTimer,
) -> Vec<PreparedGeneral<S::Elem>> {
    let layouts: Vec<&Arc<Layout>> = operands.iter().map(|&(layout, _)| layout).collect();
    let mut lanes = Vec::with_capacity(3 * operands.len());
    for (layout, upd) in operands {
        let del_tuples: Vec<Triple<S::Elem>> = upd
            .deletes
            .iter()
            .map(|&(r, c)| Triple::new(r, c, S::zero()))
            .collect();
        let set_pattern = upd
            .sets
            .iter()
            .map(|t| Triple::new(t.row, t.col, S::zero()));
        let pattern = del_tuples.iter().copied().chain(set_pattern).collect();
        lanes.push(Lane::Natural(Arc::clone(layout), upd.sets));
        lanes.push(Lane::Natural(Arc::clone(layout), del_tuples));
        lanes.push(Lane::Root(Arc::clone(layout), pattern));
    }
    let mut built = build_update_matrices_in::<S>(grid, lanes, Dedup::LastWins, timer).into_iter();
    let mut next = || built.next().expect("three matrices per operand");
    layouts
        .into_iter()
        .map(|layout| {
            let (set_mat, del_mat) = (next().into_natural(), next().into_natural());
            let star_root = next().into_root();
            // A* = sets ∪ deletes structurally (deletions "add a structural
            // non-zero to A* to indicate that the corresponding entries have
            // changed").
            let star_block =
                Dcsr::merge_with(set_mat.block(), del_mat.block(), |a, _| a).map(|_| S::zero());
            PreparedGeneral {
                star: DistDcsr::from_block_in(grid, layout, star_block),
                set_mat,
                del_mat,
                star_root,
            }
        })
        .collect()
}

/// Prepares the general-update batch of every stored operand under
/// [`phase::SCATTER`]: three lanes of one redistribution per operand — six
/// for `C = A·B`, three for `C = A·A` (`b` absent, `b_upd` ignored).
/// Collective.
pub(crate) fn prepare_general_batch<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: Option<&DistMat<S::Elem>>,
    a_upd: GeneralUpdates<S::Elem>,
    b_upd: GeneralUpdates<S::Elem>,
    timer: &mut PhaseTimer,
) -> (PreparedGeneral<S::Elem>, Option<PreparedGeneral<S::Elem>>) {
    timer.time(phase::SCATTER, || {
        let mut operands = vec![(a.info().layout(), a_upd)];
        operands.extend(b.map(|b| (b.info().layout(), b_upd)));
        let prepared = prepare_general_operands::<S>(grid, operands, &mut PhaseTimer::new());
        let mut prepared = prepared.into_iter();
        (prepared.next().expect("A's update"), prepared.next())
    })
}

/// Algorithm 2's update: `M ← M'` by the MERGE, then the MASK matrix.
impl<S: Semiring> Update<S> for PreparedGeneral<S::Elem> {
    fn root(&self) -> &Arc<Dcsr<S::Elem>> {
        &self.star_root
    }

    fn apply(&self, m: &mut DistMat<S::Elem>) {
        apply_merge::<S>(m, &self.set_mat, 1);
        apply_mask::<S>(m, &self.del_mat, 1);
    }
}

/// Redistributes one operand's general-update batch (the only communication
/// of update assembly) and builds its MERGE / MASK / pattern matrices under
/// the uniform layout. Adapter-frozen: `benchmark/src/api.rs` passes the
/// mode argument; nothing in the workspace names it. Collective over the
/// grid.
pub fn prepare_general_update_mode<S: Semiring>(
    grid: &Grid,
    nrows: Index,
    ncols: Index,
    upd: GeneralUpdates<S::Elem>,
    _mode: TransposeMode,
    timer: &mut PhaseTimer,
) -> PreparedGeneral<S::Elem> {
    let layout = uniform_layout(nrows, ncols, grid.q());
    let mut prepared = prepare_general_operands::<S>(grid, vec![(&layout, upd)], timer);
    prepared
        .pop()
        .expect("one operand in, one prepared update out")
}

/// The tag of Algorithm 2's one point-to-point exchange, `A^R` to the
/// grid-transposed rank.
const TAG_AR: u64 = 103;

/// Steps 2–5 of Algorithm 2, shared by both shapes once `COMPUTE_PATTERN`
/// has produced this rank's `C*` block and both operands are updated: the
/// filter OR-reduce, the `A^R` extraction and its transpose exchange, the
/// masked recompute against `right` (`B'`, or `A'` itself for `C = A·A`),
/// and the replacement of `C` and `F` at `C*`. Returns the local flop count
/// of the recompute. Collective over the grid.
///
/// The `A^R` exchange is the one point-to-point round of a batch: `A^R` is
/// data-dependent and cannot be prebuilt at redistribution time.
#[allow(clippy::too_many_arguments)]
fn recompute_at_cstar<S: Semiring>(
    grid: &Grid,
    a_new: &DistMat<S::Elem>,
    right: &DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    cstar: &Dcsr<u64>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    // --- E = (F ⊕ F*) masked at C*; R = row-wise OR, allreduced over the
    // process row. ---
    let local_rows = a_new.info().local_rows();
    let filter: Arc<Vec<u64>> = timer.time(phase::REDUCE_SCATTER, || {
        // E is never materialised: each of its entries goes straight into
        // its row's OR.
        let mut local_r = vec![0u64; local_rows as usize];
        cstar.scan_rows(|r, cols, vals| {
            for (&cc, &fstar_bits) in cols.iter().zip(vals) {
                local_r[r as usize] |= f.block().get(r, cc).unwrap_or(0) | fstar_bits;
            }
        });
        // Vector allreduce = reduce + zero-copy broadcast-back (the filter
        // segment is a real payload, unlike the scalar control allreduces).
        let reduced = grid.row_comm().reduce(0, local_r, |mut x, y| {
            dspgemm_sparse::bloom::or_assign(&mut x, &y);
            x
        });
        grid.row_comm().bcast_shared(0, reduced.map(Arc::new))
    });

    // --- A^R: filtered extraction of A' (rows with r_i ≠ 0, Bloom-selected
    // columns). ---
    let a_r: Arc<Dcsr<S::Elem>> = timer.time(phase::LOCAL_MULT, || {
        Arc::new(extract_filtered(
            a_new.block(),
            &filter,
            a_new.info().col_range.start,
        ))
    });

    // --- Transpose exchange of A^R (enables parallel row broadcasts). ---
    let peer = grid.transpose_rank();
    let ar_t: Arc<Dcsr<S::Elem>> = timer.time(phase::SEND_RECV, || {
        if peer == grid.world().rank() {
            a_r
        } else {
            grid.world().sendrecv(peer, a_r, peer, TAG_AR)
        }
    });

    // --- The X pass of A^R against `right`, masked at C*: bcast A^R over
    // rows and C* over columns, masked multiply, merge-reduce Z/H onto the
    // owners. The broadcast C* block is the mask as it stands: its sorted
    // rows are what the kernel works against, so nothing is built per round
    // (Section VI-B rebuilds a hash table here). ---
    let mask = Arc::new(cstar.map(|_| ()));
    let mut flops = 0u64;
    let z = x_pass::<S, Bloom>(grid, &ar_t, right, Some(&mask), exec, timer, &mut flops)
        .expect("round k = i delivers Z_{i,j}");

    // --- Merge Z into C and H into F, masked at C*. ---
    timer.time(phase::LOCAL_UPDATE, || {
        replace_at_cstar::<S>(c, f, cstar, &z)
    });
    flops
}

/// Algorithm 2, one batch of either shape: `COMPUTE_PATTERN` around the
/// in-place updates `A → A'` (and `B → B'`), then the repair of `C` and `F`
/// at `C*` against the new right operand — `B'`, or `A'` itself when `b` is
/// `None` (`C = A·A`). `obs` sees `A`'s prepared update before the batch is
/// applied and the `C*` pattern (the positions recomputed or deleted) after.
/// Returns the local flop count and the entries of this rank's `C*` block.
/// Collective over the grid.
///
/// `f` must have been maintained by every prior product/update step
/// ([`crate::summa::summa_bloom`], a tracked algebraic batch, or this
/// function) — the engine enforces that.
#[allow(clippy::too_many_arguments)]
pub(crate) fn general_batch<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: Option<&mut DistMat<S::Elem>>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    a_prep: &PreparedGeneral<S::Elem>,
    b_prep: Option<&PreparedGeneral<S::Elem>>,
    obs: &mut impl Observer<S>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (u64, u64) {
    obs.pre_batch(
        &ViewCx { grid, a, c, exec },
        &PendingBatch::General { prep: a_prep },
    );
    let mut ops = Operands::new(a, a_prep, b, b_prep);
    let (cstar, flops) = compute_cstar::<S, Pattern, _>(grid, &mut ops, exec, timer);
    let (a, right) = (ops.left(), ops.right());
    let z_flops = recompute_at_cstar::<S>(grid, a, right, c, f, &cstar, exec, timer);
    let cstar_pattern = &cstar;
    obs.post_batch(
        &ViewCx { grid, a, c, exec },
        &BatchDelta::General {
            prep: a_prep,
            cstar_pattern,
        },
    );
    (flops + z_flops, cstar.nnz() as u64)
}

/// One row of [`replace_at_cstar`] on one matrix: walks the row's `C*`
/// columns and its `Z` columns — both ascending, the latter a subset —
/// with two pointers; a `C*` column `Z` also holds takes `value(position in
/// Z's row)`, any other loses its entry. Returns how many `Z` columns were
/// matched: all of them iff `Z`'s row lies inside `C*`'s.
fn replace_row<V: Copy>(
    row: &mut DhbRow<V>,
    cstar_cols: &[Index],
    z_cols: &[Index],
    value: impl Fn(usize) -> V,
) -> usize {
    let mut zi = 0;
    for &cc in cstar_cols {
        if z_cols.get(zi) == Some(&cc) {
            row.set(cc, value(zi));
            zi += 1;
        } else {
            row.remove(cc);
        }
    }
    zi
}

/// The local tail of Algorithm 2: at every position of the pattern `C*`,
/// `C` and `F` take the recomputed `(value, bitfield)` of `Z`, or lose the
/// entry when the recomputation produced none. `C*` is recorded as the
/// touched pattern, so the next publish patches `C`'s image (`F` is never
/// published); an empty `C*` leaves blocks and image alone.
///
/// `C*` and `Z ⊆ C*` are both row-major and column-sorted, so they are
/// walked as two sorted streams — `Z`'s next row is `C*`'s current row or a
/// later one — and each touched row of `C` and of `F` is looked up once.
///
/// # Panics
/// Panics if `Z` holds a position outside `C*` (the masked multiply never
/// produces one).
fn replace_at_cstar<S: Semiring>(
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    cstar: &Dcsr<u64>,
    z: &Dcsr<(S::Elem, u64)>,
) {
    if cstar.nnz() == 0 {
        assert_eq!(z.nnz(), 0, "Z has entries but C* is empty");
        return;
    }
    let mut z_rows = z.iter_rows().peekable();
    let c_block = c.block_mut_touching(cstar);
    let f_block = f.block_mut();
    cstar.scan_rows(|r, cols, _| {
        let (z_cols, z_vals) = match z_rows.next_if(|&(zr, _, _)| zr == r) {
            Some((_, z_cols, z_vals)) => (z_cols, z_vals),
            None => (&[][..], &[][..]),
        };
        let matched = c_block.update_row(r, |row| replace_row(row, cols, z_cols, |i| z_vals[i].0));
        assert_eq!(matched, z_cols.len(), "Z row {r} leaves C*");
        f_block.update_row(r, |row| replace_row(row, cols, z_cols, |i| z_vals[i].1));
    });
    assert!(z_rows.next().is_none(), "Z has a row outside C*");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DynSpGemm;
    use crate::observer::tests::DeltaLog;
    use crate::summa::summa;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::{MinPlus, U64Plus};
    use dspgemm_util::rng::{Rng, SplitMix64};

    fn random_triples_f(seed: u64, n: Index, count: usize) -> Vec<Triple<f64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    (rng.gen_range(9) + 1) as f64,
                )
            })
            .collect()
    }

    fn random_triples_u(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(9) + 1,
                )
            })
            .collect()
    }

    /// Draw general updates touching existing entries (value increases — the
    /// min-plus-incompatible case) plus deletions plus fresh inserts.
    fn draw_general_f(
        seed: u64,
        n: Index,
        existing: &[Triple<f64>],
        sets: usize,
        dels: usize,
    ) -> GeneralUpdates<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut upd = GeneralUpdates::new();
        for s in 0..sets {
            if s % 2 == 0 && !existing.is_empty() {
                // Increase an existing value — impossible under (min,+) add.
                let t = existing[rng.gen_index(existing.len())];
                upd.sets
                    .push(Triple::new(t.row, t.col, t.val + 5.0 + rng.gen_f64()));
            } else {
                upd.sets.push(Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    (rng.gen_range(9) + 1) as f64,
                ));
            }
        }
        for _ in 0..dels {
            if existing.is_empty() {
                break;
            }
            let t = existing[rng.gen_index(existing.len())];
            upd.deletes.push((t.row, t.col));
        }
        upd
    }

    fn check_general_min_plus(p: usize, n: Index, rounds: usize) {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples_f(s, n, 3 * n as usize)
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
            let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
            // The last round updates `B` alone: COMPUTE_PATTERN runs its Y
            // pass and no X pass.
            for round in 0..=rounds as u64 {
                // Rank 0 draws updates from the *current* global state so
                // value-increases and deletions hit real entries.
                let a_cur = eng.a.gather_to_root(comm);
                let b_cur = eng.b.gather_to_root(comm);
                let (sets, dels) = if round == rounds as u64 {
                    (0, 0)
                } else {
                    (8, 4)
                };
                let (a_upd, b_upd) = if comm.rank() == 0 {
                    (
                        draw_general_f(100 + round, n, a_cur.as_ref().unwrap(), sets, dels),
                        draw_general_f(200 + round, n, b_cur.as_ref().unwrap(), 8, 4),
                    )
                } else {
                    (GeneralUpdates::new(), GeneralUpdates::new())
                };
                eng.apply_general(&grid, a_upd, b_upd);
            }
            // Reference: static recomputation of A'·B' from scratch.
            let (c_static, _) = summa::<MinPlus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
        });
        let (c_dyn, c_static) = &out.results[0];
        let c_dyn = c_dyn.as_ref().unwrap();
        let c_static = c_static.as_ref().unwrap();
        let dd = Dense::from_triples::<MinPlus>(n, n, c_dyn);
        let ds = Dense::from_triples::<MinPlus>(n, n, c_static);
        assert_eq!(dd.diff(&ds), vec![], "p={p}: general dynamic != static");
    }

    #[test]
    fn general_min_plus_p1() {
        check_general_min_plus(1, 20, 3);
    }

    #[test]
    fn general_min_plus_p4() {
        check_general_min_plus(4, 20, 3);
    }

    #[test]
    fn general_min_plus_p9() {
        check_general_min_plus(9, 24, 2);
    }

    #[test]
    fn general_handles_pure_deletions_u64() {
        let n: Index = 16;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples_u(5, n, 60)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, true);
            // Delete some of A's entries (drawn from gathered state).
            let a_cur = eng.a.gather_to_root(comm);
            let a_upd = if comm.rank() == 0 {
                let cur = a_cur.unwrap();
                let mut upd = GeneralUpdates::new();
                for t in cur.iter().step_by(3) {
                    upd.deletes.push((t.row, t.col));
                }
                upd
            } else {
                GeneralUpdates::new()
            };
            eng.apply_general(&grid, a_upd, GeneralUpdates::new());
            let (c_static, _) = summa::<U64Plus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
        });
        let (c_dyn, c_static) = &out.results[0];
        assert_eq!(c_dyn, c_static);
    }

    /// A shared-mode engine's general updates (deletions +
    /// min-plus-incompatible sets) on C = A·A must equal static
    /// recomputation, on every grid.
    #[test]
    fn shared_general_matches_static_recompute() {
        let n: Index = 18;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let t = if comm.rank() == 0 {
                    random_triples_f(3, n, 3 * n as usize)
                } else {
                    vec![]
                };
                let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
                let mut eng = DynSpGemm::<MinPlus, DeltaLog>::shared(&grid, a, DeltaLog::default());
                for round in 0..2u64 {
                    let a_cur = eng.a.gather_to_root(comm);
                    let upd = if comm.rank() == 0 {
                        draw_general_f(90 + round, n, a_cur.as_ref().unwrap(), 6, 4)
                    } else {
                        GeneralUpdates::new()
                    };
                    eng.apply_general(&grid, upd, GeneralUpdates::new());
                    // The change feed covers every masked position by design.
                    let cstar_nnz = *eng.observer().0.last().expect("one delta per batch");
                    assert!(cstar_nnz <= eng.c.info().local_rows() as usize * n as usize);
                }
                let (c_static, _) = summa::<MinPlus>(&grid, &eng.a, &eng.a, 1, &mut timer);
                (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
            });
            let (c_dyn, c_static) = &out.results[0];
            let dd = Dense::from_triples::<MinPlus>(n, n, c_dyn.as_ref().unwrap());
            let ds = Dense::from_triples::<MinPlus>(n, n, c_static.as_ref().unwrap());
            assert_eq!(dd.diff(&ds), vec![], "p={p}: shared general != static");
        }
    }

    #[test]
    fn empty_general_update_is_noop() {
        let n: Index = 12;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples_u(8, n, 40)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, true);
            let before = eng.c.gather_to_root(comm);
            eng.apply_general(&grid, GeneralUpdates::new(), GeneralUpdates::new());
            before == eng.c.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&x| x));
    }

    #[test]
    fn filter_matrix_stays_consistent_with_c() {
        let n: Index = 16;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples_u(9, n, 50)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, true);
            for round in 0..2u64 {
                let a_cur = eng.a.gather_to_root(comm);
                let a_upd = if comm.rank() == 0 {
                    let cur = a_cur.unwrap();
                    let mut rng = SplitMix64::new(70 + round);
                    let mut upd = GeneralUpdates::new();
                    for _ in 0..5 {
                        if !cur.is_empty() {
                            let pick = cur[rng.gen_index(cur.len())];
                            upd.deletes.push((pick.row, pick.col));
                        }
                        upd.sets.push(Triple::new(
                            rng.gen_range(n as u64) as Index,
                            rng.gen_range(n as u64) as Index,
                            rng.gen_range(9) + 1,
                        ));
                    }
                    upd
                } else {
                    GeneralUpdates::new()
                };
                eng.apply_general(&grid, a_upd, GeneralUpdates::new());
            }
            // Pattern of F == pattern of C after every step.
            let (c, f) = (&eng.c, eng.f.as_ref().unwrap());
            let ct: Vec<(Index, Index)> = c
                .to_global_triples()
                .iter()
                .map(|t| (t.row, t.col))
                .collect();
            let ft: Vec<(Index, Index)> = f
                .to_global_triples()
                .iter()
                .map(|t| (t.row, t.col))
                .collect();
            ct == ft
        });
        assert!(out.results.iter().all(|&x| x));
    }

    /// `replace_at_cstar` on one rank over a hand-built `C` (with `F`
    /// holding `value << 8` wherever `C` holds `value`), the `C*` pattern
    /// `(0,1) (0,2) (0,3) (2,5) (3,3) (4,4)` and the given `Z`; returns `C`
    /// and `F` afterwards, having checked their cached entry counts.
    fn replace_with(z: Vec<Triple<(u64, u64)>>) -> (Vec<Triple<u64>>, Vec<Triple<u64>>) {
        let n: Index = 6;
        let out = run(1, move |comm| {
            let grid = Grid::new(comm);
            let (mut c, mut f) = (DistMat::empty(&grid, n, n), DistMat::empty(&grid, n, n));
            // Row 0 is out of column order, as a DHB row may be.
            let held = [
                (0, 3, 11),
                (0, 1, 10),
                (1, 2, 12),
                (2, 0, 13),
                (2, 5, 14),
                (4, 4, 15),
            ];
            for (r, cc, v) in held {
                c.block_mut().set(r, cc, v);
                f.block_mut().set(r, cc, v << 8);
            }
            let cstar = [(0, 1), (0, 2), (0, 3), (2, 5), (3, 3), (4, 4)]
                .map(|(r, cc)| Triple::new(r, cc, 1));
            let cstar = Dcsr::from_sorted_triples(n, n, &cstar);
            replace_at_cstar::<U64Plus>(
                &mut c,
                &mut f,
                &cstar,
                &Dcsr::from_sorted_triples(n, n, &z),
            );
            let (ct, ft) = (c.block().to_sorted_triples(), f.block().to_sorted_triples());
            assert_eq!(
                (c.block().nnz(), f.block().nnz()),
                (ct.len(), ft.len()),
                "nnz recount"
            );
            (ct, ft)
        });
        out.results.into_iter().next().unwrap()
    }

    #[test]
    fn replace_at_cstar_takes_z_and_drops_the_rest_of_cstar() {
        fn t<V>(r: Index, c: Index, v: V) -> Triple<V> {
            Triple::new(r, c, v)
        }
        // Z covers an entry C holds, one it does not, and a row new to C.
        let z = vec![t(0, 1, (100, 1)), t(0, 2, (101, 2)), t(3, 3, (102, 4))];
        let (c, f) = replace_with(z);
        // (0,3), (2,5), (4,4): in C* but not in Z, so gone from both.
        // (1,2), (2,0): outside C*, so untouched.
        assert_eq!(
            c,
            vec![
                t(0, 1, 100),
                t(0, 2, 101),
                t(1, 2, 12),
                t(2, 0, 13),
                t(3, 3, 102)
            ]
        );
        assert_eq!(
            f,
            vec![
                t(0, 1, 1),
                t(0, 2, 2),
                t(1, 2, 12 << 8),
                t(2, 0, 13 << 8),
                t(3, 3, 4)
            ]
        );
        // An empty Z clears C and F at every position of C*.
        let (c, f) = replace_with(vec![]);
        assert_eq!(c, vec![t(1, 2, 12), t(2, 0, 13)]);
        assert_eq!(f, vec![t(1, 2, 12 << 8), t(2, 0, 13 << 8)]);
    }

    #[test]
    #[should_panic(expected = "Z row 0 leaves C*")]
    fn replace_at_cstar_rejects_a_z_column_outside_cstar() {
        replace_with(vec![Triple::new(0, 1, (1, 1)), Triple::new(0, 5, (1, 1))]);
    }

    #[test]
    #[should_panic(expected = "Z has a row outside C*")]
    fn replace_at_cstar_rejects_a_z_row_outside_cstar() {
        replace_with(vec![Triple::new(0, 1, (1, 1)), Triple::new(1, 2, (1, 1))]);
    }
}
