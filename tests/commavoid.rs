//! Communication-avoiding round invariants, end to end (Section V-C):
//! virtual transposition must produce a `C` **bit-identical** to the
//! physical transpose-exchange schedule while sending **zero** p2p bytes
//! (the exchange is that path's only p2p traffic) — across p ∈ {1, 4, 9}
//! and both evaluated semirings.

use dspgemm::core::dyn_algebraic::{apply_algebraic_updates_mode_exec, TransposeMode};
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::mpi::CommCategory;
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

const N: Index = 32;
const BATCHES: usize = 3;

fn random_triples<S: Semiring>(
    seed: u64,
    n: Index,
    count: usize,
    val: impl Fn(u64) -> S::Elem,
) -> Vec<Triple<S::Elem>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                val(rng.gen_range(9) + 1),
            )
        })
        .collect()
}

/// Root gathers of `C` after each batch (None off-root).
type GatheredEpochs<E> = Vec<Option<Vec<Triple<E>>>>;

/// One full dynamic session in the given transpose mode: initial product,
/// then `BATCHES` algebraic batches applied sequentially, gathering `C`
/// after every batch. The engine runs the virtual schedule; the physical
/// arm drives the function-level entry on the engine's fields.
fn run_mode<S: Semiring>(
    p: usize,
    mode: TransposeMode,
    val: impl Fn(u64) -> S::Elem + Send + Sync + Copy,
) -> dspgemm::mpi::SimOutput<GatheredEpochs<S::Elem>> {
    dspgemm::mpi::run(p, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = |seed: u64, count: usize| {
            if comm.rank() == 0 {
                random_triples::<S>(seed, N, count, val)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, N, N, feed(11, 250), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, feed(12, 250), 1, &mut timer);
        let mut eng = DynSpGemm::<S>::new(&grid, a, b, 1, false);
        let mut gathered = Vec::new();
        for k in 0..BATCHES as u64 {
            let (a_ups, b_ups) = (feed(100 + k, 60), feed(200 + k, 60));
            match mode {
                TransposeMode::Virtual => {
                    eng.apply_algebraic(&grid, a_ups, b_ups);
                    eng.snapshot();
                }
                TransposeMode::Physical => {
                    eng.flops += apply_algebraic_updates_mode_exec::<S>(
                        &grid,
                        &mut eng.a,
                        &mut eng.b,
                        &mut eng.c,
                        eng.f.as_mut(),
                        a_ups,
                        b_ups,
                        mode,
                        &eng.exec,
                        &mut eng.timer,
                    );
                    eng.publish();
                }
            }
            gathered.push(eng.c.gather_to_root(comm));
        }
        gathered
    })
}

/// Virtual vs. physical: bit-identical `C` after every batch, and the
/// transpose exchange gone from the wire — zero p2p bytes on the virtual
/// arm vs. strictly positive on the physical arm whenever ranks actually
/// have off-rank round partners (p > 1).
fn check_virtual_matches_physical<S: Semiring>(val: impl Fn(u64) -> S::Elem + Send + Sync + Copy)
where
    S::Elem: PartialEq + std::fmt::Debug,
{
    for p in [1usize, 4, 9] {
        let physical = run_mode::<S>(p, TransposeMode::Physical, val);
        let virtual_ = run_mode::<S>(p, TransposeMode::Virtual, val);
        assert_eq!(
            physical.results, virtual_.results,
            "p={p}: virtual transposition changed C"
        );
        let phys_p2p = physical.stats.bytes_in(CommCategory::P2p);
        let virt_p2p = virtual_.stats.bytes_in(CommCategory::P2p);
        assert_eq!(virt_p2p, 0, "p={p}: virtual arm paid a transpose exchange");
        if p > 1 {
            assert!(
                phys_p2p > virt_p2p,
                "p={p}: physical arm sent no transpose-exchange bytes ({phys_p2p})"
            );
        }
    }
}

#[test]
fn virtual_transposition_matches_physical_u64plus() {
    check_virtual_matches_physical::<U64Plus>(|v| v);
}

#[test]
fn virtual_transposition_matches_physical_minplus() {
    check_virtual_matches_physical::<MinPlus>(|v| v as f64);
}
