//! The per-session kernel workspaces every local SpGEMM path runs on.
//!
//! [`Exec`] turns the sparse crate's per-call `&mut`
//! [`KernelWorkspace`] argument into a *session* resource: one `Exec` lives
//! in the engine (or is built transiently per collective call) and owns one
//! workspace per kernel payload, whose capacities persist across SUMMA
//! rounds, dynamic X/Y passes (the masked recompute among them) and
//! analytics refreshes — so the pipelined rounds of `crate::pipeline` reuse
//! their SPA, mask and transposition scratch instead of reallocating it per
//! round. A call's flat output buffers are not kept: they move into the
//! `Dcsr` it returns.
//!
//! One workspace per payload because the kernel payloads differ: plain
//! values (`S::Elem`), value+Bloom fusion (`(S::Elem, u64)`), and pattern
//! bits (`u64`). Each [`crate::dyn_algebraic::XYKernel`] borrows the one
//! matching its payload. A rank runs one kernel call at a time, so one
//! workspace each is all it needs. The workspaces sit in `RefCell`s because
//! sessions hand their `Exec` out shared (`&Exec`); a nested borrow of the
//! same workspace panics.

use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::workspace::{KernelWorkspace, TransposeWorkspace};
use std::cell::{RefCell, RefMut};

/// Local-kernel execution context for one semiring: one workspace per
/// kernel payload, plus the transposition scratch.
#[derive(Debug)]
pub struct Exec<S: Semiring> {
    plain: RefCell<KernelWorkspace<S::Elem>>,
    fused: RefCell<KernelWorkspace<(S::Elem, u64)>>,
    pattern: RefCell<KernelWorkspace<u64>>,
    transpose: RefCell<TransposeWorkspace>,
}

impl<S: Semiring> Default for Exec<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Semiring> Exec<S> {
    /// Execution with fresh workspaces (no heap behind them yet).
    pub fn new() -> Self {
        Self {
            plain: RefCell::default(),
            fused: RefCell::default(),
            pattern: RefCell::default(),
            transpose: RefCell::default(),
        }
    }

    /// Workspace for plain-valued kernels.
    pub fn plain(&self) -> RefMut<'_, KernelWorkspace<S::Elem>> {
        self.plain.borrow_mut()
    }

    /// Workspace for Bloom-fused kernels (masked or not).
    pub fn fused(&self) -> RefMut<'_, KernelWorkspace<(S::Elem, u64)>> {
        self.fused.borrow_mut()
    }

    /// Workspace for pattern kernels.
    pub fn pattern(&self) -> RefMut<'_, KernelWorkspace<u64>> {
        self.pattern.borrow_mut()
    }

    /// Scratch for the virtual-transpose local step
    /// (`Dcsr::transpose_into`).
    pub fn transpose_ws(&self) -> RefMut<'_, TransposeWorkspace> {
        self.transpose.borrow_mut()
    }

    /// Total heap bytes held by the four workspaces (workspace-reuse
    /// regression signal; see [`KernelWorkspace::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.plain().heap_bytes()
            + self.fused().heap_bytes()
            + self.pattern().heap_bytes()
            + self.transpose_ws().heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_sparse::local_mm::{spgemm_with, Plain};
    use dspgemm_sparse::semiring::U64Plus;
    use dspgemm_sparse::{Csr, Triple};

    #[test]
    fn pools_start_empty_and_keep_one_workspace_per_call() {
        let exec = Exec::<U64Plus>::new();
        assert_eq!(exec.heap_bytes(), 0);
        // Two entries per row, so every output row runs an accumulator.
        let t = (0..4).flat_map(|i| [Triple::new(i, i, 1), Triple::new(i, 3 - i, 1)]);
        let a = Csr::from_triples::<U64Plus>(4, 4, t.collect());
        let mut heaps = Vec::new();
        for _ in 0..3 {
            spgemm_with::<U64Plus, Plain, _, _, _>(&a, &a, &(), 0, &mut exec.plain());
            heaps.push(exec.heap_bytes());
        }
        assert!(heaps[0] > 0 && heaps.iter().all(|&h| h == heaps[0]));
        let held = (
            exec.plain().heap_bytes(),
            exec.fused().heap_bytes(),
            exec.pattern().heap_bytes(),
        );
        assert_eq!(held, (heaps[0], 0, 0), "only the plain workspace ran");
    }
}
