//! The per-session local compute configuration: thread count and the
//! workspace pools every SpGEMM path leases from.
//!
//! [`Exec`] is what turns the sparse crate's per-call
//! [`dspgemm_sparse::local_mm::KernelPlan`] into a *session*
//! resource: one `Exec` lives in the engine (or is built transiently per
//! collective call) and hands out plans whose pooled workspaces persist
//! across SUMMA rounds, dynamic X/Y passes, masked recomputes and analytics
//! refreshes — so the pipelined rounds of `crate::pipeline` reuse their
//! SPA scratch and flat output buffers instead of reallocating per round.
//!
//! Three pools are kept because the kernel payloads differ: plain values
//! (`S::Elem`), value+Bloom fusion (`(S::Elem, u64)`), and pattern bits
//! (`u64`). Each [`crate::dyn_algebraic::XYKernel`] draws from the one matching
//! its payload.

use dspgemm_sparse::local_mm::KernelPlan;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::workspace::{TransposeLease, TransposePool, WorkspacePool};

/// Local-kernel execution context for one semiring: intra-rank thread
/// count and the per-payload workspace pools.
#[derive(Debug)]
pub struct Exec<S: Semiring> {
    /// Intra-rank worker threads (the paper's OpenMP `T`).
    pub threads: usize,
    plain: WorkspacePool<S::Elem>,
    fused: WorkspacePool<(S::Elem, u64)>,
    pattern: WorkspacePool<u64>,
    transpose: TransposePool,
}

impl<S: Semiring> Exec<S> {
    /// Execution with `threads` workers and empty pools.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            plain: WorkspacePool::new(),
            fused: WorkspacePool::new(),
            pattern: WorkspacePool::new(),
            transpose: TransposePool::new(),
        }
    }

    /// Plan for plain-valued kernels.
    pub fn plain(&self) -> KernelPlan<'_, S::Elem> {
        KernelPlan::new(self.threads).pooled(&self.plain)
    }

    /// Plan for Bloom-fused kernels (masked or not).
    pub fn fused(&self) -> KernelPlan<'_, (S::Elem, u64)> {
        KernelPlan::new(self.threads).pooled(&self.fused)
    }

    /// Plan for pattern kernels.
    pub fn pattern(&self) -> KernelPlan<'_, u64> {
        KernelPlan::new(self.threads).pooled(&self.pattern)
    }

    /// Leases a pooled transposition workspace for the virtual-transpose
    /// local step (`Dcsr::transpose_into`); the
    /// workspace returns to the pool on drop.
    pub fn transpose_ws(&self) -> TransposeLease<'_> {
        self.transpose.lease()
    }

    /// Total heap bytes idling in the pools (workspace-reuse
    /// regression signal; see
    /// [`WorkspacePool::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.plain.heap_bytes()
            + self.fused.heap_bytes()
            + self.pattern.heap_bytes()
            + self.transpose.heap_bytes()
    }

    /// Stashed workspace counts per pool `(plain, fused, pattern)`.
    pub fn stashed(&self) -> (usize, usize, usize) {
        (
            self.plain.stashed(),
            self.fused.stashed(),
            self.pattern.stashed(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_sparse::semiring::U64Plus;

    #[test]
    fn plans_carry_threads_and_pools() {
        let exec = Exec::<U64Plus>::new(3);
        let p = exec.plain();
        assert_eq!(p.threads, 3);
        assert!(p.pool.is_some());
        assert!(exec.fused().pool.is_some());
        assert!(exec.pattern().pool.is_some());
        assert_eq!(exec.stashed(), (0, 0, 0));
        assert_eq!(exec.heap_bytes(), 0);
    }
}
