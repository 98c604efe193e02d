//! The per-session workspace pools every local SpGEMM path leases from.
//!
//! [`Exec`] turns the sparse crate's per-call
//! [`WorkspacePool`] argument into a *session* resource: one `Exec` lives
//! in the engine (or is built transiently per collective call) and hands
//! out pools whose workspaces persist across SUMMA rounds, dynamic X/Y
//! passes (the masked recompute among them) and analytics refreshes — so the
//! pipelined rounds of `crate::pipeline` reuse their SPA, mask and
//! transposition scratch instead of reallocating it per round. A call's flat
//! output buffers are not pooled: they move into the `Dcsr` it returns.
//!
//! Three pools are kept because the kernel payloads differ: plain values
//! (`S::Elem`), value+Bloom fusion (`(S::Elem, u64)`), and pattern bits
//! (`u64`). Each [`crate::dyn_algebraic::XYKernel`] draws from the one matching
//! its payload.

use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::workspace::{TransposeLease, TransposePool, WorkspacePool};

/// Local-kernel execution context for one semiring: the per-payload
/// workspace pools.
#[derive(Debug)]
pub struct Exec<S: Semiring> {
    plain: WorkspacePool<S::Elem>,
    fused: WorkspacePool<(S::Elem, u64)>,
    pattern: WorkspacePool<u64>,
    transpose: TransposePool,
}

impl<S: Semiring> Default for Exec<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Semiring> Exec<S> {
    /// Execution with empty pools.
    pub fn new() -> Self {
        Self {
            plain: WorkspacePool::new(),
            fused: WorkspacePool::new(),
            pattern: WorkspacePool::new(),
            transpose: TransposePool::new(),
        }
    }

    /// Pool for plain-valued kernels.
    pub fn plain(&self) -> &WorkspacePool<S::Elem> {
        &self.plain
    }

    /// Pool for Bloom-fused kernels (masked or not).
    pub fn fused(&self) -> &WorkspacePool<(S::Elem, u64)> {
        &self.fused
    }

    /// Pool for pattern kernels.
    pub fn pattern(&self) -> &WorkspacePool<u64> {
        &self.pattern
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
        let a =
            Csr::from_triples::<U64Plus>(4, 4, (0..4).map(|i| Triple::new(i, 3 - i, 1)).collect());
        for _ in 0..3 {
            spgemm_with::<U64Plus, Plain, _, _, _>(&a, &a, &(), 0, exec.plain());
        }
        let stashed = (
            exec.plain().stashed(),
            exec.fused().stashed(),
            exec.pattern().stashed(),
        );
        assert_eq!(stashed, (1, 0, 0));
    }
}
