//! The built-in maintained views.
//!
//! | view | shape | refresh cost per batch |
//! |---|---|---|
//! | [`TriangleCountView`] | scalar | `O(nnz(C*) + batch)` local + 1 allreduce (incremental); `O(nnz(A)/p)` rescan fallback on a general batch without an inverse (over `u64` every batch is incremental) |
//! | [`CommonNeighborsView`] | candidate map | `O(nnz(C*))` mask probes, no communication |
//! | [`DegreeView`] | vector | one SpMV sweep |

pub mod common_neighbors;
pub mod triangles;
pub mod vector;

pub use common_neighbors::CommonNeighborsView;
pub use triangles::TriangleCountView;
pub use vector::DegreeView;
