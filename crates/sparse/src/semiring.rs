//! Semirings: the algebra SpGEMM is generic over.
//!
//! The paper considers matrices "over arbitrary semirings" (Section III):
//! `(+, ·)` for numeric products, `(∧, ∨)` over Booleans, `(min, +)` for
//! shortest paths. A semiring fixes the addition (`add`), multiplication
//! (`mul`) and the additive neutral element (`zero`); structural zeros of a
//! sparse matrix are implicitly `zero`.
//!
//! Semirings are zero-sized type-level markers: operations are associated
//! functions, so kernels monomorphize with no per-element indirection.

use dspgemm_util::{WireDecode, WireSize};

/// A semiring over element type [`Semiring::Elem`].
///
/// Laws (checked by property tests, not by the compiler):
/// * `add` is associative and commutative with neutral element `zero()`;
/// * `mul` is associative;
/// * `mul` distributes over `add`;
/// * `zero()` annihilates: `mul(zero, x) = mul(x, zero) = zero`.
///
/// The *algebraic update* fast path of dynamic SpGEMM (Algorithm 1) is sound
/// whenever updates can be expressed as `A' = A + A*` under this `add`; the
/// *general update* path (Algorithm 2) needs no such property. A semiring
/// that names an exact additive inverse ([`Semiring::NEG`]) is a ring, where
/// every update has that form.
pub trait Semiring: Copy + Clone + Send + Sync + std::fmt::Debug + 'static {
    /// The scalar type.
    type Elem: Copy
        + Clone
        + Send
        + Sync
        + PartialEq
        + std::fmt::Debug
        + WireSize
        + WireDecode
        + 'static;

    /// Additive neutral element (the implicit value of structural zeros).
    fn zero() -> Self::Elem;

    /// Semiring addition.
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Semiring multiplication.
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// The exact additive inverse, `add(x, neg(x)) = zero()` for every `x`,
    /// if the semiring has one. With it a deletion is the update `−old` and a
    /// re-weight `new − old`, so a filter-tracked engine runs both through
    /// Algorithm 1 and keeps a path count per entry of `C` (DESIGN.md,
    /// "Rings count paths"). Only an inverse under which `(x + d) − d = x`
    /// holds bit for bit qualifies.
    const NEG: Option<fn(Self::Elem) -> Self::Elem> = None;

    /// Whether `e` equals the additive neutral element. Entries that become
    /// numerically zero are *kept* as structural non-zeros (the paper keeps
    /// the structural/numerical distinction); this predicate exists for
    /// diagnostics and tests only.
    #[inline]
    fn is_zero(e: Self::Elem) -> bool {
        e == Self::zero()
    }

    /// Human-readable name for reports.
    fn name() -> &'static str;
}

/// The ordinary arithmetic semiring `(+, ·)` over `f64` — the case evaluated
/// in the paper's Fig. 9.
///
/// It names no [`Semiring::NEG`]: in floating point `(x + d) − d ≠ x` in
/// general, so a deletion applied as `−old` would leave `C` drifting from
/// the bits a static recompute produces. Its deletions run Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F64Plus;

impl Semiring for F64Plus {
    type Elem = f64;

    #[inline]
    fn zero() -> f64 {
        0.0
    }

    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }

    fn name() -> &'static str {
        "(+,*) over f64"
    }
}

/// The arithmetic semiring `(+, ·)` over `u64` (exact; used by counting
/// applications such as triangle counting, and by tests that need equality
/// without float tolerance). Its addition wraps, so it is the ring ℤ/2⁶⁴,
/// and `wrapping_neg` is its exact [`Semiring::NEG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U64Plus;

impl Semiring for U64Plus {
    type Elem = u64;

    #[inline]
    fn zero() -> u64 {
        0
    }

    #[inline]
    fn add(a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }

    #[inline]
    fn mul(a: u64, b: u64) -> u64 {
        a.wrapping_mul(b)
    }

    const NEG: Option<fn(u64) -> u64> = Some(u64::wrapping_neg);

    fn name() -> &'static str {
        "(+,*) over u64"
    }
}

/// The tropical semiring `(min, +)` over `f64`, with `+∞` as zero.
///
/// Used for multi-source shortest paths. `min` cannot *increase* values, so
/// edge-weight increases and deletions are **general** updates — the case
/// evaluated in the paper's Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type Elem = f64;

    #[inline]
    fn zero() -> f64 {
        f64::INFINITY
    }

    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }

    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }

    fn name() -> &'static str {
        "(min,+) over f64"
    }
}

/// The Boolean semiring `(∨, ∧)`: reachability / structural products.
/// Setting entries to `false` is a general update (`∨` cannot unset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoolOrAnd;

impl Semiring for BoolOrAnd {
    type Elem = bool;

    #[inline]
    fn zero() -> bool {
        false
    }

    #[inline]
    fn add(a: bool, b: bool) -> bool {
        a | b
    }

    #[inline]
    fn mul(a: bool, b: bool) -> bool {
        a & b
    }

    fn name() -> &'static str {
        "(or,and) over bool"
    }
}

/// The bottleneck semiring `(max, min)` over `f64`, with `-∞` as zero:
/// widest-path / bottleneck-capacity problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F64MaxMin;

impl Semiring for F64MaxMin {
    type Elem = f64;

    #[inline]
    fn zero() -> f64 {
        f64::NEG_INFINITY
    }

    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }

    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn name() -> &'static str {
        "(max,min) over f64"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_laws<S: Semiring>(samples: &[S::Elem]) {
        let z = S::zero();
        for &a in samples {
            // Additive identity and annihilation.
            assert_eq!(S::add(a, z), a, "{}: a+0=a", S::name());
            assert_eq!(S::add(z, a), a);
            assert_eq!(S::mul(a, z), z, "{}: a*0=0", S::name());
            assert_eq!(S::mul(z, a), z);
            for &b in samples {
                assert_eq!(S::add(a, b), S::add(b, a), "{}: add commutes", S::name());
                for &c in samples {
                    assert_eq!(
                        S::add(S::add(a, b), c),
                        S::add(a, S::add(b, c)),
                        "{}: add assoc",
                        S::name()
                    );
                    assert_eq!(
                        S::mul(S::mul(a, b), c),
                        S::mul(a, S::mul(b, c)),
                        "{}: mul assoc",
                        S::name()
                    );
                    assert_eq!(
                        S::mul(a, S::add(b, c)),
                        S::add(S::mul(a, b), S::mul(a, c)),
                        "{}: left distrib",
                        S::name()
                    );
                    assert_eq!(
                        S::mul(S::add(a, b), c),
                        S::add(S::mul(a, c), S::mul(b, c)),
                        "{}: right distrib",
                        S::name()
                    );
                }
            }
        }
    }

    #[test]
    fn u64_plus_laws() {
        check_laws::<U64Plus>(&[0, 1, 2, 7, 1_000_003]);
    }

    #[test]
    fn f64_plus_laws_on_integers() {
        // Use integer-valued floats so distributivity is exact.
        check_laws::<F64Plus>(&[0.0, 1.0, 2.0, -3.0, 64.0]);
    }

    #[test]
    fn min_plus_laws() {
        check_laws::<MinPlus>(&[f64::INFINITY, 0.0, 1.5, 2.0, 10.0]);
    }

    #[test]
    fn bool_laws() {
        check_laws::<BoolOrAnd>(&[false, true]);
    }

    #[test]
    fn max_min_laws() {
        check_laws::<F64MaxMin>(&[f64::NEG_INFINITY, -1.0, 0.0, 3.5, 9.0]);
    }

    /// Only the exact ring names an inverse, and it is one.
    #[test]
    fn neg_is_an_exact_inverse() {
        let neg = U64Plus::NEG.expect("u64 is a ring");
        for x in [0, 1, 7, u64::MAX, 1 << 63] {
            assert_eq!(U64Plus::add(x, neg(x)), 0);
            assert_eq!(U64Plus::add(U64Plus::add(5, x), neg(x)), 5);
        }
        assert!(F64Plus::NEG.is_none() && MinPlus::NEG.is_none());
        assert!(BoolOrAnd::NEG.is_none() && F64MaxMin::NEG.is_none());
    }

    #[test]
    fn zero_predicates() {
        assert!(F64Plus::is_zero(0.0));
        assert!(!F64Plus::is_zero(1.0));
        assert!(MinPlus::is_zero(f64::INFINITY));
        assert!(!MinPlus::is_zero(0.0));
        assert!(BoolOrAnd::is_zero(false));
    }
}
