//! k-multiplicative accuracy predicates, shared by implementations,
//! tests and the linearizability checker.
//!
//! The relaxed specification (paper §I): a read of an object whose exact
//! value is `v` may return any `x` with `v/k ≤ x ≤ v·k`. All comparisons
//! are done in exact integer arithmetic (`v/k ≤ x ⟺ v ≤ x·k` over the
//! rationals).

/// `true` iff `x` is an admissible k-multiplicative approximation of the
/// exact value `v`: `v/k ≤ x ≤ v·k`.
///
/// For `v = 0` this forces `x = 0` (`x ≤ v·k = 0`); for `x = 0` it forces
/// `v = 0` (`v ≤ x·k = 0`).
pub fn within_k(v: u128, x: u128, k: u64) -> bool {
    let k = u128::from(k);
    // v/k ≤ x  ⟺  v ≤ x·k;  x ≤ v·k.
    v <= x.saturating_mul(k) && x <= v.saturating_mul(k)
}

/// `⌊log_k v⌋` for `v ≥ 1` — the MSB index in base `k`, as used by
/// Algorithm 2's `Write`.
///
/// Every Algorithm 2 write runs this once, when its machine is built, so
/// it is std's `u64::ilog`: one native division `v / k`, then a climb by
/// multiplication against that quotient.
pub fn log_k_floor(v: u64, k: u64) -> u32 {
    assert!(v >= 1, "log of zero");
    assert!(k >= 2);
    v.ilog(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_k_basic() {
        assert!(within_k(10, 10, 2));
        assert!(within_k(10, 5, 2));
        assert!(within_k(10, 20, 2));
        assert!(!within_k(10, 4, 2));
        assert!(!within_k(10, 21, 2));
    }

    #[test]
    fn within_k_zero_rules() {
        assert!(within_k(0, 0, 5));
        assert!(!within_k(0, 1, 5));
        assert!(!within_k(1, 0, 5));
    }

    /// One `u128` division per base-k digit: slow, and plainly right.
    fn log_k_floor_by_division(v: u64, k: u64) -> u32 {
        let (mut x, k) = (u128::from(v), u128::from(k));
        let mut e = 0;
        while x >= k {
            x /= k;
            e += 1;
        }
        e
    }

    #[test]
    fn log_k_floor_values() {
        assert_eq!(log_k_floor(1, 2), 0);
        assert_eq!(log_k_floor(2, 2), 1);
        assert_eq!(log_k_floor(3, 2), 1);
        assert_eq!(log_k_floor(4, 2), 2);
        assert_eq!(log_k_floor(80, 3), 3);
        assert_eq!(log_k_floor(81, 3), 4);
        assert_eq!(log_k_floor(u64::MAX, 2), 63);
        // Both sides of every power k^e that fits a u64, for bases up to
        // u64::MAX, and the top of the domain against the division loop.
        let k32 = 1u64 << 32;
        for k in [2, 3, 10, 255, k32 - 1, k32, k32 + 1, 1 << 63, u64::MAX] {
            let (mut e, mut power) = (1, Some(k));
            while let Some(p) = power {
                assert_eq!(log_k_floor(p, k), e, "k^{e} at k = {k}");
                assert_eq!(log_k_floor(p - 1, k), e - 1, "k^{e} - 1 at k = {k}");
                (e, power) = (e + 1, p.checked_mul(k));
            }
            assert_eq!(
                log_k_floor(u64::MAX, k),
                log_k_floor_by_division(u64::MAX, k),
                "u64::MAX at k = {k}"
            );
        }
    }

    #[test]
    fn within_k_saturates_instead_of_overflowing() {
        assert!(within_k(u128::MAX, u128::MAX / 2, 3));
    }
}
