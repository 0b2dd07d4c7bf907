//! Shared plumbing for the experiment binaries.
//!
//! `exp_paper` regenerates and asserts the paper's claims, one table per
//! claim; the other binaries in `src/bin/` measure the infrastructure
//! (see `EXPERIMENTS.md` for the index). Every `exp_*` bin but
//! `exp_paper` takes no arguments and runs one grid, the grid its
//! committed `BENCH_*.json` was written from, so a fresh run diffs
//! against every committed row.
//! This library provides the ASCII table printer, the flat-JSON emitter
//! and regression differ for the committed `BENCH_*.json` files, and
//! small helpers.
//!
//! The experiments that take an operation count honour the
//! `REPRO_SCALE` environment variable (default 1): larger values
//! multiply it for tighter measurements at the cost of runtime.

pub mod emit;
pub mod regression;
pub mod tables;

/// The operation-count multiplier from `REPRO_SCALE` (default 1, min 1).
pub fn scale() -> u64 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Exit 2 with a usage line if the process got any argument: each
/// experiment bin that takes none runs its one grid.
pub fn no_arguments(bin: &str) {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("{bin}: unexpected argument {arg:?}\nusage: {bin}  (no arguments)");
        std::process::exit(2);
    }
}

/// `(s₁ + … + sₙ)! / (s₁! · … · sₙ!)` — the number of interleavings of
/// `n` sequences with fixed lengths. The closed form `exp_explore` and
/// the explorer acceptance tests assert exhaustive enumeration against.
pub fn multinomial(counts: &[u64]) -> u128 {
    let mut result: u128 = 1;
    let mut placed: u128 = 0;
    for &c in counts {
        for i in 1..=u128::from(c) {
            placed += 1;
            result = result * placed / i; // binomial prefix: always divides
        }
    }
    result
}

/// `⌈√n⌉` — the accuracy threshold of Theorem III.9.
pub fn ceil_sqrt(n: u64) -> u64 {
    let mut k = (n as f64).sqrt() as u64;
    while k * k < n {
        k += 1;
    }
    while k > 1 && (k - 1) * (k - 1) >= n {
        k -= 1;
    }
    k
}

/// `log₂ x` as a float, 0 for x ≤ 1 (plot-friendly).
pub fn log2f(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_sqrt_values() {
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(9), 3);
        assert_eq!(ceil_sqrt(10), 4);
        assert_eq!(ceil_sqrt(64), 8);
        assert_eq!(ceil_sqrt(65), 9);
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn multinomial_values() {
        assert_eq!(multinomial(&[]), 1);
        assert_eq!(multinomial(&[0, 3]), 1);
        assert_eq!(multinomial(&[1, 1, 1]), 6);
        assert_eq!(multinomial(&[2, 2]), 6);
        assert_eq!(multinomial(&[4, 4, 4]), 34650);
        assert_eq!(multinomial(&[2, 2, 3]), 210);
    }
}
