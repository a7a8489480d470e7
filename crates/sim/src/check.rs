//! A small seeded property checker: random cases from [`SimRng`], and a
//! halve-the-size shrink that ends in a one-line replay call.
//!
//! A property is a closure that draws its inputs from a [`Gen`] and
//! asserts with the ordinary `assert!` family. [`check`] runs it on a
//! fixed number of cases, each seeded from one base seed, so a test is
//! the same run every time on every machine. When a case fails, the
//! runner re-runs *the same case seed* at half the size, and again, until
//! a run passes; it then panics naming the smallest failing
//! `(seed, size)` as a call to [`replay`], which runs exactly that case.
//!
//! Size scales only the length of [`Gen::vec`] vectors, and a vector's
//! length draw consumes the same randomness at every size: the first
//! vector a property draws at half size is a prefix of the one it drew
//! at full size. Draw scalars *before* vectors and they keep their
//! values through the shrink.
//!
//! ```
//! use jitgc_sim::check::check;
//!
//! check(0x5EED, 64, |g| {
//!     let divisor = g.u64(1, 10);
//!     let values = g.vec(0, 50, |g| g.u64(0, 1_000));
//!     let sum: u64 = values.iter().map(|v| v / divisor).sum();
//!     assert!(sum <= values.iter().sum());
//! });
//! ```

use crate::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size every case first runs at; [`Gen::vec`] draws its documented
/// length range at this size.
pub const FULL_SIZE: u32 = 1 << 10;

/// The source a property draws its inputs from.
#[derive(Debug)]
pub struct Gen {
    rng: SimRng,
    size: u32,
    /// Whether any draw depended on `size`; a case that never asked
    /// cannot shrink.
    sized: bool,
}

impl Gen {
    fn new(seed: u64, size: u32) -> Self {
        Gen {
            rng: SimRng::seed(seed),
            size,
            sized: false,
        }
    }

    /// Any `u64`.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.range_u64(lo, hi)
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and both are finite.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "empty range [{lo}, {hi})"
        );
        let v = lo + self.rng.unit_f64() * (hi - lo);
        // The product can round up to `hi` itself.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// An index into `weights`, chosen with probability proportional to
    /// its weight; a zero weight is never chosen.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to zero.
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let mut ticket = self.rng.range_u64(0, weights.iter().sum());
        for (index, &weight) in weights.iter().enumerate() {
            if ticket < weight {
                return index;
            }
            ticket -= weight;
        }
        unreachable!("the ticket is below the weights' sum")
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.usize(0, items.len())].clone()
    }

    /// A vector of `item` draws whose length is uniform in
    /// `[min_len, max_len)` at [`FULL_SIZE`] and shrinks toward `min_len`
    /// in proportion to the case's size.
    ///
    /// # Panics
    ///
    /// Panics if `min_len >= max_len`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        self.sized = true;
        let extra = self.usize(min_len, max_len) - min_len;
        let len = min_len + extra * self.size as usize / FULL_SIZE as usize;
        (0..len).map(|_| item(self)).collect()
    }
}

/// Why a case failed, and whether a smaller size could change it.
struct Failure {
    message: String,
    sized: bool,
}

fn run_case(seed: u64, size: u32, property: &impl Fn(&mut Gen)) -> Option<Failure> {
    let mut gen = Gen::new(seed, size);
    let payload = catch_unwind(AssertUnwindSafe(|| property(&mut gen))).err()?;
    let message = match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(text) => (*text).to_string(),
            Err(_) => "(the panic carried no message)".to_string(),
        },
    };
    Some(Failure {
        message,
        sized: gen.sized,
    })
}

/// Runs `property` on `cases` cases seeded from `seed`.
///
/// # Panics
///
/// Panics if a case fails, after shrinking it. The first line of the
/// message is the [`replay`] call that reproduces the smallest failing
/// run; the rest is that run's own panic message.
pub fn check(seed: u64, cases: u32, property: impl Fn(&mut Gen)) {
    let mut seeds = SimRng::seed(seed);
    for case in 0..cases {
        let case_seed = seeds.next_u64();
        let Some(mut failure) = run_case(case_seed, FULL_SIZE, &property) else {
            continue;
        };
        let mut size = FULL_SIZE;
        while failure.sized && size > 0 {
            match run_case(case_seed, size / 2, &property) {
                Some(smaller) => {
                    failure = smaller;
                    size /= 2;
                }
                None => break,
            }
        }
        panic!(
            "case {case} of {cases} failed; jitgc_sim::check::replay({case_seed:#x}, {size}, property)\n{}",
            failure.message
        );
    }
}

/// Runs `property` once on the case [`check`] named in a failure.
pub fn replay(seed: u64, size: u32, property: impl Fn(&mut Gen)) {
    property(&mut Gen::new(seed, size));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// What `check` panics with for a failing property.
    fn failure_of(seed: u64, cases: u32, property: impl Fn(&mut Gen)) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| check(seed, cases, property)))
            .expect_err("the property is false");
        *payload
            .downcast::<String>()
            .expect("check formats its panic")
    }

    #[test]
    fn same_base_seed_gives_the_same_case_sequence() {
        let cases_of = |seed| {
            let seen = RefCell::new(Vec::new());
            check(seed, 32, |g| {
                let scalar = g.u64(0, 1_000);
                let items = g.vec(0, 20, |g| g.f64(-1.0, 1.0).to_bits());
                seen.borrow_mut().push((scalar, items));
            });
            seen.into_inner()
        };
        assert_eq!(cases_of(7), cases_of(7));
        assert_ne!(cases_of(7), cases_of(8));
    }

    #[test]
    fn a_passing_property_runs_exactly_its_case_count() {
        for cases in [0, 1, 48, 256] {
            let runs = Cell::new(0);
            check(11, cases, |g| {
                let _ = g.vec(0, 10, |g| g.any_u64());
                runs.set(runs.get() + 1);
            });
            assert_eq!(runs.get(), cases);
        }
    }

    #[test]
    fn a_false_property_shrinks_and_its_replay_line_reproduces_it() {
        // False for every vector of ten or more items, so ten is the
        // minimal failing length.
        let lengths = RefCell::new(Vec::new());
        let property = |g: &mut Gen| {
            let items = g.vec(0, 400, |g| g.u64(0, 100));
            lengths.borrow_mut().push(items.len());
            assert!(items.len() < 10, "{} items", items.len());
        };
        let message = failure_of(3, 64, property);
        let shrunk = *lengths
            .borrow()
            .iter()
            .rev()
            .find(|&&len| len >= 10)
            .expect("a run failed");
        assert!(shrunk <= 20, "shrunk only to {shrunk} items");

        // The first line is the replay call; the rest is the smallest
        // run's own message.
        let (first, rest) = message.split_once('\n').expect("two parts");
        assert_eq!(rest, format!("{shrunk} items"));
        let args = first
            .split_once("jitgc_sim::check::replay(0x")
            .and_then(|(_, tail)| tail.strip_suffix(", property)"))
            .expect("a replay call");
        let (seed, size) = args.split_once(", ").expect("two arguments");
        let seed = u64::from_str_radix(seed, 16).expect("a hex seed");
        let size: u32 = size.parse().expect("a size");
        assert!(size < FULL_SIZE, "the case did not shrink");
        let replayed = catch_unwind(AssertUnwindSafe(|| replay(seed, size, property)))
            .expect_err("the replay fails too");
        assert_eq!(
            *replayed.downcast::<String>().expect("assert! formats"),
            format!("{shrunk} items")
        );
    }

    #[test]
    fn a_failure_that_drew_no_vector_is_reported_at_full_size() {
        let runs = Cell::new(0);
        let message = failure_of(5, 8, |g| {
            runs.set(runs.get() + 1);
            assert!(g.u64(0, 4) > 4, "never");
        });
        assert_eq!(runs.get(), 1, "nothing to shrink, so no second run");
        assert!(message.contains(&format!(", {FULL_SIZE}, property)\nnever")));
    }

    #[test]
    fn ranges_include_their_low_end_and_exclude_their_high_end() {
        let mut g = Gen::new(13, FULL_SIZE);
        let mut ints = [0u32; 6];
        let mut lens = [0u32; 5];
        let mut picks = [0u32; 3];
        for _ in 0..2_000 {
            ints[g.u64(3, 6) as usize] += 1;
            ints[g.usize(3, 6)] += 1;
            lens[g.vec(2, 5, |_| ()).len()] += 1;
            picks[g.weighted(&[1, 0, 3])] += 1;
            let f = g.f64(0.25, 0.5);
            assert!((0.25..0.5).contains(&f), "float {f}");
            assert_eq!(g.pick(&[9]), 9);
        }
        assert!(
            ints[3] > 0 && ints[5] > 0 && ints[..3] == [0; 3],
            "{ints:?}"
        );
        assert!(
            lens[2] > 0 && lens[4] > 0 && lens[..2] == [0; 2],
            "{lens:?}"
        );
        assert!(picks[1] == 0 && picks[0] * 2 < picks[2], "{picks:?}");
        // A one-value range is that value, a float range can sit on one
        // representable step, and size zero is every vector's minimum.
        assert_eq!(g.u64(u64::MAX - 1, u64::MAX), u64::MAX - 1);
        assert_eq!(g.f64(1.0, 1.0 + f64::EPSILON), 1.0);
        assert_eq!(Gen::new(13, 0).vec(2, 500, |_| ()).len(), 2);
    }
}
