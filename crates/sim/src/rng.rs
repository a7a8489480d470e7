//! Seeded randomness and the Zipf sampler used by workload generators.

use std::fmt;
use std::sync::{Arc, Mutex};

/// A deterministic random number generator for simulation runs.
///
/// Implements xoshiro256** (Blackman & Vigna) seeded from a `u64` via the
/// SplitMix64 expander, so the whole simulator is dependency-free; two
/// `SimRng`s built from the same seed produce identical streams, which is
/// what makes every experiment in this repository exactly reproducible.
///
/// # Example
///
/// ```
/// use jitgc_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.range_u64(0, 1000), b.range_u64(0, 1000));
/// ```
#[derive(Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// The SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        let mut z = seed;
        let state = [
            splitmix64(&mut z),
            splitmix64(&mut z),
            splitmix64(&mut z),
            splitmix64(&mut z),
        ];
        SimRng { state, seed }
    }

    /// Derives an independent child generator; useful to give each workload
    /// stream its own stable stream regardless of how many samples siblings
    /// draw.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the parent's seed with the stream id using the SplitMix64
        // finalizer so that nearby stream ids do not yield correlated seeds.
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed(z)
    }

    /// The next raw 64-bit output of the generator.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        if span.is_power_of_two() {
            return lo + (self.next_u64() & (span - 1));
        }
        // Rejection sampling over the largest multiple of `span` to avoid
        // modulo bias.
        let zone = u64::MAX - (u64::MAX % span) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// A geometric-ish burst length with mean `mean` (at least 1). Used by
    /// workload generators to shape bursty arrivals.
    pub fn burst_len(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        // Inverse-transform sampling of a geometric distribution with
        // success probability 1/mean.
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        let p = 1.0 / mean;
        let len = (u.ln() / (1.0 - p).ln()).ceil();
        (len as u64).max(1)
    }

    /// An exponentially distributed duration in microseconds with the given
    /// mean, truncated to at least 1 µs. Used for inter-arrival gaps.
    pub fn exp_micros(&mut self, mean_micros: f64) -> u64 {
        if mean_micros <= 0.0 {
            return 1;
        }
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        ((-u.ln()) * mean_micros).max(1.0) as u64
    }
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

/// A Zipf-distributed sampler over `0..n`, rank 0 being the hottest item.
///
/// Workloads like YCSB and TPC-C exhibit skewed access: a small set of hot
/// logical pages receives most updates. That skew is what creates
/// soon-to-be-invalidated pages, the phenomenon JIT-GC's SIP filtering
/// exploits, so the sampler's fidelity matters for reproducing Table 3.
///
/// Sampling is inversion of the normalized harmonic CDF, precomputed in
/// `O(n)`: a draw takes one 53-bit uniform `u = bits · 2⁻⁵³` and returns
/// the first rank whose CDF is `≥ u`. Exponent `s = 0` degenerates to
/// uniform.
///
/// A guide table (Chen & Asau's cutpoints) makes a draw `O(1)` expected
/// instead of a binary search over the whole CDF. For `m`, the largest
/// power of two `≤ max(1, n/2)`, `guide[j]` is the first rank whose CDF
/// is `≥ j/m`, for `j` in `0..=m`. A draw's bucket is `j = ⌊u·m⌋`, the top
/// `log₂ m` of its 53 bits; its rank lies in `guide[j]..=guide[j + 1]`
/// (every CDF value before `guide[j]` is below `j/m ≤ u`, the one at
/// `guide[j + 1]` is at least `(j + 1)/m > u`), so an empty bucket is the
/// answer and any other is searched over its own few entries.
///
/// The table keeps no `f64` per rank. Rank `k`'s CDF is stored as the low
/// 16 bits of `Q_k = ⌊cdf_k · 2^(log₂m + 16)⌋`; its high bits are `k`'s
/// bucket, which the guide already fixes. A draw's key is the next 16 of
/// its bits, `R = ⌊u · 2^(log₂m + 16)⌋`, and because scaling by a power of
/// two is exact, `Q_k < R` means `cdf_k < u` and `Q_k > R` means
/// `cdf_k > u`. Only a tie `Q_k = R` needs the CDF itself, which a cold
/// path re-sums bit for bit from a checkpoint of the running sum kept
/// every 64 ranks. The rank is the full table's for every one of the 2⁵³
/// inputs, at about 3.5 bytes per item (2 for the key, at most 2 for the
/// guide, 1/8 for the checkpoints) where the CDF alone took 8.
///
/// The table costs two `powf` per item, and every sweep cell, tenant and
/// benchmark repetition asks for the same few `(n, s)`, so samplers share
/// their tables through a small process-wide cache (see [`Zipf::new`]).
/// A shared table is immutable: sample streams do not depend on whether
/// the table was built or found.
///
/// # Example
///
/// ```
/// use jitgc_sim::{SimRng, Zipf};
///
/// let zipf = Zipf::new(1_000, 0.99);
/// let mut rng = SimRng::seed(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    table: Arc<ZipfTable>,
}

/// The CDF of one `(n, s)` as 16-bit keys inside the buckets of its guide
/// table.
#[derive(Debug)]
struct ZipfTable {
    /// `keys[k]` is the low [`KEY_BITS`] bits of `Q_k = ⌊cdf_k ·
    /// 2^(log₂m + 16)⌋`, where `cdf_k` = P(rank ≤ k); the bits above them
    /// are `k`'s bucket.
    keys: Box<[u16]>,
    /// `m + 1` cutpoints: `guide[j]` is the first rank whose CDF is
    /// `≥ j/m`.
    guide: Box<[u32]>,
    /// `checkpoints[c]` is the running sum of the first `64·c` terms
    /// `1/kˢ`, unnormalized, as the build added them.
    checkpoints: Box<[f64]>,
    /// The sum of all `n` terms: `cdf_k` is the running sum through `k`
    /// divided by it.
    total: f64,
    /// The skew exponent.
    s: f64,
    /// `53 − log₂ m`: a draw's 53 bits shifted right by this are its
    /// bucket `⌊u·m⌋`.
    shift: u32,
}

/// The bits of a rank's CDF kept below its bucket.
const KEY_BITS: u32 = 16;

/// Ranks between two checkpoints of the running sum: the most terms the
/// tie path adds to recover one CDF value.
const CHECKPOINT_EVERY: usize = 64;

/// Tables kept for sharing, most recently used last. Four covers the
/// skews one process mixes (TPC-C 0.9, YCSB 0.99, a synthetic tenant or
/// two) while bounding what the cache can pin to four tables.
const TABLE_CACHE_ENTRIES: usize = 4;

/// One cached table and its key: the domain size and the bits of the
/// exponent.
type CachedTable = (usize, u64, Arc<ZipfTable>);

static TABLE_CACHE: Mutex<Vec<CachedTable>> = Mutex::new(Vec::new());

impl Zipf {
    /// Builds a sampler over `0..n` with skew exponent `s`, reusing the
    /// table of an earlier sampler with the same `n` and `s` if the cache
    /// still holds it. A miss builds the table under the cache lock, so
    /// threads that ask for the same table at once build it once.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `n > u32::MAX` (the guide table holds
    /// 32-bit ranks), or if `s` is negative or not finite.
    #[must_use]
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(
            n <= u64::from(u32::MAX),
            "zipf domain of {n} items exceeds u32::MAX"
        );
        assert!(
            s.is_finite() && s >= 0.0,
            "zipf exponent must be finite and non-negative, got {s}"
        );
        let n = usize::try_from(n).expect("zipf domain fits in usize");
        let mut cache = TABLE_CACHE
            .lock()
            .expect("zipf table cache poisoned: a table build panicked");
        let table = match cache
            .iter()
            .position(|&(cn, cs, _)| cn == n && cs == s.to_bits())
        {
            Some(hit) => {
                let entry = cache.remove(hit);
                let table = Arc::clone(&entry.2);
                cache.push(entry);
                table
            }
            None => {
                let table = Arc::new(ZipfTable::new(n, s));
                if cache.len() == TABLE_CACHE_ENTRIES {
                    cache.remove(0);
                }
                cache.push((n, s.to_bits(), Arc::clone(&table)));
                table
            }
        };
        Zipf { table }
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular. Takes one
    /// [`SimRng::next_u64`], as [`SimRng::unit_f64`] does.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        self.table.rank_of(rng.next_u64() >> 11)
    }
}

/// Rank `rank`'s term of the harmonic sum, `1/(rank + 1)ˢ`. The build and
/// the tie path both add these, so a re-summed CDF value is the built one.
fn term(rank: usize, s: f64) -> f64 {
    1.0 / ((rank + 1) as f64).powf(s)
}

/// The first index in `lo..hi` at which `below` turns false, given that it
/// is true up to some index and false from there on; `hi` if it never
/// does. Asks `below` at most `⌈log₂(hi − lo + 1)⌉` times.
fn bisect(mut lo: usize, mut hi: usize, mut below: impl FnMut(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl ZipfTable {
    /// The normalized harmonic CDF over `1..=n` as keys, its guide and the
    /// checkpoints of its running sum. Two passes over the terms: the
    /// first finds the total, the second normalizes each running sum on
    /// the fly, so no per-item `f64` is ever allocated.
    fn new(n: usize, s: f64) -> Self {
        let mut checkpoints = Vec::with_capacity(n.div_ceil(CHECKPOINT_EVERY));
        let mut acc = 0.0;
        for rank in 0..n {
            if rank % CHECKPOINT_EVERY == 0 {
                checkpoints.push(acc);
            }
            acc += term(rank, s);
        }
        let total = acc;

        let log_m = (n / 2).max(1).ilog2();
        let m = 1usize << log_m;
        let scale = (1u64 << (log_m + KEY_BITS)) as f64;
        let mut keys = Vec::with_capacity(n);
        let mut guide = Vec::with_capacity(m + 1);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += term(rank, s);
            let q = (acc / total * scale) as u64;
            keys.push(q as u16);
            // `q`'s bucket `⌊cdf·m⌋` is `≥ j` exactly when the CDF is
            // `≥ j/m`: this rank is the cutpoint of every bucket up to it
            // not yet cut. The last CDF is exactly 1, bucket `m`.
            while guide.len() <= (q >> KEY_BITS) as usize {
                guide.push(rank as u32);
            }
        }
        debug_assert_eq!(guide.len(), m + 1);
        ZipfTable {
            keys: keys.into_boxed_slice(),
            guide: guide.into_boxed_slice(),
            checkpoints: checkpoints.into_boxed_slice(),
            total,
            s,
            shift: 53 - log_m,
        }
    }

    /// The rank of the uniform `bits · 2⁻⁵³`, `bits < 2⁵³`: the first
    /// index whose CDF is `≥ u`, searched on keys inside its bucket only.
    /// With no key equal to the draw's, the search's insertion point is
    /// the first key above it and the answer; an equal key is a tie.
    /// `guide[j + 1]` is at most `n − 1` (the last CDF is exactly 1), so
    /// the rank is always in the domain.
    fn rank_of(&self, bits: u64) -> u64 {
        let j = (bits >> self.shift) as usize;
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        if lo == hi {
            return lo as u64;
        }
        let key = (bits >> (self.shift - KEY_BITS)) as u16;
        match self.keys[lo..hi].binary_search(&key) {
            Err(first) => (lo + first) as u64,
            Ok(_) => self.tie_rank(lo, hi, bits),
        }
    }

    /// The rank of `bits` when keys of `lo..hi` equal its own: the first
    /// rank of that run of equal keys whose exact CDF is `≥ u`, or the
    /// rank after the run. The run is bisected on exact values, so a long
    /// run of equal keys (a heavy tail's small terms) costs `O(log run)`
    /// re-sums of at most [`CHECKPOINT_EVERY`] terms each.
    #[cold]
    #[inline(never)]
    fn tie_rank(&self, lo: usize, hi: usize, bits: u64) -> u64 {
        let u = bits as f64 * (1.0 / (1u64 << 53) as f64);
        let key = (bits >> (self.shift - KEY_BITS)) as u16;
        let keys = &self.keys[lo..hi];
        let first = lo + keys.partition_point(|&q| q < key);
        let end = lo + keys.partition_point(|&q| q <= key);
        bisect(first, end, |rank| self.cdf(rank) < u) as u64
    }

    /// `cdf_k` bit for bit as the build computed it: the checkpoint at or
    /// before `rank`, plus the terms from there through `rank` in the
    /// build's order, over the total.
    fn cdf(&self, rank: usize) -> f64 {
        let c = rank / CHECKPOINT_EVERY;
        let mut acc = self.checkpoints[c];
        for r in c * CHECKPOINT_EVERY..=rank {
            acc += term(r, self.s);
        }
        acc / self.total
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(123);
        let mut b = SimRng::seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seed(9);
        let mut parent2 = SimRng::seed(9);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = parent1.fork(4);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SimRng::seed(5);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_empty() {
        let mut rng = SimRng::seed(5);
        let _ = rng.range_u64(7, 7);
    }

    #[test]
    fn range_covers_full_span() {
        let mut rng = SimRng::seed(13);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.range_u64(0, 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "coverage {seen:?}");
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = SimRng::seed(19);
        for _ in 0..10_000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u), "sample {u}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities clamp rather than panic.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn burst_len_mean_is_close() {
        let mut rng = SimRng::seed(17);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.burst_len(8.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.5, "observed mean {mean}");
        assert_eq!(rng.burst_len(0.5), 1);
    }

    #[test]
    fn exp_micros_mean_is_close() {
        let mut rng = SimRng::seed(23);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exp_micros(1_000.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1_000.0).abs() < 50.0, "observed mean {mean}");
        assert_eq!(rng.exp_micros(0.0), 1);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = SimRng::seed(31);
        let mut counts = [0u64; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn zipf_skew_prefers_low_ranks() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = SimRng::seed(37);
        let mut head = 0u64;
        let n = 50_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s=1 over 1000 items, ranks 0..10 carry ~39% of mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.30, "head fraction {frac}");
    }

    #[test]
    fn zipf_sample_in_domain() {
        let zipf = Zipf::new(17, 0.8);
        let mut rng = SimRng::seed(41);
        for _ in 0..5_000 {
            assert!(zipf.sample(&mut rng) < 17);
        }
        assert_eq!(zipf.table.keys.len(), 17);
    }

    /// The full `f64` CDF of `(n, s)`, summed as the table's build sums
    /// it and as the sampler kept it before the keys: `cdf[k]` = P(rank ≤
    /// k), the last entry exactly 1.
    fn full_cdf(n: usize, s: f64) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        cdf
    }

    /// The reference draw: the first index of the whole CDF that is
    /// `≥ u`, clamped to the last rank.
    fn full_table_rank(cdf: &[f64], bits: u64) -> u64 {
        let u = bits as f64 * (1.0 / (1u64 << 53) as f64);
        let idx = cdf.partition_point(|&c| c < u);
        idx.min(cdf.len() - 1) as u64
    }

    /// Whether `bits`'s key ties with a key of its bucket, so that
    /// [`ZipfTable::rank_of`] takes the exact path.
    fn ties(table: &ZipfTable, bits: u64) -> bool {
        let j = (bits >> table.shift) as usize;
        let (lo, hi) = (table.guide[j] as usize, table.guide[j + 1] as usize);
        let key = (bits >> (table.shift - KEY_BITS)) as u16;
        table.keys[lo..hi].contains(&key)
    }

    /// 64 cases, 1.96 M inputs, 10 929 of them ties; 0.3 s in the
    /// workspace's test profile. The largest domains (up to 2²⁰ + 1
    /// items, 2¹⁹ buckets) cost the most: two table builds and a million
    /// edge draws each.
    #[test]
    fn guide_table_ranks_equal_the_full_table_search() {
        crate::check::check(0x6A1D_E7AB, 64, |g| {
            let n = match g.u64(0, 3) {
                0 => g.pick(&[1, 2, 3]),
                1 => (1u64 << g.u64(1, 21)) + g.pick(&[0, 1]) - g.pick(&[0, 1]),
                _ => (2f64.powf(g.f64(0.0, 20.0)) as u64).max(1),
            };
            let s = match g.usize(0, 7) {
                6 => g.f64(0.0, 2.0),
                k => [0.0, 0.5, 0.9, 0.99, 1.0, 1.5][k],
            };
            let table = ZipfTable::new(n as usize, s);
            let cdf = full_cdf(n as usize, s);
            let m = table.guide.len() as u64 - 1;
            assert!(m.is_power_of_two() && m <= (n / 2).max(1) && 2 * m > n / 2);
            assert_eq!(1u64 << (53 - table.shift), m, "n {n}");
            assert_eq!(table.keys.len() as u64, n);
            assert_eq!(table.checkpoints.len() as u64, n.div_ceil(64));
            // Both sides of every bucket edge, both ends of the unit
            // interval, then random draws.
            let mut inputs = vec![0, (1 << 53) - 1];
            for j in 1..m {
                inputs.extend([(j << table.shift) - 1, j << table.shift]);
            }
            inputs.extend((0..4_096).map(|_| g.any_u64() >> 11));
            // The smallest input whose `u` reaches `cdf[k]`, and its two
            // neighbours, for 64 ranks spread over the domain: these share
            // `cdf[k]`'s key, so the exact path decides them.
            for i in 0..64 {
                let k = (n - 1) * i / 63;
                let edge = (cdf[k as usize] * (1u64 << 53) as f64).ceil() as u64;
                inputs.extend(
                    [edge.wrapping_sub(1), edge, edge + 1]
                        .into_iter()
                        .filter(|&b| b < 1 << 53),
                );
            }
            for (i, &bits) in inputs.iter().enumerate() {
                assert_eq!(
                    table.rank_of(bits),
                    full_table_rank(&cdf, bits),
                    "n {n}, s {s}, input {i}: bits {bits:#x}"
                );
            }
        });
    }

    /// The exact path re-sums exactly the CDF the full table holds, and
    /// the `⌈cdf_k · 2⁵³⌉` inputs do reach it.
    #[test]
    fn tie_path_re_sums_the_built_cdf() {
        for (n, s) in [
            (1, 0.99),
            (64, 0.9),
            (65, 2.0),
            (10_007, 0.99),
            (379_454, 0.9),
        ] {
            let table = ZipfTable::new(n, s);
            let cdf = full_cdf(n, s);
            let mut tied = 0;
            for k in (0..n).step_by(n / 97 + 1).chain([n - 1]) {
                assert_eq!(
                    table.cdf(k).to_bits(),
                    cdf[k].to_bits(),
                    "n {n}, s {s}, rank {k}"
                );
                let edge = (cdf[k] * (1u64 << 53) as f64).ceil() as u64;
                if edge < 1 << 53 && ties(&table, edge) {
                    tied += 1;
                    let reference = full_table_rank(&cdf, edge);
                    assert_eq!(table.rank_of(edge), reference, "n {n}, s {s}, rank {k}");
                }
            }
            assert!(
                n == 1 || tied > 0,
                "n {n}, s {s}: no input took the exact path"
            );
        }
    }

    /// A heavy tail puts long runs of equal keys in one bucket: at s = 2
    /// and 2²⁰ + 1 items, ranks past ~2¹⁸ each add less than one key step.
    /// A tie in such a run is bisected on exact values, `⌈log₂(run + 1)⌉`
    /// re-sums, not one per rank of the run.
    #[test]
    fn tie_walk_bisects_a_long_run_of_equal_keys() {
        let (n, s) = ((1 << 20) + 1, 2.0);
        let table = ZipfTable::new(n, s);
        let cdf = full_cdf(n, s);
        // The longest run of equal keys inside one bucket.
        let (mut run, mut best) = (0..0, 0..0);
        for j in 0..table.guide.len() - 1 {
            let (lo, hi) = (table.guide[j] as usize, table.guide[j + 1] as usize);
            for k in lo..hi {
                if k > run.start && k == run.end && table.keys[k] == table.keys[run.start] {
                    run.end = k + 1;
                } else {
                    run = k..k + 1;
                }
                if run.len() > best.len() {
                    best = run.clone();
                }
            }
            run = 0..0;
        }
        assert!(best.len() >= 32, "longest run {best:?}");
        let bound = (best.len() + 1).next_power_of_two().ilog2();
        let mut tied = 0;
        for k in best.clone() {
            let edge = (cdf[k] * (1u64 << 53) as f64).ceil() as u64;
            let rank = table.rank_of(edge);
            assert_eq!(rank, full_table_rank(&cdf, edge), "rank {k}");
            if (edge >> (table.shift - KEY_BITS)) as u16 != table.keys[best.start] {
                continue;
            }
            // The run's tie: the exact path bisects the run alone.
            tied += 1;
            let u = edge as f64 * (1.0 / (1u64 << 53) as f64);
            let mut resums = 0;
            let bisected = bisect(best.start, best.end, |r| {
                resums += 1;
                table.cdf(r) < u
            });
            assert_eq!(bisected as u64, rank, "rank {k}");
            assert!(
                resums <= bound,
                "{resums} re-sums for a run of {}",
                best.len()
            );
        }
        assert!(2 * tied > best.len(), "{tied} of {} inputs tie", best.len());
    }

    /// The fig7 16× cells' working set: `user_pages − op_pages/2` of the
    /// 393 216-user-page device at 7 % over-provisioning.
    const FIG7_16X_WORKING_SET: u64 = 393_216 - 393_216 * 70 / 1_000 / 2;

    #[test]
    fn fig7_request_streams_are_pinned() {
        let _cache = CACHE_TESTS.lock().unwrap();
        // FNV-1a over the first 100 000 ranks at seed 42. The constants
        // were recorded with the full-table binary search, before the
        // guide table: every YCSB (0.99) and TPC-C (0.9) request stream
        // of the fig7 cells is the one it drew.
        let digest = |s: f64| {
            let zipf = Zipf::new(FIG7_16X_WORKING_SET, s);
            let mut rng = SimRng::seed(42);
            (0..100_000).fold(0xCBF2_9CE4_8422_2325_u64, |h, _| {
                (h ^ zipf.sample(&mut rng)).wrapping_mul(0x0100_0000_01B3)
            })
        };
        assert_eq!(FIG7_16X_WORKING_SET, 379_454);
        assert_eq!(digest(0.99), 0xBC18_ECC2_C086_46D9);
        assert_eq!(digest(0.9), 0xE9E0_D225_08AC_7995);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn zipf_rejects_a_domain_beyond_u32() {
        let _ = Zipf::new(u64::from(u32::MAX) + 1, 1.0);
    }

    /// Serializes the tests that count on what the process-wide table
    /// cache holds, the pin, which adds two keys, and `run_grid`'s
    /// concurrent builders, which add twelve; the other tests here add
    /// three keys between them, too few to evict anything.
    pub(crate) static CACHE_TESTS: Mutex<()> = Mutex::new(());

    /// A sampler over a table built for it alone.
    fn fresh(n: usize, s: f64) -> Zipf {
        Zipf {
            table: Arc::new(ZipfTable::new(n, s)),
        }
    }

    fn ranks(zipf: &Zipf, seed: u64, draws: usize) -> Vec<u64> {
        let mut rng = SimRng::seed(seed);
        (0..draws).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn zipf_shared_table_samples_like_a_fresh_one() {
        let _cache = CACHE_TESTS.lock().unwrap();
        let first = Zipf::new(24_576, 0.99);
        let second = Zipf::new(24_576, 0.99);
        assert!(
            Arc::ptr_eq(&first.table, &second.table),
            "second build missed"
        );
        let reference = ranks(&fresh(24_576, 0.99), 43, 100_000);
        assert_eq!(ranks(&first, 43, 100_000), reference);
        assert_eq!(ranks(&second.clone(), 43, 100_000), reference);
        // The key is (n, bits of s): neighbours do not alias.
        assert!(!Arc::ptr_eq(&first.table, &Zipf::new(24_576, 0.9).table));
        assert!(!Arc::ptr_eq(&first.table, &Zipf::new(24_575, 0.99).table));
    }

    #[test]
    fn zipf_cache_is_bounded_and_eviction_keeps_tables_correct() {
        let _cache = CACHE_TESTS.lock().unwrap();
        let held = Zipf::new(301, 0.7);
        // Push the held table out and keep going: every sampler, built or
        // found, matches a fresh table, and the cache never outgrows its
        // bound.
        for _round in 0..3 {
            for n in 302..302 + 2 * TABLE_CACHE_ENTRIES {
                let zipf = Zipf::new(n as u64, 0.7);
                assert_eq!(ranks(&zipf, 47, 500), ranks(&fresh(n, 0.7), 47, 500));
                assert!(TABLE_CACHE.lock().unwrap().len() <= TABLE_CACHE_ENTRIES);
            }
        }
        // An evicted table lives on in its samplers and is rebuilt equal.
        let rebuilt = Zipf::new(301, 0.7);
        assert!(!Arc::ptr_eq(&held.table, &rebuilt.table), "301 was evicted");
        assert_eq!(held.table.keys, rebuilt.table.keys);
        assert_eq!(held.table.guide, rebuilt.table.guide);
        assert_eq!(held.table.checkpoints, rebuilt.table.checkpoints);
        assert_eq!(held.table.total.to_bits(), rebuilt.table.total.to_bits());
        assert_eq!(held.table.shift, rebuilt.table.shift);
        assert_eq!(ranks(&held, 53, 500), ranks(&rebuilt, 53, 500));
    }

    #[test]
    fn zipf_concurrent_builders_share_one_table() {
        let _cache = CACHE_TESTS.lock().unwrap();
        const THREADS: usize = 8;
        let barrier = std::sync::Barrier::new(THREADS);
        let built: Vec<Zipf> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        Zipf::new(4_099, 0.95)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let reference = ranks(&fresh(4_099, 0.95), 59, 2_000);
        for zipf in &built {
            assert!(
                Arc::ptr_eq(&zipf.table, &built[0].table),
                "table built twice"
            );
            assert_eq!(ranks(zipf, 59, 2_000), reference);
        }
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn zipf_rejects_empty_domain() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn zipf_rejects_negative_exponent() {
        let _ = Zipf::new(10, -0.5);
    }
}
