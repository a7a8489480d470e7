//! The host-speed probe: timed end-to-end metrics are stated at a fixed
//! host speed, not at whatever speed the shared host ran at that minute.
//!
//! The baseline host is a 2-vCPU guest whose cores are shared with other
//! guests: the same repetition takes 1.0 – 1.7x as long from one stretch
//! of seconds or minutes to the next, and no length of run averages that
//! away. What does track it (correlation 0.94 over 15 s windows, measured
//! while this was written) is a dependent-load chase over a ring the size
//! of the core's L2, run on the same thread a few milliseconds at a time
//! between slices of the work: the neighbours slow both through the same
//! caches. So the probe takes such a sample every [`PERIOD`], every
//! stretch of work is divided by the slowdown of the two samples around
//! it, and the probe's own time is left out of every stretch. Medians
//! over 15 s windows then spread 2 – 4 % (quartile distance over median)
//! where the clock's own readings spread 4 – 17 % (README).
//!
//! The engine owns the loops the end-to-end runs time (`run()`,
//! `run_closed_loop`), so the samples are taken from the one callback the
//! harness hands every engine: its GC policy, wrapped by [`paced`]. The
//! wrapper forwards every call; the first repetition of a run goes
//! without it and every later one must reproduce its reports byte for
//! byte.

use jitgc_core::policy::{GcPolicy, IntervalObservation, PolicyDecision};
use jitgc_sim::{ByteSize, SimDuration};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The ring: 4 MiB of `u32` links, the size of one core's L2 on the
/// baseline host — at the edge where a neighbour's cache use shows first.
/// 256 KiB, 1 MiB, 16 MiB and 64 MiB rings and an ALU spin were tried
/// beside it; their slowdowns correlated 0.65 – 0.90 with the workloads'
/// and left two to five times the spread.
const RING_LINKS: usize = 1 << 20;
/// Links followed per sample, from where the last sample stopped, so
/// most are out of L2 again: about 9 ms at nominal speed. A third as many
/// left twice the spread.
const STEPS: u32 = 120_000;
/// Work between two samples. The probe adds about a fifth to a run.
const PERIOD: Duration = Duration::from_millis(50);
/// What a link costs on the baseline host when its neighbours are quiet:
/// the fastest repetitions of four hundred averaged 73 – 78 ns, the
/// median one 97 ns. Only a scale: it makes a slowdown of 1.0 mean "quiet
/// baseline host", and a constant changes no comparison of two commits.
const NOMINAL_NS_PER_LINK: f64 = 75.0;
/// The wrapper reads the clock every so many policy callbacks, and
/// doubles or halves that stride to keep two reads this far apart:
/// `diurnal_idle` makes 1.3 million callbacks a second, `service_tenants`
/// two hundred.
const CLOCK_READS_APART: std::ops::Range<Duration> =
    Duration::from_millis(1)..Duration::from_millis(4);
const STRIDE_MAX: u32 = 4_096;

/// A stretch of host time two ways: its wall time without the probe's
/// samples, and the same in seconds at nominal host speed. The two agree
/// on a thread that does not probe.
#[derive(Default, Clone, Copy)]
pub struct HostTime {
    pub wall: Duration,
    pub nominal_s: f64,
}

impl From<Duration> for HostTime {
    /// Time taken while nothing probed.
    fn from(wall: Duration) -> Self {
        HostTime {
            wall,
            nominal_s: wall.as_secs_f64(),
        }
    }
}

impl std::ops::AddAssign for HostTime {
    fn add_assign(&mut self, other: HostTime) {
        self.wall += other.wall;
        self.nominal_s += other.nominal_s;
    }
}

struct Sample {
    start: Instant,
    end: Instant,
    /// Time per link over [`NOMINAL_NS_PER_LINK`].
    slowdown: f64,
}

struct Probe {
    ring: Vec<u32>,
    at: u32,
    samples: Vec<Sample>,
}

thread_local! {
    /// The probe of the thread that runs the repetitions; `None` in the
    /// traced run and before the first (reference) repetition is over.
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

impl Probe {
    fn new() -> Self {
        // Sattolo's shuffle: one cycle through every link, in an order no
        // prefetcher follows.
        let mut ring: Vec<u32> = (0..RING_LINKS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in (1..RING_LINKS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        Probe {
            ring,
            at: 0,
            samples: Vec::new(),
        }
    }

    fn sample(&mut self) {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.ring[at as usize];
        }
        self.at = black_box(at);
        let end = Instant::now();
        let ns_per_link = (end - start).as_nanos() as f64 / f64::from(STEPS);
        self.samples.push(Sample {
            start,
            end,
            slowdown: ns_per_link / NOMINAL_NS_PER_LINK,
        });
    }
}

/// Starts probing on this thread and takes the first sample.
pub fn start() {
    let mut probe = Probe::new();
    // Once around untimed, so the first sample does not pay the page
    // faults of a fresh allocation.
    for _ in 0..RING_LINKS / STEPS as usize + 1 {
        probe.sample();
    }
    probe.samples.clear();
    probe.sample();
    PROBE.with_borrow_mut(|p| *p = Some(probe));
}

/// Takes a sample now, if this thread probes.
pub fn sample() {
    PROBE.with_borrow_mut(|p| {
        if let Some(probe) = p {
            probe.sample();
        }
    });
}

/// Takes a sample if [`PERIOD`] has passed since the last one.
pub fn poll() {
    PROBE.with_borrow_mut(|p| {
        if let Some(probe) = p {
            if probe
                .samples
                .last()
                .is_some_and(|s| s.end.elapsed() >= PERIOD)
            {
                probe.sample();
            }
        }
    });
}

/// The work in `[from, to]`: each stretch between two samples divided by
/// the mean of their slowdowns. Call [`sample`] first when `to` is now, so
/// that the last stretch has its second sample.
pub fn between(from: Instant, to: Instant) -> HostTime {
    PROBE.with_borrow(|p| {
        let Some(probe) = p else {
            return (to - from).into();
        };
        let overlap = |a: Instant, b: Instant| b.min(to).saturating_duration_since(a.max(from));
        let samples = &probe.samples;
        let (first, last) = (&samples[0], &samples[samples.len() - 1]);
        let mut wall = overlap(from, first.start) + overlap(last.end, to);
        let mut nominal_s = overlap(from, first.start).as_secs_f64() / first.slowdown
            + overlap(last.end, to).as_secs_f64() / last.slowdown;
        for pair in samples.windows(2) {
            let stretch = overlap(pair[0].end, pair[1].start);
            wall += stretch;
            nominal_s += stretch.as_secs_f64() * 2.0 / (pair[0].slowdown + pair[1].slowdown);
        }
        HostTime { wall, nominal_s }
    })
}

/// Samples taken on this thread so far.
pub fn samples_taken() -> usize {
    PROBE.with_borrow(|p| p.as_ref().map_or(0, |probe| probe.samples.len()))
}

/// The work since `from`, closed with a sample.
pub fn since(from: Instant) -> HostTime {
    let to = Instant::now();
    sample();
    between(from, to)
}

/// `policy` itself on a thread that does not probe; otherwise `policy`
/// behind a wrapper that forwards every call and [`poll`]s from
/// `on_interval`, the callback every engine makes once per tick.
pub fn paced(policy: Box<dyn GcPolicy>) -> Box<dyn GcPolicy> {
    if PROBE.with_borrow(Option::is_none) {
        return policy;
    }
    Box::new(Paced {
        policy,
        stride: 1,
        countdown: 0,
        read_at: Instant::now(),
    })
}

struct Paced {
    policy: Box<dyn GcPolicy>,
    /// Callbacks per clock read, and how many are left until the next.
    stride: u32,
    countdown: u32,
    read_at: Instant,
}

impl GcPolicy for Paced {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn uses_sip(&self) -> bool {
        self.policy.uses_sip()
    }

    fn on_interval(&mut self, obs: &IntervalObservation<'_>) -> PolicyDecision {
        if self.countdown == 0 {
            let apart = self.read_at.elapsed();
            if apart < CLOCK_READS_APART.start {
                self.stride = (self.stride * 2).min(STRIDE_MAX);
            } else if apart >= CLOCK_READS_APART.end {
                self.stride = (self.stride / 2).max(1);
            }
            self.countdown = self.stride;
            poll();
            self.read_at = Instant::now();
        }
        self.countdown -= 1;
        self.policy.on_interval(obs)
    }

    fn zero_traffic_fixed_point(&self) -> bool {
        self.policy.zero_traffic_fixed_point()
    }

    fn observe_write(&mut self, bytes: ByteSize, took: SimDuration) {
        self.policy.observe_write(bytes, took);
    }

    fn observe_gc(&mut self, bytes: ByteSize, took: SimDuration) {
        self.policy.observe_gc(bytes, took);
    }
}
