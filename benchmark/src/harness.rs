//! The measuring loop: fixed-work passes, wall/CPU/allocator readings
//! around each, and the fast-decile estimator the timings are reported
//! from.
//!
//! Interference on a shared box only ever adds time, and it comes in
//! bursts of seconds: the fast end of the pass times repeats far better
//! than their median or even their first quartile (see `README.md` for
//! the numbers). Every pass does the same work from the same state, so
//! counts are the value the passes agree on and cannot depend on how many
//! of them fit into `--seconds`.

use std::time::Instant;

use unidm_bench::alloc_counter;

/// Passes every run measures at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 10;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process, all threads,
/// exited ones included.
///
/// `/proc/self/stat` reports the same quantity in 10 ms ticks, which is
/// 2–3 % of one pass here; the clock behind it has nanosecond resolution,
/// and std already links the C library that exposes it.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // every 64-bit Linux target, matching `Timespec`) through the valid,
    // exclusive pointer it is given and keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID must be readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)` —
/// the one the acceptance driver applies to the reported metrics.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1usize, 2, 3].map(|k| {
        // Position k(n+1)/4 in 1-based ranks; the pair it interpolates
        // between is clamped to the data, the weight is not.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// First decile of `values`, by the same "exclusive" method
/// (`statistics.quantiles(values, n=10)[0]`): between the fastest and the
/// third-fastest of the 10 to 30 passes a run takes.
pub fn first_decile(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "a decile needs at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let j = ((n + 1) / 10).clamp(1, n - 1);
    let delta = (n + 1) as f64 / 10.0 - j as f64;
    // The exclusive method extrapolates below the data when n < 9; a
    // pass cannot be faster than the fastest one seen.
    (sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta).max(sorted[0])
}

/// Allocator readings around one timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocReading {
    /// Allocator calls (alloc, alloc_zeroed, realloc) inside the region.
    pub allocs: u64,
    /// Peak live bytes above the level at the region's start, so fixtures
    /// allocated before it (task lists, replay maps) are excluded.
    pub peak_live_bytes: u64,
}

/// Wall, CPU and allocator readings around `region`.
pub fn observe<O>(region: impl FnOnce() -> O) -> (O, f64, f64, AllocReading) {
    let baseline = alloc_counter::reset_peak_to_live();
    let allocs_before = alloc_counter::allocation_count();
    let cpu_before = process_cpu_s();
    let start = Instant::now();
    let out = region();
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu_before;
    let reading = AllocReading {
        allocs: alloc_counter::allocation_count() - allocs_before,
        peak_live_bytes: alloc_counter::peak_live_bytes().saturating_sub(baseline),
    };
    (out, wall, cpu, reading)
}

/// What the measuring loop saw.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall seconds of every pass, in run order.
    pub walls: Vec<f64>,
    /// Process CPU seconds of every pass, in run order.
    pub cpus: Vec<f64>,
    /// Allocator readings of every pass, in run order.
    pub readings: Vec<AllocReading>,
}

impl Measured {
    /// The wall time timings are reported from: the first decile of the
    /// pass times.
    pub fn fast_wall(&self) -> f64 {
        first_decile(&self.walls)
    }

    /// First decile of the per-pass process CPU seconds.
    pub fn fast_cpu(&self) -> f64 {
        first_decile(&self.cpus)
    }

    /// The allocator readings counts are reported from: the lower median
    /// over the passes, each field on its own. Every pass starts from the
    /// same state and does the same work, so all of them read the same and
    /// the value does not depend on how many passes fit; the median only
    /// drops the odd pass in which a thread the program spawns (the
    /// serving simulator's replay check does, even on one worker) happens
    /// to allocate once more or less.
    pub fn counts(&self) -> AllocReading {
        let lower_median = |field: fn(&AllocReading) -> u64| {
            let mut values: Vec<u64> = self.readings.iter().map(field).collect();
            values.sort_unstable();
            values[(values.len() - 1) / 2]
        };
        AllocReading {
            allocs: lower_median(|r| r.allocs),
            peak_live_bytes: lower_median(|r| r.peak_live_bytes),
        }
    }

    /// Lines for the human-readable report: the estimator's inputs
    /// beside the numbers derived from them.
    pub fn describe(&self) -> Vec<String> {
        let list = |values: &[f64]| {
            values
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let [q1, med, q3] = quartiles(&self.walls);
        let [cq1, cmed, cq3] = quartiles(&self.cpus);
        let counts = self.counts();
        vec![
            format!(
                "passes n={} wall_s p10={:.6} q1={q1:.6} median={med:.6} q3={q3:.6}; \
                 cpu_s p10={:.6} q1={cq1:.6} median={cmed:.6} q3={cq3:.6}",
                self.walls.len(),
                self.fast_wall(),
                self.fast_cpu(),
            ),
            format!("pass wall_s: {}", list(&self.walls)),
            format!("pass cpu_s: {}", list(&self.cpus)),
            format!(
                "allocator: {} of {} passes read exactly {counts:?}",
                self.readings.iter().filter(|r| **r == counts).count(),
                self.readings.len(),
            ),
        ]
    }
}

/// Repeats `pass` until `seconds` of wall clock have elapsed, at least
/// `min_passes` times ([`MIN_PASSES`] for every reported timing; traced
/// runs take a shorter reference). `prepare` builds each pass's fresh starting state
/// and `after` consumes its output (verification, drops); both run outside
/// the timed region.
pub fn measure<I, O>(
    seconds: f64,
    min_passes: usize,
    mut prepare: impl FnMut() -> I,
    mut pass: impl FnMut(I) -> O,
    mut after: impl FnMut(usize, O),
) -> Measured {
    let mut measured = Measured {
        walls: Vec::with_capacity(256),
        cpus: Vec::with_capacity(256),
        readings: Vec::with_capacity(256),
    };
    let started = Instant::now();
    while measured.walls.len() < min_passes.max(2) || started.elapsed().as_secs_f64() < seconds {
        let input = prepare();
        let (out, wall, cpu, reading) = observe(|| pass(input));
        measured.walls.push(wall);
        measured.cpus.push(cpu);
        measured.readings.push(reading);
        after(measured.walls.len() - 1, out);
    }
    measured
}

/// Runs the given kinds of pass round-robin until `seconds` have elapsed,
/// at least `min_rounds` rounds, and returns each kind's fast-decile
/// wall time. Each closure times its own pass (untimed preparation stays
/// outside) and returns the seconds. Alternating the kinds puts a slow
/// phase of the machine on all of them, so their *difference* survives it.
pub fn interleave(
    seconds: f64,
    min_rounds: usize,
    kinds: &mut [&mut dyn FnMut() -> f64],
) -> Vec<f64> {
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds.max(2) || started.elapsed().as_secs_f64() < seconds {
        for (kind, walls) in kinds.iter_mut().zip(&mut walls) {
            walls.push(kind());
        }
        rounds += 1;
    }
    walls.iter().map(|w| first_decile(w)).collect()
}

/// Seconds the fastest of `repeats` calls of `f` took: for probes long
/// enough (a millisecond and up) to be timed one call at a time.
pub fn best_of_s(repeats: usize, mut f: impl FnMut()) -> f64 {
    (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds one `Instant::now()` pair costs, so ns-scale probes can
/// subtract it.
pub fn instant_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Times `calls` invocations of `f` as one batch and returns nanoseconds
/// per call with the timer's own cost calibrated out. The best of
/// `repeats` batches is kept: a probe reports what the layer costs, not
/// what else ran meanwhile.
pub fn probe_ns(repeats: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    assert!(calls >= 1000, "ns-scale probes batch at least 1000 calls");
    let timer = instant_cost_ns();
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        let ns = start.elapsed().as_nanos() as f64;
        best = best.min((ns - timer).max(0.0) / calls as f64);
    }
    best
}

/// FNV-1a over a sequence of byte strings, each terminated so that
/// `["ab", "c"]` and `["a", "bc"]` digest differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one item into the digest.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4) == [20, 40, 60]
        let v: Vec<f64> = (1..=7).map(|x| f64::from(x) * 10.0).collect();
        assert_eq!(quartiles(&v), [20.0, 40.0, 60.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // The middle one is the median: mean of the middle pair.
        assert_eq!(quartiles(&[4.0, 1.0, 2.0, 3.0])[1], 2.5);
    }

    #[test]
    fn fast_end_ignores_slow_outliers_the_median_feels() {
        // Six quiet passes and six disturbed ones: the median is pulled up
        // by the disturbed half, the first quartile stays on the floor.
        let mut walls = vec![1.00; 6];
        walls.extend([1.50, 1.25, 1.75, 1.125, 1.375, 1.625]);
        let m = Measured {
            cpus: walls.clone(),
            walls,
            readings: Vec::new(),
        };
        assert_eq!(m.fast_wall(), 1.00);
        assert_eq!(quartiles(&m.walls)[0], 1.00);
        assert_eq!(quartiles(&m.walls)[1], 1.0625);
        assert!(quartiles(&m.walls)[2] > 1.25);
    }

    #[test]
    fn first_decile_matches_python_and_never_undershoots_the_minimum() {
        // statistics.quantiles(range(1, 21), n=10)[0] == 2.1
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((first_decile(&v) - 2.1).abs() < 1e-12);
        // statistics.quantiles(range(1, 30), n=10)[0] == 3.0
        let v: Vec<f64> = (1..=29).map(f64::from).collect();
        assert_eq!(first_decile(&v), 3.0);
        // Ten passes: Python extrapolates to 1.1 from ranks 1 and 2.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((first_decile(&v) - 1.1).abs() < 1e-12);
        // Five passes would extrapolate below the data; clamped.
        assert_eq!(first_decile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 1.0);
    }

    /// The allocator's counters are process-wide and the other tests of
    /// this binary allocate and free on their own threads meanwhile, which
    /// moves a reading either way: one undisturbed attempt within ten
    /// seconds is enough.
    fn eventually(mut attempt: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if attempt() {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn peak_live_bytes_excludes_fixtures_allocated_before_the_pass() {
        // A 4 MiB fixture is live before the region and stays live: only
        // the region's own 64 KiB may show.
        let fixture = vec![1u8; 4 << 20];
        assert!(eventually(|| {
            let (len, _, _, reading) = observe(|| {
                let scratch = vec![2u8; 64 << 10];
                std::hint::black_box(&scratch).len()
            });
            assert_eq!(len, 64 << 10);
            reading.allocs >= 1 && (64 << 10..1 << 20).contains(&reading.peak_live_bytes)
        }));
        assert!(std::hint::black_box(&fixture).len() == 4 << 20);
    }

    #[test]
    fn measure_runs_at_least_the_minimum_and_reads_every_pass() {
        let mut prepared = 0usize;
        let mut verified = Vec::new();
        let m = measure(
            0.0,
            MIN_PASSES,
            || {
                prepared += 1;
                prepared
            },
            |i| vec![0u8; 1024 * i],
            |index, out| verified.push((index, out.len())),
        );
        assert_eq!(m.walls.len(), MIN_PASSES);
        assert_eq!(m.cpus.len(), MIN_PASSES);
        assert_eq!(m.readings.len(), MIN_PASSES);
        assert_eq!(verified.len(), MIN_PASSES);
        assert_eq!(verified[0], (0, 1024));
        // Each reading covers its own pass and nothing of the ones before.
        assert!(eventually(|| {
            let m = measure(
                0.0,
                3,
                || (),
                |()| std::hint::black_box(vec![0u8; 4096]),
                |_, _| {},
            );
            m.readings
                .iter()
                .all(|r| r.allocs == 1 && r.peak_live_bytes == 4096)
        }));
    }

    #[test]
    fn counts_are_what_the_passes_agree_on() {
        let reading = |allocs, peak_live_bytes| AllocReading {
            allocs,
            peak_live_bytes,
        };
        // Nine passes agree; one saw a spawned thread allocate once more,
        // another peaked lower. Neither moves the reported counts, and
        // neither would a longer run with more agreeing passes.
        let mut readings = vec![reading(326_184, 16_071_309); 9];
        readings.insert(0, reading(326_185, 16_071_309));
        readings.push(reading(326_184, 16_071_000));
        let m = Measured {
            walls: vec![1.0; readings.len()],
            cpus: vec![1.0; readings.len()],
            readings,
        };
        assert_eq!(m.counts(), reading(326_184, 16_071_309));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn digest_separates_item_boundaries() {
        let mut a = Digest::default();
        a.push(b"ab");
        a.push(b"c");
        let mut b = Digest::default();
        b.push(b"a");
        b.push(b"bc");
        assert_ne!(a, b);
    }
}
