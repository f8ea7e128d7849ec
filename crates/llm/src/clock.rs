//! Time sources for the backend substrate.
//!
//! Everything in the resilient client layer that involves time — token
//! refill, retry backoff, breaker cooldowns, injected latency — goes
//! through the [`Clock`] trait instead of `std::time`, so the whole stack
//! can run on a [`VirtualClock`]: a logical microsecond counter where
//! "sleeping" simply advances the counter. That is what makes
//! fault-injection tests deterministic and instantaneous — a simulated
//! 30-second rate-limit stall costs nothing in wall time — while
//! [`SystemClock`] provides real-time semantics for live endpoints.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond time source with a blocking sleep.
///
/// Implementations must be `Send + Sync`: one clock is shared by every
/// worker of a batch, the rate limiter, the retry loop and the fault
/// injector.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Microseconds since the clock's origin.
    fn now_micros(&self) -> u64;

    /// Blocks (or, for virtual clocks, advances time) for `micros`
    /// microseconds.
    fn sleep_micros(&self, micros: u64);
}

/// A deterministic logical clock: an atomic microsecond counter that
/// [`Clock::sleep_micros`] advances instantly.
///
/// Sleeping threads never block — they move shared time forward — so a
/// simulated fault schedule full of multi-second stalls replays in
/// microseconds of wall time. Under concurrency the counter is advanced
/// atomically; interleavings may reorder *when* each sleep lands, but every
/// sleep is fully accounted for, so total elapsed virtual time is the sum
/// of all sleeps regardless of scheduling.
///
/// # Examples
///
/// ```
/// use unidm_llm::{Clock, VirtualClock};
///
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now_micros(), 0);
/// clock.sleep_micros(1_500_000); // "sleep" 1.5s — returns immediately
/// assert_eq!(clock.now_micros(), 1_500_000);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at virtual time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Total virtual time elapsed since construction, in microseconds.
    pub fn elapsed_micros(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }

    /// Advances the clock to `deadline_us` if it is ahead of the current
    /// time; a deadline in the past leaves the clock untouched (the clock
    /// is monotone).
    ///
    /// This is the event-driven counterpart of [`Clock::sleep_micros`]:
    /// where sleeps *add* (concurrent sleeps sum, so total elapsed time is
    /// total latency), `advance_to_micros` *jumps* to the next pending
    /// deadline of a [`TimerWheel`], so overlapped requests overlap in
    /// virtual time and elapsed time measures the makespan instead.
    pub fn advance_to_micros(&self, deadline_us: u64) {
        self.now_us.fetch_max(deadline_us, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_micros(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }

    fn sleep_micros(&self, micros: u64) {
        self.now_us.fetch_add(micros, Ordering::SeqCst);
    }
}

/// Wall-clock time: [`Clock::now_micros`] measures from construction and
/// [`Clock::sleep_micros`] really blocks the calling thread.
///
/// This is the clock a live hosted-endpoint deployment would run the
/// backend on; tests and the offline simulation use [`VirtualClock`].
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a clock whose origin is now.
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn sleep_micros(&self, micros: u64) {
        std::thread::sleep(std::time::Duration::from_micros(micros));
    }
}

/// A pending-deadline queue for event-driven schedulers: the data
/// structure behind `unidm::dispatch`'s reactor.
///
/// Each timer carries a payload — what its firing means to the scheduler —
/// and is identified by the `u64` sequence number [`TimerWheel::schedule`]
/// returns. The wheel pops timers in `(deadline, sequence)` order — ties on
/// the deadline break by scheduling order — so a reactor that schedules
/// deterministically pops deterministically. A cancelled timer hands its
/// payload back at once, its heap entry is dropped lazily on pop, and it
/// **never** surfaces, which is what lets a hedged-request loser be
/// cancelled without its (stale) deadline dragging the virtual clock
/// forward.
///
/// # Examples
///
/// ```
/// use unidm_llm::TimerWheel;
///
/// let mut wheel = TimerWheel::new();
/// let early = wheel.schedule(100, "hedge");
/// let late = wheel.schedule(250, "complete");
/// assert_eq!(wheel.cancel(early), Some("hedge"));
/// assert_eq!(wheel.pop_next(), Some((250, late, "complete")));
/// assert!(wheel.pop_next().is_none());
/// ```
#[derive(Debug)]
pub struct TimerWheel<T> {
    // Min-heap via Reverse ordering on (deadline, seq).
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// The payload of every live timer by sequence number; a heap entry
    /// whose number is absent was cancelled.
    pending: HashMap<u64, T>,
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
            pending: HashMap::new(),
            next_seq: 0,
        }
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Schedules a timer carrying `payload` at `deadline_us`, returning its
    /// sequence number.
    pub fn schedule(&mut self, deadline_us: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse((deadline_us, seq)));
        self.pending.insert(seq, payload);
        seq
    }

    /// Cancels a pending timer and returns its payload. Cancelling an
    /// already-popped, already-cancelled or unknown sequence number is a
    /// no-op returning `None`; the wheel never yields a cancelled timer.
    pub fn cancel(&mut self, seq: u64) -> Option<T> {
        self.pending.remove(&seq)
    }

    /// Pops the earliest live timer as `(deadline_us, seq, payload)`,
    /// skipping (and forgetting) cancelled entries.
    pub fn pop_next(&mut self) -> Option<(u64, u64, T)> {
        while let Some(std::cmp::Reverse((deadline, seq))) = self.heap.pop() {
            if let Some(payload) = self.pending.remove(&seq) {
                return Some((deadline, seq, payload));
            }
        }
        None
    }

    /// The deadline of the earliest live timer, without popping it.
    pub fn next_deadline(&mut self) -> Option<u64> {
        while let Some(std::cmp::Reverse((deadline, seq))) = self.heap.peek().copied() {
            if self.pending.contains_key(&seq) {
                return Some(deadline);
            }
            self.heap.pop();
        }
        None
    }

    /// Live (scheduled and not yet popped or cancelled) timer count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no live timer is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_only_by_sleeping() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_micros(), 0);
        clock.sleep_micros(250);
        clock.sleep_micros(750);
        assert_eq!(clock.now_micros(), 1_000);
        assert_eq!(clock.elapsed_micros(), 1_000);
    }

    #[test]
    fn virtual_clock_accounts_concurrent_sleeps_exactly() {
        let clock = VirtualClock::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let clock = &clock;
                scope.spawn(move || {
                    for _ in 0..100 {
                        clock.sleep_micros(3);
                    }
                });
            }
        });
        assert_eq!(clock.elapsed_micros(), 8 * 100 * 3);
    }

    #[test]
    fn virtual_clock_advance_to_is_monotone() {
        let clock = VirtualClock::new();
        clock.advance_to_micros(500);
        assert_eq!(clock.now_micros(), 500);
        clock.advance_to_micros(200); // in the past: no-op
        assert_eq!(clock.now_micros(), 500);
        clock.sleep_micros(100); // sleeps still add on top
        assert_eq!(clock.now_micros(), 600);
    }

    #[test]
    fn timer_wheel_pops_in_deadline_then_schedule_order() {
        let mut wheel = TimerWheel::new();
        let a = wheel.schedule(300, 'a');
        let b = wheel.schedule(100, 'b');
        let c = wheel.schedule(100, 'c'); // same deadline as b: b pops first
        assert_eq!(wheel.len(), 3);
        assert_eq!(wheel.pop_next(), Some((100, b, 'b')));
        assert_eq!(wheel.pop_next(), Some((100, c, 'c')));
        assert_eq!(wheel.pop_next(), Some((300, a, 'a')));
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop_next(), None);
    }

    #[test]
    fn timer_wheel_cancellation_never_surfaces() {
        let mut wheel = TimerWheel::new();
        let a = wheel.schedule(100, 'a');
        let b = wheel.schedule(200, 'b');
        let c = wheel.schedule(300, 'c');
        assert_eq!(wheel.cancel(b), Some('b'), "cancel returns the payload");
        assert_eq!(wheel.cancel(b), None, "double-cancel is a no-op");
        assert_eq!(wheel.cancel(999), None, "unknown seq is a no-op");
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.next_deadline(), Some(100));
        assert_eq!(wheel.pop_next(), Some((100, a, 'a')));
        // Cancelling a timer that already popped is a no-op too: it must
        // not be counted against the timers still live.
        assert_eq!(wheel.cancel(a), None);
        assert_eq!(wheel.len(), 1);
        assert!(!wheel.is_empty());
        // b's deadline never shows up as the next pending event.
        assert_eq!(wheel.next_deadline(), Some(300));
        assert_eq!(wheel.pop_next(), Some((300, c, 'c')));
        assert!(wheel.is_empty());
    }

    #[test]
    fn system_clock_is_monotone() {
        let clock = SystemClock::new();
        let a = clock.now_micros();
        clock.sleep_micros(1_000);
        let b = clock.now_micros();
        assert!(b >= a + 1_000, "slept {a} -> {b}");
    }

    #[test]
    fn clocks_are_object_safe_send_sync() {
        fn assert_clock<C: Clock + Send + Sync + ?Sized>() {}
        assert_clock::<dyn Clock>();
        assert_clock::<VirtualClock>();
        assert_clock::<SystemClock>();
    }
}
