//! A delegating [`Scheduler`] that counts and samples the time of every
//! call into the inner scheduler.
//!
//! The simulator constructs its scheduler with `Default` and never hands it
//! back, so the wrapper counts into its own fields and adds them to a
//! thread-local tally when the simulator drops it; one simulation runs on
//! one thread. Read [`tally`] before and after a run and take the
//! difference.

use simnet::{Event, EventKind, Scheduler, SimTime};
use std::cell::Cell;
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th call takes a timing sample; the others are only
/// counted.
/// A pair of clock readings costs about 100 ns on the 2-core x86-64 dev
/// box, several times a scheduler call, so timing every call would more
/// than double the cost of the event loop.
pub const SAMPLE_EVERY: u64 = 64;

/// Cumulative per-thread counts of calls through [`Traced`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedTally {
    /// `schedule` and `schedule_reserved` calls.
    pub schedule_calls: u64,
    /// `pop` and `pop_due` calls.
    pub pop_calls: u64,
    /// `peek_time`, `peek_key` and `reserve_seq` calls.
    pub other_calls: u64,
    /// Calls that were timed.
    pub timed_calls: u64,
    /// Time between the clock readings around the timed calls.
    pub timed_ns: u64,
    /// Samples that timed nothing: two clock readings back to back.
    pub empty_samples: u64,
    /// Time between the readings of the empty samples.
    pub empty_ns: u64,
}

impl SchedTally {
    /// All calls through the wrapper.
    pub fn calls(&self) -> u64 {
        self.schedule_calls + self.pop_calls + self.other_calls
    }

    /// Estimated time inside the scheduler over all calls, in ns: the mean
    /// timed interval less the mean empty one, times the calls. The empty
    /// samples are taken in the same hot loop as the timed ones, so they
    /// cancel the clock's own cost there.
    pub fn self_ns(&self) -> f64 {
        if self.timed_calls == 0 || self.empty_samples == 0 {
            return 0.0;
        }
        let per_call = self.timed_ns as f64 / self.timed_calls as f64
            - self.empty_ns as f64 / self.empty_samples as f64;
        per_call.max(0.0) * self.calls() as f64
    }

    fn add(&mut self, o: &SchedTally) {
        self.schedule_calls += o.schedule_calls;
        self.pop_calls += o.pop_calls;
        self.other_calls += o.other_calls;
        self.timed_calls += o.timed_calls;
        self.timed_ns += o.timed_ns;
        self.empty_samples += o.empty_samples;
        self.empty_ns += o.empty_ns;
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &SchedTally) -> SchedTally {
        SchedTally {
            schedule_calls: self.schedule_calls - earlier.schedule_calls,
            pop_calls: self.pop_calls - earlier.pop_calls,
            other_calls: self.other_calls - earlier.other_calls,
            timed_calls: self.timed_calls - earlier.timed_calls,
            timed_ns: self.timed_ns - earlier.timed_ns,
            empty_samples: self.empty_samples - earlier.empty_samples,
            empty_ns: self.empty_ns - earlier.empty_ns,
        }
    }
}

thread_local! {
    static TALLY: Cell<SchedTally> = const { Cell::new(SchedTally {
        schedule_calls: 0,
        pop_calls: 0,
        other_calls: 0,
        timed_calls: 0,
        timed_ns: 0,
        empty_samples: 0,
        empty_ns: 0,
    }) };
}

/// This thread's cumulative tally.
pub fn tally() -> SchedTally {
    TALLY.with(Cell::get)
}

/// Delegates every [`Scheduler`] method to `S`, counting each call and
/// timing every [`SAMPLE_EVERY`]-th. `NAME` is `S::NAME`, so run manifests
/// are unchanged by the wrapper. The counts go to this thread's tally when
/// the wrapper is dropped, at the end of the simulation that owns it.
#[derive(Debug, Default)]
pub struct Traced<S> {
    inner: S,
    tally: SchedTally,
}

#[derive(Clone, Copy)]
enum Call {
    Schedule,
    Pop,
    Other,
}

impl<S> Traced<S> {
    #[inline]
    fn observe<R>(&mut self, call: Call, f: impl FnOnce(&mut S) -> R) -> R {
        let t = &mut self.tally;
        match call {
            Call::Schedule => t.schedule_calls += 1,
            Call::Pop => t.pop_calls += 1,
            Call::Other => t.other_calls += 1,
        }
        let n = t.calls();
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        // Alternate samples time the call and time nothing.
        if (n / SAMPLE_EVERY) % 2 == 1 {
            let start = Instant::now();
            t.empty_ns += start.elapsed().as_nanos() as u64;
            t.empty_samples += 1;
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        self.tally.timed_calls += 1;
        self.tally.timed_ns += ns;
        out
    }
}

impl<S> Drop for Traced<S> {
    fn drop(&mut self) {
        TALLY.with(|c| {
            let mut sum = c.get();
            sum.add(&self.tally);
            c.set(sum);
        });
    }
}

impl<S: Scheduler> Scheduler for Traced<S> {
    const NAME: &'static str = S::NAME;

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.observe(Call::Schedule, |s| s.schedule(time, kind))
    }

    fn reserve_seq(&mut self) -> u64 {
        self.observe(Call::Other, |s| s.reserve_seq())
    }

    fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.observe(Call::Schedule, |s| s.schedule_reserved(time, seq, kind))
    }

    fn pop(&mut self) -> Option<Event> {
        self.observe(Call::Pop, |s| s.pop())
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        self.observe(Call::Pop, |s| s.pop_due(deadline))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.observe(Call::Other, |s| s.peek_time())
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.observe(Call::Other, |s| s.peek_key())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn scheduled_total(&self) -> u64 {
        self.inner.scheduled_total()
    }
}
