//! The persistent worker pool behind [`crate::runner::par_map`].
//!
//! PR 2 made a single simulation ~1.5× faster, which promoted the sweep
//! layer itself to the bottleneck: the old `par_map` spawned (and joined) a
//! fresh set of OS threads on *every* call, and a fleet study makes hundreds
//! of calls. [`SweepPool`] spawns the workers once per process; between jobs
//! they park on a condvar, so an idle pool costs nothing and a sweep phase
//! pays thread-startup exactly once.
//!
//! Work distribution is index-range stealing rather than a shared counter:
//! a job's `0..n` item range is split into one contiguous *lane* per
//! participant, each with an atomic cursor, and participants claim fixed
//! chunks from their own lane first (cache-friendly, contention-free in the
//! common case) then steal from the fullest remaining lane. Results still
//! land at their item's index, so output order — and every downstream
//! aggregate — is independent of thread scheduling.
//!
//! The submitter of every job computes in it: `par_map` runs chunks until
//! none is claimable, and `par_reduce` alternates one chunk
//! ([`JobHandle::run_chunk`]) with folding the results that have arrived.
//! A job is therefore submitted with `threads - 1` worker tickets, and the
//! global pool has one worker fewer than [`crate::runner::default_threads`].
//! Because [`JobHandle::finish`] also runs whatever is still claimable, a
//! job can always be completed by its submitter alone: progress never
//! waits for a free pool worker, which makes nested submissions
//! deadlock-free.
//!
//! # Safety model
//!
//! Jobs erase their item/closure types behind a raw context pointer and an
//! `unsafe fn` trampoline, because the pool is process-global and `'static`
//! while callers borrow stack-local data. This is sound for the same reason
//! `std::thread::scope` is: the submitting call blocks until the job's
//! `remaining` count hits zero, and workers only dereference the context
//! between claiming an index and decrementing `remaining` for it. After the
//! final decrement (observed under the `done` mutex), no worker touches the
//! context again, so it never outlives the submitting stack frame. Code the
//! submitter runs between submitting and `finish()` (a reducer's fold) must
//! not unwind past the handle: the runner catches such a panic,
//! [cancels](JobHandle::cancel) the job, finishes it, and only then
//! re-raises.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-wide work-distribution counters, accumulated over every job the
/// global pool has run. Readers take a [`PoolStats::snapshot`] before a
/// sweep and [`PoolStats::delta`] after, so one sweep's share can be
/// attributed in its manifest even though the pool is shared.
static JOBS: AtomicU64 = AtomicU64::new(0);
static ITEMS: AtomicU64 = AtomicU64::new(0);
static LOCAL_CLAIMS: AtomicU64 = AtomicU64::new(0);
static STEAL_CLAIMS: AtomicU64 = AtomicU64::new(0);
static PARTICIPANTS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool's cumulative work-distribution counters.
///
/// `local_claims` counts chunks a participant claimed from its own lane
/// (the cache-friendly, contention-free path); `steal_claims` counts
/// chunks taken from another participant's lane. `participants` counts
/// lane occupancies: every worker admission plus the submitter, per job —
/// together they describe how evenly a sweep's work spread across lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted to the pool.
    pub jobs: u64,
    /// Items across all jobs.
    pub items: u64,
    /// Chunks claimed from the claimant's own lane.
    pub local_claims: u64,
    /// Chunks stolen from another lane.
    pub steal_claims: u64,
    /// Participants admitted across all jobs (workers + submitters).
    pub participants: u64,
}

impl PoolStats {
    /// Current cumulative counters.
    pub fn snapshot() -> PoolStats {
        PoolStats {
            jobs: JOBS.load(Ordering::Relaxed),
            items: ITEMS.load(Ordering::Relaxed),
            local_claims: LOCAL_CLAIMS.load(Ordering::Relaxed),
            steal_claims: STEAL_CLAIMS.load(Ordering::Relaxed),
            participants: PARTICIPANTS.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated since `earlier` (a prior snapshot).
    pub fn delta(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            jobs: self.jobs - earlier.jobs,
            items: self.items - earlier.items,
            local_claims: self.local_claims - earlier.local_claims,
            steal_claims: self.steal_claims - earlier.steal_claims,
            participants: self.participants - earlier.participants,
        }
    }

    /// Fraction of claims that were steals, in `[0, 1]`.
    pub fn steal_fraction(&self) -> f64 {
        let claims = self.local_claims + self.steal_claims;
        if claims == 0 {
            0.0
        } else {
            self.steal_claims as f64 / claims as f64
        }
    }

    /// Fixed-order JSON object for run manifests.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        o.u64("jobs", self.jobs)
            .u64("items", self.items)
            .u64("local_claims", self.local_claims)
            .u64("steal_claims", self.steal_claims)
            .f64("steal_fraction", self.steal_fraction())
            .u64("participants", self.participants);
        o.finish();
        out
    }
}

/// Type-erased per-item entry point: `(ctx, item_index)`.
///
/// # Safety
/// `ctx` must point to the submitter's live context struct for the matching
/// job, and each index must be passed at most once per job.
pub(crate) type Trampoline = unsafe fn(*const (), usize);

/// One contiguous index range with a claim cursor. The cursor can overshoot
/// `end` (lost `fetch_add` races); readers clamp.
struct Lane {
    cursor: AtomicUsize,
    end: usize,
}

impl Lane {
    fn remaining(&self) -> usize {
        self.end
            .saturating_sub(self.cursor.load(Ordering::Relaxed).min(self.end))
    }
}

/// One submitted job: the erased work function plus claiming, panic, and
/// completion state.
struct Job {
    run: Trampoline,
    ctx: *const (),
    lanes: Box<[Lane]>,
    chunk: usize,
    /// Worker admission tickets; hitting zero caps participation at the
    /// caller's `threads` argument even though the pool is larger.
    tickets: AtomicUsize,
    /// Items not yet finished (run or skipped). The last decrement fires the
    /// `done` latch.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// The context pointer is only dereferenced while the submitter provably
// blocks in `wait()` (see the module-level safety model), and the closure /
// item types it erases are constrained `Send + Sync` by `par_map`'s bounds.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// True while some index is still unclaimed (drained jobs are dropped
    /// from the pool queue).
    fn has_claimable(&self) -> bool {
        self.lanes.iter().any(|l| l.remaining() > 0)
    }

    /// Takes one admission ticket; the returned value doubles as the
    /// participant's ordinal for lane assignment.
    fn take_ticket(&self) -> Option<usize> {
        let mut t = self.tickets.load(Ordering::Relaxed);
        loop {
            if t == 0 {
                return None;
            }
            match self
                .tickets
                .compare_exchange_weak(t, t - 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    PARTICIPANTS.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
                Err(cur) => t = cur,
            }
        }
    }

    /// Claims the next chunk from lane `li`, if any remains.
    fn claim_from(&self, li: usize) -> Option<(usize, usize)> {
        let lane = &self.lanes[li];
        if lane.cursor.load(Ordering::Relaxed) >= lane.end {
            return None;
        }
        let a = lane.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        (a < lane.end).then(|| (a, (a + self.chunk).min(lane.end)))
    }

    /// Claims a chunk from the preferred lane, else steals from the lane
    /// with the most remaining work, rescanning on races until all dry.
    fn claim(&self, preferred: usize) -> Option<(usize, usize)> {
        if let Some(c) = self.claim_from(preferred) {
            LOCAL_CLAIMS.fetch_add(1, Ordering::Relaxed);
            return Some(c);
        }
        loop {
            let victim = (0..self.lanes.len())
                .filter(|&i| i != preferred)
                .max_by_key(|&i| self.lanes[i].remaining())
                .filter(|&i| self.lanes[i].remaining() > 0)?;
            if let Some(c) = self.claim_from(victim) {
                STEAL_CLAIMS.fetch_add(1, Ordering::Relaxed);
                return Some(c);
            }
        }
    }

    /// Claims one chunk (lane `preferred` first, else stolen) and runs it;
    /// false once nothing is claimable. Each claimed index is decremented
    /// from `remaining` exactly once, whether it ran, panicked, or was
    /// skipped because an earlier item panicked.
    fn run_chunk(&self, preferred: usize) -> bool {
        let Some((a, b)) = self.claim(preferred) else {
            return false;
        };
        for i in a..b {
            if !self.panicked.load(Ordering::Relaxed) {
                // The closure runs outside every lock, so our mutexes
                // cannot be poisoned by a panicking item.
                if let Err(p) =
                    catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.ctx, i) }))
                {
                    let mut first = self.panic_payload.lock().expect("panic slot");
                    if first.is_none() {
                        *first = Some(p);
                    }
                    drop(first);
                    self.panicked.store(true, Ordering::Release);
                }
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().expect("done latch") = true;
                self.done_cv.notify_all();
            }
        }
        true
    }

    /// Runs claimed chunks until the job drains.
    fn participate(&self, ordinal: usize) {
        let preferred = ordinal % self.lanes.len();
        while self.run_chunk(preferred) {}
    }

    fn is_done(&self) -> bool {
        *self.done.lock().expect("done latch")
    }

    fn wait(&self) {
        let mut d = self.done.lock().expect("done latch");
        while !*d {
            d = self.done_cv.wait(d).expect("done latch");
        }
    }
}

/// A live submission. Dropping the handle without calling [`Self::finish`]
/// would be unsound (the job may still reference the submitter's stack), so
/// the runner's wrappers always drive it to completion.
pub(crate) struct JobHandle {
    job: Arc<Job>,
}

// The submitter works as ordinal 0: tickets count down from `workers`, so
// lane 0 is the one no worker prefers first.
impl JobHandle {
    /// The submitter runs one chunk of its own job; false once nothing is
    /// claimable. Lets a caller interleave computing with consuming
    /// results.
    pub(crate) fn run_chunk(&self) -> bool {
        self.job.run_chunk(0)
    }

    /// Makes every item not yet claimed a skip, as after a panicking item.
    pub(crate) fn cancel(&self) {
        self.job.panicked.store(true, Ordering::Release);
    }

    /// True once every item has been run or skipped.
    pub(crate) fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// Runs whatever is still claimable on the caller, blocks until the job
    /// completes, detaches it from the pool queue, and returns the first
    /// panic payload, if any item panicked.
    pub(crate) fn finish(self) -> Option<Box<dyn Any + Send>> {
        self.job.participate(0);
        self.job.wait();
        SweepPool::global().retire(&self.job);
        self.job.panic_payload.lock().expect("panic slot").take()
    }
}

/// The process-wide persistent pool.
pub struct SweepPool {
    inner: Arc<PoolInner>,
    workers: usize,
}

struct PoolInner {
    queue: Mutex<VecDeque<Arc<Job>>>,
    cv: Condvar,
}

impl SweepPool {
    /// The global pool, spawned on first use with one worker fewer than
    /// [`crate::runner::default_threads`] (at least one): every submitter
    /// computes in its own job, so it fills the remaining core.
    pub fn global() -> &'static SweepPool {
        static POOL: OnceLock<SweepPool> = OnceLock::new();
        POOL.get_or_init(|| SweepPool::with_workers(crate::runner::default_threads() - 1))
    }

    /// Number of worker threads (excluding submitters).
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("sweep-worker-{i}"))
                .spawn(move || worker_loop(inner))
                .expect("spawn sweep worker");
        }
        Self { inner, workers }
    }

    /// Submits a job over `n` items split into `participants` lanes. Up to
    /// `workers` pool threads join in; the caller works lane 0 through
    /// [`JobHandle::run_chunk`] and [`JobHandle::finish`].
    ///
    /// # Safety
    /// `ctx` must stay valid until `finish()` returns on the handle, and
    /// `run` must tolerate concurrent invocations on distinct indices.
    pub(crate) unsafe fn submit(
        &self,
        run: Trampoline,
        ctx: *const (),
        n: usize,
        workers: usize,
        participants: usize,
    ) -> JobHandle {
        debug_assert!(n > 0 && participants > 0);
        JOBS.fetch_add(1, Ordering::Relaxed);
        ITEMS.fetch_add(n as u64, Ordering::Relaxed);
        // The submitter always works on its own job.
        PARTICIPANTS.fetch_add(1, Ordering::Relaxed);
        let lanes = participants.min(n);
        let per = n / lanes;
        let extra = n % lanes;
        let mut start = 0usize;
        let lanes: Box<[Lane]> = (0..lanes)
            .map(|i| {
                let len = per + usize::from(i < extra);
                let lane = Lane {
                    cursor: AtomicUsize::new(start),
                    end: start + len,
                };
                start += len;
                lane
            })
            .collect();
        // Chunks trade claim traffic against stealability: aim for ~8
        // claims per lane so a straggler's lane can still be stolen.
        let chunk = (n / (participants * 8)).max(1);
        let job = Arc::new(Job {
            run,
            ctx,
            lanes,
            chunk,
            tickets: AtomicUsize::new(workers),
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        if workers > 0 {
            let mut q = self.inner.queue.lock().expect("pool queue");
            q.push_back(Arc::clone(&job));
            drop(q);
            self.inner.cv.notify_all();
        }
        JobHandle { job }
    }

    /// Removes a completed job from the queue if workers haven't already.
    fn retire(&self, job: &Arc<Job>) {
        let mut q = self.inner.queue.lock().expect("pool queue");
        q.retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// Worker threads live for the whole process: pick a job with both an
/// admission ticket and claimable work, help until it drains, repeat.
fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let (job, ordinal) = {
            let mut q = inner.queue.lock().expect("pool queue");
            loop {
                // Jobs that are drained or fully ticketed are dead weight
                // for every worker; drop them (submitters hold their own
                // Arc until finish()).
                q.retain(|j| j.has_claimable() && j.tickets.load(Ordering::Relaxed) > 0);
                let picked = q
                    .iter()
                    .find_map(|j| j.take_ticket().map(|ord| (Arc::clone(j), ord)));
                match picked {
                    Some(p) => break p,
                    None => q = inner.cv.wait(q).expect("pool queue"),
                }
            }
        };
        job.participate(ordinal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_jobs_claims_and_participants() {
        // Counters are process-global and other tests run par_map
        // concurrently, so assert only this job's guaranteed contribution.
        let before = PoolStats::snapshot();
        let out = crate::runner::par_map(vec![1u64, 2, 3, 4, 5], 4, |x| x * 2);
        assert_eq!(out, vec![2, 4, 6, 8, 10]);
        let d = PoolStats::snapshot().delta(&before);
        assert!(d.jobs >= 1, "{d:?}");
        assert!(d.items >= 5, "{d:?}");
        assert!(d.local_claims + d.steal_claims >= 1, "{d:?}");
        assert!(d.participants >= 1, "{d:?}");
        assert!((0.0..=1.0).contains(&d.steal_fraction()), "{d:?}");
    }

    #[test]
    fn stats_render_fixed_order_json() {
        let s = PoolStats {
            jobs: 2,
            items: 10,
            local_claims: 3,
            steal_claims: 1,
            participants: 4,
        };
        assert_eq!(
            s.to_json(),
            r#"{"jobs":2,"items":10,"local_claims":3,"steal_claims":1,"steal_fraction":0.25,"participants":4}"#
        );
        assert_eq!(PoolStats::default().steal_fraction(), 0.0);
    }
}
