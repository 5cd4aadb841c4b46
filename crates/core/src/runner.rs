//! Parallel experiment execution.
//!
//! A simulation is single-threaded and deterministic; experiments
//! parallelize by running many independent simulations. [`par_map`] keeps
//! its original contract — results land at their item's index, so the
//! output order (and therefore every downstream aggregate) is independent
//! of thread scheduling — but now executes on the persistent
//! [`crate::pool::SweepPool`] instead of spawning fresh threads per call,
//! and writes results into index-disjoint slots instead of per-item
//! mutexes. [`par_reduce`] is the streaming variant: per-item results are
//! folded into an accumulator *in item-index order* as they arrive, so
//! sweep reducers consume summaries incrementally instead of materializing
//! the whole result vector first.
//!
//! In both, the calling thread is one of the `threads` participants and
//! computes items itself (`par_reduce` alternates computing one chunk with
//! folding), so `threads = 2` on a two-core machine runs two simulations
//! at once, and a sweep never waits for a free pool worker.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::pool::{SweepPool, Trampoline};

/// Best-effort text of a panic payload (`&str` / `String`, else a marker).
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The item's `Debug` rendering, truncated so a pathological config can't
/// blow up the panic message (the quarantine reproducer carries the full
/// config; the payload only needs to identify the scenario).
fn debug_key<T: Debug>(item: &T) -> String {
    let mut s = format!("{item:?}");
    if s.len() > 256 {
        let mut cut = 253;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push_str("...");
    }
    s
}

/// Runs `f` on item `i`, re-raising any panic with the failing item's
/// index and scenario key prepended — a sweep over hundreds of configs
/// otherwise surfaces a bare "index out of bounds" with no hint of which
/// scenario hit it.
fn run_item<T: Debug, R, F: Fn(&T) -> R>(f: &F, items: &[T], i: usize) -> R {
    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
        Ok(r) => r,
        Err(p) => std::panic::panic_any(format!(
            "sweep item {i} ({}): {}",
            debug_key(&items[i]),
            panic_message(&*p)
        )),
    }
}

/// One result slot, written by exactly one worker (the one that claimed the
/// slot's index) and read by the submitter after the job's completion latch.
struct Slot<R> {
    value: UnsafeCell<MaybeUninit<R>>,
    written: AtomicBool,
}

// Distinct indices are written by distinct workers and never aliased; the
// submitter only reads after the job latch establishes happens-before.
unsafe impl<R: Send> Sync for Slot<R> {}

struct MapCtx<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    slots: &'a [Slot<R>],
}

/// # Safety
/// Called with a `ctx` pointing at the matching `MapCtx` and a unique,
/// in-bounds index per job (the pool guarantees both).
unsafe fn map_one<T: Debug, R, F: Fn(&T) -> R>(ctx: *const (), i: usize) {
    let ctx = &*(ctx as *const MapCtx<'_, T, R, F>);
    let r = run_item(ctx.f, ctx.items, i);
    (*ctx.slots[i].value.get()).write(r);
    ctx.slots[i].written.store(true, Ordering::Release);
}

/// Applies `f` to every item on up to `threads` participants (the calling
/// thread plus persistent pool workers), preserving input order in the
/// output.
///
/// If `f` panics on any item, the first panic's payload is re-raised on the
/// calling thread (`std::thread::scope` alone would replace it with a
/// generic "a scoped thread panicked"), and workers stop claiming further
/// items. The payload is a `String` prefixed with the failing item's index
/// and `Debug` key, so a sweep failure names its scenario.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync + Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return (0..n).map(|i| run_item(&f, &items, i)).collect();
    }
    let slots: Vec<Slot<R>> = (0..n)
        .map(|_| Slot {
            value: UnsafeCell::new(MaybeUninit::uninit()),
            written: AtomicBool::new(false),
        })
        .collect();
    let ctx = MapCtx {
        items: &items,
        f: &f,
        slots: &slots,
    };
    // Safety: `ctx` outlives `finish()` below, and `map_one` writes only
    // the claimed index's slot.
    let handle = unsafe {
        SweepPool::global().submit(
            map_one::<T, R, F> as Trampoline,
            &ctx as *const MapCtx<'_, T, R, F> as *const (),
            n,
            threads - 1,
            threads,
        )
    };
    // `finish()` runs the caller's share of the items before it blocks.
    if let Some(p) = handle.finish() {
        // Drop whatever results landed before the panic, then re-raise.
        for s in &slots {
            if s.written.load(Ordering::Acquire) {
                unsafe { (*s.value.get()).assume_init_drop() };
            }
        }
        resume_unwind(p);
    }
    slots
        .into_iter()
        .map(|s| {
            assert!(s.written.into_inner(), "worker thread skipped an item");
            unsafe { s.value.into_inner().assume_init() }
        })
        .collect()
}

/// The reorder channel between pool workers and the folding submitter.
struct Channel<R> {
    q: Mutex<Vec<(usize, R)>>,
    cv: Condvar,
}

struct ReduceCtx<'a, T, R, F> {
    items: &'a [T],
    map: &'a F,
    chan: &'a Channel<R>,
}

/// # Safety
/// Same contract as `map_one`.
unsafe fn reduce_one<T: Debug, R, F: Fn(&T) -> R>(ctx: *const (), i: usize) {
    let ctx = &*(ctx as *const ReduceCtx<'_, T, R, F>);
    let r = run_item(ctx.map, ctx.items, i);
    let mut q = ctx.chan.q.lock().expect("reduce channel");
    q.push((i, r));
    drop(q);
    ctx.chan.cv.notify_one();
}

/// Streaming map-reduce: `map` runs on up to `threads` participants (the
/// calling thread plus pool workers), and the calling thread folds each
/// result into `acc` strictly in item-index order as results arrive (a
/// small reorder buffer bridges out-of-order completion). The fixed fold
/// order makes the accumulator byte-identical across thread counts, while
/// memory stays at `O(in-flight results)` instead of `O(items)`.
///
/// With `threads <= 1` the whole reduction runs inline on the caller.
/// Panics from `map` re-raise their original payload on the caller; a
/// panic from `fold` re-raises once every in-flight `map` call has
/// returned.
pub fn par_reduce<T, R, A, F, G>(items: Vec<T>, threads: usize, map: F, init: A, mut fold: G) -> A
where
    T: Send + Sync + Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
    G: FnMut(A, &T, R) -> A,
{
    let n = items.len();
    if n == 0 {
        return init;
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        let mut acc = init;
        for i in 0..n {
            let r = run_item(&map, &items, i);
            acc = fold(acc, &items[i], r);
        }
        return acc;
    }
    let chan = Channel {
        q: Mutex::new(Vec::new()),
        cv: Condvar::new(),
    };
    let ctx = ReduceCtx {
        items: &items,
        map: &map,
        chan: &chan,
    };
    // Safety: `ctx` outlives `finish()`, and the channel push is the only
    // shared write (guarded by its mutex). The fold below runs under
    // `catch_unwind`, so even a panicking fold reaches `finish()` before
    // `ctx` and `chan` go out of scope.
    let handle = unsafe {
        SweepPool::global().submit(
            reduce_one::<T, R, F> as Trampoline,
            &ctx as *const ReduceCtx<'_, T, R, F> as *const (),
            n,
            threads - 1,
            threads,
        )
    };
    let folded = catch_unwind(AssertUnwindSafe(|| {
        let mut acc = init;
        let mut reorder: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        let mut computing = true;
        while next < n {
            // Compute one chunk, then fold what has arrived; once nothing is
            // claimable, block on the workers' results instead.
            computing = computing && handle.run_chunk();
            let batch = {
                let mut q = chan.q.lock().expect("reduce channel");
                loop {
                    if !q.is_empty() || computing {
                        break std::mem::take(&mut *q);
                    }
                    // `is_done` while holding the channel lock: sends happen
                    // before their item's completion decrement, so done +
                    // empty means no further sends can arrive (items were
                    // skipped after a panic).
                    if handle.is_done() {
                        return acc;
                    }
                    let (g, _) = chan
                        .cv
                        .wait_timeout(q, Duration::from_millis(10))
                        .expect("reduce channel");
                    q = g;
                }
            };
            for (i, r) in batch {
                reorder.insert(i, r);
            }
            while let Some(r) = reorder.remove(&next) {
                acc = fold(acc, &items[next], r);
                next += 1;
            }
        }
        acc
    }));
    match folded {
        Ok(acc) => {
            if let Some(p) = handle.finish() {
                resume_unwind(p);
            }
            acc
        }
        Err(p) => {
            handle.cancel();
            drop(handle.finish());
            resume_unwind(p)
        }
    }
}

/// A default thread count: the available parallelism, at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Merges event-loop profiles from a batch of runs into one footer line to
/// print beside report tables, e.g.
/// `"perf: 3 runs, 1234567 events in 0.41s (3.0M ev/s; ...)"`.
///
/// Wall-clock times add up across runs, so for a parallel batch the ev/s
/// figure is per-core throughput, not the batch's elapsed time.
pub fn profile_footer<'a, I>(profiles: I) -> String
where
    I: IntoIterator<Item = &'a telemetry::LoopProfile>,
{
    let mut merged = telemetry::LoopProfile::new();
    let mut runs = 0usize;
    for p in profiles {
        merged.merge(p);
        runs += 1;
    }
    format!(
        "perf: {} run{}, {}",
        runs,
        if runs == 1 { "" } else { "s" },
        merged.summary()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items, 8, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn single_thread_path() {
        let out = par_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(vec![5], 64, |&x| x * 2);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn results_match_serial_regardless_of_threads() {
        let items: Vec<u64> = (0..50).collect();
        let serial = par_map(items.clone(), 1, |&x| x.wrapping_mul(0x9E3779B9));
        let parallel = par_map(items, 7, |&x| x.wrapping_mul(0x9E3779B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_labeled_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map((0..64u64).collect::<Vec<_>>(), 4, |&x| {
                if x == 7 {
                    panic!("boom on item {x}");
                }
                x * 2
            })
        });
        let payload = result.expect_err("par_map must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("String payload lost");
        assert_eq!(msg, "sweep item 7 (7): boom on item 7");
    }

    #[test]
    fn inline_path_labels_panics_too() {
        let result = std::panic::catch_unwind(|| {
            par_map(vec![10u64, 11, 12], 1, |&x| {
                if x == 11 {
                    panic!("inline boom");
                }
                x
            })
        });
        let payload = result.expect_err("par_map must panic");
        let msg = payload.downcast_ref::<String>().expect("payload lost");
        assert_eq!(msg, "sweep item 1 (11): inline boom");
    }

    #[test]
    fn oversized_item_keys_are_truncated() {
        let big = vec!["x"; 300];
        let result =
            std::panic::catch_unwind(|| par_map(vec![big], 1, |_| -> u64 { panic!("heavy") }));
        let msg_owner = result.expect_err("par_map must panic");
        let msg = msg_owner.downcast_ref::<String>().expect("payload lost");
        assert!(msg.contains("..."), "{msg}");
        assert!(msg.ends_with(": heavy"), "{msg}");
        assert!(msg.len() < 300, "{}", msg.len());
    }

    #[test]
    fn every_worker_panicking_still_reports_one_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map(vec![1u64, 2, 3, 4, 5, 6, 7, 8], 4, |_| -> u64 {
                panic!("all fail")
            })
        });
        let payload = result.expect_err("par_map must panic");
        let msg = payload.downcast_ref::<String>().expect("payload lost");
        assert!(msg.contains("all fail"), "{msg}");
        assert!(msg.starts_with("sweep item "), "{msg}");
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A panicking job must not poison the persistent pool for later
        // submissions from the same process.
        let _ = std::panic::catch_unwind(|| {
            par_map(vec![1u64, 2, 3, 4], 4, |_| -> u64 { panic!("one-shot") })
        });
        let out = par_map((0..32u64).collect::<Vec<_>>(), 4, |&x| x + 1);
        assert_eq!(out[31], 32);
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        // Submitters participate in their own jobs, so even if every pool
        // worker is parked on outer jobs, the inner maps complete.
        let out = par_map((0..8u64).collect::<Vec<_>>(), 4, |&x| {
            par_map((0..8u64).collect::<Vec<_>>(), 4, |&y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (0..8).map(|y| i as u64 * 10 + y).sum::<u64>());
        }
    }

    #[test]
    fn heavy_types_drop_cleanly() {
        // Results with heap payloads exercise slot initialization and drop.
        let out = par_map((0..100u64).collect::<Vec<_>>(), 8, |&x| vec![x; 3]);
        assert_eq!(out[99], vec![99, 99, 99]);
        // And on the panic path, already-written Vec results are dropped.
        let _ = std::panic::catch_unwind(|| {
            par_map((0..100u64).collect::<Vec<_>>(), 8, |&x| {
                if x == 50 {
                    panic!("mid-job");
                }
                vec![x; 3]
            })
        });
    }

    #[test]
    fn par_reduce_folds_in_index_order() {
        let items: Vec<u64> = (0..200).collect();
        let folded = par_reduce(
            items.clone(),
            8,
            |&x| x * 2,
            Vec::new(),
            |mut acc: Vec<u64>, _item, r| {
                acc.push(r);
                acc
            },
        );
        let serial: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(folded, serial);
    }

    #[test]
    fn par_reduce_matches_serial_accumulator() {
        let items: Vec<u64> = (0..64).collect();
        let sum = |acc: u64, item: &u64, r: u64| acc.wrapping_add(r ^ item);
        let serial = par_reduce(items.clone(), 1, |&x| x * 3, 0u64, sum);
        let parallel = par_reduce(items, 6, |&x| x * 3, 0u64, sum);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_reduce_empty_returns_init() {
        let acc = par_reduce(Vec::<u32>::new(), 4, |&x| x, 42u32, |a, _, _| a + 1);
        assert_eq!(acc, 42);
    }

    #[test]
    fn par_reduce_panic_propagates_payload() {
        let result = std::panic::catch_unwind(|| {
            par_reduce(
                (0..64u64).collect::<Vec<_>>(),
                4,
                |&x| {
                    if x == 9 {
                        panic!("reduce boom {x}");
                    }
                    x
                },
                0u64,
                |a, _, r| a + r,
            )
        });
        let payload = result.expect_err("par_reduce must panic");
        let msg = payload.downcast_ref::<String>().expect("payload lost");
        assert_eq!(msg, "sweep item 9 (9): reduce boom 9");
    }

    #[test]
    fn par_reduce_fold_panic_waits_for_in_flight_maps() {
        use std::sync::atomic::AtomicUsize;
        // The fold panics on item 0 while `map` is still running on another
        // item: the panic may only reach the caller once no `map` call can
        // touch the reducer's stack any more.
        static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
        static FOLD_PANICKED: AtomicBool = AtomicBool::new(false);
        // Bounded spin, so a busy pool (no free worker) cannot hang the test.
        let wait_for = |cond: &dyn Fn() -> bool| {
            let t0 = std::time::Instant::now();
            while !cond() && t0.elapsed() < Duration::from_secs(1) {
                std::thread::yield_now();
            }
        };
        let result = std::panic::catch_unwind(|| {
            par_reduce(
                (0..8u64).collect::<Vec<_>>(),
                4,
                |&x| {
                    IN_FLIGHT.fetch_add(1, Ordering::SeqCst);
                    if x == 0 {
                        // Hold item 0, and so the fold, back until another
                        // item is in flight.
                        wait_for(&|| IN_FLIGHT.load(Ordering::SeqCst) >= 2);
                    } else {
                        // Stay in flight past the fold's panic.
                        wait_for(&|| FOLD_PANICKED.load(Ordering::SeqCst));
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
                    x
                },
                0u64,
                |_, &i, _| -> u64 {
                    FOLD_PANICKED.store(true, Ordering::SeqCst);
                    panic!("fold boom on {i}")
                },
            )
        });
        let in_flight = IN_FLIGHT.load(Ordering::SeqCst);
        let payload = result.expect_err("par_reduce must panic");
        let msg = payload.downcast_ref::<String>().expect("payload lost");
        assert_eq!(msg, "fold boom on 0");
        assert_eq!(in_flight, 0, "map calls still running after the fold panic");
        let out = par_map((0..16u64).collect::<Vec<_>>(), 4, |&x| x + 1);
        assert_eq!(out[15], 16);
    }

    #[test]
    fn nested_par_reduce_inside_par_map_does_not_deadlock() {
        // Every thread may end up submitting an inner reduction while no
        // pool worker is free; the submitters compute, so all complete.
        let out = par_map((0..4u64).collect::<Vec<_>>(), 2, |&x| {
            par_reduce(
                (0..4u64).collect::<Vec<_>>(),
                2,
                |&y| x * 10 + y,
                0u64,
                |a, _, r| a + r,
            )
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (0..4).map(|y| i as u64 * 10 + y).sum::<u64>());
        }
    }

    #[test]
    fn profile_footer_merges_runs() {
        let p = telemetry::LoopProfile {
            tallies: telemetry::EventTallies {
                tx_complete: 10,
                delivery: 20,
                timer: 5,
                fault: 0,
                ctrl: 0,
            },
            wall: std::time::Duration::from_millis(100),
        };
        let s = profile_footer([&p, &p]);
        assert!(s.starts_with("perf: 2 runs, 70 events"), "{s}");
        let s = profile_footer([&p]);
        assert!(s.starts_with("perf: 1 run, 35 events"), "{s}");
    }
}
