//! mm-parallel: a work-stealing worker pool with a deterministic merge
//! order.
//!
//! The pool runs `items` independent tasks across up to `threads` OS
//! threads (scoped — no detached workers, no global state) and hands the
//! results back **sorted by item index**, so callers observe exactly the
//! order a sequential `for` loop would have produced regardless of how
//! the items were distributed or stolen. That property is what lets the
//! parallel chase and parallel CQ evaluation promise bit-identical
//! output to their sequential oracles: parallelism here changes *when*
//! work happens, never *what* the caller sees.
//!
//! Scheduling is classic work stealing over the vendored
//! [`crossbeam::deque`]: each worker owns a FIFO deque seeded with a
//! contiguous block of item indexes (block assignment keeps neighbouring
//! items — usually neighbouring data — on one worker) and, when its own
//! deque drains, steals from the back of its peers' deques in a fixed
//! round-robin scan. Steal counts are recorded for telemetry.
//!
//! Failure model: the first task to return an error flips a shared abort
//! flag; in-flight tasks finish, queued tasks are dropped, and the error
//! with the smallest item index **among those encountered** is reported.
//! Which indexes ran before the abort landed is scheduling-dependent, so
//! callers must not key behaviour off *which* error surfaces — in this
//! workspace every parallel caller maps worker errors to the same
//! budget/cancel trip, so the distinction is invisible. Cooperative
//! cancellation from inside tasks goes through the same flag via
//! `PoolCtx::abort`.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam::deque::{Steal, Stealer, Worker};

/// Number of hardware threads available to this process, with a floor
/// of 1. The `EngineConfig::threads` default.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Shared state visible to every task in one [`map_indexed`] run.
pub struct PoolCtx {
    abort: AtomicBool,
    steals: AtomicU64,
    tasks: AtomicU64,
}

impl PoolCtx {
    fn new() -> Self {
        PoolCtx {
            abort: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        }
    }

    /// Ask every worker to stop picking up new tasks. In-flight tasks
    /// run to completion; the pool still merges whatever finished.
    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    /// Whether some task (or the caller) requested an abort. Long
    /// tasks may poll this to bail out early.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }
}

/// Post-run scheduling statistics, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolRun {
    /// Threads that participated (1 = degraded to the sequential path).
    pub workers: usize,
    /// Successful steals across all workers.
    pub steals: u64,
    /// Tasks actually executed (< items when aborted early).
    pub tasks: u64,
}

impl PoolRun {
    /// Fold another run's statistics into this one, keeping the widest
    /// worker count (used when one logical operation spans many pool
    /// invocations, e.g. one per chase round).
    pub fn absorb(&mut self, other: PoolRun) {
        self.workers = self.workers.max(other.workers);
        self.steals += other.steals;
        self.tasks += other.tasks;
    }
}

/// Run `f(0..items)` across up to `threads` workers and return the
/// successful results **sorted by item index**, plus scheduling stats.
///
/// * `threads <= 1` or `items <= 1` degrades to an inline sequential
///   loop on the calling thread — no spawns, identical semantics.
/// * On error, the smallest-index error among those encountered wins
///   and remaining queued items are dropped.
/// * On success the result vector has exactly `items` entries unless a
///   task called `PoolCtx::abort`, in which case it holds the
///   completed prefix-by-index of whatever finished.
pub fn map_indexed<T, E, F>(threads: usize, items: usize, f: F) -> (Result<Vec<T>, E>, PoolRun)
where
    T: Send,
    E: Send,
    F: Fn(usize, &PoolCtx) -> Result<T, E> + Sync,
{
    let ctx = PoolCtx::new();
    if threads <= 1 || items <= 1 {
        return sequential(items, &f, &ctx);
    }
    let workers = threads.min(items);

    // Seed each worker's deque with a contiguous block of indexes.
    let queues: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<usize>> = queues.iter().map(Worker::stealer).collect();
    for (w, q) in queues.iter().enumerate() {
        let lo = w * items / workers;
        let hi = (w + 1) * items / workers;
        for idx in lo..hi {
            q.push(idx);
        }
    }

    type WorkerOut<T, E> = (Vec<(usize, T)>, Option<(usize, E)>);
    let run_worker = |me: usize, own: Worker<usize>| -> WorkerOut<T, E> {
        let mut done: Vec<(usize, T)> = Vec::new();
        let mut first_err: Option<(usize, E)> = None;
        loop {
            if ctx.aborted() {
                break;
            }
            let idx = match own.pop() {
                Some(idx) => Some(idx),
                None => steal_one(me, workers, &stealers, &ctx),
            };
            let Some(idx) = idx else { break };
            ctx.tasks.fetch_add(1, Ordering::Relaxed);
            match f(idx, &ctx) {
                Ok(v) => done.push((idx, v)),
                Err(e) => {
                    first_err = Some((idx, e));
                    ctx.abort();
                    break;
                }
            }
        }
        (done, first_err)
    };

    let joined: Vec<WorkerOut<T, E>> = match crossbeam::scope(|s| {
        let mut queues = queues;
        // The calling thread doubles as worker 0; spawn the rest.
        let own0 = queues.remove(0);
        let handles: Vec<_> = queues
            .into_iter()
            .enumerate()
            .map(|(i, own)| {
                let run_worker = &run_worker;
                s.spawn(move |_| run_worker(i + 1, own))
            })
            .collect();
        let mut outs = vec![run_worker(0, own0)];
        for h in handles {
            match h.join() {
                Ok(out) => outs.push(out),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        outs
    }) {
        Ok(outs) => outs,
        Err(payload) => std::panic::resume_unwind(payload),
    };

    let run = PoolRun {
        workers,
        steals: ctx.steals.load(Ordering::Relaxed),
        tasks: ctx.tasks.load(Ordering::Relaxed),
    };

    // Deterministic merge: errors and results both resolve by item
    // index, so the outcome is independent of scheduling.
    let mut first_err: Option<(usize, E)> = None;
    let mut done: Vec<(usize, T)> = Vec::new();
    for (ok, err) in joined {
        done.extend(ok);
        if let Some((idx, e)) = err {
            match &first_err {
                Some((best, _)) if *best <= idx => {}
                _ => first_err = Some((idx, e)),
            }
        }
    }
    if let Some((_, e)) = first_err {
        return (Err(e), run);
    }
    done.sort_by_key(|(idx, _)| *idx);
    (Ok(done.into_iter().map(|(_, v)| v).collect()), run)
}

fn sequential<T, E, F>(items: usize, f: &F, ctx: &PoolCtx) -> (Result<Vec<T>, E>, PoolRun)
where
    F: Fn(usize, &PoolCtx) -> Result<T, E>,
{
    let mut out = Vec::with_capacity(items);
    let mut tasks = 0;
    let mut err = None;
    for idx in 0..items {
        if ctx.aborted() {
            break;
        }
        tasks += 1;
        match f(idx, ctx) {
            Ok(v) => out.push(v),
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let run = PoolRun {
        workers: 1,
        steals: 0,
        tasks,
    };
    match err {
        Some(e) => (Err(e), run),
        None => (Ok(out), run),
    }
}

/// Scan peers in a fixed round-robin order starting after `me` and
/// steal one task. Returns `None` when every deque is empty.
fn steal_one(
    me: usize,
    workers: usize,
    stealers: &[Stealer<usize>],
    ctx: &PoolCtx,
) -> Option<usize> {
    loop {
        let mut retry = false;
        for off in 1..workers {
            let victim = (me + off) % workers;
            match stealers[victim].steal() {
                Steal::Success(idx) => {
                    ctx.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(idx);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [1, 2, 4, 8] {
            let (out, run) = map_indexed::<_, (), _>(threads, 100, |i, _| {
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                Ok(i * i)
            });
            let out = match out {
                Ok(v) => v,
                Err(()) => unreachable!(),
            };
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(run.tasks, 100);
            assert!(run.workers <= threads.max(1));
        }
    }

    #[test]
    fn smallest_index_error_wins() {
        let (out, _run) = map_indexed::<u32, usize, _>(4, 64, |i, _| {
            if i >= 10 {
                Err(i)
            } else {
                Ok(0)
            }
        });
        match out {
            // The reported error is the smallest-index one *encountered*;
            // which ones ran before the abort landed is scheduling-
            // dependent, but every candidate is a real error site.
            Err(idx) => assert!(idx >= 10, "error index {idx} was never seeded"),
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn abort_stops_pickup_of_queued_items() {
        // Every task aborts, so each worker runs at most its first
        // pickup before the top-of-loop check stops it — a scheduling-
        // independent bound, unlike aborting from one designated item.
        let (out, run) = map_indexed::<usize, (), _>(2, 1000, |i, ctx| {
            ctx.abort();
            Ok(i)
        });
        let out = match out {
            Ok(v) => v,
            Err(()) => unreachable!(),
        };
        assert!(out.len() <= 2, "abort should drop queued work");
        assert!(run.tasks <= 2);
    }

    #[test]
    fn degrades_to_sequential_for_tiny_inputs() {
        let (out, run) = map_indexed::<_, (), _>(8, 1, |i, _| Ok(i));
        assert_eq!(out.ok(), Some(vec![0]));
        assert_eq!(run.workers, 1);
        assert_eq!(run.steals, 0);
    }
}
