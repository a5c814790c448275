//! The runtime meter operators thread through their hot loops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::{ExecBudget, ExecError, Resource};

/// How many steps pass between expensive checks (cancellation poll +
/// `Instant::now`). Power of two so the test is a mask. Step/row limit
/// comparisons still happen on every call — they are two predictable
/// branches and keep the error's `consumed` exact.
const CHECK_INTERVAL: u64 = 1024;

/// Per-operation meter over an [`ExecBudget`].
///
/// Cheap to construct; hot loops call [`Governor::step`]/[`Governor::row`]
/// per unit of work. The expensive observations (atomic cancellation
/// poll, wall-clock read) are amortized over [`CHECK_INTERVAL`] steps,
/// keeping governance overhead well under 5% even on tight chase loops.
#[derive(Debug, Clone)]
pub struct Governor {
    budget: ExecBudget,
    steps: u64,
    rows: u64,
    rounds: u64,
    clauses: u64,
    started: Instant,
    /// Cross-worker meter this governor publishes into (parallel
    /// regions only; `None` on the ordinary sequential path).
    shared: Option<Arc<SharedMeter>>,
    /// Own steps/rows already published to `shared`.
    flushed_steps: u64,
    flushed_rows: u64,
    /// Last observed consumption by *other* governors on the same
    /// meter (refreshed at every [`Governor::check_now`] safepoint, so
    /// at most `CHECK_INTERVAL` steps stale per worker).
    foreign_steps: u64,
    foreign_rows: u64,
}

impl Governor {
    pub fn new(budget: &ExecBudget) -> Self {
        Governor {
            budget: budget.clone(),
            steps: 0,
            rows: 0,
            rounds: 0,
            clauses: 0,
            started: mm_telemetry::clock::now(),
            shared: None,
            flushed_steps: 0,
            flushed_rows: 0,
            foreign_steps: 0,
            foreign_rows: 0,
        }
    }

    /// Meter one logical unit of work.
    #[inline]
    pub fn step(&mut self) -> Result<(), ExecError> {
        self.advance(1)
    }

    /// Meter `n` units at once (bulk operations).
    #[inline]
    pub fn steps_n(&mut self, n: u64) -> Result<(), ExecError> {
        self.advance(n.max(1))
    }

    /// Advance the step counter by `n` (≥ 1), checking the cap and
    /// hitting the periodic safepoint. A bulk advance can jump clean
    /// over a multiple of [`CHECK_INTERVAL`], so the safepoint fires on
    /// *crossing* an interval boundary rather than landing exactly on
    /// one — otherwise bulk-metered work would never poll cancellation
    /// or publish to a shared meter.
    #[inline]
    fn advance(&mut self, n: u64) -> Result<(), ExecError> {
        let before = self.steps;
        self.steps += n;
        if let Some(limit) = self.budget.max_steps {
            if self.steps + self.foreign_steps > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Steps,
                    consumed: self.steps + self.foreign_steps,
                    limit,
                });
            }
        }
        if self.steps / CHECK_INTERVAL != before / CHECK_INTERVAL {
            self.check_now()?;
        }
        Ok(())
    }

    /// Meter one materialized tuple.
    #[inline]
    pub fn row(&mut self) -> Result<(), ExecError> {
        self.rows_n(1)
    }

    /// Meter `n` materialized tuples at once (bulk operations). Lets a
    /// caller charge a whole batch *before* mutating shared state, so a
    /// budget trip leaves no partial effect.
    #[inline]
    pub fn rows_n(&mut self, n: u64) -> Result<(), ExecError> {
        if n == 0 {
            return self.check_now();
        }
        self.rows += n;
        if let Some(limit) = self.budget.max_rows {
            if self.rows + self.foreign_rows > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Rows,
                    consumed: self.rows + self.foreign_rows,
                    limit,
                });
            }
        }
        self.advance(n)
    }

    /// Check a fixpoint round count (1-based) against the round cap;
    /// also forces a cancellation/deadline check, since a round
    /// boundary is a natural safepoint.
    pub fn round(&mut self, completed_rounds: u64) -> Result<(), ExecError> {
        self.rounds = self.rounds.max(completed_rounds);
        if let Some(limit) = self.budget.max_rounds {
            if completed_rounds > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Rounds,
                    consumed: completed_rounds,
                    limit,
                });
            }
        }
        self.check_now()
    }

    /// Check a produced-clause count against the clause cap.
    pub fn clauses(&mut self, count: u64) -> Result<(), ExecError> {
        self.clauses = self.clauses.max(count);
        if let Some(limit) = self.budget.max_clauses {
            if count > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Clauses,
                    consumed: count,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Unamortized cancellation + deadline check. Call at loop
    /// boundaries where waiting up to [`CHECK_INTERVAL`] steps would be
    /// too coarse.
    pub fn check_now(&mut self) -> Result<(), ExecError> {
        if self.budget.cancel.poll() {
            return Err(ExecError::Cancelled { after_steps: self.steps });
        }
        if self.shared.is_some() {
            self.sync_shared()?;
        }
        if self.budget.deadline.is_some() || self.budget.hard_deadline.is_some() {
            let now = mm_telemetry::clock::now();
            if let Some(hard) = self.budget.hard_deadline {
                if now > hard {
                    return Err(ExecError::DeadlineExceeded {
                        late_ms: now.duration_since(hard).as_millis() as u64,
                    });
                }
            }
            if let Some(deadline) = self.budget.deadline {
                if now > deadline {
                    return Err(ExecError::BudgetExhausted {
                        resource: Resource::WallClock,
                        consumed: now.duration_since(self.started).as_millis() as u64,
                        limit: deadline.duration_since(self.started).as_millis() as u64,
                    });
                }
            }
        }
        Ok(())
    }

    /// Publish this governor's unflushed steps/rows into the shared
    /// meter, refresh the view of other workers' consumption, and
    /// re-check the global caps. No-op for governors without a meter.
    fn sync_shared(&mut self) -> Result<(), ExecError> {
        let Some(meter) = self.shared.clone() else {
            return Ok(());
        };
        meter.add(
            self.steps - self.flushed_steps,
            self.rows - self.flushed_rows,
        );
        self.flushed_steps = self.steps;
        self.flushed_rows = self.rows;
        // The meter now holds every worker's flushed total including
        // all of our own, so the difference is foreign consumption.
        self.foreign_steps = meter.steps().saturating_sub(self.steps);
        self.foreign_rows = meter.rows().saturating_sub(self.rows);
        if let Some(limit) = self.budget.max_steps {
            let total = self.steps + self.foreign_steps;
            if total > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Steps,
                    consumed: total,
                    limit,
                });
            }
        }
        if let Some(limit) = self.budget.max_rows {
            let total = self.rows + self.foreign_rows;
            if total > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Rows,
                    consumed: total,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Split this governor for a parallel region: returns a
    /// [`SharedMeter`] pre-charged with everything consumed so far plus
    /// `workers` governors that meter against it. Worker governors
    /// share the caller's budget (and therefore its [`crate::CancelToken`]
    /// and wall deadline), publish their consumption into the meter at
    /// every safepoint, and see each other's flushed consumption as
    /// `foreign` work counted against the caps — so a global step/row
    /// limit trips across the whole region with at most
    /// [`CHECK_INTERVAL`] steps of per-worker lag. After the region
    /// joins, fold each worker's [`Governor::consumption`] back with
    /// [`Governor::absorb`].
    pub fn fork_shared(&self, workers: usize) -> (Arc<SharedMeter>, Vec<Governor>) {
        let meter = Arc::new(SharedMeter::default());
        meter.add(self.steps, self.rows);
        let govs = (0..workers)
            .map(|_| Governor {
                budget: self.budget.clone(),
                steps: 0,
                rows: 0,
                rounds: 0,
                clauses: 0,
                started: self.started,
                shared: Some(Arc::clone(&meter)),
                flushed_steps: 0,
                flushed_rows: 0,
                foreign_steps: self.steps,
                foreign_rows: self.rows,
            })
            .collect();
        (meter, govs)
    }

    /// Attach a fresh governor to an existing [`SharedMeter`] under its
    /// own budget. Where [`Governor::fork_shared`] clones the lead's
    /// budget into every worker (one operation split across threads),
    /// this lets *independent* operations meter against one shared pool
    /// while each keeps its own caps, deadline, and cancel token — the
    /// server uses it to charge every request of a session against the
    /// session budget while the request carries its own hard deadline.
    /// Caps in `budget` apply to the *combined* meter total; call
    /// [`Governor::publish`] when the operation finishes so the final
    /// partial interval reaches the meter.
    pub fn attach_shared(budget: &ExecBudget, meter: &Arc<SharedMeter>) -> Self {
        let mut g = Governor::new(budget);
        g.foreign_steps = meter.steps();
        g.foreign_rows = meter.rows();
        g.shared = Some(Arc::clone(meter));
        g
    }

    /// Flush any unpublished steps/rows to the attached shared meter
    /// (no-op without one). Unlike the periodic safepoint flush this
    /// never fails: it is for the end of an operation, where the work
    /// is already done and only the accounting remains.
    pub fn publish(&mut self) {
        if let Some(meter) = self.shared.clone() {
            meter.add(
                self.steps - self.flushed_steps,
                self.rows - self.flushed_rows,
            );
            self.flushed_steps = self.steps;
            self.flushed_rows = self.rows;
        }
    }

    /// Fold a joined worker's consumption into this governor and
    /// re-check the caps. On the success path the sum over all workers
    /// equals what the sequential oracle would have metered, so this
    /// cannot trip unless the sequential run would have tripped too.
    pub fn absorb(&mut self, c: &Consumption) -> Result<(), ExecError> {
        self.steps += c.steps;
        self.rows += c.rows;
        if let Some(limit) = self.budget.max_steps {
            let total = self.steps + self.foreign_steps;
            if total > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Steps,
                    consumed: total,
                    limit,
                });
            }
        }
        if let Some(limit) = self.budget.max_rows {
            let total = self.rows + self.foreign_rows;
            if total > limit {
                return Err(ExecError::BudgetExhausted {
                    resource: Resource::Rows,
                    consumed: total,
                    limit,
                });
            }
        }
        self.check_now()
    }

    pub fn steps_consumed(&self) -> u64 {
        self.steps
    }

    pub fn rows_consumed(&self) -> u64 {
        self.rows
    }

    /// Everything this meter has consumed so far — steps, rows, the
    /// highest round and clause counts checked, and wall time since
    /// construction. Until PR 4 consumption was visible only inside
    /// `ExecError::BudgetExhausted`; this exports it on the success path
    /// too (telemetry records it as span fields on completed operators).
    pub fn consumption(&self) -> Consumption {
        Consumption {
            steps: self.steps,
            rows: self.rows,
            rounds: self.rounds,
            clauses: self.clauses,
            wall_us: mm_telemetry::clock::elapsed_us(self.started),
        }
    }

    pub fn budget(&self) -> &ExecBudget {
        &self.budget
    }
}

/// A cross-worker consumption meter for parallel regions.
///
/// Workers [`Governor::fork_shared`]-ed off one caller publish their
/// steps/rows here at every safepoint; each worker counts the others'
/// published consumption against the budget caps, so a global limit
/// trips across the whole region rather than per worker. Purely
/// additive atomics — never read on the per-step fast path.
#[derive(Debug, Default)]
pub struct SharedMeter {
    steps: AtomicU64,
    rows: AtomicU64,
}

impl SharedMeter {
    /// An empty meter for [`Governor::attach_shared`] sessions.
    pub fn new() -> Self {
        SharedMeter::default()
    }

    fn add(&self, steps: u64, rows: u64) {
        if steps > 0 {
            self.steps.fetch_add(steps, Ordering::Relaxed);
        }
        if rows > 0 {
            self.rows.fetch_add(rows, Ordering::Relaxed);
        }
    }

    /// Total steps published by every attached governor so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Total rows published by every attached governor so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// A snapshot of a [`Governor`]'s consumed resources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Consumption {
    /// Logical work units metered ([`Governor::step`]).
    pub steps: u64,
    /// Materialized tuples metered ([`Governor::row`]).
    pub rows: u64,
    /// Highest completed-round count checked ([`Governor::round`]).
    pub rounds: u64,
    /// Highest produced-clause count checked ([`Governor::clauses`]).
    pub clauses: u64,
    /// Wall-clock time since the governor started, in microseconds.
    pub wall_us: u64,
}

impl std::fmt::Display for Consumption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steps={} rows={} rounds={} clauses={} wall_us={}",
            self.steps, self.rows, self.rounds, self.clauses, self.wall_us
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::CancelToken;

    #[test]
    fn step_budget_trips_exactly() {
        let mut g = Governor::new(&ExecBudget::unbounded().with_steps(10));
        for _ in 0..10 {
            g.step().expect("within budget");
        }
        match g.step() {
            Err(ExecError::BudgetExhausted { resource: Resource::Steps, consumed, limit }) => {
                assert_eq!((consumed, limit), (11, 10));
            }
            other => panic!("expected step exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn row_budget_trips() {
        let mut g = Governor::new(&ExecBudget::unbounded().with_rows(2));
        g.row().expect("row 1");
        g.row().expect("row 2");
        assert!(matches!(
            g.row(),
            Err(ExecError::BudgetExhausted { resource: Resource::Rows, .. })
        ));
    }

    #[test]
    fn default_caps_fill_only_unset_caps() {
        let mut g = Governor::new(&ExecBudget::unbounded().with_default_caps(3, 5));
        g.round(3).expect("round 3 of 3");
        g.clauses(5).expect("clause 5 of 5");
        assert!(matches!(
            g.round(4),
            Err(ExecError::BudgetExhausted { resource: Resource::Rounds, limit: 3, .. })
        ));
        assert!(matches!(
            g.clauses(6),
            Err(ExecError::BudgetExhausted { resource: Resource::Clauses, limit: 5, .. })
        ));
        let explicit = ExecBudget::unbounded().with_rounds(1).with_clauses(2);
        let mut g = Governor::new(&explicit.with_default_caps(3, 5));
        assert!(g.round(2).is_err());
        assert!(g.clauses(3).is_err());
    }

    #[test]
    fn cancellation_observed_at_safepoint() {
        let token = CancelToken::new();
        let mut g = Governor::new(&ExecBudget::unbounded().with_cancel(token.clone()));
        g.check_now().expect("not yet cancelled");
        token.cancel();
        assert!(matches!(g.check_now(), Err(ExecError::Cancelled { .. })));
    }

    #[test]
    fn cancellation_observed_within_check_interval_steps() {
        let token = CancelToken::new();
        token.cancel();
        let mut g = Governor::new(&ExecBudget::unbounded().with_cancel(token));
        let mut tripped = false;
        for _ in 0..CHECK_INTERVAL + 1 {
            if g.step().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "cancellation must surface within one check interval");
    }

    #[test]
    fn rounds_and_clauses() {
        let mut g = Governor::new(&ExecBudget::unbounded().with_rounds(3).with_clauses(100));
        g.round(3).expect("at the cap is fine");
        assert!(matches!(
            g.round(4),
            Err(ExecError::BudgetExhausted { resource: Resource::Rounds, .. })
        ));
        g.clauses(100).expect("at the cap is fine");
        assert!(matches!(
            g.clauses(101),
            Err(ExecError::BudgetExhausted { resource: Resource::Clauses, .. })
        ));
    }

    #[test]
    fn forked_workers_trip_a_global_step_cap_together() {
        // Cap of 3 * CHECK_INTERVAL; four workers each try to run
        // 2 * CHECK_INTERVAL steps. Individually each is under the cap,
        // but the flushed global total must trip at a safepoint.
        let limit = 3 * CHECK_INTERVAL;
        let lead = Governor::new(&ExecBudget::unbounded().with_steps(limit));
        let (_meter, workers) = lead.fork_shared(4);
        let mut tripped = 0;
        for mut g in workers {
            for _ in 0..2 * CHECK_INTERVAL {
                if g.step().is_err() {
                    tripped += 1;
                    break;
                }
            }
        }
        assert!(tripped >= 1, "global cap never observed across workers");
    }

    #[test]
    fn absorb_restores_exact_sequential_totals() {
        let budget = ExecBudget::unbounded().with_steps(10_000);
        let mut lead = Governor::new(&budget);
        lead.steps_n(5).expect("prefix");
        let (_meter, mut workers) = lead.fork_shared(2);
        for (i, g) in workers.iter_mut().enumerate() {
            for _ in 0..(i + 1) * 3 {
                g.step().expect("worker step");
            }
            g.row().expect("worker row");
        }
        for g in &workers {
            lead.absorb(&g.consumption()).expect("under budget");
        }
        // 5 + (3 + 1) + (6 + 1) steps, 2 rows (row() also steps).
        assert_eq!(lead.steps_consumed(), 16);
        assert_eq!(lead.rows_consumed(), 2);
    }

    #[test]
    fn forked_workers_share_the_cancel_token() {
        let token = CancelToken::new();
        let lead = Governor::new(&ExecBudget::unbounded().with_cancel(token.clone()));
        let (_meter, mut workers) = lead.fork_shared(3);
        token.cancel();
        for g in &mut workers {
            assert!(matches!(g.check_now(), Err(ExecError::Cancelled { .. })));
        }
    }

    #[test]
    fn hard_deadline_trips_as_deadline_exceeded() {
        let at = crate::deadline_in(std::time::Duration::ZERO);
        let mut g = Governor::new(&ExecBudget::unbounded().with_deadline_at(at));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(g.check_now(), Err(ExecError::DeadlineExceeded { .. })));
    }

    #[test]
    fn hard_deadline_is_distinct_from_wall_cap() {
        // A generous wall cap plus an already-passed hard deadline must
        // report DeadlineExceeded, not WallClock exhaustion.
        let at = crate::deadline_in(std::time::Duration::ZERO);
        let budget = ExecBudget::unbounded()
            .with_wall(std::time::Duration::from_secs(3600))
            .with_deadline_at(at);
        let mut g = Governor::new(&budget);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(g.check_now(), Err(ExecError::DeadlineExceeded { .. })));
    }

    #[test]
    fn attach_shared_meters_against_a_session_pool() {
        // Two sequential "requests" share a session meter with a
        // combined step cap; each request alone is under the cap.
        let meter = Arc::new(SharedMeter::new());
        let session = ExecBudget::unbounded().with_steps(10);
        let mut r1 = Governor::attach_shared(&session, &meter);
        r1.steps_n(6).expect("request 1 under the session cap");
        r1.publish();
        assert_eq!(meter.steps(), 6);

        let mut r2 = Governor::attach_shared(&session, &meter);
        assert!(
            matches!(
                r2.steps_n(6),
                Err(ExecError::BudgetExhausted { resource: Resource::Steps, .. })
            ),
            "request 2 must see request 1's published consumption"
        );
    }

    #[test]
    fn attached_governor_keeps_its_own_deadline() {
        let meter = Arc::new(SharedMeter::new());
        let session = ExecBudget::unbounded();
        let expired = session
            .clone()
            .with_deadline_at(crate::deadline_in(std::time::Duration::ZERO));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut doomed = Governor::attach_shared(&expired, &meter);
        assert!(matches!(doomed.check_now(), Err(ExecError::DeadlineExceeded { .. })));
        // A sibling request without the deadline is unaffected.
        let mut fine = Governor::attach_shared(&session, &meter);
        fine.check_now().expect("no deadline on this request");
    }

    #[test]
    fn wall_clock_deadline_trips() {
        let mut g = Governor::new(&ExecBudget::unbounded().with_wall(std::time::Duration::ZERO));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(
            g.check_now(),
            Err(ExecError::BudgetExhausted { resource: Resource::WallClock, .. })
        ));
    }
}
