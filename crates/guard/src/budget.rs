//! Budget declarations.

use std::time::{Duration, Instant};

use crate::CancelToken;

/// Resource caps for one governed operation (or a pipeline of them).
///
/// All caps are optional; [`ExecBudget::unbounded`] is the identity
/// budget that only ever fails through its [`CancelToken`]. The wall
/// clock cap is anchored at construction time (`with_wall`), so a
/// budget threaded through several operators bounds their *combined*
/// elapsed time, not each one separately.
#[derive(Debug, Clone)]
pub struct ExecBudget {
    pub(crate) max_steps: Option<u64>,
    pub(crate) max_rows: Option<u64>,
    pub(crate) max_rounds: Option<u64>,
    pub(crate) max_clauses: Option<u64>,
    pub(crate) deadline: Option<Instant>,
    /// Absolute cutoff imposed from outside (a request timeout). Trips
    /// as [`crate::ExecError::DeadlineExceeded`], unlike `deadline`
    /// which trips as a `WallClock` budget exhaustion.
    pub(crate) hard_deadline: Option<Instant>,
    pub(crate) cancel: CancelToken,
}

/// An absolute deadline `d` from now on the shared monotonic clock
/// ([`mm_telemetry::clock`]) — the clock [`ExecBudget::with_deadline_at`]
/// and the telemetry spans read, so a deadline computed here and the
/// governor that enforces it agree on elapsed time.
pub fn deadline_in(d: Duration) -> Instant {
    mm_telemetry::clock::now() + d
}

impl ExecBudget {
    /// No caps; cancellable only.
    pub fn unbounded() -> Self {
        ExecBudget {
            max_steps: None,
            max_rows: None,
            max_rounds: None,
            max_clauses: None,
            deadline: None,
            hard_deadline: None,
            cancel: CancelToken::new(),
        }
    }

    /// Cap logical work units (atom instantiations, join probes).
    pub fn with_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Cap materialized tuples.
    pub fn with_rows(mut self, n: u64) -> Self {
        self.max_rows = Some(n);
        self
    }

    /// Cap fixpoint rounds (chase iterations).
    pub fn with_rounds(mut self, n: u64) -> Self {
        self.max_rounds = Some(n);
        self
    }

    /// Cap produced clauses (SO-tgd composition output size).
    pub fn with_clauses(mut self, n: u64) -> Self {
        self.max_clauses = Some(n);
        self
    }

    /// Cap wall-clock time, measured from *now* on the shared monotonic
    /// clock ([`mm_telemetry::clock`]) — the same clock spans read, so
    /// budgets and telemetry agree on elapsed time.
    pub fn with_wall(mut self, d: Duration) -> Self {
        self.deadline = Some(mm_telemetry::clock::now() + d);
        self
    }

    /// Impose an absolute hard deadline (see [`deadline_in`]). Unlike
    /// [`ExecBudget::with_wall`], which anchors at construction and
    /// reports `BudgetExhausted { WallClock }`, a hard deadline is an
    /// instant fixed by the caller (e.g. a server request timeout) and
    /// trips as [`crate::ExecError::DeadlineExceeded`]. Both may be set;
    /// whichever passes first wins.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.hard_deadline = Some(at);
        self
    }

    /// Attach an externally held cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Fill in the round and clause caps where this budget sets none;
    /// caps it already has are kept.
    pub fn with_default_caps(mut self, rounds: u64, clauses: u64) -> Self {
        self.max_rounds.get_or_insert(rounds);
        self.max_clauses.get_or_insert(clauses);
        self
    }

    pub fn max_rounds(&self) -> Option<u64> {
        self.max_rounds
    }
}

impl Default for ExecBudget {
    fn default() -> Self {
        ExecBudget::unbounded()
    }
}
