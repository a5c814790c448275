//! The execution context one executor call runs under.

use mm_telemetry::Telemetry;

use crate::Governor;

/// Every option of an executor call, carried as data: the meter it
/// charges, where its telemetry goes, how many workers it may use,
/// whether it may re-plan mid-run, and whether it reports an EXPLAIN.
///
/// None of these changes a result. [`ExecCtx::new`] (one thread, no
/// re-planning, no report, telemetry disabled) is the reference every
/// other combination is bit-identical to; the options only change how
/// much work is done, on how many threads, and what is observed.
#[derive(Debug)]
pub struct ExecCtx<'g> {
    /// The meter every step and row is charged to. Borrowed, so a
    /// caller can fork it for a batch or attach it to a session meter
    /// and read its consumption after the call.
    pub governor: &'g mut Governor,
    /// Spans, counters and histograms of the call.
    pub telemetry: Telemetry,
    /// Degree of parallelism for body matching (`0` and `1` both mean
    /// sequential).
    pub threads: usize,
    /// Adaptive re-optimization: at every round boundary a cost-compiled
    /// plan whose body cardinalities drifted past this ratio is
    /// re-planned against live statistics. `None` never re-plans.
    pub replan_ratio: Option<f64>,
    /// Build an EXPLAIN report of the run alongside its result.
    pub explain: bool,
}

impl<'g> ExecCtx<'g> {
    /// The reference context: sequential, no re-planning, no report,
    /// telemetry disabled, metering through `governor`.
    pub fn new(governor: &'g mut Governor) -> Self {
        ExecCtx {
            governor,
            telemetry: Telemetry::disabled(),
            threads: 1,
            replan_ratio: None,
            explain: false,
        }
    }
}
