//! The engine metrics registry: atomically-updated counters and
//! duration statistics, shared by every instrumented crate through the
//! [`crate::Telemetry`] handle.
//!
//! The inventory is a closed enum rather than string keys: updating a
//! counter is one relaxed atomic add with no hashing or allocation, so
//! metering is safe to leave on inside the chase round loop. Snapshots
//! render to a `BTreeMap` with stable snake-case names, which is what
//! the JSON-lines dump and the tests key on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::histogram::Histogram;

/// Monotonic counters the engine exports. Names in snapshots are the
/// lowercase snake-case of the variant (see [`Counter::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Fixpoint rounds executed by the chase (st chase counts 1).
    ChaseRounds,
    /// Tgd activations: firings that inserted at least one tuple.
    ChaseFirings,
    /// Labeled nulls minted by chase firings.
    ChaseNullsMinted,
    /// Tuples inserted by the chase (delta size summed over rounds).
    ChaseDeltaTuples,
    /// Engine chase-plan cache hits.
    PlanCacheHits,
    /// Engine chase-plan cache misses (compiles).
    PlanCacheMisses,
    /// SO-tgd clauses emitted by composition splicing.
    ComposeClausesEmitted,
    /// WAL batch frames appended.
    WalFramesAppended,
    /// WAL bytes appended (frame headers included).
    WalBytesAppended,
    /// Checkpoints completed.
    Checkpoints,
    /// Durable recoveries completed (`open_durable`).
    Recoveries,
    /// Budget steps consumed by completed governed operations.
    BudgetStepsConsumed,
    /// Budget rows consumed by completed governed operations.
    BudgetRowsConsumed,
    /// Workers that participated in parallel pool runs (summed per run;
    /// a run that degraded to sequential contributes 1).
    ParallelWorkers,
    /// Successful work steals across all parallel pool runs.
    ParallelSteals,
    /// Tasks executed by parallel pool runs (chunks, not tuples).
    ParallelTasks,
    /// Cached/compiled plans whose statistics drifted beyond the
    /// configured re-plan ratio (detected misestimates).
    PlanMisestimates,
    /// Plans recompiled by adaptive re-optimization (cache invalidation
    /// + costed recompile, or a mid-chase plan swap).
    PlanReplans,
}

const COUNTERS: usize = Counter::PlanReplans as usize + 1;

impl Counter {
    /// Stable snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ChaseRounds => "chase_rounds",
            Counter::ChaseFirings => "chase_firings",
            Counter::ChaseNullsMinted => "chase_nulls_minted",
            Counter::ChaseDeltaTuples => "chase_delta_tuples",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::ComposeClausesEmitted => "compose_clauses_emitted",
            Counter::WalFramesAppended => "wal_frames_appended",
            Counter::WalBytesAppended => "wal_bytes_appended",
            Counter::Checkpoints => "checkpoints",
            Counter::Recoveries => "recoveries",
            Counter::BudgetStepsConsumed => "budget_steps_consumed",
            Counter::BudgetRowsConsumed => "budget_rows_consumed",
            Counter::ParallelWorkers => "parallel_workers",
            Counter::ParallelSteals => "parallel_steals",
            Counter::ParallelTasks => "parallel_tasks",
            Counter::PlanMisestimates => "plan_misestimates",
            Counter::PlanReplans => "plan_replans",
        }
    }

    fn all() -> [Counter; COUNTERS] {
        [
            Counter::ChaseRounds,
            Counter::ChaseFirings,
            Counter::ChaseNullsMinted,
            Counter::ChaseDeltaTuples,
            Counter::PlanCacheHits,
            Counter::PlanCacheMisses,
            Counter::ComposeClausesEmitted,
            Counter::WalFramesAppended,
            Counter::WalBytesAppended,
            Counter::Checkpoints,
            Counter::Recoveries,
            Counter::BudgetStepsConsumed,
            Counter::BudgetRowsConsumed,
            Counter::ParallelWorkers,
            Counter::ParallelSteals,
            Counter::ParallelTasks,
            Counter::PlanMisestimates,
            Counter::PlanReplans,
        ]
    }
}

/// Counters for the wire front-end (`mm-server`). Kept as a separate
/// closed enum so the server can meter without widening [`Counter`]'s
/// array on engine-only deployments; snapshots render them under
/// dotted `server.*` keys with zero values elided (same discipline as
/// degradations — a snapshot from a process that never served traffic
/// carries no server rows at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ServerCounter {
    /// Connections accepted into a session slot.
    Accepted,
    /// Connections refused at accept time (session table full).
    Rejected,
    /// Requests shed by admission control before body decode.
    Shed,
    /// Requests rejected because the executor queue was full.
    QueueFull,
    /// Requests that tripped their deadline (wall cap or hard deadline).
    TimedOut,
    /// Sessions that ended with the client gone mid-request or
    /// mid-response (read/write error or EOF before a clean close).
    Disconnects,
    /// Requests that reached a worker and produced a response frame
    /// (success or typed error).
    Completed,
    /// Requests refused with `ShuttingDown` during drain.
    ShedShutdown,
}

const SERVER_COUNTERS: usize = ServerCounter::ShedShutdown as usize + 1;

impl ServerCounter {
    /// Stable snapshot key (dotted, sorts into one `server.*` block).
    pub fn name(self) -> &'static str {
        match self {
            ServerCounter::Accepted => "server.accepted",
            ServerCounter::Rejected => "server.rejected",
            ServerCounter::Shed => "server.shed",
            ServerCounter::QueueFull => "server.queue_full",
            ServerCounter::TimedOut => "server.timed_out",
            ServerCounter::Disconnects => "server.disconnects",
            ServerCounter::Completed => "server.completed",
            ServerCounter::ShedShutdown => "server.shed_shutdown",
        }
    }

    fn all() -> [ServerCounter; SERVER_COUNTERS] {
        [
            ServerCounter::Accepted,
            ServerCounter::Rejected,
            ServerCounter::Shed,
            ServerCounter::QueueFull,
            ServerCounter::TimedOut,
            ServerCounter::Disconnects,
            ServerCounter::Completed,
            ServerCounter::ShedShutdown,
        ]
    }
}

/// Counters for the update-propagation pipeline (`mm-propagate`).
/// Same discipline as [`ServerCounter`]: a separate closed enum with
/// dotted `propagate.*` snapshot keys and zero values elided, so a
/// process with no subscribers carries no propagation rows at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PropagateCounter {
    /// Change-feed events published (one per committed data batch; a
    /// bulk load publishes a single coalesced event).
    EventsPublished,
    /// Incremental delta notifications enqueued for subscribers.
    DeltasPushed,
    /// High-water mark of any subscriber queue depth (monotone max).
    QueueHighWater,
    /// Subscribers flipped to recompute-and-resync because their queue
    /// overflowed its bound (lag past the high-water bound).
    ResyncsOverflow,
    /// Subscribers flipped to recompute-and-resync because their cursor
    /// fell off the retained feed (too old to replay incrementally).
    ResyncsCursorLost,
    /// Subscribers flipped to recompute-and-resync because delta
    /// computation tripped its budget.
    ResyncsBudget,
    /// Resync snapshots actually delivered to subscribers.
    ResyncsDelivered,
    /// Subscribers flipped to recompute-and-resync because delta
    /// computation failed outright (a view that does not check against
    /// the schema, a relation the replica lacks).
    ResyncsError,
    /// Gauge, not a total: rows currently held across every
    /// subscriber's maintained views — the propagator's one
    /// per-subscriber memory cost besides the bounded queue. Rises at
    /// seed and delta, falls when a subscriber's views are dropped
    /// (degradation, bulk load, unsubscribe).
    ViewRows,
}

const PROPAGATE_COUNTERS: usize = PropagateCounter::ViewRows as usize + 1;

impl PropagateCounter {
    /// Stable snapshot key (dotted, sorts into one `propagate.*` block).
    pub fn name(self) -> &'static str {
        match self {
            PropagateCounter::EventsPublished => "propagate.events_published",
            PropagateCounter::DeltasPushed => "propagate.deltas_pushed",
            PropagateCounter::QueueHighWater => "propagate.queue_high_water",
            PropagateCounter::ResyncsOverflow => "propagate.resyncs_overflow",
            PropagateCounter::ResyncsCursorLost => "propagate.resyncs_cursor_lost",
            PropagateCounter::ResyncsBudget => "propagate.resyncs_budget",
            PropagateCounter::ResyncsDelivered => "propagate.resyncs_delivered",
            PropagateCounter::ResyncsError => "propagate.resyncs_error",
            PropagateCounter::ViewRows => "propagate.view_rows",
        }
    }

    fn all() -> [PropagateCounter; PROPAGATE_COUNTERS] {
        [
            PropagateCounter::EventsPublished,
            PropagateCounter::DeltasPushed,
            PropagateCounter::QueueHighWater,
            PropagateCounter::ResyncsOverflow,
            PropagateCounter::ResyncsCursorLost,
            PropagateCounter::ResyncsBudget,
            PropagateCounter::ResyncsDelivered,
            PropagateCounter::ResyncsError,
            PropagateCounter::ViewRows,
        ]
    }
}

/// Allocation-pressure gauges for the compact data plane. The actual
/// counts accumulate in `mm-instance` process-wide statics (telemetry
/// sits *below* the instance crate, so it cannot read them itself);
/// the engine samples the running totals at operation boundaries and
/// raises these monotone gauges via `EngineMetrics::raise_alloc`.
/// Snapshots render them under dotted `alloc.*` keys with zero values
/// elided, so a process that never spilled a tuple or interned a
/// string carries no allocation rows at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum AllocCounter {
    /// Tuples whose values spilled to a heap allocation (arity above
    /// the inline bound).
    Tuples,
    /// Distinct strings admitted to the process-wide intern pool.
    Interned,
    /// The intern pool's fill level (entries held, against its fixed
    /// capacity).
    InternEntries,
    /// Strings the pool refused for being too long: each stays owned
    /// text that hashes and compares by walking its bytes.
    InternRefusedLen,
    /// Strings the pool refused because it was full.
    InternRefusedCapacity,
}

const ALLOC_COUNTERS: usize = AllocCounter::InternRefusedCapacity as usize + 1;

impl AllocCounter {
    /// Stable snapshot key (dotted, sorts into one `alloc.*` block).
    pub fn name(self) -> &'static str {
        match self {
            AllocCounter::Tuples => "alloc.tuples",
            AllocCounter::Interned => "alloc.interned",
            AllocCounter::InternEntries => "alloc.intern_entries",
            AllocCounter::InternRefusedLen => "alloc.intern_refused_len",
            AllocCounter::InternRefusedCapacity => "alloc.intern_refused_capacity",
        }
    }

    fn all() -> [AllocCounter; ALLOC_COUNTERS] {
        [
            AllocCounter::Tuples,
            AllocCounter::Interned,
            AllocCounter::InternEntries,
            AllocCounter::InternRefusedLen,
            AllocCounter::InternRefusedCapacity,
        ]
    }
}

/// Latency/size distributions the engine exports as log-bucketed
/// [`Histogram`]s. Snapshots render each as five
/// `<name>_{p50,p90,p99,max,count}` keys, with never-observed
/// histograms elided entirely (same discipline as `server.*` rows — a
/// fresh snapshot is byte-identical to the pre-histogram era).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wire request service time (decode through response write), µs.
    ServerServiceUs,
    /// Time a request spent queued before a worker picked it up, µs.
    ServerQueueWaitUs,
    /// Duration of one chase fixpoint round (st chase counts its single
    /// pass as one round), µs.
    ChaseRoundUs,
    /// `append_batch` WAL write latency, µs.
    WalAppendUs,
    /// Checkpoint (write-new-then-swap) latency, µs.
    WalCheckpointUs,
    /// Rows carried by one pushed delta notification.
    PropagateDeltaRows,
    /// Notifications drained by one `poll` call.
    PropagatePollBatch,
}

const HISTS: usize = Hist::PropagatePollBatch as usize + 1;

impl Hist {
    /// Stable snapshot key prefix (dotted, sorts beside its subsystem).
    pub fn name(self) -> &'static str {
        match self {
            Hist::ServerServiceUs => "server.service_us",
            Hist::ServerQueueWaitUs => "server.queue_wait_us",
            Hist::ChaseRoundUs => "chase.round_us",
            Hist::WalAppendUs => "wal.append_us",
            Hist::WalCheckpointUs => "wal.checkpoint_us",
            Hist::PropagateDeltaRows => "propagate.delta_rows",
            Hist::PropagatePollBatch => "propagate.poll_batch",
        }
    }

    fn all() -> [Hist; HISTS] {
        [
            Hist::ServerServiceUs,
            Hist::ServerQueueWaitUs,
            Hist::ChaseRoundUs,
            Hist::WalAppendUs,
            Hist::WalCheckpointUs,
            Hist::PropagateDeltaRows,
            Hist::PropagatePollBatch,
        ]
    }
}

/// The wire operations `mm-server` breaks service time down by.
/// Mirrors the server's `Op` enum without depending on it — the server
/// sits *above* telemetry in the dependency graph (same pattern as
/// [`Cause`] mirroring `mm_guard::Resource`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ServerOp {
    Ping,
    Exchange,
    ExchangeBatch,
    Mediate,
    ExplainExchange,
    Script,
    PutInstance,
    InsertBatch,
    Subscribe,
    Poll,
    Ack,
    Resume,
    Unsubscribe,
    Metrics,
    Health,
    SlowLog,
    TraceGet,
}

const SERVER_OPS: usize = ServerOp::TraceGet as usize + 1;

impl ServerOp {
    /// Stable snapshot key segment (`server.op.<name>.service_us_*`).
    pub fn name(self) -> &'static str {
        match self {
            ServerOp::Ping => "ping",
            ServerOp::Exchange => "exchange",
            ServerOp::ExchangeBatch => "exchange_batch",
            ServerOp::Mediate => "mediate",
            ServerOp::ExplainExchange => "explain_exchange",
            ServerOp::Script => "script",
            ServerOp::PutInstance => "put_instance",
            ServerOp::InsertBatch => "insert_batch",
            ServerOp::Subscribe => "subscribe",
            ServerOp::Poll => "poll",
            ServerOp::Ack => "ack",
            ServerOp::Resume => "resume",
            ServerOp::Unsubscribe => "unsubscribe",
            ServerOp::Metrics => "metrics",
            ServerOp::Health => "health",
            ServerOp::SlowLog => "slow_log",
            ServerOp::TraceGet => "trace_get",
        }
    }

    fn all() -> [ServerOp; SERVER_OPS] {
        [
            ServerOp::Ping,
            ServerOp::Exchange,
            ServerOp::ExchangeBatch,
            ServerOp::Mediate,
            ServerOp::ExplainExchange,
            ServerOp::Script,
            ServerOp::PutInstance,
            ServerOp::InsertBatch,
            ServerOp::Subscribe,
            ServerOp::Poll,
            ServerOp::Ack,
            ServerOp::Resume,
            ServerOp::Unsubscribe,
            ServerOp::Metrics,
            ServerOp::Health,
            ServerOp::SlowLog,
            ServerOp::TraceGet,
        ]
    }
}

/// Duration statistics (count / total / max, in microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Timer {
    /// `Repository::checkpoint` wall time.
    Checkpoint,
    /// `Repository::open_durable` recovery wall time.
    Recovery,
    /// Whole chase invocations (st and general).
    Chase,
    /// SO-tgd composition invocations.
    Compose,
}

const TIMERS: usize = Timer::Compose as usize + 1;

impl Timer {
    /// Stable snapshot key prefix.
    pub fn name(self) -> &'static str {
        match self {
            Timer::Checkpoint => "checkpoint",
            Timer::Recovery => "recovery",
            Timer::Chase => "chase",
            Timer::Compose => "compose",
        }
    }

    fn all() -> [Timer; TIMERS] {
        [Timer::Checkpoint, Timer::Recovery, Timer::Chase, Timer::Compose]
    }
}

/// Which fallback path recorded a degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum DegradationSite {
    /// Mediator: collapsed chain degraded to hop-by-hop unfolding.
    Mediator,
    /// IVM: incremental delta rules degraded to a full recompute.
    Ivm,
    /// Propagation: incremental push degraded to recompute-and-resync.
    Propagate,
}

const SITES: usize = DegradationSite::Propagate as usize + 1;

impl DegradationSite {
    pub fn name(self) -> &'static str {
        match self {
            DegradationSite::Mediator => "mediator",
            DegradationSite::Ivm => "ivm",
            DegradationSite::Propagate => "propagate",
        }
    }

    fn all() -> [DegradationSite; SITES] {
        [DegradationSite::Mediator, DegradationSite::Ivm, DegradationSite::Propagate]
    }
}

/// The budget resource (or cancellation) that caused a degradation.
/// Mirrors `mm_guard::Resource` without depending on it — guard sits
/// *above* telemetry in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Cause {
    Steps,
    Rows,
    Rounds,
    Clauses,
    WallClock,
    Cancelled,
    Other,
}

const CAUSES: usize = Cause::Other as usize + 1;

impl Cause {
    pub fn name(self) -> &'static str {
        match self {
            Cause::Steps => "steps",
            Cause::Rows => "rows",
            Cause::Rounds => "rounds",
            Cause::Clauses => "clauses",
            Cause::WallClock => "wall_clock",
            Cause::Cancelled => "cancelled",
            Cause::Other => "other",
        }
    }

    fn all() -> [Cause; CAUSES] {
        [
            Cause::Steps,
            Cause::Rows,
            Cause::Rounds,
            Cause::Clauses,
            Cause::WallClock,
            Cause::Cancelled,
            Cause::Other,
        ]
    }
}

#[derive(Default)]
struct DurationStat {
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl DurationStat {
    fn observe(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }
}

/// The registry. One instance lives inside each enabled
/// [`crate::Telemetry`] handle; all clones of the handle share it.
#[derive(Default)]
pub struct EngineMetrics {
    counters: [AtomicU64; COUNTERS],
    server_counters: [AtomicU64; SERVER_COUNTERS],
    propagate_counters: [AtomicU64; PROPAGATE_COUNTERS],
    alloc_counters: [AtomicU64; ALLOC_COUNTERS],
    timers: [DurationStat; TIMERS],
    hists: [Histogram; HISTS],
    op_service: [Histogram; SERVER_OPS],
    degradations: [[AtomicU64; CAUSES]; SITES],
}

impl EngineMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter (relaxed; totals only).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Add `n` to a server counter (relaxed; totals only).
    #[inline]
    pub(crate) fn add_server(&self, c: ServerCounter, n: u64) {
        self.server_counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a server counter.
    pub fn get_server(&self, c: ServerCounter) -> u64 {
        self.server_counters[c as usize].load(Ordering::Relaxed)
    }

    /// Add `n` to a propagation counter (relaxed; totals only).
    #[inline]
    pub fn add_propagate(&self, c: PropagateCounter, n: u64) {
        self.propagate_counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a propagation counter to at least `v` (monotone max; used
    /// for queue-depth high-water marks).
    #[inline]
    pub fn raise_propagate(&self, c: PropagateCounter, v: u64) {
        self.propagate_counters[c as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Lower a propagation gauge by `n` — the release half of
    /// [`Self::add_propagate`] for [`PropagateCounter::ViewRows`].
    #[inline]
    pub fn sub_propagate(&self, c: PropagateCounter, n: u64) {
        self.propagate_counters[c as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value of a propagation counter.
    pub fn get_propagate(&self, c: PropagateCounter) -> u64 {
        self.propagate_counters[c as usize].load(Ordering::Relaxed)
    }

    /// Raise an allocation gauge to at least `v`. The instance-layer
    /// totals are process-wide and monotone, so concurrent samplers
    /// can race freely: `fetch_max` keeps the gauge at the freshest
    /// observed total.
    #[inline]
    pub(crate) fn raise_alloc(&self, c: AllocCounter, v: u64) {
        self.alloc_counters[c as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Current value of an allocation gauge.
    pub(crate) fn get_alloc(&self, c: AllocCounter) -> u64 {
        self.alloc_counters[c as usize].load(Ordering::Relaxed)
    }

    /// Record one duration observation, in microseconds.
    #[inline]
    pub fn observe_us(&self, t: Timer, us: u64) {
        self.timers[t as usize].observe(us);
    }

    /// Record one observation into a registered histogram.
    #[inline]
    pub fn observe_hist(&self, h: Hist, value: u64) {
        self.hists[h as usize].observe(value);
    }

    /// Record one per-op service-time observation (µs).
    #[inline]
    pub fn observe_op_service_us(&self, op: ServerOp, us: u64) {
        self.op_service[op as usize].observe(us);
    }

    /// Record one degradation at `site` attributed to `cause`.
    #[inline]
    pub fn degradation(&self, site: DegradationSite, cause: Cause) {
        self.degradations[site as usize][cause as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Total degradations recorded at `site`, across causes.
    pub fn degradations_at(&self, site: DegradationSite) -> u64 {
        self.degradations[site as usize]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Degradations recorded at `site` for one specific `cause`.
    pub fn degradations_by(&self, site: DegradationSite, cause: Cause) -> u64 {
        self.degradations[site as usize][cause as usize].load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every metric under stable names:
    /// counters as-is, timers as `<name>_{count,total_us,max_us}`,
    /// degradations as `degradations_<site>_<cause>` (zero rows elided).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = BTreeMap::new();
        for c in Counter::all() {
            values.insert(c.name().to_string(), self.get(c));
        }
        for t in Timer::all() {
            let s = &self.timers[t as usize];
            values.insert(format!("{}_count", t.name()), s.count.load(Ordering::Relaxed));
            values.insert(format!("{}_total_us", t.name()), s.total_us.load(Ordering::Relaxed));
            values.insert(format!("{}_max_us", t.name()), s.max_us.load(Ordering::Relaxed));
        }
        for c in ServerCounter::all() {
            let v = self.get_server(c);
            if v != 0 {
                values.insert(c.name().to_string(), v);
            }
        }
        for c in PropagateCounter::all() {
            let v = self.get_propagate(c);
            if v != 0 {
                values.insert(c.name().to_string(), v);
            }
        }
        for c in AllocCounter::all() {
            let v = self.get_alloc(c);
            if v != 0 {
                values.insert(c.name().to_string(), v);
            }
        }
        for h in Hist::all() {
            snapshot_hist(&mut values, h.name(), &self.hists[h as usize]);
        }
        for op in ServerOp::all() {
            let name = format!("server.op.{}.service_us", op.name());
            snapshot_hist(&mut values, &name, &self.op_service[op as usize]);
        }
        for site in DegradationSite::all() {
            for cause in Cause::all() {
                let v = self.degradations_by(site, cause);
                if v != 0 {
                    values.insert(
                        format!("degradations_{}_{}", site.name(), cause.name()),
                        v,
                    );
                }
            }
        }
        MetricsSnapshot { values }
    }
}

/// Render one histogram as its five stable keys, eliding it entirely
/// when nothing was ever observed so fresh snapshots stay byte-stable.
fn snapshot_hist(values: &mut BTreeMap<String, u64>, name: &str, h: &Histogram) {
    let s = h.summary();
    if s.count == 0 {
        return;
    }
    values.insert(format!("{name}_p50"), s.p50);
    values.insert(format!("{name}_p90"), s.p90);
    values.insert(format!("{name}_p99"), s.p99);
    values.insert(format!("{name}_max"), s.max);
    values.insert(format!("{name}_count"), s.count);
}

/// A point-in-time metric dump with stable, sorted keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub values: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Value under a stable key, defaulting to 0 for unknown keys.
    pub fn value(&self, key: &str) -> u64 {
        self.values.get(key).copied().unwrap_or(0)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = EngineMetrics::new();
        m.add(Counter::ChaseRounds, 3);
        m.add(Counter::ChaseRounds, 2);
        m.add(Counter::PlanCacheHits, 1);
        assert_eq!(m.get(Counter::ChaseRounds), 5);
        let snap = m.snapshot();
        assert_eq!(snap.value("chase_rounds"), 5);
        assert_eq!(snap.value("plan_cache_hits"), 1);
        assert_eq!(snap.value("plan_cache_misses"), 0);
    }

    #[test]
    fn timers_track_count_total_max() {
        let m = EngineMetrics::new();
        m.observe_us(Timer::Checkpoint, 100);
        m.observe_us(Timer::Checkpoint, 50);
        let snap = m.snapshot();
        assert_eq!(snap.value("checkpoint_count"), 2);
        assert_eq!(snap.value("checkpoint_total_us"), 150);
        assert_eq!(snap.value("checkpoint_max_us"), 100);
    }

    #[test]
    fn server_counters_are_zero_elided_and_sorted() {
        let m = EngineMetrics::new();
        assert!(
            !m.snapshot().values.keys().any(|k| k.starts_with("server.")),
            "a process that never served traffic must carry no server rows"
        );
        m.add_server(ServerCounter::Shed, 3);
        m.add_server(ServerCounter::Accepted, 1);
        let snap = m.snapshot();
        assert_eq!(snap.value("server.shed"), 3);
        assert_eq!(snap.value("server.accepted"), 1);
        assert!(!snap.values.contains_key("server.timed_out"), "zero elided");
        let server_keys: Vec<&String> =
            snap.values.keys().filter(|k| k.starts_with("server.")).collect();
        let mut sorted = server_keys.clone();
        sorted.sort();
        assert_eq!(server_keys, sorted, "BTreeMap keeps server.* keys sorted");
    }

    #[test]
    fn propagate_counters_are_zero_elided_and_high_water_is_monotone() {
        let m = EngineMetrics::new();
        assert!(
            !m.snapshot().values.keys().any(|k| k.starts_with("propagate.")),
            "a process with no subscribers must carry no propagate rows"
        );
        m.add_propagate(PropagateCounter::EventsPublished, 2);
        m.raise_propagate(PropagateCounter::QueueHighWater, 7);
        m.raise_propagate(PropagateCounter::QueueHighWater, 3);
        let snap = m.snapshot();
        assert_eq!(snap.value("propagate.events_published"), 2);
        assert_eq!(snap.value("propagate.queue_high_water"), 7, "max, not sum");
        assert!(!snap.values.contains_key("propagate.deltas_pushed"), "zero elided");
        m.add_propagate(PropagateCounter::ViewRows, 5);
        m.sub_propagate(PropagateCounter::ViewRows, 2);
        assert_eq!(m.snapshot().value("propagate.view_rows"), 3, "a gauge: falls as well");
        m.sub_propagate(PropagateCounter::ViewRows, 3);
        assert!(!m.snapshot().values.contains_key("propagate.view_rows"), "zero elided");
    }

    #[test]
    fn alloc_gauges_are_zero_elided_and_monotone() {
        let m = EngineMetrics::new();
        assert!(
            !m.snapshot().values.keys().any(|k| k.starts_with("alloc.")),
            "a process that never allocated must carry no alloc rows"
        );
        m.raise_alloc(AllocCounter::Tuples, 10);
        m.raise_alloc(AllocCounter::Tuples, 4);
        m.raise_alloc(AllocCounter::Interned, 3);
        m.raise_alloc(AllocCounter::InternRefusedLen, 2);
        let snap = m.snapshot();
        assert_eq!(snap.value("alloc.tuples"), 10, "max, not last-write");
        assert_eq!(snap.value("alloc.interned"), 3);
        assert_eq!(snap.value("alloc.intern_refused_len"), 2);
        assert!(!snap.values.contains_key("alloc.intern_refused_capacity"), "zero elided");
    }

    #[test]
    fn histograms_are_zero_elided_and_render_five_keys() {
        let m = EngineMetrics::new();
        assert!(
            !m.snapshot().values.keys().any(|k| k.contains("service_us")
                || k.contains("queue_wait")
                || k.contains("round_us")),
            "never-observed histograms must be elided entirely"
        );
        m.observe_hist(Hist::ServerQueueWaitUs, 10);
        m.observe_hist(Hist::ServerQueueWaitUs, 500);
        m.observe_op_service_us(ServerOp::Ping, 7);
        let snap = m.snapshot();
        assert_eq!(snap.value("server.queue_wait_us_count"), 2);
        assert_eq!(snap.value("server.queue_wait_us_max"), 500);
        assert!(snap.value("server.queue_wait_us_p50") <= snap.value("server.queue_wait_us_p99"));
        assert_eq!(snap.value("server.op.ping.service_us_count"), 1);
        assert_eq!(snap.value("server.op.ping.service_us_p99"), 7);
        assert!(
            !snap.values.contains_key("server.op.exchange.service_us_count"),
            "untouched per-op banks stay elided"
        );
    }

    #[test]
    fn degradations_bucket_by_site_and_cause() {
        let m = EngineMetrics::new();
        m.degradation(DegradationSite::Mediator, Cause::Clauses);
        m.degradation(DegradationSite::Mediator, Cause::Clauses);
        m.degradation(DegradationSite::Ivm, Cause::Steps);
        assert_eq!(m.degradations_at(DegradationSite::Mediator), 2);
        assert_eq!(m.degradations_by(DegradationSite::Ivm, Cause::Steps), 1);
        let snap = m.snapshot();
        assert_eq!(snap.value("degradations_mediator_clauses"), 2);
        assert_eq!(snap.value("degradations_ivm_steps"), 1);
    }
}
