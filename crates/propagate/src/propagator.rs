//! The propagator: per-subscriber bounded queues over the change feed,
//! with recompute-and-resync degradation and resumable cursors.
//!
//! Writers call [`Propagator::publish_delta`] / [`Propagator::publish_load`]
//! after each commit; consumers call [`Propagator::poll`] at their own
//! pace. The writer-side cost per subscriber is bounded: the overflow
//! check runs *before* any delta computation, so a wedged consumer
//! costs the commit path a queue-length comparison and nothing more.

use mm_eval::{eval_governed, materialize_views_governed, EvalError};
use mm_guard::{Degradation, DegradationKind, ExecBudget, ExecCtx, ExecError, Governor, Resource};
use mm_instance::{Database, Tuple};
use mm_metamodel::Schema;
use mm_repository::Subscription;
use mm_runtime::{Delta, MaintenancePlan};
use mm_telemetry::{DegradationSite, Field, Hist, PropagateCounter, Telemetry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::feed::{ChangeFeed, ChangeKind, FeedEvent};

/// How many recent feed events the propagator retains for cursor-resume
/// checks: a resume cursor older than this window degrades to
/// `Resync { CursorLost }`.
const RETAIN_EVENTS: usize = 256;

/// Tuning knobs for the propagation pipeline.
#[derive(Debug, Clone)]
pub struct PropagateConfig {
    /// Hard bound on a subscriber's notification queue. An event that
    /// would push the queue past this flips the subscriber to
    /// resync-pending instead of growing the queue.
    pub queue_bound: usize,
    /// Queue depth at which the subscriber is flagged as lagging
    /// (reported by [`PollResponse::lagging`] so the client can slow
    /// its producers or poll harder).
    pub high_water: usize,
    /// Queue depth at which the lagging flag clears.
    pub low_water: usize,
    /// Step budget for computing one event's view deltas for one
    /// subscriber — the delta rules over all its views, and the seeding
    /// of its maintained views when the event is its first after a
    /// recovery. `None` means unbounded. A view whose delta rules trip
    /// it is recomputed under a fresh meter of the same size (recorded
    /// as an `ivm.degraded` event); a trip there, or while seeding,
    /// degrades that subscriber to resync rather than failing the commit.
    pub delta_steps: Option<u64>,
}

impl Default for PropagateConfig {
    fn default() -> Self {
        PropagateConfig {
            queue_bound: 64,
            high_water: 48,
            low_water: 16,
            delta_steps: Some(200_000),
        }
    }
}

/// Why a subscriber was (or is about to be) handed a full snapshot
/// instead of incremental deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResyncCause {
    /// First delivery after subscribing: the bootstrap snapshot. Not a
    /// degradation — there is no incremental state to fall back from.
    Initial,
    /// The bounded queue overflowed (consumer too slow). Degradation.
    Overflow,
    /// The resume cursor points below what was already drained or off
    /// the retained feed. Degradation.
    CursorLost,
    /// The per-event delta budget tripped. Degradation.
    Budget,
    /// The instance was bulk-loaded/replaced wholesale; incremental
    /// state before the load is void. Not a degradation.
    Load,
    /// Delta computation failed outright (malformed view, missing
    /// relation). Degradation.
    Error,
}

impl fmt::Display for ResyncCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResyncCause::Initial => "initial",
            ResyncCause::Overflow => "overflow",
            ResyncCause::CursorLost => "cursor-lost",
            ResyncCause::Budget => "budget",
            ResyncCause::Load => "load",
            ResyncCause::Error => "error",
        };
        f.write_str(s)
    }
}

/// One message on a subscriber's queue.
#[derive(Debug, Clone)]
pub enum Notification {
    /// Incremental view inserts for one committed event. Pushed even
    /// when every view's delta is empty, so the subscriber's cursor
    /// advances through every event and coverage reasoning stays exact.
    Delta {
        seq: u64,
        /// Inserted rows per view, in view-set order.
        view_inserts: Vec<(String, Vec<Tuple>)>,
    },
    /// A full snapshot of every subscribed view, replacing all prior
    /// state. `seq` is the commit sequence the snapshot reflects.
    Resync { seq: u64, cause: ResyncCause, views: Database },
}

impl Notification {
    /// The commit sequence this notification brings the subscriber to.
    pub fn seq(&self) -> u64 {
        match self {
            Notification::Delta { seq, .. } => *seq,
            Notification::Resync { seq, .. } => *seq,
        }
    }
}

/// What [`Propagator::poll`] hands back.
#[derive(Debug)]
pub struct PollResponse {
    pub notifications: Vec<Notification>,
    /// True while the subscriber's queue sits above the high-water
    /// mark (hysteresis: clears once it drains to the low-water mark).
    pub lagging: bool,
}

/// Introspection snapshot of one subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriberStatus {
    pub id: u64,
    pub instance: String,
    /// Durable cursor: last commit sequence the client acknowledged.
    pub cursor: u64,
    /// Last commit sequence handed out by `poll`.
    pub drained_through: u64,
    pub queued: usize,
    pub lagging: bool,
    /// `Some` when the next poll will deliver a resync snapshot.
    pub resync_pending: Option<ResyncCause>,
}

/// Errors from the propagation API. Writer-side publishing never fails
/// on a per-subscriber basis — subscriber trouble degrades that
/// subscriber; these errors are caller mistakes.
#[derive(Debug)]
pub enum PropagateError {
    UnknownSubscriber(u64),
    UnknownInstance(String),
    /// Recomputing a resync snapshot failed; the subscriber stays
    /// resync-pending so a later poll can retry.
    Resync(EvalError),
}

impl fmt::Display for PropagateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropagateError::UnknownSubscriber(id) => write!(f, "unknown subscriber {id}"),
            PropagateError::UnknownInstance(name) => write!(f, "unknown instance '{name}'"),
            PropagateError::Resync(e) => write!(f, "resync recompute failed: {e}"),
        }
    }
}

impl std::error::Error for PropagateError {}

#[derive(Debug, Clone)]
enum Mode {
    Streaming,
    ResyncPending { cause: ResyncCause },
}

struct SubState {
    sub: Subscription,
    schema: Schema,
    plan: MaintenancePlan,
    /// The subscriber's views as the client holds them once it has
    /// applied everything queued: seeded from each resync snapshot,
    /// advanced by each pushed delta, and what tells a delta's new rows
    /// from re-derived ones. `None` whenever the queue was cleared and
    /// no snapshot has been delivered since, and after
    /// [`Propagator::attach_recovered`] until the first event (recovery
    /// evaluates no view).
    maintained: Option<Database>,
    queue: VecDeque<Notification>,
    mode: Mode,
    lagging: bool,
    /// Last commit sequence handed to the client by `poll` — events at
    /// or below this are gone from the queue, so a resume cursor below
    /// it cannot be served incrementally.
    drained_through: u64,
}

struct InstanceState {
    /// The propagator's replica of the tracked instance, advanced by
    /// every published event. Delta computation reads the *pre-event*
    /// replica; resync snapshots read the current one.
    base: Database,
    last_event_seq: u64,
}

struct State {
    feed: ChangeFeed,
    instances: BTreeMap<String, InstanceState>,
    subs: BTreeMap<u64, SubState>,
}

/// The propagation hub. One per engine; internally synchronized.
pub struct Propagator {
    cfg: PropagateConfig,
    tel: Telemetry,
    state: Mutex<State>,
}

impl Propagator {
    pub fn new(cfg: PropagateConfig, tel: Telemetry) -> Self {
        Propagator {
            cfg,
            tel,
            state: Mutex::new(State {
                feed: ChangeFeed::new(RETAIN_EVENTS),
                instances: BTreeMap::new(),
                subs: BTreeMap::new(),
            }),
        }
    }

    /// Start tracking `name` without publishing an event — used when
    /// re-attaching recovered state, where the instance's history is
    /// already in the WAL and must not re-notify.
    pub fn track_instance(&self, name: impl Into<String>, base: Database, seq: u64) {
        let mut st = self.state.lock();
        st.instances
            .insert(name.into(), InstanceState { base, last_event_seq: seq });
    }

    /// The instance was created or replaced wholesale at commit `seq`:
    /// one coalesced feed event, and every streaming subscriber on it
    /// flips to a (non-degradation) `Load` resync.
    pub fn publish_load(&self, seq: u64, name: &str, base: Database) {
        let mut st = self.state.lock();
        st.instances
            .insert(name.to_string(), InstanceState { base, last_event_seq: seq });
        for sub in st.subs.values_mut().filter(|s| s.sub.instance == name) {
            sub.queue.clear();
            sub.lagging = false;
            self.set_maintained(sub, None);
            if matches!(sub.mode, Mode::Streaming) {
                sub.mode = Mode::ResyncPending { cause: ResyncCause::Load };
            }
        }
        if st
            .feed
            .publish(FeedEvent { seq, instance: name.to_string(), kind: ChangeKind::Loaded })
        {
            self.count(PropagateCounter::EventsPublished, 1);
        }
    }

    /// An insert-only delta committed against `name` at sequence `seq`
    /// (one call per commit — a bulk batch is one coalesced event).
    /// Per-subscriber work is bounded and failure-isolated: overflow is
    /// checked before any delta computation, and any per-subscriber
    /// trouble degrades that subscriber to resync-pending without
    /// failing the publish.
    pub fn publish_delta(
        &self,
        seq: u64,
        name: &str,
        delta: &Delta,
    ) -> Result<(), PropagateError> {
        let mut st = self.state.lock();
        if !st.instances.contains_key(name) {
            return Err(PropagateError::UnknownInstance(name.to_string()));
        }
        let State { instances, subs, feed } = &mut *st;
        // The borrow checker can't see that `inst` and `subs` are
        // disjoint through one `&mut st`, hence the destructure above.
        let inst = match instances.get_mut(name) {
            Some(i) => i,
            None => return Err(PropagateError::UnknownInstance(name.to_string())),
        };
        for (id, sub) in subs.iter_mut().filter(|(_, s)| s.sub.instance == name) {
            if !matches!(sub.mode, Mode::Streaming) {
                continue; // already resync-pending: zero per-event work
            }
            // Backpressure first: a full queue means the consumer is
            // wedged or slow — degrade it *before* paying for deltas.
            if sub.queue.len() >= self.cfg.queue_bound {
                let cause = ExecError::BudgetExhausted {
                    resource: Resource::Rows,
                    consumed: sub.queue.len() as u64,
                    limit: self.cfg.queue_bound as u64,
                };
                self.degrade(*id, sub, ResyncCause::Overflow, cause);
                continue;
            }
            let view_inserts = match self.view_inserts(sub, &inst.base, delta) {
                Ok(view_inserts) => view_inserts,
                Err(e) => {
                    let (resync, cause) = match e {
                        EvalError::Exec(e @ ExecError::BudgetExhausted { .. }) => {
                            (ResyncCause::Budget, e)
                        }
                        EvalError::Exec(e) => (ResyncCause::Error, e),
                        e @ (EvalError::Static(_) | EvalError::MissingRelation(_)) => {
                            (ResyncCause::Error, ExecError::internal(e.to_string()))
                        }
                    };
                    self.degrade(*id, sub, resync, cause);
                    continue;
                }
            };
            let delta_rows: usize = view_inserts.iter().map(|(_, t)| t.len()).sum();
            sub.queue.push_back(Notification::Delta { seq, view_inserts });
            self.count(PropagateCounter::DeltasPushed, 1);
            self.observe(Hist::PropagateDeltaRows, delta_rows as u64);
            self.raise(PropagateCounter::QueueHighWater, sub.queue.len() as u64);
            if sub.queue.len() >= self.cfg.high_water {
                sub.lagging = true;
            }
        }
        // Advance the replica *after* deltas were computed against the
        // pre-event state (no index handle from that computation is
        // still alive, so these inserts maintain the join indexes in
        // place). Skip relations the replica lacks — replay stays total.
        for (rel, tuples) in &delta.inserts {
            if inst.base.relation(rel).is_some() {
                for t in tuples {
                    inst.base.insert(rel, t.clone());
                }
            }
        }
        inst.last_event_seq = seq;
        if feed.publish(FeedEvent {
            seq,
            instance: name.to_string(),
            kind: ChangeKind::Delta(delta.clone()),
        }) {
            self.count(PropagateCounter::EventsPublished, 1);
        }
        Ok(())
    }

    /// Register a new subscriber. Its first poll delivers the bootstrap
    /// snapshot (`ResyncCause::Initial`).
    pub fn subscribe(&self, sub: Subscription, schema: Schema) -> Result<(), PropagateError> {
        let mut st = self.state.lock();
        let inst = st
            .instances
            .get(&sub.instance)
            .ok_or_else(|| PropagateError::UnknownInstance(sub.instance.clone()))?;
        let drained_through = inst.last_event_seq;
        let plan = MaintenancePlan::compile(&sub.views, &schema);
        st.subs.insert(
            sub.id,
            SubState {
                sub,
                schema,
                plan,
                maintained: None,
                queue: VecDeque::new(),
                mode: Mode::ResyncPending { cause: ResyncCause::Initial },
                lagging: false,
                drained_through,
            },
        );
        Ok(())
    }

    /// Re-attach a subscription recovered from the durable registry.
    /// The subscriber starts streaming from *now* (the replica is
    /// already at the latest committed state); whether its durable
    /// cursor is still serviceable is decided when the client calls
    /// [`Propagator::resume`]. No view is evaluated here: the
    /// subscriber's maintained views are seeded by the first event
    /// published to it, so recovery time does not depend on the views.
    pub fn attach_recovered(
        &self,
        sub: Subscription,
        schema: Schema,
    ) -> Result<(), PropagateError> {
        let mut st = self.state.lock();
        let inst = st
            .instances
            .get(&sub.instance)
            .ok_or_else(|| PropagateError::UnknownInstance(sub.instance.clone()))?;
        let drained_through = inst.last_event_seq;
        let plan = MaintenancePlan::compile(&sub.views, &schema);
        st.subs.insert(
            sub.id,
            SubState {
                sub,
                schema,
                plan,
                maintained: None,
                queue: VecDeque::new(),
                mode: Mode::Streaming,
                lagging: false,
                drained_through,
            },
        );
        Ok(())
    }

    /// Remove a subscriber. Returns false if it was not registered.
    pub fn unsubscribe(&self, id: u64) -> bool {
        match self.state.lock().subs.remove(&id) {
            Some(mut sub) => {
                self.set_maintained(&mut sub, None);
                true
            }
            None => false,
        }
    }

    /// A client reconnected claiming it has applied everything up to
    /// `cursor`. If the queue still covers everything past the cursor,
    /// streaming continues (already-acknowledged entries are pruned);
    /// otherwise the subscriber degrades to a `CursorLost` resync.
    pub fn resume(&self, id: u64, cursor: u64) -> Result<(), PropagateError> {
        let mut st = self.state.lock();
        let State { feed, subs, .. } = &mut *st;
        let sub = subs.get_mut(&id).ok_or(PropagateError::UnknownSubscriber(id))?;
        sub.sub.cursor = sub.sub.cursor.max(cursor);
        if !matches!(sub.mode, Mode::Streaming) {
            return Ok(()); // a resync is already on the way
        }
        if cursor < sub.drained_through || !feed.covers(cursor) {
            let cause = ExecError::internal(format!(
                "resume cursor {cursor} below drained sequence {} or off the retained feed",
                sub.drained_through
            ));
            self.degrade(id, sub, ResyncCause::CursorLost, cause);
            return Ok(());
        }
        while sub.queue.front().is_some_and(|n| n.seq() <= cursor) {
            sub.queue.pop_front();
        }
        if sub.queue.len() <= self.cfg.low_water {
            sub.lagging = false;
        }
        Ok(())
    }

    /// The client durably applied everything up to `cursor`. Cursor
    /// movement is monotone; persisting it is the caller's job (the
    /// engine journals it through the repository).
    pub fn ack(&self, id: u64, cursor: u64) -> Result<(), PropagateError> {
        let mut st = self.state.lock();
        let sub = st.subs.get_mut(&id).ok_or(PropagateError::UnknownSubscriber(id))?;
        sub.sub.cursor = sub.sub.cursor.max(cursor);
        Ok(())
    }

    /// Drain up to `max` notifications. A pending resync is delivered
    /// as a single snapshot notification computed *here*, at the
    /// consumer's pace — the recompute never runs on the commit path.
    pub fn poll(&self, id: u64, max: usize) -> Result<PollResponse, PropagateError> {
        let mut st = self.state.lock();
        let State { instances, subs, .. } = &mut *st;
        let sub = subs.get_mut(&id).ok_or(PropagateError::UnknownSubscriber(id))?;
        if let Mode::ResyncPending { cause } = sub.mode.clone() {
            let inst = instances
                .get(&sub.sub.instance)
                .ok_or_else(|| PropagateError::UnknownInstance(sub.sub.instance.clone()))?;
            let mut views = Database::new(sub.sub.views.view_schema.clone());
            let budget = ExecBudget::unbounded();
            for v in &sub.plan.views().views {
                let mut gov = Governor::new(&budget);
                let rel = eval_governed(&v.expr, &sub.schema, &inst.base, &mut gov)
                    .map_err(PropagateError::Resync)?;
                views.insert_relation(v.name.clone(), rel);
            }
            let seq = inst.last_event_seq;
            // The snapshot is what the client holds from here on.
            self.set_maintained(sub, Some(views.clone()));
            sub.mode = Mode::Streaming;
            sub.queue.clear();
            sub.lagging = false;
            sub.drained_through = seq;
            self.count(PropagateCounter::ResyncsDelivered, 1);
            self.observe(Hist::PropagatePollBatch, 1);
            return Ok(PollResponse {
                notifications: vec![Notification::Resync { seq, cause, views }],
                lagging: false,
            });
        }
        let n = max.min(sub.queue.len());
        let notifications: Vec<Notification> = sub.queue.drain(..n).collect();
        if let Some(last) = notifications.last() {
            sub.drained_through = last.seq();
        }
        if sub.queue.len() <= self.cfg.low_water {
            sub.lagging = false;
        }
        self.observe(Hist::PropagatePollBatch, notifications.len() as u64);
        Ok(PollResponse { notifications, lagging: sub.lagging })
    }

    /// Introspect one subscriber.
    pub fn status(&self, id: u64) -> Result<SubscriberStatus, PropagateError> {
        let st = self.state.lock();
        let sub = st.subs.get(&id).ok_or(PropagateError::UnknownSubscriber(id))?;
        Ok(SubscriberStatus {
            id,
            instance: sub.sub.instance.clone(),
            cursor: sub.sub.cursor,
            drained_through: sub.drained_through,
            queued: sub.queue.len(),
            lagging: sub.lagging,
            resync_pending: match &sub.mode {
                Mode::Streaming => None,
                Mode::ResyncPending { cause } => Some(*cause),
            },
        })
    }

    /// Sequence of the newest published event (0 before any publish).
    pub fn last_seq(&self) -> u64 {
        self.state.lock().feed.last_seq()
    }

    /// Flip `sub` to resync-pending and record the degradation — the
    /// same discipline as the mediator and IVM fallbacks: counted by
    /// cause at the Propagate site and mirrored 1:1 as a
    /// `propagate.degraded` event.
    fn degrade(&self, id: u64, sub: &mut SubState, resync: ResyncCause, cause: ExecError) {
        sub.queue.clear();
        sub.lagging = false;
        self.set_maintained(sub, None);
        sub.mode = Mode::ResyncPending { cause: resync };
        let counter = match resync {
            ResyncCause::Overflow => PropagateCounter::ResyncsOverflow,
            ResyncCause::CursorLost => PropagateCounter::ResyncsCursorLost,
            ResyncCause::Budget => PropagateCounter::ResyncsBudget,
            ResyncCause::Error => PropagateCounter::ResyncsError,
            // Not degradations: `subscribe` and `publish_load` set these
            // modes themselves; every caller here names its cause.
            ResyncCause::Initial | ResyncCause::Load => {
                unreachable!("{resync} resync is not a degradation")
            }
        };
        self.count(counter, 1);
        let degradation = Degradation { kind: DegradationKind::PushToResync, cause };
        if let Some(m) = self.tel.metrics() {
            m.degradation(DegradationSite::Propagate, degradation.cause.telemetry_cause());
        }
        self.tel.event(
            "propagate.degraded",
            format!("subscriber:{id}"),
            vec![
                Field { key: "kind", value: degradation.kind.to_string().into() },
                Field { key: "cause", value: degradation.cause.to_string().into() },
                Field { key: "resync", value: resync.to_string().into() },
            ],
        );
    }

    /// One event's inserted rows per view for `sub`: the delta rules
    /// against the pre-event replica `base`, filtered by (and folded
    /// into) the subscriber's maintained views.
    fn view_inserts(
        &self,
        sub: &mut SubState,
        base: &Database,
        delta: &Delta,
    ) -> Result<Vec<(String, Vec<Tuple>)>, EvalError> {
        let mut budget = match self.cfg.delta_steps {
            Some(n) => ExecBudget::unbounded().with_steps(n),
            None => ExecBudget::unbounded(),
        };
        let views = match &mut sub.maintained {
            Some(views) => views,
            // First event after `attach_recovered`: the views over the
            // pre-event replica are what the resumed client holds. The
            // seeding draws on this event's budget like the delta work.
            unseeded => {
                let mut gov = Governor::new(&budget);
                let seed =
                    materialize_views_governed(sub.plan.views(), &sub.schema, base, &mut gov)?;
                if let Some(n) = self.cfg.delta_steps {
                    budget = budget.with_steps(n.saturating_sub(gov.steps_consumed()));
                }
                self.view_rows(0, seed.total_tuples());
                unseeded.insert(seed)
            }
        };
        let held = views.total_tuples();
        let mut gov = Governor::new(&budget);
        let ctx = &mut ExecCtx { telemetry: self.tel.clone(), ..ExecCtx::new(&mut gov) };
        let reports = sub.plan.maintain(&sub.schema, base, delta, views, ctx);
        self.view_rows(held, views.total_tuples());
        Ok(reports?.into_iter().map(|r| (r.view, r.inserted)).collect())
    }

    /// Install or drop `sub`'s maintained views.
    fn set_maintained(&self, sub: &mut SubState, views: Option<Database>) {
        let rows = |views: &Option<Database>| views.as_ref().map_or(0, Database::total_tuples);
        self.view_rows(rows(&sub.maintained), rows(&views));
        sub.maintained = views;
    }

    /// Move the `propagate.view_rows` gauge — rows held across every
    /// subscriber's maintained views — by one subscriber's change.
    fn view_rows(&self, before: usize, after: usize) {
        if let Some(m) = self.tel.metrics() {
            if after >= before {
                m.add_propagate(PropagateCounter::ViewRows, (after - before) as u64);
            } else {
                m.sub_propagate(PropagateCounter::ViewRows, (before - after) as u64);
            }
        }
    }

    fn count(&self, c: PropagateCounter, n: u64) {
        if let Some(m) = self.tel.metrics() {
            m.add_propagate(c, n);
        }
    }

    fn raise(&self, c: PropagateCounter, v: u64) {
        if let Some(m) = self.tel.metrics() {
            m.raise_propagate(c, v);
        }
    }

    fn observe(&self, h: Hist, v: u64) {
        if let Some(m) = self.tel.metrics() {
            m.observe_hist(h, v);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use mm_expr::{Expr, ViewDef, ViewSet};
    use mm_instance::Value;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("Base")
            .relation("R", &[("id", DataType::Int)])
            .build()
            .unwrap()
    }

    fn views() -> ViewSet {
        let mut vs = ViewSet::new("Base", "V");
        vs.push(ViewDef::new("VR", Expr::base("R")));
        vs
    }

    fn base_db() -> Database {
        let mut db = Database::empty_of(&schema());
        db.insert("R", Tuple::new(vec![Value::Int(1)]));
        db
    }

    fn delta(vals: &[i64]) -> Delta {
        let mut d = Delta::new();
        for v in vals {
            d.insert("R", Tuple::new(vec![Value::Int(*v)]));
        }
        d
    }

    fn sub(id: u64) -> Subscription {
        Subscription { id, instance: "I".into(), views: views(), cursor: 0 }
    }

    fn propagator(cfg: PropagateConfig) -> Propagator {
        let p = Propagator::new(cfg, Telemetry::disabled());
        p.track_instance("I", base_db(), 0);
        p
    }

    #[test]
    fn subscribe_bootstraps_then_streams_deltas() {
        let p = propagator(PropagateConfig::default());
        p.subscribe(sub(1), schema()).unwrap();
        let r = p.poll(1, 16).unwrap();
        assert_eq!(r.notifications.len(), 1);
        match &r.notifications[0] {
            Notification::Resync { cause, views, seq } => {
                assert_eq!(*cause, ResyncCause::Initial);
                assert_eq!(*seq, 0);
                assert_eq!(views.relation("VR").unwrap().tuples().len(), 1);
            }
            other => panic!("expected resync, got {other:?}"),
        }
        p.publish_delta(1, "I", &delta(&[2])).unwrap();
        p.publish_delta(2, "I", &delta(&[3])).unwrap();
        let r = p.poll(1, 16).unwrap();
        assert_eq!(r.notifications.len(), 2);
        match &r.notifications[1] {
            Notification::Delta { seq, view_inserts } => {
                assert_eq!(*seq, 2);
                assert_eq!(view_inserts[0].1, vec![Tuple::new(vec![Value::Int(3)])]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
        assert_eq!(p.status(1).unwrap().drained_through, 2);
    }

    #[test]
    fn overflow_degrades_without_blocking_the_writer() {
        let cfg = PropagateConfig { queue_bound: 3, high_water: 2, low_water: 1, ..Default::default() };
        let p = propagator(cfg);
        p.subscribe(sub(1), schema()).unwrap();
        p.poll(1, 16).unwrap(); // clear the bootstrap resync
        for s in 1..=10 {
            p.publish_delta(s, "I", &delta(&[s as i64 + 10])).unwrap();
        }
        let st = p.status(1).unwrap();
        assert_eq!(st.resync_pending, Some(ResyncCause::Overflow));
        assert_eq!(st.queued, 0, "queue dropped at the flip");
        // The resync snapshot reflects everything, including events
        // published after the flip.
        let r = p.poll(1, 16).unwrap();
        match &r.notifications[0] {
            Notification::Resync { cause, views, seq } => {
                assert_eq!(*cause, ResyncCause::Overflow);
                assert_eq!(*seq, 10);
                assert_eq!(views.relation("VR").unwrap().tuples().len(), 11);
            }
            other => panic!("expected resync, got {other:?}"),
        }
        // Back to streaming afterwards.
        p.publish_delta(11, "I", &delta(&[99])).unwrap();
        let r = p.poll(1, 16).unwrap();
        assert!(matches!(r.notifications[0], Notification::Delta { seq: 11, .. }));
    }

    #[test]
    fn lagging_hysteresis_sets_and_clears() {
        let cfg = PropagateConfig {
            queue_bound: 100,
            high_water: 3,
            low_water: 1,
            ..Default::default()
        };
        let p = propagator(cfg);
        p.subscribe(sub(1), schema()).unwrap();
        p.poll(1, 16).unwrap();
        for s in 1..=4 {
            p.publish_delta(s, "I", &delta(&[s as i64 + 10])).unwrap();
        }
        assert!(p.status(1).unwrap().lagging);
        let r = p.poll(1, 2).unwrap();
        assert!(r.lagging, "still above low water after draining 2 of 4");
        let r = p.poll(1, 2).unwrap();
        assert!(!r.lagging, "drained to low water");
    }

    #[test]
    fn resume_prunes_acked_entries_or_degrades() {
        let p = propagator(PropagateConfig::default());
        p.subscribe(sub(1), schema()).unwrap();
        p.poll(1, 16).unwrap();
        for s in 1..=3 {
            p.publish_delta(s, "I", &delta(&[s as i64 + 10])).unwrap();
        }
        // Client saw nothing yet (drained_through == 0), resumes at 2:
        // wait — poll drained nothing, so drained_through is 0 and the
        // queue holds 1..=3; resuming at 2 prunes 1 and 2.
        p.resume(1, 2).unwrap();
        let r = p.poll(1, 16).unwrap();
        assert_eq!(r.notifications.len(), 1);
        assert_eq!(r.notifications[0].seq(), 3);
        // Now drained_through == 3; resuming below it loses the cursor.
        p.resume(1, 1).unwrap();
        let st = p.status(1).unwrap();
        assert_eq!(st.resync_pending, Some(ResyncCause::CursorLost));
    }

    #[test]
    fn load_flips_to_semantic_resync() {
        let p = propagator(PropagateConfig::default());
        p.subscribe(sub(1), schema()).unwrap();
        p.poll(1, 16).unwrap();
        let mut replacement = Database::empty_of(&schema());
        replacement.insert("R", Tuple::new(vec![Value::Int(7)]));
        replacement.insert("R", Tuple::new(vec![Value::Int(8)]));
        p.publish_load(5, "I", replacement);
        let st = p.status(1).unwrap();
        assert_eq!(st.resync_pending, Some(ResyncCause::Load));
        let r = p.poll(1, 16).unwrap();
        match &r.notifications[0] {
            Notification::Resync { cause, views, seq } => {
                assert_eq!(*cause, ResyncCause::Load);
                assert_eq!(*seq, 5);
                assert_eq!(views.relation("VR").unwrap().tuples().len(), 2);
            }
            other => panic!("expected resync, got {other:?}"),
        }
    }

    #[test]
    fn budget_trip_degrades_only_the_slow_subscriber() {
        let cfg = PropagateConfig { delta_steps: Some(1), ..Default::default() };
        let p = propagator(cfg);
        p.subscribe(sub(1), schema()).unwrap();
        p.poll(1, 16).unwrap();
        p.publish_delta(1, "I", &delta(&[2, 3, 4])).unwrap();
        let st = p.status(1).unwrap();
        assert_eq!(st.resync_pending, Some(ResyncCause::Budget));
        let r = p.poll(1, 16).unwrap();
        assert!(matches!(
            &r.notifications[0],
            Notification::Resync { cause: ResyncCause::Budget, .. }
        ));
    }

    #[test]
    fn degradations_are_counted_and_mirrored_as_events() {
        let ring = mm_telemetry::RingCollector::with_capacity(64);
        let tel = Telemetry::new(ring.clone());
        let p = Propagator::new(
            PropagateConfig { queue_bound: 1, ..Default::default() },
            tel.clone(),
        );
        p.track_instance("I", base_db(), 0);
        p.subscribe(sub(1), schema()).unwrap();
        p.poll(1, 16).unwrap();
        p.publish_delta(1, "I", &delta(&[2])).unwrap();
        p.publish_delta(2, "I", &delta(&[3])).unwrap(); // overflows the 1-slot queue
        let m = tel.metrics().unwrap();
        assert_eq!(m.get_propagate(PropagateCounter::ResyncsOverflow), 1);
        let degraded: Vec<_> = ring
            .drain()
            .into_iter()
            .filter(|e| e.op == "propagate.degraded")
            .collect();
        assert_eq!(degraded.len(), 1, "1:1 event mirroring");
    }

    /// Each degradation cause bumps its own `propagate.resyncs_*`
    /// counter and no other — in particular a view that cannot be
    /// evaluated reads as `resyncs_error`, not as a budget trip.
    #[test]
    fn each_degradation_cause_has_its_own_counter() {
        const RESYNC_COUNTERS: [(ResyncCause, PropagateCounter); 4] = [
            (ResyncCause::Overflow, PropagateCounter::ResyncsOverflow),
            (ResyncCause::CursorLost, PropagateCounter::ResyncsCursorLost),
            (ResyncCause::Budget, PropagateCounter::ResyncsBudget),
            (ResyncCause::Error, PropagateCounter::ResyncsError),
        ];
        let run = |cfg: PropagateConfig, provoke: &dyn Fn(&Propagator)| {
            let tel = Telemetry::new(mm_telemetry::RingCollector::with_capacity(64));
            let p = Propagator::new(cfg, tel.clone());
            p.track_instance("I", base_db(), 0);
            provoke(&p);
            let pending = p.status(1).unwrap().resync_pending;
            let m = tel.metrics().unwrap();
            for (cause, counter) in RESYNC_COUNTERS {
                let want = u64::from(pending == Some(cause));
                assert_eq!(m.get_propagate(counter), want, "{counter:?} after {pending:?}");
            }
            pending
        };
        let streaming = |p: &Propagator| {
            p.subscribe(sub(1), schema()).unwrap();
            p.poll(1, 16).unwrap();
        };

        let overflow = run(PropagateConfig { queue_bound: 1, ..Default::default() }, &|p| {
            streaming(p);
            p.publish_delta(1, "I", &delta(&[2])).unwrap();
            p.publish_delta(2, "I", &delta(&[3])).unwrap();
        });
        assert_eq!(overflow, Some(ResyncCause::Overflow));

        let cursor_lost = run(PropagateConfig::default(), &|p| {
            streaming(p);
            p.publish_delta(1, "I", &delta(&[2])).unwrap();
            p.poll(1, 16).unwrap();
            p.resume(1, 0).unwrap();
        });
        assert_eq!(cursor_lost, Some(ResyncCause::CursorLost));

        let budget = run(PropagateConfig { delta_steps: Some(1), ..Default::default() }, &|p| {
            streaming(p);
            p.publish_delta(1, "I", &delta(&[2, 3, 4])).unwrap();
        });
        assert_eq!(budget, Some(ResyncCause::Budget));

        // A view over a column the schema lacks. Only a recovered
        // subscription can be streaming with one: `subscribe` would fail
        // its bootstrap poll first.
        let error = run(PropagateConfig::default(), &|p| {
            let mut broken = sub(1);
            broken.views.push(ViewDef::new("Bad", Expr::base("R").project(&["nope"])));
            p.attach_recovered(broken, schema()).unwrap();
            p.publish_delta(1, "I", &delta(&[2])).unwrap();
        });
        assert_eq!(error, Some(ResyncCause::Error));
    }

    /// A recovered subscriber evaluates nothing until its first event,
    /// which seeds its views from the pre-event replica: the delta then
    /// carries exactly the rows the resumed client does not hold.
    #[test]
    fn recovered_subscriber_seeds_on_its_first_event() {
        let ring = mm_telemetry::RingCollector::with_capacity(64);
        let tel = Telemetry::new(ring.clone());
        let p = Propagator::new(PropagateConfig::default(), tel.clone());
        p.track_instance("I", base_db(), 7);
        p.attach_recovered(sub(1), schema()).unwrap();
        let m = tel.metrics().unwrap();
        assert_eq!(m.get_propagate(PropagateCounter::ViewRows), 0);
        assert!(ring.events().is_empty(), "attaching evaluates no view: {:?}", ring.events());

        p.publish_delta(8, "I", &delta(&[1, 2])).unwrap(); // 1 is already stored
        let r = p.poll(1, 16).unwrap();
        match &r.notifications[..] {
            [Notification::Delta { seq: 8, view_inserts }] => {
                assert_eq!(view_inserts[0].1, vec![Tuple::new(vec![Value::Int(2)])]);
            }
            other => panic!("expected one delta, got {other:?}"),
        }
        assert_eq!(m.get_propagate(PropagateCounter::ViewRows), 2);
        assert_eq!(ring.events_for("ivm.maintain").len(), 1);

        // The seeding draws on the event's budget: a replica too large
        // for it degrades to a resync instead of stalling the commit.
        let tight = propagator(PropagateConfig { delta_steps: Some(3), ..Default::default() });
        tight.publish_delta(1, "I", &delta(&[2, 3, 4, 5])).unwrap();
        tight.attach_recovered(sub(1), schema()).unwrap();
        tight.publish_delta(2, "I", &delta(&[6])).unwrap();
        assert_eq!(tight.status(1).unwrap().resync_pending, Some(ResyncCause::Budget));
    }

    /// `propagate.view_rows` is the fill level of the maintained views:
    /// it follows seed, delta and every way the state is dropped.
    #[test]
    fn view_rows_gauge_follows_the_maintained_state() {
        let tel = Telemetry::new(mm_telemetry::RingCollector::with_capacity(64));
        let p = Propagator::new(
            PropagateConfig { queue_bound: 1, ..Default::default() },
            tel.clone(),
        );
        p.track_instance("I", base_db(), 0);
        let held = || tel.metrics().unwrap().get_propagate(PropagateCounter::ViewRows);
        p.subscribe(sub(1), schema()).unwrap();
        p.subscribe(sub(2), schema()).unwrap();
        assert_eq!(held(), 0, "nothing is held before the bootstrap snapshot");
        p.poll(1, 16).unwrap();
        p.poll(2, 16).unwrap();
        assert_eq!(held(), 2, "one seeded row per subscriber");
        p.publish_delta(1, "I", &delta(&[1, 2])).unwrap();
        assert_eq!(held(), 4, "the re-derived row adds nothing");
        p.poll(2, 16).unwrap();
        p.publish_delta(2, "I", &delta(&[3])).unwrap(); // overflows subscriber 1
        assert_eq!(held(), 3, "a degraded subscriber holds nothing");
        assert!(p.unsubscribe(2));
        assert_eq!(held(), 0);
        p.poll(1, 16).unwrap(); // the resync re-seeds: 1, 2, 3
        assert_eq!(held(), 3);
        p.publish_load(3, "I", base_db());
        assert_eq!(held(), 0, "a bulk load voids the maintained views");
        p.poll(1, 16).unwrap();
        assert_eq!(held(), 1);
    }

    /// The silent resync cliff (benchmark/README.md, Finding 3): the
    /// delta rules used to spend ≈ 6.3 steps per *stored* order, so the
    /// default 200 000-step budget turned every push into a resync past
    /// ≈ 31 k orders. A push now costs the same whatever is stored.
    #[test]
    fn a_batch_streams_as_a_delta_whatever_the_stored_size() {
        use mm_expr::{CmpOp, Predicate, Scalar};
        let orders_schema = SchemaBuilder::new("S")
            .relation(
                "Orders",
                &[("oid", DataType::Int), ("cust", DataType::Int), ("total", DataType::Int)],
            )
            .relation("Customers", &[("cid", DataType::Int), ("name", DataType::Text)])
            .build()
            .unwrap();
        let mut big_orders = ViewSet::new("S", "V");
        big_orders.push(ViewDef::new(
            "BigOrders",
            Expr::base("Orders")
                .select(Predicate::Cmp {
                    op: CmpOp::Gt,
                    left: Scalar::col("total"),
                    right: Scalar::lit(50i64),
                })
                .join(Expr::base("Customers"), &[("cust", "cid")])
                .project(&["oid", "name"]),
        ));
        let order = |oid: i64, cust: i64, total: i64| {
            Tuple::new(vec![Value::Int(oid), Value::Int(cust), Value::Int(total)])
        };
        let mut batch = Delta::new();
        for k in 0..10 {
            batch.insert("Orders", order(1_000_000 + k, k % 7, 45 + k));
        }
        // One subscriber on `stored` orders, bootstrapped, then the batch.
        let push = |stored: i64, cfg: PropagateConfig| {
            let ring = mm_telemetry::RingCollector::with_capacity(64);
            let tel = Telemetry::new(ring.clone());
            let p = Propagator::new(cfg, tel.clone());
            let mut db = Database::empty_of(&orders_schema);
            for c in 0..800 {
                let name = Value::text(format!("customer-{c}"));
                db.insert("Customers", Tuple::new(vec![Value::Int(c), name]));
            }
            for o in 0..stored {
                db.insert("Orders", order(o, o % 800, o % 100));
            }
            p.track_instance("I", db, 0);
            let views = big_orders.clone();
            p.subscribe(Subscription { id: 1, instance: "I".into(), views, cursor: 0 }, orders_schema.clone())
                .unwrap();
            p.poll(1, 1).unwrap(); // the bootstrap snapshot seeds the view
            p.publish_delta(1, "I", &batch).unwrap();
            let m = tel.metrics().unwrap();
            assert_eq!(m.get_propagate(PropagateCounter::ResyncsBudget), 0, "at {stored} orders");
            assert!(ring.events_for("propagate.degraded").is_empty(), "at {stored} orders");
            match p.poll(1, 16).unwrap().notifications.pop() {
                Some(Notification::Delta { view_inserts, .. }) => view_inserts,
                other => panic!("expected a delta at {stored} orders, got {other:?}"),
            }
        };
        let tight = || PropagateConfig { delta_steps: Some(2_000), ..Default::default() };
        let small = push(1_000, tight());
        assert_eq!(small[0].1.len(), 4, "totals 51..=54 pass the filter");
        assert_eq!(push(40_000, tight()), small);
        assert_eq!(push(40_000, PropagateConfig::default()), small);
    }

    #[test]
    fn publishing_to_untracked_instance_errors() {
        let p = propagator(PropagateConfig::default());
        assert!(matches!(
            p.publish_delta(1, "missing", &delta(&[1])),
            Err(PropagateError::UnknownInstance(_))
        ));
    }
}
