//! The retained change feed: every committed data batch, in commit
//! order, kept up to a bounded retention.
//!
//! The feed is *volatile* — it is an in-memory window over the durable
//! WAL, not a second log. What survives a restart is the subscription
//! registry and the instances themselves (journaled by
//! `mm-repository`); a cursor that points below the retained window
//! after a restart or a long disconnect is exactly the "fell off the
//! feed" case the propagator degrades to recompute-and-resync.

use mm_runtime::Delta;
use std::collections::VecDeque;

/// What a feed event carries.
#[derive(Debug, Clone)]
pub enum ChangeKind {
    /// An insert-only delta against the tracked instance. A bulk insert
    /// batch is one coalesced event no matter how many tuples it
    /// carries — loaders cannot flood subscribers with per-tuple
    /// events.
    Delta(Delta),
    /// The instance was created or replaced wholesale (bulk load): a
    /// single coalesced event; incremental state before it is void.
    Loaded,
}

/// One committed change, identified by its commit sequence — the same
/// sequence number the WAL frame carries in durable mode.
#[derive(Debug, Clone)]
pub struct FeedEvent {
    pub seq: u64,
    /// Name of the tracked instance the event touches.
    pub instance: String,
    pub kind: ChangeKind,
}

/// A bounded, ordered window of recent [`FeedEvent`]s.
#[derive(Debug)]
pub struct ChangeFeed {
    events: VecDeque<FeedEvent>,
    retain: usize,
    last_seq: u64,
}

impl ChangeFeed {
    /// An empty feed retaining at most `retain` events (at least 1).
    pub fn new(retain: usize) -> Self {
        ChangeFeed { events: VecDeque::new(), retain: retain.max(1), last_seq: 0 }
    }

    /// Append one event, evicting the oldest beyond the retention
    /// bound. Sequences must be strictly increasing; a stale or
    /// duplicate sequence is refused (returns false) rather than
    /// corrupting the window's ordering invariant.
    pub fn publish(&mut self, event: FeedEvent) -> bool {
        if self.last_seq != 0 && event.seq <= self.last_seq {
            return false;
        }
        self.last_seq = event.seq;
        self.events.push_back(event);
        while self.events.len() > self.retain {
            self.events.pop_front();
        }
        true
    }

    /// Sequence of the most recent event, 0 if none was ever published.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Sequence of the oldest retained event, if any.
    pub fn floor(&self) -> Option<u64> {
        self.events.front().map(|e| e.seq)
    }

    /// Is `cursor` still on the retained window — i.e. does the feed
    /// hold every event after it? A cursor at or past the newest event
    /// is trivially on the feed (nothing to replay).
    pub(crate) fn covers(&self, cursor: u64) -> bool {
        if cursor >= self.last_seq {
            return true;
        }
        match self.floor() {
            // every event after `cursor` is retained iff the window
            // starts at or before the first event past the cursor
            Some(floor) => cursor + 1 >= floor,
            None => false,
        }
    }

    /// Events strictly after `cursor`, oldest first.
    pub fn since(&self, cursor: u64) -> impl Iterator<Item = &FeedEvent> {
        self.events.iter().filter(move |e| e.seq > cursor)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the window empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn ev(seq: u64) -> FeedEvent {
        FeedEvent { seq, instance: "I".into(), kind: ChangeKind::Loaded }
    }

    #[test]
    fn retention_evicts_oldest_and_floor_tracks() {
        let mut feed = ChangeFeed::new(3);
        assert!(feed.is_empty());
        for s in 1..=5 {
            assert!(feed.publish(ev(s)));
        }
        assert_eq!(feed.len(), 3);
        assert_eq!(feed.floor(), Some(3));
        assert_eq!(feed.last_seq(), 5);
    }

    #[test]
    fn covers_matches_retained_window() {
        let mut feed = ChangeFeed::new(3);
        for s in 1..=5 {
            feed.publish(ev(s));
        }
        // retained: 3, 4, 5
        assert!(feed.covers(5), "at the tip");
        assert!(feed.covers(9), "past the tip");
        assert!(feed.covers(2), "first missing event is 3, which is retained");
        assert!(!feed.covers(1), "event 2 fell off");
        assert!(!feed.covers(0));
        assert_eq!(feed.since(3).map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn stale_sequences_are_refused() {
        let mut feed = ChangeFeed::new(4);
        assert!(feed.publish(ev(7)));
        assert!(!feed.publish(ev(7)), "duplicate");
        assert!(!feed.publish(ev(3)), "regression");
        assert_eq!(feed.len(), 1);
    }
}
