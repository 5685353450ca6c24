//! Stale-while-revalidate refresh scheduling.
//!
//! When the cache serves a stale entry, the client gets its answer
//! immediately — the cost of regeneration is moved off the query path onto
//! a **refresh task**. [`RefreshScheduler`] is the sans-IO queue of those
//! tasks: serving code [`schedule`](RefreshScheduler::schedule)s a key, a
//! driver asks [`next_due`](RefreshScheduler::next_due) how long it may
//! sleep (an instant on the simulator's virtual clock, the one
//! [`ServeStep::Wait`](super::ServeStep::Wait) carries) and
//! [`take_due`](RefreshScheduler::take_due)s the keys whose deadline has
//! passed to regenerate them in the background.
//!
//! Scheduling is idempotent per key: a key that is already queued keeps its
//! earliest deadline, so a stampede of stale hits produces one refresh.

use sdoh_netsim::SimInstant;

use super::cache::PoolKey;

/// One queued refresh: regenerate `key` at (or after) `due`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RefreshTask {
    /// The cache key to regenerate.
    pub(crate) key: PoolKey,
    /// The virtual instant from which the refresh may run.
    pub(crate) due: SimInstant,
}

/// The sans-IO refresh queue. See the module documentation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefreshScheduler {
    pending: Vec<RefreshTask>,
}

impl RefreshScheduler {
    /// Creates an empty scheduler.
    pub(crate) fn new() -> Self {
        RefreshScheduler::default()
    }

    /// Queues a refresh of `key` at `due`. Returns `true` when the key was
    /// newly queued; a key already pending keeps the earlier of the two
    /// deadlines and returns `false`.
    pub(crate) fn schedule(&mut self, key: PoolKey, due: SimInstant) -> bool {
        if let Some(task) = self.pending.iter_mut().find(|t| t.key == key) {
            if due < task.due {
                task.due = due;
            }
            return false;
        }
        self.pending.push(RefreshTask { key, due });
        true
    }

    /// The earliest pending deadline — how long a driver may wait before
    /// pumping refreshes (`None` when the queue is empty).
    pub(crate) fn next_due(&self) -> Option<SimInstant> {
        self.pending.iter().map(|t| t.due).min()
    }

    /// Removes and returns every key whose deadline is at or before `now`,
    /// in scheduling order.
    pub(crate) fn take_due(&mut self, now: SimInstant) -> Vec<PoolKey> {
        let mut due = Vec::new();
        self.pending.retain(|task| {
            if task.due <= now {
                due.push(task.key.clone());
                false
            } else {
                true
            }
        });
        due
    }

    /// Drops a pending refresh for `key`, returning whether one existed
    /// (e.g. after the entry was invalidated).
    pub(crate) fn cancel(&mut self, key: &PoolKey) -> bool {
        let before = self.pending.len();
        self.pending.retain(|t| t.key != *key);
        before != self.pending.len()
    }

    /// Number of refreshes currently queued.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::cache::AddressFamily;

    fn key(domain: &str) -> PoolKey {
        PoolKey::new(domain.parse().unwrap(), AddressFamily::V4)
    }

    fn at(secs: u64) -> SimInstant {
        SimInstant::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn schedule_dedupes_and_keeps_earliest_deadline() {
        let mut scheduler = RefreshScheduler::new();
        assert!(scheduler.schedule(key("a.test"), at(10)));
        assert!(!scheduler.schedule(key("a.test"), at(5)));
        assert!(!scheduler.schedule(key("a.test"), at(20)));
        assert_eq!(scheduler.len(), 1);
        assert_eq!(scheduler.next_due(), Some(at(5)));
    }

    #[test]
    fn take_due_returns_only_ripe_tasks() {
        let mut scheduler = RefreshScheduler::new();
        scheduler.schedule(key("a.test"), at(10));
        scheduler.schedule(key("b.test"), at(20));
        scheduler.schedule(key("c.test"), at(15));
        assert!(scheduler.take_due(at(9)).is_empty());
        let due = scheduler.take_due(at(15));
        assert_eq!(due, vec![key("a.test"), key("c.test")]);
        assert_eq!(scheduler.len(), 1);
        assert_eq!(scheduler.next_due(), Some(at(20)));
        assert_eq!(scheduler.take_due(at(100)), vec![key("b.test")]);
        assert_eq!(scheduler.len(), 0);
        assert_eq!(scheduler.next_due(), None);
    }

    #[test]
    fn cancel_removes_pending_tasks() {
        let mut scheduler = RefreshScheduler::new();
        scheduler.schedule(key("a.test"), at(10));
        assert!(scheduler.cancel(&key("a.test")));
        assert!(!scheduler.cancel(&key("a.test")));
        assert_eq!(scheduler.len(), 0);
    }
}
