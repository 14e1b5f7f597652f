//! Timer queue: (time, sequence) entries with lazy cancellation, backed
//! by the two-backend [`EventQueue`] (timers are what the
//! [`EventListBackend`] knob selects a store for).
//! Sequence numbers break ties deterministically so runs are reproducible
//! regardless of allocation order.
//!
//! Cancellation is **generation-tagged**, not set-based: each timer owns a
//! slot in a small generation array, queue entries carry the generation
//! they were issued under, and cancelling bumps the slot's generation so
//! the stale entry no longer matches. Popping therefore costs two array
//! reads per entry — no hashing on the hot path, which matters for
//! arrival-heavy scenarios that fire one release timer per job.

use crate::eventlist::{EventKey, EventListBackend, EventQueue, QueueCounters};
use crate::ids::{FlowId, Tag, TimerId};

/// What a timer does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// Deliver a [`crate::Event::TimerFired`] to the caller.
    User(Tag),
    /// Internal: a pending flow's latency elapsed; activate it.
    ActivateFlow(FlowId),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    /// Global insertion sequence — the deterministic tie-breaker.
    seq: u64,
    /// Slot in the generation array this timer occupies.
    slot: u32,
    /// Generation the slot had when the timer was scheduled; the entry is
    /// live iff it still matches.
    generation: u32,
    kind: TimerKind,
}

// Inverted ordering (earliest = greatest), as the shared queue requires:
// earlier time first, then lower sequence number. `(time, seq)` is
// already a total order — sequences are unique.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl EventKey for Entry {
    #[inline]
    fn time(&self) -> f64 {
        self.time
    }
}

/// Min-first timer queue with generation-tagged lazy cancellation.
#[derive(Debug, Default)]
pub(crate) struct TimerQueue {
    queue: EventQueue<Entry>,
    /// Current generation of each slot. A queue entry whose generation
    /// differs from its slot's current one is cancelled (or already
    /// popped) and is dropped when it reaches the front.
    slot_gen: Vec<u32>,
    /// Slots with no live entry, available for reuse. A slot becomes free
    /// when its live entry pops or is cancelled; the stale queue entry (if
    /// any) is harmless because its generation no longer matches.
    free_slots: Vec<u32>,
    next_seq: u64,
    /// Stale (cancelled/retired) entries dropped by the skim.
    stale_drops: u64,
}

impl TimerQueue {
    #[cfg(test)]
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the backing store (see [`EventListBackend`]); live entries
    /// migrate, so this is safe at any point.
    pub fn set_backend(&mut self, backend: EventListBackend) {
        self.queue.set_backend(backend);
    }

    /// Queue operation counters plus the stale-drop count.
    pub fn counters(&self) -> (QueueCounters, u64) {
        (self.queue.counters(), self.stale_drops)
    }

    /// Drop every scheduled timer, keeping allocations. Every slot's
    /// generation is bumped, so stale [`TimerId`]s from before the clear
    /// can never cancel a new timer; sequence numbers keep increasing so
    /// tie-breaking stays globally consistent.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.stale_drops = 0;
        self.free_slots.clear();
        for (slot, g) in self.slot_gen.iter_mut().enumerate() {
            *g = g.wrapping_add(1);
            self.free_slots.push(slot as u32);
        }
    }

    pub fn schedule(&mut self, time: f64, kind: TimerKind) -> TimerId {
        assert!(time.is_finite(), "timer time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slot_gen.len()).expect("too many timers");
                self.slot_gen.push(0);
                s
            }
        };
        let generation = self.slot_gen[slot as usize];
        self.queue.push(Entry { time, seq, slot, generation, kind });
        TimerId::compose(slot, generation)
    }

    /// Cancel a timer: bump its slot's generation so the queue entry goes
    /// stale, and free the slot. Ids of already-fired (or already-
    /// cancelled) timers no longer match and are ignored.
    pub fn cancel(&mut self, id: TimerId) {
        let slot = id.slot();
        if (slot as usize) < self.slot_gen.len() && self.slot_gen[slot as usize] == id.timer_gen() {
            self.slot_gen[slot as usize] = self.slot_gen[slot as usize].wrapping_add(1);
            self.free_slots.push(slot);
        }
    }

    /// Earliest pending (non-cancelled) fire time.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.drop_stale();
        self.queue.peek().map(|e| e.time)
    }

    /// Pop the earliest pending timer.
    pub fn pop(&mut self) -> Option<(TimerId, f64, TimerKind)> {
        self.drop_stale();
        self.queue.pop().map(|e| {
            self.retire(e.slot);
            (TimerId::compose(e.slot, e.generation), e.time, e.kind)
        })
    }

    /// Pop the next timer only if it is a flow activation scheduled at
    /// exactly `time`. Lets the engine gulp a burst of same-instant
    /// activations into one settle pass without disturbing the delivery
    /// order of user timers interleaved among them.
    pub fn pop_activation_at(&mut self, time: f64) -> Option<FlowId> {
        self.drop_stale();
        match self.queue.peek() {
            Some(&Entry { time: t, slot, kind: TimerKind::ActivateFlow(id), .. }) if t == time => {
                self.queue.pop();
                self.retire(slot);
                Some(id)
            }
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// A live entry left the queue: retire its id and recycle the slot.
    #[inline]
    fn retire(&mut self, slot: u32) {
        self.slot_gen[slot as usize] = self.slot_gen[slot as usize].wrapping_add(1);
        self.free_slots.push(slot);
    }

    #[inline]
    fn drop_stale(&mut self) {
        while let Some(e) = self.queue.peek() {
            if self.slot_gen[e.slot as usize] == e.generation {
                break;
            }
            self.queue.pop();
            self.stale_drops += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimerQueue::new();
        q.schedule(3.0, TimerKind::User(Tag(3)));
        q.schedule(1.0, TimerKind::User(Tag(1)));
        q.schedule(2.0, TimerKind::User(Tag(2)));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(_, t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = TimerQueue::new();
        let a = q.schedule(1.0, TimerKind::User(Tag(10)));
        let b = q.schedule(1.0, TimerKind::User(Tag(20)));
        assert_eq!(q.pop().unwrap().0, a);
        assert_eq!(q.pop().unwrap().0, b);
    }

    #[test]
    fn cancellation_is_lazy_but_effective() {
        let mut q = TimerQueue::new();
        let a = q.schedule(1.0, TimerKind::User(Tag(1)));
        q.schedule(2.0, TimerKind::User(Tag(2)));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(2.0));
        let (_, t, kind) = q.pop().unwrap();
        assert_eq!(t, 2.0);
        assert_eq!(kind, TimerKind::User(Tag(2)));
        assert!(q.is_empty());
        assert_eq!(q.counters().1, 1, "one stale entry was skimmed");
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = TimerQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None.map(|x: (TimerId, f64, TimerKind)| x));
    }

    #[test]
    fn stale_ids_cannot_cancel_recycled_slots() {
        let mut q = TimerQueue::new();
        let a = q.schedule(1.0, TimerKind::User(Tag(1)));
        assert_eq!(q.pop().unwrap().0, a);
        // The slot is recycled for b; a's id must not be able to kill it.
        let b = q.schedule(2.0, TimerKind::User(Tag(2)));
        q.cancel(a);
        assert_eq!(q.pop().unwrap().0, b);
    }

    #[test]
    fn cancelled_slot_is_reused_without_aliasing() {
        let mut q = TimerQueue::new();
        let a = q.schedule(5.0, TimerKind::User(Tag(1)));
        q.cancel(a);
        // b reuses a's slot while a's stale entry still sits in the queue.
        let b = q.schedule(1.0, TimerKind::User(Tag(2)));
        let (id, t, _) = q.pop().unwrap();
        assert_eq!((id, t), (b, 1.0));
        assert!(q.is_empty(), "a's stale entry must have been dropped");
    }

    #[test]
    fn double_cancel_is_harmless() {
        let mut q = TimerQueue::new();
        let a = q.schedule(1.0, TimerKind::User(Tag(1)));
        q.cancel(a);
        q.cancel(a);
        let b = q.schedule(2.0, TimerKind::User(Tag(2)));
        assert_eq!(q.pop().unwrap().0, b);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_retires_outstanding_ids() {
        let mut q = TimerQueue::new();
        let a = q.schedule(1.0, TimerKind::User(Tag(1)));
        q.clear();
        assert!(q.is_empty());
        let b = q.schedule(1.0, TimerKind::User(Tag(2)));
        q.cancel(a); // stale: must not touch b even if the slot matches
        assert_eq!(q.pop().unwrap().0, b);
    }

    #[test]
    fn calendar_backend_preserves_timer_semantics() {
        for backend in [EventListBackend::Calendar, EventListBackend::Auto] {
            let mut q = TimerQueue::new();
            q.set_backend(backend);
            let a = q.schedule(1.0, TimerKind::User(Tag(10)));
            let b = q.schedule(1.0, TimerKind::User(Tag(20)));
            let c = q.schedule(0.5, TimerKind::User(Tag(30)));
            q.cancel(b);
            assert_eq!(q.pop().unwrap().0, c);
            assert_eq!(q.pop().unwrap().0, a);
            assert!(q.is_empty());
        }
    }
}
