//! Timer queue: (time, sequence) entries with lazy cancellation in one
//! `std` binary heap. Sequence numbers break ties deterministically so runs
//! are reproducible regardless of allocation order.
//!
//! The store is `std::collections::BinaryHeap` and nothing else: a
//! hand-rolled 4-ary d-heap lost to it by ~30% on the CMS chunk-stream
//! workload (std's hole-based sift loops are extremely well tuned), and a
//! Brown-style bucketed queue only pulled ahead past ~3×10⁵ pending timers
//! — 40× deeper than any scenario in the registry (verdict table in
//! ROADMAP.md).
//!
//! Cancellation is **generation-tagged**, not set-based: each timer owns a
//! slot in a small generation array, queue entries carry the generation
//! they were issued under, and cancelling bumps the slot's generation so
//! the stale entry no longer matches. Popping therefore costs two array
//! reads per entry — no hashing on the hot path, which matters for
//! arrival-heavy scenarios that fire one release timer per job.

use std::collections::BinaryHeap;

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

// Inverted ordering (earliest = greatest) so the std max-heap pops
// min-first: earlier time first, then lower sequence number. `(time, seq)` is
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

/// Min-first timer queue with generation-tagged lazy cancellation.
#[derive(Debug, Default)]
pub(crate) struct TimerQueue {
    queue: BinaryHeap<Entry>,
    /// Current generation of each slot. A queue entry whose generation
    /// differs from its slot's current one is cancelled (or already
    /// popped) and is dropped when it reaches the front.
    slot_gen: Vec<u32>,
    /// Slots with no live entry, available for reuse. A slot becomes free
    /// when its live entry pops or is cancelled; the stale queue entry (if
    /// any) is harmless because its generation no longer matches.
    free_slots: Vec<u32>,
    next_seq: u64,
    /// Entries pushed since the last [`TimerQueue::clear`].
    pub pushes: u64,
    /// Entries popped, including the stale ones the skim dropped.
    pub pops: u64,
    /// Stale (cancelled) entries dropped by the skim.
    pub stale_drops: u64,
}

impl TimerQueue {
    #[cfg(test)]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every scheduled timer, keeping allocations. Every slot's
    /// generation is bumped, so stale [`TimerId`]s from before the clear
    /// can never cancel a new timer; sequence numbers keep increasing so
    /// tie-breaking stays globally consistent.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.pushes = 0;
        self.pops = 0;
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
        self.pushes += 1;
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
        self.pop_front().map(|e| {
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
                self.pop_front();
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

    /// Remove the front entry, live or stale, counting the pop.
    #[inline]
    fn pop_front(&mut self) -> Option<Entry> {
        let e = self.queue.pop()?;
        self.pops += 1;
        Some(e)
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
            self.pop_front();
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
        assert_eq!((q.pushes, q.pops, q.stale_drops), (2, 2, 1), "one stale entry was skimmed");
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

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// One step: `(op, pick, grid)`. Times sit on a coarse grid so
        /// equal-time ties are the rule; `pick` aims cancels at any id ever
        /// issued — live, fired, cancelled or pre-`clear` alike — so stale
        /// ids keep hitting slots recycled under bumped generations.
        fn schedule() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
            proptest::collection::vec((0u32..16, 0u32..64, 0u32..24), 1..400)
        }

        struct ModelEntry {
            time: f64,
            id: TimerId,
            kind: TimerKind,
            live: bool,
        }

        /// The naive model: every entry still in the store, kept sorted by
        /// time then insertion order; a cancelled entry stays (dead) until a
        /// skim finds it at the front, exactly the laziness the counters
        /// expose.
        #[derive(Default)]
        struct Model {
            entries: Vec<ModelEntry>,
            pushes: u64,
            pops: u64,
            stale_drops: u64,
        }

        impl Model {
            fn schedule(&mut self, time: f64, id: TimerId, kind: TimerKind) {
                let at = self.entries.partition_point(|e| e.time <= time);
                self.entries.insert(at, ModelEntry { time, id, kind, live: true });
                self.pushes += 1;
            }

            fn cancel(&mut self, id: TimerId) {
                if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
                    e.live = false;
                }
            }

            /// Earliest live entry, after skimming the dead ones before it.
            fn front(&mut self) -> Option<&ModelEntry> {
                while self.entries.first().is_some_and(|e| !e.live) {
                    self.entries.remove(0);
                    self.pops += 1;
                    self.stale_drops += 1;
                }
                self.entries.first()
            }

            fn pop(&mut self) -> Option<(TimerId, f64, TimerKind)> {
                self.front()?;
                let e = self.entries.remove(0);
                self.pops += 1;
                Some((e.id, e.time, e.kind))
            }

            fn pop_activation_at(&mut self, time: f64) -> Option<FlowId> {
                match self.front() {
                    Some(&ModelEntry { time: t, kind: TimerKind::ActivateFlow(flow), .. })
                        if t == time =>
                    {
                        self.pop();
                        Some(flow)
                    }
                    _ => None,
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any schedule of schedule / cancel / pop / pop_activation_at
            /// / peek_time / clear fires exactly what a sorted model does,
            /// and the `(pushes, pops, stale_drops)` counters match the
            /// model's after every operation.
            #[test]
            fn matches_a_sorted_model(steps in schedule()) {
                let mut q = TimerQueue::new();
                let mut m = Model::default();
                let mut issued: Vec<TimerId> = Vec::new();
                for (i, &(op, pick, grid)) in steps.iter().enumerate() {
                    let time = f64::from(grid) * 0.0625;
                    match op {
                        0..=6 => {
                            let kind = if op < 5 {
                                TimerKind::User(Tag(i as u64))
                            } else {
                                TimerKind::ActivateFlow(FlowId::compose(pick, 0))
                            };
                            let id = q.schedule(time, kind);
                            prop_assert!(!issued.contains(&id), "id {:?} reissued at step {}", id, i);
                            issued.push(id);
                            m.schedule(time, id, kind);
                        }
                        7..=9 => {
                            if let Some(&id) = issued.get(pick as usize % issued.len().max(1)) {
                                q.cancel(id);
                                m.cancel(id);
                            }
                        }
                        10 | 11 => prop_assert_eq!(q.pop(), m.pop(), "pop diverged at step {}", i),
                        // 12 aims at the front entry's instant, 13 wherever
                        // the grid says.
                        12 | 13 => {
                            let at = match (op, m.front()) {
                                (12, Some(e)) => e.time,
                                _ => time,
                            };
                            prop_assert_eq!(
                                q.pop_activation_at(at),
                                m.pop_activation_at(at),
                                "activation gulp diverged at step {}", i
                            );
                        }
                        14 => prop_assert_eq!(
                            q.peek_time(),
                            m.front().map(|e| e.time),
                            "peek diverged at step {}", i
                        ),
                        _ if pick < 8 => {
                            q.clear();
                            m = Model::default();
                        }
                        _ => prop_assert_eq!(q.pop(), m.pop(), "pop diverged at step {}", i),
                    }
                    prop_assert_eq!(
                        (q.pushes, q.pops, q.stale_drops),
                        (m.pushes, m.pops, m.stale_drops),
                        "counters diverged at step {}", i
                    );
                }
                while let Some(want) = m.pop() {
                    prop_assert_eq!(q.pop(), Some(want), "drain diverged");
                }
                prop_assert_eq!(q.pop(), None);
                prop_assert_eq!((q.pushes, q.pops, q.stale_drops), (m.pushes, m.pops, m.stale_drops));
                prop_assert_eq!(q.pops, q.pushes, "everything scheduled since the last clear left");
            }
        }
    }
}
