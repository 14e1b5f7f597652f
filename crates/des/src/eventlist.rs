//! The completion lists — one in-place re-keyed entry per key — and the
//! class member queue, kept in finish-tag order.
//!
//! A scheduled completion moves whenever the rate behind it does, so the
//! completion list is an **addressable** binary min-heap
//! ([`CompletionList`]) keyed `(time, flow)` that holds *at most one entry
//! per flow slot*: a slot→heap-position table, kept current by hole-based
//! sifts, lets [`CompletionList::set`] insert or re-key in place (sifting
//! from the entry's current position) and [`CompletionList::remove`] drop
//! an entry, so every entry in the list is live and the heap is never
//! deeper than the number of keys it serves. Equal times pop in id order,
//! which is deterministic but — since ids pack the slot generation in
//! their high bits — not the flow *start* order once slots recycle.
//!
//! The engine keeps two such lists (see its module docs): the **solo
//! list** (one entry per rated flow the solver rates individually, keyed
//! by completion time) and the **class list** (one entry per class with
//! members and a positive share, filed under the class's earliest member
//! — a uniform re-solve re-keys this one entry instead of one per member,
//! and [`CompletionList::replace`] re-files a class under another member
//! in a single sift).
//!
//! Why not a lazy heap (push a fresh stamped entry per re-rate, skim the
//! stranded ones on pop)? Measured on `calib-paper`, that design popped
//! 7.93 M entries for 3.42 M events and held up to ~2 200 entries for at
//! most 96 rated flows — a flow whose share *rose* leaves a far-future
//! corpse that stays buried — and its push + pop took 73% of the run's
//! CPU samples.
//!
//! ## Class members: a sorted queue, not a heap
//!
//! A class's members are never re-keyed: each holds a constant finish
//! *tag* on the class's virtual clock. They live in a [`MemberQueue`], a
//! ring buffer kept in strict `(tag, flow)` order whose front is the next
//! member due. What makes that cheap is the property the engine's
//! workloads have: **joins arrive in tag order**. A member that completes
//! sets the clock to its own tag, and its renewal joins at `v + demand`,
//! past every tag already served and, in a class of equal demands, at or
//! past every tag still queued; a first-time joiner's tag is `v` plus its
//! whole remaining demand. So a pop is a `pop_front` and most inserts a
//! `push_back`. Measured as the share of joins that land at the back, per
//! perf-ledger workload (seed 1): `sweep-steady` 97.6%, `sim-granularity`
//! 89.9%, `sweep-mixed` 64.4%, `calib-paper` 51.5%, `calib-reduced`
//! 44.8%. The largest class held 64 members, and a join that lands
//! mid-queue moved 0.6–3.2 entries on average (the ring buffer shifts the
//! shorter side). The addressable heap this replaces sank the newest,
//! largest tag through every level on each pop and rewrote the position
//! table at each one.
//!
//! ## Timers live elsewhere
//!
//! Timers are never re-keyed, only cancelled, so they need no position
//! table: [`crate::timer::TimerQueue`] keeps them in one `std` binary heap
//! with lazy, generation-tagged cancellation.

use std::collections::VecDeque;

use crate::ids::FlowId;

/// The one entry a flow slot holds in a [`CompletionList`] — a solo
/// flow's completion time or, filed under its earliest member, a class's
/// due time — or in a [`MemberQueue`]: a class member's finish tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Completion {
    pub time: f64,
    pub flow: FlowId,
}

impl Completion {
    /// Strict `(time, flow)` order. Keys are never NaN (completion times
    /// are `t + remaining / rate` with `rate > 0`, tags are sums of finite
    /// demands), so the float compare is total here.
    #[inline]
    pub fn before(&self, other: &Completion) -> bool {
        self.time < other.time || (self.time == other.time && self.flow < other.flow)
    }
}

/// Position-table sentinel: the slot holds no entry.
const NO_ENTRY: u32 = u32::MAX;

/// Addressable binary min-heap over [`Completion`]s, at most one per flow
/// slot (see the module docs). `pos[slot]` is the heap index of the slot's
/// entry; both sift loops move a *hole* and write the table once per moved
/// entry, so the table is exact after every operation.
#[derive(Debug, Default)]
pub(crate) struct CompletionList {
    heap: Vec<Completion>,
    pos: Vec<u32>,
    /// Entries inserted for a flow that held none.
    pub pushes: u64,
    /// Entries re-keyed in place (the flow already held one).
    pub rekeys: u64,
    /// Entries popped off the top (removals are not counted).
    pub pops: u64,
}

impl CompletionList {
    /// Drop all entries and counters, keeping allocations.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pos.clear();
        self.pushes = 0;
        self.rekeys = 0;
        self.pops = 0;
    }

    /// Number of flows holding an entry.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether `slot` holds an entry.
    #[cfg(test)]
    pub fn holds(&self, slot: usize) -> bool {
        self.pos.get(slot).is_some_and(|&i| i != NO_ENTRY)
    }

    /// Earliest entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<Completion> {
        self.heap.first().copied()
    }

    /// Schedule `flow`'s completion at `time`: insert its entry, or re-key
    /// the one its slot already holds and sift from where it sits (a key
    /// the entry already has is not a move and is not counted as one).
    #[inline]
    pub fn set(&mut self, flow: FlowId, time: f64) {
        debug_assert!(!time.is_nan(), "completion times are ordered by plain float compares");
        let slot = flow.index();
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, NO_ENTRY);
        }
        let e = Completion { time, flow };
        let i = self.pos[slot];
        if i == NO_ENTRY {
            self.pushes += 1;
            self.heap.push(e);
            self.sift_up(self.heap.len() - 1, e);
        } else if self.heap[i as usize] != e {
            self.rekeys += 1;
            self.sift(i as usize, e);
        }
    }

    /// Drop the entry `slot` holds, if any.
    #[inline]
    pub fn remove(&mut self, slot: usize) {
        match self.pos.get(slot) {
            Some(&i) if i != NO_ENTRY => self.take(i as usize),
            _ => {}
        }
    }

    /// Remove and return the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<Completion> {
        let top = self.peek()?;
        self.pops += 1;
        self.take(0);
        Some(top)
    }

    /// Hand the entry `slot` holds over to `flow` (which holds none), due at
    /// `time`: a removal and an insert in a single sift from where the
    /// entry sits.
    #[inline]
    pub fn replace(&mut self, slot: usize, flow: FlowId, time: f64) {
        debug_assert!(!time.is_nan(), "completion times are ordered by plain float compares");
        let i = std::mem::replace(&mut self.pos[slot], NO_ENTRY);
        debug_assert_ne!(i, NO_ENTRY, "the outgoing slot holds an entry");
        if flow.index() >= self.pos.len() {
            self.pos.resize(flow.index() + 1, NO_ENTRY);
        }
        debug_assert_eq!(self.pos[flow.index()], NO_ENTRY, "the incoming flow holds no entry");
        self.sift(i as usize, Completion { time, flow });
    }

    /// Vacate heap index `i`: the tail entry fills the hole and is sifted
    /// into place.
    fn take(&mut self, i: usize) {
        self.pos[self.heap[i].flow.index()] = NO_ENTRY;
        let tail = self.heap.pop().expect("index inside a non-empty heap");
        if i < self.heap.len() {
            self.sift(i, tail);
        }
    }

    /// Place `e` into the hole at `i`, sifting in whichever direction its
    /// key requires.
    #[inline]
    fn sift(&mut self, i: usize, e: Completion) {
        if i > 0 && e.before(&self.heap[(i - 1) / 2]) {
            self.sift_up(i, e);
        } else {
            self.sift_down(i, e);
        }
    }

    fn sift_up(&mut self, mut i: usize, e: Completion) {
        while i > 0 {
            let p = (i - 1) / 2;
            let parent = self.heap[p];
            if !e.before(&parent) {
                break;
            }
            self.heap[i] = parent;
            self.pos[parent.flow.index()] = i as u32;
            i = p;
        }
        self.heap[i] = e;
        self.pos[e.flow.index()] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, e: Completion) {
        let n = self.heap.len();
        loop {
            let mut c = 2 * i + 1;
            if c >= n {
                break;
            }
            if c + 1 < n && self.heap[c + 1].before(&self.heap[c]) {
                c += 1;
            }
            let child = self.heap[c];
            if !child.before(&e) {
                break;
            }
            self.heap[i] = child;
            self.pos[child.flow.index()] = i as u32;
            i = c;
        }
        self.heap[i] = e;
        self.pos[e.flow.index()] = i as u32;
    }
}

/// A processor-sharing class's members in strict `(tag, flow)` order (see
/// the module docs): the front is the member due next. Keys are unique —
/// each flow id joins at most once — so the order is fixed by the keys
/// alone, and a member is found again by binary search on the key it was
/// inserted under.
#[derive(Debug, Default)]
pub(crate) struct MemberQueue {
    queue: VecDeque<Completion>,
}

impl MemberQueue {
    /// Drop all members, keeping the allocation.
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// The member with the smallest key, if any.
    #[inline]
    pub fn peek(&self) -> Option<Completion> {
        self.queue.front().copied()
    }

    /// Add `flow` under finish tag `tag`: at the back when its key sorts
    /// after every member's, else at the slot a binary search finds.
    #[inline]
    pub fn insert(&mut self, flow: FlowId, tag: f64) {
        debug_assert!(!tag.is_nan(), "tags are ordered by plain float compares");
        let e = Completion { time: tag, flow };
        match self.queue.back() {
            Some(last) if e.before(last) => {
                let i = self.queue.partition_point(|m| m.before(&e));
                self.queue.insert(i, e);
            }
            _ => self.queue.push_back(e),
        }
    }

    /// Remove the member `flow`, which was inserted under `tag`.
    #[inline]
    pub fn remove(&mut self, flow: FlowId, tag: f64) {
        let key = Completion { time: tag, flow };
        let i = self.queue.partition_point(|m| m.before(&key));
        debug_assert_eq!(self.queue.get(i), Some(&key), "a member leaves under its own key");
        if self.queue.get(i) == Some(&key) {
            self.queue.remove(i);
        }
    }

    /// Remove and return the member with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<Completion> {
        self.queue.pop_front()
    }

    /// Remove and return the member with the largest key.
    #[inline]
    pub fn pop_tail(&mut self) -> Option<Completion> {
        self.queue.pop_back()
    }

    /// Whether a member sits in flow slot `slot`.
    #[cfg(test)]
    pub fn holds(&self, slot: usize) -> bool {
        self.queue.iter().any(|m| m.flow.index() == slot)
    }

    /// The members, smallest key first.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = &Completion> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The heap invariant and the position table, checked exhaustively.
    fn assert_consistent(l: &CompletionList) {
        for (i, e) in l.heap.iter().enumerate() {
            assert_eq!(l.pos[e.flow.index()], i as u32, "stale position for {e:?}");
            assert!(i == 0 || !e.before(&l.heap[(i - 1) / 2]), "heap order broken at {i}");
        }
        let held = l.pos.iter().filter(|&&p| p != NO_ENTRY).count();
        assert_eq!(held, l.heap.len(), "a slot points at an entry that is gone");
    }

    #[test]
    fn completion_list_rekeys_in_place_and_pops_in_time_then_flow_order() {
        let mut l = CompletionList::default();
        for (slot, t) in [(0u32, 3.0), (1, 1.0), (2, 2.0), (3, 2.0)] {
            l.set(FlowId::compose(slot, 0), t);
        }
        l.set(FlowId::compose(0, 0), 0.5); // earlier: to the top
        l.set(FlowId::compose(1, 0), 2.0); // later: ties with 2 and 3
        assert_consistent(&l);
        assert_eq!((l.len(), l.pushes, l.rekeys), (4, 4, 2));
        let order: Vec<usize> = std::iter::from_fn(|| l.pop().map(|e| e.flow.index())).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(l.pops, 4);
    }

    #[test]
    fn completion_list_remove_frees_the_slot_for_a_new_generation() {
        let mut l = CompletionList::default();
        l.set(FlowId::compose(0, 0), 1.0);
        l.set(FlowId::compose(1, 0), 2.0);
        l.remove(0);
        l.remove(0); // absent: no-op
        l.remove(7); // never seen: no-op
        assert_eq!(l.peek().map(|e| e.flow), Some(FlowId::compose(1, 0)));
        l.set(FlowId::compose(0, 1), 0.25);
        assert_consistent(&l);
        assert_eq!(l.pop().map(|e| e.flow), Some(FlowId::compose(0, 1)));
        assert_eq!((l.pushes, l.rekeys, l.pops), (3, 0, 1));
        l.clear();
        assert!(l.peek().is_none());
        assert_eq!((l.pushes, l.pops), (0, 0));
    }

    mod addressable {
        use super::*;
        use proptest::prelude::*;

        /// One step: `(op, slot, grid)`. Times sit on a coarse grid so
        /// equal-time ties are the rule, and 12 slots over up to 400
        /// steps recycle every slot through many generations.
        fn schedule() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
            proptest::collection::vec((0u32..6, 0u32..12, 0u32..40), 1..400)
        }

        /// The naive model: each slot's entry, the minimum found by scan.
        fn model_min(model: &[Option<Completion>]) -> Option<Completion> {
            model
                .iter()
                .flatten()
                .copied()
                .min_by(|a, b| a.time.total_cmp(&b.time).then_with(|| a.flow.cmp(&b.flow)))
        }

        /// The model's entries in `(time, flow)` order.
        fn model_sorted(model: &[Option<Completion>]) -> Vec<Completion> {
            let mut sorted: Vec<Completion> = model.iter().flatten().copied().collect();
            sorted.sort_by(|a, b| a.time.total_cmp(&b.time).then_with(|| a.flow.cmp(&b.flow)));
            sorted
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any schedule of set / re-key earlier / re-key later /
            /// remove / pop, with slots recycled under bumped generations,
            /// peeks and pops exactly what a sorted model does, and the
            /// position table is exact after every operation.
            #[test]
            fn matches_a_sorted_model(steps in schedule()) {
                let mut list = CompletionList::default();
                let mut model: Vec<Option<Completion>> = vec![None; 12];
                let mut generation = [0u32; 12];
                for (i, &(op, slot, grid)) in steps.iter().enumerate() {
                    let s = slot as usize;
                    let flow = FlowId::compose(slot, generation[s]);
                    let step = f64::from(grid + 1) * 0.0625;
                    match op {
                        // 0/1: set (insert, or re-key wherever the grid says);
                        // 2: re-key earlier; 3: re-key later.
                        0..=3 => {
                            let time = match (op, model[s]) {
                                (2, Some(e)) => e.time - step,
                                (3, Some(e)) => e.time + step,
                                _ => step,
                            };
                            list.set(flow, time);
                            model[s] = Some(Completion { time, flow });
                        }
                        4 => {
                            list.remove(s);
                            if model[s].take().is_some() {
                                generation[s] += 1;
                            }
                        }
                        _ => {
                            let want = model_min(&model);
                            prop_assert_eq!(list.pop(), want, "pop diverged at step {}", i);
                            if let Some(e) = want {
                                model[e.flow.index()] = None;
                                generation[e.flow.index()] += 1;
                            }
                        }
                    }
                    assert_consistent(&list);
                    prop_assert_eq!(list.peek(), model_min(&model), "peek diverged at step {}", i);
                }
                while let Some(want) = model_min(&model) {
                    prop_assert_eq!(list.pop(), Some(want), "drain diverged");
                    model[want.flow.index()] = None;
                    assert_consistent(&list);
                }
                prop_assert_eq!(list.pop(), None);
            }

            /// Any schedule of inserts at the back, below the back and on
            /// a tag some member already holds (the flow id breaks the
            /// tie), removals by key, pops and tail pops, with slots
            /// recycled under bumped generations, keeps exactly the
            /// model's members in strict `(tag, flow)` order.
            #[test]
            fn member_queue_matches_a_sorted_model(steps in schedule()) {
                let mut queue = MemberQueue::default();
                let mut model: Vec<Option<Completion>> = vec![None; 12];
                let mut generation = [0u32; 12];
                let (mut back, mut below, mut tied) = (0, 0, 0);
                for (i, &(op, slot, grid)) in steps.iter().enumerate() {
                    let s = slot as usize;
                    let step = f64::from(grid + 1) * 0.0625;
                    let sorted = model_sorted(&model);
                    match (op, model[s]) {
                        // 0: past the back; 1: anywhere on the grid;
                        // 2: on the tag of some member.
                        (0..=2, None) => {
                            let flow = FlowId::compose(slot, generation[s]);
                            let time = match (op, sorted.last()) {
                                (0, Some(last)) => last.time + step,
                                (2, Some(_)) => sorted[grid as usize % sorted.len()].time,
                                _ => step,
                            };
                            let e = Completion { time, flow };
                            match sorted.last() {
                                Some(last) if e.before(last) => below += 1,
                                _ => back += 1,
                            }
                            tied += usize::from(sorted.iter().any(|m| m.time == time));
                            queue.insert(flow, time);
                            model[s] = Some(e);
                        }
                        (3, Some(e)) => {
                            queue.remove(e.flow, e.time);
                            model[s] = None;
                            generation[s] += 1;
                        }
                        (4 | 5, _) => {
                            let want = if op == 4 { sorted.first() } else { sorted.last() };
                            let got = if op == 4 { queue.pop() } else { queue.pop_tail() };
                            prop_assert_eq!(got.as_ref(), want, "op {} diverged at step {}", op, i);
                            if let Some(e) = want {
                                model[e.flow.index()] = None;
                                generation[e.flow.index()] += 1;
                            }
                        }
                        _ => {}
                    }
                    let sorted = model_sorted(&model);
                    let held: Vec<Completion> = queue.iter().copied().collect();
                    prop_assert_eq!(&held, &sorted, "members diverged at step {}", i);
                    prop_assert!(held.windows(2).all(|w| w[0].before(&w[1])), "order at step {}", i);
                    prop_assert_eq!(queue.peek(), sorted.first().copied());
                    prop_assert_eq!(queue.len(), sorted.len());
                }
                prop_assert!(steps.len() < 50 || (back > 0 && below > 0 && tied > 0));
            }
        }
    }
}
