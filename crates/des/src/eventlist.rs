//! The event queues: the addressable completion list and the timer store.
//!
//! ## Completions: one in-place re-keyed entry per flow
//!
//! A flow's predicted completion time changes whenever its rate does, and
//! a component re-solve re-rates every flow it touches — on the paper's
//! calibration loop that is ~1.3 re-rates per delivered event. The
//! completion list is therefore an **addressable** binary min-heap
//! ([`CompletionList`]) keyed `(time, flow)` that holds *at most one entry
//! per flow slot*: a slot→heap-position table, kept current by hole-based
//! sifts, lets [`CompletionList::set`] insert or re-key in place (sifting
//! from the entry's current position) and [`CompletionList::remove`] drop
//! a cancelled flow's entry, so every entry in the list is live and the
//! heap is never deeper than the number of flows that hold a rate.
//! Simultaneous completions pop in id order, which is deterministic but —
//! since ids pack the slot generation in their high bits — not the flow
//! *start* order once slots recycle.
//!
//! Why not a lazy heap (push a fresh stamped entry per re-rate, skim the
//! stranded ones on pop)? Measured on `calib-paper`, that design popped
//! 7.93 M entries for 3.42 M events and held up to ~2 200 entries for at
//! most 96 rated flows — a flow whose share *rose* leaves a far-future
//! corpse that stays buried — and its push + pop took 73% of the run's
//! CPU samples (36% here, sifts and re-key arithmetic together).
//!
//! ## Timers: the backend seam
//!
//! Timers are never re-keyed, only cancelled (lazily, by generation — see
//! [`crate::timer`]), and their population can be orders of magnitude
//! deeper than the flow set (one release timer per arrival of an
//! open-loop horizon). Their store is the two-backend [`EventQueue`], and
//! [`EventListBackend`] selects *its* structure only:
//!
//! * **Heap** — `std`'s binary heap, the default and the differential
//!   oracle. A hand-rolled 4-ary d-heap was benchmarked against it on the
//!   CMS chunk-stream workload and lost by ~30% (std's hole-based sift
//!   loops are extremely well tuned), and so did a *naive* fixed-width
//!   calendar queue; keeping the type behind this module boundary is what
//!   made those experiments five-line swaps.
//! * **Calendar** — a Brown-style calendar queue whose bucket width is
//!   retuned in O(1) from an incrementally-maintained inter-pop gap
//!   estimate (no sampling walk over the population), and whose day
//!   doubles by rebuilding but halves by merging physical bucket pairs
//!   in place. O(1) amortized push/pop when the width matches the event
//!   density, which is the steady-state serving regime (large,
//!   slowly-drifting event populations) the heap's O(log n) sift starts
//!   to feel.
//! * **Auto** — starts on the heap and migrates to the calendar when the
//!   live population crosses a high-water mark, so short runs keep the
//!   heap's low constants and long steady-state runs get the calendar.
//!
//! Pops are **order-identical** across backends: the entry `Ord` is a
//! total order written inverted (min-first, so no structure needs
//! `Reverse` wrappers), equal times always hash to the same calendar
//! bucket, and each bucket is kept sorted by the same `Ord` — so every
//! trace hash in the repo is invariant under the backend choice (pinned by
//! the differential oracle in this module's tests and by
//! `tests/eventlist_backends.rs`).

use crate::ids::FlowId;

/// Which backing store the engine's **timer** queue uses (completions live
/// in the addressable [`CompletionList`], outside this seam). Selected per
/// run via `SimConfig` / `exp sweep --event-list`; the default heap is the
/// differential oracle every other backend must match pop-for-pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventListBackend {
    /// `std::collections::BinaryHeap` (default; the oracle).
    #[default]
    Heap,
    /// Auto-tuned Brown-style calendar queue.
    Calendar,
    /// Heap until the live population crosses a high-water mark, then
    /// calendar.
    Auto,
}

impl EventListBackend {
    /// Stable lowercase label (codec / CLI / CSV form).
    pub fn as_str(self) -> &'static str {
        match self {
            EventListBackend::Heap => "heap",
            EventListBackend::Calendar => "calendar",
            EventListBackend::Auto => "auto",
        }
    }
}

impl std::str::FromStr for EventListBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "heap" => Ok(EventListBackend::Heap),
            "calendar" => Ok(EventListBackend::Calendar),
            "auto" => Ok(EventListBackend::Auto),
            other => Err(format!("unknown event-list backend '{other}' (heap|calendar|auto)")),
        }
    }
}

impl std::fmt::Display for EventListBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A flow's scheduled completion: the one entry its slot holds in the
/// [`CompletionList`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Completion {
    pub time: f64,
    pub flow: FlowId,
}

impl Completion {
    /// Strict `(time, flow)` order. Times are never NaN (a completion time
    /// is `now + remaining / rate` with `rate > 0`), so the float compare
    /// is total here.
    #[inline]
    fn before(&self, other: &Completion) -> bool {
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

    /// Earliest entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<Completion> {
        self.heap.first().copied()
    }

    /// Schedule `flow`'s completion at `time`: insert its entry, or re-key
    /// the one its slot already holds and sift from where it sits.
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
        } else {
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

/// Live population at which an [`EventListBackend::Auto`] queue migrates
/// from the heap to the calendar. Complete-mode scenarios (a few hundred
/// live timers at most) stay on the heap; multi-day horizon runs that
/// schedule thousands of release timers cross it immediately.
pub(crate) const AUTO_HIGH_WATER: usize = 512;

/// An entry the timer store can hold. `Ord` must be a **total order written
/// inverted** (the earliest entry compares greatest) so a plain std
/// max-heap pops min-first; the calendar relies on the same inversion to
/// keep each bucket's earliest entry at the `Vec` tail.
pub(crate) trait EventKey: Ord + Copy {
    /// The entry's absolute simulated time (the bucket-mapping key).
    fn time(&self) -> f64;
}

/// Operation counters an [`EventQueue`] accumulates; merged into
/// [`crate::Stats`] by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QueueCounters {
    /// Entries pushed.
    pub pushes: u64,
    /// Entries popped (including entries the caller then drops as stale).
    pub pops: u64,
    /// Calendar resizes: day doubling/halving, width retunes, and the
    /// auto backend's heap→calendar migration.
    pub resizes: u64,
    /// Fruitless full-day calendar scans that fell back to a direct
    /// search over every bucket (the "overflow bucket" pathology a
    /// fixed-width calendar suffers; retuning keeps this near zero).
    pub overflow_hits: u64,
}

/// Smallest calendar day (bucket count); always a power of two.
const MIN_BUCKETS: usize = 16;
/// EWMA weight of the newest observed inter-pop gap in the width
/// estimate. 1/8 follows the serving regime within a few dozen pops
/// without letting one outlier gap move the width much.
const GAP_ALPHA: f64 = 0.125;

/// Brown-style calendar queue. Each bucket is kept sorted by the inverted
/// entry `Ord` (earliest at the `Vec` tail), so the per-bucket minimum
/// pops in O(1) and ties inside a bucket break exactly like the heap.
///
/// Bucket mapping is by **virtual bucket number** `floor(time / width)`
/// (physical index = virtual & mask). The dequeue scan walks virtual
/// buckets from the cursor and compares virtual bucket numbers — never
/// rounded window edges — so the scan can neither skip nor double-visit
/// an event regardless of floating-point rounding: equal times share a
/// bucket, and all events of virtual bucket `v` sort strictly before all
/// events of `v' > v`.
#[derive(Debug)]
struct Calendar<T> {
    buckets: Vec<Vec<T>>,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: usize,
    /// Bucket width in simulated seconds (> 0, finite).
    width: f64,
    len: usize,
    /// Scan cursor: no live entry has a virtual bucket below this.
    cur_vb: i64,
    /// Memoized physical bucket holding the current minimum (set by a
    /// successful scan, invalidated by any push/pop).
    min_memo: Option<usize>,
    /// Scratch for resize/migration (kept allocated).
    scratch: Vec<T>,
    /// EWMA of observed inter-pop gaps (`0.0` until the first strictly
    /// positive gap) — the O(1) width estimate a retune reads.
    gap_ewma: f64,
    /// Time of the most recent pop (`NAN` before the first pop).
    last_pop: f64,
    /// Extremes of every timestamp pushed since the last clear; the
    /// width bootstrap while no pop gap has been observed yet.
    t_min: f64,
    t_max: f64,
}

impl<T: EventKey> Default for Calendar<T> {
    fn default() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            len: 0,
            cur_vb: i64::MIN,
            min_memo: None,
            scratch: Vec::new(),
            gap_ewma: 0.0,
            last_pop: f64::NAN,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
        }
    }
}

impl<T: EventKey> Calendar<T> {
    /// Drop all entries, keeping every bucket allocation.
    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.cur_vb = i64::MIN;
        self.min_memo = None;
        self.gap_ewma = 0.0;
        self.last_pop = f64::NAN;
        self.t_min = f64::INFINITY;
        self.t_max = f64::NEG_INFINITY;
    }

    /// Virtual bucket of a timestamp. The float→int cast saturates, so
    /// times beyond the representable range all collapse into one bucket
    /// — still correct (in-bucket order is the full `Ord`), just slower.
    #[inline]
    fn virtual_bucket(&self, t: f64) -> i64 {
        (t / self.width).floor() as i64
    }

    fn push(&mut self, e: T, counters: &mut QueueCounters) {
        let t = e.time();
        if t < self.t_min {
            self.t_min = t;
        }
        if t > self.t_max {
            self.t_max = t;
        }
        let vb = self.virtual_bucket(t);
        let b = (vb as usize) & self.mask;
        // Inverted Ord: ascending sort order is descending time, so the
        // earliest entry lands at the tail. The order is total, so only
        // `Err` positions occur in practice.
        let pos = match self.buckets[b].binary_search(&e) {
            Ok(p) | Err(p) => p,
        };
        self.buckets[b].insert(pos, e);
        self.len += 1;
        self.min_memo = None;
        if vb < self.cur_vb || self.len == 1 {
            self.cur_vb = vb;
        }
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2, counters);
        }
    }

    #[inline]
    fn peek(&mut self, counters: &mut QueueCounters) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        let b = self.find_min_bucket(counters);
        self.buckets[b].last()
    }

    fn pop(&mut self, counters: &mut QueueCounters) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let b = self.find_min_bucket(counters);
        let e = self.buckets[b].pop().expect("min bucket is non-empty");
        self.len -= 1;
        self.min_memo = None;
        let t = e.time();
        self.cur_vb = self.virtual_bucket(t);
        // Feed the incremental width estimate: the gap between successive
        // pops is exactly the event density the next scans will see.
        // `NAN < t` is false, so the first pop only seeds `last_pop`.
        let gap = t - self.last_pop;
        if gap > 0.0 && gap.is_finite() {
            self.gap_ewma = if self.gap_ewma > 0.0 {
                self.gap_ewma + (gap - self.gap_ewma) * GAP_ALPHA
            } else {
                gap
            };
        }
        self.last_pop = t;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.consolidate(counters);
        }
        Some(e)
    }

    /// Physical bucket holding the global minimum entry (`len > 0`).
    ///
    /// Walks virtual buckets from the cursor for one full day. A bucket
    /// tail qualifies iff its virtual bucket number equals the one under
    /// scan — the first qualifying tail is the entry with the globally
    /// smallest virtual bucket, and within a virtual bucket the tail *is*
    /// the `Ord` minimum. A fruitless full-day scan (population spread
    /// over more than one day — the overflow pathology) falls back to a
    /// direct search over all bucket tails.
    fn find_min_bucket(&mut self, counters: &mut QueueCounters) -> usize {
        if let Some(b) = self.min_memo {
            return b;
        }
        let n = self.buckets.len();
        for k in 0..n {
            let vb = self.cur_vb.saturating_add(k as i64);
            let b = (vb as usize) & self.mask;
            if let Some(e) = self.buckets[b].last() {
                if self.virtual_bucket(e.time()) == vb {
                    self.cur_vb = vb;
                    self.min_memo = Some(b);
                    return b;
                }
            }
        }
        counters.overflow_hits += 1;
        let mut best: Option<usize> = None;
        for (i, bucket) in self.buckets.iter().enumerate() {
            if let Some(e) = bucket.last() {
                // Inverted Ord: greater = earlier.
                if best.is_none_or(|bb| *e > *self.buckets[bb].last().expect("non-empty")) {
                    best = Some(i);
                }
            }
        }
        let b = best.expect("len > 0");
        self.cur_vb = self.virtual_bucket(self.buckets[b].last().expect("non-empty").time());
        self.min_memo = Some(b);
        b
    }

    /// Rebuild with `new_n` buckets, retuning the width from the sampled
    /// inter-event gap near the head of the queue (Brown's rule): the
    /// day only works when a bucket holds O(1) events of the *current*
    /// serving regime, and the head density is what the next pops see.
    fn resize(&mut self, new_n: usize, counters: &mut QueueCounters) {
        counters.resizes += 1;
        self.scratch.clear();
        for b in &mut self.buckets {
            self.scratch.append(b);
        }
        self.retune_width();
        if new_n > self.buckets.len() {
            self.buckets.resize_with(new_n, Vec::new);
        } else {
            self.buckets.truncate(new_n);
        }
        self.mask = new_n - 1;
        self.len = 0;
        self.min_memo = None;
        let mut min_vb = i64::MAX;
        let mut events = std::mem::take(&mut self.scratch);
        for e in events.drain(..) {
            let vb = self.virtual_bucket(e.time());
            min_vb = min_vb.min(vb);
            let b = (vb as usize) & self.mask;
            let pos = match self.buckets[b].binary_search(&e) {
                Ok(p) | Err(p) => p,
            };
            self.buckets[b].insert(pos, e);
            self.len += 1;
        }
        self.scratch = events;
        self.cur_vb = min_vb;
    }

    /// Estimate a new bucket width in O(1) from incrementally-maintained
    /// state: the EWMA of observed inter-pop gaps (the density the next
    /// pops will actually see), bootstrapped from the pushed time span
    /// while no gap has been observed yet (growth before the first pop).
    /// Spreads a few events per bucket, like Brown's sampled rule did,
    /// without walking any entries. Degenerate state (no positive gap,
    /// no span) keeps the current width.
    fn retune_width(&mut self) {
        let w = if self.gap_ewma > 0.0 {
            3.0 * self.gap_ewma
        } else if self.t_max > self.t_min && self.len > 0 {
            3.0 * (self.t_max - self.t_min) / self.len as f64
        } else {
            return;
        };
        if w.is_finite() && w > 0.0 {
            self.width = w;
        }
    }

    /// Halve the day by merging each upper-half bucket into its
    /// lower-half partner. Physical buckets `b` and `b + n/2` hold
    /// exactly the virtual buckets that collide once the top mask bit
    /// drops, and the width is untouched — so this is an O(moved
    /// entries) consolidation of a sparse day, not the full re-bucketing
    /// rebuild that growth performs. `cur_vb` stays valid: virtual
    /// bucket numbers never change, only their physical mapping.
    fn consolidate(&mut self, counters: &mut QueueCounters) {
        counters.resizes += 1;
        let half = self.buckets.len() / 2;
        for b in 0..half {
            let hi = std::mem::take(&mut self.buckets[b + half]);
            if hi.is_empty() {
                continue;
            }
            if self.buckets[b].is_empty() {
                self.buckets[b] = hi;
            } else {
                // Entries are `Copy` and the order total, so an unstable
                // re-sort of the merged pair reproduces the bucket
                // invariant (earliest at the tail) exactly.
                self.buckets[b].extend(hi);
                self.buckets[b].sort_unstable();
            }
        }
        self.buckets.truncate(half);
        self.mask = half - 1;
        self.min_memo = None;
    }
}

/// Min-first event queue with a selectable backend. Both the heap and
/// calendar structures are kept allocated for the queue's lifetime, so
/// [`EventQueue::clear`] (and the auto backend's migration) never
/// re-allocates across `Engine::reset` reuse.
#[derive(Debug)]
pub(crate) struct EventQueue<T: EventKey> {
    policy: EventListBackend,
    /// Whether the calendar is the live structure right now.
    on_calendar: bool,
    heap: std::collections::BinaryHeap<T>,
    cal: Calendar<T>,
    counters: QueueCounters,
}

impl<T: EventKey> Default for EventQueue<T> {
    fn default() -> Self {
        Self::with_backend(EventListBackend::default())
    }
}

impl<T: EventKey> EventQueue<T> {
    pub fn with_backend(policy: EventListBackend) -> Self {
        EventQueue {
            policy,
            on_calendar: policy == EventListBackend::Calendar,
            heap: std::collections::BinaryHeap::new(),
            cal: Calendar::default(),
            counters: QueueCounters::default(),
        }
    }

    /// Switch the backend policy, migrating any live entries. Pop order
    /// is backend-invariant, so this is observable only through timing
    /// and the calendar counters.
    pub fn set_backend(&mut self, policy: EventListBackend) {
        self.policy = policy;
        let want_cal = policy == EventListBackend::Calendar;
        if self.on_calendar != want_cal {
            let mut scratch_counters = QueueCounters::default();
            if want_cal {
                for e in std::mem::take(&mut self.heap) {
                    self.cal.push(e, &mut scratch_counters);
                }
            } else {
                while let Some(e) = self.cal.pop(&mut scratch_counters) {
                    self.heap.push(e);
                }
                self.cal.clear();
            }
            self.on_calendar = want_cal;
        }
    }

    /// Drop all entries and counters, keeping allocations (including the
    /// inactive backend's). An auto queue reverts to the heap so reused
    /// engines replay the migration deterministically.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cal.clear();
        self.on_calendar = self.policy == EventListBackend::Calendar;
        self.counters = QueueCounters::default();
    }

    /// Operation counters accumulated since the last [`EventQueue::clear`].
    #[inline]
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Earliest entry, if any.
    #[inline]
    pub fn peek(&mut self) -> Option<&T> {
        if self.on_calendar {
            self.cal.peek(&mut self.counters)
        } else {
            self.heap.peek()
        }
    }

    /// Insert an entry.
    #[inline]
    pub fn push(&mut self, e: T) {
        self.counters.pushes += 1;
        if self.on_calendar {
            self.cal.push(e, &mut self.counters);
        } else {
            self.heap.push(e);
            if self.policy == EventListBackend::Auto && self.heap.len() > AUTO_HIGH_WATER {
                self.counters.resizes += 1;
                for ev in std::mem::take(&mut self.heap) {
                    self.cal.push(ev, &mut self.counters);
                }
                self.on_calendar = true;
            }
        }
    }

    /// Remove and return the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let e = if self.on_calendar { self.cal.pop(&mut self.counters) } else { self.heap.pop() };
        if e.is_some() {
            self.counters.pops += 1;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local [`EventQueue`] key: `(time, id, seq)`, inverted like
    /// every queue entry. `seq` only makes the order total when a schedule
    /// repeats a `(time, id)` pair.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Key {
        time: f64,
        id: u64,
        seq: u32,
    }

    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .time
                .total_cmp(&self.time)
                .then_with(|| other.id.cmp(&self.id))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl EventKey for Key {
        fn time(&self) -> f64 {
            self.time
        }
    }

    type Queue = EventQueue<Key>;

    fn entry(time: f64, id: u64) -> Key {
        Key { time, id, seq: 0 }
    }

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
        }
    }

    fn backends() -> [EventListBackend; 3] {
        [EventListBackend::Heap, EventListBackend::Calendar, EventListBackend::Auto]
    }

    #[test]
    fn pops_in_time_order() {
        for b in backends() {
            let mut q = Queue::with_backend(b);
            for (t, f) in [(3.0, 0), (1.0, 1), (2.0, 2), (0.5, 3), (2.5, 4)] {
                q.push(entry(t, f));
            }
            let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
            assert_eq!(times, vec![0.5, 1.0, 2.0, 2.5, 3.0], "backend {b}");
        }
    }

    #[test]
    fn equal_times_pop_in_id_order() {
        for b in backends() {
            let mut q = Queue::with_backend(b);
            for f in [5u64, 1, 9, 3, 7] {
                q.push(entry(1.0, f));
            }
            q.push(entry(0.5, 100));
            let flows: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.id)).collect();
            assert_eq!(flows, vec![100, 1, 3, 5, 7, 9], "backend {b}");
        }
    }

    #[test]
    fn interleaved_push_pop_is_total_ordered() {
        // Pseudo-random push/pop mix: every pop must be <= every entry
        // still in the list (with the (time, id) order).
        for backend in backends() {
            let mut q = Queue::with_backend(backend);
            let mut x = 0x2545_f491u64;
            let mut live = 0usize;
            let mut last: Option<(f64, u64)> = None;
            for step in 0..10_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if !x.is_multiple_of(3) || live == 0 {
                    let t = (x % 1000) as f64 / 7.0;
                    q.push(entry(t, u64::from(step)));
                    live += 1;
                    // A new earlier key may arrive after pops; reset the watermark.
                    if let Some(l) = last {
                        if (t, u64::from(step)) < l {
                            last = Some((t, u64::from(step)));
                        }
                    }
                } else {
                    let e = q.pop().expect("live entries remain");
                    live -= 1;
                    if let Some(l) = last {
                        assert!((e.time, e.id) >= l, "order violated on {backend}");
                    }
                    last = Some((e.time, e.id));
                }
            }
            let mut prev = f64::NEG_INFINITY;
            while let Some(e) = q.pop() {
                assert!(e.time >= prev);
                prev = e.time;
            }
        }
    }

    #[test]
    fn clear_keeps_working() {
        for b in backends() {
            let mut q = Queue::with_backend(b);
            q.push(entry(1.0, 1));
            q.clear();
            assert!(q.peek().is_none());
            q.push(entry(2.0, 2));
            assert_eq!(q.pop().unwrap().time, 2.0);
        }
    }

    #[test]
    fn auto_migrates_at_the_high_water_mark() {
        let mut q = Queue::with_backend(EventListBackend::Auto);
        for i in 0..(AUTO_HIGH_WATER as u64) {
            q.push(entry(i as f64 * 0.25, i));
        }
        assert!(!q.on_calendar, "below the mark the heap serves");
        assert_eq!(q.counters().resizes, 0);
        q.push(entry(7.0, 9999));
        assert!(q.on_calendar, "crossing the mark migrates to the calendar");
        assert!(q.counters().resizes >= 1);
        let mut prev = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!(e.time >= prev);
            prev = e.time;
            n += 1;
        }
        assert_eq!(n, AUTO_HIGH_WATER + 1);
    }

    #[test]
    fn auto_reverts_to_heap_on_clear() {
        let mut q = Queue::with_backend(EventListBackend::Auto);
        for i in 0..=(AUTO_HIGH_WATER as u64) {
            q.push(entry(i as f64, i));
        }
        assert!(q.on_calendar);
        q.clear();
        assert!(!q.on_calendar, "a cleared auto queue replays the migration");
        assert_eq!(q.counters(), QueueCounters::default());
    }

    #[test]
    fn set_backend_migrates_live_entries_both_ways() {
        let mut q = Queue::with_backend(EventListBackend::Heap);
        for (t, f) in [(3.0, 0), (1.0, 1), (1.0, 2), (0.25, 3)] {
            q.push(entry(t, f));
        }
        q.set_backend(EventListBackend::Calendar);
        assert_eq!(q.pop().unwrap().id, 3);
        q.set_backend(EventListBackend::Heap);
        let flows: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.id)).collect();
        assert_eq!(flows, vec![1, 2, 0]);
    }

    #[test]
    fn calendar_counts_pushes_pops_and_resizes() {
        let mut q = Queue::with_backend(EventListBackend::Calendar);
        // Enough entries to force several day doublings (> 2 * buckets).
        for i in 0..200u64 {
            q.push(entry((i % 37) as f64 * 0.5, i));
        }
        let c = q.counters();
        assert_eq!(c.pushes, 200);
        assert!(c.resizes >= 2, "200 entries over 16 starting buckets must grow: {c:?}");
        while q.pop().is_some() {}
        assert_eq!(q.counters().pops, 200);
    }

    #[test]
    fn width_retunes_from_the_incremental_pop_gap_estimate() {
        let mut q = Queue::with_backend(EventListBackend::Calendar);
        // Uniform 0.5 s gaps: every observed pop gap is exactly 0.5, so
        // the EWMA stays exactly 0.5 whatever the weight.
        for i in 0..24u64 {
            q.push(entry(i as f64 * 0.5, i));
        }
        for _ in 0..8 {
            q.pop();
        }
        assert_eq!(q.cal.gap_ewma, 0.5);
        // The next growth retune reads the estimate: width = 3 * gap.
        for i in 100..(100 + 2 * MIN_BUCKETS as u64) {
            q.push(entry(i as f64 * 0.5, i));
        }
        assert_eq!(q.cal.width, 1.5);
    }

    #[test]
    fn consolidation_halves_the_day_and_preserves_pop_order() {
        let mut q = Queue::with_backend(EventListBackend::Calendar);
        // Grow well past MIN_BUCKETS, then drain low enough to force
        // several consolidations on the way down.
        for i in 0..300u64 {
            q.push(entry((i % 97) as f64 * 0.25, i));
        }
        assert!(q.cal.buckets.len() > MIN_BUCKETS);
        let grow_resizes = q.counters().resizes;
        let mut prev = entry(f64::NEG_INFINITY, 0);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!(e.time >= prev.time, "pop order violated after consolidation");
            prev = e;
            n += 1;
        }
        assert_eq!(n, 300);
        assert_eq!(q.cal.buckets.len(), MIN_BUCKETS, "a drained day shrinks to the minimum");
        assert!(
            q.counters().resizes > grow_resizes,
            "draining must consolidate: {:?}",
            q.counters()
        );
    }

    #[test]
    fn calendar_survives_widely_spread_times() {
        // Times spanning many orders of magnitude exercise the fruitless
        // full-day scan and its direct-search fallback.
        let mut q = Queue::with_backend(EventListBackend::Calendar);
        let times = [1e-6, 3.0, 4096.0, 2.5e7, 9.9e11, 0.125, 6e4];
        for (i, &t) in times.iter().enumerate() {
            q.push(entry(t, i as u64));
        }
        let mut sorted = times;
        sorted.sort_unstable_by(f64::total_cmp);
        let popped: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(popped, sorted);
    }

    /// Differential harness: feed the identical schedule of pushes and
    /// pops to a heap-backed and a calendar-backed queue and demand
    /// bit-identical pop sequences (the property every trace hash in the
    /// repo rests on). Exact-tie timestamps and recycled slot ids with
    /// bumped generations are injected deliberately.
    fn differential_schedule(seed: u64, steps: u32) {
        let mut oracle = Queue::with_backend(EventListBackend::Heap);
        let mut cal = Queue::with_backend(EventListBackend::Calendar);
        let mut auto = Queue::with_backend(EventListBackend::Auto);
        let mut x = seed | 1;
        let mut live = 0usize;
        for step in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 5 < 3 || live == 0 {
                // Coarse timestamp grid => plenty of exact ties; low slot
                // ids recycle across generations like timer slots do.
                let t = (x >> 8) % 64;
                let slot = (x >> 20) % 24;
                let generation = (x >> 40) % 4;
                let e =
                    Key { time: t as f64 * 0.125, id: (generation << 32) | slot, seq: step % 7 };
                oracle.push(e);
                cal.push(e);
                auto.push(e);
                live += 1;
            } else {
                let a = oracle.pop().expect("live entries");
                let b = cal.pop().expect("live entries");
                let c = auto.pop().expect("live entries");
                assert_eq!(a, b, "calendar diverged from heap at step {step} (seed {seed:#x})");
                assert_eq!(a, c, "auto diverged from heap at step {step} (seed {seed:#x})");
                live -= 1;
            }
        }
        loop {
            let (a, b, c) = (oracle.pop(), cal.pop(), auto.pop());
            assert_eq!(a, b);
            assert_eq!(a, c);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_pops_bit_identical_to_heap() {
        for seed in [0x9e37_79b9u64, 0xdead_beef, 0x5_ca1e, 0x0bad_cafe, 1, 0xffff_ffff] {
            differential_schedule(seed, 4000);
        }
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        /// One schedule step: `Some` pushes an entry built from a coarse
        /// time grid (deliberately tie-rich), a small slot pool recycled
        /// across generations (like timer slots), and a sequence stamp;
        /// `None` pops from every backend and compares.
        fn schedule() -> impl Strategy<Value = Vec<Option<(u32, u32, u32, u32)>>> {
            proptest::collection::vec(
                proptest::option::of((0u32..96, 0u32..16, 0u32..4, 0u32..8)),
                1..400,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The heap is the oracle: calendar and auto must reproduce
            /// its pop sequence bit-for-bit under any interleaving of
            /// pushes and pops, exact-tie timestamps included.
            #[test]
            fn backends_pop_bit_identically(steps in schedule()) {
                let mut heap = Queue::with_backend(EventListBackend::Heap);
                let mut cal = Queue::with_backend(EventListBackend::Calendar);
                let mut auto = Queue::with_backend(EventListBackend::Auto);
                for (i, step) in steps.iter().enumerate() {
                    match *step {
                        Some((grid, slot, generation, seq)) => {
                            let e = Key {
                                time: f64::from(grid) * 0.0625,
                                id: (u64::from(generation) << 32) | u64::from(slot),
                                seq,
                            };
                            heap.push(e);
                            cal.push(e);
                            auto.push(e);
                        }
                        None => {
                            let a = heap.pop();
                            prop_assert_eq!(a, cal.pop(), "calendar diverged at step {}", i);
                            prop_assert_eq!(a, auto.pop(), "auto diverged at step {}", i);
                        }
                    }
                }
                loop {
                    let a = heap.pop();
                    prop_assert_eq!(a, cal.pop(), "calendar diverged in the drain");
                    prop_assert_eq!(a, auto.pop(), "auto diverged in the drain");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
