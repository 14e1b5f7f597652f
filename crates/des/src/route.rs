//! Inline small-route storage.
//!
//! Nearly every flow the simulators start routes through at most two
//! resources (a storage service, or WAN + node NIC), and compute flows
//! route through none. Routes are therefore stored inline up to
//! [`Route::INLINE`] hops and only spill to the heap beyond that, so the
//! steady-state start/complete/reissue cycle of pipelined chunk streams
//! allocates nothing — at hundreds of thousands of flows per simulation
//! the per-flow `Vec` this replaces dominated the start path. The type is
//! kept at 24 bytes (the size of a bare `Vec` header) so the flow table's
//! streaming growth in cold builds costs no more than it used to.

use crate::ids::ResourceId;

/// A flow's route: the resources it uses simultaneously, in caller order
/// (duplicates allowed — a flow listed twice consumes two shares).
#[derive(Debug, Clone)]
pub(crate) struct Route {
    len: u8,
    inline: [ResourceId; Route::INLINE],
    /// Heap storage for routes longer than [`Route::INLINE`] (rare). Boxed
    /// `Vec` rather than boxed slice: the thin pointer keeps the whole
    /// type at 24 bytes, which a fat `Box<[_]>` pointer would not.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<ResourceId>>>,
}

impl Default for Route {
    fn default() -> Self {
        Self { len: 0, inline: [ResourceId(0); Route::INLINE], spill: None }
    }
}

impl Route {
    /// Hops stored inline before spilling to the heap.
    pub const INLINE: usize = 3;

    /// A route copied from a slice of hops.
    #[inline]
    pub fn from_slice(hops: &[ResourceId]) -> Self {
        let mut r = Route::default();
        r.assign(hops);
        r
    }

    /// Replace the contents.
    #[inline]
    pub fn assign(&mut self, hops: &[ResourceId]) {
        if hops.len() <= Self::INLINE {
            self.inline[..hops.len()].copy_from_slice(hops);
            self.spill = None;
        } else {
            self.spill = Some(Box::new(hops.to_vec()));
        }
        self.len = u8::try_from(hops.len()).expect("route too long");
    }

    /// The hops as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[ResourceId] {
        if self.len as usize <= Self::INLINE {
            &self.inline[..self.len as usize]
        } else {
            self.spill.as_deref().expect("spilled route has storage").as_slice()
        }
    }

    /// Number of hops (counting duplicates).
    #[inline]
    #[allow(dead_code)] // natural companion to `is_empty`; exercised in tests
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the route is empty (a route-less compute flow).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether some resource appears more than once.
    #[inline]
    pub fn repeats_a_hop(&self) -> bool {
        let hops = self.as_slice();
        (1..hops.len()).any(|i| hops[..i].contains(&hops[i]))
    }
}

impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Route {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_stays_vec_header_sized() {
        assert!(std::mem::size_of::<Route>() <= std::mem::size_of::<Vec<ResourceId>>());
    }

    #[test]
    fn inline_routes_round_trip() {
        for n in 0..=Route::INLINE {
            let hops: Vec<ResourceId> = (0..n as u32).map(ResourceId).collect();
            let r = Route::from_slice(&hops);
            assert_eq!(r.as_slice(), &hops[..]);
            assert_eq!(r.len(), n);
            assert_eq!(r.is_empty(), n == 0);
        }
    }

    #[test]
    fn repeated_hops_are_detected_inline_and_spilled() {
        let r = |hops: &[u32]| {
            Route::from_slice(&hops.iter().map(|&h| ResourceId(h)).collect::<Vec<_>>())
        };
        assert!(!r(&[]).repeats_a_hop());
        assert!(!r(&[1, 2, 3]).repeats_a_hop());
        assert!(r(&[1, 2, 1]).repeats_a_hop());
        assert!(!r(&[0, 1, 2, 3, 4, 5]).repeats_a_hop());
        assert!(r(&[0, 1, 2, 3, 4, 3]).repeats_a_hop());
    }

    #[test]
    fn long_routes_spill() {
        let hops: Vec<ResourceId> = (0..9u32).map(ResourceId).collect();
        let r = Route::from_slice(&hops);
        assert_eq!(r.as_slice(), &hops[..]);
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn equality_ignores_stale_inline_garbage() {
        let mut a = Route::from_slice(&[ResourceId(1), ResourceId(2), ResourceId(3)]);
        a.assign(&[ResourceId(1)]);
        let b = Route::from_slice(&[ResourceId(1)]);
        assert_eq!(a, b);
        assert_ne!(a, Route::from_slice(&[ResourceId(2)]));
    }

    #[test]
    fn assign_shrinks_from_spill() {
        let long: Vec<ResourceId> = (0..8u32).map(ResourceId).collect();
        let mut r = Route::from_slice(&long);
        r.assign(&[ResourceId(7)]);
        assert_eq!(r.as_slice(), &[ResourceId(7)]);
        let taken = std::mem::take(&mut r);
        assert_eq!(taken.as_slice(), &[ResourceId(7)]);
        assert!(r.is_empty());
    }
}
