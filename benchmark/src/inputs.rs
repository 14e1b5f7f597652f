//! Seed → inputs, and the digests outputs are checked with.
//!
//! Everything a workload varies with `--seed` is derived here by pure
//! functions, so the same seed always gives the same inputs and the
//! program under test only ever sees generated inputs, never the seed.

use simcal_workload::ExecutionTrace;

/// splitmix64 of `seed` and a stream index: independent sub-seeds for the
/// ground-truth noise and every cache placement of one run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming FNV-1a 64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a list of per-item digests: a workload's result fingerprint.
pub fn fingerprint(items: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &i in items {
        h.u64(i);
    }
    h.finish()
}

/// Digest of everything simulated in a trace: the kernel event count and
/// every job record's placement and timing bits (host wall time excluded).
pub fn trace_digest(trace: &ExecutionTrace) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace.engine_events);
    for j in &trace.jobs {
        h.u64(j.job as u64);
        h.u64(j.node as u64);
        h.u64(u64::from(j.core));
        h.u64(j.start.to_bits());
        h.u64(j.end.to_bits());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sub_seeds_and_no_two_streams_alike() {
        for seed in [0, 1, 42, u64::MAX] {
            let streams: Vec<u64> = (0..200).map(|k| sub_seed(seed, k)).collect();
            assert_eq!(streams, (0..200).map(|k| sub_seed(seed, k)).collect::<Vec<_>>());
            let mut distinct = streams.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), streams.len());
        }
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }

    #[test]
    fn fingerprint_depends_on_order_and_content() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[3, 2, 1]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2]));
    }
}
