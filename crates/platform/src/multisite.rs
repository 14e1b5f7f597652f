//! Multi-site platforms: several single-site platforms joined by an
//! inter-site WAN topology.
//!
//! The paper's Figure 1 shows one compute site talking to one storage site
//! over a WAN; a [`MultiSiteSpec`] generalizes that to N sites — each a
//! full [`PlatformSpec`] (nodes, LAN, cache tier) — plus an explicit WAN
//! link set. One site is the **storage hub** holding the shared initial
//! dataset; every other site is a compute site whose remote reads are
//! staged in from the hub and whose outputs replicate back to it.
//!
//! The WAN links are the *only* coupling between sites, and every link has
//! a strictly positive propagation latency. That latency is load-bearing:
//! it is the **lookahead window** of the multi-site simulator
//! (`simcal_sim::multisite`) — no site can causally affect another sooner
//! than the minimum link latency, so the site with the earliest pending
//! action may safely run that far beyond the runner-up's.

use crate::spec::PlatformSpec;

/// One inter-site WAN link (bidirectional).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanLink {
    /// Endpoint site index.
    pub a: usize,
    /// Endpoint site index.
    pub b: usize,
    /// Link bandwidth, bytes/s (spec-sheet; effective bandwidth of the
    /// staging flows is governed by the endpoint sites' hardware params).
    pub bandwidth: f64,
    /// One-way propagation latency in seconds. Must be strictly positive:
    /// this is the conservative-synchronization lookahead.
    pub latency: f64,
}

impl WanLink {
    /// A link between sites `a` and `b`.
    pub fn new(a: usize, b: usize, bandwidth: f64, latency: f64) -> Self {
        Self { a, b, bandwidth, latency }
    }
}

/// A multi-site platform: per-site [`PlatformSpec`]s joined by WAN links,
/// with one site designated as the storage hub.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSiteSpec {
    /// Platform name (e.g. `"4xFCSN-star"`).
    pub name: String,
    /// Per-site platforms. The hub's nodes run no jobs; every other
    /// site's nodes are scheduled independently by its own FCFS scheduler.
    pub sites: Vec<PlatformSpec>,
    /// The inter-site WAN topology. Must connect every compute site to
    /// the storage hub (possibly through intermediate sites).
    pub links: Vec<WanLink>,
    /// Index of the storage-hub site in `sites`.
    pub storage_site: usize,
}

impl MultiSiteSpec {
    /// Number of sites (hub included).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Indices of the compute sites (every site except the hub), in
    /// ascending order — the canonical order used for round-robin job
    /// assignment and global node numbering.
    pub fn compute_sites(&self) -> Vec<usize> {
        (0..self.sites.len()).filter(|&s| s != self.storage_site).collect()
    }

    /// Total node count over the compute sites (the hub's nodes run no
    /// jobs and are excluded from trace node numbering).
    pub fn compute_node_count(&self) -> usize {
        self.compute_sites().iter().map(|&s| self.sites[s].node_count()).sum()
    }

    /// Total core count over the compute sites.
    pub fn compute_cores(&self) -> u32 {
        self.compute_sites().iter().map(|&s| self.sites[s].total_cores()).sum()
    }

    /// The global node index of a compute site's node 0 (nodes are
    /// numbered by concatenating the compute sites in ascending order).
    pub fn node_offset(&self, site: usize) -> usize {
        assert_ne!(site, self.storage_site, "the hub has no trace nodes");
        self.compute_sites()
            .iter()
            .take_while(|&&s| s != site)
            .map(|&s| self.sites[s].node_count())
            .sum()
    }

    /// The minimum link latency — the provable lookahead of the
    /// conservative multi-site driver.
    pub fn lookahead(&self) -> f64 {
        self.links.iter().map(|l| l.latency).fold(f64::INFINITY, f64::min)
    }

    /// All-pairs shortest-path latency matrix (Floyd–Warshall over the
    /// link latencies). Cross-site messages travel at the shortest-path
    /// latency; `[i][j]` is `f64::INFINITY` when `j` is unreachable from
    /// `i` (rejected by [`MultiSiteSpec::validate`]).
    pub fn path_latencies(&self) -> Vec<Vec<f64>> {
        let n = self.sites.len();
        let mut d = vec![vec![f64::INFINITY; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for l in &self.links {
            d[l.a][l.b] = d[l.a][l.b].min(l.latency);
            d[l.b][l.a] = d[l.b][l.a].min(l.latency);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = d[i][k] + d[k][j];
                    if via < d[i][j] {
                        d[i][j] = via;
                    }
                }
            }
        }
        d
    }

    /// Panic unless the spec is structurally valid: at least two sites,
    /// valid per-site platforms, in-range link endpoints with strictly
    /// positive latencies, and every site reachable from the hub.
    pub fn validate(&self) {
        assert!(!self.name.is_empty(), "multi-site platform needs a name");
        assert!(self.sites.len() >= 2, "a multi-site platform needs at least two sites");
        assert!(self.storage_site < self.sites.len(), "storage site index out of range");
        for site in &self.sites {
            site.validate();
        }
        assert!(!self.links.is_empty(), "multi-site platform has no WAN links");
        for l in &self.links {
            assert!(l.a < self.sites.len() && l.b < self.sites.len(), "link endpoint out of range");
            assert_ne!(l.a, l.b, "self-links are not allowed");
            assert!(
                l.latency.is_finite() && l.latency > 0.0,
                "WAN link latency must be strictly positive (it is the sync lookahead)"
            );
            assert!(
                l.bandwidth.is_finite() && l.bandwidth > 0.0,
                "WAN link bandwidth must be positive"
            );
        }
        let d = self.path_latencies();
        for (s, row) in d.iter().enumerate() {
            assert!(
                row[self.storage_site].is_finite(),
                "site {s} is not connected to the storage hub"
            );
        }
    }
}

/// Fluent builder for [`MultiSiteSpec`].
#[derive(Debug)]
pub struct MultiSiteBuilder {
    name: String,
    sites: Vec<PlatformSpec>,
    links: Vec<WanLink>,
    storage_site: usize,
}

impl MultiSiteBuilder {
    /// Start a multi-site platform with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), sites: Vec::new(), links: Vec::new(), storage_site: 0 }
    }

    /// Add a site; returns the builder (site indices follow call order).
    pub fn site(mut self, spec: PlatformSpec) -> Self {
        self.sites.push(spec);
        self
    }

    /// Add a bidirectional WAN link between two site indices.
    pub fn link(mut self, a: usize, b: usize, bandwidth: f64, latency: f64) -> Self {
        self.links.push(WanLink::new(a, b, bandwidth, latency));
        self
    }

    /// Designate the storage hub (defaults to site 0).
    pub fn storage_site(mut self, site: usize) -> Self {
        self.storage_site = site;
        self
    }

    /// Validate and build.
    pub fn build(self) -> MultiSiteSpec {
        let spec = MultiSiteSpec {
            name: self.name,
            sites: self.sites,
            links: self.links,
            storage_site: self.storage_site,
        };
        spec.validate();
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use simcal_units as units;

    fn site(name: &str) -> PlatformSpec {
        PlatformSpec {
            name: name.into(),
            nodes: vec![NodeSpec::new("n0", 2), NodeSpec::new("n1", 2)],
            page_cache_enabled: false,
            nominal_wan_bw: units::gbps(1.0),
        }
    }

    fn star(k: usize) -> MultiSiteSpec {
        let mut b = MultiSiteBuilder::new("star").site(site("hub"));
        for i in 0..k {
            b = b.site(site(&format!("c{i}"))).link(0, i + 1, units::gbps(1.0), 0.01);
        }
        b.build()
    }

    #[test]
    fn star_shape() {
        let ms = star(3);
        assert_eq!(ms.site_count(), 4);
        assert_eq!(ms.compute_sites(), vec![1, 2, 3]);
        assert_eq!(ms.compute_node_count(), 6);
        assert_eq!(ms.compute_cores(), 12);
        assert_eq!(ms.node_offset(1), 0);
        assert_eq!(ms.node_offset(3), 4);
        assert_eq!(ms.lookahead(), 0.01);
    }

    #[test]
    fn path_latencies_route_through_the_hub() {
        let ms = star(2);
        let d = ms.path_latencies();
        assert_eq!(d[1][0], 0.01);
        // Compute-to-compute goes via the hub: 2 hops.
        assert!((d[1][2] - 0.02).abs() < 1e-12);
        assert_eq!(d[2][2], 0.0);
    }

    #[test]
    fn ring_connects_all_sites() {
        // 0-1-2-3-0 ring: site 2 reaches the hub through either neighbor.
        let mut b = MultiSiteBuilder::new("ring");
        for i in 0..4 {
            b = b.site(site(&format!("s{i}")));
        }
        let ms = b
            .link(0, 1, units::gbps(1.0), 0.01)
            .link(1, 2, units::gbps(1.0), 0.01)
            .link(2, 3, units::gbps(1.0), 0.02)
            .link(3, 0, units::gbps(1.0), 0.01)
            .build();
        let d = ms.path_latencies();
        assert!((d[2][0] - 0.02).abs() < 1e-12, "2-1-0 beats 2-3-0");
        assert_eq!(ms.lookahead(), 0.01);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_latency_link_rejected() {
        MultiSiteBuilder::new("bad")
            .site(site("a"))
            .site(site("b"))
            .link(0, 1, units::gbps(1.0), 0.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_site_rejected() {
        MultiSiteBuilder::new("bad")
            .site(site("a"))
            .site(site("b"))
            .site(site("c"))
            .link(0, 1, units::gbps(1.0), 0.01)
            .build();
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        MultiSiteBuilder::new("bad")
            .site(site("a"))
            .site(site("b"))
            .link(1, 1, units::gbps(1.0), 0.01)
            .build();
    }
}
