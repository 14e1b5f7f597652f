//! Kernel counters, read from the `Debug` text of
//! `SimSession::engine_stats()`.
//!
//! Going through the text instead of the struct's fields means a counter a
//! later change removes reads as absent here instead of breaking the
//! benchmark's build, and a counter it adds is simply ignored.

use std::collections::BTreeMap;

/// Parse `Name { field: 123, other: 4 }` into `field -> value`. Fields
/// whose value is not an unsigned integer are skipped.
pub fn parse_debug_counters(text: &str) -> BTreeMap<String, u64> {
    let body = text.split_once('{').map_or(text, |(_, rest)| rest);
    let body = body.rsplit_once('}').map_or(body, |(rest, _)| rest);
    body.split(',')
        .filter_map(|field| {
            let (name, value) = field.split_once(':')?;
            Some((name.trim().to_string(), value.trim().parse::<u64>().ok()?))
        })
        .collect()
}

/// Running sums of kernel counters over many simulations.
#[derive(Debug, Default, Clone)]
pub struct KernelCounters {
    sums: BTreeMap<String, u64>,
}

/// `(metric name, Stats field)` for every kernel counter the ledger reports.
pub const COUNTER_FIELDS: [(&str, &str); 13] = [
    ("des.timer_firings", "timer_firings"),
    ("des.rate_recomputes", "rate_recomputes"),
    ("des.component_solves", "component_solves"),
    ("des.full_solves", "full_solves"),
    ("des.flows_resolved", "flows_resolved"),
    ("des.swap_inherits", "swap_inherits"),
    ("des.clean_batch_settles", "clean_batch_settles"),
    ("des.warm_refills", "warm_refills"),
    ("des.closed_form_solves", "closed_form_solves"),
    ("des.memb_cache_hits", "memb_cache_hits"),
    ("des.event_pushes", "event_pushes"),
    ("des.event_pops", "event_pops"),
    ("des.event_stale_drops", "event_stale_drops"),
];

impl KernelCounters {
    /// Add one simulation's counters, given as `Debug` text.
    pub fn add_debug(&mut self, text: &str) {
        for (name, value) in parse_debug_counters(text) {
            *self.sums.entry(name).or_insert(0) += value;
        }
    }

    fn field(&self, name: &str) -> Option<u64> {
        self.sums.get(name).copied()
    }

    /// The ledger's `des.*` counters and ratios. A field the `Debug` text
    /// did not carry is left out (and reported as absent by the caller); a
    /// ratio whose denominator is zero or absent is left out too.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let events = match (self.field("flow_completions"), self.field("timer_firings")) {
            (Some(c), Some(t)) => Some(c + t),
            _ => None,
        };
        if let Some(e) = events {
            out.push(("des.events", e as f64));
        }
        for (metric, field) in COUNTER_FIELDS {
            if let Some(v) = self.field(field) {
                out.push((metric, v as f64));
            }
        }
        let mut ratio = |metric, num: Option<u64>, den: Option<u64>| {
            if let (Some(n), Some(d)) = (num, den) {
                if d > 0 {
                    out.push((metric, n as f64 / d as f64));
                }
            }
        };
        ratio("des.stale_pop_ratio", self.field("event_stale_drops"), self.field("event_pops"));
        ratio("des.swap_hit_ratio", self.field("swap_inherits"), self.field("flows_started"));
        ratio("des.solves_per_event", self.field("component_solves"), events);
        ratio("des.flows_per_solve", self.field("flows_resolved"), self.field("component_solves"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_debug_struct_text() {
        let m = parse_debug_counters("Stats { flow_completions: 30, timer_firings: 12, wan: 0 }");
        assert_eq!(m["flow_completions"], 30);
        assert_eq!(m["timer_firings"], 12);
        assert_eq!(m["wan"], 0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn parses_pretty_debug_and_skips_non_counters() {
        let text = "Stats {\n    event_pops: 7,\n    label: \"x\",\n    ratio: 0.5,\n}";
        let m = parse_debug_counters(text);
        assert_eq!(m.len(), 1);
        assert_eq!(m["event_pops"], 7);
        assert!(parse_debug_counters("").is_empty());
    }

    #[test]
    fn unknown_fields_are_ignored_and_missing_ones_absent() {
        let mut k = KernelCounters::default();
        // `brand_new` is unknown to the ledger; `warm_refills` and the event
        // list counters are missing from the text.
        k.add_debug("Stats { flow_completions: 6, timer_firings: 4, component_solves: 5, flows_resolved: 20, brand_new: 9 }");
        k.add_debug("Stats { flow_completions: 4, timer_firings: 6, component_solves: 5, flows_resolved: 10, brand_new: 1 }");
        let m: BTreeMap<_, _> = k.metrics().into_iter().collect();
        assert_eq!(m["des.events"], 20.0);
        assert_eq!(m["des.timer_firings"], 10.0);
        assert_eq!(m["des.component_solves"], 10.0);
        assert_eq!(m["des.solves_per_event"], 0.5);
        assert_eq!(m["des.flows_per_solve"], 3.0);
        assert!(!m.contains_key("des.warm_refills"));
        assert!(!m.contains_key("des.stale_pop_ratio"));
        assert!(m.keys().all(|k| !k.contains("brand_new")));
    }
}
