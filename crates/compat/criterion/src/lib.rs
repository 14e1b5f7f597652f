//! Minimal stand-in for the `criterion` benchmark harness (offline build).
//!
//! Supports the API surface used by `crates/bench`: `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `BenchmarkId`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Beyond printing human-readable timings, every run appends its results
//! to a **machine-readable JSON file** (`BENCH_<binary>.json` in the
//! working directory, or the path in `$SIMCAL_BENCH_JSON`) so successive
//! PRs can track the performance trajectory. Each record carries the
//! benchmark id, sample statistics in nanoseconds per iteration, and the
//! sample/iteration counts.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement, destined for the JSON report.
#[derive(Debug, Clone)]
struct BenchRecord {
    id: String,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `<function_name>/<parameter>`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self { id: format!("{}/{parameter}", function_name.into()) }
    }

    /// Just the parameter (the group provides the function name).
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self { id: parameter.to_string() }
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Run `f` `self.iters` times, timing the whole batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Measurement configuration (shared by `Criterion` and groups).
#[derive(Debug, Clone, Copy)]
struct Config {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

/// The benchmark driver.
pub struct Criterion {
    config: Config,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench forwards extra CLI words; treat the first non-flag
        // word as a substring filter, as real criterion does.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self { config: Config::default(), filter }
    }
}

impl Criterion {
    /// Set the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least 2 samples");
        self.config.sample_size = n;
        self
    }

    /// Set the target measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.config.measurement_time = d;
        self
    }

    /// Set the warm-up time per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.config.warm_up_time = d;
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), config: self.config, criterion: self }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark(id, self.config, &self.filter, f);
        self
    }
}

/// A group of benchmarks sharing a name prefix and configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    config: Config,
    criterion: &'a Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "need at least 2 samples");
        self.config.sample_size = n;
        self
    }

    /// Set the target measurement time for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement_time = d;
        self
    }

    /// Run one benchmark with an input payload.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        run_benchmark(&full, self.config, &self.criterion.filter, |b| f(b, input));
        self
    }

    /// Run one benchmark without an input payload.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{id}", self.name);
        run_benchmark(&full, self.config, &self.criterion.filter, f);
        self
    }

    /// End the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// CI smoke mode: `SIMCAL_BENCH_QUICK=1` clamps every benchmark to two
/// tiny samples — enough to prove the bench targets still build and run —
/// and suppresses the JSON report so committed results are not clobbered
/// by throwaway numbers.
fn quick_mode() -> bool {
    static QUICK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *QUICK.get_or_init(|| std::env::var("SIMCAL_BENCH_QUICK").is_ok_and(|v| v != "0"))
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    id: &str,
    mut config: Config,
    filter: &Option<String>,
    mut f: F,
) {
    if let Some(pat) = filter {
        if !id.contains(pat.as_str()) {
            return;
        }
    }
    if quick_mode() {
        config.sample_size = 2;
        config.measurement_time = Duration::from_millis(40);
        config.warm_up_time = Duration::from_millis(5);
    }

    // Warm-up: run single iterations until the warm-up time elapses, and
    // use them to estimate the per-iteration cost.
    let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    let mut warm_elapsed = Duration::ZERO;
    while warm_start.elapsed() < config.warm_up_time || warm_iters == 0 {
        f(&mut b);
        warm_elapsed += b.elapsed;
        warm_iters += 1;
        if warm_iters >= 10_000 {
            break;
        }
    }
    let per_iter = warm_elapsed.as_secs_f64() / warm_iters as f64;

    // Pick iterations per sample so the whole measurement lands near the
    // configured measurement time.
    let per_sample = config.measurement_time.as_secs_f64() / config.sample_size as f64;
    let iters = ((per_sample / per_iter.max(1e-9)).floor() as u64).clamp(1, 1_000_000_000);

    let mut samples_ns: Vec<f64> = Vec::with_capacity(config.sample_size);
    for _ in 0..config.sample_size {
        b.iters = iters;
        f(&mut b);
        samples_ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
    }
    samples_ns.sort_by(f64::total_cmp);
    let min = samples_ns[0];
    let max = *samples_ns.last().expect("non-empty samples");
    let median = median(&samples_ns);
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;

    println!(
        "{id:<50} time: [{} {} {}]  ({} samples x {iters} iters)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(max),
        samples_ns.len(),
    );

    RESULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(BenchRecord {
        id: id.to_string(),
        median_ns: median,
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
        samples: samples_ns.len(),
        iters_per_sample: iters,
    });
}

/// The median of sorted samples: the mean of the two middle ones when the
/// count is even. Taking the upper one alone would report quick mode's
/// worse sample of two.
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Write the accumulated results as JSON. Called by `criterion_main!`
/// after all groups have run; a no-op when nothing was measured (e.g.
/// everything was filtered out).
pub fn write_json_results() {
    let results = RESULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if results.is_empty() {
        return;
    }
    // Quick mode normally suppresses the report so two-sample smoke
    // numbers never clobber the committed BENCH_*.json files — but an
    // explicit SIMCAL_BENCH_JSON destination is an opt-in (the CI bench
    // gate points it at a scratch path and compares medians there).
    if quick_mode() && std::env::var("SIMCAL_BENCH_JSON").is_err() {
        println!("quick mode: skipping JSON report ({} results discarded)", results.len());
        return;
    }
    let path = std::env::var("SIMCAL_BENCH_JSON").unwrap_or_else(|_| {
        let bin = std::env::args()
            .next()
            .and_then(|p| {
                std::path::Path::new(&p).file_stem().map(|s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "bench".to_string());
        // Cargo appends `-<16-hex-digit hash>` to bench executables.
        let stem = match bin.rsplit_once('-') {
            Some((head, tail))
                if tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit()) =>
            {
                head.to_string()
            }
            _ => bin,
        };
        format!("BENCH_{stem}.json")
    });
    // The machine is part of the measurement: record its CPU count.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!("{{\n  \"nproc\": {nproc},\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \
             \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            json_escape(&r.id),
            r.median_ns,
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            r.iters_per_sample,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("criterion: could not write {path}: {e}"),
    }
}

/// Define a benchmark group: either the long `name = ...; config = ...;
/// targets = ...` form or the short `(name, target, ...)` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define `main()` running the given groups, then write the JSON report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_results();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_records_results() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        c.bench_function("smoke/add", |b| b.iter(|| black_box(2u64) + black_box(3u64)));
        let results = RESULTS.lock().unwrap();
        let r = results.iter().find(|r| r.id == "smoke/add").expect("recorded");
        assert!(r.median_ns > 0.0);
        assert_eq!(r.samples, 3);
    }

    #[test]
    fn even_sample_counts_take_the_mean_of_the_middle_two() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("solve", "4r_16f").id, "solve/4r_16f");
        assert_eq!(BenchmarkId::from_parameter(42).id, "42");
    }
}
