//! A minimal, self-contained micro-benchmark harness.
//!
//! The build environment for this workspace is fully offline, so the real
//! `criterion` crate cannot be fetched. This crate mirrors the slice of
//! its API the bench targets use — `criterion_group!`/`criterion_main!`,
//! benchmark groups, `bench_function`/`bench_with_input`, `Bencher::iter`,
//! `Throughput` and `BenchmarkId` — on top of a plain wall-clock sampler.
//!
//! Each benchmark is calibrated so one sample runs for at least
//! `CRITERION_SAMPLE_MS` milliseconds (default 20), then `sample_size`
//! samples are taken (default 12, env override `CRITERION_SAMPLES`) and
//! the per-iteration median, minimum and mean are reported. When
//! `CRITERION_JSON` names a file, one JSON line per benchmark is appended
//! to it, which is how the repo's before/after tables are produced (see
//! `scripts/bench-smoke.sh`).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Throughput annotation (recorded, reported as elements/s).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { name: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// The per-benchmark timing driver.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `f` repeatedly, timing batches of iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: grow the batch until one batch takes long enough to
        // time reliably.
        let target = sample_duration();
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= target || iters >= (1 << 30) {
                self.iters_per_sample = iters;
                self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
                break;
            }
            let grow = if elapsed.as_nanos() == 0 {
                100
            } else {
                (target.as_nanos() / elapsed.as_nanos().max(1) + 1).min(100) as u64
            };
            iters = iters.saturating_mul(grow.max(2));
        }
        for _ in 1..self.sample_size {
            let t = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            self.samples
                .push(t.elapsed().as_nanos() as f64 / self.iters_per_sample as f64);
        }
    }
}

fn sample_duration() -> Duration {
    let ms = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20u64);
    Duration::from_millis(ms)
}

fn default_samples() -> usize {
    configured_samples(12)
}

fn configured_samples(requested: usize) -> usize {
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(requested)
        .max(1)
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Benchmarks `f` under `id` with a borrowed input.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.name);
        let (tp, n) = (self.throughput, self.sample_size);
        self.criterion.run_one(&full, tp, n, |b| f(b, input));
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.name);
        let (tp, n) = (self.throughput, self.sample_size);
        self.criterion.run_one(&full, tp, n, |b| f(b));
        self
    }

    /// Ends the group (formatting no-op, kept for API parity).
    pub fn finish(&mut self) {}
}

/// The benchmark runner.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Applies command-line configuration (`--bench` is ignored; a bare
    /// string argument filters benchmarks by substring).
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.filter = args
            .into_iter()
            .find(|a| !a.starts_with('-') && !a.is_empty());
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: default_samples(),
        }
    }

    /// Benchmarks `f` under `id` outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let samples = default_samples();
        self.run_one(&id.name, None, samples, |b| f(b));
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        name: &str,
        throughput: Option<Throughput>,
        sample_size: usize,
        mut f: F,
    ) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            iters_per_sample: 1,
            samples: Vec::new(),
            sample_size: configured_samples(sample_size),
        };
        f(&mut b);
        if b.samples.is_empty() {
            return;
        }
        let mut sorted = b.samples.clone();
        sorted.sort_by(|a, c| a.total_cmp(c));
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let mean: f64 = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let rate = match throughput {
            Some(Throughput::Elements(e)) if median > 0.0 => {
                format!("  ({:.1} Melem/s)", e as f64 * 1e3 / median)
            }
            Some(Throughput::Bytes(by)) if median > 0.0 => {
                format!("  ({:.1} MB/s)", by as f64 * 1e3 / median)
            }
            _ => String::new(),
        };
        println!(
            "bench {name:<48} median {median:>12.1} ns/iter  min {min:>12.1}  mean {mean:>12.1}{rate}"
        );
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(
                    file,
                    "{{\"name\": \"{name}\", \"median_ns\": {median:.1}, \"min_ns\": {min:.1}, \"mean_ns\": {mean:.1}, \"samples\": {}, \"iters_per_sample\": {}}}",
                    sorted.len(),
                    b.iters_per_sample,
                );
            }
        }
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_samples() {
        std::env::set_var("CRITERION_SAMPLE_MS", "1");
        let mut c = Criterion::default();
        let mut count = 0u64;
        c.run_one("selftest", Some(Throughput::Elements(1)), 3, |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        assert!(count > 0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            filter: Some("nomatch".into()),
        };
        let mut ran = false;
        c.run_one("selftest", None, 2, |_b| ran = true);
        assert!(!ran);
    }
}
