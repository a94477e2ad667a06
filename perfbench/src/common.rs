//! Shared pieces: per-layer span accumulators, the timed worker pool,
//! pinned digests, order statistics and host facts.

use std::collections::BTreeMap;

use redbin::differential::EMULATOR_STEP_BOUND;
use redbin::isa::{Emulator, Program};
use redbin::pool::run_jobs;
use redbin::sim::hash::Fnv64;
use redbin::telemetry::Clock;

/// Per-layer sums recorded by spans around calls into one layer's public
/// functions, plus counts taken at the same boundaries.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f`, adding its host time in seconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Clock::now();
        let out = f();
        self.add(name, t.seconds());
        out
    }

    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.sums {
            self.add(k, *v);
        }
    }
}

/// [`run_jobs`] with a span around every job: each job records into its
/// own [`Layers`], merged afterwards, and the pool's capacity (wall time ×
/// workers) is kept so `pool.idle_ratio` can be derived.
pub fn timed_pool<T: Send>(
    n: usize,
    threads: usize,
    layers: &mut Layers,
    f: impl Fn(usize, &mut Layers) -> T + Sync,
) -> Vec<T> {
    let t = Clock::now();
    let out = run_jobs(n, threads, |i| {
        let mut l = Layers::default();
        let job = Clock::now();
        let r = f(i, &mut l);
        l.add("pool.job_s", job.seconds());
        (r, l)
    });
    let workers = threads.clamp(1, n.max(1));
    layers.add("pool.capacity_s", t.seconds() * workers as f64);
    out.into_iter()
        .map(|(r, l)| {
            layers.merge(&l);
            r
        })
        .collect()
}

/// The instructions a simulation of `program` retires, from one emulator
/// run. The front end is oracle-driven, so the count does not depend on
/// the machine; the emulator also counts the final `halt`, which the
/// simulator does not retire.
pub fn sim_retired(program: &Program) -> u64 {
    let n = Emulator::new(program)
        .run(EMULATOR_STEP_BOUND)
        .expect("workload programs halt");
    n - 1
}

/// FNV-1a of a string: the digest behind every pinned result.
pub fn digest(s: &str) -> u64 {
    Fnv64::new().write_str(s).finish()
}

/// The pinned digests of this commit's simulated results (`pins.txt`).
pub fn pins() -> BTreeMap<String, u64> {
    parse_pins(include_str!("../pins.txt"))
}

fn parse_pins(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), u64::from_str_radix(v.trim(), 16).ok()?))
        })
        .collect()
}

/// Compares computed digests against the pins; returns the keys that
/// differ or have no pin. A missing pin is a failure, never a pass.
pub fn mismatches(pins: &BTreeMap<String, u64>, got: &[(String, u64)]) -> Vec<String> {
    got.iter()
        .filter(|(k, v)| pins.get(k) != Some(v))
        .map(|(k, _)| k.clone())
        .collect()
}

/// Flips one bit of the first pin whose key starts with `prefix`: the
/// self-test's deliberately corrupted expectation.
pub fn corrupt(pins: &mut BTreeMap<String, u64>, prefix: &str) {
    if let Some((_, v)) = pins.iter_mut().find(|(k, _)| k.starts_with(prefix)) {
        *v ^= 1;
    }
}

/// SplitMix64: the seeded generator behind every workload choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Repeats `f` until `seconds` of host time have passed (at least once),
/// returning every pass's result.
pub fn passes<T>(seconds: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let t = Clock::now();
    let mut out = vec![f()];
    while t.seconds() < seconds {
        out.push(f());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_pin_is_reported_not_passed() {
        let mut pins = parse_pins("# header\nfigure9 00ff\nfigure10 1\n");
        let got = vec![("figure9".to_string(), 0xff), ("figure10".to_string(), 1)];
        assert!(mismatches(&pins, &got).is_empty());
        corrupt(&mut pins, "figure9");
        assert_eq!(mismatches(&pins, &got), vec!["figure9".to_string()]);
    }

    #[test]
    fn unpinned_result_is_a_mismatch() {
        let pins = parse_pins("figure9 1\n");
        let got = vec![("figure14".to_string(), 1)];
        assert_eq!(mismatches(&pins, &got), vec!["figure14".to_string()]);
    }

    #[test]
    fn shipped_pins_parse() {
        let pins = pins();
        assert!(pins.contains_key("figures-small.figure14"));
        assert!(pins.contains_key("explore-grid.frontier"));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
    }
}
