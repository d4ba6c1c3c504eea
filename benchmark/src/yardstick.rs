//! The yardstick: a fixed piece of work in the benchmark's own source, run
//! between the timed samples, that says how fast the host is *right now*.
//!
//! This benchmark runs on a few vCPUs of a shared host whose speed drifts by
//! tens of percent over seconds to minutes — the neighbours' load on the
//! shared cache and memory, not this program (README, "How steady"). A
//! stretch of identical repetitions of one workload ranged from 1.3 s to
//! 2.8 s within five minutes; no statistic of raw host seconds taken within a
//! run removes a drift longer than the run, and ten runs of one code spread
//! by 13–30 %. Two pieces of code run back to back see the same host, though:
//! the *ratio* of a timed sample to the yardstick readings on either side of
//! it spread 2–3x less than the sample itself in every series measured
//! (3–6 % against 8–15 %).
//!
//! So every host-speed-bound time the benchmark reports is in *calibrated
//! seconds*: host seconds × [`NOMINAL_S`] / (mean of the yardstick reading
//! before and after the sample). On a host at its nominal speed the two are
//! the same number. The yardstick calls into no crate of the repo, so it is
//! the same code on every commit and a change to the program moves a
//! calibrated time exactly as it moves the raw one.
//!
//! The work is a mix, because the workloads are: a dependent floating-point
//! chain (core speed), a pointer chase through 64 MB (memory latency, TLB), a
//! pointer chase through 4 MB (the shared last-level cache, the component the
//! neighbours move most) and a small dense matrix product (vector units, L1).

use std::time::Instant;

/// What one [`Yardstick::run`] takes on the host this was built on in its
/// quiet hours (the four parts take about 55 + 40 + 40 + 35 ms). Only a
/// scale — it makes a calibrated second a host second at nominal speed.
pub const NOMINAL_S: f64 = 0.17;

/// Entries of the far (64 MB) and near (4 MB) chase tables, and the side of
/// the three square matrices.
const FAR: usize = 16 << 20;
const NEAR: usize = 1 << 20;
const TILE: usize = 128;

pub struct Yardstick {
    far: Vec<u32>,
    near: Vec<u32>,
    /// Where the two chases stand: a reading walks on from where the last
    /// one stopped, so it never finds its own trail in the cache.
    at: (u32, u32),
    /// Every reading so far, in seconds.
    pub readings: Vec<f64>,
}

/// A table whose chase visits every entry in a scattered order: entry `i`
/// holds `(a·i + c) mod n`, a full-period linear congruential step for a
/// power-of-two `n` (`a ≡ 1 mod 4`, `c` odd). Filled front to back, so
/// building it costs a sequential write, not `n` cache misses.
fn chase_table(n: usize) -> Vec<u32> {
    assert!(n.is_power_of_two() && n <= 1 << 32);
    let mask = n as u64 - 1;
    (0..n as u64).map(|i| ((i.wrapping_mul(0x9e37_79b5) + 0x7f4a_7c15) & mask) as u32).collect()
}

fn chase(table: &[u32], mut at: u32, hops: usize) -> u32 {
    for _ in 0..hops {
        at = table[at as usize];
    }
    at
}

impl Yardstick {
    pub fn new() -> Self {
        Self { far: chase_table(FAR), near: chase_table(NEAR), at: (0, 0), readings: Vec::new() }
    }

    /// What the tables add to the process's resident memory, in MB: they are
    /// written once at start-up and stay resident, so `VmHWM` minus this is
    /// the high-water mark of the program measured.
    pub fn resident_mb(&self) -> f64 {
        (4 * (self.far.len() + self.near.len())) as f64 / (1024.0 * 1024.0)
    }

    /// One reading: seconds for the fixed mix, on the calling thread. One
    /// thread also for the workloads that keep both vCPUs busy: readings
    /// taken on two threads at once tracked their repetitions no better
    /// (`wall_s` spread 4.6–6.9 % against 3.1–7.6 % on `fem3d-kernel`) and
    /// their single-threaded set-up worse (`setup_s` medians of two rounds
    /// 19 % apart against 4 %).
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = std::hint::black_box(0.5f64);
        for _ in 0..30_000_000u32 {
            x = x * 0.999_999_9 + 1e-9;
        }
        std::hint::black_box(x);
        self.at = (chase(&self.far, self.at.0, 300_000), chase(&self.near, self.at.1, 1_000_000));
        let (a, b) = (vec![1.0001f64; TILE * TILE], vec![1.0001f64; TILE * TILE]);
        let mut c = vec![0.0f64; TILE * TILE];
        for _ in 0..24 {
            for i in 0..TILE {
                for k in 0..TILE {
                    let aik = a[i * TILE + k] * 1e-3;
                    for j in 0..TILE {
                        c[i * TILE + j] += aik * b[k * TILE + j];
                    }
                }
            }
        }
        std::hint::black_box(&c);
        let secs = t0.elapsed().as_secs_f64();
        self.readings.push(secs);
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_tables_are_one_full_cycle() {
        let table = chase_table(1 << 10);
        let mut seen = vec![false; table.len()];
        let mut at = 0u32;
        for _ in 0..table.len() {
            assert!(!std::mem::replace(&mut seen[at as usize], true), "revisited {at} early");
            at = table[at as usize];
        }
        assert_eq!(at, 0, "the chase returns to its start after visiting every entry");
    }

    #[test]
    fn a_reading_is_positive_and_recorded() {
        let mut y = Yardstick::new();
        let secs = y.run();
        assert!(secs > 0.0);
        assert_eq!(y.readings, [secs]);
        assert_eq!(y.resident_mb(), 68.0);
    }
}
