//! A fixed calibration kernel that measures how fast the host is running
//! this vCPU right now.
//!
//! On a shared host the speed of a vCPU changes by up to 2× within seconds,
//! as other tenants load the physical cores underneath it: a run that
//! happens to land in a busy minute is slow for reasons the program under
//! test has nothing to do with. The benchmark therefore times this kernel —
//! fixed work of its own, independent of every repository crate — right
//! after every timed call, and scales its timings to the speed at which the
//! kernel takes [`REFERENCE_NS`]. Host contention slows the kernel and the
//! program alike and cancels; a change to the program does not move the
//! kernel and shows in full.
//!
//! The kernel mixes the two kinds of work the workloads do: wide integer
//! multiplies (the shape of ed25519 field arithmetic, which dominates the
//! signed workloads) and small allocations, hashing, formatting and table
//! updates (the shape of the protocol, state and audit code).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, ns, that counts as reference speed: about the kernel's time
/// on an uncontended vCPU of a 2-vCPU Xeon VM.
pub const REFERENCE_NS: f64 = 100_000.0;

/// Rounds of each half of the kernel.
const MULTIPLY_ROUNDS: usize = 430;
const TABLE_ROUNDS: usize = 340;

/// Words in the kernel's table: 32 KiB, so the kernel itself barely
/// disturbs the program's caches.
const TABLE_WORDS: usize = 4_096;

/// The calibration kernel and the table it updates.
pub struct Calibration {
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            table: vec![0; TABLE_WORDS],
        }
    }
}

impl Calibration {
    /// Runs the kernel once: its time, ns.
    pub fn run(&mut self) -> u64 {
        let started = Instant::now();
        black_box(multiply(MULTIPLY_ROUNDS));
        black_box(tables(&mut self.table, TABLE_ROUNDS));
        started.elapsed().as_nanos() as u64
    }

    /// Mean time of `runs` kernel runs, ns.
    pub fn mean_ns(&mut self, runs: usize) -> f64 {
        (0..runs).map(|_| self.run()).sum::<u64>() as f64 / runs as f64
    }
}

/// How many times slower than reference speed the host ran the kernel when
/// its runs took `kernel_ns` on average: a duration measured beside them is
/// divided by this, a rate multiplied.
pub fn slowdown(kernel_ns: f64) -> f64 {
    kernel_ns / REFERENCE_NS
}

/// Ten-limb schoolbook products, each round fed by the last.
fn multiply(rounds: usize) -> [i64; 10] {
    let mut a = [1i64, 3, 5, 7, 11, 13, 17, 19, 23, 29];
    let b = [31i64, 37, 41, 43, 47, 53, 59, 61, 67, 71];
    for _ in 0..rounds {
        let mut r = [0i128; 10];
        for i in 0..10 {
            for j in 0..10 {
                r[(i + j) % 10] += i128::from(a[i]) * i128::from(b[j]);
            }
        }
        for i in 0..10 {
            a[i] = (r[i] as i64 & 0x3ff_ffff) | 1;
        }
        a = black_box(a);
    }
    a
}

/// Short-lived byte vectors in a small hash map, a formatted key and a
/// table update per round.
fn tables(table: &mut [u64], rounds: usize) -> usize {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut map: HashMap<u64, Vec<u8>> = HashMap::with_capacity(64);
    let mut total = 0;
    for round in 0..rounds as u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 16 + (x as usize & 127);
        let bytes: Vec<u8> = (0..len).map(|k| (k as u64 ^ x) as u8).collect();
        if let Some(old) = map.insert(x & 63, bytes) {
            total += old.len();
        }
        total += format!("{}:{round}", x & 63).len();
        let slot = x as usize % table.len();
        table[slot] = table[slot].wrapping_add(round);
    }
    black_box(&map);
    total
}
