//! How late a single-threaded open-loop generator dispatches, by waiting
//! strategy: the evidence behind the benchmark's yielding busy-wait.
//!
//! `cargo run --release --manifest-path flowbench/Cargo.toml --example lag_probe`
//!
//! Each strategy dispatches 1000 arrivals per second for 8 seconds, doing
//! 20 µs of busy work per arrival, and reports dispatch lag (dispatch time
//! minus due time) percentiles in µs.

use std::time::{Duration, Instant};

const RATE: f64 = 1_000.0;
const SECONDS: f64 = 8.0;
const WORK_NS: u64 = 20_000;

fn probe(name: &str, wait: impl Fn(&dyn Fn() -> u64, u64)) {
    let total = (RATE * SECONDS) as usize;
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    let mut lags = Vec::with_capacity(total);
    for i in 0..total {
        let due = (i as f64 * 1e9 / RATE) as u64;
        wait(&now, due);
        lags.push(now() - due);
        let work_until = now() + WORK_NS;
        while now() < work_until {
            std::hint::spin_loop();
        }
    }
    lags.sort_unstable();
    let at = |q: f64| lags[((q * total as f64) as usize).min(total - 1)] as f64 / 1e3;
    println!(
        "{name:<14} lag p50 {:>8.1}  p99 {:>8.1}  p99.9 {:>8.1}  max {:>8.1} us",
        at(0.5),
        at(0.99),
        at(0.999),
        at(1.0)
    );
}

fn main() {
    probe("sleep", |now, due| {
        let t = now();
        if t < due {
            std::thread::sleep(Duration::from_nanos(due - t));
        }
    });
    probe("spin", |now, due| {
        while now() < due {
            std::hint::spin_loop();
        }
    });
    probe("spin+yield", |now, due| {
        while now() < due {
            std::thread::yield_now();
        }
    });
}
