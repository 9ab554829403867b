//! The benchmark's own checks: reproducible inputs, a transparent timing
//! wrapper, capacity scaled to the calibration kernel's reference speed,
//! and a `BENCHMARK.json` that states the rates the code offers.

use identxx_flowbench::calibrate::REFERENCE_NS;
use identxx_flowbench::driver::{ClosedLoop, Driver, BATCH_CAP};
use identxx_flowbench::oracle::Oracle;
use identxx_flowbench::workload::{Event, Generator, Setup, Workload};

/// The first `count` events of a stream, as bytes.
fn stream_bytes(workload: Workload, seed: u64, count: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for event in Generator::new(workload, seed).take(count) {
        match event {
            Event::Flow(spec) => {
                let f = spec.flow;
                bytes.push(0);
                bytes.extend_from_slice(&f.src_ip.0.to_be_bytes());
                bytes.extend_from_slice(&f.src_port.to_be_bytes());
                bytes.extend_from_slice(&f.dst_ip.0.to_be_bytes());
                bytes.extend_from_slice(&f.dst_port.to_be_bytes());
                bytes.push(u8::from(spec.src_accepted) << 1 | u8::from(spec.dst_live));
            }
            Event::Depart(addr) => {
                bytes.push(1);
                bytes.extend_from_slice(&addr.0.to_be_bytes());
            }
            Event::Arrive(index) => {
                bytes.push(2);
                bytes.extend_from_slice(&(index as u64).to_be_bytes());
            }
        }
    }
    bytes
}

#[test]
fn same_seed_gives_the_same_stream_and_another_seed_another() {
    for workload in Workload::ALL {
        let first = stream_bytes(workload, 42, 5_000);
        assert_eq!(first, stream_bytes(workload, 42, 5_000), "{workload:?}");
        assert_ne!(first, stream_bytes(workload, 43, 5_000), "{workload:?}");
    }
}

#[test]
fn signed_cold_stream_churns_and_names_departed_hosts() {
    let events: Vec<Event> = Generator::new(Workload::SignedCold, 7)
        .take(5_000)
        .collect();
    let departs = events
        .iter()
        .filter(|e| matches!(e, Event::Depart(_)))
        .count();
    let arrivals = events
        .iter()
        .filter(|e| matches!(e, Event::Arrive(_)))
        .count();
    let to_departed = events
        .iter()
        .filter(|e| matches!(e, Event::Flow(spec) if !spec.dst_live))
        .count();
    assert!(departs > 0 && departs == arrivals);
    assert!(to_departed > 0);
}

/// A wrapped tier and an unwrapped one decide a seeded `signed_cold`
/// stream — churn included — identically, and both as the oracle expects.
#[test]
fn timed_backend_changes_no_decision() {
    let mut plain = Setup::build(Workload::SignedCold, false);
    let mut timed = Setup::build(Workload::SignedCold, true);
    let mut oracle = Oracle::new(true);
    let mut flows = Vec::new();
    let mut specs = Vec::new();
    let mut decided = 0;
    let mut now = 0;
    let mut events = Generator::new(Workload::SignedCold, 11)
        .take(1_500)
        .peekable();
    while events.peek().is_some() {
        // Batches of up to 8 flows, never across a churn event.
        while let Some(event) = events.next_if(|e| !matches!(e, Event::Flow(_))) {
            for setup in [&mut plain, &mut timed] {
                match event {
                    Event::Depart(addr) => assert!(setup.tier.unregister_daemon(addr)),
                    Event::Arrive(index) => {
                        let daemon = setup.daemons[index].clone();
                        setup.tier.register_daemon(daemon);
                    }
                    Event::Flow(_) => unreachable!(),
                }
            }
        }
        while specs.len() < 8 {
            let Some(Event::Flow(spec)) = events.next_if(|e| matches!(e, Event::Flow(_))) else {
                break;
            };
            flows.push(spec.flow);
            specs.push(spec);
        }
        now += 1_000;
        let expected = plain.tier.decide_batch(&flows, now);
        let got = timed.tier.decide_batch(&flows, now);
        for ((spec, want), got) in specs.iter().zip(&expected).zip(&got) {
            assert_eq!(want.verdict, got.verdict, "{}", spec.flow);
            assert_eq!(want.from_cache, got.from_cache, "{}", spec.flow);
            assert_eq!(want.queries_issued, got.queries_issued, "{}", spec.flow);
            assert_eq!(
                want.is_pass(),
                oracle.expect_pass(spec, now),
                "{}",
                spec.flow
            );
        }
        decided += flows.len();
        flows.clear();
        specs.clear();
    }
    assert!(decided > 1_000);
    let rounds: u64 = timed
        .rounds
        .iter()
        .map(|log| log.lock().unwrap().round_ns.len() as u64)
        .sum();
    assert!(rounds > 0, "the wrapper saw no query round");
    assert_eq!(plain.tier.backend_stats(), timed.tier.backend_stats());
}

/// Each workload's `why` in `BENCHMARK.json` states the rate the code offers.
#[test]
fn benchmark_json_states_each_offered_rate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside flowbench/");
    for workload in Workload::ALL {
        let name = format!("\"name\": \"{}\"", workload.name());
        let at = json.find(&name).unwrap_or_else(|| panic!("{name} missing"));
        let entry = &json[at..at + json[at..].find('}').expect("entry ends")];
        let rate = format!("\"why\": \"{} flows/s", workload.rate_per_sec());
        assert!(
            entry.contains(&rate),
            "{entry} does not start its why with the rate"
        );
    }
}

/// A closed loop's capacity is scaled by the calibration kernel's time over
/// its reference: on a host running at half speed the measured rate
/// halves, the kernel's time doubles, and the figure stays put.
#[test]
fn capacity_is_scaled_to_reference_speed() {
    let at_reference = ClosedLoop {
        flows: 1_000,
        busy_ns: 500_000_000,
        kernel_runs: 10,
        kernel_ns: 10 * REFERENCE_NS as u64,
    };
    assert_eq!(at_reference.raw_rate(), 2_000.0);
    assert_eq!(at_reference.rate(), 2_000.0);
    let half_speed = ClosedLoop {
        busy_ns: 2 * at_reference.busy_ns,
        kernel_ns: 2 * at_reference.kernel_ns,
        ..at_reference
    };
    assert_eq!(half_speed.raw_rate(), 1_000.0);
    assert_eq!(half_speed.rate(), at_reference.rate());
}

/// Every closed-loop call is followed by at least one kernel run.
#[test]
fn closed_loop_runs_the_kernel_after_every_call() {
    let mut driver = Driver::new(
        Setup::build(Workload::SignedHot, false),
        Workload::SignedHot,
        3,
        false,
    );
    let closed = driver.closed_loop(3 * BATCH_CAP).expect("no forged pass");
    assert_eq!(closed.flows, 3 * BATCH_CAP);
    assert!(closed.kernel_runs >= 3, "{closed:?}");
    assert!(closed.kernel_ns > 0 && closed.busy_ns > 0, "{closed:?}");
    assert_eq!(driver.attempted, 3 * BATCH_CAP as u64);
}
