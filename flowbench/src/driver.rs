//! The load generator: one thread, open-loop and spin-waiting, then a
//! closed-loop phase at the batch cap. Every decision is checked against
//! the [`Oracle`].

use std::iter::Peekable;
use std::time::Instant;

use identxx_controller::FlowDecision;
use identxx_proto::{FiveTuple, Response};

use crate::calibrate::{self, Calibration};
use crate::oracle::Oracle;
use crate::workload::{Event, FlowSpec, Generator, Setup, Workload};

/// The most flows one `decide_batch` call takes.
pub const BATCH_CAP: usize = 128;

/// Decided (not cached) flows whose responses a traced run keeps for the
/// verify and matcher replays.
const CAPTURED: usize = 64;

/// A closed loop's calls are each followed by one calibration-kernel run
/// per this much call time (and at least one), so that the kernel samples
/// the host at the pace the calls took.
const KERNEL_EVERY_NS: u64 = 4_000_000;

/// A decided flow's inputs, kept for replaying single layers afterwards.
pub struct Captured {
    /// The flow.
    pub flow: FiveTuple,
    /// The source's response.
    pub src: Option<Response>,
    /// The destination's response.
    pub dst: Option<Response>,
    /// The decision time (µs) the tier used.
    pub now: u64,
}

/// What one open-loop phase measured, in nanoseconds.
#[derive(Default)]
pub struct OpenLoop {
    /// Per flow: due time → return of the `decide_batch` that decided it.
    pub latency_ns: Vec<u64>,
    /// Per flow: due time → dispatch of its `decide_batch` call.
    pub lag_ns: Vec<u64>,
    /// Per call: the duration of `decide_batch`.
    pub call_ns: Vec<u64>,
    /// Largest batch dispatched.
    pub batch_max: usize,
    /// Phase length.
    pub wall_ns: u64,
}

impl OpenLoop {
    /// Flows offered (and decided) in the phase.
    pub fn flows(&self) -> usize {
        self.latency_ns.len()
    }

    /// Appends a later phase's measurements.
    pub fn append(&mut self, mut later: OpenLoop) {
        self.latency_ns.append(&mut later.latency_ns);
        self.lag_ns.append(&mut later.lag_ns);
        self.call_ns.append(&mut later.call_ns);
        self.batch_max = self.batch_max.max(later.batch_max);
        self.wall_ns += later.wall_ns;
    }
}

/// What one closed-loop phase measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosedLoop {
    /// Flows decided.
    pub flows: usize,
    /// Time inside `decide_batch`, ns.
    pub busy_ns: u64,
    /// Calibration-kernel runs between the calls.
    pub kernel_runs: u64,
    /// Their total time, ns.
    pub kernel_ns: u64,
}

impl ClosedLoop {
    /// Decisions per second of `decide_batch` time, as measured.
    pub fn raw_rate(&self) -> f64 {
        self.flows as f64 * 1e9 / self.busy_ns.max(1) as f64
    }

    /// Mean calibration-kernel time, ns.
    pub fn kernel_mean_ns(&self) -> f64 {
        self.kernel_ns as f64 / self.kernel_runs.max(1) as f64
    }

    /// Decisions per second of `decide_batch` time at the calibration
    /// kernel's reference speed ([`calibrate`]).
    pub fn rate(&self) -> f64 {
        self.raw_rate() * calibrate::slowdown(self.kernel_mean_ns())
    }
}

/// Drives one tier through a workload's stream.
pub struct Driver {
    /// The tier and its population.
    pub setup: Setup,
    workload: Workload,
    events: Peekable<Generator>,
    oracle: Oracle,
    /// Zero of the tier's clock (µs), taken when the driver starts.
    epoch: Instant,
    /// Flows handed to the tier.
    pub attempted: u64,
    /// Flows not decided as the oracle expects, not decided at all, or
    /// decided without an answer from a live host.
    pub failed: u64,
    /// Flows decided from the state table.
    pub cached: u64,
    /// Sum of `rules_evaluated` over decisions that evaluated the policy.
    pub rules_evaluated: u64,
    /// Decisions that evaluated the policy.
    pub evaluations: u64,
    /// Captured decisions, when capturing.
    pub captured: Vec<Captured>,
    capture: bool,
    calibration: Calibration,
}

impl Driver {
    /// A driver for `setup`, fed by the stream of `workload` from `seed`.
    /// With `capture`, it keeps the first decided flows' responses.
    pub fn new(setup: Setup, workload: Workload, seed: u64, capture: bool) -> Driver {
        Driver {
            setup,
            workload,
            events: Generator::new(workload, seed).peekable(),
            oracle: Oracle::new(workload != Workload::WireUnsigned),
            epoch: Instant::now(),
            attempted: 0,
            failed: 0,
            cached: 0,
            rules_evaluated: 0,
            evaluations: 0,
            captured: Vec::new(),
            capture,
            calibration: Calibration::default(),
        }
    }

    fn clock_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Applies a churn event through the tier's churn hooks.
    fn apply(&mut self, event: Event) -> Result<(), String> {
        match event {
            Event::Depart(addr) => {
                if !self.setup.tier.unregister_daemon(addr) {
                    return Err(format!("departing daemon {addr} was not registered"));
                }
            }
            Event::Arrive(index) => {
                let daemon = self.setup.daemons[index].clone();
                self.setup.tier.register_daemon(daemon);
            }
            Event::Flow(_) => unreachable!("flows are dispatched, not applied"),
        }
        Ok(())
    }

    /// Applies every churn event at the head of the stream.
    fn apply_due_churn(&mut self) -> Result<(), String> {
        while let Some(event) = self.events.next_if(|e| !matches!(e, Event::Flow(_))) {
            self.apply(event)?;
        }
        Ok(())
    }

    /// The next event, if it is a flow.
    fn next_flow(&mut self) -> Option<FlowSpec> {
        match self.events.next_if(|e| matches!(e, Event::Flow(_))) {
            Some(Event::Flow(spec)) => Some(spec),
            _ => None,
        }
    }

    /// Checks one call's decisions against the oracle.
    fn settle(
        &mut self,
        specs: &[FlowSpec],
        decisions: Vec<FlowDecision>,
        now: u64,
    ) -> Result<(), String> {
        self.attempted += specs.len() as u64;
        if decisions.len() != specs.len() {
            self.failed += specs.len().abs_diff(decisions.len()) as u64;
        }
        for (spec, decision) in specs.iter().zip(decisions) {
            let pass = decision.is_pass();
            if pass && !spec.src_accepted && self.workload != Workload::WireUnsigned {
                return Err(format!("forged pass: imposter flow {} passed", spec.flow));
            }
            let expected = self.oracle.expect_pass(spec, now);
            let unanswered_live = !decision.from_cache
                && (decision.src_response.is_none()
                    || (spec.dst_live && decision.dst_response.is_none()));
            if pass != expected || unanswered_live {
                self.failed += 1;
            }
            if decision.from_cache {
                self.cached += 1;
            } else {
                self.rules_evaluated += decision.verdict.rules_evaluated as u64;
                self.evaluations += 1;
                if self.capture && self.captured.len() < CAPTURED {
                    self.captured.push(Captured {
                        flow: spec.flow,
                        src: decision.src_response,
                        dst: decision.dst_response,
                        now,
                    });
                }
            }
        }
        Ok(())
    }

    /// Open loop: flow `i` is due `i / rate` seconds after the phase starts,
    /// whatever the tier is doing. Each call takes every flow already due
    /// (up to [`BATCH_CAP`], and never across a churn event). When nothing
    /// is due the generator busy-waits — spinning, or yielding where the
    /// tier's own threads need the vCPU ([`Workload::generator_yields`]) —
    /// and never sleeps, so its own wake-up lag stays small.
    pub fn open_loop(&mut self, rate: f64, seconds: f64) -> Result<OpenLoop, String> {
        let total = (rate * seconds).round() as usize;
        let ns_per_flow = 1e9 / rate;
        let due_ns = |i: usize| (i as f64 * ns_per_flow) as u64;
        let mut out = OpenLoop {
            latency_ns: Vec::with_capacity(total),
            lag_ns: Vec::with_capacity(total),
            ..OpenLoop::default()
        };
        let mut flows = Vec::with_capacity(BATCH_CAP);
        let mut specs = Vec::with_capacity(BATCH_CAP);
        let start = Instant::now();
        let elapsed_ns = || start.elapsed().as_nanos() as u64;
        let yields = self.workload.generator_yields();
        let mut next = 0;
        while next < total {
            self.apply_due_churn()?;
            let mut now_ns = elapsed_ns();
            while now_ns < due_ns(next) {
                if yields {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                now_ns = elapsed_ns();
            }
            let first = next;
            while next < total && specs.len() < BATCH_CAP && due_ns(next) <= now_ns {
                let Some(spec) = self.next_flow() else { break };
                flows.push(spec.flow);
                specs.push(spec);
                next += 1;
            }
            let now_us = self.clock_us();
            let dispatch_ns = elapsed_ns();
            let decisions = self.setup.tier.decide_batch(&flows, now_us);
            let done_ns = elapsed_ns();
            for i in first..next {
                out.lag_ns.push(dispatch_ns - due_ns(i));
                out.latency_ns.push(done_ns - due_ns(i));
            }
            out.call_ns.push(done_ns - dispatch_ns);
            out.batch_max = out.batch_max.max(flows.len());
            self.settle(&specs, decisions, now_us)?;
            flows.clear();
            specs.clear();
        }
        out.wall_ns = elapsed_ns();
        Ok(out)
    }

    /// Closed loop: pre-generates the next `count` flows of the stream (with
    /// their churn), then decides them in calls of [`BATCH_CAP`] as fast as
    /// the tier allows. Each call is followed by calibration-kernel runs
    /// (one per [`KERNEL_EVERY_NS`] of call time, at least one).
    pub fn closed_loop(&mut self, count: usize) -> Result<ClosedLoop, String> {
        let mut stream = Vec::with_capacity(count + count / 8);
        let mut pending = count;
        while pending > 0 {
            let event = self.events.next().expect("the stream is endless");
            if matches!(event, Event::Flow(_)) {
                pending -= 1;
            }
            stream.push(event);
        }
        let mut stream = stream.into_iter().peekable();
        let mut flows = Vec::with_capacity(BATCH_CAP);
        let mut specs = Vec::with_capacity(BATCH_CAP);
        let mut out = ClosedLoop {
            flows: count,
            ..ClosedLoop::default()
        };
        loop {
            while let Some(event) = stream.next_if(|e| !matches!(e, Event::Flow(_))) {
                self.apply(event)?;
            }
            while specs.len() < BATCH_CAP {
                let Some(Event::Flow(spec)) = stream.next_if(|e| matches!(e, Event::Flow(_)))
                else {
                    break;
                };
                flows.push(spec.flow);
                specs.push(spec);
            }
            if specs.is_empty() {
                break;
            }
            let now_us = self.clock_us();
            let started = Instant::now();
            let decisions = self.setup.tier.decide_batch(&flows, now_us);
            let call_ns = started.elapsed().as_nanos() as u64;
            out.busy_ns += call_ns;
            for _ in 0..1 + call_ns / KERNEL_EVERY_NS {
                out.kernel_ns += self.calibration.run();
                out.kernel_runs += 1;
            }
            self.settle(&specs, decisions, now_us)?;
            flows.clear();
            specs.clear();
        }
        Ok(out)
    }
}
