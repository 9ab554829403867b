//! The pass-through timing backend of the traced run.
//!
//! [`TimedBackend`] implements [`QueryBackend`] around the real backend and
//! changes nothing about what it answers: it forwards every call, including
//! `as_any`/`as_any_mut`, so code that downcasts the controller's backend
//! (the shared-directory churn hooks) still reaches the inner one. It only
//! times each query round and counts what went into it.

use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use identxx_controller::{BackendStats, FlowRequest, FlowResponses, QueryBackend, QueryTarget};
use identxx_proto::FiveTuple;

use crate::process;

/// Sample the process thread count on every this many rounds (the shard
/// threads of `decide_batch` only exist while a round is in flight).
const THREAD_SAMPLE_EVERY: u64 = 32;

/// What one shard's backend saw, appended round by round.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Duration of each round, in nanoseconds.
    pub round_ns: Vec<u64>,
    /// Flow ends requested over all rounds.
    pub targets: u64,
    /// Highest process thread count sampled inside a round.
    pub peak_threads: usize,
}

/// A [`QueryBackend`] that times the backend it wraps.
pub struct TimedBackend {
    inner: Box<dyn QueryBackend>,
    log: Arc<Mutex<RoundLog>>,
    rounds: u64,
}

impl TimedBackend {
    /// Wraps `inner`, appending to `log`.
    pub fn new(inner: Box<dyn QueryBackend>, log: Arc<Mutex<RoundLog>>) -> TimedBackend {
        TimedBackend {
            inner,
            log,
            rounds: 0,
        }
    }

    fn record(&mut self, started: Instant, targets: usize) {
        let elapsed = started.elapsed().as_nanos() as u64;
        self.rounds += 1;
        let threads = if self.rounds % THREAD_SAMPLE_EVERY == 1 {
            process::threads()
        } else {
            0
        };
        let mut log = self.log.lock().expect("round log poisoned");
        log.round_ns.push(elapsed);
        log.targets += targets as u64;
        log.peak_threads = log.peak_threads.max(threads);
    }
}

impl QueryBackend for TimedBackend {
    fn query_flow(
        &mut self,
        flow: &FiveTuple,
        targets: &[QueryTarget],
        keys: &[&str],
    ) -> FlowResponses {
        let started = Instant::now();
        let responses = self.inner.query_flow(flow, targets, keys);
        self.record(started, targets.len());
        responses
    }

    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        let started = Instant::now();
        let responses = self.inner.query_flows(requests);
        let targets = requests.iter().map(|r| r.targets.len()).sum();
        self.record(started, targets);
        responses
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
