//! The decision oracle: what the tier must decide for each flow, worked out
//! from the workload alone.
//!
//! - A source without an accepted identity is blocked. On the signed
//!   workloads that source is an imposter, and a pass is a forged pass:
//!   the driver aborts the run.
//! - A flow to a departed host is denied fail-closed, unless a `keep state`
//!   pass for its key was written before the host left; that cached pass
//!   still serves it (`tests/failure_injection.rs` pins this).
//! - Everything else passes, and on the signed workloads the pass writes
//!   state under the tier's `HostPairDstPort` keys.

use std::collections::HashMap;

use identxx_pf::state::DEFAULT_STATE_TTL;
use identxx_pf::CacheGranularity;
use identxx_proto::FiveTuple;

use crate::workload::FlowSpec;

/// The oracle's model of the tier's state table.
pub struct Oracle {
    /// `None` when the tier runs without a state table.
    passes: Option<HashMap<FiveTuple, u64>>,
}

const GRANULARITY: CacheGranularity = CacheGranularity::HostPairDstPort;

impl Oracle {
    /// An oracle for a tier with (`state_table`) or without a state table.
    pub fn new(state_table: bool) -> Oracle {
        Oracle {
            passes: state_table.then(HashMap::new),
        }
    }

    /// Whether `spec`, decided at `now` (µs), must pass. Flows must be fed
    /// in stream order: a pass records the state later flows may hit.
    pub fn expect_pass(&mut self, spec: &FlowSpec, now: u64) -> bool {
        let flow = &spec.flow;
        let keys = [Some(GRANULARITY.key(flow)), GRANULARITY.secondary_key(flow)];
        let Some(passes) = self.passes.as_mut() else {
            return spec.src_accepted && spec.dst_live;
        };
        let cached = keys
            .iter()
            .flatten()
            .any(|key| passes.get(key).is_some_and(|&expires| expires > now));
        if cached {
            return true;
        }
        let pass = spec.src_accepted && spec.dst_live;
        if pass {
            for key in keys.into_iter().flatten() {
                passes.insert(key, now.saturating_add(DEFAULT_STATE_TTL));
            }
        }
        pass
    }
}
