//! The three workloads: their populations, their tiers, and the seeded
//! event stream (flows and churn) the driver feeds them.
//!
//! Everything the program under test receives comes from here: the tier is
//! built once per set-up, and after that it only ever sees the flows (and,
//! on `signed_cold`, the churn hooks) that [`Generator`] produces from the
//! workload seed.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use identxx_controller::{
    ControllerConfig, NetworkBackend, QueryBackend, ShardedController, SharedDirectoryBackend,
};
use identxx_crypto::{sign_bundle_windowed, KeyPair};
use identxx_daemon::Daemon;
use identxx_hostmodel::Host;
use identxx_net::DaemonServer;
use identxx_pf::CacheGranularity;
use identxx_proto::{FiveTuple, Ipv4Addr};

use crate::timed::{RoundLog, TimedBackend};

/// The named workloads. Names are fixed: `BENCHMARK.json` and later
/// changes refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform host pairs over a churning signed population: fresh ed25519
    /// verification, state-table inserts and audit growth.
    SignedCold,
    /// The same signed population without churn, hot sources and
    /// destinations: state-table and verify-cache hits.
    SignedHot,
    /// Two loopback TCP daemons, no state table, no signatures: every flow
    /// is a full two-ended wire round.
    WireUnsigned,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SignedCold,
        Workload::SignedHot,
        Workload::WireUnsigned,
    ];

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SignedCold => "signed_cold",
            Workload::SignedHot => "signed_hot",
            Workload::WireUnsigned => "wire_unsigned",
        }
    }

    /// Offered open-loop rate, flows per second. Sized so that the tier is
    /// busy about a quarter of the open-loop phase on a 2-vCPU machine; the
    /// same figure is stated in the workload's `why` in `BENCHMARK.json`.
    pub fn rate_per_sec(self) -> f64 {
        match self {
            Workload::SignedCold => 350.0,
            Workload::SignedHot => 5_000.0,
            Workload::WireUnsigned => 2_300.0,
        }
    }

    /// Flows each segment's closed loop decides: at least the segment's
    /// open-loop flows, and more where those would take only milliseconds,
    /// so that the capacity figure rests on a tenth of a second or more of
    /// calls per segment.
    pub fn closed_flows(self, open_flows: usize) -> usize {
        match self {
            Workload::SignedCold => open_flows,
            Workload::SignedHot => open_flows.max(20_000),
            Workload::WireUnsigned => open_flows.max(10_000),
        }
    }

    /// Whether the generator yields its vCPU while it waits for the next
    /// flow. It does where the tier has threads of its own that need the
    /// vCPUs (the wire workload's reactor and daemons); on the signed
    /// workloads the tier decides on the generator's own thread, and a
    /// syscall-free spin disturbs its caches least.
    pub fn generator_yields(self) -> bool {
        self == Workload::WireUnsigned
    }

    /// Tiers one set-up sample builds back to back (its time is their mean).
    /// A wire tier builds in about 0.1 ms, in one of two modes about 2×
    /// apart (as the host schedules the daemons' first wake-up); a sample of
    /// one build would flip with the mode, a sample of 32 averages them.
    pub fn setup_batch(self) -> usize {
        match self {
            Workload::SignedCold | Workload::SignedHot => 1,
            Workload::WireUnsigned => 32,
        }
    }

    /// Flows decided (closed loop, unmeasured) before the open loop starts,
    /// so that it measures the steady state: on `signed_hot` this is enough
    /// for nearly every hot host pair to be in the state table.
    pub fn warmup_flows(self) -> usize {
        match self {
            Workload::SignedCold => 1_000,
            Workload::SignedHot => 10_000,
            Workload::WireUnsigned => 2_000,
        }
    }

    fn signed(self) -> bool {
        self != Workload::WireUnsigned
    }
}

/// Controller shards of every workload's tier. One: on a 2-vCPU machine
/// the generator keeps one of the vCPUs busy, so a second shard would
/// buy a thread spawn and a cross-vCPU wake-up per call rather than
/// parallel work, and its figures moved with the host's scheduling of the
/// other vCPU (a ten-seed spread of 0.33 in `signed_cold`'s capacity with
/// two shards). On the wire workload it also keeps endpoints × shards —
/// the pooled connections — at two.
pub const SHARDS: usize = 1;

/// Initial live population of the signed workloads.
pub const SIGNED_DAEMONS: usize = 2_048;

/// Daemons minted (and signed) during set-up to serve as churn arrivals on
/// `signed_cold`; departed daemons queue behind them and rejoin later.
pub const STANDBY_DAEMONS: usize = 512;

/// Every 16th signed daemon presents a bundle signed over another name.
pub const IMPOSTER_EVERY: usize = 16;

/// Per-shard verify-cache capacity: far fewer verdicts than bundles.
pub const VERIFY_CACHE_CAPACITY: usize = 256;

/// `signed_cold` applies one churn tick before every this many flows.
pub const CHURN_EVERY: u64 = 64;

/// Departures (and arrivals) per churn tick.
pub const CHURN_SIZE: usize = 2;

/// About one destination pick in this many names a recently departed host.
pub const DEPARTED_DST_EVERY: usize = 32;

/// How many recent departures destination picks draw from.
const RECENT_DEPARTED: usize = 32;

/// `signed_hot`'s hot source set.
pub const HOT_SOURCES: usize = 64;

/// Imposters among the hot sources: exactly their population share, so
/// that the seed picks which hosts are hot but not how many never pass.
const HOT_IMPOSTERS: usize = HOT_SOURCES / IMPOSTER_EVERY;

/// `signed_hot`'s hot destination set.
pub const HOT_DESTINATIONS: usize = 8;

/// One `signed_hot` pick in this many (sources and destinations alike)
/// comes from the whole population instead of the hot sets: rare enough
/// that the hit path, not fresh verification, dominates the workload.
const COLD_PICK_EVERY: usize = 1_024;

/// What every signed bundle delegates.
const SIGNED_REQS: &str = "block all\npass all with eq(@src[name], research-app)";

/// The signed workloads' policy (E11's): nothing passes without an
/// authentic delegation, and passes keep state.
pub const SIGNED_POLICY: &str = "block all\npass all with verify(@src[req-sig], Secur, \
                                 @src[exe-hash], @src[name], @src[requirements]) keep state\n";

/// The wire workload's policy: the repository's allow-known-apps policy
/// (`policies/allow-known-apps.control`), run without a state table.
pub const KNOWN_APPS_POLICY: &str = "\
block all
pass all with eq(@src[name], firefox) keep state
pass all with eq(@src[name], skype) with gte(@src[version], 200) keep state
pass all with eq(@src[name], thunderbird) keep state
pass all with eq(@src[name], ssh) keep state
pass all with eq(@src[name], Server) keep state
pass all with eq(@src[name], research-app) keep state
";

/// The wire workload's two hosts: the odd one runs firefox (passes), the
/// even one an unknown daemon (blocked).
pub const WIRE_HOSTS: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 64, 0, 1), Ipv4Addr::new(10, 64, 0, 2)];

/// Address of signed daemon `index`.
pub fn signed_addr(index: usize) -> Ipv4Addr {
    Ipv4Addr(Ipv4Addr::new(10, 32, 0, 0).0 + index as u32)
}

/// Whether signed daemon `index` presents a forged delegation.
pub fn is_imposter(index: usize) -> bool {
    index % IMPOSTER_EVERY == IMPOSTER_EVERY - 1
}

/// The signing key every genuine bundle is issued under.
pub fn signer() -> KeyPair {
    KeyPair::from_seed(b"Secur")
}

/// Mints signed daemon `index`: a per-host bundle under `signer`, forged
/// (signed over a different name than the daemon claims) for imposters.
pub fn mint_daemon(signer: &KeyPair, index: usize) -> Daemon {
    let addr = signed_addr(index);
    let exe_hash = format!("bench-exe-{index:06}");
    let bundle = sign_bundle_windowed(
        signer,
        "Secur",
        0,
        u64::MAX,
        &[exe_hash.as_str(), "research-app", SIGNED_REQS],
    );
    let name = if is_imposter(index) {
        "imposter-app"
    } else {
        "research-app"
    };
    let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
    daemon.set_forged_response(Some(vec![
        ("name".to_string(), name.to_string()),
        ("exe-hash".to_string(), exe_hash),
        ("requirements".to_string(), SIGNED_REQS.to_string()),
        ("req-sig".to_string(), bundle.to_hex()),
    ]));
    daemon
}

/// A built tier and everything the driver needs beside it.
pub struct Setup {
    /// The decision tier under test.
    pub tier: ShardedController,
    /// Every minted signed daemon, by population index; churn arrivals are
    /// registered from here. Empty on the wire workload.
    pub daemons: Vec<Daemon>,
    /// The loopback daemons of the wire workload.
    pub servers: Vec<DaemonServer>,
    /// One round log per shard when the tier was built traced.
    pub rounds: Vec<Arc<Mutex<RoundLog>>>,
}

impl Setup {
    /// Builds the workload's tier: mints and signs the population (or starts
    /// the loopback daemons), compiles the policy, and attaches one backend
    /// per shard — wrapped in a [`TimedBackend`] when `traced`.
    pub fn build(workload: Workload, traced: bool) -> Setup {
        let mut rounds = Vec::new();
        let mut wrap = |backend: Box<dyn QueryBackend>| -> Box<dyn QueryBackend> {
            if traced {
                let log = Arc::new(Mutex::new(RoundLog::default()));
                rounds.push(Arc::clone(&log));
                Box::new(TimedBackend::new(backend, log))
            } else {
                backend
            }
        };
        if workload.signed() {
            let signer = signer();
            let daemons: Vec<Daemon> = (0..SIGNED_DAEMONS + STANDBY_DAEMONS)
                .map(|index| mint_daemon(&signer, index))
                .collect();
            let (directory, first) = SharedDirectoryBackend::fresh();
            {
                let mut directory = directory.lock().expect("fresh directory");
                for daemon in &daemons[..SIGNED_DAEMONS] {
                    directory.register(daemon.clone());
                }
            }
            let config = ControllerConfig::new()
                .with_control_file("00.control", SIGNED_POLICY)
                .with_trusted_key("Secur", signer.public())
                .with_verify_cache_capacity(VERIFY_CACHE_CAPACITY)
                .with_cache_granularity(CacheGranularity::HostPairDstPort)
                .with_fail_closed_on_unanswered();
            let mut first = Some(first);
            let tier = ShardedController::new(config, SHARDS)
                .expect("the signed policy compiles")
                .with_backends(|_| {
                    wrap(match first.take() {
                        Some(backend) => Box::new(backend),
                        None => Box::new(SharedDirectoryBackend::new(Arc::clone(&directory))),
                    })
                });
            Setup {
                tier,
                daemons,
                servers: Vec::new(),
                rounds,
            }
        } else {
            let servers: Vec<DaemonServer> = WIRE_HOSTS
                .iter()
                .map(|&addr| {
                    let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
                    let app = if addr.0 % 2 == 1 {
                        "firefox"
                    } else {
                        "unknownd"
                    };
                    daemon.set_forged_response(Some(vec![
                        ("name".to_string(), app.to_string()),
                        ("userID".to_string(), "alice".to_string()),
                    ]));
                    tokio::runtime::block_on(DaemonServer::start(
                        daemon,
                        "127.0.0.1:0".parse().expect("loopback address"),
                    ))
                    .expect("bind a loopback daemon")
                })
                .collect();
            let config = ControllerConfig::new()
                .with_control_file("00.control", KNOWN_APPS_POLICY)
                .without_state_table();
            let endpoints: Vec<_> = WIRE_HOSTS
                .iter()
                .zip(&servers)
                .map(|(&addr, server)| (addr, server.local_addr()))
                .collect();
            let tier = ShardedController::new(config, SHARDS)
                .expect("the known-apps policy compiles")
                .with_backends(|_| {
                    let mut backend = NetworkBackend::new();
                    for &(addr, endpoint) in &endpoints {
                        backend.register_endpoint(addr, endpoint);
                    }
                    wrap(Box::new(backend))
                });
            Setup {
                tier,
                daemons: Vec::new(),
                servers,
                rounds,
            }
        }
    }

    /// Stops the loopback daemons, if any, and drops the tier.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// One flow of the stream, with what the oracle needs to know about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// The flow handed to the tier.
    pub flow: FiveTuple,
    /// Whether the source presents an identity the policy accepts (a
    /// genuine signed delegation, or the wire workload's firefox host).
    pub src_accepted: bool,
    /// Whether the destination's daemon is registered when the flow is due.
    pub dst_live: bool,
}

/// One item of the stream: a flow, or a churn hook call on `signed_cold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A new flow to decide.
    Flow(FlowSpec),
    /// A daemon leaves: `unregister_daemon(addr)`.
    Depart(Ipv4Addr),
    /// Population member `index` (pre-minted at set-up) joins:
    /// `register_daemon`.
    Arrive(usize),
}

/// SplitMix64: small, seedable, and enough for picking hosts.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Moves a uniform sample of `count` distinct items to the front.
    fn shuffle_prefix<T>(&mut self, items: &mut [T], count: usize) {
        for i in 0..count {
            let j = i + self.below(items.len() - i);
            items.swap(i, j);
        }
    }
}

/// The seeded, endless event stream of one workload. The same workload
/// and seed give the same events, in the same order, every time.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    flows: u64,
    /// The flow count at which the last churn tick was queued.
    ticked_at: u64,
    /// Live signed population indices.
    live: Vec<usize>,
    /// Pre-minted and departed indices, in arrival order.
    standby: VecDeque<usize>,
    /// The most recent departures that have not rejoined.
    departed: VecDeque<usize>,
    hot_src: Vec<usize>,
    hot_dst: Vec<usize>,
    /// Churn events due before the next flow.
    queued: VecDeque<Event>,
}

impl Generator {
    /// A fresh stream for `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut rng = Rng(seed ^ 0xF10B_E4C4_0000_0000);
        let (live, standby) = if workload.signed() {
            (
                (0..SIGNED_DAEMONS).collect(),
                (SIGNED_DAEMONS..SIGNED_DAEMONS + STANDBY_DAEMONS).collect(),
            )
        } else {
            (Vec::new(), VecDeque::new())
        };
        let (hot_src, hot_dst) = if workload == Workload::SignedHot {
            let (mut genuine, mut imposters): (Vec<usize>, Vec<usize>) =
                (0..SIGNED_DAEMONS).partition(|&i| !is_imposter(i));
            let genuine_hot = HOT_SOURCES - HOT_IMPOSTERS;
            rng.shuffle_prefix(&mut genuine, genuine_hot + HOT_DESTINATIONS);
            rng.shuffle_prefix(&mut imposters, HOT_IMPOSTERS);
            let mut hot_src = genuine[..genuine_hot].to_vec();
            hot_src.extend_from_slice(&imposters[..HOT_IMPOSTERS]);
            (
                hot_src,
                genuine[genuine_hot..genuine_hot + HOT_DESTINATIONS].to_vec(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Generator {
            workload,
            rng,
            flows: 0,
            ticked_at: 0,
            live,
            standby,
            departed: VecDeque::new(),
            hot_src,
            hot_dst,
            queued: VecDeque::new(),
        }
    }

    fn churn_tick(&mut self) {
        for _ in 0..CHURN_SIZE {
            let victim = self.live.swap_remove(self.rng.below(self.live.len()));
            self.standby.push_back(victim);
            self.departed.push_back(victim);
            if self.departed.len() > RECENT_DEPARTED {
                self.departed.pop_front();
            }
            self.queued.push_back(Event::Depart(signed_addr(victim)));
        }
        for _ in 0..CHURN_SIZE {
            let index = self.standby.pop_front().expect("standby is never empty");
            self.departed.retain(|&d| d != index);
            self.live.push(index);
            self.queued.push_back(Event::Arrive(index));
        }
    }

    /// A live host other than `not`.
    fn other_live(&mut self, not: usize) -> usize {
        let pick = self.rng.below(self.live.len());
        if self.live[pick] != not {
            self.live[pick]
        } else {
            self.live[(pick + 1) % self.live.len()]
        }
    }

    fn next_flow(&mut self) -> FlowSpec {
        let index = self.flows;
        self.flows += 1;
        let src_port = 40_000 + (index % 20_000) as u16;
        let dst_port = if self.rng.below(2) == 0 { 80 } else { 443 };
        let (src, dst, src_accepted, dst_live) = match self.workload {
            Workload::WireUnsigned => {
                let src = self.rng.below(2);
                let (src, dst) = (WIRE_HOSTS[src], WIRE_HOSTS[1 - src]);
                (src, dst, src.0 % 2 == 1, true)
            }
            Workload::SignedCold => {
                let src = self.live[self.rng.below(self.live.len())];
                let (dst, dst_live) =
                    if !self.departed.is_empty() && self.rng.below(DEPARTED_DST_EVERY) == 0 {
                        (self.departed[self.rng.below(self.departed.len())], false)
                    } else {
                        (self.other_live(src), true)
                    };
                (
                    signed_addr(src),
                    signed_addr(dst),
                    !is_imposter(src),
                    dst_live,
                )
            }
            Workload::SignedHot => {
                let src = if self.rng.below(COLD_PICK_EVERY) == 0 {
                    self.live[self.rng.below(self.live.len())]
                } else {
                    self.hot_src[self.rng.below(HOT_SOURCES)]
                };
                let mut dst = if self.rng.below(COLD_PICK_EVERY) == 0 {
                    self.live[self.rng.below(self.live.len())]
                } else {
                    self.hot_dst[self.rng.below(HOT_DESTINATIONS)]
                };
                if dst == src {
                    dst = self.other_live(src);
                }
                (signed_addr(src), signed_addr(dst), !is_imposter(src), true)
            }
        };
        FlowSpec {
            flow: FiveTuple::tcp(src, src_port, dst, dst_port),
            src_accepted,
            dst_live,
        }
    }
}

impl Iterator for Generator {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.queued.is_empty()
            && self.workload == Workload::SignedCold
            && self.flows > 0
            && self.flows.is_multiple_of(CHURN_EVERY)
            && self.ticked_at != self.flows
        {
            self.ticked_at = self.flows;
            self.churn_tick();
        }
        Some(match self.queued.pop_front() {
            Some(event) => event,
            None => Event::Flow(self.next_flow()),
        })
    }
}
