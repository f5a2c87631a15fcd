//! What every workload shares: the run configuration, the per-repetition
//! result, the outcome ledger and the open-loop query generator.

use std::collections::BTreeMap;
use std::time::Instant;

use simnet::{Context, Node, Packet, SimDuration, SimTime, TimerTag};

/// How big a workload is built. `Tiny` exists for the benchmark's own
/// tests; every reported figure comes from `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A defect injected into the benchmark's own bookkeeping, so the tests
/// can show that each outcome check can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// A benchmark subscriber miscounts one delivery (ingest).
    DropDelivery,
    /// The reference fold of raw samples loses one sample (ingest).
    DropSample,
    /// One device's emitted frames are counted one too many (ingest).
    ExtraFrame,
    /// One query snapshot loses one entity (query).
    DropEntity,
    /// One JSON query snapshot loses one returned point (query).
    DropPoint,
    /// One repetition reports another sim-outcome digest (all).
    Digest,
}

impl Defect {
    pub fn parse(s: &str) -> Option<Defect> {
        Some(match s {
            "drop-delivery" => Defect::DropDelivery,
            "drop-sample" => Defect::DropSample,
            "extra-frame" => Defect::ExtraFrame,
            "drop-entity" => Defect::DropEntity,
            "drop-point" => Defect::DropPoint,
            "digest" => Defect::Digest,
            _ => return None,
        })
    }
}

/// One repetition's inputs.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub scale: Scale,
    pub threads: usize,
    pub traced: bool,
    pub defect: Option<Defect>,
}

/// Host seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub scenario_s: f64,
    pub deploy_s: f64,
    pub preload_s: f64,
    pub register_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.scenario_s + self.deploy_s + self.preload_s + self.register_s
    }
}

/// Outcome checks of one repetition: how many operations were attempted,
/// how many failed, and why.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Outcome {
    /// Counts `bad` failures when `bad > 0`, with a reason.
    pub fn fail(&mut self, bad: u64, reason: String) {
        if bad > 0 {
            self.failed += bad;
            self.reasons.push(reason);
        }
    }

    /// A whole-run law: one failure when it does not hold.
    pub fn require(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, reason());
        }
    }
}

/// One repetition of a workload: set-up, the measured run, the checks.
#[derive(Debug)]
pub struct Rep {
    pub setup: Setup,
    /// Host seconds of the measured run.
    pub run_s: f64,
    /// Simulated seconds of the measured run.
    pub sim_s: f64,
    /// Units of work completed in the measured run (delivered messages,
    /// stored samples or completed queries).
    pub work: u64,
    /// The workload's end-to-end sim-clock latencies, ns, sorted.
    pub latencies_ns: Vec<u64>,
    pub outcome: Outcome,
    /// Per-layer figures read from the library's own counters; they are
    /// sim outcomes, identical in traced and untraced runs.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer host-time figures of a traced run.
    pub timings: BTreeMap<&'static str, f64>,
    /// `ParallelSimulator::flight_digest` at the end of the run.
    pub flight_digest: u64,
    /// Barrier-stall host time (a host figure, not part of the digest).
    pub barrier_stall_ns: u64,
}

impl Rep {
    /// The sim-outcome digest: the flight digest plus every sim-clock
    /// metric and layer count. A change that only makes the host faster
    /// leaves it unchanged.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.flight_digest.to_le_bytes());
        h.eat(&self.work.to_le_bytes());
        h.eat(&self.sim_s.to_bits().to_le_bytes());
        for &l in &self.latencies_ns {
            h.eat(&l.to_le_bytes());
        }
        for (name, v) in &self.counts {
            h.eat(name.as_bytes());
            h.eat(&v.to_bits().to_le_bytes());
        }
        h.eat(&self.outcome.attempted.to_le_bytes());
        h.eat(&self.outcome.failed.to_le_bytes());
        h.0
    }
}

/// 64-bit FNV-1a, the hash `flight_digest` uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The `q`-quantile of sorted samples (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Host seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `host.sim` to `until` in slices of `slice`, recording each
/// slice's host interval (ns since `origin`) when tracing.
pub fn run_sliced(
    sim: &mut simnet::parallel::ParallelSimulator,
    until: SimTime,
    slice: SimDuration,
    origin: Option<Instant>,
    slices: &mut Vec<(u64, u64)>,
) {
    while sim.now() < until {
        let next = (sim.now() + slice).min(until);
        let t0 = Instant::now();
        sim.run_until(next);
        if let Some(origin) = origin {
            slices.push((
                t0.duration_since(origin).as_nanos() as u64,
                origin.elapsed().as_nanos() as u64,
            ));
        }
    }
}

const TAG_DUE: TimerTag = TimerTag(0x0B3_0B3);

/// An open-loop query generator: re-runs the wrapped client's start handler (which
/// issues one query) every `period` from `first` until `until`,
/// whether or not earlier queries completed. Query latency then counts
/// from the time each query was due.
pub struct OpenLoop<N> {
    pub inner: N,
    first: SimDuration,
    period: SimDuration,
    until: SimTime,
    pub issued: u64,
}

impl<N> OpenLoop<N> {
    pub fn new(inner: N, first: SimDuration, period: SimDuration, until: SimTime) -> Self {
        OpenLoop {
            inner,
            first,
            period,
            until,
            issued: 0,
        }
    }
}

impl<N: Node> Node for OpenLoop<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.first, TAG_DUE);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.inner.on_packet(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != TAG_DUE {
            self.inner.on_timer(ctx, tag);
            return;
        }
        if ctx.now() >= self.until {
            return;
        }
        self.issued += 1;
        self.inner.on_start(ctx);
        ctx.set_timer(self.period, TAG_DUE);
    }
}
