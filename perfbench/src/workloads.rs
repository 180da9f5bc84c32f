//! The three workloads: build the world, install the seeded traffic, run to
//! quiescence, and check the outcome against the inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use desim::SimDuration;
use hpcnet::{NodeAddr, Payload, Topology};
use vorx::protocols::sliding_window::{self, SwParams};
use vorx::udco::{self, UdcoMode};
use vorx::{channel, kernel, TraceEvent, VorxBuilder, VorxShardedSim, VorxSim, World};
use vorx_bench::workload::StreamingWorkload;

use crate::oracle::{self, Arrival, Digest};
use crate::plan::{self, Pair, PlannedFrame, Proto};
use crate::spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperChannels,
    FabricFlood,
    ShardedStreams,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperChannels, Kind::FabricFlood, Kind::ShardedStreams];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperChannels => "paper_channels",
            Kind::FabricFlood => "fabric_flood",
            Kind::ShardedStreams => "sharded_streams",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether a retransmission fails the run. The fabric loses nothing
    /// here, so no channel timer should fire. `sharded_streams` is the
    /// exception: at some seeds a few acks are held in the fabric for tens
    /// of simulated milliseconds, the writers' timers fire and the readers
    /// drop the duplicates. Every message still arrives exactly once, so
    /// there the count is a model output, pinned by the fingerprint.
    pub fn retransmission_fails(self) -> bool {
        self != Kind::ShardedStreams
    }

    /// The configuration the end-to-end metrics are measured in.
    pub fn measured(self) -> Opts {
        Opts {
            // The paper-table traffic runs with the builder's default trace
            // (what the oscilloscope and `prof` read); the other two are
            // long runs, which disable it.
            sim_trace: self == Kind::PaperChannels,
            workers: if self == Kind::ShardedStreams {
                plan::STREAM_WORKERS
            } else {
                1
            },
            spans: None,
        }
    }
}

/// How one repetition is built.
#[derive(Clone)]
pub struct Opts {
    /// Record the simulator's own trace (`World::trace`).
    pub sim_trace: bool,
    /// Engine worker threads (sharded workload only).
    pub workers: usize,
    /// Record benchmark spans around layer calls.
    pub spans: Option<Arc<Spans>>,
}

/// The seeded inputs of one workload.
pub enum Input {
    Channels(Vec<Pair>),
    Flood {
        frames: Arc<[PlannedFrame]>,
        expected: Vec<Vec<Arrival>>,
    },
    Streams(StreamingWorkload),
}

impl Input {
    pub fn generate(kind: Kind, seed: u64) -> Input {
        match kind {
            Kind::PaperChannels => Input::Channels(plan::channel_pairs(seed)),
            Kind::FabricFlood => {
                let frames: Arc<[PlannedFrame]> = plan::flood_frames(seed).into();
                let expected =
                    oracle::flood_expected(&frames, plan::FLOOD_CLUSTERS * plan::FLOOD_EPS);
                Input::Flood { frames, expected }
            }
            Kind::ShardedStreams => Input::Streams(plan::streams(seed)),
        }
    }

    /// Messages (channel writes, flood frames) the inputs send.
    pub fn messages(&self) -> u64 {
        match self {
            Input::Channels(pairs) => pairs.iter().map(|p| u64::from(p.msgs)).sum(),
            Input::Flood { frames, .. } => frames.len() as u64,
            Input::Streams(wl) => wl.expected_messages(),
        }
    }

    /// Σ `Topology::hops` over every target of every generated message or
    /// frame: the fabric load the inputs ask for.
    pub fn frame_hops(&self) -> u64 {
        match self {
            Input::Channels(pairs) => {
                let t = Topology::incomplete_hypercube(plan::CHANNEL_CLUSTERS, plan::CHANNEL_EPS)
                    .expect("valid hypercube");
                pairs
                    .iter()
                    .map(|p| u64::from(p.msgs) * t.hops(p.writer, p.reader) as u64)
                    .sum()
            }
            Input::Flood { frames, .. } => {
                let t = plan::flood_topology();
                frames
                    .iter()
                    .flat_map(|f| f.dst.iter().map(|&d| t.hops(f.src, d) as u64))
                    .sum()
            }
            Input::Streams(wl) => {
                let t = plan::stream_topology();
                let n = t.n_endpoints() as u32;
                let mut hops = 0u64;
                for k in 0..wl.windows {
                    for i in 0..wl.streams_per_window {
                        let (a, b) = wl.stream(n, k, i);
                        hops += u64::from(wl.msgs_per_stream) * t.hops(a, b) as u64;
                    }
                }
                hops
            }
        }
    }
}

/// Simulated outcome of a run: identical on every repetition of the same
/// inputs, whatever the host, worker count or tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Model {
    pub sim_end_ns: u64,
    pub activities: u64,
    pub deliveries: u64,
    pub retries: u64,
    pub digest: u64,
}

/// Deterministic per-layer counts of a run, the same in every
/// configuration of the same inputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub depth_hwm: u64,
    pub retries: u64,
    pub events_per_shard: Vec<u64>,
    pub msgs_bridged: u64,
}

/// Sharded-engine counters that depend on thread timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTiming {
    pub rounds: u64,
    pub frontier_bumps: u64,
    pub stall_s: f64,
}

/// What one repetition measured and found.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub model: Model,
    pub counts: Counts,
    /// Records in the simulator trace, and a digest of the (merged) trace
    /// when it was recorded.
    pub trace_records: u64,
    pub trace_digest: Option<u64>,
    pub shard: ShardTiming,
    /// Host ns of each `kernel::send_frame` call (flood, spans on).
    pub send_frame_ns: Vec<u64>,
}

/// A world with its workload installed, ready to run.
enum Built {
    Channels {
        v: VorxSim,
        log: Arc<Mutex<ChanLog>>,
    },
    Flood {
        v: VorxSim,
    },
    Streams {
        v: VorxShardedSim,
        delivered: Arc<AtomicU64>,
    },
}

/// Build the world and install the workload (what `setup_s` times).
fn build(input: &Input, opts: &Opts) -> Built {
    match input {
        Input::Channels(pairs) => build_channels(pairs, opts),
        Input::Flood { frames, .. } => build_flood(frames, opts),
        Input::Streams(wl) => {
            let t = plan::stream_topology();
            let n = t.n_endpoints() as u32;
            let v = VorxBuilder::with_topology(t)
                .shards(plan::STREAM_SHARDS)
                .trace(opts.sim_trace)
                .build_sharded(opts.workers);
            let delivered = Arc::new(AtomicU64::new(0));
            wl.install(&v, n, &delivered);
            Built::Streams { v, delivered }
        }
    }
}

/// Host seconds to build the world and install the workload, without
/// running it.
pub fn setup_only(input: &Input, opts: &Opts) -> f64 {
    let t0 = Instant::now();
    let built = build(input, opts);
    let s = t0.elapsed().as_secs_f64();
    drop(built);
    s
}

/// One repetition: build and install (timed as set-up), run to quiescence
/// (timed as the run), then check the outcome against the inputs.
pub fn rep(input: &Input, opts: &Opts) -> Rep {
    let spans = opts.spans.as_deref();
    let t0 = Instant::now();
    let built = match spans {
        Some(sp) => sp.scope("setup", || build(input, opts)),
        None => build(input, opts),
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let run_span = spans.map(|sp| sp.begin("run"));
    let mut rep = match (built, input) {
        (Built::Channels { mut v, log }, Input::Channels(pairs)) => {
            let (report, run_s, cpu_s) = timed(|| v.run());
            finish_channels(pairs, &v, report, &log, run_s, cpu_s)
        }
        (Built::Flood { mut v }, Input::Flood { expected, .. }) => {
            let (report, run_s, cpu_s) = timed(|| v.run());
            finish_flood(expected, &v, report, run_s, cpu_s)
        }
        (Built::Streams { mut v, delivered }, Input::Streams(wl)) => {
            let (reports, run_s, cpu_s) = timed(|| v.run());
            finish_streams(wl, &mut v, &reports, &delivered, run_s, cpu_s)
        }
        _ => unreachable!("a world is built from its own workload's inputs"),
    };
    if let (Some(sp), Some(id)) = (spans, run_span) {
        sp.end(id);
        rep.send_frame_ns = sp.durations("send_frame", id);
    }
    rep.setup_s = setup_s;
    rep
}

/// `f`'s result, wall seconds and process CPU seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = crate::host::cpu_s();
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64(), crate::host::cpu_s() - cpu0)
}

fn empty_rep(run_s: f64, cpu_s: f64) -> Rep {
    Rep {
        setup_s: 0.0,
        run_s,
        cpu_s,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        model: Model {
            sim_end_ns: 0,
            activities: 0,
            deliveries: 0,
            retries: 0,
            digest: 0,
        },
        counts: Counts::default(),
        trace_records: 0,
        trace_digest: None,
        shard: ShardTiming::default(),
        send_frame_ns: Vec::new(),
    }
}

fn check_idle(report: &desim::IdleReport, problems: &mut Vec<String>) {
    if !report.all_finished() {
        problems.push(format!(
            "deadlock: {} processes still parked at quiescence, e.g. {:?}",
            report.parked.len(),
            report.parked.first().map(|p| &p.1)
        ));
    }
}

fn world_counts(w: &World, rep: &mut Rep) {
    rep.trace_records += w.trace.len() as u64;
    let c = &mut rep.counts;
    c.frames_sent += w.net.stats.frames_sent;
    c.frames_delivered += w.net.stats.frames_delivered;
    c.depth_hwm = c.depth_hwm.max(w.net.max_port_link_depth_hwm() as u64);
    c.retries += w.faults.stats.retransmits + w.faults.stats.coll_retries;
}

fn trace_digest(trace: &desim::Trace<TraceEvent>) -> u64 {
    let mut d = Digest::default();
    for (t, e) in trace.iter() {
        d.word(t.as_ns());
        d.bytes(format!("{e:?}").as_bytes());
    }
    d.0
}

// ---------------------------------------------------------------------------
// paper_channels
// ---------------------------------------------------------------------------

const SW_DATA_TAG: u16 = 1;
const SW_CREDIT_TAG: u16 = 2;

/// What the readers observed, in simulated order (sim processes run one at
/// a time, so the lock never contends and the order is deterministic).
struct ChanLog {
    delivered: Vec<Vec<u32>>,
    errors: u64,
    digest: Digest,
}

impl ChanLog {
    fn deliver(&mut self, pair: usize, len: u32, now_ns: u64) {
        self.delivered[pair].push(len);
        self.digest.word(pair as u64);
        self.digest.word(u64::from(len));
        self.digest.word(now_ns);
    }
}

fn lock(log: &Mutex<ChanLog>) -> std::sync::MutexGuard<'_, ChanLog> {
    log.lock()
        .expect("delivery log poisoned by a panicked reader")
}

fn build_channels(pairs: &[Pair], opts: &Opts) -> Built {
    let v = VorxBuilder::hypercube(plan::CHANNEL_CLUSTERS, plan::CHANNEL_EPS)
        .trace(opts.sim_trace)
        .build();
    let log = Arc::new(Mutex::new(ChanLog {
        delivered: vec![Vec::new(); pairs.len()],
        errors: 0,
        digest: Digest::default(),
    }));
    for (i, &p) in pairs.iter().enumerate() {
        let (wr, rd) = (p.writer, p.reader);
        let rlog = Arc::clone(&log);
        match p.proto {
            Proto::StopAndWait => {
                let wlog = Arc::clone(&log);
                let name = format!("pc.{i}");
                let rname = name.clone();
                v.spawn(format!("n{}:pc-writer", wr.0), move |ctx| {
                    let ch = channel::open(&ctx, wr, &name);
                    for _ in 0..p.msgs {
                        if ch.write(&ctx, Payload::Synthetic(p.len)).is_err() {
                            lock(&wlog).errors += 1;
                        }
                    }
                });
                v.spawn(format!("n{}:pc-reader", rd.0), move |ctx| {
                    let ch = channel::open(&ctx, rd, &rname);
                    for _ in 0..p.msgs {
                        match ch.read(&ctx) {
                            Ok(m) => lock(&rlog).deliver(i, m.len(), ctx.now().as_ns()),
                            Err(_) => {
                                lock(&rlog).errors += 1;
                                break;
                            }
                        }
                    }
                });
            }
            Proto::SlidingWindow => {
                let sw = SwParams {
                    data_tag: SW_DATA_TAG,
                    credit_tag: SW_CREDIT_TAG,
                    msg_len: p.len,
                    n_msgs: u64::from(p.msgs),
                    bufs: plan::SW_BUFS,
                };
                v.spawn(format!("n{}:sw-sender", wr.0), move |ctx| {
                    sliding_window::sender(&ctx, wr, rd, sw);
                });
                // `sliding_window::receiver`, recording every delivery.
                v.spawn(format!("n{}:sw-receiver", rd.0), move |ctx| {
                    udco::register(&ctx, rd, SW_DATA_TAG, UdcoMode::Interrupt);
                    for c in 0..u64::from(sw.bufs) {
                        udco::send(&ctx, rd, wr, SW_CREDIT_TAG, c, Payload::Synthetic(0));
                    }
                    for _ in 0..p.msgs {
                        let m = udco::recv(&ctx, rd, SW_DATA_TAG);
                        lock(&rlog).deliver(i, m.payload.len(), ctx.now().as_ns());
                        udco::send(&ctx, rd, wr, SW_CREDIT_TAG, 0, Payload::Synthetic(0));
                    }
                });
            }
        }
    }
    Built::Channels { v, log }
}

fn finish_channels(
    pairs: &[Pair],
    v: &VorxSim,
    report: desim::IdleReport,
    log: &Mutex<ChanLog>,
    run_s: f64,
    cpu_s: f64,
) -> Rep {
    let mut rep = empty_rep(run_s, cpu_s);
    check_idle(&report, &mut rep.problems);
    let log = lock(log);
    rep.attempted = pairs.iter().map(|p| u64::from(p.msgs)).sum();
    rep.failed = oracle::channels(pairs, &log.delivered);
    if log.errors > 0 {
        rep.problems
            .push(format!("{} channel operations failed", log.errors));
    }
    let w = v.world();
    world_counts(&w, &mut rep);
    if w.trace.is_enabled() {
        rep.trace_digest = Some(trace_digest(&w.trace));
    }
    rep.model = Model {
        sim_end_ns: report.now.as_ns(),
        activities: v.sim.events_dispatched(),
        deliveries: log.delivered.iter().map(|d| d.len() as u64).sum(),
        retries: rep.counts.retries,
        digest: log.digest.0,
    };
    rep
}

// ---------------------------------------------------------------------------
// fabric_flood
// ---------------------------------------------------------------------------

fn build_flood(frames: &Arc<[PlannedFrame]>, opts: &Opts) -> Built {
    let v = VorxBuilder::with_topology(plan::flood_topology())
        .trace(opts.sim_trace)
        .build();
    let n = v.n_nodes() as u32;
    let (frames, spans) = (Arc::clone(frames), opts.spans.clone());
    v.sim.setup(|w, s| {
        for a in 0..n {
            udco::register_in(w, s, NodeAddr(a), plan::FLOOD_TAG, UdcoMode::Polled);
        }
        let first = SimDuration::from_ns(frames[0].at_ns);
        s.schedule_in(first, move |w, s| inject(w, s, frames, 0, spans));
    });
    Built::Flood { v }
}

/// The open-loop generator: hand frame `j` to the kernel, then schedule
/// frame `j + 1` at its planned time, whatever the fabric did with `j`.
fn inject(
    w: &mut World,
    s: &mut vorx::VSched,
    frames: Arc<[PlannedFrame]>,
    j: usize,
    spans: Option<Arc<Spans>>,
) {
    let frame = frames[j].frame(j as u64);
    match &spans {
        None => kernel::send_frame(w, s, frame),
        Some(sp) => {
            let t = Instant::now();
            kernel::send_frame(w, s, frame);
            sp.leaf("send_frame", t, Instant::now());
        }
    }
    if let Some(next) = frames.get(j + 1) {
        let gap = SimDuration::from_ns(next.at_ns - frames[j].at_ns);
        s.schedule_in(gap, move |w, s| inject(w, s, frames, j + 1, spans));
    }
}

fn finish_flood(
    expected: &[Vec<Arrival>],
    v: &VorxSim,
    report: desim::IdleReport,
    run_s: f64,
    cpu_s: f64,
) -> Rep {
    let mut rep = empty_rep(run_s, cpu_s);
    check_idle(&report, &mut rep.problems);
    let w = v.world();
    let mut digest = Digest::default();
    let got: Vec<Vec<Arrival>> = (0..expected.len())
        .map(|a| {
            let q: Vec<Arrival> = w
                .node(NodeAddr(a as u32))
                .udcos
                .get(&plan::FLOOD_TAG)
                .map(|u| {
                    u.rx.iter()
                        .map(|m| Arrival {
                            seq: m.seq,
                            src: m.src,
                            len: m.payload.len(),
                        })
                        .collect()
                })
                .unwrap_or_default();
            for m in &q {
                digest.word(a as u64);
                digest.word(m.seq);
            }
            q
        })
        .collect();
    let want: u64 = expected.iter().map(|q| q.len() as u64).sum();
    rep.attempted = want;
    rep.failed = oracle::flood(expected, &got).min(want);
    let st = &w.net.stats;
    if st.frames_delivered != want {
        rep.problems.push(format!(
            "fabric delivered {} frames, inputs address {want}",
            st.frames_delivered
        ));
    }
    let lost = st.frames_dropped + st.frames_shed + st.frames_corrupted;
    if lost > 0 {
        rep.problems.push(format!(
            "{} frames dropped, {} shed, {} corrupted",
            st.frames_dropped, st.frames_shed, st.frames_corrupted
        ));
    }
    world_counts(&w, &mut rep);
    if w.trace.is_enabled() {
        rep.trace_digest = Some(trace_digest(&w.trace));
    }
    rep.model = Model {
        sim_end_ns: report.now.as_ns(),
        activities: v.sim.events_dispatched(),
        deliveries: got.iter().map(|q| q.len() as u64).sum(),
        retries: rep.counts.retries,
        digest: digest.0,
    };
    rep
}

// ---------------------------------------------------------------------------
// sharded_streams
// ---------------------------------------------------------------------------

fn finish_streams(
    wl: &StreamingWorkload,
    v: &mut VorxShardedSim,
    reports: &[desim::IdleReport],
    delivered: &AtomicU64,
    run_s: f64,
    cpu_s: f64,
) -> Rep {
    let mut rep = empty_rep(run_s, cpu_s);
    for r in reports {
        check_idle(r, &mut rep.problems);
    }
    let delivered = delivered.load(Ordering::Relaxed);
    rep.attempted = wl.expected_messages();
    rep.failed = oracle::streams(rep.attempted, delivered).min(rep.attempted);
    let stats = v.stats().clone();
    let mut digest = Digest::default();
    let mut rx: Vec<u64> = Vec::new();
    for (k, r) in reports.iter().enumerate() {
        let w = v.world(k);
        world_counts(&w, &mut rep);
        digest.word(r.now.as_ns());
        digest.word(stats.events_per_shard[k]);
        let per = &w.net.stats.per_endpoint_rx;
        rx.resize(per.len(), 0);
        rx.iter_mut().zip(per).for_each(|(acc, &x)| *acc += x);
    }
    rx.iter().for_each(|&x| digest.word(x));
    let tracing = v.world(0).trace.is_enabled();
    if tracing {
        rep.trace_digest = Some(trace_digest(&v.merged_trace()));
    }
    rep.counts.events_per_shard = stats.events_per_shard.clone();
    rep.counts.msgs_bridged = stats.msgs_bridged;
    rep.shard = ShardTiming {
        rounds: stats.rounds,
        frontier_bumps: stats.frontier_bumps,
        stall_s: stats
            .worker_stalls
            .iter()
            .map(|s| (s.spin_ns + s.yield_ns) as f64 * 1e-9)
            .sum(),
    };
    rep.model = Model {
        sim_end_ns: reports.iter().map(|r| r.now.as_ns()).max().unwrap_or(0),
        activities: stats.events_per_shard.iter().sum(),
        deliveries: delivered,
        retries: rep.counts.retries,
        digest: digest.0,
    };
    rep
}
