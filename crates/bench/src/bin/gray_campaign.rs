//! Gray-failure campaign: degraded-but-alive links — latency inflation
//! with seeded jitter, asymmetric (one-direction) degradation, flap trains
//! at two rates, and a primary-gateway outage — swept over the sharded
//! engine at workers {1, 4} on a two-level redundant hierarchy.
//!
//! The machine is `hierarchical_hypercube_redundant(&[4, 2], 2)`: two
//! groups of four clusters, two endpoints per cluster, and a *standby*
//! gateway class so the inter-group role can fail over without detours.
//! Four paced streams cross every interesting edge: the degraded cable,
//! the flapping cable, and the gateway in both directions.
//!
//! Oracles, checked at quiescence in every cell:
//!
//! 1. exactly-once FIFO delivery on every stream, no stuck processes;
//! 2. **no false `PeerDown`**: under pure delay (no loss, no downs) a
//!    degraded-but-live peer is never declared down or partitioned —
//!    `peer_down_events == 0 && partitions == 0`;
//! 3. **bounded spurious retransmits**: under pure delay the adaptive
//!    Jacobson/Karn timers keep retransmissions within a small
//!    bootstrap/ramp allowance instead of one-per-write forever;
//! 4. flap cells: the fast train trips flap damping (`flaps > 0`) and the
//!    slow train — spaced wider than `flap_window_ns` — does not;
//! 5. membership convergence: every node up, no partition marks, no
//!    probes in flight;
//! 6. workers 1 and 4 produce bit-identical merged traces.
//!
//! Writes `BENCH_gray.json` at the workspace root.
//!
//! Usage:
//!   gray_campaign            # full sweep + BENCH_gray.json
//!   gray_campaign --smoke    # reduced sweep under a wall-clock watchdog

use desim::{FaultSchedule, SimTime, Trace};
use vorx::hpcnet::Topology;
use vorx::{TraceEvent, VorxBuilder, VorxShardedSim};
use vorx_bench::campaign::{
    across_workers, nodes_of, violations, Cables, Campaign, Report, ShardTotals, Streams, Watchdog,
};
use vorx_bench::obj;

/// Hierarchy shape: two groups of four clusters.
const LEVELS: [usize; 2] = [4, 2];
/// Endpoints per cluster.
const EPS: usize = 2;
/// Gap between stream writes.
const PACE_NS: u64 = 4_000_000;
/// The degraded cable (intra-group, group 0).
const DEG_CABLE: (u32, u32) = (0, 1);
/// The flapping cable (intra-group, group 0).
const FLAP_CABLE: (u32, u32) = (2, 3);
/// The primary inter-group gateway cable (standby is 1–5).
const GW_CABLE: (u32, u32) = (0, 4);

fn topo() -> Topology {
    Topology::hierarchical_hypercube_redundant(&LEVELS, EPS).expect("valid machine")
}

/// Both directed link ids of the cluster cable `a`–`b`.
fn cable(a: u32, b: u32) -> [u32; 2] {
    Cables::new(topo()).of(a, b)
}

/// Every cluster cable the campaign streams can cross, both directions.
fn all_cables() -> Vec<u32> {
    let pairs = [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
        (4, 5),
        (4, 6),
        (5, 7),
        (6, 7),
        GW_CABLE,
        (1, 5), // the standby gateway class
    ];
    let cables = Cables::new(topo());
    pairs.iter().flat_map(|&(a, b)| cables.of(a, b)).collect()
}

/// One campaign cell: a named fault script plus the oracles it arms.
struct Cell {
    name: &'static str,
    schedule: fn(u64) -> FaultSchedule,
    /// Set on pure-delay cells (nothing in the script loses or downs
    /// anything): arms the no-false-`PeerDown` oracle and caps total
    /// retransmits at this bootstrap + severe-ramp allowance.
    retx_bound: Option<u64>,
    /// The script must (fast train) or must not (slow train) trip damping.
    expect_flaps: Option<bool>,
}

/// Sim time `n` milliseconds in.
const fn ms(n: u64) -> SimTime {
    SimTime::from_ns(n * 1_000_000)
}

/// Symmetric moderate inflation on every cable: ~20 µs per transit — far
/// past clean latency, far under the RTO floor. Steady state must be
/// retransmit-free.
fn sched_moderate(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in all_cables() {
        s = s.degrade(l, ms(2), ms(60_000), 40.0, 2_000);
    }
    s
}

/// The ramp the adaptive timers exist for: moderate (1 ms per transit,
/// sampleable) long enough to bootstrap the estimators, then severe
/// (50 ms per transit — cross-group RTT ≈ 400 ms, past the fixed 20 ms
/// base and deep into the old false-positive regime) for the rest of the
/// run. Every write must complete; the peer is never down.
fn sched_severe_ramp(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in all_cables() {
        s = s.degrade(l, ms(2), ms(40), 2_000.0, 10_000);
        s = s.degrade(l, ms(40), ms(60_000), 100_000.0, 10_000);
    }
    s
}

/// Asymmetric: only the forward direction of one cable inflates; acks ride
/// a clean return path. Latency stats and timers must handle the
/// per-direction split.
fn sched_asym(seed: u64) -> FaultSchedule {
    let forward = cable(DEG_CABLE.0, DEG_CABLE.1)[0];
    FaultSchedule::new(seed).degrade(forward, ms(2), ms(60_000), 2_000.0, 10_000)
}

/// Slow flap train: transitions 30 ms apart — wider than the 50 ms window
/// needs for three downs, so damping must *not* engage.
fn sched_flap_slow(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in cable(FLAP_CABLE.0, FLAP_CABLE.1) {
        s = s.flap_link(l, ms(10), 30_000_000, 3);
    }
    s
}

/// Fast flap train: transitions 4 ms apart — three downs land inside the
/// 50 ms window, damping holds the link down and routing detours around
/// it until the train ends plus the hold.
fn sched_flap_fast(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in cable(FLAP_CABLE.0, FLAP_CABLE.1) {
        s = s.flap_link(l, ms(10), 4_000_000, 5);
    }
    s
}

/// Primary gateway outage: both directions of the 0–4 cable die mid-run
/// and heal later. `recompute` re-wires the inter-group role onto the
/// standby class (1–5), so cross-group streams keep flowing and no
/// partition is ever declared.
fn sched_gateway(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in cable(GW_CABLE.0, GW_CABLE.1) {
        s = s.link_down_at(l, ms(10)).link_up_at(l, ms(80));
    }
    s
}

const fn cell(
    name: &'static str,
    schedule: fn(u64) -> FaultSchedule,
    retx_bound: Option<u64>,
    expect_flaps: Option<bool>,
) -> Cell {
    Cell {
        name,
        schedule,
        retx_bound,
        expect_flaps,
    }
}

static CELLS: [Cell; 6] = [
    cell("delay-moderate-sym", sched_moderate, Some(8), None),
    cell("delay-severe-ramp", sched_severe_ramp, Some(96), None),
    cell("delay-asym", sched_asym, Some(8), None),
    cell("flap-slow", sched_flap_slow, None, Some(false)),
    cell("flap-fast", sched_flap_fast, None, Some(true)),
    cell("gateway-failover", sched_gateway, None, None),
];

/// Everything one `(cell, seed, workers)` run produced.
struct RunOutcome {
    trace: Trace<TraceEvent>,
    end_ns: u64,
    delivered: u32,
    done: u32,
    expected_done: u32,
    fifo_ok: bool,
    membership_ok: bool,
    /// Fault counters, link flaps/downs and latencies over shards.
    totals: ShardTotals,
    rtt_samples: u64,
}

/// Run one cell at `workers`, oracles evaluated at quiescence.
fn run_once(cell: &Cell, seed: u64, workers: usize, msgs: u32) -> RunOutcome {
    let t = topo();
    let mut v: VorxShardedSim = VorxBuilder::with_topology(t.clone())
        .seed(seed)
        .faults((cell.schedule)(seed))
        .build_sharded(workers);

    // Streams across every interesting edge: the degraded cable, the
    // flapping cable, and the gateway in both directions.
    let streams = [
        (
            nodes_of(&t, DEG_CABLE.0)[0],
            nodes_of(&t, DEG_CABLE.1)[0],
            "gray.deg",
        ),
        (
            nodes_of(&t, FLAP_CABLE.0)[1],
            nodes_of(&t, FLAP_CABLE.1)[1],
            "gray.flap",
        ),
        (nodes_of(&t, 3)[0], nodes_of(&t, 5)[0], "gray.xg"),
        (nodes_of(&t, 6)[0], nodes_of(&t, 2)[0], "gray.gx"),
    ];
    let probe = Streams::default();
    for stream in streams {
        probe.spawn(&v, stream, msgs, PACE_NS, |_| 64);
    }

    let end = v.run_all();
    let trace = v.merged_trace();

    let mut membership_ok = true;
    let mut rtt_samples = 0u64;
    for k in 0..v.n_shards() {
        for n in v.world(k).nodes.iter() {
            if !(n.up && n.mbr.partitioned.is_empty() && n.mbr.probing.is_empty()) {
                membership_ok = false;
            }
            rtt_samples += n.chans.values().map(|e| e.rtt.samples()).sum::<u64>();
        }
    }
    let (delivered, done, fifo_ok) = probe.tally();
    RunOutcome {
        trace,
        end_ns: end.as_ns(),
        delivered,
        done,
        expected_done: 2 * streams.len() as u32,
        fifo_ok,
        membership_ok,
        totals: ShardTotals::of_shards(&v),
        rtt_samples,
    }
}

/// One campaign cell at one seed: workers 1 and 4, traces compared.
struct CellResult {
    cell: &'static Cell,
    seed: u64,
    msgs: u32,
    trace_identical: bool,
    run: RunOutcome,
}

impl CellResult {
    /// Every violated oracle, by name. Empty means the cell is clean.
    fn violations(&self) -> Vec<&'static str> {
        let (r, f, links) = (&self.run, &self.run.totals.faults, &self.run.totals.links);
        let (bound, flaps) = (self.cell.retx_bound, self.cell.expect_flaps);
        let delay = bound.is_some();
        violations(&[
            (r.fifo_ok, "fifo"),
            (r.done == r.expected_done, "stuck-process"),
            (r.membership_ok, "membership-convergence"),
            (self.trace_identical, "worker-determinism"),
            // Pure delay: a delayed-but-live peer must never be declared
            // down or partitioned, and the adaptive timers must keep
            // spurious retransmits within the bootstrap allowance.
            (
                !delay || f.peer_down_events + f.partitions == 0,
                "false-peer-down",
            ),
            (
                bound.is_none_or(|b| f.retransmits <= b),
                "spurious-retransmits",
            ),
            (!delay || r.rtt_samples > 0, "estimators-never-armed"),
            (!delay || links.lat_count > 0, "latency-stats-missing"),
            (
                flaps != Some(true) || links.flaps > 0,
                "damping-never-tripped",
            ),
            (
                flaps != Some(false) || links.flaps == 0,
                "damping-tripped-spuriously",
            ),
            // Flap and failover cells must actually churn the timeline
            // (bridged frames model no link churn — DESIGN.md §12 — so the
            // evidence is the recorded downs, the damper, and healed
            // marks, not retransmits), and every transient mark must heal.
            (delay || links.downs > 0, "no-churn-exercised"),
            (delay || f.partitions == f.heals, "unhealed-partition"),
        ])
    }
}

fn run_cell(cell: &'static Cell, seed: u64, msgs: u32) -> CellResult {
    let sweep = across_workers(
        &[1, 4],
        |w| run_once(cell, seed, w, msgs),
        |r| {
            let t = &r.totals;
            (&r.trace, (r.end_ns, t.faults.retransmits, t.links.flaps))
        },
    );
    CellResult {
        cell,
        seed,
        msgs,
        trace_identical: sweep.identical(),
        run: sweep.runs.into_iter().next().expect("workers 1"),
    }
}

/// The campaign as a `BENCH_gray.json` report.
fn report(cells: &[CellResult]) -> Report {
    let workload = obj! {
        "levels": &LEVELS[..], "endpoints_per_cluster": EPS, "streams": 4u32,
        "pace_ns": PACE_NS,
    };
    let rows = cells.iter().map(|c| {
        let (r, f, links) = (&c.run, &c.run.totals.faults, &c.run.totals.links);
        let retx_bound = c.cell.retx_bound.map_or(-1, |b| b as i64);
        obj! {
            "cell": c.cell.name, "seed": c.seed, "messages_per_stream": c.msgs, "end_ns": r.end_ns,
            "delivered": r.delivered, "trace_identical_workers_1_4": c.trace_identical,
            "violations": c.violations(), "retransmits": f.retransmits, "retx_bound": retx_bound,
            "peer_down_events": f.peer_down_events, "partitions": f.partitions, "heals": f.heals,
            "probes_sent": f.probes_sent, "rtt_samples": r.rtt_samples, "flaps": links.flaps,
            "downs": links.downs, "lat_min_ns": links.lat_min_ns,
            "lat_mean_ns": links.lat_mean_ns(), "lat_max_ns": links.lat_max_ns,
            "lat_count": links.lat_count,
        }
    });
    Report::new(
        "gray failures: latency inflation x asymmetry x flap rate x gateway \
         outage on a [4,2]x2 redundant hierarchy, sharded engine, workers {1,4}",
    )
    .field("workload", workload)
    .rows("cells", rows)
}

fn print_cell(c: &CellResult) {
    let (r, f, links) = (&c.run, &c.run.totals.faults, &c.run.totals.links);
    println!(
        "{:<20} seed {:#06x}: end {:>8.1} ms, {} delivered, retx {} (bound {}), \
         peer-down {}, partitions/heals {}/{}, probes {}, rtt-samples {}, flaps {}, \
         lat(ns) min/mean/max {}/{}/{} over {} frames, workers-identical={} violations={:?}",
        c.cell.name,
        c.seed,
        r.end_ns as f64 / 1e6,
        r.delivered,
        f.retransmits,
        c.cell.retx_bound.map_or("-".into(), |b| b.to_string()),
        f.peer_down_events,
        f.partitions,
        f.heals,
        f.probes_sent,
        r.rtt_samples,
        links.flaps,
        links.lat_min_ns,
        links.lat_mean_ns(),
        links.lat_max_ns,
        links.lat_count,
        c.trace_identical,
        c.violations(),
    );
}

fn main() {
    let campaign = Campaign::start();
    if campaign.smoke {
        let cells: Vec<CellResult> = Watchdog::new("gray campaign", 240)
            .run(|| CELLS.iter().map(|c| run_cell(c, 0x69A1, 12)).collect());
        for c in &cells {
            print_cell(c);
        }
        let bad: usize = cells.iter().map(|c| c.violations().len()).sum();
        assert_eq!(bad, 0, "smoke: {bad} oracle violations");
        println!("gray-campaign smoke OK: zero oracle violations, traces bit-identical");
        return;
    }

    println!(
        "gray failures: {} cells x 2 seeds, 4 streams, [4,2]x{EPS} redundant hierarchy, \
         workers {{1,4}}",
        CELLS.len()
    );
    let cells: Vec<CellResult> = (0..2u64)
        .flat_map(|i| {
            CELLS.iter().map(move |c| {
                Watchdog::new("gray campaign", 600).run(|| run_cell(c, 0x69A1 + i, 24))
            })
        })
        .collect();
    for c in &cells {
        print_cell(c);
    }
    let bad: usize = cells.iter().map(|c| c.violations().len()).sum();
    assert_eq!(bad, 0, "{bad} oracle violations across the campaign");

    campaign.write("BENCH_gray.json", &report(&cells));
}
