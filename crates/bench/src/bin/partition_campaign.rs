//! Partition-tolerance campaign: drive a cross-fabric stream through link
//! cuts — reroutable cuts, short blips, and full partitions with heal — and
//! report what the partition plane costs.
//!
//! The 4-cluster incomplete hypercube (2 endpoints per cluster) runs a
//! writer in cluster 0 streaming 40 × 128 B messages to a reader in
//! cluster 3. Three churn modes, each crossed with background loss:
//!
//! * `reroute` — cut the cable the baseline route uses and never heal it:
//!   the fabric detours over the surviving path; the application never
//!   notices.
//! * `blip`    — isolate cluster 0 entirely, heal before the detection
//!   sweep fires: plain retransmission rides through.
//! * `outage`  — isolate cluster 0 past the sweep: blocked calls fail with
//!   the typed `Partitioned` error, state pauses, and the heal resumes the
//!   same channel without reopening.
//!
//! Writes `BENCH_partition.json` at the workspace root (recovery latency,
//! rerouted frames, failed writes, probe/sweep counts, per-link fault
//! stats).
//!
//! Usage:
//!   partition_campaign            # full sweep + BENCH_partition.json
//!   partition_campaign --smoke    # one outage cell under a wall-clock
//!                                 # watchdog, assert it recovers (CI)

use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults, SimDuration, SimTime};
use parking_lot::Mutex;
use vorx::channel;
use vorx::hpcnet::{NodeAddr, Topology};
use vorx::{VorxBuilder, VorxError};
use vorx_bench::campaign::{
    lat_suffix, links_where, nodes_of, seq_of, seq_payload, Cables, Campaign, Fixed, Progress,
    Report, ShardTotals, Watchdog,
};
use vorx_bench::obj;
use vorx_bench::report::{render, Row};

/// Messages in the stream.
const MSGS: u32 = 40;
/// Payload bytes per message.
const MSG_LEN: usize = 128;
/// Gap between writes, so cuts land mid-stream.
const PACE_NS: u64 = 1_000_000;
/// When the scripted cut fires.
const CUT_AT_NS: u64 = 10_000_000;

/// The churn a cell injects.
#[derive(Clone, Copy, PartialEq)]
enum Churn {
    /// Cut the primary-path cable, never heal: the fabric reroutes.
    Reroute,
    /// Isolate cluster 0 for this many ns; heals before/after the
    /// detection sweep depending on the delay.
    Isolate(u64),
}

impl Churn {
    fn label(self) -> &'static str {
        match self {
            Churn::Reroute => "reroute",
            // The sweep fires `partition_detect_ns` (250 ms) after the cut:
            // a shorter outage is an undetected blip, a longer one a
            // declared partition.
            Churn::Isolate(heal_delay_ns) if heal_delay_ns < 250_000_000 => "blip",
            Churn::Isolate(_) => "outage",
        }
    }
}

/// The campaign topology.
fn topo() -> Topology {
    Topology::incomplete_hypercube(4, 2).expect("valid hypercube")
}

/// One campaign cell's outcome.
struct CellResult {
    mode: &'static str,
    loss: f64,
    seed: u64,
    completed: bool,
    delivered: u32,
    elapsed_ns: u64,
    failed_writes: u32,
    frames_rerouted: u64,
    frames_dropped: u64,
    recovery_ns: Option<u64>,
    leaked_waiters: usize,
    /// Recovery counters and queue high-water marks.
    totals: ShardTotals,
    /// Per-link fault counters for every link the timeline touched.
    link_downs: Vec<(u32, desim::LinkStats)>,
}

/// Run one cell: fixed seed, `loss` on every link, one scripted churn.
fn run_cell(churn: Churn, loss: f64, seed: u64) -> CellResult {
    let (src, dst) = (nodes_of(&topo(), 0)[0], nodes_of(&topo(), 3)[0]);
    let cables = Cables::new(topo());
    let mut schedule = FaultSchedule::new(seed);
    if loss > 0.0 {
        schedule = schedule.all_links(LinkFaults::loss(loss));
    }
    match churn {
        Churn::Reroute => {
            let first_hop = topo().cluster_path(src, dst)[1].0;
            for l in cables.of(0, first_hop) {
                schedule = schedule.link_down_at(l, SimTime::from_ns(CUT_AT_NS));
            }
        }
        Churn::Isolate(heal_delay_ns) => {
            for cab in [cables.of(0, 1), cables.of(0, 2)] {
                for l in cab {
                    schedule = schedule
                        .link_down_at(l, SimTime::from_ns(CUT_AT_NS))
                        .link_up_at(l, SimTime::from_ns(CUT_AT_NS + heal_delay_ns));
                }
            }
        }
    }
    let mut v = VorxBuilder::hypercube(4, 2)
        .trace(false)
        .faults(schedule)
        .build();

    // Opens can themselves land inside the outage (the request to the name's
    // home manager is lost or times out across the cut); both sides treat
    // that as transient, like the write path.
    fn open_retrying(
        ctx: &desim::Ctx<vorx::world::World>,
        node: NodeAddr,
        name: &str,
    ) -> channel::ChannelHandle {
        let mut attempts = 0u32;
        loop {
            match channel::try_open(ctx, node, name) {
                Ok(ch) => return ch,
                Err(VorxError::Unreachable | VorxError::Partitioned) => {
                    attempts += 1;
                    assert!(attempts < 200, "open retried unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("open: unexpected error {e:?}"),
            }
        }
    }

    let failed_writes = Arc::new(Mutex::new(0u32));
    let fw = Arc::clone(&failed_writes);
    v.spawn("writer", move |ctx| {
        let ch = open_retrying(&ctx, src, "part.stream");
        let mut idx = 0u32;
        while idx < MSGS {
            ctx.sleep(SimDuration::from_ns(PACE_NS));
            match ch.write(&ctx, seq_payload(idx, MSG_LEN)) {
                Ok(()) => idx += 1,
                Err(VorxError::Partitioned) => {
                    // Typed, bounded-time failure: count it, wait out the
                    // outage, retry the same message on the same handle.
                    *fw.lock() += 1;
                    assert!(*fw.lock() < 5_000, "writer stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("writer: unexpected error {e:?}"),
            }
        }
    });

    let progress = Arc::new(Mutex::new(Progress::default()));
    let shared = Arc::clone(&progress);
    v.spawn("reader", move |ctx| {
        let ch = open_retrying(&ctx, dst, "part.stream");
        let mut expect = 0u32;
        let mut stalls = 0u32;
        while expect < MSGS {
            match ch.read(&ctx) {
                Ok(payload) => {
                    let i = seq_of(&payload);
                    if i != expect {
                        continue; // app-level duplicate from a write retry
                    }
                    let mut g = shared.lock();
                    let now = ctx.now().as_ns();
                    if now > CUT_AT_NS && g.recovery_ns.is_none() {
                        g.recovery_ns = Some(now - CUT_AT_NS);
                    }
                    g.delivered.push(i);
                    drop(g);
                    expect += 1;
                }
                Err(VorxError::Partitioned) => {
                    stalls += 1;
                    assert!(stalls < 5_000, "reader stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("reader: unexpected error {e:?}"),
            }
        }
    });

    let report = v.run();
    let elapsed_ns = report.now.as_ns();
    let leaked_waiters = report.parked.len();
    let w = v.world();
    let g = progress.lock();
    let failed_writes = *failed_writes.lock();
    CellResult {
        mode: churn.label(),
        loss,
        seed,
        completed: g.complete(MSGS) && leaked_waiters == 0,
        delivered: g.delivered.len() as u32,
        elapsed_ns,
        failed_writes,
        frames_rerouted: w.net.stats.frames_rerouted,
        frames_dropped: w.net.stats.frames_dropped,
        recovery_ns: g.recovery_ns,
        leaked_waiters,
        totals: ShardTotals::of_world(&w),
        link_downs: links_where(&w, |s| s.downs > 0 || s.flaps > 0),
    }
}

/// Print a cell's per-link down/flap counters, one indented line per link.
fn print_link_downs(c: &CellResult) {
    for (l, s) in &c.link_downs {
        println!(
            "  link {l}: downs={} mid-flight drops={} flaps={}{}",
            s.downs,
            s.down_drops,
            s.flaps,
            lat_suffix(s)
        );
    }
}

/// The campaign as a `BENCH_partition.json` report.
fn report(cells: &[CellResult]) -> Report {
    let workload = obj! {
        "messages": MSGS, "bytes_per_message": MSG_LEN, "clusters": 4u32,
        "endpoints_per_cluster": 2u32,
        "cut_at_ns": CUT_AT_NS,
    };
    let rows = cells.iter().map(|c| {
        let f = &c.totals.faults;
        let links: Vec<_> = c
            .link_downs
            .iter()
            .map(|(l, s)| {
                obj! {
                    "link": *l, "downs": s.downs, "down_drops": s.down_drops, "flaps": s.flaps,
                }
            })
            .collect();
        obj! {
            "mode": c.mode, "loss": Fixed(c.loss, 2), "seed": c.seed, "completed": c.completed,
            "delivered": c.delivered, "elapsed_ns": c.elapsed_ns, "failed_writes": c.failed_writes,
            "retransmits": f.retransmits, "frames_rerouted": c.frames_rerouted,
            "frames_dropped": c.frames_dropped, "partitions": f.partitions, "heals": f.heals,
            "probes_sent": f.probes_sent, "recovery_latency_ns": c.recovery_ns,
            "leaked_waiters": c.leaked_waiters, "links_down": links,
        }
    });
    Report::new(
        "partition campaign: cluster-0 writer -> cluster-3 reader on an \
         incomplete 4-hypercube under link churn",
    )
    .field("workload", workload)
    .rows("cells", rows)
}

fn main() {
    let campaign = Campaign::start();
    if campaign.smoke {
        // CI gate: a declared partition (heal after the sweep) plus 2%
        // loss, under a wall-clock watchdog. The stream must complete
        // exactly-once in order, with the partition both declared and
        // healed, and nothing left parked.
        // Same seed as the sweep's outage/2%-loss cell.
        let outage = || run_cell(Churn::Isolate(400_000_000), 0.02, 0x9A57 + 5);
        let c = Watchdog::new("partition campaign", 120).run(outage);
        assert!(
            c.completed,
            "smoke: {}/{MSGS} delivered in order",
            c.delivered
        );
        let f = &c.totals.faults;
        assert!(f.partitions >= 1, "smoke: the sweep never declared");
        assert!(f.heals >= 1, "smoke: the heal never cleared");
        assert!(c.failed_writes >= 1, "smoke: no typed write failure seen");
        assert_eq!(c.leaked_waiters, 0, "smoke: leaked blocked waiters");
        println!(
            "partition-campaign smoke OK: {}/{MSGS} delivered, {} failed writes (typed), \
             {} partitions / {} heals, recovery {:.1} ms, 0 leaked waiters, \
             depth hwm {} slots / {} B",
            c.delivered,
            c.failed_writes,
            f.partitions,
            f.heals,
            c.recovery_ns.unwrap_or(0) as f64 / 1e6,
            c.totals.depth_hwm,
            c.totals.bytes_hwm,
        );
        print_link_downs(&c);
        return;
    }

    let mut cells = Vec::new();
    let churns = [
        Churn::Reroute,
        Churn::Isolate(100_000_000),
        Churn::Isolate(400_000_000),
    ];
    for (i, &churn) in churns.iter().enumerate() {
        for (j, &loss) in [0.0, 0.02].iter().enumerate() {
            let seed = 0x9A57 + (i as u64) * 2 + j as u64;
            cells.push(run_cell(churn, loss, seed));
        }
    }

    let rows: Vec<Row> = cells
        .iter()
        .map(|c| {
            let label = format!("{:<8} loss {:>2.0}%", c.mode, c.loss * 100.0);
            Row::new(
                label,
                None,
                c.recovery_ns.unwrap_or(0) as f64 / 1e6,
                "ms to recover",
            )
        })
        .collect();
    print!(
        "{}",
        render(
            &format!(
                "partition campaign: {MSGS} x {MSG_LEN} B stream, cluster 0 -> cluster 3, \
                 cut at {} ms",
                CUT_AT_NS / 1_000_000
            ),
            &rows,
        )
    );
    for c in &cells {
        let f = &c.totals.faults;
        println!(
            "{:<8} loss {:>4.2}: completed={} failed_writes={} rerouted={} dropped={} \
             partitions={} heals={} probes={} recovery={} depth_hwm={} bytes_hwm={}",
            c.mode,
            c.loss,
            c.completed,
            c.failed_writes,
            c.frames_rerouted,
            c.frames_dropped,
            f.partitions,
            f.heals,
            f.probes_sent,
            c.recovery_ns
                .map(|n| format!("{:.1}ms", n as f64 / 1e6))
                .unwrap_or_else(|| "-".into()),
            c.totals.depth_hwm,
            c.totals.bytes_hwm,
        );
        print_link_downs(c);
    }

    let incomplete = cells.iter().filter(|c| !c.completed).count();
    assert_eq!(
        incomplete, 0,
        "{incomplete} campaign cells failed to recover"
    );

    campaign.write("BENCH_partition.json", &report(&cells));
}
