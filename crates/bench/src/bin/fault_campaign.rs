//! Fault-injection campaign: drive a writer→reader stream through seeded
//! loss and a mid-run crash/restart, and report what the recovery
//! protocols cost.
//!
//! A 4-node cluster runs the object manager on node 0 (never faulted), a
//! writer on node 1 and a reader on node 2. The writer streams 50 × 256 B
//! messages, each carrying its index. The fault schedule crashes the
//! reader's node mid-stream and restarts it; the pair then fails over to a
//! generation-suffixed channel name (`stream.g1`) where the reader first
//! reports how far it got, so delivery is exactly-once end to end even
//! though the transport below is at-least-once.
//!
//! The sweep crosses loss ∈ {0, 1, 5, 10}% with {0, 1} crashes, every cell
//! from a fixed seed, and writes `BENCH_faults.json` at the workspace root
//! (goodput, retransmits, duplicates suppressed, recovery latency).
//!
//! Usage:
//!   fault_campaign            # full sweep + BENCH_faults.json
//!   fault_campaign --smoke    # one faulted cell, assert it recovers (CI)

use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults, SimTime};
use parking_lot::Mutex;
use vorx::channel;
use vorx::hpcnet::NodeAddr;
use vorx::objmgr::ObjMgrMode;
use vorx::{VorxBuilder, VorxError};
use vorx_bench::campaign::{
    lat_suffix, links_where, seq_of, seq_payload, Campaign, Fixed, Progress, Report, ShardTotals,
};
use vorx_bench::obj;
use vorx_bench::report::{render, Row};

/// Messages in the stream.
const MSGS: u32 = 50;
/// Payload bytes per message.
const MSG_LEN: usize = 256;
/// Node running the writer.
const WRITER: NodeAddr = NodeAddr(1);
/// Node running the reader (the one that crashes).
const READER: NodeAddr = NodeAddr(2);
/// When the reader's node crashes (mid-stream for this workload).
const CRASH_AT_NS: u64 = 5_000_000;
/// When it comes back up, cold.
const RESTART_AT_NS: u64 = 50_000_000;

/// Channel name for one failover generation.
fn stream_name(generation: u32) -> String {
    format!("stream.g{generation}")
}

/// One campaign cell's outcome.
struct CellResult {
    loss: f64,
    crashed: bool,
    seed: u64,
    completed: bool,
    delivered: u32,
    elapsed_ns: u64,
    goodput_kbps: f64,
    recovery_ns: Option<u64>,
    leaked_waiters: usize,
    /// Recovery counters and queue high-water marks.
    totals: ShardTotals,
    /// Per-link injection counters, links with any activity only.
    link_faults: Vec<(u32, desim::LinkStats)>,
}

/// Run one cell: fixed seed, `loss` on every link, optionally one
/// crash/restart of the reader's node.
fn run_cell(loss: f64, crash: bool, seed: u64) -> CellResult {
    let mut schedule = FaultSchedule::new(seed);
    if loss > 0.0 {
        schedule = schedule.all_links(LinkFaults::loss(loss));
    }
    if crash {
        schedule = schedule
            .down_at(READER.0, SimTime::from_ns(CRASH_AT_NS))
            .up_at(READER.0, SimTime::from_ns(RESTART_AT_NS));
    }
    let mut v = VorxBuilder::single_cluster(4)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .trace(false)
        .faults(schedule)
        .build();

    v.spawn("n1:writer", move |ctx| {
        let mut generation = 0u32;
        let mut idx = 0u32;
        let mut ch = channel::try_open(&ctx, WRITER, &stream_name(0)).expect("initial open");
        while idx < MSGS {
            match ch.write(&ctx, seq_payload(idx, MSG_LEN)) {
                Ok(()) => idx += 1,
                Err(_) => {
                    // Peer declared down: abandon this generation and
                    // rendezvous on the next. The reader reports its resume
                    // point first, which both rewinds past anything the
                    // crash swallowed and skips anything already committed.
                    ch.close(&ctx);
                    generation += 1;
                    ch = channel::try_open(&ctx, WRITER, &stream_name(generation))
                        .expect("failover open");
                    let resume = ch.read(&ctx).expect("resume index");
                    idx = seq_of(&resume);
                }
            }
        }
        ch.close(&ctx);
    });

    let progress = Arc::new(Mutex::new(Progress::default()));
    let shared = Arc::clone(&progress);
    v.spawn("n2:reader", move |ctx| {
        let mut generation = 0u32;
        let mut expect = 0u32;
        'recover: loop {
            let ch = match channel::try_open(&ctx, READER, &stream_name(generation)) {
                Ok(ch) => ch,
                Err(_) => {
                    vorx::fault::wait_until_up(&ctx, READER);
                    generation += 1;
                    continue 'recover;
                }
            };
            if generation > 0 && ch.write(&ctx, seq_payload(expect, 4)).is_err() {
                // Crashed again before the resume index got through.
                vorx::fault::wait_until_up(&ctx, READER);
                generation += 1;
                continue 'recover;
            }
            loop {
                match ch.read(&ctx) {
                    Ok(payload) => {
                        let i = seq_of(&payload);
                        if i != expect {
                            continue; // app-level duplicate from the rewind
                        }
                        let mut g = shared.lock();
                        if generation > 0 && g.recovery_ns.is_none() {
                            g.recovery_ns = Some(ctx.now().as_ns() - CRASH_AT_NS);
                        }
                        g.delivered.push(i);
                        drop(g);
                        expect += 1;
                        if expect == MSGS {
                            return;
                        }
                    }
                    Err(VorxError::NodeDown) => {
                        // Our own node crashed; wait out the outage and
                        // rendezvous on the next generation.
                        vorx::fault::wait_until_up(&ctx, READER);
                        generation += 1;
                        continue 'recover;
                    }
                    Err(_) => {
                        // Writer abandoned this generation.
                        generation += 1;
                        continue 'recover;
                    }
                }
            }
        }
    });

    let report = v.run();
    if std::env::var("FAULT_CAMPAIGN_DEBUG").is_ok() {
        for (pid, name) in &report.parked {
            eprintln!("parked: {pid:?} {name}");
        }
    }
    let elapsed_ns = report.now.as_ns();
    let leaked_waiters = report.parked.len();
    let w = v.world();
    let g = progress.lock();
    let delivered = g.delivered.len() as u32;
    let completed = g.complete(MSGS) && leaked_waiters == 0;
    let secs = SimTime::from_ns(elapsed_ns).as_secs_f64();
    let goodput_kbps = if secs > 0.0 {
        (u64::from(delivered) * MSG_LEN as u64) as f64 / 1e3 / secs
    } else {
        0.0
    };
    CellResult {
        loss,
        crashed: crash,
        seed,
        completed,
        delivered,
        elapsed_ns,
        goodput_kbps,
        recovery_ns: g.recovery_ns,
        leaked_waiters,
        totals: ShardTotals::of_world(&w),
        link_faults: links_where(&w, |s| *s != desim::LinkStats::default()),
    }
}

/// Render one cell's per-link injection counters as indented summary lines,
/// with the delivered-latency profile when the schedule recorded one.
fn print_link_faults(cell: &CellResult) {
    for (l, s) in &cell.link_faults {
        println!(
            "  link {l}: dropped={} corrupted={} delayed={} down_drops={} downs={} flaps={}{}",
            s.dropped,
            s.corrupted,
            s.delayed,
            s.down_drops,
            s.downs,
            s.flaps,
            lat_suffix(s)
        );
    }
}

/// The campaign as a `BENCH_faults.json` report.
fn report(cells: &[CellResult]) -> Report {
    let workload = obj! {
        "messages": MSGS, "bytes_per_message": MSG_LEN, "nodes": 4u32, "crash_at_ns": CRASH_AT_NS,
        "restart_at_ns": RESTART_AT_NS,
    };
    let rows = cells.iter().map(|c| {
        let f = &c.totals.faults;
        obj! {
            "loss": Fixed(c.loss, 2), "crashes": u32::from(c.crashed), "seed": c.seed,
            "completed": c.completed, "delivered": c.delivered, "elapsed_ns": c.elapsed_ns,
            "goodput_kbps": Fixed(c.goodput_kbps, 1), "retransmits": f.retransmits,
            "dups_suppressed": f.dups_suppressed, "corrupted_rx": f.corrupted_rx,
            "peer_down_events": f.peer_down_events, "node_crashes": f.crashes,
            "node_restarts": f.restarts, "recovery_latency_ns": c.recovery_ns,
            "leaked_waiters": c.leaked_waiters,
        }
    });
    Report::new(
        "seeded fault campaign: writer n1 -> reader n2, \
         stop-and-wait channel with retransmit + failover",
    )
    .field("workload", workload)
    .rows("cells", rows)
}

fn main() {
    let campaign = Campaign::start();
    if campaign.smoke {
        // CI gate: 5% loss plus one crash/restart, fixed seed. The workload
        // must complete exactly-once in order with nothing left parked.
        let c = run_cell(0.05, true, 0xFA05);
        assert_eq!(
            c.delivered, MSGS,
            "smoke: delivered {}/{MSGS} messages",
            c.delivered
        );
        assert!(c.completed, "smoke: stream did not complete in order");
        assert_eq!(c.leaked_waiters, 0, "smoke: leaked blocked waiters");
        let f = &c.totals.faults;
        assert_eq!((f.crashes, f.restarts), (1, 1), "smoke: fault plane idle");
        println!(
            "fault-campaign smoke OK: {}/{MSGS} delivered, {} retransmits, \
             {} dups suppressed, recovery {:.1} ms, 0 leaked waiters, \
             depth hwm {} slots / {} B",
            c.delivered,
            f.retransmits,
            f.dups_suppressed,
            c.recovery_ns.unwrap_or(0) as f64 / 1e6,
            c.totals.depth_hwm,
            c.totals.bytes_hwm,
        );
        print_link_faults(&c);
        return;
    }

    let losses = [0.0, 0.01, 0.05, 0.10];
    let mut cells = Vec::new();
    for (i, &loss) in losses.iter().enumerate() {
        for crash in [false, true] {
            let seed = 0xFA10 + (i as u64) * 2 + u64::from(crash);
            cells.push(run_cell(loss, crash, seed));
        }
    }

    let rows: Vec<Row> = cells
        .iter()
        .map(|c| {
            let label = format!(
                "loss {:>2.0}%{}",
                c.loss * 100.0,
                if c.crashed { " + crash" } else { "        " }
            );
            Row::new(label, None, c.goodput_kbps, "KB/s")
        })
        .collect();
    print!(
        "{}",
        render(
            &format!("fault campaign: {MSGS} x {MSG_LEN} B stream, writer n1 -> reader n2"),
            &rows,
        )
    );
    for c in &cells {
        let f = &c.totals.faults;
        println!(
            "loss {:>4.2} crash {}: completed={} retransmits={} dups={} peer_down={} \
             recovery={} depth_hwm={} bytes_hwm={}",
            c.loss,
            u32::from(c.crashed),
            c.completed,
            f.retransmits,
            f.dups_suppressed,
            f.peer_down_events,
            c.recovery_ns
                .map(|n| format!("{:.1}ms", n as f64 / 1e6))
                .unwrap_or_else(|| "-".into()),
            c.totals.depth_hwm,
            c.totals.bytes_hwm,
        );
        print_link_faults(c);
    }

    let incomplete = cells.iter().filter(|c| !c.completed).count();
    assert_eq!(
        incomplete, 0,
        "{incomplete} campaign cells failed to recover"
    );

    campaign.write("BENCH_faults.json", &report(&cells));
}
