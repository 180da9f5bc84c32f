//! Windowed data-path report: sweep channel window size × message size ×
//! loss rate and measure goodput through the credit-based pipeline, plus
//! the zero-copy accounting (physical payload bytes copied, buffer-pool
//! recycling).
//!
//! A 2-node cluster streams a fixed message count from node 0 to node 1.
//! `chan_window = 1` is the paper's §5 stop-and-wait protocol bit-for-bit;
//! larger windows enable the credit-based pipeline. The paper's Table 1
//! shows sliding-window transfer roughly doubling goodput over
//! stop-and-wait (164 µs vs 303 µs per 4-byte message); this report
//! reproduces that ordering inside the simulation, for channels.
//!
//! Writes `BENCH_datapath.json` at the workspace root.
//!
//! Usage:
//!   datapath_report           # full sweep + BENCH_datapath.json
//!   datapath_report --smoke   # one comparison, assert windowed >= 2x (CI)

use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults};
use parking_lot::Mutex;
use vorx::channel;
use vorx::hpcnet::{copymeter, NodeAddr};
use vorx::objmgr::ObjMgrMode;
use vorx::{Calibration, VorxBuilder};
use vorx_bench::campaign::{
    links_where, seq_of, seq_payload, Campaign, Fixed, Report, ShardTotals,
};
use vorx_bench::obj;
use vorx_bench::report::{render, Row};

/// Messages per cell (enough to amortize rendezvous and reach steady state).
const MSGS: u32 = 64;

/// Paper Table 2: one 4-byte channel write cycle, stop-and-wait, ≈ 303 µs.
const PAPER_SW_4B_US: f64 = 303.0;
/// Paper Table 1: sliding-window UDCO asymptote for 4-byte messages with 64
/// buffers, ≈ 164 µs.
const PAPER_WIN_4B_US: f64 = 164.0;

/// One sweep cell's outcome.
struct Cell {
    window: u32,
    msg_bytes: usize,
    loss: f64,
    seed: u64,
    completed: bool,
    elapsed_ns: u64,
    per_msg_us: f64,
    goodput_kbps: f64,
    payload_bytes_copied: u64,
    /// Payload-pool `(hits, misses, recycled)`.
    pool: (u64, u64, u64),
    leaked: usize,
    /// Recovery counters and queue high-water marks.
    totals: ShardTotals,
    /// Per-link injection counters, links with any activity only.
    link_faults: Vec<(u32, desim::LinkStats)>,
}

/// Stream `MSGS` messages of `msg_bytes` from node 0 to node 1 with the
/// given window, under `loss` on every link. Elapsed time runs from the
/// writer's first write to the reader's last delivery, so rendezvous cost
/// stays out of the per-message figure.
fn run_cell(window: u32, msg_bytes: usize, loss: f64, seed: u64) -> Cell {
    let mut schedule = FaultSchedule::new(seed);
    if loss > 0.0 {
        schedule = schedule.all_links(LinkFaults::loss(loss));
    }
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .calibration(Calibration::paper_1988_windowed(window))
        .trace(false)
        .faults(schedule)
        .build();

    copymeter::reset();
    let span = Arc::new(Mutex::new((0u64, 0u64)));
    let span_w = Arc::clone(&span);
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "dp");
        span_w.lock().0 = ctx.now().as_ns();
        for i in 0..MSGS {
            ch.write(&ctx, seq_payload(i, msg_bytes)).unwrap();
        }
        ch.close(&ctx); // flushes the window in pipelined mode
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let span_r = Arc::clone(&span);
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "dp");
        for _ in 0..MSGS {
            sink.lock().push(seq_of(&ch.read(&ctx).unwrap()));
        }
        span_r.lock().1 = ctx.now().as_ns();
    });
    let report = v.run();
    let leaked = report.parked.len();
    let (t0, t1) = *span.lock();
    let elapsed_ns = t1.saturating_sub(t0);
    let order = got.lock().clone();
    let completed = order == (0..MSGS).collect::<Vec<_>>() && leaked == 0 && elapsed_ns > 0;
    let w = v.world();
    let secs = elapsed_ns as f64 / 1e9;
    Cell {
        window,
        msg_bytes,
        loss,
        seed,
        completed,
        elapsed_ns,
        per_msg_us: elapsed_ns as f64 / 1e3 / f64::from(MSGS),
        goodput_kbps: if secs > 0.0 {
            (u64::from(MSGS) * msg_bytes as u64) as f64 / 1e3 / secs
        } else {
            0.0
        },
        payload_bytes_copied: copymeter::payload_bytes_copied(),
        pool: w.payload_pool.stats(),
        leaked,
        totals: ShardTotals::of_world(&w),
        link_faults: links_where(&w, |s| *s != desim::LinkStats::default()),
    }
}

/// The sweep as a `BENCH_datapath.json` report.
fn report(cells: &[Cell]) -> Report {
    let rows = cells.iter().map(|c| {
        obj! {
            "window": c.window, "msg_bytes": c.msg_bytes, "loss": Fixed(c.loss, 2), "seed": c.seed,
            "completed": c.completed, "elapsed_ns": c.elapsed_ns,
            "per_msg_us": Fixed(c.per_msg_us, 1), "goodput_kbps": Fixed(c.goodput_kbps, 1),
            "retransmits": c.totals.faults.retransmits,
            "dups_suppressed": c.totals.faults.dups_suppressed,
            "payload_bytes_copied": c.payload_bytes_copied, "pool_hits": c.pool.0,
            "pool_misses": c.pool.1, "pool_recycled": c.pool.2,
            "leaked_waiters": c.leaked,
        }
    });
    let paper = obj! {
        "table2_stop_and_wait_4B_us": PAPER_SW_4B_US,
        "table1_sliding_window_4B_us": PAPER_WIN_4B_US,
    };
    Report::new(
        "windowed channel data path: window x message size x loss sweep, \
         writer n0 -> reader n1; window 1 = paper stop-and-wait",
    )
    .field("paper", paper)
    .field("messages_per_cell", MSGS)
    .rows("cells", rows)
}

fn main() {
    let campaign = Campaign::start();
    if campaign.smoke {
        // CI gate: the acceptance ratio from the issue — windowed (W=8)
        // goodput at least 2x stop-and-wait for 256-byte messages on a
        // clean network — plus zero payload copies on the single-fragment
        // path.
        let sw = run_cell(1, 256, 0.0, 0xDA7A);
        let win = run_cell(8, 256, 0.0, 0xDA7A);
        assert!(sw.completed, "smoke: stop-and-wait cell failed");
        assert!(win.completed, "smoke: windowed cell failed");
        assert!(
            win.goodput_kbps >= 2.0 * sw.goodput_kbps,
            "smoke: windowed goodput {:.1} KB/s < 2x stop-and-wait {:.1} KB/s",
            win.goodput_kbps,
            sw.goodput_kbps
        );
        // The only metered copies are the writer materializing each message
        // (`Payload::copy_from`); fabric forwarding, reassembly of
        // single-fragment messages, and read() move zero payload bytes.
        let construction = u64::from(MSGS) * 256;
        assert_eq!(
            win.payload_bytes_copied, construction,
            "smoke: data path must copy zero payload bytes past construction"
        );
        println!(
            "datapath smoke OK: W=8 {:.1} KB/s vs W=1 {:.1} KB/s ({:.2}x), 0 payload bytes copied past construction",
            win.goodput_kbps,
            sw.goodput_kbps,
            win.goodput_kbps / sw.goodput_kbps
        );
        return;
    }

    let windows = [1u32, 2, 4, 8, 16, 32];
    let sizes = [4usize, 256, 1024, 4096];
    let losses = [0.0, 0.01, 0.05];
    let mut cells = Vec::new();
    for &window in &windows {
        for &size in &sizes {
            for &loss in &losses {
                let seed = 0xDA7A ^ (u64::from(window) << 24) ^ ((size as u64) << 8);
                cells.push(run_cell(window, size, loss, seed));
            }
        }
    }

    // Console summary: the 0%-loss column across windows, per size.
    for &size in &sizes {
        let rows: Vec<Row> = cells
            .iter()
            .filter(|c| c.msg_bytes == size && c.loss == 0.0)
            .map(|c| {
                let paper = match (size, c.window) {
                    (4, 1) => Some(PAPER_SW_4B_US),
                    (4, 32) => Some(PAPER_WIN_4B_US),
                    _ => None,
                };
                Row::new(
                    format!("window {:>2}", c.window),
                    paper,
                    c.per_msg_us,
                    "us/msg",
                )
            })
            .collect();
        print!(
            "{}",
            render(
                &format!("windowed channel data path: {size} B messages, 0% loss"),
                &rows,
            )
        );
    }

    // Per-link loss accounting for the heaviest lossy cells: what the fault
    // plane actually injected on each link, from `World::link_fault_stats`.
    println!("per-link fault accounting (5% loss, 256 B cells):");
    for c in cells
        .iter()
        .filter(|c| c.loss == 0.05 && c.msg_bytes == 256)
    {
        println!(
            "  window {:>2}: {} retransmits, {} dups suppressed, \
             depth hwm {} slots / {} B",
            c.window,
            c.totals.faults.retransmits,
            c.totals.faults.dups_suppressed,
            c.totals.depth_hwm,
            c.totals.bytes_hwm
        );
        for (l, s) in &c.link_faults {
            println!(
                "    link {l}: dropped={} corrupted={} delayed={}",
                s.dropped, s.corrupted, s.delayed
            );
        }
    }

    let incomplete = cells.iter().filter(|c| !c.completed).count();
    assert_eq!(incomplete, 0, "{incomplete} sweep cells failed");

    // The Table 1 ordering must reproduce: windowed >= 2x stop-and-wait
    // goodput at 0% loss for 256-byte messages.
    let g = |w: u32| {
        cells
            .iter()
            .find(|c| c.window == w && c.msg_bytes == 256 && c.loss == 0.0)
            .expect("cell present")
            .goodput_kbps
    };
    assert!(
        g(8) >= 2.0 * g(1),
        "windowed 256B goodput {:.1} < 2x stop-and-wait {:.1}",
        g(8),
        g(1)
    );

    campaign.write("BENCH_datapath.json", &report(&cells));
}
