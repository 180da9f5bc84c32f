//! Windowed data-path integration tests: the credit-based channel pipeline
//! (`chan_window > 1`) against seeded loss, corruption, and reordering —
//! plus the determinism and bounded-state guarantees it must share with
//! stop-and-wait.
//!
//! Everything runs from fixed seeds, so each scenario replays
//! bit-identically on every run.

use std::sync::Arc;

use parking_lot::Mutex;

use hpc_vorx::desim::{FaultSchedule, LinkFaults, Trace};
use hpc_vorx::hpcnet::{NodeAddr, Payload};
use hpc_vorx::vorx::objmgr::ObjMgrMode;
use hpc_vorx::vorx::{channel, Calibration, TraceEvent, VorxBuilder};

use proptest::prelude::*;

/// Deterministic test message `i` of `len` bytes.
fn msg(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((i * 7 + j) % 251) as u8).collect()
}

/// Stream `sizes.len()` messages (message `i` is `msg(i, sizes[i])`) from
/// node 0 to node 1 with an optionally-customized calibration, under
/// `schedule`. Returns (received messages, leaked process count, trace —
/// empty when tracing is off).
fn stream_with(
    calib: Calibration,
    schedule: FaultSchedule,
    sizes: &[usize],
    trace: bool,
) -> (Vec<Vec<u8>>, usize, Trace<TraceEvent>) {
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .calibration(calib)
        .trace(trace)
        .faults(schedule)
        .build();
    let sizes_w: Vec<usize> = sizes.to_vec();
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "dp");
        for (i, &len) in sizes_w.iter().enumerate() {
            ch.write(&ctx, Payload::copy_from(&msg(i, len))).unwrap();
        }
        // In windowed mode the close flushes the transmit window.
        ch.close(&ctx);
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let n_msgs = sizes.len();
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "dp");
        for _ in 0..n_msgs {
            let p = ch.read(&ctx).unwrap();
            sink.lock().push(p.bytes().unwrap().to_vec());
        }
    });
    let report = v.run();
    let leaked = report.parked.len();
    let trace = std::mem::take(&mut v.world().trace);
    let order = got.lock().clone();
    // The receive-side window state must be fully drained: nothing held,
    // nothing mid-copy, nothing parked in the reorder buffer.
    let w = v.world();
    for end in w.nodes[1].chans.values() {
        assert!(end.winrx.ready.is_empty(), "reorder buffer not drained");
        assert!(end.winrx.copying.is_empty(), "copy in flight at quiescence");
        assert_eq!(end.winrx.held, 0, "credit leaked by consumed messages");
    }
    (order, leaked, trace)
}

/// Expected stream for `sizes`.
fn expect(sizes: &[usize]) -> Vec<Vec<u8>> {
    sizes.iter().enumerate().map(|(i, &l)| msg(i, l)).collect()
}

/// Windowed mode on a clean network: byte-identical in-order delivery,
/// including messages large enough to fragment (multi-fragment reassembly
/// through the reorder buffer).
#[test]
fn windowed_delivers_in_order_with_fragmentation() {
    let sizes = [4usize, 256, 1024, 3000, 1, 2500, 64, 5000];
    let (order, leaked, _) = stream_with(
        Calibration::paper_1988_windowed(8),
        FaultSchedule::new(3),
        &sizes,
        false,
    );
    assert_eq!(order, expect(&sizes));
    assert_eq!(leaked, 0);
}

/// A window larger than the stream still flushes and closes cleanly.
#[test]
fn window_larger_than_stream_flushes_on_close() {
    let sizes = [16usize; 3];
    let (order, leaked, _) = stream_with(
        Calibration::paper_1988_windowed(16),
        FaultSchedule::new(5),
        &sizes,
        false,
    );
    assert_eq!(order, expect(&sizes));
    assert_eq!(leaked, 0);
}

/// The reorder buffer and credit pool are hard bounds: with a tiny receive
/// window and loss on every link, fragments beyond the bounds are dropped
/// and retransmitted — delivery stays exact, and nothing leaks.
#[test]
fn tiny_reorder_and_credit_bounds_still_deliver_exactly_once() {
    let mut c = Calibration::paper_1988_windowed(4);
    c.chan_rx_frag_buffers = 4;
    c.chan_reorder_frags = 2;
    let schedule = FaultSchedule::new(11).all_links(LinkFaults::loss(0.05));
    let sizes = [200usize; 10];
    let (order, leaked, _) = stream_with(c, schedule, &sizes, false);
    assert_eq!(order, expect(&sizes));
    assert_eq!(leaked, 0);
}

/// Determinism: the same (seed, window) pair replays bit-identically, and
/// the window size genuinely changes the execution (so the comparison is
/// not vacuous).
#[test]
fn same_seed_same_window_replays_bit_identically() {
    let sizes = [256usize; 6];
    let schedule = || FaultSchedule::new(42).all_links(LinkFaults::loss(0.03));
    let run = |w: u32| {
        stream_with(
            Calibration::paper_1988_windowed(w),
            schedule(),
            &sizes,
            true,
        )
    };
    let (order_a, leaked_a, trace_a) = run(4);
    let (order_b, leaked_b, trace_b) = run(4);
    assert_eq!(order_a, expect(&sizes));
    assert_eq!(order_a, order_b);
    assert_eq!(leaked_a, leaked_b);
    assert!(!trace_a.is_empty(), "trace must record");
    assert_eq!(trace_a, trace_b, "same window must replay bit-identically");
    // Different window, same seed: a different execution.
    let (order_c, _, trace_c) = run(1);
    assert_eq!(order_c, expect(&sizes));
    assert_ne!(trace_a, trace_c, "window size must change the schedule");
}

/// The windowed pipeline is actually faster: the same workload finishes in
/// less simulated time at W=8 than at W=1 (the full goodput comparison
/// against the paper's tables lives in `datapath_report`).
#[test]
fn windowed_finishes_sooner_than_stop_and_wait() {
    let sizes = [256usize; 16];
    let finish = |w: u32| {
        let mut v = VorxBuilder::single_cluster(2)
            .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
            .calibration(Calibration::paper_1988_windowed(w))
            .trace(false)
            .build();
        let sizes_w: Vec<usize> = sizes.to_vec();
        v.spawn("n0:w", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(0), "t");
            for (i, &len) in sizes_w.iter().enumerate() {
                ch.write(&ctx, Payload::copy_from(&msg(i, len))).unwrap();
            }
            ch.close(&ctx);
        });
        let done = Arc::new(Mutex::new(0u64));
        let sink = Arc::clone(&done);
        v.spawn("n1:r", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "t");
            for _ in 0..16 {
                ch.read(&ctx).unwrap();
            }
            *sink.lock() = ctx.now().as_ns();
        });
        v.run_all();
        let t = *done.lock();
        assert!(t > 0);
        t
    };
    let t1 = finish(1);
    let t8 = finish(8);
    assert!(
        t8 * 4 <= t1 * 3,
        "W=8 ({t8} ns) should beat W=1 ({t1} ns) clearly"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized loss/corruption with random seeds across window sizes:
    /// the windowed protocol delivers every message byte-identically, in
    /// order, exactly once, leaving no parked process and no receive-side
    /// window state behind.
    #[test]
    fn lossy_windowed_stream_delivers_byte_identical(
        seed in 0u64..1_000_000,
        window in prop::sample::select(vec![1u32, 4, 16]),
        drop in 0.0f64..0.06,
        corrupt in 0.0f64..0.04,
    ) {
        let schedule = FaultSchedule::new(seed).all_links(LinkFaults {
            drop,
            corrupt,
            delay: 0.0,
            delay_ns: 0,
        });
        let sizes = [4usize, 1500, 256, 64, 2048, 1, 900, 256];
        let (order, leaked, _) = stream_with(
            Calibration::paper_1988_windowed(window),
            schedule,
            &sizes,
            false,
        );
        prop_assert_eq!(order, expect(&sizes));
        prop_assert_eq!(leaked, 0);
    }
}
