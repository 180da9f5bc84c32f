//! Zero-copy accounting on the fabric forwarding hot path: multicast
//! fan-out must share one refcounted payload across every branch — no
//! payload-byte copies (copymeter) and no heap churn proportional to
//! payload size × fan-out (counting allocator).

mod common;

use std::sync::Mutex;

use common::allocated;
use hpc_vorx::hpcnet::driver::StandaloneNet;
use hpc_vorx::hpcnet::{copymeter, Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};

/// The copymeter is process-global (it also counts copies made on
/// simulation threads), so the tests that move payload bytes serialize on
/// this lock. The allocation meter is per-thread and needs no lock.
static COPYMETER_LOCK: Mutex<()> = Mutex::new(());

/// Multicast a `len`-byte frame (`len` <= the 1024-byte HPC frame limit)
/// from node 0 to three nodes on another cluster and return (bytes
/// allocated while forwarding — payload construction excluded, delivered
/// frames).
fn fan_out(len: usize) -> (u64, Vec<Frame>) {
    let topo = Topology::incomplete_hypercube(2, 4).unwrap();
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    let payload = Payload::copy_from(&vec![0xA5u8; len]);
    let frame = Frame {
        src: NodeAddr(0),
        dst: Dest::Multicast(vec![NodeAddr(4), NodeAddr(5), NodeAddr(6)].into()),
        kind: 0,
        seq: 7,
        payload,
        corrupted: false,
    };
    let before = allocated();
    net.send_at(0, frame);
    net.run();
    let churn = allocated() - before;
    let delivered: Vec<Frame> = net.delivered.into_iter().map(|(_, _, f)| f).collect();
    (churn, delivered)
}

/// Store-and-forward hops and the fan-out split must hand every branch the
/// same backing buffer: zero payload bytes copied, and every delivered
/// payload aliases the original allocation.
#[test]
fn multicast_fan_out_shares_payload_bytes() {
    let _guard = COPYMETER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    copymeter::reset();
    let (_, delivered) = fan_out(1024);
    assert_eq!(delivered.len(), 3);
    assert_eq!(
        copymeter::payload_bytes_copied(),
        1024,
        "only the initial Payload::copy_from may move bytes"
    );
    let ptrs: Vec<*const u8> = delivered
        .iter()
        .map(|f| f.payload.bytes().expect("data payload").as_ptr())
        .collect();
    assert!(
        ptrs.iter().all(|&p| p == ptrs[0]),
        "all fan-out branches must alias one backing buffer"
    );
}

/// Forwarding heap churn must not scale with payload size: the only
/// per-branch allocations are bookkeeping (queue entries, refcount clones),
/// never payload-sized buffers.
#[test]
fn forwarding_churn_is_payload_size_independent() {
    let _guard = COPYMETER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Warm up allocator pools and lazy statics so the two measured runs see
    // identical bookkeeping behavior.
    let _ = fan_out(16);
    let (small, d_small) = fan_out(16);
    let (large, d_large) = fan_out(1024);
    assert_eq!(d_small.len(), 3);
    assert_eq!(d_large.len(), 3);
    // Payload construction happens before the measurement window, so the
    // two runs may differ only by bookkeeping noise. Deep-cloning the
    // payload per branch would add >= 3 KiB to the large run.
    let excess = large.saturating_sub(small);
    assert!(
        excess < 1024,
        "forwarding allocated {excess} payload-size-dependent bytes \
         (small run: {small}, large run: {large})"
    );
}
