//! Zero-copy accounting on the fabric forwarding hot path: multicast
//! fan-out must share one refcounted payload across every branch — no
//! payload-byte copies (copymeter) and no heap churn proportional to
//! payload size × fan-out (counting allocator). Also the VORX multicast
//! delivery path: one reassembly gather per receiver at most.

mod common;

use std::sync::Mutex;

use common::allocated;
use hpc_vorx::hpcnet::driver::StandaloneNet;
use hpc_vorx::hpcnet::{copymeter, Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::multicast::{join, mread, mwrite};
use hpc_vorx::vorx::VorxBuilder;

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

/// Payload bytes copied while node 0 of a 3-node cluster multicasts `len`
/// bytes to nodes 1 and 2 and both read the message.
fn multicast_copies(len: usize) -> u64 {
    let before = copymeter::payload_bytes_copied();
    let mut v = VorxBuilder::single_cluster(3).build();
    v.spawn("n0:w", move |ctx| {
        mwrite(
            &ctx,
            NodeAddr(0),
            6,
            vec![NodeAddr(1), NodeAddr(2)],
            Payload::copy_from(&vec![7u8; len]),
        );
    });
    for n in 1..3u32 {
        v.spawn(format!("n{n}:r"), move |ctx| {
            join(&ctx, NodeAddr(n), 6);
            let _ = mread(&ctx, NodeAddr(n), 6);
        });
    }
    v.run_all();
    copymeter::payload_bytes_copied() - before
}

/// The receive side-buffer path holds fragments as refcounted slices: a
/// single-fragment message reaches `mread` without the simulator copying
/// any payload bytes, and a multi-fragment message costs exactly one
/// reassembly gather per receiver.
#[test]
fn delivery_copies_are_one_gather_per_receiver() {
    let _guard = COPYMETER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Only the creation copy inside `Payload::copy_from`: hardware
    // replication to both receivers and both deliveries are zero-copy.
    assert_eq!(multicast_copies(600), 600);
    // Creation + one 3-fragment gather per receiver, nothing per-frame.
    assert_eq!(multicast_copies(2500), 2500 + 2 * 2500);
}
