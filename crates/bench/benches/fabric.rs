//! Criterion benchmarks of the HPC fabric model (host wall time): frame
//! delivery rate through the standalone driver, unicast and multicast, a
//! loaded 1024-endpoint machine, and the S/NET baseline simulator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hpcnet::driver::StandaloneNet;
use hpcnet::{Dest, Fabric, Frame, NetConfig, NodeAddr, Payload, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snet::{SnetConfig, SnetSim, Strategy};

fn bench_unicast(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpcnet");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("unicast_1k_frames_hypercube", |b| {
        b.iter_batched(
            || {
                let topo = Topology::incomplete_hypercube(8, 4).unwrap();
                let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
                for i in 0..1_000u64 {
                    let src = (i % 32) as u32;
                    let dst = ((i + 17) % 32) as u32;
                    net.send_at(
                        i * 10,
                        Frame::unicast(NodeAddr(src), NodeAddr(dst), 0, i, Payload::Synthetic(256)),
                    );
                }
                net
            },
            |mut net| {
                net.run();
                assert_eq!(net.delivered.len(), 1_000);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_multicast(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpcnet");
    g.throughput(Throughput::Elements(100 * 31));
    g.bench_function("multicast_100_frames_to_31", |b| {
        b.iter_batched(
            || {
                let topo = Topology::incomplete_hypercube(8, 4).unwrap();
                let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
                let everyone: std::sync::Arc<[NodeAddr]> =
                    (1..32).map(NodeAddr).collect::<Vec<_>>().into();
                for i in 0..100u64 {
                    net.send_at(
                        i * 100_000,
                        Frame {
                            src: NodeAddr(0),
                            dst: Dest::Multicast(everyone.clone()),
                            kind: 0,
                            seq: i,
                            payload: Payload::Synthetic(512),
                            corrupted: false,
                        },
                    );
                }
                net
            },
            |mut net| {
                net.run();
                assert_eq!(net.delivered.len(), 3_100);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Frames in the loaded case, one every `FLOOD_GAP_NS`.
const FLOOD_FRAMES: u64 = 2_000;
const FLOOD_GAP_NS: u64 = 2_000;

/// The §1 1024-processor machine (256 clusters of 4) fed an open-loop
/// frame every 2 us: uniform sources and targets, 64 B or 1024 B, every
/// 64th frame a multicast to 8. Frames queue at many of the 256 switches
/// at once, so the per-event forwarding pass has the most clusters to
/// visit; the cases above use 8 clusters.
fn bench_flood(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpcnet");
    g.sample_size(10);
    g.throughput(Throughput::Elements(FLOOD_FRAMES));
    g.bench_function("flood_256x4_open_loop", |b| {
        b.iter_batched(
            || {
                let topo = Topology::incomplete_hypercube(256, 4).unwrap();
                let n = topo.n_endpoints() as u64;
                let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
                let mut rng = SmallRng::seed_from_u64(1);
                let mut copies = 0;
                for i in 0..FLOOD_FRAMES {
                    let src = rng.random_range(0..n);
                    let fanout = if i % 64 == 63 { 8 } else { 1 };
                    let mut dst: Vec<NodeAddr> = Vec::with_capacity(fanout);
                    while dst.len() < fanout {
                        let t = NodeAddr(((src + 1 + rng.random_range(0..n - 1)) % n) as u32);
                        if !dst.contains(&t) {
                            dst.push(t);
                        }
                    }
                    copies += dst.len();
                    let dst = match dst.as_slice() {
                        [one] => Dest::Unicast(*one),
                        many => Dest::Multicast(many.into()),
                    };
                    let len = if rng.random() { 64 } else { 1024 };
                    net.send_at(
                        (i + 1) * FLOOD_GAP_NS,
                        Frame {
                            src: NodeAddr(src as u32),
                            dst,
                            kind: 0,
                            seq: i,
                            payload: Payload::Synthetic(len),
                            corrupted: false,
                        },
                    );
                }
                (net, copies)
            },
            |(mut net, copies)| {
                net.run();
                assert_eq!(net.delivered.len(), copies);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_snet(c: &mut Criterion) {
    let mut g = c.benchmark_group("snet");
    g.bench_function("reservation_burst_11x10", |b| {
        b.iter(|| {
            let mut sim = SnetSim::new(SnetConfig::paper_1985(), 12, Strategy::Reservation, 42);
            for s in 1..12 {
                sim.enqueue(s, 0, 1024, 10, 0);
            }
            let r = sim.run(60_000_000_000);
            assert!(r.completed);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_unicast,
    bench_multicast,
    bench_flood,
    bench_snet
);
criterion_main!(benches);
