//! Seeded inputs: every workload's traffic is a pure function of `--seed`.
//!
//! The seed decides *placement* (which nodes talk, which endpoints a frame
//! targets); the *composition* of each workload (message counts, the
//! protocol and size mix, the multicast share) is fixed, so two seeds ask
//! the simulator for the same amount of work and host times stay
//! comparable across seeds.

use std::sync::Arc;

use hpcnet::{Dest, Frame, NodeAddr, Payload, Topology};
use vorx::proto::KIND_UDCO_BASE;
use vorx_bench::workload::StreamingWorkload;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A stream for one workload: the salt keeps workloads that share a
    /// seed from drawing the same numbers.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ---------------------------------------------------------------------------
// paper_channels
// ---------------------------------------------------------------------------

/// The paper's installation: 10 clusters of 7 processors (70 nodes).
pub const CHANNEL_CLUSTERS: usize = 10;
pub const CHANNEL_EPS: usize = 7;
/// Writer/reader pairs: every node is in exactly one pair.
pub const PAIRS: usize = CHANNEL_CLUSTERS * CHANNEL_EPS / 2;
/// Messages every writer sends.
pub const MSGS_PER_PAIR: u32 = 400;
/// Receiver buffers of the sliding-window pairs (a Table 1 row).
pub const SW_BUFS: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Stop-and-wait kernel channel (Table 2).
    StopAndWait,
    /// Reader-active sliding window over a UDCO (Table 1).
    SlidingWindow,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub writer: NodeAddr,
    pub reader: NodeAddr,
    pub proto: Proto,
    pub len: u32,
    pub msgs: u32,
}

/// 35 pairs over a seeded permutation of the 70 nodes. Every third pair
/// runs the sliding window, the rest stop-and-wait; within each protocol
/// sizes alternate 64 B / 1024 B, so the mix is the same for every seed.
pub fn channel_pairs(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed, 1);
    let mut nodes: Vec<u32> = (0..(PAIRS * 2) as u32).collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..PAIRS)
        .map(|i| {
            let proto = if i % 3 == 2 {
                Proto::SlidingWindow
            } else {
                Proto::StopAndWait
            };
            Pair {
                writer: NodeAddr(nodes[2 * i]),
                reader: NodeAddr(nodes[2 * i + 1]),
                proto,
                len: if (i / 3) % 2 == 0 { 64 } else { 1024 },
                msgs: MSGS_PER_PAIR,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// fabric_flood
// ---------------------------------------------------------------------------

/// §1's 1024-processor configuration: 256 clusters of 4.
pub const FLOOD_CLUSTERS: usize = 256;
pub const FLOOD_EPS: usize = 4;
pub const FLOOD_FRAMES: usize = 30_000;
/// Open-loop injection spacing in simulated time.
pub const FLOOD_GAP_NS: u64 = 2_000;
/// Every `MCAST_EVERY`-th frame is a hardware multicast ...
pub const MCAST_EVERY: usize = 64;
/// ... to this many distinct endpoints.
pub const MCAST_FANOUT: usize = 8;
/// UDCO tag every endpoint receives flood frames on.
pub const FLOOD_TAG: u16 = 1;

/// One frame of the flood, injected at `at_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFrame {
    pub at_ns: u64,
    pub src: NodeAddr,
    /// One target, or `MCAST_FANOUT` distinct ones (ascending).
    pub dst: Vec<NodeAddr>,
    pub len: u32,
}

impl PlannedFrame {
    /// The UDCO frame as the kernel is handed it; `seq` is the frame index,
    /// which the oracle uses to match deliveries.
    pub fn frame(&self, seq: u64) -> Frame {
        let dst = match self.dst.as_slice() {
            [one] => Dest::Unicast(*one),
            many => Dest::Multicast(Arc::from(many)),
        };
        Frame {
            src: self.src,
            dst,
            kind: KIND_UDCO_BASE + FLOOD_TAG,
            seq,
            payload: Payload::Synthetic(self.len),
            corrupted: false,
        }
    }
}

pub fn flood_topology() -> Topology {
    Topology::incomplete_hypercube(FLOOD_CLUSTERS, FLOOD_EPS).expect("valid hypercube")
}

/// The seeded frame list: uniform sources, uniform distinct targets, sizes
/// 64 B or 1024 B with equal odds.
pub fn flood_frames(seed: u64) -> Vec<PlannedFrame> {
    let n = (FLOOD_CLUSTERS * FLOOD_EPS) as u64;
    let mut rng = Rng::new(seed, 2);
    (0..FLOOD_FRAMES)
        .map(|j| {
            let src = rng.below(n) as u32;
            let fanout = if j % MCAST_EVERY == MCAST_EVERY - 1 {
                MCAST_FANOUT
            } else {
                1
            };
            let mut dst: Vec<NodeAddr> = Vec::with_capacity(fanout);
            while dst.len() < fanout {
                let t = NodeAddr(((u64::from(src) + 1 + rng.below(n - 1)) % n) as u32);
                if !dst.contains(&t) {
                    dst.push(t);
                }
            }
            dst.sort_unstable();
            PlannedFrame {
                at_ns: (j as u64 + 1) * FLOOD_GAP_NS,
                src: NodeAddr(src),
                dst,
                len: if rng.below(2) == 0 { 64 } else { 1024 },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// sharded_streams
// ---------------------------------------------------------------------------

/// A 1024-endpoint two-level hierarchy: 8-cluster groups, 16 groups, 8
/// endpoints per cluster, cut into 8 shards.
pub const STREAM_LEVELS: [usize; 2] = [8, 16];
pub const STREAM_EPS: usize = 8;
pub const STREAM_SHARDS: usize = 8;
/// Engine workers of the measured run (the host this was sized on has 2).
pub const STREAM_WORKERS: usize = 2;

pub fn stream_topology() -> Topology {
    Topology::hierarchical_hypercube(&STREAM_LEVELS, STREAM_EPS).expect("valid hierarchy")
}

/// 8 windows × 96 streams × 16 messages = 12,288 messages.
pub fn streams(seed: u64) -> StreamingWorkload {
    StreamingWorkload {
        seed: Rng::new(seed, 3).next_u64(),
        windows: 8,
        streams_per_window: 96,
        msgs_per_stream: 16,
        window_ns: 1_000_000,
        pace_ns: 50_000,
        payload_len: 256,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(channel_pairs(7), channel_pairs(7));
        assert_eq!(flood_frames(7), flood_frames(7));
        let (a, b) = (streams(7), streams(7));
        assert_eq!(a.seed, b.seed);

        assert_ne!(channel_pairs(7), channel_pairs(8));
        assert_ne!(flood_frames(7), flood_frames(8));
        assert_ne!(streams(7).seed, streams(8).seed);
    }

    #[test]
    fn channel_pairs_cover_every_node_once_with_a_fixed_mix() {
        let pairs = channel_pairs(42);
        let mut nodes: Vec<u32> = pairs
            .iter()
            .flat_map(|p| [p.writer.0, p.reader.0])
            .collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..70).collect::<Vec<_>>());
        let sw = pairs
            .iter()
            .filter(|p| p.proto == Proto::SlidingWindow)
            .count();
        assert_eq!(sw, 11);
        let big = pairs.iter().filter(|p| p.len == 1024).count();
        assert_eq!(big, 17);
    }

    #[test]
    fn flood_frames_have_distinct_targets_and_the_multicast_share() {
        let frames = flood_frames(42);
        assert_eq!(frames.len(), FLOOD_FRAMES);
        let mcast = frames.iter().filter(|f| f.dst.len() > 1).count();
        assert_eq!(mcast, FLOOD_FRAMES / MCAST_EVERY);
        for f in &frames {
            assert!(!f.dst.contains(&f.src));
            assert!(f.dst.windows(2).all(|w| w[0] < w[1]));
            assert!(f.len == 64 || f.len == 1024);
        }
    }
}
