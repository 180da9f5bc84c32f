//! Correctness oracles and the delivery digest. Each oracle compares what
//! the simulator delivered with what the seeded inputs asked for and
//! returns the number of failed operations (0 when everything arrived
//! exactly once, intact).

use hpcnet::NodeAddr;

use crate::plan::{Pair, PlannedFrame};

/// 64-bit FNV-1a over a stream of words: the model fingerprint of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// `paper_channels`: `delivered[i]` holds the payload length of every
/// message pair `i`'s reader received, in order. A pair fails by the number
/// of messages missing, duplicated or of the wrong length.
pub fn channels(pairs: &[Pair], delivered: &[Vec<u32>]) -> u64 {
    pairs
        .iter()
        .zip(delivered)
        .map(|(p, got)| {
            let wrong = got.iter().filter(|&&l| l != p.len).count() as u64;
            let count_off = u64::from(p.msgs).abs_diff(got.len() as u64);
            (wrong + count_off).min(u64::from(p.msgs))
        })
        .sum()
}

/// One frame found in an endpoint's UDCO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Arrival {
    pub seq: u64,
    pub src: NodeAddr,
    pub len: u32,
}

/// The queue every endpoint should end with: one arrival per frame
/// addressed to it, in frame order.
pub fn flood_expected(frames: &[PlannedFrame], n_endpoints: usize) -> Vec<Vec<Arrival>> {
    let mut want = vec![Vec::new(); n_endpoints];
    for (j, f) in frames.iter().enumerate() {
        for t in &f.dst {
            want[t.0 as usize].push(Arrival {
                seq: j as u64,
                src: f.src,
                len: f.len,
            });
        }
    }
    want
}

/// `fabric_flood`: every endpoint's queue must hold exactly the frames
/// addressed to it (as a multiset — the fabric may reorder frames from
/// different sources). Fails by the number of expected arrivals that are
/// missing plus the number of arrivals nobody sent (duplicates included).
pub fn flood(expected: &[Vec<Arrival>], got: &[Vec<Arrival>]) -> u64 {
    let mut failed = 0u64;
    for (want, have) in expected.iter().zip(got) {
        let mut have = have.clone();
        have.sort_unstable();
        // `want` is built in ascending seq order already.
        let (mut i, mut k, mut matched) = (0, 0, 0u64);
        while i < want.len() && k < have.len() {
            match want[i].cmp(&have[k]) {
                std::cmp::Ordering::Equal => {
                    matched += 1;
                    i += 1;
                    k += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => k += 1,
            }
        }
        failed += (want.len() as u64 - matched) + (have.len() as u64 - matched);
    }
    failed
}

/// `sharded_streams`: every message the workload sends is read once.
pub fn streams(expected: u64, delivered: u64) -> u64 {
    expected.abs_diff(delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{channel_pairs, flood_frames};

    #[test]
    fn channel_oracle_rejects_a_dropped_or_duplicated_delivery() {
        let pairs = channel_pairs(3);
        let exact: Vec<Vec<u32>> = pairs.iter().map(|p| vec![p.len; p.msgs as usize]).collect();
        assert_eq!(channels(&pairs, &exact), 0);

        let mut dropped = exact.clone();
        dropped[5].pop();
        assert_eq!(channels(&pairs, &dropped), 1);

        let mut duplicated = exact.clone();
        duplicated[9].push(pairs[9].len);
        assert_eq!(channels(&pairs, &duplicated), 1);

        let mut truncated = exact;
        truncated[0][0] = 1;
        assert_eq!(channels(&pairs, &truncated), 1);
    }

    #[test]
    fn flood_oracle_rejects_a_dropped_or_duplicated_delivery() {
        let frames = flood_frames(3);
        let want = flood_expected(&frames, 1024);
        // Reordering within a queue is allowed.
        let mut got = want.clone();
        got.iter_mut().for_each(|q| q.reverse());
        assert_eq!(flood(&want, &got), 0);

        let busy = (0..1024).max_by_key(|&e| want[e].len()).unwrap();
        let mut dropped = want.clone();
        dropped[busy].remove(1);
        assert_eq!(flood(&want, &dropped), 1);

        let mut duplicated = want.clone();
        let again = duplicated[busy][0];
        duplicated[busy].push(again);
        assert_eq!(flood(&want, &duplicated), 1);

        let mut misdelivered = want.clone();
        let moved = misdelivered[busy].pop().unwrap();
        misdelivered[(busy + 1) % 1024].push(moved);
        assert_eq!(flood(&want, &misdelivered), 2);
    }

    #[test]
    fn stream_oracle_rejects_a_dropped_or_duplicated_delivery() {
        assert_eq!(streams(12_288, 12_288), 0);
        assert_eq!(streams(12_288, 12_287), 1);
        assert_eq!(streams(12_288, 12_289), 1);
    }
}
