//! Single-layer measurements made beside a workload in the traced run:
//! lone engine probes, and the flood's frame list replayed through the
//! fabric alone.

use std::time::Instant;

use desim::{Ctx, SimDuration, Simulation};
use hpcnet::driver::StandaloneNet;
use hpcnet::{Fabric, NetConfig};

use crate::metrics::median;
use crate::plan::{self, PlannedFrame};

/// Host ns per event of a lone 10k-event run (median of 9 runs).
pub fn event_ns() -> f64 {
    const EVENTS: u64 = 10_000;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let mut sim = Simulation::new(0u64);
            for i in 0..EVENTS {
                sim.schedule_in(SimDuration::from_ns(i), |n: &mut u64, _| *n += 1);
            }
            let t = Instant::now();
            let r = sim.run_to_idle();
            let ns = t.elapsed().as_nanos() as f64;
            assert!(r.all_finished());
            assert_eq!(*sim.world(), EVENTS, "every probe event ran");
            ns / EVENTS as f64
        })
        .collect();
    median(&samples)
}

/// Host ns per sleep/wake cycle of a lone process: one executor⇄process
/// handoff each way (median of 5 runs of 1000 cycles).
pub fn resume_ns() -> f64 {
    const CYCLES: u32 = 1_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut sim = Simulation::new(());
            sim.spawn("sleeper", |ctx: Ctx<()>| {
                for _ in 0..CYCLES {
                    ctx.sleep(SimDuration::from_us(1));
                }
            });
            let t = Instant::now();
            let r = sim.run_to_idle();
            let ns = t.elapsed().as_nanos() as f64;
            assert!(r.all_finished(), "the probe process finished");
            ns / f64::from(CYCLES)
        })
        .collect();
    median(&samples)
}

/// Replay `frames` (multicast ones dropped when `unicast_only`) through
/// the fabric with an idealized endpoint, no kernel and no engine: host
/// seconds of the run and the frames delivered.
pub fn fabric_only(frames: &[PlannedFrame], unicast_only: bool) -> (f64, u64) {
    let mut net = StandaloneNet::new(Fabric::new(plan::flood_topology(), NetConfig::paper_1988()));
    for (j, f) in frames.iter().enumerate() {
        if !(unicast_only && f.dst.len() > 1) {
            net.send_at(f.at_ns, f.frame(j as u64));
        }
    }
    let t = Instant::now();
    net.run();
    let s = t.elapsed().as_secs_f64();
    assert_eq!(
        net.waiting_dropped, 0,
        "replay shed frames at a busy sender"
    );
    (s, net.delivered.len() as u64)
}
