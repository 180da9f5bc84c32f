//! Stress tests for the engine hot paths: the same-instant event lane, the
//! park/unpark baton handoff, and stale/spurious wakeup handling.

use desim::{Ctx, ProcId, SimDuration, SimTime, Simulation, Trace, Wakeup};

const CHAIN: usize = 1024;

#[derive(Default)]
struct ChainWorld {
    /// ProcIds in chain order, filled in before the run starts.
    pids: Vec<ProcId>,
    /// Whose turn it is to fire.
    turn: usize,
    /// `(chain index)` events, recorded as each link fires.
    trace: Trace<u64>,
}

/// Build the 1024-process wake chain: every process waits for its turn, logs
/// itself, and wakes its successor with a zero-delay wake — the pattern the
/// same-instant lane exists for.
fn build_chain() -> Simulation<ChainWorld> {
    let sim = Simulation::new(ChainWorld::default());
    let pids: Vec<ProcId> = (0..CHAIN)
        .map(|i| {
            sim.spawn(format!("link{i}"), move |ctx: Ctx<ChainWorld>| {
                ctx.wait_until(move |w, _| (w.turn == i).then_some(()));
                ctx.with(move |w, s| {
                    let now = s.now();
                    w.trace.record(now, i as u64);
                    w.turn += 1;
                    if let Some(&next) = w.pids.get(i + 1) {
                        s.wake(next, Wakeup::START);
                    }
                });
            })
        })
        .collect();
    sim.setup(move |w, _| w.pids = pids);
    sim
}

fn run_chain() -> (SimTime, Trace<u64>) {
    let mut sim = build_chain();
    let report = sim.run_to_idle();
    assert!(
        report.all_finished(),
        "chain wedged, parked: {:?}",
        report.parked
    );
    let mut w = sim.world();
    assert_eq!(w.turn, CHAIN);
    // Every link fired, in order, all at t=0: the whole cascade runs on the
    // same-instant lane without time ever advancing.
    let fired: Vec<u64> = w
        .trace
        .iter()
        .map(|(t, &i)| {
            assert_eq!(t, SimTime::ZERO);
            i
        })
        .collect();
    assert_eq!(fired, (0..CHAIN as u64).collect::<Vec<_>>());
    (report.now, std::mem::take(&mut w.trace))
}

/// Determinism under the same-instant lane: two independent runs of the
/// 1024-process wake chain must produce identical traces.
#[test]
fn wake_chain_1024_is_deterministic() {
    let (now_a, trace_a) = run_chain();
    let (now_b, trace_b) = run_chain();
    assert_eq!(now_a, now_b);
    assert_eq!(trace_a, trace_b, "traces differ between identical runs");
}

/// Spurious wakeups must not break a condition loop: a waiter poked many
/// times before its condition holds simply re-parks each time.
#[test]
fn spurious_wakeups_are_harmless() {
    #[derive(Default)]
    struct W {
        waiter: Option<ProcId>,
        ready: bool,
        pokes: u32,
        done: bool,
    }
    let mut sim = Simulation::new(W::default());
    let pid = sim.spawn("waiter", |ctx: Ctx<W>| {
        ctx.wait_until(|w, _| w.ready.then_some(()));
        ctx.with(|w, _| w.done = true);
    });
    sim.setup(move |w, _| w.waiter = Some(pid));
    // Ten wakes with the condition still false, then one that satisfies it.
    for k in 0..10u64 {
        sim.schedule_in(SimDuration::from_ns(k + 1), move |w: &mut W, s| {
            w.pokes += 1;
            s.wake(w.waiter.unwrap(), Wakeup(k));
        });
    }
    sim.schedule_in(SimDuration::from_ns(100), |w: &mut W, s| {
        w.ready = true;
        s.wake(w.waiter.unwrap(), Wakeup::START);
    });
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(sim.world().pokes, 10);
    assert!(sim.world().done);
}

/// A wake directed at an already-finished process is stale: the executor
/// must skip it silently rather than resume or panic.
#[test]
fn stale_wakeup_for_finished_process_is_skipped() {
    #[derive(Default)]
    struct W {
        short: Option<ProcId>,
    }
    let mut sim = Simulation::new(W::default());
    let pid = sim.spawn("short-lived", |ctx: Ctx<W>| {
        ctx.sleep(SimDuration::from_ns(5));
    });
    sim.setup(move |w, _| w.short = Some(pid));
    // Fires long after `short-lived` has finished.
    sim.schedule_in(SimDuration::from_ns(1_000), |w: &mut W, s| {
        s.wake(w.short.unwrap(), Wakeup::START);
    });
    let report = sim.run_to_idle();
    assert!(report.all_finished());
    assert_eq!(report.now, SimTime::from_ns(1_000));
}

/// A sleep interrupted by an unrelated wake must still last its full
/// duration (the timer loop re-parks on early wakeups).
#[test]
fn sleep_survives_unrelated_wakeups() {
    #[derive(Default)]
    struct W {
        sleeper: Option<ProcId>,
        woke_at: Option<SimTime>,
    }
    let mut sim = Simulation::new(W::default());
    let pid = sim.spawn("sleeper", |ctx: Ctx<W>| {
        ctx.sleep(SimDuration::from_ns(100));
        ctx.with(|w, s| w.woke_at = Some(s.now()));
    });
    sim.setup(move |w, _| w.sleeper = Some(pid));
    for k in [10u64, 40, 70] {
        sim.schedule_in(SimDuration::from_ns(k), |w: &mut W, s| {
            s.wake(w.sleeper.unwrap(), Wakeup(7));
        });
    }
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(sim.world().woke_at, Some(SimTime::from_ns(100)));
}
