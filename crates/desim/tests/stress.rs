//! Stress tests for the engine hot paths: the same-instant event lane, the
//! executor⇄process coroutine switch, and stale/spurious wakeup handling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

// --- Process coroutines: teardown, panics, unwinding, thread moves, depth ---

/// Counts its drops in a shared counter.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Dropping a simulation unwinds every unfinished process on the dropping
/// thread: each process's locals are dropped exactly once, including those
/// of a process whose body never started.
#[test]
fn drop_runs_each_parked_process_guard_exactly_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new(false);
    for i in 0..7 {
        let guard = Guard(Arc::clone(&drops));
        sim.spawn(format!("parked{i}"), move |ctx: Ctx<bool>| {
            let _guard = guard;
            // Park a few times at different depths before blocking for good.
            ctx.sleep(SimDuration::from_ns(i + 1));
            ctx.wait_until(|ready, _| ready.then_some(()));
        });
    }
    let guard = Guard(Arc::clone(&drops));
    sim.setup(move |_, s| {
        s.spawn_in(SimDuration::from_us(1), "never-started", move |_ctx| {
            let _guard = guard;
            unreachable!("starts after the run's deadline");
        });
    });
    assert_eq!(
        sim.run_until(SimTime::from_ns(100)),
        desim::RunOutcome::DeadlineReached
    );
    assert_eq!(sim.parked_processes().len(), 8);
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 8);
}

/// A process that panics after parking several times makes the executor
/// re-panic with its name and message; dropping the simulation afterwards
/// still unwinds the other, parked processes.
#[test]
fn panic_after_parks_names_the_process() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new(false);
    for i in 0..3 {
        let guard = Guard(Arc::clone(&drops));
        sim.spawn(format!("bystander{i}"), move |ctx: Ctx<bool>| {
            let _guard = guard;
            ctx.wait_until(|ready, _| ready.then_some(()));
        });
    }
    let guard = Guard(Arc::clone(&drops));
    sim.spawn("flaky", move |ctx: Ctx<bool>| {
        let _guard = guard;
        for _ in 0..3 {
            ctx.sleep(SimDuration::from_ns(10));
        }
        panic!("boom after {} ns", ctx.now().as_ns());
    });
    let payload = catch_unwind(AssertUnwindSafe(|| sim.run_to_idle()))
        .expect_err("the process panic must reach the executor");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(msg, "simulated process 'flaky' panicked: boom after 30 ns");
    // The panicking process's own locals were dropped while it unwound.
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 4);
}

/// A backtrace taken inside a process that has parked and resumed walks its
/// coroutine stack and stops at the stack's root instead of running off it.
#[test]
fn backtrace_inside_a_resumed_process_returns() {
    let mut sim = Simulation::new(None::<String>);
    sim.spawn("tracer", |ctx: Ctx<Option<String>>| {
        ctx.sleep(SimDuration::from_ns(5));
        let bt = std::backtrace::Backtrace::force_capture();
        let status = format!("{:?}", bt.status());
        let _ = bt.to_string();
        ctx.with(move |w, _| *w = Some(status));
    });
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(sim.world().as_deref(), Some("Captured"));
}

/// A simulation moved to another OS thread between runs resumes its parked
/// processes there: the coroutines go wherever the executor goes.
#[test]
fn simulation_moved_between_threads_resumes_its_processes() {
    type Seen = Vec<(u64, std::thread::ThreadId)>;
    let mut sim = Simulation::new(Seen::new());
    for i in 0..4u64 {
        sim.spawn(format!("p{i}"), move |ctx: Ctx<Seen>| {
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_ns(10 + i));
                let here = std::thread::current().id();
                ctx.with(move |w, s| w.push((s.now().as_ns(), here)));
            }
        });
    }
    assert_eq!(
        sim.run_until(SimTime::from_ns(15)),
        desim::RunOutcome::DeadlineReached
    );
    let main = std::thread::current().id();
    let (sim, report, other) = std::thread::spawn(move || {
        let report = sim.run_to_idle();
        (sim, report, std::thread::current().id())
    })
    .join()
    .unwrap();
    assert!(report.all_finished());
    assert_eq!(report.now, SimTime::from_ns(39));
    let seen = std::mem::take(&mut *sim.world());
    let times: Vec<u64> = seen.iter().map(|&(t, _)| t).collect();
    assert_eq!(times, [10, 11, 12, 13, 20, 22, 24, 26, 30, 33, 36, 39]);
    let threads: Vec<_> = seen.iter().map(|&(_, id)| id).collect();
    assert!(threads[..4].iter().all(|&id| id == main));
    assert!(threads[4..].iter().all(|&id| id == other));
}

/// Recurse until the stack is `MIB` below `base`, park there, and return
/// the number of frames on the way back up.
fn recurse(ctx: &Ctx<(u64, u64)>, base: usize, depth: u64) -> u64 {
    let frame = [depth as u8; 256];
    let here = std::hint::black_box(&frame).as_ptr() as usize;
    if base - here >= MIB {
        ctx.sleep(SimDuration::from_ns(1));
        ctx.with(|w, _| w.0 = depth);
        return 0;
    }
    recurse(ctx, base, depth + 1) + 1 + u64::from(frame[255] != depth as u8)
}

const MIB: usize = 1 << 20;

/// Process code may use about 1 MiB of stack (and park down there).
#[test]
fn process_recursing_through_a_mebibyte_of_stack_completes() {
    let mut sim = Simulation::new((0u64, 0u64));
    sim.spawn("deep", |ctx: Ctx<(u64, u64)>| {
        let marker = 0u8;
        let base = std::hint::black_box(&marker) as *const u8 as usize;
        let frames = recurse(&ctx, base, 0);
        ctx.with(move |w, _| w.1 = frames);
    });
    assert!(sim.run_to_idle().all_finished());
    let (deepest, frames) = *sim.world();
    assert!(deepest >= (MIB / 1024) as u64, "{deepest} frames for 1 MiB");
    assert_eq!(frames, deepest);
}

/// A finished process's stack is released at once, not when the simulation
/// drops: 40,000 processes run one after another without exhausting the
/// host's per-process mapping limit (65,530 by default, two per stack).
#[test]
fn finished_processes_release_their_stacks() {
    let mut sim = Simulation::new(0u32);
    sim.spawn("spawner", |ctx: Ctx<u32>| {
        for _ in 0..40_000 {
            ctx.spawn("child", |ctx: Ctx<u32>| ctx.with(|w, _| *w += 1));
            ctx.sleep(SimDuration::from_ns(1));
        }
    });
    assert!(sim.run_to_idle().all_finished());
    assert_eq!(*sim.world(), 40_000);
}

/// Parking through a `Ctx` from anywhere but its own process's stack would
/// switch stacks under the wrong caller; it panics instead.
#[test]
fn parking_outside_the_process_panics() {
    #[derive(Default)]
    struct Stash(Option<Ctx<Stash>>);
    let mut sim = Simulation::new(Stash::default());
    sim.spawn("lender", |ctx: Ctx<Stash>| {
        let lent = ctx.clone();
        ctx.with(move |w, _| w.0 = Some(lent));
        ctx.wait_until(|_, _| None::<()>);
    });
    assert_eq!(sim.run_to_idle().parked.len(), 1);
    let ctx = sim.world().0.take().expect("lent Ctx");
    let payload = catch_unwind(AssertUnwindSafe(|| ctx.park())).expect_err("park must refuse");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"Ctx used outside its own process")
    );
}
