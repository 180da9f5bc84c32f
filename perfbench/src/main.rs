//! Host-speed benchmark of the HPC/VORX simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_channels|fabric_flood|sharded_streams> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics (medians over the repetitions). `--trace 1` is the
//! separate traced run: it alternates repetitions with and without
//! benchmark spans, adds the re-runs, replays and probes of the per-layer
//! table, prints the per-layer metrics, and writes its spans to
//! `perfbench/out/`. Either way the last line is one JSON result object,
//! and the process exits 1 when an oracle fails. `perfbench/rationale.json`
//! says why each workload and metric exists.

mod host;
mod metrics;
mod oracle;
mod plan;
mod probes;
mod spans;
mod workloads;

use std::sync::Arc;
use std::time::{Duration, Instant};

use metrics::{median, quantile, result_line, Metrics, Section};
use spans::Spans;
use workloads::{Input, Kind, Model, Opts, Rep};

/// Repetitions every run makes at least, whatever `--seconds` says: the
/// model fingerprint is compared between them.
const MIN_REPS: usize = 2;
/// Extra build-only set-ups after each repetition, so `setup_s` is a median
/// over many samples.
const EXTRA_SETUPS: usize = 16;
/// Model fingerprints recorded for the default and held-out seeds.
const RECORDED: &str = include_str!("../fingerprints.txt");

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What a run found, whatever its mode.
struct Outcome {
    retransmission_fails: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    model: Model,
}

impl Outcome {
    fn new(kind: Kind, section: Section, first: &Rep) -> Self {
        Outcome {
            retransmission_fails: kind.retransmission_fails(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(section),
            model: first.model,
        }
    }

    /// Fold in one repetition: its oracle verdict, and whether it
    /// simulated exactly what the first one did.
    fn absorb(&mut self, label: &str, r: &Rep, first: &Rep) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        if r.failed > 0 {
            self.problems.push(format!(
                "{label}: {} of {} operations failed",
                r.failed, r.attempted
            ));
        }
        self.problems
            .extend(r.problems.iter().map(|p| format!("{label}: {p}")));
        if r.model != first.model {
            self.problems.push(format!(
                "{label}: simulated outcome {:?} differs from the first repetition's {:?}",
                r.model, first.model
            ));
        }
        if self.retransmission_fails && r.model.retries > 0 {
            self.problems
                .push(format!("{label}: {} retransmissions", r.model.retries));
        }
        if r.counts != first.counts {
            self.problems.push(format!(
                "{label}: layer counts {:?} differ from the first repetition's {:?}",
                r.counts, first.counts
            ));
        }
    }

    /// [`Outcome::absorb`] every repetition of one configuration, which
    /// must also have recorded the same simulator trace.
    fn absorb_all(&mut self, label: &str, reps: &[Rep], first: &Rep) {
        for (i, r) in reps.iter().enumerate() {
            let label = format!("{label} {i}");
            self.absorb(&label, r, first);
            if (r.trace_records, r.trace_digest) != (reps[0].trace_records, reps[0].trace_digest) {
                self.problems
                    .push(format!("{label}: simulator trace differs"));
            }
        }
    }
}

fn times(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args, input: &Input) -> Outcome {
    let opts = args.kind.measured();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let r = workloads::rep(input, &opts);
        if reps.is_empty() {
            // The peak of one build and run. Each repetition's processes
            // are new threads that may draw another malloc arena, and arenas
            // keep what was freed in them, so the process peak after many
            // repetitions grows with their number.
            peak_rss = host::peak_rss_mib();
        }
        setups.push(r.setup_s);
        setups.extend((0..EXTRA_SETUPS).map(|_| workloads::setup_only(input, &opts)));
        reps.push(r);
    }
    let mut out = Outcome::new(args.kind, Section::EndToEnd, &reps[0]);
    out.absorb_all("repetition", &reps, &reps[0]);
    let m = &mut out.metrics;
    m.set("run_s", median(&times(&reps, |r| r.run_s)));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", peak_rss);
    m.set(
        "delivered_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

/// `--trace 1`: the per-layer metrics, from spans, re-runs, replays and
/// probes.
fn traced(args: &Args, input: &Input, spans: &Arc<Spans>) -> Outcome {
    let kind = args.kind;
    let plain = kind.measured();
    let sharded = kind == Kind::ShardedStreams;
    // Repeated round-robin, so slow drifts of the host hit every
    // configuration alike: with spans, without (the measured
    // configuration), with the simulator trace toggled, and for the sharded
    // engine with one worker.
    let mut configs = vec![
        (
            "rep.spans",
            Opts {
                spans: Some(Arc::clone(spans)),
                ..plain.clone()
            },
        ),
        ("rep.plain", plain.clone()),
        (
            "rep.sim_trace_toggled",
            Opts {
                sim_trace: !plain.sim_trace,
                ..plain.clone()
            },
        ),
    ];
    if sharded {
        configs.push((
            "rep.workers_1",
            Opts {
                workers: 1,
                ..plain.clone()
            },
        ));
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps: Vec<Vec<Rep>> = configs.iter().map(|_| Vec::new()).collect();
    // The flood's frame list through the fabric alone, with and without
    // its multicast frames: (host seconds, frames delivered).
    let (mut replay_all, mut replay_unicast) = (Vec::new(), Vec::new());
    while reps[0].len() < MIN_REPS || Instant::now() < deadline {
        for ((name, opts), done) in configs.iter().zip(&mut reps) {
            done.push(spans.scope(name, || workloads::rep(input, opts)));
        }
        if let Input::Flood { frames, .. } = input {
            replay_all.push(spans.scope("replay.fabric", || probes::fabric_only(frames, false)));
            replay_unicast.push(spans.scope("replay.fabric_unicast", || {
                probes::fabric_only(frames, true)
            }));
        }
    }
    let first = &reps[0][0];
    let mut out = Outcome::new(kind, Section::PerLayer, first);
    for ((name, _), done) in configs.iter().zip(&reps) {
        out.absorb_all(name, done, first);
    }
    let run = |k: usize| median(&times(&reps[k], |r| r.run_s));
    let (run_spans, run_plain, run_toggled) = (run(0), run(1), run(2));
    let (trace_rep, trace_overhead_s) = if plain.sim_trace {
        (first, run_plain - run_toggled)
    } else {
        (&reps[2][0], run_toggled - run_plain)
    };

    let m = &mut out.metrics;
    let on = &reps[0];
    let activities = first.model.activities as f64;
    m.set("desim.activities", activities);
    m.set("desim.ns_per_activity", run_spans / activities * 1e9);
    m.set("desim.trace.records", trace_rep.trace_records as f64);
    m.set("desim.trace.overhead_s", trace_overhead_s);
    m.set("host.cpu_s", median(&times(on, |r| r.cpu_s)));
    // Share of the engine threads' wall time spent off-CPU: the
    // executor⇄process handoff waits, and the sharded workers' stalls.
    let threads = plain.workers as f64;
    m.set(
        "host.idle_frac",
        1.0 - median(&times(on, |r| r.cpu_s / (r.run_s * threads))),
    );
    m.set("hpcnet.frames_sent", first.counts.frames_sent as f64);
    m.set(
        "hpcnet.frames_delivered",
        first.counts.frames_delivered as f64,
    );
    m.set("hpcnet.depth_hwm", first.counts.depth_hwm as f64);
    let hops = input.frame_hops();
    m.set("hpcnet.frame_hops", hops as f64);
    m.set(
        "vorx.frames_per_msg",
        first.counts.frames_sent as f64 / input.messages() as f64,
    );
    m.set("vorx.retries", first.counts.retries as f64);
    m.set("bench.span_overhead_s", run_spans - run_plain);
    m.set("bench.traced_reps", on.len() as f64);
    m.set("bench.untraced_reps", reps[1].len() as f64);

    // The sharded engine; a sequential engine runs one shard, never waits
    // on another and never bridges, whatever the worker count.
    if sharded {
        let one_traced = spans.scope("rerun.workers_1_sim_trace", || {
            workloads::rep(
                input,
                &Opts {
                    workers: 1,
                    sim_trace: true,
                    ..plain.clone()
                },
            )
        });
        out.absorb("rerun.workers_1_sim_trace", &one_traced, first);
        if one_traced.trace_digest != reps[2][0].trace_digest {
            out.problems.push(format!(
                "merged trace differs between 1 and {} workers",
                plain.workers
            ));
        }
        let eps = &first.counts.events_per_shard;
        let mean = eps.iter().sum::<u64>() as f64 / eps.len() as f64;
        let m = &mut out.metrics;
        m.set("desim.shard.msgs_bridged", first.counts.msgs_bridged as f64);
        m.set(
            "desim.shard.imbalance",
            eps.iter().copied().max().unwrap_or(0) as f64 / mean,
        );
        m.set(
            "desim.shard.rounds",
            median(&times(on, |r| r.shard.rounds as f64)),
        );
        m.set(
            "desim.shard.frontier_bumps",
            median(&times(on, |r| r.shard.frontier_bumps as f64)),
        );
        m.set(
            "desim.shard.stall_s",
            median(&times(on, |r| r.shard.stall_s)),
        );
        m.set("desim.shard.speedup_2w", run(3) / run_plain);
    } else {
        for (name, v) in [
            ("desim.shard.msgs_bridged", 0.0),
            ("desim.shard.imbalance", 1.0),
            ("desim.shard.rounds", 0.0),
            ("desim.shard.frontier_bumps", 0.0),
            ("desim.shard.stall_s", 0.0),
            ("desim.shard.speedup_2w", 1.0),
        ] {
            out.metrics.set(name, v);
        }
    }

    // The fabric on its own, and what the rest of the stack costs on top.
    if let Input::Flood { frames, expected } = input {
        let want_all: u64 = expected.iter().map(|q| q.len() as u64).sum();
        let want_unicast = frames.iter().filter(|f| f.dst.len() == 1).count() as u64;
        for (name, samples, want) in [
            ("replay.fabric", &replay_all, want_all),
            ("replay.fabric_unicast", &replay_unicast, want_unicast),
        ] {
            for &(_, got) in samples {
                if got != want {
                    out.problems
                        .push(format!("{name}: {got} deliveries, expected {want}"));
                }
            }
        }
        let all = median(&replay_all.iter().map(|r| r.0).collect::<Vec<_>>());
        let unicast = median(&replay_unicast.iter().map(|r| r.0).collect::<Vec<_>>());
        let sf: Vec<f64> = reps[0]
            .iter()
            .flat_map(|r| r.send_frame_ns.iter().map(|&ns| ns as f64))
            .collect();
        let m = &mut out.metrics;
        m.set("hpcnet.fabric_only_s", all);
        m.set("hpcnet.fabric_only_unicast_s", unicast);
        m.set("hpcnet.ns_per_hop", all / hops as f64 * 1e9);
        m.set("hpcnet.send_frame_ns.p50", quantile(&sf, 0.5));
        m.set("hpcnet.send_frame_ns.p99", quantile(&sf, 0.99));
        m.set("vorx.stack_s", run_plain - all);
    } else {
        // Not measured outside the flood: the benchmark calls
        // `kernel::send_frame` itself only there.
        for name in [
            "hpcnet.fabric_only_s",
            "hpcnet.fabric_only_unicast_s",
            "hpcnet.ns_per_hop",
            "hpcnet.send_frame_ns.p50",
            "hpcnet.send_frame_ns.p99",
            "vorx.stack_s",
        ] {
            out.metrics.set(name, 0.0);
        }
    }

    let event_ns = spans.scope("probe.event", probes::event_ns);
    let resume_ns = spans.scope("probe.resume", probes::resume_ns);
    out.metrics.set("desim.probe.event_ns", event_ns);
    out.metrics.set("desim.probe.resume_ns", resume_ns);
    out
}

/// The model line, and whether it matches the fingerprint recorded for
/// this workload and seed (if one was).
fn model_line(kind: Kind, seed: u64, m: &Model) -> String {
    let fields = format!(
        "{} {} {} {} 0x{:016x}",
        m.sim_end_ns, m.activities, m.deliveries, m.retries, m.digest
    );
    let recorded = RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(&format!("{} {seed} ", kind.name())))
        .map_or(
            "none",
            |r| if r.trim() == fields { "match" } else { "moved" },
        );
    format!(
        "{{\"model\":{{\"workload\":\"{}\",\"seed\":{seed},\"sim_end_ns\":{},\"activities\":{},\
         \"deliveries\":{},\"retries\":{},\"digest\":\"0x{:016x}\",\"recorded\":\"{recorded}\"}}}}",
        kind.name(),
        m.sim_end_ns,
        m.activities,
        m.deliveries,
        m.retries,
        m.digest
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <paper_channels|fabric_flood|\
                 sharded_streams> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let input = Input::generate(args.kind, args.seed);
    let header = host::header(
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        args.kind.measured().workers,
    );
    println!("{header}");
    let out = if args.trace {
        let spans = Arc::new(Spans::new(args.kind.name()));
        let out = traced(&args, &input, &spans);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/spans-{}-{}.jsonl",
            args.kind.name(),
            args.seed
        ));
        if let Err(e) = spans.write(&path, &header) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        out
    } else {
        untraced(&args, &input)
    };
    println!("{}", model_line(args.kind, args.seed, &out.model));
    for p in &out.problems {
        eprintln!("perfbench: oracle: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload fabric_flood --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::FabricFlood, 9, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fabric_flood --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload fabric_flood --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fabric_flood --seconds 1").is_err());
    }

    #[test]
    fn the_model_line_compares_with_the_recorded_fingerprint() {
        let recorded = Model {
            sim_end_ns: 60927500,
            activities: 448258,
            deliveries: 33276,
            retries: 0,
            digest: 0x96c622d50f118210,
        };
        let line = |m: &Model, seed| model_line(Kind::FabricFlood, seed, m);
        assert!(line(&recorded, 1).contains("\"recorded\":\"match\""));
        let moved = Model {
            sim_end_ns: recorded.sim_end_ns + 1,
            ..recorded
        };
        assert!(line(&moved, 1).contains("\"recorded\":\"moved\""));
        assert!(line(&recorded, 99).contains("\"recorded\":\"none\""));
    }

    #[test]
    fn recorded_fingerprints_name_known_workloads() {
        for line in RECORDED.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 7, "bad fingerprint line {line:?}");
            assert!(Kind::parse(f[0]).is_some(), "unknown workload in {line:?}");
        }
    }
}
