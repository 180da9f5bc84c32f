//! The campaign harness shared by the `*_campaign` and `*_report` binaries.
//!
//! A campaign bin sweeps cells, checks that the sharded engine's worker
//! count is invisible, guards its runs with a wall-clock watchdog and writes
//! a `BENCH_*.json` report at the workspace root. This module holds those
//! pieces so a bin keeps only its cell specs, workload, oracles and gates:
//!
//! * [`Campaign`]: the `--smoke` flag, the start time and report writing;
//! * [`Watchdog`]: abort loudly, optionally dumping engine state, instead of
//!   hanging;
//! * [`across_workers`]: one cell at several worker counts, merged traces
//!   and key fields compared as values;
//! * [`violations`]: a cell's named oracles, reduced to the failed ones;
//! * [`seq_payload`]/[`seq_of`], [`Streams`], [`Progress`], [`nodes_of`],
//!   [`Cables`]: workload helpers;
//! * [`ShardTotals`], [`links_where`]: fault, link and queue statistics,
//!   folded over shards;
//! * [`Report`], [`obj!`](crate::obj), [`Lines`]: the one JSON writer.
//!   Every report opens with the common header `note`, `host_cpus`
//!   (effective CPU affinity mask), `rustc` (`rustc -V`), `profile`
//!   (`debug` or `release`) and `wall_s` (the bin's total host wall-clock).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use desim::{affinity, LinkStats, SimDuration, Trace};
use vorx::hpcnet::{ClusterId, Fabric, NetConfig, NodeAddr, Payload, Topology};
use vorx::{channel, FaultStats, TraceEvent, VCtx, VorxShardedSim, World};

/// Walk up from cwd until the directory holding `Cargo.lock`.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    cwd.ancestors()
        .find(|d| d.join("Cargo.lock").exists())
        .map_or_else(|| cwd.clone(), |d| d.to_path_buf())
}

/// One invocation of a campaign binary.
pub struct Campaign {
    /// `--smoke` was given: run the reduced CI gate, write no report.
    pub smoke: bool,
    started: Instant,
}

impl Campaign {
    /// Parse the command line and start the wall clock.
    pub fn start() -> Self {
        Campaign {
            smoke: std::env::args().any(|a| a == "--smoke"),
            started: Instant::now(),
        }
    }

    /// Render `report` into `file` at the workspace root, print where, and
    /// return the text written.
    pub fn write(&self, file: &str, report: &Report) -> String {
        let text = report.render(self.started.elapsed().as_secs_f64());
        let path = workspace_root().join(file);
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("wrote {}", path.display());
        text
    }
}

/// A wall-clock watchdog: if the guarded closure has not returned by the
/// deadline, print the optional state dump and abort the process, so a hung
/// run-to-idle fails CI instead of stalling it.
pub struct Watchdog {
    label: &'static str,
    secs: u64,
    dump: Option<Box<dyn Fn() -> Option<String> + Send>>,
}

impl Watchdog {
    /// A watchdog that fires `secs` after [`Watchdog::run`] starts.
    pub fn new(label: &'static str, secs: u64) -> Self {
        Watchdog {
            label,
            secs,
            dump: None,
        }
    }

    /// On expiry, print what `dump` returns (engine frontiers, mailbox
    /// depths, ...) before aborting.
    pub fn dump(mut self, dump: impl Fn() -> Option<String> + Send + 'static) -> Self {
        self.dump = Some(Box::new(dump));
        self
    }

    /// Run `f` under the watchdog and return its value.
    pub fn run<T>(self, f: impl FnOnce() -> T) -> T {
        let Watchdog { label, secs, dump } = self;
        // Dropping `_armed` (on return or unwind) disconnects the channel
        // and releases the watchdog thread at once.
        let (_armed, expiry) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            if expiry.recv_timeout(Duration::from_secs(secs))
                == Err(mpsc::RecvTimeoutError::Timeout)
            {
                eprintln!("{label}: watchdog expired after {secs}s — a run failed to reach idle");
                if let Some(state) = dump.as_ref().and_then(|d| d()) {
                    eprintln!("engine state at expiry:\n{state}");
                }
                std::process::abort();
            }
        });
        f()
    }
}

/// One cell's runs, in worker-count order, and the verdict on them.
pub struct Sweep<R> {
    /// The run at each worker count.
    pub runs: Vec<R>,
    /// The first divergence from the first worker count's run, described;
    /// `None` when every merged trace and key agrees.
    pub mismatch: Option<String>,
}

impl<R> Sweep<R> {
    /// Every run produced the same merged trace and key fields.
    pub fn identical(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Run one cell at each worker count in `workers`, then compare each run's
/// merged trace and key fields, as values, with the first run's. `key`
/// picks the trace and the fields that must not depend on the worker count.
pub fn across_workers<R, K: PartialEq>(
    workers: &[usize],
    run: impl FnMut(usize) -> R,
    key: impl Fn(&R) -> (&Trace<TraceEvent>, K),
) -> Sweep<R> {
    let runs: Vec<R> = workers.iter().copied().map(run).collect();
    let mismatch = {
        let (trace0, key0) = key(&runs[0]);
        runs.iter().zip(workers).find_map(|(r, w)| {
            let (trace, k) = key(r);
            let what = if *trace != *trace0 {
                "traces"
            } else if k != key0 {
                "key fields"
            } else {
                return None;
            };
            Some(format!("{what} diverged at {} vs {w} workers", workers[0]))
        })
    };
    Sweep { runs, mismatch }
}

/// The names of the oracles in `checks` that failed, in order: a cell is
/// clean when this is empty.
pub fn violations(checks: &[(bool, &'static str)]) -> Vec<&'static str> {
    checks
        .iter()
        .filter(|(ok, _)| !ok)
        .map(|&(_, name)| name)
        .collect()
}

/// A `len`-byte payload (at least 4) carrying stream sequence number `seq`
/// in its first four bytes.
pub fn seq_payload(seq: u32, len: usize) -> Payload {
    let mut buf = vec![0u8; len.max(4)];
    buf[..4].copy_from_slice(&seq.to_le_bytes());
    Payload::copy_from(&buf)
}

/// The sequence number [`seq_payload`] put in `p`.
pub fn seq_of(p: &Payload) -> u32 {
    let b = p.bytes().expect("data payload");
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Paced writer→reader streams of [`seq_payload`] messages, with the online
/// oracles the stream campaigns share: each reader checks exactly-once FIFO
/// order as deliveries land, and each process counts itself done when it
/// runs to completion.
#[derive(Clone, Default)]
pub struct Streams {
    /// Processes that ran to completion.
    pub done: Arc<AtomicU32>,
    /// Messages delivered.
    pub delivered: Arc<AtomicU32>,
    /// Some reader saw a sequence number out of order.
    out_of_order: Arc<AtomicBool>,
}

impl Streams {
    /// Spawn the writer `n<w>:w:<name>` on `w` and the reader
    /// `n<r>:r:<name>` on `r`. The writer makes `msgs` writes, each after
    /// sleeping `pace_ns` and `len(ctx)` bytes long.
    pub fn spawn(
        &self,
        v: &VorxShardedSim,
        (w, r, name): (NodeAddr, NodeAddr, &str),
        msgs: u32,
        pace_ns: u64,
        len: impl Fn(&VCtx) -> usize + Send + 'static,
    ) {
        let (s, wname) = (self.clone(), name.to_string());
        v.spawn_at(w, format!("n{}:w:{name}", w.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, w, &wname);
            for i in 0..msgs {
                ctx.sleep(SimDuration::from_ns(pace_ns));
                let p = seq_payload(i, len(&ctx));
                ch.write(&ctx, p).expect("writer failed");
            }
            s.done.fetch_add(1, Relaxed);
        });
        let (s, rname) = (self.clone(), name.to_string());
        v.spawn_at(r, format!("n{}:r:{name}", r.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, r, &rname);
            for expect in 0..msgs {
                if seq_of(&ch.read(&ctx).expect("reader failed")) != expect {
                    s.out_of_order.store(true, Relaxed);
                }
                s.delivered.fetch_add(1, Relaxed);
            }
            s.done.fetch_add(1, Relaxed);
        });
    }

    /// `(delivered, done, fifo_ok)` so far.
    pub fn tally(&self) -> (u32, u32, bool) {
        let (d, n, o) = (&self.delivered, &self.done, &self.out_of_order);
        (d.load(Relaxed), n.load(Relaxed), !o.load(Relaxed))
    }
}

/// What a stream reader committed, shared with the harness.
#[derive(Default)]
pub struct Progress {
    /// Sequence numbers committed, in commit order.
    pub delivered: Vec<u32>,
    /// Fault-to-first-recovered-delivery latency, ns.
    pub recovery_ns: Option<u64>,
}

impl Progress {
    /// Exactly `0..n` was committed, in order.
    pub fn complete(&self, n: u32) -> bool {
        self.delivered.iter().copied().eq(0..n)
    }
}

/// Endpoints of cluster `c`, in address order.
pub fn nodes_of(t: &Topology, c: u32) -> Vec<NodeAddr> {
    t.endpoints()
        .filter(|&n| t.cluster_of(n) == ClusterId(c))
        .collect()
}

/// Link-id lookups on a throwaway fabric: link numbering is a pure function
/// of the topology.
pub struct Cables(Fabric);

impl Cables {
    /// A lookup table for `t`.
    pub fn new(t: Topology) -> Self {
        Cables(Fabric::new(t, NetConfig::paper_1988()))
    }

    /// Both directed link ids of the cluster cable `a`–`b`.
    pub fn of(&self, a: u32, b: u32) -> [u32; 2] {
        let link = |x, y| {
            self.0
                .cluster_link(ClusterId(x), ClusterId(y))
                .expect("wired")
        };
        [link(a, b).0, link(b, a).0]
    }
}

/// Fold `s` into `acc`: counters add, and the latency extremes cover every
/// link that recorded a sample (`lat_min_ns` stays 0 while none has).
fn add_link(acc: &mut LinkStats, s: &LinkStats) {
    acc.dropped += s.dropped;
    acc.corrupted += s.corrupted;
    acc.delayed += s.delayed;
    acc.down_drops += s.down_drops;
    acc.downs += s.downs;
    acc.shed += s.shed;
    acc.flaps += s.flaps;
    if s.lat_count > 0 {
        let first = acc.lat_count == 0;
        acc.lat_min_ns = if first {
            s.lat_min_ns
        } else {
            acc.lat_min_ns.min(s.lat_min_ns)
        };
        acc.lat_max_ns = acc.lat_max_ns.max(s.lat_max_ns);
        acc.lat_sum_ns += s.lat_sum_ns;
        acc.lat_count += s.lat_count;
    }
}

/// Fault, link and queue statistics of one world, or folded over shards.
#[derive(Debug, Clone, Default)]
pub struct ShardTotals {
    /// Recovery-protocol counters, summed.
    pub faults: FaultStats,
    /// Per-link counters summed over every link; latency min/max are the
    /// extremes over links that recorded one.
    pub links: LinkStats,
    /// Links that shed at least one frame.
    pub shed_links: usize,
    /// Largest port-link occupancy high-water mark (slots).
    pub depth_hwm: usize,
    /// Largest per-switch sheddable-byte high-water mark.
    pub bytes_hwm: u64,
}

impl ShardTotals {
    /// The totals of one world.
    pub fn of_world(w: &World) -> Self {
        let mut t = ShardTotals {
            faults: w.faults.stats.clone(),
            depth_hwm: w.net.max_port_link_depth_hwm(),
            bytes_hwm: w.net.max_cluster_data_bytes_hwm(),
            ..Default::default()
        };
        for s in w.link_fault_stats().values() {
            add_link(&mut t.links, s);
            t.shed_links += usize::from(s.shed > 0);
        }
        t
    }

    /// The totals over every shard of `v`.
    pub fn of_shards(v: &VorxShardedSim) -> Self {
        let mut t = ShardTotals::default();
        for k in 0..v.n_shards() {
            let s = ShardTotals::of_world(&v.world(k));
            t.faults += &s.faults;
            add_link(&mut t.links, &s.links);
            t.shed_links += s.shed_links;
            t.depth_hwm = t.depth_hwm.max(s.depth_hwm);
            t.bytes_hwm = t.bytes_hwm.max(s.bytes_hwm);
        }
        t
    }
}

/// `(link, stats)` for every link of `w` whose stats pass `keep`.
pub fn links_where(w: &World, keep: impl Fn(&LinkStats) -> bool) -> Vec<(u32, LinkStats)> {
    let links = w.link_fault_stats().iter();
    links
        .filter(|(_, s)| keep(s))
        .map(|(l, s)| (*l, *s))
        .collect()
}

/// ` lat(ns) min/mean/max=a/b/c over n` when `s` recorded latencies, else
/// empty: the suffix of the campaigns' per-link summary lines.
pub fn lat_suffix(s: &LinkStats) -> String {
    if s.lat_count == 0 {
        return String::new();
    }
    let (min, mean, max, n) = (s.lat_min_ns, s.lat_mean_ns(), s.lat_max_ns, s.lat_count);
    format!(" lat(ns) min/mean/max={min}/{mean}/{max} over {n}")
}

/// A value as the reports print it.
pub trait Json {
    /// Append the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! json_via_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_via_display!(u32, u64, usize, i64, bool, f64);

impl Json for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                '\n' => out.push_str("\\n"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` prints as `null`.
impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A one-line array, `[a, b]`.
impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A float with a fixed number of decimals: `Fixed(0.0, 2)` prints `0.00`.
pub struct Fixed(pub f64, pub usize);

impl Json for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// A JSON object, `{ "k": v, ... }`, on one line unless [`Obj::br`] breaks
/// it. [`obj!`](crate::obj) builds one from `"key": value` pairs.
#[derive(Default)]
pub struct Obj {
    text: String,
    /// Separator before the next field when not the default `, `.
    sep: Option<String>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `"key": value`.
    pub fn field(mut self, key: &str, value: impl Json) -> Self {
        let sep = self.sep.take();
        let sep = if self.text.is_empty() {
            "{ "
        } else {
            sep.as_deref().unwrap_or(", ")
        };
        self.text.push_str(sep);
        self.text.push_str(&entry(key, value));
        self
    }

    /// Start the next field on a new line, `indent` spaces in.
    pub fn br(mut self, indent: usize) -> Self {
        self.sep = Some(format!(",\n{:indent$}", ""));
        self
    }
}

impl Json for Obj {
    fn write_json(&self, out: &mut String) {
        if self.text.is_empty() {
            out.push_str("{}");
        } else {
            out.push_str(&self.text);
            out.push_str(" }");
        }
    }
}

/// `obj! { "key": value, ... }`: an [`Obj`](crate::campaign::Obj) with
/// those fields, in order.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::campaign::Obj::new()$(.field($key, $value))*
    };
}

/// A multi-line array or object: one item per line, `indent` spaces in, the
/// closing bracket two spaces less.
pub struct Lines {
    close: char,
    indent: usize,
    items: Vec<String>,
}

impl Lines {
    /// An array with one row per line.
    pub fn rows<T: Json>(indent: usize, rows: impl IntoIterator<Item = T>) -> Self {
        let items = rows.into_iter().map(|r| to_json(&r)).collect();
        Lines {
            close: ']',
            indent,
            items,
        }
    }

    /// An object with one `"key": value` entry per line.
    pub fn entries<K: AsRef<str>, V: Json>(
        indent: usize,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        let items = entries
            .into_iter()
            .map(|(k, v)| entry(k.as_ref(), v))
            .collect();
        Lines {
            close: '}',
            indent,
            items,
        }
    }
}

impl Json for Lines {
    fn write_json(&self, out: &mut String) {
        out.push_str(if self.close == ']' { "[\n" } else { "{\n" });
        for (i, item) in self.items.iter().enumerate() {
            let comma = if i + 1 == self.items.len() { "" } else { "," };
            let _ = writeln!(out, "{:w$}{item}{comma}", "", w = self.indent);
        }
        let _ = write!(out, "{:w$}{}", "", self.close, w = self.indent - 2);
    }
}

/// The JSON text of `v`.
pub fn to_json<T: Json + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// `"key": value`.
fn entry(key: &str, value: impl Json) -> String {
    format!("{}: {}", to_json(key), to_json(&value))
}

/// `rustc -V` of the toolchain on `PATH`, or `"unknown"` if it cannot be run.
fn rustc_version() -> String {
    let out = std::process::Command::new("rustc").arg("-V").output().ok();
    out.filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// The build profile this binary was compiled with.
fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// A `BENCH_*.json` report: the common header, then top-level fields in
/// insertion order, one per line.
pub struct Report {
    note: String,
    fields: Vec<String>,
}

impl Report {
    /// A report whose header carries `note`.
    pub fn new(note: &str) -> Self {
        Report {
            note: note.into(),
            fields: Vec::new(),
        }
    }

    /// Append a top-level field.
    pub fn field(mut self, key: &str, value: impl Json) -> Self {
        self.fields.push(entry(key, value));
        self
    }

    /// Append a top-level array with one row per line.
    pub fn rows<T: Json>(self, key: &str, rows: impl IntoIterator<Item = T>) -> Self {
        self.field(key, Lines::rows(4, rows))
    }

    /// The report text, header first: `note`, `host_cpus`, `rustc`,
    /// `profile`, `wall_s`.
    pub fn render(&self, wall_s: f64) -> String {
        let mut items = vec![
            entry("note", &self.note),
            entry("host_cpus", affinity::effective_parallelism()),
            entry("rustc", rustc_version()),
            entry("profile", profile()),
            entry("wall_s", Fixed(wall_s, 3)),
        ];
        items.extend(self.fields.iter().cloned());
        to_json(&Lines {
            close: '}',
            indent: 2,
            items,
        }) + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reproduces_a_fault_campaign_row() {
        let row = obj! {
            "loss": Fixed(0.0, 2), "crashes": 0u32, "seed": 64016u64, "completed": true,
            "delivered": 50u32, "elapsed_ns": 24475800u64, "goodput_kbps": Fixed(523.0, 1),
            "retransmits": 0u64, "dups_suppressed": 0u64, "corrupted_rx": 0u64,
            "peer_down_events": 0u64, "node_crashes": 0u64, "node_restarts": 0u64,
            "recovery_latency_ns": None::<u64>, "leaked_waiters": 0usize,
        };
        assert_eq!(
            to_json(&row),
            r#"{ "loss": 0.00, "crashes": 0, "seed": 64016, "completed": true, "delivered": 50, "elapsed_ns": 24475800, "goodput_kbps": 523.0, "retransmits": 0, "dups_suppressed": 0, "corrupted_rx": 0, "peer_down_events": 0, "node_crashes": 0, "node_restarts": 0, "recovery_latency_ns": null, "leaked_waiters": 0 }"#
        );
    }

    #[test]
    fn writer_reproduces_a_gray_campaign_row() {
        let row = obj! {
            "cell": "delay-moderate-sym", "seed": 27041u64, "messages_per_stream": 24u32,
            "end_ns": 109416337u64, "delivered": 96u32, "trace_identical_workers_1_4": true,
            "violations": Vec::<&str>::new(), "retransmits": 0u64, "retx_bound": 8i64,
            "peer_down_events": 0u64, "partitions": 0u64, "heals": 0u64, "probes_sent": 0u64,
            "rtt_samples": 96u64, "flaps": 0u64, "downs": 0u64, "lat_min_ns": 500u64,
            "lat_mean_ns": 9785u64, "lat_max_ns": 21998u64, "lat_count": 956u64,
        };
        assert_eq!(
            to_json(&row),
            r#"{ "cell": "delay-moderate-sym", "seed": 27041, "messages_per_stream": 24, "end_ns": 109416337, "delivered": 96, "trace_identical_workers_1_4": true, "violations": [], "retransmits": 0, "retx_bound": 8, "peer_down_events": 0, "partitions": 0, "heals": 0, "probes_sent": 0, "rtt_samples": 96, "flaps": 0, "downs": 0, "lat_min_ns": 500, "lat_mean_ns": 9785, "lat_max_ns": 21998, "lat_count": 956 }"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_json("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(to_json("\t"), r#""\u0009""#);
    }

    #[test]
    fn report_layout_has_header_and_one_row_per_line() {
        let text = Report::new("n")
            .field("workload", obj! { "messages": 2u32 })
            .rows(
                "cells",
                [obj! { "a": 1u32 }.br(6).field("b", &[1u32, 2][..]), obj! {}],
            )
            .rows("empty", Vec::<Obj>::new())
            .render(1.5);
        let cpus = affinity::effective_parallelism();
        let rustc = to_json(&rustc_version());
        assert!(
            rustc.starts_with("\"rustc ") || rustc == "\"unknown\"",
            "{rustc}"
        );
        let profile = profile();
        let expected = format!(
            "{{\n  \"note\": \"n\",\n  \"host_cpus\": {cpus},\n  \"rustc\": {rustc},\n  \
             \"profile\": \"{profile}\",\n  \"wall_s\": 1.500,\n  \
             \"workload\": {{ \"messages\": 2 }},\n  \"cells\": [\n    {{ \"a\": 1,\n      \
             \"b\": [1, 2] }},\n    {{}}\n  ],\n  \"empty\": [\n  ]\n}}\n"
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn across_workers_reports_a_single_key_field_mismatch() {
        fn key(r: &(Trace<TraceEvent>, u64, u64)) -> (&Trace<TraceEvent>, (u64, u64)) {
            (&r.0, (r.1, r.2))
        }
        let same = across_workers(&[1, 4], |_| (Trace::new(), 7, 9), key);
        assert!(same.identical());
        let one_field = across_workers(&[1, 4, 8], |w| (Trace::new(), 7, 9 + w as u64 / 8), key);
        let expect = "key fields diverged at 1 vs 8 workers";
        assert_eq!(one_field.mismatch.as_deref(), Some(expect));
        let trace = across_workers(
            &[1, 4],
            |w| {
                let mut t = Trace::new();
                t.record(
                    desim::SimTime::from_ns(w as u64),
                    TraceEvent::Fault { node: 0, up: true },
                );
                (t, 7, 9)
            },
            key,
        );
        let expect = "traces diverged at 1 vs 4 workers";
        assert_eq!(trace.mismatch.as_deref(), Some(expect));
    }

    #[test]
    fn watchdog_returns_the_value_and_waits_for_its_deadline() {
        let v = Watchdog::new("test", 1).run(|| {
            std::thread::sleep(Duration::from_millis(300));
            42
        });
        assert_eq!(v, 42);
        // Past the deadline: a watchdog that had not been disarmed would
        // have aborted the test binary by now.
        std::thread::sleep(Duration::from_millis(1200));
    }

    #[test]
    fn link_totals_keep_latency_extremes_over_sampled_links() {
        let (mut acc, quiet) = (
            LinkStats::default(),
            LinkStats {
                flaps: 1,
                ..Default::default()
            },
        );
        let a = LinkStats {
            lat_min_ns: 40,
            lat_max_ns: 90,
            lat_sum_ns: 130,
            lat_count: 2,
            ..quiet
        };
        let b = LinkStats {
            lat_min_ns: 10,
            lat_max_ns: 10,
            lat_sum_ns: 10,
            lat_count: 1,
            ..quiet
        };
        for s in [quiet, a, b] {
            add_link(&mut acc, &s);
        }
        let summary = (
            acc.flaps,
            acc.lat_min_ns,
            acc.lat_max_ns,
            acc.lat_count,
            acc.lat_mean_ns(),
        );
        assert_eq!(summary, (3, 10, 90, 3, 46));
    }
}
