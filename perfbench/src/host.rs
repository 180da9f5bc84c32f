//! What the host reports about this process, and the run header recorded
//! with every result.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used by every thread of this process so far.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "process CPU clock unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    s.lines().next().map(|l| l.trim().to_string())
}

/// The run header as a JSON object: host CPUs from the affinity mask, the
/// compiler, the build profile and the source revision (only when the
/// working directory is itself a git checkout).
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool, workers: usize) -> String {
    let rustc = first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let git = if std::path::Path::new(".git").exists() {
        first_line(Command::new("git").args(["rev-parse", "HEAD"]))
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"header\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"workers\":{workers},\"host_cpus\":{},\"rustc\":\"{}\",\"profile\":\"{profile}\",\"git\":\"{}\"}}}}",
        desim::affinity::effective_parallelism(),
        rustc.replace('"', "'"),
        git.replace('"', "'"),
    )
}
