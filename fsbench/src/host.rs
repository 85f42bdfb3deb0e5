//! The machine under the benchmark: timer-jitter probe, resident memory,
//! run metadata, and scratch directories that live inside the working
//! directory and vanish when the run ends.

use crate::obj;
use serde_json::Value;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where every run keeps its WAL and tier segments while it runs.
pub const SCRATCH_ROOT: &str = ".bench_tmp";

/// A fresh directory under [`SCRATCH_ROOT`], removed on drop (and the
/// root with it once the last one is gone).
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Fails while another run's directory is still there; that is fine.
        std::fs::remove_dir(SCRATCH_ROOT).ok();
    }
}

/// Sleep in 250 µs ticks for `span` and return the share of ticks that
/// woke more than 2 ms late. Run before the measured phases: a host that
/// stalls its timers makes open-loop tails meaningless, and this number
/// says so without blaming the store.
pub fn stall_fraction(span: Duration) -> f64 {
    let tick = Duration::from_micros(250);
    let begin = Instant::now();
    let mut ticks = 0u64;
    let mut stalls = 0u64;
    while begin.elapsed() < span {
        let asked = Instant::now();
        std::thread::sleep(tick);
        if asked.elapsed() > tick + Duration::from_millis(2) {
            stalls += 1;
        }
        ticks += 1;
    }
    stalls as f64 / ticks.max(1) as f64
}

/// CPU accounting at one instant, in seconds: this process's CPU time,
/// and the machine's busy (user, nice, system, irq, softirq), stolen and
/// total time from `/proc/stat`.
#[derive(Clone, Copy)]
pub struct Usage {
    pub process: f64,
    pub busy: f64,
    pub steal: f64,
    pub total: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| ticks.get(i).copied().unwrap_or(0) as f64 / TICKS_PER_SECOND;
        Usage {
            process: process_cpu_seconds(),
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
            total: (0..8).map(at).sum(),
        }
    }

    /// What accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            process: self.process - earlier.process,
            busy: self.busy - earlier.busy,
            steal: self.steal - earlier.steal,
            total: self.total - earlier.total,
        }
    }

    pub fn steal_frac(&self) -> f64 {
        self.steal / self.total.max(f64::MIN_POSITIVE)
    }

    pub fn describe(&self) -> Value {
        obj([
            ("process_cpu_s", Value::from(self.process)),
            ("host_busy_s", Value::from(self.busy)),
            ("host_steal_s", Value::from(self.steal)),
            ("host_total_s", Value::from(self.total)),
        ])
    }
}

/// Clock ticks per second in `/proc` (`USER_HZ`, fixed by the Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time this process has run, every thread counted, exited ones
/// too, in seconds.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has run, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    }
    let mut ts = [0i64; 2];
    // SAFETY: `ts` has the layout of a 64-bit Linux `struct timespec`.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// This process's resident set in MiB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the working directory holds, read from `.git` without
/// running git (a plain source checkout has none: `"unknown"`).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/mounts`), so an fsync-bound number names what it was measured on.
pub fn fs_type(path: &Path) -> String {
    let Ok(full) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_, point, kind) = (parts.next()?, parts.next()?, parts.next()?);
            full.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Bind the calling thread, and so every thread it starts later, to the
/// lowest-numbered CPU it may run on, and return that CPU.
///
/// Threads of one process on different vCPUs hand requests to each other
/// through cross-CPU wake-ups. On a VM each one exits to the hypervisor,
/// the guest is charged the exit as CPU time, and its cost grows with the
/// host's load. On one CPU a hand-off is a plain context switch, so the
/// CPU-time figures count the program's own work.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..size * 8)
        .find(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed piece of work run between measurement windows, whose CPU time
/// says how fast the host runs code like the store's at that moment:
/// dependent loads over a buffer larger than the private caches, and
/// request hand-offs between two threads over a socket (a thread started
/// and joined, kernel entries, copies, wake-ups and context switches). It
/// is the same on every run and every commit, so a ratio to it cancels
/// the host's slow spells.
pub struct Probe {
    chain: Vec<u32>,
}

impl Probe {
    const SLOTS: usize = 1 << 20;
    const LOADS: usize = 8_000;
    const THREADS: usize = 4;
    const ROUND_TRIPS: usize = 25;
    const MESSAGE: usize = 512;

    pub fn new() -> Probe {
        // One cycle through every slot, in an order fixed for all runs.
        let mut order: Vec<u32> = (0..Self::SLOTS as u32).collect();
        for i in (1..order.len()).rev() {
            let j = (crate::data::mix(i as u64) % i as u64) as usize;
            order.swap(i, j);
        }
        let mut chain = vec![0u32; Self::SLOTS];
        for w in 0..order.len() {
            chain[order[w] as usize] = order[(w + 1) % order.len()];
        }
        Probe { chain }
    }

    /// Run the probe once; returns the CPU time it took on both threads,
    /// in µs.
    pub fn run(&mut self) -> std::io::Result<f64> {
        use std::io::{Read, Write};
        let start = thread_cpu_seconds();
        let mut at = 0u32;
        for _ in 0..Self::LOADS {
            at = self.chain[at as usize];
        }
        let mut buf = [at as u8; Self::MESSAGE];
        let mut helpers = 0.0;
        for _ in 0..Self::THREADS {
            let (mut near, mut far) = UnixStream::pair()?;
            let helper = std::thread::spawn(move || -> std::io::Result<f64> {
                let start = thread_cpu_seconds();
                let mut buf = [0u8; Self::MESSAGE];
                for _ in 0..Self::ROUND_TRIPS {
                    far.read_exact(&mut buf)?;
                    far.write_all(&buf)?;
                }
                Ok(thread_cpu_seconds() - start)
            });
            for _ in 0..Self::ROUND_TRIPS {
                near.write_all(&buf)?;
                near.read_exact(&mut buf)?;
            }
            helpers += helper.join().expect("probe thread panicked")?;
        }
        std::hint::black_box(buf);
        Ok((thread_cpu_seconds() - start + helpers) * 1e6)
    }
}

/// This process's minor page faults and voluntary and involuntary context
/// switches so far, every thread counted, exited ones too (`getrusage`).
pub fn rusage_counts() -> [u64; 3] {
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut ru = [0i64; 18];
    // SAFETY: `ru` has the size and layout of a 64-bit Linux `struct rusage`.
    if unsafe { getrusage(0, &mut ru) } != 0 {
        return [0; 3];
    }
    [ru[8] as u64, ru[16] as u64, ru[17] as u64]
}
