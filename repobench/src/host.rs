//! Counters the operating system keeps about this process and the machine:
//! CPU time, peak resident memory, steal time, and the provenance every
//! result carries.

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuMask = [u64; 16];

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const PR_SET_TIMERSLACK: i32 = 29;
const SCHED_IDLE: i32 = 5;

/// CPU time of the whole process (every thread, including exited ones) in
/// nanoseconds.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) and the clock id is a constant the
    // kernel defines; the call writes only through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread in nanoseconds, from the first field of
/// `/proc/thread-self/schedstat`.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Asks the kernel to wake the calling thread's sleeps as close to their
/// deadline as it can (the default slack is 50 µs), so the load
/// generator sends on schedule.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches only the
    // calling thread's timer slack; no pointers are passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Threads that keep every CPU of the machine from going idle for as long
/// as they live.
///
/// On a virtual machine a halted vCPU can take milliseconds to be
/// rescheduled by the host when a timer or a socket wakes it, and that
/// wake-up delay, not the program, then sets every sub-millisecond
/// latency the benchmark measures (the same reason KVM guests offer
/// `haltpoll`). The keepers run under `SCHED_IDLE`, so any other runnable
/// thread preempts them at once; they only fill time the CPU would have
/// spent halted. Their CPU time is excluded from the process's with
/// [`Self::cpu_ns`].
pub struct IdleKeepers {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    schedstat: Vec<String>,
}

impl IdleKeepers {
    /// Starts one keeper on each CPU the calling thread may run on.
    #[must_use]
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let handles = affinity()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    set_affinity(&[cpu]);
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 names the calling thread, SCHED_IDLE
                    // takes priority 0, and `param` outlives the call.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    let tid = std::fs::read_link("/proc/thread-self")
                        .ok()
                        .and_then(|p| p.file_name().map(|f| f.to_string_lossy().into_owned()));
                    let _ = tx.send(tid.filter(|_| idle));
                    drop(tx);
                    // A keeper that could not drop to SCHED_IDLE would
                    // compete with the workload; it stops instead.
                    if !idle {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect::<Vec<_>>();
        drop(tx);
        let schedstat = rx
            .iter()
            .flatten()
            .map(|tid| format!("/proc/self/task/{tid}/schedstat"))
            .collect();
        Self {
            stop,
            handles,
            schedstat,
        }
    }

    /// CPU time the keepers have used so far, in nanoseconds.
    #[must_use]
    pub fn cpu_ns(&self) -> u64 {
        self.schedstat
            .iter()
            .filter_map(|path| {
                std::fs::read_to_string(path)
                    .ok()?
                    .split_whitespace()
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .sum()
    }
}

impl Drop for IdleKeepers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// CPU time of the process minus what the idle keepers used.
#[must_use]
pub fn work_cpu_ns(keepers: &IdleKeepers) -> u64 {
    process_cpu_ns().saturating_sub(keepers.cpu_ns())
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters now.
    #[must_use]
    pub fn read() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of all CPU ticks between `earlier` and `self` that the
    /// hypervisor stole.
    #[must_use]
    pub fn steal_frac_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Logical CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPUs the calling thread may run on, ascending.
#[must_use]
pub fn affinity() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: pid 0 names the calling thread and `mask` is a writable
    // buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return (0..nproc()).collect();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 names the calling thread and `mask` is a readable
    // buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Where a serving workload's threads run: the load generator on one CPU
/// of its own, the server on the others, as if client and server were
/// separate machines.
///
/// Left to the scheduler, the server's event loop and workers and the
/// generator's threads share the CPUs in whatever arrangement the wake-ups
/// of the moment favour, and an arrangement can hold for most of a run:
/// runs of one seed then differ by up to a fifth in median latency, and
/// some meet chains of multi-millisecond delays. The README's host notes
/// give the measurements.
#[derive(Clone, Debug)]
pub struct Placement {
    /// CPUs the server's threads may run on.
    pub server: Vec<usize>,
    /// The CPU the generator's threads run on.
    pub client: usize,
}

impl Placement {
    /// The last CPU the calling thread may use for the generator, the
    /// rest for the server; `None` with fewer than two CPUs.
    #[must_use]
    pub fn split() -> Option<Self> {
        let mut cpus = affinity();
        let client = cpus.pop()?;
        (!cpus.is_empty()).then_some(Self {
            server: cpus,
            client,
        })
    }

    /// Runs `start` restricted to the server's CPUs, so the threads it
    /// starts (the server's) stay there, and gives the calling thread its
    /// own CPUs back afterwards.
    pub fn on_server<T>(&self, start: impl FnOnce() -> T) -> T {
        let own = affinity();
        set_affinity(&self.server);
        let started = start();
        set_affinity(&own);
        started
    }
}

/// Where and on what a result was measured.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Full `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Whether tracked files differ from `HEAD` (`None` outside git).
    pub dirty: Option<bool>,
    /// Logical CPUs available.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The scan kernel the library dispatches to.
    pub kernel: String,
}

impl Provenance {
    /// Collects provenance for a run started in the current directory.
    /// Git is asked only when the directory is itself a checkout, so no
    /// parent directory is searched.
    #[must_use]
    pub fn collect() -> Self {
        let (git_rev, dirty) = if Path::new(".git").exists() {
            let git = |args: &[&str]| {
                Command::new("git")
                    .args(args)
                    .output()
                    .ok()
                    .filter(|out| out.status.success())
                    .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
            };
            (
                git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()),
            )
        } else {
            ("unknown".into(), None)
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            git_rev,
            dirty,
            nproc: nproc(),
            cpu_model,
            kernel: bolt_core::Kernel::selected().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_plausible_values() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(thread_cpu_ns() > 0);
        assert!(peak_rss_mib() > 0.0);
        let ticks = CpuTicks::read();
        assert!(ticks.total > 0);
        let frac = CpuTicks::read().steal_frac_since(&ticks);
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn placement_gives_the_generator_a_cpu_of_its_own() {
        let own = affinity();
        assert_eq!(own.len(), nproc());
        let Some(p) = Placement::split() else {
            assert!(own.len() < 2);
            return;
        };
        assert!(!p.server.contains(&p.client));
        assert_eq!(p.server.len() + 1, own.len());
        let seen = p.on_server(|| std::thread::spawn(affinity).join().unwrap());
        assert_eq!(seen, p.server);
        assert_eq!(affinity(), own, "the caller's own CPUs come back");
    }

    #[test]
    fn idle_keepers_account_their_own_cpu() {
        let keepers = IdleKeepers::start();
        assert_eq!(keepers.schedstat.len(), affinity().len());
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        assert!(keepers.cpu_ns() > 0);
        assert!(work_cpu_ns(&keepers) <= process_cpu_ns());
        drop(keepers);
    }
}
