//! CPU layout for the serve phases.
//!
//! The load generator never sleeps (see `loadgen`), so it always occupies
//! one core. Left to the scheduler, the server's event loop and worker
//! would time-share that core with it and wait out whole scheduler
//! slices. During the serve phases the generator therefore owns the last
//! CPU and every thread of the started server is pinned to CPU 0.
//!
//! A virtual CPU that goes idle is halted, and waking it again costs the
//! host milliseconds at the tail: on a 2-vCPU VM a 1 ms `sleep` overshoots
//! by ~3 ms at p99, against ~0.14 ms when the vCPU stays busy. That tail
//! would land in the server's latency whenever a request reaches an idle
//! server. A [`Layout`] therefore also runs one spinner at `SCHED_IDLE`
//! priority on CPU 0: it keeps that vCPU from halting, and the kernel
//! preempts it the moment any server thread becomes runnable, so it takes
//! no time from the server.

use std::os::raw::{c_int, c_ulong};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Room for 1024 CPUs, the size glibc's `cpu_set_t` uses.
const MASK_WORDS: usize = 16;
/// Linux's `SCHED_IDLE` scheduling policy.
const SCHED_IDLE: c_int = 5;

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

fn os_result(what: &str, rc: c_int) -> Result<(), String> {
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("{what}: {}", std::io::Error::last_os_error()))
    }
}

/// Pins thread `tid` (0 = the calling thread) to `cpus`.
fn pin(tid: c_int, cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    let bits = c_ulong::BITS as usize;
    for &cpu in cpus {
        if cpu >= MASK_WORDS * bits {
            return Err(format!("cpu {cpu} is beyond the affinity mask"));
        }
        mask[cpu / bits] |= 1 << (cpu % bits);
    }
    // SAFETY: `mask` is a live, initialised array of exactly
    // `size_of_val(&mask)` bytes, which is the size passed; the kernel
    // only reads it. `tid` is a plain integer.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    os_result(&format!("sched_setaffinity({tid})"), rc)
}

/// Moves the calling thread to `SCHED_IDLE`. Lowering one's own priority
/// needs no privilege.
fn make_idle() -> Result<(), String> {
    // `struct sched_param` is one `int`, which must be 0 for SCHED_IDLE.
    let param: c_int = 0;
    // SAFETY: `param` is a live `c_int` laid out as `struct
    // sched_param`; the kernel only reads it.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    os_result("sched_setscheduler(SCHED_IDLE)", rc)
}

/// CPUs available to this process, as first seen (pinning the calling
/// thread narrows what `available_parallelism` reports afterwards).
pub fn cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The serve-phase layout: every thread of the server on CPU 0 with the
/// idle spinner, the calling thread on the last CPU. Dropping it stops
/// and joins the spinner and lets the calling thread run anywhere again
/// (the server is not unpinned: it is killed first). On a single-CPU
/// machine it does nothing.
pub struct Layout {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<Result<(), String>>>,
}

impl Layout {
    pub fn enter(server_pid: u32) -> Result<Layout, String> {
        let mut layout = Layout {
            stop: Arc::new(AtomicBool::new(false)),
            spinner: None,
        };
        if cpus() < 2 {
            return Ok(layout);
        }
        let tasks = std::fs::read_dir(format!("/proc/{server_pid}/task"))
            .map_err(|e| format!("list threads of {server_pid}: {e}"))?;
        for task in tasks {
            let tid = task
                .map_err(|e| format!("list threads of {server_pid}: {e}"))?
                .file_name()
                .to_string_lossy()
                .parse::<c_int>()
                .map_err(|e| format!("thread id: {e}"))?;
            pin(tid, &[0])?;
        }
        pin(0, &[cpus() - 1])?;
        let stop = Arc::clone(&layout.stop);
        layout.spinner = Some(std::thread::spawn(move || {
            pin(0, &[0])?;
            make_idle()?;
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            Ok(())
        }));
        Ok(layout)
    }

    /// How much slower than reference the server's CPU runs right now (see
    /// `speed`), probed from the calling thread, which then returns to its
    /// own CPU. Only meaningful while the server is idle.
    pub fn server_cpu_slowness(&self) -> Result<f64, String> {
        if self.spinner.is_none() {
            return Ok(crate::speed::slowness());
        }
        pin(0, &[0])?;
        let slowness = crate::speed::slowness();
        pin(0, &[cpus() - 1])?;
        Ok(slowness)
    }

    /// Stops the spinner and reports whether it ran as intended.
    pub fn leave(mut self) -> Result<(), String> {
        self.stop_spinner()
    }

    fn stop_spinner(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        let joined = match self.spinner.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| "spinner thread panicked".to_string())
                .and_then(|r| r),
            None => Ok(()),
        };
        let released = pin(0, &(0..cpus()).collect::<Vec<_>>());
        joined.and(released)
    }
}

impl Drop for Layout {
    fn drop(&mut self) {
        let _ = self.stop_spinner();
    }
}
