//! Cheap monotonic nanosecond clock for stage timing.
//!
//! `Instant::now()` costs a `clock_gettime` call per read (~50 ns in a
//! container without a fast vDSO path) — with four reads per request
//! that alone would blow the documented ≤3% instrumentation budget. On
//! x86_64 with an invariant TSC this module reads the time-stamp
//! counter instead (a few ns) and converts ticks to nanoseconds with a
//! scale calibrated once against the OS clock. Everywhere else — or
//! when CPUID does not advertise an invariant TSC — it falls back to
//! `Instant` transparently.
//!
//! The epoch is arbitrary (process start-ish); only differences of
//! [`now_ns`] readings are meaningful, which is all [`Stopwatch`]
//! needs. Readings are monotone per core and, with an invariant TSC,
//! synchronized across cores by the hardware; cross-core skew on
//! non-conforming parts is absorbed by the callers' saturating
//! subtraction (a migration mid-stage reads as 0 ns, never as garbage).
//!
//! [`Stopwatch`]: crate::Stopwatch

use std::sync::OnceLock;
use std::time::Instant;

enum Source {
    /// rdtsc with a calibrated ticks→ns scale, relative to `base` ticks.
    #[cfg(target_arch = "x86_64")]
    Tsc { base: u64, ns_per_tick: f64 },
    /// Portable fallback: the OS monotonic clock.
    Fallback { base: Instant },
}

static SOURCE: OnceLock<Source> = OnceLock::new();

/// Monotonic nanoseconds since an arbitrary process-local epoch.
#[inline]
pub fn now_ns() -> u64 {
    match SOURCE.get_or_init(calibrate) {
        #[cfg(target_arch = "x86_64")]
        Source::Tsc { base, ns_per_tick } => {
            let ticks = rdtsc().saturating_sub(*base);
            (ticks as f64 * ns_per_tick) as u64
        }
        Source::Fallback { base } => {
            let d = base.elapsed();
            d.as_secs()
                .saturating_mul(1_000_000_000)
                .saturating_add(u64::from(d.subsec_nanos()))
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC exists on every x86_64 CPU; the only question (answered by CPUID at
    // calibration) is whether the counter ticks at a constant rate.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(target_arch = "x86_64")]
fn tsc_is_invariant() -> bool {
    // CPUID.80000007H:EDX[8] — "Invariant TSC": constant rate across
    // P-/C-state transitions, the precondition for tick→ns conversion.
    let max_ext = core::arch::x86_64::__cpuid(0x8000_0000).eax;
    max_ext >= 0x8000_0007 && core::arch::x86_64::__cpuid(0x8000_0007).edx & (1 << 8) != 0
}

/// One-time: decide the source and, for TSC, measure ticks-per-ns over
/// a short OS-clock window. Runs once per process (first stopwatch).
fn calibrate() -> Source {
    #[cfg(target_arch = "x86_64")]
    if tsc_is_invariant() {
        let t0 = Instant::now();
        let c0 = rdtsc();
        // A couple of milliseconds bounds the scale error by the OS
        // clock's jitter (~100 ns) over the window: < 0.01%.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let c1 = rdtsc();
        let elapsed = t0.elapsed().as_nanos() as f64;
        if c1 > c0 && elapsed > 0.0 {
            return Source::Tsc {
                base: c0,
                ns_per_tick: elapsed / (c1 - c0) as f64,
            };
        }
    }
    Source::Fallback {
        base: Instant::now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotone() {
        let mut prev = now_ns();
        for _ in 0..10_000 {
            let cur = now_ns();
            assert!(cur >= prev, "clock went backwards: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn now_ns_tracks_the_os_clock() {
        // The first call calibrates (a 2 ms sleep); keep that out of the
        // window the two clocks are compared over.
        now_ns();
        let t = Instant::now();
        let a = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let measured = (now_ns() - a) as f64;
        let os = t.elapsed().as_nanos() as f64;
        // 5% agreement over 20 ms is far looser than calibration error;
        // this catches a badly-scaled TSC outright.
        let ratio = measured / os;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "fast clock disagrees with OS clock: ratio {ratio}"
        );
    }
}
