//! Clocks, memory readings and order statistics.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall and CPU time of one closure call, in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (w0, c0) = (Instant::now(), process_cpu_ns());
    let out = f();
    let cpu = process_cpu_ns() - c0;
    (out, w0.elapsed().as_nanos() as u64, cpu)
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn rss_peak_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status")
        * 1024
}

/// A fixed integer and memory loop that calls no ccsql code: its time
/// tells host drift apart from a program change. Diagnostic only.
pub fn host_ref_ns() -> u64 {
    let mut buf = vec![0u64; 1 << 16];
    let ((), wall, _) = timed(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4_000_000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (buf.len() - 1);
            buf[slot] = buf[slot].wrapping_add(i as u64);
        }
        std::hint::black_box(&buf);
    });
    wall
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it —
/// the highest percentile the sample count supports.
pub fn tail(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(v.len() >= 11, "a tail needs at least eleven samples");
    v[v.len() - 11]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(median(&xs), 11.0);
        // 21 samples: the 11th has exactly ten above it.
        assert_eq!(tail(&xs), 11.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let more: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&more), 30.0);
    }

    #[test]
    fn clocks_advance() {
        let c0 = process_cpu_ns();
        assert!(host_ref_ns() > 0);
        assert!(process_cpu_ns() > c0);
        assert!(rss_peak_bytes() > 0);
    }
}
