//! The host: core count, peak memory, and a calibration of its speed.
//!
//! The reference host is a virtual machine whose cores are shared with
//! other tenants; its speed drifts by ±10 % over tens of seconds and can
//! jump by 30 % for minutes. End-to-end times are therefore measured
//! beside a fixed calibration kernel, run on the same threads just
//! before and after each timed region, and expressed at the host speed
//! [`NOMINAL_SPEED`]. The kernel is part of the benchmark, not of the
//! program, so no change to the program can move it.

use std::time::Instant;

/// Calibration-kernel rate, in Mops/s per thread, at which end-to-end
/// times are expressed: about what the reference host gives.
pub const NOMINAL_SPEED: f64 = 90.0;

const KERNEL_OPS: u64 = 4_000_000;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Mops/s of one calibration kernel: random read-modify-writes into an
/// L2-sized table with data-dependent branches, the mix of integer
/// work, cache hits and mispredictions the simulator itself runs on.
fn kernel() -> f64 {
    const SLOTS: usize = 1 << 15;
    let mut table = vec![0u64; SLOTS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..KERNEL_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & (SLOTS - 1)];
        *slot = slot.wrapping_add(x);
        match *slot & 7 {
            0..=2 => acc = acc.wrapping_add(*slot >> 3),
            5 => acc ^= i,
            _ => {}
        }
    }
    std::hint::black_box((acc, &table));
    KERNEL_OPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Host speed now: the calibration kernel's mean rate per thread with
/// `threads` copies running at once (on the calling thread when one).
pub fn speed(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::NAN))
            .sum()
    });
    total / threads as f64
}
