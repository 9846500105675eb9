//! Host-speed probes: fixed kernels of the benchmark's own, run next to
//! the work they normalise.
//!
//! The host this benchmark was tuned on (a 2-vCPU KVM guest) has phases in
//! which every job runs up to 1.5× slower, and design generation up to 2×
//! slower, while steal time stays near zero: other tenants load the
//! shared machine. A compute-only loop barely sees those phases. Two
//! probes do:
//!
//! - [`Probe`], a stream through a buffer far larger than the per-core L2,
//!   tracks job time in part. It runs between jobs.
//! - [`alloc_probe_ms`], a small allocator-bound graph build, tracks
//!   design generation closely. It runs between set-ups.
//!
//! The probes are the benchmark's code, not the program's, and the stream
//! buffer is allocated before set-up, so no change to the program moves
//! them.

use std::hint::black_box;
use std::time::Instant;

use crate::measure::status_bytes;

/// Bytes the probe streams over (64 MiB of `f32`).
pub const PROBE_BYTES: usize = 64 << 20;
/// Timed read-modify-write passes per probe; the probe reports their
/// median (≈8 ms each on the benchmark host).
pub const PROBE_PASSES: usize = 3;

/// A reusable probe buffer.
#[derive(Debug)]
pub struct Probe {
    buf: Vec<f32>,
    passes: usize,
    /// How much the buffer added to the process's resident set (bytes);
    /// `None` where that cannot be read.
    pub resident_bytes: Option<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new(PROBE_BYTES, PROBE_PASSES)
    }
}

impl Probe {
    /// A probe streaming over `bytes` bytes, `passes` timed passes per run.
    pub fn new(bytes: usize, passes: usize) -> Self {
        let n = (bytes / std::mem::size_of::<f32>()).max(1);
        let before = status_bytes("VmRSS");
        let buf = (0..n).map(|i| (i % 1024) as f32 * 1e-3).collect();
        let resident_bytes = status_bytes("VmRSS")
            .zip(before)
            .map(|(after, before)| after.saturating_sub(before));
        Self {
            buf,
            passes: passes.max(1),
            resident_bytes,
        }
    }

    /// Run the probe once; returns the median pass time in milliseconds.
    pub fn run(&mut self) -> f64 {
        let times: Vec<f64> = (0..self.passes)
            .map(|pass| {
                let t0 = Instant::now();
                let a = black_box(0.999_f32);
                let b = black_box(pass as f32 * 1e-6);
                for v in &mut self.buf {
                    *v = *v * a + b;
                }
                black_box(&mut self.buf);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        crate::stats::median(&times).unwrap_or(0.0)
    }
}

/// Nodes in the allocation probe's random graph.
const ALLOC_NODES: usize = 6000;

/// Run the allocation probe once; returns its wall time in milliseconds
/// (≈1.5–2.5 ms on the benchmark host).
///
/// It builds a random graph of [`ALLOC_NODES`] nodes as one small vector
/// per node, sorts and dedups every adjacency list, then formats and sorts
/// one label per node. That is the allocator-bound, cache-resident kind of
/// work design generation does. Interleaved with generation on the
/// benchmark host, the log times of the two correlated at 0.89–0.95; the
/// memory stream reached 0.36–0.78 and an ALU loop 0.5.
pub fn alloc_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut state = black_box(0x2545_f491_4f6c_dd1d_u64);
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut adjacency: Vec<Vec<u32>> = (0..ALLOC_NODES).map(|_| Vec::new()).collect();
    for _ in 0..4 * ALLOC_NODES {
        let (from, to) = (next(ALLOC_NODES), next(ALLOC_NODES));
        adjacency[from].push(to as u32);
    }
    for list in &mut adjacency {
        list.sort_unstable();
        list.dedup();
    }
    let mut labels: Vec<String> = (0..ALLOC_NODES)
        .map(|i| format!("n{i}_{}", next(1000)))
        .collect();
    labels.sort();
    black_box((adjacency, labels));
    t0.elapsed().as_secs_f64() * 1e3
}
