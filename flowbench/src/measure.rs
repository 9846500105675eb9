//! The timed parts of a run: set-ups with the allocation probe between
//! them, then jobs alternating between 1 and 2 threads with the memory
//! probe between them, every output checked against the first.

use std::time::Instant;

use crate::job::{self, run_job, Setup, Signature};
use crate::probe::{alloc_probe_ms, Probe};
use crate::stats::median;
use crate::workload::Workload;
use crate::BenchError;

/// The benchmark host's core count: the traced job runs with this many
/// threads.
pub const HOST_THREADS: usize = 2;

/// Thread counts every run measures: 1 and the host's core count.
pub const THREADS: [usize; 2] = [1, HOST_THREADS];

/// Set-ups before the first job; `setup_s` is their normalised median.
pub const SETUP_REPS: usize = 51;

/// Allocation-probe time (ms) that normalised set-up times are scaled to:
/// a typical reading on the benchmark host.
pub const ALLOC_REF_MS: f64 = 2.0;

/// Probe time (ms) that normalised job times are scaled to: about the
/// memory probe's median on the benchmark host, so normalised times read
/// as seconds on that host in a typical phase.
pub const PROBE_REF_MS: f64 = 8.5;

/// The set-ups before the first job.
#[derive(Debug)]
pub struct SetUps {
    /// The last set-up, which the jobs use.
    pub setup: Setup,
    /// Wall time of every set-up (s).
    pub secs: Vec<f64>,
    /// Every set-up's wall time × [`ALLOC_REF_MS`] / the mean of the
    /// allocation probes just before and just after it (s).
    pub normalised: Vec<f64>,
    /// Every allocation-probe reading, in run order (ms).
    pub alloc_probes: Vec<f64>,
}

/// Set the workload up [`SETUP_REPS`] times, with the allocation probe
/// before the first set-up and after each one.
///
/// # Errors
/// Generator errors.
pub fn set_up(w: &Workload, seed: u64) -> Result<SetUps, BenchError> {
    let mut before = alloc_probe_ms();
    let mut alloc_probes = vec![before];
    let (mut secs, mut normalised) = (Vec::new(), Vec::new());
    loop {
        let setup = job::setup(w, seed)?;
        let after = alloc_probe_ms();
        alloc_probes.push(after);
        secs.push(setup.secs);
        normalised.push(setup.secs * ALLOC_REF_MS / ((before + after) / 2.0));
        before = after;
        if secs.len() >= SETUP_REPS {
            return Ok(SetUps {
                setup,
                secs,
                normalised,
                alloc_probes,
            });
        }
    }
}

/// Jobs each thread count gets at least, however long they take.
pub const MIN_JOBS_PER_THREADS: usize = 2;

/// One timed job.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// Worker threads the job ran with.
    pub threads: usize,
    /// Wall time (s).
    pub secs: f64,
    /// Time the host took from the guest's CPUs during the job (s).
    pub stolen_s: f64,
    /// Mean of the memory probes taken just before and just after the job
    /// (ms).
    pub probe_ms: f64,
    /// The process's peak resident set during the job, less the memory
    /// probe's buffer (bytes); `None` where it cannot be read.
    pub peak_rss_bytes: Option<u64>,
}

impl JobSample {
    /// The job's wall time less the stolen time, × [`PROBE_REF_MS`] / the
    /// memory probe around it (s).
    pub fn normalised_secs(&self) -> f64 {
        (self.secs - self.stolen_s) * PROBE_REF_MS / self.probe_ms
    }
}

/// Everything the timed loop saw.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Successful jobs, in run order.
    pub samples: Vec<JobSample>,
    /// Every probe reading, in run order (ms).
    pub probes: Vec<f64>,
    /// Jobs started.
    pub attempted: u64,
    /// Jobs that returned an error, degraded, or failed the output check.
    pub failed: u64,
    /// One line per failed job.
    pub failures: Vec<String>,
    /// The signature every job is checked against (the first job's).
    pub reference: Option<Signature>,
    /// Thread count of every job started, in run order.
    pub attempt_threads: Vec<usize>,
}

impl Measurement {
    /// Wall times (s) of the successful jobs at `threads`.
    pub fn secs(&self, threads: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.threads == threads)
            .map(|s| s.secs)
            .collect()
    }

    /// Median raw wall time (s) at `threads`.
    pub fn median_secs(&self, threads: usize) -> Option<f64> {
        median(&self.secs(threads))
    }

    /// Jobs started at `threads`.
    pub fn attempted_at(&self, threads: usize) -> usize {
        self.attempt_threads
            .iter()
            .filter(|&&t| t == threads)
            .count()
    }

    /// Median job time at `threads` corrected for the host: each job's
    /// wall time less the time stolen from the guest's CPUs during it,
    /// × [`PROBE_REF_MS`] / the memory probe around it (s).
    pub fn median_normalised_secs(&self, threads: usize) -> Option<f64> {
        let norm: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.threads == threads)
            .map(JobSample::normalised_secs)
            .collect();
        median(&norm)
    }

    /// Median of the probe readings (ms).
    pub fn probe_ms(&self) -> Option<f64> {
        median(&self.probes)
    }

    /// The larger, over the thread counts, of the median per-job peak
    /// resident set (bytes).
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        THREADS
            .iter()
            .filter_map(|&threads| {
                let peaks: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.threads == threads)
                    .filter_map(|s| s.peak_rss_bytes)
                    .map(|b| b as f64)
                    .collect();
                median(&peaks)
            })
            .max_by(f64::total_cmp)
            .map(|b| b as u64)
    }

    /// Record a job's result at `threads`: a good signature must match
    /// the reference (the first good one becomes it).
    pub fn record(&mut self, result: Result<(JobSample, Signature), String>, threads: usize) {
        self.attempted += 1;
        self.attempt_threads.push(threads);
        let checked = result.and_then(|(sample, sig)| match &self.reference {
            Some(reference) => sig
                .check_against(reference)
                .map(|()| sample)
                .map_err(|e| e.to_string()),
            None => {
                self.reference = Some(sig);
                Ok(sample)
            }
        });
        match checked {
            Ok(sample) => self.samples.push(sample),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!(
                    "job {} at {threads} thread(s): {e}",
                    self.attempted
                ));
            }
        }
    }
}

/// Run jobs for about `seconds`, alternating the thread counts (and which
/// of them goes first in each cycle), with `probe` before the first job
/// and after every job. Every thread count gets at least
/// [`MIN_JOBS_PER_THREADS`] jobs; past that, a job starts only if it is
/// expected to end less than half a job after the deadline. Every output
/// must match the first job's. The process's peak resident set is reset
/// before every job, so that each job's own peak is read after it.
pub fn measure(w: &Workload, s: &Setup, seconds: f64, probe: &mut Probe) -> Measurement {
    let mut m = Measurement::default();
    let t0 = Instant::now();
    let mut before = probe.run();
    m.probes.push(before);
    let mut cycle = 0usize;
    loop {
        let order = if cycle.is_multiple_of(2) {
            THREADS
        } else {
            [THREADS[1], THREADS[0]]
        };
        cycle += 1;
        for threads in order {
            let enough = THREADS
                .iter()
                .all(|&t| m.attempted_at(t) >= MIN_JOBS_PER_THREADS);
            let expected = m.median_secs(threads).unwrap_or(0.0);
            if enough && t0.elapsed().as_secs_f64() + expected / 2.0 >= seconds {
                return m;
            }
            dco_parallel::set_threads(threads);
            reset_peak_rss();
            let stolen_before = stolen_secs();
            let result = run_job(w, s).map_err(|e| e.to_string());
            let stolen_s = stolen_secs().zip(stolen_before).map_or(0.0, |(a, b)| a - b);
            let peak_rss_bytes = status_bytes("VmHWM")
                .zip(probe.resident_bytes)
                .map(|(peak, buffer)| peak.saturating_sub(buffer));
            let after = probe.run();
            m.probes.push(after);
            let probe_ms = (before + after) / 2.0;
            let result = result.map(|(secs, sig)| {
                let sample = JobSample {
                    threads,
                    secs,
                    stolen_s,
                    probe_ms,
                    peak_rss_bytes,
                };
                (sample, sig)
            });
            m.record(result, threads);
            before = after;
        }
    }
}

/// `/proc/stat` counts CPU time in ticks of 1/100 s on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// Time the host has taken from the guest's CPUs since boot, summed over
/// all CPUs (the `steal` column of `/proc/stat`) (s); `None` where there
/// is no such file. On a virtual machine whose host is oversubscribed, a
/// job's wall time includes stretches in which its vCPUs did not run;
/// with 2 threads, a stolen vCPU also stalls the other one at the next
/// join.
pub fn stolen_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / TICKS_PER_SEC)
}

/// Reset the process's peak resident set (`VmHWM`) to its current size.
/// Where the kernel does not allow it, `VmHWM` stays the peak since the
/// process started.
pub fn reset_peak_rss() {
    // Best effort: a failed reset only makes the per-job peaks running peaks.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A `/proc/self/status` size field (`VmRSS`, `VmHWM`) in bytes; `None`
/// where there is no such file.
pub fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kib: u64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kib * 1024)
}
