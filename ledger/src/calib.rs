//! Machine-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by up
//! to 2x over tens of seconds: other tenants load the host, and the vCPU's
//! clock and cache share follow. That drift is much larger than the
//! changes the ledger must resolve. So every window interleaves a fixed
//! probe, a small CPU workload owned by the benchmark and independent of
//! the code under test, and every op time is scaled by `reference probe
//! time / probe time nearby`: the time the op would have taken on a machine
//! where the probe takes its reference time. The raw wall times are
//! reported beside the scaled ones.
//!
//! The speed also jitters from one millisecond to the next, so each op is
//! scaled by the probes on either side of it. Probes run on a time
//! schedule, between whole ops, not between every two: a probe takes about
//! 1 ms, longer than many ops, and an op right after it would start with
//! the caches and the allocator churned by the probe. In-process windows
//! probe every 20 ms, and right before an op that last took 20 ms or more:
//! on `paper_tables`, bracketing those ops tightly cut the run-to-run
//! spread of `op_p99_ms` from 6.0% to 2.9% over ten interleaved pairs of
//! runs. The serve client probes every 20 ms, between two requests, with
//! nothing in flight.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use xdata_catalog::SplitMix64;

use crate::stats::ratio;

/// Which part of the probe a calibration runs.
#[derive(Clone, Copy)]
pub enum Probe {
    /// All of it, in the in-process windows and around each setup.
    Full,
    /// The integer half only, in the serve client. There the string half
    /// swung 1.6x with host load while request latency moved 10%, and
    /// scaling by it drew serve metrics further apart from run to run than
    /// scaling by the integer half.
    Integer,
}

impl Probe {
    /// Probe time on the reference machine (the 2-vCPU Xeon VM the ledger
    /// was defined on, in a quiet phase). Scaled times are relative to it.
    fn reference_ms(self) -> f64 {
        match self {
            Probe::Full => 1.0,
            Probe::Integer => 0.5,
        }
    }
}

/// The probe: the kinds of work the pipeline does, none of it the
/// pipeline's own code. Integer sorting and ordered-map inserts and
/// lookups, then rows of small strings formatted, joined and looked up in
/// a hash map. Each half alone tracked the pipeline's slowdowns less well:
/// over 5-second stretches of a 2-minute `paper_tables` run, scaled op
/// times drifted by 1.7% (first half) and 1.1% (second half); together,
/// by 0.5%.
fn probe_ms(probe: Probe) -> f64 {
    let start = Instant::now();
    let mut rng = SplitMix64::new(0x00ca_11b4_a7e5);
    let mut keys: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    let tree: BTreeMap<u64, usize> = keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    keys.sort_unstable();
    let mut acc = 0usize;
    for k in keys.iter().step_by(3) {
        acc = acc.wrapping_add(tree[k]);
    }
    let words: BTreeMap<String, usize> =
        keys.iter().take(1024).enumerate().map(|(i, k)| (format!("{k:x}"), i)).collect();
    if let Probe::Integer = probe {
        black_box((acc, words));
        return start.elapsed().as_secs_f64() * 1e3;
    }
    let rows: Vec<Vec<String>> = (0..1000)
        .map(|i| (0..4).map(|j| format!("r{i}c{j}:{}", rng.below(1000))).collect())
        .collect();
    let index: HashMap<String, usize> =
        rows.iter().enumerate().map(|(i, row)| (row.join("|"), i)).collect();
    for row in &rows {
        acc = acc.wrapping_add(index[&row.join("|")]);
    }
    black_box((acc, words));
    start.elapsed().as_secs_f64() * 1e3
}

/// Probe samples of one window, by time since the window started. Work
/// done between two probes is scaled by their mean.
pub struct Calibration {
    probe: Probe,
    samples: Vec<(f64, f64)>,
}

impl Calibration {
    pub fn new(probe: Probe) -> Calibration {
        Calibration { probe, samples: Vec::new() }
    }

    /// Probe now; `t0` is the window's start. Returns the time spent.
    pub fn probe(&mut self, t0: Instant) -> Duration {
        let now = Instant::now();
        self.samples.push(((now - t0).as_secs_f64(), probe_ms(self.probe)));
        now.elapsed()
    }

    /// The scale factor for work done at `t_s` seconds into the window:
    /// the reference probe time over the mean of the probes just before
    /// and just after.
    pub fn factor_at(&self, t_s: f64) -> f64 {
        let i = self.samples.partition_point(|(t, _)| *t <= t_s);
        let near = &self.samples[i.saturating_sub(1)..(i + 1).min(self.samples.len())];
        if near.is_empty() {
            return 1.0;
        }
        let mean = near.iter().map(|(_, ms)| ms).sum::<f64>() / near.len() as f64;
        self.probe.reference_ms() / mean
    }

    /// Median probe time of the window.
    pub fn median_probe_ms(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|(_, ms)| *ms).collect::<Vec<_>>())
    }
}

/// Op count and latencies of one measured window, scaled and raw.
pub struct Timing {
    pub attempted: u64,
    pub failed: u64,
    /// Op latencies scaled to the reference machine.
    pub latencies_ms: Vec<f64>,
    pub raw_latencies_ms: Vec<f64>,
    /// Wall time the window spent on ops.
    pub busy_s: f64,
    /// Scaled over raw op time: the window's mean scale factor.
    pub scale: f64,
    /// Median probe time of the window.
    pub probe_ms: f64,
}

impl Timing {
    /// `samples` holds each completed op's raw latency and scale factor.
    pub fn new(
        attempted: u64,
        failed: u64,
        samples: &[(f64, f64)],
        busy_s: f64,
        probe_ms: f64,
    ) -> Timing {
        let raw: Vec<f64> = samples.iter().map(|(ms, _)| *ms).collect();
        let scaled: Vec<f64> = samples.iter().map(|(ms, f)| ms * f).collect();
        let scale = ratio(scaled.iter().sum(), raw.iter().sum());
        Timing {
            attempted,
            failed,
            latencies_ms: scaled,
            raw_latencies_ms: raw,
            busy_s,
            scale,
            probe_ms,
        }
    }

    /// Ops per second on the reference machine.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.attempted as f64, self.busy_s * self.scale)
    }

    pub fn raw_ops_per_s(&self) -> f64 {
        ratio(self.attempted as f64, self.busy_s)
    }
}
