//! What one workload run hands back to the reporter.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// One timed op.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Reference-host seconds the op took: `raw_s` times the host speed
    /// of its block (see [`crate::calib`]).
    pub latency_s: f64,
    /// Wall-clock seconds the op took on this host.
    pub raw_s: f64,
    /// Op class, e.g. the Table II phase of a window or the request
    /// kind of a daemon op.
    pub class: &'static str,
    /// Latency mode the op belongs to, for locating the reported
    /// percentiles (the class, unless the workload knows better).
    pub mode: &'static str,
    /// The op's output failed its correctness check.
    pub failed: bool,
}

impl Op {
    /// An op of latency mode `class`, `raw_s` wall-clock seconds long,
    /// that has not (yet) failed a check or been scaled.
    pub fn ok(raw_s: f64, class: &'static str) -> Op {
        Op {
            latency_s: raw_s,
            raw_s,
            class,
            mode: class,
            failed: false,
        }
    }

    /// Scale the op to reference-host seconds at host speed `k`.
    pub fn scale(&mut self, k: f64) {
        self.latency_s = self.raw_s * k;
    }
}

/// Everything a workload measured in one run.
#[derive(Debug)]
pub struct Run {
    /// Set-up time of each set-up repetition, in reference-host seconds.
    pub setup_s: Vec<f64>,
    /// The same, in wall-clock seconds.
    pub setup_raw_s: Vec<f64>,
    /// Timed ops, in issue order.
    pub ops: Vec<Op>,
    /// Reference-host seconds the measured phase took.
    pub measured_s: f64,
    /// Wall-clock seconds the measured phase took.
    pub measured_raw_s: f64,
    /// Request start → first result, in seconds, one per request.
    pub first_row_s: Vec<f64>,
    /// Peak resident memory at the end of the measured phase, in MB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics the workload measures (the rest report 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run (empty when tracing is off).
    pub tracer: Tracer,
    /// Host-speed calibrations taken during the run; every
    /// reference-host time above is the wall-clock time scaled by the
    /// one of its block.
    pub host_speed: Vec<f64>,
}

impl Run {
    /// Ops whose check failed.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| o.failed).count()
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a over `bytes` (pinned digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// SplitMix64 step: derives independent sub-seeds from the workload
/// seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
