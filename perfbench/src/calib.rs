//! Host-speed calibration.
//!
//! The host this benchmark was tuned on is a shared 2-vCPU VM whose
//! speed drifts by up to 2x over tens of seconds as its neighbours load
//! the physical cores; raw wall-clock figures of the same code differ
//! by that much between two sets of runs. A fixed kernel of random
//! read-modify-writes over a 4 MB array per thread, timed on threads
//! that have no op in flight (between blocks of windows, between
//! campaigns, by each daemon client between its ops), tracks most of
//! that drift: on the reference host its rate correlates 0.89 with the
//! paper-scale simulation's window rate over 1.6 s averages, but
//! between two sets of runs it slowed 1.43x where the simulation slowed
//! 1.8x, so it under-corrects slow drift.
//!
//! The end-to-end times are reported in reference-host seconds: raw
//! host seconds times [`Calibrator::speed`] of the surrounding block,
//! the kernel's rate divided by [`REF_MUPS`]. The report prints the raw
//! wall-clock figures beside them. The kernel is the benchmark's own
//! code, so a program change cannot speed it up; a change that left
//! the program's threads busy between ops could slow it and so flatter
//! the scaled times, which the raw figures beside them would show.

use std::time::Instant;

/// Kernel rate, in million updates per second, that counts as speed 1.
pub const REF_MUPS: f64 = 250.0;

/// Updates per thread per calibration (about 5 ms at [`REF_MUPS`]).
const UPDATES: u64 = 1_500_000;

/// Words per thread's array (4 MB).
const WORDS: usize = 1 << 19;

/// The calibration kernel's per-thread state.
#[derive(Debug)]
pub struct Calibrator {
    arrays: Vec<Vec<u64>>,
    /// Every speed measured so far.
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator that runs the kernel on `threads` threads at once,
    /// as many as the workload keeps busy.
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            arrays: vec![vec![1u64; WORDS]; threads.max(1)],
            samples: Vec::new(),
        }
    }

    /// Host speed now: the kernel's mean per-thread rate over
    /// [`REF_MUPS`] (below 1 on a slow host).
    pub fn speed(&mut self) -> f64 {
        let time = |a: &mut Vec<u64>| {
            let t0 = Instant::now();
            std::hint::black_box(rmw(a, UPDATES));
            UPDATES as f64 / t0.elapsed().as_secs_f64() * 1e-6
        };
        // One thread calibrates on the calling thread, so on the vCPU
        // the single-threaded workload runs on.
        let rates: Vec<f64> = if let [a] = &mut self.arrays[..] {
            vec![time(a)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .arrays
                    .iter_mut()
                    .map(|a| s.spawn(move || time(a)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread panicked"))
                    .collect()
            })
        };
        let speed = rates.iter().sum::<f64>() / rates.len() as f64 / REF_MUPS;
        self.samples.push(speed);
        speed
    }
}

/// Set-up samples in reference-host seconds: each wall-clock sample
/// times the median of the calibrations taken between the repetitions.
/// One 5 ms calibration is too noisy to scale its own repetition.
pub fn scale_setup(raw_s: &[f64], speeds: &[f64]) -> Vec<f64> {
    let k = crate::stats::median(speeds);
    raw_s.iter().map(|r| r * k).collect()
}

/// `n` pseudo-random read-modify-writes over `v` (length a power of
/// two).
fn rmw(v: &mut [u64], n: u64) -> u64 {
    let mask = v.len() - 1;
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..n {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        let j = h as usize & mask;
        v[j] = v[j].wrapping_mul(31).wrapping_add(i);
    }
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_recorded() {
        let mut c = Calibrator::new(2);
        let s = c.speed();
        assert!(s.is_finite() && s > 0.0);
        assert_eq!(c.samples, vec![s]);
    }
}
