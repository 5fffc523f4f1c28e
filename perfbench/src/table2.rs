//! `table2_compiled`: the paper-scale Table II simulation under the
//! compiled plane, timed one fixed window of simulated cycles at a
//! time.
//!
//! Set-up (repeated, half before and half after the measured phase,
//! median reported) derives the artifacts into a cold
//! [`ArtifactCache`], builds the system on it, attaches the Table II
//! probes and compiles the plan. An op is one `Simulator::run_for` over
//! a window; each window is tagged with the phase the public
//! `cie_busy` / `me_busy` / `reconfiguring` probes show at its end,
//! the same tagging `table2_frame_time` uses. One simulation runs at a
//! time: a pass simulates [`PASS_FRAMES`] frames, and the next pass
//! rebuilds the system on the warm cache, until the time limit. The
//! scene is therefore the same size whatever the time limit, and every
//! pass runs the same windows.
//!
//! Checks, all outside the timed windows: every captured frame equals
//! `golden_output()`; every pass reaches the same counters (cycles,
//! toggles, events, evals, deltas, skipped dispatches, ICAP words,
//! swaps, frames, instructions, ISR cycles, probe high-times) as the
//! first at each checkpoint (every [`CHECK_EVERY`] windows); and an
//! EventDriven reference run of the same configuration reaches the
//! first pass's mode-independent counters at each of its checkpoints.
//! A window whose frame or checkpoint disagrees is a failed op.

use crate::calib::{scale_setup, Calibrator};
use crate::run::{mix, peak_rss_mb, Op, Run};
use crate::trace::{SpanId, Tracer};
use autovision::{ArtifactCache, AvSystem, SystemConfig, CLK_PERIOD_PS};
use rtlsim::ExecMode;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use verif::{probe_high_time, HighTime, Probe};

/// Frames the model figures are averaged over, as `table2_frame_time`
/// averages its two-frame run.
pub const MODEL_FRAMES: usize = 2;

/// Windows between full counter checkpoints.
pub const CHECK_EVERY: usize = 16;

/// Windows between host-speed calibrations.
pub const CAL_EVERY: usize = 64;

/// Frames one pass simulates. At about five frames per host second a
/// pass is a few hundred windows, and a run holds several passes.
pub const PASS_FRAMES: usize = 8;

/// Table II's published per-frame figures, in simulated ms: CIE, ME,
/// ISR, DPR (an upper bound, "< 0.1") and the overall row, which is
/// the sum of the four stages.
pub const PAPER_MS: [(&str, f64); 5] = [
    ("cie", 1.1),
    ("me", 1.4),
    ("isr", 0.5),
    ("dpr", 0.1),
    ("frame", 3.0),
];

/// Sizes of one `table2_compiled` run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The system configuration (exec mode is set per run).
    pub cfg: SystemConfig,
    /// Simulated cycles per op.
    pub window_cycles: u64,
    /// Set-up repetitions.
    pub setup_reps: usize,
}

impl Plan {
    /// The paper-scale Table II system, [`PASS_FRAMES`] frames a pass.
    pub fn paper(seed: u64) -> Plan {
        Plan {
            cfg: SystemConfig {
                seed: mix(seed, 0x7AB2) % 1_000_000,
                n_frames: PASS_FRAMES,
                ..bench::paper_scale_config()
            },
            window_cycles: 4096,
            setup_reps: 16,
        }
    }

    /// A seconds-long variant for the self-tests.
    #[cfg(test)]
    pub fn smoke(seed: u64) -> Plan {
        Plan {
            cfg: SystemConfig {
                seed: mix(seed, 0x7AB2) % 1_000_000,
                n_frames: MODEL_FRAMES + 1,
                ..bench::small_config()
            },
            window_cycles: 512,
            setup_reps: 2,
        }
    }
}

/// Phase of a window, from the Table II probes at its end.
pub fn phase(cie_busy: bool, me_busy: bool, reconfiguring: bool) -> &'static str {
    if cie_busy {
        "cie"
    } else if me_busy {
        "me"
    } else if reconfiguring {
        "dpr"
    } else {
        "isr_other"
    }
}

/// A built system with its Table II probes.
struct Probed {
    sys: AvSystem,
    cie: Rc<RefCell<HighTime>>,
    me: Rc<RefCell<HighTime>>,
    dpr: Rc<RefCell<HighTime>>,
    cie_busy: Probe<u64>,
    me_busy: Probe<u64>,
    reconfiguring: Probe<u64>,
}

impl Probed {
    fn build(cfg: SystemConfig, cache: &ArtifactCache, tr: &mut Tracer, parent: SpanId) -> Probed {
        let s = tr.begin("autovision.build_with", 0, parent);
        let mut sys = AvSystem::build_with(cfg, cache);
        tr.end(s);
        let reconf = sys
            .probes
            .reconfiguring
            .expect("ReSim build has a DPR probe");
        let cie = probe_high_time(&mut sys.sim, "probe.cie", sys.probes.cie_busy);
        let me = probe_high_time(&mut sys.sim, "probe.me", sys.probes.me_busy);
        let dpr = probe_high_time(&mut sys.sim, "probe.dpr", reconf);
        let (cie_busy, me_busy) = (
            Probe::new(sys.probes.cie_busy),
            Probe::new(sys.probes.me_busy),
        );
        Probed {
            sys,
            cie,
            me,
            dpr,
            cie_busy,
            me_busy,
            reconfiguring: Probe::new(reconf),
        }
    }

    fn phase(&self) -> &'static str {
        let high = |p: &Probe<u64>| p.read(&self.sys.sim) == Some(1);
        phase(
            high(&self.cie_busy),
            high(&self.me_busy),
            high(&self.reconfiguring),
        )
    }

    fn snapshot(&self) -> Snapshot {
        let st = self.sys.sim.stats();
        let backend = self.sys.backend_stats();
        let cpu = self.sys.cpu.borrow();
        Snapshot {
            cycles: self.sys.sim.now() / CLK_PERIOD_PS,
            toggles: st.toggles,
            events: st.events,
            evals: st.evals,
            deltas: st.deltas,
            skipped: self
                .sys
                .sim
                .compiled_stats()
                .map(|c| c.skipped_edge + c.skipped_parked)
                .unwrap_or(0),
            icap_words: backend.icap.as_ref().map(|i| i.words_accepted).unwrap_or(0),
            swaps: backend.total_swaps(),
            frames: self.sys.captured.borrow().len(),
            instret: cpu.instret,
            isr_cycles: cpu.isr_cycles,
            cie_ps: self.cie.borrow().total_ps,
            me_ps: self.me.borrow().total_ps,
            dpr_ps: self.dpr.borrow().total_ps,
        }
    }
}

/// Cumulative counters at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Snapshot {
    cycles: u64,
    toggles: u64,
    events: u64,
    evals: u64,
    deltas: u64,
    /// Compiled-plane dispatches skipped (edge filter plus parking).
    skipped: u64,
    icap_words: u64,
    swaps: u64,
    frames: usize,
    instret: u64,
    isr_cycles: u64,
    cie_ps: u64,
    me_ps: u64,
    dpr_ps: u64,
}

impl Snapshot {
    /// The counters both exec modes must agree on (evals and deltas
    /// differ by design).
    fn mode_independent(&self) -> [u64; 11] {
        [
            self.cycles,
            self.toggles,
            self.events,
            self.icap_words,
            self.swaps,
            self.frames as u64,
            self.instret,
            self.isr_cycles,
            self.cie_ps,
            self.me_ps,
            self.dpr_ps,
        ]
    }
}

/// One pass's windows: where they start in the run, how many there
/// are, and the counters at the pass's start and at its checkpoints.
struct Pass {
    first_op: usize,
    len: usize,
    start: Snapshot,
    /// (window index within the pass, counters after that window).
    checkpoints: Vec<(usize, Snapshot)>,
}

impl Pass {
    /// Fail windows `from..=to` (indices within the pass) of this pass.
    fn fail(&self, ops: &mut [Op], from: usize, to: usize) {
        let end = (to + 1).min(self.len);
        for op in &mut ops[self.first_op + from.min(end)..self.first_op + end] {
            op.failed = true;
        }
    }
}

/// One set-up repetition: cold artifacts, build, probes, plan. Returns
/// the system, its cache, and the wall-clock seconds of the whole, of
/// the artifact derivation and of the build.
fn set_up(cfg: &SystemConfig, tr: &mut Tracer, rep: usize) -> (Probed, ArtifactCache, [f64; 3]) {
    let t0 = Instant::now();
    let root = tr.begin("setup", rep as u64, SpanId::NONE);
    let cache = ArtifactCache::new();
    let s = tr.begin("autovision.warm", rep as u64, root);
    cache.warm(cfg);
    tr.end(s);
    let t1 = Instant::now();
    let mut p = Probed::build(cfg.clone(), &cache, tr, root);
    let t2 = Instant::now();
    let s = tr.begin("rtlsim.compile_plan", rep as u64, root);
    p.sys.sim.compile_plan();
    tr.end(s);
    tr.end(root);
    let t3 = Instant::now();
    (
        p,
        cache,
        [t3 - t0, t1 - t0, t2 - t1].map(|d| d.as_secs_f64()),
    )
}

/// Run `table2_compiled`.
pub fn run(plan: &Plan, seconds: f64, trace: bool) -> Run {
    let epoch = Instant::now();
    let mut tr = Tracer::new(trace, epoch);
    let cfg = SystemConfig {
        exec_mode: ExecMode::Compiled,
        ..plan.cfg.clone()
    };

    let mut cal = Calibrator::new(1);

    // ---- set-up: cold artifacts, build, probes, plan ----
    // Half the repetitions run before the measured phase and half after
    // it, so that their median samples the host at both ends of the
    // run: a set-up lasts about 0.1 s, and the host's speed drifts over
    // seconds.
    let mut setup_raw: Vec<[f64; 3]> = Vec::new();
    let mut setup_k = Vec::new();
    let before = plan.setup_reps.div_ceil(2);
    let mut built = None;
    for rep in 0..before {
        let (p, cache, t) = set_up(&cfg, &mut tr, rep);
        setup_k.push(cal.speed());
        setup_raw.push(t);
        built = Some((p, cache));
    }
    let (mut p, cache) = built.expect("at least one set-up repetition");
    let (hits, misses) = cache.stats();
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let plan_s = p
        .sys
        .sim
        .compiled_stats()
        .map(|c| c.compile_nanos as f64 * 1e-9)
        .unwrap_or(0.0);
    let golden = p.sys.golden_output();

    // ---- measured phase: passes of fixed windows until the time limit ----
    // Between windows the loop reads only the frame count; the full
    // counter snapshot (which walks every signal) is taken at
    // checkpoints, so it does not evict the simulator's working set
    // before most windows.
    let window_ps = plan.window_cycles * CLK_PERIOD_PS;
    let mut ops: Vec<Op> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut model: Option<Snapshot> = None;
    let mut fallback_share = 0.0;
    let mut first_row_s = Vec::new();
    let (mut measured_s, mut measured_raw_s) = (0.0, 0.0);
    let mut block = (0usize, Instant::now());
    let t_run = Instant::now();
    loop {
        let first_op = ops.len();
        let start = p.snapshot();
        let mut checkpoints = Vec::new();
        let mut frames_at = Vec::new();
        let time_up = loop {
            let w = ops.len() - first_op;
            let t0 = Instant::now();
            let res = p.sys.sim.run_for(window_ps);
            let t1 = Instant::now();
            tr.record("rtlsim.run_for", ops.len() as u64, SpanId::NONE, t0, t1);
            let mut op = Op::ok((t1 - t0).as_secs_f64(), p.phase());
            op.failed = res.is_err();
            ops.push(op);
            let frames = p.sys.captured.borrow().len();
            frames_at.push(frames);
            if first_row_s.is_empty() && frames >= 1 {
                first_row_s.push((t1 - t_run).as_secs_f64());
            }
            let model_point = passes.is_empty() && model.is_none() && frames >= MODEL_FRAMES;
            let pass_done = res.is_err() || frames >= cfg.n_frames || p.sys.cpu.borrow().halted;
            let time_up = t_run.elapsed().as_secs_f64() >= seconds;
            if model_point || pass_done || time_up || (w + 1).is_multiple_of(CHECK_EVERY) {
                let s = tr.begin("rtlsim.stats", ops.len() as u64, SpanId::NONE);
                let snap = p.snapshot();
                tr.end(s);
                checkpoints.push((w, snap));
                if model_point {
                    model = Some(snap);
                }
            }
            if time_up || ops.len().is_multiple_of(CAL_EVERY) {
                let wall = block.1.elapsed().as_secs_f64();
                let k = cal.speed();
                for op in &mut ops[block.0..] {
                    op.scale(k);
                }
                measured_s += wall * k;
                measured_raw_s += wall;
                block = (ops.len(), Instant::now());
            }
            if pass_done || time_up {
                break time_up;
            }
        };

        // Latency modes: a window the compiled plane spent (partly) in
        // its event-driven fallback is one mode, a steady-state window
        // another.
        let fallback = p.sys.sim.fallback_windows().to_vec();
        let mut w_start = start.cycles * CLK_PERIOD_PS;
        for op in &mut ops[first_op..] {
            let w_end = w_start + window_ps;
            let overlaps = fallback.iter().any(|&(a, b)| a < w_end && b > w_start);
            op.mode = if overlaps { "fallback" } else { "steady" };
            w_start = w_end;
        }
        if let (true, Some(m)) = (passes.is_empty(), model) {
            let horizon_ps = m.cycles * CLK_PERIOD_PS;
            let in_fallback: u64 = fallback
                .iter()
                .map(|&(a, b)| b.min(horizon_ps).saturating_sub(a.min(horizon_ps)))
                .sum();
            fallback_share = in_fallback as f64 / horizon_ps.max(1) as f64;
        }

        // ---- checks: the pass's frames against the golden model ----
        let frame_bad: Vec<bool> = {
            let captured = p.sys.captured.borrow();
            let poison = p.sys.captured_poison.borrow();
            captured
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    golden.get(i).map(|g| f.differing_pixels(g)).unwrap_or(1) > 0
                        || poison.get(i).copied().unwrap_or(0) > 0
                })
                .collect()
        };
        let mut prev_frames = start.frames;
        for (op, &frames) in ops[first_op..].iter_mut().zip(&frames_at) {
            if frame_bad[prev_frames..frames].iter().any(|b| *b) {
                op.failed = true;
            }
            prev_frames = frames;
        }
        passes.push(Pass {
            first_op,
            len: ops.len() - first_op,
            start,
            checkpoints,
        });
        if time_up {
            break;
        }
        // The next pass: the same system, rebuilt on the warm cache.
        p = Probed::build(cfg.clone(), &cache, &mut tr, SpanId::NONE);
        p.sys.sim.compile_plan();
    }
    let speed = crate::stats::median(&cal.samples);
    for f in &mut first_row_s {
        *f *= speed;
    }
    let peak_rss_mb = peak_rss_mb();
    for rep in before..plan.setup_reps {
        let (_, _, t) = set_up(&cfg, &mut tr, rep);
        setup_k.push(cal.speed());
        setup_raw.push(t);
    }
    let col = |i: usize| -> Vec<f64> { setup_raw.iter().map(|t| t[i]).collect() };
    let setup_raw_s = col(0);
    let setup_s = scale_setup(&setup_raw_s, &setup_k);
    let cold_s = scale_setup(&col(1), &setup_k);
    let build_s = scale_setup(&col(2), &setup_k);

    // ---- checks: every pass repeats the first ----
    let first: BTreeMap<usize, Snapshot> = passes[0].checkpoints.iter().copied().collect();
    let mut pass_mismatches = 0usize;
    for pass in &passes[1..] {
        let mut from = 0usize;
        let mut bad = pass.start != passes[0].start;
        for (w, snap) in &pass.checkpoints {
            if let Some(want) = first.get(w) {
                if bad || want != snap {
                    // Every window since the last agreeing checkpoint fails.
                    pass.fail(&mut ops, from, *w);
                    pass_mismatches += 1;
                }
                bad = false;
                from = w + 1;
            }
        }
    }

    // ---- checks: EventDriven reference over the first pass ----
    let mut reference = Probed::build(
        SystemConfig {
            exec_mode: ExecMode::EventDriven,
            ..cfg.clone()
        },
        &cache,
        &mut Tracer::new(false, epoch),
        SpanId::NONE,
    );
    let mut ref_mismatches = 0usize;
    let mut from = 0usize;
    for (w, snap) in &passes[0].checkpoints {
        let ok = (from..=*w).all(|_| reference.sys.sim.run_for(window_ps).is_ok());
        if !ok || reference.snapshot().mode_independent() != snap.mode_independent() {
            // Those windows fail in every pass, since every pass
            // repeats the first.
            for pass in &passes {
                pass.fail(&mut ops, from, *w);
            }
            ref_mismatches += 1;
        }
        from = w + 1;
    }

    // ---- per-layer figures ----
    let mut layers = BTreeMap::new();
    let mut notes = Vec::new();
    let host_total: f64 = ops.iter().map(|o| o.latency_s).sum();
    let (mut evals, mut events) = (0u64, 0u64);
    for pass in &passes {
        let end = pass
            .checkpoints
            .last()
            .expect("a pass ends on a checkpoint")
            .1;
        evals += end.evals.saturating_sub(pass.start.evals);
        events += end.events.saturating_sub(pass.start.events);
    }
    layers.insert(
        "rtlsim.host_ns_per_eval",
        host_total * 1e9 / evals.max(1) as f64,
    );
    layers.insert(
        "rtlsim.host_ns_per_event",
        host_total * 1e9 / events.max(1) as f64,
    );
    layers.insert("rtlsim.compiled.plan_s", plan_s);
    let sim_ms_per_window = plan.window_cycles as f64 * CLK_PERIOD_PS as f64 * 1e-9;
    for (class, name) in [
        ("cie", "engines.cie.host_s_per_sim_ms"),
        ("me", "engines.me.host_s_per_sim_ms"),
        ("dpr", "resim.dpr.host_s_per_sim_ms"),
        ("isr_other", "ppc.isr_other.host_s_per_sim_ms"),
    ] {
        let w: Vec<f64> = ops
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.latency_s)
            .collect();
        let v = if w.is_empty() {
            0.0
        } else {
            w.iter().sum::<f64>() / (w.len() as f64 * sim_ms_per_window)
        };
        layers.insert(name, v);
    }
    layers.insert("autovision.artifacts_cold_s", crate::stats::median(&cold_s));
    layers.insert("autovision.build_s", crate::stats::median(&build_s));
    layers.insert("autovision.cache_hit_ratio", hit_ratio);
    if trace {
        let sa = cache.scene(&cfg);
        let t0 = Instant::now();
        let g = autovision::golden_output(&sa.inputs, cfg.width, cfg.height);
        let t1 = Instant::now();
        tr.record("video.golden_output", 0, SpanId::NONE, t0, t1);
        assert_eq!(g, sa.golden, "golden model is deterministic");
        layers.insert("video.golden_s", (t1 - t0).as_secs_f64() * cal.speed());
    }

    match model {
        Some(m) => {
            let cyc = m.cycles.max(1) as f64;
            layers.insert("rtlsim.evals_per_cycle", m.evals as f64 / cyc);
            layers.insert("rtlsim.deltas_per_cycle", m.deltas as f64 / cyc);
            layers.insert("rtlsim.events_per_cycle", m.events as f64 / cyc);
            layers.insert("resim.icap_words", m.icap_words as f64);
            layers.insert("resim.swaps", m.swaps as f64);
            layers.insert("ppc.instret", m.instret as f64);
            layers.insert("ppc.isr_cycles", m.isr_cycles as f64);
            let per_frame = |ps: u64| ps as f64 * 1e-9 / MODEL_FRAMES as f64;
            // The overall row is the sum of the stages, as in
            // `table2_frame_time`; the cycles a frame takes end to end
            // (draw and video I/O included) are printed beside it.
            let stages = m.cie_ps + m.me_ps + m.isr_cycles * CLK_PERIOD_PS + m.dpr_ps;
            let model = [
                ("cie", per_frame(m.cie_ps)),
                ("me", per_frame(m.me_ps)),
                ("isr", per_frame(m.isr_cycles * CLK_PERIOD_PS)),
                ("dpr", per_frame(m.dpr_ps)),
                ("frame", per_frame(stages)),
            ];
            notes.push(format!(
                "model (simulated ms/frame over the first {MODEL_FRAMES} frames, window {} cycles) vs Table II:",
                plan.window_cycles
            ));
            for ((name, ms), (_, paper)) in model.iter().zip(PAPER_MS) {
                let key: &'static str = match *name {
                    "cie" => "model.cie_sim_ms",
                    "me" => "model.me_sim_ms",
                    "isr" => "model.isr_sim_ms",
                    "dpr" => "model.dpr_sim_ms",
                    _ => "model.frame_sim_ms",
                };
                layers.insert(key, *ms);
                let err = if *name == "dpr" {
                    format!(
                        "{} the < {paper} bound",
                        if *ms < paper { "within" } else { "OVER" }
                    )
                } else {
                    format!("{:+.1} %", (ms - paper) / paper * 100.0)
                };
                notes.push(format!(
                    "  {key:<20} {ms:>8.4} ms   paper {paper:>4} ms   error {err}"
                ));
            }
            notes.push(format!(
                "  end to end incl. draw and video I/O: {:.4} ms/frame",
                per_frame(m.cycles * CLK_PERIOD_PS)
            ));
            layers.insert(
                "rtlsim.compiled.skip_share",
                m.skipped as f64 / (m.skipped + m.evals).max(1) as f64,
            );
            layers.insert("rtlsim.compiled.fallback_cycle_share", fallback_share);
        }
        None => notes.push(format!(
            "model: fewer than {MODEL_FRAMES} frames captured; model figures not reported"
        )),
    }

    let mut phases: BTreeMap<&str, usize> = BTreeMap::new();
    for o in &ops {
        *phases.entry(o.class).or_default() += 1;
    }
    notes.push(format!(
        "windows: {} of {} cycles in {} passes of {} frames, phases {:?}, \
         mismatches against the first pass {pass_mismatches}, \
         EventDriven reference mismatches {ref_mismatches} of {} checkpoints",
        ops.len(),
        plan.window_cycles,
        passes.len(),
        cfg.n_frames,
        phases,
        passes[0].checkpoints.len(),
    ));
    Run {
        setup_s,
        setup_raw_s,
        ops,
        measured_s,
        measured_raw_s,
        first_row_s,
        peak_rss_mb,
        layers,
        notes,
        tracer: tr,
        host_speed: cal.samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_take_the_phase_the_probes_show() {
        assert_eq!(phase(true, false, false), "cie");
        assert_eq!(phase(false, true, false), "me");
        assert_eq!(phase(false, false, true), "dpr");
        assert_eq!(phase(false, false, false), "isr_other");
        // The engines take precedence, as in `table2_frame_time`.
        assert_eq!(phase(true, true, true), "cie");
        assert_eq!(phase(false, true, true), "me");
    }
}
