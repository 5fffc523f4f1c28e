//! `verifd_mix`: an in-process `verifd` (default `ServerConfig`) on a
//! Unix socket, driven by `nproc` client connections, each a closed
//! loop over a seeded mix of operations:
//!
//! * writes (a quarter): a two-scenario campaign submission of light
//!   scenarios at one worker, drawn from a seeded pool;
//! * reads: `campaign_watch/v1` replays of finished campaigns and
//!   `metrics_scrape/v1` scrapes.
//!
//! Reads are three quarters of the mix, so the median falls among the
//! reads and the tail among the writes, each well inside its mode.
//! Set-up (repeated, median reported) boots the daemon, derives the
//! pool's artifacts into its cache and serves one warm-up submission.
//! The host speed is calibrated after each set-up, and by each client
//! on its own thread between ops, every [`BLOCK_S`]; the other client
//! runs on meanwhile, so the loop never waits on a barrier, and a
//! client's calibration pauses are left out of its measured time.
//! Checks: every write's rows are byte-identical to an in-process run
//! of the same submission and hit the warm cache without a miss; every
//! replay equals the rows first streamed; no `error/v1` reply.

use crate::calib::{scale_setup, Calibrator};
use crate::run::{mix, peak_rss_mb, Op, Run};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use autovision::{Bug, RecoveryPolicy, SimMethod, SystemConfig};
use obs::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use verif::wire::{CampaignSubmission, WireRow};
use verif::{MatrixConfig, RecoverySpec, Scenario};
use verifd::proto;
use verifd::{Client, Endpoint, RunningServer, ServerConfig};

/// Share of ops that are campaign submissions.
pub const WRITE_SHARE: f64 = 0.25;
/// Share of ops that are watch replays (the rest are scrapes).
pub const WATCH_SHARE: f64 = 0.45;

/// Seconds of ops between a client's host-speed calibrations.
pub const BLOCK_S: f64 = 0.5;

/// Sizes of one `verifd_mix` run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed (pool and op order).
    pub seed: u64,
    /// Client connections.
    pub clients: usize,
    /// Distinct submissions in the write pool.
    pub pool: usize,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// Directory of the daemon's socket.
    pub dir: PathBuf,
}

impl Plan {
    /// The benchmark's mix.
    pub fn paper(seed: u64, clients: usize, dir: PathBuf) -> Plan {
        Plan {
            seed,
            clients,
            pool: 8,
            setup_reps: 9,
            dir,
        }
    }

    /// A seconds-long variant for the self-tests.
    #[cfg(test)]
    pub fn smoke(seed: u64, clients: usize, dir: PathBuf) -> Plan {
        Plan {
            pool: 2,
            setup_reps: 1,
            ..Plan::paper(seed, clients, dir)
        }
    }

    /// The write pool: each entry pairs a clean baseline (single- and
    /// two-region in turn) with one recovery-enabled transient
    /// injection (the four kinds in turn) whose seed comes from the
    /// workload seed, so every seed's pool has the same composition.
    pub fn submissions(&self) -> Vec<CampaignSubmission> {
        (0..self.pool)
            .map(|i| {
                let first = if i % 2 == 0 {
                    Scenario::Clean
                } else {
                    Scenario::SplitClean
                };
                CampaignSubmission {
                    scenarios: vec![
                        first,
                        Scenario::Recovery(RecoverySpec {
                            fault: Bug::TRANSIENTS[i % Bug::TRANSIENTS.len()],
                            seed: mix(self.seed, 0x5B + i as u64),
                            recovery_on: true,
                        }),
                    ],
                    threads: 1,
                    ..CampaignSubmission::default()
                }
            })
            .collect()
    }
}

/// The op a draw in `[0, 1)` selects.
pub fn op_kind(u: f64) -> &'static str {
    if u < WRITE_SHARE {
        "write"
    } else if u < WRITE_SHARE + WATCH_SHARE {
        "watch"
    } else {
        "scrape"
    }
}

/// What one served submission looked like from the client.
struct Served {
    id: u64,
    rows: Vec<String>,
    /// Request sent, `campaign_accepted/v1` read, terminal frame read.
    sent: Instant,
    accepted: Instant,
    done: Instant,
    accept_s: f64,
    first_row_s: f64,
    intervals: Vec<f64>,
    misses: u64,
    hits: u64,
}

/// Submit over the raw protocol, timing acceptance and each row.
fn submit(client: &mut Client, sub: &CampaignSubmission) -> std::io::Result<Served> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let t0 = Instant::now();
    client.send(&proto::oneline(&sub.to_json()))?;
    let accepted = client.expect_frame()?;
    let t_acc = Instant::now();
    let accept_s = (t_acc - t0).as_secs_f64();
    if proto::schema_of(&accepted) != Some(proto::ACCEPTED_SCHEMA) {
        return Err(bad("expected campaign_accepted/v1"));
    }
    let id = accepted
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("accepted frame without id"))?;
    let mut rows = Vec::new();
    let mut last = t0;
    let mut first_row_s = 0.0;
    let mut intervals = Vec::new();
    loop {
        let v = client.expect_frame()?;
        let now = Instant::now();
        match proto::schema_of(&v) {
            Some(proto::ROW_SCHEMA) => {
                let row = v.get("row").ok_or_else(|| bad("row frame without row"))?;
                rows.push(WireRow::from_value(row).map_err(|e| bad(&e))?.to_json());
                if rows.len() == 1 {
                    first_row_s = (now - t0).as_secs_f64();
                } else {
                    intervals.push((now - last).as_secs_f64());
                }
                last = now;
            }
            Some(proto::DONE_SCHEMA) => {
                let done = verifd::Done::from_value(&v).map_err(|e| bad(&e))?;
                return Ok(Served {
                    id,
                    rows,
                    sent: t0,
                    accepted: t_acc,
                    done: now,
                    accept_s,
                    first_row_s,
                    intervals,
                    misses: done.artifact_misses,
                    hits: done.artifact_hits,
                });
            }
            _ => return Err(bad("unexpected frame while streaming rows")),
        }
    }
}

/// A write op, kept for the after-run identity check.
struct Write {
    op: usize,
    pool: usize,
    rows: Vec<String>,
}

/// Per-client results.
#[derive(Default)]
struct Lane {
    ops: Vec<Op>,
    writes: Vec<Write>,
    first_row_s: Vec<f64>,
    accept_s: Vec<f64>,
    intervals: Vec<f64>,
    watch_s: Vec<f64>,
    scrape_s: Vec<f64>,
    /// Seconds the client spent in ops, wall-clock and scaled.
    active_raw_s: f64,
    active_s: f64,
    /// The client's host-speed calibrations.
    speeds: Vec<f64>,
    rejected: u64,
    hits: u64,
    lookups: u64,
}

/// Daemon boot plus cache warm-up; returns the server and the warm-up
/// submission's id and rows.
fn boot(
    plan: &Plan,
    rep: usize,
    pool: &[CampaignSubmission],
) -> std::io::Result<(RunningServer, String, Served, f64)> {
    std::fs::create_dir_all(&plan.dir)?;
    let path = plan
        .dir
        .join(format!("verifd-{}-{rep}.sock", std::process::id()));
    let endpoint = format!("unix:{}", path.display());
    let rs = RunningServer::start(ServerConfig::default(), &[Endpoint::Unix(path)])?;
    let base = MatrixConfig::default().base;
    let t0 = Instant::now();
    for cfg in [
        SystemConfig {
            method: SimMethod::Vmux,
            ..base.clone()
        },
        SystemConfig {
            method: SimMethod::Resim,
            ..base.clone()
        },
        SystemConfig {
            method: SimMethod::Vmux,
            regions: SystemConfig::split_regions(),
            ..base.clone()
        },
        SystemConfig {
            method: SimMethod::Resim,
            regions: SystemConfig::split_regions(),
            ..base.clone()
        },
        SystemConfig {
            method: SimMethod::Resim,
            recovery: RecoveryPolicy {
                enabled: true,
                ..Default::default()
            },
            ..base.clone()
        },
    ] {
        rs.server().artifacts().warm(&cfg);
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let mut client = Client::connect(&endpoint)?;
    let warm = CampaignSubmission {
        scenarios: pool.iter().flat_map(|s| s.scenarios.clone()).collect(),
        threads: 1,
        ..CampaignSubmission::default()
    };
    let served = submit(&mut client, &warm)?;
    Ok((rs, endpoint, served, cold_s))
}

/// Run `verifd_mix`.
pub fn run(plan: &Plan, seconds: f64, trace: bool) -> std::io::Result<Run> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(trace, epoch);
    let pool = plan.submissions();
    // Set-up runs on one thread at a time, and is scaled by a
    // calibration on one thread.
    let mut setup_cal = Calibrator::new(1);

    // ---- set-up: boot, warm the cache, one warm-up submission ----
    let mut setup_raw_s = Vec::new();
    let mut cold_s = Vec::new();
    let mut booted = None;
    for rep in 0..plan.setup_reps {
        let t0 = Instant::now();
        let root = tr.begin("setup", rep as u64, SpanId::NONE);
        let (rs, endpoint, warm, cold) = boot(plan, rep, &pool)?;
        tr.end(root);
        let wall = t0.elapsed().as_secs_f64();
        setup_cal.speed();
        setup_raw_s.push(wall);
        cold_s.push(cold);
        if let Some((old, _, _)) = booted.replace((rs, endpoint, warm)) {
            RunningServer::shutdown(old);
        }
    }
    let (rs, endpoint, warm) = booted.expect("at least one set-up repetition");
    let setup_s = scale_setup(&setup_raw_s, &setup_cal.samples);
    let cold_s = scale_setup(&cold_s, &setup_cal.samples);

    // ---- measured phase: nproc closed-loop clients ----
    // Finished campaigns a watch may replay, with the rows first
    // streamed for each.
    let finished: Mutex<Vec<(u64, Vec<String>)>> = Mutex::new(vec![(warm.id, warm.rows)]);
    let clients = (0..plan.clients)
        .map(|_| Client::connect(&endpoint))
        .collect::<std::io::Result<Vec<Client>>>()?;
    let t_run = Instant::now();
    let lanes: Vec<(Lane, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (pool, finished) = (&pool, &finished);
                let mut ltr = tr.lane(c + 1);
                scope.spawn(move || -> (Lane, Tracer) {
                    let mut lane = Lane::default();
                    let mut state = mix(plan.seed, 0xC11E + c as u64);
                    let mut op_no = 0u64;
                    let mut cal = Calibrator::new(1);
                    let mut k_prev = cal.speed();
                    let mut block = (0usize, Instant::now());
                    loop {
                        state = mix(state, op_no);
                        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                        let kind = op_kind(u);
                        let op_id = ((c as u64) << 32) | op_no;
                        op_no += 1;
                        let t0 = Instant::now();
                        let span = ltr.begin(kind, op_id, SpanId::NONE);
                        let failed = match kind {
                            "write" => {
                                let p = (state >> 40) as usize % pool.len();
                                match submit(&mut client, &pool[p]) {
                                    Ok(s) => {
                                        ltr.record(
                                            "verifd.accept",
                                            op_id,
                                            span,
                                            s.sent,
                                            s.accepted,
                                        );
                                        ltr.record(
                                            "verifd.stream_rows",
                                            op_id,
                                            span,
                                            s.accepted,
                                            s.done,
                                        );
                                        lane.accept_s.push(s.accept_s);
                                        lane.first_row_s.push(s.first_row_s);
                                        lane.intervals.extend(&s.intervals);
                                        lane.hits += s.hits;
                                        lane.lookups += s.hits + s.misses;
                                        finished
                                            .lock()
                                            .expect("registry poisoned")
                                            .push((s.id, s.rows.clone()));
                                        lane.writes.push(Write {
                                            op: lane.ops.len(),
                                            pool: p,
                                            rows: s.rows,
                                        });
                                        s.misses > 0
                                    }
                                    Err(e) => {
                                        lane.rejected += e.to_string().contains("busy") as u64;
                                        true
                                    }
                                }
                            }
                            "watch" => {
                                let (id, want) = {
                                    let f = finished.lock().expect("registry poisoned");
                                    f[(state >> 40) as usize % f.len()].clone()
                                };
                                let w0 = Instant::now();
                                let bad = client
                                    .watch(id, |_| {})
                                    .map_or(true, |(rows, _)| rows != want);
                                lane.watch_s.push(w0.elapsed().as_secs_f64());
                                bad
                            }
                            _ => {
                                let s0 = Instant::now();
                                let bad = client
                                    .metrics()
                                    .map_or(true, |m| !m.contains("service.artifact_cache.hits"));
                                lane.scrape_s.push(s0.elapsed().as_secs_f64());
                                bad
                            }
                        };
                        ltr.end(span);
                        let mut op = Op::ok(t0.elapsed().as_secs_f64(), kind);
                        op.mode = if kind == "write" { "write" } else { "read" };
                        op.failed = failed;
                        lane.ops.push(op);
                        let end = t_run.elapsed().as_secs_f64() >= seconds;
                        let wall = block.1.elapsed().as_secs_f64();
                        if end || wall >= BLOCK_S {
                            // The block's speed: the mean of the
                            // calibrations on either side of it.
                            let k = cal.speed();
                            let kb = (k_prev + k) / 2.0;
                            for op in &mut lane.ops[block.0..] {
                                op.scale(kb);
                            }
                            lane.active_raw_s += wall;
                            lane.active_s += wall * kb;
                            k_prev = k;
                            block = (lane.ops.len(), Instant::now());
                        }
                        if end {
                            break;
                        }
                    }
                    lane.speeds = cal.samples;
                    (lane, ltr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let peak_rss_mb = peak_rss_mb();

    // ---- checks: streamed rows against in-process runs ----
    let mut all = Lane::default();
    let mut render_s = Vec::new();
    let mut expected: Vec<Option<Vec<String>>> = vec![None; pool.len()];
    for (lane, ltr) in lanes {
        tr.absorb(ltr);
        let base = all.ops.len();
        all.ops.extend(lane.ops);
        for w in &lane.writes {
            let want = expected[w.pool].get_or_insert_with(|| {
                let report = pool[w.pool].plan(1, 0).run();
                report
                    .rows
                    .iter()
                    .map(|r| {
                        let t0 = Instant::now();
                        let s = verif::wire::row_to_json(r);
                        let t1 = Instant::now();
                        tr.record("verif.row_to_json", 0, SpanId::NONE, t0, t1);
                        render_s.push((t1 - t0).as_secs_f64());
                        s
                    })
                    .collect()
            });
            if &w.rows != want {
                all.ops[base + w.op].failed = true;
            }
        }
        all.first_row_s.extend(lane.first_row_s);
        all.accept_s.extend(lane.accept_s);
        all.intervals.extend(lane.intervals);
        all.watch_s.extend(lane.watch_s);
        all.scrape_s.extend(lane.scrape_s);
        all.active_raw_s += lane.active_raw_s;
        all.active_s += lane.active_s;
        all.speeds.extend(lane.speeds);
        all.rejected += lane.rejected;
        all.hits += lane.hits;
        all.lookups += lane.lookups;
    }

    // ---- per-layer figures ----
    let mut layers = BTreeMap::new();
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    layers.insert("verifd.accept_s", med(&all.accept_s));
    layers.insert("verifd.row_interval_p50_s", med(&all.intervals));
    layers.insert("verifd.watch_replay_s", med(&all.watch_s));
    layers.insert("verifd.scrape_s", med(&all.scrape_s));
    layers.insert("verifd.rejected", all.rejected as f64);
    layers.insert("verif.row_render_s", med(&render_s));
    layers.insert("autovision.artifacts_cold_s", med(&cold_s));
    layers.insert(
        "autovision.cache_hit_ratio",
        all.hits as f64 / all.lookups.max(1) as f64,
    );
    if trace {
        let snaps: Vec<f64> = (0..50)
            .map(|i| {
                let t0 = Instant::now();
                let s = rs.server().metrics_snapshot();
                let t1 = Instant::now();
                tr.record("obs.snapshot_json", i, SpanId::NONE, t0, t1);
                std::hint::black_box(s);
                (t1 - t0).as_secs_f64()
            })
            .collect();
        layers.insert("obs.snapshot_s", median(&snaps));
    }
    RunningServer::shutdown(rs);

    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for o in &all.ops {
        *counts.entry(o.class).or_default() += 1;
    }
    let notes = vec![format!(
        "ops: {:?} over {} clients, write pool {} submissions, {} rejected",
        counts, plan.clients, plan.pool, all.rejected
    )];
    // Each client ran a closed loop for about the same time; the
    // phase's length is their mean active time, so `ops_per_s` is the
    // clients' summed rate.
    let clients = plan.clients as f64;
    Ok(Run {
        setup_s,
        setup_raw_s,
        ops: all.ops,
        measured_s: all.active_s / clients,
        measured_raw_s: all.active_raw_s / clients,
        first_row_s: all.first_row_s,
        peak_rss_mb,
        layers,
        notes,
        tracer: tr,
        host_speed: [setup_cal.samples, all.speeds].concat(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_shares() {
        assert_eq!(op_kind(0.0), "write");
        assert_eq!(op_kind(0.2499), "write");
        assert_eq!(op_kind(0.25), "watch");
        assert_eq!(op_kind(0.6999), "watch");
        assert_eq!(op_kind(0.70), "scrape");
        assert_eq!(op_kind(0.9999), "scrape");
    }
}
