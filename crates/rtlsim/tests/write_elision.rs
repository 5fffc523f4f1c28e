//! Write elision: the kernel drops a non-blocking write that cannot
//! change its signal (see the `sim` module doc, "Delta loop"). These
//! tests pin that the drop is unobservable. Each scenario runs on the
//! kernel and on a reference model of the two-phase delta loop that
//! queues and applies every write in order. Final values, per-signal
//! toggle counts, VCD bytes and the order in which components evaluate
//! (with the values each one reads) must be identical.
//!
//! The design: a testbench `tick` counter wakes two writers once per
//! time point, each issuing that point's scripted writes to three shared
//! signals (1, 4 and 8 bits wide). An `echo` process copies bit 0 of the
//! 4-bit signal into the 1-bit one, so some writes land one delta after
//! another component wrote the same signal. One observer per shared
//! signal records when it wakes.

use proptest::prelude::*;
use rtlsim::{CompKind, Ctx, Lv, SignalId, Simulator};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

const PERIOD: u64 = 1_000;
const WIDTHS: [u8; 3] = [1, 4, 8];
/// Component indices in registration order.
const WRITERS: usize = 2;
const ECHO: usize = 2;
const OBSERVERS: usize = 3;
const N_COMPS: usize = OBSERVERS + WIDTHS.len();

/// One non-blocking write as a component issues it (signal index into
/// [`WIDTHS`], value).
#[derive(Clone, Copy, Debug)]
enum Write {
    Set(usize, Lv),
    SetU64(usize, u64),
    SetBit(usize, bool),
}

/// One time point: testbench pokes that land before the writers
/// evaluate, then each writer's writes in program order.
#[derive(Clone, Debug, Default)]
struct Step {
    pokes: Vec<(usize, Lv)>,
    writes: [Vec<Write>; WRITERS],
}

#[derive(Clone, Debug)]
struct Scenario {
    /// Initial value per shared signal; `None` starts it at all-`X`.
    init: [Option<u64>; 3],
    steps: Vec<Step>,
}

/// One component evaluation: time, component index, and the values of
/// `tick` and the shared signals it read.
type Eval = (u64, usize, [Lv; 4]);

#[derive(Debug, PartialEq)]
struct Observed {
    evals: Vec<Eval>,
    finals: [Lv; 4],
    toggles: [u64; 4],
    vcd: String,
}

/// Signal index of shared signal `i` (`tick` is signal 0).
fn sig(i: usize) -> usize {
    i + 1
}

fn widths() -> [u8; 4] {
    [16, WIDTHS[0], WIDTHS[1], WIDTHS[2]]
}

/// The value a write carries into the write list, as `Ctx` forms it.
fn written(w: Write) -> (usize, Lv) {
    match w {
        Write::Set(i, v) => (sig(i), v.resize(WIDTHS[i])),
        Write::SetU64(i, v) => (sig(i), Lv::from_u64(WIDTHS[i], v)),
        Write::SetBit(i, b) => (sig(i), Lv::bit(b)),
    }
}

fn init_values(scn: &Scenario) -> [Lv; 4] {
    let mut cur = [Lv::from_u64(16, 0); 4];
    for (i, init) in scn.init.iter().enumerate() {
        cur[sig(i)] = match init {
            Some(v) => Lv::from_u64(WIDTHS[i], *v),
            None => Lv::xes(WIDTHS[i]),
        };
    }
    cur
}

fn tick_value(d: usize) -> Lv {
    Lv::from_u64(16, d as u64 + 1)
}

/// Components sensitive to each signal, in registration order.
fn sensitivity(s: usize) -> Vec<usize> {
    match s {
        0 => vec![0, 1],
        2 => vec![ECHO, OBSERVERS + 1],
        s => vec![OBSERVERS + s - 1],
    }
}

// --- Reference model ------------------------------------------------------

/// The two-phase delta loop with no elision: every write is queued and
/// applied in order; an apply that changes the value toggles, is dumped
/// and wakes the signal's sensitive components (each once per delta, in
/// the order they were first marked).
struct Model {
    cur: [Lv; 4],
    toggles: [u64; 4],
    changes: Vec<(u64, usize, Lv)>,
    evals: Vec<Eval>,
    ready: Vec<usize>,
}

impl Model {
    fn apply(&mut self, now: u64, s: usize, v: Lv) {
        if self.cur[s].eq_case(&v) {
            return;
        }
        self.cur[s] = v;
        self.toggles[s] += 1;
        self.changes.push((now, s, v));
        for c in sensitivity(s) {
            if !self.ready.contains(&c) {
                self.ready.push(c);
            }
        }
    }

    fn run(scn: &Scenario) -> Observed {
        let mut m = Model {
            cur: init_values(scn),
            toggles: [0; 4],
            changes: Vec::new(),
            evals: Vec::new(),
            ready: Vec::new(),
        };
        for (d, step) in scn.steps.iter().enumerate() {
            let now = d as u64 * PERIOD;
            if d == 0 {
                // Every component's initial evaluation.
                m.ready = (0..N_COMPS).collect();
            }
            for &(i, v) in &step.pokes {
                m.apply(now, sig(i), v.resize(WIDTHS[i]));
            }
            m.apply(now, 0, tick_value(d));
            let mut tick_changed = true;
            while !m.ready.is_empty() {
                let mut pending = Vec::new();
                for c in std::mem::take(&mut m.ready) {
                    m.evals.push((now, c, m.cur));
                    if c < WRITERS {
                        if tick_changed {
                            pending.extend(step.writes[c].iter().map(|&w| written(w)));
                        }
                    } else if c == ECHO {
                        pending.push((sig(0), Lv::from_logic(m.cur[sig(1)].get(0))));
                    }
                }
                tick_changed = false;
                for (s, v) in pending {
                    m.apply(now, s, v);
                }
            }
        }
        Observed {
            evals: m.evals,
            finals: m.cur,
            toggles: m.toggles,
            vcd: render_vcd(&m.changes),
        }
    }
}

/// The VCD the kernel's writer produces for these value changes.
fn render_vcd(changes: &[(u64, usize, Lv)]) -> String {
    let names = ["tick", "s0", "s1", "s2"];
    let mut out = String::from("$timescale 1ps $end\n$scope module top $end\n");
    for (i, (name, w)) in names.iter().zip(widths()).enumerate() {
        out += &format!("$var wire {w} {} {name} $end\n", code(i));
    }
    out += "$upscope $end\n$enddefinitions $end\n";
    let mut last = None;
    for &(t, s, v) in changes {
        if last != Some(t) {
            out += &format!("#{t}\n");
            last = Some(t);
        }
        if widths()[s] == 1 {
            out += &format!("{}{}\n", v.get(0).to_char(), code(s));
        } else {
            let bits: String = (0..v.width()).rev().map(|b| v.get(b).to_char()).collect();
            out += &format!("b{bits} {}\n", code(s));
        }
    }
    out
}

fn code(i: usize) -> char {
    (b'!' + i as u8) as char
}

// --- Kernel ---------------------------------------------------------------

/// Run `scn` on the kernel; also returns its `SimStats::writes`.
fn run_kernel(scn: &Scenario, vcd: &Path) -> (Observed, u64) {
    let mut sim = Simulator::new();
    let tick = sim.signal_init("tick", 16, 0);
    let mut all: Vec<SignalId> = vec![tick];
    for (i, init) in scn.init.iter().enumerate() {
        let name = format!("s{i}");
        all.push(match init {
            Some(v) => sim.signal_init(name, WIDTHS[i], *v),
            None => sim.signal(name, WIDTHS[i]),
        });
    }
    let all = Rc::new(all);
    let evals: Rc<RefCell<Vec<Eval>>> = Rc::default();
    for me in 0..N_COMPS {
        let sens: Vec<SignalId> = (0..4)
            .filter(|&s| sensitivity(s).contains(&me))
            .map(|s| all[s])
            .collect();
        let script: Vec<Vec<Write>> = if me < WRITERS {
            scn.steps.iter().map(|s| s.writes[me].clone()).collect()
        } else {
            Vec::new()
        };
        let (all, evals) = (all.clone(), evals.clone());
        sim.add_component(
            format!("c{me}"),
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                let read = [0, 1, 2, 3].map(|s| ctx.get(all[s]));
                evals.borrow_mut().push((ctx.now(), me, read));
                if me < WRITERS {
                    if !ctx.changed(all[0]) {
                        return;
                    }
                    let d = ctx.get_u64(all[0]).expect("tick is known") as usize - 1;
                    for &w in &script[d] {
                        match w {
                            Write::Set(i, v) => ctx.set(all[sig(i)], v),
                            Write::SetU64(i, v) => ctx.set_u64(all[sig(i)], v),
                            Write::SetBit(i, b) => ctx.set_bit(all[sig(i)], b),
                        }
                    }
                } else if me == ECHO {
                    let b = ctx.get(all[sig(1)]).get(0);
                    ctx.set(all[sig(0)], Lv::from_logic(b));
                }
            }),
            &sens,
        );
    }
    sim.trace_vcd(vcd).unwrap();
    for (d, step) in scn.steps.iter().enumerate() {
        let now = d as u64 * PERIOD;
        if d > 0 {
            // Advance to the step's time point; nothing is pending.
            sim.run_until(now).unwrap();
        }
        for &(i, v) in &step.pokes {
            sim.poke(all[sig(i)], v);
        }
        sim.poke(tick, tick_value(d));
        sim.run_until(now).unwrap();
    }
    sim.flush_vcd().unwrap();
    let finals = [0, 1, 2, 3].map(|s| sim.peek(all[s]));
    let toggles = [0, 1, 2, 3].map(|s| sim.toggle_count(all[s]));
    let observed = Observed {
        evals: evals.take(),
        finals,
        toggles,
        vcd: std::fs::read_to_string(vcd).unwrap(),
    };
    std::fs::remove_file(vcd).unwrap();
    (observed, sim.stats().writes)
}

/// A fresh VCD path per run: tests run on parallel threads and must not
/// share a file.
fn vcd_path(test: &str) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("rtlsim_write_elision");
    std::fs::create_dir_all(&dir).unwrap();
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{test}-{}-{run}.vcd", std::process::id()))
}

/// Run `scn` on both, assert they agree, and return the kernel's
/// observation and queued-write count.
fn check(test: &str, scn: &Scenario) -> (Observed, u64) {
    let (got, writes) = run_kernel(scn, &vcd_path(test));
    let want = Model::run(scn);
    assert_eq!(got, want, "kernel and reference disagree on {scn:#?}");
    (got, writes)
}

/// A one-step scenario on known-zero signals: writer a's writes, then
/// writer b's.
fn one_step(a: Vec<Write>, b: Vec<Write>) -> Scenario {
    Scenario {
        init: [Some(0); 3],
        steps: vec![Step {
            pokes: Vec::new(),
            writes: [a, b],
        }],
    }
}

fn lv8(v: u64) -> Lv {
    Lv::from_u64(8, v)
}

/// Evaluations of observer `i` (watching shared signal `i`).
fn observer_wakes(o: &Observed, i: usize) -> usize {
    o.evals.iter().filter(|e| e.1 == OBSERVERS + i).count()
}

// --- Cases ------------------------------------------------------------------

#[test]
fn current_then_new_value_queues_only_the_new_one() {
    // Writer a re-drives s2's current value, writer b changes it.
    let scn = one_step(vec![Write::SetU64(2, 0)], vec![Write::SetU64(2, 5)]);
    let (o, writes) = check("cur_new", &scn);
    assert_eq!(o.finals[sig(2)], lv8(5));
    assert_eq!(o.toggles[sig(2)], 1);
    assert_eq!(writes, 1, "the re-drive of the current value is dropped");
}

#[test]
fn new_then_current_value_glitches_and_both_are_queued() {
    let scn = one_step(vec![Write::SetU64(2, 5)], vec![Write::SetU64(2, 0)]);
    let (o, writes) = check("new_cur", &scn);
    assert_eq!(o.finals[sig(2)], lv8(0));
    assert_eq!(o.toggles[sig(2)], 2, "0 -> 5 -> 0 inside one delta");
    assert_eq!(writes, 2, "a write after a queued one is never dropped");
    assert!(o.vcd.contains("b00000101 $\nb00000000 $\n"), "{}", o.vcd);
    // The glitch wakes the observer once (init eval + one wake).
    assert_eq!(observer_wakes(&o, 2), 2);
}

#[test]
fn current_value_twice_queues_nothing_and_wakes_nobody() {
    let scn = one_step(vec![Write::SetU64(2, 0)], vec![Write::Set(2, lv8(0))]);
    let (o, writes) = check("cur_cur", &scn);
    assert_eq!(o.toggles[sig(2)], 0);
    assert_eq!(writes, 0);
    assert_eq!(observer_wakes(&o, 2), 1, "initial eval only");
}

#[test]
fn a_component_overwriting_its_own_write_keeps_the_last() {
    let scn = one_step(
        vec![
            Write::SetU64(1, 3),
            Write::SetU64(1, 0),
            Write::SetU64(2, 0),
            Write::SetU64(2, 9),
        ],
        vec![],
    );
    let (o, writes) = check("overwrite_own", &scn);
    assert_eq!(o.finals[sig(1)], Lv::from_u64(4, 0));
    assert_eq!(o.toggles[sig(1)], 2);
    assert_eq!(o.finals[sig(2)], lv8(9));
    assert_eq!(o.toggles[sig(2)], 1);
    // s1: both queued; s2: the leading re-drive of 0 dropped. The echo
    // reads s1 after the whole delta applied, so it re-drives s0 = 0.
    assert_eq!(writes, 3);
}

#[test]
fn set_bit_on_a_wider_signal_compares_the_one_bit_value() {
    // `set_bit` writes a 1-bit value whatever the signal's width, so on
    // the 8-bit s2 holding 8-bit 1 it still changes the value, a second
    // `set_bit(true)` then matches, and `set_u64(1)` changes it back.
    let scn = Scenario {
        init: [Some(0), Some(0), Some(1)],
        steps: vec![
            Step {
                writes: [vec![Write::SetBit(2, true)], vec![]],
                ..Step::default()
            },
            Step {
                writes: [vec![Write::SetBit(2, true)], vec![Write::SetBit(2, true)]],
                ..Step::default()
            },
            Step {
                writes: [vec![Write::SetU64(2, 1)], vec![]],
                ..Step::default()
            },
        ],
    };
    let (o, writes) = check("set_bit_wide", &scn);
    assert_eq!(o.toggles[sig(2)], 2);
    assert_eq!(writes, 2);
    assert!(o.vcd.contains("b1 $\n"), "{}", o.vcd);
    assert!(o.vcd.contains("b00000001 $\n"), "{}", o.vcd);
}

#[test]
fn testbench_poke_in_the_same_time_point_is_the_current_value() {
    // The poke to s2 lands before the writers evaluate: writer a's
    // matching write is dropped, writer b's restore of the pre-poke
    // value is queued and toggles back.
    let scn = Scenario {
        init: [Some(0); 3],
        steps: vec![
            Step::default(),
            Step {
                pokes: vec![(2, lv8(7))],
                writes: [vec![Write::SetU64(2, 7)], vec![]],
            },
            Step {
                pokes: vec![(2, lv8(4))],
                writes: [vec![], vec![Write::SetU64(2, 7)]],
            },
        ],
    };
    let (o, writes) = check("poke", &scn);
    assert_eq!(o.finals[sig(2)], lv8(7));
    assert_eq!(o.toggles[sig(2)], 3, "poke 7, poke 4, write 7");
    assert_eq!(writes, 1);
}

// --- Property ---------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Lv> {
    // Few distinct values, so writes often match the current one.
    prop_oneof![
        (0u64..4).prop_map(lv8),
        Just(Lv::xes(8)),
        Just(Lv::from_planes(8, 0, 1)),
    ]
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0usize..3, arb_value()).prop_map(|(s, v)| Write::Set(s, v)),
        (0usize..3, 0u64..4).prop_map(|(s, v)| Write::SetU64(s, v)),
        (0usize..3, any::<bool>()).prop_map(|(s, b)| Write::SetBit(s, b)),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        prop::collection::vec((0usize..3, arb_value()), 0..2),
        prop::collection::vec(arb_write(), 0..5),
        prop::collection::vec(arb_write(), 0..5),
    )
        .prop_map(|(pokes, a, b)| Step {
            pokes,
            writes: [a, b],
        })
}

fn arb_init() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..4).prop_map(Some)]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (arb_init(), arb_init(), arb_init()),
        prop::collection::vec(arb_step(), 1..6),
    )
        .prop_map(|((a, b, c), steps)| Scenario {
            init: [a, b, c],
            steps,
        })
}

proptest! {
    /// Random per-delta write sequences from two components to shared
    /// signals: the kernel matches the apply-every-write reference, and
    /// queues no more writes than were issued.
    #[test]
    fn elision_is_unobservable(scn in arb_scenario()) {
        let (got, writes) = run_kernel(&scn, &vcd_path("prop"));
        let want = Model::run(&scn);
        prop_assert_eq!(&got, &want, "scenario {:#?}", scn);
        let issued: usize = scn.steps.iter().map(|s| s.writes[0].len() + s.writes[1].len()).sum();
        let echoes = got.evals.iter().filter(|e| e.1 == ECHO).count();
        prop_assert!(writes as usize <= issued + echoes);
    }
}
