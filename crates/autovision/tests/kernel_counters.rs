//! Exact kernel counters of one golden frame on the default
//! configuration, in both execution modes.
//!
//! The kernel drops non-blocking writes that cannot change their signal,
//! so on the golden design every queued write toggles a signal
//! (`writes == toggles`). The drop is unobservable: evals, deltas,
//! toggles and events are the values the kernel produced before it
//! dropped anything.

use autovision::{AvSystem, SystemConfig};
use rtlsim::ExecMode;

/// (mode, evals, deltas, toggles, events) of one default frame.
const PINNED: [(ExecMode, u64, u64, u64, u64); 2] = [
    (ExecMode::EventDriven, 675_270, 81_191, 96_519, 30_722),
    (ExecMode::Compiled, 208_132, 67_297, 96_519, 30_722),
];

#[test]
fn one_default_frame_queues_only_toggling_writes() {
    for (mode, evals, deltas, toggles, events) in PINNED {
        let cfg = SystemConfig::builder()
            .n_frames(1)
            .exec_mode(mode)
            .build()
            .expect("default one-frame config is valid");
        let mut sys = AvSystem::build(cfg);
        let outcome = sys.run(2_000_000);
        assert!(!outcome.hung, "{mode}: hung");
        assert_eq!(outcome.frames_captured, 1, "{mode}");
        assert!(!sys.sim.has_errors(), "{mode}: {:#?}", sys.sim.messages());
        let st = sys.sim.stats();
        assert_eq!(
            (st.evals, st.deltas, st.toggles, st.events),
            (evals, deltas, toggles, events),
            "{mode}: evals, deltas, toggles, events"
        );
        assert_eq!(
            st.writes, st.toggles,
            "{mode}: a queued write that did not toggle"
        );
    }
}
