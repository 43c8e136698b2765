//! # xsi-conformance — the differential conformance lab
//!
//! A deterministic, seed-pinned fuzzing harness that drives random
//! (cyclic *and* acyclic) graphs and random update sequences through the
//! [`xsi_core::UpdateEngine`] with **all four index families** registered
//! at once, and checks after every operation that each maintained index
//! still agrees with an independent oracle:
//!
//! * **graph + trait invariants** — `Graph::check_consistency` and every
//!   index's `StructuralIndex::check` (validity, chain stability);
//! * **1-index minimality** — [`xsi_core::check`]'s Definition-5 oracle,
//!   sound on *any* graph (Theorem 1 guarantees split/merge keeps the
//!   index minimal even when cycles make the minimum non-unique);
//! * **exactness where exactness is sound** — on acyclic graphs the
//!   1-index partition must equal the naive-fixpoint bisimulation oracle
//!   exactly (up to renumbering); on cyclic graphs it must sit between
//!   the minimum size and the node count. The A(k) chain is compared
//!   exactly against a fresh Paige–Tarjan-style rebuild on *every* graph
//!   (Theorem 2: the maintained chain is minimum on any graph);
//! * **refinement** — the `simple` baseline's partition must refine the
//!   exact k-bisimulation classes; the `propagate` baseline must stay
//!   valid and within the size bounds;
//! * **query agreement** — every generated label-path query evaluated
//!   through each index's own [`xsi_core::IndexQueryView`] (the `simple`
//!   baseline's is the block graph its class assignment induces) must
//!   return the same node set as naive data-graph evaluation.
//!
//! When any check fails, the [`shrink`] module runs a delta-debugging
//! minimizer over the (base graph, op sequence, queries) triple and
//! emits a self-contained replay file ([`Scenario::to_replay`]) plus a
//! ready-to-paste Rust regression test
//! ([`Scenario::to_regression_test`]). The `xsi-fuzz` binary wraps all of
//! this with soak, replay and mutation-smoke modes; see EXPERIMENTS.md.
//!
//! Everything is deterministic: a scenario is fully described by its
//! seed + generator config (or its replay file), so every failure is
//! replayable bit-for-bit with `xsi-fuzz --replay <file>`.

#![forbid(unsafe_code)]

pub mod fault;
pub mod gen;
pub mod harness;
pub mod scenario;
pub mod shrink;

pub use fault::{FaultSpec, FaultyOneIndex};
pub use gen::{generate_scenario, GenConfig};
pub use harness::{run_scenario, run_scenario_traced, Failure, RunReport, TRACE_CAP};
pub use scenario::{Scenario, ScenarioOp};
pub use shrink::{shrink, ShrinkResult};

/// Installs the silent postmortem hook: expected panics (the harness
/// converts them into shrinkable [`Failure`]s) stop spamming stderr
/// during soak runs and shrinking, but each one is still *captured* —
/// message, location, thread, open span stack — into the black-box slot
/// ([`xsi_core::obs::postmortem::last_capture`]), so the driver can
/// dump a postmortem for the final failure it reports. Global and
/// irreversible by design — call it from binaries and tests that probe
/// failing scenarios on purpose.
pub fn silence_panics() {
    xsi_core::obs::postmortem::arm(false);
}
