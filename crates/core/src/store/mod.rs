//! # `core::store` — the dense data plane (DESIGN.md §10)
//!
//! The paper's split/merge loops spend their time in exactly three
//! access patterns: *block-by-id* (extent moves, partner allocation),
//! *count-by-neighbor-block* (iedge multiplicities), and
//! *value-by-node* (assignment and position side tables). Before this
//! module those went through `Vec` + hand-rolled free lists and
//! `HashMap`s — the same structure class behind the PR 2/PR 4
//! nondeterminism bug family. The store gives each pattern a dedicated
//! dense structure:
//!
//! * [`SlotMap`] — generation-checked block storage. Recycled slots bump
//!   a generation counter, and every handle ([`SlotKey`]) carries the
//!   generation it was minted with, so a stale handle (held across a
//!   `release`) is caught by `debug_assert` instead of silently reading
//!   the block that reused the slot.
//! * [`IedgeMap`] — adaptive neighbor-count maps. Low-degree blocks (the
//!   overwhelmingly common case in XML block graphs) stay in an inline
//!   sorted array; above [`iedge::INLINE_CAP`] entries the map spills to
//!   a `BTreeMap`. Both representations iterate in sorted key order, so
//!   iteration order can never leak nondeterminism.
//! * [`ScratchTable`] — epoch-stamped dense maps over slot indexes for
//!   the transient per-operation tables (splitter counts, partner
//!   assignment) that used to be freshly allocated `HashMap`s on every
//!   `split_by_set` call.
//! * [`CowVec`] — `Arc`-shared extent runs with copy-on-write mutation,
//!   the storage contract behind [`crate::view::IndexSnapshot`]: a
//!   freeze shares every run in O(1) each, and the writer's next
//!   mutation of a frozen block clones only that block's run.
//!
//! The obs layer reads the iedge maps' representation state (inline vs
//! spilled population, inline occupancy) through the indexes'
//! [`crate::obs::MemReport`].

pub mod cow;
pub mod iedge;
pub mod scratch;
pub mod slot;

pub use cow::CowVec;
pub use iedge::{IedgeMap, IedgeRepr};
pub use scratch::ScratchTable;
pub use slot::{SlotKey, SlotMap};
