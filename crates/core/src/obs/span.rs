//! Hierarchical causal spans over the update pipeline — the
//! observability layer's only instrumentation primitive.
//!
//! RAII [`SpanGuard`]s with parent ids and typed [`SpanKind`]s form a
//! tree (`Op` → `IndexDispatch` → `Split` → `CompoundProcess` →
//! `KernelScan`, …) with close-time attached [`SpanCounters`]. A closed
//! pipeline span, with the [`SpanLabel`] the engine gave it, is also the
//! one record type the [`crate::obs::ObsHub`] accepts (a
//! [`LabeledSpan`]): the flight recorder, the JSONL writer, the stable
//! trace and the metrics registry all read it (DESIGN.md §8). Labels
//! are kept in a side table beside the collected records and joined at
//! the hand-over, so a [`SpanRecord`] stays 64 bytes — most of an
//! explicit collection is unlabelled kernel spans.
//!
//! # Single-writer span stack, two ways to arm it
//!
//! The pipeline's write side is single-writer by design (one
//! `UpdateEngine` owns the graph), so span collection is a *thread
//! local* stack: [`SpanGuard::enter`] pushes, `Drop` pops. Thread
//! locality is what lets the kernel's free functions
//! ([`crate::kernel::process_compounds`] and friends) and the
//! maintainers open spans without threading an `&mut ObsHub` through
//! every signature. The stack records when armed, either way:
//!
//! * **explicitly** — [`begin_collection`] arms every kind until
//!   [`end_collection`] hands the finished [`SpanTree`] back (chrome
//!   trace, folded stacks, the benchmark's kernel counters);
//! * **for one engine call** — a `Recording` (started by the engine
//!   whenever its hub is active) arms the pipeline kinds only, and on
//!   `Recording::finish` hands the call's closed pipeline spans, each
//!   with its label, to a sink in open order. Without an explicit
//!   collection the recorded spans are discarded after the hand-over,
//!   so retained span memory is bounded by one engine call. The kernel
//!   kinds (`CompoundProcess`, `KernelScan`) are recorded only
//!   explicitly: they are the bulk of the tree and no hub series reads
//!   them.
//!
//! # Self-overhead contract
//!
//! A span callsite with nothing armed costs *one thread-local read and
//! a branch* — no clock read, no allocation, no record construction.
//! [`SpanGuard::enter`] checks the mode first and returns an inert
//! guard (`id == 0`) whose `Drop` and counter methods are no-ops.
//! `benches/obs_overhead.rs` holds this to "within noise".
//!
//! # Panic balance
//!
//! Guards close in `Drop`, so unwinding through an instrumented region
//! still closes every open span (durations are stamped at unwind time).
//! A guard that is dropped out of open order (stashed in a struct,
//! leaked child) closes every span opened after it as well, so the
//! stack can never wedge. `end_collection` with guards still open
//! simply detaches them: a stale guard holds a generation tag and will
//! not touch a newer collection. A `Recording` dropped without
//! `finish` disarms and hands nothing over (the engine finishes its
//! recording even when the call unwinds).
//!
//! # Timestamps
//!
//! Every collection on a thread stamps times from one per-thread clock
//! origin that is never reset, so the timestamps a thread hands the hub
//! only grow, also across [`begin_collection`] and [`end_collection`].
//!
//! # Overflow policy
//!
//! A collection caps its *kernel* spans (default [`DEFAULT_CAP`]). When
//! full, `enter` counts a kernel span as dropped and returns an inert
//! guard — drop-*newest*, so every recorded parent id stays valid and
//! the open stack stays balanced. [`SpanTree::dropped`] reports the
//! loss. Pipeline spans are never dropped: they are the hub's records,
//! and the hub must see the same records with or without a collection
//! armed. They number a few per op and index, so an explicit collection
//! holds the run's pipeline spans in full, and a per-call recording
//! holds one engine call's.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use super::event::{IndexFamily, LabeledSpan, SpanLabel};

/// Typed span kinds, one per causal layer of the update pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One update operation entering the engine.
    Op,
    /// One registered index observing a mutation (per-family).
    IndexDispatch,
    /// One compound-block iteration of the paper's Fig. 7 loop
    /// (`process_compounds`), or one served work item of a merge fold.
    CompoundProcess,
    /// One splitter scan over `Succ(extent)` (or a whole
    /// `refine_to_fixpoint` run during builds).
    KernelScan,
    /// The split phase of one index's maintenance.
    Split,
    /// The merge phase of one index's maintenance.
    Merge,
    /// One phase segment of a batch application.
    BatchSegment,
    /// A policy-triggered index rebuild.
    Rebuild,
    /// An index being frozen into an in-memory snapshot.
    Freeze,
    /// The conformance lab's oracle battery after one op.
    OracleCheck,
}

impl SpanKind {
    /// Every kind, declaration order.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Op,
        SpanKind::IndexDispatch,
        SpanKind::CompoundProcess,
        SpanKind::KernelScan,
        SpanKind::Split,
        SpanKind::Merge,
        SpanKind::BatchSegment,
        SpanKind::Rebuild,
        SpanKind::Freeze,
        SpanKind::OracleCheck,
    ];

    /// Stable name (trace `kind` field, Chrome-trace `name` field,
    /// folded-stack frame).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "Op",
            SpanKind::IndexDispatch => "IndexDispatch",
            SpanKind::CompoundProcess => "CompoundProcess",
            SpanKind::KernelScan => "KernelScan",
            SpanKind::Split => "Split",
            SpanKind::Merge => "Merge",
            SpanKind::BatchSegment => "BatchSegment",
            SpanKind::Rebuild => "Rebuild",
            SpanKind::Freeze => "Freeze",
            SpanKind::OracleCheck => "OracleCheck",
        }
    }

    /// Pipeline kinds are the hub's records; the kernel kinds
    /// (`CompoundProcess`, `KernelScan`) are recorded only under an
    /// explicit [`begin_collection`].
    pub fn is_pipeline(self) -> bool {
        !matches!(self, SpanKind::CompoundProcess | SpanKind::KernelScan)
    }

    /// Pipeline kinds about one index: the engine opens them per index
    /// (`IndexDispatch`, `Rebuild`, `Freeze`) or they run below such a
    /// span (`Split`, `Merge`), so their hub records always carry a
    /// family.
    pub fn is_family_tagged(self) -> bool {
        matches!(
            self,
            SpanKind::IndexDispatch
                | SpanKind::Split
                | SpanKind::Merge
                | SpanKind::Rebuild
                | SpanKind::Freeze
        )
    }
}

/// Counters attached to a span at close time. All additive; zero means
/// "not applicable to this kind".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Blocks touched (compound members, merge-group sizes, frozen
    /// blocks).
    pub blocks: u64,
    /// Extent elements scanned (splitter-scan result sizes).
    pub elems: u64,
    /// Compound work-queue depth observed at the span's open (peak over
    /// `set_queue_depth` calls).
    pub queue_depth: u64,
    /// Copy-on-write extent clones attributed to the span.
    pub cow_clones: u64,
}

impl SpanCounters {
    /// Elementwise sum (`queue_depth` takes the max — it is a level,
    /// not a volume).
    pub fn absorb(&mut self, other: &SpanCounters) {
        self.blocks += other.blocks;
        self.elems += other.elems;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.cow_clones += other.cow_clones;
    }
}

/// One closed span. Ids are 1-based in open order; `parent == 0` marks
/// a root. Children always appear after their parent in
/// [`SpanTree::spans`], and close before it (RAII), so `dur_nanos` of a
/// parent always covers the sum of its children. 64 bytes: a pipeline
/// span's [`SpanLabel`] travels beside it ([`LabeledSpan`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// 1-based id in open order.
    pub id: u32,
    /// Parent id, or 0 for a root span.
    pub parent: u32,
    /// What layer of the pipeline this span covers.
    pub kind: SpanKind,
    /// Index family, or [`IndexFamily::NONE`] for engine/kernel-level
    /// spans (which inherit the family of their nearest ancestor; a
    /// `Recording` hands records over with the inherited family).
    pub family: IndexFamily,
    /// Open time, nanos since the thread's span clock origin (see the
    /// module docs); 0 on a record built with [`SpanRecord::new`].
    pub ts_nanos: u64,
    /// Close − open, nanos (≥ 1 once closed; 0 only if never closed).
    pub dur_nanos: u64,
    /// Close-time attached counters.
    pub counters: SpanCounters,
}

impl SpanRecord {
    /// A closed root record of `kind` with no family, time or counters —
    /// for callers that hand the hub a record they built themselves (the
    /// conformance lab's `OracleCheck`, which has no timestamp).
    pub fn new(kind: SpanKind) -> SpanRecord {
        SpanRecord {
            id: 0,
            parent: 0,
            kind,
            family: IndexFamily::NONE,
            ts_nanos: 0,
            dur_nanos: 0,
            counters: SpanCounters::default(),
        }
    }
}

/// A finished collection: the span forest plus the overflow count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// All spans in open order (parents before children).
    pub spans: Vec<SpanRecord>,
    /// Kernel spans not recorded because the collection cap was hit.
    pub dropped: u64,
}

impl SpanTree {
    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span with the given 1-based id.
    pub fn get(&self, id: u32) -> Option<&SpanRecord> {
        if id == 0 {
            return None;
        }
        self.spans.get((id - 1) as usize)
    }

    /// How many spans of `kind` were recorded.
    pub fn kind_count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Total duration (self + children, since parents cover children)
    /// over all spans of `kind`. Note nested same-kind spans are each
    /// counted, so only compare against kinds that do not self-nest.
    pub fn kind_nanos(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_nanos)
            .sum()
    }

    /// Counter totals over all spans of `kind`.
    pub fn kind_counters(&self, kind: SpanKind) -> SpanCounters {
        let mut acc = SpanCounters::default();
        for s in self.spans.iter().filter(|s| s.kind == kind) {
            acc.absorb(&s.counters);
        }
        acc
    }

    /// The direct children of span `id` (0 = the roots).
    pub fn children_of(&self, id: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// The family in effect for span `id`: its own, or the nearest
    /// ancestor's (kernel spans are opened below the per-family
    /// `IndexDispatch` span and carry `NONE` themselves).
    pub fn effective_family(&self, id: u32) -> IndexFamily {
        effective_family(&self.spans, id)
    }

    /// True iff every span closed (nonzero duration) and every parent
    /// link points at an earlier span.
    pub fn is_well_formed(&self) -> bool {
        self.spans
            .iter()
            .enumerate()
            .all(|(i, s)| s.id == (i + 1) as u32 && s.parent < s.id && s.dur_nanos > 0)
    }
}

/// The family in effect for span `id` of `spans` (ids are 1-based
/// positions): its own, or the nearest ancestor's.
fn effective_family(spans: &[SpanRecord], id: u32) -> IndexFamily {
    let mut cur = id;
    // Parents have strictly smaller ids, so this walk terminates.
    while let Some(s) = cur.checked_sub(1).and_then(|i| spans.get(i as usize)) {
        if s.family != IndexFamily::NONE {
            return s.family;
        }
        cur = s.parent;
    }
    IndexFamily::NONE
}

/// Default cap on a collection's kernel spans: ~64 MiB of span
/// records, far above any single benchmark run while still bounding a
/// runaway loop.
pub const DEFAULT_CAP: usize = 1 << 20;

struct Collector {
    /// The thread's span clock origin ([`ORIGIN`]).
    epoch: Instant,
    generation: u32,
    spans: Vec<SpanRecord>,
    /// `(span id, label)` for the labelled pipeline spans, in
    /// `set_label` order.
    labels: Vec<(u32, SpanLabel)>,
    stack: Vec<u32>,
    /// Cap on recorded kernel spans.
    cap: usize,
    kernel_spans: usize,
    dropped: u64,
}

impl Collector {
    fn new(cap: usize) -> Collector {
        Collector {
            epoch: ORIGIN.with(|o| *o),
            generation: next_generation(),
            spans: Vec::new(),
            labels: Vec::new(),
            stack: Vec::new(),
            cap: cap.max(1),
            kernel_spans: 0,
            dropped: 0,
        }
    }

    /// Forgets the recorded spans (a per-call recording's reset).
    fn clear(&mut self) {
        self.spans.clear();
        self.labels.clear();
        self.stack.clear();
    }
}

/// [`MODE`] bit: an explicit collection records every kind.
const EXPLICIT: u8 = 1;
/// [`MODE`] bit: a [`Recording`] records the pipeline kinds.
const PIPELINE: u8 = 2;

thread_local! {
    /// Hot-path gate: one read + branch when nothing is armed.
    static MODE: Cell<u8> = const { Cell::new(0) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static GENERATION: Cell<u32> = const { Cell::new(0) };
    /// The thread's span clock origin, fixed by its first collection.
    static ORIGIN: Instant = Instant::now();
}

fn next_generation() -> u32 {
    GENERATION.with(|g| {
        let next = g.get().wrapping_add(1);
        g.set(next);
        next
    })
}

fn set_mode_bit(bit: u8, on: bool) {
    MODE.with(|m| m.set(if on { m.get() | bit } else { m.get() & !bit }));
}

/// Arm span collection on the current thread (default cap).
pub fn begin_collection() {
    begin_collection_with_cap(DEFAULT_CAP)
}

/// Arm span collection on the current thread with an explicit cap on
/// its kernel spans (drop-newest past the cap; pipeline spans are never
/// dropped). Replaces any in-progress collection; guards from the
/// replaced collection become inert.
pub fn begin_collection_with_cap(cap: usize) {
    COLLECTOR.with(|c| *c.borrow_mut() = Some(Collector::new(cap)));
    set_mode_bit(EXPLICIT, true);
}

/// Disarm collection and hand back the finished tree. Returns an empty
/// tree when no collection was active.
pub fn end_collection() -> SpanTree {
    if !is_collecting() {
        return SpanTree::default();
    }
    set_mode_bit(EXPLICIT, false);
    COLLECTOR
        .with(|c| c.borrow_mut().take())
        .map(|col| SpanTree {
            spans: col.spans,
            dropped: col.dropped,
        })
        .unwrap_or_default()
}

/// True while the current thread has an explicit collection armed.
#[inline]
pub fn is_collecting() -> bool {
    MODE.with(|m| m.get() & EXPLICIT != 0)
}

/// Pipeline-span recording for one engine call; see the module docs.
/// Start it with [`Recording::start`], end it with
/// [`Recording::finish`]; dropping it unfinished disarms and hands
/// nothing over.
#[must_use = "a recording hands its spans over in finish"]
pub(crate) struct Recording {
    /// The collector generation and the indexes of the call's first span
    /// and first label; `None` for a nested start (the outer recording
    /// hands over).
    armed: Option<(u32, usize, usize)>,
}

impl Recording {
    /// Arms the pipeline kinds on the current thread. Under an explicit
    /// collection the call's spans are recorded into it (and stay there
    /// after the hand-over); otherwise into a per-thread buffer that
    /// starts empty and is emptied again when the recording ends.
    pub(crate) fn start() -> Recording {
        if MODE.with(|m| m.get() & PIPELINE != 0) {
            return Recording { armed: None };
        }
        let explicit = is_collecting();
        let armed = COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let col = slot.get_or_insert_with(|| Collector::new(DEFAULT_CAP));
            if !explicit {
                // A fresh generation: a guard leaked from an earlier
                // call must not touch this call's reused ids.
                col.generation = next_generation();
                col.clear();
            }
            (col.generation, col.spans.len(), col.labels.len())
        });
        set_mode_bit(PIPELINE, true);
        Recording { armed: Some(armed) }
    }

    /// Hands every pipeline span recorded since [`Recording::start`] to
    /// `sink`, in open order, each with its effective family and its
    /// label; then disarms.
    pub(crate) fn finish(self, mut sink: impl FnMut(&LabeledSpan)) {
        let Some((generation, cursor, label_cursor)) = self.armed else {
            return;
        };
        // Taken out for the hand-over so the sink runs with no borrow of
        // the collector held.
        let taken = COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let col = slot.as_mut().filter(|col| col.generation == generation)?;
            Some((
                std::mem::take(&mut col.spans),
                std::mem::take(&mut col.labels),
            ))
        });
        let Some((spans, mut labels)) = taken else {
            return;
        };
        let call_labels = labels.get_mut(label_cursor..).unwrap_or_default();
        call_labels.sort_by_key(|&(id, _)| id);
        for s in spans.iter().skip(cursor).filter(|s| s.kind.is_pipeline()) {
            let label = call_labels
                .binary_search_by_key(&s.id, |&(id, _)| id)
                .ok()
                .and_then(|i| call_labels.get(i))
                .map_or(SpanLabel::None, |&(_, label)| label);
            sink(&LabeledSpan {
                span: SpanRecord {
                    family: effective_family(&spans, s.id),
                    ..s.clone()
                },
                label,
            });
        }
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                col.spans = spans;
                col.labels = labels;
            }
        });
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        if self.armed.is_none() {
            return;
        }
        set_mode_bit(PIPELINE, false);
        if !is_collecting() {
            let _ = COLLECTOR.try_with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.clear();
                }
            });
        }
    }
}

/// Number of currently-open spans (test hook for panic-balance checks).
pub fn open_depth() -> usize {
    COLLECTOR.with(|c| c.borrow().as_ref().map_or(0, |col| col.stack.len()))
}

/// The currently-open span stack, outermost first, rendered as stable
/// `Kind` / `Kind[family-id]` frames. Empty when nothing is armed;
/// only the pipeline kinds while the engine records a call.
///
/// This is the postmortem hook's view: a panic hook runs *before*
/// unwinding drops the open [`SpanGuard`]s, so calling this from a
/// `std::panic` hook captures exactly where in the pipeline the panic
/// fired (see [`crate::obs::postmortem`]).
pub fn open_spans() -> Vec<String> {
    COLLECTOR.with(|c| {
        let borrow = c.borrow();
        let Some(col) = borrow.as_ref() else {
            return Vec::new();
        };
        col.stack
            .iter()
            .filter_map(|&id| col.spans.get((id - 1) as usize))
            .map(|s| {
                if s.family == IndexFamily::NONE {
                    s.kind.name().to_string()
                } else {
                    format!("{}[{}]", s.kind.name(), s.family.0)
                }
            })
            .collect()
    })
}

/// RAII handle to one open span. Obtained from [`SpanGuard::enter`];
/// the span closes (duration stamped, stack popped) when the guard
/// drops. Inert (all methods no-ops) when collection is off.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard {
    /// 0 = inert (collection off, cap hit, or stale generation).
    id: u32,
    generation: u32,
}

impl SpanGuard {
    /// Open a span with no family attribution. One mode read + branch
    /// when nothing is armed — no clock read, no allocation.
    #[inline]
    pub fn enter(kind: SpanKind) -> SpanGuard {
        Self::enter_family(kind, IndexFamily::NONE)
    }

    /// Open a span attributed to an index family.
    #[inline]
    pub fn enter_family(kind: SpanKind, family: IndexFamily) -> SpanGuard {
        let mode = MODE.with(Cell::get);
        if mode == 0 || (mode == PIPELINE && !kind.is_pipeline()) {
            return SpanGuard {
                id: 0,
                generation: 0,
            };
        }
        Self::enter_slow(kind, family)
    }

    #[cold]
    fn enter_slow(kind: SpanKind, family: IndexFamily) -> SpanGuard {
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(col) = slot.as_mut() else {
                return SpanGuard {
                    id: 0,
                    generation: 0,
                };
            };
            if !kind.is_pipeline() {
                if col.kernel_spans >= col.cap {
                    col.dropped += 1;
                    return SpanGuard {
                        id: 0,
                        generation: 0,
                    };
                }
                col.kernel_spans += 1;
            }
            let id = clamp_id(col.spans.len() + 1);
            let parent = col.stack.last().copied().unwrap_or(0);
            let ts_nanos = nanos_since(col.epoch);
            col.spans.push(SpanRecord {
                id,
                parent,
                kind,
                family,
                ts_nanos,
                dur_nanos: 0,
                counters: SpanCounters::default(),
            });
            col.stack.push(id);
            SpanGuard {
                id,
                generation: col.generation,
            }
        })
    }

    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.id != 0
    }

    /// Add to the blocks-touched counter.
    #[inline]
    pub fn add_blocks(&self, n: u64) {
        self.update(|r| r.counters.blocks += n);
    }

    /// Add to the extent-elements-scanned counter.
    #[inline]
    pub fn add_elems(&self, n: u64) {
        self.update(|r| r.counters.elems += n);
    }

    /// Record the compound work-queue depth (peak is kept).
    #[inline]
    pub fn set_queue_depth(&self, depth: u64) {
        self.update(|r| r.counters.queue_depth = r.counters.queue_depth.max(depth));
    }

    /// Add to the copy-on-write clone counter.
    #[inline]
    pub fn add_cow_clones(&self, n: u64) {
        self.update(|r| r.counters.cow_clones += n);
    }

    /// Set the span's label (pipeline kinds, once per span; see
    /// [`SpanLabel`]).
    #[inline]
    pub(crate) fn set_label(&self, label: SpanLabel) {
        let id = self.id;
        self.with_collector(|col| col.labels.push((id, label)));
    }

    #[inline]
    fn update(&self, f: impl FnOnce(&mut SpanRecord)) {
        let id = self.id;
        self.with_collector(|col| {
            if let Some(rec) = col.spans.get_mut((id - 1) as usize) {
                f(rec);
            }
        });
    }

    /// Runs `f` on the collector this guard records into; nothing for an
    /// inert or stale guard.
    #[inline]
    fn with_collector(&self, f: impl FnOnce(&mut Collector)) {
        if self.id == 0 {
            return;
        }
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                if col.generation == self.generation {
                    f(col);
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        // try_with: a guard dropped during thread teardown must not
        // re-initialize (or panic on) a destroyed thread local.
        let _ = COLLECTOR.try_with(|c| {
            let mut slot = c.borrow_mut();
            let Some(col) = slot.as_mut() else { return };
            if col.generation != self.generation {
                return; // stale guard from a replaced collection
            }
            if !col.stack.contains(&self.id) {
                return; // already closed by an out-of-order ancestor drop
            }
            let now = nanos_since(col.epoch);
            // Close everything opened after us too (leaked children,
            // unwind in odd orders): the stack stays balanced.
            while let Some(top) = col.stack.pop() {
                if let Some(rec) = col.spans.get_mut((top - 1) as usize) {
                    if rec.dur_nanos == 0 {
                        rec.dur_nanos = now.saturating_sub(rec.ts_nanos).max(1);
                    }
                }
                if top == self.id {
                    break;
                }
            }
        });
    }
}

#[inline]
fn nanos_since(epoch: Instant) -> u64 {
    let n = epoch.elapsed().as_nanos();
    if n > u64::MAX as u128 {
        u64::MAX
    } else {
        n as u64
    }
}

#[inline]
fn clamp_id(n: usize) -> u32 {
    // The cap (≤ DEFAULT_CAP by construction in practice, and at most
    // the collector's configured cap) keeps ids far below u32::MAX;
    // saturate defensively rather than truncate.
    if n > u32::MAX as usize {
        u32::MAX
    } else {
        n as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_enter_is_inert() {
        assert!(!is_collecting());
        let g = SpanGuard::enter(SpanKind::Op);
        assert!(!g.is_recording());
        g.add_blocks(5);
        drop(g);
        assert_eq!(end_collection(), SpanTree::default());
    }

    #[test]
    fn nesting_records_parent_links() {
        begin_collection();
        {
            let op = SpanGuard::enter(SpanKind::Op);
            assert!(op.is_recording());
            {
                let d = SpanGuard::enter_family(SpanKind::IndexDispatch, IndexFamily(2));
                let s = SpanGuard::enter(SpanKind::Split);
                s.add_blocks(3);
                s.add_elems(7);
                drop(s);
                drop(d);
            }
        }
        let tree = end_collection();
        assert!(tree.is_well_formed());
        assert_eq!(tree.len(), 3);
        let op = &tree.spans[0];
        let disp = &tree.spans[1];
        let split = &tree.spans[2];
        assert_eq!((op.kind, op.parent), (SpanKind::Op, 0));
        assert_eq!((disp.kind, disp.parent), (SpanKind::IndexDispatch, op.id));
        assert_eq!((split.kind, split.parent), (SpanKind::Split, disp.id));
        assert_eq!(split.counters.blocks, 3);
        assert_eq!(split.counters.elems, 7);
        assert_eq!(tree.effective_family(split.id), IndexFamily(2));
        assert_eq!(tree.effective_family(op.id), IndexFamily::NONE);
        // RAII: children closed no later than their parent's close.
        assert!(split.ts_nanos >= disp.ts_nanos);
        assert!(split.ts_nanos + split.dur_nanos <= disp.ts_nanos + disp.dur_nanos);
    }

    #[test]
    fn panic_unwinding_closes_open_spans() {
        begin_collection();
        let caught = std::panic::catch_unwind(|| {
            let _op = SpanGuard::enter(SpanKind::Op);
            let _scan = SpanGuard::enter(SpanKind::KernelScan);
            panic!("boom");
        });
        assert!(caught.is_err());
        assert_eq!(open_depth(), 0, "unwind must pop every open span");
        let tree = end_collection();
        assert!(tree.is_well_formed(), "unwound spans still get durations");
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn cap_drops_newest_and_counts() {
        begin_collection_with_cap(2);
        let a = SpanGuard::enter(SpanKind::CompoundProcess);
        let b = SpanGuard::enter(SpanKind::KernelScan);
        let c = SpanGuard::enter(SpanKind::KernelScan);
        assert!(a.is_recording() && b.is_recording());
        assert!(!c.is_recording());
        // Pipeline kinds are the hub's records: never dropped.
        let d = SpanGuard::enter(SpanKind::Merge);
        assert!(d.is_recording());
        drop(d);
        drop(c);
        drop(b);
        drop(a);
        let tree = end_collection();
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.dropped, 1);
        assert!(tree.is_well_formed());
        assert_eq!(tree.spans[2].parent, tree.spans[1].id);
    }

    #[test]
    fn span_record_stays_64_bytes() {
        assert_eq!(std::mem::size_of::<SpanRecord>(), 64);
    }

    #[test]
    fn timestamps_do_not_restart_with_a_collection() {
        begin_collection();
        drop(SpanGuard::enter(SpanKind::Op));
        let first = end_collection().spans[0].clone();
        begin_collection();
        drop(SpanGuard::enter(SpanKind::Op));
        let second = end_collection().spans[0].clone();
        assert!(second.ts_nanos >= first.ts_nanos + first.dur_nanos);
    }

    #[test]
    fn stale_guard_from_replaced_collection_is_ignored() {
        begin_collection();
        let stale = SpanGuard::enter(SpanKind::Op);
        begin_collection(); // replaces the collection mid-span
        let fresh = SpanGuard::enter(SpanKind::Rebuild);
        stale.add_blocks(99); // must not touch the fresh collection
        drop(stale);
        drop(fresh);
        let tree = end_collection();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.spans[0].kind, SpanKind::Rebuild);
        assert_eq!(tree.spans[0].counters.blocks, 0);
    }

    #[test]
    fn out_of_order_drop_closes_descendants() {
        begin_collection();
        let outer = SpanGuard::enter(SpanKind::Op);
        let inner = SpanGuard::enter(SpanKind::KernelScan);
        drop(outer); // closes inner too
        assert_eq!(open_depth(), 0);
        drop(inner); // no-op: already closed
        let tree = end_collection();
        assert_eq!(tree.len(), 2);
        assert!(tree.is_well_formed());
    }

    #[test]
    fn recording_hands_over_pipeline_kinds_and_retains_nothing() {
        use crate::obs::event::OpKind;
        let recording = Recording::start();
        let op = SpanGuard::enter(SpanKind::Op);
        op.set_label(SpanLabel::Op(OpKind::InsertEdge));
        let dispatch = SpanGuard::enter_family(SpanKind::IndexDispatch, IndexFamily(3));
        let split = SpanGuard::enter(SpanKind::Split);
        let scan = SpanGuard::enter(SpanKind::KernelScan);
        assert!(
            !scan.is_recording(),
            "kernel kinds need an explicit collection"
        );
        drop((scan, split));
        // Labelled after its child opened: the join is by span id.
        dispatch.set_label(SpanLabel::Dispatch(OpKind::InsertEdge, None));
        drop((dispatch, op));
        let mut got = Vec::new();
        recording.finish(|s| got.push((s.span.kind, s.span.family, s.label)));
        assert_eq!(
            got,
            vec![
                (
                    SpanKind::Op,
                    IndexFamily::NONE,
                    SpanLabel::Op(OpKind::InsertEdge)
                ),
                (
                    SpanKind::IndexDispatch,
                    IndexFamily(3),
                    SpanLabel::Dispatch(OpKind::InsertEdge, None)
                ),
                (SpanKind::Split, IndexFamily(3), SpanLabel::None),
            ]
        );
        // Disarmed, and the call's spans are gone.
        assert!(!SpanGuard::enter(SpanKind::Op).is_recording());
        assert_eq!(open_depth(), 0);
        let mut again = 0;
        Recording::start().finish(|_| again += 1);
        assert_eq!(again, 0);
    }

    #[test]
    fn nested_and_unfinished_recordings_hand_nothing_over() {
        let outer = Recording::start();
        let inner = Recording::start();
        drop(SpanGuard::enter(SpanKind::Op));
        let (mut from_inner, mut from_outer) = (0, 0);
        inner.finish(|_| from_inner += 1);
        outer.finish(|_| from_outer += 1);
        assert_eq!((from_inner, from_outer), (0, 1));

        let unfinished = Recording::start();
        drop(SpanGuard::enter(SpanKind::Op));
        drop(unfinished);
        assert!(!SpanGuard::enter(SpanKind::Op).is_recording());
        let mut leaked = 0;
        Recording::start().finish(|_| leaked += 1);
        assert_eq!(leaked, 0);
    }

    #[test]
    fn recording_inside_an_explicit_collection_keeps_the_tree() {
        begin_collection();
        let recording = Recording::start();
        let op = SpanGuard::enter(SpanKind::Op);
        drop(SpanGuard::enter(SpanKind::KernelScan));
        drop(op);
        let mut kinds = Vec::new();
        recording.finish(|s| kinds.push(s.span.kind));
        assert_eq!(kinds, vec![SpanKind::Op]);
        let tree = end_collection();
        assert_eq!(tree.len(), 2, "the tree keeps the kernel span too");
        assert!(tree.is_well_formed());
    }

    #[test]
    fn queue_depth_keeps_peak() {
        begin_collection();
        let g = SpanGuard::enter(SpanKind::CompoundProcess);
        g.set_queue_depth(3);
        g.set_queue_depth(1);
        drop(g);
        let tree = end_collection();
        assert_eq!(tree.spans[0].counters.queue_depth, 3);
    }
}
