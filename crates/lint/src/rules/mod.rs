//! The lint registry: one [`RuleInfo`] per rule, plus the dispatcher
//! that runs every rule over a parsed [`SourceFile`].
//!
//! Adding a rule = adding a module with a `run(&SourceFile, &mut
//! Vec<Finding>)` function, a [`RuleInfo`] entry here, and a fixture
//! triple (positive / waived / clean) under `tests/fixtures/`.

pub mod cow_discipline;
pub mod dense_side_table;
pub mod hash_iter;
pub mod hygiene;
pub mod mem_accounting;
pub mod obs_coverage;
pub mod panic_reach;
pub mod panics;
pub mod store_discipline;

use crate::callgraph::CallGraph;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use crate::{Finding, RuleInfo, Severity};

/// Every rule the binary knows about, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iter",
        severity: Severity::Deny,
        baselineable: false,
        waivable: true,
        summary: "iteration over HashMap/HashSet whose order can leak into index state or output",
        explain: "\
Iterating a std HashMap/HashSet observes RandomState ordering: two runs \
of the same program (or the same run on another host) visit entries in \
different orders. When that order feeds block identifiers, twin-merge \
choices, serialized output, or trace/metric exports, the system becomes \
nondeterministic — the exact PR 2 incident, where `SimpleAkIndex` leaked \
HashMap iteration order into A(k) block assignment and the conformance \
lab's exact-equality oracle caught it only dynamically, after a fuzz \
soak.

The rule flags `<binder>.iter() / iter_mut / into_iter / keys / values \
/ values_mut / drain / into_keys / into_values` and `for … in <binder>` \
where <binder> was declared (let binding, field, or parameter) with a \
HashMap/HashSet type in the same file.

A finding is suppressed when, within the same or the directly following \
statement, the iteration flows into an order-insensitive sink: a sort \
(`sort`, `sort_unstable*`, `sort_by*`), a collect into an ordered \
container (`BTreeMap`, `BTreeSet`, `BinaryHeap`), or a commutative \
terminal (`sum`, `count`, `max*`, `min*`, `all`, `any`, `product`).

Fix: sort before use, collect into a BTreeMap/BTreeSet, or swap the \
container. If the order provably cannot escape (e.g. it only picks an \
arbitrary representative that is immediately canonicalized), waive with \
`// xsi-lint: allow(hash-iter, <why order cannot escape>)`. This rule \
is NOT baselineable: new hash-order hazards must be fixed or argued, \
never frozen.",
    },
    RuleInfo {
        name: "dense-side-table",
        severity: Severity::Deny,
        baselineable: false,
        waivable: true,
        summary: "HashMap/HashSet keyed by BlockId/ABlockId/NodeId in the dense data plane",
        explain: "\
The store-layer refactor (DESIGN.md §10) moved every per-block and \
per-node side table in the hot maintenance paths onto dense \
representations: generation-checked `SlotMap`s for block storage, \
`Vec`-indexed-by-slot side tables, epoch-stamped `ScratchTable`s for \
per-pass marks, and the adaptive `IedgeMap` for block adjacency. A \
`HashMap`/`HashSet` keyed by one of the handle types (`BlockId`, \
`ABlockId`, `NodeId`) inside `core/src/partition.rs`, `core/src/store/`, \
or either maintainer reintroduces exactly what that refactor removed: \
per-probe hashing and pointer chasing on the split/merge inner loops, \
plus a latent hash-iteration determinism hazard (see `hash-iter`).

The rule flags any `HashMap<K, …>`/`HashSet<K>` whose key type resolves \
to a handle type — including path-qualified (`crate::partition::BlockId`) \
and turbofish (`HashMap::<BlockId, _>`) spellings — in the scoped files. \
Value position is fine; so are BTree containers (sorted, deterministic, \
and acceptable for genuinely sparse cold-path tables).

Fix: index a `Vec` (or `SlotMap` side table) by `handle.index()`, use a \
`ScratchTable` for per-pass transient marks, or a `BTreeMap` for sparse \
cold-path state. If a hash container is genuinely required (e.g. a \
cold-path cache where neither density nor order matters), waive with \
`// xsi-lint: allow(dense-side-table, <why dense/sorted forms don't \
fit>)`. Not baselineable: the dense data plane starts clean and new \
hash side tables must be argued, never frozen.",
    },
    RuleInfo {
        name: "panic-unwrap",
        severity: Severity::Deny,
        baselineable: true,
        waivable: true,
        summary: "`.unwrap()` in non-test library code (ratcheted)",
        explain: "\
`unwrap()` turns a recoverable condition into a process abort with a \
message that names neither the invariant nor the operation — the \
opposite of what a production maintenance engine serving live update \
traffic wants. PR 1 shipped a root-removal atomicity bug whose symptom \
was exactly such an uninformative panic mid-pipeline.

Non-test occurrences count against the ratchet baseline \
(`lint-baseline.json`): existing debt is frozen per (file, rule), and \
any *new* occurrence fails CI. Burn debt down by converting to \
`expect(\"invariant: <what must hold and why>\")` when the condition is \
a genuine internal invariant, or to a `Result` when it is reachable \
from user input. After burning down, re-freeze with `--update-baseline`.",
    },
    RuleInfo {
        name: "panic-expect",
        severity: Severity::Deny,
        baselineable: true,
        waivable: true,
        summary: "`.expect(\"…\")` without an `invariant:`/`checked:` context prefix (ratcheted)",
        explain: "\
`expect` is only better than `unwrap` when the message tells the \
on-call reader what invariant broke. The project convention (DESIGN.md \
§9) is a structured prefix: `expect(\"invariant: <what must hold>\")` \
for internal consistency conditions, `expect(\"checked: <where it was \
checked>\")` when the condition was validated earlier on the same path. \
Messages like `expect(\"child count underflow\")` describe the symptom, \
not the contract, and are flagged.

Occurrences are ratcheted like `panic-unwrap`. Non-literal messages \
(built with `format!` or a variable) are assumed contextful and are \
not flagged.",
    },
    RuleInfo {
        name: "slice-index",
        severity: Severity::Deny,
        baselineable: true,
        waivable: true,
        summary: "panicking `container[index]` expressions in non-test code (ratcheted)",
        explain: "\
`xs[i]`, `map[&k]` and `&s[a..b]` panic on out-of-bounds / missing-key. \
On hot maintenance paths that is often the right trade (bounds are \
structural invariants and `get().expect()` would double-check), so this \
rule exists as a *ratchet and inventory*, not a ban: every existing \
call site is frozen in `lint-baseline.json`; new code is nudged toward \
`get`/`get_mut` + explicit handling, or an \
`// xsi-lint: allow(slice-index, <invariant that bounds it>)` waiver \
that names the bounding invariant.",
    },
    RuleInfo {
        name: "panic-reach",
        severity: Severity::Deny,
        baselineable: true,
        waivable: true,
        summary: "pub entry points in engine/view/maintainers reaching live panic sites (ratcheted per entry)",
        explain: "\
The per-file panic rules see a `.unwrap()` where it is written; they \
cannot see that a `pub` engine entry point reaches it three calls \
deep. This rule runs over the phase-1 workspace symbol table and its \
conservative name-resolution call graph: every `pub fn` in \
`core/src/engine.rs`, `core/src/view.rs`, and the two maintainers is \
an entry point, and each live panic site (non-test `.unwrap()`, \
uncontracted `.expect(\"…\")`, panicking `container[index]`, or an \
explicit `panic!`/`todo!`/`unimplemented!`) reachable from it becomes \
one finding carrying the shortest call chain. Contract expects — \
`expect(\"invariant: …\")` / `expect(\"checked: …\")` — are exempt, as \
are sites whose line carries a waiver for the corresponding per-file \
rule (a waiver argues the site safe; the baseline merely freezes it).

Resolution is name+arity approximate, in the conservative direction: \
trait-method calls fan out to every impl, and arity mismatches fall \
back to all same-name fns. Calls that resolve to *no* workspace fn \
are opaque and assumed non-panicking — the documented false-negative \
class (allocation aborts, `RefCell` borrows, arithmetic overflow in \
std/external code are invisible).

Ratcheted per (entry point, rule): the baseline key is \
`<file>#<Type::fn>`, freezing the *count of reachable sites* for that \
entry — so a brand-new reachable unwrap fails the lint even under an \
entry that already carries debt. Burn debt down by converting sites \
to contract expects or `Result`s; waive a whole entry at its `pub fn` \
line with `// xsi-lint: allow(panic-reach, <why this surface is \
panic-acceptable>)`.",
    },
    RuleInfo {
        name: "store-discipline",
        severity: Severity::Deny,
        baselineable: false,
        waivable: true,
        summary: "raw slot-arena / extent-storage access outside the accessor layer (one helper level deep)",
        explain: "\
The dense store's correctness story (DESIGN.md §10–§11) assumes every \
extent touch goes through the owning index's accessors, where \
generation checks and the CoW gate live. Rust's privacy rules cannot \
enforce that: the maintainers are *child modules* of the index \
modules, so `self.blocks[b].extent` compiles fine from \
`akindex/maintain.rs` even though it bypasses the accessor layer. \
This rule enforces what the compiler cannot.

Tiering: the accessor layer (`core/src/store/`, `kernel.rs`, \
`partition.rs`, `akindex/mod.rs`, `akindex/storage.rs`, \
`oneindex/mod.rs`) may do anything — it *is* the implementation. \
Maintainer modules (the rest of `akindex/`/`oneindex/`) may index the \
arenas for side fields (weights, tree links: that is their job) but \
raw `.extent` field access is flagged. Every other core file is \
flagged for both raw `.extent` access and raw `.blocks[…]` arena \
indexing. Calls to a helper fn whose body raw-accesses the store are \
flagged too (one level of indirection): a helper does not launder \
discipline. Waiving the helper's own access — arguing it safe — also \
un-taints its callers.

Fix: add (or use) an accessor on the owning index. Waive only with \
the argument for why the raw access is sound, e.g. \
`// xsi-lint: allow(store-discipline, FrozenBlock's own field, not \
arena storage)`. Not baselineable: the accessor layer's boundary \
starts clean and stays clean.",
    },
    RuleInfo {
        name: "cow-discipline",
        severity: Severity::Deny,
        baselineable: false,
        waivable: true,
        summary: "extent storage mutated without routing through the CoW gate (make_mut/share/take_unique)",
        explain: "\
Frozen read views (DESIGN.md §11) stay O(1) because live blocks and \
snapshots *share* extent runs; the only thing keeping a frozen reader \
safe from a live writer is that every write goes through \
`CowVec::make_mut`, which clones a shared run before mutating. \
`CowVec` deliberately implements `Deref` but not `DerefMut`, so \
in-place mutation *methods* cannot compile outside the gate. What \
remains expressible is flagged here: whole-handle replacement \
(`….extent = …`) and raw `&mut` borrows of the field \
(`mem::take(&mut ….extent)`, `&mut blk.extent` handed to a helper) — \
both can swap or mutate storage without the shared-run check. Scope: \
all of `core/src/` except `core/src/store/` (the gate itself).

Fix: route the write through `make_mut`, or take ownership via \
`take_unique` (which refuses shared runs). The block-recycling paths \
legitimately swap handles of provably unshared runs; those carry \
waivers stating the ownership argument, e.g. \
`// xsi-lint: allow(cow-discipline, handle swap of a run proven \
unshared by take_unique)`. Not baselineable: a CoW bypass is a \
use-after-free-shaped correctness bug, never debt to freeze.",
    },
    RuleInfo {
        name: "obs-coverage",
        severity: Severity::Deny,
        baselineable: false,
        waivable: true,
        summary: "pub entry points in engine/kernel/maintainers must be instrumented",
        explain: "\
The causal span is the observability layer's one instrumentation \
primitive (DESIGN.md §8): closed pipeline spans feed the flight \
recorder and the metrics, and the kernel spans carry the §5.1 work \
counters. An entry point that skips it leaves silent holes in the \
trace, the metrics and the CompoundProcess accounting — worse than no \
instrumentation at all.

Checked entry points: in `core/src/engine.rs`, \
`core/src/oneindex/maintain.rs` and `core/src/akindex/maintain.rs`, \
every `pub fn` taking `&mut self`, plus snapshot entry points (`pub fn \
freeze*`) and report publishers (`pub fn publish*`) regardless of \
receiver; in `core/src/kernel.rs`, every `pub fn` that threads \
`UpdateStats` (the driver surface — `process_compounds`, \
`refine_to_fixpoint`, `merge_fold`; `CompoundQueue` plumbing is \
exempt). The function (signature or body) must reference the span \
vocabulary (`SpanGuard`, `enter`, `enter_family`, `SpanKind`, a `span` \
binder). In the engine these count too: the per-call recording \
(`Recording`, the `traced` wrapper), the hub (`obs`, `ObsHub`), and \
reporting `UpdateStats` (`UpdateStats`, `stats`, `queue_peak`, \
`levels_touched`), which the engine hands over as the label of the \
op's `IndexDispatch` span. Not in the kernel or the maintainers: \
nearly every fn there threads `UpdateStats`, and phase time is the \
`Split`/`Merge` span duration, so only an opened span counts.

Pure delegators should carry a waiver naming the instrumented callee: \
`// xsi-lint: allow(obs-coverage, delegates to apply_insert, which \
opens the Split/Merge spans)`. Not baselineable: coverage starts \
complete and stays complete.",
    },
    RuleInfo {
        name: "mem-accounting",
        severity: Severity::Deny,
        baselineable: false,
        waivable: true,
        summary: "heap-owning struct fields missing from the type's heap_use() accounting",
        explain: "\
The memory observability layer (DESIGN.md §13) promises that \
`MemReport::total_bytes()` equals the deep `heap_use()` bytes \
*exactly*, and the walker-oracle test pins that equality — but both \
sides of the oracle read the same `heap_use()` implementations, so a \
forgotten field undercounts both sides in lockstep and no dynamic \
check can notice bytes it was never told about. This rule closes the \
loop statically: in any file defining a `heap_use` fn (trait impl or \
inherent) for a locally-declared struct, every named field whose type \
mentions a heap-owning container (Vec, String, BTree*/Hash* maps and \
sets, Arc, Box, Rc, VecDeque, CowVec, IedgeMap, ScratchTable, \
SlotMap) must be named in the `heap_use` body, directly or in a \
same-type method it calls (one level — the `heap_use` → \
`shell_bytes` idiom).

Fix: account the field's bytes. Deliberately-excluded memory (derived \
caches rebuilt on demand, back-references whose bytes another owner \
counts) gets a waiver on the field line stating the exclusion \
argument: `// xsi-lint: allow(mem-accounting, transient memo, \
dropped after each update)`. Not baselineable: the accounting \
contract starts exact and stays exact.",
    },
    RuleInfo {
        name: "forbid-unsafe",
        severity: Severity::Deny,
        baselineable: false,
        waivable: false,
        summary: "crate roots (lib.rs / main.rs / src/bin/*.rs) must carry #![forbid(unsafe_code)]",
        explain: "\
The workspace is pure safe Rust by policy — the algorithms never need \
`unsafe`, and Miri/sanitizer CI only gives blanket guarantees if that \
stays true. `forbid` (not `deny`) so no inner `allow` can re-enable it. \
Every compilation-unit root must carry the attribute: each crate's \
`src/lib.rs` or `src/main.rs`, and every `src/bin/*.rs` (cargo treats \
each as its own crate root). Not waivable; add the attribute.",
    },
    RuleInfo {
        name: "hot-assert",
        severity: Severity::Warn,
        baselineable: false,
        waivable: true,
        summary: "release-mode assert!/assert_eq!/assert_ne! on hot maintenance paths",
        explain: "\
The split/merge inner loops run once per update at production rates; \
their invariant checks belong in `debug_assert!` (exercised by the \
dedicated `release-debug-asserts` CI job with `-C debug-assertions=on`) \
so release builds pay nothing. A bare `assert!` on \
`partition.rs`/`engine.rs`/`batch.rs`/the two `maintain.rs` files is \
either a downgraded debug_assert (fix it) or a deliberate last-line \
release guard — in which case waive with the reason it must survive \
release codegen, e.g. `// xsi-lint: allow(hot-assert, guards memory \
safety of the extent swap)`.",
    },
    RuleInfo {
        name: "todo",
        severity: Severity::Note,
        baselineable: false,
        waivable: true,
        summary: "TODO/FIXME/HACK/XXX comment inventory (informational)",
        explain: "\
Pure inventory: every TODO/FIXME/HACK/XXX comment is listed so the \
backlog is visible in one place (`xsi-lint --json | …`). Never fails \
the run, not even under --deny-all.",
    },
    RuleInfo {
        name: "dead-waiver",
        severity: Severity::Deny,
        baselineable: false,
        waivable: false,
        summary: "waiver comments that suppress zero findings (suppression debt must shrink)",
        explain: "\
A waiver is a standing claim that a specific hazard on a specific \
line was assessed and argued safe. When the code it covered is \
refactored away, the stale comment keeps making that claim — and \
will silently re-suppress the *next* finding that happens to land on \
its line, without anyone re-assessing anything. This meta-rule makes \
the lint self-auditing: any well-formed waiver that suppressed zero \
findings in the current run (and, for the panic-site rules, exempted \
zero panic sites from reachability) is itself a finding. Delete the \
waiver. Not waivable, not baselineable — suppression debt can only \
shrink.",
    },
    RuleInfo {
        name: "stale-baseline",
        severity: Severity::Deny,
        baselineable: false,
        waivable: false,
        summary: "baseline entries whose live count dropped to zero (re-freeze to prune)",
        explain: "\
The ratchet baseline freezes known debt per (file, rule) — or per \
(entry point, rule) for `panic-reach`. When the debt is paid (count \
drops to zero) or the file is deleted, the stale entry would quietly \
grant future regressions a budget: a new `.unwrap()` in a \
once-cleaned file would be absorbed by the leftover allowance. This \
meta-rule flags every baseline entry with a positive budget and zero \
live findings, including entries for files no longer scanned. Run \
`xsi-lint --update-baseline` to prune them (an update run does not \
fail on the very staleness it is about to remove). Not waivable, not \
baselineable.",
    },
    RuleInfo {
        name: "bad-waiver",
        severity: Severity::Deny,
        baselineable: false,
        waivable: false,
        summary: "malformed or unknown xsi-lint waiver comments",
        explain: "\
A waiver that fails to parse (missing reason, bad syntax) or names a \
rule that does not exist would otherwise silently fail to suppress — \
or worse, make a reviewer believe a hazard was assessed when the \
marker is inert. Waivers are load-bearing annotations; broken ones are \
themselves findings. Fix the waiver: \
`// xsi-lint: allow(<rule>, <reason>)` with a real rule name and a \
non-empty reason.",
    },
];

/// Look up a rule's static description.
pub fn info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Run every rule over one file.
pub fn run_all(f: &SourceFile, out: &mut Vec<Finding>) {
    dense_side_table::run(f, out);
    hash_iter::run(f, out);
    panics::run(f, out);
    mem_accounting::run(f, out);
    obs_coverage::run(f, out);
    hygiene::run(f, out);
    // bad-waiver: malformed directives, plus waivers naming unknown rules.
    for bw in &f.bad_waivers {
        out.push(finding(f, "bad-waiver", bw.line, bw.message.clone()));
    }
    for w in &f.waivers {
        if info(&w.rule).is_none() {
            out.push(finding(
                f,
                "bad-waiver",
                w.line,
                format!(
                    "waiver names unknown rule `{}` (known: {})",
                    w.rule,
                    RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                ),
            ));
        }
    }
}

/// Run the interprocedural (phase-2) rules over the workspace symbol
/// table and call graph. Per-file rules see one file at a time; these
/// see all of them.
pub fn run_interproc(
    sources: &[SourceFile],
    table: &SymbolTable,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    panic_reach::run(sources, table, graph, out);
    store_discipline::run(sources, table, graph, out);
    cow_discipline::run(sources, table, graph, out);
}

/// Construct a finding for `rule` at `line`, with severity from the
/// registry and the source line as excerpt.
pub(crate) fn finding(f: &SourceFile, rule: &'static str, line: u32, message: String) -> Finding {
    let severity = info(rule).map(|r| r.severity).unwrap_or(Severity::Deny);
    Finding {
        rule,
        severity,
        path: f.rel_path.clone(),
        line,
        message,
        excerpt: f.line_text(line).trim_end().to_string(),
        suppressed: None,
        ratchet_key: None,
    }
}
