//! One run of one workload: the untimed input generation, the timed
//! end-to-end run, the traced per-layer run, and the metrics of each.

use std::time::Instant;

use crate::input::{generate, guard, Fingerprint, Input};
use crate::run::{drop_in, replay, Ctx, Logged, Replay, FAMILIES};
use crate::stats::{self, mean, median, percentile, sorted_scaled, tail_percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{replay_families, Plan, Workload};

/// System set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The timed loop is cut into this many blocks of consecutive steps.
const BLOCKS: usize = 20;

/// The end-to-end latency and throughput metrics come from the
/// 1/`QUIET_SHARE` of blocks with the lowest mean step time. The
/// benchmark shares its host, whose speed swings by tens of percent for
/// seconds to minutes at a time; the quiet blocks are the stretches the
/// host slowed least. (On a shared 2-vCPU container, over ten seeds,
/// this selection cut the runs' spread by a third on average and by up
/// to a half; selecting by block median, or by a reference computation
/// timed at each block boundary, did no better.)
const QUIET_SHARE: usize = 4;

/// The gated tail percentile: p90, or lower where fewer than
/// `stats::MIN_BEYOND` samples lie beyond it. Higher percentiles are
/// reported as details; over ten seeds they spread up to 1.5 times as
/// wide.
const GATED_TAIL: u32 = 90;

/// The traced run covers this share of the timed loop.
pub const TRACED_SHARE: usize = 4;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
    /// Which percentile a `_tail_` metric is, or other context.
    pub note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
        note: String::new(),
    }
}

/// The highest percentile up to `cap` with enough samples beyond it, of
/// ascending microsecond samples, as a metric noting which one it is.
fn tail_metric(name: String, sorted_us: &[f64], cap: u32) -> Metric {
    let p = tail_percentile(sorted_us.len()).min(cap);
    Metric {
        note: format!("p{p}"),
        ..metric(name, percentile(sorted_us, p), "us", sorted_us.len())
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub plan: Plan,
    pub seed: u64,
    pub fingerprint: Fingerprint,
    /// End-to-end metrics, then per-layer metrics (for the modes run).
    pub metrics: Vec<Metric>,
    /// The percentile breakdown behind the latency metrics.
    pub details: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Deterministic digests: identical on every run of one seed.
    pub digests: Vec<(&'static str, u64)>,
    /// The traced run's spans as Chrome trace JSON.
    pub trace: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn absorb(&mut self, ctx: &Ctx) {
        self.attempted += ctx.attempted;
        self.failed += ctx.failed;
        self.failures.extend(ctx.failures.iter().cloned());
    }
}

/// Runs `plan` at `seed` for a timed loop of about `seconds`: the
/// end-to-end run when `e2e`, the traced per-layer run when `layers`.
pub fn run(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    e2e: bool,
    layers: bool,
) -> Result<Outcome, String> {
    let input = generate(plan.dataset, seed);
    if Plan::by_name(plan.name).is_some_and(|p| p.dataset == plan.dataset) {
        guard(plan.name, seed, input.fingerprint)?;
    }
    let mut out = Outcome {
        plan: *plan,
        seed,
        fingerprint: input.fingerprint,
        metrics: Vec::new(),
        details: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        digests: Vec::new(),
        trace: None,
    };
    if e2e {
        run_e2e(plan, seed, seconds, &input, &mut out)?;
    }
    if layers {
        run_layers(plan, seed, seconds, &input, &mut out)?;
    }
    Ok(out)
}

fn run_e2e(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    input: &Input,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let mut fresh = plan.make(seed);
        setups.push(fresh.setup(input, &mut Tracer::off())?);
        w = Some(fresh);
    }
    let mut w = w.expect("SETUP_REPS > 0");
    let mut warm = Ctx::new(Tracer::off());
    w.run(input, plan.warmup, &mut warm);
    let mut ctx = Ctx::new(Tracer::off());
    ctx.absorb_failures(warm);
    let steps = plan.timed_steps(seconds);
    let blocks = BLOCKS.min(steps);
    // Sample counts (steps, primary, secondary) at each block boundary.
    let mut marks = vec![(0, 0, 0)];
    for b in 0..blocks {
        w.run(
            input,
            steps * (b + 1) / blocks - steps * b / blocks,
            &mut ctx,
        );
        marks.push((ctx.steps.len(), ctx.primary.len(), ctx.secondary.len()));
        w.checkpoint(input, &mut ctx);
    }
    let verdict = w.verify(input, seed, &mut ctx);

    // The quiet blocks: the quarter whose mean step time is lowest.
    let mut order: Vec<usize> = (0..blocks).collect();
    order.sort_by_key(|&b| {
        let s = &ctx.steps[marks[b].0..marks[b + 1].0];
        s.iter()
            .sum::<u64>()
            .checked_div(s.len() as u64)
            .unwrap_or(u64::MAX)
    });
    order.truncate((blocks / QUIET_SHARE).max(1));
    order.sort_unstable();
    let pooled = |pick: fn(&(usize, usize, usize)) -> usize, v: &[u64]| -> Vec<u64> {
        order
            .iter()
            .flat_map(|&b| v[pick(&marks[b])..pick(&marks[b + 1])].iter().copied())
            .collect()
    };
    let quiet_steps = pooled(|m| m.0, &ctx.steps);
    let quiet = [
        ("primary", pooled(|m| m.1, &ctx.primary)),
        ("secondary", pooled(|m| m.2, &ctx.secondary)),
    ];

    let setup_s: Vec<f64> = sorted_scaled(&setups, 1e9);
    out.metrics
        .push(metric("setup_s", median(&setup_s), "s", setups.len()));
    let busy_ns: u64 = quiet_steps.iter().sum();
    out.metrics.push(metric(
        "ops_per_s",
        quiet_steps.len() as f64 / (busy_ns.max(1) as f64 / 1e9),
        "ops/s",
        quiet_steps.len(),
    ));
    for (role, samples) in &quiet {
        let us = sorted_scaled(samples, 1e3);
        out.metrics
            .push(metric(format!("{role}_mean_us"), mean(&us), "us", us.len()));
        out.metrics
            .push(tail_metric(format!("{role}_tail_us"), &us, GATED_TAIL));
        let tail = tail_percentile(us.len());
        for p in stats::PERCENTILES.into_iter().filter(|&p| p <= tail) {
            out.details.push(metric(
                format!("{role}_p{p}_us"),
                percentile(&us, p),
                "us",
                us.len(),
            ));
        }
    }
    out.metrics.push(metric(
        "index_bytes_per_node",
        verdict.bytes_per_node,
        "B/node",
        1,
    ));
    out.metrics.push(metric(
        "blocks_over_minimum",
        verdict.blocks_over_minimum,
        "ratio",
        1,
    ));
    out.digests.push(("split_merge", ctx.split_merge.0));
    out.digests.push(("answers", ctx.answers.0));
    out.absorb(&ctx);
    Ok(())
}

/// Sets up, warms up (as one untimed `bench.warmup` span) and returns
/// the workload.
fn prepare(
    plan: &Plan,
    seed: u64,
    input: &Input,
    ctx: &mut Ctx,
) -> Result<Box<dyn Workload>, String> {
    let mut w = plan.make(seed);
    w.setup(input, &mut ctx.tr)?;
    let mut warm = Ctx::new(Tracer::off());
    ctx.tr
        .time("bench.warmup", || w.run(input, plan.warmup, &mut warm));
    ctx.absorb_failures(warm);
    Ok(w)
}

/// Replays `log` on every family directly, each on its own copy of the
/// origin graph; returns how many of the families the engine had
/// registered, and one replay per family.
fn replays_from_origin(
    plan: &Plan,
    seed: u64,
    input: &Input,
    log: &[Logged],
    count: bool,
    ctx: &mut Ctx,
) -> Result<(usize, Vec<Replay>), String> {
    let mut origin = prepare(plan, seed, input, ctx)?;
    let (g, indexes) = origin.origin(input, &mut ctx.tr)?;
    drop_in(&mut ctx.tr, "engine.drop", origin);
    let registered = indexes.len();
    let indexes = replay_families(&g, indexes, &mut ctx.tr);
    let mut replays = Vec::new();
    for (mut idx, fam) in indexes.into_iter().zip(FAMILIES) {
        let (mut copy, _) = ctx.tr.time("graph.clone", || g.clone());
        let t = ctx.tr.start();
        let mut r = replay(&mut copy, &mut *idx, fam, log, count, ctx);
        if count {
            ctx.tr.close(fam.count_pass, t);
        }
        let (report, _) = ctx.tr.time("mem.mem_report", || idx.mem_report());
        r.mem_bytes = report.map_or(0, |m| m.total_bytes());
        r.blocks = idx.block_count();
        drop_in(&mut ctx.tr, "bench.drop", (copy, idx));
        replays.push(r);
    }
    drop_in(&mut ctx.tr, "bench.drop", g);
    Ok((registered, replays))
}

fn run_layers(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    input: &Input,
    out: &mut Outcome,
) -> Result<(), String> {
    let segment = (plan.timed_steps(seconds) / TRACED_SHARE).max(1);

    // The same segment untraced, for the tracing overhead.
    let mut plain = Ctx::new(Tracer::off());
    let untraced_ns = {
        let mut w = prepare(plan, seed, input, &mut plain)?;
        let t = Instant::now();
        w.run(input, segment, &mut plain);
        t.elapsed().as_nanos() as f64
    };

    // The traced run: set-up, the segment with every call spanned and
    // every mutation logged, then the verification phase.
    let mut ctx = Ctx::new(Tracer::on());
    ctx.absorb_failures(plain);
    let mut w = prepare(plan, seed, input, &mut ctx)?;
    ctx.log = Some(Vec::new());
    let t = Instant::now();
    w.run(input, segment, &mut ctx);
    let traced_ns = t.elapsed().as_nanos() as f64;
    w.checkpoint(input, &mut ctx);
    w.verify(input, seed, &mut ctx);
    let final_blocks = w.sut().block_counts();
    drop_in(&mut ctx.tr, "engine.drop", w);
    let log = ctx.log.take().unwrap_or_default();

    // Direct replays of the logged mutations on each family from the
    // segment's starting state: the timed pass, then — from a second,
    // identical start so its span collection cannot disturb the timing —
    // the kernel count pass.
    let (registered, mut replays) = replays_from_origin(plan, seed, input, &log, false, &mut ctx)?;
    for (i, (r, fam)) in replays.iter().zip(FAMILIES).enumerate() {
        if let Some(&live) = final_blocks.get(i) {
            ctx.check(r.blocks == live, || {
                format!(
                    "{}: direct replay ends at {} blocks, engine at {live}",
                    fam.build, r.blocks
                )
            });
        }
    }
    let (_, counted) = replays_from_origin(plan, seed, input, &log, true, &mut ctx)?;
    for (r, c) in replays.iter_mut().zip(counted) {
        r.kernel = c.kernel;
    }

    let m = &mut out.metrics;
    let tr = &ctx.tr;
    let ms = |names: &[&str]| median(&sorted_scaled(&tr.durations(names), 1e6));
    let count = |names: &[&str]| tr.durations(names).len();
    let mean_of = |names: &[&str], scale: f64| mean(&sorted_scaled(&tr.durations(names), scale));

    let parse = ["xml.parse_str"];
    let parse_ms = ms(&parse);
    m.push(metric("xml.parse_ms", parse_ms, "ms", count(&parse)));
    m.push(metric(
        "xml.parse_mb_per_s",
        input.doc.len() as f64 / 1e6 / (parse_ms / 1e3),
        "MB/s",
        count(&parse),
    ));
    let graph_ops = ["graph.insert_edge", "graph.delete_edge"];
    let graph_ns = mean_of(&graph_ops, 1.0);
    m.push(metric(
        "graph.edge_op_ns",
        graph_ns,
        "ns",
        count(&graph_ops),
    ));

    let mut family_call_us = 0.0;
    for (i, (r, fam)) in replays.iter().zip(FAMILIES).enumerate() {
        let layer = trace::layer(fam.build);
        let ops = r.ops.max(1) as f64;
        let hook_us = sorted_scaled(&r.hook_ns, 1e3);
        if i < registered {
            family_call_us += mean(&sorted_scaled(&r.engine_call_ns, 1e3));
        }
        m.push(metric(
            format!("{layer}.build_ms"),
            ms(&[fam.build]),
            "ms",
            count(&[fam.build]),
        ));
        m.push(metric(
            format!("{layer}.maintain_mean_us"),
            mean(&hook_us),
            "us",
            hook_us.len(),
        ));
        m.push(tail_metric(
            format!("{layer}.maintain_tail_us"),
            &hook_us,
            99,
        ));
        m.push(metric(
            format!("{layer}.splits_per_op"),
            r.splits as f64 / ops,
            "1/op",
            r.ops as usize,
        ));
        m.push(metric(
            format!("{layer}.merges_per_op"),
            r.merges as f64 / ops,
            "1/op",
            r.ops as usize,
        ));
        m.push(metric(
            format!("{layer}.noop_pct"),
            100.0 * r.noops as f64 / ops,
            "%",
            r.ops as usize,
        ));
        if fam.build.starts_with("akindex") {
            m.push(metric(
                "akindex.levels_touched_mean",
                r.levels_touched as f64 / ops,
                "levels",
                r.ops as usize,
            ));
        }
        m.push(metric(
            format!("{layer}.blowup_max"),
            r.blowup_max as f64,
            "blocks",
            r.ops as usize,
        ));
        m.push(metric(
            format!("{layer}.blocks"),
            r.blocks as f64,
            "blocks",
            1,
        ));
        for (what, v) in [
            ("scans", r.kernel.scans),
            ("elems", r.kernel.elems),
            ("blocks", r.kernel.blocks),
        ] {
            m.push(metric(
                format!("kernel.{layer}.{what}_per_op"),
                v as f64 / ops,
                "1/op",
                r.ops as usize,
            ));
        }
        m.push(metric(
            format!("mem.{layer}_bytes"),
            r.mem_bytes as f64,
            "B",
            1,
        ));
    }

    let engine_ops = ["engine.insert_edge", "engine.delete_edge"];
    let engine_us = mean_of(&engine_ops, 1e3);
    m.push(metric(
        "engine.op_mean_us",
        engine_us,
        "us",
        count(&engine_ops),
    ));
    m.push(metric(
        "engine.fanout_overhead_pct",
        100.0 * (engine_us - family_call_us - graph_ns / 1e3) / engine_us,
        "%",
        count(&engine_ops),
    ));

    let l = &ctx.layer;
    let batch = sorted_scaled(&tr.durations(&["batch.apply_batch"]), 1e3);
    m.push(metric(
        "batch.apply_p50_us",
        percentile(&batch, 50),
        "us",
        batch.len(),
    ));
    m.push(tail_metric("batch.apply_tail_us".into(), &batch, 99));
    m.push(metric(
        "batch.ops_applied_per_call",
        l.batch_ops as f64 / l.batch_calls.max(1) as f64,
        "ops",
        l.batch_calls as usize,
    ));
    let freezes = l.freezes.max(1) as f64;
    let freeze = sorted_scaled(&tr.durations(&["view.freeze"]), 1e3);
    m.push(metric(
        "view.freeze_p50_us",
        percentile(&freeze, 50),
        "us",
        freeze.len(),
    ));
    m.push(metric(
        "view.cow_clones_per_round",
        l.cow_clones as f64 / freezes,
        "1/round",
        l.freezes as usize,
    ));
    m.push(metric(
        "view.frozen_blocks",
        l.frozen_blocks as f64 / freezes,
        "blocks",
        l.freezes as usize,
    ));

    let index = sorted_scaled(&tr.durations(&["query.eval_index_raw"]), 1e3);
    let oracle = sorted_scaled(&tr.durations(&["query.eval_graph"]), 1e3);
    let (index_p50, oracle_p50) = (percentile(&index, 50), percentile(&oracle, 50));
    m.push(metric(
        "query.index_eval_p50_us",
        index_p50,
        "us",
        index.len(),
    ));
    m.push(tail_metric("query.index_eval_tail_us".into(), &index, 99));
    m.push(metric(
        "query.graph_eval_p50_us",
        oracle_p50,
        "us",
        oracle.len(),
    ));
    m.push(metric(
        "query.index_speedup",
        oracle_p50 / index_p50,
        "x",
        oracle.len(),
    ));
    m.push(metric(
        "query.answer_nodes_mean",
        l.answer_nodes as f64 / l.queries.max(1) as f64,
        "nodes",
        l.queries as usize,
    ));

    let encode = ["snapshot.to_snapshot"];
    let decode = ["snapshot.from_snapshot"];
    m.push(metric(
        "snapshot.encode_ms",
        mean_of(&encode, 1e6),
        "ms",
        count(&encode),
    ));
    m.push(metric(
        "snapshot.decode_ms",
        mean_of(&decode, 1e6),
        "ms",
        count(&decode),
    ));
    m.push(metric(
        "snapshot.bytes_per_node",
        l.snapshot_bytes as f64 / l.snapshot_nodes.max(1) as f64,
        "B/node",
        1,
    ));

    m.push(metric(
        "trace.coverage_pct",
        tr.coverage_pct(),
        "%",
        tr.spans().len(),
    ));
    m.push(metric(
        "trace.overhead_pct",
        100.0 * (traced_ns / untraced_ns.max(1.0) - 1.0),
        "%",
        segment,
    ));

    let mut kernel = stats::Fnv::default();
    for r in &replays {
        for v in [
            r.kernel.scans,
            r.kernel.elems,
            r.kernel.blocks,
            r.splits,
            r.merges,
        ] {
            kernel.u64(v);
        }
    }
    out.digests.push(("traced_split_merge", ctx.split_merge.0));
    out.digests.push(("traced_answers", ctx.answers.0));
    out.digests.push(("kernel_counts", kernel.0));
    out.trace = Some(ctx.tr.chrome_json(plan.name));
    out.absorb(&ctx);
    Ok(())
}
