//! Workload drivers: run the paper's mixed insert/delete protocol through
//! a chosen maintenance algorithm, sampling the quality metric and
//! separating update time from reconstruction time.
//!
//! There is exactly **one** driver loop, [`run_mixed_updates`], and it
//! runs through an [`UpdateEngine`]: the engine's fan-out core times the
//! maintenance hooks and its rebuild policy triggers and times the
//! reconstructions, so experiments measure the same pipeline every other
//! caller uses. The [`Algo1`]/[`AlgoAk`] entry points used by the
//! experiment binaries map an algorithm name to a boxed index plus a
//! rebuild-policy flag and delegate.

use std::time::Duration;
use xsi_core::{
    check, AkIndex, IndexHandle, OneIndex, PropagateOneIndex, SimpleAkIndex, StructuralIndex,
    UpdateEngine,
};
use xsi_graph::{EdgeKind, Graph};
use xsi_workload::EdgePool;

/// 1-index maintenance algorithm under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo1 {
    /// The paper's split/merge algorithm (Figure 3).
    SplitMerge,
    /// The propagate baseline: splits only, no merges, no reconstruction.
    Propagate,
    /// Propagate plus the 5 %-growth reconstruction heuristic.
    PropagateWithRebuild,
}

/// A(k)-index maintenance algorithm under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoAk {
    /// The paper's split/merge algorithm on the refinement tree (Fig. 7).
    SplitMerge,
    /// The simple BFS-repartition baseline, no reconstruction.
    Simple,
    /// The simple baseline plus the 5 %-growth reconstruction heuristic.
    SimpleWithRebuild,
}

/// One point on a quality curve.
#[derive(Clone, Copy, Debug)]
pub struct QualitySample {
    /// Number of single-edge updates applied so far (2 per pair).
    pub updates: usize,
    /// Index size at this point.
    pub index_size: usize,
    /// Size of the (freshly computed) minimum index.
    pub minimum_size: usize,
    /// The paper's quality metric: `index_size / minimum_size − 1`.
    pub quality: f64,
}

/// Everything a driver run produces.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Quality curve, one sample every `sample_every` update pairs.
    pub samples: Vec<QualitySample>,
    /// Wall-clock time spent inside maintenance calls.
    pub update_time: Duration,
    /// Wall-clock time spent inside reconstructions.
    pub rebuild_time: Duration,
    /// Number of reconstructions triggered.
    pub rebuild_count: usize,
    /// Total single-edge updates applied.
    pub updates: usize,
    /// Index size at the end of the run.
    pub final_size: usize,
}

impl RunSummary {
    /// Average time per update, excluding reconstructions (the paper's
    /// "pure" update time of Figure 11).
    pub fn avg_update(&self) -> Duration {
        self.update_time / self.updates.max(1) as u32
    }

    /// Average time per update including amortized reconstruction cost.
    pub fn avg_update_with_rebuild(&self) -> Duration {
        (self.update_time + self.rebuild_time) / self.updates.max(1) as u32
    }
}

/// Runs `pairs` insert+delete pairs through any [`StructuralIndex`]'s
/// maintenance hooks, with `idx` (built over `g`) registered in an
/// [`UpdateEngine`] that owns `g` for the run and hands it back after.
/// Quality is sampled every `sample_every` pairs against the family's
/// freshly built minimum index ([`StructuralIndex::minimum_block_count`],
/// not charged to the run). With `with_rebuild` the index is registered
/// with the engine's 5 %-growth rebuild policy, which triggers
/// [`StructuralIndex::rebuild`] after any update that exceeds the
/// threshold; the summary's times are the engine's
/// [`xsi_core::EngineStats`] update and rebuild times.
pub fn run_mixed_updates(
    g: &mut Graph,
    pool: &mut EdgePool,
    pairs: usize,
    sample_every: usize,
    idx: Box<dyn StructuralIndex>,
    with_rebuild: bool,
) -> RunSummary {
    let mut engine = UpdateEngine::new(std::mem::take(g));
    let h = if with_rebuild {
        engine.register_with_policy(idx)
    } else {
        engine.register(idx)
    };
    let mut samples = vec![sample(&engine, h, 0)];
    for pair in 1..=pairs {
        let Some((u, v)) = pool.next_insert() else {
            break;
        };
        engine.insert_edge(u, v, EdgeKind::IdRef).expect("insert");
        let Some((u, v)) = pool.next_delete() else {
            break;
        };
        engine.delete_edge(u, v).expect("delete");
        if pair % sample_every == 0 || pair == pairs {
            samples.push(sample(&engine, h, engine.stats().ops));
        }
    }
    let stats = *engine.stats();
    let final_size = engine.index(h).block_count();
    *g = engine.into_parts().0;
    RunSummary {
        samples,
        update_time: stats.update_time,
        rebuild_time: stats.rebuild_time,
        rebuild_count: stats.rebuilds,
        updates: stats.ops,
        final_size,
    }
}

fn sample(engine: &UpdateEngine, h: IndexHandle, updates: usize) -> QualitySample {
    let idx = engine.index(h);
    let minimum = idx.minimum_block_count(engine.graph());
    QualitySample {
        updates,
        index_size: idx.block_count(),
        minimum_size: minimum,
        quality: check::quality(idx.block_count(), minimum),
    }
}

/// Runs `pairs` insert+delete pairs on the 1-index with the given
/// algorithm. The index is built after pool extraction (so it reflects
/// the initial graph). (Thin wrapper over [`run_mixed_updates`].)
pub fn run_mixed_updates_1index(
    g: &mut Graph,
    pool: &mut EdgePool,
    pairs: usize,
    sample_every: usize,
    algo: Algo1,
) -> RunSummary {
    let (idx, with_rebuild): (Box<dyn StructuralIndex>, bool) = match algo {
        Algo1::SplitMerge => (Box::new(OneIndex::build(g)), false),
        Algo1::Propagate => (Box::new(PropagateOneIndex::build(g)), false),
        Algo1::PropagateWithRebuild => (Box::new(PropagateOneIndex::build(g)), true),
    };
    run_mixed_updates(g, pool, pairs, sample_every, idx, with_rebuild)
}

/// Runs `pairs` insert+delete pairs on the A(k)-index with the given
/// algorithm. (Thin wrapper over [`run_mixed_updates`].)
pub fn run_mixed_updates_ak(
    g: &mut Graph,
    k: usize,
    pool: &mut EdgePool,
    pairs: usize,
    sample_every: usize,
    algo: AlgoAk,
) -> RunSummary {
    let (idx, with_rebuild): (Box<dyn StructuralIndex>, bool) = match algo {
        AlgoAk::SplitMerge => (Box::new(AkIndex::build(g, k)), false),
        AlgoAk::Simple => (Box::new(SimpleAkIndex::build(g, k)), false),
        AlgoAk::SimpleWithRebuild => (Box::new(SimpleAkIndex::build(g, k)), true),
    };
    run_mixed_updates(g, pool, pairs, sample_every, idx, with_rebuild)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsi_workload::{generate_xmark, XmarkParams};

    fn setup(scale: f64) -> (Graph, EdgePool) {
        let mut g = generate_xmark(&XmarkParams::new(scale, 1.0, 11));
        let pool = EdgePool::extract(&mut g, 0.2, 11);
        (g, pool)
    }

    #[test]
    fn split_merge_quality_stays_near_zero() {
        let (mut g, mut pool) = setup(0.01);
        let s = run_mixed_updates_1index(&mut g, &mut pool, 30, 10, Algo1::SplitMerge);
        assert_eq!(s.updates, 60);
        for sample in &s.samples {
            assert!(
                sample.quality < 0.03,
                "split/merge quality {} too high",
                sample.quality
            );
        }
        assert_eq!(s.rebuild_count, 0);
    }

    #[test]
    fn propagate_quality_degrades() {
        let (mut g, mut pool) = setup(0.01);
        let s = run_mixed_updates_1index(&mut g, &mut pool, 30, 30, Algo1::Propagate);
        let last = s.samples.last().unwrap();
        let first = &s.samples[0];
        assert!(last.quality >= first.quality, "propagate never improves");
        assert!(last.index_size >= last.minimum_size);
    }

    #[test]
    fn propagate_with_rebuild_bounds_quality() {
        let (mut g, mut pool) = setup(0.01);
        let s = run_mixed_updates_1index(&mut g, &mut pool, 60, 20, Algo1::PropagateWithRebuild);
        // The 5 % trigger keeps quality bounded by ~5 % + one update drift.
        for sample in &s.samples {
            assert!(sample.quality < 0.10, "rebuild failed to bound quality");
        }
    }

    #[test]
    fn ak_split_merge_quality_is_zero() {
        let (mut g, mut pool) = setup(0.01);
        let s = run_mixed_updates_ak(&mut g, 2, &mut pool, 20, 10, AlgoAk::SplitMerge);
        for sample in &s.samples {
            assert_eq!(
                sample.quality, 0.0,
                "Theorem 2: split/merge maintains the minimum"
            );
        }
    }

    #[test]
    fn ak_simple_quality_grows() {
        let (mut g, mut pool) = setup(0.01);
        let s = run_mixed_updates_ak(&mut g, 2, &mut pool, 30, 30, AlgoAk::Simple);
        let last = s.samples.last().unwrap();
        assert!(last.index_size >= last.minimum_size);
    }

    /// The generic runner accepts any index family directly — the form
    /// new experiments should use.
    #[test]
    fn generic_runner_drives_any_family() {
        let (mut g, mut pool) = setup(0.01);
        let idx = Box::new(SimpleAkIndex::build(&g, 2));
        let s = run_mixed_updates(&mut g, &mut pool, 10, 5, idx, true);
        assert_eq!(s.updates, 20);
        // The engine hands the churned graph back.
        assert!(g.edge_count() > 0);
        assert_eq!(s.final_size, s.samples.last().unwrap().index_size);
        for sample in &s.samples {
            assert!(sample.index_size >= sample.minimum_size);
        }
    }
}
