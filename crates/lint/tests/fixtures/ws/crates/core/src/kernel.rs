//! Fixture for `obs-coverage` in the kernel: one uninstrumented loop over
//! the partition, one waived delegator, one instrumented loop, and exempt
//! queue plumbing (no `Partition` in the signature).

pub struct Partition {
    pending: Vec<u32>,
}

pub struct Queue {
    fifo: Vec<u32>,
}

/// Positive: a kernel loop taking the partition with no causal span
/// anywhere in its body.
pub fn refine_pass(p: &mut Partition, q: &mut Queue) {
    q.fifo.push(1);
    p.pending.clear();
}

// xsi-lint: allow(obs-coverage, delegates to refine_pass, which opens the guard)
pub fn refine_waived(p: &mut Partition, q: &mut Queue) {
    refine_pass(p, q);
}

/// Clean: opens a guard before touching the partition.
pub fn refine_instrumented(p: &mut Partition, q: &mut Queue) {
    let sp = SpanGuard::enter(SpanKind::KernelScan);
    q.fifo.push(1);
    p.pending.clear();
    drop(sp);
}

impl Queue {
    /// Exempt: queue plumbing, no `Partition` in the signature.
    pub fn push(&mut self, b: u32) {
        self.fifo.push(b);
    }
}
