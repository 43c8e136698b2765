//! Fixture for `obs-coverage` in the kernel: one uninstrumented driver entry point,
//! one waived delegator, one instrumented driver, and exempt queue
//! plumbing (no `UpdateStats` in the signature).

pub struct Driver {
    pending: Vec<u32>,
}

pub struct UpdateStats {
    pub scans: u64,
}

/// Positive: a kernel driver threading `UpdateStats` with no causal
/// span anywhere in its body.
pub fn refine_pass(d: &mut Driver, stats: &mut UpdateStats) {
    stats.scans += 1;
    d.pending.clear();
}

// xsi-lint: allow(obs-coverage, delegates to refine_pass, which opens the guard)
pub fn refine_waived(d: &mut Driver, stats: &mut UpdateStats) {
    refine_pass(d, stats);
}

/// Clean: opens a guard before touching the driver.
pub fn refine_instrumented(d: &mut Driver, stats: &mut UpdateStats) {
    let sp = SpanGuard::enter(SpanKind::KernelScan);
    stats.scans += 1;
    d.pending.clear();
    drop(sp);
}

impl Driver {
    /// Exempt: queue plumbing, no `UpdateStats` in the signature.
    pub fn push(&mut self, b: u32) {
        self.pending.push(b);
    }
}
