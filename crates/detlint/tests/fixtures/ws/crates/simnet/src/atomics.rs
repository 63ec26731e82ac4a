//! DET007: a bare `Relaxed` (line 10) and an op with no ordering (11).
use std::sync::atomic::{AtomicU64, Ordering};
pub static A: AtomicU64 = AtomicU64::new(0);
pub fn decoys() {
    A.store(1, Ordering::SeqCst); // Ordering::Relaxed and .load() in a comment
    A.store(2, Ordering::Relaxed); // det: allow(ordering: decoy, never read back)
}
// det: allow(ordering: stale decoy, nothing to suppress on the next line)
pub fn violations() {
    A.store(3, Ordering::Relaxed);
    let _ = A.load();
}
