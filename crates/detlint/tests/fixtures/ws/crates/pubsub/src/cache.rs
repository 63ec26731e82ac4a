//! Fixture: DET008 lock-discipline — a `.lock()` acquisition without a
//! written proof, reached through a passed-in guardable (no `Mutex` token
//! in sight, so DET006 alone cannot catch it).

pub fn violation(slot: &SharedSlot) -> u32 {
    *slot.lock()
}

pub fn decoys(slot: &SharedSlot) -> u32 {
    // det: allow(lock: fixture decoy — host-side metrics sink, never orders simulated state)
    let v = *slot.lock();
    // A comment mentioning .lock() stays silent; so does a string.
    let s = "slot.lock()";
    v + s.len() as u32
}
