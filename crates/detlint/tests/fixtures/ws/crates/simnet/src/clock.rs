//! DET010: one unchecked `+` on raw micros (line 3).
pub fn violation(t: SimTime, step: SimDuration) -> SimTime {
    SimTime::from_micros(t.as_micros() + step.as_micros())
}
pub fn decoys(t: SimTime) -> SimTime {
    let a = SimTime::from_micros(t.as_micros().saturating_add(5));
    // det: allow(time: decoy, the caller asserts t >= 1)
    a.max(SimTime::from_micros(t.as_micros() - 1))
}
#[cfg(test)]
mod tests {
    fn exempt() -> SimTime { SimTime::from_micros(7 + 8) }
}
