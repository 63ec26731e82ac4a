//! DET009: one float sum outside the numeric helpers (line 3).
pub fn violation(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>()
}
pub fn decoys(xs: &[f64], ns: &[u64]) -> u64 {
    // det: allow(float: decoy, max is exactly commutative and associative)
    let peak = xs.iter().fold(0.0f64, |m, &x| m.max(x));
    ns.iter().sum::<u64>() + peak as u64
}
#[cfg(test)]
mod tests {
    fn exempt() -> f32 { [1.0f32].iter().sum() }
}
