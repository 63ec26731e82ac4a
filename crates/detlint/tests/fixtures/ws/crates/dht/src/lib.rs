//! DET004: this crate root lacks `#![forbid(unsafe_code)]`, which a
//! comment cannot supply.
pub fn routing() {}
