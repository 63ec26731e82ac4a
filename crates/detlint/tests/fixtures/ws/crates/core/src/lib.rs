//! DET005: an unknown class (line 4), a class clippy holds now (5), and
//! a missing reason (6).
#![forbid(unsafe_code)]
// det: allow(speed: this class does not exist)
pub fn f() {} // det: allow(golden_out: prints are clippy's disallowed_macros)
pub fn g() {} // det: allow(float)
