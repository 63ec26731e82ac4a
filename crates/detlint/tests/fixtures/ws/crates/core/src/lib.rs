//! Fixture: two deliberate DET005 violations — an unknown allow class
//! (line 6) and a missing reason (line 8).

#![forbid(unsafe_code)]

// det: allow(speed: this class does not exist)
pub fn f() {}
pub fn g() {} // det: allow(float)
