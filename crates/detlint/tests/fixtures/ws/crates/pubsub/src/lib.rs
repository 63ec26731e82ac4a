//! Fixture: DET001 on a bare map (line 8) and on one under the retired
//! `unordered` allow (line 13), whose annotation is itself a DET005 (line
//! 12). Decoys that must NOT be flagged: HashMap here, in raw and plain strings.

#![forbid(unsafe_code)]

pub struct Bad {
    pub timers: HashMap<u64, u64>,
}

pub struct Annotated {
    // det: allow(unordered: key-only lookups; never iterated)
    pub timers: HashMap<u64, u64>,
}

pub fn decoys() -> (&'static str, &'static str) {
    (r#"raw HashMap decoy"#, "string HashMap decoy")
}
