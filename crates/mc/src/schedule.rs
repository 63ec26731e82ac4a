//! The replay-schedule alphabet and its stable text format.
//!
//! A counterexample is a sequence of [`Choice`]s applied to a freshly
//! built world. Because world construction is deterministic and an
//! [`crate::explore::Explorer`] records events by their `(time, seq)`
//! queue keys — which the determinism contract makes stable across
//! replays of the same prefix — a schedule is fully reproducible: the
//! golden fixtures under `crates/bench/tests/golden/` are files in
//! exactly this format.
//!
//! The format is one choice per line, microseconds and sequence numbers
//! in decimal; blank lines and `#` comments are ignored:
//!
//! ```text
//! # drop the rendezvous' JoinAck, then deliver the retry first
//! drop 1000234 17
//! dispatch 1000234 18
//! down 2
//! up 2
//! ```

use totoro_simnet::{EventKey, NodeIdx, SimTime};

/// One scheduling decision at an exploration step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Choice {
    /// Dispatch the pending event queued under `key` next, ahead of the
    /// simulator's normal `(time, seq)` order.
    Dispatch {
        /// The event's queue key.
        key: EventKey,
    },
    /// Remove the pending *delivery* under `key` — a lost message.
    Drop {
        /// The delivery's queue key.
        key: EventKey,
    },
    /// Enqueue a copy of the pending *delivery* under `key`, keeping the
    /// original — a network-duplicated message.
    Duplicate {
        /// The delivery's queue key.
        key: EventKey,
    },
    /// Take `node` down at the current instant (crash injection).
    Down {
        /// The node to fail.
        node: NodeIdx,
    },
    /// Bring `node` back up at the current instant.
    Up {
        /// The node to revive.
        node: NodeIdx,
    },
}

impl Choice {
    /// Whether this choice spends fault budget (everything except a
    /// plain reordered dispatch).
    pub fn is_fault(&self) -> bool {
        !matches!(self, Choice::Dispatch { .. })
    }

    /// Renders the stable one-line form.
    pub fn render(&self) -> String {
        match self {
            Choice::Dispatch { key } => {
                format!("dispatch {} {}", key.time.as_micros(), key.seq)
            }
            Choice::Drop { key } => format!("drop {} {}", key.time.as_micros(), key.seq),
            Choice::Duplicate { key } => format!("dup {} {}", key.time.as_micros(), key.seq),
            Choice::Down { node } => format!("down {node}"),
            Choice::Up { node } => format!("up {node}"),
        }
    }

    /// Parses one line of the replay format. Returns `None` on anything
    /// malformed (unknown verb, wrong arity, non-numeric field).
    pub fn parse(line: &str) -> Option<Choice> {
        let mut it = line.split_whitespace();
        let verb = it.next()?;
        let a = it.next()?.parse::<u64>().ok()?;
        let choice = match verb {
            "down" | "up" => {
                let node = a as NodeIdx;
                if verb == "down" {
                    Choice::Down { node }
                } else {
                    Choice::Up { node }
                }
            }
            "dispatch" | "drop" | "dup" => {
                let seq = it.next()?.parse::<u64>().ok()?;
                let key = EventKey {
                    time: SimTime::from_micros(a),
                    seq,
                };
                match verb {
                    "dispatch" => Choice::Dispatch { key },
                    "drop" => Choice::Drop { key },
                    _ => Choice::Duplicate { key },
                }
            }
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(choice)
    }

    /// Renders a whole schedule, one line per choice, trailing newline.
    pub fn render_schedule(schedule: &[Choice]) -> String {
        let mut out = String::new();
        for c in schedule {
            out.push_str(&c.render());
            out.push('\n');
        }
        out
    }

    /// Parses a schedule: one choice per line, blank lines and lines
    /// starting with `#` skipped. The error names the first malformed
    /// line, 1-based.
    pub fn parse_schedule(text: &str) -> Result<Vec<Choice>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let choice = Choice::parse(line)
                .ok_or_else(|| format!("line {}: malformed choice {line:?}", i + 1))?;
            out.push(choice);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(us: u64, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_micros(us),
            seq,
        }
    }

    #[test]
    fn round_trips_every_variant() {
        let schedule = vec![
            Choice::Dispatch { key: key(1234, 5) },
            Choice::Drop { key: key(0, 0) },
            Choice::Duplicate {
                key: key(u64::from(u32::MAX), 99),
            },
            Choice::Down { node: 3 },
            Choice::Up { node: 3 },
        ];
        let text = Choice::render_schedule(&schedule);
        assert_eq!(Choice::parse_schedule(&text), Ok(schedule));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# counterexample\n\ndispatch 10 1\n  # inline\nup 0\n";
        assert_eq!(
            Choice::parse_schedule(text),
            Ok(vec![
                Choice::Dispatch { key: key(10, 1) },
                Choice::Up { node: 0 }
            ])
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "dispatch 10",
            "drop ten 1",
            "dup 1 2 3",
            "down",
            "teleport 4",
            "up 1 extra",
        ] {
            assert_eq!(Choice::parse(bad), None, "{bad:?} should not parse");
        }
        assert_eq!(
            Choice::parse_schedule("dispatch 10 1\n\n bogus\n"),
            Err("line 3: malformed choice \"bogus\"".to_string())
        );
    }

    /// Schedule-ish fragments, so generated inputs reach every parse path.
    const FRAGMENTS: &[&str] = &[
        "dispatch",
        "drop",
        "dup",
        "down",
        "up",
        "teleport",
        " ",
        "\t",
        "\n",
        "\r\n",
        "#",
        "0",
        "17",
        "-1",
        "18446744073709551616",
        "x",
        "é",
    ];

    proptest::proptest! {
        /// Arbitrary text never panics, and every rejection names a line
        /// of the text, 1-based.
        #[test]
        fn parse_schedule_never_panics_and_errors_name_a_line(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48),
        ) {
            let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            if let Err(e) = Choice::parse_schedule(&text) {
                let line = e
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse::<usize>().ok());
                proptest::prop_assert!(
                    line.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
                    "{e:?} from {text:?}"
                );
            }
        }
    }

    #[test]
    fn fault_classification() {
        assert!(!Choice::Dispatch { key: key(1, 1) }.is_fault());
        for fault in [
            Choice::Drop { key: key(1, 1) },
            Choice::Duplicate { key: key(1, 1) },
            Choice::Down { node: 0 },
            Choice::Up { node: 0 },
        ] {
            assert!(fault.is_fault());
        }
    }
}
