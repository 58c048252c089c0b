//! Output check: every cell's `SimStats` flattened into named leaf values
//! and folded into a digest.
//!
//! For the default seed the values are compared against the ones recorded
//! with the benchmark (`expected/seed1.txt`), and a mismatch names the
//! first field that differs. On any other seed a digest equal to the
//! recorded one means the seed was ignored. On every seed one cell must
//! give the same digest each time it runs, whichever simulator ran it.

use elf_core::SimStats;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The recorded values for [`crate::workload::DEFAULT_SEED`].
pub const RECORDED: &str = include_str!("../expected/seed1.txt");

/// `SimStats` flattened into `(dotted.field.path, value)` leaves, in
/// declaration order (read off the pretty `Debug` rendering, so new fields
/// are picked up without a hand-kept list).
#[must_use]
pub fn leaves(stats: &SimStats) -> Vec<(String, String)> {
    let text = format!("{stats:#?}");
    // Open containers: (path segment, next positional index).
    let mut open: Vec<(String, usize)> = Vec::new();
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        let t = line.trim().trim_end_matches(',');
        if matches!(t, "}" | "]" | ")") {
            open.pop();
            continue;
        }
        let (name, value) = match t.split_once(": ") {
            Some((n, v)) => (n.to_owned(), v),
            None => {
                let i = open.last_mut().map_or(0, |(_, next)| {
                    *next += 1;
                    *next - 1
                });
                (i.to_string(), t)
            }
        };
        if value.ends_with(['{', '[', '(']) {
            open.push((name, 0));
        } else {
            let mut path: Vec<&str> = open.iter().map(|(s, _)| s.as_str()).collect();
            path.push(&name);
            out.push((path.join("."), value.to_owned()));
        }
    }
    out
}

/// FNV-1a (64-bit) over `name=value` lines.
#[must_use]
pub fn digest(leaves: &[(String, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, value) in leaves {
        for b in name
            .bytes()
            .chain([b'='])
            .chain(value.bytes())
            .chain([b'\n'])
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One recorded cell: its digest and leaf values in field order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorded {
    /// Digest of the leaves.
    pub digest: u64,
    /// Leaf values, in the order [`leaves`] yields them.
    pub values: Vec<String>,
}

/// Parses a recorded-values file: `key digest value...` per line, `#`
/// comments.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_recorded(text: &str) -> Result<HashMap<String, Recorded>, String> {
    let mut out = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(hex)) = (parts.next(), parts.next()) else {
            return Err(format!("recorded values line {}: too few fields", n + 1));
        };
        let digest = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("recorded values line {}: digest {hex:?}: {e}", n + 1))?;
        let values = parts.map(str::to_owned).collect();
        out.insert(key.to_owned(), Recorded { digest, values });
    }
    Ok(out)
}

/// Renders one recorded-values line.
#[must_use]
pub fn render_recorded(key: &str, leaves: &[(String, String)]) -> String {
    let mut s = format!("{key} {:016x}", digest(leaves));
    for (_, v) in leaves {
        let _ = write!(s, " {v}");
    }
    s
}

/// Checks every cell a run produces and counts failures against attempts.
#[derive(Debug)]
pub struct OutputCheck {
    seed: u64,
    recorded: HashMap<String, Recorded>,
    /// First digest seen per cell key, with the simulator that produced it.
    seen: HashMap<String, (u64, &'static str)>,
    /// Cells checked.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// One line per failure, in the order they were found.
    pub errors: Vec<String>,
}

impl OutputCheck {
    /// A check for `seed` against the recorded values in `recorded`.
    ///
    /// # Errors
    ///
    /// Returns the parse error of a malformed recorded-values file.
    pub fn new(seed: u64, recorded: &str) -> Result<Self, String> {
        Ok(OutputCheck {
            seed,
            recorded: parse_recorded(recorded)?,
            seen: HashMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        })
    }

    /// Checks one cell's outcome from `source` (`"Simulator::run"` or
    /// `"traced simulator"`). Returns the cell's digest when it ran.
    pub fn check(
        &mut self,
        key: &str,
        source: &'static str,
        outcome: Result<&SimStats, &str>,
    ) -> Option<u64> {
        self.attempted += 1;
        let stats = match outcome {
            Ok(s) => s,
            Err(e) => {
                self.fail(format!("{key} ({source}): {}", first_line(e)));
                return None;
            }
        };
        let leaves = leaves(stats);
        let d = digest(&leaves);
        if let Some(problem) = self.problem(key, source, &leaves, d) {
            self.fail(format!("{key} ({source}): {problem}"));
        }
        Some(d)
    }

    fn problem(
        &mut self,
        key: &str,
        source: &'static str,
        leaves: &[(String, String)],
        d: u64,
    ) -> Option<String> {
        if let Some(&(first, by)) = self.seen.get(key) {
            if first != d {
                return Some(format!(
                    "digest {d:016x} differs from {first:016x} given earlier by {by}"
                ));
            }
        } else {
            self.seen.insert(key.to_owned(), (d, source));
        }
        let rec = self.recorded.get(key);
        if self.seed != crate::workload::DEFAULT_SEED {
            return rec
                .filter(|r| r.digest == d)
                .map(|_| "digest equals the default seed's: the seed was ignored".to_owned());
        }
        let Some(rec) = rec else {
            return Some("no recorded values for this cell".to_owned());
        };
        if rec.digest == d {
            return None;
        }
        let first_diff = leaves
            .iter()
            .enumerate()
            .find(|(i, (_, v))| rec.values.get(*i) != Some(v));
        Some(match first_diff {
            Some((i, (name, v))) => format!(
                "{name} = {v}, recorded {}",
                rec.values.get(i).map_or("(absent)", String::as_str)
            ),
            None => format!("{} fields, recorded {}", leaves.len(), rec.values.len()),
        })
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            cycles: 1000,
            retired: 2500,
            faq_occupancy: 1.5,
            caches: [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)],
            memdep: (11, 12),
            ..SimStats::default()
        }
    }

    #[test]
    fn leaves_name_nested_and_positional_fields() {
        let l = leaves(&sample());
        let get = |n: &str| l.iter().find(|(k, _)| k == n).map(|(_, v)| v.as_str());
        assert_eq!(get("cycles"), Some("1000"));
        assert_eq!(get("frontend.delivered"), Some("0"));
        assert_eq!(get("btb.lookups"), Some("0"));
        assert_eq!(get("faq_occupancy"), Some("1.5"));
        assert_eq!(get("caches.0.1"), Some("2"));
        assert_eq!(get("caches.4.0"), Some("9"));
        assert_eq!(get("memdep.1"), Some("12"));
        assert_eq!(l.last().map(|(k, _)| k.as_str()), Some("recorder_dropped"));
    }

    #[test]
    fn mismatch_names_the_first_differing_field() {
        let s = sample();
        let text = render_recorded("c", &leaves(&s));
        let mut check = OutputCheck::new(crate::workload::DEFAULT_SEED, &text).unwrap();
        check.check("c", "Simulator::run", Ok(&s));
        assert_eq!(check.failed, 0, "{:?}", check.errors);

        let mut check = OutputCheck::new(crate::workload::DEFAULT_SEED, &text).unwrap();
        let mut other = s.clone();
        other.frontend.delivered = 7;
        check.check("c", "traced simulator", Ok(&other));
        assert_eq!(check.failed, 1);
        assert!(
            check.errors[0].contains("frontend.delivered = 7, recorded 0"),
            "{:?}",
            check.errors
        );
    }

    #[test]
    fn other_seeds_must_move_the_digest_and_repeat_exactly() {
        let s = sample();
        let text = render_recorded("c", &leaves(&s));
        let mut check = OutputCheck::new(crate::workload::DEFAULT_SEED + 1, &text).unwrap();
        check.check("c", "Simulator::run", Ok(&s));
        assert_eq!(
            check.failed, 1,
            "an unchanged digest means the seed was ignored"
        );

        let mut other = s.clone();
        other.cycles += 1;
        let mut check = OutputCheck::new(crate::workload::DEFAULT_SEED + 1, &text).unwrap();
        check.check("c", "Simulator::run", Ok(&other));
        check.check("c", "Simulator::run", Ok(&other));
        assert_eq!(check.failed, 0, "{:?}", check.errors);
        other.cycles += 1;
        check.check("c", "traced simulator", Ok(&other));
        check.check("d", "Simulator::run", Err("wedged\nreport"));
        assert_eq!(check.attempted, 4);
        assert_eq!(check.failed, 2);
    }
}
