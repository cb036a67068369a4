//! String strategies from a small regex subset.
//!
//! Upstream proptest treats `&str` as a regex over generated strings.
//! The workspace's tests only use patterns of concatenated atoms —
//! literal characters, `.`, and character classes like `[a-zA-Z0-9_.-]`
//! — each with an optional `{n}` / `{m,n}` / `*` / `+` / `?` repetition,
//! so that is exactly what this parser supports. Unsupported syntax
//! panics at sampling time with the offending pattern.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

#[derive(Debug, Clone)]
enum CharSet {
    /// `.`: any character except `\n` / `\r`.
    Any,
    /// A literal character.
    Lit(char),
    /// `[...]`: inclusive ranges plus standalone characters.
    Class(Vec<(char, char)>),
}

#[derive(Debug, Clone)]
struct Atom {
    set: CharSet,
    min: usize,
    max: usize,
}

fn parse_pattern(pattern: &str) -> Vec<Atom> {
    let mut chars = pattern.chars().peekable();
    let mut atoms = Vec::new();
    while let Some(c) = chars.next() {
        let set = match c {
            '.' => CharSet::Any,
            '\\' => CharSet::Lit(
                chars
                    .next()
                    .unwrap_or_else(|| panic!("dangling escape in pattern {pattern:?}")),
            ),
            '[' => {
                let mut ranges = Vec::new();
                loop {
                    let lo = match chars.next() {
                        Some(']') => break,
                        Some('\\') => chars
                            .next()
                            .unwrap_or_else(|| panic!("dangling escape in pattern {pattern:?}")),
                        Some(ch) => ch,
                        None => panic!("unterminated class in pattern {pattern:?}"),
                    };
                    // `a-z` is a range unless the '-' is last in the class.
                    if chars.peek() == Some(&'-') {
                        let mut ahead = chars.clone();
                        ahead.next();
                        if ahead.peek().is_some_and(|&ch| ch != ']') {
                            chars.next();
                            let hi = chars.next().unwrap();
                            assert!(lo <= hi, "inverted range in pattern {pattern:?}");
                            ranges.push((lo, hi));
                            continue;
                        }
                    }
                    ranges.push((lo, lo));
                }
                assert!(!ranges.is_empty(), "empty class in pattern {pattern:?}");
                CharSet::Class(ranges)
            }
            '(' | ')' | '|' | '^' | '$' => {
                panic!("unsupported regex syntax {c:?} in pattern {pattern:?}")
            }
            other => CharSet::Lit(other),
        };
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut first = String::new();
                let mut second: Option<String> = None;
                loop {
                    match chars.next() {
                        Some('}') => break,
                        Some(',') => second = Some(String::new()),
                        Some(d) if d.is_ascii_digit() => match &mut second {
                            Some(s) => s.push(d),
                            None => first.push(d),
                        },
                        other => panic!("bad repetition {other:?} in pattern {pattern:?}"),
                    }
                }
                let lo: usize = first.parse().expect("repetition lower bound");
                let hi = match second {
                    Some(s) if s.is_empty() => lo + 16,
                    Some(s) => s.parse().expect("repetition upper bound"),
                    None => lo,
                };
                (lo, hi)
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            _ => (1, 1),
        };
        assert!(min <= max, "inverted repetition in pattern {pattern:?}");
        atoms.push(Atom { set, min, max });
    }
    atoms
}

/// Characters `.` may produce beyond printable ASCII, to exercise
/// multi-byte UTF-8 paths. Excludes `\n`/`\r` like regex `.`.
const WIDE_POOL: &[char] = &['£', 'é', 'ß', '中', '日', '🎉', '\t', '\u{7f}', '"', '\\'];

fn sample_char(set: &CharSet, rng: &mut TestRng) -> char {
    match set {
        CharSet::Lit(c) => *c,
        CharSet::Any => {
            if rng.unit_f64() < 0.85 {
                (0x20 + (rng.next_u64() % 0x5F) as u8) as char
            } else {
                WIDE_POOL[rng.usize_in(0, WIDE_POOL.len())]
            }
        }
        CharSet::Class(ranges) => {
            let total: u64 = ranges
                .iter()
                .map(|&(lo, hi)| u64::from(hi) - u64::from(lo) + 1)
                .sum();
            let mut pick = rng.next_u64() % total;
            for &(lo, hi) in ranges {
                let span = u64::from(hi) - u64::from(lo) + 1;
                if pick < span {
                    return char::from_u32(lo as u32 + pick as u32).expect("class char");
                }
                pick -= span;
            }
            unreachable!("pick within total")
        }
    }
}

impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> Option<String> {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let count = if atom.min == atom.max {
                atom.min
            } else {
                rng.usize_in(atom.min, atom.max + 1)
            };
            for _ in 0..count {
                out.push(sample_char(&atom.set, rng));
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use pcsi_sim::DetRng;

    use super::*;

    fn gen(pattern: &'static str, seed: u64) -> String {
        let mut rng = TestRng(DetRng::seeded(seed));
        pattern.sample(&mut rng).unwrap()
    }

    #[test]
    fn class_with_ranges_and_literals() {
        for seed in 0..50 {
            let s = gen("[a-zA-Z0-9_.-]{1,16}", seed);
            assert!((1..=16).contains(&s.chars().count()), "{s:?}");
            assert!(
                s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{s:?}"
            );
        }
    }

    #[test]
    fn leading_literal_then_class() {
        for seed in 0..50 {
            let s = gen("/[a-z0-9/]{1,24}", seed);
            assert!(s.starts_with('/'), "{s:?}");
            assert!((2..=25).contains(&s.chars().count()), "{s:?}");
        }
    }

    #[test]
    fn printable_ascii_range_class() {
        for seed in 0..50 {
            let s = gen("[ -~]{0,32}", seed);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn dot_excludes_newlines() {
        for seed in 0..200 {
            let s = gen(".{0,24}", seed);
            assert!(!s.contains('\n') && !s.contains('\r'), "{s:?}");
            assert!(s.chars().count() <= 24, "{s:?}");
        }
    }

    #[test]
    fn exact_repetition() {
        let s = gen("[a-f]{8}", 3);
        assert_eq!(s.chars().count(), 8);
    }
}
