//! Deterministic fault-injection points for the engine's decode path.
//!
//! A [`FailPoint`] names a *site* (`seg`, the per-segment decode task,
//! or `arc`, the archive append write path), an optional index (`*`
//! matches every index) and an [`Action`] to take when the site is hit:
//!
//! - `panic` — the worker task panics (exercises the pool's panic
//!   isolation and [`crate::decode::DecodeError::WorkerPanicked`]);
//! - `delay[:millis]` — the task sleeps first (exercises scheduling /
//!   merge ordering under skew; default 1 ms);
//! - `corrupt` — the task's decoded output has its first trit flipped
//!   *after* a successful decode (a torn write: CRC passed, output is
//!   silently wrong — what downstream verification must catch);
//! - `kill` — (site `arc` only) the archive append stops dead once the
//!   armed byte boundary is crossed, leaving exactly `index` bytes of
//!   the append on disk — a deterministic stand-in for `kill -9` used
//!   by the torn-append harness to prove the previous index epoch
//!   stays fully readable.
//!
//! Fail points are configured **per [`Engine`](crate::engine::Engine)**,
//! not process-globally, so concurrently running tests can never arm each
//! other's faults. Two ways in, both only with the `failpoints` cargo
//! feature:
//!
//! - `EngineBuilder::failpoint` in code, or
//! - the [`ENV`] environment variable (`NINEC_FAILPOINT`), parsed once at
//!   [`build`](crate::engine::EngineBuilder::build) time with the spec
//!   grammar below.
//!
//! ```text
//! spec     := point (';' point)*
//! point    := site ':' index ':' action
//! site     := "seg" | "arc"
//! index    := decimal | '*'
//! action   := "panic" | "delay" (':' millis)? | "corrupt" | "kill"
//! ```
//!
//! e.g. `NINEC_FAILPOINT='seg:3:panic'` or `seg:*:delay:5;seg:0:corrupt`.
//!
//! Without the `failpoints` feature nothing can arm a fail point, so the
//! production decode path never fires one; the parser and types stay
//! compiled (they are inert data) to keep the surface testable.

use std::fmt;

/// Environment variable holding a fail-point spec, read at
/// `EngineBuilder::build` when the `failpoints` feature is enabled.
pub const ENV: &str = "NINEC_FAILPOINT";

/// The per-segment decode site name.
pub const SITE_SEG: &str = "seg";

/// The archive append write-path site name. The fail-point *index* is
/// the byte boundary (within one append's writes to the `9ca` data
/// file) past which a [`Action::Kill`] point stops the process's
/// writes, simulating a crash at exactly that offset.
pub const SITE_ARC: &str = "arc";

/// What an armed fail point does when hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Panic inside the worker task.
    Panic,
    /// Sleep before doing the work.
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Flip the first trit of the task's output after a successful
    /// decode (simulates a torn write past the CRC check).
    Corrupt,
    /// Stop an archive append dead at the armed byte boundary: bytes up
    /// to the boundary reach the data file, nothing after does, and the
    /// append returns a torn-write error without ever committing a new
    /// index epoch (simulates `kill -9` mid-append).
    Kill,
}

/// One armed fault-injection point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailPoint {
    /// Site name (today always [`SITE_SEG`]).
    pub site: String,
    /// Segment index to fire on; `None` fires on every index (`*`).
    pub index: Option<usize>,
    /// What to do when hit.
    pub action: Action,
}

impl FailPoint {
    /// `true` when this point covers `site`/`index`.
    #[must_use]
    pub fn matches(&self, site: &str, index: usize) -> bool {
        self.site == site && self.index.is_none_or(|want| want == index)
    }
}

/// First armed action covering `site`/`index`, if any.
#[must_use]
pub fn fire<'a>(points: &'a [FailPoint], site: &str, index: usize) -> Option<&'a Action> {
    points
        .iter()
        .find(|p| p.matches(site, index))
        .map(|p| &p.action)
}

/// A malformed fail-point spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The offending spec fragment.
    pub fragment: String,
    /// What was wrong with it.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fail-point spec {:?}: {}", self.fragment, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Parses a `;`-separated fail-point spec (see the module docs for the
/// grammar). Empty fragments are skipped, so trailing `;` is fine.
///
/// # Errors
///
/// [`ParseError`] naming the first malformed fragment.
pub fn parse_spec(spec: &str) -> Result<Vec<FailPoint>, ParseError> {
    let mut out = Vec::new();
    for fragment in spec.split(';') {
        let fragment = fragment.trim();
        if fragment.is_empty() {
            continue;
        }
        let err = |what| ParseError {
            fragment: fragment.to_string(),
            what,
        };
        let mut parts = fragment.split(':');
        let site = parts.next().unwrap_or_default();
        if site != SITE_SEG && site != SITE_ARC {
            return Err(err("unknown site (expected \"seg\" or \"arc\")"));
        }
        let index = match parts.next() {
            Some("*") => None,
            Some(n) => Some(
                n.parse::<usize>()
                    .map_err(|_| err("index must be a number or '*'"))?,
            ),
            None => return Err(err("missing segment index")),
        };
        let action = match parts.next() {
            Some("panic") => Action::Panic,
            Some("delay") => {
                let millis = match parts.next() {
                    Some(ms) => ms
                        .parse::<u64>()
                        .map_err(|_| err("delay millis must be a number"))?,
                    None => 1,
                };
                Action::Delay { millis }
            }
            Some("corrupt") => Action::Corrupt,
            Some("kill") => Action::Kill,
            _ => {
                return Err(err(
                    "unknown action (panic | delay[:millis] | corrupt | kill)",
                ))
            }
        };
        if matches!(action, Action::Panic | Action::Corrupt | Action::Kill)
            && parts.next().is_some()
        {
            return Err(err("trailing spec components"));
        }
        out.push(FailPoint {
            site: site.to_string(),
            index,
            action,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_points() {
        assert_eq!(
            parse_spec("seg:3:panic").expect("valid"),
            vec![FailPoint {
                site: "seg".into(),
                index: Some(3),
                action: Action::Panic,
            }]
        );
        assert_eq!(
            parse_spec("seg:*:delay").expect("valid"),
            vec![FailPoint {
                site: "seg".into(),
                index: None,
                action: Action::Delay { millis: 1 },
            }]
        );
        assert_eq!(
            parse_spec("seg:0:delay:25").expect("valid"),
            vec![FailPoint {
                site: "seg".into(),
                index: Some(0),
                action: Action::Delay { millis: 25 },
            }]
        );
    }

    #[test]
    fn parses_lists_and_skips_empties() {
        let points = parse_spec("seg:1:panic; seg:*:corrupt;").expect("valid");
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].action, Action::Corrupt);
        assert!(parse_spec("").expect("empty spec is fine").is_empty());
    }

    #[test]
    fn parses_arc_kill_points() {
        assert_eq!(
            parse_spec("arc:47:kill").expect("valid"),
            vec![FailPoint {
                site: "arc".into(),
                index: Some(47),
                action: Action::Kill,
            }]
        );
        assert!(parse_spec("arc:1:kill:now").is_err());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "global:1:panic",
            "seg",
            "seg:x:panic",
            "seg:1:explode",
            "seg:1",
            "seg:1:panic:now",
            "seg:1:delay:soon",
        ] {
            let e = parse_spec(bad).expect_err(bad);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn fire_matches_index_and_wildcard() {
        let points = parse_spec("seg:2:panic;seg:*:delay:9").expect("valid");
        assert_eq!(fire(&points, "seg", 2), Some(&Action::Panic));
        assert_eq!(fire(&points, "seg", 7), Some(&Action::Delay { millis: 9 }));
        assert_eq!(fire(&points, "other", 2), None);
        assert_eq!(fire(&[], "seg", 0), None);
    }
}
