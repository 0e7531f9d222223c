//! Execution strategies and attempt budgets.

use std::fmt;
use std::str::FromStr;

/// Which execution-path algorithm a data structure runs with (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The original lock-free tree-update template: every operation runs on
    /// the software path using the CAS-based LLX/SCX.
    NonHtm,
    /// Transactional lock elision: sequential code in a transaction that
    /// subscribes to a global lock; the fallback acquires the lock and runs
    /// the same sequential code. Deadlock-free but not lock-free.
    Tle,
    /// Two paths, concurrency allowed: the fast path runs the template
    /// operation in a transaction using the HTM LLX/SCX (instrumented), so
    /// it may run concurrently with fallback-path operations.
    TwoPathCon,
    /// Two paths, concurrency disallowed: uninstrumented sequential fast
    /// path that aborts when the fallback count `F` is non-zero and waits
    /// for `F = 0` before each attempt.
    TwoPathNonCon,
    /// The paper's three-path algorithm: uninstrumented fast path (aborts
    /// if `F != 0`, never waits), instrumented HTM middle path (runs
    /// concurrently with both others), lock-free fallback.
    ThreePath,
}

impl Strategy {
    /// All strategies, in the order the paper's figures present them.
    pub const ALL: [Strategy; 5] = [
        Strategy::NonHtm,
        Strategy::Tle,
        Strategy::TwoPathCon,
        Strategy::TwoPathNonCon,
        Strategy::ThreePath,
    ];

    /// The four series plotted in Figures 14/15 (the paper omits 2-path
    /// non-con from its graphs because it performs like TLE).
    pub const FIGURE_SERIES: [Strategy; 4] = [
        Strategy::NonHtm,
        Strategy::Tle,
        Strategy::TwoPathCon,
        Strategy::ThreePath,
    ];

    /// Whether this strategy guarantees lock-freedom.
    pub fn is_lock_free(self) -> bool {
        !matches!(self, Strategy::Tle)
    }

    /// Whether the strategy has a distinct middle path.
    pub fn has_middle_path(self) -> bool {
        matches!(self, Strategy::ThreePath)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::NonHtm => "non-htm",
            Strategy::Tle => "tle",
            Strategy::TwoPathCon => "2-path-con",
            Strategy::TwoPathNonCon => "2-path-noncon",
            Strategy::ThreePath => "3-path",
        };
        f.write_str(s)
    }
}

/// Error parsing a [`Strategy`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError(String);

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown strategy `{}`", self.0)
    }
}

impl std::error::Error for ParseStrategyError {}

impl FromStr for Strategy {
    type Err = ParseStrategyError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "non-htm" | "nonhtm" => Ok(Strategy::NonHtm),
            "tle" => Ok(Strategy::Tle),
            "2-path-con" | "2pc" => Ok(Strategy::TwoPathCon),
            "2-path-noncon" | "2pnc" => Ok(Strategy::TwoPathNonCon),
            "3-path" | "3p" => Ok(Strategy::ThreePath),
            other => Err(ParseStrategyError(other.to_string())),
        }
    }
}

/// Attempt budgets per path.
///
/// The paper's experiments give two-path algorithms (and TLE) up to 20 fast
/// attempts, and the three-path algorithm 10 attempts on each of the fast
/// and middle paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLimits {
    /// Attempts on the fast path before escalating.
    pub fast: u32,
    /// Attempts on the middle path before the fallback (3-path only).
    pub middle: u32,
}

impl PathLimits {
    /// The paper's budgets for the given strategy.
    pub fn for_strategy(strategy: Strategy) -> Self {
        match strategy {
            Strategy::ThreePath => PathLimits { fast: 10, middle: 10 },
            _ => PathLimits { fast: 20, middle: 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(s.to_string().parse::<Strategy>().unwrap(), s);
        }
        assert!("bogus".parse::<Strategy>().is_err());
    }

    #[test]
    fn display_strings_are_the_paper_labels() {
        let labels: Vec<String> = Strategy::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            labels,
            ["non-htm", "tle", "2-path-con", "2-path-noncon", "3-path"]
        );
    }

    #[test]
    fn parse_accepts_short_aliases() {
        for (alias, want) in [
            ("nonhtm", Strategy::NonHtm),
            ("2pc", Strategy::TwoPathCon),
            ("2pnc", Strategy::TwoPathNonCon),
            ("3p", Strategy::ThreePath),
        ] {
            assert_eq!(alias.parse::<Strategy>().unwrap(), want, "{alias}");
        }
    }

    #[test]
    fn parse_error_names_the_offending_input() {
        let err = "three-path".parse::<Strategy>().unwrap_err();
        assert_eq!(err.to_string(), "unknown strategy `three-path`");
        // Parsing is case-sensitive and exact: Display output with extra
        // whitespace is rejected, not silently trimmed.
        assert!(" tle".parse::<Strategy>().is_err());
        assert!("TLE".parse::<Strategy>().is_err());
    }

    #[test]
    fn lock_freedom() {
        assert!(!Strategy::Tle.is_lock_free());
        assert!(Strategy::ThreePath.is_lock_free());
        assert!(Strategy::NonHtm.is_lock_free());
    }

    #[test]
    fn paper_budgets() {
        assert_eq!(
            PathLimits::for_strategy(Strategy::ThreePath),
            PathLimits { fast: 10, middle: 10 }
        );
        assert_eq!(PathLimits::for_strategy(Strategy::Tle).fast, 20);
    }

    #[test]
    fn all_lists_each_strategy_once() {
        let set: std::collections::HashSet<Strategy> = Strategy::ALL.into_iter().collect();
        assert_eq!(set.len(), Strategy::ALL.len());
    }

    #[test]
    fn figure_series_omit_only_two_path_noncon() {
        let omitted: Vec<Strategy> = Strategy::ALL
            .into_iter()
            .filter(|s| !Strategy::FIGURE_SERIES.contains(s))
            .collect();
        assert_eq!(omitted, [Strategy::TwoPathNonCon]);
        // Same relative order as `ALL`.
        let kept: Vec<Strategy> = Strategy::ALL
            .into_iter()
            .filter(|s| Strategy::FIGURE_SERIES.contains(s))
            .collect();
        assert_eq!(kept, Strategy::FIGURE_SERIES);
    }

    #[test]
    fn only_three_path_has_a_middle_path() {
        for s in Strategy::ALL {
            assert_eq!(s.has_middle_path(), s == Strategy::ThreePath, "{s}");
        }
    }

    #[test]
    fn only_tle_gives_up_lock_freedom() {
        for s in Strategy::ALL {
            assert_eq!(s.is_lock_free(), s != Strategy::Tle, "{s}");
        }
    }

    #[test]
    fn paper_budgets_for_every_strategy() {
        for s in Strategy::ALL {
            let l = PathLimits::for_strategy(s);
            if s.has_middle_path() {
                assert_eq!(
                    l,
                    PathLimits {
                        fast: 10,
                        middle: 10
                    },
                    "{s}"
                );
            } else {
                // Two-path algorithms and TLE: 20 fast attempts, and a
                // middle budget that no path ever spends.
                assert_eq!(
                    l,
                    PathLimits {
                        fast: 20,
                        middle: 0
                    },
                    "{s}"
                );
            }
        }
    }
}
