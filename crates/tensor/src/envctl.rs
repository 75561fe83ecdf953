//! Shared environment-variable control knobs.
//!
//! Two process-wide tuning knobs follow the same resolution contract:
//! `SPECTRAGAN_THREADS` ([`crate::pool::threads`]) and
//! `SPECTRAGAN_BACKEND` ([`crate::backend::kind`]). Each used to
//! hand-roll the identical atomic-override + cached-env-parse dance;
//! this module is the single implementation both route through.
//!
//! The contract, in priority order:
//!
//! 1. **Programmatic override** ([`EnvCtl::set`]) — installed by tests,
//!    benchmarks and the CLI; takes effect immediately and can be
//!    cleared with `set(None)`.
//! 2. **Environment variable** — parsed once on first query and cached
//!    for the life of the process (`std::env::var` takes the process
//!    environment lock and allocates, far too expensive for hot-path
//!    queries; and a knob that silently changed mid-run would break the
//!    determinism contracts anyway).
//! 3. **Default** — supplied by the caller.
//!
//! Values are stored as non-zero `usize` codes (0 is reserved for
//! "unset"); enum-valued knobs like the backend map through a code
//! table at the call site.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One environment-backed control knob. See the module docs for the
/// resolution contract.
pub struct EnvCtl {
    /// Environment variable consulted when no override is installed.
    var: &'static str,
    /// Programmatic override; 0 means "not set".
    override_code: AtomicUsize,
    /// Cached environment/default resolution (first [`EnvCtl::get`]).
    cached: OnceLock<usize>,
}

impl EnvCtl {
    /// A knob backed by the environment variable `var`.
    pub const fn new(var: &'static str) -> Self {
        EnvCtl {
            var,
            override_code: AtomicUsize::new(0),
            cached: OnceLock::new(),
        }
    }

    /// The environment variable this knob consults.
    pub fn var(&self) -> &'static str {
        self.var
    }

    /// Installs (`Some(code)`, which must be non-zero) or clears
    /// (`None`) the programmatic override.
    ///
    /// # Panics
    /// Panics if `code` is zero — 0 is the "unset" sentinel.
    pub fn set(&self, code: Option<usize>) {
        let v = match code {
            Some(c) => {
                assert!(
                    c != 0,
                    "{}: override code 0 is reserved for unset",
                    self.var
                );
                c
            }
            None => 0,
        };
        self.override_code.store(v, Ordering::Relaxed);
    }

    /// Resolves the knob: override if installed, else the cached
    /// environment parse, else `default`. `parse` returning `None`
    /// (unset, malformed or out-of-range variable) falls through to
    /// `default`; the env/default resolution is computed once and
    /// cached.
    pub fn get(&self, parse: fn(&str) -> Option<usize>, default: fn() -> usize) -> usize {
        let forced = self.override_code.load(Ordering::Relaxed);
        if forced != 0 {
            return forced;
        }
        *self.cached.get_or_init(|| {
            std::env::var(self.var)
                .ok()
                .and_then(|v| parse(&v))
                .unwrap_or_else(default)
        })
    }
}

/// Parses a positive count (`n >= 1`), the shape of
/// `SPECTRAGAN_THREADS`. Zero, negative or malformed values are
/// rejected (→ fall through to the default).
pub fn parse_count(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that touch process-global knobs.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn override_beats_environment_and_default() {
        let _g = LOCK.lock().unwrap();
        static K: EnvCtl = EnvCtl::new("SPECTRAGAN_ENVCTL_TEST_A");
        // No env var → default.
        assert_eq!(K.get(parse_count, || 7), 7);
        K.set(Some(3));
        assert_eq!(K.get(parse_count, || 7), 3);
        K.set(None);
        assert_eq!(K.get(parse_count, || 7), 7);
    }

    #[test]
    fn environment_is_parsed_once_and_cached() {
        let _g = LOCK.lock().unwrap();
        static K: EnvCtl = EnvCtl::new("SPECTRAGAN_ENVCTL_TEST_B");
        std::env::set_var("SPECTRAGAN_ENVCTL_TEST_B", "5");
        assert_eq!(K.get(parse_count, || 1), 5);
        // Later environment changes are deliberately invisible: the
        // first resolution is cached for the life of the process.
        std::env::set_var("SPECTRAGAN_ENVCTL_TEST_B", "9");
        assert_eq!(K.get(parse_count, || 1), 5);
        std::env::remove_var("SPECTRAGAN_ENVCTL_TEST_B");
    }

    #[test]
    fn malformed_environment_falls_through_to_default() {
        let _g = LOCK.lock().unwrap();
        static K: EnvCtl = EnvCtl::new("SPECTRAGAN_ENVCTL_TEST_C");
        std::env::set_var("SPECTRAGAN_ENVCTL_TEST_C", "zero");
        assert_eq!(K.get(parse_count, || 4), 4);
        std::env::remove_var("SPECTRAGAN_ENVCTL_TEST_C");
    }

    #[test]
    #[should_panic(expected = "reserved for unset")]
    fn zero_override_code_is_rejected() {
        static K: EnvCtl = EnvCtl::new("SPECTRAGAN_ENVCTL_TEST_D");
        K.set(Some(0));
    }

    #[test]
    fn parse_count_accepts_positive_rejects_rest() {
        assert_eq!(parse_count("4"), Some(4));
        assert_eq!(parse_count("  2 \n"), Some(2));
        assert_eq!(parse_count("0"), None);
        assert_eq!(parse_count("-1"), None);
        assert_eq!(parse_count("many"), None);
    }
}
