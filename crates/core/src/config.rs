//! Workspace-wide runtime configuration helpers.
//!
//! The only configuration channel besides explicit `*Config` structs is a
//! small set of environment overrides for the benchmarks and the warehouse
//! traffic driver. [`mod@env`] is their single shared parser, with typed
//! errors instead of silent `Option` collapses so strict callers can
//! distinguish "unset" from "set to garbage". The query and world engines
//! read no environment: their one knob is an explicit `max_events` budget.

pub mod env {
    //! Typed parsing of `PXML_*` environment overrides.
    //!
    //! Recognized variables:
    //!
    //! * [`BENCH_QUICK`] — truthy flag shrinking benchmark workloads to
    //!   smoke-test size (any value except `0`, `false`, `off`, `no`);
    //! * [`SERVER_THREADS`] — worker-thread cap of the warehouse traffic
    //!   driver (`pxml-server`; `1` runs tenants sequentially);
    //! * [`SERVER_TENANTS`] — tenant (lane) count of the warehouse
    //!   traffic driver.

    use std::fmt;
    use std::str::FromStr;

    /// Truthy flag shrinking benchmark workloads to smoke-test size.
    pub const BENCH_QUICK: &str = "PXML_BENCH_QUICK";
    /// Worker-thread cap of the warehouse traffic driver.
    pub const SERVER_THREADS: &str = "PXML_SERVER_THREADS";
    /// Tenant (lane) count of the warehouse traffic driver.
    pub const SERVER_TENANTS: &str = "PXML_SERVER_TENANTS";

    /// Why an environment override could not be read as a `T`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum EnvError {
        /// The variable is set but its bytes are not valid Unicode.
        NotUnicode {
            /// The variable's name.
            name: &'static str,
        },
        /// The variable is set to a value `T::from_str` rejects.
        Invalid {
            /// The variable's name.
            name: &'static str,
            /// The offending value, verbatim.
            value: String,
            /// The parser's own error message.
            reason: String,
        },
    }

    impl fmt::Display for EnvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                EnvError::NotUnicode { name } => {
                    write!(f, "{name} is set to a non-Unicode value")
                }
                EnvError::Invalid {
                    name,
                    value,
                    reason,
                } => write!(f, "{name}={value:?} is invalid: {reason}"),
            }
        }
    }

    impl std::error::Error for EnvError {}

    /// Reads and parses the override `name`: `Ok(None)` when unset,
    /// `Ok(Some(value))` when set and parsable, a typed [`EnvError`]
    /// otherwise.
    pub fn parse<T>(name: &'static str) -> Result<Option<T>, EnvError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        match std::env::var(name) {
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => Err(EnvError::NotUnicode { name }),
            Ok(value) => value
                .parse()
                .map(Some)
                .map_err(|e: T::Err| EnvError::Invalid {
                    name,
                    value,
                    reason: e.to_string(),
                }),
        }
    }

    /// [`parse`] collapsed to the historical lenient behavior: unset *and*
    /// invalid both yield `None`. Consumers whose contract is "overrides
    /// are best-effort" (the traffic driver's `from_env`) use this; strict
    /// consumers call [`parse`] and surface the error.
    pub fn parse_lenient<T>(name: &'static str) -> Option<T>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        parse(name).ok().flatten()
    }

    /// Reads the override `name` as a boolean flag: unset, `0`, `false`,
    /// `off` and `no` (case-insensitive) are `false`, anything else is
    /// `true`. Never errors — a flag's presence is meaningful even when
    /// its bytes are not Unicode.
    pub fn flag(name: &'static str) -> bool {
        match std::env::var(name) {
            Err(std::env::VarError::NotPresent) => false,
            Err(std::env::VarError::NotUnicode(_)) => true,
            Ok(value) => !matches!(
                value.to_ascii_lowercase().as_str(),
                "0" | "false" | "off" | "no"
            ),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        // Each test uses a variable name unique to it: the test harness
        // runs tests concurrently in one process and the environment is
        // shared.

        #[test]
        fn unset_parses_to_none() {
            assert_eq!(parse::<usize>("PXML_TEST_ENV_UNSET"), Ok(None));
            assert_eq!(parse_lenient::<usize>("PXML_TEST_ENV_UNSET"), None);
            assert!(!flag("PXML_TEST_ENV_UNSET"));
        }

        #[test]
        fn set_value_parses() {
            std::env::set_var("PXML_TEST_ENV_SET", "42");
            assert_eq!(parse::<usize>("PXML_TEST_ENV_SET"), Ok(Some(42)));
            assert_eq!(parse_lenient::<u128>("PXML_TEST_ENV_SET"), Some(42));
            assert!(flag("PXML_TEST_ENV_SET"));
        }

        #[test]
        fn invalid_value_is_a_typed_error() {
            std::env::set_var("PXML_TEST_ENV_BAD", "many");
            let err = parse::<usize>("PXML_TEST_ENV_BAD").unwrap_err();
            match &err {
                EnvError::Invalid { name, value, .. } => {
                    assert_eq!(*name, "PXML_TEST_ENV_BAD");
                    assert_eq!(value, "many");
                }
                other => panic!("expected Invalid, got {other:?}"),
            }
            assert!(err.to_string().contains("PXML_TEST_ENV_BAD"));
            assert_eq!(parse_lenient::<usize>("PXML_TEST_ENV_BAD"), None);
        }

        #[test]
        fn flag_recognizes_falsy_spellings() {
            for falsy in ["0", "false", "OFF", "No"] {
                std::env::set_var("PXML_TEST_ENV_FLAG", falsy);
                assert!(!flag("PXML_TEST_ENV_FLAG"), "{falsy} should be falsy");
            }
            for truthy in ["1", "true", "yes", "quick"] {
                std::env::set_var("PXML_TEST_ENV_FLAG", truthy);
                assert!(flag("PXML_TEST_ENV_FLAG"), "{truthy} should be truthy");
            }
        }
    }
}
