//! Config epochs: the validated, immutable serving configuration a
//! control plane swaps under a live resolver.
//!
//! A [`ServeConfig`] is an `Arc`-shared, monotonically numbered snapshot
//! of every serving knob. The serving layer reads the *current* epoch's
//! knobs per query instead of holding fields copied at construction, so a
//! control plane can retune TTLs, stale windows, negative caching and
//! capacity on a live resolver with
//! [`CachingPoolResolver::apply_config`](super::CachingPoolResolver::apply_config)
//! — without touching cached entries mid-flight and without adding any
//! lock to the serving path (each serving shard owns its resolver; the
//! new epoch arrives over the shard's work queue).
//!
//! Entries keep the expiry they were stamped with at insert, but stale
//! serving is bounded by **both** the stamped expiry plus the *current*
//! stale window and the current `ttl + stale_window` horizon measured
//! from generation. Across an epoch change this caps every served
//! answer's age at the **maximum of the old and new `ttl + stale_window`
//! horizons** — the invariant chaos campaigns and the epoch-transition
//! property tests check.

use std::error::Error;
use std::fmt;

use super::cache::CacheConfig;

/// A configuration rejected by fallible validation — returned by
/// [`CacheConfig::validate`], [`ServeConfig::new`] and the runtime-side
/// config validators instead of panicking or silently misbehaving later.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A knob that must be non-zero was zero (the field is named).
    Zero(&'static str),
    /// A cross-field constraint was violated.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// Why the combination is rejected.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "configuration field `{field}` must not be zero"),
            ConfigError::Invalid { field, reason } => {
                write!(f, "invalid configuration field `{field}`: {reason}")
            }
        }
    }
}

impl Error for ConfigError {}

/// One immutable, validated epoch of the serving configuration.
///
/// Epochs are monotonically numbered: [`ServeConfig::new`] starts at
/// epoch 0 and [`ServeConfig::next`] derives the successor epoch with new
/// knobs. The control plane shares each epoch as an
/// `Arc<ServeConfig>` — workers adopt it by pointer swap and report the
/// epoch number they last acked, which is how an operator observes a
/// reconfiguration propagating through a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    epoch: u64,
    cache: CacheConfig,
}

impl ServeConfig {
    /// Validates `cache` and wraps it as epoch 0.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] of [`CacheConfig::validate`].
    pub fn new(cache: CacheConfig) -> Result<Self, ConfigError> {
        cache.validate()?;
        Ok(ServeConfig { epoch: 0, cache })
    }

    /// Wraps `cache` as epoch 0 **without** validation — the constructor
    /// behind [`CachingPoolResolver::new`](super::CachingPoolResolver::new),
    /// which historically clamps a zero capacity instead of erroring.
    /// New code should prefer [`ServeConfig::new`].
    pub fn initial(cache: CacheConfig) -> Self {
        ServeConfig { epoch: 0, cache }
    }

    /// Derives the next epoch carrying `cache`, validated.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] of [`CacheConfig::validate`].
    pub fn next(&self, cache: CacheConfig) -> Result<Self, ConfigError> {
        cache.validate()?;
        Ok(ServeConfig {
            epoch: self.epoch + 1,
            cache,
        })
    }

    /// The monotone epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cache/serving knobs of this epoch.
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_gates_construction() {
        let err = ServeConfig::new(CacheConfig::default().with_capacity(0)).unwrap_err();
        assert_eq!(err, ConfigError::Zero("capacity"));
        assert!(!err.to_string().is_empty());
        let boxed: Box<dyn Error> = Box::new(err);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn epochs_are_monotone() {
        let first = ServeConfig::new(CacheConfig::default()).unwrap();
        assert_eq!(first.epoch(), 0);
        let second = first
            .next(CacheConfig::default().with_capacity(42))
            .unwrap();
        assert_eq!(second.epoch(), 1);
        assert_eq!(second.cache().capacity, 42);
        // The predecessor is untouched (epochs are immutable snapshots).
        assert_eq!(first.cache().capacity, 1024);
        assert!(first.next(CacheConfig::default().with_capacity(0)).is_err());
    }

    #[test]
    fn initial_skips_validation_for_the_clamping_path() {
        let config = ServeConfig::initial(CacheConfig::default().with_capacity(0));
        assert_eq!(config.epoch(), 0);
        assert_eq!(config.cache().capacity, 0);
    }

    #[test]
    fn invalid_variant_displays_reason() {
        let err = ConfigError::Invalid {
            field: "refresh_interval",
            reason: "stale window configured but the refresh pump is disabled".into(),
        };
        assert!(err.to_string().contains("refresh_interval"));
        assert!(err.to_string().contains("stale window"));
    }
}
