//! Chronos parameters.

use crate::error::{NtpError, NtpResult};

/// Parameters of the Chronos time-sampling algorithm (Deutsch et al.,
/// NDSS 2018).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChronosConfig {
    /// Number of servers sampled from the pool each round (`m`).
    pub sample_size: usize,
    /// Number of samples trimmed from each end of the sorted offsets (`d`).
    pub trim: usize,
    /// Agreement window `w` in seconds: surviving samples must all lie
    /// within `w` of each other.
    pub agreement_window: f64,
    /// Bound on the distance between the averaged offset and the local
    /// clock (`ERR` drift bound) in seconds.
    pub drift_bound: f64,
    /// Number of re-sampling attempts before panic mode (`k`).
    pub max_retries: usize,
    /// Fraction of the full pool trimmed from each end in panic mode.
    pub panic_trim_fraction: f64,
}

impl Default for ChronosConfig {
    fn default() -> Self {
        ChronosConfig {
            sample_size: 12,
            trim: 4,
            agreement_window: 0.030,
            drift_bound: 0.050,
            max_retries: 3,
            panic_trim_fraction: 1.0 / 3.0,
        }
    }
}

impl ChronosConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`NtpError::InvalidConfig`] when trimming would remove every
    /// sample or parameters are out of range.
    pub fn validate(&self) -> NtpResult<()> {
        if self.sample_size == 0 {
            return Err(NtpError::InvalidConfig(
                "sample_size must be positive".into(),
            ));
        }
        if 2 * self.trim >= self.sample_size {
            return Err(NtpError::InvalidConfig(format!(
                "trimming 2*{} samples leaves nothing of a sample of {}",
                self.trim, self.sample_size
            )));
        }
        if !(0.0..0.5).contains(&self.panic_trim_fraction) {
            return Err(NtpError::InvalidConfig(
                "panic_trim_fraction must be in [0, 0.5)".into(),
            ));
        }
        if self.agreement_window <= 0.0 || self.drift_bound <= 0.0 {
            return Err(NtpError::InvalidConfig(
                "agreement_window and drift_bound must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Number of samples that survive trimming in a normal round.
    pub fn surviving_samples(&self) -> usize {
        self.sample_size - 2 * self.trim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let config = ChronosConfig::default();
        config.validate().unwrap();
        assert_eq!(config.surviving_samples(), 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut config = ChronosConfig {
            sample_size: 0,
            ..ChronosConfig::default()
        };
        assert!(config.validate().is_err());

        config = ChronosConfig {
            sample_size: 6,
            trim: 3,
            ..ChronosConfig::default()
        };
        assert!(config.validate().is_err());

        config = ChronosConfig {
            panic_trim_fraction: 0.6,
            ..ChronosConfig::default()
        };
        assert!(config.validate().is_err());

        config = ChronosConfig {
            agreement_window: 0.0,
            ..ChronosConfig::default()
        };
        assert!(config.validate().is_err());
    }
}
