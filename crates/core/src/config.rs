//! Shared protocol configuration.

use aft_ba::{CoinSource, LocalCoin, OracleCoin, WeakSharedCoin};
use aft_sim::mix;

/// Which common-coin source the embedded BA instances use.
///
/// The paper's construction corresponds to [`CoinKind::WeakShared`] (the
/// BA of its reference \[2\] flips an SVSS-based coin); [`CoinKind::Oracle`]
/// is an ideal-functionality substitute used for ablations (experiment E9)
/// and fast tests; [`CoinKind::Local`] is the Ben-Or baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinKind {
    /// Private per-party coins (Ben-Or'83 baseline).
    Local,
    /// Ideal common coin derived from the given salt.
    Oracle(u64),
    /// SVSS-based weak shared coin (the information-theoretic
    /// configuration).
    WeakShared,
}

impl CoinKind {
    /// Builds a coin source for the BA instance identified by `idx`
    /// (oracle salts are decorrelated per instance).
    pub fn make(&self, idx: u64) -> Box<dyn CoinSource> {
        match *self {
            CoinKind::Local => Box::new(LocalCoin),
            CoinKind::Oracle(salt) => Box::new(OracleCoin::new(salt ^ mix(idx))),
            CoinKind::WeakShared => Box::new(WeakSharedCoin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_produces_named_sources() {
        assert_eq!(CoinKind::Local.make(0).name(), "local");
        assert_eq!(CoinKind::Oracle(1).make(0).name(), "oracle");
        assert_eq!(CoinKind::WeakShared.make(0).name(), "weak-shared");
    }
}
