//! The order-independence suite: V-zone detection screens the hardware
//! offset candidates in an order that depends on state — the previous
//! tag's winner is tried first, and the remaining candidates are
//! early-abandoned against the best match so far. Neither the order nor
//! the abandoning may change the answer: the selected candidate is the
//! minimum `(cost, index)` over every acceptable candidate. These
//! properties pin that contract over generated geometries and
//! recordings, for every scratch state and thread count.
//!
//! CI runs this suite with `PROPTEST_CASES` bumped well above the local
//! default.

mod support;

use proptest::prelude::*;
use support::{arb_sweep, proptest_cases};

use stpp_core::{BatchLocalizer, DetectScratch, ReferenceBankCache, VZoneDetector};

proptest! {
    #![proptest_config(proptest_cases(48))]

    /// End to end: for any generated sweep, every thread count produces
    /// the **bit-identical** result (orderings, summaries, undetected
    /// set). Workers split the tags differently per thread count, so each
    /// worker's scratch carries a different hint sequence.
    #[test]
    fn batch_result_is_bit_identical_across_thread_counts(spec in arb_sweep()) {
        let input = spec.input();
        let config = spec.config();
        let single = BatchLocalizer::new(config, 1).localize(&input);
        for threads in [2usize, 4] {
            let parallel = BatchLocalizer::new(config, threads).localize(&input);
            prop_assert_eq!(&single, &parallel, "threads={}", threads);
        }
    }

    /// Per tag: a detector whose scratch stays warm across the sweep (its
    /// hint leads each screen with the previous winner) returns exactly
    /// what a fresh scratch per tag (no hint, candidate 0 first) returns —
    /// the same winning candidate, cost, V-zone and fit.
    #[test]
    fn warm_hinted_scratch_matches_fresh_scratch_per_tag(spec in arb_sweep()) {
        let input = spec.input();
        let detector = VZoneDetector::new(spec.reference_params()).with_dtw_band(spec.band);
        let cache = ReferenceBankCache::new();
        let mut warm = DetectScratch::new();
        for obs in &input.observations {
            let fresh = detector.detect(&obs.profile);
            let hinted = detector.detect_cached(&obs.profile, &cache, &mut warm);
            prop_assert_eq!(&fresh, &hinted, "tag {}", obs.id);
        }
    }
}
