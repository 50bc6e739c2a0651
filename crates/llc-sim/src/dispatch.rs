/// Deterministic weighted dispatcher realizing the controllers' fractions.
///
/// The L2 controller decides `{γ_i}` (fractions per module) and each L1
/// controller `{γ_ij}` (fractions per computer); the dispatcher must send
/// each target its fraction of arrivals. We use **deficit round-robin**:
/// every target accumulates credit equal to its weight per routed request
/// and the most-credited target wins, paying one unit. Over `n` requests
/// each target receives `n·γ ± O(1)` — exact proportions without RNG,
/// keeping experiments reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedRouter {
    weights: Vec<f64>,
    credits: Vec<f64>,
}

impl WeightedRouter {
    /// A router over `n` targets, initially all weight zero (routing
    /// returns `None` until weights are set).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "router needs at least one target");
        WeightedRouter {
            weights: vec![0.0; n],
            credits: vec![0.0; n],
        }
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the router has no targets (never: constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Replace the weight vector. Weights must be non-negative; they are
    /// normalized internally, so `[2, 2]` equals `[0.5, 0.5]`. A zero
    /// vector is allowed and makes the router drop everything.
    ///
    /// Credits are preserved for targets keeping non-zero weight (so small
    /// reconfigurations do not reshuffle in-flight proportions) and zeroed
    /// for disabled targets.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the target count or any weight is
    /// negative/non-finite.
    pub fn set_weights(&mut self, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            self.weights.len(),
            "weight vector length mismatch"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            self.weights[i] = if total > 0.0 { w / total } else { 0.0 };
            if self.weights[i] == 0.0 {
                self.credits[i] = 0.0;
            }
        }
    }

    /// Current (normalized) weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Route one request: returns the winning target index, or `None` if
    /// all weights are zero.
    pub fn route(&mut self) -> Option<usize> {
        // One pass over the enabled targets: credit each its weight and
        // keep the most-credited so far, the lowest index on ties. (A
        // disabled target's weight and credit are both `0.0`, so passing
        // it over leaves its credit the same bits adding would.)
        let mut best = None;
        let mut best_credit = f64::NEG_INFINITY;
        for (i, (c, &w)) in self.credits.iter_mut().zip(&self.weights).enumerate() {
            if w > 0.0 {
                *c += w;
                if *c > best_credit {
                    best = Some(i);
                    best_credit = *c;
                }
            }
        }
        let winner = best?;
        self.credits[winner] -= 1.0;
        Some(winner)
    }

    /// Route `n` requests in one analytic draw: returns the per-target
    /// counts, or `None` if all weights are zero. `O(targets)` instead of
    /// `O(n · targets)` — the batched-window fast path.
    ///
    /// Each target's ideal share is its carried credit plus `n·γ`; whole
    /// units are granted first and the remaining requests go to the
    /// largest fractional remainders (ties to the lowest index, matching
    /// the sequential tie-break). Residual credit carries over, so
    /// consecutive batches honor the `n·γ ± O(1)` proportion bound just
    /// like sequential [`WeightedRouter::route`] calls. For exact splits
    /// (e.g. `[0.75, 0.25]` over 100) the counts equal what `n`
    /// sequential draws produce.
    pub fn route_batch(&mut self, n: u64) -> Option<Vec<u64>> {
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let k = self.weights.len();
        let mut counts = vec![0u64; k];
        let mut ideal = vec![0.0f64; k];
        let mut granted: u64 = 0;
        for i in 0..k {
            if self.weights[i] > 0.0 {
                ideal[i] = self.credits[i] + n as f64 * self.weights[i];
                // Whole units first; credits can be slightly negative, so
                // clamp the floor at zero.
                counts[i] = ideal[i].floor().max(0.0) as u64;
                granted += counts[i];
            }
        }
        // Over-grant is possible only through stale positive credits; pull
        // back from the smallest remainders (reverse of the award order).
        while granted > n {
            let mut worst = None;
            let mut worst_rem = f64::INFINITY;
            for i in 0..k {
                if counts[i] > 0 {
                    let rem = ideal[i] - counts[i] as f64;
                    if rem < worst_rem {
                        worst = Some(i);
                        worst_rem = rem;
                    }
                }
            }
            let i = worst.expect("granted > 0 implies a positive count");
            counts[i] -= 1;
            granted -= 1;
        }
        // Award the remaining requests to the largest fractional
        // remainders, ties to the lowest index.
        while granted < n {
            let mut best = None;
            let mut best_rem = f64::NEG_INFINITY;
            for i in 0..k {
                if self.weights[i] > 0.0 {
                    let rem = ideal[i] - counts[i] as f64;
                    if rem > best_rem {
                        best = Some(i);
                        best_rem = rem;
                    }
                }
            }
            let i = best.expect("total weight positive implies an enabled target");
            counts[i] += 1;
            granted += 1;
        }
        // Carry the residual credit so the next batch (or sequential
        // draw) continues the same deficit sequence.
        for i in 0..k {
            if self.weights[i] > 0.0 {
                self.credits[i] = ideal[i] - counts[i] as f64;
            }
        }
        Some(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn route_n(r: &mut WeightedRouter, n: usize) -> Vec<usize> {
        let mut counts = vec![0usize; r.len()];
        for _ in 0..n {
            if let Some(i) = r.route() {
                counts[i] += 1;
            }
        }
        counts
    }

    impl WeightedRouter {
        /// `route` as it stood before the three passes were fused: total
        /// the weights, credit every target, then scan every credit.
        fn route_reference(&mut self) -> Option<usize> {
            let total: f64 = self.weights.iter().sum();
            if total <= 0.0 {
                return None;
            }
            for (c, w) in self.credits.iter_mut().zip(&self.weights) {
                *c += w;
            }
            let mut best = None;
            let mut best_credit = f64::NEG_INFINITY;
            for (i, (&c, &w)) in self.credits.iter().zip(&self.weights).enumerate() {
                if w > 0.0 && c > best_credit {
                    best = Some(i);
                    best_credit = c;
                }
            }
            let winner = best.expect("total weight positive implies an enabled target");
            self.credits[winner] -= 1.0;
            Some(winner)
        }
    }

    #[test]
    fn zero_weights_drop_everything() {
        let mut r = WeightedRouter::new(3);
        assert_eq!(r.route(), None);
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let mut r = WeightedRouter::new(4);
        r.set_weights(&[1.0, 1.0, 1.0, 1.0]);
        let counts = route_n(&mut r, 400);
        assert_eq!(counts, vec![100, 100, 100, 100]);
    }

    #[test]
    fn proportions_match_weights_within_one() {
        let mut r = WeightedRouter::new(3);
        r.set_weights(&[0.5, 0.3, 0.2]);
        let n = 1000;
        let counts = route_n(&mut r, n);
        assert!((counts[0] as f64 - 500.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[1] as f64 - 300.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[2] as f64 - 200.0).abs() <= 2.0, "{counts:?}");
    }

    #[test]
    fn weights_are_normalized() {
        let mut r = WeightedRouter::new(2);
        r.set_weights(&[3.0, 1.0]);
        assert_eq!(r.weights(), &[0.75, 0.25]);
    }

    #[test]
    fn disabled_target_receives_nothing() {
        let mut r = WeightedRouter::new(3);
        r.set_weights(&[0.6, 0.0, 0.4]);
        let counts = route_n(&mut r, 100);
        assert_eq!(counts[1], 0);
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }

    #[test]
    fn reconfiguration_zeroes_disabled_credit() {
        let mut r = WeightedRouter::new(2);
        r.set_weights(&[0.5, 0.5]);
        let _ = route_n(&mut r, 9); // leave uneven credit
        r.set_weights(&[1.0, 0.0]);
        let counts = route_n(&mut r, 10);
        assert_eq!(counts, vec![10, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let mut r = WeightedRouter::new(2);
        r.set_weights(&[1.0]);
    }

    #[test]
    fn batch_zero_weights_drop_everything() {
        let mut r = WeightedRouter::new(3);
        assert_eq!(r.route_batch(10), None);
    }

    #[test]
    fn batch_uniform_weights_split_evenly() {
        let mut r = WeightedRouter::new(4);
        r.set_weights(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(r.route_batch(400), Some(vec![100, 100, 100, 100]));
    }

    #[test]
    fn batch_disabled_target_receives_nothing() {
        let mut r = WeightedRouter::new(3);
        r.set_weights(&[0.6, 0.0, 0.4]);
        let counts = r.route_batch(100).unwrap();
        assert_eq!(counts[1], 0);
        assert_eq!(counts.iter().sum::<u64>(), 100);
        assert_eq!(counts, vec![60, 0, 40]);
    }

    #[test]
    fn batch_of_zero_allocates_nothing() {
        let mut r = WeightedRouter::new(2);
        r.set_weights(&[0.5, 0.5]);
        assert_eq!(r.route_batch(0), Some(vec![0, 0]));
    }

    #[test]
    fn batch_credit_carries_across_batches() {
        // 0.5/0.3/0.2 over three batches of 10: every batch allocates 10
        // and the running totals stay within one of n·γ.
        let mut r = WeightedRouter::new(3);
        r.set_weights(&[0.5, 0.3, 0.2]);
        let mut totals = [0u64; 3];
        for _ in 0..3 {
            let counts = r.route_batch(10).unwrap();
            assert_eq!(counts.iter().sum::<u64>(), 10);
            for (t, c) in totals.iter_mut().zip(&counts) {
                *t += c;
            }
        }
        assert_eq!(totals, [15, 9, 6]);
    }

    #[test]
    fn batch_matches_sequential_for_exact_splits() {
        // Where n·γ is integral the batch draw must equal n sequential
        // draws, credits included — the equivalence the batched window
        // path relies on.
        let mut batch = WeightedRouter::new(2);
        let mut seq = WeightedRouter::new(2);
        for r in [&mut batch, &mut seq] {
            r.set_weights(&[0.75, 0.25]);
        }
        let counts = batch.route_batch(100).unwrap();
        let mut seq_counts = vec![0u64; 2];
        for _ in 0..100 {
            seq_counts[seq.route().unwrap()] += 1;
        }
        assert_eq!(counts, seq_counts);
        assert_eq!(batch, seq, "credit state identical after the window");
    }

    proptest! {
        #[test]
        fn batch_allocates_exactly_n_with_bounded_error(
            raw in proptest::collection::vec(0.0..1.0f64, 2..6),
            n in 1u64..5000,
        ) {
            prop_assume!(raw.iter().sum::<f64>() > 0.1);
            let mut r = WeightedRouter::new(raw.len());
            r.set_weights(&raw);
            let counts = r.route_batch(n).unwrap();
            prop_assert_eq!(counts.iter().sum::<u64>(), n);
            let total: f64 = raw.iter().sum();
            for (i, c) in counts.iter().enumerate() {
                let expected = n as f64 * raw[i] / total;
                prop_assert!(
                    (*c as f64 - expected).abs() <= raw.len() as f64 + 1.0,
                    "target {}: got {}, expected {:.1}", i, c, expected
                );
            }
        }
    }

    proptest! {
        #[test]
        fn one_pass_route_matches_the_three_pass_reference(
            phases in proptest::collection::vec(
                (proptest::collection::vec(0.0..4.0f64, 6), 0usize..64, 0usize..40),
                1..8,
            ),
        ) {
            let mut fused = WeightedRouter::new(6);
            let mut reference = WeightedRouter::new(6);
            let bits = |r: &WeightedRouter| -> Vec<u64> {
                r.credits.iter().map(|c| c.to_bits()).collect()
            };
            for (raw, zero_mask, calls) in phases {
                // Mid-stream reconfiguration: un-normalised weights, the
                // masked targets disabled — all of them one phase in eight.
                let all_off = zero_mask % 8 == 7;
                let weights: Vec<f64> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| if all_off || zero_mask >> i & 1 == 1 { 0.0 } else { w })
                    .collect();
                fused.set_weights(&weights);
                reference.set_weights(&weights);
                for _ in 0..calls {
                    prop_assert_eq!(fused.route(), reference.route_reference());
                    prop_assert_eq!(bits(&fused), bits(&reference));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn long_run_proportions_converge(
            raw in proptest::collection::vec(0.0..1.0f64, 2..6)
        ) {
            prop_assume!(raw.iter().sum::<f64>() > 0.1);
            let mut r = WeightedRouter::new(raw.len());
            r.set_weights(&raw);
            let n = 5000usize;
            let counts = route_n(&mut r, n);
            let total: f64 = raw.iter().sum();
            for (i, c) in counts.iter().enumerate() {
                let expected = n as f64 * raw[i] / total;
                // Deficit round-robin error is bounded by the target count.
                prop_assert!(
                    (*c as f64 - expected).abs() <= raw.len() as f64 + 1.0,
                    "target {i}: got {c}, expected {expected:.1}"
                );
            }
        }
    }
}
