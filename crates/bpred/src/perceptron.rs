//! The perceptron branch predictor of Jiménez & Lin (HPCA 2001), the
//! predictor used by the paper's Cache Processor (Table 2).

use crate::{BranchPredictor, PredStats};
use dkip_model::FastHashMap;

/// Most history bits a perceptron can use: the global history is one
/// `u64`.
pub const MAX_HISTORY_LEN: usize = 64;

/// A perceptron branch predictor.
///
/// A table of perceptrons is indexed by a hash of the branch PC. Each
/// perceptron holds one signed weight per bit of global history plus a bias
/// weight. The prediction is the sign of the dot product between the weights
/// and the history (encoded as ±1); training bumps the weights whenever the
/// prediction was wrong or the magnitude of the output was below the
/// threshold `⌊1.93·h + 14⌋` recommended by the original paper.
///
/// The predictor sits on the dispatch/writeback hot path of every core
/// family and on the functional-warming path of sampled runs. Weights
/// saturate at 8 bits, so the table is one flat row-major `i8` array (33 KB
/// at the paper's size, no per-perceptron `Vec` indirection), and the dot
/// product and the training step are straight loops over a ±1 sign vector
/// expanded from the history by table lookup, which the compiler
/// vectorises. The in-flight outputs live in a deterministic
/// [`FastHashMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerceptronPredictor {
    /// Row-major table: perceptron `i` occupies
    /// `weights[i * (history_len + 1) ..][..history_len + 1]`, bias first.
    weights: Vec<i8>,
    table_size: usize,
    history: u64,
    history_len: usize,
    threshold: i32,
    /// Speculative history is not modelled separately: `predict` shifts the
    /// predicted outcome in, `update` repairs the history on a
    /// misprediction. This matches how the cores use the predictor (at most
    /// a handful of unresolved branches because fetch stalls on a predicted
    /// mispredict).
    stats: PredStats,
    last_outputs: FastHashMap<u64, i32>,
}

/// `SIGNS[b][i]` is bit `i` of the byte `b` as a ±1 sign (set → `1`,
/// clear → `-1`): 2 KB that expand a history eight bits per lookup.
static SIGNS: [[i8; 8]; 256] = {
    let mut table = [[-1; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if (byte >> bit) & 1 == 1 {
                table[byte][bit] = 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The history bits as ±1 signs (bit `i` set → `signs[i] == 1`, clear →
/// `-1`), the encoding the weights are multiplied by.
#[inline]
fn signs(history: u64) -> [[i8; 8]; MAX_HISTORY_LEN / 8] {
    history.to_le_bytes().map(|byte| SIGNS[usize::from(byte)])
}

impl PerceptronPredictor {
    /// Creates a perceptron predictor with `table_size` perceptrons (rounded
    /// up to a power of two) and `history_len` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `table_size` or `history_len` is zero, or if `history_len`
    /// exceeds [`MAX_HISTORY_LEN`].
    #[must_use]
    pub fn new(table_size: usize, history_len: usize) -> Self {
        assert!(table_size > 0, "table_size must be positive");
        assert!(history_len > 0, "history_len must be positive");
        assert!(
            history_len <= MAX_HISTORY_LEN,
            "history_len {history_len} exceeds the {MAX_HISTORY_LEN}-bit global history"
        );
        let table_size = table_size.next_power_of_two();
        let threshold = (1.93 * history_len as f64 + 14.0).floor() as i32;
        PerceptronPredictor {
            weights: vec![0; table_size * (history_len + 1)],
            table_size,
            history: 0,
            history_len,
            threshold,
            stats: PredStats::default(),
            last_outputs: FastHashMap::default(),
        }
    }

    /// The configuration used throughout the reproduction: 1024 perceptrons
    /// with 32 bits of global history (comparable to the hardware budget of
    /// the predictor in the paper's Table 2).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(1024, 32)
    }

    /// The training threshold `⌊1.93·h + 14⌋`.
    #[must_use]
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// Number of history bits.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    fn index(&self, pc: u64) -> usize {
        // Fold the PC; low bits beyond the instruction alignment are the
        // most discriminating.
        let hashed = (pc >> 2) ^ (pc >> 13);
        (hashed as usize) & (self.table_size - 1)
    }

    /// The weight row of the perceptron for `pc` (bias first).
    fn row(&self, pc: u64) -> &[i8] {
        let stride = self.history_len + 1;
        &self.weights[self.index(pc) * stride..][..stride]
    }

    /// Mutable form of [`PerceptronPredictor::row`].
    fn row_mut(&mut self, pc: u64) -> &mut [i8] {
        let stride = self.history_len + 1;
        let start = self.index(pc) * stride;
        &mut self.weights[start..][..stride]
    }

    /// The perceptron output for `pc` under the current history.
    fn output(&self, pc: u64) -> i32 {
        let (bias, weights) = self.row(pc).split_first().expect("non-empty row");
        // |dot| ≤ 64 · 128, so 16-bit lanes cannot overflow.
        let dot = weights
            .iter()
            .zip(signs(self.history).as_flattened())
            .fold(0i16, |dot, (&w, &s)| dot + i16::from(w) * i16::from(s));
        i32::from(*bias) + i32::from(dot)
    }

    /// Trains the perceptron for `pc` with the resolved outcome if the
    /// prediction from output `y` was wrong or not confident enough; the
    /// history already holds the outcome in bit 0.
    fn learn(&mut self, pc: u64, taken: bool, predicted: bool, y: i32) {
        if taken == predicted && y.abs() > self.threshold {
            return;
        }
        let t: i8 = if taken { 1 } else { -1 };
        // Reconstruct the history the prediction saw (one bit older).
        let signs = signs(self.history >> 1);
        let (bias, weights) = self.row_mut(pc).split_first_mut().expect("non-empty row");
        // Weights saturate at 8 bits, exactly `i8`'s range.
        *bias = bias.saturating_add(t);
        for (w, &s) in weights.iter_mut().zip(signs.as_flattened()) {
            *w = w.saturating_add(t * s);
        }
    }

    /// Largest value any weight may reach (8-bit signed saturation).
    pub const WEIGHT_MAX: i32 = i8::MAX as i32;

    /// Smallest value any weight may reach (8-bit signed saturation).
    pub const WEIGHT_MIN: i32 = i8::MIN as i32;

    /// The largest weight magnitude currently stored in any perceptron.
    ///
    /// Training saturates every weight into
    /// `[`[`Self::WEIGHT_MIN`]`, `[`Self::WEIGHT_MAX`]`]`, so this never
    /// exceeds 128; the property tests assert exactly that bound.
    #[must_use]
    pub fn max_abs_weight(&self) -> i32 {
        self.weights
            .iter()
            .map(|&w| i32::from(w).abs())
            .max()
            .unwrap_or(0)
    }
}

impl BranchPredictor for PerceptronPredictor {
    fn clone_box(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.clone())
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.stats.predictions += 1;
        let y = self.output(pc);
        self.last_outputs.insert(pc, y);
        let taken = y >= 0;
        // Speculatively shift the prediction into the history; repaired in
        // `update` if wrong.
        self.history = (self.history << 1) | u64::from(taken);
        taken
    }

    fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        if taken != predicted {
            self.stats.mispredictions += 1;
            // Repair the speculative history bit inserted by `predict`.
            self.history = (self.history & !1) | u64::from(taken);
        }
        let y = self.last_outputs.remove(&pc).unwrap_or(0);
        self.learn(pc, taken, predicted, y);
    }

    /// `predict` then `update` in one step, with no trip through the
    /// in-flight output map: the pair's insert-then-remove leaves no entry
    /// for `pc`, so a stale one is dropped, and the history ends with the
    /// resolved outcome either way.
    fn train(&mut self, pc: u64, taken: bool) {
        self.stats.predictions += 1;
        let y = self.output(pc);
        let predicted = y >= 0;
        if !self.last_outputs.is_empty() {
            self.last_outputs.remove(&pc);
        }
        self.history = (self.history << 1) | u64::from(taken);
        if taken != predicted {
            self.stats.mispredictions += 1;
        }
        self.learn(pc, taken, predicted, y);
    }

    fn predictions(&self) -> u64 {
        self.stats.predictions
    }

    fn mispredictions(&self) -> u64 {
        self.stats.mispredictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    #[test]
    fn threshold_follows_the_published_formula() {
        let p = PerceptronPredictor::new(256, 32);
        assert_eq!(p.threshold(), (1.93f64 * 32.0 + 14.0).floor() as i32);
        assert_eq!(p.history_len(), 32);
    }

    #[test]
    fn learns_strongly_biased_branches() {
        let mut p = PerceptronPredictor::paper_default();
        let mut wrong_late = 0;
        for i in 0..2000u64 {
            let guess = p.predict(0x1000);
            p.update(0x1000, true, guess);
            if i > 100 && !guess {
                wrong_late += 1;
            }
        }
        assert_eq!(
            wrong_late, 0,
            "a always-taken branch must become perfectly predicted"
        );
    }

    #[test]
    fn learns_history_correlated_patterns() {
        // Branch B is taken exactly when the previous outcome of branch A
        // was taken: linearly separable on global history.
        let mut p = PerceptronPredictor::paper_default();
        let mut wrong_late = 0;
        for i in 0..4000u64 {
            let a_outcome = i % 3 != 0;
            let guess_a = p.predict(0x2000);
            p.update(0x2000, a_outcome, guess_a);
            let guess_b = p.predict(0x2040);
            let b_outcome = a_outcome;
            if i > 1000 && guess_b != b_outcome {
                wrong_late += 1;
            }
            p.update(0x2040, b_outcome, guess_b);
        }
        assert!(
            wrong_late < 100,
            "correlated branch should be nearly perfectly predicted, got {wrong_late} errors"
        );
    }

    #[test]
    fn random_branches_hover_near_chance() {
        // A pseudo-random outcome stream cannot be predicted much better
        // than 50%; make sure the predictor does not diverge or crash.
        let mut p = PerceptronPredictor::paper_default();
        let mut state = 0x12345678u64;
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (state >> 62) & 1 == 1;
            let guess = p.predict(0x3000);
            p.update(0x3000, taken, guess);
        }
        let rate = p.mispredict_rate();
        assert!(
            rate > 0.3 && rate < 0.7,
            "random stream should be near chance, got {rate}"
        );
    }

    #[test]
    fn weights_saturate_instead_of_overflowing() {
        let mut p = PerceptronPredictor::new(16, 8);
        for _ in 0..100_000u64 {
            let guess = p.predict(0x4000);
            p.update(0x4000, true, guess);
        }
        assert!(p.max_abs_weight() <= 128);
        // On a fresh predictor, a branch reported mispredicted every time
        // trains on every update: the bias pins at +127 and each history
        // weight at -128 (the seen history is all zeros) instead of wrapping.
        let mut q = PerceptronPredictor::new(16, 8);
        for _ in 0..1_000 {
            q.update(0x4000, true, false);
        }
        assert_eq!(q.row(0x4000)[0], 127);
        assert!(q.row(0x4000)[1..].iter().all(|&w| w == -128));
        assert_eq!(q.max_abs_weight(), 128);
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-bit global history")]
    fn history_longer_than_the_register_is_rejected() {
        let _ = PerceptronPredictor::new(16, MAX_HISTORY_LEN + 1);
    }

    #[test]
    #[should_panic(expected = "history_len")]
    fn zero_history_is_rejected() {
        let _ = PerceptronPredictor::new(16, 0);
    }

    #[test]
    fn table_size_rounds_to_power_of_two() {
        let p = PerceptronPredictor::new(100, 8);
        assert_eq!(p.table_size, 128);
        assert_eq!(p.weights.len(), 128 * 9, "flat row-major weight table");
    }

    /// The scalar `i32` kernel the `i8` one replaced, kept as its oracle:
    /// weights clamped into the 8-bit range, ±1 signs recomputed per bit,
    /// every in-flight output in one plain map.
    struct Reference {
        weights: Vec<i32>,
        table_size: usize,
        history: u64,
        history_len: usize,
        threshold: i32,
        predictions: u64,
        mispredictions: u64,
        last_outputs: BTreeMap<u64, i32>,
    }

    impl Reference {
        fn new(table_size: usize, history_len: usize) -> Self {
            let table_size = table_size.next_power_of_two();
            Reference {
                weights: vec![0; table_size * (history_len + 1)],
                table_size,
                history: 0,
                history_len,
                threshold: (1.93 * history_len as f64 + 14.0).floor() as i32,
                predictions: 0,
                mispredictions: 0,
                last_outputs: BTreeMap::new(),
            }
        }

        fn row(&mut self, pc: u64) -> &mut [i32] {
            let idx = (((pc >> 2) ^ (pc >> 13)) as usize) & (self.table_size - 1);
            let stride = self.history_len + 1;
            &mut self.weights[idx * stride..(idx + 1) * stride]
        }

        fn predict(&mut self, pc: u64) -> bool {
            self.predictions += 1;
            let history = self.history;
            let perceptron = self.row(pc);
            let mut y = perceptron[0];
            for (bit, &weight) in perceptron[1..].iter().enumerate() {
                y += weight * (((history >> bit) & 1) as i32 * 2 - 1);
            }
            self.last_outputs.insert(pc, y);
            let taken = y >= 0;
            self.history = (self.history << 1) | u64::from(taken);
            taken
        }

        fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
            if taken != predicted {
                self.mispredictions += 1;
                self.history = (self.history & !1) | u64::from(taken);
            }
            let y = self.last_outputs.remove(&pc).unwrap_or(0);
            if taken != predicted || y.abs() <= self.threshold {
                let t = if taken { 1 } else { -1 };
                let seen_history = self.history >> 1;
                let perceptron = self.row(pc);
                perceptron[0] = (perceptron[0] + t).clamp(-128, 127);
                for (bit, weight) in perceptron[1..].iter_mut().enumerate() {
                    let h = ((seen_history >> bit) & 1) as i32 * 2 - 1;
                    *weight = (*weight + t * h).clamp(-128, 127);
                }
            }
        }

        fn assert_matches(&self, p: &PerceptronPredictor) {
            assert!(
                p.weights
                    .iter()
                    .map(|&w| i32::from(w))
                    .eq(self.weights.iter().copied()),
                "weight tables differ"
            );
            assert_eq!(p.history, self.history);
            assert_eq!(p.stats.predictions, self.predictions);
            assert_eq!(p.stats.mispredictions, self.mispredictions);
            let in_flight: BTreeMap<u64, i32> = p.last_outputs.clone().into_iter().collect();
            assert_eq!(in_flight, self.last_outputs);
        }
    }

    /// One predictor event drawn by the properties: `(pc slot, outcome,
    /// kind)`. Kinds 0–1 are an in-order predict/update pair (a warmed
    /// branch), kind 2 predicts a branch that stays in flight, kind 3
    /// resolves the oldest in-flight branch — the detailed pipeline's
    /// pattern, which leaves outputs waiting in the map.
    type Event = (u64, bool, u8);

    fn events() -> impl Strategy<Value = (usize, usize, Vec<Event>)> {
        (
            1usize..64,
            1usize..MAX_HISTORY_LEN + 1,
            proptest::collection::vec((0u64..12, any::<bool>(), 0u8..4), 1..600),
        )
    }

    fn pc_of(slot: u64) -> u64 {
        0x1000 + slot * 4 + (slot % 3) * 0x2000
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_i8_kernel_matches_the_i32_reference(case in events()) {
            let (table_size, history_len, events) = case;
            let mut p = PerceptronPredictor::new(table_size, history_len);
            let mut r = Reference::new(table_size, history_len);
            let mut in_flight = VecDeque::new();
            for (slot, taken, kind) in events {
                let pc = pc_of(slot);
                match kind {
                    0..=2 => {
                        let predicted = p.predict(pc);
                        prop_assert_eq!(predicted, r.predict(pc));
                        if kind == 2 {
                            in_flight.push_back((pc, taken, predicted));
                        } else {
                            p.update(pc, taken, predicted);
                            r.update(pc, taken, predicted);
                        }
                    }
                    _ => {
                        if let Some((pc, taken, predicted)) = in_flight.pop_front() {
                            p.update(pc, taken, predicted);
                            r.update(pc, taken, predicted);
                        }
                    }
                }
                r.assert_matches(&p);
            }
        }

        #[test]
        fn train_matches_predict_then_update(case in events()) {
            let (table_size, history_len, events) = case;
            let mut fused = PerceptronPredictor::new(table_size, history_len);
            let mut pair = PerceptronPredictor::new(table_size, history_len);
            let mut in_flight = VecDeque::new();
            for (slot, taken, kind) in events {
                let pc = pc_of(slot);
                match kind {
                    0 | 1 => {
                        fused.train(pc, taken);
                        let predicted = pair.predict(pc);
                        pair.update(pc, taken, predicted);
                    }
                    2 => {
                        let predicted = fused.predict(pc);
                        prop_assert_eq!(predicted, pair.predict(pc));
                        in_flight.push_back((pc, taken, predicted));
                    }
                    _ => {
                        if let Some((pc, taken, predicted)) = in_flight.pop_front() {
                            fused.update(pc, taken, predicted);
                            pair.update(pc, taken, predicted);
                        }
                    }
                }
                prop_assert_eq!(&fused, &pair);
            }
        }
    }
}
