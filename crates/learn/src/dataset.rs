//! Bit-packed binary-feature datasets.
//!
//! The paper's model uses purely binary features (`{x[t], x[t-1],
//! yRTL_n[t-1], yRTL_n[t]}`), so samples are stored as packed `u64` words:
//! compact, cache-friendly, and branch-free to test during tree descent.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A growable set of binary-feature samples with boolean labels.
///
/// # Examples
///
/// ```
/// use isa_learn::Dataset;
///
/// let mut d = Dataset::new(3);
/// d.push(&[true, false, true], true);
/// d.push(&[false, false, true], false);
/// assert_eq!(d.len(), 2);
/// assert!(d.feature(0, 0));
/// assert!(!d.feature(1, 0));
/// assert!(d.label(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    num_features: usize,
    words_per_sample: usize,
    data: Vec<u64>,
    labels: Vec<bool>,
    /// Column-major mirror: one bit-plane per feature over samples (bit
    /// `i % 64` of word `i / 64` is the feature in sample `i`), the layout
    /// that lets tree growth count split sides with bitmask popcounts.
    planes: Vec<Vec<u64>>,
    /// The labels as a bit-plane over samples.
    label_plane: Vec<u64>,
}

impl Dataset {
    /// Creates an empty dataset over `num_features` binary features.
    ///
    /// # Panics
    ///
    /// Panics if `num_features` is zero.
    #[must_use]
    pub fn new(num_features: usize) -> Self {
        assert!(num_features > 0, "datasets need at least one feature");
        Self {
            num_features,
            words_per_sample: num_features.div_ceil(64),
            data: Vec::new(),
            labels: Vec::new(),
            planes: vec![Vec::new(); num_features],
            label_plane: Vec::new(),
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if no sample was added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per sample.
    #[must_use]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Adds one sample from a bool slice.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from [`Self::num_features`].
    pub fn push(&mut self, features: &[bool], label: bool) {
        assert_eq!(
            features.len(),
            self.num_features,
            "expected {} features, got {}",
            self.num_features,
            features.len()
        );
        let base = self.data.len();
        self.data
            .extend(std::iter::repeat_n(0, self.words_per_sample));
        let sample = self.labels.len();
        if sample.is_multiple_of(64) {
            for plane in &mut self.planes {
                plane.push(0);
            }
            self.label_plane.push(0);
        }
        let (word, bit) = (sample / 64, sample % 64);
        for (i, &f) in features.iter().enumerate() {
            if f {
                self.data[base + i / 64] |= 1u64 << (i % 64);
                self.planes[i][word] |= 1u64 << bit;
            }
        }
        if label {
            self.label_plane[word] |= 1u64 << bit;
        }
        self.labels.push(label);
    }

    /// The borrowed bit-plane view tree growth reads.
    pub(crate) fn planes(&self) -> Planes<'_> {
        Planes {
            features: self.planes.iter().map(Vec::as_slice).collect(),
            labels: &self.label_plane,
            len: self.len(),
        }
    }

    /// The packed feature words of sample `i`.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[u64] {
        let base = i * self.words_per_sample;
        &self.data[base..base + self.words_per_sample]
    }

    /// Value of feature `f` in sample `i`.
    #[must_use]
    pub fn feature(&self, i: usize, f: usize) -> bool {
        debug_assert!(f < self.num_features);
        let word = self.data[i * self.words_per_sample + f / 64];
        (word >> (f % 64)) & 1 == 1
    }

    /// Label of sample `i`.
    #[must_use]
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Number of positive labels.
    #[must_use]
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Splits sample indices into a shuffled (train, test) partition.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is not within `(0, 1]`.
    #[must_use]
    pub fn split_indices(&self, train_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        assert!(
            train_fraction > 0.0 && train_fraction <= 1.0,
            "train fraction must be in (0, 1]"
        );
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(&mut StdRng::seed_from_u64(seed));
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let test = indices.split_off(cut.min(self.len()));
        (indices, test)
    }
}

/// A borrowed column-major view of a binary-feature training set: one
/// bit-plane per feature plus the label plane, over `len` samples (bit
/// `i % 64` of word `i / 64` is sample `i`; bits at and above `len` are
/// zero). Tree growth reads only this view, so callers that already hold
/// bit-planes (the per-bit predictor, whose 4w base-feature planes are
/// shared by every output bit) lend them without copying.
#[derive(Debug, Clone)]
pub(crate) struct Planes<'a> {
    /// One plane per feature.
    pub features: Vec<&'a [u64]>,
    /// The label plane.
    pub labels: &'a [u64],
    /// Number of samples.
    pub len: usize,
}

/// Tests a feature inside a packed sample without unpacking.
#[must_use]
pub(crate) fn packed_feature(sample: &[u64], f: usize) -> bool {
    (sample[f / 64] >> (f % 64)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrips_past_word_boundary() {
        let n = 130;
        let mut d = Dataset::new(n);
        let features: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        d.push(&features, true);
        for (i, &f) in features.iter().enumerate() {
            assert_eq!(d.feature(0, i), f, "feature {i}");
            assert_eq!(packed_feature(d.sample(0), i), f);
        }
    }

    #[test]
    fn labels_and_positives() {
        let mut d = Dataset::new(2);
        d.push(&[true, true], true);
        d.push(&[false, true], false);
        d.push(&[true, false], true);
        assert_eq!(d.positives(), 2);
        assert!(d.label(0) && !d.label(1));
    }

    #[test]
    fn split_partitions_all_indices() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push(&[i % 2 == 0], false);
        }
        let (train, test) = d.split_indices(0.7, 9);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic() {
        let mut d = Dataset::new(1);
        for _ in 0..50 {
            d.push(&[true], true);
        }
        assert_eq!(d.split_indices(0.5, 3), d.split_indices(0.5, 3));
        assert_ne!(d.split_indices(0.5, 3).0, d.split_indices(0.5, 4).0);
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn push_validates_width() {
        let mut d = Dataset::new(2);
        d.push(&[true], false);
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn zero_features_rejected() {
        let _ = Dataset::new(0);
    }
}
