//! The bit-plane datapath shared by training and inference.
//!
//! Every feature of the paper's model is one bit, so a stream of cycles is
//! stored column-major: one `u64` plane per feature bit, where bit
//! `i % 64` of word `i / 64` is cycle `i`. Tree growth counts split sides
//! with popcounts against these planes, and batched inference walks each
//! tree with 64-cycle lane masks over them. This module holds the
//! primitives both sides use: the transposing packer, the carry-save
//! split counter, and the bit-sliced majority vote.

/// Appends `bits` planes of `field(item)` over `items` to `out`, plane-major
/// (plane `j` occupies `out[start + j * words..][..words]` with
/// `words = items.len().div_ceil(64)`). Bits of lanes past the end of
/// `items` stay zero.
///
/// Each block of 64 values is one 64×64 bit-matrix transpose
/// ([`transpose64`]): six rounds of masked swaps, with no per-bit work
/// and no data-dependent branch.
///
/// # Panics
///
/// Panics if `bits > 64`.
pub(crate) fn pack_planes<T>(
    items: &[T],
    bits: usize,
    field: impl Fn(&T) -> u64,
    out: &mut Vec<u64>,
) {
    assert!(bits <= 64, "a u64 field has at most 64 bit-planes");
    let words = items.len().div_ceil(64);
    let start = out.len();
    out.resize(start + bits * words, 0);
    let planes = &mut out[start..];
    for (word, block) in items.chunks(64).enumerate() {
        let mut matrix = [0u64; 64];
        for (row, item) in matrix.iter_mut().zip(block) {
            *row = field(item);
        }
        transpose64(&mut matrix);
        for (j, &plane) in matrix[..bits].iter().enumerate() {
            planes[j * words + word] = plane;
        }
    }
}

/// Transposes a 64×64 bit matrix in place, where bit `c` of `m[r]` is
/// entry `(r, c)`: afterwards bit `r` of `m[c]` holds it. Each round swaps
/// the off-diagonal `j×j` blocks of every `2j×2j` tile, for `j` = 32, 16,
/// …, 1 (Hacker's Delight, section 7-3, in least-significant-bit-first
/// order). A transpose is its own inverse, so the same routine unpacks
/// per-bit planes back into per-cycle words.
pub(crate) fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut low = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        for k in 0..64 {
            if k & j == 0 {
                let t = ((m[k] >> j) ^ m[k + j]) & low;
                m[k + j] ^= t;
                m[k] ^= t << j;
            }
        }
        j >>= 1;
        low ^= low << j;
    }
}

/// One full adder over 64 bit positions at once: `(sum, carry)` of
/// `a + b + c`, per bit.
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// A Harley–Seal carry-save popcount accumulator: each block of eight
/// words passes through seven full adders into ones/twos/fours
/// accumulators and leaves one popcount (of the eights) instead of eight.
/// The target baseline has no popcount instruction, so every `count_ones`
/// is a dozen-operation SWAR sequence; a full adder is five plain bitwise
/// operations.
#[derive(Debug, Default)]
struct CarrySave {
    ones: u64,
    twos: u64,
    fours: u64,
    eights: usize,
}

impl CarrySave {
    fn add8(&mut self, w: [u64; 8]) {
        let (ones, twos_a) = csa(self.ones, w[0], w[1]);
        let (ones, twos_b) = csa(ones, w[2], w[3]);
        let (twos, fours_a) = csa(self.twos, twos_a, twos_b);
        let (ones, twos_a) = csa(ones, w[4], w[5]);
        let (ones, twos_b) = csa(ones, w[6], w[7]);
        let (twos, fours_b) = csa(twos, twos_a, twos_b);
        let (fours, eights) = csa(self.fours, fours_a, fours_b);
        (self.ones, self.twos, self.fours) = (ones, twos, fours);
        self.eights += eights.count_ones() as usize;
    }

    fn total(&self) -> usize {
        8 * self.eights
            + 4 * self.fours.count_ones() as usize
            + 2 * self.twos.count_ones() as usize
            + self.ones.count_ones() as usize
    }
}

/// Split-side counts of one candidate feature over a node stored as
/// sparse mask words: word `k` of the node covers samples
/// `64 * index[k]..` with membership `members[k]` and positive members
/// `positives[k]`. Returns `(Σ popcount(members & plane), Σ
/// popcount(positives & plane))` over the words, the sizes of the high
/// side and of its positive part, in one pass with carry-save counting.
///
/// # Panics
///
/// Panics if an index is out of the plane's range; in debug builds also if
/// the slices differ in length.
pub(crate) fn split_counts(
    index: &[u32],
    members: &[u64],
    positives: &[u64],
    plane: &[u64],
) -> (usize, usize) {
    debug_assert!(index.len() == members.len() && index.len() == positives.len());
    let (mut high, mut high_pos) = (CarrySave::default(), CarrySave::default());
    let blocks = index
        .chunks_exact(8)
        .zip(members.chunks_exact(8))
        .zip(positives.chunks_exact(8));
    for ((i, m), p) in blocks {
        let f: [u64; 8] = std::array::from_fn(|k| plane[i[k] as usize]);
        high.add8(std::array::from_fn(|k| m[k] & f[k]));
        high_pos.add8(std::array::from_fn(|k| p[k] & f[k]));
    }
    let (mut high, mut high_pos) = (high.total(), high_pos.total());
    let tail = index.len() - index.len() % 8;
    for ((&i, &m), &p) in index[tail..]
        .iter()
        .zip(&members[tail..])
        .zip(&positives[tail..])
    {
        let f = plane[i as usize];
        high += (m & f).count_ones() as usize;
        high_pos += (p & f).count_ones() as usize;
    }
    (high, high_pos)
}

/// A bit-sliced vote counter over 64 lanes: plane `k` holds bit `k` of
/// every lane's count, so one vote plane is added with a ripple of
/// half adders and the majority is one bit-sliced comparison.
#[derive(Debug)]
pub(crate) struct VoteCounter {
    planes: [u64; usize::BITS as usize],
}

impl VoteCounter {
    /// A counter with every lane at zero.
    pub(crate) fn new() -> Self {
        Self {
            planes: [0; usize::BITS as usize],
        }
    }

    /// Adds one vote to every lane set in `votes`.
    pub(crate) fn add(&mut self, votes: u64) {
        let mut carry = votes;
        for plane in &mut self.planes {
            if carry == 0 {
                break;
            }
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
    }

    /// Lanes of `lanes` whose count `c` satisfies `2 * c > voters`: the
    /// strict majority of `voters` votes (a tie is not a majority).
    pub(crate) fn majority(&self, voters: usize, lanes: u64) -> u64 {
        // 2c > n  <=>  c >= n/2 + 1; compare against that threshold from
        // the most significant count bit down.
        // Counts never exceed `voters`, so higher planes are all zero.
        let threshold = voters / 2 + 1;
        let width = (usize::BITS - voters.leading_zeros()) as usize;
        let (mut greater, mut equal) = (0u64, lanes);
        for (k, &plane) in self.planes[..width].iter().enumerate().rev() {
            if (threshold >> k) & 1 == 1 {
                equal &= plane;
            } else {
                greater |= equal & plane;
                equal &= !plane;
            }
        }
        greater | equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn packer_matches_per_bit_tests() {
        let mut state = 3;
        for n in [1usize, 63, 64, 65, 200] {
            let values: Vec<u64> = (0..n).map(|_| splitmix(&mut state)).collect();
            let bits = 37;
            let mut planes = vec![7u64];
            pack_planes(&values, bits, |&v| v, &mut planes);
            let words = n.div_ceil(64);
            assert_eq!(planes.len(), 1 + bits * words);
            assert_eq!(planes[0], 7, "existing contents are kept");
            for j in 0..bits {
                for w in 0..words {
                    let mut expected = 0u64;
                    for lane in 0..64 {
                        let i = w * 64 + lane;
                        if i < n && (values[i] >> j) & 1 == 1 {
                            expected |= 1 << lane;
                        }
                    }
                    assert_eq!(planes[1 + j * words + w], expected, "n={n} j={j} w={w}");
                }
            }
        }
    }

    #[test]
    fn split_counts_equal_plain_popcounts() {
        let mut state = 11;
        let plane: Vec<u64> = (0..50).map(|_| splitmix(&mut state)).collect();
        for len in 0..40 {
            let index: Vec<u32> = (0..len)
                .map(|_| (splitmix(&mut state) % 50) as u32)
                .collect();
            let members: Vec<u64> = (0..len)
                .map(|k| {
                    if k % 5 == 0 {
                        u64::MAX
                    } else {
                        splitmix(&mut state)
                    }
                })
                .collect();
            let positives: Vec<u64> = members.iter().map(|&m| m & splitmix(&mut state)).collect();
            let count = |words: &[u64]| -> usize {
                words
                    .iter()
                    .zip(&index)
                    .map(|(&w, &i)| (w & plane[i as usize]).count_ones() as usize)
                    .sum()
            };
            assert_eq!(
                split_counts(&index, &members, &positives, &plane),
                (count(&members), count(&positives)),
                "len {len}"
            );
        }
    }

    #[test]
    fn majority_is_a_strict_per_lane_majority() {
        let mut state = 5;
        for voters in 1..=12usize {
            let votes: Vec<u64> = (0..voters).map(|_| splitmix(&mut state)).collect();
            let mut counter = VoteCounter::new();
            for &v in &votes {
                counter.add(v);
            }
            let lanes = splitmix(&mut state) | 1;
            let got = counter.majority(voters, lanes);
            for lane in 0..64 {
                let count = votes.iter().filter(|&&v| (v >> lane) & 1 == 1).count();
                let expected = (lanes >> lane) & 1 == 1 && 2 * count > voters;
                assert_eq!(
                    (got >> lane) & 1 == 1,
                    expected,
                    "voters {voters} lane {lane}"
                );
            }
        }
    }
}
