//! Pseudorandom permutations over arbitrary integer domains.
//!
//! GeoProof's setup (§V-A, step 4) reorders the encrypted file's blocks with
//! a pseudorandom permutation so the provider cannot tell which blocks share
//! an error-correction chunk (citing Luby–Rackoff, reference 28). Real files are not
//! a power of two long, so we build:
//!
//! 1. [`FeistelPrp`] — a balanced Feistel network over `2^(2w)`-sized
//!    domains with HMAC round functions (Luby–Rackoff: 4 rounds already give
//!    a strong PRP; we use 8 for margin), and
//! 2. [`DomainPrp`] — cycle-walking on top of the Feistel network to obtain
//!    a permutation of an arbitrary domain `[0, n)`.
//!
//! # Examples
//!
//! ```
//! use geoproof_crypto::prp::DomainPrp;
//!
//! let prp = DomainPrp::new(&[1u8; 32], 1000);
//! let image: Vec<u64> = (0..1000).map(|i| prp.permute(i)).collect();
//! let mut sorted = image.clone();
//! sorted.sort_unstable();
//! assert_eq!(sorted, (0..1000).collect::<Vec<_>>()); // bijection
//! assert_eq!(prp.inverse(prp.permute(123)), 123);
//! ```

use crate::hmac::{HmacKeySchedule, HmacSha256};

const ROUNDS: usize = 8;

/// Largest `half_bits` for which [`FeistelSchedule`] tabulates the round
/// functions: 8 rounds × 2^16 entries × 2 bytes = 1 MiB. Round outputs
/// are masked to `half_bits` bits, so a `u16` entry holds them exactly.
/// That covers domains up to 2^32 blocks (a 64 TiB file at 16-byte
/// blocks); larger domains fall back to midstate HMACs.
const TABLE_HALF_BITS_MAX: u32 = 16;

/// Cycle walks [`PrpSchedule::permute_range`] runs in lockstep.
const LANES: usize = 8;

/// Balanced Feistel permutation over `[0, 2^(2*half_bits))`.
///
/// Round function: `F_i(x) = HMAC_k(i || x)` truncated to `half_bits` bits.
#[derive(Clone)]
pub struct FeistelPrp {
    key: [u8; 32],
    half_bits: u32,
}

impl std::fmt::Debug for FeistelPrp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeistelPrp")
            .field("half_bits", &self.half_bits)
            .finish_non_exhaustive()
    }
}

impl FeistelPrp {
    /// Creates a Feistel PRP over a `2^(2*half_bits)` domain.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= half_bits <= 32`.
    pub fn new(key: &[u8; 32], half_bits: u32) -> Self {
        assert!((1..=32).contains(&half_bits), "half_bits must be in 1..=32");
        FeistelPrp {
            key: *key,
            half_bits,
        }
    }

    /// Size of the permuted domain (`2^(2*half_bits)`), saturating at `u64::MAX`
    /// when `half_bits == 32`.
    pub fn domain_size(&self) -> u64 {
        if self.half_bits == 32 {
            u64::MAX // 2^64 - 1; treated as "full u64 domain" marker
        } else {
            1u64 << (2 * self.half_bits)
        }
    }

    fn round(&self, round_idx: u32, half: u64) -> u64 {
        let mut h = HmacSha256::new(&self.key);
        h.update(&round_idx.to_be_bytes());
        h.update(&half.to_be_bytes());
        let tag = h.finalize();
        let v = u64::from_be_bytes(tag[..8].try_into().expect("8 bytes"));
        v & self.half_mask()
    }

    /// Precomputes the per-key round schedule (see [`FeistelSchedule`]).
    pub fn precompute(&self) -> FeistelSchedule {
        FeistelSchedule::new(&self.key, self.half_bits)
    }

    fn half_mask(&self) -> u64 {
        half_mask(self.half_bits)
    }

    /// Applies the forward permutation.
    pub fn permute(&self, x: u64) -> u64 {
        let mask = self.half_mask();
        let mut left = (x >> self.half_bits) & mask;
        let mut right = x & mask;
        for r in 0..ROUNDS as u32 {
            let new_left = right;
            let new_right = left ^ self.round(r, right);
            left = new_left;
            right = new_right;
        }
        (left << self.half_bits) | right
    }

    /// Applies the inverse permutation.
    pub fn inverse(&self, y: u64) -> u64 {
        let mask = self.half_mask();
        let mut left = (y >> self.half_bits) & mask;
        let mut right = y & mask;
        for r in (0..ROUNDS as u32).rev() {
            let prev_right = left;
            let prev_left = right ^ self.round(r, prev_right);
            left = prev_left;
            right = prev_right;
        }
        (left << self.half_bits) | right
    }
}

/// A per-key precomputed [`FeistelPrp`]: identical permutation, hoisted
/// round-function work.
///
/// [`FeistelPrp::permute`] pays 8 HMAC invocations (≈ 32 SHA-256
/// compressions) per call, every call. But the round function
/// `F_i(x) = HMAC_k(i ‖ x)` only ever sees `x < 2^half_bits` — for any
/// realistic file the whole round-function domain is a few thousand
/// points. The schedule evaluates each `(round, x)` pair **once** into a
/// flat `u16` table (≤ 1 MiB; 64 KiB for a 64 MiB file), so one HMAC
/// invocation covers every block whose Feistel walk passes through that
/// point and `permute` itself is eight table loads and XORs. Domains too
/// large to tabulate (`half_bits >` 16) keep per-call HMACs but reuse
/// precomputed key-pad midstates ([`HmacKeySchedule`]), halving the
/// compressions.
///
/// Outputs are bit-identical to the plain [`FeistelPrp`] — the schedule
/// is a cache, not a different construction; `crate::prp` tests pin the
/// equivalence over full small domains and sampled paper-sized ones.
#[derive(Clone)]
pub struct FeistelSchedule {
    half_bits: u32,
    hmac: HmacKeySchedule,
    /// Flat round table, entry `(r << half_bits) | x`; `None` when the
    /// domain is too large to tabulate.
    table: Option<Vec<u16>>,
}

impl std::fmt::Debug for FeistelSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeistelSchedule")
            .field("half_bits", &self.half_bits)
            .field("tabulated", &self.table.is_some())
            .finish_non_exhaustive()
    }
}

impl FeistelSchedule {
    /// Precomputes the schedule for `key` over a `2^(2*half_bits)` domain.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= half_bits <= 32`.
    pub fn new(key: &[u8; 32], half_bits: u32) -> Self {
        Self::with_table_limit(key, half_bits, TABLE_HALF_BITS_MAX)
    }

    fn with_table_limit(key: &[u8; 32], half_bits: u32, table_max: u32) -> Self {
        assert!((1..=32).contains(&half_bits), "half_bits must be in 1..=32");
        assert!(
            table_max <= TABLE_HALF_BITS_MAX,
            "round table entries are u16"
        );
        let hmac = HmacKeySchedule::new(key);
        let mask = half_mask(half_bits);
        let table = (half_bits <= table_max).then(|| {
            let size = 1usize << half_bits;
            let mut t = vec![0u16; ROUNDS * size];
            for (r, round) in t.chunks_exact_mut(size).enumerate() {
                for (x, slot) in round.iter_mut().enumerate() {
                    *slot = hmac_round(&hmac, r as u32, x as u64, mask) as u16;
                }
            }
            t
        });
        FeistelSchedule {
            half_bits,
            hmac,
            table,
        }
    }

    fn round(&self, round_idx: u32, half: u64) -> u64 {
        match &self.table {
            Some(t) => u64::from(t[((round_idx as usize) << self.half_bits) | half as usize]),
            None => hmac_round(&self.hmac, round_idx, half, half_mask(self.half_bits)),
        }
    }

    /// [`FeistelSchedule::permute`] of [`LANES`] independent points
    /// through the round table `table`. The lanes' loads do not depend
    /// on each other, so they overlap instead of queueing behind one
    /// another's latency.
    fn permute_lanes(&self, table: &[u16], x: &mut [u64; LANES]) {
        let hb = self.half_bits;
        let mask = half_mask(hb);
        let mut left = x.map(|v| (v >> hb) & mask);
        let mut right = x.map(|v| v & mask);
        for round in table.chunks_exact(1 << hb) {
            for (l, r) in left.iter_mut().zip(right.iter_mut()) {
                (*l, *r) = (*r, *l ^ u64::from(round[*r as usize]));
            }
        }
        for ((v, l), r) in x.iter_mut().zip(left).zip(right) {
            *v = (l << hb) | r;
        }
    }

    /// Applies the forward permutation (identical to [`FeistelPrp::permute`]).
    pub fn permute(&self, x: u64) -> u64 {
        let mask = half_mask(self.half_bits);
        let mut left = (x >> self.half_bits) & mask;
        let mut right = x & mask;
        for r in 0..ROUNDS as u32 {
            let new_left = right;
            let new_right = left ^ self.round(r, right);
            left = new_left;
            right = new_right;
        }
        (left << self.half_bits) | right
    }

    /// Applies the inverse permutation (identical to [`FeistelPrp::inverse`]).
    pub fn inverse(&self, y: u64) -> u64 {
        let mask = half_mask(self.half_bits);
        let mut left = (y >> self.half_bits) & mask;
        let mut right = y & mask;
        for r in (0..ROUNDS as u32).rev() {
            let prev_right = left;
            let prev_left = right ^ self.round(r, prev_right);
            left = prev_left;
            right = prev_right;
        }
        (left << self.half_bits) | right
    }
}

fn half_mask(half_bits: u32) -> u64 {
    if half_bits == 64 {
        u64::MAX
    } else {
        (1u64 << half_bits) - 1
    }
}

/// One round-function evaluation from precomputed key midstates — the
/// same bytes [`FeistelPrp::round`] hashes.
fn hmac_round(hmac: &HmacKeySchedule, round_idx: u32, half: u64, mask: u64) -> u64 {
    let mut h = hmac.start();
    h.update(&round_idx.to_be_bytes());
    h.update(&half.to_be_bytes());
    let tag = h.finalize();
    u64::from_be_bytes(tag[..8].try_into().expect("8 bytes")) & mask
}

/// Pseudorandom permutation of an arbitrary domain `[0, n)` by cycle-walking
/// a [`FeistelPrp`] over the next power-of-four-sized domain.
///
/// Cycle-walking repeatedly applies the base permutation until the output
/// lands back inside `[0, n)`; because the base map is a bijection of a
/// superset, the walk always terminates and the restriction is a bijection
/// of `[0, n)`. Expected iterations are below 4.
#[derive(Clone, Debug)]
pub struct DomainPrp {
    feistel: FeistelPrp,
    n: u64,
}

impl DomainPrp {
    /// Creates a PRP over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(key: &[u8; 32], n: u64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        // Smallest even bit-width >= bits needed for n-1.
        let needed = 64 - n.saturating_sub(1).leading_zeros();
        let half_bits = needed.div_ceil(2).max(1);
        DomainPrp {
            feistel: FeistelPrp::new(key, half_bits),
            n,
        }
    }

    /// Domain size `n`.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Forward permutation of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    pub fn permute(&self, x: u64) -> u64 {
        assert!(x < self.n, "input {x} outside domain [0, {})", self.n);
        let mut y = self.feistel.permute(x);
        while y >= self.n {
            y = self.feistel.permute(y);
        }
        y
    }

    /// Inverse permutation of `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn inverse(&self, y: u64) -> u64 {
        assert!(y < self.n, "input {y} outside domain [0, {})", self.n);
        let mut x = self.feistel.inverse(y);
        while x >= self.n {
            x = self.feistel.inverse(x);
        }
        x
    }

    /// Precomputes the per-key round schedule (see [`PrpSchedule`]).
    pub fn precompute(&self) -> PrpSchedule {
        PrpSchedule {
            feistel: self.feistel.precompute(),
            n: self.n,
        }
    }
}

/// A precomputed [`DomainPrp`]: the same cycle-walked permutation of
/// `[0, n)`, with the Feistel round functions tabulated per key (see
/// [`FeistelSchedule`]). Cycle-walking visits points of the enclosing
/// power-of-four domain, all of which the table covers, so every walk —
/// however long — is table lookups only. [`PrpSchedule::permute_range`]
/// permutes a whole run of consecutive points at once.
///
/// `Send + Sync` and cheap to share: the POR encoder builds one per file
/// and hands references to every worker.
#[derive(Clone, Debug)]
pub struct PrpSchedule {
    feistel: FeistelSchedule,
    n: u64,
}

impl PrpSchedule {
    /// Precomputes a PRP schedule over `[0, n)` — equivalent to
    /// `DomainPrp::new(key, n).precompute()`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(key: &[u8; 32], n: u64) -> Self {
        DomainPrp::new(key, n).precompute()
    }

    /// Domain size `n`.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Forward permutation of `x` (identical to [`DomainPrp::permute`]).
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    pub fn permute(&self, x: u64) -> u64 {
        assert!(x < self.n, "input {x} outside domain [0, {})", self.n);
        let mut y = self.feistel.permute(x);
        while y >= self.n {
            y = self.feistel.permute(y);
        }
        y
    }

    /// Inverse permutation of `y` (identical to [`DomainPrp::inverse`]).
    ///
    /// # Panics
    ///
    /// Panics if `y >= n`.
    pub fn inverse(&self, y: u64) -> u64 {
        assert!(y < self.n, "input {y} outside domain [0, {})", self.n);
        let mut x = self.feistel.inverse(y);
        while x >= self.n {
            x = self.feistel.inverse(x);
        }
        x
    }

    /// Forward permutation of the range `first..first + out.len()`:
    /// writes `permute(first + i)` into `out[i]`.
    ///
    /// A tabulated schedule runs eight cycle walks in lockstep and
    /// hands a lane the next input the moment its walk lands inside
    /// `[0, n)`, so one long walk never holds the others up. The
    /// untabulated fallback permutes point by point. Either way the
    /// output equals per-point [`PrpSchedule::permute`].
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past `n`.
    pub fn permute_range(&self, first: u64, out: &mut [u64]) {
        assert!(
            first
                .checked_add(out.len() as u64)
                .is_some_and(|end| end <= self.n),
            "range {first}..+{} outside domain [0, {})",
            out.len(),
            self.n
        );
        let Some(table) = &self.feistel.table else {
            for (x, y) in (first..).zip(out.iter_mut()) {
                *y = self.permute(x);
            }
            return;
        };
        const IDLE: usize = usize::MAX;
        // Lane `l` is walking the image of input `first + slot[l]`.
        let mut slot = [IDLE; LANES];
        let mut walk = [0u64; LANES];
        let mut next = 0;
        loop {
            let mut busy = false;
            for (s, w) in slot.iter_mut().zip(walk.iter_mut()) {
                if *s != IDLE {
                    if *w >= self.n {
                        busy = true;
                        continue;
                    }
                    out[*s] = *w;
                }
                if next < out.len() {
                    (*s, *w) = (next, first + next as u64);
                    next += 1;
                    busy = true;
                } else {
                    *s = IDLE;
                }
            }
            if !busy {
                return;
            }
            self.feistel.permute_lanes(table, &mut walk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feistel_roundtrip_small_domain() {
        let prp = FeistelPrp::new(&[3u8; 32], 4); // domain 2^8
        for x in 0..256u64 {
            let y = prp.permute(x);
            assert!(y < 256);
            assert_eq!(prp.inverse(y), x);
        }
    }

    #[test]
    fn feistel_is_bijection() {
        let prp = FeistelPrp::new(&[5u8; 32], 4);
        let mut seen = vec![false; 256];
        for x in 0..256u64 {
            let y = prp.permute(x) as usize;
            assert!(!seen[y], "collision at {y}");
            seen[y] = true;
        }
    }

    #[test]
    fn domain_prp_bijection_odd_domain() {
        // 1000 is not a power of two: exercises cycle-walking.
        let prp = DomainPrp::new(&[7u8; 32], 1000);
        let mut seen = vec![false; 1000];
        for x in 0..1000u64 {
            let y = prp.permute(x);
            assert!(y < 1000);
            assert!(!seen[y as usize]);
            seen[y as usize] = true;
            assert_eq!(prp.inverse(y), x);
        }
    }

    #[test]
    fn domain_prp_singleton() {
        let prp = DomainPrp::new(&[0u8; 32], 1);
        assert_eq!(prp.permute(0), 0);
        assert_eq!(prp.inverse(0), 0);
    }

    #[test]
    fn distinct_keys_give_distinct_permutations() {
        let a = DomainPrp::new(&[1u8; 32], 4096);
        let b = DomainPrp::new(&[2u8; 32], 4096);
        let differs = (0..4096u64).any(|x| a.permute(x) != b.permute(x));
        assert!(differs);
    }

    #[test]
    fn permutation_looks_non_trivial() {
        // Not the identity and not a simple shift.
        let prp = DomainPrp::new(&[9u8; 32], 1 << 16);
        let fixed = (0..(1u64 << 16)).filter(|&x| prp.permute(x) == x).count();
        // A random permutation of 65536 points has ~1 fixed point on average.
        assert!(fixed < 20, "too many fixed points: {fixed}");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        DomainPrp::new(&[0u8; 32], 10).permute(10);
    }

    #[test]
    fn large_domain_smoke() {
        // The paper's example file has ~1.5e8 blocks; test at that scale.
        let prp = DomainPrp::new(&[4u8; 32], 153_008_209);
        for x in [0u64, 1, 76_504_104, 153_008_208] {
            let y = prp.permute(x);
            assert!(y < 153_008_209);
            assert_eq!(prp.inverse(y), x);
        }
    }

    // --- precomputed schedule ≡ per-call construction ----------------------

    #[test]
    fn feistel_schedule_agrees_on_full_domain_small_half_bits() {
        for half_bits in 1..=6u32 {
            let key = [half_bits as u8; 32];
            let prp = FeistelPrp::new(&key, half_bits);
            let sched = prp.precompute();
            for x in 0..(1u64 << (2 * half_bits)) {
                assert_eq!(sched.permute(x), prp.permute(x), "hb {half_bits} x {x}");
                assert_eq!(sched.inverse(x), prp.inverse(x), "hb {half_bits} y {x}");
            }
        }
    }

    #[test]
    fn untabulated_schedule_agrees_on_full_domain() {
        // Force the midstate-HMAC fallback (table_max = 0) and pin it to
        // the same permutation — big-domain behaviour tested small.
        let key = [0x42u8; 32];
        let prp = FeistelPrp::new(&key, 4);
        let sched = FeistelSchedule::with_table_limit(&key, 4, 0);
        for x in 0..256u64 {
            assert_eq!(sched.permute(x), prp.permute(x), "x {x}");
            assert_eq!(sched.inverse(x), prp.inverse(x), "y {x}");
        }
    }

    #[test]
    fn domain_schedule_agrees_through_cycle_walking() {
        // Non-power-of-four domains force cycle walks; every walked point
        // must resolve identically. 5 and 1000 walk hard; 4096 not at all.
        for n in [1u64, 2, 3, 5, 17, 1000, 4096, 4097] {
            let key = [0x17u8; 32];
            let prp = DomainPrp::new(&key, n);
            let sched = prp.precompute();
            for x in 0..n {
                let y = sched.permute(x);
                assert_eq!(y, prp.permute(x), "n {n} x {x}");
                assert_eq!(sched.inverse(y), x, "n {n} y {y}");
            }
        }
    }

    #[test]
    fn domain_schedule_agrees_on_paper_sized_domain() {
        // b′ ≈ 1.5e8 blocks: tabulated at half_bits 14. Sample points
        // across the domain rather than enumerate it.
        let key = [0x29u8; 32];
        let n = 153_008_209u64;
        let prp = DomainPrp::new(&key, n);
        let sched = prp.precompute();
        let mut x = 0u64;
        for i in 0..64u64 {
            x = (x.wrapping_mul(6364136223846793005).wrapping_add(i)) % n;
            let y = sched.permute(x);
            assert_eq!(y, prp.permute(x), "x {x}");
            assert_eq!(sched.inverse(y), x, "y {y}");
        }
        assert_eq!(sched.domain(), n);
    }

    // --- permute_range ≡ per-point permute -----------------------------------

    /// Asserts `permute_range(first, len)` equals per-point `permute`.
    fn assert_range_matches(sched: &PrpSchedule, first: u64, len: usize) {
        let mut out = vec![u64::MAX; len];
        sched.permute_range(first, &mut out);
        for (x, y) in (first..).zip(&out) {
            assert_eq!(*y, sched.permute(x), "n {} first {first} x {x}", sched.n);
        }
    }

    /// Seeded LCG starts in `[0, n - len]`.
    fn seeded_starts(n: u64, len: usize, count: u64) -> impl Iterator<Item = u64> {
        let span = n - len as u64 + 1;
        (0..count).map(move |i| {
            i.wrapping_mul(6364136223846793005)
                .wrapping_add((len as u64).wrapping_mul(1442695040888963407))
                % span
        })
    }

    #[test]
    fn permute_range_covers_full_small_domains() {
        // 5, 17 and 4097 sit just above a power of four, so their walks
        // average 3–4 steps; 1000 walks rarely and 4096 never.
        for n in [1u64, 2, 3, 5, 17, 1000, 4096, 4097] {
            let key = [0x17u8; 32];
            let sched = PrpSchedule::new(&key, n);
            let mut out = vec![0u64; n as usize];
            sched.permute_range(0, &mut out);
            let prp = DomainPrp::new(&key, n);
            for (x, y) in (0..n).zip(&out) {
                assert_eq!(*y, prp.permute(x), "n {n} x {x}");
            }
            out.sort_unstable();
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "n {n}: not a bijection");
        }
    }

    #[test]
    fn permute_range_matches_every_length_and_domain_end() {
        let n = 5000u64;
        let sched = PrpSchedule::new(&[0x31u8; 32], n);
        for len in 0..=300usize {
            for first in seeded_starts(n, len, 3) {
                assert_range_matches(&sched, first, len);
            }
            assert_range_matches(&sched, n - len as u64, len);
        }
    }

    #[test]
    fn permute_range_matches_on_paper_sized_domain() {
        let n = 153_008_209u64;
        let sched = PrpSchedule::new(&[0x29u8; 32], n);
        for len in [1usize, 7, 255, 1024] {
            for first in seeded_starts(n, len, 8) {
                assert_range_matches(&sched, first, len);
            }
            assert_range_matches(&sched, n - len as u64, len);
        }
    }

    #[test]
    fn permute_range_untabulated_fallback_matches() {
        let key = [0x42u8; 32];
        for n in [5u64, 1000, 4097] {
            let half_bits = DomainPrp::new(&key, n).feistel.half_bits;
            let sched = PrpSchedule {
                feistel: FeistelSchedule::with_table_limit(&key, half_bits, 0),
                n,
            };
            assert!(sched.feistel.table.is_none());
            let mut out = vec![0u64; n as usize];
            sched.permute_range(0, &mut out);
            let prp = DomainPrp::new(&key, n);
            for (x, y) in (0..n).zip(&out) {
                assert_eq!(*y, prp.permute(x), "n {n} x {x}");
            }
        }
    }

    #[test]
    fn u16_table_is_exact_at_half_bits_16() {
        // The widest tabulated domain: every round output needs all 16
        // bits, so the table must hold them without loss.
        let key = [0x61u8; 32];
        let sched = FeistelSchedule::new(&key, 16);
        let table = sched.table.as_ref().expect("half_bits 16 is tabulated");
        assert_eq!(table.len(), ROUNDS << 16);
        assert!(table.iter().any(|&v| v >= 0x8000), "top bit never set");
        let mask = half_mask(16);
        for r in 0..ROUNDS as u32 {
            for x in [0u64, 1, 0x7fff, 0x8000, 0xfffe, 0xffff] {
                let entry = u64::from(table[((r as usize) << 16) | x as usize]);
                assert_eq!(entry, hmac_round(&sched.hmac, r, x, mask), "r {r} x {x}");
            }
        }
        let prp = FeistelPrp::new(&key, 16);
        let domain = PrpSchedule {
            feistel: sched,
            n: 1 << 32,
        };
        for first in seeded_starts(1 << 32, 64, 4) {
            let mut out = [0u64; 64];
            domain.permute_range(first, &mut out);
            for (x, y) in (first..).zip(out) {
                assert_eq!(y, prp.permute(x), "x {x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn permute_range_past_domain_panics() {
        PrpSchedule::new(&[0u8; 32], 10).permute_range(5, &mut [0u64; 6]);
    }

    #[test]
    fn prp_schedule_new_matches_domain_prp_precompute() {
        let key = [9u8; 32];
        let a = PrpSchedule::new(&key, 777);
        let b = DomainPrp::new(&key, 777).precompute();
        for x in 0..777u64 {
            assert_eq!(a.permute(x), b.permute(x));
        }
    }
}
