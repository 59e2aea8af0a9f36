//! The edwards25519 group and scalar arithmetic modulo its prime order.
//!
//! Twisted Edwards curve `-x² + y² = 1 + d·x²·y²` over GF(2^255 - 19) with
//! `d = -121665/121666`; prime-order subgroup of size
//! `ℓ = 2^252 + 27742317777372353535851937790883648493`. This is the group
//! in which the GeoProof verifier device signs audit transcripts.
//!
//! # Scalar multiplication paths
//!
//! * [`Point::mul_base`] — `n·B`, **constant time**. Signed radix-16
//!   digits in `[-8, 8]` over 32 rows × 8 affine Niels points
//!   `(y+x, y−x, 2d·x·y)` of `(j+1)·256^i·B` (30 KiB, static, built once
//!   per process). Every step reads all 8 entries of its row and keeps one
//!   by mask, then negates by mask: no branch and no table address
//!   depends on `n`. Always 64 mixed additions and 4 doublings. Used for
//!   every secret scalar (`SigningKey::sign`'s nonce, `from_scalar`'s key)
//!   and for the public `s·B` of the batch equation.
//! * [`Point::vartime_double_base_mul`] — `a·P + b·B`, **variable time**.
//!   Straus: one doubling chain (≈ 253 doublings) with a width-5 NAF of
//!   `a` over 8 odd multiples of `P` built per call (1.25 KiB on the
//!   stack) and a width-8 NAF of `b` over 64 odd multiples of B (7.5 KiB,
//!   static), ≈ 253/6 + 253/9 ≈ 70 additions. Branches and table indices
//!   follow the digits, which is safe only because every input is public:
//!   `VerifyingKey::verify` feeds it `s` from the signature, the negated
//!   key `−A` and `e = H(R ‖ A ‖ m)`.
//! * [`Point::mul`] — generic double-and-add, variable time (branches on
//!   every bit), 253 doublings + one addition per set bit, no table. Kept
//!   only as the reference oracle (`VerifyingKey::verify_reference` and the
//!   differential tests).
//!
//! [`multiscalar_mul`] (Pippenger, variable time, for batch verification)
//! is the one public-input helper beside them.
//!
//! Coordinates are [`Fe`] values under its limb bound (every limb below
//! 2^52 between operations; see the [`crate::fe25519`] module docs), so the
//! additions and subtractions inside these formulas never overflow.

use crate::fe25519::Fe;

/// Prime subgroup order ℓ, little-endian bytes (tests build
/// non-canonical scalars from it).
#[cfg(test)]
pub(crate) const L_BYTES_LE: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
];

const L_WORDS: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// A scalar modulo ℓ (four little-endian u64 words, always reduced).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scalar(0x")?;
        for b in self.to_bytes_le().iter().rev() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// `a + b` over four words, carry out of the top word dropped.
fn add_words(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut sum = [0u64; 4];
    let mut carry = 0u64;
    for (i, word) in sum.iter_mut().enumerate() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        *word = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    sum
}

/// `a - b` over four words (wrapping) and the borrow out: 1 iff `a < b`.
fn sub_words(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut diff = [0u64; 4];
    let mut borrow = 0u64;
    for (i, word) in diff.iter_mut().enumerate() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *word = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    (diff, borrow)
}

/// `c = ℓ - 2^252`, the low 126 bits of the group order. Folding with
/// `2^252 ≡ -c (mod ℓ)` is what makes wide reduction a handful of word
/// multiplies instead of a 512-step bit ladder.
const C_WORDS: [u64; 2] = [0x5812631a5cf5d3ed, 0x14def9dea2f79cd6];

/// Reduces a 512-bit little-endian value modulo ℓ, in constant time.
///
/// Splits `v = a₀ + b₀·2^252`, folds `b₀·2^252 ≡ −b₀·c`, and splits the
/// product `b₀·c` the same way. The folded value shrinks
/// `2^512 → 2^385 → 2^258 → 2^131`, so the fourth split leaves no high
/// part and `v ≡ a₀ − (a₁ − (a₂ − a₃))`. Every call runs all four folds
/// (the last multiplies by zero) with no early exit, because the secret
/// `e·a` of signing is reduced here. Each `aᵢ < 2^252 < ℓ`, so the
/// subtractions stay in [`Scalar::sub`]'s reduced domain.
fn reduce_wide(v: [u64; 8]) -> Scalar {
    let mut parts = [Scalar::ZERO; 4];
    let mut v = v;
    for part in parts.iter_mut() {
        *part = Scalar([v[0], v[1], v[2], v[3] & 0x0fff_ffff_ffff_ffff]);
        let mut b = [0u64; 5];
        for (i, word) in b.iter_mut().enumerate() {
            let lo = v[i + 3] >> 60;
            let hi = if i + 4 < 8 { v[i + 4] << 4 } else { 0 };
            *word = lo | hi;
        }
        // b·c: column sums stay under u128 because c's words are < 2^63.
        let mut cols = [0u128; 7];
        for (i, &bw) in b.iter().enumerate() {
            for (j, &cw) in C_WORDS.iter().enumerate() {
                cols[i + j] += (bw as u128) * (cw as u128);
            }
        }
        let mut carry = 0u128;
        for (k, &col) in cols.iter().enumerate() {
            let t = col + carry;
            v[k] = t as u64;
            carry = t >> 64;
        }
        v[7] = carry as u64;
    }
    debug_assert_eq!(v, [0; 8], "four folds must consume the input");
    parts[0].sub(&parts[1].sub(&parts[2].sub(&parts[3])))
}

/// `2^256 mod ℓ`, the chunk stride of [`Scalar::from_bytes_mod_order`].
fn two_256_mod_l() -> Scalar {
    use std::sync::OnceLock;
    static R: OnceLock<Scalar> = OnceLock::new();
    *R.get_or_init(|| reduce_wide([0, 0, 0, 0, 1, 0, 0, 0]))
}

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces an arbitrary-length little-endian byte string modulo ℓ
    /// (Horner over 256-bit chunks, each folded with `reduce_wide`).
    pub fn from_bytes_mod_order(bytes: &[u8]) -> Scalar {
        let mut rem = Scalar::ZERO;
        for ci in (0..bytes.len().div_ceil(32)).rev() {
            let start = ci * 32;
            let end = (start + 32).min(bytes.len());
            let mut chunk = [0u8; 32];
            chunk[..end - start].copy_from_slice(&bytes[start..end]);
            let mut words = [0u64; 8];
            for (w, word) in words.iter_mut().take(4).enumerate() {
                *word = u64::from_le_bytes(chunk[8 * w..8 * w + 8].try_into().expect("8"));
            }
            rem = rem.mul(&two_256_mod_l()).add(&reduce_wide(words));
        }
        rem
    }

    /// Builds a scalar from a small integer.
    pub fn from_u64(x: u64) -> Scalar {
        Scalar([x, 0, 0, 0])
    }

    /// Serialises to 32 little-endian bytes.
    pub fn to_bytes_le(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, w) in self.0.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Addition mod ℓ, without a branch on the operands: the sum minus ℓ
    /// is computed either way and kept by mask when it did not borrow.
    pub fn add(&self, other: &Scalar) -> Scalar {
        // Both inputs < ℓ < 2^253, so the sum cannot carry out of word 3.
        let sum = add_words(&self.0, &other.0);
        let (reduced, borrow) = sub_words(&sum, &L_WORDS);
        let keep_sum = borrow.wrapping_neg();
        let mut out = [0u64; 4];
        for (i, word) in out.iter_mut().enumerate() {
            *word = (sum[i] & keep_sum) | (reduced[i] & !keep_sum);
        }
        Scalar(out)
    }

    /// Subtraction mod ℓ, without a branch on the operands: ℓ is added
    /// back by mask when the difference borrowed.
    pub fn sub(&self, other: &Scalar) -> Scalar {
        let (diff, borrow) = sub_words(&self.0, &other.0);
        let wrap = borrow.wrapping_neg();
        let l_or_zero = L_WORDS.map(|w| w & wrap);
        Scalar(add_words(&diff, &l_or_zero))
    }

    /// Multiplication mod ℓ (schoolbook product, folded reduction), in
    /// constant time.
    pub fn mul(&self, other: &Scalar) -> Scalar {
        // 4x4 -> 8-word product.
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = prod[i + j] as u128 + (self.0[i] as u128) * (other.0[j] as u128) + carry;
                prod[i + j] = t as u64;
                carry = t >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        reduce_wide(prod)
    }

    /// True if the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Bit `i` of the scalar (LSB = bit 0).
    fn bit(&self, i: usize) -> u8 {
        ((self.0[i / 64] >> (i % 64)) & 1) as u8
    }

    /// Signed radix-16 digits `d_i ∈ [-8, 8]` with `Σ d_i·16^i = self`,
    /// recoded without a branch (the top digit is at most 2, as
    /// `self < ℓ < 2^253`).
    fn radix16(&self) -> [i8; 64] {
        let bytes = self.to_bytes_le();
        let mut digits = [0i8; 64];
        for (i, b) in bytes.iter().enumerate() {
            digits[2 * i] = (b & 0xf) as i8;
            digits[2 * i + 1] = (b >> 4) as i8;
        }
        let mut carry = 0i8;
        for d in digits.iter_mut().take(63) {
            *d += carry;
            carry = (*d + 8) >> 4;
            *d -= carry << 4;
        }
        digits[63] += carry;
        digits
    }

    /// Width-`w` non-adjacent form: `Σ naf[i]·2^i = self`, every non-zero
    /// digit odd with `|d| < 2^(w-1)`, and at most one non-zero digit in
    /// any `w` consecutive positions. Variable time.
    fn naf(&self, w: usize) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w));
        let mut words = [0u64; 5];
        words[..4].copy_from_slice(&self.0);
        let width = 1u64 << w;
        let mut naf = [0i8; 256];
        let mut carry = 0u64;
        let mut pos = 0;
        while pos < 256 {
            let (idx, bit) = (pos / 64, pos % 64);
            let mut buf = words[idx] >> bit;
            if bit + w > 64 {
                buf |= words[idx + 1] << (64 - bit);
            }
            let window = carry + (buf & (width - 1));
            if window & 1 == 0 {
                pos += 1;
                continue;
            }
            if window < width / 2 {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                carry = 1;
                naf[pos] = (window as i16 - width as i16) as i8;
            }
            pos += w;
        }
        naf
    }
}

/// A point on edwards25519 in extended coordinates (X:Y:Z:T), XY = ZT.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// Curve constant `d = -121665/121666 mod p`, computed once.
fn const_d() -> Fe {
    use std::sync::OnceLock;
    static D: OnceLock<Fe> = OnceLock::new();
    *D.get_or_init(|| {
        Fe::from_u64(121_665)
            .neg()
            .mul(&Fe::from_u64(121_666).invert())
    })
}

fn const_2d() -> Fe {
    use std::sync::OnceLock;
    static D2: OnceLock<Fe> = OnceLock::new();
    *D2.get_or_init(|| {
        let d = const_d();
        d.add(&d)
    })
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) && (Y1/Z1 == Y2/Z2), cross-multiplied.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}
impl Eq for Point {}

impl Point {
    /// The group identity (neutral element).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B (order ℓ).
    pub fn base() -> Point {
        use std::sync::OnceLock;
        static B: OnceLock<Point> = OnceLock::new();
        *B.get_or_init(|| {
            // y = 4/5 mod p; x recovered with even sign... The canonical
            // basepoint has x odd? Canonically Gx ends in ...5D51A (even low
            // byte 0x1a, bit0 = 0). Recover x from y and pick the
            // non-negative (even) root.
            let y = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
            Point::from_y_with_sign(&y, false).expect("base point must exist")
        })
    }

    /// Constructs the point with the given `y` and sign bit of `x`.
    ///
    /// Returns `None` if `y` is not the y-coordinate of any curve point.
    pub fn from_y_with_sign(y: &Fe, x_is_negative: bool) -> Option<Point> {
        // x² = (y² - 1) / (d·y² + 1), rooted in one exponentiation.
        let yy = y.square();
        let num = yy.sub(&Fe::ONE);
        let den = const_d().mul(&yy).add(&Fe::ONE);
        let mut x = Fe::sqrt_ratio(&num, &den)?;
        if x.is_negative() != x_is_negative {
            x = x.neg();
        }
        // Handle x == 0 with requested negative sign: invalid encoding.
        if x.is_zero() && x_is_negative {
            return None;
        }
        Some(Point {
            x,
            y: *y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Compresses to the standard 32-byte encoding (y with x-sign in the
    /// top bit).
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut bytes = y.to_bytes();
        if x.is_negative() {
            bytes[31] |= 0x80;
        }
        bytes
    }

    /// Decompresses a 32-byte encoding; `None` if not a valid point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let x_neg = bytes[31] & 0x80 != 0;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        // Reject non-canonical y (>= p).
        if y.to_bytes() != y_bytes {
            return None;
        }
        Point::from_y_with_sign(&y, x_neg)
    }

    /// Point addition (unified formula, complete for a = -1 twisted
    /// Edwards curves).
    pub fn add(&self, other: &Point) -> Point {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&const_2d()).mul(&other.t);
        let d = self.z.mul(&other.z);
        let d = d.add(&d);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let d = a.neg();
        let xy = self.x.add(&self.y);
        let e = xy.square().sub(&a).sub(&b);
        let g = d.add(&b);
        let f = g.sub(&c);
        let h = d.sub(&b);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Negation: `(x, y) -> (-x, y)`.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication `n * self` (double-and-add, fixed 253
    /// iterations). Branches on every bit of `n`: this is the reference
    /// oracle the table paths are tested against, not a path for secrets.
    pub fn mul(&self, n: &Scalar) -> Point {
        let mut acc = Point::identity();
        for i in (0..253).rev() {
            acc = acc.double();
            if n.bit(i) == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// True if this is the identity element.
    pub fn is_identity(&self) -> bool {
        // x/z == 0 and y/z == 1  <=>  x == 0 and y == z.
        self.x.is_zero() && self.y == self.z
    }

    /// Checks the curve equation `-x² + y² = 1 + d x² y²` (affine).
    pub fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = Fe::ONE.add(&const_d().mul(&xx).mul(&yy));
        lhs == rhs
    }

    /// `n·B` for the standard basepoint B in constant time: 64 mixed
    /// additions and 4 doublings for every scalar, each addend picked from
    /// its row of the static table by a masked select (see the module
    /// docs).
    pub fn mul_base(n: &Scalar) -> Point {
        let digits = n.radix16();
        // Σ d_i·16^i·B with row j holding multiples of 256^j·B, so digits
        // 2j and 2j+1 share row j: odd digits first, one multiplication by
        // 16, then the even digits.
        let rows = base_rows().chunks_exact(8);
        let mut acc = Point::identity();
        for (row, pair) in rows.clone().zip(digits.chunks_exact(2)) {
            acc = acc.add_affine(&select_niels(row, pair[1])).to_extended();
        }
        let mut p = acc.to_projective();
        for _ in 0..3 {
            p = p.double().to_projective();
        }
        acc = p.double().to_extended();
        for (row, pair) in rows.zip(digits.chunks_exact(2)) {
            acc = acc.add_affine(&select_niels(row, pair[0])).to_extended();
        }
        acc
    }

    /// `a·self + b·B` in **variable time** (Straus: one shared doubling
    /// chain, width-5 NAF of `a` over 8 odd multiples of `self` built per
    /// call, width-8 NAF of `b` over the static 64 odd multiples of B).
    /// Only for public inputs — see the module docs.
    pub fn vartime_double_base_mul(a: &Scalar, point: &Point, b: &Scalar) -> Point {
        let a_naf = a.naf(5);
        let b_naf = b.naf(8);
        let odd_a = point.odd_multiples();
        let odd_b = base_odd_multiples();
        let Some(top) = (0..256).rev().find(|&i| a_naf[i] != 0 || b_naf[i] != 0) else {
            return Point::identity();
        };
        let mut r = Point::identity().to_projective();
        for i in (0..=top).rev() {
            let mut t = r.double();
            let (da, db) = (a_naf[i], b_naf[i]);
            if da != 0 {
                let q = &odd_a[(da.unsigned_abs() / 2) as usize];
                t = t.to_extended().add_projective(&q.negate_if(da < 0));
            }
            if db != 0 {
                let q = &odd_b[(db.unsigned_abs() / 2) as usize];
                t = t.to_extended().add_affine(&q.negate_if(db < 0));
            }
            r = t.to_projective();
        }
        r.to_extended()
    }

    fn to_projective(self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&const_2d()),
        }
    }

    /// `self + q` for an affine `q` (ref10 `ge_madd`: 3 multiplications,
    /// plus the 3 or 4 of the projection that follows).
    fn add_affine(&self, q: &AffineNiels) -> Completed {
        let a = self.y.add(&self.x).mul(&q.y_plus_x);
        let b = self.y.sub(&self.x).mul(&q.y_minus_x);
        let c = q.xy2d.mul(&self.t);
        let d = self.z.add(&self.z);
        Completed {
            x: a.sub(&b),
            y: a.add(&b),
            z: d.add(&c),
            t: d.sub(&c),
        }
    }

    /// `self + q` for a projective `q` (ref10 `ge_add`: 4 multiplications,
    /// plus the projection).
    fn add_projective(&self, q: &ProjectiveNiels) -> Completed {
        let a = self.y.add(&self.x).mul(&q.y_plus_x);
        let b = self.y.sub(&self.x).mul(&q.y_minus_x);
        let c = q.t2d.mul(&self.t);
        let zz = self.z.mul(&q.z);
        let d = zz.add(&zz);
        Completed {
            x: a.sub(&b),
            y: a.add(&b),
            z: d.add(&c),
            t: d.sub(&c),
        }
    }

    /// `[P, 3P, 5P, …, 15P]`, the per-call table of the width-5 NAF.
    fn odd_multiples(&self) -> [ProjectiveNiels; 8] {
        let two = self.double().to_projective_niels();
        let mut acc = *self;
        let mut out = [self.to_projective_niels(); 8];
        for entry in out.iter_mut().skip(1) {
            acc = acc.add_projective(&two).to_extended();
            *entry = acc.to_projective_niels();
        }
        out
    }
}

/// An addition or doubling result before projection (ref10 `p1p1`):
/// `x = X/Z`, `y = Y/T`.
#[derive(Clone, Copy)]
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Completed {
    /// 4 multiplications.
    fn to_extended(self) -> Point {
        Point {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }

    /// 3 multiplications; enough when the next step only doubles.
    fn to_projective(self) -> Projective {
        Projective {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
        }
    }
}

/// `(X:Y:Z)` without the extended coordinate, the input of a doubling.
#[derive(Clone, Copy)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Projective {
    /// Doubling (ref10 `ge_p2_dbl`: 4 squarings).
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square();
        let zz2 = zz2.add(&zz2);
        let xy2 = self.x.add(&self.y).square();
        let y = yy.add(&xx);
        let z = yy.sub(&xx);
        Completed {
            x: xy2.sub(&y),
            y,
            z,
            t: zz2.sub(&z),
        }
    }

    /// 4 multiplications.
    fn to_extended(self) -> Point {
        Point {
            x: self.x.mul(&self.z),
            y: self.y.mul(&self.z),
            z: self.z.square(),
            t: self.x.mul(&self.y),
        }
    }
}

/// A point in affine Niels form `(y+x, y−x, 2d·x·y)`, the addend of a
/// mixed addition: 120 bytes.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl AffineNiels {
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    /// Normalises `points` with one shared inversion (Montgomery's trick).
    fn batch_from(points: &[Point]) -> Vec<AffineNiels> {
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = Fe::ONE;
        for p in points {
            prefix.push(acc);
            acc = acc.mul(&p.z);
        }
        let mut inv = acc.invert();
        let mut out = vec![AffineNiels::IDENTITY; points.len()];
        for ((p, before), slot) in points.iter().zip(prefix).zip(out.iter_mut()).rev() {
            let zinv = inv.mul(&before);
            inv = inv.mul(&p.z);
            let (x, y) = (p.x.mul(&zinv), p.y.mul(&zinv));
            *slot = AffineNiels {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(&const_2d()),
            };
        }
        out
    }

    fn negate_if(&self, negate: bool) -> AffineNiels {
        if negate {
            AffineNiels {
                y_plus_x: self.y_minus_x,
                y_minus_x: self.y_plus_x,
                xy2d: self.xy2d.neg(),
            }
        } else {
            *self
        }
    }
}

/// A point in projective Niels form `(Y+X, Y−X, Z, 2d·T)`.
#[derive(Clone, Copy)]
struct ProjectiveNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

impl ProjectiveNiels {
    fn negate_if(&self, negate: bool) -> ProjectiveNiels {
        if negate {
            ProjectiveNiels {
                y_plus_x: self.y_minus_x,
                y_minus_x: self.y_plus_x,
                z: self.z,
                t2d: self.t2d.neg(),
            }
        } else {
            *self
        }
    }
}

/// `(j+1)·256^i·B` at index `8i + j`, for `i < 32`, `j < 8`: the 30 KiB
/// constant-time fixed-base table (32 rows of 8), built once per process.
fn base_rows() -> &'static [AffineNiels] {
    use std::sync::OnceLock;
    static T: OnceLock<Vec<AffineNiels>> = OnceLock::new();
    T.get_or_init(|| {
        let mut points = Vec::with_capacity(32 * 8);
        let mut row_base = Point::base();
        for _ in 0..32 {
            let mut p = row_base;
            for _ in 0..8 {
                points.push(p);
                p = p.add(&row_base);
            }
            for _ in 0..8 {
                row_base = row_base.double();
            }
        }
        AffineNiels::batch_from(&points)
    })
}

/// `[B, 3B, 5B, …, 127B]`: the 7.5 KiB width-8 NAF table of
/// [`Point::vartime_double_base_mul`], built once per process.
fn base_odd_multiples() -> &'static [AffineNiels] {
    use std::sync::OnceLock;
    static T: OnceLock<Vec<AffineNiels>> = OnceLock::new();
    T.get_or_init(|| {
        let b = Point::base();
        let two = b.double();
        let points: Vec<Point> = std::iter::successors(Some(b), |p| Some(p.add(&two)))
            .take(64)
            .collect();
        AffineNiels::batch_from(&points)
    })
}

/// `digit·row[0]` for `digit ∈ [-8, 8]` and a row `[P, 2P, …, 8P]`, in
/// constant time: every entry of `row` is read and kept by mask, and the
/// negation is applied by mask, so neither a branch nor an address
/// depends on `digit`.
fn select_niels(row: &[AffineNiels], digit: i8) -> AffineNiels {
    let sign = digit >> 7; // -1 if negative, else 0
    let abs = ((digit ^ sign) - sign) as u64;
    let mut t = AffineNiels::IDENTITY;
    for (j, entry) in (1u64..).zip(row) {
        // (abs ^ j) - 1 borrows into the top bit iff abs == j.
        let hit = ((abs ^ j).wrapping_sub(1) >> 63).wrapping_neg();
        t.y_plus_x.conditional_assign(&entry.y_plus_x, hit);
        t.y_minus_x.conditional_assign(&entry.y_minus_x, hit);
        t.xy2d.conditional_assign(&entry.xy2d, hit);
    }
    let negative = (sign as i64) as u64;
    let (ypx, ymx) = (t.y_plus_x, t.y_minus_x);
    t.y_plus_x.conditional_assign(&ymx, negative);
    t.y_minus_x.conditional_assign(&ypx, negative);
    let minus_xy2d = t.xy2d.neg();
    t.xy2d.conditional_assign(&minus_xy2d, negative);
    t
}

/// `Σ scalars[i] · points[i]` via Pippenger's bucket method, the shared
/// multi-scalar multiplication under batched signature verification.
/// Cost per point falls with batch size (window width grows with `n`);
/// empty input yields the identity.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn multiscalar_mul(scalars: &[Scalar], points: &[Point]) -> Point {
    assert_eq!(scalars.len(), points.len(), "scalar/point length mismatch");
    let n = scalars.len();
    if n == 0 {
        return Point::identity();
    }
    let w: usize = match n {
        1..=7 => 4,
        8..=31 => 5,
        32..=127 => 6,
        128..=511 => 7,
        _ => 8,
    };
    let n_windows = 253usize.div_ceil(w);
    let mask = (1u64 << w) - 1;
    let digit = |s: &Scalar, win: usize| -> usize {
        let bit = win * w;
        let (word, shift) = (bit / 64, bit % 64);
        let mut d = s.0[word] >> shift;
        if shift + w > 64 && word + 1 < 4 {
            d |= s.0[word + 1] << (64 - shift);
        }
        (d & mask) as usize
    };
    let mut acc = Point::identity();
    let mut buckets = vec![Point::identity(); (1 << w) - 1];
    for win in (0..n_windows).rev() {
        if !acc.is_identity() {
            for _ in 0..w {
                acc = acc.double();
            }
        }
        // Scatter into buckets; track the highest live bucket so the
        // running-sum sweep doesn't pay for empty high multiples (the
        // common case once 128-bit batching coefficients run out of
        // windows).
        let mut top = 0usize;
        for b in buckets.iter_mut() {
            *b = Point::identity();
        }
        for (s, p) in scalars.iter().zip(points) {
            let d = digit(s, win);
            if d != 0 {
                buckets[d - 1] = buckets[d - 1].add(p);
                top = top.max(d);
            }
        }
        if top == 0 {
            continue;
        }
        // Σ d·bucket[d] by the running-sum trick: two adds per bucket.
        let mut running = Point::identity();
        let mut sum = Point::identity();
        for b in buckets[..top].iter().rev() {
            running = running.add(b);
            sum = sum.add(&running);
        }
        acc = acc.add(&sum);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_point_is_on_curve() {
        assert!(Point::base().is_on_curve());
    }

    #[test]
    fn base_point_matches_rfc8032_encoding() {
        // RFC 8032: B compresses to 0x58666...66 (LE: 58 66 66 ... 66).
        let enc = Point::base().compress();
        assert_eq!(enc[0], 0x58);
        assert!(enc[1..31].iter().all(|&b| b == 0x66));
        assert_eq!(enc[31], 0x66);
    }

    #[test]
    fn order_annihilates_base() {
        let l = Scalar(super::L_WORDS);
        // ℓ reduces to zero as a Scalar, so multiply by ℓ via raw bits:
        // compute (ℓ-1)*B + B instead.
        let l_minus_1 = l.sub(&Scalar::ONE);
        let p = Point::base().mul(&l_minus_1).add(&Point::base());
        assert!(p.is_identity());
    }

    #[test]
    fn add_is_commutative_and_matches_double() {
        let b = Point::base();
        let two_b = b.add(&b);
        assert_eq!(two_b, b.double());
        let three_b = two_b.add(&b);
        assert_eq!(three_b, b.add(&two_b));
        assert!(three_b.is_on_curve());
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = Point::base();
        let mut acc = Point::identity();
        for k in 0..8u64 {
            assert_eq!(b.mul(&Scalar::from_u64(k)), acc, "k = {k}");
            acc = acc.add(&b);
        }
    }

    #[test]
    fn compress_decompress_roundtrip() {
        for k in [1u64, 2, 3, 42, 10_000] {
            let p = Point::base().mul(&Scalar::from_u64(k));
            let enc = p.compress();
            let q = Point::decompress(&enc).expect("valid encoding");
            assert_eq!(p, q);
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 is not on the curve component reachable: check a known-bad
        // encoding. Not every y works; find one that fails.
        let mut bad = 0;
        for y in 0..20u64 {
            let mut enc = Fe::from_u64(y).to_bytes();
            enc[31] &= 0x7f;
            if Point::decompress(&enc).is_none() {
                bad += 1;
            }
        }
        assert!(bad > 0, "some small y must be invalid");
    }

    #[test]
    fn neg_add_gives_identity() {
        let p = Point::base().mul(&Scalar::from_u64(7));
        assert!(p.add(&p.neg()).is_identity());
    }

    #[test]
    fn scalar_add_mul_consistency() {
        let a = Scalar::from_u64(123_456);
        let b = Scalar::from_u64(654_321);
        let p = Point::base();
        let lhs = p.mul(&a.add(&b));
        let rhs = p.mul(&a).add(&p.mul(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_mul_distributes() {
        let a = Scalar::from_u64(1001);
        let b = Scalar::from_u64(2002);
        let p = Point::base();
        assert_eq!(p.mul(&a).mul(&b), p.mul(&a.mul(&b)));
    }

    #[test]
    fn scalar_reduction_of_l_is_zero() {
        assert!(Scalar::from_bytes_mod_order(&L_BYTES_LE).is_zero());
    }

    #[test]
    fn scalar_reduction_below_l_is_identity_map() {
        let s = Scalar::from_u64(99);
        assert_eq!(Scalar::from_bytes_mod_order(&s.to_bytes_le()), s);
    }

    #[test]
    fn scalar_sub_wraps() {
        let a = Scalar::from_u64(5);
        let b = Scalar::from_u64(7);
        let d = a.sub(&b); // -2 mod ℓ
        assert!(!d.is_zero());
        assert_eq!(d.add(&b), a);
        assert_eq!(d.add(&Scalar::from_u64(2)), Scalar::ZERO);
    }

    /// The original bit-at-a-time Horner reduction, kept as the oracle
    /// for the folded fast path.
    fn reduce_bits_reference(bytes: &[u8]) -> Scalar {
        let mut rem = [0u64; 4];
        for &byte in bytes.iter().rev() {
            for bit_idx in (0..8).rev() {
                let bit = (byte >> bit_idx) & 1;
                let mut carry = bit as u64;
                for word in rem.iter_mut() {
                    let new_carry = *word >> 63;
                    *word = (*word << 1) | carry;
                    carry = new_carry;
                }
                let (reduced, borrow) = sub_words(&rem, &L_WORDS);
                if borrow == 0 {
                    rem = reduced;
                }
            }
        }
        Scalar(rem)
    }

    #[test]
    fn folded_reduction_matches_bitwise_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for len in [0usize, 1, 5, 16, 31, 32, 33, 48, 64, 96] {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                Scalar::from_bytes_mod_order(&bytes),
                reduce_bits_reference(&bytes),
                "len {len}"
            );
        }
        // Boundary values: ℓ-1, ℓ, ℓ+1, all-ones.
        for delta in [-1i64, 0, 1] {
            let mut s = Scalar(L_WORDS).to_bytes_le();
            let mut carry = delta;
            for b in s.iter_mut() {
                let v = *b as i64 + carry;
                *b = (v & 0xff) as u8;
                carry = v >> 8;
            }
            assert_eq!(
                Scalar::from_bytes_mod_order(&s),
                reduce_bits_reference(&s),
                "ℓ{delta:+}"
            );
        }
        assert_eq!(
            Scalar::from_bytes_mod_order(&[0xff; 64]),
            reduce_bits_reference(&[0xff; 64])
        );
        // Full 512-bit inputs of `Scalar::mul`: random values, then 0,
        // the largest value below 2^252, 2^252, and all-ones.
        let mut cases: Vec<[u64; 8]> = (0..200).map(|_| std::array::from_fn(|_| next())).collect();
        cases.push([0; 8]);
        cases.push([
            u64::MAX,
            u64::MAX,
            u64::MAX,
            0x0fff_ffff_ffff_ffff,
            0,
            0,
            0,
            0,
        ]);
        cases.push([0, 0, 0, 1 << 60, 0, 0, 0, 0]);
        cases.push([u64::MAX; 8]);
        for v in cases {
            let bytes: Vec<u8> = v.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(reduce_wide(v), reduce_bits_reference(&bytes), "{v:x?}");
        }
        let top = Scalar::ZERO.sub(&Scalar::ONE);
        assert_eq!(top.mul(&top), Scalar::ONE, "(ℓ−1)² ≡ 1");
    }

    #[test]
    fn every_digit_of_every_row_selects_its_multiple() {
        assert_eq!(base_rows().len(), 32 * 8);
        for (i, row) in base_rows().chunks_exact(8).enumerate() {
            // 256^i·B by the ladder, independent of the table build.
            let mut pow = [0u8; 32];
            pow[i] = 1;
            let row_base = Point::base().mul(&Scalar::from_bytes_mod_order(&pow));
            let mut multiple = Point::identity();
            for d in 0..=8i8 {
                for digit in [d, -d] {
                    let expect = if digit < 0 { multiple.neg() } else { multiple };
                    let got = Point::identity()
                        .add_affine(&select_niels(row, digit))
                        .to_extended();
                    assert_eq!(got, expect, "row {i}, digit {digit}");
                }
                multiple = multiple.add(&row_base);
            }
        }
    }

    #[test]
    fn recodings_sum_back_to_the_scalar() {
        let mut s = Scalar::from_u64(3);
        let mut eights = [0x88u8; 32];
        eights[31] = 0x08;
        let mut cases = vec![
            Scalar::ZERO,
            Scalar::ZERO.sub(&Scalar::ONE),
            Scalar::from_bytes_mod_order(&eights),
        ];
        for _ in 0..30 {
            s = s
                .mul(&Scalar::from_u64(0x9e37_79b9_7f4a_7c15))
                .add(&Scalar::ONE);
            cases.push(s);
        }
        let signed = |d: i8| {
            let m = Scalar::from_u64(d.unsigned_abs() as u64);
            if d < 0 {
                Scalar::ZERO.sub(&m)
            } else {
                m
            }
        };
        for s in cases {
            let digits = s.radix16();
            assert!(digits.iter().all(|d| (-8..=8).contains(d)), "{s:?}");
            let sixteen = Scalar::from_u64(16);
            let back = digits
                .iter()
                .rev()
                .fold(Scalar::ZERO, |acc, &d| acc.mul(&sixteen).add(&signed(d)));
            assert_eq!(back, s);
            for w in [5usize, 8] {
                let naf = s.naf(w);
                let two = Scalar::from_u64(2);
                let back = naf
                    .iter()
                    .rev()
                    .fold(Scalar::ZERO, |acc, &d| acc.mul(&two).add(&signed(d)));
                assert_eq!(back, s, "w = {w}");
                for (i, &d) in naf.iter().enumerate() {
                    if d != 0 {
                        assert!(d % 2 != 0 && (d.unsigned_abs() as u32) < 1 << (w - 1));
                        assert!(naf[i + 1..(i + w).min(256)].iter().all(|&n| n == 0));
                    }
                }
            }
        }
    }

    #[test]
    fn multiscalar_matches_sum_of_muls() {
        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            state
        };
        for n in [0usize, 1, 2, 3, 9, 40] {
            let scalars: Vec<Scalar> = (0..n)
                .map(|_| {
                    let mut b = [0u8; 32];
                    for x in b.iter_mut() {
                        *x = next() as u8;
                    }
                    Scalar::from_bytes_mod_order(&b)
                })
                .collect();
            let points: Vec<Point> = (0..n)
                .map(|_| Point::base().mul(&Scalar::from_u64(next() % 1000 + 1)))
                .collect();
            let expect = scalars
                .iter()
                .zip(&points)
                .fold(Point::identity(), |acc, (s, p)| acc.add(&p.mul(s)));
            assert_eq!(multiscalar_mul(&scalars, &points), expect, "n = {n}");
        }
    }

    #[test]
    fn wide_reduction_matches_mul() {
        // (2^256) mod l  ==  from_bytes_mod_order over 33 bytes with a 1 on top.
        let mut wide = [0u8; 33];
        wide[32] = 1;
        let r = Scalar::from_bytes_mod_order(&wide);
        // Verify: r == 2^128 * 2^128 mod l.
        let two128 = {
            let mut b = [0u8; 17];
            b[16] = 1;
            Scalar::from_bytes_mod_order(&b)
        };
        assert_eq!(two128.mul(&two128), r);
    }
}
