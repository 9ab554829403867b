//! Ed25519 signatures (RFC 8032), implemented from scratch.
//!
//! This is the real signature scheme behind the PF+=2 `verify` function; it
//! replaced the toy Schnorr construction (which survives only behind the
//! `legacy-toy` feature, for the cross-scheme equivalence tests). Like the
//! rest of this crate it is hermetic — no external crates — and validated
//! against the RFC 8032 §7.1 test vectors and, differentially, against the
//! textbook implementation kept in the test-only `reference` submodule.
//!
//! Layout of the module, bottom up:
//!
//! * **Field arithmetic** over `p = 2^255 - 19` in radix-2^51 (five `u64`
//!   limbs, `u128` products). Products and differences leave limbs below
//!   2^52; multiplication and the dedicated squaring accept limbs up to
//!   2^54, so sums feed into them with no carry pass at all. Inversion and
//!   the square-root power `(p-5)/8` share the standard `2^250 - 1`
//!   addition chain (254 squarings, 11 multiplications).
//! * **Group arithmetic** on the `a = -1` twisted Edwards curve. Points are
//!   extended `(X:Y:Z:T)`; every addition or doubling yields a *completed*
//!   point that converts back to extended (4M) or, when the next step is a
//!   doubling and `T` is not needed, to projective `(X:Y:Z)` (3M). Doubling
//!   is the dedicated dbl-2008-hwcd formula (4S plus the conversion);
//!   addends are stored pre-summed — *cached* `(Y+X, Y−X, Z, 2dT)` for
//!   per-call tables, *affine Niels* `(y+x, y−x, 2dxy)` for the base-point
//!   tables, which are derived from `B` once, in a `OnceLock`.
//! * **Scalar arithmetic** modulo the group order
//!   `L = 2^252 + 27742317777372353535851937790883648493`: Barrett reduction
//!   on 64-bit limbs, its constant `⌊2^512 / L⌋` computed at compile time.
//! * **Fixed-base multiplication** (`[a]B`, for signing and key derivation):
//!   a radix-16 comb over a 32 × 8 table of multiples of `256^i·B`, 64
//!   mixed additions and 4 doublings.
//! * **Verification** computes `[s]B − [k]A` in one joint Straus pass over
//!   two wNAF recodings — width 8 against a static table of odd multiples of
//!   `B`, width 5 against a per-call table of odd multiples of `−A` — and
//!   compares its encoding with `R`, after the canonicity check `s < L`
//!   (rejecting the malleated `s + L` form). `A` is decompressed once per
//!   `VerifyingKey`, which the verify cache keeps per key.
//!
//! Side channels: **sign's secret-scalar path is constant-time; verify is
//! variable-time over public inputs only.** Signing touches the secret
//! scalar and nonce only through branch-free code — the Barrett reduction
//! ends in masked subtractions, the comb's digit recoding is arithmetic, and
//! each table row is read in full, every entry masked in or out, with no
//! index or branch derived from a secret digit. Verification skips zero
//! digits and indexes its tables by digit, which reveals nothing an observer
//! does not already hold: the signature, message and key are all public.
//! Signature *comparisons* are constant-time via [`crate::ct_eq`].

use std::hint::black_box;
use std::sync::OnceLock;

use crate::ct_eq;
use crate::sha256::{from_hex, to_hex};
use crate::sha512::{sha512, Sha512};

#[cfg(test)]
mod reference;

/// An ed25519 signature: the encoded nonce point `R` followed by the response
/// scalar `s`, 64 bytes total (RFC 8032 §5.1.6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature(pub(crate) [u8; 64]);

impl Signature {
    /// Serializes the signature as a 128-character hex string (as it appears
    /// in the `req-sig` key of daemon configuration files).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parses a signature from its hex form. Returns `None` for malformed
    /// input (wrong length or non-hex characters).
    pub fn from_hex(s: &str) -> Option<Signature> {
        let bytes = from_hex(s.trim())?;
        if bytes.len() != 64 {
            return None;
        }
        let mut out = [0u8; 64];
        out.copy_from_slice(&bytes);
        Some(Signature(out))
    }

    /// The raw 64-byte form.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0
    }

    /// Builds a signature from its raw 64-byte form.
    pub fn from_bytes(bytes: [u8; 64]) -> Signature {
        Signature(bytes)
    }
}

/// Loads `N` little-endian 64-bit words from the front of `bytes`.
fn le_words<const N: usize>(bytes: &[u8]) -> [u64; N] {
    std::array::from_fn(|i| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
        u64::from_le_bytes(w)
    })
}

/// Stores four 64-bit words as 32 little-endian bytes.
fn le_bytes(words: &[u64]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// All ones when `flag` is 1, zero when it is 0. The `black_box` keeps the
/// optimizer from seeing a boolean it could turn back into a branch.
fn mask(flag: u64) -> u64 {
    black_box(0u64.wrapping_sub(flag))
}

// --- field arithmetic mod p = 2^255 - 19, radix 2^51 -----------------------

/// The full 128-bit product of two 64-bit limbs.
fn m(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

const MASK51: u64 = (1u64 << 51) - 1;

/// A field element; limbs hold 51 bits each (value = Σ limb[i]·2^(51·i)),
/// kept loosely reduced below 2^52 between operations.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_u64(v: u64) -> Fe {
        Fe([v & MASK51, v >> 51, 0, 0, 0])
    }

    /// Loads 32 little-endian bytes, masking bit 255 (the sign bit of a
    /// compressed point rides there).
    fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 { le_words::<1>(&b[i..i + 8])[0] };
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Canonical 32-byte little-endian encoding (value fully reduced mod p).
    fn to_bytes(self) -> [u8; 32] {
        let mut f = self.weak_reduce().0;
        // q = 1 iff f + 19 >= 2^255, i.e. iff f >= p.
        let mut q = (f[0] + 19) >> 51;
        q = (f[1] + q) >> 51;
        q = (f[2] + q) >> 51;
        q = (f[3] + q) >> 51;
        q = (f[4] + q) >> 51;
        f[0] += 19 * q;
        let mut c = f[0] >> 51;
        f[0] &= MASK51;
        f[1] += c;
        c = f[1] >> 51;
        f[1] &= MASK51;
        f[2] += c;
        c = f[2] >> 51;
        f[2] &= MASK51;
        f[3] += c;
        c = f[3] >> 51;
        f[3] &= MASK51;
        f[4] += c;
        f[4] &= MASK51; // discard the 2^255 carry: the value is now mod 2^255

        le_bytes(&[
            f[0] | (f[1] << 51),
            (f[1] >> 13) | (f[2] << 38),
            (f[2] >> 26) | (f[3] << 25),
            (f[3] >> 39) | (f[4] << 12),
        ])
    }

    /// One carry pass folding the top carry back via ×19; output limbs are
    /// below 2^52 for any input limbs below 2^63.
    fn weak_reduce(self) -> Fe {
        let mut f = self.0;
        let mut c = f[0] >> 51;
        f[0] &= MASK51;
        f[1] += c;
        c = f[1] >> 51;
        f[1] &= MASK51;
        f[2] += c;
        c = f[2] >> 51;
        f[2] &= MASK51;
        f[3] += c;
        c = f[3] >> 51;
        f[3] &= MASK51;
        f[4] += c;
        c = f[4] >> 51;
        f[4] &= MASK51;
        f[0] += 19 * c;
        c = f[0] >> 51;
        f[0] &= MASK51;
        f[1] += c;
        Fe(f)
    }

    /// `self + other` without a carry pass: limbs of two reduced operands
    /// sum below 2^53, and those of a sum plus a reduced operand below 2^54,
    /// which `mul`, `square` and `sub` all accept. No formula here adds
    /// more deeply than that.
    fn add(self, other: Fe) -> Fe {
        let a = self.0;
        let b = other.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// `self - other`, computed as `self + 16p - other` so limbs never
    /// underflow for operands below 2^54, then carried.
    fn sub(self, other: Fe) -> Fe {
        const SIXTEEN_P: [u64; 5] = [
            16 * ((1u64 << 51) - 19),
            16 * ((1u64 << 51) - 1),
            16 * ((1u64 << 51) - 1),
            16 * ((1u64 << 51) - 1),
            16 * ((1u64 << 51) - 1),
        ];
        let a = self.0;
        let b = other.0;
        Fe([
            a[0] + SIXTEEN_P[0] - b[0],
            a[1] + SIXTEEN_P[1] - b[1],
            a[2] + SIXTEEN_P[2] - b[2],
            a[3] + SIXTEEN_P[3] - b[3],
            a[4] + SIXTEEN_P[4] - b[4],
        ])
        .weak_reduce()
    }

    fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// `self·other` for operands with limbs below 2^54.
    fn mul(self, other: Fe) -> Fe {
        let (a, b) = (self.0, other.0);
        // Products of limbs i and j contribute at 2^(51·(i+j)); terms at
        // 2^255 and above wrap down via 2^255 ≡ 19 (mod p). The ×19 is
        // applied to a 64-bit limb (below 2^59) so every product stays a
        // single 64×64 → 128-bit multiplication.
        let (b1_19, b2_19, b3_19, b4_19) = (19 * b[1], 19 * b[2], 19 * b[3], 19 * b[4]);
        Fe::carry([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// `self²` with the symmetric cross products computed once: 15 limb
    /// products instead of `mul`'s 25.
    fn square(self) -> Fe {
        let a = self.0;
        let (a0_2, a1_2) = (2 * a[0], 2 * a[1]);
        let (a1_38, a2_38, a3_38) = (38 * a[1], 38 * a[2], 38 * a[3]);
        let (a3_19, a4_19) = (19 * a[3], 19 * a[4]);
        Fe::carry([
            m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]),
            m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]),
            m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]),
            m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]),
            m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]),
        ])
    }

    /// Carries 128-bit column sums back into 51-bit limbs.
    fn carry(mut r: [u128; 5]) -> Fe {
        let m = MASK51 as u128;
        r[1] += r[0] >> 51;
        r[0] &= m;
        r[2] += r[1] >> 51;
        r[1] &= m;
        r[3] += r[2] >> 51;
        r[2] &= m;
        r[4] += r[3] >> 51;
        r[3] &= m;
        let top = r[4] >> 51;
        r[4] &= m;
        r[0] += 19 * top;
        r[1] += r[0] >> 51;
        r[0] &= m;
        Fe(r.map(|x| x as u64))
    }

    /// `self^(2^k)`.
    fn pow2k(self, k: u32) -> Fe {
        let mut acc = self;
        for _ in 0..k {
            acc = acc.square();
        }
        acc
    }

    /// `(self^(2^250 - 1), self^11)`: the shared prefix of the inversion and
    /// square-root exponents.
    fn pow22501(self) -> (Fe, Fe) {
        let t2 = self.square(); // 2
        let t9 = t2.pow2k(2).mul(self); // 9
        let t11 = t9.mul(t2); // 11
        let t5_0 = t11.square().mul(t9); // 2^5 - 1
        let t10_0 = t5_0.pow2k(5).mul(t5_0); // 2^10 - 1
        let t20_0 = t10_0.pow2k(10).mul(t10_0); // 2^20 - 1
        let t40_0 = t20_0.pow2k(20).mul(t20_0); // 2^40 - 1
        let t50_0 = t40_0.pow2k(10).mul(t10_0); // 2^50 - 1
        let t100_0 = t50_0.pow2k(50).mul(t50_0); // 2^100 - 1
        let t200_0 = t100_0.pow2k(100).mul(t100_0); // 2^200 - 1
        let t250_0 = t200_0.pow2k(50).mul(t50_0); // 2^250 - 1
        (t250_0, t11)
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)`, where
    /// `p - 2 = (2^250 - 1)·2^5 + 11`. Returns zero for zero, which never
    /// reaches a division in the formulas used here.
    fn invert(self) -> Fe {
        let (t250_0, t11) = self.pow22501();
        t250_0.pow2k(5).mul(t11)
    }

    /// `self^((p-5)/8)`, where `(p-5)/8 = (2^250 - 1)·4 + 1`: the exponent
    /// of the combined square root in point decompression (RFC 8032 §5.1.3).
    fn pow_p58(self) -> Fe {
        self.pow22501().0.pow2k(2).mul(self)
    }

    fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    fn equals(self, other: Fe) -> bool {
        ct_eq(&self.to_bytes(), &other.to_bytes())
    }

    fn is_zero(self) -> bool {
        self.equals(Fe::ZERO)
    }

    /// Replaces `self` with `other` where `mask` is all ones; keeps it where
    /// `mask` is zero. Branch-free.
    fn assign_if(&mut self, other: &Fe, mask: u64) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a ^= mask & (*a ^ b);
        }
    }
}

// --- group arithmetic: twisted Edwards, a = -1 ------------------------------

/// A curve point in extended coordinates: `x = X/Z`, `y = Y/Z`, `T = XY/Z`.
#[derive(Clone, Copy, Debug)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point in projective coordinates `(X:Y:Z)`: all a doubling reads.
#[derive(Clone, Copy, Debug)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The output of an addition or doubling, `x = X/Z`, `y = Y/T`, before the
/// multiplications that bring it back to extended or projective form.
#[derive(Clone, Copy, Debug)]
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An addend with its sums precomputed: `(Y+X, Y−X, Z, 2d·T)`.
#[derive(Clone, Copy, Debug)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// An affine addend with its sums precomputed, `(y+x, y−x, 2d·x·y)`; `Z = 1`
/// saves a multiplication per addition. The form of every base-point table
/// entry.
#[derive(Clone, Copy, Debug)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Point {
    const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    fn to_projective(self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn double(&self) -> Completed {
        self.to_projective().double()
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(consts().d2),
        }
    }

    fn to_niels(self) -> Niels {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        Niels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(consts().d2),
        }
    }

    /// `self + q` (add-2008-hwcd-3; complete on ed25519, d being non-square).
    fn add_cached(&self, q: &Cached) -> Completed {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let tt2d = self.t.mul(q.t2d);
        let zz = self.z.mul(q.z);
        let zz2 = zz.add(zz);
        Completed {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: zz2.add(tt2d),
            t: zz2.sub(tt2d),
        }
    }

    /// `self + q` for an affine `q` (the mixed form of `add_cached`).
    fn add_niels(&self, q: &Niels) -> Completed {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let txy2d = self.t.mul(q.xy2d);
        let z2 = self.z.add(self.z);
        Completed {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: z2.add(txy2d),
            t: z2.sub(txy2d),
        }
    }

    fn compress(&self) -> [u8; 32] {
        self.to_projective().compress()
    }

    /// Decompresses an encoded point; `None` if the encoding names no point
    /// on the curve (RFC 8032 §5.1.3).
    fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let c = consts();
        decompress_with(c.d, c.sqrt_m1, bytes)
    }
}

impl Projective {
    const IDENTITY: Projective = Projective {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
    };

    /// `2·self` (dbl-2008-hwcd with `a = -1`): four squarings here, three
    /// or four multiplications in the conversion the caller picks.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(zz);
        let xy_sq = self.x.add(self.y).square();
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        Completed {
            x: xy_sq.sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(yy_minus_xx),
        }
    }

    /// Canonical compressed encoding: `y` with the sign of `x` in bit 255.
    fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let mut out = self.y.mul(zinv).to_bytes();
        out[31] |= (x.to_bytes()[0] & 1) << 7;
        out
    }
}

impl Completed {
    fn to_point(self) -> Point {
        Point {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }

    fn to_projective(self) -> Projective {
        Projective {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }
}

impl Cached {
    /// `−q`: the sums swap and `2dT` changes sign.
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn neg(&self) -> Niels {
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }

    fn assign_if(&mut self, other: &Niels, mask: u64) {
        self.y_plus_x.assign_if(&other.y_plus_x, mask);
        self.y_minus_x.assign_if(&other.y_minus_x, mask);
        self.xy2d.assign_if(&other.xy2d, mask);
    }

    /// `digit·P` from `row = [P, 2P, …, 8P]` for `digit ∈ [-8, 8]`, in
    /// constant time: every entry is read and masked in or out, and the
    /// sign is applied by a mask, so neither memory access nor control flow
    /// depends on `digit`.
    fn select(row: &[Niels; 8], digit: i8) -> Niels {
        let negative = (digit as u8 >> 7) as u64;
        // |digit|, branch-free: digit − 2·digit when negative.
        let abs = (digit as i16 - ((-(negative as i16) & digit as i16) << 1)) as u64;
        let mut out = Niels::IDENTITY;
        for (j, entry) in (1u64..).zip(row) {
            // (abs ^ j) − 1 borrows into bit 63 exactly when abs == j.
            out.assign_if(entry, mask((abs ^ j).wrapping_sub(1) >> 63));
        }
        let neg = out.neg();
        out.assign_if(&neg, mask(negative));
        out
    }
}

/// Curve constants, derived arithmetically once rather than transcribed as
/// limb tables (limb-level typos would be invisible; `4/5` is not).
struct Consts {
    /// d = -121665/121666
    d: Fe,
    /// 2d, as used by the addition formulas.
    d2: Fe,
    /// √-1 = 2^((p-1)/4)
    sqrt_m1: Fe,
    /// The base point B (y = 4/5, x positive).
    base: Point,
}

fn consts() -> &'static Consts {
    static CONSTS: OnceLock<Consts> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let d = Fe::from_u64(121_665)
            .neg()
            .mul(Fe::from_u64(121_666).invert());
        // (p - 1) / 4 = (2^250 - 1)·2^3 + 3, and 2^3 = 8.
        let sqrt_m1 = Fe::from_u64(2).pow22501().0.pow2k(3).mul(Fe::from_u64(8));
        // B compressed: y = 4/5 with x positive.
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        let base = decompress_with(d, sqrt_m1, &y.to_bytes()).expect("base point decompresses");
        Consts {
            d,
            d2: d.add(d),
            sqrt_m1,
            base,
        }
    })
}

/// Point decompression against explicit constants, so `consts()` can derive
/// the base point before the constants are published.
fn decompress_with(d: Fe, sqrt_m1: Fe, bytes: &[u8; 32]) -> Option<Point> {
    let y = Fe::from_bytes(bytes);
    let sign = bytes[31] >> 7 == 1;
    let y2 = y.square();
    let u = y2.sub(Fe::ONE);
    let v = d.mul(y2).add(Fe::ONE);
    // Candidate root x = u·v^3·(u·v^7)^((p-5)/8).
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
    let vx2 = v.mul(x.square());
    if vx2.equals(u) {
        // x is already a square root.
    } else if vx2.equals(u.neg()) {
        x = x.mul(sqrt_m1);
    } else {
        return None;
    }
    if x.is_zero() && sign {
        return None; // "negative zero" encodes no point
    }
    if x.is_negative() != sign {
        x = x.neg();
    }
    Some(Point {
        x,
        y,
        z: Fe::ONE,
        t: x.mul(y),
    })
}

/// Precomputed multiples of the base point.
struct BaseTables {
    /// `comb[i][j] = (j+1)·256^i·B`: the radix-16 comb's rows.
    comb: [[Niels; 8]; 32],
    /// `odd[j] = (2j+1)·B`: the width-8 wNAF table of verification.
    odd: [Niels; 64],
}

fn base_tables() -> &'static BaseTables {
    static TABLES: OnceLock<BaseTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let base = consts().base;
        let mut comb = [[Niels::IDENTITY; 8]; 32];
        let mut row_base = base;
        for row in comb.iter_mut() {
            let step = row_base.to_cached();
            let mut multiple = row_base;
            for entry in row.iter_mut() {
                *entry = multiple.to_niels();
                multiple = multiple.add_cached(&step).to_point();
            }
            for _ in 0..8 {
                row_base = row_base.double().to_point();
            }
        }
        let mut odd = [Niels::IDENTITY; 64];
        let two_b = base.double().to_point().to_cached();
        let mut multiple = base;
        for entry in odd.iter_mut() {
            *entry = multiple.to_niels();
            multiple = multiple.add_cached(&two_b).to_point();
        }
        BaseTables { comb, odd }
    })
}

/// `[a]B` for `a < 2^255` (32 little-endian bytes), by the radix-16 comb.
///
/// Constant-time in `a`: the signed-digit recoding is arithmetic, and every
/// table read goes through [`Niels::select`].
fn base_mul(a: &[u8; 32]) -> Point {
    debug_assert!(a[31] <= 127, "comb input must be below 2^255");
    // 64 radix-16 digits, then recentred into [-8, 8) with carries (the
    // last digit absorbs the final carry and stays ≤ 8).
    let mut e = [0i8; 64];
    for (i, byte) in a.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;

    // Σ e[i]·16^i·B = 16·Σ_odd e[i]·16^(i−1)·B + Σ_even e[i]·16^i·B, and
    // row i/2 of the comb holds multiples of 16^(2·(i/2))·B.
    let comb = &base_tables().comb;
    let mut h = Point::IDENTITY;
    for i in (1..64).step_by(2) {
        h = h.add_niels(&Niels::select(&comb[i / 2], e[i])).to_point();
    }
    let mut p = h.to_projective();
    for _ in 0..3 {
        p = p.double().to_projective();
    }
    h = p.double().to_point();
    for i in (0..64).step_by(2) {
        h = h.add_niels(&Niels::select(&comb[i / 2], e[i])).to_point();
    }
    h
}

/// Width-`w` non-adjacent form of a scalar below 2^254: 256 digits, each
/// zero or odd with magnitude below `2^(w-1)`, at most one non-zero in any
/// `w` consecutive positions, and `Σ naf[i]·2^i` equal to the scalar.
/// Variable-time; used on public scalars only.
fn wnaf(scalar: &[u8; 32], w: usize) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w));
    debug_assert!(scalar[31] < 0x40, "wNAF input must be below 2^254");
    let mut words = [0u64; 5];
    words[..4].copy_from_slice(&le_words::<4>(scalar));
    let width = 1u64 << w;
    let window_mask = width - 1;
    let mut naf = [0i8; 256];
    let mut carry = 0u64;
    let mut pos = 0;
    while pos < 256 {
        let (idx, bit) = (pos / 64, pos % 64);
        let bits = if bit + w <= 64 {
            words[idx] >> bit
        } else {
            (words[idx] >> bit) | (words[idx + 1] << (64 - bit))
        };
        let window = carry + (bits & window_mask);
        if window & 1 == 0 {
            // Even: nothing to emit here; the carry rides on unchanged.
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window as i64 - width as i64) as i8;
        }
        pos += w;
    }
    debug_assert_eq!(carry, 0, "the 2^254 bound leaves room for the last carry");
    naf
}

/// `[s]B + [k]P` in one joint Straus pass: a single chain of doublings, with
/// `k`'s width-5 digits added from a per-call table of odd multiples of `P`
/// and `s`'s width-8 digits from the static table of odd multiples of `B`.
/// Variable-time; both scalars and `P` must be public.
fn double_scalar_mul_base(k: &[u8; 32], p: &Point, s: &[u8; 32]) -> Projective {
    let k_naf = wnaf(k, 5);
    let s_naf = wnaf(s, 8);

    // table[j] = (2j+1)·P
    let mut table = [p.to_cached(); 8];
    let two_p = p.double().to_point().to_cached();
    let mut multiple = *p;
    for entry in table.iter_mut().skip(1) {
        multiple = multiple.add_cached(&two_p).to_point();
        *entry = multiple.to_cached();
    }
    let odd_b = &base_tables().odd;

    let Some(top) = (0..256).rev().find(|&i| k_naf[i] != 0 || s_naf[i] != 0) else {
        return Projective::IDENTITY;
    };
    let mut acc = Projective::IDENTITY;
    for i in (0..=top).rev() {
        let mut t = acc.double();
        let k_digit = k_naf[i];
        if k_digit > 0 {
            t = t.to_point().add_cached(&table[k_digit as usize / 2]);
        } else if k_digit < 0 {
            t = t
                .to_point()
                .add_cached(&table[(-k_digit) as usize / 2].neg());
        }
        let s_digit = s_naf[i];
        if s_digit > 0 {
            t = t.to_point().add_niels(&odd_b[s_digit as usize / 2]);
        } else if s_digit < 0 {
            t = t
                .to_point()
                .add_niels(&odd_b[(-s_digit) as usize / 2].neg());
        }
        acc = t.to_projective();
    }
    acc
}

// --- scalar arithmetic mod L ----------------------------------------------

/// The group order `L = 2^252 + 27742317777372353535851937790883648493` as
/// four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0,
    0x1000_0000_0000_0000,
];

/// `L` widened to the five words of Barrett's working precision.
const L5: [u64; 5] = [L[0], L[1], L[2], L[3], 0];

/// `⌊2^512 / L⌋`, the Barrett constant, computed at compile time by binary
/// long division rather than transcribed.
const MU: [u64; 5] = barrett_mu();

const fn barrett_mu() -> [u64; 5] {
    let mut quotient = [0u64; 5];
    let mut rem = [0u64; 5];
    let mut bit = 513;
    while bit > 0 {
        bit -= 1;
        // rem = 2·rem + (bit `bit` of 2^512)
        let mut i = 4;
        while i > 0 {
            rem[i] = (rem[i] << 1) | (rem[i - 1] >> 63);
            i -= 1;
        }
        rem[0] = (rem[0] << 1) | (bit == 512) as u64;
        // rem ≥ L ?
        let mut geq = true;
        let mut j = 5;
        while j > 0 {
            j -= 1;
            if rem[j] != L5[j] {
                geq = rem[j] > L5[j];
                break;
            }
        }
        if geq {
            let mut borrow = 0u64;
            let mut k = 0;
            while k < 5 {
                let (d1, b1) = rem[k].overflowing_sub(L5[k]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                rem[k] = d2;
                borrow = (b1 | b2) as u64;
                k += 1;
            }
            // The quotient has 260 bits, so this index stays in range.
            quotient[bit / 64] |= 1 << (bit % 64);
        }
    }
    quotient
}

/// `out = a·b mod 2^(64·out.len())`, schoolbook. Branches depend only on
/// the (public) lengths.
fn mul_words(a: &[u64], b: &[u64], out: &mut [u64]) {
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let Some(slot) = out.get_mut(i + j) else {
                break;
            };
            let cur = *slot as u128 + ai as u128 * bj as u128 + carry;
            *slot = cur as u64;
            carry = cur >> 64;
        }
        if let Some(slot) = out.get_mut(i + b.len()) {
            *slot = carry as u64;
        }
    }
}

/// Reduces a 512-bit value (eight little-endian words) mod `L` by Barrett
/// reduction (HAC 14.42 with base 2^64, `k = 4`). Constant-time: the two
/// final corrections are masked subtractions.
fn sc_reduce_words(x: &[u64; 8]) -> [u8; 32] {
    // q = ⌊⌊x / 2^192⌋·MU / 2^320⌋ undershoots ⌊x / L⌋ by at most 2.
    let mut q2 = [0u64; 10];
    mul_words(&x[3..], &MU, &mut q2);
    let mut ql = [0u64; 5];
    mul_words(&q2[5..], &L, &mut ql);
    // r = x − q·L, computed mod 2^320 where it is exact (0 ≤ r < 3L).
    let mut r = [0u64; 5];
    let mut borrow = 0u64;
    for i in 0..5 {
        let (d1, b1) = x[i].overflowing_sub(ql[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        r[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    for _ in 0..2 {
        let mut diff = [0u64; 5];
        let mut borrow = 0u64;
        for i in 0..5 {
            let (d1, b1) = r[i].overflowing_sub(L5[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            diff[i] = d2;
            borrow = (b1 | b2) as u64;
        }
        // No borrow means r ≥ L: take the difference.
        let take = mask(borrow ^ 1);
        for (ri, di) in r.iter_mut().zip(diff) {
            *ri ^= take & (*ri ^ di);
        }
    }
    le_bytes(&r[..4])
}

/// Reduces a 512-bit little-endian value modulo `L`.
fn sc_reduce(bytes: &[u8; 64]) -> [u8; 32] {
    sc_reduce_words(&le_words(bytes))
}

/// `(a·b + c) mod L`, all scalars as 32 little-endian bytes.
fn sc_muladd(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let mut r = [0u64; 8];
    mul_words(&le_words::<4>(a), &le_words::<4>(b), &mut r);
    let cv = le_words::<4>(c);
    let mut carry = 0u128;
    for (i, limb) in r.iter_mut().enumerate() {
        let cur = *limb as u128 + cv.get(i).copied().unwrap_or(0) as u128 + carry;
        *limb = cur as u64;
        carry = cur >> 64;
    }
    debug_assert_eq!(carry, 0);
    sc_reduce_words(&r)
}

/// `true` iff the 32 little-endian bytes name a scalar strictly below `L`
/// (RFC 8032's malleability check on `s`).
fn sc_is_canonical(s: &[u8; 32]) -> bool {
    let limbs = le_words::<4>(s);
    for i in (0..4).rev() {
        if limbs[i] != L[i] {
            return limbs[i] < L[i];
        }
    }
    false // equal to L
}

// --- RFC 8032 sign / verify ------------------------------------------------

/// Expands a 32-byte seed into `(clamped secret scalar, nonce prefix)`.
pub(crate) fn expand_seed(seed: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    let h = sha512(seed);
    let mut a = [0u8; 32];
    a.copy_from_slice(&h[..32]);
    a[0] &= 248;
    a[31] &= 127;
    a[31] |= 64;
    let mut prefix = [0u8; 32];
    prefix.copy_from_slice(&h[32..]);
    (a, prefix)
}

/// The compressed public key `[a]B` of an expanded secret scalar.
pub(crate) fn public_from_scalar(a: &[u8; 32]) -> [u8; 32] {
    base_mul(a).compress()
}

/// Derives the 32-byte public key for a seed.
pub fn derive_public(seed: &[u8; 32]) -> [u8; 32] {
    public_from_scalar(&expand_seed(seed).0)
}

/// Signs `message` with an already-expanded key: the clamped scalar `a`,
/// the nonce `prefix` and the encoded public key `[a]B`.
pub(crate) fn sign_expanded(
    a: &[u8; 32],
    prefix: &[u8; 32],
    public: &[u8; 32],
    message: &[u8],
) -> Signature {
    let mut h = Sha512::new();
    h.update(prefix);
    h.update(message);
    let r = sc_reduce(&h.finalize());
    let r_enc = base_mul(&r).compress();

    let mut h = Sha512::new();
    h.update(&r_enc);
    h.update(public);
    h.update(message);
    let k = sc_reduce(&h.finalize());

    let s = sc_muladd(&k, a, &r);
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&r_enc);
    sig[32..].copy_from_slice(&s);
    Signature(sig)
}

/// Signs `message` with the key pair derived from `seed`.
pub fn sign(seed: &[u8; 32], message: &[u8]) -> Signature {
    let (a, prefix) = expand_seed(seed);
    sign_expanded(&a, &prefix, &public_from_scalar(&a), message)
}

/// A public key decompressed once, for repeated verification.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VerifyingKey {
    /// The key's bytes as given: they, not a re-encoding, enter the hash.
    encoded: [u8; 32],
    /// `−A`, so verification adds where the equation subtracts.
    neg_a: Point,
}

impl VerifyingKey {
    /// Decompresses a public key; `None` if it names no curve point.
    pub(crate) fn from_bytes(encoded: &[u8; 32]) -> Option<VerifyingKey> {
        Point::decompress(encoded).map(|a| VerifyingKey {
            encoded: *encoded,
            neg_a: a.neg(),
        })
    }

    /// Verifies `signature` over `message`.
    pub(crate) fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let mut r_enc = [0u8; 32];
        r_enc.copy_from_slice(&signature.0[..32]);
        let mut s = [0u8; 32];
        s.copy_from_slice(&signature.0[32..]);
        if !sc_is_canonical(&s) {
            return false;
        }

        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&self.encoded);
        h.update(message);
        let k = sc_reduce(&h.finalize());

        // [s]B == R + [k]A  ⇔  encode([s]B + [k](-A)) == R
        let check = double_scalar_mul_base(&k, &self.neg_a, &s).compress();
        ct_eq(&check, &r_enc)
    }
}

/// Verifies `signature` over `message` against a compressed public key.
pub fn verify(public: &[u8; 32], message: &[u8], signature: &Signature) -> bool {
    VerifyingKey::from_bytes(public).is_some_and(|key| key.verify(message, signature))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_from_hex(s: &str) -> [u8; 32] {
        let v = from_hex(s).unwrap();
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        out
    }

    /// A deterministic xorshift stream for the differential tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn bytes<const N: usize>(&mut self) -> [u8; N] {
            std::array::from_fn(|_| self.next() as u8)
        }
    }

    fn l_bytes() -> [u8; 32] {
        le_bytes(&L)
    }

    /// `L - 1`.
    fn l_minus_one() -> [u8; 32] {
        let mut b = l_bytes();
        b[0] -= 1;
        b
    }

    /// A scalar with every bit below `2^bits` set.
    fn all_ones(bits: usize) -> [u8; 32] {
        std::array::from_fn(|i| match (bits / 8).cmp(&i) {
            std::cmp::Ordering::Greater => 0xff,
            std::cmp::Ordering::Equal => (1u8 << (bits % 8)) - 1,
            std::cmp::Ordering::Less => 0,
        })
    }

    fn one() -> [u8; 32] {
        let mut b = [0u8; 32];
        b[0] = 1;
        b
    }

    /// The eight points of order dividing 8, derived as `[L]P` for curve
    /// points `P` (multiplying by `L` kills the prime-order component and
    /// leaves the torsion one), deduplicated by encoding.
    fn small_order_points() -> Vec<[u8; 32]> {
        let mut rng = Rng(0x5eed_0f0f);
        let mut found: Vec<[u8; 32]> = Vec::new();
        while found.len() < 8 {
            let Some(p) = reference::decompress(&rng.bytes()) else {
                continue;
            };
            let torsion = reference::compress(&reference::scalar_mul(&p, &l_bytes()));
            if !found.contains(&torsion) {
                found.push(torsion);
            }
        }
        found
    }

    // --- field and group sanity -------------------------------------------

    #[test]
    fn field_invert_round_trips() {
        for v in [1u64, 2, 5, 121_666, u64::MAX] {
            let fe = Fe::from_u64(v);
            assert!(
                fe.mul(fe.invert()).equals(Fe::ONE),
                "inverse failed for {v}"
            );
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let c = consts();
        assert!(c.sqrt_m1.square().equals(Fe::ONE.neg()));
        assert!(c.sqrt_m1.equals(reference::sqrt_m1()));
    }

    #[test]
    fn addition_chains_and_squaring_match_the_reference() {
        let mut rng = Rng(0xc4a1_2250);
        for _ in 0..24 {
            let fe = Fe::from_bytes(&rng.bytes());
            assert!(fe.square().equals(fe.mul(fe)));
            assert!(fe.invert().equals(reference::invert(fe)));
            assert!(fe.pow_p58().equals(reference::pow_p58(fe)));
        }
        // Loosely reduced inputs near the operand bound square correctly.
        let wide = Fe([(1 << 54) - 1; 5]);
        assert!(wide.square().equals(wide.mul(wide)));
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn base_point_is_on_the_curve() {
        // -x² + y² = 1 + d·x²·y²
        let c = consts();
        let b = &c.base;
        let zinv = b.z.invert();
        let x = b.x.mul(zinv);
        let y = b.y.mul(zinv);
        let lhs = y.square().sub(x.square());
        let rhs = Fe::ONE.add(c.d.mul(x.square()).mul(y.square()));
        assert!(lhs.equals(rhs));
    }

    #[test]
    fn field_encoding_round_trips() {
        let samples: [[u8; 32]; 3] = [
            [0u8; 32],
            {
                let mut b = [0u8; 32];
                b[0] = 42;
                b
            },
            {
                // p - 1, the largest canonical element.
                let mut b = [0xff; 32];
                b[0] = 0xec;
                b[31] = 0x7f;
                b
            },
        ];
        for b in samples {
            assert_eq!(Fe::from_bytes(&b).to_bytes(), b);
        }
        // p itself must canonicalize to zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        assert_eq!(Fe::from_bytes(&p_bytes).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn doubling_and_cached_addition_match_the_unified_formula() {
        let mut rng = Rng(0xd0b1_e000);
        let b = consts().base;
        for _ in 0..8 {
            let p = reference::scalar_mul(&b, &rng.bytes());
            let q = reference::scalar_mul(&b, &rng.bytes());
            let sum = reference::compress(&reference::add(&p, &q));
            let diff = reference::compress(&reference::add(&p, &q.neg()));
            let twice = reference::compress(&reference::add(&p, &p));
            assert_eq!(p.double().to_point().compress(), twice);
            assert_eq!(p.double().to_projective().compress(), twice);
            assert_eq!(p.add_cached(&q.to_cached()).to_point().compress(), sum);
            assert_eq!(
                p.add_cached(&q.to_cached().neg()).to_point().compress(),
                diff
            );
            assert_eq!(p.add_niels(&q.to_niels()).to_projective().compress(), sum);
            assert_eq!(
                p.add_niels(&q.to_niels().neg()).to_projective().compress(),
                diff
            );
        }
    }

    // --- differential oracle: fast paths against the reference ------------

    #[test]
    fn constant_time_select_matches_plain_indexing() {
        let row = &base_tables().comb[3];
        for digit in -8i8..=8 {
            let expected = match digit {
                0 => Niels::IDENTITY,
                d if d > 0 => row[d as usize - 1],
                d => row[(-d) as usize - 1].neg(),
            };
            let got = Niels::select(row, digit);
            assert!(
                got.y_plus_x.equals(expected.y_plus_x)
                    && got.y_minus_x.equals(expected.y_minus_x)
                    && got.xy2d.equals(expected.xy2d),
                "select({digit}) disagrees with indexing"
            );
        }
    }

    #[test]
    fn fixed_base_comb_matches_double_and_add() {
        let base = consts().base;
        let mut rng = Rng(0xc0b0_0001);
        let mut scalars = vec![[0u8; 32], one(), l_minus_one(), all_ones(255)];
        for _ in 0..24 {
            let mut s: [u8; 32] = rng.bytes();
            s[31] &= 0x7f;
            scalars.push(s);
        }
        for s in scalars {
            assert_eq!(
                base_mul(&s).compress(),
                reference::compress(&reference::scalar_mul(&base, &s)),
                "[s]B disagrees for s = {}",
                to_hex(&s)
            );
        }
    }

    #[test]
    fn joint_straus_matches_two_separate_multiplications() {
        let base = consts().base;
        let mut rng = Rng(0x57a0_5000);
        let mut points = vec![base, Point::IDENTITY];
        for enc in small_order_points() {
            points.push(reference::decompress(&enc).unwrap());
        }
        for _ in 0..4 {
            points.push(reference::scalar_mul(&base, &rng.bytes()));
        }
        let edges = [[0u8; 32], one(), l_minus_one(), all_ones(254)];
        for (n, p) in points.iter().enumerate() {
            let mut pairs: Vec<([u8; 32], [u8; 32])> = Vec::new();
            for k in edges {
                for s in edges {
                    pairs.push((k, s));
                }
            }
            for _ in 0..3 {
                let mut k: [u8; 32] = rng.bytes();
                let mut s: [u8; 32] = rng.bytes();
                k[31] &= 0x3f;
                s[31] &= 0x3f;
                pairs.push((k, s));
            }
            for (k, s) in pairs {
                let expected = reference::compress(&reference::add(
                    &reference::scalar_mul(&base, &s),
                    &reference::scalar_mul(p, &k),
                ));
                assert_eq!(
                    double_scalar_mul_base(&k, p, &s).compress(),
                    expected,
                    "point {n}: k = {}, s = {}",
                    to_hex(&k),
                    to_hex(&s)
                );
            }
        }
    }

    #[test]
    fn barrett_reduction_matches_long_division() {
        let mut rng = Rng(0xba77_e770);
        let mut inputs: Vec<[u8; 64]> = vec![[0u8; 64], [0xffu8; 64]];
        for scalar in [one(), l_minus_one(), l_bytes()] {
            let mut wide = [0u8; 64];
            wide[..32].copy_from_slice(&scalar);
            inputs.push(wide);
        }
        // L·2^shift up to the top of the 512-bit range, each also with its
        // low byte perturbed.
        for shift in [0usize, 1, 64, 128, 200, 259] {
            let mut words = [0u64; 8];
            let (word, bit) = (shift / 64, shift % 64);
            for (i, l) in L.iter().enumerate() {
                words[word + i] |= l << bit;
                if bit > 0 && word + i + 1 < 8 {
                    words[word + i + 1] |= l >> (64 - bit);
                }
            }
            let mut wide = [0u8; 64];
            wide[..32].copy_from_slice(&le_bytes(&words[..4]));
            wide[32..].copy_from_slice(&le_bytes(&words[4..]));
            inputs.push(wide);
            wide[0] = wide[0].wrapping_sub(1);
            inputs.push(wide);
        }
        for _ in 0..256 {
            inputs.push(rng.bytes());
        }
        for x in inputs {
            assert_eq!(
                sc_reduce(&x),
                reference::sc_reduce(&x),
                "x = {}",
                to_hex(&x)
            );
        }
    }

    #[test]
    fn signing_is_byte_identical_to_the_reference() {
        let mut rng = Rng(0x5164_0001);
        for n in 0..16 {
            let seed: [u8; 32] = rng.bytes();
            let message: Vec<u8> = (0..n * 7).map(|_| rng.next() as u8).collect();
            assert_eq!(derive_public(&seed), reference::derive_public(&seed));
            assert_eq!(sign(&seed, &message), reference::sign(&seed, &message));
        }
    }

    #[test]
    fn verify_verdicts_match_the_reference() {
        let mut rng = Rng(0x7e21_f100);
        let check = |public: &[u8; 32], message: &[u8], sig: &Signature| {
            let fast = verify(public, message, sig);
            assert_eq!(
                fast,
                reference::verify(public, message, sig),
                "verdicts differ: key {}, sig {}",
                to_hex(public),
                sig.to_hex()
            );
            fast
        };
        let small = small_order_points();
        for n in 0..6 {
            let seed: [u8; 32] = rng.bytes();
            let public = derive_public(&seed);
            let message: Vec<u8> = (0..5 + n).map(|_| rng.next() as u8).collect();
            let sig = sign(&seed, &message);
            assert!(check(&public, &message, &sig));

            // Random single-bit flips of R, s, the message and the key.
            for _ in 0..4 {
                let mut bytes = sig.to_bytes();
                let bit = (rng.next() % 512) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
                check(&public, &message, &Signature::from_bytes(bytes));

                let mut msg = message.clone();
                let bit = (rng.next() as usize) % (msg.len() * 8);
                msg[bit / 8] ^= 1 << (bit % 8);
                check(&public, &msg, &sig);

                let mut key = public;
                let bit = (rng.next() % 256) as usize;
                key[bit / 8] ^= 1 << (bit % 8);
                check(&key, &message, &sig);
            }

            // s + L: the same group equation, a forbidden encoding.
            let mut bytes = sig.to_bytes();
            let mut s = le_words::<4>(&bytes[32..]);
            let mut carry = 0u128;
            for (limb, l) in s.iter_mut().zip(L) {
                let cur = *limb as u128 + l as u128 + carry;
                *limb = cur as u64;
                carry = cur >> 64;
            }
            bytes[32..].copy_from_slice(&le_bytes(&s));
            assert!(!check(&public, &message, &Signature::from_bytes(bytes)));

            // A key and an R that decode to no point (y = 2).
            let mut bad = [0u8; 32];
            bad[0] = 2;
            assert!(!check(&bad, &message, &sig));
            let mut bytes = sig.to_bytes();
            bytes[..32].copy_from_slice(&bad);
            check(&public, &message, &Signature::from_bytes(bytes));

            // Small-order keys, with the honest signature and with R and s
            // chosen so the cofactorless equation can hold (R = −[k]A, s = 0
            // for the identity key).
            for key in &small {
                check(key, &message, &sig);
                let mut bytes = [0u8; 64];
                bytes[..32].copy_from_slice(key);
                check(key, &message, &Signature::from_bytes(bytes));
            }
        }
        // The identity key with R = identity, s = 0 satisfies the equation
        // for every message: both paths must accept it alike.
        assert!(small.contains(&one()));
        let mut bytes = [0u8; 64];
        bytes[..32].copy_from_slice(&one());
        assert!(check(&one(), b"anything", &Signature::from_bytes(bytes)));
    }

    #[test]
    fn wnaf_digits_are_odd_bounded_and_sparse() {
        let mut rng = Rng(0x0a0f_0001);
        for w in [5usize, 8] {
            for _ in 0..16 {
                let mut s: [u8; 32] = rng.bytes();
                s[31] &= 0x3f;
                let naf = wnaf(&s, w);
                let bound = 1i16 << (w - 1);
                let mut last: Option<usize> = None;
                for (i, &d) in naf.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert!(d & 1 == 1 && (d as i16).abs() < bound);
                    if let Some(prev) = last {
                        assert!(i - prev >= w, "two non-zero digits within {w}");
                    }
                    last = Some(i);
                }
            }
        }
    }

    #[test]
    fn scalar_reduce_agrees_with_small_values() {
        // A value already below L reduces to itself.
        let mut small = [0u8; 64];
        small[0] = 0x7b;
        assert_eq!(sc_reduce(&small)[0], 0x7b);
        // L reduces to zero.
        let mut l_wide = [0u8; 64];
        l_wide[..32].copy_from_slice(&l_bytes());
        assert_eq!(sc_reduce(&l_wide), [0u8; 32]);
    }

    // --- RFC 8032 §7.1 test vectors ---------------------------------------

    #[test]
    fn rfc8032_test_1_empty_message() {
        let seed =
            seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
        let public = derive_public(&seed);
        assert_eq!(
            to_hex(&public),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = sign(&seed, b"");
        assert_eq!(
            sig.to_hex(),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(verify(&public, b"", &sig));
    }

    #[test]
    fn rfc8032_test_2_one_byte_message() {
        let seed =
            seed_from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
        let public = derive_public(&seed);
        assert_eq!(
            to_hex(&public),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let msg = [0x72u8];
        let sig = sign(&seed, &msg);
        assert_eq!(
            sig.to_hex(),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        assert!(verify(&public, &msg, &sig));
    }

    #[test]
    fn rfc8032_test_3_two_byte_message() {
        let seed =
            seed_from_hex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
        let public = derive_public(&seed);
        assert_eq!(
            to_hex(&public),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xafu8, 0x82];
        let sig = sign(&seed, &msg);
        assert_eq!(
            sig.to_hex(),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(verify(&public, &msg, &sig));
    }

    // --- rejection behaviour ----------------------------------------------

    #[test]
    fn tampered_message_or_signature_rejected() {
        let seed =
            seed_from_hex("00000000000000000000000000000000000000000000000000000000000000aa");
        let public = derive_public(&seed);
        let sig = sign(&seed, b"pass from research to research");
        assert!(verify(&public, b"pass from research to research", &sig));
        assert!(!verify(&public, b"pass from research to production", &sig));
        for i in [0usize, 31, 32, 63] {
            let mut bytes = sig.to_bytes();
            bytes[i] ^= 1;
            let bad = Signature::from_bytes(bytes);
            assert!(
                !verify(&public, b"pass from research to research", &bad),
                "flipping byte {i} still verified"
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = sign(&[1u8; 32], b"message");
        let other = derive_public(&[2u8; 32]);
        assert!(!verify(&other, b"message", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Replace s with L (≥ L): same curve equation, different encoding —
        // the malleability RFC 8032 forbids.
        let seed = [7u8; 32];
        let public = derive_public(&seed);
        let mut bytes = sign(&seed, b"m").to_bytes();
        bytes[32..].copy_from_slice(&l_bytes());
        assert!(!verify(&public, b"m", &Signature::from_bytes(bytes)));
    }

    #[test]
    fn invalid_point_encoding_rejected() {
        // y = 2 gives x² = (y²-1)/(dy²+1) which is not a square on ed25519.
        let mut enc = [0u8; 32];
        enc[0] = 2;
        assert!(Point::decompress(&enc).is_none());
        let sig = sign(&[9u8; 32], b"m");
        assert!(!verify(&enc, b"m", &sig));
    }

    #[test]
    fn signature_hex_round_trip() {
        let sig = sign(&[3u8; 32], b"hex me");
        let hex = sig.to_hex();
        assert_eq!(hex.len(), 128);
        assert_eq!(Signature::from_hex(&hex), Some(sig));
        assert_eq!(Signature::from_hex("zz"), None);
        assert_eq!(Signature::from_hex("abcd"), None);
    }

    #[test]
    fn signing_is_deterministic() {
        let a = sign(&[5u8; 32], b"same message");
        let b = sign(&[5u8; 32], b"same message");
        assert_eq!(a, b);
        assert_ne!(a, sign(&[5u8; 32], b"different message"));
    }
}
