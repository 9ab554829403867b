//! The straightforward ed25519 path, kept as the test oracle for the fast one.
//!
//! Everything here is the textbook form of RFC 8032: square-and-multiply
//! exponentiation for inversion and square roots, the unified `a = -1`
//! addition formula (add-2008-hwcd-3) for both adding and doubling, MSB-first
//! double-and-add scalar multiplication, and binary shift-subtract long
//! division for reduction mod `L`. It shares only the base field's `add`,
//! `sub`, `mul` and encodings with the parent module, so a mistake in the
//! dedicated squaring, the addition chains, the doubling formula, the tables,
//! the wNAF recoding or the Barrett reduction shows up as a disagreement.

use super::{consts, Fe, Point, Signature, L};
use crate::ct_eq;
use crate::sha512::{sha512, Sha512};

/// `fe^exp`, exponent as 32 little-endian bytes, squaring by multiplication.
fn pow_bytes(fe: Fe, exp_le: &[u8; 32]) -> Fe {
    let mut acc = Fe::ONE;
    for i in (0..256).rev() {
        acc = acc.mul(acc);
        if (exp_le[i / 8] >> (i % 8)) & 1 == 1 {
            acc = acc.mul(fe);
        }
    }
    acc
}

/// Fermat inversion: `fe^(p-2)`.
pub(super) fn invert(fe: Fe) -> Fe {
    // p - 2 = 2^255 - 21, little-endian.
    let mut exp = [0xffu8; 32];
    exp[0] = 0xeb;
    exp[31] = 0x7f;
    pow_bytes(fe, &exp)
}

/// `fe^((p-5)/8)`.
pub(super) fn pow_p58(fe: Fe) -> Fe {
    // (p - 5) / 8 = 2^252 - 3, little-endian.
    let mut exp = [0xffu8; 32];
    exp[0] = 0xfd;
    exp[31] = 0x0f;
    pow_bytes(fe, &exp)
}

/// `√-1 = 2^((p-1)/4)`.
pub(super) fn sqrt_m1() -> Fe {
    // (p - 1) / 4 = 2^253 - 5, little-endian.
    let mut exp = [0xffu8; 32];
    exp[0] = 0xfb;
    exp[31] = 0x1f;
    pow_bytes(Fe::from_u64(2), &exp)
}

/// Unified addition (add-2008-hwcd-3), complete on ed25519, so it also
/// doubles.
pub(super) fn add(p: &Point, q: &Point) -> Point {
    let k2d = consts().d2;
    let a = p.y.sub(p.x).mul(q.y.sub(q.x));
    let b = p.y.add(p.x).mul(q.y.add(q.x));
    let c = p.t.mul(k2d).mul(q.t);
    let zz = p.z.mul(q.z);
    let d = zz.add(zz);
    let e = b.sub(a);
    let f = d.sub(c);
    let g = d.add(c);
    let h = b.add(a);
    Point {
        x: e.mul(f),
        y: g.mul(h),
        z: f.mul(g),
        t: e.mul(h),
    }
}

/// `[k]p`, `k` as 32 little-endian bytes, MSB-first double-and-add.
pub(super) fn scalar_mul(p: &Point, k: &[u8; 32]) -> Point {
    let mut acc = Point::IDENTITY;
    for i in (0..256).rev() {
        acc = add(&acc, &acc);
        if (k[i / 8] >> (i % 8)) & 1 == 1 {
            acc = add(&acc, p);
        }
    }
    acc
}

/// Canonical compressed encoding, via the reference inversion.
pub(super) fn compress(p: &Point) -> [u8; 32] {
    let zinv = invert(p.z);
    let x = p.x.mul(zinv);
    let y = p.y.mul(zinv);
    let mut out = y.to_bytes();
    if x.is_negative() {
        out[31] |= 0x80;
    }
    out
}

/// RFC 8032 §5.1.3 decompression, via the reference exponentiation.
pub(super) fn decompress(bytes: &[u8; 32]) -> Option<Point> {
    let c = consts();
    let y = Fe::from_bytes(bytes);
    let sign = bytes[31] >> 7 == 1;
    let y2 = y.mul(y);
    let u = y2.sub(Fe::ONE);
    let v = c.d.mul(y2).add(Fe::ONE);
    let v3 = v.mul(v).mul(v);
    let v7 = v3.mul(v3).mul(v);
    let mut x = u.mul(v3).mul(pow_p58(u.mul(v7)));
    let vx2 = v.mul(x.mul(x));
    if vx2.equals(u) {
    } else if vx2.equals(u.neg()) {
        x = x.mul(c.sqrt_m1);
    } else {
        return None;
    }
    if x.is_zero() && sign {
        return None;
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

/// Reduces a 512-bit little-endian value mod `L` by binary long division.
pub(super) fn sc_reduce(bytes: &[u8; 64]) -> [u8; 32] {
    let mut n = [0u64; 9];
    for i in 0..8 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
        n[i] = u64::from_le_bytes(w);
    }
    // L has 253 significant bits; n has at most 512, so shifts above
    // 512 - 253 = 259 can never fit.
    for shift in (0..=259usize).rev() {
        let shifted = shifted_l(shift);
        if geq(&n, &shifted) {
            sub_assign(&mut n, &shifted);
        }
    }
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..i * 8 + 8].copy_from_slice(&n[i].to_le_bytes());
    }
    out
}

fn shifted_l(shift: usize) -> [u64; 9] {
    let word = shift / 64;
    let bit = shift % 64;
    let mut out = [0u64; 9];
    for i in 0..4 {
        out[i + word] |= L[i] << bit;
        if bit > 0 {
            out[i + word + 1] |= L[i] >> (64 - bit);
        }
    }
    out
}

fn geq(a: &[u64; 9], b: &[u64; 9]) -> bool {
    for i in (0..9).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn sub_assign(a: &mut [u64; 9], b: &[u64; 9]) {
    let mut borrow = 0u64;
    for i in 0..9 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    assert_eq!(borrow, 0, "sub_assign underflow");
}

/// `(a·b + c) mod L` through the long-division reduction.
fn sc_muladd(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let limbs = |s: &[u8; 32]| -> [u64; 4] {
        let mut out = [0u64; 4];
        for i in 0..4 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&s[i * 8..i * 8 + 8]);
            out[i] = u64::from_le_bytes(w);
        }
        out
    };
    let (av, bv, cv) = (limbs(a), limbs(b), limbs(c));
    let mut r = [0u64; 8];
    for i in 0..4 {
        let mut carry: u128 = 0;
        for j in 0..4 {
            let cur = r[i + j] as u128 + av[i] as u128 * bv[j] as u128 + carry;
            r[i + j] = cur as u64;
            carry = cur >> 64;
        }
        r[i + 4] = carry as u64;
    }
    let mut carry: u128 = 0;
    for i in 0..8 {
        let cur = r[i] as u128 + if i < 4 { cv[i] as u128 } else { 0 } + carry;
        r[i] = cur as u64;
        carry = cur >> 64;
    }
    let mut bytes = [0u8; 64];
    for i in 0..8 {
        bytes[i * 8..i * 8 + 8].copy_from_slice(&r[i].to_le_bytes());
    }
    sc_reduce(&bytes)
}

fn expand_seed(seed: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
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

/// RFC 8032 public-key derivation, two ways slower than the real one.
pub(super) fn derive_public(seed: &[u8; 32]) -> [u8; 32] {
    let (a, _) = expand_seed(seed);
    compress(&scalar_mul(&consts().base, &a))
}

/// RFC 8032 signing with double-and-add base multiplications.
pub(super) fn sign(seed: &[u8; 32], message: &[u8]) -> Signature {
    let (a, prefix) = expand_seed(seed);
    let public = compress(&scalar_mul(&consts().base, &a));
    let mut h = Sha512::new();
    h.update(&prefix);
    h.update(message);
    let r = sc_reduce(&h.finalize());
    let r_enc = compress(&scalar_mul(&consts().base, &r));
    let mut h = Sha512::new();
    h.update(&r_enc);
    h.update(&public);
    h.update(message);
    let k = sc_reduce(&h.finalize());
    let s = sc_muladd(&k, &a, &r);
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&r_enc);
    sig[32..].copy_from_slice(&s);
    Signature(sig)
}

/// RFC 8032 verification as two separate double-and-add multiplications.
pub(super) fn verify(public: &[u8; 32], message: &[u8], signature: &Signature) -> bool {
    let mut r_enc = [0u8; 32];
    r_enc.copy_from_slice(&signature.0[..32]);
    let mut s = [0u8; 32];
    s.copy_from_slice(&signature.0[32..]);
    if !super::sc_is_canonical(&s) {
        return false;
    }
    let Some(a) = decompress(public) else {
        return false;
    };
    let mut h = Sha512::new();
    h.update(&r_enc);
    h.update(public);
    h.update(message);
    let k = sc_reduce(&h.finalize());
    let check = compress(&add(
        &scalar_mul(&consts().base, &s),
        &scalar_mul(&a.neg(), &k),
    ));
    ct_eq(&check, &r_enc)
}
