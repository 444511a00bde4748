"""``%.17g`` text of float64 arrays, byte for byte that of ``format``.

`records` formats a whole array with numpy operations:

* ``log10`` estimates the decimal exponent E of |x|.
* N = |x|·10^(16−E), rounded half to even, comes from an error-free
  (Dekker/Veltkamp) product of |x| with a double-double table entry of
  10^(16−E).  Where 10^(16−E) is itself a double (E from −6 to 16) the
  product is exact, so ties are decided exactly.
* E is corrected by the floor of that product, not by N: just below a
  power of ten, 9.9999999999999997e-29 must not become 1e-28.  A
  rounding up to 10^17 gives 10^16 and E + 1.
* The digits come in four-digit groups from a table of their ASCII
  bytes.  With the sign, point and exponent they fill fixed 32-byte
  records whose unused bytes are zero, for the caller to drop.

Non-finite values, and values past the exact table whose fraction lies
within 1e-9 of ½, go through ``format`` one at a time.

The tables (about 260 kB) are built at import; `membrane.output`
imports this module at its first write.
"""
from __future__ import annotations

import numpy as np

# decimal exponents the table spans: those of every finite nonzero double,
# subnormals included, and one more on each side for the estimate's error
_E_LO, _E_HI = -325, 309
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves

# A record is 32 bytes, four little-endian uint64 lanes: byte 2 holds the
# sign, bytes 3..24 the digit slots, bytes 25..29 the exponent.  Slot j
# (0..21) is byte 3 + j.  Before the point, slot j holds character j of
# "0000" + the 17 digits; after it, character j - 1.


def _exponent_tables():
    """Per decimal exponent e from _E_LO to _E_HI: 10^(16-e) as
    (hi + lo) * 2^shift with hi in [1, 2], hi's upper half (Veltkamp),
    the record's form (see `_layout`) and its exponent bytes."""
    exps = range(_E_LO, _E_HI + 1)
    shift = np.empty(len(exps), np.int32)
    hi, lo = np.empty(len(exps)), np.empty(len(exps))
    form = np.empty(len(exps), np.intp)
    exp = np.zeros((len(exps), 8), np.uint8)
    for k, e in enumerate(exps):
        # 10^(16-e) = num / den exactly, scaled by 2^t into [1, 2)
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        t = num.bit_length() - den.bit_length()
        num, den = (num, den << t) if t >= 0 else (num << -t, den)
        if num < den:
            num, t = num << 1, t - 1
        shift[k] = t
        hi[k] = num / den  # correctly rounded
        significand = int(hi[k] * 2**52)
        lo[k] = ((num << 52) - significand * den) / (den << 52)
        fixed = -4 <= e < 17  # %g's choice between fixed and exponent notation
        form[k] = e + 4 if fixed else 21
        if not fixed:
            text = f"e{e:+03d}".encode()
            exp[k, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
    split = hi * _SPLIT
    return shift, hi, split - (split - hi), lo, form, exp.view("<u8").ravel()


def _layout() -> np.ndarray:
    """Byte masks of a record, lane-major: column 18 * form + nd.

    The form is E + 4 in fixed notation (E from -4 to 16) and 21 in
    exponent notation; nd counts the significant digits (0 for a zero).
    Lanes 0-2 keep the digit slots before the point, lanes 3-6 the slots
    after it, and lanes 7-9 hold the point.  In fixed notation below 1,
    the "0." and the zeros after it come from the "0000" slots.
    """
    rows = np.zeros((22 * 18, 80), np.uint8)
    for form in range(22):
        e = form - 4
        point = 5 + e if form < 21 else 5  # slot of the point
        first = 4 + min(e, 0) if form < 21 else 4  # first kept slot
        for nd in range(18):
            last = max(4 + nd, point)  # last kept slot
            row = rows[18 * form + nd]
            row[3 + first:3 + point] = 255
            row[24 + 4 + point:24 + 4 + last] = 255
            if point < last:
                row[56 + 3 + point] = ord(".")
    return rows.view("<u8").T.copy()


def _digit_tables():
    """Per four-digit group 0..9999: its ASCII as the low and the high
    half of a uint64, and its trailing '0's."""
    d = np.arange(10**4)
    chars = (48 + np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)).astype(np.uint8)
    low = chars.view("<u4").ravel().astype(np.uint64)
    return low, low << 32, (chars[:, ::-1] == 48).cumprod(axis=1).sum(axis=1).astype(np.uint8)


_SHIFT, _HI, _HH, _LO, _FORM, _EXP = _exponent_tables()
_LAYOUT = _layout()
_QUAD, _QUAD_HI, _TRAILING = _digit_tables()


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10^(16 - E), E the exponent of table row k, as p + err.

    p is the rounded product and err the rest: exact where the row's
    ``lo`` is 0, within about 1e-14 elsewhere.
    """
    y = np.ldexp(a, _SHIFT[k])
    hi, hh, lo = _HI[k], _HH[k], _LO[k]
    hl = hi - hh
    p = y * hi
    split = y * _SPLIT
    yh = split - (split - y)
    yl = y - yh
    err = ((yh * hh - p) + yh * hl + yl * hh) + yl * hl + y * lo
    return p, err, lo


def records(x: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each value of the 1-D float64 array `x`.

    Row i of the (n, 32) uint8 result holds value i's characters in
    order, with zero bytes among them to be dropped.
    """
    a = np.abs(x)
    fast = (a > 0) & (a < np.inf)
    a[~fast] = 1.0
    k = (np.log10(a) - _E_LO).astype(np.intp)  # row of floor(log10 a), or one off
    p, err, lo = _scaled(a, k)
    # judge E by the floor of a * 10^(16-E), not by its rounding
    low = (p - 1e16) + err < 0
    high = (p - 1e17) + err >= 0
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += high[fix].astype(np.intp) - low[fix]
        p[fix], err[fix], lo[fix] = _scaled(a[fix], k[fix])
    # p is now an even integer, so N = p + rint(err) rounds half to even
    delta = np.rint(err)
    slow = np.flatnonzero((~fast & (x != 0)) | ((np.abs(err - delta) > 0.5 - 1e-9) & (lo != 0)))
    # N = hi8 * 10^8 + lo8
    hi8 = np.floor(p / 1e8)
    lo8 = (p - hi8 * 1e8) + delta
    carry = np.floor(lo8 / 1e8)
    hi8 += carry
    lo8 -= carry * 1e8
    up = hi8 == 1e9  # N = 10^17 is 10^16 with E + 1
    hi8[up] = 1e8
    k += up
    hi8[x == 0] = 0
    # N's digits: d0, then four groups of four; tz counts its trailing
    # zeros (17 for a zero)
    top = np.floor(hi8 / 1e4)
    d0 = np.floor(top / 1e4)
    g3 = np.floor(lo8 / 1e4)
    d0, g1, g2, g3, g4 = (g.astype(np.intp) for g in (
        d0, top - d0 * 1e4, hi8 - top * 1e4, g3, lo8 - g3 * 1e4))
    tz = _TRAILING[g4] + (g4 == 0) * (_TRAILING[g3] + (g3 == 0) * (
        _TRAILING[g2] + (g2 == 0) * (_TRAILING[g1] + (g1 == 0) * (d0 == 0))))
    column = 18 * _FORM[k] + 17 - tz
    m = [lane.take(column) for lane in _LAYOUT]
    # r0..r2 hold the slots "0000" + digits; moved up one byte (carrying
    # across lanes) they fill the slots after the point
    r0 = _QUAD_HI[d0] | 0x30000000
    r1 = _QUAD[g1] | _QUAD_HI[g2]
    r2 = _QUAD[g3] | _QUAD_HI[g4]
    out = np.empty((len(x), 4), "<u8")
    out[:, 0] = (r0 & m[0]) | ((r0 << 8) & m[3]) | m[7] | (
        np.signbit(x) * np.uint64(ord("-") << 16))
    out[:, 1] = (r1 & m[1]) | (((r1 << 8) | (r0 >> 56)) & m[4]) | m[8]
    out[:, 2] = (r2 & m[2]) | (((r2 << 8) | (r1 >> 56)) & m[5]) | m[9]
    out[:, 3] = ((r2 >> 56) & m[6]) | _EXP[k]
    text = out.view(np.uint8)
    for i in slow:
        s = format(x[i], ".17g").encode()
        text[i] = 0
        text[i, :len(s)] = np.frombuffer(s, np.uint8)
    return text
