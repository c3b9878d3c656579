"""Exact ``%d`` and ``%.17g`` text for the packet dump, rendered by numpy.

Every field is rendered into a fixed slot of uint64 words whose
little-endian bytes are its text, with byte 0 wherever the text is shorter
than the slot. A chunk of dump lines is then a matrix of such slots, and
dropping every 0 byte of it leaves the lines. No Python object is made per
value, except for the doubles outside the fast range below.

Digits, after Adams, "Ryu revisited: printf floating point conversion"
(OOPSLA 2019). A positive double is x = m * 2**q with a 53-bit integer m.
With e = floor(log10 x) and p = 16 - e, the 17 significant digits of x are
N = round-half-even(m * 5**p * 2**(q + p)). For p in [0, 27], 5**p fits in
64 bits, and for s = -(q + p) in [1, 63], N is the 116-bit product
m * 5**p, formed from 32-bit limbs, shifted right by s; the s bits shifted
out decide the rounding. All of it is integer arithmetic, so N is exact.
``np.log10`` only proposes e: where the truncated (not yet rounded) N falls
outside [10**16, 10**17), e is off by one and N is computed again with the
neighbour. Those ranges of p and s hold for 1e-11 <= x < 2**51 (the fast
range), give or take the doubles next to its ends. Every other double (0,
-0, negatives, subnormals, infinities, NaN, values too large or too small)
is formatted by ``'%.17g' %`` into its own slot, so there is one writer,
not two. So is a value whose rounding would carry N to 10**17; only a
double just below a power of ten can, and none in the fast range does.

Layout follows ``%g``: with X = e, -4 <= X < 17 prints in fixed notation
and otherwise as d.ddd followed by e-XX; trailing zeros go, and so does a
point with nothing after it. In the fast range X lies in [-11, 15].
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_MANTISSA = _U64((1 << 52) - 1)
_HIDDEN_BIT = _U64(1 << 52)
_HALF = _U64(1 << 63)
_POW5 = 5 ** np.arange(28, dtype=np.uint64)           # 5**27 < 2**64
_POW5_HI, _POW5_LO = _POW5 >> _U64(32), _POW5 & _M32
_POW10 = 10 ** np.arange(1, 17)


def le_words(rows) -> np.ndarray:
    """Rows of bytes, 8 to a word, as little-endian uint64 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8").astype(np.uint64)


def word_bytes(word_rows) -> np.ndarray:
    """The little-endian bytes of uint64 words, 8 per word along the last axis."""
    return word_rows.astype("<u8", copy=False).view(np.uint8)


#: The four ASCII digits of each of 0..9999, first digit in the lowest byte.
_QUAD = np.zeros((10_000, 8), np.uint8)
_QUAD[:, :4] = np.indices((10, 10, 10, 10)).reshape(4, -1).T + 48
_QUAD = le_words(_QUAD).ravel()

#: Over the 24 bytes of three words, for t in [0, 18]: [word, t] masks the
#: bytes before t, the bytes after t, and puts "." at t (none at 0, 17, 18).
_BYTE = np.arange(24)
_T = np.arange(19)[:, None]
_BEFORE = le_words((_BYTE < _T) * 255).T
_AFTER = le_words((_BYTE > _T) * 255).T
_POINT = le_words((_BYTE == _T) * ord(".")).T
_POINT[:, [0, 17, 18]] = 0

#: Per decimal exponent X in [-11, 15] (row X + 11): whether %g writes it
#: in scientific notation, how many digits stand before the point, where the
#: point goes among the 17 digits (17: not among them), the "0.000" lead (in
#: bytes 1-5 of a word) and the exponent (bytes 4-7).
_X_MIN = -11
_X = np.arange(_X_MIN, 16)
_SCIENTIFIC = _X < -4
_BELOW_ONE = ~_SCIENTIFIC & (_X < 0)
_INT_DIGITS = np.where(_SCIENTIFIC, 1, _X + 1)
_POINT_AT = np.where(_BELOW_ONE, 17, _INT_DIGITS)
_LEAD = le_words([np.frombuffer((b"\0" + (b"0.000"[:1 - x] if low else b"")).ljust(8, b"\0"),
                                np.uint8) for x, low in zip(_X.tolist(), _BELOW_ONE)]).ravel()
_EXPONENT = le_words([np.frombuffer(b"\0" * 4 + (b"e-%02d" % -x if sci else b"\0" * 4), np.uint8)
                      for x, sci in zip(_X.tolist(), _SCIENTIFIC)]).ravel()


def _word8(y) -> np.ndarray:
    """int64 numbers below 10**8 as 8 zero-padded ASCII digits, first in the lowest byte."""
    a = y // 10_000
    return _QUAD[a] | (_QUAD[y - a * 10_000] << _U64(32))


def _truncated17(m, q, e):
    """floor(m * 2**q * 10**(16 - e)), and whether rounding it half-even adds
    one, for 16 - e in [0, 27] and e - 16 - q in [1, 63] (clipped to them)."""
    p = np.clip(16 - e, 0, 27)
    u = np.clip(80 - e + q, 1, 63).astype(np.uint64)     # 64 - s
    f1, f0 = _POW5_HI[p], _POW5_LO[p]
    m1, m0 = m >> _U64(32), m & _M32
    lo = m0 * f0
    mid = m1 * f0 + m0 * f1 + (lo >> _U64(32))
    hi = m1 * f1 + (mid >> _U64(32))                     # product = hi * 2**64 + lo
    lo = (mid << _U64(32)) | (lo & _M32)
    n = (hi << u) | (lo >> (_U64(64) - u))
    rest = lo << u                                       # the bits shifted out, at the top
    return n, (rest > _HALF) | ((rest == _HALF) & (n & _U64(1) == 1))


def decimal17(v):
    """The 17 significant digits N of each double in the float64 array ``v``
    as an int64, its decimal exponent, and whether it is in the fast range
    (elsewhere N and the exponent are placeholders)."""
    bits = v.view(np.uint64)
    m = (bits & _MANTISSA) | _HIDDEN_BIT
    q = (bits >> _U64(52)).astype(np.int64) - 1075
    fast = (v >= 1e-11) & (v < 2.0 ** 51)
    e = np.floor(np.log10(np.where(fast, v, 1.0))).astype(np.int64)
    n, up = _truncated17(m, q, e)
    off = (n < 10 ** 16).astype(np.int64) - (n >= 10 ** 17)
    redo = np.flatnonzero(fast & (off != 0))
    if redo.size:
        e[redo] -= off[redo]
        n[redo], up[redo] = _truncated17(m[redo], q[redo], e[redo])
    n += up
    fast &= ((e >= _X_MIN) & (e <= 15) & (80 - e + q >= 1) & (80 - e + q <= 63)
             & (n - up >= 10 ** 16) & (n < 10 ** 17))
    return np.where(fast, n, _U64(10 ** 16)).view(np.int64), np.where(fast, e, 0), fast


def float_words(v) -> np.ndarray:
    """``'%.17g' % x`` of each x in the 1-D float64 array ``v``, as a (4, len(v))
    array of slot words: in each 32-byte slot, byte 0 is 0 (free for a
    separator), bytes 1-5 hold the "0." to "0.000" lead of a value below 1
    in fixed notation, bytes 8-25 the 17 digits with the point and bytes
    28-31 the exponent; a value outside the fast range has its text in bytes
    8-31."""
    n, exp10, fast = decimal17(v)
    form = exp10 - _X_MIN
    top = n // 10 ** 9
    rest = n - top * 10 ** 9
    mid = rest // 10
    last = rest - mid * 10
    digits = [_word8(top), _word8(mid), (last + 48).astype(np.uint64)]
    point_at = _POINT_AT[form]
    point = point_at
    zeros = np.flatnonzero(last == 0)
    if zeros.size:                        # drop trailing zeros, and a point left bare
        kept = np.full(zeros.size, 17)
        left = n[zeros]
        for d in (16, 8, 4, 2, 1):
            whole = left % 10 ** d == 0
            kept -= d * whole
            left[whole] //= 10 ** d
        kept = np.maximum(kept, _INT_DIGITS[form[zeros]])
        for word, d in enumerate(digits):
            d[zeros] &= _BEFORE[word][kept]
        point = point_at.copy()
        point[zeros] = np.where(kept > point_at[zeros], point_at[zeros], 0)
    words = np.empty((4, v.size), np.uint64)
    words[0] = _LEAD[form]
    carried = _U64(0)
    for word, d in enumerate(digits):     # move the digits after the point up one byte
        moved = (d << _U64(8)) | carried
        carried = d >> _U64(56)
        words[word + 1] = ((d & _BEFORE[word][point_at]) | (moved & _AFTER[word][point_at])
                           | _POINT[word][point])
    words[3] |= _EXPONENT[form]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S24")
        words[0, slow] = 0
        words[1:, slow] = le_words(text.view(np.uint8).reshape(-1, 24)).T
    return words


def index_words(i) -> np.ndarray:
    """``'%d' % i`` of each integer in [0, 10**16) of ``i``, right-aligned in
    16 bytes: a (2, len(i)) array of words."""
    i = np.asarray(i, dtype=np.int64)
    top = i // 10 ** 8
    blank = 15 - np.searchsorted(_POW10, i, side="right")     # leading bytes that stay 0
    return np.stack([_word8(top) & ~_BEFORE[0][blank],
                     _word8(i - top * 10 ** 8) & ~_BEFORE[1][blank]])
