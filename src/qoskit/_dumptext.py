"""The packet dump's line format, with exact ``%d`` and ``%.17g`` text,
rendered and parsed by numpy.

This module owns the dump's lines: the header (``PACKET_TRACE_HEADER``),
``render_lines`` for chunks of packets and ``parse_lines`` for a block of
whole lines, with every column name and every flow and flag token declared
once below. ``qoskit.sim`` keeps the file loops around them.

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

Reading back (``parse_decimals``), after Clinger, "How to read floating
point numbers accurately" (PLDI 1990), and Lemire, "Number parsing at a
gigabyte per second" (SPE 2021): a token's digits are an exact integer
w < 10**19 and its point and exponent a power 10**q, |q| <= 27, both exact
in x87 extended precision. One multiply or divide there and one rounding to
a double are the correctly rounded value, unless the extended result is a
midpoint of two doubles (low 11 bits 0x400): such a token, and any token
outside the grammar, is left to ``float()``.
"""

from __future__ import annotations

import sys
from itertools import compress

import numpy as np

from .errors import DomainError
from .metrics import _one_ahead

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


def _words(texts) -> np.ndarray:
    """Each byte string as a row of uint64 words, padded with 0 bytes to the
    whole words of the longest."""
    size = -(-max(map(len, texts)) // 8) * 8
    return le_words([np.frombuffer(text.ljust(size, b"\0"), np.uint8) for text in texts])


#: The four ASCII digits of each of 0..9999, first digit in the lowest byte.
_QUAD = np.zeros((10_000, 8), np.uint8)
_QUAD[:, :4] = np.indices((10, 10, 10, 10)).reshape(4, -1).T + 48
_QUAD = le_words(_QUAD).ravel()

#: Over the 24 bytes of three words: [word, t] masks the bytes before t, for
#: t in [0, 24]; for t in [0, 18] it masks the bytes after t, and puts "."
#: at t (none at 0, 17, 18).
_BYTE = np.arange(24)
_T = np.arange(19)[:, None]
_BEFORE = np.ascontiguousarray(le_words((_BYTE < np.arange(25)[:, None]) * 255).T)
_AFTER = np.ascontiguousarray(le_words((_BYTE > _T) * 255).T)
_POINT = np.ascontiguousarray(le_words((_BYTE == _T) * ord(".")).T)
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
_LEAD = _words([b"\0" + (b"0.000"[:1 - x] if low else b"")
                for x, low in zip(_X.tolist(), _BELOW_ONE)]).ravel()
_EXPONENT = _words([b"\0" * 4 + (b"e-%02d" % -x if sci else b"\0" * 4)
                    for x, sci in zip(_X.tolist(), _SCIENTIFIC)]).ravel()


def _word8(y, t=None):
    """int64 numbers below 10**8 as 8 zero-padded ASCII digits, first in the
    lowest byte, written over ``y`` and returned as uint64; ``t`` is two
    uint64 rows of ``len(y)`` for the temporaries, made when None."""
    t = np.empty((2, y.size), np.uint64) if t is None else t
    a, b = np.floor_divide(y, 10_000, out=t[0].view(np.int64)), t[1].view(np.int64)
    np.subtract(y, np.multiply(a, 10_000, out=b), out=b)
    y = np.take(_QUAD, b, out=y.view(np.uint64), mode="clip")
    y <<= _U64(32)
    y |= np.take(_QUAD, a, out=t[1], mode="clip")
    return y


def _truncated17(bits, e, t):
    """floor(m * 2**q * 10**(16 - e)) for the doubles m * 2**q whose bits
    are ``bits``, and whether rounding it half-even adds one, for 16 - e in
    [0, 27] and e - 16 - q in [1, 63] (clipped to them). ``t`` is six uint64
    rows of ``len(bits)`` for the temporaries; the results are views of its
    rows 3 and 4."""
    p = np.subtract(16, e, out=t[0].view(np.int64))
    np.clip(p, 0, 27, out=p)
    f1 = np.take(_POW5_HI, p, out=t[1], mode="clip")
    f0 = np.take(_POW5_LO, p, out=t[2], mode="clip")
    u = np.right_shift(bits, _U64(52), out=t[3]).view(np.int64)
    np.add(u, 80 - 1075, out=p)
    p -= e
    np.clip(p, 1, 63, out=p)                                # 64 - s
    u = p.view(np.uint64)
    m1 = np.right_shift(bits, _U64(32), out=t[3])           # m = m1 * 2**32 + m0
    m1 &= _U64(0xF_FFFF)
    m1 |= _U64(1 << 20)
    m0 = np.bitwise_and(bits, _M32, out=t[4])
    lo = np.multiply(m0, f0, out=t[5])
    mid = f0
    mid *= m1
    m0 *= f1
    mid += m0
    mid += np.right_shift(lo, _U64(32), out=m0)
    hi = m1
    hi *= f1
    hi += np.right_shift(mid, _U64(32), out=f1)             # product = hi * 2**64 + lo
    lo &= _M32
    mid <<= _U64(32)
    lo |= mid
    n = hi
    n <<= u
    n |= np.right_shift(lo, np.subtract(_U64(64), u, out=f1), out=f1)
    rest = lo
    rest <<= u                                              # the bits shifted out, at the top
    up, tie = t[4].view(bool)[:bits.size], t[2].view(bool)[:bits.size]
    np.greater(rest, _HALF, out=up)
    np.equal(rest, _HALF, out=tie)
    np.logical_and(tie, np.bitwise_and(n, _U64(1), out=f1), out=tie)
    up |= tie
    return n, up


def decimal17(v, t=None):
    """The 17 significant digits N of each double in the float64 array ``v``
    as an int64, its decimal exponent, and whether it is in the fast range
    (elsewhere N and the exponent are placeholders). ``t`` is eight uint64
    rows of at least ``len(v)`` for the temporaries, made when None; the
    results are views of its rows 3, 6 and 7."""
    size = v.size
    t = np.empty((8, size), np.uint64) if t is None else t[:, :size]
    bits = v.view(np.uint64)
    fast, other = t[7].view(bool)[:size], t[7].view(bool)[size:2 * size]
    np.greater_equal(v, 1e-11, out=fast)
    fast &= np.less(v, 2.0 ** 51, out=other)
    x = t[5].view(np.float64)
    np.copyto(x, v)
    np.copyto(x, 1.0, where=np.logical_not(fast, out=other))
    np.log10(x, out=x)
    e = np.floor(x, out=t[6].view(np.int64), casting="unsafe")
    n, up = _truncated17(bits, e, t)
    np.less(n, _U64(10 ** 16), out=other)
    other |= n >= _U64(10 ** 17)
    other &= fast
    redo = np.flatnonzero(other)
    if redo.size:
        e[redo] -= (n[redo] < 10 ** 16).astype(np.int64) - (n[redo] >= 10 ** 17)
        n[redo], up[redo] = _truncated17(bits[redo], e[redo], np.empty((6, redo.size), np.uint64))
    # In the fast range: N in [10**16, 10**17) before and after rounding,
    # X in [-11, 15] and s in [1, 63].
    fast &= np.greater_equal(n, _U64(10 ** 16), out=other)
    n += up
    fast &= np.less(n, _U64(10 ** 17), out=other)
    fast &= np.greater_equal(e, _X_MIN, out=other)
    fast &= np.less_equal(e, 15, out=other)
    s = np.right_shift(bits, _U64(52), out=t[0]).view(np.int64)
    s -= 1075 - 80
    s -= e                                                  # 64 - s
    fast &= np.greater_equal(s, 1, out=other)
    fast &= np.less_equal(s, 63, out=other)
    np.logical_not(fast, out=other)
    np.copyto(n, _U64(10 ** 16), where=other)
    np.copyto(e, 0, where=other)
    return n.view(np.int64), e, fast


#: Scratch rows ``float_words`` takes for its temporaries.
FLOAT_SCRATCH = 8


def float_words(v, out=None, t=None):
    """``'%.17g' % x`` of each x in the 1-D float64 array ``v``, as a (4, len(v))
    array of slot words: in each 32-byte slot, byte 0 is 0 (free for a
    separator), bytes 1-5 hold the "0." to "0.000" lead of a value below 1
    in fixed notation, bytes 8-25 the 17 digits with the point and bytes
    28-31 the exponent; a value outside the fast range has its text in bytes
    8-31.

    ``out`` may be any uint64 array or view of 4 rows whose rows hold
    ``len(v)`` words each in C order; ``t`` is ``FLOAT_SCRATCH`` uint64 rows
    of at least ``len(v)`` for the temporaries. Each is made when None."""
    size = v.size
    out = np.empty((4, size), np.uint64) if out is None else out
    t = np.empty((FLOAT_SCRATCH, size), np.uint64) if t is None else t[:, :size]
    n, form, fast = decimal17(v, t)
    slow = np.flatnonzero(np.logical_not(fast, out=fast))
    form -= _X_MIN
    top, last = np.floor_divide(n, 10 ** 9, out=t[0].view(np.int64)), t[1].view(np.int64)
    np.subtract(n, np.multiply(top, 10 ** 9, out=last), out=last)
    mid = np.floor_divide(last, 10, out=t[2].view(np.int64))
    last -= np.multiply(mid, 10, out=t[4].view(np.int64))
    zeros = np.flatnonzero(np.equal(last, 0, out=t[7].view(bool)[:size]))
    left = n[zeros]
    last += 48
    digits = [_word8(top, t[4:6]), _word8(mid, t[4:6]), last.view(np.uint64)]
    point_at = np.take(_POINT_AT, form, out=t[3].view(np.int64), mode="clip")
    point = point_at
    if zeros.size:                        # drop trailing zeros, and a point left bare
        kept = np.full(zeros.size, 17)
        for d in (16, 8, 4, 2, 1):
            whole = left % 10 ** d == 0
            kept -= d * whole
            left[whole] //= 10 ** d
        kept = np.maximum(kept, _INT_DIGITS[form[zeros]])
        for word, d in enumerate(digits):
            d[zeros] &= _BEFORE[word][kept]
        point = t[4].view(np.int64)
        np.copyto(point, point_at)
        point[zeros] = np.where(kept > point_at[zeros], point_at[zeros], 0)
    mask, moved = t[5], t[7]
    shape = out[0].shape
    out[0] = np.take(_LEAD, form, out=mask, mode="clip").reshape(shape)
    for word in (2, 1, 0):                # move the digits after the point up one byte
        d = digits[word]
        np.left_shift(d, _U64(8), out=moved)
        if word:
            moved |= np.right_shift(digits[word - 1], _U64(56), out=mask)
        d &= np.take(_BEFORE[word], point_at, out=mask, mode="clip")
        moved &= np.take(_AFTER[word], point_at, out=mask, mode="clip")
        d |= moved
        d |= np.take(_POINT[word], point, out=mask, mode="clip")
        if word == 2:
            d |= np.take(_EXPONENT, form, out=mask, mode="clip")
        out[word + 1] = d.reshape(shape)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S24")
        at = np.unravel_index(slow, shape)
        out[0][at] = 0
        for word, d in enumerate(le_words(text.view(np.uint8).reshape(-1, 24)).T):
            out[word + 1][at] = d
    return out


def index_words(i) -> np.ndarray:
    """``'%d' % i`` of each integer in [0, 10**16) of ``i``, right-aligned in
    16 bytes: a (2, len(i)) array of words."""
    i = np.asarray(i, dtype=np.int64)
    top = i // 10 ** 8
    low = i - top * 10 ** 8
    blank = 15 - np.searchsorted(_POW10, i, side="right")     # leading bytes that stay 0
    return np.stack([_word8(top) & ~_BEFORE[0][blank], _word8(low) & ~_BEFORE[1][blank]])


#: The reader's fast path scales in x87 extended precision: a 64-bit
#: significand, the low 8 bytes of a little-endian long double.
EXACT_SCALING = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_POW10_LD = np.ldexp(_POW5.astype(np.longdouble), np.arange(28))     # exact: 5**27 < 2**63
_BYTES = {b: _U64(0x0101_0101_0101_0101 * b) for b in (0x06, 0x2E, 0x30, 0x33, 0x7F, 0xF0)}


def unaligned_words(raw) -> np.ndarray:
    """The little-endian uint64 word at each byte offset of the uint8 array
    ``raw`` (a view; the last 7 offsets have none)."""
    return np.ndarray((raw.size - 7,), "<u8", raw, strides=(1,))


#: Scratch words ``parse_decimals`` takes for its temporaries, per token.
PARSE_SCRATCH = 9


def parse_decimals(text, starts, stops, t=None):
    """The double nearest each token ``text[starts[i]:stops[i]]`` of the uint8
    array ``text`` (24 bytes before the first, 8 after the last), and
    whether it is certified, else a placeholder: 1-19 digits and at most one
    point in 24 bytes, then ``e[+-]dd`` or nothing, |q| <= 27, and no
    midpoint.

    ``t`` is a 1-D uint64 array of at least ``PARSE_SCRATCH * len(starts)``
    words for the temporaries, made when None."""
    count = starts.size
    t = np.empty(PARSE_SCRATCH * count, np.uint64) if t is None else t
    t = t[:PARSE_SCRATCH * count].reshape(PARSE_SCRATCH, count)
    mend, size, exp10, point = (t[r].view(np.int64) for r in range(4))
    w, tmp, tmp2 = t[4:7], t[7], t[8]
    np.subtract(stops, 4, out=mend)
    np.subtract(stops, starts, out=size)
    exponent = (text[mend] == ord("e")) & (size > 4)
    np.copyto(mend, stops, where=~exponent)       # where the digits end
    good = np.ones(count, bool)
    exp10[:] = 0
    at = np.flatnonzero(exponent)
    if at.size:
        sign = text[mend[at] + 1]
        d = [(text[mend[at] + k] - np.uint8(48)).astype(np.int64) for k in (2, 3)]  # > 9: no digit
        good[at] = ((sign == ord("+")) | (sign == ord("-"))) & (d[0] < 10) & (d[1] < 10)
        exp10[at] = np.where(sign == ord("-"), -1, 1) * (10 * d[0] + d[1])
    np.subtract(mend, starts, out=size)
    good &= size <= 24
    # The 24 bytes that end at the last digit as three words, the bytes
    # before the token made "0", and where the first "." is (24: none).
    words = unaligned_words(text)
    lead = np.subtract(24, size, out=size)
    np.clip(lead, 0, 24, out=lead)
    point[:] = 0
    for k in (2, 1, 0):
        w[k] = words[np.subtract(mend, 8 * (3 - k), out=tmp.view(np.int64))]
        np.bitwise_xor(w[k], _BYTES[0x30], out=tmp)
        tmp &= np.take(_BEFORE[k], lead, out=tmp2, mode="clip")
        w[k] ^= tmp
        dot = np.bitwise_xor(w[k], _BYTES[0x2E], out=tmp)
        np.bitwise_and(dot, _BYTES[0x7F], out=tmp2)
        tmp2 += _BYTES[0x7F]
        tmp2 |= _BYTES[0x7F]
        dot |= tmp2                               # 0x7F at a ".", else 0xFF
        np.invert(dot, out=dot)
        dot >>= _U64(7)                           # 1 in each "." byte
        dot *= _U64(0x0807_0605_0403_0201)        # top byte: 8 - the "." byte (0: none)
        top = np.right_shift(dot, _U64(56), out=tmp2).view(np.int64)
        point *= top == 0
        point += 8
        point -= top
    has_point = point < 24
    exp10 -= np.multiply(np.subtract(23, point, out=tmp.view(np.int64)), has_point,
                         out=tmp.view(np.int64))  # digits after the point
    good &= np.add(lead, has_point, out=lead) < 24     # a digit in the token
    up = point
    up += 1
    np.subtract(up, 25, out=up, where=up == 25)
    for k in (2, 1, 0):                           # the bytes up to the point move up one
        moved = np.left_shift(w[k], _U64(8), out=tmp)
        moved |= np.right_shift(w[k - 1], _U64(56), out=tmp2) if k else _U64(0x30)
        moved ^= w[k]
        moved &= np.take(_BEFORE[k], up, out=tmp2, mode="clip")
        w[k] ^= moved
        bad = np.add(w[k], _BYTES[0x06], out=tmp)
        bad &= _BYTES[0xF0]
        bad >>= _U64(4)
        bad |= np.bitwise_and(w[k], _BYTES[0xF0], out=tmp2)
        good &= bad == _BYTES[0x33]               # eight digits
    for mask, mul, shift in ((0x0F0F_0F0F_0F0F_0F0F, 2561, 8),          # digits to pairs,
                             (0x00FF_00FF_00FF_00FF, 6553601, 16),       # quads, then eights
                             (0x0000_FFFF_0000_FFFF, 42949672960001, 32)):
        w &= _U64(mask)
        w *= _U64(mul)
        w >>= _U64(shift)
    good &= w[0] < 1000                           # below 10**19; 10**27 is exact
    good &= np.abs(exp10, out=mend) <= 27
    w[0] *= _U64(10 ** 16)
    w[1] *= _U64(10 ** 8)
    w[0] += w[1]
    w[0] += w[2]
    n, scale = (rows.reshape(-1).view(np.longdouble)[:count] for rows in (t[7:9], t[4:6]))
    np.copyto(n, w[0])
    np.negative(exp10, out=mend)
    n /= np.take(_POW10_LD, mend, out=scale, mode="clip")
    big = np.flatnonzero(exp10 > 0)
    n[big] *= _POW10_LD[np.minimum(exp10[big], 27)]
    low = np.ndarray(n.shape, "<u8", n, strides=(n.itemsize,))
    good &= np.bitwise_and(low, _U64(0x7FF), out=t[6]) != 0x400
    return n.astype(np.float64), good


#: The dump's columns as its header names them: the packet index, the flow,
#: the four times, the dropped flag. The flow and flag tokens are listed by
#: truth (tagged; dropped), each led by "," on its line.
_COLUMNS = ("index", "flow", "arrival_s", "service_s", "departure_s", "sojourn_s", "dropped")
PACKET_TRACE_HEADER = ",".join(_COLUMNS)
_TIMES = _COLUMNS[2:-1]
_FLOWS = (b"background", b"tagged")
_FLAGS = (b"0", b"1")
#: A dropped packet's times from this one on (its departure and sojourn)
#: are left empty.
_BLANK_FROM = 2


#: A dump line as slot words: the index (``index_words``), the flow, four
#: 4-word ``float_words`` slots each led by ",", and the flag with the
#: newline; and where each slot after the index starts.
_FLOW_WORDS = _words([b"," + token for token in _FLOWS])
_FLAG_WORDS = _words([b"," + token + b"\n" for token in _FLAGS])
_FLOW_AT, _TIMES_AT, _FLAG_AT, _LINE_WORDS = np.cumsum(
    [2, _FLOW_WORDS.shape[1], 4 * len(_TIMES), _FLAG_WORDS.shape[1]]).tolist()


def render_lines(chunk: int, *columns):
    """The dump lines of the packets in 1-D columns of one length (tagged,
    dropped and the four times), ``chunk`` lines at a time, the text of
    each chunk yielded in two halves as uint8 arrays, each valid until the
    next is asked for.

    The bytes are those of ``"%d,%s,%.17g,%.17g,%.17g,%.17g,%s\\n"`` with the
    index, the flow token, the four times and the flag token, but with the
    departure and sojourn left empty on a dropped line. Each field goes into
    a fixed slot of a matrix of uint64 words, with byte 0 where its text is
    shorter, and dropping the 0 bytes leaves the text; no Python object is
    made per packet. Times of another dtype are written as their float64
    values and flags by truth, as ``'%.17g'`` and ``if`` would.

    Two stages overlap on two cores (``metrics._one_ahead``): a worker
    thread renders chunk k + 1's times (``float_words``) while the calling
    thread fills chunk k's index, flow, comma and flag words, drops its 0
    bytes and hands it on. Two word matrices take turns; they, the mask of
    non-zero bytes (half a chunk's) and the worker's scratch are made once
    per call, so the system does not map and fault in fresh pages for each
    chunk.
    """
    tagged, dropped, *times = columns
    size = len(tagged)
    rows = min(chunk, size)
    lines = np.empty((2, rows, _LINE_WORDS), np.uint64)     # chunk k in lines[k % 2]
    values = np.empty(len(times) * rows)
    scratch = np.empty((FLOAT_SCRATCH, values.size), np.uint64)
    half = -(-rows // 2)
    keep = np.empty(half * _LINE_WORDS * 8, bool)

    def render_times(first):
        n = min(chunk, size - first)
        v = values[:len(times) * n].reshape(len(times), n)      # one time column a row
        for j, column in enumerate(times):
            v[j] = column[first:first + n]
        # a dropped line's departure and sojourn are not written; 1.0 keeps
        # them off the % path
        v[_BLANK_FROM:, dropped[first:first + n].astype(bool)] = 1.0
        slots = lines[first // chunk % 2, :n, _TIMES_AT:_FLAG_AT]
        float_words(v.ravel(), slots.reshape(n, len(times), 4).T, scratch)
        return first

    for first in _one_ahead(render_times, range(0, size, chunk)):
        n = min(chunk, size - first)
        line = lines[first // chunk % 2, :n]
        drop = dropped[first:first + n].astype(bool)
        line[:, :_FLOW_AT] = index_words(np.arange(first, first + n)).T
        flow = tagged[first:first + n].astype(bool)
        line[:, _FLOW_AT:_TIMES_AT] = _FLOW_WORDS[flow.view(np.uint8)]
        slots = line[:, _TIMES_AT:_FLAG_AT]
        slots[drop, 4 * _BLANK_FROM:] = 0
        slots[:, 0::4] |= np.uint64(ord(","))
        line[:, _FLAG_AT:] = _FLAG_WORDS[drop.view(np.uint8)]
        for part in range(0, n, half):
            text = word_bytes(line[part:part + half]).ravel()
            yield text[np.not_equal(text, 0, out=keep[:text.size])]


def parse_lines(blocks, line0: int, tagged, dropped, *times) -> int:
    """Parse the blocks of whole newline-terminated dump lines that
    ``blocks`` yields, the first line being line ``line0`` of the file, into
    the first rows of their columns, one row a line, and return the number
    of lines; a dropped line's departure and sojourn are not written. More
    lines than rows means that the file changed while it was read (its
    lines were counted first).

    Where ``EXACT_SCALING`` holds a block is read in numpy (``_read_fast``),
    in scratch made once per call; else, or where a check fails there, by
    ``float()`` on its ``bytes`` tokens. The columns and errors are the
    same. Raises DomainError, naming the line, on a line without one field
    per column or with a NUL byte, an unknown flow or dropped flag, or a
    time that is not a finite number (a delivered packet needs its
    departure and sojourn; a dropped one's are ignored).
    """
    scratch = np.empty(0, np.uint64)
    done = 0
    for block in blocks:
        block, raw, lines = _lines(block, line0 + done, len(tagged) - done)
        m = len(lines)
        columns = [c[done:done + m] for c in (tagged, dropped, *times)]
        if EXACT_SCALING and scratch.size < PARSE_SCRATCH * len(_TIMES) * m:
            scratch = np.empty(PARSE_SCRATCH * len(_TIMES) * m, np.uint64)
        if not (EXACT_SCALING and _read_fast(block, raw, lines, scratch, *columns)):
            _read_tokens(block, line0 + done, *columns)
        done += m
    return done


#: The bytes up to "," that end a dump line's fields: six "," and a newline.
_SEPARATORS = np.frombuffer(b"," * (len(_COLUMNS) - 1) + b"\n", np.uint8)


def _lines(block: bytes, line0: int, rows: int):
    """A block of whole lines, the first of them line ``line0``, with CR LF
    made LF, as ``bytes`` and uint8, and where each line's six "," and its
    newline are, a row a line. One scan finds every byte up to ","; where
    those are six "," and a newline a line, the block has no CR, no NUL
    and no line without its seven fields. Raises DomainError, naming the
    line, on more lines than ``rows``, a line without seven fields or a NUL
    byte."""
    raw = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero(raw <= ord(","))
    lines = seps.reshape(-1, len(_COLUMNS)) if seps.size % len(_COLUMNS) == 0 else None
    plain = lines is not None and bool((raw[lines] == _SEPARATORS).all())
    if not plain and b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
        raw = np.frombuffer(block, dtype=np.uint8)
    ends = lines[:, -1] if plain else np.flatnonzero(raw == ord("\n"))
    if ends.size > rows:
        raise DomainError(f"packet trace line {line0}: the file changed while it was read")
    if plain:
        return block, raw, lines
    commas = np.flatnonzero(raw == ord(","))
    bad = np.flatnonzero(np.diff(np.searchsorted(commas, ends), prepend=0) != len(_COLUMNS) - 1)
    if bad.size:
        j = int(bad[0])
        line = block[ends[j - 1] + 1 if j else 0:ends[j]].decode("utf-8", "replace")
        raise DomainError(f"packet trace line {line0 + j}: "
                          f"malformed packet trace line: {line!r}")
    if b"\0" in block:     # numpy bytes arrays drop trailing NULs: "1\0" would read as "1"
        j = int(np.searchsorted(ends, block.index(b"\0")))
        raise DomainError(f"packet trace line {line0 + j}: NUL byte in packet trace line")
    return block, raw, np.column_stack([commas.reshape(-1, len(_COLUMNS) - 1), ends])


_PAD = np.zeros(24, np.uint8)


#: Each flow token between its two "," (8 to 16 bytes), as its first and
#: its last 8 bytes and the offset of the last.
_FLOW_TESTS = [(*_words([text[:8], text[-8:]])[:, 0], len(text) - 8)
               for text in (b"," + token + b"," for token in _FLOWS)]


def _read_fast(block, raw, lines, scratch, tagged, dropped, *times) -> bool:
    """Parse the block as ``parse_lines`` does, given where its lines of one
    field per column have their separators (``_lines``): the times are read
    by ``parse_decimals`` (in ``scratch``), and by ``float()`` only where it
    does not certify a token. A certified token (at most 19 digits,
    |q| <= 27) is always finite, so only a ``float()`` value is checked.
    Returns False, having written nothing, where a flow, a flag or a time is
    bad, so that the token path names the line."""
    text = np.concatenate([_PAD, raw, _PAD])
    words = unaligned_words(text)
    c = lines[:, :-1] + _PAD.size
    at = c[:, 0]
    near = {offset: words[at + offset] for offset in {0, *(t[-1] for t in _FLOW_TESTS)}}
    background, is_tagged = ((near[0] == head) & (near[offset] == tail)
                             for head, tail, offset in _FLOW_TESTS)
    flag = text[c[:, -1] + 1]
    kept, is_dropped = (flag == token[0] for token in _FLAGS)
    if not ((is_tagged | background).all() and (is_dropped | kept).all()
            and (lines[:, -1] - lines[:, -2] == 2).all()):      # a flag of one byte
        return False
    starts, stops = (c[:, 1:-1] + 1).ravel(), c[:, 2:].ravel()
    values, good = (a.reshape(-1, len(_TIMES))
                    for a in parse_decimals(text, starts, stops, t=scratch))
    good[is_dropped, _BLANK_FROM:] = True     # never read
    for i in np.flatnonzero(~good).tolist():
        try:
            values.flat[i] = value = float(block[starts[i] - _PAD.size:stops[i] - _PAD.size])
        except ValueError:
            return False
        if not np.isfinite(value):
            return False
    tagged[:] = is_tagged
    dropped[:] = is_dropped
    delivered = ~is_dropped
    for j, column in enumerate(times):
        np.copyto(column, values[:, j], where=delivered if j >= _BLANK_FROM else True)
    return True


def _read_tokens(block, line0, tagged, dropped, *times) -> None:
    """Store a block's lines, the first of them line ``line0``, read by
    ``float()`` on its ``bytes`` tokens, or raise the error naming the line."""
    # Newlines become field separators, so column k of the block is
    # fields[k::len(_COLUMNS)]; the empty field after the last newline is
    # never read.
    fields = block.replace(b"\n", b",").split(b",")
    step = len(_COLUMNS)
    line_nos = np.arange(line0, line0 + len(tagged))
    for column, k, known, what in ((tagged, 1, _FLOWS, _COLUMNS[1]),
                                   (dropped, step - 1, _FLAGS, f"{_COLUMNS[-1]} flag")):
        tokens = np.array(fields[k::step])
        false, true = (tokens == token for token in known)
        bad = np.flatnonzero(~(false | true))
        if bad.size:
            raise DomainError(f"packet trace line {line_nos[bad[0]]}: unknown {what} "
                              f"{tokens[bad[0]].decode('utf-8', 'replace')!r}")
        column[:] = true
    delivered = ~dropped
    keep = delivered.tolist()
    for j, (column, name) in enumerate(zip(times, _TIMES)):
        tokens, rows = fields[2 + j::step], slice(None)
        if j >= _BLANK_FROM:
            tokens, rows = list(compress(tokens, keep)), delivered
        column[rows] = _parse_floats(tokens, line_nos[rows], name)


def _parse_floats(tokens: list, line_nos, column: str) -> np.ndarray:
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        for token, line_no in zip(tokens, line_nos):
            try:
                float(token)
            except ValueError:
                raise DomainError(
                    f"packet trace line {line_no}: {column} "
                    f"{token.decode('utf-8', 'replace')!r} is not a number"
                ) from None
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        j = int(bad[0])
        raise DomainError(f"packet trace line {line_nos[j]}: {column} "
                          f"{tokens[j].decode('utf-8', 'replace')!r} is not finite")
    return values
