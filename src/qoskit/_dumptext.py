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
_BEFORE = le_words((_BYTE < np.arange(25)[:, None]) * 255).T
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
_LEAD = _words([b"\0" + (b"0.000"[:1 - x] if low else b"")
                for x, low in zip(_X.tolist(), _BELOW_ONE)]).ravel()
_EXPONENT = _words([b"\0" * 4 + (b"e-%02d" % -x if sci else b"\0" * 4)
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


#: The reader's fast path scales in x87 extended precision: a 64-bit
#: significand, the low 8 bytes of a little-endian long double.
EXACT_SCALING = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_POW10_LD = np.ldexp(_POW5.astype(np.longdouble), np.arange(28))     # exact: 5**27 < 2**63
_BYTES = {b: _U64(0x0101_0101_0101_0101 * b) for b in (0x06, 0x2E, 0x30, 0x33, 0x7F, 0xF0)}


def unaligned_words(raw) -> np.ndarray:
    """The little-endian uint64 word at each byte offset of the uint8 array
    ``raw`` (a view; the last 7 offsets have none)."""
    return np.ndarray((raw.size - 7,), "<u8", raw, strides=(1,))


def parse_decimals(text, starts, stops):
    """The double nearest each token ``text[starts[i]:stops[i]]`` of the uint8
    array ``text`` (24 bytes before the first, 8 after the last), and
    whether it is certified, else a placeholder: 1-19 digits and at most one
    point in 24 bytes, then ``e[+-]dd`` or nothing, |q| <= 27, and no
    midpoint."""
    size = stops - starts
    exponent = (text[stops - 4] == ord("e")) & (size > 4)
    mend = stops - 4 * exponent                   # where the digits end
    good = np.ones(size.size, bool)
    exp10 = np.zeros(size.size, np.int64)
    at = np.flatnonzero(exponent)
    if at.size:
        sign = text[mend[at] + 1]
        d = [(text[mend[at] + k] - np.uint8(48)).astype(np.int64) for k in (2, 3)]  # > 9: no digit
        good[at] = ((sign == ord("+")) | (sign == ord("-"))) & (d[0] < 10) & (d[1] < 10)
        exp10[at] = np.where(sign == ord("-"), -1, 1) * (10 * d[0] + d[1])
    size = mend - starts
    # The 24 bytes that end at the last digit as three words, the bytes
    # before the token made "0", and where the first "." is (24: none).
    words = unaligned_words(text)
    w = np.empty((3, size.size), np.uint64)
    lead = np.clip(24 - size, 0, 24).astype(np.uint8)
    point = 0
    for k in (2, 1, 0):
        w[k] = words[mend - 8 * (3 - k)]
        w[k] ^= (w[k] ^ _BYTES[0x30]) & _BEFORE[k][lead]
        dot = w[k] ^ _BYTES[0x2E]
        dot |= ((dot & _BYTES[0x7F]) + _BYTES[0x7F]) | _BYTES[0x7F]   # 0x7F at a ".", else 0xFF
        dot = ~dot >> _U64(7)                     # 1 in each "." byte
        dot *= _U64(0x0807_0605_0403_0201)        # top byte: 8 - the "." byte (0: none)
        top = (dot >> _U64(56)).astype(np.int64)
        point = 8 - top + (top == 0) * point
    has_point = point < 24
    exp10 -= (23 - point) * has_point             # digits after the point
    good &= (size <= 24) & (size > has_point)
    up = (point + 1) % 25
    del mend, lead                                # the block's memory peaks below
    for k in (2, 1, 0):                           # the bytes up to the point move up one
        moved = (w[k] << _U64(8)) | (w[k - 1] >> _U64(56) if k else _U64(0x30))
        w[k] ^= (w[k] ^ moved) & _BEFORE[k][up]
        bad = (((w[k] + _BYTES[0x06]) & _BYTES[0xF0]) >> _U64(4)) | (w[k] & _BYTES[0xF0])
        good &= bad == _BYTES[0x33]               # eight digits
    for mask, mul, shift in ((0x0F0F_0F0F_0F0F_0F0F, 2561, 8),          # digits to pairs,
                             (0x00FF_00FF_00FF_00FF, 6553601, 16),       # quads, then eights
                             (0x0000_FFFF_0000_FFFF, 42949672960001, 32)):
        w &= _U64(mask)
        w *= _U64(mul)
        w >>= _U64(shift)
    good &= (w[0] < 1000) & (np.abs(exp10) <= 27)  # below 10**19; 10**27 is exact
    w[0] *= _U64(10 ** 16)
    w[0] += w[1] * _U64(10 ** 8) + w[2]
    n = w[0].astype(np.longdouble)
    del w
    n /= _POW10_LD[np.clip(-exp10, 0, 27)]
    big = np.flatnonzero(exp10 > 0)
    n[big] *= _POW10_LD[np.minimum(exp10[big], 27)]
    low = np.ndarray(n.shape, "<u8", n, strides=(n.itemsize,))
    good &= (low & _U64(0x7FF)) != 0x400
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
    dropped and the four times), ``chunk`` lines at a time, each chunk
    yielded as the uint8 array of its text.

    The bytes are those of ``"%d,%s,%.17g,%.17g,%.17g,%.17g,%s\\n"`` with the
    index, the flow token, the four times and the flag token, but with the
    departure and sojourn left empty on a dropped line. Each field goes into
    a fixed slot of a matrix of uint64 words, with byte 0 where its text is
    shorter, and dropping the 0 bytes leaves the text; no Python object is
    made per packet. Times of another dtype are written as their float64
    values and flags by truth, as ``'%.17g'`` and ``if`` would. One word
    matrix and one mask of its non-zero bytes, made once per call, serve
    every chunk, so the system does not map and fault in fresh pages for
    each chunk.
    """
    size = len(columns[0])
    line_buf = np.empty((min(chunk, size), _LINE_WORDS), np.uint64)
    keep_buf = np.empty(line_buf.size * 8, bool)
    for first in range(0, size, chunk):
        tagged, dropped, *times = (c[first:first + chunk] for c in columns)
        n = len(tagged)
        drop = dropped.astype(bool)
        values = np.empty((n, len(times)))
        for j, column in enumerate(times):
            values[:, j] = column
        values[drop, _BLANK_FROM:] = 1.0    # not written; 1.0 keeps them off the % path
        lines = line_buf[:n]
        lines[:, :_FLOW_AT] = index_words(np.arange(first, first + n)).T
        lines[:, _FLOW_AT:_TIMES_AT] = _FLOW_WORDS[tagged.astype(bool).view(np.uint8)]
        slots = lines[:, _TIMES_AT:_FLAG_AT]
        for j, word in enumerate(float_words(values.ravel())):
            slots[:, j::4] = word.reshape(-1, 4)
        slots[drop, 4 * _BLANK_FROM:] = 0
        slots[:, 0::4] |= np.uint64(ord(","))
        lines[:, _FLAG_AT:] = _FLAG_WORDS[drop.view(np.uint8)]
        text = word_bytes(lines).ravel()
        yield text[np.not_equal(text, 0, out=keep_buf[:text.size])]


def parse_lines(block: bytes, line0: int, tagged, dropped, *times) -> int:
    """Parse whole newline-terminated dump lines, the first of them line
    ``line0`` of the file, into the first rows of slices of their columns,
    one row a line, and return the number of lines; a dropped line's
    departure and sojourn are not written. More lines than rows means that
    the file changed while it was read (its lines were counted first).

    Where ``EXACT_SCALING`` holds the block is read in numpy
    (``_read_fast``); else, or where a check fails there, by ``float()``
    on its ``bytes`` tokens. The columns and errors are the same. Raises
    DomainError, naming the line, on a line without one field per column
    or with a NUL byte, an unknown flow or dropped flag, or a time that is
    not a finite number (a delivered packet needs its departure and
    sojourn; a dropped one's are ignored).
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    m = ends.size
    if m > len(tagged):
        raise DomainError(f"packet trace line {line0}: the file changed while it was read")
    tagged, dropped, times = tagged[:m], dropped[:m], [column[:m] for column in times]
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
    if EXACT_SCALING and _read_fast(block, raw, commas, ends, tagged, dropped, times):
        return m
    # Newlines become field separators, so column k of the block is
    # fields[k::len(_COLUMNS)]; the empty field after the last newline is
    # never read.
    fields = block.replace(b"\n", b",").split(b",")
    step = len(_COLUMNS)
    line_nos = np.arange(line0, line0 + m)
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
    return m


_PAD = np.zeros(24, np.uint8)


#: Each flow token between its two "," (8 to 16 bytes), as its first and
#: its last 8 bytes and the offset of the last.
_FLOW_TESTS = [(*_words([text[:8], text[-8:]])[:, 0], len(text) - 8)
               for text in (b"," + token + b"," for token in _FLOWS)]


def _read_fast(block, raw, commas, ends, tagged, dropped, times) -> bool:
    """Parse the block as ``parse_lines`` does, given its lines of one field
    per column, their ``commas`` (consumed) and ``ends``: the times are read
    by ``parse_decimals``, and by ``float()`` only where it does not certify
    a token. A certified token (at most 19 digits, |q| <= 27) is always
    finite, so only a ``float()`` value is checked. Returns False, having
    written nothing, where a flow, a flag or a time is bad, so that the
    token path names the line."""
    text = np.concatenate([_PAD, raw, _PAD])
    words = unaligned_words(text)
    c = commas.reshape(-1, len(_COLUMNS) - 1)
    c += _PAD.size
    at = c[:, 0]
    background, is_tagged = ((words[at] == head) & (words[at + offset] == tail)
                             for head, tail, offset in _FLOW_TESTS)
    flag = text[c[:, -1] + 1]
    kept, is_dropped = (flag == token[0] for token in _FLAGS)
    if not ((is_tagged | background).all() and (is_dropped | kept).all()
            and (ends + _PAD.size - c[:, -1] == 2).all()):      # a flag of one byte
        return False
    starts, stops = (c[:, 1:-1] + 1).ravel(), c[:, 2:].ravel()
    values, good = parse_decimals(text, starts, stops)
    values, good = values.reshape(-1, len(_TIMES)), good.reshape(-1, len(_TIMES))
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
