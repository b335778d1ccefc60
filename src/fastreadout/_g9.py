"""Exact array encoder of '%.9g' text, for the shot files.

``encode(values, out)`` writes the text ``'%.9g' % v`` of every value into
a 32-byte record, padded with NUL bytes, which ``bytes.translate(None,
b"\\0")`` deletes. A record is four little-endian uint64 slots:

    slot 0   the prefix in bytes 0-5: the sign, '0.' and the leading zeros
             (X < 0), or 'nan'; then the first digit, and '.' if the
             decimal point follows it
    slot 1   digits 2-5, each followed by '.' or NUL
    slot 2   digits 6-9, each followed by '.' or NUL
    slot 3   the exponent 'e-05' (X = -5) in bytes 0-3; bytes 4-7 are NUL,
             for the caller's separator

X is the decimal exponent of |v| rounded to 9 significant digits. '%.9g'
prints X in [-4, 8] in positional notation and X = -5 as d.dddddddde-05,
trailing zeros of the fraction stripped in both; a stripped digit is NUL.
The slots come from lookup tables: the 4-digit groups from one table, and
the prefix, the kept digits and the place of the point from tables over
the class (X and sign) and the count of trailing zeros.

Exactness. With e the decade of a = |v|, m = a 10^(8 - e) lies in [1e8,
1e9), and for e in [-6, 8] the power 10^(8 - e) <= 10^14 is exact, so m is
one correctly rounded product, within 6e-8 (half an ulp below 2^30) of the
exact value. rint(m) is then the correctly rounded 9-digit mantissa unless
the exact value lies within 6e-8 of a tie, a half-integer. Values whose m
lies within 1e-6 of a tie go through '%.9g' one by one, as do zeros,
infinities and the values outside 1e-5 <= |v| < 1e9 (X outside [-5, 8]).
NaN has a class of its own.
"""

from __future__ import annotations

import numpy as np

#: bytes per record
WIDTH = 32

#: the first of a record's last four bytes, NUL, left for a separator
SEP = 28

#: m within this distance of a half-integer takes '%.9g'
_TIE = 1e-6

#: classes (X + 5) + 14 (v < 0) for X in [-5, 8], then NaN and '%.9g'
_NAN, _FALLBACK = 28, 29


def _word(text: bytes, at: int = 0) -> int:
    """The uint64 slot holding `text` from byte `at` on, little-endian."""
    return int.from_bytes(text.rjust(at + len(text), b"\0"), "little")


def _class_tables():
    """Per class c and count z of trailing zero digits, at row 9 c + z: slot
    0 but its digit (the prefix, and the point if it follows the first
    digit), the masks of the digits kept in slots 1 and 2, the points
    placed in them, and slot 3. NaN and '%.9g' print no digits (z = 8)."""
    rows = []
    for c in range(30):
        x, sign = c % 14 - 5, b"-" if 14 <= c < _NAN else b""
        lead = b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""
        after = x if x >= 0 else (0 if x == -5 else None)  # point after digit
        for z in range(9):
            if c >= _NAN:
                rows.append((_word(b"nan") if c == _NAN else 0, 0, 0, 0, 0, 0))
                continue
            shown = 9 - z if after is None else max(9 - z, after + 1)
            prefix, points = _word(sign + lead), [0, 0]
            if after is not None and shown > after + 1:
                if after == 0:
                    prefix |= _word(b".", 7)
                else:
                    slot, cell = divmod(after - 1, 4)
                    points[slot] = _word(b".", 2 * cell + 1)
            keep = [_word(b"\xff\0" * min(max(shown - 1 - 4 * slot, 0), 4))
                    for slot in (0, 1)]
            rows.append((prefix, *keep, *points,
                         _word(b"e-05" if x == -5 else b"")))
    return np.array(rows, dtype=np.uint64).T.copy()


_PREFIX, _KEEP1, _KEEP2, _POINT1, _POINT2, _SUFFIX = _class_tables()

#: slot 0's first digit, NUL for 0 (NaN and '%.9g')
_FIRST = np.array([0] + [_word(b"%d" % d, 6) for d in range(1, 10)],
                  dtype=np.uint64)

_G = np.arange(10**4, dtype=np.uint64)
#: slots 1 and 2 by their 4-digit group, each digit followed by NUL
_GROUPS = sum((d + ord("0")) << np.uint64(16 * k) for k, d in
              enumerate((_G // 1000, _G // 100 % 10, _G // 10 % 10, _G % 10)))
#: trailing zero digits of a 4-digit group, 4 for 0
_TRAILING = sum((_G % 10**k == 0).astype(np.intp) for k in range(1, 5))
del _G

#: 10^(8 - e) for e in -6..9; exact but for e = 9
_SCALE = np.array([float(10**(8 - e)) if e <= 8 else 0.1 for e in range(-6, 10)])


def encode(values, out: np.ndarray) -> None:
    """Fill the record out[i] with the NUL-padded text '%.9g' % v of each
    value v = values[i]; out is uint8 of shape values.shape + (WIDTH,),
    contiguous in its last axis."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    table = (a >= 9.99e-6) & (a < 1e9)
    a[~table] = 1.0
    # the decade; where log10 rounds across a power of ten, a lies within a
    # few ulps of it, and m rounds to 1e8 (the right digits) or to 1e9 (the
    # carry below)
    e = np.floor(np.log10(a)).astype(np.intp)
    m = a * _SCALE[e + 6]
    n = np.rint(m)
    near_tie = np.abs(m - n) > 0.5 - _TIE
    up = n >= 1e9  # rounds into the next decade
    n[up] = 1e8
    e += up
    ok = table & ~near_tie & (e >= -5) & (e <= 8)
    c = np.where(ok, e + 5 + 14 * (v < 0), _FALLBACK)
    c[np.isnan(v)] = _NAN
    n[c >= _NAN] = 0.0

    head, rest = np.divmod(n.astype(np.int64), 10**8)
    mid, low = np.divmod(rest, 10**4)
    row = 9 * c
    row += np.where(low == 0, 4 + _TRAILING[mid], _TRAILING[low])
    shape = out.shape[:-1]
    slots = out.view("<u8")
    np.bitwise_or(_PREFIX[row].reshape(shape), _FIRST[head].reshape(shape),
                  out=slots[..., 0])
    for k, group, keep, point in ((1, mid, _KEEP1, _POINT1),
                                  (2, low, _KEEP2, _POINT2)):
        digits = _GROUPS[group]
        digits &= keep[row]
        digits |= point[row]
        slots[..., k] = digits.reshape(shape)
    slots[..., 3] = _SUFFIX[row].reshape(shape)
    special = np.flatnonzero(c == _FALLBACK)
    if len(special):
        at = np.unravel_index(special, shape)
        out[at + (slice(0, SEP),)] = \
            _printf(v[special]).view(np.uint8).reshape(-1, SEP)


def _printf(values: np.ndarray) -> np.ndarray:
    """'%.9g' % v of each value, NUL-padded to SEP bytes."""
    return np.array([b"%.9g" % v for v in values.tolist()], dtype=f"S{SEP}")
