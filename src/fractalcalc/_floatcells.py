"""Float CSV cells, vectorised: the bytes of ``format(x, ".17g")``.

Python's ``%.17g`` costs about half a microsecond a cell, since 17 digits
take CPython's dtoa into bignum arithmetic. ``FloatCells`` writes a block
of cells with numpy instead and gives the same bytes: a cell is written
only where its digits are proven, and every other cell is formatted by
Python itself.

For a normal |x| from 1e-99 up to 1e100:

- E = floor(log10 |x|) is a guess; numpy's log10 may round differently
  on each SIMD dispatch level, so nothing below relies on its bits.
- q = |x| * 10**(16 - E) is formed as a double-double p + e with Dekker's
  exact product (Dekker 1971) against a two-double table of powers of
  ten, built here from integers. Its error is below 2**-46, and zero
  where 10**(16 - E) is a double (-6 <= E <= 16).
- The digits are D = round(q), an integer since p >= 10**16 > 2**53. The
  rounding is proven where q is exact, a tie going to the even D as in
  Python, and elsewhere where the fraction lies more than 2**-30 from 1/2.
  D must lie in [10**16, 10**17) for E to be right, and at D = 10**16,
  q >= 10**16 must be proven too.
- The 17 digits come out of D as one digit and two words of eight
  digits, one byte a digit (SWAR: divisions by 100 and 10 in every lane
  of a word at once). The cell is laid out by the ``%g`` rules: fixed
  for -4 <= E < 17, without trailing fractional zeros or a bare point;
  otherwise d.ddde±XX.

Zeros, infinities, nans, subnormals, cells outside the table, inexact
cells near a half and cells whose E was misjudged are left to ``format``;
so is a carry to D = 10**17, which only a double just below a power of
ten that is not one can give. A cell takes four little-endian words, 32
bytes; its unused bytes are NUL and are dropped when the rows are joined.
"""

import numpy as np

U64 = np.uint64

#: Decimal exponents with a power of ten in the table; every exponent the
#: kernel prints has two digits.
_E_MIN, _E_MAX = -99, 99

#: Bytes of a cell: four words, the last byte free for the separator.
CELL_BYTES = 32

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for doubles
_ASCII_ZEROS = U64(0x3030303030303030)


def _pow10(k):
    """10**k as (hi, lo), hi the double nearest 10**k and lo the double
    nearest the rest, by exact integer arithmetic."""
    if k >= 0:
        exact = 10 ** k
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10 ** -k
    hi = 1 / den
    num, scale = hi.as_integer_ratio()
    return hi, (scale - num * den) / (scale * den)


def _scale_row(e):
    """10**(16 - e) as (hi, hi's high half, hi's low half, lo)."""
    hi, lo = _pow10(16 - e)
    c = _SPLIT * hi
    high = c - (c - hi)
    return hi, high, hi - high, lo


#: Rows of the scale table, indexed by E - _E_MIN.
_HI, _HI_HIGH, _HI_LOW, _LO = np.array(
    [_scale_row(e) for e in range(_E_MIN, _E_MAX + 1)]).T.copy()


def _layout(e):
    """At exponent e: the "0." prefix and its zeros as a word (bytes 1-5),
    the exponent "e±XX" as a word (bytes 1-4), the digits always shown,
    and the byte of the 16 trailing digits before which the point goes
    (17: nowhere)."""
    if -4 <= e < 0:
        prefix = ("0." + "0" * (-e - 1)).encode()
        return int.from_bytes(prefix, "little") << 8, 0, 1, 17
    if 0 <= e < 17:
        return 0, 0, e + 1, e
    return 0, int.from_bytes(b"e%+03d" % e, "little") << 8, 1, 0


_by_e = list(zip(*(_layout(e) for e in range(_E_MIN, _E_MAX + 1))))
_PREFIX = np.array(_by_e[0], U64)
_EXPONENT = np.array(_by_e[1], U64)
_LEAST = np.array(_by_e[2], np.int64)
_POINT = np.array(_by_e[3], np.int64)

_FIRST = [(1 << 8 * b) - 1 for b in range(9)]  # masks of the first b bytes


def _first(b):
    return _FIRST[min(max(b, 0), 8)]


def _dot(k, word):
    """The point at byte k of the 17 output bytes, in the given word."""
    return 0x2E << 8 * (k - 8 * word) if 8 * word <= k < min(8 * word + 8, 17) else 0


#: By point byte k: the bytes of each digit word before it, and the point.
_BEFORE1, _BEFORE2, _DOT1, _DOT2, _DOT3 = np.array(
    [[_first(k), _first(k - 8), _dot(k, 0), _dot(k, 1), _dot(k, 2)] for k in range(18)],
    U64).T.copy()
#: By digits shown s: the bytes of each digit word that are shown.
_SHOWN1, _SHOWN2 = np.array([[_first(s - 1), _first(s - 9)] for s in range(18)],
                            U64).T.copy()


def _digits8(v, out, tmp):
    """out = the eight decimal digits of each v < 10**8, one per byte, the
    most significant first; v and tmp are overwritten."""
    np.floor_divide(v, U64(10000), out=out)
    np.multiply(out, U64(10000), out=tmp)
    np.subtract(v, tmp, out=tmp)
    tmp <<= U64(32)
    out |= tmp  # two 32-bit lanes of four digits
    np.multiply(out, U64(10486), out=tmp)
    tmp >>= U64(20)
    tmp &= U64(0x0000007F0000007F)  # lane // 100
    np.multiply(tmp, U64(100), out=v)
    out -= v
    out <<= U64(16)
    out += tmp  # four 16-bit lanes of two digits
    np.multiply(out, U64(103), out=tmp)
    tmp >>= U64(10)
    tmp &= U64(0x000F000F000F000F)  # lane // 10
    np.multiply(tmp, U64(10), out=v)
    out -= v
    out <<= U64(8)
    out += tmp  # eight bytes of one digit


def _top_byte(w, out, tmp):
    """out = 128 + the index of the last nonzero byte of each w, or 0 where w
    is 0: the exponent of float(w) locates its top bit. A byte of w is at
    most 9, so no rounding of float(w) reaches the next power of two."""
    np.copyto(tmp, w, casting="unsafe")
    np.right_shift(tmp.view(np.int64), 52, out=out)
    out += 1
    out >>= 3


class FloatCells:
    """Formats float64 cells, up to ``rows`` at a time, into rows of 32
    bytes. The work rows are allocated once, each one block of float64 at
    most (64 KiB, so glibc's heap serves them): a loop over blocks writes
    into warm memory and faults in no fresh pages."""

    def __init__(self, rows):
        self._f = [np.empty(rows) for _ in range(7)]
        self._i = [np.empty(rows, np.int64) for _ in range(4)]
        self._b = [np.empty(rows, bool) for _ in range(3)]

    def write(self, x, cells):
        """Write the text of each float64 in ``x`` into the first 31 bytes of
        its row of ``cells``, a (len(x), 32) uint8 array, NUL-padded; the
        last byte is left to the caller. Returns how many cells Python
        formatted."""
        bad = np.flatnonzero(self._kernel(x, cells.view("<u8")))
        if len(bad):
            texts = [format(v, ".17g").encode() for v in x[bad].tolist()]
            cells[bad, :CELL_BYTES - 1] = np.array(texts, f"S{CELL_BYTES - 1}").view(
                np.uint8).reshape(len(bad), CELL_BYTES - 1)
        return len(bad)

    def _kernel(self, x, words):
        """Write the four words of each cell of ``x``; returns the mask of
        cells whose words are not proven."""
        m = len(x)
        a, t, hi, lo, p, e, r = (row[:m] for row in self._f)
        i, d, s, k = (row[:m] for row in self._i)
        bad, b1, b2 = (row[:m] for row in self._b)

        # |x|, set to 1 where the table holds no power of ten for it
        np.abs(x, out=a)
        np.greater_equal(a, 1e-99, out=bad)
        np.less(a, 1e100, out=b1)
        bad &= b1
        np.logical_not(bad, out=bad)
        np.copyto(a, 1.0, where=bad)
        # i = E - _E_MIN, E guessed from log10
        np.log10(a, out=t)
        np.floor(t, out=t)
        np.copyto(i, t, casting="unsafe")
        np.clip(i, _E_MIN, _E_MAX, out=i)
        i -= _E_MIN

        # q = a * 10**(16 - E) = p + e: Dekker's product against the
        # table's (hi, lo), with a and hi split into halves of 26 bits
        np.multiply(a, _SPLIT, out=hi)
        np.subtract(hi, a, out=lo)
        hi -= lo
        np.subtract(a, hi, out=lo)
        _HI.take(i, out=t, mode="clip")
        np.multiply(a, t, out=p)
        _HI_HIGH.take(i, out=t, mode="clip")
        np.multiply(hi, t, out=e)
        e -= p
        t *= lo
        _HI_LOW.take(i, out=r, mode="clip")
        hi *= r
        e += hi
        e += t
        lo *= r
        e += lo  # the exact a * hi - p
        _LO.take(i, out=t, mode="clip")
        np.multiply(a, t, out=hi)
        e += hi

        # d = round(q), and e its fraction; clipping p keeps d in int64
        # where E was misjudged (d then falls outside [10**16, 10**17])
        np.rint(e, out=r)
        e -= r
        np.clip(p, 1e15, 1e18, out=p)
        np.copyto(d, p, casting="unsafe")
        np.copyto(s, r, casting="unsafe")
        d += s
        # where lo = 0, q = p + e exactly, and rint breaks a tie to an even
        # d, since p >= 2**53 is even; elsewhere (b2) a fraction within
        # 2**-30 of 1/2 is not proven
        np.not_equal(t, 0.0, out=b2)
        np.abs(e, out=hi)
        np.greater(hi, 0.5 - 2.0 ** -30, out=b1)
        b1 &= b2
        bad |= b1
        np.less(d, 10 ** 16, out=b1)
        bad |= b1
        np.greater_equal(d, 10 ** 17, out=b1)
        bad |= b1
        # d = 10**16 with q below 10**16 means E is one too high: q must
        # be proven >= 10**16, exactly where lo = 0 and by 2**-30 elsewhere
        np.equal(d, 10 ** 16, out=b1)
        np.multiply(b2, 2.0 ** -30, out=hi)
        np.less(e, hi, out=b2)
        b1 &= b2
        bad |= b1

        # the digits: d0, then w1 and w2 of eight, one per byte, in the
        # float rows, which are free from here on but for hi
        u0, u1, u2, u3, u4, u5 = (row.view(U64) for row in (a, t, lo, p, e, r))
        du = d.view(U64)
        np.floor_divide(du, U64(10 ** 16), out=u0)
        np.multiply(u0, U64(10 ** 16), out=u1)
        du -= u1
        np.floor_divide(du, U64(10 ** 8), out=u1)
        np.multiply(u1, U64(10 ** 8), out=u2)
        np.subtract(du, u2, out=u2)
        w1, w2 = u3, u1
        _digits8(u1, w1, u4)
        _digits8(u2, w2, u4)

        # s = digits shown: through the last nonzero one, and at least
        # the integer part; the point goes at byte k, if any digit follows
        _top_byte(w1, s, hi)
        s += 2 - 128
        _top_byte(w2, k, hi)
        k += 10 - 128
        np.maximum(s, k, out=s)
        _LEAST.take(i, out=k, mode="clip")
        np.maximum(s, k, out=s)
        np.less_equal(s, k, out=b1)
        _POINT.take(i, out=k, mode="clip")
        np.copyto(k, 17, where=b1)
        w1 += _ASCII_ZEROS
        _SHOWN1.take(s, out=u2, mode="clip")
        w1 &= u2
        w2 += _ASCII_ZEROS
        _SHOWN2.take(s, out=u2, mode="clip")
        w2 &= u2

        # words 1-3: the 16 digit bytes with the point inserted at byte k,
        # (bytes before k) | point | (bytes from k) << 8, and the exponent
        _BEFORE1.take(k, out=u2, mode="clip")
        u2 &= w1
        w1 ^= u2
        _BEFORE2.take(k, out=u4, mode="clip")
        u4 &= w2
        w2 ^= u4
        np.right_shift(w1, U64(56), out=u5)
        u4 |= u5
        w1 <<= U64(8)
        u2 |= w1
        _DOT1.take(k, out=w1, mode="clip")
        np.bitwise_or(u2, w1, out=words[:, 1])
        np.left_shift(w2, U64(8), out=u5)
        u4 |= u5
        _DOT2.take(k, out=u5, mode="clip")
        np.bitwise_or(u4, u5, out=words[:, 2])
        w2 >>= U64(56)
        _DOT3.take(k, out=u5, mode="clip")
        w2 |= u5
        _EXPONENT.take(i, out=u5, mode="clip")
        np.bitwise_or(w2, u5, out=words[:, 3])

        # word 0: the sign, "0." and its zeros, and the first digit
        np.signbit(x, out=b1)
        np.multiply(b1, U64(ord("-")), out=u2)
        _PREFIX.take(i, out=u5, mode="clip")
        u2 |= u5
        u0 += U64(ord("0"))
        u0 <<= U64(48)
        np.bitwise_or(u2, u0, out=words[:, 0])
        return bad
