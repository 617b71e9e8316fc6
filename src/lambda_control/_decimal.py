"""Decimal text of float arrays from numpy-computed digits.

Two writers share one digit kernel: ``_g17_cells`` writes what
``format(v, ".17g")`` writes (``Trajectory.write_csv``) and ``_repr_cells``
what ``repr(v)`` writes (the JSONL of ``cli verify``).  Each returns a
'%'-template per value and the int arguments that fill them, so a caller
writes a whole block with one '%'.

The kernel scales each |v| to 17 significant digits as a double-double, an
exact Dekker product with a table of powers of ten.  Values the kernel
cannot decide with a wide margin go to Python's formatter one at a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Magnitudes whose digits numpy computes; the scaled products and the
# splits below stay normal and finite inside this range.
_G17_MIN, _G17_MAX = 1e-290, 1e290
# Values whose scaled fraction lies this close to one half go to Python's
# formatter: the double-double product is within ~1e-14 of a unit in the
# 17th digit, so every other value rounds as the exact one does.
_G17_TIE_MARGIN = 1e-6
# Exponents k of the 10**k table: 16 - X for the decimal exponents X of
# _G17_MIN..._G17_MAX, and one more either way for a first guess of X
# that is off by one.
_P10_MIN, _P10_MAX = -275, 308
# 10**0 ... 10**17; D < 10**17 fits an int64.
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# The widest fraction of a fixed-notation '%.17g' (16 - X at X = -4).
_G17_MAX_FRAC = 20


def _veltkamp_split(x: float) -> tuple[float, float]:
    """x = head + tail, each of at most 26 significant bits (Veltkamp),
    computed on x's mantissa so that 10**308 does not overflow."""
    m, e = math.frexp(x)
    c = 134217729.0 * m
    head = c - (c - m)
    return math.ldexp(head, e), math.ldexp(m - head, e)


def _pow10_table() -> np.ndarray:
    """Rows hi, lo, head, tail by column k - _P10_MIN: 10**k = hi + lo to
    ~2**-106 relative, hi = head + tail its Veltkamp split.

    hi and lo are correctly rounded int/int true divisions (or int to
    float conversions), so no decimal string or Fraction is involved.
    """
    rows = []
    for k in range(_P10_MIN, _P10_MAX + 1):
        if k >= 0:
            exact = 10 ** k
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            scale = 10 ** -k
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        rows.append((hi, lo, *_veltkamp_split(hi)))
    return np.array(rows).T.copy()


_P10 = _pow10_table()


def _scaled(a: np.ndarray, X: np.ndarray):
    """a * 10**(16 - X) as a double-double (p, r): p = fl(a * hi) and the
    exact Dekker product error plus a * lo in r."""
    hi, lo, head, tail = np.take(_P10, (16 - _P10_MIN) - X, axis=1)
    p = a * hi
    c = 134217729.0 * a
    a_head = c - (c - a)
    a_tail = a - a_head
    err = a_tail * tail - (((p - a_head * head) - a_tail * head)
                           - a_head * tail)
    return p, err + a * lo


def _normalized(a: np.ndarray):
    """Each a in [_G17_MIN, _G17_MAX] as a double-double (p, r) =
    a * 10**(16 - X) in [10**16, 10**17), with its decimal exponent X.

    X starts as floor(log10(a)), which is off by at most one next to a
    power of ten; those values are scaled again.  p is an integer (doubles
    in [1e16, 1e17] are), so the fraction of the scaled value is r's.
    """
    X = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, X)
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if edge.size:
        pe, re = p[edge], r[edge]
        step = ((pe > 1e17) | ((pe == 1e17) & (re >= 0.0))).view(np.int8) \
            - ((pe < 1e16) | ((pe == 1e16) & (re < 0.0))).view(np.int8)
        X[edge] += step
        p[edge], r[edge] = _scaled(a[edge], X[edge])
    return p, r, X


def _g17_digits(a: np.ndarray):
    """17 correctly rounded significant digits of each a in
    [_G17_MIN, _G17_MAX]: ints D in [10**16, 10**17) and decimal exponents
    X with a = D * 10**(X - 16) after round-half-even, and a mask of the
    values within _G17_TIE_MARGIN of a tie, whose D is not trusted (None
    when there are none).
    """
    p, r, X = _normalized(a)
    nearest = np.rint(r)
    off = np.abs(r - nearest)
    tie = None
    if off.max(initial=0.0) > 0.5 - _G17_TIE_MARGIN:
        tie = off > 0.5 - _G17_TIE_MARGIN
    D = p.astype(np.int64)
    D += nearest.astype(np.int64)
    carry = np.flatnonzero(D == _POW10_INT[17])
    D[carry] = _POW10_INT[16]
    X[carry] += 1
    return D, X, tie


# '%'-templates of a value's text and separator by (sign, lead, fraction
# code).  Lead 0..9 is written as that digit and lead 10 as '%d' of the
# integer part.  Fraction code 0 writes no fraction; code c > 0 writes '.',
# then c - 1 zeros and '%d' of the kept fraction digits, so no int is
# zero-padded ('%0Nd' takes twice as long).  Exponential notation ends in
# its entry of _G17_EXPONENT, by decimal exponent, before the ','.
_G17_LEADS = 11
_G17_TEMPLATES = np.array(
    [[[sign + ("%d" if lead == 10 else str(lead))
       + ("." + "0" * (code - 1) + "%d" if code else "") + ","
       for code in range(_G17_MAX_FRAC + 2)]
      for lead in range(_G17_LEADS)] for sign in ("", "-")], dtype=object)
_G17_EXP_MIN = -330
_G17_EXPONENT = np.array(
    [f"e{X:+03d}," for X in range(_G17_EXP_MIN, -_G17_EXP_MIN + 1)],
    dtype=object)
_G17_ZERO = np.array(["0,", "-0,"], dtype=object)


def _g17_cells(values: np.ndarray):
    """Write each value of ``values`` as ``format(v, ".17g") + ","``: a
    '%'-template per value (object array of ``values.shape``) and the int
    arguments of all the templates in C order (none, one or two per
    value).

    Digits come from ``_g17_digits``.  Trailing zeros are stripped and the
    leading zeros of the fraction counted arithmetically; the integer part
    (or leading digit) and the kept fraction fill a template chosen by
    sign, lead digit and fraction code.  Zeros are written as '0' or '-0';
    non-finite values, magnitudes outside [_G17_MIN, _G17_MAX] and
    near-ties are written by ``format`` one at a time.
    """
    v = values.ravel()
    a = np.abs(v)
    # NaN fails both bounds.
    all_fast = a.size == 0 or (a.min() >= _G17_MIN and a.max() <= _G17_MAX)
    if not all_fast:
        fast = (a >= _G17_MIN) & (a <= _G17_MAX)
        a = np.where(fast, a, 1.0)
    D, X, tie = _g17_digits(a)
    # Fixed notation: -4 <= X < 17.
    fixed = (X + 4).view(np.uint64) < 21
    # Digits after the point before stripping; 10**17 > D stands in for
    # the larger powers of fixed notation below 1.
    shift = np.where(fixed, 16 - X, 16)
    whole, frac = np.divmod(D, _POW10_INT[np.minimum(shift, 17)])
    # Strip trailing zeros (at most 16) where D has any.
    width = shift
    some = np.flatnonzero(D % 10 == 0)
    if some.size:
        zeros = (D[some, None] % _POW10_INT[1:17] == 0).sum(axis=1)
        np.minimum(zeros, shift[some], out=zeros)
        frac[some] //= _POW10_INT[zeros]
        width = shift.copy()
        width[some] -= zeros
    # Fraction code: 0 without a fraction, else 1 + its leading zeros.
    has_frac = width > 0
    code = np.where(has_frac,
                    width + 1 - np.searchsorted(_POW10_INT, frac, "right"), 0)
    lead = np.minimum(whole, _G17_LEADS - 1)

    cells = _G17_TEMPLATES[np.signbit(v).view(np.int8), lead, code]
    exponential = np.flatnonzero(~fixed)
    if exponential.size:
        cells[exponential] = [
            text[:-1] + suffix for text, suffix in zip(
                cells[exponential].tolist(),
                _G17_EXPONENT[X[exponential] - _G17_EXP_MIN].tolist())]
    take = np.stack((lead == _G17_LEADS - 1, has_frac), axis=1)
    slow = tie
    if not all_fast:
        slow = ~fast if tie is None else ~fast | tie
    if slow is not None:
        slow = np.flatnonzero(slow)
        take[slow] = False
        zero = v[slow] == 0.0
        cells[slow[zero]] = _G17_ZERO[np.signbit(v[slow[zero]]).view(np.int8)]
        slow = slow[~zero]
        cells[slow] = [format(x, ".17g") + "," for x in v[slow].tolist()]
    args = np.stack((whole, frac), axis=1)[take]
    return cells.reshape(values.shape), args.tolist()


# ---------------------------------------------------------------------------
# Shortest round-trip digits: repr (cli verify)
# ---------------------------------------------------------------------------

# Exponent bits of a double: a with them alone is its leading power of two.
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)


@functools.cache
def _repr_templates() -> np.ndarray:
    """'%'-templates of repr's text, built on first use, flat by
    ((notation * 2 + sign) * _G17_LEADS + lead) * (_G17_MAX_FRAC + 2)
    + fraction code: the layout of _G17_TEMPLATES without a separator.
    Fixed notation (0) writes an integral value with '.0'; exponential
    notation (1) ends in 'e%+03d', as repr writes the exponent ('e-05',
    'e+16', 'e+290').  Read-only, as every call shares it.

    Only the fraction is left to '%d' of a value's int argument; a
    template with a whole part of 10 or more (lead 10) or an exponent
    writes it as '%%d' and takes that number, one value at a time, first.
    """
    table = []
    for exponential in (False, True):
        for sign in ("", "-"):
            for lead in range(_G17_LEADS):
                one = lead == 10 or exponential
                for code in range(_G17_MAX_FRAC + 2):
                    frac = "%%d" if one else "%d"
                    table.append(
                        sign + ("%d" if lead == 10 else str(lead))
                        + ("." + "0" * (code - 1) + frac if code else
                           "" if exponential else ".0")
                        + ("e%+03d" if exponential else ""))
    table = np.array(table, dtype=object)
    table.flags.writeable = False
    return table


def _shortest_digits(a: np.ndarray):
    """repr's digits of each a in [_G17_MIN, _G17_MAX]: ints C in
    [10**16, 10**17), the number j of C's trailing zeros that repr drops
    and decimal exponents X with a ~ C * 10**(X - 16), and a mask of the
    values whose digits are not trusted.

    repr writes the fewest significant digits that read back as a, and of
    those the nearest to a (Steele and White, PLDI 1990).  With s = a
    scaled to 17 digits (``_normalized``), the values that read back as a
    fill an interval about s of half-width half an ulp of a, scaled alike
    (a quarter of an ulp below an exact power of two).  If the interval
    holds a multiple of 10**j, 17 - j digits suffice; the largest such j
    gives the fewest digits, and the multiple of 10**j nearest s is C.
    The interval is less than 23 units wide, so for j >= 2 it holds one
    such multiple; j and the candidates for j <= 1 are worked out relative
    to the multiple of 100 at or below its top.

    Not trusted: values with an interval end within _G17_TIE_MARGIN of an
    integer (whether a candidate on an end reads back as a depends on the
    parity of a's mantissa), and values whose two nearest candidates lie
    within the margin of equally far from s.
    """
    p, r, X = _normalized(a)
    # Half an ulp of a, 2**-53 times its leading power of two, scaled.
    two = (a.view(np.uint64) & _EXPONENT_BITS).view(np.float64)
    half = two * _P10[0, (16 - _P10_MIN) - X]
    half *= 2.0 ** -53
    # The interval is [p + below, p + above]; [p + low, p + high] are the
    # integers in it.
    below = r - np.where(two == a, 0.5 * half, half)
    above = r + half
    low, high = np.ceil(below), np.floor(above)
    slow = (np.abs(low - below - 0.5) > 0.5 - _G17_TIE_MARGIN) \
        | (np.abs(above - high - 0.5) > 0.5 - _G17_TIE_MARGIN)
    spread = high - low
    top = p.astype(np.int64)
    top += high.astype(np.int64)
    # m = top % 100; u = s - (top - m), which r may carry below 0.
    m = top % 100
    hundred = m.astype(np.float64)
    shift = hundred - high
    u = r + shift

    # j = 0: the correctly rounded 17 digits; round(s) = p + round(r).
    nearest = np.rint(r)
    tie = np.abs(r - nearest) > 0.5 - _G17_TIE_MARGIN
    pick = nearest + shift
    # j = 1: the nearer of the multiples of 10 below and above s that lies
    # in the interval [hundred - spread, hundred], if either does.
    bottom = hundred - spread
    down = 10.0 * np.floor(0.1 * u)
    off = u - down
    lower = down >= bottom
    upper = down + 10.0 <= hundred
    tens = lower | upper
    up = ((off > 5.0) & upper) | ~lower
    pick = np.where(tens, down + 10.0 * up, pick)
    tie = np.where(tens, np.abs(off - 5.0) < _G17_TIE_MARGIN, tie)
    # j >= 2: the one multiple of 100, top - m.
    hundreds = bottom <= 0.0
    pick = np.where(hundreds, 0.0, pick)
    slow |= tie & ~hundreds
    C = top - m
    C += pick.astype(np.int64)
    j = tens.view(np.int8) + hundreds.view(np.int8)
    # j > 2 by the trailing zeros of the multiple of 100, where it has any.
    some = np.flatnonzero(hundreds)
    q = C[some] // 100
    zero = q % 10 == 0
    j[some[zero]] += (q[zero, None] % _POW10_INT[1:16] == 0).sum(
        axis=1, dtype=np.int8)
    # A multiple of 10**17 is 10**16 at the next exponent.
    carry = np.flatnonzero(j == 17)
    C[carry] = _POW10_INT[16]
    j[carry] = 16
    X[carry] += 1
    return C, j, X, slow


def _repr_cells(values: np.ndarray):
    """Write each value of ``values`` as ``repr(v)``: a '%'-template per
    value (object array of ``values.shape``) and the int arguments of all
    the templates in C order (none or one per value).

    Digits come from ``_shortest_digits``.  The integer part (or leading
    digit) and the kept fraction fill a template chosen by notation, sign,
    lead digit and fraction code, as in ``_g17_cells``.  Zeros, non-finite
    values, magnitudes outside [_G17_MIN, _G17_MAX] and values whose
    digits are not trusted are written by ``repr`` one at a time.
    """
    v = values.ravel()
    a = np.abs(v)
    # NaN fails both bounds.
    all_fast = a.size == 0 or (a.min() >= _G17_MIN and a.max() <= _G17_MAX)
    if not all_fast:
        fast = (a >= _G17_MIN) & (a <= _G17_MAX)
        # 1.5 is not next to a power of ten, so _normalized scales it once.
        a = np.where(fast, a, 1.5)
    C, j, X, slow = _shortest_digits(a)
    # Fixed notation for -4 <= X < 16, like repr.  C holds 16 - X digits
    # after the point in fixed notation, 16 in exponential, and j of them
    # are zeros; width is the number kept.  An integral value's whole
    # part takes every digit.
    fixed = (X + 4).view(np.uint64) < 20
    shift = np.where(fixed, 16 - X, 16)
    whole, frac = np.divmod(C, _POW10_INT[np.minimum(shift, 17)])
    frac //= _POW10_INT[j]
    width = shift - j
    has_frac = width > 0
    # Fraction code: 0 without a fraction, else 1 + its leading zeros;
    # below 1 the fraction holds all 17 - j digits of C after -X - 1 zeros.
    code = np.where(has_frac, -X, 0)
    count = np.flatnonzero(has_frac & ((X >= 0) | ~fixed))
    code[count] = width[count] + 1 - np.searchsorted(_POW10_INT, frac[count],
                                                     "right")
    lead = np.minimum(whole, _G17_LEADS - 1)
    index = np.where(fixed, 0, 2 * _G17_LEADS)
    index += np.signbit(v) * _G17_LEADS
    index += lead
    index *= _G17_MAX_FRAC + 2
    index += code
    cells = _repr_templates()[index]

    one = np.flatnonzero((lead == _G17_LEADS - 1) | ~fixed)
    if one.size:
        cells[one] = [text % number for text, number in zip(
            cells[one].tolist(), np.where(fixed, whole, X)[one].tolist())]
    if not all_fast:
        slow |= ~fast
    slow = np.flatnonzero(slow)
    if slow.size:
        has_frac[slow] = False
        cells[slow] = [repr(x) for x in v[slow].tolist()]
    return cells.reshape(values.shape), frac[has_frac].tolist()
