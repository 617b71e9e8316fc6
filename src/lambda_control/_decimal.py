"""Decimal text of float arrays from numpy-computed digits.

One writer serves two formats: ``_g17_cells`` writes what
``format(v, ".17g")`` writes (``Trajectory.write_csv``) and ``_repr_cells``
what ``repr(v)`` writes (the JSONL of ``cli verify``).  Each format has its
digit kernel, ``_g17_digits`` (17 correctly rounded digits) or
``_shortest_digits`` (the fewest that read back), and ``_cells`` turns
either's digits into a '%'-template per value and the int arguments that
fill them, so a caller writes a whole block with one '%'.  The formats
differ only in what ``_cells`` is given: the kernel, the decimal exponent
where exponential notation starts, a template table from ``_templates``
and the function that writes the values the kernel does not decide.

The kernels scale each |v| to 17 significant digits as a double-double, an
exact Dekker product with a table of powers of ten.  Values a kernel
cannot decide with a wide margin go to Python's formatter one at a time.
"""

from __future__ import annotations

import math

import numpy as np

# Magnitudes whose digits numpy computes; the scaled products and the
# splits below stay normal and finite inside this range.
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
# Values whose scaled fraction lies this close to a rounding boundary go
# to Python's formatter: the double-double product is within ~1e-14 of a
# unit in the 17th digit, so every other value rounds as the exact one
# does.
_TIE_MARGIN = 1e-6
# Exponents k of the 10**k table: 16 - X for the decimal exponents X of
# _FAST_MIN..._FAST_MAX, and one more either way for a first guess of X
# that is off by one.
_P10_MIN, _P10_MAX = -275, 308
# 10**0 ... 10**17; C < 10**17 fits an int64.
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# The widest fraction of a fixed-notation value (16 - X at X = -4).
_MAX_FRAC = 20
# Leading digits 0..9 of a template; lead 10 writes the integer part,
# 10 or more, as '%d'.
_LEADS = 11


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
    """Each a in [_FAST_MIN, _FAST_MAX] as a double-double (p, r) =
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
    [_FAST_MIN, _FAST_MAX]: ints C in [10**16, 10**17), the number j of
    C's trailing zeros and decimal exponents X with a = C * 10**(X - 16)
    after round-half-even, and a mask of the values within _TIE_MARGIN of
    a tie, whose C is not trusted.
    """
    p, r, X = _normalized(a)
    nearest = np.rint(r)
    tie = np.abs(r - nearest) > 0.5 - _TIE_MARGIN
    C = p.astype(np.int64)
    C += nearest.astype(np.int64)
    carry = np.flatnonzero(C == _POW10_INT[17])
    C[carry] = _POW10_INT[16]
    X[carry] += 1
    j = np.zeros(C.shape, dtype=np.int8)
    some = np.flatnonzero(C % 10 == 0)
    j[some] = (C[some, None] % _POW10_INT[1:17] == 0).sum(axis=1)
    return C, j, X, tie


# Exponent bits of a double: a with them alone is its leading power of two.
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)


def _shortest_digits(a: np.ndarray):
    """repr's digits of each a in [_FAST_MIN, _FAST_MAX]: ints C in
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

    Not trusted: values with an interval end within _TIE_MARGIN of an
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
    slow = (np.abs(low - below - 0.5) > 0.5 - _TIE_MARGIN) \
        | (np.abs(above - high - 0.5) > 0.5 - _TIE_MARGIN)
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
    tie = np.abs(r - nearest) > 0.5 - _TIE_MARGIN
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
    tie = np.where(tens, np.abs(off - 5.0) < _TIE_MARGIN, tie)
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


def _templates(integral: str, separator: str) -> np.ndarray:
    """'%'-templates of a value's text, flat by
    ((notation * 2 + sign) * _LEADS + lead) * (_MAX_FRAC + 2) + fraction
    code, each ending in ``separator``.

    Lead 0..9 is written as that digit and lead 10 as '%d' of the integer
    part.  Fraction code 0 writes no fraction, and ``integral`` in fixed
    notation (0); code c > 0 writes '.', then c - 1 zeros and '%d' of the
    kept fraction digits, so no int is zero-padded ('%0Nd' takes twice as
    long).  Exponential notation (1) ends in 'e%+03d' of the decimal
    exponent ('e-05', 'e+16', 'e+290').  Lead 0 without a fraction in
    fixed notation is a signed zero.  Read-only, as every call shares it.
    """
    table = np.array(
        [sign + ("%d" if lead == _LEADS - 1 else str(lead))
         + ("." + "0" * (code - 1) + "%d" if code else
            "" if exponential else integral)
         + ("e%+03d" if exponential else "") + separator
         for exponential in (False, True) for sign in ("", "-")
         for lead in range(_LEADS) for code in range(_MAX_FRAC + 2)],
        dtype=object)
    table.flags.writeable = False
    return table


_G17_TEMPLATES = _templates("", ",")
_REPR_TEMPLATES = _templates(".0", "")


def _cells(values: np.ndarray, digits, exponential_from: int,
           templates: np.ndarray, fallback):
    """Each value of ``values`` as a '%'-template of ``templates`` (object
    array of ``values.shape``) and the int arguments of all the templates
    in C order: a value's integer part if it is 10 or more, its kept
    fraction and its exponent, each where its template has one.

    ``digits`` (``_g17_digits`` or ``_shortest_digits``) gives C, j, X and
    the untrusted mask.  Values with -4 <= X < ``exponential_from`` are
    written in fixed notation, the others in exponential.  Signed zeros
    come from the table; non-finite values, magnitudes outside
    [_FAST_MIN, _FAST_MAX] and untrusted values are written by
    ``fallback`` one at a time.
    """
    v = values.ravel()
    a = np.abs(v)
    # NaN fails both bounds.
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    # 1.5 is not next to a power of ten, so _normalized scales it once.
    C, j, X, slow = digits(np.where(fast, a, 1.5))
    # C holds 16 - X digits after the point in fixed notation, 16 in
    # exponential, and j of them are zeros; width is the number kept.  An
    # integral value's whole part takes every digit.
    fixed = (X + 4).view(np.uint64) < exponential_from + 4
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
    lead = np.minimum(whole, _LEADS - 1)
    index = np.where(fixed, 0, 2 * _LEADS)
    index += np.signbit(v) * _LEADS
    index += lead
    index *= _MAX_FRAC + 2
    index += code
    has_whole = fixed & (lead == _LEADS - 1)
    has_exponent = ~fixed

    slow = np.flatnonzero(slow | ~fast)
    if slow.size:
        # The signed zero of fixed notation, lead 0 and code 0.
        index[slow] = np.signbit(v[slow]) * (_LEADS * (_MAX_FRAC + 2))
        has_whole[slow] = has_frac[slow] = has_exponent[slow] = False
    cells = templates[index]
    slow = slow[v[slow] != 0.0]
    cells[slow] = [fallback(x) for x in v[slow].tolist()]
    if has_whole.any() or has_exponent.any():
        # np.compress is about twice as fast as a boolean index here.
        args = np.compress(
            np.stack((has_whole, has_frac, has_exponent), axis=1).ravel(),
            np.stack((whole, frac, X), axis=1))
    else:
        args = frac[has_frac]
    return cells.reshape(values.shape), args.tolist()


def _g17_cells(values: np.ndarray):
    """Write each value of ``values`` as ``format(v, ".17g") + ","``: a
    '%'-template per value and the int arguments of all the templates
    (``_cells`` on ``_g17_digits``, exponential notation from X = 17)."""
    return _cells(values, _g17_digits, 17, _G17_TEMPLATES,
                  lambda x: format(x, ".17g") + ",")


def _repr_cells(values: np.ndarray):
    """Write each value of ``values`` as ``repr(v)``: a '%'-template per
    value and the int arguments of all the templates (``_cells`` on
    ``_shortest_digits``, exponential notation from X = 16, '.0' on an
    integral value in fixed notation)."""
    return _cells(values, _shortest_digits, 16, _REPR_TEMPLATES, repr)
