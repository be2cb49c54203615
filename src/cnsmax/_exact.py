"""Exact integer arithmetic for extended-precision evaluation; its surface
is `mantissas`, `fixed_point`, `solve` and `rounded_product`.

Doubles reach Python integers one way: their exact mantissa tuples
(`mantissas`), scaled to a chosen exponent by `fixed_point`.  `solve` is a
fixed-point Gaussian elimination with partial pivoting on the mantissas of
a complex matrix and right-hand side, with guard bits for the pivot decay.
`rounded_product` applies a fixed complex integer matrix R to blocks of
integer columns as exact sums of integer mantissa products: the real form
[[Re R, -Im R], [Im R, Re R]] is split once into limbs as wide as its
column count allows (`_limb_bits`), held in float64 and multiplied by BLAS
with every partial sum an integer below 2^52, so exact in any summation
order, then carried in int64 (`_limb_sums`) in one buffer that every block
reuses.  Each sum is rounded once at the working precision and then to
double, as mp.fdot rounds, straight from its limbs (`_round_limb_sums`):
the 64 bits below its leading bit decide the double unless they sit next
to a tie, and only those few sums become Python integers that mpmath
rounds.
"""

from __future__ import annotations

import numpy as np
from mpmath import libmp

from .errors import IllConditioned

SOLVE_GUARD_BITS = 138        # fixed-point bits of solve beyond prec


def fixed_point(parts, lowest: int) -> np.ndarray:
    """Integers n with n 2^lowest equal to the mpf tuples `parts`, as an
    object array: exact for a tuple whose exponent is at least `lowest`,
    truncated toward zero below."""
    ints = []
    for sign, man, exp, _ in parts:
        n = man << (exp - lowest) if exp >= lowest else man >> (lowest - exp)
        ints.append(-n if sign else n)
    return np.array(ints, dtype=object)


def mantissas(z) -> list:
    """The (sign, man, exp, bc) tuples of the real and imaginary parts of a
    complex array of finite doubles, interleaved, as mp.mpc(v)._mpc_ gives
    them: odd mantissas, and zero as (0, 0, 0, 0).  This is the one way a
    double becomes an integer; `fixed_point` scales the tuples."""
    v = np.ascontiguousarray(z, dtype=complex).view(np.float64).ravel()
    frac, e = np.frexp(np.abs(v))
    m = np.ldexp(frac, 53).astype(np.int64)       # |v| = m 2^(e - 53), m < 2^53
    nz = m != 0
    tz = np.frexp((m & -m) | ~nz)[1] - 1          # trailing zero bits of m
    cols = (v < 0, m >> tz, np.where(nz, e - 53 + tz, 0), np.where(nz, 53 - tz, 0))
    return list(zip(*(c.astype(np.int64).tolist() for c in cols)))


def solve(m_parts, c, prec: int):
    """x = M^{-1} c for complex doubles M (as its `mantissas`) and c, by
    Gaussian elimination with partial pivoting on Python integers.

    M and c are each scaled by a power of two to largest entry below 1 and
    held in fixed point at 2^-F, F = prec + SOLVE_GUARD_BITS: exact except
    for bits below 2^-F of an entry.  Every product and quotient is
    truncated at 2^-F, so the guard bits absorb the pivot decay, about
    log2 cond(M).  Raises IllConditioned when a pivot leaves fewer than
    prec bits above 2^-F.  Returns integer object arrays re, im and an
    exponent e with x = (re + i im) 2^e.
    """
    F = prec + SOLVE_GUARD_BITS
    K = len(c)
    e_M = 1 + max((e + bc for _, man, e, bc in m_parts if man), default=0)
    e_c = int(np.frexp(np.abs(c).max())[1])
    ints = np.empty((K, K + 1, 2), dtype=object)
    ints[:, :K] = fixed_point(m_parts, e_M - F).reshape(K, K, 2)
    ints[:, K] = fixed_point(mantissas(c), e_c - F).reshape(K, 2)
    re, im = ints[..., 0], ints[..., 1]
    for k in range(K):
        piv = k + int(np.argmax(re[k:, k] ** 2 + im[k:, k] ** 2))
        re[[k, piv]] = re[[piv, k]]
        im[[k, piv]] = im[[piv, k]]
        pr, pi = re[k, k], im[k, k]
        bits = max(abs(pr), abs(pi)).bit_length()
        if bits < prec:
            raise IllConditioned("feedback Gramian pivot decay",
                                 2.0 ** (F - bits), 2.0 ** SOLVE_GUARD_BITS)
        den = pr * pr + pi * pi
        ar, ai = re[k + 1:, k], im[k + 1:, k]
        lr = ((ar * pr + ai * pi) << F) // den
        li = ((ai * pr - ar * pi) << F) // den
        ur, ui = re[k, k + 1:], im[k, k + 1:]
        # (lr + i li)(ur + i ui) from three products, exactly
        rr, ii = np.outer(lr, ur), np.outer(li, ui)
        re[k + 1:, k + 1:] -= (rr - ii) >> F
        im[k + 1:, k + 1:] -= (np.outer(lr + li, ur + ui) - rr - ii) >> F
    xr = np.zeros(K, dtype=object)
    xi = np.zeros(K, dtype=object)
    for k in range(K - 1, -1, -1):
        # numerator at 2^-2F, times conj(pivot) over |pivot|^2: x at 2^-F
        sr = (re[k, K] << F) - re[k, k + 1:K] @ xr[k + 1:] + im[k, k + 1:K] @ xi[k + 1:]
        si = (im[k, K] << F) - re[k, k + 1:K] @ xi[k + 1:] - im[k, k + 1:K] @ xr[k + 1:]
        pr, pi = re[k, k], im[k, k]
        den = pr * pr + pi * pi
        xr[k] = (sr * pr + si * pi) // den
        xi[k] = (si * pr - sr * pi) // den
    return xr, xi, e_c - e_M - F


def rounded_product(r_re, r_im, prec: int):
    """The function of a block of integer columns y = y_re + i y_im that
    returns the complex rows of R y 2^exps (one exponent per column) for
    R = r_re + i r_im, each entry the exact sum rounded once at prec bits
    and then to double.  R's real form is split into limbs once, here."""
    rows, cols = r_re.shape
    bits = _limb_bits(2 * cols)
    a_limbs = _limbs(np.block([[r_re, -r_im], [r_im, r_re]]), bits)
    buf = np.empty(0, dtype=np.int64)   # every block's accumulator, reused

    def product(y_re, y_im, exps) -> np.ndarray:
        nonlocal buf
        y_limbs = _limbs(np.concatenate([y_re, y_im]), bits)
        n = _sum_limbs(len(a_limbs), len(y_limbs), 2 * cols, bits)
        size = n * 2 * rows * y_limbs.shape[-1]
        if buf.size < size:
            buf = np.empty(size, dtype=np.int64)
        vals = _round_limb_sums(_limb_sums(a_limbs, y_limbs, bits, buf), bits, exps, prec)
        # parts apart: re + 1j*im turns -0.0 into 0.0 and +-inf into nan
        out = np.empty((rows, vals.shape[1]), dtype=complex)
        out.real, out.imag = vals[:rows], vals[rows:]
        return out

    return product


def _limb_bits(cols: int) -> int:
    """The widest limb whose float64 products sum exactly over cols
    columns: limbs below 2^L make every partial sum an integer below
    cols 2^(2L) <= 2^52 for L = (52 - cols.bit_length()) // 2, exact in
    any summation order.  ValueError when no width fits."""
    bits = (52 - cols.bit_length()) // 2
    if bits < 1:
        raise ValueError(f"no limb width is exact in float64 over {cols} columns")
    return bits


def _limbs(ints, bits: int) -> np.ndarray:
    """Signed `bits`-bit limbs of an integer array, as float64 of shape
    (n, *ints.shape) with ints = sum_k limbs[k] 2^(k bits) exactly.

    n is the fewest limbs with every |ints| < 2^(n bits - 1).  The limbs
    are the bits-wide fields of each entry's two's complement, cut out of
    its little-endian 64-bit words: the n - 1 low ones in [0, 2^bits), the
    top one signed, in [-2^(bits-1), 2^(bits-1)).
    """
    flat = np.asarray(ints, dtype=object).ravel().tolist()
    n = max(map(abs, flat), default=0).bit_length() // bits + 1
    width = -(-n * bits // 64)
    buf = b"".join([v.to_bytes(8 * width, "little", signed=True) for v in flat])
    words = np.frombuffer(buf, dtype="<u8").reshape(len(flat), width).T.copy()
    mask = np.uint64((1 << bits) - 1)
    limbs = np.empty((n, len(flat)))
    for k in range(n):
        i, s = divmod(k * bits, 64)
        field = words[i] >> np.uint64(s)
        if s + bits > 64:
            field |= words[i + 1] << np.uint64(64 - s)
        limbs[k] = field & mask
    top = limbs[-1]
    top[top >= 2.0 ** (bits - 1)] -= 2.0 ** bits
    return limbs.reshape(n, *np.shape(ints))


def _carry(acc, bits: int) -> None:
    """Normalize int64 limbs in place: each limb but the last into
    [0, 2^bits), its carry added to the next."""
    for k in range(len(acc) - 1):
        carry = acc[k] >> bits
        acc[k] -= carry << bits
        acc[k + 1] += carry


def _sum_limbs(n_a: int, n_y: int, cols: int, bits: int) -> int:
    """The signed limbs that hold a sum of cols products of n_a-limb and
    n_y-limb integers: it is below cols 2^((n_a + n_y) bits - 2)."""
    return n_a + n_y + -(-(cols.bit_length() - 1) // bits)


def _limb_sums(a_limbs, y_limbs, bits: int, buf) -> np.ndarray:
    """The entries of a @ y from `_limbs(a, bits)` and `_limbs(y, bits)`,
    as normalized int64 limbs acc of shape (n, rows, B), n = `_sum_limbs`:
    each entry is sum_k acc[k] 2^(k bits), every limb but the top one in
    [0, 2^bits) and the top one carrying the sign.  acc is the leading
    n rows B entries of the 1-D int64 array buf, zero-filled here, so one
    buffer serves every block of a product.

    The limbs of a, stacked, times each limb of y is one BLAS product,
    exact in float64, and is added at its limb weight into int64 sums in
    integer arithmetic (a float64 sum of several products can pass 2^53).
    ValueError unless `_limb_bits` allows `bits` over a's columns, or when
    buf is too short.
    """
    n_a, rows, cols = a_limbs.shape
    n_y, _, B = y_limbs.shape
    if bits > _limb_bits(cols):
        raise ValueError(f"{bits}-bit limbs over {cols} columns are not exact in float64")
    n = _sum_limbs(n_a, n_y, cols, bits)
    if buf.size < n * rows * B:
        raise ValueError(f"an accumulator of {n * rows * B} limbs needs a longer buffer")
    acc = buf[:n * rows * B].reshape(n, rows, B)
    acc.fill(0)
    a = a_limbs.reshape(n_a * rows, cols)
    for j in range(n_y):
        np.add(acc[j:j + n_a], (a @ y_limbs[j]).reshape(n_a, rows, B),
               out=acc[j:j + n_a], dtype=np.int64, casting="unsafe")
    _carry(acc, bits)
    return acc


def _round_limb_sums(acc, bits: int, exps, prec: int) -> np.ndarray:
    """v 2^exps for the entries v = sum_k acc[k] 2^(k bits) of a
    `_limb_sums` accumulator, rounded half-even to prec bits and then to
    double, as mpmath's from_man_exp(v, exps, prec, "n") and
    to_float(rnd="n") round them (exps broadcasts against acc.shape[1:]).
    acc is overwritten.

    |v| is read as the 64-bit window w below its leading bit,
    |v| = (w + f) 2^(len(v) - 64) with 0 <= f < 1, and w is rounded half
    even to 53 bits.  Rounding v at prec >= 64 bits first moves it by at
    most half a unit of w's last bit, so the double is the same unless the
    11 bits of w that 53 bits discard read 0x3FF or 0x400; only those
    entries are rebuilt as integers and rounded by mpmath.  Overflow gives
    +-inf.  ValueError unless prec >= 64.
    """
    if prec < 64:
        raise ValueError("prec must be at least 64 bits")
    sign = np.where(acc[-1] < 0, -1, 1)
    acc *= sign
    _carry(acc, bits)                      # the limbs of |v|
    lead = len(acc) - 1 - np.argmax(acc[::-1] != 0, axis=0)
    # the leading limb and the ceil(63 / bits) below it, which hold the 63
    # bits after its top bit; zero below limb 0
    ks = np.arange(1 - (-63 // bits))[:, None, None]
    idx = lead - ks
    limbs = np.take_along_axis(acc, np.maximum(idx, 0), 0) * (idx >= 0)
    lead_bits = np.frexp(limbs[0].astype(np.float64))[1]   # 0 for v = 0
    pos = 64 - lead_bits - ks * bits
    w = np.bitwise_or.reduce((limbs.astype(np.uint64) << np.clip(pos, 0, 63).astype(np.uint64))
                             >> np.maximum(-pos, 0).astype(np.uint64), axis=0)
    tail = w & np.uint64(0x7FF)
    man = ((w >> np.uint64(11)) + (tail > 0x400)).astype(np.float64)
    with np.errstate(over="ignore"):
        out = np.ldexp(sign * man, exps + lead * bits + lead_bits - 53)
    near = np.nonzero((tail == 0x3FF) | (tail == 0x400))
    if near[0].size:
        ints = [sg * sum(c << (k * bits) for k, c in enumerate(col))
                for sg, col in zip(sign[near].tolist(), acc[(slice(None), *near)].T.tolist())]
        # rnd="n": to_float rounds down by default
        out[near] = [libmp.to_float(libmp.from_man_exp(m, e, prec, "n"), rnd="n")
                     for m, e in zip(ints, np.broadcast_to(exps, out.shape)[near].tolist())]
    return out
