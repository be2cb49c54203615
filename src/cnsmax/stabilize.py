"""Gramian boundary feedback (infinite-horizon, exponentially weighted) and
closed-loop simulation.

The feedback inverts the weighted observability Gramian of the reversed
adjoint flow: with modal observations b_a = B* xi*_a, the matrix
M[b, a] = b_a conj(b_b) / (2 omega + conj(lambda_a) + lambda_b) represents
the Gramian in eigenbasis coordinates, and the gain on a state with
direct-eigenbasis coordinates c is q = -sum_a x_a b_a where M x = c.

M is a Cauchy-type matrix; its conditioning degrades exponentially with the
number of retained modes because the e^{-2 omega t} weight localizes the
observation window far below the controllability waiting time.  The solver
therefore escalates to extended precision when needed; by the Lyapunov
identity (A + omega)M + M(A + omega)* = B B* the exact closed loop is
similar to -A* - 2 omega, which pins its spectral abscissa at
-2 omega + max(-Re lambda) regardless of conditioning.  In coordinates
x = M^{-1} c the loop is pure modal decay x(t) = x0 e^{rt} with
r = -(2 omega + conj lambda), so c(t) = M x(t) and q(t) = -b . x(t) in
closed form (`_exact_loop`).

The same derivation gives a Sylvester identity for modes outside the
truncation: an open-loop mode e with eigenvalue lambda_e, driven through
conj(b_e) by that q, satisfies lambda_e M_e - M_e diag(r) = conj(b_e) b^T
with M_e[e, a] = conj(b_e) b_a / (lambda_e + 2 omega + conj lambda_a), the
Gramian's formula extended to the extra rows.  Hence its exact response is
c_e(t) = M_e x(t) + e^{lambda_e t} (c_e(0) - M_e x0): spillover is the
rectangular Gramian [M; M_e] applied to the same x(t).

`_exact_loop` works in Python integers.  Doubles reach them one way: their
exact mantissa tuples (`_double_parts`, the form mpmath holds its values
in), scaled to a chosen exponent by `_fixed_point`.  x0 = M^{-1} c0 is a
fixed-point Gaussian elimination with partial pivoting on the mantissas of
M and c0 (`_int_solve`), with guard bits for the pivot decay.
x(t_j) = x0 e^{r t_j} on the uniform sample grid is x(t_{j-1}) times the
factor of that step, w e^{r (d_j - d_{j-1})} with w = e^{r s} and d the
grid's rounding residues: the residue part is a short Taylor series, formed
once per mode and distinct step (a linspace grid has few), and each mode
keeps its own int64 exponent (`_mode_exponentials`; rates too large for
either raise NumericalFailure).  Every state, every extra-mode response and
the control q(t) are then rows of one matrix applied to those values,
formed as exact sums of integer mantissa products (`_limb_sums`: limbs as
wide as the column count allows (`_limb_bits`), held in float64 and
multiplied by BLAS with every partial sum an integer below 2^52, so exact
in any summation order, then carried in int64).  Each sum is rounded once
at the working precision and then to double, as mp.fdot rounds, straight
from its limbs (`_round_limb_sums`): the 64 bits below its leading bit
decide the double unless they sit next to a tie, and only those few sums
become Python integers for `_round_to_double`.  mpmath is left with one
exponential per mode and the rows M_e: no mp.lu_solve and nothing per
sample.

The double-precision route (`_integrate`) steps the closed loop with a
second-order exponential integrator, a few NumPy vector operations per
step, and keeps only the recorded states.  The step is linear, so the
dt/2 state of its self-convergence check is one matrix power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from ._gram import boundary_observation_vector, build_branch_table, eigen_coefficients
from .dynamics import SpectralState, TrajectoryRecord
from .errors import (DegenerateWindow, IllConditioned, NumericalFailure,
                     OmegaTooSmall, StepTooLarge, ValidationError)
from .model import FluidParams
from .spectral import TWO_PI, nonzero_modes, spectral_table, z_weights

F64_COND_LIMIT = 1e12
COND_HARD_LIMIT = 1e30
RECORD_STRIDE = 16            # integrator steps per recorded sample
SOLVE_GUARD_BITS = 138        # fixed-point bits of _int_solve beyond prec
SAMPLE_BLOCK = 64             # samples per block of the exact evaluator
# Work bounds of closed_loop_simulate, far above the largest cases in use
# (about 27k integrator steps, 451 exact samples): the double-precision
# route runs T_end / dt steps, about 7 us each (15 s at the bound), and
# takes its dt/2 state from one matrix power; an exact sample costs about
# 0.27 ms at N = 8 (9 s at the bound, one core).
MAX_STEPS = 1 << 21
MAX_SAMPLES = 1 << 15
_bit_length = np.frompyfunc(int.bit_length, 1, 1)


@dataclass
class FeedbackLaw:
    omega: float
    N: int
    kind: str
    lam: np.ndarray               # (K,) retained eigenvalues
    b_vec: np.ndarray             # (K,) boundary observations B* xi*_a
    M: np.ndarray                 # (K, K) Gramian, eigenbasis coordinates
    cond_M: float
    growth: float                 # growth bound max(-Re lambda) of the retained modes
    table: object = field(repr=False)
    precision_dps: int = 0        # 0 -> double precision solves suffice

    @property
    def abscissa(self) -> float:
        """Exact closed-loop spectral abscissa via the Lyapunov similarity."""
        return -2.0 * self.omega + self.growth

    def gain_vector(self) -> np.ndarray:
        """Row vector g with q = g . c (solved against M^T), in double
        precision; a law that needs extended precision has no usable
        double-precision gain, so it raises IllConditioned."""
        if self.precision_dps > 0:
            raise IllConditioned("feedback gain in double precision",
                                 self.cond_M, F64_COND_LIMIT)
        return -np.linalg.solve(self.M.T, self.b_vec)


def _fixed_point(parts, lowest: int) -> np.ndarray:
    """Integers n with n 2^lowest equal to the mpf tuples `parts`, as an
    object array: exact for a tuple whose exponent is at least `lowest`,
    truncated toward zero below."""
    ints = []
    for sign, man, exp, _ in parts:
        n = man << (exp - lowest) if exp >= lowest else man >> (lowest - exp)
        ints.append(-n if sign else n)
    return np.array(ints, dtype=object)


def _double_parts(z) -> list:
    """The (sign, man, exp, bc) tuples of the real and imaginary parts of a
    complex array of finite doubles, interleaved, as mp.mpc(v)._mpc_ gives
    them: odd mantissas, and zero as (0, 0, 0, 0).  This is the one way a
    double becomes an integer; `_fixed_point` scales the tuples."""
    v = np.ascontiguousarray(z, dtype=complex).view(np.float64).ravel()
    frac, e = np.frexp(np.abs(v))
    m = np.ldexp(frac, 53).astype(np.int64)       # |v| = m 2^(e - 53), m < 2^53
    nz = m != 0
    tz = np.frexp((m & -m) | ~nz)[1] - 1          # trailing zero bits of m
    cols = (v < 0, m >> tz, np.where(nz, e - 53 + tz, 0), np.where(nz, 53 - tz, 0))
    return list(zip(*(c.astype(np.int64).tolist() for c in cols)))


def _bits(re, im) -> np.ndarray:
    """Bit length of max(|re|, |im|) for each pair of integer arrays."""
    return _bit_length(np.maximum(np.abs(re), np.abs(im))).astype(np.int64)


def _int_solve(m_parts, c, prec: int):
    """x = M^{-1} c for complex doubles M (as its `_double_parts`) and c, by
    Gaussian elimination with partial pivoting on Python integers.

    M and c are each scaled by a power of two to largest entry below 1 and
    held in fixed point at 2^-F, F = prec + SOLVE_GUARD_BITS: exact except
    for bits below 2^-F of an entry.  Every product and quotient is
    truncated at 2^-F, so the guard bits absorb the pivot decay, about
    log2 cond(M).  Raises IllConditioned when a pivot leaves fewer than
    prec bits above 2^-F.  Returns integer object arrays re, im
    and an exponent e with x = (re + i im) 2^e.
    """
    F = prec + SOLVE_GUARD_BITS
    K = len(c)
    e_M = 1 + max((e + bc for _, man, e, bc in m_parts if man), default=0)
    e_c = int(np.frexp(np.abs(c).max())[1])
    ints = np.empty((K, K + 1, 2), dtype=object)
    ints[:, :K] = _fixed_point(m_parts, e_M - F).reshape(K, K, 2)
    ints[:, K] = _fixed_point(_double_parts(c), e_c - F).reshape(K, 2)
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


def _grid_residues(times):
    """Step s = times[1] and integers d with times[j] = j s + d[j] 2^e
    exactly.  ValueError unless every |d[j] 2^e| <= 1e-12 max|t|: the grid
    must be uniform from 0 up to rounding, as np.linspace rounds it."""
    s = float(times[1]) if len(times) > 1 else 0.0
    n_s, d_s = s.as_integer_ratio()
    ratios = [float(t).as_integer_ratio() for t in times]
    den = max([d_s] + [dt for _, dt in ratios])
    d = np.array([n * (den // dt) - j * n_s * (den // d_s)
                  for j, (n, dt) in enumerate(ratios)], dtype=object)
    if max(abs(v) for v in d) / den > 1e-12 * float(np.abs(times).max()):
        raise ValueError("the closed form needs a uniform grid times[j] = j * times[1]")
    return s, d, 1 - den.bit_length()


def _mode_exponentials(y0, rates, grid, bits: int):
    """y0_a e^{rates_a t_j} on the uniform grid t_j = j s + d_j, yielded in
    blocks of SAMPLE_BLOCK samples as integer arrays re, im and exponents,
    shape (len(rates), SAMPLE_BLOCK); each mode and sample has its own
    exponent.

    y0 = (re, im, exp) integers and grid = `_grid_residues(times)`.
    w_a = e^{rates_a s} is the only mp.exp per mode.  The step from t_{j-1}
    to t_j is s + (d_j - d_{j-1}), and the exact rounding residues d of a
    linspace grid give few distinct differences (11 over 451 samples on
    [0, 40]; one on a grid with no residues), so each mode and distinct
    step gets one factor w_a e^{rates_a (d_j - d_{j-1})}, the residue part
    a short Taylor series (|rates d| ~ 1e-13) and no sample time moves.
    Sample 0 is y0_a e^{rates_a d_0} and sample j is sample j - 1 times
    its step's factor, cut back to `bits` + a few bits after each product.

    Exponents are int64 and the Taylor series is short only for small
    |rates d|, so NumericalFailure is raised when |rates t| over the grid
    reaches 2^60 or |rates d| exceeds 1: the double-precision time grid
    then cannot resolve the rates.
    """
    s, d, d_exp = grid
    r_max = float(np.abs(rates).max())
    if r_max * s * len(d) >= 2.0 ** 60:
        raise NumericalFailure(f"closed-loop exponent |r t| = {r_max * s * len(d):.3e} "
                               "is out of the evaluator's exponent range")
    r_d = r_max * math.ldexp(float(max(map(abs, d))), d_exp)
    if r_d > 1:
        raise NumericalFailure(f"the time grid's rounding moves e^(rt) by |r d| = {r_d:.3e}")
    work = bits + len(d).bit_length()   # covers the error growth of the products

    def renorm(a, b, e):
        shift = np.maximum(_bits(a, b) - work, 0)
        return a >> shift, b >> shift, e + shift

    ws = []
    with mp.workprec(work + 8):
        for r in rates:
            parts = mp.exp(mp.mpc(r) * s)._mpc_
            low = max(e + bc for _, m, e, bc in parts if m) - work
            ws.append((*_fixed_point(parts, low), low))
    w_re = np.array([w[0] for w in ws], dtype=object)[:, None]
    w_im = np.array([w[1] for w in ws], dtype=object)[:, None]
    w_exp = np.array([w[2] for w in ws], dtype=np.int64)
    # the residue d_0 of sample 0, then each distinct step residue once
    step_of = {}
    kinds = [step_of.setdefault(v, len(step_of)) for v in np.diff(d)]
    ds = np.array([d[0], *step_of], dtype=object)
    r_int = _fixed_point(_double_parts(rates), -work - d_exp).reshape(-1, 2)
    # u = rates ds at 2^-work; e^u = sum u^k / k! until a term is below 1
    u_re, u_im = r_int[:, :1] * ds, r_int[:, 1:] * ds
    s_re, s_im = u_re + (1 << work), u_im
    t_re, t_im, k = u_re, u_im, 2
    while max(np.abs(t_re).max(), np.abs(t_im).max()) > 1:
        t_re, t_im = (((t_re * u_re - t_im * u_im) >> work) // k,
                      ((t_re * u_im + t_im * u_re) >> work) // k)
        s_re, s_im, k = s_re + t_re, s_im + t_im, k + 1
    f_re = (w_re * s_re[:, 1:] - w_im * s_im[:, 1:]) >> work
    f_im = (w_re * s_im[:, 1:] + w_im * s_re[:, 1:]) >> work
    factors = list(zip(f_re.T, f_im.T))
    a, b, e = renorm(*y0)
    if d[0]:
        a, b = ((a * s_re[:, 0] - b * s_im[:, 0]) >> work,
                (a * s_im[:, 0] + b * s_re[:, 0]) >> work)
    for start in range(0, len(d), SAMPLE_BLOCK):
        n = min(SAMPLE_BLOCK, len(d) - start)
        re, im = (np.empty((len(rates), n), dtype=object) for _ in range(2))
        ex = np.empty((len(rates), n), dtype=np.int64)
        for j in range(n):
            if start + j:
                fr, fi = factors[kinds[start + j - 1]]
                a, b, e = renorm(a * fr - b * fi, a * fi + b * fr, e + w_exp)
            re[:, j], im[:, j], ex[:, j] = a, b, e
        yield re, im, ex


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


def _limb_sums(a_limbs, y_limbs, bits: int) -> np.ndarray:
    """The entries of a @ y from `_limbs(a, bits)` and `_limbs(y, bits)`,
    as normalized int64 limbs acc of shape (n, rows, B): each entry is
    sum_k acc[k] 2^(k bits), every limb but the top one in [0, 2^bits)
    and the top one carrying the sign.

    The limbs of a, stacked, times each limb of y is one BLAS product,
    exact in float64, and is added at its limb weight into int64 sums in
    integer arithmetic (a float64 sum of several products can pass 2^53).
    ValueError unless `_limb_bits` allows `bits` over a's columns.
    """
    n_a, rows, cols = a_limbs.shape
    n_y, _, B = y_limbs.shape
    if bits > _limb_bits(cols):
        raise ValueError(f"{bits}-bit limbs over {cols} columns are not exact in float64")
    # |a @ y| < cols 2^((n_a + n_y) bits - 2) fits n signed limbs
    n = n_a + n_y + -(-(cols.bit_length() - 1) // bits)
    acc = np.zeros((n, rows, B), dtype=np.int64)
    a = a_limbs.reshape(n_a * rows, cols)
    for j in range(n_y):
        np.add(acc[j:j + n_a], (a @ y_limbs[j]).reshape(n_a, rows, B),
               out=acc[j:j + n_a], dtype=np.int64, casting="unsafe")
    _carry(acc, bits)
    return acc


def _round_limb_sums(acc, bits: int, exps, prec: int) -> np.ndarray:
    """v 2^exps for the entries v = sum_k acc[k] 2^(k bits) of a
    `_limb_sums` accumulator, rounded as `_round_to_double` rounds them
    (exps broadcasts against acc.shape[1:]).  acc is overwritten.

    |v| is read as the 64-bit window w below its leading bit,
    |v| = (w + f) 2^(len(v) - 64) with 0 <= f < 1, and w is rounded half
    even to 53 bits.  Rounding v at prec >= 64 bits first moves it by at
    most half a unit of w's last bit, so the double is the same unless the
    11 bits of w that 53 bits discard read 0x3FF or 0x400; only those
    entries are rebuilt as integers for `_round_to_double`.  Overflow
    gives +-inf.  ValueError unless 64 <= prec <= 1023.
    """
    if not 64 <= prec <= 1023:
        raise ValueError("prec must be between 64 and 1023 bits")
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
        out[near] = _round_to_double(ints, np.broadcast_to(exps, out.shape)[near].tolist(), prec)
    return out


def _round_to_double(mans, exps, prec: int) -> list[float]:
    """mans[i] 2^exps[i] for Python integers, rounded half-even to prec
    bits and then to double, the double rounding of mpmath's
    from_man_exp(man, exp, prec, round_nearest) and to_float: float() of
    an integer rounds half-even to 53 bits and math.ldexp scales it
    (subnormals round there).  Overflow gives +-inf.  prec <= 1023.
    """
    if prec > 1023:
        raise ValueError("prec must be at most 1023 bits")
    out = []
    for man, exp in zip(mans, exps):
        cut = man.bit_length() - prec
        if cut > 0:
            # man = q 2^cut + rest, 0 <= rest < 2^cut: nearest, ties to even
            q = man >> cut
            rest = man - (q << cut)
            half = 1 << (cut - 1)
            if rest > half or (rest == half and q & 1):
                q += 1
            man, exp = q, exp + cut
        try:
            out.append(math.ldexp(float(man), exp))
        except OverflowError:
            out.append(math.copysign(math.inf, man))
    return out


def _exact_loop(law: FeedbackLaw, c0, times, dps: int, extra=None):
    """Closed-form closed loop of `law` at dps digits (see the module
    docstring): x0 = M^{-1} c0 once, then x(t) = x0 e^{rt} with
    r = -(2 omega + conj lambda), c(t) = M x(t) and q(t) = -b . x(t).
    times must be a uniform grid from 0 (np.linspace); ValueError otherwise.

    extra = (lam_e, b_e, c0_e) appends E open-loop modes driven by q; their
    rows are M_e x(t) + e^{lam_e t} (c0_e - M_e x0) (Sylvester identity),
    with M_e built in mp from the given double-precision lam and b.

    All rows are one rectangular matrix
    R = [[M, 0], [M_e, diag(c0_e - M_e x0)], [-b^T, 0]] applied to
    y(t) = [x0 e^{rt}; e^{lam_e t}].  x0 comes from `_int_solve` and y(t)
    from `_mode_exponentials`, in Python integers: K + E mp.exp values per
    law, none per sample.  R is split into re/im integer mantissas at one
    common exponent, exactly: M and b are doubles, M_e and the free terms mp
    values.  Each y(t) is split at a block exponent prec + 64 bits below its
    largest x(t) entry; only bits that far below are dropped.  The real
    form [[Re R, -Im R], [Im R, Re R]] of R, split once into limbs as wide
    as its 2 (K + E) columns allow, times [Re y; Im y] is one exact limb
    product per block of samples (`_limb_sums`), so every entry is an
    exact integer sum, held as int64 limbs.  Each is rounded once at the
    working precision, then to double, as mp.fdot rounds its exact sum,
    from those limbs (`_round_limb_sums`).  Returns the states, shape
    (len(times), K + E), and the controls, shape (len(times),).
    """
    lam, bv = law.lam, law.b_vec
    K = lam.size
    E = 0 if extra is None else len(extra[0])
    rates = -(2.0 * law.omega) - np.conj(lam)
    grid = _grid_residues(times)
    with mp.workdps(dps):
        prec = mp.mp.prec
        m_parts = _double_parts(law.M)
        x_re, x_im, x_exp = _int_solve(m_parts, np.asarray(c0), prec)
        y0 = (np.concatenate([x_re, np.ones(E, dtype=object)]),
              np.concatenate([x_im, np.zeros(E, dtype=object)]),
              np.array([x_exp] * K + [0] * E))
        # the mantissa tuples of R row by row: M and -b are doubles, the
        # rows [M_e, diag(c0_e - M_e x0)] mp values
        parts = [t for a in range(0, 2 * K * K, 2 * K)
                 for t in m_parts[a:a + 2 * K] + [(0, 0, 0, 0)] * (2 * E)]
        if extra is not None:
            lam_e, b_e, c0_e = extra
            x0 = [mp.mpc(mp.ldexp(x_re[a], x_exp), mp.ldexp(x_im[a], x_exp))
                  for a in range(K)]
            for e in range(E):
                le, be = mp.mpc(lam_e[e]), mp.mpc(np.conj(b_e[e]))
                row = [be * mp.mpc(bv[a]) / (le - mp.mpc(rates[a])) for a in range(K)]
                row += [mp.mpc(0)] * E
                row[K + e] = mp.mpc(c0_e[e]) - mp.fsum(row[a] * x0[a] for a in range(K))
                parts += [p for z in row for p in z._mpc_]
            rates = np.concatenate([rates, lam_e])
        parts += _double_parts(np.concatenate([-bv, np.zeros(E)]))
    r_low = min((e for _, m, e, _ in parts if m), default=0)
    r_int = _fixed_point(parts, r_low).reshape(K + E + 1, K + E, 2)
    r_re, r_im = r_int[..., 0], r_int[..., 1]
    bits = _limb_bits(2 * (K + E))
    a_limbs = _limbs(np.block([[r_re, -r_im], [r_im, r_re]]), bits)
    rows = K + E + 1
    out = np.empty((rows, len(times)), dtype=complex)
    start = 0
    for y_re, y_im, y_exp in _mode_exponentials(y0, rates, grid, prec + 64):
        # every row reads x(t); the free responses set the scale only
        # when x(t) = 0
        nz = (y_re != 0) | (y_im != 0)
        tops = np.where(nz, y_exp + _bits(y_re, y_im), np.iinfo(np.int64).min)
        top = np.where(nz[:K].any(axis=0), tops[:K].max(axis=0), tops.max(axis=0))
        y_low = np.where(nz.any(axis=0), top, 0) - prec - 64
        shift = np.concatenate([y_exp, y_exp]) - y_low
        y = np.concatenate([y_re, y_im])
        y_limbs = _limbs((y << np.maximum(shift, 0)) >> np.maximum(-shift, 0), bits)
        vals = _round_limb_sums(_limb_sums(a_limbs, y_limbs, bits), bits, r_low + y_low, prec)
        stop = start + len(y_low)
        out.real[:, start:stop] = vals[:rows]
        out.imag[:, start:stop] = vals[rows:]
        start = stop
    return out[:K + E].T, out[K + E]


def build_feedback(
    p: FluidParams, N: int, omega: float, kind: str = "density"
) -> FeedbackLaw:
    """Assemble the feedback Gramian and verify its definiteness.

    One eigen-solve serves both checks: omega against the growth bound
    (OmegaTooSmall) first, then the simplicity of the spectrum
    (MultiplicityDetected)."""
    modes = spectral_table(p, nonzero_modes(N))
    g_hat = float((-modes.lambdas.real).max())
    if omega <= max(g_hat, 0.0):
        raise OmegaTooSmall(
            f"omega={omega} must exceed max(growth threshold {g_hat:.4f}, 0)"
        )
    tab = build_branch_table(p, N, "Zmm", modes=modes)
    bv = boundary_observation_vector(tab, kind)
    lam = tab.lam
    denon = 2.0 * omega + np.conj(lam)[None, :] + lam[:, None]
    if np.any(denon.real <= 0):
        raise OmegaTooSmall("a Gramian integral fails to converge")
    M = bv[None, :] * np.conj(bv)[:, None] / denon
    herm = float(np.max(np.abs(M - M.conj().T)))
    scale = float(np.abs(M).max())
    if herm > 1e-10 * max(scale, 1.0):
        raise IllConditioned("feedback Gramian symmetry", herm / scale, 1e-10)
    ev = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    if ev[0] < -1e-10 * max(ev[-1], 1.0):
        raise IllConditioned("feedback Gramian definiteness", -ev[0], 1e-10)
    cond = float(np.linalg.cond(M))
    if cond > COND_HARD_LIMIT:
        raise IllConditioned("feedback Gramian", cond, COND_HARD_LIMIT)
    dps = 0
    if cond > F64_COND_LIMIT:
        dps = int(30 + 1.3 * np.log10(cond))
    return FeedbackLaw(
        omega=omega, N=N, kind=kind, lam=lam, b_vec=bv, M=M,
        cond_M=cond, growth=g_hat, table=tab, precision_dps=dps,
    )


def quadrature_gramian(law: FeedbackLaw, points: int = 400):
    """Independent Gauss-Legendre evaluation of the Gramian integral,
    truncated where the integrand's weight has decayed to 1e-12."""
    lam, bv, om = law.lam, law.b_vec, law.omega
    rate = float(2.0 * om + 2.0 * lam.real.min())
    T_big = -np.log(1e-12) / rate
    xs, ws = leggauss(points)
    ts = 0.5 * T_big * (xs + 1.0)
    wts = 0.5 * T_big * ws
    K = lam.size
    M = np.zeros((K, K), dtype=complex)
    for t, w in zip(ts, wts):
        col = bv * np.exp(-(om + np.conj(lam)) * t)
        M += w * np.outer(np.conj(col), col)
    return M


def _state_norms(p: FluidParams, xi: np.ndarray, cs) -> tuple[np.ndarray, np.ndarray]:
    """Energies (squared Z norms) and plain L^2 component norms (rho, u, S)
    of the states whose direct-eigenbasis coordinates are the rows of cs.

    xi (M, 3, 3) holds the direct triples of M modes; each mode owns three
    consecutive coordinates, in branch order.
    """
    cs = np.asarray(cs)
    comps = np.einsum("tml,mlp->tmp", cs.reshape(len(cs), -1, 3), xi)
    sq = TWO_PI * np.sum(np.abs(comps) ** 2, axis=1)
    return sq @ z_weights(p), np.sqrt(sq)


def closed_loop_simulate(
    p: FluidParams,
    law: FeedbackLaw,
    z0: SpectralState,
    T_end: float,
) -> TrajectoryRecord:
    """Closed-loop trajectory of the truncated feedback system.

    Well-conditioned laws integrate the eigen-coordinate ODE with a
    second-order exponential integrator at step dt = 0.1 / max|lambda| and
    check the final state against the dt/2 one, taken from one matrix
    power (`_integrate`).  Ill-conditioned laws use the exact route: the
    Lyapunov identity makes x = M^{-1} c evolve by pure modal decay
    e^{-(2 omega + conj lambda)t}, so the trajectory is evaluated in closed
    form with exact integer sums (`_exact_loop`) and there is no time-step
    error; it is sampled about every RECORD_STRIDE steps dt.
    Either route holds only the recorded samples in memory, and a horizon
    needing more than MAX_STEPS steps or MAX_SAMPLES exact samples is a
    ValidationError.
    """
    c0 = eigen_coefficients(law.table, z0)
    dt = 0.1 / float(np.abs(law.lam).max())
    exact = law.precision_dps > 0
    count, limit = ((T_end / dt / RECORD_STRIDE, MAX_SAMPLES) if exact
                    else (T_end / dt, MAX_STEPS))
    if count > limit:
        raise ValidationError(f"T_end={T_end:g} needs {count:.3e} closed-loop "
                              f"{'samples' if exact else 'steps'}, more than {limit}")
    if exact:
        nrec = max(int(np.ceil(count)), 64)
        times = np.linspace(0.0, T_end, nrec + 1)
        states, qs = _exact_loop(law, c0, times, law.precision_dps)
    else:
        states, qs, times = _integrate(law, c0, T_end, dt)
    energies, comp = _state_norms(p, law.table.modes.xi_coeffs, states)
    return TrajectoryRecord(
        times=times,
        energies=energies,
        norm_rho=comp[:, 0],
        norm_u=comp[:, 1],
        norm_S=comp[:, 2],
        control=qs,
    )


def _step_vectors(law: FeedbackLaw, T_end, step):
    """Step count nst, step h = T_end / nst and the vectors e^{lambda h},
    u = phi1 conj(b) and v = phi2 conj(b) of `_integrate`'s step."""
    lam = law.lam
    nst = int(np.ceil(T_end / step))
    h = T_end / nst
    eL = np.exp(lam * h)
    z = lam * h
    small = np.abs(z) < 1e-8
    lam_s = np.where(small, 1.0, lam)
    phi1 = np.where(small, h, (eL - 1.0) / lam_s)
    phi2 = np.where(small, h / 2.0, (eL - 1.0 - z) / (lam_s * z))
    bconj = np.conj(law.b_vec)
    return nst, h, eL, phi1 * bconj, phi2 * bconj


def _final_state(law: FeedbackLaw, g, c0, T_end, step):
    """c0 after every step of `_integrate` at `step`, as one matrix power:
    the step is c+ = Phi c, Phi = P + v g^T (P - I), P = diag(e^{lambda h}) + u g^T."""
    nst, _, eL, u, v = _step_vectors(law, T_end, step)
    P = np.diag(eL) + np.outer(u, g)
    return np.linalg.matrix_power(P + np.outer(v, g @ (P - np.eye(eL.size))), nst) @ c0


def _integrate(law: FeedbackLaw, c0, T_end, dt):
    """Exponential-integrator route: recorded eigen-coordinate states,
    controls and times.

    Each step is c+ = pred + v (g . pred - q), pred = e^{lambda h} c + u q,
    q = g . c (`_step_vectors`); g . c+ is the next q and the recorded
    control.  Every RECORD_STRIDE-th state and the last are kept.  The
    final state must be within 1e-6 ||c0|| of the dt/2 one, a matrix power
    (`_final_state`); a non-finite drift fails too.
    """
    g = law.gain_vector()
    nst, h, eL, u, v = _step_vectors(law, T_end, dt)
    c = c0
    q = g @ c
    keep, traj, qs = [0], [c], [complex(q)]
    for k in range(1, nst + 1):
        pred = eL * c + u * q
        c = pred + v * (g @ pred - q)
        q = g @ c
        if k % RECORD_STRIDE == 0 or k == nst:
            keep.append(k)
            traj.append(c)
            qs.append(complex(q))
    c_half = _final_state(law, g, c0, T_end, dt / 2.0)
    drift = np.linalg.norm(c - c_half) / max(np.linalg.norm(c0), 1e-300)
    if not drift <= 1e-6:
        raise StepTooLarge(
            f"dt vs dt/2 self-convergence drift {drift:.3e} exceeds 1e-6"
        )
    return np.array(traj), np.array(qs), np.array(keep) * h


def spillover_report(
    p: FluidParams,
    law: FeedbackLaw,
    z0: SpectralState,
    T_end: float,
) -> dict:
    """Decay-rate change when the N-truncation gain drives a larger plant.

    The feedback only reads the first-N modal projection, whose closed loop
    stays the exact similarity system; modes with N < |n| <= N2 = 2N are
    driven open-loop by the resulting control.  By the Sylvester identity
    (module docstring) mode e responds exactly as
    c_e(t) = sum_a M_e[e, a] x_a(t) + e^{lambda_e t} (c_e(0) - sum_a M_e[e, a] x0_a)
    with M_e[e, a] = conj(b_e) b_a / (lambda_e + 2 omega + conj lambda_a),
    so design and extra modes are the rows of [M; M_e] applied to the same
    x(t) (`_exact_loop`), sampled at 129 times on [0, T_end].  Returns the
    fitted rates of the design truncation and of the extended plant.
    """
    N2 = 2 * law.N
    tab2 = build_branch_table(p, N2, "Zmm")
    extra = np.abs(tab2.idx_n) > law.N
    bv2 = boundary_observation_vector(tab2, law.kind)
    c0 = eigen_coefficients(tab2, z0)
    times = np.linspace(0.0, T_end, 129)
    K = law.lam.size
    cs, _ = _exact_loop(law, c0[~extra], times, law.precision_dps or 30,
                        extra=(tab2.lam[extra], bv2[extra], c0[extra]))

    e_design = _state_norms(p, law.table.modes.xi_coeffs, cs[:, :K])[0]
    xi_extra = tab2.modes.xi_coeffs[np.abs(tab2.modes.ns) > law.N]
    e_extra = _state_norms(p, xi_extra, cs[:, K:])[0]
    return {
        "N": law.N,
        "N2": N2,
        "nu_fit_design": _fit_rate(times, e_design),
        "nu_fit_extended": _fit_rate(times, e_design + e_extra),
        "spillover_energy_peak": float(e_extra.max()),
    }


def fit_decay_rate(traj: TrajectoryRecord):
    """Exponential decay rate of the energy norm by least squares.

    Fits (1/2) log energy against t over [0.2, 0.9] * T_end and returns the
    negated slope; underflowed samples are dropped (window auto-shortened).
    """
    return _fit_rate(traj.times, traj.energies)


def _fit_rate(times, energies) -> float:
    """The fit of `fit_decay_rate` on the energies at the given times.

    The log is taken of the energies floored at 1e-300; samples at or below
    1e-290 are dropped, so the floor never enters the fit."""
    loge = np.log(np.maximum(np.asarray(energies, dtype=float), 1e-300))
    t = np.asarray(times, dtype=float)
    T_end = t[-1]
    mask = (t >= 0.2 * T_end) & (t <= 0.9 * T_end) & np.isfinite(loge)
    mask &= loge > np.log(1e-290)
    if mask.sum() < 2:
        raise DegenerateWindow("fewer than two usable samples in the fit window")
    slope = np.polyfit(t[mask], 0.5 * loge[mask], 1)[0]
    return float(-slope)
