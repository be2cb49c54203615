"""Vectorized NumPy cubic kernel.

One solver for batches of monic complex cubics x^3 + a2 x^2 + a1 x + a0:
every mode of every run needs one characteristic-cubic solve, and the real
slope cubic of the parameters is the same solve on a real row.
"""

import numpy as np

_W = np.exp(2j * np.pi / 3.0)


def char_roots_batch(a2, a1, a0):
    """Roots of monic complex cubics, shape (m, 3), unordered.

    Cardano with the larger-magnitude cube-root branch (avoids cancellation),
    then two Newton sweeps to polish to full double accuracy.
    """
    a2 = np.atleast_1d(np.asarray(a2, dtype=complex))
    a1 = np.atleast_1d(np.asarray(a1, dtype=complex))
    a0 = np.atleast_1d(np.asarray(a0, dtype=complex))
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    sq = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    ua = -q / 2.0 + sq
    ub = -q / 2.0 - sq
    u3 = np.where(np.abs(ua) >= np.abs(ub), ua, ub)
    # a wholly degenerate cubic (p = q = 0) has the triple root -a2/3
    deg = np.abs(u3) == 0.0
    uc = np.where(deg, 1.0, u3) ** (1.0 / 3.0)
    pou = np.where(deg, 0.0, p) / (3.0 * uc)
    t = np.stack([uc - pou, uc * _W - pou / _W, uc * _W**2 - pou / _W**2], axis=1)
    t[deg] = 0.0
    r = t - (a2 / 3.0)[:, None]
    for _ in range(2):
        f = ((r + a2[:, None]) * r + a1[:, None]) * r + a0[:, None]
        df = (3.0 * r + 2.0 * a2[:, None]) * r + a1[:, None]
        step = f / np.where(df != 0.0, df, 1.0)
        r = r - np.where(np.isfinite(step), step, 0.0)
    return r
