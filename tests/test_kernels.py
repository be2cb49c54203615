import numpy as np

from cnsmax import _kernels


def _random_real_cubics(m, seed):
    """Monic real cubics with three real roots, built from the roots."""
    rng = np.random.default_rng(seed)
    r = np.sort(rng.uniform(-5, 5, size=(m, 3)), axis=1)[:, ::-1]
    a2 = -r.sum(axis=1)
    a1 = r[:, 0] * r[:, 1] + r[:, 0] * r[:, 2] + r[:, 1] * r[:, 2]
    a0 = -np.prod(r, axis=1)
    return a2, a1, a0, r


def test_real_cubic_reference_solver():
    # the one kernel also solves real cubics with three real roots (the
    # slope cubic): real parts sorted descending, imaginary parts rounding
    a2, a1, a0, roots = _random_real_cubics(200, 11)
    got = _kernels.char_roots_batch(a2, a1, a0)
    assert np.allclose(-np.sort(-got.real, axis=1), roots, atol=1e-9)
    assert np.all(np.abs(got.imag) <= 1e-9)


def test_complex_cubic_reference_solver():
    rng = np.random.default_rng(3)
    m = 200
    a2 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    a1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    a0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    got = _kernels.char_roots_batch(a2, a1, a0)
    for i in range(m):
        want = np.sort_complex(np.roots([1.0, a2[i], a1[i], a0[i]]))
        assert np.allclose(np.sort_complex(got[i]), want, atol=1e-8)
