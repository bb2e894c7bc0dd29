"""Concurrence routines and the quasi-steady entangled states.

The general (spectral) concurrence and the X-state closed form are
implemented independently; random X-structured states tie them together.
Known values for Bell, product, and Werner states pin the normalization,
and invariance under local unitaries catches basis-handling mistakes
that value checks on diagonal-friendly states would miss.
"""

import math

import numpy as np
import pytest

from djcm.entanglement import (
    STEADY_PURITY_THRESHOLD,
    concurrence,
    concurrence_x_state,
    steady_concurrence_nonlocal,
    steady_pair_local,
    steady_pair_nonlocal,
)


def _bell(which: str = "phi+") -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    if which == "phi+":
        v[1] = v[2] = 1.0 / math.sqrt(2.0)  # (|10> + |01>)/sqrt(2)
    else:
        v[0] = v[3] = 1.0 / math.sqrt(2.0)  # (|11> + |00>)/sqrt(2)
    return np.outer(v, v.conj())


def _werner(r: float) -> np.ndarray:
    return r * _bell() + (1.0 - r) / 4.0 * np.eye(4, dtype=complex)


def _random_unitary(rng, n: int = 2) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_x_state(rng) -> np.ndarray:
    d = rng.uniform(0.05, 1.0, size=4)
    d /= d.sum()
    m = np.diag(d).astype(complex)
    # anti-diagonal coherences bounded so the state stays positive
    c_in = rng.uniform(0.0, math.sqrt(d[1] * d[2])) * np.exp(2j * np.pi * rng.uniform())
    c_out = rng.uniform(0.0, math.sqrt(d[0] * d[3])) * np.exp(2j * np.pi * rng.uniform())
    m[1, 2], m[2, 1] = c_in, np.conj(c_in)
    m[0, 3], m[3, 0] = c_out, np.conj(c_out)
    return m


def test_bell_states_are_maximally_entangled():
    assert concurrence(_bell("phi+")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(_bell("psi+")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_x_state(_bell("phi+")) == pytest.approx(1.0, abs=1e-14)


def test_product_states_carry_nothing():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        rho = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        # sqrt of near-zero eigenvalues costs half the precision
        assert concurrence(rho) < 1e-8
    assert concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_werner_family_closed_form():
    # known curve: max(0, (3r - 1)/2)
    for r in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * r - 1.0) / 2.0)
        assert concurrence(_werner(r)) == pytest.approx(expected, abs=1e-12)
        assert concurrence_x_state(_werner(r)) == pytest.approx(expected, abs=1e-14)
    assert concurrence(_werner(0.5)) == pytest.approx(0.25, abs=1e-13)


def test_x_state_routes_agree():
    rng = np.random.default_rng(101)
    for _ in range(40):
        rho = _random_x_state(rng)
        assert concurrence(rho) == pytest.approx(
            concurrence_x_state(rho), abs=1e-10
        )


def test_x_state_route_rejects_general_states():
    # mix in a projector with an off-pattern coherence; the convex
    # combination stays a valid state but is no longer X-structured
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[1] = 1.0 / math.sqrt(2.0)
    rho = 0.8 * _werner(0.9) + 0.2 * np.outer(psi, psi.conj())
    with pytest.raises(ValueError, match="not X-structured"):
        concurrence_x_state(rho)
    # the general route handles it fine
    assert 0.0 <= concurrence(rho) <= 1.0


def test_x_state_route_on_stacks():
    rng = np.random.default_rng(71)
    stack = np.array([_random_x_state(rng) for _ in range(12)]).reshape(3, 4, 4, 4)
    batched = concurrence_x_state(stack)
    assert batched.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert batched[idx] == pytest.approx(concurrence_x_state(stack[idx]), abs=1e-15)
    assert isinstance(concurrence_x_state(stack[0, 0]), float)
    # one non-X matrix anywhere in the stack is an error naming it and its
    # worst stray entry; there is no fallback to the spectral route
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[1] = 1.0 / math.sqrt(2.0)
    stack[2, 1] = 0.8 * _werner(0.9) + 0.2 * np.outer(psi, psi.conj())
    with pytest.raises(ValueError, match=r"state\[2, 1\] is not X-structured .* at \(0, 1\)"):
        concurrence_x_state(stack)


def test_x_state_route_rejects_negative_states():
    # an X-shaped matrix with unit trace but an eigenvalue of -0.1
    bad = np.diag([0.3, 0.4, 0.3, 0.0]).astype(complex)
    bad[0, 3] = bad[3, 0] = 0.2
    with pytest.raises(ValueError, match="eigenvalue"):
        concurrence_x_state(bad)
    with pytest.raises(ValueError, match="eigenvalue"):
        concurrence_x_state(np.array([_werner(0.4), bad]))


def test_local_unitary_invariance():
    rng = np.random.default_rng(57)
    for _ in range(10):
        rho = _random_x_state(rng)
        base = concurrence(rho)
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(base, abs=1e-9)


def test_concurrence_rejects_nonstates():
    with pytest.raises(ValueError):
        concurrence(np.eye(4, dtype=complex))  # trace 4
    bad = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(bad)


def test_spectral_concurrence_takes_stacks():
    rng = np.random.default_rng(31)
    singles = []
    for _ in range(6):
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        singles.append(u @ _random_x_state(rng) @ u.conj().T)
    singles += [_bell("psi+"), _werner(0.2)]
    stack = np.array(singles).reshape(2, 4, 4, 4)
    got = concurrence(stack)
    assert got.shape == (2, 4)
    # a stack gives exactly what one call per matrix gives
    assert np.array_equal(got.ravel(), [concurrence(m) for m in singles])
    assert isinstance(concurrence(singles[0]), float)
    assert concurrence(np.empty((0, 4, 4))).shape == (0,)


def test_spectral_concurrence_names_the_failing_state_of_a_stack():
    bad = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    stack = np.array([[_werner(0.5), _werner(0.1)], [_werner(0.9), bad]])
    with pytest.raises(ValueError, match=r"state\[1, 1\] has eigenvalue -1.000e-01"):
        concurrence(stack)
    with pytest.raises(ValueError, match=r"^state has eigenvalue"):
        concurrence(bad)
    stack[0, 1, 0, 3] += 1e-6  # not Hermitian
    with pytest.raises(ValueError, match=r"\[0, 1\] is not Hermitian"):
        concurrence(stack)


def test_steady_local_pair():
    m = steady_pair_local()
    assert abs(m.trace() - 1.0) < 1e-15
    assert m[1, 1] == m[2, 2] == m[1, 2] == 0.125
    assert m[3, 3] == 0.75
    assert m[0, 0] == 0.0
    # one eighth of coherence against (1/8)(1/8) populations: bare value 0.25
    assert concurrence_x_state(m) == pytest.approx(0.25, abs=1e-14)
    assert concurrence(m) == pytest.approx(0.25, abs=1e-12)


def test_steady_nonlocal_family():
    for r in (0.0, 0.3, 1.0):
        m = steady_pair_nonlocal(r)
        assert abs(m.trace() - 1.0) < 1e-15
        assert m[0, 0] == pytest.approx((1.0 - r) / 64.0)
        assert m[1, 1] == pytest.approx((7.0 + r) / 64.0)
        assert m[1, 2] == pytest.approx(r / 8.0)
        assert m[3, 3] == pytest.approx((49.0 - r) / 64.0)
        assert np.linalg.eigvalsh(m).min() > -1e-15
    with pytest.raises(ValueError):
        steady_pair_nonlocal(1.2)


def test_steady_nonlocal_concurrence_endpoints():
    assert steady_concurrence_nonlocal(0.0) == 0.0
    assert steady_concurrence_nonlocal(1.0) == pytest.approx(0.25, abs=1e-15)
    for r in (0.0, 0.3, 0.6, 0.85, 1.0):
        via_matrix = concurrence_x_state(steady_pair_nonlocal(r))
        assert steady_concurrence_nonlocal(r) == pytest.approx(via_matrix, abs=1e-13)
    with pytest.raises(ValueError):
        steady_concurrence_nonlocal(-0.1)


def test_steady_threshold_matches_bisection():
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if steady_concurrence_nonlocal(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    assert STEADY_PURITY_THRESHOLD == pytest.approx(hi, abs=1e-12)
    # and it really is a root of 63 r^2 + 50 r - 49
    root = STEADY_PURITY_THRESHOLD
    assert 63.0 * root**2 + 50.0 * root - 49.0 == pytest.approx(0.0, abs=1e-12)
    assert steady_concurrence_nonlocal(root + 1e-9) > 0.0
    assert steady_concurrence_nonlocal(max(0.0, root - 1e-9)) == 0.0


def test_steady_nonlocal_concurrence_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    vals = [steady_concurrence_nonlocal(float(r)) for r in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
