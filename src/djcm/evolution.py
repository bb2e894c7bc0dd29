"""Closed-form propagation of the two-partition (9x9) density matrix.

The two partitions never interact, so the joint map is the tensor product
of the two single-partition maps: with T_A and T_B the (3,3,3,3) transfer
tensors of `propagator.transfer_tensor`, the pair state is

    R'[(a,b), (c,d)] = sum T_A[a,c,m,o] T_B[b,d,n,q] R[(m,n), (o,q)],

evaluated for a whole array of times at once as two batched 9x9 matrix
products, one per partition.

Basis ordering is A-major: index 3*i + j holds (A level i, B level j)
with levels ordered (|+>, |->, |0g>) per partition.

Production never builds that 9x9 stack. Each partition's map is
sum_k c_k(t) PATTERNS[k], so the pair state is bilinear in the two
coefficient vectors; the six reductions are linear in the state and the
initial state is affine in the purity r. Every X entry of every
reduction at time t is therefore

    outer(c_A(t), c_B(t)) @ K(r),   K(r) = r K1 + (1 - r) K0,

with K1 and K0 fixed tables built once at import from the patterns,
`initial_state(1)`/`initial_state(0)` and the reduction table. The
build proves both tables exactly real, so they are stored as float64.

`x_entry_chunks` is the one place that evaluates the product. For each
chunk of at most `CHUNK_ROWS` times it forms the 57 coefficient products
once, with time on the last axis, and applies the kernel of each purity
it was given as one real matrix product over the float view of those
products (real and imaginary parts interleaved along time), into buffers
allocated once per call. It yields the X entries of each purity after
the trace and Hermiticity checks. On one BLAS thread, `evolve_concurrences`
on fig2a (1501 samples) takes 3.1-3.3 ms this way, against 4.0-4.6 ms for
complex (T, 57) @ (57, 49) products over the same kernel. The trajectory
driver (one purity) and the threshold scan (r = 1 and r = 0) iterate it;
`propagate_pairs` stays as the independent 9x9 route that checks it.
"""

from __future__ import annotations

import numpy as np

from .entanglement import X_ENTRIES
from .linalg import validate_density_matrix
from .propagator import PATTERNS, JcmParams, coefficients, transfer_tensor
from .states import _REDUCTION, initial_state

__all__ = [
    "CHUNK_ROWS",
    "x_entry_chunks",
    "propagate_pair",
    "propagate_pairs",
    "min_eigenvalue",
]

# Time samples propagated, reduced and measured together. Large enough
# that numpy, not the interpreter, does the work; small enough that memory
# does not grow with the grid: draining `x_entry_chunks` peaks at about
# 1.0 MB under tracemalloc with one purity and 1.24 MB with two, and a
# (CHUNK_ROWS, 9, 9) complex stack of the checking route is 0.33 MB.
CHUNK_ROWS = 256


def _pair_map(ta: np.ndarray, tb: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Pair states from (..., 3,3,3,3) maps T_A, T_B and (..., 9, 9) states R.

    Leading axes broadcast. Partition A's map acts on the (m, o) indices
    of R, B's on (n, q): R as a 9x9 matrix over (m o), (n q), then
    out[(a c), (b d)] = T_A R T_B^T.
    """
    ta = ta.reshape(ta.shape[:-4] + (9, 9))
    tb = tb.reshape(tb.shape[:-4] + (9, 9))
    r = r0.reshape(r0.shape[:-2] + (3, 3, 3, 3)).swapaxes(-3, -2).reshape(r0.shape)
    out = ta @ (r @ tb.swapaxes(-1, -2))
    return out.reshape(out.shape[:-2] + (3, 3, 3, 3)).swapaxes(-3, -2).reshape(out.shape)


def propagate_pairs(r0: np.ndarray, p_a: JcmParams, p_b: JcmParams, times: np.ndarray) -> np.ndarray:
    """Propagate a 9x9 dressed-basis two-partition state to each of T times.

    Returns the (T,9,9) stack of states. The partitions may carry
    different parameters. Trace and Hermiticity drift are checked on
    every state of the stack; positivity is not (the second-order master
    equation is not guaranteed completely positive, and `validate`
    reports the smallest eigenvalue through `min_eigenvalue`).
    """
    r0 = validate_density_matrix(r0, 9, name="r0")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    out = _pair_map(transfer_tensor(p_a, times), transfer_tensor(p_b, times), r0)
    _check_drift(
        np.abs(np.trace(out, axis1=1, axis2=2) - r0.trace()).max(initial=0.0),
        np.abs(out - out.conj().transpose(0, 2, 1)).max(initial=0.0),
    )
    return out


def _check_drift(trace: float, hermiticity: float) -> None:
    """The one guard of both routes: trace drift within 1e-12, Hermiticity defect within 1e-10."""
    if not trace <= 1e-12:
        raise RuntimeError(f"propagation lost trace ({trace:.3e}); internal error")
    if not hermiticity <= 1e-10:
        raise RuntimeError(f"propagation broke Hermiticity ({hermiticity:.3e}); internal error")


def _x_kernel() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient pairs (k, l) that matter, and K1, K0 restricted to them.

    Row k*n + l of the full table is the image of c_A[k] c_B[l] = 1 (all
    other products 0) under propagation, the six reductions and the 9x9
    trace. Only the rows with a nonzero entry are kept, and only the
    columns of the X entries (8 per reduction, in `X_ENTRIES` order)
    plus the trace. Every other reduction entry must come out exactly
    zero, which proves once that each reduction is X-shaped; every kept
    entry must be exactly real, which lets the kernel run as real
    matrix products. K1 and K0 are returned as float64 tables.
    """
    n = len(PATTERNS)
    r0 = np.stack([initial_state(1.0), initial_state(0.0)]).reshape(2, 1, 1, 9, 9)
    out = _pair_map(PATTERNS[:, None], PATTERNS[None, :], r0).reshape(2, n * n, 81)
    table = out @ np.vstack([_REDUCTION, np.eye(9).reshape(1, 81)]).T  # (2, n*n, 97)

    x_cols = [16 * block + 4 * i + j for block in range(6) for i, j in X_ENTRIES]
    stray = np.delete(table[:, :, :96], x_cols, axis=2)
    if np.any(stray != 0.0):
        raise RuntimeError("a reduction of the pair state is not X-shaped; internal error")
    kernel = table[:, :, x_cols + [96]]
    if np.any(kernel.imag != 0.0):
        raise RuntimeError("the X-entry kernel is not real; internal error")
    kernel = kernel.real
    pairs = np.flatnonzero(np.any(kernel != 0.0, axis=(0, 2)))
    return pairs // n, pairs % n, kernel[0, pairs], kernel[1, pairs]


_PAIR_A, _PAIR_B, _K1, _K0 = _x_kernel()


def _purity_kernel(r: float) -> np.ndarray:
    """K(r) = r K1 + (1 - r) K0: the (57, 49) kernel of initial_state(r)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity r must lie in [0,1], got {r}")
    return r * _K1 + (1.0 - r) * _K0


def _checked_x_entries(image: np.ndarray) -> np.ndarray:
    """(T, 6, 8) X entries of a (49, T) image of `_purity_kernel`, guarded.

    Row 48 of the image is the trace of the 9x9 pair state.
    """
    x = image[:-1].reshape(6, 8, -1)
    # np.max, unlike max(), carries a NaN through to the gate
    defect = np.max([
        np.abs(x[:, :4].imag).max(initial=0.0),
        np.abs(x[:, 4] - x[:, 5].conj()).max(initial=0.0),
        np.abs(x[:, 6] - x[:, 7].conj()).max(initial=0.0),
    ])
    _check_drift(np.abs(image[-1] - 1.0).max(initial=0.0), defect)
    return x.transpose(2, 0, 1)


def x_entry_chunks(p_a: JcmParams, p_b: JcmParams, purities, times: np.ndarray):
    """X entries of the six reductions at each purity, chunk by chunk of `times`.

    The pair starts in `initial_state(r)` for each r of `purities`, all
    in [0, 1]. For each chunk of at most `CHUNK_ROWS` of the 1-d `times`,
    yields (rows, entries): `rows` the chunk's slice of `times`,
    `entries` one (len, 6, 8) complex array per purity, whose second axis
    runs over `ReductionTarget` and last over `X_ENTRIES`. Every other
    entry of every reduction is exactly zero (checked once, when the
    kernel is built). Trace and Hermiticity drift are checked with the
    bounds of `propagate_pairs`. The purities share each chunk's
    coefficient products; the arrays yielded are views of buffers
    allocated once per call, which the next chunk overwrites.
    """
    tables = [np.ascontiguousarray(_purity_kernel(r).T) for r in purities]
    size = min(len(times), CHUNK_ROWS)
    prods = np.empty(len(_PAIR_A) * size, dtype=complex)
    images = [np.empty(len(table) * size, dtype=complex) for table in tables]
    for start in range(0, len(times), CHUNK_ROWS):
        t = times[start:start + CHUNK_ROWS]
        c_a = coefficients(p_a, t).T
        c_b = c_a if p_b == p_a else coefficients(p_b, t).T
        chunk = prods[: len(_PAIR_A) * len(t)].reshape(-1, len(t))
        np.multiply(c_a[_PAIR_A], c_b[_PAIR_B], out=chunk)
        entries = []
        for table, buf in zip(tables, images):
            image = buf[: len(table) * len(t)].reshape(-1, len(t))
            np.matmul(table, chunk.view(float), out=image.view(float))
            entries.append(_checked_x_entries(image))
        yield slice(start, start + len(t)), entries


def propagate_pair(r0: np.ndarray, p_a: JcmParams, p_b: JcmParams, t: float) -> np.ndarray:
    """Propagate a 9x9 dressed-basis two-partition state from 0 to t.

    The one-time case of `propagate_pairs`, with the same checks.
    """
    return propagate_pairs(r0, p_a, p_b, np.array([t]))[0]


def min_eigenvalue(rho: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix (positivity diagnostic).

    For a (..., n, n) stack, the array of each matrix's smallest eigenvalue.
    """
    rho = np.asarray(rho)
    low = np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2.0)[..., 0]
    return float(low) if rho.ndim == 2 else low
