"""Truncated singular value decomposition of dense complex tensors.

Tensors are plain ``numpy.ndarray`` objects of dtype complex128 in row-major
(C) layout; that linearization is the single source of truth for all index
arithmetic in the package. Other modules contract, reshape and permute with
numpy directly, split stacks of matrices through :func:`svd_stack` (values
only: :func:`singular_values`) ranked by :func:`truncation_rank`, and split
one tensor by the same rule through :func:`svd_truncate` (the chains'
canonical sweep). All of them retry a failed SVD the same way.

A rank is found without a scan: one reverse cumulative sum of the squared
values gives the weight of every tail, and a binary search counts the tails
within the budget (a stack of spectra compares all its rows' tails with
their budgets at once). The kept rank is what is left, at least 1, extended
over values tied with the last one kept and capped at ``chi_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Singular values closer than this to the truncation boundary are kept
# together so that degenerate multiplets are never split.
TIE_TOLERANCE = 1e-12


class ZeroTensorError(ValueError):
    """Raised when an SVD is requested for an all-zero tensor, or when the
    output state's norm collapses (``chains.apply_to_zero``). Within a run
    either means truncation destroyed the result, not that an argument was
    bad. A ``ValueError``, so callers that catch that still catch it."""


class SvdConvergenceError(RuntimeError):
    """Raised when the SVD backend fails even after a perturbed retry."""


@dataclass(frozen=True)
class TruncatedSVD:
    """Result of a truncated SVD of a matricized tensor.

    ``u`` has shape (prod(left extents), r) with orthonormal columns,
    ``v`` has shape (r, prod(right extents)) with orthonormal rows, and
    ``u @ diag(s) @ v`` reconstructs the matricized input up to the
    reported ``discarded_weight`` (sum of squared dropped singular values
    divided by the sum of all squared singular values).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    discarded_weight: float

    @property
    def rank(self) -> int:
        return len(self.s)


def check_cutoffs(epsilon: float, chi_max: int) -> None:
    """Raise unless ``epsilon`` is >= 0 (NaN is not) and ``chi_max`` >= 1.
    Every public entry that takes a cutoff checks it here first, so a call
    that happens to run no split rejects the same values as one that does."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if chi_max < 1:
        raise ValueError("chi_max must be >= 1")


def svd_truncate(t: np.ndarray, split: int, epsilon: float, chi_max: int) -> TruncatedSVD:
    """Truncated SVD of ``t`` matricized between axis groups [0:split) and [split:).

    ``epsilon`` is a relative cutoff: the kept rank is the smallest r whose
    relative discarded squared weight is at most epsilon**2, further capped
    at ``chi_max``. Singular values within ``TIE_TOLERANCE`` of the boundary
    value are kept together (up to ``chi_max``) so truncation is
    deterministic under degeneracies. At least one singular value is always
    kept.
    """
    t = np.asarray(t, dtype=np.complex128)
    if not (1 <= split < t.ndim):
        raise ValueError(f"split {split} must satisfy 1 <= split < rank {t.ndim}")
    check_cutoffs(epsilon, chi_max)
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite amplitudes")

    rows = math.prod(t.shape[:split])
    cols = math.prod(t.shape[split:])
    m = t.reshape(rows, cols)
    if not m.any():
        raise ZeroTensorError("cannot decompose an all-zero tensor")

    u, s, v = _svd_with_retry(m)
    weights = s * s
    total = float(weights.sum())
    r = _spectrum_rank(s, weights, total, epsilon, chi_max)
    if total == 0.0:  # every squared value underflows: weigh them against the largest
        weights = (s / s[0]) ** 2
        total = float(weights.sum())
    discarded = float(weights[r:].sum() / total)
    return TruncatedSVD(u=u[:, :r], s=s[:r].copy(), v=v[:r, :], discarded_weight=discarded)


def truncation_rank(s: np.ndarray, epsilon: float, chi_max: int) -> int | list[int]:
    """Kept rank for a descending spectrum under the relative cutoff: the
    smallest r whose relative discarded squared weight is <= epsilon**2,
    extended over ties at the boundary, capped at chi_max, and at least 1.

    A (k, m) stack of spectra gives a list of k ranks, one per row, each
    ranked exactly as that row alone would be.
    """
    if s.ndim == 2 and len(s) == 1:  # one row ranks faster on its own, to the same rank
        return [truncation_rank(s[0], epsilon, chi_max)]
    weights = s * s
    if s.ndim == 1:
        return _spectrum_rank(s, weights, float(weights.sum()), epsilon, chi_max)
    # _spectrum_rank on every row at once: count each row's droppable tail
    n = s.shape[1]
    budgets = (epsilon * epsilon) * weights.sum(axis=1, keepdims=True)
    dropped = (weights[:, ::-1].cumsum(axis=1) <= budgets).sum(axis=1)
    return [_keep_ties(row, max(n - d, 1), chi_max)
            for row, d in zip(s.tolist(), dropped.tolist())]


def _spectrum_rank(s: np.ndarray, weights: np.ndarray, total: float, epsilon: float,
                   chi_max: int) -> int:
    """Rank of one descending spectrum ``s`` with squared values ``weights``
    summing to ``total``."""
    # tail[j] is the weight of the j + 1 smallest values; they may be
    # dropped while it stays within the budget
    tail = weights[::-1].cumsum()
    dropped = int(tail.searchsorted((epsilon * epsilon) * total, side="right"))
    return _keep_ties(s.tolist(), max(len(s) - dropped, 1), chi_max)


def _keep_ties(s: list[float], r: int, chi_max: int) -> int:
    """Extend the first ``r`` values of descending ``s`` over the values
    tied with the last of them, then cap at ``chi_max``."""
    floor = s[r - 1] - TIE_TOLERANCE
    while r < len(s) and s[r] >= floor:
        r += 1
    return min(r, chi_max)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of a matrix, or of each matrix in a
    (k, rows, cols) stack, without the singular vectors."""
    return _svd_with_retry(m, compute_uv=False)


def svd_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vh) of each matrix in a (k, rows, cols) stack, the
    factors stacked the same way. Each matrix's factors are bit for bit
    those of its own SVD: the backend decomposes the matrices of a stack
    one by one. Raises as :func:`svd_truncate` does on a non-finite or
    all-zero matrix, and after a failed retry."""
    if not np.isfinite(stack).all():
        raise ValueError("tensor contains non-finite amplitudes")
    if not stack.reshape(len(stack), -1).any(axis=1).all():
        raise ZeroTensorError("cannot decompose an all-zero tensor")
    return _svd_with_retry(stack)


def _svd_with_retry(m: np.ndarray, compute_uv: bool = True):
    try:
        return np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        # one retry on a deterministically perturbed copy, then give up
        scale = 1e-14 * np.linalg.norm(m)
        rng = np.random.default_rng(0)
        perturbed = m + scale * rng.standard_normal(m.shape)
        try:
            return np.linalg.svd(perturbed, full_matrices=False, compute_uv=compute_uv)
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError("SVD failed to converge after perturbed retry") from exc
