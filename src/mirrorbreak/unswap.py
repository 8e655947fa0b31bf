"""Greedy extraction of hidden permutations from an operator chain.

Swap obfuscation inflates bond dimensions without adding entanglement. This
module repeatedly tries nearest-neighbor SWAPs on the chain's outer legs and
keeps the ones that shrink the targeted bond, factoring the operator as

    input = P_left . reduced . P_right

where both factors are wire permutations. ``unswap(m, epsilon, chi_max)`` is
one greedy function of the chain and the two truncation numbers, which
carries the chain, both permutations and the accepted count as locals.
Candidates are tried in batches of disjoint bonds, one batch per (side,
parity) combination, so a step tests floor(N/2) candidates instead of one;
cycles repeat until one reduces no bond.

The chain keeps every bond's Schmidt values, so a visit to a bond needs no
center move: it ranks the bond and the swap candidates of all three sides
from one values-only SVD of the pair's weighted blob and its three swapped
transposes; a pair is split again only for an accepted swap or to trim
slack from the bond, by the pair-split kernel that absorbs a layer's gates
(``chains._update_pair``). A visit reads and writes only its own pair and
bond and the spectrum of the bond left of it, so the visits of one batch
are independent. A visit accepts only its own side's candidate, but marks
every side whose candidate would not shrink the bond as idle there. Visits
that cannot accept (an earlier visit found the same bond and side idle and
no swap touched its pair since) are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (
    SWAP_LEGS,
    MatrixProductOperator,
    _pair_blobs,
    _update_pair,
    _with_spectra,
    apply_swap_boundary,
    total_elements,
)
from .chains import move_center  # noqa: F401  unused; perfbench/run.py wraps this name
from .routing import QubitPermutation
from .tensor import check_cutoffs, singular_values, truncation_rank

_PARALLEL_CYCLE = (
    ("both", 0),
    ("both", 1),
    ("left", 0),
    ("left", 1),
    ("right", 0),
    ("right", 1),
)


@dataclass(frozen=True)
class UnswapResult:
    reduced: MatrixProductOperator
    left_perm: QubitPermutation
    right_perm: QubitPermutation
    accepted_swaps: int
    elements_before: int
    elements_after: int


def _pair_ranks(m: MatrixProductOperator, bond: int, epsilon: float,
                chi_max: int) -> tuple[int, dict[str, int]]:
    """Truncation ranks of the weighted (l, t1, b1, t2, b2, r) blob of sites
    (bond, bond+1) and of its swap candidate on each side, matricized
    between the (l, t1, b1) and (t2, b2, r) legs. A swap exchanges legs on
    either side of the bond and the weight sits on the left bond leg, so
    each candidate's transposed blob is the one its split would weight. The
    four blobs share one shape, so a single values-only SVD call over their
    stack yields every spectrum."""
    theta = _pair_blobs(m, [bond], None)[1][0]
    stack = np.stack([theta, *(theta.transpose(axes) for axes in SWAP_LEGS.values())])
    spectra = singular_values(stack.reshape(len(stack), 4 * theta.shape[0], -1))
    rank, *candidates = truncation_rank(spectra, epsilon, chi_max)
    return rank, dict(zip(SWAP_LEGS, candidates))


def _try_bond(m: MatrixProductOperator, bond: int, side: str, epsilon: float,
              chi_max: int) -> tuple[MatrixProductOperator, list[str]]:
    """Evaluate the swap candidates at one bond and accept the ``side`` one
    iff it shrinks the bond. Returns the chain after the visit and the sides
    whose candidates would not shrink the bond; ``side`` is among them iff
    nothing was accepted.

    The weighted pair blob's singular values are the bond's Schmidt values
    and each candidate's are those of the bond after that swap. One
    values-only SVD over the stack of the blob and its three candidates
    ranks them all, and only an accepted candidate is materialized. When
    the bond's rank is below its extent the bond is first re-truncated and
    the candidates ranked again against the re-split pair, so they are
    compared against an honest baseline rather than stale slack. A rank at
    or above the extent (at ``epsilon`` 0 rounding noise counts) leaves the
    bond as it is, so a visit never grows it.
    """
    rank, candidates = _pair_ranks(m, bond, epsilon, chi_max)
    if rank < m.sites[bond].shape[3]:
        m = _update_pair(m, bond, None, epsilon, chi_max)
        _, candidates = _pair_ranks(m, bond, epsilon, chi_max)
    extent = m.sites[bond].shape[3]
    stuck = [s for s, r in candidates.items() if r >= extent]
    if side not in stuck:
        m = apply_swap_boundary(m, bond, side, epsilon, chi_max)
    return m, stuck


def unswap(m: MatrixProductOperator, epsilon: float, chi_max: int,
           max_iterations: int = 20) -> UnswapResult:
    """Greedy extraction in parity batches: cycle through (both, left,
    right) x (even, odd) batches; within a batch all candidate pairs are
    disjoint, so their acceptance decisions are independent. A chain without
    spectra is made canonical first (``chains._with_spectra``). Terminates
    when a full cycle produces no bond reduction, or after
    ``max_iterations`` cycles.

    Every visit ranks all three sides' candidates, and one that accepts
    nothing marks each side whose candidate would not shrink the bond idle
    at it. A visit is skipped when its (bond, side) was marked idle and no
    swap has been accepted on either site of its pair since. A unitary
    wholly on one side of the cut changes neither the bond's spectrum nor
    the candidates', and only swaps at bonds b-1, b and b+1 touch the pair,
    so the skipped visit would again accept nothing. The swaps elsewhere
    also re-truncate their own bond, which shifts these spectra by at most
    the weight that truncation drops. So the decisions agree with those of
    a sweep that visits every (bond, side) of every batch only up to that
    weight: where truncation drops none they are the same, and at a cutoff
    that bites a shifted spectrum can cross it and the two can accept
    different swaps. Either way no bond grows, and each split drops at most
    ``epsilon**2`` of the squared weight of its pair's weighted blob.

    Applying a swap S on the top legs turns M into S.M, so the original
    factors as M = S.(S.M): the left permutation gains the swap (its own
    inverse) on the inside. Operator order fixes the composition direction:
    the left permutation composes new swaps on the right, the right
    permutation on the left.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    check_cutoffs(epsilon, chi_max)
    before = total_elements(m)
    m = _with_spectra(m)
    n = m.num_sites
    left = right = QubitPermutation.identity(n)
    accepted = 0
    visit = 0
    swapped = [0] * n  # visit of the last accepted swap on each site
    idle: dict[tuple[int, str], int] = {}  # last visit of (bond, side) that accepted nothing
    for _ in range(max_iterations):
        reduced_any = False
        for side, parity in _PARALLEL_CYCLE:
            for bond in range(parity, n - 1, 2):
                if idle.get((bond, side), 0) > max(swapped[bond], swapped[bond + 1]):
                    continue
                visit += 1
                dims_before = m.bond_dims()[bond]
                m, stuck = _try_bond(m, bond, side, epsilon, chi_max)
                if side in stuck:
                    for s in stuck:
                        idle[(bond, s)] = visit
                    continue
                tau = QubitPermutation.transposition(n, bond, bond + 1)
                if side in ("left", "both"):
                    left = left.compose(tau)
                if side in ("right", "both"):
                    right = tau.compose(right)
                accepted += 1
                swapped[bond] = swapped[bond + 1] = visit
                if m.bond_dims()[bond] < dims_before:
                    reduced_any = True
        if not reduced_any:
            break
    return UnswapResult(
        reduced=m,
        left_perm=left,
        right_perm=right,
        accepted_swaps=accepted,
        elements_before=before,
        elements_after=total_elements(m),
    )
