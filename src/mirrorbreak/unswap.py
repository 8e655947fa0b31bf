"""Greedy extraction of hidden permutations from an operator chain.

Swap obfuscation inflates bond dimensions without adding entanglement. This
module repeatedly tries nearest-neighbor SWAPs on the chain's outer legs and
keeps the ones that shrink the targeted bond, factoring the operator as

    input = P_left . reduced . P_right

where both factors are wire permutations. ``unswap(m, epsilon, chi_max)`` is
one greedy function of the chain and the two truncation numbers, which
carries the chain, one list of accepted (side, bond) swaps and one idle set
as locals, and composes both permutations from the list at the end.
Candidates are tried in batches of disjoint bonds, one batch per (side,
parity) combination, so a step tests floor(N/2) candidates instead of one;
cycles repeat until one reduces no bond, at most ``MAX_CYCLES`` of them.

The chain keeps every bond's Schmidt values, so a visit to a bond needs no
center move: it ranks the bond and the swap candidates of all three sides
from one values-only SVD of the pair's weighted blob and its three swapped
transposes; a pair is split again only for an accepted swap or to trim
slack from the bond, by the pair-split kernel that absorbs a layer's gates
(``chains._update_pair``). A visit reads and writes only its own pair and
bond and the spectrum of the bond left of it, so the visits of one batch
are independent. A visit accepts only its own side's candidate, but adds
every (bond, side) whose candidate would not shrink the bond to the idle
set; an accepted swap at a bond removes the entries within one bond of it,
the ones whose pair it touched. A visit whose (bond, side) is idle is
skipped.
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

# a bound on the cycles of one call; measured calls never reach it (the
# smallest bound that gives each call's result is at most 3 on the
# hidden-perm benchmark set, 7 on 10- and 12-qubit generated instances)
MAX_CYCLES = 20

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


def unswap(m: MatrixProductOperator, epsilon: float, chi_max: int) -> UnswapResult:
    """Greedy extraction in parity batches: cycle through (both, left,
    right) x (even, odd) batches; within a batch all candidate pairs are
    disjoint, so their acceptance decisions are independent. A chain without
    spectra is made canonical first (``chains._with_spectra``). Terminates
    when a full cycle produces no bond reduction, or after ``MAX_CYCLES``
    cycles, a bound this module owns rather than its callers.

    Every visit ranks all three sides' candidates, and one that accepts
    nothing adds each (bond, side) whose candidate would not shrink the
    bond to the set ``idle``. A visit is skipped exactly when its (bond,
    side) is in the set. An accepted swap at bond b removes the entries at
    bonds b-1, b and b+1, whose pairs share a site with it. Only those
    swaps touch a pair, and a unitary wholly on one side of the cut changes
    neither the bond's spectrum nor the candidates', so a skipped visit
    would again accept nothing. The swaps elsewhere also re-truncate their
    own bond, which shifts these spectra by at most the weight that
    truncation drops. So the decisions agree with those of a sweep that
    visits every (bond, side) of every batch only up to that weight: where
    truncation drops none they are the same, and at a cutoff that bites a
    shifted spectrum can cross it and the two can accept different swaps.
    Either way no bond grows, and each split drops at most ``epsilon**2`` of
    the squared weight of its pair's weighted blob.

    Applying a swap S on the top legs turns M into S.M, so the original
    factors as M = S.(S.M): the left permutation gains the swap (its own
    inverse) on the inside, that is composed on its right. A swap on the
    bottom legs turns M into M.S, and the right permutation gains it on its
    left. So both permutations are composed once from the identity by
    ``QubitPermutation.swapped``, which composes on the right: the left one
    from the swaps that are not right-only, in order, the right one from
    those that are not left-only, in reverse order.
    """
    check_cutoffs(epsilon, chi_max)
    before = total_elements(m)
    m = _with_spectra(m)
    n = m.num_sites
    swaps: list[tuple[str, int]] = []  # accepted (side, bond), in order
    idle: set[tuple[int, str]] = set()  # (bond, side) pairs that cannot accept
    for _ in range(MAX_CYCLES):
        reduced_any = False
        for side, parity in _PARALLEL_CYCLE:
            for bond in range(parity, n - 1, 2):
                if (bond, side) in idle:
                    continue
                extent = m.sites[bond].shape[3]
                m, stuck = _try_bond(m, bond, side, epsilon, chi_max)
                if side in stuck:
                    idle.update((bond, s) for s in stuck)
                    continue
                swaps.append((side, bond))
                idle -= {(b, s) for b, s in idle if abs(b - bond) <= 1}
                reduced_any |= m.sites[bond].shape[3] < extent
        if not reduced_any:
            break
    identity = QubitPermutation.identity(n)
    return UnswapResult(
        reduced=m,
        left_perm=identity.swapped((b, b + 1) for s, b in swaps if s != "right"),
        right_perm=identity.swapped((b, b + 1) for s, b in reversed(swaps) if s != "left"),
        accepted_swaps=len(swaps),
        elements_before=before,
        elements_after=total_elements(m),
    )
