"""Greedy extraction of hidden permutations from an operator chain.

Swap obfuscation inflates bond dimensions without adding entanglement. This
module repeatedly tries nearest-neighbor SWAPs on the chain's outer legs and
keeps the ones that shrink the targeted bond, factoring the operator as

    input = P_left . reduced . P_right

where both factors are wire permutations. The sequential variant follows an
availability-set loop over bonds ranked by extent; the parity-parallel
variant sweeps batches of disjoint bonds per (side, parity) combination,
which tests floor(N/2) candidates per step instead of one.

A visit to a bond moves the center onto its pair and ranks the bond and its
swap candidates from one values-only SVD of their stacked blobs; a pair is
split again only for an accepted swap or to trim slack from the bond. The
parity-parallel variant also skips visits that cannot accept (the same
bond and side found nothing and no swap touched its pair since) and sweeps
each batch from the end nearer the center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (
    SWAP_LEGS,
    MatrixProductOperator,
    _bond_dot,
    _update_pair,
    apply_swap_boundary,
    move_center,
    total_elements,
)
from .routing import QubitPermutation
from .tensor import truncation_rank

# hard ceiling on candidate evaluations, well above the availability-set bound
_EVALUATION_SLACK = 16

_PARALLEL_CYCLE = (
    ("both", 0),
    ("both", 1),
    ("left", 0),
    ("left", 1),
    ("right", 0),
    ("right", 1),
)


@dataclass(frozen=True)
class UnswapConfig:
    epsilon: float
    chi_max: int
    acceptance: str = "strict"  # or "relaxed"
    strategy: str = "sequential"  # or "parity-parallel"
    max_outer_iterations: int = 20

    def __post_init__(self):
        if self.acceptance not in ("strict", "relaxed"):
            raise ValueError(f"acceptance must be strict or relaxed, got {self.acceptance!r}")
        if self.strategy not in ("sequential", "parity-parallel"):
            raise ValueError(
                f"strategy must be sequential or parity-parallel, got {self.strategy!r}"
            )
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")


@dataclass(frozen=True)
class UnswapResult:
    reduced: MatrixProductOperator
    left_perm: QubitPermutation
    right_perm: QubitPermutation
    accepted_swaps: int
    elements_before: int
    elements_after: int


class _Extraction:
    """Working state: the chain plus the accumulated outer permutations.

    Applying a swap S on the top legs turns M into S.M, so the original
    factors as M = S.(S.M): the left permutation gains the swap (its own
    inverse) on the inside. Operator order fixes the composition direction:
    the left permutation composes new swaps on the right, the right
    permutation on the left.
    """

    def __init__(self, m: MatrixProductOperator):
        self.m = m
        n = m.num_sites
        self.left = QubitPermutation.identity(n)
        self.right = QubitPermutation.identity(n)
        self.accepted = 0

    def accept(self, new_m: MatrixProductOperator, bond: int, side: str):
        n = self.m.num_sites
        tau = QubitPermutation.transposition(n, bond, bond + 1)
        if side in ("left", "both"):
            self.left = self.left.compose(tau)
        if side in ("right", "both"):
            self.right = tau.compose(self.right)
        self.m = new_m
        self.accepted += 1


def _pair_ranks(
    m: MatrixProductOperator, bond: int, sides: tuple[str, ...], cfg: UnswapConfig
) -> list[int]:
    """Truncation ranks of the (l, t1, b1, t2, b2, r) blob of sites (bond,
    bond+1) and of each side's swap candidate, matricized between the
    (l, t1, b1) and (t2, b2, r) legs. The blobs share one shape, so a single
    values-only SVD call over their stack yields every spectrum."""
    theta = _bond_dot(m.sites[bond], m.sites[bond + 1])
    stack = np.stack([theta] + [theta.transpose(SWAP_LEGS[side]) for side in sides])
    spectra = np.linalg.svd(stack.reshape(len(stack), 4 * theta.shape[0], -1), compute_uv=False)
    return truncation_rank(spectra, cfg.epsilon, cfg.chi_max)


def _try_bond(
    state: _Extraction,
    bond: int,
    sides: tuple[str, ...],
    cfg: UnswapConfig,
    seen_this_pass: set | None,
) -> bool:
    """Evaluate swap candidates at one bond and accept the best admissible
    one. Returns True on acceptance. Ties prefer fewer swapped sides (left
    or right over both) and left over right, in the order of ``sides``.

    The center moves onto the nearer site of the pair, so the pair blob's
    singular values are the bond's Schmidt values and each candidate's are
    those of the bond after its swap. One values-only SVD over the stack of
    the blob and the candidates ranks them all, and only an accepted
    candidate is materialized. When the bond's rank differs from its extent
    the bond is first re-truncated and the candidates ranked again against
    the re-split pair, so they are compared against an honest baseline
    rather than stale slack.
    """
    if seen_this_pass is not None:
        sides = tuple(side for side in sides if (bond, side) not in seen_this_pass)
    center = state.m.center
    m = move_center(state.m, bond + 1 if center is not None and center > bond else bond)
    baseline, *extents = _pair_ranks(m, bond, sides, cfg)
    if baseline != m.sites[bond].shape[3]:
        m = _update_pair(m, bond, None, cfg.epsilon, cfg.chi_max)
        baseline = m.sites[bond].shape[3]
        _, *extents = _pair_ranks(m, bond, sides, cfg)
    state.m = m
    if not sides:
        return False
    extent = min(extents)
    side = sides[extents.index(extent)]
    if extent < baseline or (cfg.acceptance == "relaxed" and extent == baseline):
        if seen_this_pass is not None:
            seen_this_pass.add((bond, side))
        # the center sits on the pair, so the swap is one split with no QR
        state.accept(apply_swap_boundary(m, bond, side, cfg.epsilon, cfg.chi_max), bond, side)
        return True
    return False


def unswap_sequential(m: MatrixProductOperator, cfg: UnswapConfig) -> UnswapResult:
    """Availability-set loop: pick the largest available bond (lowest index
    on ties), evaluate left/right/both swap candidates with local
    re-truncation, accept the best one iff it shrinks (strict) or does not
    grow (relaxed) that bond; acceptance re-enables the neighboring bonds.
    A pass ends when no bonds remain available; passes repeat until one
    accepts nothing or ``max_outer_iterations`` is reached.
    """
    state = _Extraction(m)
    before = total_elements(m)
    n = m.num_sites
    budget = cfg.max_outer_iterations * max(1, n - 1) * 3 * _EVALUATION_SLACK
    evaluations = 0
    for _ in range(cfg.max_outer_iterations):
        available = set(range(n - 1))
        seen = set() if cfg.acceptance == "relaxed" else None
        accepted_this_pass = 0
        while available:
            evaluations += 1
            if evaluations > budget:
                raise RuntimeError("unswap exceeded its evaluation budget")
            dims = state.m.bond_dims()
            bond = max(available, key=lambda i: (dims[i], -i))
            if _try_bond(state, bond, ("left", "right", "both"), cfg, seen):
                accepted_this_pass += 1
                available.discard(bond)
                if bond - 1 >= 0:
                    available.add(bond - 1)
                if bond + 1 <= n - 2:
                    available.add(bond + 1)
            else:
                available.discard(bond)
        if accepted_this_pass == 0:
            break
    return UnswapResult(
        reduced=state.m,
        left_perm=state.left,
        right_perm=state.right,
        accepted_swaps=state.accepted,
        elements_before=before,
        elements_after=total_elements(state.m),
    )


def unswap_parallel(m: MatrixProductOperator, cfg: UnswapConfig) -> UnswapResult:
    """Parity-batched variant: cycle through (both, left, right) x (even,
    odd) batches; within a batch all candidate pairs are disjoint, so their
    acceptance decisions are independent and each batch is swept from the
    end nearer the center, which then crosses the chain once per batch.
    Terminates when a full cycle produces no bond reduction, or after
    ``max_outer_iterations`` cycles.

    A visit is skipped when the same (bond, side) accepted nothing before
    and no swap has been accepted on either site of its pair since. A
    unitary wholly on one side of the cut changes neither the bond's
    spectrum nor the candidate's, and only swaps at bonds b-1, b and b+1
    touch the pair, so the skipped visit would again accept nothing. (The
    swaps elsewhere also re-truncate their own bond, which shifts these
    spectra by at most the weight that truncation drops.)
    """
    state = _Extraction(m)
    before = total_elements(m)
    n = m.num_sites
    visit = 0
    swapped = [0] * n  # visit of the last accepted swap on each site
    idle: dict[tuple[int, str], int] = {}  # last visit of (bond, side) that accepted nothing
    for _ in range(cfg.max_outer_iterations):
        reduced_any = False
        for side, parity in _PARALLEL_CYCLE:
            bonds = range(parity, n - 1, 2)
            if not bonds:
                continue
            center = state.m.center
            if center is not None and 2 * center > bonds[0] + bonds[-1]:
                bonds = reversed(bonds)
            for bond in bonds:
                if idle.get((bond, side), 0) > max(swapped[bond], swapped[bond + 1]):
                    continue
                visit += 1
                dims_before = state.m.bond_dims()[bond]
                if _try_bond(state, bond, (side,), cfg, None):
                    swapped[bond] = swapped[bond + 1] = visit
                    if state.m.bond_dims()[bond] < dims_before:
                        reduced_any = True
                else:
                    idle[(bond, side)] = visit
        if not reduced_any:
            break
    return UnswapResult(
        reduced=state.m,
        left_perm=state.left,
        right_perm=state.right,
        accepted_swaps=state.accepted,
        elements_before=before,
        elements_after=total_elements(state.m),
    )


def unswap(m: MatrixProductOperator, cfg: UnswapConfig) -> UnswapResult:
    if cfg.strategy == "sequential":
        return unswap_sequential(m, cfg)
    return unswap_parallel(m, cfg)
