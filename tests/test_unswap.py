"""Tests for greedy permutation extraction."""

import importlib
import itertools
import math

import numpy as np
import pytest

from mirrorbreak.chains import (
    MatrixProductOperator,
    absorb_gate,
    compress,
    identity_mpo,
    mpo_to_dense,
    total_elements,
)
from mirrorbreak.circuit import Gate
from mirrorbreak.oracle import permutation_unitary
from mirrorbreak.routing import QubitPermutation
from mirrorbreak.tensor import SvdConvergenceError, truncation_rank
from mirrorbreak.unswap import UnswapResult, _pair_ranks, unswap

from .oracles import operator_spectrum, random_circuit, two_svd_unswap_parallel, weak_brickwork

EPSILON, CHI_MAX = 1e-10, 4096


def permutation_mpo(perm: QubitPermutation, side: str = "left"):
    """Chain for a wire permutation, built by absorbing its adjacent swap
    factorization from one side."""
    n = perm.size
    m = identity_mpo(n)
    swaps = perm.factorization
    # gates in time order t1..tk give the operator P(tk)...P(t1) = P(perm);
    # absorbing from the left needs tk absorbed first so it lands outermost
    order = reversed(swaps) if side == "left" else swaps
    for i, j in order:
        m = absorb_gate(m, Gate("swap", (i, j)), side, 1e-12, 4096)
    return compress(m, 1e-12, 4096)


def random_chain(seed: int):
    """Compressed chain of a random 4-qubit circuit, which has little
    permutation content."""
    rng = np.random.default_rng(1800 + seed)
    c = random_circuit(4, 10, rng, adjacent_only=True)
    m = identity_mpo(4)
    for g in c.gates:
        m = absorb_gate(m, g, "left", 1e-12, 4096)
    return compress(m, 1e-12, 4096)


def assert_same_decisions(res: UnswapResult, ref: UnswapResult, m) -> None:
    assert res.accepted_swaps == ref.accepted_swaps
    assert res.left_perm == ref.left_perm
    assert res.right_perm == ref.right_perm
    assert res.reduced.bond_dims() == ref.reduced.bond_dims()
    assert reconstruction_error(res, m) <= 1e-10


def reconstruction_error(res: UnswapResult, original) -> float:
    lhs = (
        permutation_unitary(res.left_perm.mapping)
        @ mpo_to_dense(res.reduced)
        @ permutation_unitary(res.right_perm.mapping)
    )
    rhs = mpo_to_dense(original)
    return float(np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            unswap(identity_mpo(2), 0.0, 4, max_iterations=0)


class TestSequential:
    """Extraction properties on whole chains (the class is named for the
    sequential bond loop they were first written against)."""

    def test_identity_accepts_nothing(self):
        res = unswap(identity_mpo(4), EPSILON, CHI_MAX)
        assert res.accepted_swaps == 0
        assert res.left_perm.is_identity()
        assert res.right_perm.is_identity()
        assert res.elements_after == res.elements_before

    def test_single_swap_extracted(self):
        m = absorb_gate(identity_mpo(2), Gate("swap", (0, 1)), "left", 1e-12, 64)
        res = unswap(m, EPSILON, CHI_MAX)
        assert res.accepted_swaps >= 1
        assert res.reduced.bond_dims() == (1,)
        assert reconstruction_error(res, m) <= 1e-10
        combined = res.left_perm.compose(res.right_perm)
        assert combined.mapping == (1, 0)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_permutations_reduce_to_bond_one(self, seed):
        rng = np.random.default_rng(1700 + seed)
        perm = QubitPermutation(tuple(int(x) for x in rng.permutation(5)))
        m = permutation_mpo(perm)
        res = unswap(m, EPSILON, CHI_MAX)
        assert all(d == 1 for d in res.reduced.bond_dims())
        assert reconstruction_error(res, m) <= 1e-10

    def test_strict_mode_never_grows_elements(self):
        rng = np.random.default_rng(9)
        perm = QubitPermutation(tuple(int(x) for x in rng.permutation(6)))
        m = permutation_mpo(perm)
        res = unswap(m, EPSILON, CHI_MAX)
        assert res.elements_after <= res.elements_before

    def test_never_grows_elements_at_zero_epsilon(self):
        # at epsilon 0 every rounding-noise singular value counts, so a pair's
        # rank can exceed its bond's extent; re-splitting there would grow it
        m = permutation_mpo(QubitPermutation((3, 5, 0, 4, 1, 2)))
        res = unswap(m, 0.0, 4096)
        assert res.elements_after <= res.elements_before
        assert reconstruction_error(res, m) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_soundness_on_structureless_operators(self, seed):
        # random circuit chains have little permutation content; the
        # decomposition must stay sound regardless of reduction achieved
        m = random_chain(seed)
        res = unswap(m, EPSILON, CHI_MAX)
        assert reconstruction_error(res, m) <= 1e-8


class TestParallel:
    def test_identity_terminates_after_one_cycle(self):
        res = unswap(identity_mpo(5), EPSILON, CHI_MAX)
        assert res.accepted_swaps == 0

    def test_disjoint_swaps_extracted_together(self):
        m = identity_mpo(4)
        # operator SWAP(0,1) . SWAP(2,3) absorbed from the left
        m = absorb_gate(m, Gate("swap", (0, 1)), "left", 1e-12, 64)
        m = absorb_gate(m, Gate("swap", (2, 3)), "left", 1e-12, 64)
        m = compress(m, 1e-12, 64)
        res = unswap(m, EPSILON, CHI_MAX)
        assert all(d == 1 for d in res.reduced.bond_dims())
        assert reconstruction_error(res, m) <= 1e-10

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_sequential_on_permutations(self, seed):
        # every permutation chain reduces to bond 1, with the reference's
        # decisions
        rng = np.random.default_rng(1900 + seed)
        n = int(rng.integers(3, 7))
        perm = QubitPermutation(tuple(int(x) for x in rng.permutation(n)))
        m = permutation_mpo(perm)
        res = unswap(m, EPSILON, CHI_MAX)
        assert all(d == 1 for d in res.reduced.bond_dims())
        assert reconstruction_error(res, m) <= 1e-10
        assert_same_decisions(res, two_svd_unswap_parallel(m, EPSILON, CHI_MAX), m)


class TestParallelAgainstTwoSvdReference:
    """The one-SVD visit and the idle-revisit skip change no decision of
    ``unswap`` (the permutation chains of
    ``test_agrees_with_sequential_on_permutations`` are checked there)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_circuit_chains(self, seed):
        m = random_chain(seed)
        assert_same_decisions(unswap(m, EPSILON, CHI_MAX), two_svd_unswap_parallel(m, EPSILON, CHI_MAX), m)

    def test_idle_revisits_are_skipped(self, monkeypatch):
        # each visit ranks its candidates once; the reference visits every
        # (bond, side) of every cycle
        visits = {"skipping": 0, "reference": 0}

        def counted(key, rank):
            def wrapped(*args):
                visits[key] += 1
                return rank(*args)
            return wrapped

        unswap_module = importlib.import_module("mirrorbreak.unswap")
        tensor_module = importlib.import_module("mirrorbreak.tensor")
        monkeypatch.setattr(unswap_module, "truncation_rank",
                            counted("skipping", unswap_module.truncation_rank))
        monkeypatch.setattr(tensor_module, "truncation_rank",
                            counted("reference", tensor_module.truncation_rank))
        perm = QubitPermutation((3, 5, 0, 4, 1, 2))
        m = permutation_mpo(perm)
        assert_same_decisions(unswap(m, EPSILON, CHI_MAX), two_svd_unswap_parallel(m, EPSILON, CHI_MAX), m)
        assert visits["skipping"] < visits["reference"]

    def test_one_visit_per_bond_when_no_side_shrinks(self, monkeypatch):
        # the first visit of each bond ranks all three sides and marks the
        # sides that cannot shrink it idle, so no later visit runs
        ranked = []
        unswap_module = importlib.import_module("mirrorbreak.unswap")
        rank = unswap_module.truncation_rank
        monkeypatch.setattr(unswap_module, "truncation_rank",
                            lambda *args: ranked.append(args) or rank(*args))
        res = unswap(identity_mpo(6), EPSILON, CHI_MAX)
        assert res.accepted_swaps == 0
        assert len(ranked) == 5

    def test_padded_bond_retruncated_without_a_swap(self, monkeypatch):
        # bond 0 of the canonical identity padded with two zero Schmidt
        # values: site 0 gains zero columns and site 1 orthonormal rows, so
        # the chain stays canonical, no swap helps, and the visit must
        # still trim the slack
        m = identity_mpo(3)
        pad = np.zeros((1, 2, 2, 3), dtype=np.complex128)
        pad[..., :1] = m.sites[0]
        right = np.zeros((3, 2, 2, 1), dtype=np.complex128)
        right[:1] = m.sites[1]
        right[1, 0, 1, 0] = right[2, 1, 0, 0] = 1.0
        spectra = (np.array([m.spectra[0][0], 0.0, 0.0]), m.spectra[1])
        padded = MatrixProductOperator._derived((pad, right, m.sites[2]), 0.0, 0, 3, spectra)
        resplits = []
        unswap_module = importlib.import_module("mirrorbreak.unswap")
        update = unswap_module._update_pair
        monkeypatch.setattr(unswap_module, "_update_pair",
                            lambda m, bond, *args: resplits.append(bond) or update(m, bond, *args))
        res = unswap(padded, EPSILON, CHI_MAX)
        assert padded.bond_dims() == (3, 1)
        assert resplits == [0]
        assert res.accepted_swaps == 0
        assert res.reduced.bond_dims() == (1, 1)
        assert reconstruction_error(res, padded) <= 1e-12
        assert_same_decisions(res, two_svd_unswap_parallel(padded, EPSILON, CHI_MAX), padded)
        # without spectra, the same slack (under rows of ones) goes with the
        # exact canonicalization that comes first
        ones = right.copy()
        ones[1:] = 1.0
        raw = MatrixProductOperator((pad, ones, m.sites[2]))
        res = unswap(raw, EPSILON, CHI_MAX)
        assert res.accepted_swaps == 0
        assert res.reduced.bond_dims() == (1, 1)
        assert reconstruction_error(res, raw) <= 1e-12

    @pytest.mark.parametrize("sites", [1, 2])
    def test_short_chains_run_both_parities(self, sites):
        m = identity_mpo(sites)
        if sites == 2:
            m = absorb_gate(m, Gate("swap", (0, 1)), "left", 1e-12, 64)
        res = unswap(m, EPSILON, CHI_MAX)
        assert_same_decisions(res, two_svd_unswap_parallel(m, EPSILON, CHI_MAX), m)
        assert all(d == 1 for d in res.reduced.bond_dims())


class TestCutoffThatBites:
    """At epsilon 2e-2 on weak brickwork chains with three adjacent swaps
    absorbed on top, the decisions of ``unswap`` can differ from those of
    ``two_svd_unswap_parallel`` (4 of these 20 seeds give other swaps,
    permutations or bonds): a split at one bond shifts the spectra another
    visit reads by up to the weight it drops. What holds regardless is
    pinned here.

    The bound on the reconstruction: a split drops a share w <= epsilon**2
    of the squared weight of its pair's weighted blob, whose Frobenius norm
    is the operator's in the canonical form, so it moves the operator by
    sqrt(w) of its norm; swaps are unitary and change no norm, and
    truncation only lowers it. By the triangle inequality
    ||M - P_left . reduced . P_right||_F <= sum_k sqrt(w_k) ||M||_F, which is
    at most (number of splits) * epsilon. The form is canonical only up to
    the weight earlier splits dropped, so this holds to first order; the
    measured errors are 0.31-0.69 of the bound (at most 0.046 against 0.17).
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_valid_unswap_within_the_dropped_weight(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n, epsilon = 6, 2e-2
        m = identity_mpo(n)
        for g in weak_brickwork(n, 6, rng):
            m = absorb_gate(m, g, "left", 1e-12, CHI_MAX)
        for b in rng.integers(n - 1, size=3):
            m = absorb_gate(m, Gate("swap", (int(b), int(b) + 1)), "left", 1e-12, CHI_MAX)
        # each split's dropped share of its weighted blob's squared weight,
        # read from the spectra and kept ranks of the pair-split kernel
        dropped = []
        chains_module = importlib.import_module("mirrorbreak.chains")
        rank = chains_module.truncation_rank

        def recording(s, *args):
            ranks = rank(s, *args)
            dropped.extend(float(w[r:].sum() / w.sum()) for w, r in zip(s * s, ranks))
            return ranks

        monkeypatch.setattr(chains_module, "truncation_rank", recording)
        res = unswap(m, epsilon, CHI_MAX)
        assert max(dropped) > 0  # the cutoff bites
        assert max(dropped) <= epsilon ** 2
        for perm in (res.left_perm, res.right_perm):
            assert sorted(perm.mapping) == list(range(n))
        assert all(a <= b for a, b in zip(res.reduced.bond_dims(), m.bond_dims()))
        rhs = mpo_to_dense(m)
        lhs = (permutation_unitary(res.left_perm.mapping) @ mpo_to_dense(res.reduced)
               @ permutation_unitary(res.right_perm.mapping))
        error = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert error <= sum(math.sqrt(w) for w in dropped) <= len(dropped) * epsilon


class TestPairRanks:
    @pytest.mark.parametrize("seed", range(3))
    def test_ranks_are_those_of_the_swapped_operator(self, seed):
        # at a cutoff that bites, each rank a visit reads must be that of the
        # bond's Schmidt spectrum: the operator's after the candidate swap
        rng = np.random.default_rng(1950 + seed)
        n, epsilon = 6, 2e-2
        m = identity_mpo(n)
        for g in weak_brickwork(n, 6, rng):
            m = absorb_gate(m, g, "left", 1e-12, 4096)
        dense = mpo_to_dense(m)
        trimmed = 0
        for bond in range(n - 1):
            swap = permutation_unitary(QubitPermutation.transposition(n, bond, bond + 1).mapping)
            swapped = {"left": swap @ dense, "right": dense @ swap, "both": swap @ dense @ swap}
            rank, candidates = _pair_ranks(m, bond, epsilon, 4096)
            assert rank == truncation_rank(operator_spectrum(dense, bond), epsilon, 4096)
            for side, u in swapped.items():
                assert candidates[side] == truncation_rank(operator_spectrum(u, bond), epsilon,
                                                           4096), side
            trimmed += rank < m.bond_dims()[bond]
        assert trimmed  # the cutoff bites


class TestPermutationCompleteness:
    def test_exhaustive_n4_both_sides(self):
        for mapping in itertools.permutations(range(4)):
            perm = QubitPermutation(mapping)
            for side in ("left", "right"):
                m = permutation_mpo(perm, side)
                res = unswap(m, EPSILON, CHI_MAX)
                assert all(d == 1 for d in res.reduced.bond_dims()), (mapping, side)
                assert reconstruction_error(res, m) <= 1e-10


class TestElementAccounting:
    def test_counts_reported(self):
        m = absorb_gate(identity_mpo(2), Gate("swap", (0, 1)), "left", 1e-12, 64)
        res = unswap(m, EPSILON, CHI_MAX)
        assert res.elements_before == total_elements(m)
        assert res.elements_after == total_elements(res.reduced)
        assert res.elements_after < res.elements_before


class TestSvdFailure:
    def test_stacked_spectra_retry_once_then_raise(self, monkeypatch):
        calls = []

        def always_fails(a, *args, **kwargs):
            calls.append((a.shape, kwargs.get("compute_uv", True)))
            raise np.linalg.LinAlgError("synthetic non-convergence")

        m = absorb_gate(identity_mpo(2), Gate("swap", (0, 1)), "left", 1e-12, 64)
        monkeypatch.setattr(np.linalg, "svd", always_fails)
        with pytest.raises(SvdConvergenceError):
            unswap(m, EPSILON, CHI_MAX)
        # the blob and its three candidates in one values-only call, then
        # one retry
        assert calls == [((4, 4, 4), False)] * 2

    def test_one_failure_is_retried(self, monkeypatch):
        m = absorb_gate(identity_mpo(3), Gate("swap", (1, 2)), "left", 1e-12, 64)
        expected = unswap(m, EPSILON, CHI_MAX)
        real_svd = np.linalg.svd
        failed = []

        def fails_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise np.linalg.LinAlgError("synthetic non-convergence")
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        res = unswap(m, EPSILON, CHI_MAX)
        assert failed
        assert res.accepted_swaps == expected.accepted_swaps
        assert res.reduced.bond_dims() == expected.reduced.bond_dims() == (1, 1)
        assert reconstruction_error(res, m) <= 1e-10
