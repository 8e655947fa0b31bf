"""Tests for the truncated SVD."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorbreak.tensor import TruncatedSVD, ZeroTensorError, svd_truncate, truncation_rank

from .oracles import reference_truncation_rank


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------------------------------ #
# svd_truncate
# ------------------------------------------------------------------ #


class TestSvdTruncate:
    def test_identity_spectrum(self):
        dec = svd_truncate(np.eye(2, dtype=complex), split=1, epsilon=0.0, chi_max=4)
        np.testing.assert_allclose(dec.s, [1.0, 1.0])
        assert dec.discarded_weight == 0.0

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(7)
        u = rand_complex(rng, 5)
        v = rand_complex(rng, 7)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        t = np.outer(u, v)
        dec = svd_truncate(t, split=1, epsilon=1e-8, chi_max=10)
        assert dec.rank == 1

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(8)
        t = rand_complex(rng, (8, 8))
        dec = svd_truncate(t, split=1, epsilon=0.0, chi_max=8)
        recon = dec.u @ np.diag(dec.s) @ dec.v
        assert np.linalg.norm(recon - t) <= 1e-10 * np.linalg.norm(t)

    def test_isometry_conditions(self):
        rng = np.random.default_rng(9)
        t = rand_complex(rng, (4, 3, 5))
        dec = svd_truncate(t, split=2, epsilon=0.0, chi_max=100)
        r = dec.rank
        np.testing.assert_allclose(dec.u.conj().T @ dec.u, np.eye(r), atol=1e-10)
        np.testing.assert_allclose(dec.v @ dec.v.conj().T, np.eye(r), atol=1e-10)

    def test_descending_spectrum(self):
        rng = np.random.default_rng(10)
        t = rand_complex(rng, (6, 6))
        dec = svd_truncate(t, split=1, epsilon=0.0, chi_max=6)
        assert np.all(np.diff(dec.s) <= 1e-12)
        assert np.all(dec.s >= 0)

    def test_chi_max_cap(self):
        rng = np.random.default_rng(12)
        t = rand_complex(rng, (8, 8))
        dec = svd_truncate(t, split=1, epsilon=0.0, chi_max=3)
        assert dec.rank == 3

    def test_discarded_weight_is_exact(self):
        rng = np.random.default_rng(13)
        t = rand_complex(rng, (6, 6))
        s_all = np.linalg.svd(t, compute_uv=False)
        dec = svd_truncate(t, split=1, epsilon=0.0, chi_max=2)
        expected = float((s_all[2:] ** 2).sum() / (s_all**2).sum())
        assert dec.discarded_weight == pytest.approx(expected, rel=1e-12)

    def test_discarded_weight_monotone_in_epsilon(self):
        rng = np.random.default_rng(14)
        t = rand_complex(rng, (7, 7))
        weights = [
            svd_truncate(t, split=1, epsilon=e, chi_max=7).discarded_weight
            for e in (0.0, 1e-6, 1e-3, 1e-1, 0.5)
        ]
        assert all(w1 >= w0 for w0, w1 in zip(weights, weights[1:]))

    def test_epsilon_bound_respected(self):
        rng = np.random.default_rng(15)
        t = rand_complex(rng, (9, 9))
        eps = 1e-2
        dec = svd_truncate(t, split=1, epsilon=eps, chi_max=9)
        assert dec.discarded_weight <= eps**2

    def test_degenerate_ties_kept_together(self):
        # spectrum with an exactly degenerate pair straddling the cut
        s = np.array([1.0, 0.5, 0.5, 1e-9])
        u = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))[0]
        v = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))[0]
        t = (u * s) @ v
        # epsilon chosen so the minimal rank lands between the two 0.5s
        eps = np.sqrt((0.5**2 + 1e-18) / (s**2).sum()) * 1.001
        dec = svd_truncate(t, split=1, epsilon=float(eps), chi_max=4)
        assert dec.rank == 3  # both 0.5 values kept together

    def test_zero_tensor_raises(self):
        with pytest.raises(ZeroTensorError):
            svd_truncate(np.zeros((3, 3), dtype=complex), split=1, epsilon=0.0, chi_max=3)

    @pytest.mark.parametrize("chi_max, rank, discarded", [(8, 3, 0.0), (1, 1, 5 / 14)])
    def test_underflowing_spectrum_has_a_finite_discarded_weight(self, chi_max, rank,
                                                                  discarded):
        # every squared singular value underflows to 0, so the weight is
        # taken relative to the largest value instead of 0/0
        t = np.diag([3e-170, 2e-170, 1e-170]).astype(complex)
        with np.errstate(invalid="raise", divide="raise"):
            dec = svd_truncate(t, 1, 1e-3, chi_max)
        assert dec.rank == rank
        assert dec.discarded_weight == pytest.approx(discarded, rel=1e-12)

    def test_bad_split_raises(self):
        t = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            svd_truncate(t, split=0, epsilon=0.0, chi_max=2)
        with pytest.raises(ValueError):
            svd_truncate(t, split=2, epsilon=0.0, chi_max=2)

    def test_non_finite_raises(self):
        t = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            svd_truncate(t, split=1, epsilon=0.0, chi_max=2)

    def test_result_type(self):
        dec = svd_truncate(np.eye(2, dtype=complex), split=1, epsilon=0.0, chi_max=2)
        assert isinstance(dec, TruncatedSVD)


# ------------------------------------------------------------------ #
# truncation_rank
# ------------------------------------------------------------------ #


class TestTruncationRank:
    @pytest.mark.parametrize("epsilon", [0.0, 1e-8, 1e-3, 0.3])
    def test_stack_equals_rows(self, epsilon):
        rng = np.random.default_rng(16)
        # geometrically decaying spectra so the cutoff falls inside each row
        stack = rand_complex(rng, (5, 8, 8)) * np.logspace(0, -6, 8)[None, None, :]
        spectra = np.linalg.svd(stack, compute_uv=False)
        ranks = truncation_rank(spectra, epsilon, 6)
        assert ranks == [truncation_rank(row, epsilon, 6) for row in spectra]
        assert all(type(r) is int for r in ranks)

    def test_stack_matches_svd_truncate(self):
        rng = np.random.default_rng(17)
        stack = rand_complex(rng, (4, 6, 6)) * np.logspace(0, -9, 6)[None, None, :]
        ranks = truncation_rank(np.linalg.svd(stack, compute_uv=False), 1e-4, 6)
        assert ranks == [svd_truncate(t, split=1, epsilon=1e-4, chi_max=6).rank
                         for t in stack]

    def test_degenerate_pair_at_cut_kept_whole(self):
        s = np.array([1.0, 0.5, 0.5, 1e-9])
        # the minimal rank lands between the two 0.5s
        eps = float(np.sqrt((0.5**2 + 1e-18) / (s**2).sum()) * 1.001)
        assert truncation_rank(s, eps, 4) == 3
        assert truncation_rank(np.stack([s, s]), eps, 4) == [3, 3]
        assert truncation_rank(s, eps, 2) == 2  # the cap still wins

    def test_zero_tail_dropped(self):
        s = np.array([1.0, 0.3, 0.0, 0.0])
        assert truncation_rank(s, 0.0, 4) == 2
        assert truncation_rank(s, 1e-8, 4) == 2

    def test_zero_epsilon_keeps_every_nonzero_value(self):
        s = np.array([1.0, 0.5, 1e-20])
        assert truncation_rank(s, 0.0, 8) == 3

    def test_chi_max_cap(self):
        s = np.linspace(1.0, 0.1, 6)
        assert truncation_rank(s, 0.0, 4) == 4
        assert truncation_rank(np.stack([s, s]), 0.0, 2) == [2, 2]

    def test_keeps_at_least_one(self):
        assert truncation_rank(np.array([1.0, 0.9]), 1.0, 4) == 1

    def test_single_spectrum_returns_plain_int(self):
        r = truncation_rank(np.array([1.0, 0.5]), 1e-8, 4)
        assert type(r) is int and r == 2


# ------------------------------------------------------------------ #
# ranks against the reference scan
# ------------------------------------------------------------------ #

# gaps between neighbours: exact ties, ties within TIE_TOLERANCE, ties just
# outside it, and ordinary gaps
GAPS = st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 1e-11]) | st.floats(0.0, 1.0)


@st.composite
def descending_spectrum(draw, m: int) -> np.ndarray:
    """A descending spectrum of length ``m`` with a positive largest value:
    values from 1e2 down to 1e-300, near and exact ties, zero tails."""
    values = [draw(st.floats(1e-300, 1e2))]
    for _ in range(m - 1):
        if draw(st.booleans()):
            values.append(values[-1] - draw(GAPS))
        else:
            values.append(draw(st.floats(1e-300, 1e2) | st.just(0.0)))
    s = np.sort(np.maximum(values, 0.0))[::-1].copy()
    zeros = draw(st.integers(0, m - 1))  # a zero tail
    s[m - zeros:] = 0.0
    return s


@st.composite
def ranking_cases(draw):
    """A (k, m) stack of descending spectra, an epsilon and a chi_max. The
    epsilon is often one whose budget lands on the weight of a tail of the
    first row, or one ulp either side of it, so the cut falls on a
    boundary."""
    m = draw(st.integers(1, 12))
    stack = np.stack([draw(descending_spectrum(m)) for _ in range(draw(st.integers(1, 4)))])
    weights = stack[0] * stack[0]
    total = float(weights.sum())
    tail = float(np.concatenate([[0.0], np.cumsum(weights[::-1])])[draw(st.integers(0, m))])
    at_cut = math.sqrt(tail / total) if total > 0 else 0.0
    epsilon = draw(st.sampled_from([0.0, at_cut, math.nextafter(at_cut, 0.0),
                                    math.nextafter(at_cut, 1.0)])
                   | st.floats(0.0, 1.5) | st.floats(1e-300, 1e-6))
    return stack, epsilon, draw(st.integers(1, m + 1))


# Eight values whose total summed pairwise (as numpy sums 8 or more) is
# below their left-to-right sum in either direction. This epsilon's budget
# covers the weight of the three smallest values only when taken from a
# left-to-right total, so a rank computed from one is caught.
PAIRWISE_TOTAL = (np.array([[0.864, 0.553, 0.492, 0.447, 0.279, 0.258, 0.106, 0.057]] * 2),
                  0.2214259267003994, 8)


def split_with_spectrum(s: np.ndarray, epsilon: float, chi_max: int) -> TruncatedSVD:
    """``svd_truncate`` of a tensor whose SVD returns exactly the spectrum ``s``."""
    eye = np.eye(len(s), dtype=np.complex128)
    with mock.patch.object(np.linalg, "svd", return_value=(eye, s, eye)):
        return svd_truncate(np.ones((len(s), len(s)), dtype=np.complex128), 1, epsilon, chi_max)


class TestRankAgainstReference:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=ranking_cases())
    @example(case=PAIRWISE_TOTAL)
    def test_rank_and_discarded_weight_match_reference(self, case):
        stack, epsilon, chi_max = case
        expected = [reference_truncation_rank(row, epsilon, chi_max) for row in stack]
        assert truncation_rank(stack, epsilon, chi_max) == expected
        for row, r in zip(stack, expected):
            rank = truncation_rank(row, epsilon, chi_max)
            assert type(rank) is int and rank == r
            weights = row * row
            if weights.sum() == 0.0:
                # every square underflows: weights relative to the largest value
                weights = (row / row[0]) ** 2
            dec = split_with_spectrum(row, epsilon, chi_max)
            assert dec.rank == r
            assert dec.discarded_weight == float(weights[r:].sum() / float(weights.sum()))
