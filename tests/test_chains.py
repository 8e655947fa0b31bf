"""Dense-equivalence tests for the operator/state chains."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbreak import chains
from mirrorbreak.chains import (
    MatrixProductOperator,
    MatrixProductState,
    _bond_dot,
    _orthogonalize,
    _sample_bits,
    absorb_gate,
    apply_swap_boundary,
    apply_to_zero,
    compress,
    identity_mpo,
    move_center,
    mpo_to_dense,
    mps_to_dense,
    sample,
    split_layer,
    total_elements,
    write_layer,
)
from mirrorbreak.circuit import Circuit, Gate, gate_unitary, inverse_circuit
from mirrorbreak.tensor import SvdConvergenceError, ZeroTensorError, svd_truncate
from mirrorbreak.oracle import bits_to_index, simulate, tvd, unitary
from mirrorbreak.unswap import unswap

from .oracles import (
    operator_schmidt_rank,
    operator_spectrum,
    per_gate_absorb,
    per_shot_sample_bits,
    random_circuit,
    single_pair_split,
    state_spectrum,
    weak_brickwork,
)

EXACT = 1e-12  # epsilon for effectively exact truncation


def embed(g: Gate, n: int) -> np.ndarray:
    return unitary(Circuit(n, (g,)))


def absorb_circuit(m, circuit, side, epsilon=EXACT, chi_max=10**9):
    """Absorb a whole circuit; from the right the gates go in reverse
    program order so the result is M . U(circuit)."""
    gates = circuit.gates if side == "left" else tuple(reversed(circuit.gates))
    for g in gates:
        m = absorb_gate(m, g, side, epsilon, chi_max)
    return m


class TestIdentityMpo:
    def test_single_site_tensor(self):
        m = identity_mpo(1)
        np.testing.assert_array_equal(m.sites[0].reshape(2, 2), np.eye(2))

    def test_dense_is_identity(self):
        np.testing.assert_allclose(mpo_to_dense(identity_mpo(3)), np.eye(8), atol=1e-15)

    def test_total_elements_formula(self):
        assert total_elements(identity_mpo(3)) == 12
        assert total_elements(identity_mpo(56)) == 224

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            identity_mpo(0)


class TestAbsorbGate:
    def test_single_qubit_left_is_g_times_m(self):
        g = Gate("h", (1,))
        m = absorb_gate(identity_mpo(3), g, "left", EXACT, 64)
        np.testing.assert_allclose(mpo_to_dense(m), embed(g, 3), atol=1e-12)

    def test_single_qubit_right_is_m_times_g(self):
        rng = np.random.default_rng(0)
        base = random_circuit(3, 3, rng, adjacent_only=True)
        m = absorb_circuit(identity_mpo(3), base, "left")
        g = Gate("rx", (2,), (0.7,))
        m2 = absorb_gate(m, g, "right", EXACT, 64)
        np.testing.assert_allclose(
            mpo_to_dense(m2), mpo_to_dense(m) @ embed(g, 3), atol=1e-12
        )

    def test_swap_absorption_matches_operator_schmidt_rank(self):
        # brute-force: SWAP has operator Schmidt rank 4 across its cut, so
        # the bond after an exact absorb into the identity must be 4
        swap_u = gate_unitary(Gate("swap", (0, 1)))
        assert operator_schmidt_rank(swap_u) == 4
        m = absorb_gate(identity_mpo(2), Gate("swap", (0, 1)), "left", EXACT, 64)
        assert m.bond_dims() == (4,)
        np.testing.assert_allclose(mpo_to_dense(m), swap_u, atol=1e-12)

    def test_rzz_zero_is_identity(self):
        m = absorb_gate(identity_mpo(2), Gate("rzz", (0, 1), (0.0,)), "left", EXACT, 64)
        np.testing.assert_allclose(mpo_to_dense(m), np.eye(4), atol=1e-12)

    def test_gate_then_inverse_from_left_cancels(self):
        for seed in range(5):
            c = random_circuit(2, 1, np.random.default_rng(40 + seed), adjacent_only=True)
            g = c.gates[-1]
            m = identity_mpo(2)
            m = absorb_gate(m, g, "left", EXACT, 64)
            from mirrorbreak.circuit import inverse_gate

            m = absorb_gate(m, inverse_gate(g), "left", EXACT, 64)
            m = compress(m, 1e-10, 64)
            assert m.bond_dims() == (1,)
            np.testing.assert_allclose(mpo_to_dense(m), np.eye(4), atol=1e-10)

    def test_bond_growth_bounded_by_four_per_gate(self):
        m = identity_mpo(4)
        for seed in range(8):
            c = random_circuit(4, 1, np.random.default_rng(80 + seed), adjacent_only=True)
            g = c.gates[-1]
            if not g.is_two_qubit:
                continue
            before = m.bond_dims()[min(g.qubits)]
            m = absorb_gate(m, g, "left", EXACT, 10**9)
            after = m.bond_dims()[min(g.qubits)]
            assert after <= 4 * before

    def test_non_adjacent_gate_rejected(self):
        with pytest.raises(ValueError, match="non-adjacent"):
            absorb_gate(identity_mpo(3), Gate("cx", (0, 2)), "left", EXACT, 64)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            absorb_gate(identity_mpo(2), Gate("h", (0,)), "top", EXACT, 64)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_equivalence_random_circuits(self, side, seed):
        rng = np.random.default_rng(1200 + seed)
        n = 4
        c = random_circuit(n, 8, rng, adjacent_only=True)
        m = absorb_circuit(identity_mpo(n), c, side)
        expected = unitary(c)  # both orders equal U(c) against the identity
        np.testing.assert_allclose(mpo_to_dense(m), expected, atol=1e-10)

    def test_interleaved_left_right_ordering(self):
        # left gates multiply on the output side, right gates on the input
        n = 3
        a = random_circuit(n, 3, np.random.default_rng(90), adjacent_only=True)
        b = random_circuit(n, 3, np.random.default_rng(91), adjacent_only=True)
        m = identity_mpo(n)
        m = absorb_circuit(m, a, "right")
        m = absorb_circuit(m, b, "left")
        np.testing.assert_allclose(mpo_to_dense(m), unitary(b) @ unitary(a), atol=1e-10)


class TestCompress:
    def test_identity_stays_bond_one(self):
        m = compress(identity_mpo(4), 1e-10, 64)
        assert m.bond_dims() == (1, 1, 1)
        np.testing.assert_allclose(mpo_to_dense(m), np.eye(16), atol=1e-12)

    def test_mirror_pair_recompresses_to_identity(self):
        rng = np.random.default_rng(4)
        n = 4
        c = random_circuit(n, 6, rng, adjacent_only=True)
        m = identity_mpo(n)
        m = absorb_circuit(m, c, "left")
        m = absorb_circuit(m, inverse_circuit(c), "left")
        m = compress(m, 1e-10, 10**9)
        assert m.bond_dims() == (1, 1, 1)
        np.testing.assert_allclose(mpo_to_dense(m), np.eye(2**n), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_lossless_compress_preserves_operator(self, seed):
        rng = np.random.default_rng(1300 + seed)
        c = random_circuit(4, 7, rng, adjacent_only=True)
        m = absorb_circuit(identity_mpo(4), c, "left")
        dense_before = mpo_to_dense(m)
        m2 = compress(m, 0.0, 10**9)
        np.testing.assert_allclose(
            mpo_to_dense(m2), dense_before, atol=1e-10 * np.abs(dense_before).max()
        )

    def test_canonical_form_after_compress(self):
        rng = np.random.default_rng(5)
        c = random_circuit(4, 6, rng, adjacent_only=True)
        m = compress(absorb_circuit(identity_mpo(4), c, "left"), 1e-10, 64)
        assert m.spectra is not None
        # all sites right of site 0 must be right-isometries
        for s in m.sites[1:]:
            l = s.shape[0]
            mat = s.reshape(l, -1)
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(l), atol=1e-8)

    @pytest.mark.parametrize("center", range(5))
    def test_lossy_compress_from_known_center(self, center):
        # lossy compress does not depend on the gauge: the QR pass
        # orthogonalizes the whole chain first, so a chain with its norm moved
        # to any known site truncates as the one with its spectra. Weak rzz
        # brickwork has skewed Schmidt spectra, so the cutoff bites.
        rng = np.random.default_rng(1350)
        gates = []
        for layer in range(4):
            for i in range(layer % 2, 4, 2):
                for q in (i, i + 1):
                    gates.append(Gate("u3", (q,), tuple(rng.uniform(-np.pi, np.pi, 3))))
                gates.append(Gate("rzz", (i, i + 1), (float(rng.uniform(0.2, 0.6)),)))
        canonical = absorb_circuit(identity_mpo(5), Circuit(5, tuple(gates)), "left")
        m = move_center(canonical, center)
        assert canonical.spectra is not None and m.spectra is None
        ref = compress(canonical, 0.05, 10**9)
        got = compress(m, 0.05, 10**9)
        assert got.bond_dims() == ref.bond_dims()
        assert sum(got.bond_dims()) < sum(m.bond_dims())  # the cutoff bites
        np.testing.assert_allclose(mpo_to_dense(got), mpo_to_dense(ref), atol=1e-10)

    def test_amplitudes_stay_small_after_compress(self):
        m = identity_mpo(5)
        for seed in range(10):
            c = random_circuit(5, 4, np.random.default_rng(140 + seed), adjacent_only=True)
            m = absorb_circuit(m, c, "left", epsilon=1e-8, chi_max=32)
            m = compress(m, 1e-8, 32)
        assert max(np.abs(s).max() for s in m.sites) <= 1e3

    def test_log_norm_accumulates_scale(self):
        m = identity_mpo(3)
        m2 = compress(m, 0.0, 16)
        # identity has Frobenius norm 2^(3/2); stored chain is unit norm
        assert math.exp(m2.log_norm) == pytest.approx(2 ** 1.5, rel=1e-12)
        assert np.linalg.norm(m2.sites[0]) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(mpo_to_dense(m2), np.eye(8), atol=1e-12)

    def test_compress_of_a_state_returns_a_state(self):
        # a state in an unknown gauge and off unit norm comes back a state,
        # canonical with its spectra, its scale moved to log_norm
        n = 5
        rng = np.random.default_rng(1960)
        c = random_circuit(n, 3 * n, rng, adjacent_only=True)
        psi = apply_to_zero(absorb_circuit(identity_mpo(n), c, "left"), EXACT, 256)
        sites = list(psi.sites)
        _orthogonalize(sites, 3)
        sites[3] = 3.0 * sites[3]
        built = MatrixProductState(tuple(sites), psi.log_norm)
        out = compress(built, 0.0, 10**9)
        assert type(out) is MatrixProductState
        assert_canonical_with_spectra(out)
        assert np.linalg.norm(out.sites[0]) == pytest.approx(1.0, abs=1e-12)
        assert out.log_norm == pytest.approx(psi.log_norm + math.log(3.0), abs=1e-12)
        np.testing.assert_allclose(mps_to_dense(out), mps_to_dense(built), atol=1e-10)


def assert_norm_on_site(m: MatrixProductOperator, target: int) -> None:
    """Sites left of ``target`` are left-isometric and sites right of it
    right-isometric, so site ``target`` holds the stored chain's norm."""
    for i, s in enumerate(m.sites):
        if i == target:
            continue
        mat = s.reshape(-1, s.shape[3]) if i < target else s.reshape(s.shape[0], -1)
        gram = mat.conj().T @ mat if i < target else mat @ mat.conj().T
        np.testing.assert_allclose(gram, np.eye(len(gram)), atol=1e-10)
    stored = mpo_to_dense(m) / math.exp(m.log_norm)
    assert np.linalg.norm(m.sites[target]) == pytest.approx(np.linalg.norm(stored), rel=1e-10)


class TestMoveCenter:
    def test_center_moves_do_not_change_operator(self):
        rng = np.random.default_rng(7)
        c = random_circuit(4, 6, rng, adjacent_only=True)
        m = compress(absorb_circuit(identity_mpo(4), c, "left"), 1e-12, 64)
        dense = mpo_to_dense(m)
        for target in (3, 1, 2, 0):
            m = move_center(m, target)
            assert m.spectra is None
            assert_norm_on_site(m, target)
            np.testing.assert_allclose(mpo_to_dense(m), dense, atol=1e-10)

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_out_of_range_rejected(self, target):
        with pytest.raises(ValueError, match=f"center target {target} out of range"):
            move_center(identity_mpo(4), target)


def assert_canonical_with_spectra(m: MatrixProductOperator | MatrixProductState) -> None:
    """Sites 1..n-1 are right-isometric, and each stored spectrum holds the
    singular values of the stored operator or state split between qubits
    0..b and b+1..n-1 (the rest of them zero)."""
    assert m.spectra is not None
    for s in m.sites[1:]:
        mat = s.reshape(s.shape[0], -1)
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(s.shape[0]), atol=1e-10)
    is_state = isinstance(m, MatrixProductState)
    stored = (mps_to_dense if is_state else mpo_to_dense)(m) / math.exp(m.log_norm)
    spectrum = state_spectrum if is_state else operator_spectrum
    assert len(m.spectra) == m.num_sites - 1
    for b, lam in enumerate(m.spectra):
        sv = spectrum(stored, b)
        assert len(lam) == m.bond_dims()[b]
        np.testing.assert_allclose(lam, sv[:len(lam)], rtol=0, atol=1e-10 * sv[0])
        assert sv[len(lam):].max(initial=0.0) <= 1e-10 * sv[0]


OPS = ("gate-left", "gate-right", "swap", "unswap", "compress")


class TestSpectra:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 8), epsilon=st.sampled_from([0.0, 1e-8]),
           moved=st.booleans(), ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=12),
           seed=st.integers(0, 2**16))
    def test_every_update_keeps_the_canonical_form(self, n, epsilon, moved, ops, seed):
        rng = np.random.default_rng(seed)
        # a moved norm drops the spectra, so the first update canonicalizes
        m = move_center(identity_mpo(n), n - 1) if moved else identity_mpo(n)
        for op in ops:
            if op.startswith("gate"):  # a one-qubit and a two-qubit gate
                for g in random_circuit(n, 1, rng, adjacent_only=True).gates:
                    m = absorb_gate(m, g, op[5:], epsilon, 10**9)
            elif op == "swap":
                side = ("left", "right", "both")[int(rng.integers(3))]
                m = apply_swap_boundary(m, int(rng.integers(n - 1)), side, epsilon, 10**9)
            elif op == "unswap":
                m = unswap(m, epsilon, 10**9).reduced
            else:
                m = compress(m, epsilon, 10**9)
        assert_canonical_with_spectra(m)

    def test_updates_take_no_qr_step(self, monkeypatch):
        # every split reads its pair and the spectrum left of it, wherever
        # the last one was, so no update moves the center
        n = 8
        m = chain_in_gauge(n, 60, "spectra")
        steps = []
        for name in ("_qr_left", "_qr_right"):
            step = getattr(chains, name)
            monkeypatch.setattr(chains, name, lambda sites, i, step=step: steps.append(i) or
                                step(sites, i))
        gates = [Gate("cx", (b, b + 1)) for b in (6, 0, 4, 2, 5, 1)]
        out = m
        for g in gates:
            out = absorb_gate(out, g, "left", EXACT, 256)
        out = apply_swap_boundary(out, 3, "both", EXACT, 256)
        assert steps == []
        assert_canonical_with_spectra(out)
        expected = mpo_to_dense(m)
        for g in gates + [Gate("swap", (3, 4))]:
            expected = embed(g, n) @ expected
        expected = expected @ embed(Gate("swap", (3, 4)), n)
        np.testing.assert_allclose(mpo_to_dense(out), expected, atol=1e-10)


def chain_in_gauge(n: int, seed: int, gauge):
    """Random chain with bonds > 1: with its spectra (``gauge`` is
    "spectra"), else without them, rebuilt by the public constructor (None)
    or with its norm moved to site ``gauge``."""
    rng = np.random.default_rng(seed)
    c = random_circuit(n, 3 * n, rng, adjacent_only=True)
    m = absorb_circuit(identity_mpo(n), c, "left")
    if gauge == "spectra":
        return m
    if gauge is None:
        return MatrixProductOperator(m.sites, m.log_norm)
    return move_center(m, gauge)


def derived_calls(monkeypatch, op):
    """Run ``op`` and return its result and the (lo, hi) site ranges the
    derived-chain constructor re-checked."""
    ranges = []
    check = chains._check_sites

    def recording(sites, physical, lo, hi):
        ranges.append((lo, hi))
        check(sites, physical, lo, hi)

    monkeypatch.setattr(chains, "_check_sites", recording)
    return op(), ranges


class TestDerivedChains:
    N = 6

    def assert_checked_every_rewrite(self, parent, child, lo, hi):
        # a derived chain equals the fully validated one built from its sites
        assert child == MatrixProductOperator(child.sites, child.log_norm)
        for j, (a, b) in enumerate(zip(parent.sites, child.sites)):
            if a is not b:
                assert lo <= j < hi, f"site {j} rewritten outside the checked range"

    def assert_split_of_pair(self, m, out, ranges, bond):
        """``out`` is ``m`` with one update of pair (bond, bond+1)."""
        assert out.spectra is not None
        if m.spectra is None:
            # one exact canonicalization rewrites the whole chain first
            assert ranges == [(0, self.N), (bond, bond + 2)]
            self.assert_checked_every_rewrite(m, out, 0, self.N)
            return
        # only the pair and the spectrum of its bond are rewritten
        assert ranges == [(bond, bond + 2)]
        self.assert_checked_every_rewrite(m, out, bond, bond + 2)
        assert all(out.spectra[b] is m.spectra[b] for b in range(self.N - 1) if b != bond)

    @pytest.mark.parametrize("gauge", [None, 0, N - 1, "bond+1", "spectra"])
    @pytest.mark.parametrize("bond", [0, 2, N - 2])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_absorb_two_qubit_gate(self, monkeypatch, gauge, bond, side):
        # a chain without spectra is canonicalized wherever its norm is, also
        # when the norm already sits on the pair
        m = chain_in_gauge(self.N, 10 + bond, bond + 1 if gauge == "bond+1" else gauge)
        g = Gate("cx", (bond + 1, bond))
        out, ranges = derived_calls(monkeypatch, lambda: absorb_gate(m, g, side, EXACT, 64))
        self.assert_split_of_pair(m, out, ranges, bond)
        u = mpo_to_dense(m)
        expected = embed(g, self.N) @ u if side == "left" else u @ embed(g, self.N)
        np.testing.assert_allclose(mpo_to_dense(out), expected, atol=1e-10)

    @pytest.mark.parametrize("gauge", [None, 0, N - 1, "spectra"])
    @pytest.mark.parametrize("q", [0, 3, N - 1])
    def test_absorb_single_qubit_gate(self, monkeypatch, gauge, q):
        m = chain_in_gauge(self.N, 20 + q, gauge)
        g = Gate("u3", (q,), (0.3, -1.1, 2.0))
        out, ranges = derived_calls(monkeypatch, lambda: absorb_gate(m, g, "left", EXACT, 64))
        assert ranges == [(q, q + 1)]
        self.assert_checked_every_rewrite(m, out, q, q + 1)
        assert out.spectra is m.spectra

    @pytest.mark.parametrize("gauge", [None, 0, N - 1, "spectra"])
    @pytest.mark.parametrize("bond", [0, 3, N - 2])
    def test_pair_swap(self, monkeypatch, gauge, bond):
        m = chain_in_gauge(self.N, 30 + bond, gauge)
        out, ranges = derived_calls(
            monkeypatch, lambda: apply_swap_boundary(m, bond, "left", EXACT, 64))
        self.assert_split_of_pair(m, out, ranges, bond)

    @pytest.mark.parametrize("gauge", [None, 0, N - 1, "spectra"])
    @pytest.mark.parametrize("target", [0, 2, N - 1])
    def test_move_center(self, monkeypatch, gauge, target):
        # every site is orthogonalized, whatever the gauge was
        m = chain_in_gauge(self.N, 40 + target, gauge)
        out, ranges = derived_calls(monkeypatch, lambda: move_center(m, target))
        assert ranges == [(0, self.N)]
        self.assert_checked_every_rewrite(m, out, 0, self.N)
        assert out.spectra is None
        assert_norm_on_site(out, target)
        np.testing.assert_allclose(mpo_to_dense(out), mpo_to_dense(m), atol=1e-10)

    @pytest.mark.parametrize("make_bad,message", [
        (lambda s: np.zeros((s.shape[0], 3, 2, s.shape[3]), complex), "site 2 has bad shape"),
        (lambda s: np.zeros(s.shape[:3], complex), "site 2 has bad shape"),
        (lambda s: np.zeros((s.shape[0] + 1,) + s.shape[1:], complex),
         "bond mismatch between sites 1 and 2"),
        (lambda s: np.zeros(s.shape[:3] + (s.shape[3] + 1,), complex),
         "bond mismatch between sites 2 and 3"),
    ], ids=["physical", "rank", "left-bond", "right-bond"])
    def test_bad_rewritten_site_gives_the_full_check_error(self, make_bad, message):
        m = chain_in_gauge(self.N, 50, 2)
        sites = list(m.sites)
        sites[2] = make_bad(sites[2])
        with pytest.raises(ValueError) as full:
            MatrixProductOperator(sites, m.log_norm)
        with pytest.raises(ValueError) as derived:
            MatrixProductOperator._derived(sites, m.log_norm, 2, 3)
        assert str(derived.value) == str(full.value)
        assert str(full.value).startswith(message)

    @pytest.mark.parametrize("index", [0, N - 1])
    def test_bad_boundary_extent_rejected(self, index):
        m = identity_mpo(self.N)
        sites = list(m.sites)
        sites[index] = np.ones((2, 2, 2, 2), complex)
        sites[1 if index == 0 else index - 1] = np.ones((2, 2, 2, 2), complex)
        lo, hi = (0, 2) if index == 0 else (index - 1, index + 1)
        with pytest.raises(ValueError, match="boundary bonds must have extent 1"):
            MatrixProductOperator._derived(sites, 0.0, lo, hi)


class TestLayerSplit:
    N = 6

    @pytest.mark.parametrize("gauge", ["identity", None, 8, "spectra"])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-8, 2e-3])
    def test_write_is_the_gate_by_gate_absorb(self, monkeypatch, gauge, side, epsilon):
        # the pairs' blobs are split one stack per shape (on the identity
        # chain all three share one); the write rechecks sites 1..8 only
        n = 9
        m = identity_mpo(n) if gauge == "identity" else chain_in_gauge(n, 70, gauge)
        layer = [Gate("cx", (2, 1)), Gate("u3", (4,), (0.3, -1.1, 2.0)),
                 Gate("swap", (5, 6)), Gate("rzz", (8, 7), (0.7,))]
        split, ranges = derived_calls(monkeypatch,
                                      lambda: split_layer(m, layer, side, epsilon, 64))
        assert ranges == ([] if gauge in ("identity", "spectra") else [(0, n)])
        out, write_ranges = derived_calls(monkeypatch, lambda: write_layer(split))
        assert write_ranges == [(1, 9)]
        assert out.sites[0] is split.chain.sites[0]
        assert out.spectra[0] is split.chain.spectra[0]
        assert split.elements == total_elements(out)
        expected = split.chain
        for g in layer:
            expected = absorb_gate(expected, g, side, epsilon, 64)
        assert all(np.array_equal(a, b) for a, b in zip(out.sites, expected.sites))
        assert all(np.array_equal(a, b) for a, b in zip(out.spectra, expected.spectra))
        if epsilon == 0.0:
            assert_canonical_with_spectra(out)
            dense = mpo_to_dense(m)
            for g in layer:
                dense = embed(g, n) @ dense if side == "left" else dense @ embed(g, n)
            np.testing.assert_allclose(mpo_to_dense(out), dense, atol=1e-10)

    def test_one_qubit_layer_keeps_the_count_and_every_spectrum(self):
        m = chain_in_gauge(self.N, 71, "spectra")
        split = split_layer(m, [Gate("h", (0,)), Gate("x", (3,))], "right", 1e-8, 64)
        out = write_layer(split)
        assert split.pairs == {} and split.elements == total_elements(m)
        assert out.spectra == m.spectra
        expected = mpo_to_dense(m) @ embed(Gate("h", (0,)), self.N) @ embed(Gate("x", (3,)),
                                                                           self.N)
        np.testing.assert_allclose(mpo_to_dense(out), expected, atol=1e-10)

    def bad_chain(self, value):
        """A chain with its spectra whose site 1 is filled with ``value``."""
        m = identity_mpo(4)
        sites = list(m.sites)
        sites[1] = np.full(sites[1].shape, value, dtype=complex)
        return MatrixProductOperator._derived(sites, 0.0, 1, 2, m.spectra)

    @pytest.mark.parametrize("value,error,message", [
        (np.nan, ValueError, "tensor contains non-finite amplitudes"),
        (0.0, ZeroTensorError, "cannot decompose an all-zero tensor"),
    ])
    def test_bad_blob_raises_as_svd_truncate_does(self, value, error, message):
        m = self.bad_chain(value)
        g = Gate("cx", (0, 1))
        with pytest.raises(error) as single:
            absorb_gate(m, g, "left", 1e-8, 64)
        with pytest.raises(error) as layer:
            split_layer(m, [g, Gate("cx", (2, 3))], "left", 1e-8, 64)
        assert str(layer.value) == str(single.value) == message

    def test_failed_svd_is_retried_once_then_raises(self, monkeypatch):
        calls = []

        def always_fails(a, *args, **kwargs):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("synthetic non-convergence")

        m = chain_in_gauge(self.N, 72, "spectra")
        monkeypatch.setattr(np.linalg, "svd", always_fails)
        with pytest.raises(SvdConvergenceError, match="failed to converge after perturbed retry"):
            split_layer(m, [Gate("cx", (0, 1)), Gate("cx", (4, 5))], "left", 1e-8, 64)
        assert len(calls) == 2 and calls[0] == calls[1] and len(calls[0]) == 3

    @pytest.mark.parametrize("gates", [
        [Gate("cx", (0, 1)), Gate("h", (1,))],
        [Gate("cx", (0, 1)), Gate("cx", (1, 2))],
        [Gate("h", (2,)), Gate("x", (2,))],
    ])
    def test_overlapping_gates_rejected(self, gates):
        with pytest.raises(ValueError, match="disjoint"):
            split_layer(identity_mpo(3), gates, "left", 1e-8, 64)

    def test_bad_side_and_non_adjacent_gate_rejected(self):
        with pytest.raises(ValueError, match="side must be left or right"):
            split_layer(identity_mpo(3), [Gate("h", (0,))], "top", 1e-8, 64)
        with pytest.raises(ValueError, match="non-adjacent"):
            split_layer(identity_mpo(3), [Gate("cx", (0, 2))], "left", 1e-8, 64)


def stacked_chain():
    """A 10-site chain with its spectra and bonds 5, 6 at 2 and bond 8 at 4,
    all others at 1, built gate by gate by the per-gate reference."""
    rng = np.random.default_rng(77)
    m = identity_mpo(10)
    dress = [Gate("u3", (q,), tuple(float(x) for x in rng.uniform(-np.pi, np.pi, 3)))
             for q in range(10)]
    for g in dress + [Gate("rzz", (5, 6), (0.9,)), Gate("rzz", (6, 7), (1.3,)),
                      Gate("swap", (8, 9))] + dress[::-1]:
        m = per_gate_absorb(m, g, "left", EXACT, 64)
    assert m.bond_dims() == (1, 1, 1, 1, 1, 2, 2, 1, 4)
    return m


def assert_same_bits(a: MatrixProductOperator, b: MatrixProductOperator) -> None:
    assert a.log_norm == b.log_norm
    assert [s.tobytes() for s in a.sites] == [s.tobytes() for s in b.sites]
    assert (a.spectra is None) == (b.spectra is None)
    if a.spectra is not None:
        assert [s.tobytes() for s in a.spectra] == [s.tobytes() for s in b.spectra]


def recorded(monkeypatch, name):
    """Wrap ``chains.<name>`` so each call's first argument is recorded."""
    calls = []
    inner = getattr(chains, name)
    monkeypatch.setattr(chains, name, lambda a, *args: calls.append(a) or inner(a, *args))
    return calls


class TestStackedKernel:
    """The layer kernel works a stack at a time: pairs whose bonds b-1, b
    and b+1 have the same extents, and one-qubit gates on same-shape sites.
    Its chain must be the per-gate path's bit for bit."""

    # on stacked_chain, the extents of bonds b-1, b and b+1 are (1, 1, 1) at
    # bonds 0 and 3, which form one stack; bond 8 has their outer extents
    # but a middle of 4, and bond 6 is (2, 2, 1). Sites 2 and 5 differ in
    # shape. The rzz on bond 3 is weak enough for a cutoff of 2e-3 to drop
    # its second Schmidt value.
    LAYER = [Gate("cx", (1, 0)), Gate("u3", (2,), (0.3, -1.1, 2.0)),
             Gate("rzz", (3, 4), (1e-3,)), Gate("h", (5,)), Gate("rzz", (7, 6), (0.4,)),
             Gate("swap", (8, 9))]

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-8, 2e-3])
    def test_pair_stacks_equal_the_per_gate_path(self, monkeypatch, side, epsilon):
        m = stacked_chain()
        svds = recorded(monkeypatch, "svd_stack")
        split = split_layer(m, self.LAYER, side, epsilon, 64)
        assert sorted(a.shape for a in svds) == [(1, 4, 4), (1, 8, 4), (2, 4, 4)]
        out = write_layer(split)
        assert split.elements == total_elements(out)
        expected = m
        for g in self.LAYER:
            expected = per_gate_absorb(expected, g, side, epsilon, 64)
        assert_same_bits(out, expected)
        assert_same_bits(out, absorb_circuit(m, Circuit(10, tuple(self.LAYER)), side,
                                             epsilon, 64))
        # the cutoff of 2e-3 bites on bond 3; 1e-8 keeps both Schmidt values
        # and 0 keeps the rounding noise too
        assert out.bond_dims()[3] == {0.0: 4, 1e-8: 2, 2e-3: 1}[epsilon]
        if epsilon == 0.0:
            assert_canonical_with_spectra(out)
            dense = mpo_to_dense(m)
            for g in self.LAYER:
                dense = embed(g, 10) @ dense if side == "left" else dense @ embed(g, 10)
            np.testing.assert_allclose(mpo_to_dense(out), dense, atol=1e-10)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_site_stacks_of_mixed_shapes_equal_the_per_gate_path(self, monkeypatch, side):
        m = stacked_chain()
        rng = np.random.default_rng(78)
        kinds = [("h", 0), ("x", 0), ("rx", 1), ("ry", 1), ("rz", 1), ("u3", 3)]
        layer = []
        for q in range(10):
            kind, nparams = kinds[q % len(kinds)]
            layer.append(Gate(kind, (q,), tuple(float(x) for x in rng.uniform(-4, 4, nparams))))
        stacks = recorded(monkeypatch, "_unitaries")
        split = split_layer(m, layer, side, 1e-8, 64)
        out, ranges = derived_calls(monkeypatch, lambda: write_layer(split))
        # one stack per site shape: bonds (1, 1) on sites 0..4, and the
        # shapes of sites 5, 6, 7, 8 and 9 once each
        assert sorted(len(g) for g in stacks) == [1, 1, 1, 1, 1, 5]
        assert ranges == [(0, 10)]
        assert split.elements == total_elements(out) == total_elements(m)
        assert out.spectra is m.spectra
        expected = m
        for g in layer:
            expected = per_gate_absorb(expected, g, side, 1e-8, 64)
        assert_same_bits(out, expected)

    def test_a_stack_of_one_is_a_view(self):
        site = identity_mpo(2).sites[1]
        assert chains._stack([site]).base is site
        assert chains._stack([site, site]).base is not site

    @pytest.mark.parametrize("op", [None, "left", "both"])
    def test_one_pair_blob_is_the_single_blob_formula(self, op):
        # a stack of one pair through the blob builder gives every bond's
        # blob and weighted blob byte for byte as a lone contraction and
        # weighting would; bond 0 takes no weight
        m = stacked_chain()
        axes = None if op is None else chains.SWAP_LEGS[op]
        stacked = None if op is None else (lambda t: t.transpose(0, *(a + 1 for a in axes)))
        for b in range(m.num_sites - 1):
            theta, weighted = chains._pair_blobs(m, [b], stacked)
            expected = np.tensordot(m.sites[b], m.sites[b + 1], axes=(-1, 0))
            if axes is not None:
                expected = expected.transpose(axes)
            assert theta.shape == (1, *expected.shape)
            assert theta[0].tobytes() == expected.tobytes()
            if b:
                expected = m.spectra[b - 1].reshape(-1, 1, 1, 1, 1, 1) * expected
            assert weighted.shape == theta.shape and weighted[0].tobytes() == expected.tobytes()


class TestBondDot:
    @pytest.mark.parametrize("shape_a,shape_b", [
        ((3, 2, 2, 4), (4, 2, 2, 5)),  # operator sites
        ((3, 2, 4), (4, 2, 5)),  # state sites
        ((4, 4), (4, 2, 2, 3)),  # QR remainder into an operator site
        ((1, 2, 2, 1), (1, 2, 2, 1)),
        ((6, 2), (2, 2, 2)),
    ])
    def test_bit_identical_to_tensordot(self, shape_a, shape_b):
        rng = np.random.default_rng(sum(shape_a) + 7 * sum(shape_b))
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        assert np.array_equal(_bond_dot(a, b), np.tensordot(a, b, axes=(-1, 0)))

    def test_bit_identical_on_strided_operands(self):
        rng = np.random.default_rng(3)
        site = rng.standard_normal((3, 2, 2, 4)) + 1j * rng.standard_normal((3, 2, 2, 4))
        rem = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        column = site[:, :, 0, :]  # the non-contiguous view apply_to_zero contracts
        assert np.array_equal(_bond_dot(site, rem.T), np.tensordot(site, rem.T, axes=(-1, 0)))
        head = rem[:, :3]
        assert np.array_equal(_bond_dot(head, column), np.tensordot(head, column, axes=(-1, 0)))


class TestApplySwapBoundary:
    def test_both_sides_on_identity_is_identity(self):
        m = apply_swap_boundary(identity_mpo(3), 1, "both", EXACT, 64)
        assert m.bond_dims() == (1, 1)
        np.testing.assert_allclose(mpo_to_dense(m), np.eye(8), atol=1e-12)

    def test_left_swap_on_swap_mpo_cancels(self):
        m = absorb_gate(identity_mpo(2), Gate("swap", (0, 1)), "left", EXACT, 64)
        assert m.bond_dims() == (4,)
        m2 = apply_swap_boundary(m, 0, "left", EXACT, 64)
        assert m2.bond_dims() == (1,)
        np.testing.assert_allclose(mpo_to_dense(m2), np.eye(4), atol=1e-12)

    def test_left_swap_on_identity_builds_swap(self):
        m = apply_swap_boundary(identity_mpo(2), 0, "left", EXACT, 64)
        np.testing.assert_allclose(
            mpo_to_dense(m), gate_unitary(Gate("swap", (0, 1))), atol=1e-12
        )
        assert m.bond_dims() == (4,)

    def test_out_of_range_bond(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_swap_boundary(identity_mpo(3), 2, "left", EXACT, 64)


def swapped_weak_chain():
    """A 6-site chain with its spectra, bonds (4, 8, 4, 8, 4): weak rzz
    brickwork with swaps on bonds 1 and 3 absorbed on top. A cutoff of 2e-3
    trims bonds 1 and 3 when they are split again."""
    m = identity_mpo(6)
    for g in weak_brickwork(6, 4, np.random.default_rng(1)):
        m = absorb_gate(m, g, "left", EXACT, 64)
    for b in (1, 3):
        m = absorb_gate(m, Gate("swap", (b, b + 1)), "left", EXACT, 64)
    assert m.bond_dims() == (4, 8, 4, 8, 4)
    return m


class TestOneBondSplit:
    """A boundary swap and unswap's bond re-split are the stacked pair-split
    kernel on one bond; each must give the chain of the reference
    single-pair split (tensordot, weight, ``svd_truncate``) bit for bit."""

    @pytest.mark.parametrize("spectra", [True, False])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-8, 2e-3])
    def test_equal_to_the_reference_split(self, spectra, epsilon):
        m = swapped_weak_chain()
        if not spectra:
            m = MatrixProductOperator(m.sites, m.log_norm)
        for b in range(m.num_sites - 1):
            out = chains._update_pair(m, b, None, epsilon, 64)
            assert_same_bits(out, single_pair_split(m, b, None, epsilon, 64))
            if epsilon == 2e-3 and b in (1, 3):
                assert out.bond_dims()[b] < m.bond_dims()[b]  # the cutoff bites
            for side, axes in chains.SWAP_LEGS.items():
                assert_same_bits(apply_swap_boundary(m, b, side, epsilon, 64),
                                 single_pair_split(m, b, lambda t: t.transpose(axes),
                                                   epsilon, 64))


# every public entry point that splits a bond, called on swapped_weak_chain
CUTOFF_TAKERS = {
    "svd_truncate": lambda m, e, c: svd_truncate(np.eye(3, dtype=complex), 1, e, c),
    "absorb_gate": lambda m, e, c: absorb_gate(m, Gate("cx", (2, 3)), "left", e, c),
    "split_layer": lambda m, e, c: split_layer(
        m, [Gate("cx", (0, 1)), Gate("rzz", (3, 2), (0.4,))], "right", e, c),
    "apply_swap_boundary": lambda m, e, c: apply_swap_boundary(m, 1, "both", e, c),
    "unswap": unswap,
    "compress": compress,
    "apply_to_zero": apply_to_zero,
    # no split runs in these: the cutoffs are checked before any work
    "compress_one_site": lambda m, e, c: compress(identity_mpo(1), e, c),
    "apply_to_zero_one_site": lambda m, e, c: apply_to_zero(identity_mpo(1), e, c),
    "split_layer_one_qubit": lambda m, e, c: split_layer(m, [Gate("h", (0,))], "left", e, c),
    "absorb_gate_one_qubit": lambda m, e, c: absorb_gate(m, Gate("h", (0,)), "left", e, c),
}


@pytest.mark.parametrize("name", list(CUTOFF_TAKERS))
@pytest.mark.parametrize("epsilon,chi_max,message", [
    (math.nan, 64, "epsilon must be >= 0"),
    (-0.1, 64, "epsilon must be >= 0"),
    (1e-8, 0, "chi_max must be >= 1"),
])
def test_bad_cutoffs_are_rejected(name, epsilon, chi_max, message):
    with pytest.raises(ValueError, match=message):
        CUTOFF_TAKERS[name](swapped_weak_chain(), epsilon, chi_max)


class TestApplyToZero:
    def test_identity_gives_all_zero_state(self):
        psi = apply_to_zero(identity_mpo(3), EXACT, 64)
        vec = mps_to_dense(psi)
        expected = np.zeros(8)
        expected[0] = 1
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_hadamard_state(self):
        m = absorb_gate(identity_mpo(1), Gate("h", (0,)), "left", EXACT, 64)
        psi = apply_to_zero(m, EXACT, 64)
        np.testing.assert_allclose(
            mps_to_dense(psi), np.array([1, 1]) / math.sqrt(2), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_statevector_oracle(self, seed):
        rng = np.random.default_rng(1400 + seed)
        c = random_circuit(4, 10, rng, adjacent_only=True)
        m = absorb_circuit(identity_mpo(4), c, "left", epsilon=1e-12, chi_max=256)
        psi = apply_to_zero(m, 1e-12, 256)
        expected = simulate(c)
        produced = mps_to_dense(psi)
        fidelity = abs(np.vdot(expected, produced)) ** 2
        assert fidelity >= 1 - 1e-8

    def test_norm_recorded_in_log_norm(self):
        m = absorb_gate(identity_mpo(2), Gate("h", (0,)), "left", EXACT, 64)
        psi = apply_to_zero(m, EXACT, 64)
        assert math.exp(psi.log_norm) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_lossy_result_does_not_depend_on_the_gauge(self, seed):
        # the truncation sweep orthogonalizes first, so scrambling the gauge
        # on every bond changes neither the kept state nor its bonds, even
        # where the cutoff drops weight
        n = 6
        rng = np.random.default_rng(1950 + seed)
        c = random_circuit(n, 6 * n, rng, adjacent_only=True)
        m = absorb_circuit(identity_mpo(n), c, "left")
        sites = list(m.sites)
        for i in range(n - 1):
            k = sites[i].shape[3]
            x = np.eye(k) + 0.5 * rng.standard_normal((k, k))
            sites[i] = sites[i] @ x
            sites[i + 1] = np.tensordot(np.linalg.inv(x), sites[i + 1], axes=(1, 0))
        scrambled = MatrixProductOperator(tuple(sites), m.log_norm)
        lossy = 0.1
        psi = apply_to_zero(m, lossy, 256)
        assert sum(psi.bond_dims()) < sum(apply_to_zero(m, EXACT, 256).bond_dims())
        psi_scrambled = apply_to_zero(scrambled, lossy, 256)
        assert psi_scrambled.bond_dims() == psi.bond_dims()
        np.testing.assert_allclose(mps_to_dense(psi_scrambled), mps_to_dense(psi), atol=1e-10)

    def test_collapsed_column_rejected(self):
        # the |00> column holds 1e-15 of the operator's norm, far below the
        # 2**(-n/2) share an even operator gives it; the scale is read from
        # site 0 of the canonical form, so the check sees the same collapse
        # whether the chain comes without spectra or with them
        site = np.diag([1e-15, 1.0]).astype(np.complex128).reshape(1, 2, 2, 1)
        eye = np.eye(2, dtype=np.complex128).reshape(1, 2, 2, 1)
        built = MatrixProductOperator((site, eye))
        assert built.spectra is None
        for m in (built, chains._with_spectra(built)):
            with pytest.raises(ValueError, match="collapsed below 1e-12 of the expected scale"):
                apply_to_zero(m, EXACT, 4)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_state_carries_the_schmidt_values_of_its_vector(self, n):
        rng = np.random.default_rng(2000 + n)
        c = random_circuit(n, 3 * n, rng, adjacent_only=True)
        psi = apply_to_zero(absorb_circuit(identity_mpo(n), c, "left", 0.0), 0.0, 10**9)
        assert type(psi) is MatrixProductState
        assert np.linalg.norm(psi.sites[0]) == pytest.approx(1.0, abs=1e-12)
        assert_canonical_with_spectra(psi)


def shot_bits(psi, shots, seed):
    """Each shot's bits from the row sampler, rebuilt as ``rows[node]``."""
    node, rows = _sample_bits(psi, shots, seed)
    return rows[node]


class TestSample:
    def test_zero_state_samples_only_zeros(self):
        psi = apply_to_zero(identity_mpo(4), EXACT, 16)
        assert set(sample(psi, 100, seed=1)) == {"0000"}

    def test_uniform_single_qubit_frequency(self):
        m = absorb_gate(identity_mpo(1), Gate("h", (0,)), "left", EXACT, 4)
        psi = apply_to_zero(m, EXACT, 4)
        draws = sample(psi, 10_000, seed=7)
        freq = sum(b == "1" for b in draws) / 10_000
        assert 0.485 <= freq <= 0.515

    def test_determinism(self):
        m = absorb_gate(identity_mpo(2), Gate("h", (0,)), "left", EXACT, 4)
        psi = apply_to_zero(m, EXACT, 4)
        assert sample(psi, 50, seed=3) == sample(psi, 50, seed=3)

    def test_bit_order_qubit0_leftmost(self):
        m = absorb_gate(identity_mpo(3), Gate("x", (0,)), "left", EXACT, 4)
        psi = apply_to_zero(m, EXACT, 4)
        assert set(sample(psi, 10, seed=0)) == {"100"}

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2)])
    def test_distribution_converges_to_amplitudes(self, n, seed):
        rng = np.random.default_rng(1500 + seed)
        c = random_circuit(n, 3 * n, rng, adjacent_only=True)
        m = absorb_circuit(identity_mpo(n), c, "left", epsilon=1e-12, chi_max=256)
        psi = apply_to_zero(m, 1e-12, 256)
        shots = 50_000
        draws = sample(psi, shots, seed=seed)
        empirical = np.zeros(2**n)
        for bits in draws:
            empirical[bits_to_index(bits)] += 1 / shots
        exact = np.abs(simulate(c)) ** 2
        assert tvd(empirical, exact) <= 2 * math.sqrt(2**n / shots)

    @pytest.mark.parametrize("n,shots", [(2, 1), (3, 7), (6, 500)])
    def test_strings_match_per_bit_join(self, n, shots):
        rng = np.random.default_rng(1700 + n)
        c = random_circuit(n, 2 * n, rng, adjacent_only=True)
        psi = apply_to_zero(absorb_circuit(identity_mpo(n), c, "left"), EXACT, 256)
        bits = per_shot_sample_bits(psi, shots, seed=4)
        reference = ["".join("1" if b else "0" for b in row) for row in bits]
        assert sample(psi, shots, seed=4) == reference
        # and the fixed-width cut of one ASCII buffer, with a bit relabeling
        mapping = tuple(int(q) for q in rng.permutation(n))
        text = (bits[:, np.argsort(mapping)] + ord("0")).tobytes().decode("ascii")
        cut = [text[k * n:(k + 1) * n] for k in range(shots)]
        assert sample(psi, shots, seed=4, mapping=mapping) == cut

    @pytest.mark.parametrize("n,shots,seed", [(6, 3000, 0), (8, 700, 1), (5, 1, 2)])
    def test_matches_per_shot_sweep(self, n, shots, seed):
        rng = np.random.default_rng(1800 + n)
        c = random_circuit(n, 3 * n, rng, adjacent_only=True)
        psi = apply_to_zero(absorb_circuit(identity_mpo(n), c, "left"), EXACT, 256)
        assert max(psi.bond_dims()) > 1
        expected = per_shot_sample_bits(psi, shots, seed)
        np.testing.assert_array_equal(shot_bits(psi, shots, seed), expected)
        # the same state with its norm on site 2, built without spectra, is
        # made canonical first and draws the same bits
        sites = list(psi.sites)
        _orthogonalize(sites, 2)
        moved = MatrixProductState(tuple(sites), psi.log_norm)
        np.testing.assert_array_equal(shot_bits(moved, shots, seed), expected)

    def test_matches_per_shot_sweep_on_product_state(self):
        n = 7
        m = identity_mpo(n)
        for q, theta in enumerate(np.linspace(0.2, 2.9, n)):
            m = absorb_gate(m, Gate("ry", (q,), (float(theta),)), "left", EXACT, 4)
        psi = apply_to_zero(m, EXACT, 4)
        assert psi.bond_dims() == (1,) * (n - 1)
        for seed in (0, 9):
            np.testing.assert_array_equal(
                shot_bits(psi, 4000, seed), per_shot_sample_bits(psi, 4000, seed))

    @staticmethod
    def _state(n, gates):
        return apply_to_zero(absorb_circuit(identity_mpo(n), Circuit(n, tuple(gates)), "left"),
                             EXACT, 16)

    def test_basis_state_matches_per_shot_sweep(self):
        # every conditional probability is exactly 0 or 1
        psi = self._state(6, [Gate("x", (q,)) for q in (0, 3, 4)])
        np.testing.assert_array_equal(
            shot_bits(psi, 300, seed=11), per_shot_sample_bits(psi, 300, seed=11))
        assert set(sample(psi, 300, seed=11)) == {"100110"}

    @pytest.mark.parametrize("seed", [0, 5])
    def test_split_at_a_middle_site_matches_per_shot_sweep(self, seed):
        # all shots share one row over sites 0-2, split on the h at site 3,
        # and each half is deterministic again from site 4 on
        psi = self._state(7, [Gate("x", (1,)), Gate("h", (3,)), Gate("cx", (3, 4)),
                              Gate("x", (6,))])
        bits = shot_bits(psi, 500, seed)
        np.testing.assert_array_equal(bits, per_shot_sample_bits(psi, 500, seed))
        assert 0 < bits[:, 3].sum() < 500
        np.testing.assert_array_equal(bits[:, 4], bits[:, 3])
        assert (bits[:, [1, 6]] == 1).all() and (bits[:, [0, 2, 5]] == 0).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_single_shot_matches_per_shot_sweep(self, seed):
        # one shot never splits its row: qubits 0-2 copy a random bit,
        # qubit 3 is 0, and qubit 5 copies a second random bit on qubit 4
        psi = self._state(6, [Gate("h", (0,)), Gate("cx", (0, 1)), Gate("cx", (1, 2)),
                              Gate("h", (4,)), Gate("cx", (4, 5))])
        bits = shot_bits(psi, 1, seed)
        np.testing.assert_array_equal(bits, per_shot_sample_bits(psi, 1, seed))
        assert bits[0, 0] == bits[0, 1] == bits[0, 2] and bits[0, 3] == 0
        assert bits[0, 4] == bits[0, 5]

    @pytest.mark.parametrize("mapped", [False, True])
    def test_many_rows_match_per_shot_sweep(self, mapped):
        # every outcome of a 10-qubit all-h state is equally likely, so
        # 20,000 shots reach all 1,024 rows
        n, shots, seed = 10, 20_000, 6
        psi = self._state(n, [Gate("h", (q,)) for q in range(n)])
        node, rows = _sample_bits(psi, shots, seed)
        expected = per_shot_sample_bits(psi, shots, seed)
        np.testing.assert_array_equal(rows[node], expected)
        assert len(rows) == 1024 and len(np.unique(rows, axis=0)) == 1024
        mapping = None
        if mapped:
            mapping = tuple(int(q) for q in np.random.default_rng(n).permutation(n))
            expected = expected[:, np.argsort(mapping)]
        strings = sample(psi, shots, seed, mapping=mapping)
        assert strings == ["".join(map(str, row)) for row in expected]
        # the shots of one outcome share one string object
        assert len({id(x) for x in strings}) == len(set(strings)) == 1024

    def test_peaked_sample_memory_follows_rows_not_shots(self):
        # a 56-qubit basis state is one row: its 20,000 shots are one string
        # referred to 20,000 times, not 20,000 strings and (shots, n) buffers
        psi = self._state(56, [Gate("x", (q,)) for q in range(0, 56, 3)])
        sample(psi, 1, seed=0)  # import numpy.random before tracing starts
        tracemalloc.start()
        try:
            strings = sample(psi, 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(strings) == 20_000 and len({id(x) for x in strings}) == 1
        assert strings[0] == "".join("1" if q % 3 == 0 else "0" for q in range(56))
        assert peak < 1_000_000

    def test_mapping_moves_each_bit(self):
        m = absorb_gate(identity_mpo(4), Gate("h", (0,)), "left", EXACT, 4)
        m = absorb_gate(m, Gate("x", (2,)), "left", EXACT, 4)
        psi = apply_to_zero(m, EXACT, 4)
        mapping = (3, 0, 1, 2)
        raw = sample(psi, 60, seed=5)
        moved = sample(psi, 60, seed=5, mapping=mapping)
        for a, b in zip(raw, moved):
            assert all(b[mapping[i]] == a[i] for i in range(4))

    def test_state_from_apply_to_zero_is_sampled_without_a_sweep(self, monkeypatch):
        n, shots, seed = 6, 400, 3
        rng = np.random.default_rng(2100)
        c = random_circuit(n, 3 * n, rng, adjacent_only=True)
        psi = apply_to_zero(absorb_circuit(identity_mpo(n), c, "left"), EXACT, 256)
        assert max(psi.bond_dims()) > 1

        def no_sweep(*args):
            raise AssertionError("sampling ran a canonical sweep")

        monkeypatch.setattr(chains, "_truncate_sweep", no_sweep)
        expected = per_shot_sample_bits(psi, shots, seed)
        np.testing.assert_array_equal(shot_bits(psi, shots, seed), expected)
        assert sample(psi, shots, seed) == ["".join(map(str, row)) for row in expected]
        # the same sites without spectra do need the sweep
        with pytest.raises(AssertionError, match="canonical sweep"):
            sample(MatrixProductState(psi.sites, psi.log_norm), shots, seed)

    @pytest.mark.parametrize("mapping", [(0, 0, 1), (1, 0), (0, 1, 2, 3)])
    def test_mapping_must_permute_the_qubits(self, mapping):
        psi = self._state(3, [Gate("x", (0,))])
        with pytest.raises(ValueError, match="not a permutation of 3 qubits"):
            sample(psi, 10, seed=0, mapping=mapping)

    def test_right_canonicalize_from_unknown_center(self):
        n = 5
        rng = np.random.default_rng(1900)
        c = random_circuit(n, 3 * n, rng, adjacent_only=True)
        psi = apply_to_zero(absorb_circuit(identity_mpo(n), c, "left"), EXACT, 256)
        # scramble the gauge on every bond so no site is isometric
        sites = list(psi.sites)
        for i in range(n - 1):
            k = sites[i].shape[2]
            g = np.eye(k) + 0.5 * rng.standard_normal((k, k))
            sites[i] = sites[i] @ g
            sites[i + 1] = np.tensordot(np.linalg.inv(g), sites[i + 1], axes=(1, 0))
        scrambled = MatrixProductState(tuple(sites), psi.log_norm)
        assert scrambled.spectra is None
        canonical = chains._with_spectra(scrambled)
        assert type(canonical) is MatrixProductState
        assert np.linalg.norm(canonical.sites[0]) == pytest.approx(1.0, abs=1e-10)
        for s in canonical.sites[1:]:
            mat = s.reshape(s.shape[0], -1)
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(s.shape[0]), atol=1e-10)
        np.testing.assert_allclose(mps_to_dense(canonical), mps_to_dense(psi), atol=1e-10)
        assert_canonical_with_spectra(canonical)

    def test_unnormalized_state_rejected(self):
        psi = apply_to_zero(identity_mpo(2), EXACT, 4)
        bad = psi.__class__(tuple(2.0 * s for s in psi.sites), psi.log_norm)
        with pytest.raises(ValueError, match="not normalized"):
            sample(bad, 10, seed=0)


class TestDenseGuards:
    def test_mpo_dense_guard(self):
        with pytest.raises(ValueError, match="capped"):
            mpo_to_dense(identity_mpo(13))

    def test_hh_dense_known_matrix(self):
        m = identity_mpo(2)
        m = absorb_gate(m, Gate("h", (0,)), "left", EXACT, 4)
        m = absorb_gate(m, Gate("h", (1,)), "left", EXACT, 4)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(mpo_to_dense(m), np.kron(h, h), atol=1e-12)

    def test_round_trip_through_compress(self):
        rng = np.random.default_rng(8)
        c = random_circuit(3, 5, rng, adjacent_only=True)
        m = absorb_circuit(identity_mpo(3), c, "left")
        before = mpo_to_dense(m)
        after = mpo_to_dense(compress(m, 0.0, 10**9))
        np.testing.assert_allclose(after, before, atol=1e-10)


class TestMirrorCancellation:
    """Alternating absorption of a circuit and its inverse keeps bonds at 1."""

    @pytest.mark.parametrize("seed", range(5))
    def test_alternating_mirror_absorption_stays_bond_one(self, seed):
        rng = np.random.default_rng(1600 + seed)
        n = 5
        c = random_circuit(n, 12, rng, adjacent_only=True)
        inv = inverse_circuit(c)
        m = identity_mpo(n)
        # second half (the inverse) feeds the top legs in program order,
        # first half feeds the bottom legs in reverse program order
        for g_left, g_right in zip(inv.gates, reversed(c.gates)):
            m = absorb_gate(m, g_left, "left", 1e-10, 256)
            m = absorb_gate(m, g_right, "right", 1e-10, 256)
            m = compress(m, 1e-10, 256)
            assert all(d == 1 for d in m.bond_dims())
        np.testing.assert_allclose(mpo_to_dense(m), np.eye(2**n), atol=1e-8)
