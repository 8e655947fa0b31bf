"""Tests for linear-chain routing, stripping, relabeling, and the
permutation algebra the driver relies on."""

import numpy as np
import pytest

from mirrorbreak.circuit import Circuit, Gate
from mirrorbreak.oracle import permutation_unitary, unitary
from mirrorbreak.routing import (
    QubitPermutation,
    RoutedCircuit,
    reindex,
    route_linear,
    strip_transpilation_swaps,
)

from .oracles import assert_built_as_checked, random_circuit


def routed_equivalent(routed: RoutedCircuit, original: Circuit) -> float:
    """Max-entry deviation of U(routed) from P(out) U(orig)."""
    p_out = permutation_unitary(routed.output_layout.mapping)
    return float(np.abs(unitary(routed.circuit) - p_out @ unitary(original)).max())


def route_from_end(c: Circuit) -> tuple[Circuit, QubitPermutation]:
    """``c`` routed aligned at its end, as the driver reroutes its right
    half: the reversed circuit routed forward and the routed gates reversed
    back. Returns the routed circuit and the layout at its front."""
    routed = route_linear(Circuit(c.num_qubits, c.gates[::-1]))
    return Circuit(c.num_qubits, routed.circuit.gates[::-1]), routed.output_layout


def end_aligned_equivalent(routed: Circuit, front: QubitPermutation,
                           original: Circuit) -> float:
    """Max-entry deviation of U(routed) from U(orig) P(front)^{-1}."""
    p_in = permutation_unitary(front.mapping)
    return float(np.abs(unitary(routed) - unitary(original) @ p_in.conj().T).max())


# ------------------------------------------------------------------ #
# QubitPermutation
# ------------------------------------------------------------------ #


class TestQubitPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a permutation"):
            QubitPermutation((0, 0, 1))

    def test_compose_matches_operator_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = QubitPermutation(tuple(int(x) for x in rng.permutation(4)))
            b = QubitPermutation(tuple(int(x) for x in rng.permutation(4)))
            lhs = permutation_unitary(a.mapping) @ permutation_unitary(b.mapping)
            rhs = permutation_unitary(a.compose(b).mapping)
            np.testing.assert_array_equal(lhs, rhs)

    @staticmethod
    def transposition(n: int, i: int, j: int) -> QubitPermutation:
        t = list(range(n))
        t[i], t[j] = t[j], t[i]
        return QubitPermutation(tuple(t))

    @pytest.mark.parametrize("seed", range(10))
    def test_swapped_is_a_chain_of_compose(self, seed):
        # the reference composes one single-swap permutation at a time on
        # the right; pairs are adjacent or not, in either order
        rng = np.random.default_rng(640 + seed)
        n = int(rng.integers(2, 9))
        p = QubitPermutation(tuple(int(x) for x in rng.permutation(n)))
        pairs = [tuple(int(x) for x in rng.choice(n, 2, replace=False))
                 for _ in range(int(rng.integers(1, 12)))]
        expected = p
        for i, j in pairs:
            expected = expected.compose(self.transposition(n, i, j))
        assert p.swapped(pairs) == expected
        assert p.swapped(iter(pairs)) == expected  # one pass over a generator

    @pytest.mark.parametrize("i,j", [(0, 1), (3, 2), (0, 4), (4, 1)])
    def test_swapped_one_pair_is_the_operator_product(self, i, j):
        p = QubitPermutation((2, 0, 4, 1, 3))
        t = self.transposition(5, i, j)
        lhs = permutation_unitary(p.swapped([(i, j)]).mapping)
        rhs = permutation_unitary(p.mapping) @ permutation_unitary(t.mapping)
        np.testing.assert_array_equal(lhs, rhs)

    def test_swapped_repeated_pair_cancels_and_empty_list_is_identity(self):
        p = QubitPermutation((2, 0, 4, 1, 3))
        assert p.swapped([(1, 3), (1, 3)]) == p
        assert p.swapped([(0, 1), (2, 4), (2, 4), (0, 1)]) == p
        assert p.swapped([]) == p
        assert QubitPermutation.identity(0).swapped([]) == QubitPermutation.identity(0)

    def test_inverse(self):
        p = QubitPermutation((2, 0, 1, 3))
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()

    @pytest.mark.parametrize("seed", range(10))
    def test_factorization_composes_to_mapping(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(2, 9))
        p = QubitPermutation(tuple(int(x) for x in rng.permutation(n)))
        fact = p.factorization
        assert all(j == i + 1 for i, j in fact)
        assert len(fact) <= n * (n - 1) // 2
        assert QubitPermutation.identity(n).swapped(reversed(fact)).mapping == p.mapping

    def test_apply_to_bits(self):
        p = QubitPermutation((1, 2, 0))
        # wire 0's bit moves to position 1, wire 1's to 2, wire 2's to 0
        assert p.apply_to_bits("100") == "010"
        assert p.apply_to_bits("110") == "011"

    def test_reindex_conjugation_identity(self):
        # U(reindex(c, p)) == P(p) U(c) P(p)^dagger
        rng = np.random.default_rng(1)
        c = random_circuit(4, 6, rng)
        p = QubitPermutation((2, 3, 1, 0))
        lhs = unitary(reindex(c, p))
        pm = permutation_unitary(p.mapping)
        rhs = pm @ unitary(c) @ pm.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------------------------ #
# forward routing
# ------------------------------------------------------------------ #


class TestRouteForward:
    def test_already_adjacent_circuit_is_unchanged(self):
        rng = np.random.default_rng(2)
        c = random_circuit(5, 8, rng, adjacent_only=True)
        routed = route_linear(c)
        assert routed.circuit.gates == c.gates
        assert routed.output_layout.is_identity()

    def test_single_long_range_gate_uses_shortest_swap_chain(self):
        c = Circuit(4, (Gate("rzz", (0, 3), (0.5,)),))
        routed = route_linear(c)
        swaps = [g for g in routed.circuit.gates if g.origin == "transpilation-swap"]
        assert len(swaps) == 2  # distance 3 needs two swaps
        assert routed_equivalent(routed, c) <= 1e-10

    def test_all_two_qubit_gates_adjacent_after_routing(self):
        for seed in range(10):
            c = random_circuit(6, 15, np.random.default_rng(700 + seed))
            routed = route_linear(c)
            for g in routed.circuit.gates:
                if g.is_two_qubit:
                    assert abs(g.qubits[0] - g.qubits[1]) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_equivalence_with_exported_layout(self, seed):
        rng = np.random.default_rng(800 + seed)
        c = random_circuit(6, 20, rng)
        assert routed_equivalent(route_linear(c), c) <= 1e-10


# ------------------------------------------------------------------ #
# routing aligned at the end: reversed, routed forward, reversed back
# ------------------------------------------------------------------ #


class TestRouteReverse:
    def test_drift_lands_on_input_side(self):
        c = Circuit(3, (Gate("cx", (0, 2)),))
        routed, front = route_from_end(c)
        assert not front.is_identity()
        assert end_aligned_equivalent(routed, front, c) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_equivalence(self, seed):
        rng = np.random.default_rng(900 + seed)
        c = random_circuit(6, 20, rng)
        routed, front = route_from_end(c)
        assert end_aligned_equivalent(routed, front, c) <= 1e-10
        for g in routed.gates:
            if g.is_two_qubit:
                assert abs(g.qubits[0] - g.qubits[1]) == 1


# ------------------------------------------------------------------ #
# stripping
# ------------------------------------------------------------------ #


class TestStrip:
    def test_no_op_on_unrouted_circuit(self):
        rng = np.random.default_rng(4)
        c = random_circuit(5, 8, rng, adjacent_only=True)
        assert strip_transpilation_swaps(c).gates == c.gates

    @pytest.mark.parametrize("seed", range(100))
    def test_round_trip_forward(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 11))
        c = random_circuit(n, int(rng.integers(1, 14)), rng)
        routed = route_linear(c)
        assert strip_transpilation_swaps(routed.circuit).gates == c.gates

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_reverse(self, seed):
        rng = np.random.default_rng(1100 + seed)
        c = random_circuit(6, 10, rng)
        routed, front = route_from_end(c)
        assert strip_transpilation_swaps(routed, front).gates == c.gates

    def test_source_swaps_are_retained(self):
        c = Circuit(4, (Gate("swap", (0, 3)), Gate("h", (1,))))
        routed = route_linear(c)
        stripped = strip_transpilation_swaps(routed.circuit)
        assert stripped.gates == c.gates

    def test_partial_strip_with_cut_layout(self):
        # strip the tail of a routed circuit starting from the tracked layout
        rng = np.random.default_rng(5)
        c = random_circuit(5, 12, rng)
        routed = route_linear(c)
        gates = routed.circuit.gates
        cut = len(gates) // 2
        layout = QubitPermutation.identity(5)
        consumed_source = 0
        for g in gates[:cut]:
            if g.origin == "transpilation-swap":
                layout = QubitPermutation.identity(5).swapped([g.qubits]).compose(layout)
            else:
                consumed_source += 1
        tail = Circuit(5, gates[cut:])
        stripped = strip_transpilation_swaps(tail, layout)
        assert stripped.gates == c.gates[consumed_source:]

    @pytest.mark.parametrize("size", [2, 4])
    def test_layout_size_mismatch(self, size):
        # a layout on fewer wires would map two wires to one qubit
        c = Circuit(3, (Gate("cx", (0, 2)),))
        with pytest.raises(ValueError, match=f"layout on {size} wires, circuit has 3"):
            strip_transpilation_swaps(c, QubitPermutation.identity(size))


# ------------------------------------------------------------------ #
# reindex
# ------------------------------------------------------------------ #


class TestReindex:
    def test_identity_permutation(self):
        rng = np.random.default_rng(6)
        c = random_circuit(4, 5, rng)
        assert reindex(c, QubitPermutation.identity(4)).gates == c.gates

    def test_single_transposition(self):
        c = Circuit(2, (Gate("h", (0,)),))
        out = reindex(c, QubitPermutation((1, 0)))
        assert out.gates == (Gate("h", (1,)),)

    def test_round_trip_with_inverse(self):
        rng = np.random.default_rng(7)
        c = random_circuit(5, 10, rng)
        p = QubitPermutation(tuple(int(x) for x in np.random.default_rng(8).permutation(5)))
        assert reindex(reindex(c, p), p.inverse()).gates == c.gates

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="wires"):
            reindex(Circuit(3, ()), QubitPermutation((1, 0)))


# ------------------------------------------------------------------ #
# gates moved without re-checking
# ------------------------------------------------------------------ #


class TestMovedGates:
    """Routing, stripping and relabeling move already-checked gates onto
    other wires by a permutation, and build routing swaps, without checking
    them again; each gate and circuit they emit must be the one the checking
    constructors build from the same fields."""

    @pytest.mark.parametrize("seed", range(30))
    def test_emitted_gates_equal_checked_gates(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 9))
        c = random_circuit(n, 15, rng)
        routed = route_linear(c).circuit
        assert_built_as_checked(routed)
        assert_built_as_checked(strip_transpilation_swaps(routed))
        routed, front = route_from_end(c)
        assert_built_as_checked(strip_transpilation_swaps(routed, front))
        p = QubitPermutation(tuple(int(x) for x in rng.permutation(n)))
        assert_built_as_checked(reindex(c, p))

    def test_gates_whose_wires_do_not_move_are_kept(self):
        c = random_circuit(5, 8, np.random.default_rng(3), adjacent_only=True)
        assert all(a is b for a, b in zip(route_linear(c).circuit.gates, c.gates))
        assert all(a is b for a, b in zip(strip_transpilation_swaps(c).gates, c.gates))
        assert all(a is b for a, b in zip(reindex(c, QubitPermutation.identity(5)).gates,
                                          c.gates))
