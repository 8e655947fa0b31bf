"""End-to-end tests for the contraction driver."""

import dataclasses
import hashlib
import importlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbreak import chains, driver
from mirrorbreak.chains import (
    MatrixProductOperator,
    _with_spectra,
    absorb_gate,
    compress,
    identity_mpo,
    move_center,
    mpo_to_dense,
    mps_to_dense,
    sample,
    total_elements,
    write_layer,
)
from mirrorbreak.circuit import ORIGIN_ROUTING, Circuit, Gate, inverse_circuit
from mirrorbreak.driver import (
    ContractionConfig,
    StallError,
    TraceRecord,
    _Side,
    _choose_side,
    _split,
    dense_output,
    emit_trace,
    parse_trace,
    run,
    sample_output,
)
from mirrorbreak.oracle import peak_of, simulate, unitary
from mirrorbreak.peaked import generate
from mirrorbreak.routing import QubitPermutation
from mirrorbreak.unswap import UnswapResult

from . import oracles
from .oracles import random_circuit

TIGHT = ContractionConfig(epsilon=1e-10, chi_max=4096)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def mirror_circuit(n: int, num_gates: int, seed: int) -> Circuit:
    c = random_circuit(n, num_gates, np.random.default_rng(seed), adjacent_only=True)
    return Circuit(n, c.gates + inverse_circuit(c).gates)


class TestConfig:
    def test_default_hyperparameters(self):
        cfg = ContractionConfig()
        assert cfg.epsilon == 2e-3
        assert cfg.chi_max == 8192
        assert cfg.tau == 10**6
        assert cfg.max_unswap_iterations == 20
        assert cfg.side_mode == "adaptive"

    def test_side_mode_parsing(self):
        assert ContractionConfig(side_mode="fixed:2").fixed_frequency == 2
        assert ContractionConfig().fixed_frequency is None
        with pytest.raises(ValueError, match="side_mode"):
            ContractionConfig(side_mode="random")
        with pytest.raises(ValueError, match="frequency"):
            ContractionConfig(side_mode="fixed:0")

    @pytest.mark.parametrize("mode", ["fixed:x", "fixed:", "fixed:1.5", "fixed:-1", "fixed: 2"])
    def test_malformed_fixed_mode_names_the_option(self, mode):
        message = f"side_mode must be adaptive or fixed:<k>, got {mode!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ContractionConfig(side_mode=mode)

    @pytest.mark.parametrize("field,value", [
        ("max_unswap_iterations", 0),
        ("tau", 0),
        ("epsilon", -1e-3),
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
    ])
    def test_invalid_fields_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ContractionConfig(**{field: value})

    def test_tau_floor_checked_at_run(self):
        c = mirror_circuit(4, 4, 0)
        with pytest.raises(ValueError, match="tau"):
            run(c, ContractionConfig(tau=8))


class TestMirrorCancellation:
    @pytest.mark.parametrize("seed", range(5))
    def test_mirror_collapses_to_identity(self, seed):
        n = 6
        c = mirror_circuit(n, 20, 2000 + seed)
        result = run(c, TIGHT)
        assert result.final_elements == 4 * n  # all bonds back to 1
        vec = dense_output(result)
        expected = np.zeros(2**n)
        expected[0] = 1
        assert fidelity(vec, expected) >= 1 - 1e-8

    def test_trace_elements_return_to_baseline(self):
        n = 5
        c = mirror_circuit(n, 15, 7)
        result = run(c, TIGHT)
        assert result.trace[-1].elements == 4 * n
        assert all(rec.phase == "absorb" for rec in result.trace)  # tau never hit

    def test_all_samples_are_zero_string(self):
        c = mirror_circuit(5, 12, 8)
        result = run(c, TIGHT)
        assert set(sample_output(result, 100, seed=0)) == {"00000"}


class TestOracleEquivalenceWithoutUnswapping:
    """With tau high the driver never unswaps: this isolates routing, the
    split, absorption order, and the router-drift bookkeeping."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_long_range_circuits(self, seed):
        rng = np.random.default_rng(2100 + seed)
        n = int(rng.integers(3, 7))
        c = random_circuit(n, 12, rng)
        result = run(c, TIGHT)
        assert fidelity(dense_output(result), simulate(c)) >= 1 - 1e-8

    def test_pure_permutation_circuit_lands_in_output_relabeling(self):
        # X on qubit 0, then source swaps: the driver may or may not absorb
        # the permutation content, but sampling must see the relabeled bit
        c = Circuit(
            4,
            (
                Gate("x", (0,)),
                Gate("swap", (0, 3)),
                Gate("swap", (1, 2)),
            ),
        )
        result = run(c, TIGHT)
        expected_peak, _ = peak_of(simulate(c))
        assert expected_peak == "0001"
        assert set(sample_output(result, 50, seed=1)) == {expected_peak}

    def test_routing_tagged_swap_in_the_input_is_read_as_a_swap(self):
        # the source gate count must skip a routing-tagged swap, as the
        # count of consumed source gates does, or the run's accounting
        # check fails on a circuit that carries one
        gates = (Gate("h", (0,)), Gate("ry", (2,), (0.7,)), Gate("cx", (0, 1)),
                 Gate("swap", (1, 2), (), ORIGIN_ROUTING), Gate("cx", (0, 1)))
        c = Circuit(3, gates)
        result = run(c, ContractionConfig(epsilon=0.0, tau=10**6))
        assert fidelity(dense_output(result), simulate(c)) >= 1 - 1e-12
        without_swap = Circuit(3, gates[:3] + gates[4:])
        assert fidelity(dense_output(result), simulate(without_swap)) < 0.9


class TestOracleEquivalenceWithUnswapping:
    """Small tau forces absorb -> unswap -> rewire cycles; this exercises the
    whole permutation algebra (boundary carrying, strip, re-route)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_peaked_instances_tiny_tau(self, seed):
        n = 6
        inst = generate(n=n, depth=30, peak_weight=0.3, obfuscation_swaps=8,
                        seed=2200 + seed)
        # tau this small forces unswapping long before the mirror halves can
        # cancel, so transient weak reductions are expected: keep the stall
        # diagnosis out of the way of this stress test
        cfg = ContractionConfig(
            epsilon=1e-10, chi_max=4096, tau=40 * n, stall_limit=50,
        )
        result = run(inst.circuit, cfg)
        assert any(rec.phase == "unswap" for rec in result.trace)
        assert fidelity(dense_output(result), simulate(inst.circuit)) >= 1 - 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_with_forced_unswapping(self, seed):
        # no mirror structure: unswapping accepts little, but correctness
        # must survive the rewiring machinery; tau large enough to finish
        rng = np.random.default_rng(2300 + seed)
        c = random_circuit(5, 10, rng)
        cfg = ContractionConfig(epsilon=1e-10, chi_max=4096, tau=150, stall_limit=50)
        result = run(c, cfg)
        assert fidelity(dense_output(result), simulate(c)) >= 1 - 1e-6

    def test_ten_qubit_obfuscated_mirror_peak_recovery(self):
        inst = generate(n=10, depth=80, peak_weight=0.35, obfuscation_swaps=30, seed=77)
        cfg = ContractionConfig(epsilon=1e-10, chi_max=4096, tau=4000, stall_limit=25)
        result = run(inst.circuit, cfg)
        assert any(rec.phase == "unswap" for rec in result.trace)
        samples = sample_output(result, 1000, seed=5)
        counts = {}
        for s in samples:
            counts[s] = counts.get(s, 0) + 1
        top = max(counts, key=counts.get)
        oracle_peak, p = peak_of(simulate(inst.circuit))
        assert top == oracle_peak == inst.peak
        freq = counts[top] / 1000
        sigma = np.sqrt(p * (1 - p) / 1000)
        assert abs(freq - p) <= 3 * sigma

    @pytest.mark.parametrize("mode", ["adaptive", "fixed:1"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tagged_input_swaps_across_rewires(self, seed, mode):
        # routing-tagged swaps that come with the input are carried into the
        # start boundaries; a tau just above the identity floor rewires
        # after almost every source gate
        rng = np.random.default_rng(2400 + seed)
        n = 4 + seed % 4
        c = with_tagged_swaps(mirror_circuit(n, 3 * n, 2400 + seed), 3, rng)
        cfg = ContractionConfig(epsilon=0.0, chi_max=4096, tau=4 * n + 8, side_mode=mode,
                                stall_limit=1000)
        result = run(c, cfg)
        assert any(rec.phase == "unswap" for rec in result.trace)
        assert fidelity(dense_output(result), simulate(c)) >= 1 - 1e-10


def with_tagged_swaps(c: Circuit, count: int, rng) -> Circuit:
    """``c`` with ``count`` routing-tagged adjacent swaps inserted at random
    places."""
    gates = list(c.gates)
    for _ in range(count):
        a = int(rng.integers(0, c.num_qubits - 1))
        gates.insert(int(rng.integers(0, len(gates) + 1)),
                     Gate("swap", (a, a + 1), (), ORIGIN_ROUTING))
    return Circuit(c.num_qubits, tuple(gates))


class TestArbitraryExtractions:
    """Unswap replaced by a stub that factors random adjacent swaps out of
    the chain exactly, so the rewiring meets extractions unswap itself
    would not pick."""

    @staticmethod
    def random_unswap(rng):
        def stub(m, epsilon, chi_max, max_iterations):
            before = total_elements(m)
            m = _with_spectra(m)
            n = m.num_sites
            left = right = QubitPermutation.identity(n)
            count = int(rng.integers(0, 2 * n)) if n > 1 else 0
            for _ in range(count):
                bond = int(rng.integers(0, n - 1))
                side = ("left", "right", "both")[int(rng.integers(0, 3))]
                # S.(S.M) == M: the swap moves into the permutations the way
                # unswap composes them
                m = chains.apply_swap_boundary(m, bond, side, 0.0, chi_max)
                tau = QubitPermutation.transposition(n, bond, bond + 1)
                if side in ("left", "both"):
                    left = left.compose(tau)
                if side in ("right", "both"):
                    right = tau.compose(right)
            return UnswapResult(m, left, right, count, before, total_elements(m))
        return stub

    @pytest.mark.parametrize("tagged", [0, 3])
    @pytest.mark.parametrize("mode", ["adaptive", "fixed:1"])
    @pytest.mark.parametrize("seed", range(4))
    def test_dense_output_matches_oracle(self, monkeypatch, seed, mode, tagged):
        rng = np.random.default_rng(2500 + seed)
        n = 4 + seed % 3
        c = with_tagged_swaps(random_circuit(n, 4 * n, rng), tagged, rng)
        calls = []
        stub = self.random_unswap(rng)
        monkeypatch.setattr(driver, "unswap", lambda *a: calls.append(1) or stub(*a))
        cfg = ContractionConfig(epsilon=0.0, chi_max=4096, tau=4 * n, side_mode=mode,
                                stall_limit=10**6)
        result = run(c, cfg)
        assert calls
        assert fidelity(dense_output(result), simulate(c)) >= 1 - 1e-10


class TestBeyondDenseChecks:
    """Sizes past the dense materialization guard, still within the
    statevector oracle's reach."""

    def test_sixteen_qubit_peak_recovery(self):
        inst = generate(n=16, depth=160, peak_weight=0.10, obfuscation_swaps=40,
                        seed=123)
        assert inst.achieved_weight is None  # generation-time check is capped
        cfg = ContractionConfig(epsilon=1e-8, chi_max=8192, tau=50_000,
                                stall_limit=40, side_mode="fixed:1")
        result = run(inst.circuit, cfg)
        samples = sample_output(result, 1000, seed=1)
        counts = {}
        for s in samples:
            counts[s] = counts.get(s, 0) + 1
        top = max(counts, key=counts.get)
        oracle_peak, p = peak_of(simulate(inst.circuit))
        assert top == oracle_peak == inst.peak
        assert abs(counts[top] / 1000 - p) <= 3 * np.sqrt(p * (1 - p) / 1000)


class TestEdgeShapes:
    def test_single_qubit_gates_only(self):
        c = Circuit(4, (Gate("h", (0,)), Gate("rz", (1,), (0.4,)), Gate("h", (2,)),
                        Gate("x", (3,)), Gate("ry", (0,), (1.1,))))
        result = run(c, TIGHT)
        assert fidelity(dense_output(result), simulate(c)) >= 1 - 1e-10

    def test_single_wire_circuit(self):
        c = Circuit(1, (Gate("h", (0,)), Gate("rz", (0,), (0.3,))))
        result = run(c, TIGHT)
        assert fidelity(dense_output(result), simulate(c)) >= 1 - 1e-10
        assert len(sample_output(result, 5, seed=0)[0]) == 1

    def test_chi_saturation_is_counted(self):
        rng = np.random.default_rng(12)
        c = random_circuit(6, 20, rng, adjacent_only=True)
        squeezed = ContractionConfig(epsilon=1e-12, chi_max=3, tau=10**6)
        result = run(c, squeezed)
        assert result.chi_saturation_events > 0


class TestStall:
    def test_structureless_circuit_stalls_under_low_tau(self):
        rng = np.random.default_rng(31)
        c = random_circuit(8, 40, rng)
        cfg = ContractionConfig(epsilon=1e-8, chi_max=4096, tau=200, stall_limit=3)
        with pytest.raises(StallError, match="no exploitable mirror structure"):
            run(c, cfg)

    def test_stall_carries_diagnostics(self):
        rng = np.random.default_rng(32)
        c = random_circuit(8, 40, rng)
        cfg = ContractionConfig(epsilon=1e-8, chi_max=4096, tau=200, stall_limit=2)
        try:
            run(c, cfg)
        except StallError as exc:
            assert exc.tau == 200
            assert exc.elements >= 200
            assert len(exc.reductions) == 2
        else:
            pytest.fail("expected a stall")

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_mirror_finishes_at_the_identity_floor(self, seed):
        # tau 4n is accepted, and every unswap of a pure mirror then leaves
        # the 4n elements of a chain with every bond at 1, which cannot
        # shrink; that is no stall
        n = 6
        cfg = ContractionConfig(epsilon=1e-10, chi_max=4096, tau=4 * n)
        result = run(brick_mirror(n, 4, seed), cfg)
        floor = [t for t in result.trace if t.phase == "unswap" and t.elements == 4 * n]
        assert len(floor) >= cfg.stall_limit
        assert set(sample_output(result, 50, seed=0)) == {"0" * n}


class TestSelectSide:
    def _sides(self, n, left_gates, right_gates):
        ident = QubitPermutation.identity(n)
        return (
            _Side("left", list(left_gates), ident),
            _Side("right", list(right_gates), ident),
        )

    def test_tie_goes_left(self):
        from mirrorbreak.chains import identity_mpo

        left, right = self._sides(2, [Gate("rzz", (0, 1), (0.3,))],
                                   [Gate("rzz", (0, 1), (0.3,))])
        cfg = ContractionConfig(epsilon=1e-10, chi_max=64)
        assert _choose_side(left, right, identity_mpo(2), cfg, 0)[0] == "left"

    def test_identity_like_layer_preferred(self):
        from mirrorbreak.chains import identity_mpo

        left, right = self._sides(2, [Gate("rzz", (0, 1), (0.0,))],
                                   [Gate("rzz", (0, 1), (1.1,))])
        cfg = ContractionConfig(epsilon=1e-10, chi_max=64)
        assert _choose_side(left, right, identity_mpo(2), cfg, 0)[0] == "left"
        # and symmetrically: the entangling layer loses
        left2, right2 = self._sides(2, [Gate("rzz", (0, 1), (1.1,))],
                                    [Gate("rzz", (0, 1), (0.0,))])
        assert _choose_side(left2, right2, identity_mpo(2), cfg, 0)[0] == "right"

    def test_exhausted_side_yields(self):
        left, right = self._sides(2, [], [Gate("h", (0,))])
        cfg = ContractionConfig(epsilon=1e-10, chi_max=64)
        assert _choose_side(left, right, identity_mpo(2), cfg, 0)[0] == "right"
        left2, right2 = self._sides(2, [Gate("h", (0,))], [])
        assert _choose_side(left2, right2, identity_mpo(2), cfg, 0)[0] == "left"

    @pytest.mark.parametrize("step", range(4))
    @pytest.mark.parametrize("side_mode", ["adaptive", "fixed:1", "fixed:2"])
    def test_exhausted_side_yields_in_every_mode(self, side_mode, step):
        # whatever the mode and the step, the open side is the only candidate
        cfg = ContractionConfig(epsilon=1e-10, chi_max=64, side_mode=side_mode)
        left, right = self._sides(2, [], [Gate("h", (0,))])
        assert self._decide(left, right, identity_mpo(2), cfg, step)[0] == "right"
        left2, right2 = self._sides(2, [Gate("h", (0,))], [])
        assert self._decide(left2, right2, identity_mpo(2), cfg, step)[0] == "left"

    def test_both_exhausted_is_an_error(self):
        from mirrorbreak.chains import identity_mpo

        left, right = self._sides(2, [], [])
        with pytest.raises(ValueError, match="exhausted"):
            _choose_side(left, right, identity_mpo(2), ContractionConfig(), 0)

    def test_fixed_frequency_alternates(self):
        from mirrorbreak.chains import identity_mpo

        gates = [Gate("h", (0,))]
        left, right = self._sides(2, gates, gates)
        cfg = ContractionConfig(side_mode="fixed:2")
        m = identity_mpo(2)
        picks = [_choose_side(left, right, m, cfg, step)[0] for step in range(6)]
        assert picks == ["left", "left", "right", "right", "left", "left"]

    def _decide(self, left, right, m, cfg=ContractionConfig(epsilon=1e-10, chi_max=64),
                step=0):
        """The chooser's pick and chain from ``m``, checked against the
        two-trial reference from ``m`` and from the same chain without its
        spectra."""
        for start in (MatrixProductOperator(m.sites, m.log_norm), m):
            which, kept = _choose_side(left, right, start, cfg, step)
            ref_which, ref_kept = oracles.two_trial_choose_side(left, right, start, cfg, step)
            assert which == ref_which
            assert _same_sites(kept, ref_kept)
        return which, kept

    def test_identity_like_entangler_ties_a_one_qubit_layer(self):
        # an identity-like entangler leaves the chain as small as a
        # one-qubit layer, so left wins the tie
        left, right = self._sides(2, [Gate("rzz", (0, 1), (0.0,))], [Gate("h", (0,))])
        assert self._decide(left, right, identity_mpo(2))[0] == "left"

    def test_right_exhausted_after_its_one_qubit_layer(self):
        left, right = self._sides(2, [Gate("rzz", (0, 1), (1.1,))],
                                  [Gate("h", (0,)), Gate("h", (1,))])
        which, kept = self._decide(left, right, identity_mpo(2))
        assert which == "right"
        right.consume()
        assert right.exhausted
        assert self._decide(left, right, kept)[0] == "left"

    @pytest.mark.parametrize("epsilon", [1e-10, 0.0])
    @pytest.mark.parametrize("one_qubit", ["left", "right"])
    def test_only_the_winner_is_swept_against_a_one_qubit_layer(self, monkeypatch, epsilon,
                                                                one_qubit):
        # the entangling layer loses to the one-qubit layer: it is split,
        # at epsilon 0 too, but only the one-qubit layer is written
        entangler, single = [Gate("rzz", (0, 1), (1.1,))], [Gate("h", (0,))]
        left, right = self._sides(2, *((single, entangler) if one_qubit == "left"
                                       else (entangler, single)))
        splits, written = [], []
        monkeypatch.setattr(driver, "split_layer", lambda m, gates, *args: splits.append(gates)
                            or chains.split_layer(m, gates, *args))
        monkeypatch.setattr(driver, "write_layer", lambda split: written.append(split.gates) or
                            write_layer(split))
        which, _ = self._decide(left, right, identity_mpo(2), ContractionConfig(epsilon=epsilon))
        assert which == one_qubit
        assert entangler in splits
        assert written == [tuple(single)] * 2  # one decision from each start chain


def brick_layer(n: int, offset: int, rng) -> list[Gate]:
    """One layer of disjoint gates in shuffled order: cx on the pairs from
    ``offset``, each in a random orientation, and u3 on the leftover sites."""
    gates = [Gate("u3", (q,), tuple(rng.uniform(-np.pi, np.pi, 3)))
             for q in range(offset)]
    for q in range(offset, n - 1, 2):
        gates.append(Gate("cx", (q, q + 1) if rng.random() < 0.5 else (q + 1, q)))
    if (n - offset) % 2:
        gates.append(Gate("u3", (n - 1,), tuple(rng.uniform(-np.pi, np.pi, 3))))
    rng.shuffle(gates)
    return gates


class TestTrialAbsorb:
    @pytest.mark.parametrize("which", ["left", "right"])
    @pytest.mark.parametrize("start", [None, 0, -1])
    @pytest.mark.parametrize("seed", range(2))
    def test_site_order_matches_listed_order(self, which, start, seed):
        # start 0 keeps the chain's spectra; None and -1 drop them (the
        # public constructor, or the norm moved to the last site)
        rng = np.random.default_rng(1800 + seed)
        n = 7
        cfg = ContractionConfig(epsilon=1e-12, chi_max=10**9)
        m = identity_mpo(n)
        for g in random_circuit(n, 10, rng, adjacent_only=True).gates:
            m = absorb_gate(m, g, "left", cfg.epsilon, cfg.chi_max)
        if start is None:
            m = MatrixProductOperator(m.sites, m.log_norm)
        elif start == -1:
            m = move_center(m, n - 1)
        layer = brick_layer(n, seed % 2, rng)
        m = _with_spectra(m)
        expected = m
        for g in sorted(layer, key=lambda g: min(g.qubits)):
            expected = absorb_gate(expected, g, which, cfg.epsilon, cfg.chi_max)
        ident = QubitPermutation.identity(n)
        side = _Side(which, list(layer), ident)
        swept = write_layer(_split(m, side, cfg))
        side.consume()
        assert side.remaining() == []
        # each split reads only its own pair and the bond left of it, so the
        # shuffled layer gives the site-ordered chain bit for bit
        assert _same_sites(swept, expected)
        assert all(np.array_equal(a, b) for a, b in zip(swept.spectra, expected.spectra))
        dense = mpo_to_dense(m)
        for g in layer:
            u = unitary(Circuit(n, (g,)))
            dense = u @ dense if which == "left" else dense @ u
        np.testing.assert_allclose(mpo_to_dense(swept), dense, atol=1e-10)

    def test_compress_leaves_absorbed_layers_unchanged(self, monkeypatch):
        # why a written layer needs no compression sweep: every bond is
        # already truncated from its own Schmidt values
        swept = []
        cfg = ContractionConfig(epsilon=1e-10, chi_max=4096, tau=400)

        def checking(split):
            kept = write_layer(split)
            after = compress(kept, cfg.epsilon, cfg.chi_max)
            swept.append(after.bond_dims() == kept.bond_dims())
            return kept

        monkeypatch.setattr(driver, "write_layer", checking)
        inst = generate(n=8, depth=40, peak_weight=0.2, obfuscation_swaps=8, seed=21)
        result = run(inst.circuit, cfg)
        assert any(rec.phase == "unswap" for rec in result.trace)
        assert swept and all(swept)


def outputs(c: Circuit, cfg: ContractionConfig):
    """Everything the chooser's decisions reach: trace tuples, final size,
    output bond dims, samples and the output relabeling (or the partial trace
    of a stall)."""
    try:
        result = run(c, cfg)
    except StallError as exc:
        return "stall", [(t.phase, t.unitaries_consumed, t.elements) for t in exc.trace]
    return (
        [(t.phase, t.unitaries_consumed, t.elements) for t in result.trace],
        result.final_elements,
        result.state.bond_dims(),
        sample_output(result, 200, seed=3),
        result.output_permutation.mapping,
    )


def assert_matches_two_trial_reference(monkeypatch, c, cfg):
    ours = outputs(c, cfg)
    with monkeypatch.context() as mp:
        mp.setattr(driver, "_choose_side", oracles.two_trial_choose_side)
        reference = outputs(c, cfg)
    assert ours == reference


def _random_adaptive_case(seed: int) -> tuple[Circuit, ContractionConfig]:
    """Even seeds: a long-range random circuit. Odd seeds: an obfuscated
    peaked instance. Small tau forces unswaps and rewires on some."""
    rng = np.random.default_rng(2600 + seed)
    n = 3 + seed % 6
    if seed % 2 == 0:
        c = random_circuit(n, 14, rng)
    else:
        c = generate(n=n, depth=4 * n, peak_weight=0.3, obfuscation_swaps=2 * n,
                     seed=2650 + seed).circuit
    tau = (40 * n, 10**6)[seed % 4 // 2]
    return c, ContractionConfig(epsilon=1e-10, chi_max=4096, tau=tau, stall_limit=50)


class TestChooserAgainstTwoTrialReference:
    """The chooser splits both sides' layers and writes only the winner's;
    with the two-trial chooser, which absorbs both layers gate by gate,
    patched in, every output must be the same."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_adaptive_circuits(self, monkeypatch, seed):
        assert_matches_two_trial_reference(monkeypatch, *_random_adaptive_case(seed))

    @pytest.mark.parametrize("seed", [0, 6])
    def test_epsilon_zero(self, monkeypatch, seed):
        # rounding noise is kept at epsilon 0, so a rank hangs on the exact
        # values of the SVD; the stacked split's are bit for bit the trials'
        c, cfg = _random_adaptive_case(seed)
        assert_matches_two_trial_reference(monkeypatch, c, dataclasses.replace(cfg, epsilon=0.0))

    @pytest.mark.parametrize("n,num_gates,seed", [(5, 15, 0), (6, 20, 1), (8, 30, 2)])
    def test_mirror_circuits(self, monkeypatch, n, num_gates, seed):
        assert_matches_two_trial_reference(monkeypatch, mirror_circuit(n, num_gates, seed), TIGHT)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_obfuscated_twelve_qubit_instances(self, monkeypatch, seed):
        inst = generate(n=12, depth=120, peak_weight=0.10, obfuscation_swaps=40, seed=seed)
        cfg = ContractionConfig(epsilon=1e-8, chi_max=4096, tau=5000, stall_limit=40)
        assert_matches_two_trial_reference(monkeypatch, inst.circuit, cfg)

    def test_sawtooth_instance(self, monkeypatch):
        inst = generate(n=12, depth=120, peak_weight=0.3, obfuscation_swaps=30, seed=5)
        cfg = ContractionConfig(epsilon=1e-8, chi_max=4096, tau=5000, stall_limit=25)
        assert_matches_two_trial_reference(monkeypatch, inst.circuit, cfg)


def _same_sites(a: MatrixProductOperator, b: MatrixProductOperator) -> bool:
    """Bit for bit: the same shapes and the same bytes, signs of zeros too."""
    return len(a.sites) == len(b.sites) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a.sites, b.sites))


def swept_count(m, side: _Side, cfg) -> int:
    """Element count after absorbing the side's next layer into ``m``, by
    the two-trial reference."""
    return total_elements(oracles.two_trial_absorb(m, side.remaining(), side.which, cfg))


def brick_mirror(n: int, layers: int, seed: int) -> Circuit:
    """A u3-dressed rzz brickwork followed by its inverse, so both sides'
    layers sit on the same pairs."""
    rng = np.random.default_rng(seed)
    gates = []
    for layer in range(layers):
        for i in range(layer % 2, n - 1, 2):
            gates += [Gate("u3", (q,), tuple(rng.uniform(-np.pi, np.pi, 3))) for q in (i, i + 1)]
            gates.append(Gate("rzz", (i, i + 1), (float(rng.uniform(0.2, 2.9)),)))
    block = Circuit(n, tuple(gates))
    return Circuit(n, block.gates + inverse_circuit(block).gates)


def assert_every_read_predicts(monkeypatch, c: Circuit, cfg: ContractionConfig) -> None:
    """Run ``c`` and check the count of every split the chooser makes
    against the element count of absorbing that layer gate by gate, the
    count of every written split against the chain its write builds, and
    every decision against the two-trial reference's."""
    reads, writes, decisions = [], [], []

    def recording_split(m, side, cfg, original=driver._split):
        split = original(m, side, cfg)
        reads.append(split.elements == swept_count(m, side, cfg))
        return split

    def recording_write(split):
        kept = write_layer(split)
        writes.append(split.elements == total_elements(kept))
        return kept

    def recording_choice(left, right, m, cfg, step, original=driver._choose_side):
        ref_which, ref_kept = oracles.two_trial_choose_side(left, right, m, cfg, step)
        which, kept = original(left, right, m, cfg, step)
        decisions.append((which, total_elements(kept)) == (ref_which, total_elements(ref_kept)))
        return which, kept

    with monkeypatch.context() as mp:
        mp.setattr(driver, "_split", recording_split)
        mp.setattr(driver, "write_layer", recording_write)
        mp.setattr(driver, "_choose_side", recording_choice)
        try:
            run(c, cfg)
        except StallError:
            pass
    assert reads and all(reads)
    assert writes and all(writes)
    assert decisions and all(decisions)


class TestPrediction:
    @pytest.mark.parametrize("center", [None, 0, -1, "mid"])
    @pytest.mark.parametrize("seed", range(4))
    def test_predicted_count_equals_the_other_sides_trial(self, center, seed):
        # right's layer undoes the first layer absorbed, so its bonds shrink.
        # Center 0 keeps the chain's spectra; the others drop them (the
        # public constructor, or the norm moved to another site), and the
        # chooser canonicalizes the chain before it splits
        rng = np.random.default_rng(2700 + seed)
        n = 5 + seed % 3
        cfg = ContractionConfig(epsilon=(1e-10, 1e-3)[seed % 2], chi_max=4096)
        inner = brick_layer(n, seed % 2, rng)
        m = identity_mpo(n)
        for g in inner + list(random_circuit(n, 2 * n, rng, adjacent_only=True).gates):
            m = absorb_gate(m, g, "left", cfg.epsilon, cfg.chi_max)
        if center is None:
            m = MatrixProductOperator(m.sites, m.log_norm)
        elif center != 0:
            m = move_center(m, n // 2 if center == "mid" else center % n)
        ident = QubitPermutation.identity(n)
        left = _Side("left", brick_layer(n, (seed + 1) % 2, rng), ident)
        right = _Side("right", list(inverse_circuit(Circuit(n, tuple(inner))).gates), ident)
        start = _with_spectra(m)
        assert _split(start, right, cfg).elements == swept_count(start, right, cfg)
        assert _split(start, left, cfg).elements == swept_count(start, left, cfg)
        which, kept = _choose_side(left, right, m, cfg, 0)
        ref_which, ref_kept = oracles.two_trial_choose_side(left, right, start, cfg, 0)
        assert which == ref_which and _same_sites(kept, ref_kept)

    @pytest.mark.parametrize("center", [None, 0, 2, 4])
    def test_slack_is_trimmed_as_the_trial_trims_it(self, center):
        # zero-padded bonds hold more extent than the operator needs; the
        # exact canonicalization before the first update trims them, for
        # the split and the trial alike, wherever the norm was (None: the
        # chain as absorbed, with its norm on site 0). The first split layer
        # of the right side sits apart from left's pairs, the second on them
        n = 5
        cfg = ContractionConfig(epsilon=1e-10, chi_max=4096)
        m = identity_mpo(n)
        for g in random_circuit(n, 6, np.random.default_rng(7), adjacent_only=True).gates:
            m = absorb_gate(m, g, "left", cfg.epsilon, cfg.chi_max)
        if center is not None:
            m = move_center(m, center)
        sites = list(m.sites)
        for b in range(n - 1):
            a, c = sites[b], sites[b + 1]
            sites[b] = np.concatenate([a, np.zeros(a.shape[:3] + (9,))], axis=3)
            sites[b + 1] = np.concatenate([c, np.zeros((9,) + c.shape[1:])], axis=0)
        m = MatrixProductOperator(tuple(sites), m.log_norm)
        ident = QubitPermutation.identity(n)
        left = _Side("left", [Gate("rzz", (1, 2), (0.4,)), Gate("rzz", (3, 4), (0.4,))], ident)
        start = _with_spectra(m)
        assert sum(start.bond_dims()) < sum(m.bond_dims())
        for pairs in (((0, 1), (2, 3)), ((1, 2), (3, 4))):
            right = _Side("right", [Gate("rzz", pairs[0], (0.9,)), Gate("swap", pairs[1])], ident)
            assert _split(start, right, cfg).elements == swept_count(start, right, cfg)
            which, kept = _choose_side(left, right, m, cfg, 0)
            ref_which, ref_kept = oracles.two_trial_choose_side(left, right, start, cfg, 0)
            assert which == ref_which and _same_sites(kept, ref_kept)

    def test_failed_spectrum_is_retried(self, monkeypatch):
        # the layer's first stacked SVD fails; its retry on a perturbed copy
        # gives the same count and, up to the perturbation, the same chain
        n = 5
        cfg = ContractionConfig(epsilon=1e-10, chi_max=4096)
        m = identity_mpo(n)
        for g in random_circuit(n, 6, np.random.default_rng(7), adjacent_only=True).gates:
            m = absorb_gate(m, g, "left", cfg.epsilon, cfg.chi_max)
        ident = QubitPermutation.identity(n)
        right = _Side("right", [Gate("rzz", (0, 1), (0.9,)), Gate("swap", (2, 3))], ident)
        reference = oracles.two_trial_absorb(m, right.remaining(), "right", cfg)
        assert _split(m, right, cfg).elements == total_elements(reference)
        real_svd = np.linalg.svd
        failed = []

        def first_stack_fails(a, *args, **kwargs):
            if not failed and a.ndim == 3:
                failed.append(True)
                raise np.linalg.LinAlgError("synthetic non-convergence")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", first_stack_fails)
        split = _split(m, right, cfg)
        assert failed
        assert split.elements == total_elements(reference)
        np.testing.assert_allclose(mpo_to_dense(write_layer(split)), mpo_to_dense(reference),
                                   atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_read_at_a_cutoff_that_bites(self, seed):
        # weak entanglers leave skewed spectra, so the cutoff trims bonds and
        # a count is right only if each blob carries its left bond's weight
        rng = np.random.default_rng(2900 + seed)
        n = 6
        cfg = ContractionConfig(epsilon=2e-2, chi_max=4096)
        m = identity_mpo(n)
        for g in oracles.weak_brickwork(n, 6, rng):
            m = absorb_gate(m, g, "left", 1e-12, cfg.chi_max)
        ident = QubitPermutation.identity(n)
        for which in ("left", "right"):
            layer = [g for g in oracles.weak_brickwork(n, 2, rng) if g.is_two_qubit]
            side = _Side(which, layer, ident)
            count = _split(m, side, cfg).elements
            assert count == swept_count(m, side, cfg)
            assert count < total_elements(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_read_of_a_brick_mirror_predicts(self, monkeypatch, seed):
        for epsilon in (0.0, 1e-8, 2e-3):
            assert_every_read_predicts(monkeypatch, brick_mirror(8, 6, 3100 + seed),
                                       ContractionConfig(epsilon=epsilon, chi_max=4096))

    @pytest.mark.parametrize("epsilon", [0.0, 1e-8, 2e-3])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_read_of_a_generated_instance_predicts(self, monkeypatch, epsilon, seed):
        inst = generate(n=8, depth=24, peak_weight=0.2, obfuscation_swaps=6, seed=3200 + seed)
        cfg = ContractionConfig(epsilon=epsilon, chi_max=4096, tau=300, stall_limit=40)
        assert_every_read_predicts(monkeypatch, inst.circuit, cfg)


class TestNoCenterMoves:
    def test_run_moves_no_center_and_orthogonalizes_only_to_compress(self, monkeypatch):
        # every split, write and unswap visit works from the stored spectra;
        # QR steps are left only in compress and apply_to_zero
        inside = []
        qr_steps = {"inside": 0, "outside": 0}
        moves = []
        for name in ("compress", "apply_to_zero"):
            original = getattr(driver, name)

            def bracketed(*args, original=original):
                inside.append(True)
                try:
                    return original(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(driver, name, bracketed)
        for name in ("_qr_left", "_qr_right"):
            step = getattr(chains, name)

            def counted(sites, i, step=step):
                qr_steps["inside" if inside else "outside"] += 1
                step(sites, i)

            monkeypatch.setattr(chains, name, counted)
        for module in (chains, importlib.import_module("mirrorbreak.unswap")):
            move = module.move_center
            monkeypatch.setattr(module, "move_center", lambda m, target, move=move:
                                moves.append(target) or move(m, target))
        inst = generate(n=6, depth=12, peak_weight=0.10, obfuscation_swaps=0, seed=701)
        result = run(inst.circuit, ContractionConfig(epsilon=1e-8, chi_max=4096, tau=200,
                                                     stall_limit=40))
        assert any(rec.phase == "unswap" for rec in result.trace)
        assert moves == []
        assert qr_steps["outside"] == 0 and qr_steps["inside"] > 0


@st.composite
def gate_lists(draw):
    """Up to 24 gates on 2-6 qubits: one-qubit gates, source two-qubit gates
    on any pair, and routing swaps."""
    n = draw(st.integers(2, 6))
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["h", "cx", "swap", "routing"]))
        a = draw(st.integers(0, n - 1))
        if kind == "h":
            gates.append(Gate("h", (a,)))
            continue
        b = draw(st.integers(0, n - 2))
        pair = (a, b if b < a else b + 1)
        if kind == "routing":
            gates.append(Gate("swap", pair, origin=ORIGIN_ROUTING))
        else:
            gates.append(Gate(kind, pair))
    return n, gates


class TestPeeling:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=gate_lists(), which=st.sampled_from(["left", "right"]), data=st.data())
    def test_matches_repeated_extraction(self, case, which, data):
        n, gates = case
        outer = QubitPermutation(tuple(data.draw(st.permutations(range(n)))))
        # the boundary at the inner end is the outer-end permutation carried
        # inward, from the outer end of the list (its back for left, its
        # front for right), across every routing swap composed on the right
        start = outer
        for g in (reversed(gates) if which == "left" else gates):
            if g.origin == ORIGIN_ROUTING:
                start = start.compose(QubitPermutation.transposition(n, *g.qubits))
        side = _Side(which, list(gates), start)
        assert side.boundary == start
        remaining = list(gates)
        boundary = start
        while remaining:
            assert not side.exhausted
            layer, remaining = oracles.extract_layer(remaining, from_back=(which == "right"))
            assert side.layer() == layer
            assert side.consume() == layer
            assert side.remaining() == remaining
            for g in layer:
                if g.origin == ORIGIN_ROUTING:
                    boundary = boundary.compose(QubitPermutation.transposition(n, *g.qubits))
            assert side.boundary == boundary
        assert side.exhausted and side.layer() is None
        assert side.boundary == outer


class TestFixedModeDigest:
    def test_fixed_mode_outputs_are_pinned(self):
        """``fixed:1`` runs on obfuscated instances are pinned: trace
        tuples, final elements, samples and both permutations. The
        benchmark's workloads choose sides adaptively, so this covers the
        fixed-mode write path. Like the benchmark's hidden-perm digest, the
        samples come from non-trivial probabilities; a change that alters
        these outputs on purpose re-pins the digest and says so in
        CHANGES.md."""
        cfg = ContractionConfig(epsilon=1e-8, tau=2000, side_mode="fixed:1", stall_limit=40)
        h = hashlib.sha256()
        for seed in range(5):
            inst = generate(n=8, depth=40, peak_weight=0.1, obfuscation_swaps=16, seed=seed)
            result = run(inst.circuit, cfg)
            record = {
                "trace": [(r.phase, r.unitaries_consumed, r.elements) for r in result.trace],
                "final_elements": result.final_elements,
                "samples": sample_output(result, 200, seed=seed),
                "output_permutation": result.output_permutation.mapping,
                "input_permutation": result.input_permutation.mapping,
            }
            h.update(json.dumps(record, separators=(",", ":")).encode())
        assert h.hexdigest() == (
            "0430117a62ea7ae4af74920b9d32d3c7c6d4b9ee6ced278658194966472c8e40")


class TestDeterminism:
    def test_identical_runs_give_identical_traces_and_samples(self):
        inst = generate(n=6, depth=30, peak_weight=0.3, obfuscation_swaps=6, seed=55)
        cfg = ContractionConfig(epsilon=1e-10, chi_max=512, tau=300)
        r1 = run(inst.circuit, cfg)
        r2 = run(inst.circuit, cfg)
        algo1 = [(t.phase, t.unitaries_consumed, t.elements) for t in r1.trace]
        algo2 = [(t.phase, t.unitaries_consumed, t.elements) for t in r2.trace]
        assert algo1 == algo2
        assert sample_output(r1, 200, seed=9) == sample_output(r2, 200, seed=9)
        assert r1.output_permutation == r2.output_permutation


class TestSampleOutput:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabeling_matches_per_shot_apply_to_bits(self, seed):
        inst = generate(n=6, depth=30, peak_weight=0.3, obfuscation_swaps=6, seed=55)
        result = run(inst.circuit, ContractionConfig(epsilon=1e-10, chi_max=512, tau=300))
        rng = np.random.default_rng(seed)
        mapping = tuple(int(x) for x in rng.permutation(6))
        perm = QubitPermutation(mapping)
        assert not perm.is_identity()
        relabeled = dataclasses.replace(result, output_permutation=perm)
        raw = sample(result.state, 400, seed=seed)
        assert sample_output(relabeled, 400, seed=seed) == [perm.apply_to_bits(b) for b in raw]


class TestTrace:
    def test_emit_empty_trace(self):
        sink = io.StringIO()
        emit_trace((), sink)
        assert sink.getvalue() == ""

    def test_single_record_round_trip(self):
        rec = TraceRecord("absorb", 3, 48, 0.125)
        sink = io.StringIO()
        emit_trace((rec,), sink)
        line = sink.getvalue()
        assert '"phase":"absorb"' in line
        assert parse_trace(line) == (rec,)

    def test_absorb_line_keeps_the_four_fields(self):
        sink = io.StringIO()
        emit_trace((TraceRecord("absorb", 3, 48, 0.125),), sink)
        assert sink.getvalue() == (
            '{"phase":"absorb","unitaries_consumed":3,"elements":48,"wall_time_s":0.125}\n')

    def test_unswap_record_round_trip(self):
        rec = TraceRecord("unswap", 7, 96, 0.5, elements_before=160, accepted_swaps=2,
                          max_bond=4)
        sink = io.StringIO()
        emit_trace((rec,), sink)
        line = sink.getvalue()
        assert line == ('{"phase":"unswap","unitaries_consumed":7,"elements":96,'
                        '"wall_time_s":0.5,"elements_before":160,"accepted_swaps":2,'
                        '"max_bond":4}\n')
        assert parse_trace(line) == (rec,)

    def test_unswap_line_without_the_new_fields_still_parses(self):
        old = '{"phase":"unswap","unitaries_consumed":7,"elements":96,"wall_time_s":0.5}\n'
        assert parse_trace(old) == (TraceRecord("unswap", 7, 96, 0.5),)

    def test_run_fills_the_unswap_fields(self):
        inst = generate(n=6, depth=30, peak_weight=0.4, obfuscation_swaps=6, seed=17)
        result = run(inst.circuit, ContractionConfig(epsilon=1e-10, chi_max=512, tau=300))
        phases = [rec.phase for rec in result.trace]
        assert "unswap" in phases
        for prev, rec in zip(result.trace, result.trace[1:]):
            if rec.phase == "absorb":
                assert rec.elements_before is rec.accepted_swaps is rec.max_bond is None
                continue
            # an unswap follows the absorb that crossed tau, and starts from its chain
            assert prev.phase == "absorb" and rec.elements_before == prev.elements
            assert rec.accepted_swaps >= 0
            assert 1 <= rec.max_bond and 4 * rec.max_bond <= rec.elements
        assert sum(rec.accepted_swaps for rec in result.trace if rec.phase == "unswap") > 0

    def test_run_trace_is_monotone_in_unitaries(self):
        inst = generate(n=6, depth=30, peak_weight=0.4, obfuscation_swaps=6, seed=17)
        cfg = ContractionConfig(epsilon=1e-10, chi_max=512, tau=300)
        result = run(inst.circuit, cfg)
        consumed = [rec.unitaries_consumed for rec in result.trace]
        assert consumed == sorted(consumed)
        times = [rec.wall_time_s for rec in result.trace]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_sawtooth_shape_under_small_tau(self):
        inst = generate(n=12, depth=120, peak_weight=0.3, obfuscation_swaps=30, seed=5)
        cfg = ContractionConfig(epsilon=1e-8, chi_max=4096, tau=5000, stall_limit=25)
        result = run(inst.circuit, cfg)
        cycles = 0
        for prev, cur in zip(result.trace, result.trace[1:]):
            if prev.phase == "absorb" and cur.phase == "unswap":
                assert prev.elements >= cfg.tau
                if cur.elements < prev.elements:
                    cycles += 1
        assert cycles >= 3


class TestResultShape:
    def test_input_permutation_recorded(self):
        c = mirror_circuit(4, 6, 3)
        result = run(c, TIGHT)
        assert isinstance(result.input_permutation, QubitPermutation)

    def test_state_is_normalized(self):
        c = mirror_circuit(4, 6, 4)
        result = run(c, TIGHT)
        vec = mps_to_dense(result.state)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-8)

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError, match="no gates"):
            run(Circuit(3, ()), TIGHT)
