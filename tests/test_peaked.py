"""Tests for the peaked-instance generator."""

import json

import numpy as np
import pytest

from mirrorbreak.circuit import parse_qasm
from mirrorbreak.driver import ContractionConfig, dense_output, run
from mirrorbreak.oracle import peak_of, simulate
from mirrorbreak.peaked import generate, write_instance

from .oracles import exact_generated_fidelity


class TestGenerate:
    def test_undiluted_instance_peaks_with_probability_one(self):
        inst = generate(n=5, depth=20, peak_weight=1.0, obfuscation_swaps=0, seed=3)
        assert inst.achieved_weight == pytest.approx(1.0, abs=1e-9)
        top, p = peak_of(simulate(inst.circuit))
        assert top == inst.peak
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_target_weight_reached(self):
        inst = generate(n=10, depth=100, peak_weight=0.10, obfuscation_swaps=10, seed=4)
        assert inst.achieved_weight is not None
        assert 0.08 <= inst.achieved_weight <= 1.0

    def test_determinism(self):
        a = generate(n=6, depth=30, peak_weight=0.5, obfuscation_swaps=5, seed=42)
        b = generate(n=6, depth=30, peak_weight=0.5, obfuscation_swaps=5, seed=42)
        assert a.circuit == b.circuit
        assert a.peak == b.peak

    def test_different_seeds_differ(self):
        a = generate(n=6, depth=30, peak_weight=0.5, obfuscation_swaps=5, seed=1)
        b = generate(n=6, depth=30, peak_weight=0.5, obfuscation_swaps=5, seed=2)
        assert a.circuit != b.circuit

    @pytest.mark.parametrize("seed", range(10))
    def test_planted_peak_is_argmax(self, seed):
        inst = generate(n=8, depth=60, peak_weight=0.10, obfuscation_swaps=8, seed=seed)
        top, _ = peak_of(simulate(inst.circuit))
        assert top == inst.peak
        assert inst.achieved_weight >= 0.08

    @pytest.mark.parametrize("swaps", [0, 4, 12])
    def test_obfuscation_preserves_distribution(self, swaps):
        base = generate(n=6, depth=40, peak_weight=0.3, obfuscation_swaps=0, seed=11)
        obf = generate(n=6, depth=40, peak_weight=0.3, obfuscation_swaps=swaps, seed=11)
        p0 = np.abs(simulate(base.circuit)) ** 2
        pk = np.abs(simulate(obf.circuit)) ** 2
        np.testing.assert_allclose(pk, p0, atol=1e-10)

    def test_two_qubit_budget_is_respected_roughly(self):
        inst = generate(n=8, depth=80, peak_weight=0.2, obfuscation_swaps=6, seed=5)
        count = inst.circuit.two_qubit_count()
        # mirror block ~depth, plus hidden permutation and mirrored obfuscation
        assert 80 <= count <= 80 + 8 * 7 // 2 + 2 * 6 + 2

    def test_validation(self):
        with pytest.raises(ValueError, match="two qubits"):
            generate(1, 10, 0.5, 0, 0)
        with pytest.raises(ValueError, match="depth"):
            generate(4, 2, 0.5, 0, 0)
        with pytest.raises(ValueError, match="peak_weight"):
            generate(4, 10, 0.0, 0, 0)
        with pytest.raises(ValueError, match="peak_weight"):
            generate(4, 10, 1.5, 0, 0)

    @pytest.mark.parametrize("n,depth,weight", [(2, 4, 0.1), (3, 4, 0.1), (4, 8, 0.05)])
    def test_weight_at_which_the_peak_is_not_the_argmax_is_rejected(self, n, depth, weight):
        # each qubit's peak bit has probability weight ** (1/n), at most 1/2
        # here, so another bitstring is at least as likely as the peak
        with pytest.raises(ValueError, match=rf"peak_weight must exceed 2\*\*-{n} "):
            generate(n, depth, weight, 0, 1)

    @pytest.mark.parametrize("n,weight", [(2, 0.3), (3, 0.2)])
    def test_weight_above_the_bound_plants_the_argmax(self, n, weight):
        inst = generate(n, 4, weight, 0, 1)
        top, p = peak_of(simulate(inst.circuit))
        assert top == inst.peak
        assert p == pytest.approx(weight, abs=1e-9)

    def test_large_instances_skip_oracle_check(self):
        inst = generate(n=16, depth=32, peak_weight=0.5, obfuscation_swaps=2, seed=6)
        assert inst.achieved_weight is None
        assert len(inst.peak) == 16


class TestWriteInstance:
    def test_files_round_trip(self, tmp_path):
        inst = generate(n=5, depth=20, peak_weight=0.4, obfuscation_swaps=3, seed=9)
        qasm_path, json_path = write_instance(inst, tmp_path / "case")
        parsed = parse_qasm(qasm_path.read_text())
        assert parsed.num_qubits == 5
        assert len(parsed.gates) == len(inst.circuit.gates)
        sidecar = json.loads(json_path.read_text())
        assert sidecar["peak"] == inst.peak
        assert sidecar["design_weight"] == 0.4
        assert sidecar["seed"] == 9
        assert sidecar["achieved_weight"] == pytest.approx(inst.achieved_weight)

    def test_deterministic_bytes(self, tmp_path):
        inst = generate(n=5, depth=20, peak_weight=0.4, obfuscation_swaps=3, seed=9)
        p1 = write_instance(inst, tmp_path / "a")
        p2 = write_instance(inst, tmp_path / "b")
        assert p1[0].read_bytes() == p2[0].read_bytes()
        assert p1[1].read_bytes() == p2[1].read_bytes()


class TestExactReference:
    """``oracles.exact_generated_fidelity`` against the statevector oracle,
    within the dense cap; past it the exact reference stands alone."""

    @pytest.mark.parametrize("peak_weight", [0.1, 1.0])
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_matches_the_dense_fidelity(self, n, peak_weight):
        inst = generate(n=n, depth=6 * n, peak_weight=peak_weight, obfuscation_swaps=n,
                        seed=40 + n)
        cfg = ContractionConfig(epsilon=1e-10, chi_max=4096, tau=20_000, stall_limit=40,
                                side_mode="fixed:1")
        result = run(inst.circuit, cfg)
        # the relabeling is exercised, not skipped
        assert not result.output_permutation.is_identity()
        produced, reference = dense_output(result), simulate(inst.circuit)
        dense = abs(np.vdot(reference, produced)) ** 2 / np.vdot(produced, produced).real
        exact = exact_generated_fidelity(inst, result)
        assert abs(exact - dense) <= 1e-12
        assert exact >= 1 - 1e-10
