"""Generator for desk-scale peaked test instances.

An instance is a mirror circuit with a hidden permutation: a random
brickwork block W runs forward, the permutation executes as adjacent swap
gates, and then the inverse of W *relabeled through that permutation* runs
backward, so the whole product collapses to the permutation exactly. An X
layer then steers |0...0> onto the planted peak bitstring, and optional weak
single-qubit rotations dilute the peak to a target weight. Obfuscation swap
gates inserted into W are mirrored automatically by the relabeled inverse,
so they never change the output distribution, only the circuit's appearance.

The generator emulates the structure such circuits exploit (mirror block,
hidden permutation, planted peak); it makes no attempt at adversarial
strength.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, Gate, inverse_circuit, serialize_qasm
from .oracle import bits_to_index, peak_of, simulate
from .routing import QubitPermutation, reindex

ORACLE_CHECK_MAX_QUBITS = 14
WEIGHT_TOLERANCE = 0.02


@dataclass(frozen=True)
class PeakedInstance:
    circuit: Circuit
    peak: str
    design_weight: float
    seed: int
    achieved_weight: float | None  # oracle-verified for small instances only


def _random_brickwork(n: int, num_entanglers: int, rng) -> list[Gate]:
    """Alternating even/odd layers of u3-dressed rzz blocks."""
    gates: list[Gate] = []
    count = 0
    layer = 0
    while count < num_entanglers:
        start = layer % 2
        for i in range(start, n - 1, 2):
            if count >= num_entanglers:
                break
            for q in (i, i + 1):
                params = tuple(float(x) for x in rng.uniform(-math.pi, math.pi, 3))
                gates.append(Gate("u3", (q,), params))
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            gates.append(Gate("rzz", (i, i + 1), (theta,)))
            count += 1
        layer += 1
    return gates


def _insert_obfuscation_swaps(gates: list[Gate], n: int, count: int, rng) -> list[Gate]:
    out = list(gates)
    for _ in range(count):
        a, b = rng.choice(n, size=2, replace=False)
        pos = int(rng.integers(0, len(out) + 1))
        out.insert(pos, Gate("swap", (int(a), int(b))))
    return out


def generate(
    n: int,
    depth: int,
    peak_weight: float,
    obfuscation_swaps: int,
    seed: int,
) -> PeakedInstance:
    """Build a peaked instance with a planted peak of the target weight.

    ``depth`` budgets the mirror block: the forward and mirrored halves
    together hold about ``depth`` two-qubit gates; the hidden permutation's
    swaps and ``obfuscation_swaps`` inserted swap pairs come on top. The
    oracle verifies the achieved peak weight for n <= 14. ``peak_weight``
    must lie in (2**-n, 1]: at or below 2**-n the planted peak is not the
    unique argmax.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    if depth < n:
        raise ValueError("depth must be at least the qubit count")
    if not (0.0 < peak_weight <= 1.0):
        raise ValueError("peak_weight must lie in (0, 1]")
    if peak_weight <= 2.0**-n:
        # each qubit's peak bit has probability peak_weight ** (1/n), which
        # must exceed 1/2 for the planted peak to be the unique argmax
        raise ValueError(f"peak_weight must exceed 2**-{n} = {2.0**-n:.6g} for the planted "
                         f"peak of {n} qubits to be the argmax, got {peak_weight}")
    if obfuscation_swaps < 0:
        raise ValueError("obfuscation swap count must be >= 0")

    rng = np.random.default_rng(seed)
    # fixed draw order: everything that shapes the distribution comes before
    # the obfuscation draws, so swap count never changes the output state
    peak = "".join("1" if rng.random() < 0.5 else "0" for _ in range(n))
    hidden = QubitPermutation(tuple(int(x) for x in rng.permutation(n)))
    perm_gates = [Gate("swap", pair) for pair in hidden.factorization]
    num_entanglers = max(n // 2, (depth - len(perm_gates)) // 2)
    forward = _random_brickwork(n, num_entanglers, rng)

    dilution: list[Gate] = []
    if peak_weight < 1.0:
        angle = 2.0 * math.acos(peak_weight ** (1.0 / (2 * n)))
        for q in range(n):
            kind = "rx" if rng.random() < 0.5 else "ry"
            sign = 1.0 if rng.random() < 0.5 else -1.0
            dilution.append(Gate(kind, (q,), (sign * angle,)))

    forward = _insert_obfuscation_swaps(forward, n, obfuscation_swaps, rng)
    mirrored = inverse_circuit(reindex(Circuit(n, tuple(forward)), hidden))
    x_layer = [Gate("x", (q,)) for q in range(n) if peak[q] == "1"]
    gates = tuple(forward) + tuple(perm_gates) + mirrored.gates + tuple(x_layer) + tuple(dilution)
    circuit = Circuit(n, gates)

    achieved = None
    if n <= ORACLE_CHECK_MAX_QUBITS:
        state = simulate(circuit)
        achieved = float(abs(state[bits_to_index(peak)]) ** 2)
        if achieved < peak_weight - WEIGHT_TOLERANCE:
            raise ValueError(
                f"dilution model missed the target weight: achieved {achieved:.4f} "
                f"for a design weight of {peak_weight:.4f}"
            )
        top, _ = peak_of(state)
        if achieved >= 0.05 and top != peak:
            raise AssertionError("planted peak is not the argmax; generator bug")
    return PeakedInstance(circuit, peak, peak_weight, seed, achieved)


def write_instance(inst: PeakedInstance, out_prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.qasm`` and a ``<prefix>.json`` sidecar."""
    prefix = Path(out_prefix)
    qasm_path = prefix.with_suffix(".qasm")
    json_path = prefix.with_suffix(".json")
    qasm_path.write_text(serialize_qasm(inst.circuit))
    sidecar = {
        "peak": inst.peak,
        "design_weight": inst.design_weight,
        "achieved_weight": inst.achieved_weight,
        "seed": inst.seed,
    }
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return qasm_path, json_path
