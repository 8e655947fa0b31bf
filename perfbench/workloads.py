"""Benchmark workloads: seeded instance families, solver settings and the
correctness checks run on every solved instance.

Each workload draws its instances from ``--seed`` alone and hands the
program only QASM text. Instance cost on peaked circuits is heavy-tailed
(the greedy unswap pass sometimes grinds), so hidden-perm is many small
instances rather than a few large ones: the batch then averages over enough
draws that two seeds give the same medians. Mirror instances of one shape
cost the same, so mirror-wide is a few instances solved in more passes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from mirrorbreak import Circuit, ContractionConfig, Gate, generate, serialize_qasm
from mirrorbreak.circuit import inverse_circuit

# The frequency check is a 3-sigma test for the whole batch: each instance
# is tested at the Bonferroni share of the two-sided 3-sigma false-alarm
# rate, because a per-instance 3-sigma test false-alarms on 0.27% of correct
# instances, which over a run of dozens of instances happens often.
FAMILY_FALSE_ALARM = 2 * (1 - NormalDist().cdf(3.0))
# |p_contracted(peak) - p_reference(peak)| above this fails the instance;
# at epsilon <= 1e-8 the truncation error is many orders below it.
PROB_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int  # generator seed, reported with any failure
    # seeds sample_output; drawn apart from ``seed`` because generate() seeds
    # numpy's default generator with ``seed`` too, and shots drawn from that
    # same stream would reuse the uniforms that built the circuit
    shot_seed: int
    qasm: str
    num_qubits: int
    peak: str  # expected most frequent bitstring
    p_reference: float  # exact probability of ``peak``
    mirror: bool  # pure mirror: output must be |0...0> on an identity chain


@dataclass(frozen=True)
class Workload:
    name: str
    config: ContractionConfig
    instances: int
    shots: int
    budget_s: float  # per-instance wall budget; over it the instance fails
    # passes over the set; each instance reports its fastest solve. Other
    # tenants of the host make the same solve take up to twice as long from
    # one second to the next; an instance's solves lie a pass apart, so the
    # fastest mostly misses that (slowdowns that last a minute are left to
    # batch_ref_s in run.py). The count is fixed, not filled to --seconds,
    # so a faster program does not get its minimum over more samples.
    passes: int
    make: object  # (seed, index) -> Instance


def _draw_seeds(seed: int, index: int) -> tuple[np.random.Generator, int, int]:
    rng = np.random.default_rng([seed, index])
    return rng, int(rng.integers(2**31)), int(rng.integers(2**31))


HIDDEN_QUBITS = 6


def _hidden_perm(seed: int, index: int) -> Instance:
    _, gen_seed, shot_seed = _draw_seeds(seed, index)
    inst = generate(n=HIDDEN_QUBITS, depth=2 * HIDDEN_QUBITS, peak_weight=0.10,
                    obfuscation_swaps=0, seed=gen_seed)
    # the mirror block collapses to the permutation exactly and each qubit's
    # dilution keeps w**(1/n) on the peak bit, so the design weight is exact
    return Instance(index, gen_seed, shot_seed, serialize_qasm(inst.circuit), HIDDEN_QUBITS,
                    inst.peak, inst.design_weight, mirror=False)


MIRROR_QUBITS = 56
MIRROR_LAYERS = 10


def mirror_circuit(n: int, layers: int, rng: np.random.Generator) -> Circuit:
    """Random u3-dressed rzz brickwork G followed by its inverse."""
    gates = []
    for layer in range(layers):
        for i in range(layer % 2, n - 1, 2):
            for q in (i, i + 1):
                gates.append(Gate("u3", (q,), tuple(float(x) for x in rng.uniform(-math.pi, math.pi, 3))))
            gates.append(Gate("rzz", (i, i + 1), (float(rng.uniform(0.2, math.pi - 0.2)),)))
    block = Circuit(n, tuple(gates))
    return Circuit(n, block.gates + inverse_circuit(block).gates)


def _mirror_wide(seed: int, index: int) -> Instance:
    rng, gen_seed, shot_seed = _draw_seeds(seed, index)
    c = mirror_circuit(MIRROR_QUBITS, MIRROR_LAYERS, rng)
    return Instance(index, gen_seed, shot_seed, serialize_qasm(c), MIRROR_QUBITS,
                    "0" * MIRROR_QUBITS, 1.0, mirror=True)


# why each workload was chosen is recorded next to its name in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hidden-perm",
            config=ContractionConfig(epsilon=1e-8, chi_max=4096, tau=200,
                                     side_mode="adaptive", stall_limit=40),
            instances=120, shots=1000, budget_s=20.0, passes=4, make=_hidden_perm,
        ),
        Workload(
            name="mirror-wide",
            config=ContractionConfig(epsilon=1e-10, chi_max=4096),
            instances=5, shots=20_000, budget_s=30.0, passes=6, make=_mirror_wide,
        ),
    )
}


def make_instances(w: Workload, seed: int) -> list[Instance]:
    return [w.make(seed, i) for i in range(w.instances)]


def warmup_circuit(seed: int) -> str:
    """Small mirror solved once in set-up: pays first-call costs without
    adding a heavy-tailed instance to the set-up time."""
    return serialize_qasm(mirror_circuit(8, 8, np.random.default_rng([seed, 2**31])))


def peak_probability(result, bits: str) -> float:
    """Exact |<bits|psi>|^2 read from the output chain. ``sample_output``
    moves raw bit i to position mapping[i], so raw bit i is bits[mapping[i]].
    The chain is normalized by ``apply_to_zero``; its scale lives in
    ``log_norm`` and is not part of the probability."""
    mapping = result.output_permutation.mapping
    env = np.ones(1, dtype=np.complex128)
    for i, site in enumerate(result.state.sites):
        env = env @ site[:, int(bits[mapping[i]]), :]
    return float(abs(env[0]) ** 2)


def check(inst: Instance, result, samples: list[str], shots: int, batch: int) -> tuple[str | None, float]:
    """Return (failure reason or None, |p_contracted - p_reference|)."""
    err = abs(peak_probability(result, inst.peak) - inst.p_reference)
    if inst.mirror:
        if any(s != inst.peak for s in samples):
            return "nonzero_sample", err
        if result.final_elements != 4 * inst.num_qubits:
            return "not_identity_chain", err
    else:
        counts = Counter(samples)
        top = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if top != inst.peak:
            return "wrong_peak", err
        p = inst.p_reference
        z = NormalDist().inv_cdf(1 - FAMILY_FALSE_ALARM / (2 * batch))
        if abs(counts[inst.peak] / shots - p) > z * math.sqrt(p * (1 - p) / shots):
            return "peak_frequency", err
    if err > PROB_TOLERANCE:
        return "peak_probability", err
    return None, err
