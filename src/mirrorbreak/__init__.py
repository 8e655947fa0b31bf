"""Tensor-network contraction of mirrored (peaked) quantum circuits.

The pipeline routes a circuit to a linear chain, splits it at the midpoint,
absorbs gates from both halves into a central matrix product operator,
greedily extracts hidden permutations whenever the operator grows past a
threshold, rewires the remaining circuit, and finally applies the operator
to |0...0> and samples the output exactly.
"""

from .chains import (
    MatrixProductOperator,
    MatrixProductState,
    absorb_gate,
    apply_swap_boundary,
    apply_to_zero,
    compress,
    identity_mpo,
    mpo_to_dense,
    mps_to_dense,
    sample,
    total_elements,
)
from .circuit import Circuit, Gate, gate_unitary, parse_qasm, serialize_qasm, split_at_midpoint
from .driver import ContractionConfig, SimulationResult, StallError, run, sample_output
from .peaked import PeakedInstance, generate
from .routing import QubitPermutation, reindex, route_linear, strip_transpilation_swaps
from .unswap import UnswapResult, unswap

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "ContractionConfig",
    "Gate",
    "MatrixProductOperator",
    "MatrixProductState",
    "PeakedInstance",
    "QubitPermutation",
    "SimulationResult",
    "StallError",
    "UnswapResult",
    "absorb_gate",
    "apply_swap_boundary",
    "apply_to_zero",
    "compress",
    "gate_unitary",
    "generate",
    "identity_mpo",
    "mpo_to_dense",
    "mps_to_dense",
    "parse_qasm",
    "reindex",
    "route_linear",
    "run",
    "sample",
    "sample_output",
    "serialize_qasm",
    "split_at_midpoint",
    "strip_transpilation_swaps",
    "total_elements",
    "unswap",
]
