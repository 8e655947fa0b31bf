"""Tests for the circuit IR, gate unitaries, QASM round trips, and splitting."""

import math
import re

try:
    from re import _parser as sre_parse  # Python >= 3.11
except ImportError:
    import sre_parse

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm

from mirrorbreak import circuit as circuit_module
from mirrorbreak.circuit import (
    Circuit,
    Gate,
    QasmError,
    gate_unitary,
    inverse_circuit,
    inverse_gate,
    parse_qasm,
    serialize_qasm,
    split_at_midpoint,
)

from .oracles import assert_built_as_checked, random_circuit, reference_parse_qasm
from .qasm_fuzz import mutated_qasm


# ------------------------------------------------------------------ #
# Gate / Circuit construction
# ------------------------------------------------------------------ #


class TestGateValidation:
    def test_param_count_enforced(self):
        with pytest.raises(ValueError, match="parameter"):
            Gate("rx", (0,), ())
        with pytest.raises(ValueError, match="parameter"):
            Gate("h", (0,), (0.5,))
        with pytest.raises(ValueError, match="parameter"):
            Gate("u3", (0,), (0.1, 0.2))

    def test_distinct_qubits_enforced(self):
        with pytest.raises(ValueError, match="identical"):
            Gate("cx", (1, 1))

    def test_routing_tag_restricted_to_swap(self):
        with pytest.raises(ValueError, match="transpilation-swap"):
            Gate("cx", (0, 1), (), "transpilation-swap")
        Gate("swap", (0, 1), (), "transpilation-swap")  # fine

    def test_circuit_qubit_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            Circuit(2, (Gate("h", (2,)),))


# ------------------------------------------------------------------ #
# gate unitaries
# ------------------------------------------------------------------ #


class TestGateUnitary:
    def test_swap_exchanges_01_and_10(self):
        u = gate_unitary(Gate("swap", (0, 1)))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1
        expected[1, 2] = expected[2, 1] = 1
        np.testing.assert_array_equal(u, expected)

    def test_rzz_zero_angle_is_identity(self):
        u = gate_unitary(Gate("rzz", (0, 1), (0.0,)))
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    def test_rz_pi_matches_matrix_exponential(self):
        z = np.diag([1.0, -1.0])
        expected = expm(-1j * np.pi * z / 2)
        u = gate_unitary(Gate("rz", (0,), (np.pi,)))
        np.testing.assert_allclose(u, expected, atol=1e-12)

    @pytest.mark.parametrize("kind,nparams", [("rx", 1), ("ry", 1), ("rzz", 1)])
    def test_rotations_match_matrix_exponential(self, kind, nparams):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        z = np.diag([1.0 + 0j, -1.0])
        generator = {"rx": x, "ry": y, "rzz": np.kron(z, z)}[kind]
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 20):
            qubits = (0,) if kind in ("rx", "ry") else (0, 1)
            u = gate_unitary(Gate(kind, qubits, (float(theta),)))
            np.testing.assert_allclose(u, expm(-0.5j * theta * generator), atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, -0.0, 0.7, -0.7, math.pi, -3 * math.pi])
    def test_rx_bits_do_not_depend_on_the_python_version(self, theta):
        # the off-diagonal -i.s has real part +0.0 whichever way the
        # interpreter multiplies a complex by a float
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected = np.array([[complex(c, 0.0), complex(0.0, -s)],
                             [complex(0.0, -s), complex(c, 0.0)]])
        assert gate_unitary(Gate("rx", (0,), (theta,))).tobytes() == expected.tobytes()

    def test_unitarity_over_random_parameter_draws(self):
        rng = np.random.default_rng(6)
        kinds = [("h", 0, 1), ("x", 0, 1), ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1),
                 ("u3", 3, 1), ("cx", 0, 2), ("rzz", 1, 2), ("swap", 0, 2)]
        for _ in range(1000):
            kind, nparams, nq = kinds[rng.integers(len(kinds))]
            params = tuple(float(t) for t in rng.uniform(-2 * np.pi, 2 * np.pi, nparams))
            qubits = (0,) if nq == 1 else (0, 1)
            u = gate_unitary(Gate(kind, qubits, params))
            err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            assert err <= 1e-12

    def test_inverse_gate_is_adjoint(self):
        rng = np.random.default_rng(7)
        for kind, nparams, nq in [("rx", 1, 1), ("u3", 3, 1), ("rzz", 1, 2), ("cx", 0, 2)]:
            params = tuple(float(t) for t in rng.uniform(-np.pi, np.pi, nparams))
            qubits = (0,) if nq == 1 else (0, 1)
            g = Gate(kind, qubits, params)
            np.testing.assert_allclose(
                gate_unitary(inverse_gate(g)), gate_unitary(g).conj().T, atol=1e-12
            )

    def test_inverse_circuit_round_trip(self):
        rng = np.random.default_rng(8)
        c = random_circuit(3, 5, rng, adjacent_only=True)
        from .oracles import circuit_unitary_naive

        u = circuit_unitary_naive(c)
        u_inv = circuit_unitary_naive(inverse_circuit(c))
        np.testing.assert_allclose(u_inv @ u, np.eye(8), atol=1e-10)


# ------------------------------------------------------------------ #
# QASM parsing and serialization
# ------------------------------------------------------------------ #

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestParseQasm:
    def test_single_h(self):
        c = parse_qasm(HEADER + "qreg q[1];\nh q[0];\n")
        assert c.num_qubits == 1
        assert c.gates == (Gate("h", (0,)),)

    def test_rzz_direct_mapping(self):
        c = parse_qasm(HEADER + "qreg q[4];\nrzz(0.5) q[0],q[3];\n")
        assert c.gates == (Gate("rzz", (0, 3), (0.5,)),)

    def test_arity_violation(self):
        with pytest.raises(QasmError, match="2 qubit"):
            parse_qasm(HEADER + "qreg q[4];\nrzz(0.5) q[0];\n")

    def test_measurements_dropped(self):
        c = parse_qasm(
            HEADER + "qreg q[2];\ncreg c[2];\nx q[0];\nmeasure q[0] -> c[0];\nmeasure q -> c;\n"
        )
        assert c.gates == (Gate("x", (0,)),)

    def test_barrier_ignored(self):
        c = parse_qasm(HEADER + "qreg q[2];\nbarrier q;\nx q[1];\n")
        assert c.gates == (Gate("x", (1,)),)

    def test_pi_expressions(self):
        c = parse_qasm(HEADER + "qreg q[1];\nrx(pi/2) q[0];\nrz(-3*pi/4) q[0];\nry(2e-3) q[0];\n")
        assert c.gates[0].params[0] == pytest.approx(np.pi / 2)
        assert c.gates[1].params[0] == pytest.approx(-3 * np.pi / 4)
        assert c.gates[2].params[0] == pytest.approx(2e-3)

    def test_qubit_out_of_bounds(self):
        with pytest.raises(QasmError, match="out of register bounds"):
            parse_qasm(HEADER + "qreg q[2];\nh q[2];\n")

    def test_unsupported_construct_named(self):
        with pytest.raises(QasmError, match="unsupported construct 'ccx'"):
            parse_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n")

    def test_error_carries_line_and_column(self):
        with pytest.raises(QasmError) as err:
            parse_qasm(HEADER + "qreg q[2];\nh q[0];\nbogus q[0];\n")
        assert err.value.line == 5
        assert "line 5" in str(err.value)

    def test_origin_is_source(self):
        c = parse_qasm(HEADER + "qreg q[2];\nswap q[0],q[1];\n")
        assert c.gates[0].origin == "source"

    def test_program_without_register_rejected(self):
        with pytest.raises(QasmError, match="no quantum register"):
            parse_qasm("OPENQASM 2.0;\n")

    def test_gate_before_register_rejected(self):
        with pytest.raises(QasmError, match="before qreg"):
            parse_qasm("OPENQASM 2.0;\nh q[0];\nqreg q[1];\n")

    def test_patterns_need_no_python_3_11_syntax(self):
        # possessive quantifiers and atomic groups are new in Python 3.11;
        # on 3.10, which the package supports, they fail at import
        def opcodes(node):
            if isinstance(node, sre_parse.SubPattern):
                for op, av in node.data:
                    yield op.name
                    yield from opcodes(av)
            elif isinstance(node, (tuple, list)):
                for x in node:
                    yield from opcodes(x)

        patterns = [v for v in vars(circuit_module).values() if isinstance(v, re.Pattern)]
        assert len(patterns) >= 3
        for pattern in patterns:
            used = set(opcodes(sre_parse.parse(pattern.pattern, pattern.flags)))
            assert not used & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern


# one malformed program per error the token-list reference parser raises
REFERENCE_ERRORS = {
    "unexpected character": "OPENQASM 2.0;\nqreg q[2];\nfoo;\nx q[1]; @\n",
    "unexpected end of input": "OPENQASM 2.0;\nqreg q[2];\nh q[0]\n",
    "unexpected end of empty input": "// nothing here\n",
    "expected token": "OPENQASM 2.0;\nqreg q[2];\nh q[0] q[1];\n",
    "bad angle expression": "OPENQASM 2.0;\nqreg q[2];\nrx(pi/q) q[0];\n",
    "expected qubit register": "OPENQASM 2.0;\nqreg q[2];\nh r[0];\n",
    "expected qubit index": "OPENQASM 2.0;\nqreg q[2];\ncx q[0],\n  q[a];\n",
    "qubit out of bounds": "OPENQASM 2.0;\nqreg q[2];\nh q[2];\n",
    "missing header": "qreg q[2];\nh q[0];\n",
    "unsupported version": "OPENQASM 3.0;\nqreg q[1];\n",
    "expected include file name": "OPENQASM 2.0;\ninclude qelib1.inc;\nqreg q[1];\n",
    "multiple registers": "OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n",
    "register size not positive": "OPENQASM 2.0;\nqreg q[0];\n",
    "register name not a name": "OPENQASM 2.0;\nqreg ;[2];\n",
    "classical register name not a name": "OPENQASM 2.0;\nqreg q[2];\ncreg 5[2];\n",
    "classical register size not an integer": "OPENQASM 2.0;\nqreg q[2];\ncreg c[;];\n",
    "gate before qreg": "OPENQASM 2.0;\nh q[0];\nqreg q[1];\n",
    "parameter count": "OPENQASM 2.0;\nqreg q[2];\nu3(1, 2) q[0];\n",
    "qubit count": "OPENQASM 2.0;\nqreg q[2];\nh q[0]; cx q[0];\n",
    "repeated qubit": "OPENQASM 2.0;\nqreg q[2];\ncx q[1], q[1];\n",
    "repeated qubit written two ways": "OPENQASM 2.0;\nqreg q[2];\nrzz(1) q[01], q[1];\n",
    "unsupported construct": "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n",
    "gate name run into register": "OPENQASM 2.0;\nqreg q[2];\nhq[0];\n",
    "no register": 'OPENQASM 2.0;\ninclude "qelib1.inc";\n',
}

# malformed programs the reference let escape as another exception or
# accepted with a non-finite angle: (program, error)
NEW_ERRORS = {
    "register size a name": ("OPENQASM 2.0;\nqreg q[x];\n",
                             "line 2, column 8: register size must be an integer, found 'x'"),
    "register size a float": ("OPENQASM 2.0;\nqreg q[2.0];\n",
                              "line 2, column 8: register size must be an integer, found '2.0'"),
    "division by zero": ("OPENQASM 2.0;\nqreg q[1];\nrx(1/0) q[0];\n",
                         "line 3, column 5: division by zero in angle expression"),
    "infinite angle": ("OPENQASM 2.0;\nqreg q[1];\nh q[0];  rx(1e999) q[0];\n",
                       "line 3, column 10: rx angles must be finite, got (inf,)"),
    "nan angle": ("OPENQASM 2.0;\nqreg q[1];\nu3(0, 1e999-1e999, 0) q[0];\n",
                  "line 3, column 1: u3 angles must be finite, got (0.0, nan, 0.0)"),
    # more digits than int() converts from a string
    "register size too long": ("OPENQASM 2.0;\nqreg q[" + "9" * 5000 + "];\n",
                               "line 2, column 8: register size too large"),
    "qubit index too long": ("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[" + "1" * 5000 + "];\n",
                             "line 3, column 12: qubit index too large"),
}


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return exc


class TestParserAgainstReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_ERRORS))
    def test_same_error_as_reference(self, name):
        text = REFERENCE_ERRORS[name]
        with pytest.raises(QasmError) as ref:
            reference_parse_qasm(text)
        with pytest.raises(QasmError) as new:
            parse_qasm(text)
        assert str(new.value) == str(ref.value)
        assert (new.value.line, new.value.column) == (ref.value.line, ref.value.column)

    @pytest.mark.parametrize("name", sorted(NEW_ERRORS))
    def test_reference_escapes_are_qasm_errors(self, name):
        text, message = NEW_ERRORS[name]
        with pytest.raises((ValueError, ZeroDivisionError)) as ref:
            reference_parse_qasm(text)
        assert not isinstance(ref.value, QasmError)
        with pytest.raises(QasmError) as new:
            parse_qasm(text)
        assert str(new.value) == message

    def test_layout_and_comments_match_reference(self):
        text = (
            "OPENQASM // version follows\n 2.0;include \"a;b//c.inc\";\n"
            "qreg q\n[3]; creg c[3];  // comment with ; and \"\n"
            "rx(\n  -3*pi/4 // three quarters\n) q[0]; cx q[0],\nq[2];\n"
            "u3(1e-3, -(pi + .5)/2, +7.) q[1]; barrier q;\n"
            "measure q[0] -> c[0];\nrzz(0.5)q[1],q[2];"
        )
        c = parse_qasm(text)
        assert c == reference_parse_qasm(text)
        assert [g.kind for g in c.gates] == ["rx", "cx", "u3", "rzz"]
        assert c.gates[0].params == (-3 * math.pi / 4,)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=mutated_qasm())
    def test_mutated_programs_match_reference(self, text):
        ref = outcome(reference_parse_qasm, text)
        new = outcome(parse_qasm, text)
        if isinstance(ref, Circuit):
            assert new == ref, text
        else:
            assert isinstance(new, QasmError), (text, new)
            if isinstance(ref, QasmError):
                assert str(new) == str(ref), text


class TestParsedGatesAreChecked:
    """The parser makes every check of ``Gate`` itself and builds its gates
    and circuit without repeating them; what it builds must be what the
    checking constructors build from the same fields."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(text=mutated_qasm())
    def test_mutated_programs(self, text):
        c = outcome(parse_qasm, text)
        if isinstance(c, Circuit):
            assert_built_as_checked(c)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_programs(self, seed):
        c = random_circuit(6, 20, np.random.default_rng(230 + seed))
        assert_built_as_checked(parse_qasm(serialize_qasm(c)))


class TestDeepAngles:
    @pytest.mark.parametrize("angle", ["(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"])
    def test_deep_nesting_is_a_qasm_error(self, angle):
        with pytest.raises(QasmError, match="nested too deeply"):
            parse_qasm(HEADER + f"qreg q[1];\nrx({angle}) q[0];\n")


class TestNonFiniteAngles:
    def test_gate_rejects_non_finite_parameters(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                Gate("rx", (0,), (bad,))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_serialize_then_parse_is_identity(self, seed):
        rng = np.random.default_rng(200 + seed)
        c = random_circuit(5, 12, rng)
        text = serialize_qasm(c)
        again = parse_qasm(text)
        assert again == reference_parse_qasm(text)
        assert again.num_qubits == c.num_qubits
        assert len(again.gates) == len(c.gates)
        for g1, g2 in zip(c.gates, again.gates):
            assert (g1.kind, g1.qubits) == (g2.kind, g2.qubits)
            assert g1.params == g2.params  # exact float equality via 17 sig digits

    def test_serializer_format(self):
        c = Circuit(2, (Gate("rx", (0,), (0.1,)), Gate("cx", (0, 1))))
        text = serialize_qasm(c)
        assert text.startswith("OPENQASM 2.0;\n")
        assert "qreg q[2];" in text
        assert "rx(0.10000000000000001) q[0];" in text
        assert "cx q[0],q[1];" in text


# ------------------------------------------------------------------ #
# split_at_midpoint
# ------------------------------------------------------------------ #


class TestSplit:
    def _two_qubit_chain(self, k):
        gates = tuple(Gate("cx", (0, 1)) for _ in range(k))
        return Circuit(2, gates)

    def test_even_count_splits_in_half(self):
        first, second = split_at_midpoint(self._two_qubit_chain(4))
        assert first.two_qubit_count() == 2
        assert second.two_qubit_count() == 2

    def test_odd_count_gives_left_the_smaller_half(self):
        first, second = split_at_midpoint(self._two_qubit_chain(5))
        assert first.two_qubit_count() == 2
        assert second.two_qubit_count() == 3

    @pytest.mark.parametrize("kinds,cut", [
        ("hhhhh", 2),  # T = 0: half the gates, rounded down
        ("h", 0),
        ("hhchh", 0),  # T = 1: the lone two-qubit gate goes right
        ("c", 0),
        ("hchhhchh", 2),  # one-qubit gates at the junction go right
        ("chhhcc", 1),
        ("hchccchh", 4),
    ], ids=["T0-odd", "T0-one", "T1", "T1-alone", "junction-T2", "junction-T3",
            "junction-T4"])
    def test_exact_cut(self, kinds, cut):
        gates = tuple(Gate("cx", (0, 1)) if k == "c" else Gate("h", (0,)) for k in kinds)
        first, second = split_at_midpoint(Circuit(2, gates))
        assert first.gates == gates[:cut] and second.gates == gates[cut:]

    @pytest.mark.parametrize("seed", range(5))
    def test_concatenation_reproduces_input(self, seed):
        rng = np.random.default_rng(300 + seed)
        c = random_circuit(4, 9, rng)
        first, second = split_at_midpoint(c)
        assert first.gates + second.gates == c.gates

    def test_mirror_of_two_qubit_gates_splits_at_the_seam(self):
        rng = np.random.default_rng(5)
        g = random_circuit(4, 6, rng, adjacent_only=True, one_qubit_per_two=0)
        mirror = Circuit(4, g.gates + inverse_circuit(g).gates)
        first, second = split_at_midpoint(mirror)
        assert first.gates == g.gates
        assert second.gates == inverse_circuit(g).gates

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split_at_midpoint(Circuit(2, ()))
