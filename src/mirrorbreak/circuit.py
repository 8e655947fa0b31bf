"""Circuit representation, gate unitaries, an OpenQASM-2 subset parser and
serializer, and midpoint splitting.

Conventions fixed here and relied on everywhere else:

* Two-qubit gate matrices are written in the basis ``|ab>`` where ``a`` is
  the first qubit listed on the gate and ``b`` the second, with ``a`` as the
  most significant bit (index = 2*a + b). For ``cx`` the first qubit is the
  control.
* ``rzz(theta) = diag(exp(-i theta/2), exp(+i theta/2), exp(+i theta/2),
  exp(-i theta/2))`` in the computational basis.
* Angles serialize as decimal literals with 17 significant digits, which is
  enough for an exact float64 round trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

ORIGIN_SOURCE = "source"
ORIGIN_ROUTING = "transpilation-swap"

# kind -> (qubit count, parameter count)
GATE_ARITY = {
    "h": (1, 0),
    "x": (1, 0),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "u3": (1, 3),
    "cx": (2, 0),
    "rzz": (2, 1),
    "swap": (2, 0),
}


class QasmError(ValueError):
    """Parse failure with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    origin: str = ORIGIN_SOURCE

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        nq, np_ = GATE_ARITY[self.kind]
        if len(self.qubits) != nq:
            raise ValueError(f"{self.kind} acts on {nq} qubit(s), got {self.qubits}")
        if len(self.params) != np_:
            raise ValueError(f"{self.kind} takes {np_} parameter(s), got {len(self.params)}")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.kind} parameters must be finite, got {self.params}")
        if nq == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"two-qubit gate on identical qubits {self.qubits}")
        if self.origin not in (ORIGIN_SOURCE, ORIGIN_ROUTING):
            raise ValueError(f"bad origin tag {self.origin!r}")
        if self.origin == ORIGIN_ROUTING and self.kind != "swap":
            raise ValueError("only swap gates may carry the transpilation-swap tag")

    @classmethod
    def _checked(cls, kind: str, qubits: tuple[int, ...], params: tuple[float, ...],
                 origin: str) -> "Gate":
        """A gate whose fields the caller has already checked as
        ``__post_init__`` would (a parsed statement, a gate moved by a
        permutation, a routing swap), built without checking them again."""
        g = object.__new__(cls)
        object.__setattr__(g, "kind", kind)
        object.__setattr__(g, "qubits", qubits)
        object.__setattr__(g, "params", params)
        object.__setattr__(g, "origin", origin)
        return g

    def _moved(self, qubits: tuple[int, ...]) -> "Gate":
        """This gate on ``qubits``, which must be the image of its own qubits
        under a permutation of the wires: the image of distinct qubits is
        distinct, and kind, parameters and origin do not change, so nothing
        needs checking again. The gate itself when its wires do not move."""
        if qubits == self.qubits:
            return self
        return Gate._checked(self.kind, qubits, self.params, self.origin)

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} addresses a qubit outside 0..{self.num_qubits - 1}")

    @classmethod
    def _checked(cls, num_qubits: int, gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit of at least one qubit whose gates the caller knows to
        address qubits 0..num_qubits-1 only (a parsed program, or gates
        placed on wires by a permutation of them), built without the bounds
        loop."""
        c = object.__new__(cls)
        object.__setattr__(c, "num_qubits", num_qubits)
        object.__setattr__(c, "gates", gates)
        return c

    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)


# unitaries of the gates without parameters
_FIXED_UNITARIES = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def gate_unitary(g: Gate) -> np.ndarray:
    """Dense 2x2 or 4x4 unitary for a gate, in the conventions above."""
    kind, p = g.kind, g.params
    if kind in _FIXED_UNITARIES:
        return _FIXED_UNITARIES[kind].copy()
    c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
    if kind == "rx":
        # -i.s written out, so that every Python gives the same bits: 3.10 to
        # 3.13 evaluate -1j * s with real part +0.0, 3.14 with -0.0 * s
        return np.array([[c, complex(0.0, -s)], [complex(0.0, -s), c]], dtype=complex)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        # diagonals by item writes: np.diag takes about twice as long at 2x2 and 4x4
        u = np.zeros((2, 2), dtype=complex)
        u[0, 0], u[1, 1] = np.exp(-0.5j * p[0]), np.exp(0.5j * p[0])
        return u
    if kind == "u3":
        _, phi, lam = p
        return np.array([[c, -np.exp(1j * lam) * s],
                         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]], dtype=complex)
    if kind == "rzz":
        u = np.zeros((4, 4), dtype=complex)
        u[0, 0] = u[3, 3] = np.exp(-0.5j * p[0])
        u[1, 1] = u[2, 2] = np.exp(0.5j * p[0])
        return u
    raise ValueError(f"unknown gate kind {kind!r}")


def inverse_gate(g: Gate) -> Gate:
    """Gate whose unitary is the adjoint of ``g``'s."""
    if g.kind in ("h", "x", "cx", "swap"):
        return g
    if g.kind in ("rx", "ry", "rz", "rzz"):
        return Gate(g.kind, g.qubits, (-g.params[0],), g.origin)
    if g.kind == "u3":
        theta, phi, lam = g.params
        return Gate("u3", g.qubits, (-theta, -lam, -phi), g.origin)
    raise ValueError(f"unknown gate kind {g.kind!r}")


def inverse_circuit(c: Circuit) -> Circuit:
    """Circuit implementing the adjoint: gates reversed and inverted."""
    return Circuit(c.num_qubits, tuple(inverse_gate(g) for g in reversed(c.gates)))


def split_at_midpoint(c: Circuit) -> tuple[Circuit, Circuit]:
    """Split into (first, second) halves balanced by two-qubit gate count.

    The first half receives floor(T/2) of the T two-qubit gates (ties give
    the smaller half to the left). The cut falls immediately after the last
    two-qubit gate assigned to the first half, so single-qubit gates at the
    junction go to the second half. With no two-qubit gate, the first half
    receives floor(G/2) of the G gates. Concatenating the halves reproduces
    the input exactly.
    """
    if not c.gates:
        raise ValueError("cannot split an empty circuit")
    # ends[t] is the cut after the t-th two-qubit gate; ends[0] cuts before all
    ends = [0] + [i + 1 for i, g in enumerate(c.gates) if g.is_two_qubit]
    k = ends[(len(ends) - 1) // 2] if len(ends) > 1 else len(c.gates) // 2
    # slices of a checked circuit address its wires only: no bounds loop
    n = c.num_qubits
    return Circuit._checked(n, c.gates[:k]), Circuit._checked(n, c.gates[k:])


# --------------------------------------------------------------------------
# OpenQASM 2.0 subset
# --------------------------------------------------------------------------
#
# A program is read one ``;``-terminated statement at a time. A gate
# statement with literal angles is one match of ``_STATEMENT`` and the
# checks in ``_Program._gate``. Every other statement, angle expressions and
# every gate statement those checks reject included, is read token by token
# in the grammar's order by ``_Program._statement``, which accepts it or
# raises its first error.
# Comments are blanked first, so offsets, and the line and column computed
# from them, are those of the source text.

_FLOAT = r"\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
# a name is never matched short: the lookahead stops the regex engine
# backtracking ``hq`` into ``h`` and ``q``
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*(?![A-Za-z0-9_.])"
_OPERAND = r"(?P<reg{0}>" + _NAME + r")\s*\[\s*(?P<idx{0}>\d+)\s*\]\s*"

_COMMENT = re.compile(r'("[^"\n]*")|//[^\n]*')
_TOKEN = re.compile(
    rf"""\s*(?:
        (?P<float>{_FLOAT}) | (?P<int>\d+) | (?P<name>{_NAME}) | (?P<string>"[^"\n]*")
      | (?P<arrow>->) | (?P<punct>[;,\[\]()*/+-])
    )?""",
    re.VERBOSE,
)
_LITERAL = rf"[-+]?(?:{_FLOAT}|\d+)"
# A gate statement with one or two operands and no parameters or a list of
# signed number literals (``literals``), or any other statement.
_STATEMENT = re.compile(
    rf"""\s*(?:
        (?P<kind>{_NAME}) \s*
        (?: \( \s* (?P<literals>{_LITERAL} \s* (?: , \s* {_LITERAL} \s* )* ) \) \s* )?
        {_OPERAND.format(0)} (?: , \s* {_OPERAND.format(1)} )? ;
      | [^;\s] [^;]* ;? | ;
    )""",
    re.VERBOSE,
)


def _error(src: str, message: str, offset: int) -> QasmError:
    line_start = src.rfind("\n", 0, offset) + 1
    return QasmError(message, src.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Token(NamedTuple):
    kind: str
    value: str
    start: int
    end: int


class _Reader:
    """Tokens of the comment-blanked source, read one at a time from ``pos``."""

    def __init__(self, src: str, pos: int):
        self.src = src
        self.pos = pos
        self.last: _Token | None = None

    def error(self, message: str, offset: int) -> QasmError:
        return _error(self.src, message, offset)

    def peek(self) -> _Token | None:
        """The next token, or None at the end of input or at a character
        that starts no token; ``parse_qasm`` reports such a character."""
        m = _TOKEN.match(self.src, self.pos)
        kind = m.lastgroup
        return None if kind is None else _Token(kind, m[kind], m.start(kind), m.end())

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input", self.last.start if self.last else 0)
        self.pos = tok.end
        self.last = tok
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            raise self.error(f"expected {value!r}, found {tok.value!r}", tok.start)
        return tok

    def integer(self, tok: _Token, what: str) -> int:
        """The value of an int token; one with more digits than ``int()``
        converts is an error."""
        try:
            return int(tok.value)
        except ValueError:
            raise self.error(f"{what} too large", tok.start) from None

    def skip(self, value: str) -> bool:
        """Read the next token if it is ``value``."""
        tok = self.peek()
        if tok is None or tok.value != value:
            return False
        self.next()
        return True


def _angle(ts: _Reader) -> float:
    """Arithmetic over numbers and pi with + - * / and parentheses."""

    def expr():
        val = term()
        while (tok := ts.peek()) and tok.value in ("+", "-"):
            ts.next()
            rhs = term()
            val = val + rhs if tok.value == "+" else val - rhs
        return val

    def term():
        val = factor()
        while (tok := ts.peek()) and tok.value in ("*", "/"):
            ts.next()
            rhs = factor()
            if tok.value == "*":
                val = val * rhs
            elif rhs == 0:
                raise ts.error("division by zero in angle expression", tok.start)
            else:
                val = val / rhs
        return val

    def factor():
        tok = ts.next()
        if tok.value == "-":
            return -factor()
        if tok.value == "+":
            return factor()
        if tok.value == "(":
            val = expr()
            ts.expect(")")
            return val
        if tok.kind in ("float", "int"):
            return float(tok.value)
        if tok.value == "pi":
            return math.pi
        raise ts.error(f"bad angle expression near {tok.value!r}", tok.start)

    try:
        return expr()
    except RecursionError:
        raise ts.error("angle expression nested too deeply", ts.last.start) from None


def _angles(ts: _Reader) -> tuple[float, ...]:
    """A comma-separated list of angles."""
    vals = [_angle(ts)]
    while ts.skip(","):
        vals.append(_angle(ts))
    return tuple(vals)


def _register(ts: _Reader) -> tuple[_Token, _Token]:
    """The name and size tokens of a register declaration, read up to the
    size."""
    name = ts.next()
    if name.kind != "name":
        raise ts.error(f"expected register name, found {name.value!r}", name.start)
    ts.expect("[")
    size = ts.next()
    if size.kind != "int":
        raise ts.error(f"register size must be an integer, found {size.value!r}", size.start)
    return name, size


class _Program:
    """One parse: the quantum register and the gates read so far."""

    def __init__(self, src: str):
        self.src = src
        self.qreg: str | None = None
        self.size = 0
        self.gates: list[Gate] = []

    def parse(self) -> Circuit:
        resume = self._header()
        for m in _STATEMENT.finditer(self.src, resume):
            if m.start() < resume:
                continue  # already read as part of the previous statement
            gate = self._gate(m) if m["kind"] in GATE_ARITY else None
            if gate is None:
                resume = self._statement(m.start())
            else:
                self.gates.append(gate)
        if self.qreg is None:
            raise QasmError("program declares no quantum register", 1, 1)
        # the register has at least one qubit, and _gate and _read_gate kept
        # every index in it
        return Circuit._checked(self.size, tuple(self.gates))

    def _header(self) -> int:
        ts = _Reader(self.src, 0)
        tok = ts.next()
        if tok.value != "OPENQASM":
            raise ts.error("program must start with 'OPENQASM 2.0;'", tok.start)
        ver = ts.next()
        if ver.value != "2.0":
            raise ts.error(f"unsupported OPENQASM version {ver.value!r}", ver.start)
        ts.expect(";")
        return ts.pos

    def _gate(self, m: re.Match) -> Gate | None:
        """The gate of a statement matched by the gate branch of
        ``_STATEMENT``, or None if it fails a check. The checks are those of
        ``Gate``, made here once, so the gate is built without them."""
        kind, literals, reg0, idx0, reg1, idx1 = m.groups()
        qreg = self.qreg
        if qreg is None or reg0 != qreg or reg1 not in (None, qreg):
            return None
        try:
            qubits = (int(idx0),) if reg1 is None else (int(idx0), int(idx1))
        except ValueError:  # more digits than int() converts
            return None
        nq, nparams = GATE_ARITY[kind]
        if len(qubits) != nq or max(qubits) >= self.size or (nq == 2 and qubits[0] == qubits[1]):
            return None
        params = () if literals is None else tuple(map(float, literals.split(",")))
        if len(params) != nparams or not all(map(math.isfinite, params)):
            return None
        return Gate._checked(kind, qubits, params, ORIGIN_SOURCE)

    def _statement(self, pos: int) -> int:
        """Read the statement at ``pos`` token by token. Return the offset
        after it, or raise its first error."""
        ts = _Reader(self.src, pos)
        first = ts.next()
        if first.value == "include":
            name = ts.next()
            if name.kind != "string":
                raise ts.error("expected include file name", name.start)
            ts.expect(";")
        elif first.value == "qreg":
            self._qreg(ts, first)
        elif first.value == "creg":
            _register(ts)
            ts.expect("]")
            ts.expect(";")
        elif first.value in ("measure", "barrier"):
            # measurements are dropped: skip to the terminating semicolon
            while ts.next().value != ";":
                pass
        elif first.value in GATE_ARITY:
            self.gates.append(self._read_gate(ts, first))
        else:
            raise ts.error(f"unsupported construct {first.value!r}", first.start)
        return ts.pos

    def _qreg(self, ts: _Reader, first: _Token) -> None:
        if self.qreg is not None:
            raise ts.error("multiple quantum registers are not supported", first.start)
        name, size = _register(ts)
        n = ts.integer(size, "register size")
        if n < 1:
            raise ts.error("register size must be positive", size.start)
        ts.expect("]")
        ts.expect(";")
        self.qreg, self.size = name.value, n

    def _operand(self, ts: _Reader) -> int:
        tok = ts.next()
        if tok.kind != "name" or tok.value != self.qreg:
            raise ts.error(f"expected qubit register {self.qreg!r}, found {tok.value!r}", tok.start)
        ts.expect("[")
        idx = ts.next()
        if idx.kind != "int":
            raise ts.error("expected qubit index", idx.start)
        qubit = ts.integer(idx, "qubit index")
        if qubit >= self.size:
            raise ts.error(f"qubit index {qubit} out of register bounds [0, {self.size})", idx.start)
        ts.expect("]")
        return qubit

    def _read_gate(self, ts: _Reader, first: _Token) -> Gate:
        """The gate of the statement starting with ``first``, read token by
        token; or raise its first error, in the grammar's order, with the
        non-finite angle, the one check the grammar leaves to ``Gate``,
        last."""
        kind = first.value
        if self.qreg is None:
            raise ts.error("gate before qreg declaration", first.start)
        nq, nparams = GATE_ARITY[kind]
        params: tuple[float, ...] = ()
        if nparams:
            ts.expect("(")
            params = _angles(ts)
            ts.expect(")")
            if len(params) != nparams:
                raise ts.error(f"{kind} takes {nparams} parameter(s), got {len(params)}", first.start)
        qubits = [self._operand(ts)]
        while ts.skip(","):
            qubits.append(self._operand(ts))
        ts.expect(";")
        if len(qubits) != nq:
            raise ts.error(f"{kind} acts on {nq} qubit(s), got {len(qubits)}", first.start)
        if nq == 2 and qubits[0] == qubits[1]:
            raise ts.error(f"{kind} needs distinct qubits", first.start)
        if not all(map(math.isfinite, params)):
            raise ts.error(f"{kind} angles must be finite, got {params}", first.start)
        return Gate._checked(kind, tuple(qubits), params, ORIGIN_SOURCE)


def _bad_character(src: str) -> QasmError | None:
    """The error at the first character of ``src`` that starts no token."""
    for m in _TOKEN.finditer(src):
        if m.lastgroup is None:
            if m.end() == len(src):
                return None
            return _error(src, f"unexpected character {src[m.end()]!r}", m.end())
    return None


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 program restricted to one quantum register and
    the gate set h/x/rx/ry/rz/u3/cx/rzz/swap. ``include``, ``creg``,
    ``barrier`` and measurements are accepted and ignored; anything else is
    rejected with a named error. Statements may span lines and share them,
    ``//`` comments run to the end of their line, and angles are finite
    expressions over numbers and ``pi`` with ``+ - * /`` and parentheses.

    Errors carry the line and column of the offending token. A character
    that starts no token is reported before any other error, wherever it is.
    """
    src = _COMMENT.sub(lambda m: m[1] or " " * len(m[0]), text) if "//" in text else text
    try:
        return _Program(src).parse()
    except QasmError:
        bad = _bad_character(src)
        if bad is None:
            raise
        raise bad from None


def serialize_qasm(c: Circuit) -> str:
    """Emit the circuit as OpenQASM 2.0, one gate per line, angles with 17
    significant digits. Origin tags are not represented in QASM; parsing the
    output marks every gate as source.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    for g in c.gates:
        params = ""
        if g.params:
            params = "(" + ",".join(f"{p:.17g}" for p in g.params) + ")"
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.kind}{params} {operands};")
    return "\n".join(lines) + "\n"
