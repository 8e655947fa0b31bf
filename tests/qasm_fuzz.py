"""Hypothesis strategy for malformed QASM: small valid programs, mutated.

A program declares a register of at most 8 qubits and a few gates whose
angles are literals or ``pi`` expressions; its tokens are joined by spaces,
tabs, line breaks or comments. Up to three mutations then drop, duplicate
or swap tokens or characters, or break a line inside a token.
"""

from __future__ import annotations

from hypothesis import strategies as st

from mirrorbreak.circuit import GATE_ARITY

LITERALS = ["0.5", "2", ".25", "1e-3", "3.0E2", "7.", "0.10000000000000001"]
SEPARATORS = ["", " ", " ", " ", "\t", "\n", " // note; \"q\"\n", "\n\n  "]


@st.composite
def angle_tokens(draw, depth: int = 2) -> list[str]:
    if depth == 0 or draw(st.booleans()):
        return [draw(st.sampled_from(LITERALS + ["pi"]))]
    toks = [*draw(angle_tokens(depth - 1)), draw(st.sampled_from("+-*/")),
            *draw(angle_tokens(depth - 1))]
    if draw(st.booleans()):
        toks = ["(", *toks, ")"]
    if draw(st.booleans()):
        toks = [draw(st.sampled_from("-+")), *toks]
    return toks


@st.composite
def program_tokens(draw) -> list[str]:
    n = draw(st.integers(1, 8))
    toks = ["OPENQASM", "2.0", ";", "include", '"qelib1.inc"', ";",
            "qreg", "q", "[", str(n), "]", ";", "creg", "c", "[", str(n), "]", ";"]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sorted(GATE_ARITY)))
        nq, nparams = GATE_ARITY[kind]
        if nq > n:
            continue
        toks.append(kind)
        if nparams:
            toks.append("(")
            for i in range(nparams):
                toks += [","] * (i > 0) + draw(angle_tokens())
            toks.append(")")
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=nq, max_size=nq, unique=True))
        for i, q in enumerate(qubits):
            toks += [","] * (i > 0) + ["q", "[", str(q), "]"]
        toks.append(";")
    if draw(st.booleans()):
        toks += ["barrier", "q", ";"]
    if draw(st.booleans()):
        toks += ["measure", "q", "[", "0", "]", "->", "c", "[", "0", "]", ";"]
    return toks


@st.composite
def mutated_qasm(draw) -> str:
    toks = draw(program_tokens())
    # positions come from a seeded Random: drawn integers would shrink
    # towards 0 and pile every mutation onto the header
    rnd = draw(st.randoms(use_true_random=False))
    mutations = draw(st.lists(st.sampled_from(
        ["drop token", "duplicate token", "swap tokens",
         "drop char", "duplicate char", "swap chars", "break line"]), max_size=3))
    for mutation in mutations:
        if "token" in mutation:
            i, j = rnd.randrange(len(toks)), rnd.randrange(len(toks))
            if mutation == "drop token":
                del toks[i]
            elif mutation == "duplicate token":
                toks.insert(i, toks[i])
            else:
                toks[i], toks[j] = toks[j], toks[i]
    text = toks[0]
    for prev, tok in zip(toks, toks[1:]):
        # words stay apart unless a mutation joins them
        words = prev[-1].isalnum() and tok[0].isalnum()
        text += draw(st.sampled_from(SEPARATORS[words:])) + tok
    chars = list(text)
    for mutation in mutations:
        i, j = rnd.randrange(len(chars)), rnd.randrange(len(chars))
        if mutation == "drop char":
            del chars[i]
        elif mutation == "duplicate char":
            chars.insert(i, chars[i])
        elif mutation == "swap chars":
            chars[i], chars[j] = chars[j], chars[i]
        elif mutation == "break line":
            chars.insert(i, "\n")
    return "".join(chars)
