"""An evaluator for ordered sequents that shares no code with orthoproof.

Formulas are nested tuples (see ``gen.py``).  The lattices are built here
from their definitions, with the element numbering the program documents:
Boolean algebras number their elements by bitmask, MOm orders its elements
(bottom, a1, a1', ..., am, am', top), and a product L1 x L2 numbers the
pair (i1, i2) as i1 * |L2| + i2.  Sequent truth is the left-associated
Sasaki fold of the antecedent values compared with the succedent value.

The module imports numpy and the standard library only.
"""

from __future__ import annotations

import itertools
import re

import numpy as np


class OracleError(Exception):
    pass


# ---------------------------------------------------------------------------
# lattices


class Lat:
    """A finite ortholattice given by full tables (uint8 element indices)."""

    def __init__(self, name, leq, neg, meet, join):
        self.name = name
        self.leq = np.asarray(leq, dtype=bool)
        self.neg = np.asarray(neg, dtype=np.uint8)
        self.meet = np.asarray(meet, dtype=np.uint8)
        self.join = np.asarray(join, dtype=np.uint8)
        self.n = len(self.neg)
        self.top = int(np.where(self.leq.all(axis=0))[0][0])


def boolean(k):
    n = 1 << k
    i = np.arange(n)
    name = "2" if k == 1 else f"2^{k}"
    return Lat(name, (i[:, None] & i[None, :]) == i[:, None], (n - 1) ^ i,
               i[:, None] & i[None, :], i[:, None] | i[None, :])


def mo(m):
    n = 2 * m + 2
    top = n - 1
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, top] = True
    neg = list(range(n))
    neg[0], neg[top] = top, 0
    for a in range(m):
        neg[2 * a + 1], neg[2 * a + 2] = 2 * a + 2, 2 * a + 1
    meet = np.zeros((n, n), dtype=int)
    join = np.full((n, n), top, dtype=int)
    for a in range(n):
        for b in range(n):
            if a == b or b == top:
                meet[a, b] = a
            elif a == top:
                meet[a, b] = b
            if a == b or b == 0:
                join[a, b] = a
            elif a == 0:
                join[a, b] = b
    return Lat(f"MO{m}", leq, neg, meet, join)


def product(a, b, name=None):
    n2 = b.n
    i = np.arange(a.n * n2)
    x1, x2 = i[:, None] // n2, i[:, None] % n2
    y1, y2 = i[None, :] // n2, i[None, :] % n2
    return Lat(name or f"{a.name}x{b.name}",
               a.leq[x1, y1] & b.leq[x2, y2],
               a.neg[i // n2].astype(int) * n2 + b.neg[i % n2],
               a.meet[x1, y1].astype(int) * n2 + b.meet[x2, y2],
               a.join[x1, y1].astype(int) * n2 + b.join[x2, y2])


def from_order(name, leq, neg):
    """Tables of a lattice given by its full order and orthocomplement;
    meets and joins are found by brute force over all candidates."""
    leq = np.asarray(leq, dtype=bool)
    n = len(neg)
    meet = np.zeros((n, n), dtype=int)
    join = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c, a] and leq[c, b]]
            upper = [c for c in range(n) if leq[a, c] and leq[b, c]]
            glb = [c for c in lower if all(leq[d, c] for d in lower)]
            lub = [c for c in upper if all(leq[c, d] for d in upper)]
            if len(glb) != 1 or len(lub) != 1:
                raise OracleError(f"{name}: ({a}, {b}) has no unique bound")
            meet[a, b], join[a, b] = glb[0], lub[0]
    return Lat(name, leq, neg, meet, join)


def make_battery():
    two, mo2 = boolean(1), mo(2)
    return (two, boolean(2), mo2, product(two, mo2),
            product(boolean(4), mo2, name="F2"))


BATTERY = make_battery()
BY_NAME = {L.name: L for L in BATTERY}


# ---------------------------------------------------------------------------
# formulas: parsing text, letters, normal form


_TOK = re.compile(r"\s*(\|-|->|/\\|\\/|><|[~(),]|[A-Za-z_][A-Za-z0-9_']*)")


def parse_sequent(text):
    """Parse the propositional fragment of the program's grammar:
    ~ binds tightest, then /\\, \\/, >< (non-associative), and -> (right
    associative, loosest)."""
    toks, i, text = [], 0, text.strip()
    while i < len(text):
        m = _TOK.match(text, i)
        if not m:
            raise OracleError(f"cannot tokenize {text!r} at {i}")
        toks.append(m.group(1))
        i = m.end()
        while i < len(text) and text[i].isspace():
            i += 1
    toks.append(None)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(want=None):
        tok = toks[pos[0]]
        if want is not None and tok != want:
            raise OracleError(f"expected {want!r} in {text!r}, got {tok!r}")
        pos[0] += 1
        return tok

    def formula():
        left = cmp()
        if peek() == "->":
            take()
            return (">", left, formula())
        return left

    def cmp():
        left = orr()
        if peek() == "><":
            take()
            return ("x", left, orr())
        return left

    def orr():
        f = andd()
        while peek() == "\\/":
            take()
            f = ("|", f, andd())
        return f

    def andd():
        f = unary()
        while peek() == "/\\":
            take()
            f = ("&", f, unary())
        return f

    def unary():
        negs = 0
        while peek() == "~":
            take()
            negs += 1
        if peek() == "(":
            take()
            f = formula()
            take(")")
        else:
            name = take()
            if name is None or not (name[0].isalpha() or name[0] == "_"):
                raise OracleError(f"expected a letter in {text!r}")
            f = ("v", name)
        for _ in range(negs):
            f = ("~", f)
        return f

    ante = []
    if peek() != "|-":
        ante.append(formula())
        while peek() == ",":
            take()
            ante.append(formula())
    take("|-")
    succ = formula()
    if peek() is not None:
        raise OracleError(f"trailing input in {text!r}")
    return (tuple(ante), succ)


def letters(f, out=None):
    out = set() if out is None else out
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "v":
            out.add(g[1])
        elif g[0] in ("A", "all", "ex"):
            raise OracleError("predicate formula in a propositional check")
        else:
            stack.extend(g[1:])
    return out


def seq_letters(seqs):
    out = set()
    for ante, succ in seqs:
        for f in (*ante, succ):
            letters(f, out)
    return sorted(out)


def _term_key(t, env):
    if t[0] == "var":
        return ("b", env[t[1]]) if t[1] in env else ("var", t[1])
    if t[0] == "const":
        return t
    return ("app", t[1]) + tuple(_term_key(a, env) for a in t[2])


def normal(f, env=None, depth=0):
    """Expand \\/, >< and exists into ~, /\\, -> and forall, and number
    bound variables by binding depth, so that equal normal forms mean
    equal formulas modulo the derived connectives and bound names."""
    env = env or {}
    tag = f[0]
    if tag == "v":
        return f
    if tag == "A":
        return ("A", f[1]) + tuple(_term_key(t, env) for t in f[2])
    if tag == "~":
        return ("~", normal(f[1], env, depth))
    if tag in ("&", ">"):
        return (tag, normal(f[1], env, depth), normal(f[2], env, depth))
    if tag == "|":
        a, b = normal(f[1], env, depth), normal(f[2], env, depth)
        return ("~", ("&", ("~", a), ("~", b)))
    if tag == "x":
        a, b = normal(f[1], env, depth), normal(f[2], env, depth)
        return ("&", (">", a, (">", b, a)), (">", b, (">", a, b)))
    inner = dict(env)
    inner[f[1]] = depth
    body = normal(f[2], inner, depth + 1)
    if tag == "all":
        return ("all", body)
    return ("~", ("all", ("~", body)))


def same_sequent(s, t):
    return (len(s[0]) == len(t[0])
            and all(normal(a) == normal(b) for a, b in zip(s[0], t[0]))
            and normal(s[1]) == normal(t[1]))


# ---------------------------------------------------------------------------
# evaluation over the whole assignment grid


def grid(L, names):
    k = len(names)
    if k == 0:
        return {}, 1
    g = np.indices((L.n,) * k, dtype=np.uint8).reshape(k, -1)
    return {name: g[i] for i, name in enumerate(names)}, g.shape[1]


def _arrow(L, a, b):
    return L.join[L.neg[a], L.meet[a, b]]


def evaluate(f, L, cols, size, memo):
    """Element index of f under every assignment; memoised on subterms, so
    shared and repeated operands cost one evaluation each."""
    got = memo.get(f)
    if got is not None:
        return got
    tag = f[0]
    if tag == "v":
        out = cols[f[1]] if f[1] in cols else None
        if out is None:
            raise OracleError(f"letter {f[1]} has no column")
    elif tag == "~":
        out = L.neg[evaluate(f[1], L, cols, size, memo)]
    else:
        a = evaluate(f[1], L, cols, size, memo)
        b = evaluate(f[2], L, cols, size, memo)
        if tag == "&":
            out = L.meet[a, b]
        elif tag == "|":
            out = L.join[a, b]
        elif tag == ">":
            out = _arrow(L, a, b)
        elif tag == "x":
            out = L.meet[_arrow(L, a, _arrow(L, b, a)), _arrow(L, b, _arrow(L, a, b))]
        else:
            raise OracleError(f"cannot evaluate {tag!r}")
    out = np.broadcast_to(np.asarray(out, dtype=np.uint8), (size,))
    memo[f] = out
    return out


def fold_and_succ(seq, L, cols, size, memo):
    ante, succ = seq
    fold = np.full(size, L.top, dtype=np.uint8)
    for f in ante:
        v = evaluate(f, L, cols, size, memo)
        fold = L.meet[L.join[fold, L.neg[v]], v]
    return fold, evaluate(succ, L, cols, size, memo)


def truth(seq, L, cols, size, memo):
    fold, succ = fold_and_succ(seq, L, cols, size, memo)
    return L.leq[fold, succ]


def first_countermodel(seq, L):
    """(assignment dict, fold, succ) of the lexicographically least
    falsifying assignment, or None."""
    names = seq_letters([seq])
    cols, size = grid(L, names)
    fold, succ = fold_and_succ(seq, L, cols, size, {})
    bad = ~L.leq[fold, succ]
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return ({n: int(cols[n][i]) for n in names}, int(fold[i]), int(succ[i]))


def refuting_assignment(premises, conclusion, L):
    """Index of an assignment where every premise holds and the conclusion
    fails, or None when the inference is pointwise sound on L."""
    seqs = list(premises) + [conclusion]
    cols, size = grid(L, seq_letters(seqs))
    memo = {}
    ok = np.ones(size, dtype=bool)
    for p in premises:
        ok &= truth(p, L, cols, size, memo)
    bad = ok & ~truth(conclusion, L, cols, size, memo)
    return int(np.argmax(bad)) if bad.any() else None


def classical_truth_table(seq):
    """Two-valued validity by an explicit truth table over Python bools."""
    names = seq_letters([seq])

    def ev(f, env):
        tag = f[0]
        if tag == "v":
            return env[f[1]]
        if tag == "~":
            return not ev(f[1], env)
        a, b = ev(f[1], env), ev(f[2], env)
        if tag == "&":
            return a and b
        if tag == "|":
            return a or b
        if tag == ">":
            return (not a) or b
        return True         # any two elements of 2 are compatible

    ante, succ = seq
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if all(ev(f, env) for f in ante) and not ev(succ, env):
            return False
    return True


# ---------------------------------------------------------------------------
# checks of program verdicts; each returns None or a message


def check_countermodel(seq, cm, lattices):
    """cm = {"lattice", "assignment", "fold", "succ"} reported by the
    program after searching ``lattices`` in order."""
    names = [L.name for L in lattices]
    if cm["lattice"] not in names:
        return f"countermodel names {cm['lattice']}, outside {names}"
    for L in lattices:
        if L.name == cm["lattice"]:
            break
        if first_countermodel(seq, L) is not None:
            return f"{L.name} has a countermodel before {cm['lattice']}"
    return check_least(seq, cm, L)


def check_least(seq, cm, L):
    least = first_countermodel(seq, L)
    if least is None:
        return f"no assignment falsifies the sequent on {L.name}"
    assignment, fold, succ = least
    if dict(cm["assignment"]) != assignment:
        return f"least countermodel on {L.name} is {assignment}, not {cm['assignment']}"
    if (cm["fold"], cm["succ"]) != (fold, succ):
        return f"fold/succ {cm['fold']}/{cm['succ']}, expected {fold}/{succ}"
    return None


def check_valid(seq, lattices):
    for L in lattices:
        cm = first_countermodel(seq, L)
        if cm is not None:
            return f"claimed valid, but {L.name} refutes it at {cm[0]}"
    return None


# ---------------------------------------------------------------------------
# subspace arithmetic for the hilbert sample


def column_space(m, tol=1e-9):
    """Orthonormal basis of the column space of m, by SVD."""
    if m.shape[1] == 0:
        return m
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    scale = max(1.0, float(np.abs(m).max()))
    return u[:, s > tol * scale]


def projector_of(basis):
    return basis @ basis.conj().T


def sasaki_projector(a, b):
    """Projector onto the Sasaki projection of span(a) onto span(b): the
    closure of P_b applied to span(a)."""
    pb = projector_of(b)
    return projector_of(column_space(pb @ a))
