"""Interpret formulas in finite orthomodular lattices.

A sequent phi1, ..., phin |- psi is true under an interpretation when
the left-associated Sasaki fold of the antecedent values lies below the
succedent value (the empty fold is top).  On top of the single-model
evaluator this module offers exhaustive validation, a battery-based
countermodel search, the sound-and-complete two-variable decision
procedure, a classical truth-table oracle, and finite-domain quantifier
semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lattice import FiniteOML, battery, by_name, sasaki_and, sasaki_arrow
from .syntax import (
    And, Atom, Const, Imp, Letter, Neg, Sequent, Var,
    children, expand, letters,
)

__all__ = [
    "Interpretation", "QStructure", "Verdict", "Valid", "Countermodel",
    "eval_formula", "sequent_true", "validate_sequent", "decide_two_var",
    "countermodel_search", "classical_valid", "eval_predicate",
    "predicate_sequent_true", "sequent_letters", "perturbed_arrow_witness",
    "MAX_CELLS",
]

# the most assignments one validate_sequent sweep may visit, about 2 s of work
# on a 2-core machine: F2 with three letters (96^3 = 884,736) passes, with four
# (96^4, about 85 M) it is refused with a ValueError
MAX_CELLS = 1 << 24
# the grid is swept in row-major slices of this many cells, bounding memory
_SLICE = 1 << 16


@dataclass(frozen=True)
class Interpretation:
    lattice: FiniteOML
    letters: dict

    def __post_init__(self):
        object.__setattr__(self, "letters", dict(self.letters))


class Verdict:
    pass


@dataclass(frozen=True)
class Valid(Verdict):
    pass


@dataclass(frozen=True)
class Countermodel(Verdict):
    """A falsifying interpretation; re-evaluating it reproduces the failure."""

    lattice: str
    assignment: tuple          # ((letter, element index), ...) sorted by letter
    fold: int
    succedent: int

    def assignment_dict(self):
        return dict(self.assignment)

    def __str__(self):
        pairs = " ".join(f"{k}={v}" for k, v in self.assignment)
        return f"{self.lattice}: {pairs} fold={self.fold} succ={self.succedent}"


def sequent_letters(s: Sequent) -> list:
    """Sorted names of the propositional letters appearing in a sequent."""
    out = letters(s.succedent)
    for f in s.antecedent:
        out |= letters(f)
    return sorted(out)


# ---------------------------------------------------------------------------
# single-interpretation evaluation


def eval_formula(f, I: Interpretation) -> int:
    """Value of a propositional formula; -> is the Sasaki arrow and the
    derived connectives go through their expansions."""
    return _ev(expand(f), I.lattice, I.letters)


def _ev(f, L, env):
    if isinstance(f, Letter):
        try:
            return env[f.name]
        except KeyError:
            raise KeyError(f"letter {f.name} has no value in this interpretation") from None
    if isinstance(f, Neg):
        return int(L.neg[_ev(f.sub, L, env)])
    if isinstance(f, And):
        return int(L.meet[_ev(f.left, L, env), _ev(f.right, L, env)])
    if isinstance(f, Imp):
        return sasaki_arrow(L, _ev(f.left, L, env), _ev(f.right, L, env))
    raise ValueError(f"{type(f).__name__} is not propositional; use eval_predicate")


def sequent_true(s: Sequent, I: Interpretation) -> bool:
    fold = I.lattice.top
    for f in s.antecedent:
        fold = sasaki_and(I.lattice, fold, eval_formula(f, I))
    return I.lattice.le(fold, eval_formula(s.succedent, I))


# ---------------------------------------------------------------------------
# exhaustive sweeps (vectorized over the whole assignment grid)


def _shared(roots):
    """Ids of the nodes that a walk from ``roots`` meets more than once."""
    seen, shared, stack = set(), set(), list(roots)
    while stack:
        f = stack.pop()
        if id(f) in seen:
            shared.add(id(f))
        else:
            seen.add(id(f))
            stack.extend(children(f))
    return shared


def _ev_grid(f, L, cols, memo):
    # memo keeps the values of shared nodes only (expand reuses the operands of
    # ><), so the walk is linear and other nodes' values are freed after use
    v = memo.get(id(f))
    if v is not None:
        return v
    if isinstance(f, Letter):
        v = cols[f.name]
    elif isinstance(f, Neg):
        v = L.neg[_ev_grid(f.sub, L, cols, memo)]
    elif isinstance(f, And):
        v = L.meet[_ev_grid(f.left, L, cols, memo), _ev_grid(f.right, L, cols, memo)]
    elif isinstance(f, Imp):
        a = _ev_grid(f.left, L, cols, memo)
        v = L.join[L.neg[a], L.meet[a, _ev_grid(f.right, L, cols, memo)]]
    else:
        raise ValueError(f"{type(f).__name__} is not propositional")
    if id(f) in memo:
        memo[id(f)] = v
    return v


def validate_sequent(s: Sequent, L: FiniteOML) -> Verdict:
    """Evaluate a sequent under every letter assignment into L.

    Assignments are enumerated lexicographically in (sorted letter
    order, ascending element index), so the reported countermodel is
    deterministic and the least one.  A sequent valid on every factor of
    a product is valid on the product (everything is componentwise), so
    only the other sequents sweep a product; a repeated factor, such as
    the ``2`` of a Boolean algebra ``2^k``, is validated once.
    """
    if L.factors and all(isinstance(validate_sequent(s, F), Valid)
                         for F in dict.fromkeys(L.factors)):
        return Valid()
    names = sequent_letters(s)
    k = len(names)
    cells = L.n ** k
    if cells > MAX_CELLS:
        raise ValueError(f"{L.n}^{k} = {cells:,} assignments on {L.name}, "
                         f"more than the sweep budget of {MAX_CELLS:,}")
    exprs = [expand(f) for f in (*s.antecedent, s.succedent)]
    shared = _shared(exprs)
    for start in range(0, cells, _SLICE):
        # row-major: the first letter varies slowest, so slices keep the order
        here = np.arange(start, min(start + _SLICE, cells))
        cols = {name: here // L.n ** (k - 1 - j) % L.n for j, name in enumerate(names)}
        memo = dict.fromkeys(shared)
        fold = np.full(len(here), L.top, dtype=int)
        for f in exprs[:-1]:
            v = _ev_grid(f, L, cols, memo)
            fold = L.meet[L.join[fold, L.neg[v]], v]
        succ = _ev_grid(exprs[-1], L, cols, memo)
        bad = ~L.leq[fold, succ]
        if bad.any():
            i = int(np.argmax(bad))
            assignment = tuple((name, int(col[i])) for name, col in cols.items())
            return Countermodel(L.name, assignment, int(fold[i]), int(succ[i]))
    return Valid()


def decide_two_var(s: Sequent) -> Verdict:
    """Sound and complete validity decision for sequents with <= 2 letters.

    A two-variable inequality holds in every orthomodular lattice iff it
    holds in the two-element Boolean algebra and in MO2, so checking
    those two lattices exhaustively decides validity outright.
    """
    names = sequent_letters(s)
    if len(names) > 2:
        raise ValueError(f"decide_two_var needs <= 2 letters, got {len(names)}: {names}")
    for L in (by_name("2"), by_name("MO2")):
        verdict = validate_sequent(s, L)
        if isinstance(verdict, Countermodel):
            return verdict
    return Valid()


def countermodel_search(s: Sequent, lattices=None) -> Verdict:
    """First countermodel across the battery, in battery order.

    A Valid result here is *not* a validity certificate beyond two
    letters; it only says the battery found nothing.
    """
    for L in (battery() if lattices is None else lattices):
        verdict = validate_sequent(s, L)
        if isinstance(verdict, Countermodel):
            return verdict
    return Valid()


# ---------------------------------------------------------------------------
# classical oracle (independent of the lattice machinery on purpose)


def _bool_ev(f, env):
    if isinstance(f, Letter):
        return env[f.name]
    if isinstance(f, Neg):
        return not _bool_ev(f.sub, env)
    if isinstance(f, And):
        return _bool_ev(f.left, env) and _bool_ev(f.right, env)
    if isinstance(f, Imp):
        return (not _bool_ev(f.left, env)) or _bool_ev(f.right, env)
    raise ValueError(f"{type(f).__name__} is not propositional")


def classical_valid(s: Sequent) -> bool:
    """Truth-table validity of (phi1 /\\ ... /\\ phin) -> psi (psi when n=0)."""
    f = s.succedent
    if s.antecedent:
        conj = s.antecedent[0]
        for g in s.antecedent[1:]:
            conj = And(conj, g)
        f = Imp(conj, f)
    f = expand(f)
    names = sequent_letters(s)
    return all(
        _bool_ev(f, dict(zip(names, bits)))
        for bits in itertools.product((False, True), repeat=len(names))
    )


# ---------------------------------------------------------------------------
# finite-domain quantifier semantics


@dataclass(frozen=True)
class QStructure:
    """A finite Q-valued structure: domains per sort, lattice-valued relations.

    ``domains`` maps sort name to a tuple of domain elements;
    ``relations`` maps a relation name to {argument tuple: lattice element};
    ``functions`` maps a function name to {argument tuple: domain element};
    ``constants`` maps a constant name to a domain element.  Letters may
    appear too, as 0-ary relations keyed by the empty tuple.
    """

    lattice: FiniteOML
    domains: dict
    relations: dict
    functions: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)


def _ev_term(t, M, env):
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise KeyError(f"variable {t.name} is not bound or in the environment") from None
    if isinstance(t, Const):
        try:
            return M.constants[t.name]
        except KeyError:
            raise KeyError(f"constant {t.name} is not interpreted") from None
    args = tuple(_ev_term(a, M, env) for a in t.args)
    try:
        return M.functions[t.name][args]
    except KeyError:
        raise KeyError(f"function {t.name} has no value at {args}") from None


def _evq(f, M, env):
    L = M.lattice
    if isinstance(f, Letter):
        try:
            return M.relations[f.name][()]
        except KeyError:
            raise KeyError(f"letter {f.name} is not interpreted") from None
    if isinstance(f, Atom):
        args = tuple(_ev_term(t, M, env) for t in f.args)
        try:
            return M.relations[f.name][args]
        except KeyError:
            raise KeyError(f"relation {f.name} has no value at {args}") from None
    if isinstance(f, Neg):
        return int(L.neg[_evq(f.sub, M, env)])
    if isinstance(f, And):
        return int(L.meet[_evq(f.left, M, env), _evq(f.right, M, env)])
    if isinstance(f, Imp):
        return sasaki_arrow(L, _evq(f.left, M, env), _evq(f.right, M, env))
    # Forall: finite meet over the domain of the bound variable's sort
    try:
        dom = M.domains[f.var.sort]
    except KeyError:
        raise KeyError(f"sort {f.var.sort} has no domain") from None
    val = L.top
    for u in dom:
        inner = dict(env)
        inner[f.var.name] = u
        val = int(L.meet[val, _evq(f.body, M, inner)])
    return val


def eval_predicate(f, M: QStructure, env=None) -> int:
    """Finite-domain value of a predicate formula (forall = meet over the
    domain; exists through its negation-of-forall expansion)."""
    return _evq(expand(f), M, dict(env) if env else {})


def predicate_sequent_true(s: Sequent, M: QStructure, env=None) -> bool:
    env = dict(env) if env else {}
    fold = M.lattice.top
    for f in s.antecedent:
        fold = sasaki_and(M.lattice, fold, eval_predicate(f, M, env))
    return M.lattice.le(fold, eval_predicate(s.succedent, M, env))


# ---------------------------------------------------------------------------
# arrow mutation witnesses


def perturbed_arrow_witness(L: FiniteOML, a0: int, b0: int, wrong: int):
    """A rule instance whose soundness breaks when the evaluation clause
    for -> is changed to return ``wrong`` at the single pair (a0, b0).

    Because the Sasaki arrow is the exact adjoint of the Sasaki
    projection, any wrong value w at (a0, b0) disagrees with the true
    arrow t on some principal ideal: either some c <= t has c ≰ w
    (breaking arrow introduction: r, p |- q holds but r |- p -> q does
    not) or some c <= w has c ≰ t (breaking arrow elimination).  Returns
    (rule_name, {"r": c, "p": a0, "q": b0}) or None when wrong == t.
    """
    t = sasaki_arrow(L, a0, b0)
    if wrong == t:
        return None
    for c in range(L.n):
        if L.leq[c, t] and not L.leq[c, wrong]:
            return ("imp_i", {"r": int(c), "p": int(a0), "q": int(b0)})
    for c in range(L.n):
        if L.leq[c, wrong] and not L.leq[c, t]:
            return ("imp_e", {"r": int(c), "p": int(a0), "q": int(b0)})
    raise AssertionError("unreachable: distinct elements differ on some ideal")
