"""Interpret formulas in finite orthomodular lattices.

A sequent phi1, ..., phin |- psi is true under an interpretation when
the left-associated Sasaki fold of the antecedent values lies below the
succedent value (the empty fold is top).  One evaluator gives values under
one interpretation, a finite Q-valued structure whose letters and relations
alike take lattice values, and over a whole grid of letter assignments at
once.  On top of it this module offers exhaustive validation, a
battery-based countermodel search and the sound-and-complete two-variable
decision procedure; a classical truth-table oracle stands apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .lattice import FiniteOML, battery, sasaki_and, sasaki_arrow
from .syntax import (
    And, Atom, Const, Imp, Letter, Neg, Sequent, Var, children, expand,
)

__all__ = [
    "Interpretation", "Verdict", "Valid", "Countermodel", "eval_formula",
    "sequent_true", "validate_sequent", "decide_two_var", "countermodel_search",
    "classical_valid", "sequent_letters", "MAX_CELLS",
]

# the most assignments one validate_sequent sweep may visit, about 2 s of work
# on a 2-core machine: F2 with three letters (96^3 = 884,736) passes, with four
# (96^4, about 85 M) it is refused with a ValueError
MAX_CELLS = 1 << 24
# the grid is swept in row-major slices of this many cells, bounding memory
_SLICE = 1 << 16


@dataclass(frozen=True)
class Interpretation:
    """A finite Q-valued structure, propositional when it has no domains.
    ``letters`` maps a letter to a lattice element, ``domains`` a sort to a
    tuple of domain elements, ``relations`` a name to {argument tuple:
    lattice element}, ``functions`` a name to {argument tuple: domain
    element} and ``constants`` a name to a domain element."""

    lattice: FiniteOML
    letters: dict = field(default_factory=dict)
    domains: dict = field(default_factory=dict)
    relations: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)


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
    return sorted(set().union(*(f.letters for f in (*s.antecedent, s.succedent))))


# ---------------------------------------------------------------------------
# evaluation: one interpretation, or a sweep of the letter assignment grid


def _lookup(table, key, kind, name=None):
    """``table[key]``, or a KeyError naming the missing letter, variable,
    constant or sort (``key``), or relation or function (``name`` at ``key``)."""
    try:
        return table[key]
    except KeyError:
        at = "" if name is None else f" at {key}"
        raise KeyError(f"{kind} {key if name is None else name} has no value{at}") from None


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


def _ev_grid(f, L, cols, memo, I=None, env=None):
    """Value in L of an expanded formula: an element, or an array of elements
    when ``cols`` gives each letter a column of assignments.  An
    interpretation ``I`` interprets atoms and forall, with ``env`` holding
    the variables' values."""
    # memo keeps the values of shared nodes only (expand reuses the operands of
    # ><), so the walk is linear and other nodes' values are freed after use; a
    # node that reads a variable is kept in the memo of the innermost binder
    # (env[None]), which lives for one value of that binder's variable
    here = env[None] if env and f.free & env.keys() else memo
    v = here.get(id(f))
    if v is not None:
        return v
    if isinstance(f, Letter):
        v = _lookup(cols, f.name, "letter")
    elif isinstance(f, Neg):
        v = L.neg[_ev_grid(f.sub, L, cols, memo, I, env)]
    elif isinstance(f, And):
        v = L.meet[_ev_grid(f.left, L, cols, memo, I, env),
                   _ev_grid(f.right, L, cols, memo, I, env)]
    elif isinstance(f, Imp):
        v = sasaki_arrow(L, _ev_grid(f.left, L, cols, memo, I, env),
                         _ev_grid(f.right, L, cols, memo, I, env))
    elif I is None:
        raise ValueError(f"{type(f).__name__} is not propositional")
    elif isinstance(f, Atom):
        args = tuple(_ev_term(t, I, env) for t in f.args)
        v = _lookup(I.relations.get(f.name, {}), args, "relation", f.name)
    else:  # forall: the meet over the domain of the bound variable's sort
        v = L.top
        for u in _lookup(I.domains, f.var.sort, "sort"):
            inner = {**env, f.var.name: u, None: dict.fromkeys(memo)}
            v = L.meet[v, _ev_grid(f.body, L, cols, memo, I, inner)]
    if id(f) in here:
        here[id(f)] = v
    return v


def _ev_term(t, I, env):
    if isinstance(t, Var):
        return _lookup(env, t.name, "variable")
    if isinstance(t, Const):
        return _lookup(I.constants, t.name, "constant")
    args = tuple(_ev_term(a, I, env) for a in t.args)
    return _lookup(I.functions.get(t.name, {}), args, "function", t.name)


def _fold(s: Sequent, L, cols, I=None, env=None):
    """The left-associated Sasaki fold of the antecedent values of ``s``
    (top when empty) and the succedent value, with one memo for the sequent."""
    exprs = [expand(f) for f in (*s.antecedent, s.succedent)]
    memo = dict.fromkeys(_shared(exprs))
    if I is not None:
        env = {**(env or {}), None: memo}
    fold = L.top
    for f in exprs[:-1]:
        fold = sasaki_and(L, fold, _ev_grid(f, L, cols, memo, I, env))
    return fold, _ev_grid(exprs[-1], L, cols, memo, I, env)


def eval_formula(f, I: Interpretation, env=None) -> int:
    """Value of a formula under ``I`` and the free variables' values ``env``:
    -> is the Sasaki arrow, forall the meet over its sort's domain, and the
    derived connectives and exists go through their expansions."""
    return int(_fold(Sequent((), f), I.lattice, I.letters, I, env)[1])


def sequent_true(s: Sequent, I: Interpretation, env=None) -> bool:
    return I.lattice.le(*_fold(s, I.lattice, I.letters, I, env))


# ---------------------------------------------------------------------------
# exhaustive sweeps (vectorized over the whole assignment grid)


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
    for start in range(0, cells, _SLICE):
        # row-major: the first letter varies slowest, so slices keep the order
        here = np.arange(start, min(start + _SLICE, cells))
        cols = {name: here // L.n ** (k - 1 - j) % L.n for j, name in enumerate(names)}
        fold, succ = _fold(s, L, cols)
        bad = ~L.leq[fold, succ]
        if bad.any():
            i = int(np.argmax(bad))
            assignment = tuple((name, int(col[i])) for name, col in cols.items())
            fold = np.broadcast_to(fold, bad.shape)  # top, with no antecedent
            return Countermodel(L.name, assignment, int(fold[i]), int(succ[i]))
    return Valid()


def decide_two_var(s: Sequent) -> Verdict:
    """Sound and complete validity decision for sequents with <= 2 letters.

    A two-variable inequality holds in every orthomodular lattice iff it
    holds in the two-element Boolean algebra and in MO2, so the battery
    search, which sweeps exactly those two, decides validity outright.
    """
    names = sequent_letters(s)
    if len(names) > 2:
        raise ValueError(f"decide_two_var needs <= 2 letters, got {len(names)}: {names}")
    return countermodel_search(s)


def countermodel_search(s: Sequent) -> Verdict:
    """First countermodel on the battery's members that are not products,
    ``2`` and ``MO2``, in that order: a product is valid exactly when its
    factors are, and the factors come first in battery order, so sweeping
    the whole battery finds the same verdict and countermodel.  A Valid
    result here is *not* a validity certificate beyond two letters; it
    only says the battery found nothing.
    """
    for L in battery():
        if L.factors:
            continue
        verdict = validate_sequent(s, L)
        if isinstance(verdict, Countermodel):
            return verdict
    return Valid()


# ---------------------------------------------------------------------------
# classical oracle (independent of the lattice machinery on purpose)


def classical_valid(s: Sequent) -> bool:
    """Truth-table validity of (phi1 /\\ ... /\\ phin) -> psi (psi when n=0)."""
    names = sequent_letters(s)
    rows = 1 << len(names)
    if rows > MAX_CELLS:  # each value is a 2^k-bit int, and each column is built as a string
        raise ValueError(f"2^{len(names)} = {rows:,} truth-table rows, "
                         f"more than the budget of {MAX_CELLS:,}")
    # every row at once: bit r of a value is its truth in row r, so letter j
    # is true in the rows with bit j set, and each distinct node is met once
    full, memo = (1 << rows) - 1, {}
    cols = {name: int(("1" * (1 << j) + "0" * (1 << j)) * (rows >> (j + 1)), 2)
            for j, name in enumerate(names)}

    def value(f):
        if id(f) not in memo:
            if isinstance(f, Letter):
                memo[id(f)] = cols[f.name]
            elif isinstance(f, Neg):
                memo[id(f)] = full ^ value(f.sub)
            elif isinstance(f, And):
                memo[id(f)] = value(f.left) & value(f.right)
            elif isinstance(f, Imp):
                memo[id(f)] = (full ^ value(f.left)) | value(f.right)
            else:
                raise ValueError(f"{type(f).__name__} is not propositional")
        return memo[id(f)]

    return value(expand(Imp(reduce(And, s.antecedent), s.succedent) if s.antecedent
                        else s.succedent)) == full
