"""Shared generators for the test suite.

Two flavours: hypothesis strategies for property tests, and a plain
seeded-rng generator for the big deterministic sweeps.  Also the arrow
mutation witness that acceptance check 7 perturbs the arrow clause with,
and `written_alike`, the comparison of what is written.
"""

import random

from hypothesis import strategies as st

from orthoproof.lattice import sasaki_arrow
from orthoproof.syntax import (
    And, App, Atom, Compat, Const, Exists, Forall, Imp, Letter, Neg, Or,
    Sequent, Signature, Var, alpha_key,
)

LETTER_NAMES = ["p", "q", "r", "s"]
VAR_NAMES = ["x", "y", "z", "w"]
CONST_NAMES = ["c", "d"]
RELATIONS = [("R", 1), ("S", 2), ("T", 1)]


def written_alike(a, b):
    """Two formulas, or two sequents position by position, equal up to the
    names of bound variables only.  ``==`` also equates an abbreviation with
    its expansion, so a test that pins what is written compares with this."""
    if isinstance(a, Sequent):
        xs, ys = (*a.antecedent, a.succedent), (*b.antecedent, b.succedent)
        return len(xs) == len(ys) and all(map(written_alike, xs, ys))
    return alpha_key(a) is alpha_key(b)


def corpus_signature():
    sig = Signature()
    for c in CONST_NAMES:
        sig.declare_constant(c)
    for name, arity in RELATIONS:
        sig.declare_relation(name, ("_",) * arity)
    sig.declare_function("f", ("_",))
    sig.declare_function("g", ("_", "_"))
    return sig


def random_term(rng, depth=2):
    r = rng.random()
    if depth == 0 or r < 0.55:
        return Var(rng.choice(VAR_NAMES))
    if r < 0.72:
        return Const(rng.choice(CONST_NAMES))
    if r < 0.88:
        return App("f", (random_term(rng, depth - 1),))
    return App("g", (random_term(rng, depth - 1), random_term(rng, depth - 1)))


def random_formula(rng, depth=5, predicates=True):
    if depth == 0 or rng.random() < 0.18:
        if predicates and rng.random() < 0.4:
            name, arity = rng.choice(RELATIONS)
            return Atom(name, tuple(random_term(rng) for _ in range(arity)))
        return Letter(rng.choice(LETTER_NAMES))
    kind = rng.randrange(7 if predicates else 5)
    sub = lambda: random_formula(rng, depth - 1, predicates)
    if kind == 0:
        return Neg(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Imp(sub(), sub())
    if kind == 4:
        return Compat(sub(), sub())
    v = Var(rng.choice(VAR_NAMES))
    return (Forall if kind == 5 else Exists)(v, sub())


_term_strategy = st.recursive(
    st.sampled_from([Var(n) for n in VAR_NAMES] + [Const(n) for n in CONST_NAMES]),
    lambda ch: st.builds(lambda t: App("f", (t,)), ch)
    | st.builds(lambda a, b: App("g", (a, b)), ch, ch),
    max_leaves=3,
)

_leaves = st.sampled_from(LETTER_NAMES).map(Letter) | st.one_of(
    st.builds(lambda t: Atom("R", (t,)), _term_strategy),
    st.builds(lambda t: Atom("T", (t,)), _term_strategy),
    st.builds(lambda a, b: Atom("S", (a, b)), _term_strategy, _term_strategy),
)

formula_strategy = st.recursive(
    _leaves,
    lambda ch: st.one_of(
        ch.map(Neg),
        st.builds(And, ch, ch),
        st.builds(Or, ch, ch),
        st.builds(Imp, ch, ch),
        st.builds(Compat, ch, ch),
        st.builds(Forall, st.sampled_from(VAR_NAMES).map(Var), ch),
        st.builds(Exists, st.sampled_from(VAR_NAMES).map(Var), ch),
    ),
    max_leaves=12,
)

propositional_strategy = st.recursive(
    st.sampled_from(LETTER_NAMES).map(Letter),
    lambda ch: st.one_of(
        ch.map(Neg),
        st.builds(And, ch, ch),
        st.builds(Or, ch, ch),
        st.builds(Imp, ch, ch),
        st.builds(Compat, ch, ch),
    ),
    max_leaves=10,
)


def perturbed_arrow_witness(L, a0, b0, wrong):
    """A rule instance whose soundness breaks when the evaluation clause
    for -> is changed to return ``wrong`` at the single pair (a0, b0).

    Because the Sasaki arrow is the exact adjoint of the Sasaki
    projection, any wrong value w at (a0, b0) disagrees with the true
    arrow t on some principal ideal: either some c <= t has c ≰ w
    (breaking arrow introduction: r, p |- q holds but r |- p -> q does
    not) or some c <= w has c ≰ t (breaking arrow elimination).  Returns
    (rule_name, {"r": c, "p": a0, "q": b0}) or None when wrong == t.
    """
    t = int(sasaki_arrow(L, a0, b0))
    if wrong == t:
        return None
    for c in range(L.n):
        if L.leq[c, t] and not L.leq[c, wrong]:
            return ("imp_i", {"r": int(c), "p": int(a0), "q": int(b0)})
    for c in range(L.n):
        if L.leq[c, wrong] and not L.leq[c, t]:
            return ("imp_e", {"r": int(c), "p": int(a0), "q": int(b0)})
    raise AssertionError("unreachable: distinct elements differ on some ideal")
