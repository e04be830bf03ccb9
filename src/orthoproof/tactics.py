"""Catalog of derived rules, with builders that emit primitive derivations.

Every entry constructs a full derivation tree out of the primitive rules
(plus the quantifier rules where flagged), so the kernel can re-check the
output node by node; nothing in this module is trusted.  Generalized rules
that carry a trailing context are built by recursion on that context:
the last formula is peeled off with an implication introduction, the
shorter instance is built, and the formula is restored by elimination.

``derive`` instantiates an entry explicitly; ``match_and_build`` infers
the instantiation from concrete sequents (used for ``derived`` lines in
proof scripts).
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial, wraps
from itertools import takewhile
from typing import Callable, Optional

from .kernel import MODES, Derivation, hyp, node
from .syntax import (
    And, Compat, Exists, Forall, Formula, Imp, Letter, Neg, Or, Sequent,
    context_eq, expand, formula_eq, sequent_eq, substitute,
)


class TacticError(Exception):
    pass


_E = ("NOM_E",)
_QMODES = ("NOM_Q", "NOM_q")


def _n(rule, ante, succ, *prems, inst=None):
    return node(rule, Sequent(tuple(ante), succ), *prems, instantiation=inst)


# The sub-lemmas of the build in progress (``CatalogEntry.build``), None
# between builds: (builder, argument ids) -> (arguments, derivation).  The
# arguments are kept so that no id is reused while the memo lives.
_MEMO = None


def _shared(builder):
    """Build a pure sub-lemma once per catalog build and share the node.

    Formulas are hash-consed, so equal arguments are the same objects; a
    context tuple keys as the ids of its members, a keyword argument as its
    value."""
    @wraps(builder)
    def shared(*args, **kw):
        if _MEMO is None:
            return builder(*args, **kw)
        key = (builder, *[tuple(map(id, a)) if type(a) is tuple else id(a) for a in args],
               *kw.items())
        hit = _MEMO.get(key)
        if hit is None:
            hit = _MEMO[key] = (args, builder(*args, **kw))
        return hit[1]
    return shared


def _wk(delta, d):
    """Leading weakening: ``d`` under the extra context ``delta``, one node."""
    c = d.conclusion
    return _n("wk", delta + c.antecedent, c.succedent, d) if delta else d


def _cored(builder):
    """A pure sub-lemma built once per build at the empty context; each
    leading context ``g`` it is used at is one shared ``wk`` node over it."""
    core = _shared(builder)
    return _shared(wraps(builder)(lambda g, *args, **kw: _wk(g, core((), *args, **kw))))


@_shared
def _assume(prefix, chi):
    return _n("assume", tuple(prefix) + (chi,), chi)


def _relabel(d: Derivation, succ: Formula) -> Derivation:
    """Swap the root's succedent for an abbreviation of the same formula."""
    if not formula_eq(succ, d.conclusion.succedent):
        raise TacticError("relabel changed the conclusion")
    return Derivation(Sequent(d.conclusion.antecedent, succ), d.rule,
                      d.premises, d.instantiation)


# ---------------------------------------------------------------------------
# Derived-rule constructions.  Each function takes the ambient context ``g``
# (a tuple of formulas), the schema formulas, and the premise derivations,
# and returns the derivation tree of the conclusion.  The parameter names
# matter: ``_reg`` passes the instantiation by them.

def _p21(g, phi, psi, d1, d2):
    # modus ponens via cut over the arrow elimination
    return _n("cut", g, psi, d1, _n("imp_e", g + (phi,), psi, d2))


def _p22(g, phi, psi, d1, d2):
    # anything follows from phi together with ~phi
    inner = _n("cut", g + (Neg(phi),), psi,
               _n("paste", g + (Neg(phi),), phi, d2, d1),
               _n("explode", g + (Neg(phi), phi), psi, _assume(g, Neg(phi))))
    return _n("cut", g, psi, d2, inner)


@_cored
def _l231(g, phi, psi):
    return _n("explode", g + (Neg(phi), phi), psi, _assume(g, Neg(phi)))


@_cored
def _l232(g, phi):
    nn = Neg(Neg(phi))
    return _n("lem", g + (nn,), phi,
              _assume(g + (nn,), phi),
              _n("explode", g + (nn, Neg(phi)), phi, _assume(g, nn)))


@_cored
def _l233(g, phi, psi):
    target = Imp(phi, Imp(Neg(phi), psi))
    left = _n("imp_i", g + (Neg(phi),), target,
              _l231(g, phi, Imp(Neg(phi), psi)))
    nn = Neg(Neg(phi))
    right = _n("imp_i", g + (nn,), target,
               _n("paste", g + (nn, phi), Imp(Neg(phi), psi),
                  _l232(g, phi),
                  _n("imp_i", g + (nn,), Imp(Neg(phi), psi),
                     _l231(g, Neg(phi), psi))))
    root = _n("lem", g, target, left, right)
    return _n("imp_e", g + (phi, Neg(phi)), psi,
              _n("imp_e", g + (phi,), Imp(Neg(phi), psi), root))


@_cored
def _l234(g, phi):
    nn = Neg(Neg(phi))
    return _n("lem", g + (phi,), nn,
              _l233(g, phi, nn),
              _assume(g + (phi,), nn))


def _dni(g, phi, d):
    return _n("cut", g, Neg(Neg(phi)), d, _l234(g, phi))


def _dne(g, phi, d):
    return _n("cut", g, phi, d, _l232(g, phi))


def _reductio1(g, phi, psi, d1, d2):
    # from contradictory consequences of phi, conclude ~phi
    return _n("lem", g, Neg(phi),
              _p22(g + (phi,), psi, Neg(phi), d1, d2),
              _assume(g, Neg(phi)))


def _reductio2(g, phi, psi, d1, d2):
    return _dne(g, phi, _reductio1(g, Neg(phi), psi, d1, d2))


def _cm1(g, phi, d):
    return _reductio1(g, phi, phi, _assume(g, phi), d)


def _cm2(g, phi, d):
    return _reductio2(g, phi, phi, d, _assume(g, Neg(phi)))


def _l25_expand(g, phi, psi, d):
    return _n("paste", g + (phi, phi), psi, _assume(g, phi), d)


def _l25_contract(g, phi, psi, d):
    return _n("cut", g + (phi,), psi, _assume(g, phi), d)


def _l25_dn_intro(g, phi, psi, d):
    nn = Neg(Neg(phi))
    cex = _n("cexch", g + (nn, phi), psi,
             _n("paste", g + (phi, nn), phi, _l234(g, phi), _assume(g, phi)),
             _n("paste", g + (phi, nn), psi, _l234(g, phi), d),
             _n("paste", g + (nn, phi), nn, _l232(g, phi), _assume(g, nn)))
    return _n("cut", g + (nn,), psi, _l232(g, phi), cex)


def _l25_dn_elim(g, phi, psi, d):
    nn = Neg(Neg(phi))
    cex = _n("cexch", g + (phi, nn), psi,
             _n("paste", g + (nn, phi), nn, _l232(g, phi), _assume(g, nn)),
             _n("paste", g + (nn, phi), psi, _l232(g, phi), d),
             _n("paste", g + (phi, nn), phi, _l234(g, phi), _assume(g, phi)))
    return _n("cut", g + (phi,), psi, _l234(g, phi), cex)


# -- generalized rules, built by recursion on the trailing context ----------

def _t26(base, front, fronts, delta, psi, *ds):
    """A rule generalized over a trailing context delta, by recursion on it.

    ``base(psi, *ds)`` builds the rule without delta; the conclusion's
    antecedent is ``front + delta``.  Each premise whose entry in ``fronts``
    is a context has antecedent ``that context + delta``: its last delta
    formula is discharged with imp_i before the recursive call, and the
    result is restored with imp_e.  A premise whose entry is None is passed
    on unchanged.
    """
    if not delta:
        return base(psi, *ds)
    *dp, dl = delta
    dp, arrow = tuple(dp), Imp(dl, psi)
    inner = _t26(base, front, fronts, dp, arrow,
                 *(d if f is None else _n("imp_i", f + dp, arrow, d)
                   for f, d in zip(fronts, ds)))
    return _n("imp_e", front + dp + (dl,), psi, inner)


def _t26_contract(g, phi, delta, psi, d):
    return _t26(partial(_l25_contract, g, phi), g + (phi,), (g + (phi, phi),), delta, psi, d)


def _t26_expand(g, phi, delta, psi, d):
    return _t26(partial(_l25_expand, g, phi), g + (phi, phi), (g + (phi,),), delta, psi, d)


def _t26_cut(g, phi, delta, psi, d1, d2):
    return _t26(partial(_n, "cut", g), g, (None, g + (phi,)), delta, psi, d1, d2)


def _t26_paste(g, phi, delta, psi, d1, d2):
    return _t26(partial(_n, "paste", g + (phi,)), g + (phi,), (None, g), delta, psi, d1, d2)


def _t26_cexch(g, phi, psi, delta, chi, d1, d2, d3):
    return _t26(partial(_n, "cexch", g + (psi, phi)), g + (psi, phi),
                (None, g + (phi, psi), None), delta, chi, d1, d2, d3)


@_cored
def _t26_explode_l(g, phi, delta, psi):
    return _t26(partial(_l231, g, phi), g + (Neg(phi), phi), (), delta, psi)


def _t26_explode_r(g, phi, delta, psi):
    return _t26(partial(_l233, g, phi), g + (phi, Neg(phi)), (), delta, psi)


def _t26_dn_elim(g, phi, delta, psi, d):
    return _t26(partial(_l25_dn_elim, g, phi), g + (phi,), (g + (Neg(Neg(phi)),),), delta, psi, d)


def _t26_dn_intro(g, phi, delta, psi, d):
    return _t26(partial(_l25_dn_intro, g, phi), g + (Neg(Neg(phi)),), (g + (phi,),), delta, psi, d)


def _t26_lem(g, phi, delta, psi, d1, d2):
    return _t26(partial(_n, "lem", g), g, (g + (phi,), g + (Neg(phi),)), delta, psi, d1, d2)


# -- compatibility of a conjunction with its conjuncts ----------------------
# The lemmas about a conjunction and its conjuncts come in mirror images:
# ``side`` 1 is the form for the first conjunct phi, ``side`` 2 the same
# construction for the second conjunct psi, with the matching projection.
# It is passed by keyword, as the catalog registrations fix it, so that
# ``_shared`` keys both uses of a cored lemma alike and builds it once.

_AND_E = {1: "and_e1", 2: "and_e2"}


def _conjunct(g, a, side):
    """g, a |- the side-th conjunct of the conjunction a, by projection."""
    return _n(_AND_E[side], g + (a,), (a.left, a.right)[side - 1], _assume(g, a))


@_cored
def _l271(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    return _t26_cut(g + (a,), c, (Neg(c),), a,
                    _conjunct(g, a, side=side),
                    _t26_explode_r(g + (a,), c, (), a))


@_cored
def _l272(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    g0 = g + (Neg(c),)
    first = _conjunct(g0, a, side=side)
    cex = _n("cexch", g0 + (a, c), Neg(c),
             _t26_explode_l(g, c, (a,), c),
             _t26_explode_l(g, c, (a,), Neg(c)),
             _n("paste", g0 + (a, c), a, first, _assume(g0, a)))
    return _n("cut", g0 + (a,), Neg(c), first, cex)


@_cored
def _l273(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    g0 = g + (Neg(a),)
    cex = _n("cexch", g0 + (c, a), Neg(a),
             _t26_explode_l(g, a, (c,), a),
             _t26_explode_l(g, a, (c,), Neg(a)),
             _conjunct(g0 + (c,), a, side=side))
    return _cm1(g0 + (c,), a, cex)


@_cored
def _l274(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    first = _t26_cexch(g, c, a, (Neg(a),), c,
                       _conjunct(g + (c,), a, side=side),
                       _t26_explode_r(g + (c,), a, (), c),
                       _n("paste", g + (a, c), a,
                          _conjunct(g, a, side=side), _assume(g, a)))
    second = _n("paste", g + (Neg(a), c, Neg(a)), c,
                _l273(g, phi, psi, side=side), _assume(g + (Neg(a),), c))
    return _t26_lem(g, a, (c, Neg(a)), c, first, second)


def _p281(g, phi, psi, delta, chi, d, side):
    return _t26_cexch(g, (phi, psi)[side - 1], Neg(And(phi, psi)), delta, chi,
                      _l274(g, phi, psi, side=side), d, _l273(g, phi, psi, side=side))


def _p282(g, phi, psi, delta, chi, d, side):
    return _t26_cexch(g, Neg(And(phi, psi)), (phi, psi)[side - 1], delta, chi,
                      _l273(g, phi, psi, side=side), d, _l274(g, phi, psi, side=side))


def _p291(g, phi, psi, d, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    return _reductio1(g, a, c, _conjunct(g, a, side=side),
                      _t26_cut(g, Neg(c), (a,), Neg(c), d, _l272(g, phi, psi, side=side)))


def _p292(g, phi, psi, d):
    return _p291(g, Neg(phi), psi, _dni(g, phi, d), side=1)


def _p294(g, phi, psi, d):
    return _p291(g, phi, Neg(psi), _dni(g, psi, d), side=2)


def _t210_fwd(g, phi, psi, d):
    core = Neg(And(phi, Neg(And(phi, psi))))
    left = _p294(g + (phi,), phi, And(phi, psi),
                 _n("and_i", g + (phi,), And(phi, psi),
                    _assume(g, phi),
                    _n("imp_e", g + (phi,), psi, d)))
    right = _p291(g + (Neg(phi),), phi, Neg(And(phi, psi)),
                  _assume(g, Neg(phi)), side=1)
    return _n("lem", g, core, left, right)


def _t210_bwd(g, phi, psi, d):
    nps = Neg(And(phi, psi))
    core = Neg(And(phi, nps))
    inner = _p281(g + (phi,), phi, nps, (), core, _assume(g + (phi, nps), core), side=2)
    step1 = _t26_cut(g, core, (phi, nps), core, d,
                     _p281(g, phi, nps, (nps,), core, inner, side=1))
    andi = _n("and_i", g + (phi, nps), And(phi, nps),
              _p282(g, phi, psi, (), phi, _assume(g + (nps,), phi), side=1),
              _assume(g + (phi,), nps))
    red = _reductio2(g + (phi,), And(phi, psi), And(phi, nps), andi, step1)
    return _n("imp_i", g, Imp(phi, psi),
              _n("and_e2", g + (phi,), psi, red))


# -- classical axioms and the quotient-lattice constructions ----------------

def _l361(phi, psi, chi, d1, d2):
    return _n("cut", (phi,), chi, d1, _wk((phi,), d2))


def _l362(phi, psi, d):
    w = _wk((Neg(psi),), d)
    cex = _n("cexch", (Neg(psi), phi, psi), Neg(psi),
             _t26_explode_l((), psi, (phi,), psi),
             _t26_explode_l((), psi, (phi,), Neg(psi)),
             _n("paste", (Neg(psi), phi, psi), phi, w,
                _assume((Neg(psi),), phi)))
    return _reductio1((Neg(psi),), phi, psi, w, _cm1((Neg(psi), phi), psi, cex))


def _ax1(phi, psi):
    ex = _n("exch", (phi, psi), phi, _assume((psi,), phi))
    return _n("imp_i", (), Imp(phi, Imp(psi, phi)),
              _n("imp_i", (phi,), Imp(psi, phi), ex))


def _ax2(phi, psi, chi):
    a, b = Imp(phi, psi), Imp(phi, Imp(psi, chi))
    left = _n("exch", (a, b, phi), psi,
              _n("imp_e", (b, a, phi), psi, _assume((b,), a)))
    right = _n("imp_e", (a, b, phi, psi), chi,
               _n("imp_e", (a, b, phi), Imp(psi, chi), _assume((a,), b)))
    body = _n("cut", (a, b, phi), chi, left, right)
    goal = Imp(a, Imp(b, Imp(phi, chi)))
    return _n("imp_i", (), goal,
              _n("imp_i", (a,), Imp(b, Imp(phi, chi)),
                 _n("imp_i", (a, b), Imp(phi, chi), body)))


def _ax3(phi, psi):
    ex = _n("exch", (phi, psi), phi, _assume((psi,), phi))
    andi = _n("and_i", (phi, psi), And(phi, psi), ex, _assume((phi,), psi))
    return _n("imp_i", (), Imp(phi, Imp(psi, And(phi, psi))),
              _n("imp_i", (phi,), Imp(psi, And(phi, psi)), andi))


def _ax4(phi, psi, side):
    a = And(phi, psi)
    return _n("imp_i", (), Imp(a, (phi, psi)[side - 1]), _conjunct((), a, side=side))


def _ax6(phi, psi):
    a, b = Imp(phi, psi), Imp(phi, Neg(psi))
    left = _n("exch", (a, b, phi), psi,
              _n("imp_e", (b, a, phi), psi, _assume((b,), a)))
    right = _n("imp_e", (a, b, phi), Neg(psi), _assume((a,), b))
    red = _reductio1((a, b), phi, psi, left, right)
    return _n("imp_i", (), Imp(a, Imp(b, Neg(phi))),
              _n("imp_i", (a,), Imp(b, Neg(phi)), red))


def _ax7(phi):
    return _n("imp_i", (), Imp(Neg(Neg(phi)), phi), _l232((), phi))


def _t38bot(g, phi, psi):
    x = And(phi, Neg(phi))
    return _p22(g + (x,), phi, psi, _conjunct(g, x, side=1), _conjunct(g, x, side=2))


def _t38om1(phi, psi, d):
    w = _wk((Neg(phi), psi), d)
    cex = _n("cexch", (Neg(phi), psi, phi), Neg(phi),
             _t26_explode_l((), phi, (psi,), phi),
             _t26_explode_l((), phi, (psi,), Neg(phi)),
             w)
    pst = _n("paste", (Neg(phi), psi, Neg(phi)), psi,
             _cm1((Neg(phi), psi), phi, cex),
             _assume((Neg(phi),), psi))
    gp = _t26_paste((phi,), psi, (Neg(phi),), psi, d, _l233((), phi, psi))
    glem = _t26_lem((), phi, (psi, Neg(phi)), psi, gp, pst)
    return _t210_fwd((psi,), Neg(phi), psi,
                     _n("imp_i", (psi,), Imp(Neg(phi), psi), glem))


def _t38om2(phi, psi, d):
    a = Imp(Neg(phi), psi)
    return _n("lem", (a,), psi,
              _wk((a,), d),
              _n("imp_e", (a, Neg(phi)), psi, _assume((), a)))


def _c39lem(phi, psi, d1, d2):
    return _n("lem", (), psi, d1, d2)


# -- disjunction and the compatibility connective ---------------------------

def _p42(g, phi, psi, d):
    cex = _n("cexch", g + (phi, psi, Neg(phi)), phi,
             _t26_explode_r(g, phi, (psi,), Neg(phi)),
             _t26_explode_r(g, phi, (psi,), phi),
             _n("paste", g + (phi, psi, Neg(phi)), psi, d, _assume(g + (phi,), psi)))
    return _reductio1(g + (phi,), psi, phi, _cm2(g + (phi, psi), phi, cex), d)


def _l43(g, phi, psi, chi, d1, d2, d3):
    a = And(phi, psi)
    q2 = _dne(g + (chi,), phi, _p42(g, chi, Neg(phi), d2))
    q3 = _dne(g + (chi,), psi, _p42(g, chi, Neg(psi), d3))
    gp = _t26_paste(g, Neg(a), (chi,), a, d1,
                    _n("and_i", g + (chi,), a, q2, q3))
    inner = _p42(g, Neg(a), chi, _dni(g + (Neg(a), chi), a, gp))
    return _n("cut", g, Neg(chi), d1, inner)


def _t44(g, phi, psi, d1, d2):
    nps = Neg(And(phi, psi))
    leaf = _t26_explode_r(g + (phi, nps), psi, (), Neg(phi))
    back = _p282(g + (phi,), phi, psi, (Neg(psi),), Neg(phi), leaf, side=2)
    step1 = _l43(g + (nps,), phi, psi, phi,
                 _assume(g, nps),
                 _t26_explode_r(g + (nps,), phi, (), Neg(phi)),
                 _p281(g, phi, psi, (Neg(psi),), Neg(phi),
                       _t26_cut(g + (phi,), psi, (nps, Neg(psi)), Neg(phi), d2, back),
                       side=1))
    x = Neg(And(Neg(phi), Neg(And(Neg(phi), psi))))
    a = And(phi, psi)
    left = _p292(g + (a,), phi, Neg(And(Neg(phi), psi)), _conjunct(g, a, side=1))
    gcut = _t26_cut(g, psi, (nps,), psi, d1,
                    _p282(g, phi, psi, (), psi, _assume(g + (nps,), psi), side=2))
    right = _p294(g + (nps,), Neg(phi), And(Neg(phi), psi),
                  _n("and_i", g + (nps,), And(Neg(phi), psi), step1, gcut))
    lemn = _n("lem", g, x, left, right)
    return _n("imp_e", g + (Neg(phi),), psi, _t210_bwd(g, Neg(phi), psi, lemn))


def _c451(g, phi, psi, d):
    return _t44(g + (phi,), psi, phi, _assume(g, phi), d)


def _c452(g, phi, psi, d1, d2):
    t = _t44(g, phi, Imp(psi, Imp(phi, psi)),
             _n("imp_i", g, Imp(psi, Imp(phi, psi)),
                _n("imp_i", g + (psi,), Imp(phi, psi), d2)),
             _n("imp_i", g + (phi,), Imp(psi, Imp(phi, psi)),
                _n("imp_i", g + (phi, psi), Imp(phi, psi),
                   _n("paste", g + (phi, psi, phi), psi, d1,
                      _assume(g + (phi,), psi)))))
    body = _n("imp_e", g + (Neg(phi), psi, phi), psi,
              _n("imp_e", g + (Neg(phi), psi), Imp(phi, psi), t))
    cex = _n("cexch", g + (Neg(phi), psi, phi), Neg(phi),
             _t26_explode_l(g, phi, (psi,), phi),
             _t26_explode_l(g, phi, (psi,), Neg(phi)),
             body)
    return _cm1(g + (Neg(phi), psi), phi, cex)


def _c46_intro1(g, phi, psi, d):
    return _relabel(_p292(g, phi, Neg(psi), d), Or(phi, psi))


def _c46_intro2(g, phi, psi, d):
    return _relabel(_p294(g, Neg(phi), psi, d), Or(phi, psi))


def _c46_elim(g, phi, psi, chi, d1, d2, d3, d4, d5):
    def branch(side, dmain, dctx):
        arrow = Imp(side, chi)
        t = _t44(g, chi, arrow,
                 _n("imp_i", g, arrow, dmain),
                 _n("imp_i", g + (chi,), arrow, dctx))
        ie = _n("imp_e", g + (Neg(chi), side), chi, t)
        gd = _t26_dn_intro(g + (Neg(chi),), side, (), chi, ie)
        return _dni(g + (Neg(chi), Neg(Neg(side))), chi, gd)

    l43 = _l43(g, Neg(phi), Neg(psi), Neg(chi), d1,
               branch(phi, d2, d4), branch(psi, d3, d5))
    return _dne(g, chi, l43)


def _p47intro(g, phi, psi, d1, d2):
    left = _n("imp_i", g, Imp(phi, Imp(psi, phi)),
              _n("imp_i", g + (phi,), Imp(psi, phi), d1))
    right = _n("imp_i", g, Imp(psi, Imp(phi, psi)),
               _n("imp_i", g + (psi,), Imp(phi, psi), d2))
    return _n("and_i", g, Compat(phi, psi), left, right)


def _p47half(g, phi, psi, d, side):
    """g, x, y |- x from ``d`` concluding phi >< psi, x its side-th argument."""
    x, y = (phi, psi) if side == 1 else (psi, phi)
    return _n("imp_e", g + (x, y), x,
              _n("imp_e", g + (x,), Imp(y, x),
                 _n(_AND_E[side], g, Imp(x, Imp(y, x)), d)))


def _p47exch(g, phi, psi, delta, chi, d1, d2, side):
    """P4.7.exch1, or exch2 at side 2: the side-th argument of phi >< psi
    leads in the premise d2, and the two swap places."""
    x, y = (phi, psi) if side == 1 else (psi, phi)
    return _t26_cexch(g, x, y, delta, chi, _p47half(g, phi, psi, d1, side=side),
                      d2, _p47half(g, phi, psi, d1, side=3 - side))


def _p481(g, phi, psi, d):
    return _p47exch(g, phi, psi, (), phi, d, _assume(g + (psi,), phi), side=2)


def _p482(g, phi, psi, d):
    return _p47exch(g, phi, psi, (), psi, d, _assume(g + (phi,), psi), side=1)


def _p483(g, phi, psi, d):
    return _p47intro(g, psi, phi, _p482(g, phi, psi, d), _p481(g, phi, psi, d))


def _p484(g, phi, psi, d):
    return _p47intro(g, phi, Neg(psi),
                     _c451(g, phi, psi, _p481(g, phi, psi, d)),
                     _c452(g, psi, phi, _p482(g, phi, psi, d),
                           _p481(g, phi, psi, d)))


def _p485(g, phi, psi, d):
    nn = Neg(Neg(psi))
    up = _p484(g, phi, Neg(psi), d)
    left = _l25_dn_elim(g + (phi,), psi, phi, _p481(g, phi, nn, up))
    right = _t26_dn_elim(g, psi, (phi,), psi,
                         _dne(g + (nn, phi), psi, _p482(g, phi, nn, up)))
    return _p47intro(g, phi, psi, left, right)


def _p486(g, phi, psi, d):
    return _p47intro(g, Neg(phi), psi,
                     _c452(g, phi, psi, _p481(g, phi, psi, d),
                           _p482(g, phi, psi, d)),
                     _c451(g, psi, phi, _p482(g, phi, psi, d)))


def _p487(g, phi, psi, d):
    nn = Neg(Neg(phi))
    up = _p486(g, Neg(phi), psi, d)
    left = _t26_dn_elim(g, phi, (psi,), phi,
                        _dne(g + (nn, psi), phi, _p481(g, nn, psi, up)))
    right = _l25_dn_elim(g + (psi,), phi, psi, _p482(g, nn, psi, up))
    return _p47intro(g, phi, psi, left, right)


def _p488(g, phi, psi):
    arrow = Imp(phi, psi)
    intro = _p47intro(g, arrow, Neg(phi),
                      _n("imp_i", g + (arrow, Neg(phi)), arrow,
                         _t26_explode_l(g + (arrow,), phi, (), psi)),
                      _n("paste", g + (Neg(phi), arrow), Neg(phi),
                         _n("imp_i", g + (Neg(phi),), arrow, _l231(g, phi, psi)),
                         _assume(g, Neg(phi))))
    return _p483(g, arrow, phi, _p485(g, arrow, phi, intro))


def _p489(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    return _p47intro(g, c, a, _conjunct(g + (c,), a, side=side),
                     _n("paste", g + (a, c), a, _conjunct(g, a, side=side),
                        _assume(g, a)))


def _p49(g, phi, psi, d1, d2):
    left = _t26_cut(g + (phi,), psi, (Neg(psi),), Neg(phi), d2,
                    _t26_explode_r(g + (phi,), psi, (), Neg(phi)))
    right = _p481(g, Neg(phi), Neg(psi),
                  _p486(g, phi, Neg(psi), _p484(g, phi, psi, d1)))
    return _t26_lem(g, phi, (Neg(psi),), Neg(phi), left, right)


def _l4101(g, phi, psi, d):
    return _n("and_i", g + (phi, psi), And(phi, psi),
              _p481(g, phi, psi, d), _assume(g + (phi,), psi))


def _l4102(g, phi, psi, d):
    return _n("and_i", g + (phi, Neg(psi)), And(phi, Neg(psi)),
              _p481(g, phi, Neg(psi), _p484(g, phi, psi, d)),
              _assume(g + (phi,), Neg(psi)))


def _l4103(g, phi, psi, d):
    return _n("and_i", g + (Neg(phi), psi), And(Neg(phi), psi),
              _p481(g, Neg(phi), psi, _p486(g, phi, psi, d)),
              _assume(g + (Neg(phi),), psi))


def _l4104(g, phi, psi, d):
    return _n("and_i", g + (Neg(phi), Neg(psi)), And(Neg(phi), Neg(psi)),
              _p481(g, Neg(phi), Neg(psi),
                    _p486(g, phi, Neg(psi), _p484(g, phi, psi, d))),
              _assume(g + (Neg(phi),), Neg(psi)))


def _p411(g, phi, psi, d):
    z1, z2 = And(phi, psi), And(phi, Neg(psi))
    target = Or(z1, z2)
    return _n("lem", g + (phi,), target,
              _c46_intro1(g + (phi, psi), z1, z2, _l4101(g, phi, psi, d)),
              _c46_intro2(g + (phi, Neg(psi)), z1, z2, _l4102(g, phi, psi, d)))


def _p411full(g, phi, psi, d):
    or1 = Or(And(phi, psi), And(phi, Neg(psi)))
    or2 = Or(And(Neg(phi), psi), And(Neg(phi), Neg(psi)))
    target = Or(or1, or2)
    return _n("lem", g, target,
              _c46_intro1(g + (phi,), or1, or2, _p411(g, phi, psi, d)),
              _c46_intro2(g + (Neg(phi),), or1, or2,
                          _p411(g, Neg(phi), psi, _p486(g, phi, psi, d))))


def _l412and(g, phi, psi, d):
    a = And(phi, psi)
    e1 = _conjunct(g, a, side=1)
    e2 = _conjunct(g, a, side=2)
    r1 = _n("paste", g + (phi, psi), phi,
            _t26_cut(g, a, (phi,), psi, d,
                     _n("paste", g + (a, phi), psi, e1, e2)),
            _assume(g, phi))
    r2 = _n("paste", g + (psi, phi), psi,
            _t26_cut(g, a, (psi,), phi, d,
                     _n("paste", g + (a, psi), phi, e2, e1)),
            _assume(g, psi))
    return _p47intro(g, phi, psi, r1, r2)


def _l412and_nr(g, phi, psi, d):
    return _p485(g, phi, psi, _l412and(g, phi, Neg(psi), d))


def _l412nl(g, phi, psi, d):
    return _p487(g, phi, psi, _l412and(g, Neg(phi), psi, d))


def _l412nlnr(g, phi, psi, d):
    return _p485(g, phi, psi,
                 _p487(g, phi, Neg(psi), _l412and(g, Neg(phi), Neg(psi), d)))


@_cored
def _l412s(g, phi, psi, which):
    builder, a = {
        1: (_l412and, And(phi, psi)),
        2: (_l412and_nr, And(phi, Neg(psi))),
        3: (_l412nl, And(Neg(phi), psi)),
        4: (_l412nlnr, And(Neg(phi), Neg(psi))),
    }[which]
    return builder(g + (a,), phi, psi, _assume(g, a))


def _l413rule(g, phi, psi, d):
    z1, z2 = And(phi, psi), And(phi, Neg(psi))
    cpt = Compat(phi, psi)
    return _c46_elim(g, z1, z2, cpt, d,
                     _l412s(g, phi, psi, 1), _l412s(g, phi, psi, 2),
                     _l412s(g + (cpt,), phi, psi, 1),
                     _l412s(g + (cpt,), phi, psi, 2))


@_cored
def _l413s1(g, phi, psi):
    a = Or(And(phi, psi), And(phi, Neg(psi)))
    return _l413rule(g + (a,), phi, psi, _assume(g, a))


@_cored
def _l413s2(g, phi, psi):
    a = Or(And(Neg(phi), psi), And(Neg(phi), Neg(psi)))
    return _p487(g + (a,), phi, psi, _l413rule(g + (a,), Neg(phi), psi, _assume(g, a)))


def _p414(g, phi, psi, d):
    or1 = Or(And(phi, psi), And(phi, Neg(psi)))
    or2 = Or(And(Neg(phi), psi), And(Neg(phi), Neg(psi)))
    cpt = Compat(phi, psi)
    return _c46_elim(g, or1, or2, cpt, d,
                     _l413s1(g, phi, psi), _l413s2(g, phi, psi),
                     _l413s1(g + (cpt,), phi, psi),
                     _l413s2(g + (cpt,), phi, psi))


# -- quantifiers -------------------------------------------------------------

def _l56(g, x, t, phi):
    fa = Forall(x, phi)
    sub = substitute(phi, x, t)
    inst = _n("all_e", g + (fa,), sub, _assume(g, fa), inst=t)
    p1 = _n("paste", g + (fa, sub), fa, inst, _assume(g, fa))
    p2 = _n("all_e", g + (sub, fa), sub, _assume(g + (sub,), fa), inst=t)
    return _p47intro(g, fa, sub, p1, p2)


def _p57ei(g, x, t, phi, d):
    sub = substitute(phi, x, t)
    fa = Forall(x, Neg(phi))
    step = _p482(g, fa, sub, _p485(g, fa, sub, _l56(g, x, t, Neg(phi))))
    left = _t26_cut(g, sub, (fa,), sub, d, step)
    right = _n("all_e", g + (fa,), Neg(sub), _assume(g, fa), inst=t)
    return _relabel(_reductio1(g, fa, sub, left, right), Exists(x, phi))


def _p57ee(g, x, phi, psi, d1, d2, d3):
    fa = Forall(x, Neg(phi))
    nf = Neg(fa)
    intro = _p47intro(g, phi, psi,
                      _n("paste", g + (phi, psi), phi, d2, _assume(g, phi)),
                      d3)
    ai = _n("all_i", g + (Neg(psi),), fa, _p49(g, phi, psi, intro, d2), inst=x)
    gp = _t26_paste(g, nf, (Neg(psi),), fa, d1, ai)
    p42 = _p42(g, nf, Neg(psi), _dni(g + (nf, Neg(psi)), fa, gp))
    return _n("cut", g, psi, d1, _dne(g + (nf,), psi, p42))


# ---------------------------------------------------------------------------
# The catalog proper: entry metadata, schema matching, and the public API.

_PHI, _PSI, _CHI = Letter("phi"), Letter("psi"), Letter("chi")
_METAVARS = ("phi", "psi", "chi")
_CONTEXTS = {"G": "gamma", "D": "delta"}    # shape markers and their inst keys
# builder parameter names and the inst keys whose values they receive
_PARAMS = {"g": "gamma", "delta": "delta", "phi": "phi", "psi": "psi",
           "chi": "chi", "x": "x", "t": "t"}


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    premises: tuple            # shapes: (items, succedent) with "G"/"D" markers
    conclusion: tuple
    modes: tuple
    builder: Callable          # schema values, then one derivation per premise
    locus: str
    params: tuple              # inst keys of the builder's schema parameters
    matcher: Optional[Callable] = None
    instantiator: Optional[Callable] = None

    @property
    def variables(self):
        """The schema formulas an instantiation must give, in builder order."""
        return tuple(k for k in self.params if k in _METAVARS)

    def build(self, inst, prems):
        """Run the builder; a missing context is empty.  The build shares
        its repeated sub-lemmas (``_shared``), and forgets them when done."""
        global _MEMO
        _MEMO = {}
        try:
            return self.builder(*(tuple(inst.get(k, ())) if k in _CONTEXTS.values()
                                  else inst[k] for k in self.params), *prems)
        finally:
            _MEMO = None

    def instantiate(self, inst):
        """Concrete premise sequents and conclusion for an assignment."""
        if self.instantiator is not None:
            return self.instantiator(inst)
        prems = tuple(_fill_shape(s, inst) for s in self.premises)
        return prems, _fill_shape(self.conclusion, inst)

    def match(self, premise_sequents, conclusion, args=None):
        """Infer the instantiation from concrete sequents."""
        if self.matcher is not None:
            return self.matcher(premise_sequents, conclusion, args or {})
        return _match_shapes(self, premise_sequents, conclusion)


def _sh(*items):
    """Shape helper: leading antecedent items, final item is the succedent."""
    return (tuple(items[:-1]), items[-1])


def _fill_formula(pattern, inst):
    if isinstance(pattern, Letter) and pattern.name in _METAVARS:
        return inst[pattern.name]
    if isinstance(pattern, Neg):
        return Neg(_fill_formula(pattern.sub, inst))
    if isinstance(pattern, (And, Imp, Or, Compat)):
        cls = type(pattern)
        return cls(_fill_formula(pattern.left, inst),
                   _fill_formula(pattern.right, inst))
    return pattern


def _fill_shape(shape, inst):
    items, succ = shape
    ante = []
    for it in items:
        if it in _CONTEXTS:
            ante.extend(inst.get(_CONTEXTS[it], ()))
        else:
            ante.append(_fill_formula(it, inst))
    return Sequent(tuple(ante), _fill_formula(succ, inst))


def _bind_formula(pattern, subject, inst):
    p, s = expand(pattern), expand(subject)

    def walk(p, s):
        if isinstance(p, Letter):
            if p.name in _METAVARS:
                bound = inst.get(p.name)
                if bound is None:
                    inst[p.name] = s
                elif bound != s:
                    raise TacticError(
                        f"metavariable {p.name} bound inconsistently")
                return
            if p != s:
                raise TacticError(f"expected letter {p.name}")
            return
        if isinstance(p, Neg):
            if not isinstance(s, Neg):
                raise TacticError("negation did not match")
            walk(p.sub, s.sub)
            return
        if isinstance(p, (And, Imp)):
            if type(s) is not type(p):
                raise TacticError("connective did not match")
            walk(p.left, s.left)
            walk(p.right, s.right)
            return
        if p != s:
            raise TacticError("subformula did not match")

    walk(p, s)


def _bind_shape(shape, sequent, inst):
    items, succ = shape
    fixed = [it for it in items if not isinstance(it, str)]
    n_ctx = len(inst.get("gamma", ())) * ("G" in items) \
        + len(inst.get("delta", ())) * ("D" in items)
    if len(sequent.antecedent) != n_ctx + len(fixed):
        raise TacticError("antecedent length mismatch")
    pos = 0
    for it in items:
        if it in _CONTEXTS:
            want = inst[_CONTEXTS[it]]
            if not context_eq(sequent.antecedent[pos:pos + len(want)], want):
                kind = "ambient" if it == "G" else "trailing"
                raise TacticError(f"{kind} context mismatch")
            pos += len(want)
        else:
            _bind_formula(it, sequent.antecedent[pos], inst)
            pos += 1
    _bind_formula(succ, sequent.succedent, inst)


def _splits(items, ante):
    """The (gamma, delta) pairs that fit shape ``items`` to antecedent
    ``ante``, longest gamma first: gamma is a prefix and delta a suffix of
    ``ante``, each empty unless the shape has its marker.  None if ``ante``
    is shorter than the shape's formulas."""
    spare = len(ante) - sum(1 for it in items if not isinstance(it, str))
    if spare < 0:
        return None
    return [(ante[:k], ante[len(ante) - spare + k:]) for k in range(spare, -1, -1)
            if (k == 0 or "G" in items) and (k == spare or "D" in items)]


def _fit(entry, shapes, seqs, key, what, unbound):
    """The first instantiation, over the splits of ``shapes[key]`` (named
    ``what``), that binds every shape to its sequent and determines every
    schema formula."""
    splits = _splits(shapes[key][0], seqs[key].antecedent)
    if splits is None:
        raise TacticError(f"{entry.id}: {what} has too few antecedents")
    last = TacticError(f"{entry.id}: shape mismatch")
    for gamma, delta in splits:
        inst = {"gamma": gamma, "delta": delta}
        try:
            for shape, seq in zip(shapes, seqs):
                _bind_shape(shape, seq, inst)
            for name in entry.variables:
                if name not in inst:
                    raise TacticError(f"{entry.id}: {name} {unbound}")
            return inst
        except TacticError as err:
            last = err
    raise last


def _match_shapes(entry, premise_sequents, conclusion):
    if len(premise_sequents) != len(entry.premises):
        raise TacticError(
            f"{entry.id} takes {len(entry.premises)} premises, "
            f"got {len(premise_sequents)}")
    return _fit(entry, (entry.conclusion, *entry.premises),
                (conclusion, *premise_sequents), 0, "conclusion", "undetermined")


_CATALOG: "dict[str, CatalogEntry]" = {}


def _reg(eid, prems, concl, builder, locus, modes=MODES,
         matcher=None, instantiator=None):
    """Register ``builder`` bare: its leading parameters named in ``_PARAMS``
    receive the instantiation (``g`` the ambient context, ``delta`` the
    trailing one), and the positional parameters after them the premise
    derivations, one per premise shape."""
    if eid in _CATALOG:
        raise ValueError(f"duplicate catalog id {eid}")
    names = [p.name for p in inspect.signature(builder).parameters.values()
             if p.kind is p.POSITIONAL_OR_KEYWORD]
    params = tuple(_PARAMS[n] for n in takewhile(_PARAMS.__contains__, names))
    if len(names) - len(params) != len(prems):
        raise ValueError(f"{eid}: builder takes {len(names) - len(params)} "
                         f"premises, not {len(prems)}")
    _CATALOG[eid] = CatalogEntry(eid, tuple(prems), concl, tuple(modes),
                                 builder, locus, params, matcher, instantiator)


_NPS = Neg(And(_PHI, _PSI))

_reg("P2.1", [_sh("G", _PHI), _sh("G", Imp(_PHI, _PSI))], _sh("G", _PSI),
     _p21, "modus ponens")
_reg("P2.2", [_sh("G", _PHI), _sh("G", Neg(_PHI))], _sh("G", _PSI),
     _p22, "explosion from a contradiction")
_reg("L2.3.1", [], _sh("G", Neg(_PHI), _PHI, _PSI),
     _l231, "explosion, negation first")
_reg("L2.3.2", [], _sh("G", Neg(Neg(_PHI)), _PHI),
     _l232, "double negation elimination under assumption")
_reg("L2.3.3", [], _sh("G", _PHI, Neg(_PHI), _PSI),
     _l233, "explosion, negation second")
_reg("L2.3.4", [], _sh("G", _PHI, Neg(Neg(_PHI))),
     _l234, "double negation introduction under assumption")
_reg("P2.4.dni", [_sh("G", _PHI)], _sh("G", Neg(Neg(_PHI))),
     _dni, "double negation introduction")
_reg("P2.4.dne", [_sh("G", Neg(Neg(_PHI)))], _sh("G", _PHI),
     _dne, "double negation elimination")
_reg("P2.4.reductio1", [_sh("G", _PHI, _PSI), _sh("G", _PHI, Neg(_PSI))],
     _sh("G", Neg(_PHI)), _reductio1, "reductio ad absurdum")
_reg("P2.4.reductio2", [_sh("G", Neg(_PHI), _PSI), _sh("G", Neg(_PHI), Neg(_PSI))],
     _sh("G", _PHI), _reductio2, "reductio ad absurdum, refuting a negation")
_reg("P2.4.cm1", [_sh("G", _PHI, Neg(_PHI))], _sh("G", Neg(_PHI)),
     _cm1, "consequentia mirabilis")
_reg("P2.4.cm2", [_sh("G", Neg(_PHI), _PHI)], _sh("G", _PHI),
     _cm2, "consequentia mirabilis, positive form")
_reg("L2.5.expand", [_sh("G", _PHI, _PSI)], _sh("G", _PHI, _PHI, _PSI),
     _l25_expand, "duplicate the last assumption")
_reg("L2.5.contract", [_sh("G", _PHI, _PHI, _PSI)], _sh("G", _PHI, _PSI),
     _l25_contract, "contract a duplicated assumption")
_reg("L2.5.dn_intro", [_sh("G", _PHI, _PSI)], _sh("G", Neg(Neg(_PHI)), _PSI),
     _l25_dn_intro, "double negation introduction in the last assumption")
_reg("L2.5.dn_elim", [_sh("G", Neg(Neg(_PHI)), _PSI)], _sh("G", _PHI, _PSI),
     _l25_dn_elim, "double negation elimination in the last assumption")

_reg("T2.6.contract", [_sh("G", _PHI, _PHI, "D", _PSI)], _sh("G", _PHI, "D", _PSI),
     _t26_contract, "generalized contraction")
_reg("T2.6.expand", [_sh("G", _PHI, "D", _PSI)], _sh("G", _PHI, _PHI, "D", _PSI),
     _t26_expand, "generalized expansion")
_reg("T2.6.cut", [_sh("G", _PHI), _sh("G", _PHI, "D", _PSI)], _sh("G", "D", _PSI),
     _t26_cut, "generalized cut")
_reg("T2.6.paste", [_sh("G", _PHI), _sh("G", "D", _PSI)], _sh("G", _PHI, "D", _PSI),
     _t26_paste, "generalized paste")
_reg("T2.6.cexch",
     [_sh("G", _PHI, _PSI, _PHI), _sh("G", _PHI, _PSI, "D", _CHI),
      _sh("G", _PSI, _PHI, _PSI)],
     _sh("G", _PSI, _PHI, "D", _CHI), _t26_cexch, "generalized compatible exchange")
_reg("T2.6.explode_l", [], _sh("G", Neg(_PHI), _PHI, "D", _PSI),
     _t26_explode_l, "generalized explosion, negation first")
_reg("T2.6.explode_r", [], _sh("G", _PHI, Neg(_PHI), "D", _PSI),
     _t26_explode_r, "generalized explosion, negation second")
_reg("T2.6.dn_elim", [_sh("G", Neg(Neg(_PHI)), "D", _PSI)], _sh("G", _PHI, "D", _PSI),
     _t26_dn_elim, "generalized double negation elimination")
_reg("T2.6.dn_intro", [_sh("G", _PHI, "D", _PSI)], _sh("G", Neg(Neg(_PHI)), "D", _PSI),
     _t26_dn_intro, "generalized double negation introduction")
_reg("T2.6.lem", [_sh("G", _PHI, "D", _PSI), _sh("G", Neg(_PHI), "D", _PSI)],
     _sh("G", "D", _PSI), _t26_lem, "generalized excluded middle")

_reg("L2.7.1a", [], _sh("G", And(_PHI, _PSI), Neg(_PHI), And(_PHI, _PSI)),
     partial(_l271, side=1), "a conjunction survives the negated first conjunct")
_reg("L2.7.1b", [], _sh("G", And(_PHI, _PSI), Neg(_PSI), And(_PHI, _PSI)),
     partial(_l271, side=2), "a conjunction survives the negated second conjunct")
_reg("L2.7.2a", [], _sh("G", Neg(_PHI), And(_PHI, _PSI), Neg(_PHI)),
     partial(_l272, side=1), "a negated conjunct survives the conjunction")
_reg("L2.7.2b", [], _sh("G", Neg(_PSI), And(_PHI, _PSI), Neg(_PSI)),
     partial(_l272, side=2), "a negated conjunct survives the conjunction, second form")
_reg("L2.7.3a", [], _sh("G", _NPS, _PHI, _NPS),
     partial(_l273, side=1), "a negated conjunction survives the first conjunct")
_reg("L2.7.3b", [], _sh("G", _NPS, _PSI, _NPS),
     partial(_l273, side=2), "a negated conjunction survives the second conjunct")
_reg("L2.7.4a", [], _sh("G", _PHI, _NPS, _PHI),
     partial(_l274, side=1), "a conjunct survives the negated conjunction")
_reg("L2.7.4b", [], _sh("G", _PSI, _NPS, _PSI),
     partial(_l274, side=2), "a conjunct survives the negated conjunction, second form")

_reg("P2.8.1", [_sh("G", _PHI, _NPS, "D", _CHI)], _sh("G", _NPS, _PHI, "D", _CHI),
     partial(_p281, side=1), "exchange with a negated conjunction")
_reg("P2.8.2", [_sh("G", _NPS, _PHI, "D", _CHI)], _sh("G", _PHI, _NPS, "D", _CHI),
     partial(_p282, side=1), "exchange with a negated conjunction, reversed")
_reg("P2.8.3", [_sh("G", _PSI, _NPS, "D", _CHI)], _sh("G", _NPS, _PSI, "D", _CHI),
     partial(_p281, side=2), "exchange with a negated conjunction, second conjunct")
_reg("P2.8.4", [_sh("G", _NPS, _PSI, "D", _CHI)], _sh("G", _PSI, _NPS, "D", _CHI),
     partial(_p282, side=2), "exchange with a negated conjunction, second conjunct reversed")

_reg("P2.9.1", [_sh("G", Neg(_PHI))], _sh("G", _NPS),
     partial(_p291, side=1), "negation is antitone in the first conjunct")
_reg("P2.9.2", [_sh("G", _PHI)], _sh("G", Neg(And(Neg(_PHI), _PSI))),
     _p292, "a formula refutes conjunctions with its negation")
_reg("P2.9.3", [_sh("G", Neg(_PSI))], _sh("G", _NPS),
     partial(_p291, side=2), "negation is antitone in the second conjunct")
_reg("P2.9.4", [_sh("G", _PSI)], _sh("G", Neg(And(_PHI, Neg(_PSI)))),
     _p294, "a formula refutes conjunctions with its negation, second form")

_T210 = Neg(And(_PHI, Neg(And(_PHI, _PSI))))
_reg("T2.10.fwd", [_sh("G", Imp(_PHI, _PSI))], _sh("G", _T210),
     _t210_fwd, "arrow to Sasaki form")
_reg("T2.10.bwd", [_sh("G", _T210)], _sh("G", Imp(_PHI, _PSI)),
     _t210_bwd, "Sasaki form to arrow")

_reg("L3.6.1", [_sh(_PHI, _PSI), _sh(_PSI, _CHI)], _sh(_PHI, _CHI),
     _l361, "single-formula cut composition")
_reg("L3.6.2", [_sh(_PHI, _PSI)], _sh(Neg(_PSI), Neg(_PHI)),
     _l362, "contraposition on single formulas")

_reg("T3.2.AX1", [], _sh(Imp(_PHI, Imp(_PSI, _PHI))),
     _ax1, "weakening axiom", modes=_E)
_reg("T3.2.AX2", [],
     _sh(Imp(Imp(_PHI, _PSI),
             Imp(Imp(_PHI, Imp(_PSI, _CHI)), Imp(_PHI, _CHI)))),
     _ax2, "distribution axiom", modes=_E)
_reg("T3.2.AX3", [], _sh(Imp(_PHI, Imp(_PSI, And(_PHI, _PSI)))),
     _ax3, "conjunction introduction axiom", modes=_E)
_reg("T3.2.AX4", [], _sh(Imp(And(_PHI, _PSI), _PHI)),
     partial(_ax4, side=1), "first projection axiom")
_reg("T3.2.AX5", [], _sh(Imp(And(_PHI, _PSI), _PSI)),
     partial(_ax4, side=2), "second projection axiom")
_reg("T3.2.AX6", [],
     _sh(Imp(Imp(_PHI, _PSI), Imp(Imp(_PHI, Neg(_PSI)), Neg(_PHI)))),
     _ax6, "negation introduction axiom", modes=_E)
_reg("T3.2.AX7", [], _sh(Imp(Neg(Neg(_PHI)), _PHI)),
     _ax7, "double negation axiom")

_reg("T3.8.BOT", [], _sh("G", And(_PHI, Neg(_PHI)), _PSI),
     _t38bot, "a contradiction proves everything")
_OM1 = Neg(And(Neg(_PHI), Neg(And(Neg(_PHI), _PSI))))
_reg("T3.8.OM1", [_sh(_PHI, _PSI)], _sh(_PSI, _OM1),
     _t38om1, "orthomodularity, expansion half")
_reg("T3.8.OM2", [_sh(_PHI, _PSI)], _sh(Imp(Neg(_PHI), _PSI), _PSI),
     _t38om2, "orthomodularity, collapse half")
_reg("C3.9.LEM", [_sh(_PHI, _PSI), _sh(Neg(_PHI), _PSI)], _sh(_PSI),
     _c39lem, "excluded middle on closed contexts")

_reg("P4.2", [_sh("G", _PHI, _PSI, Neg(_PHI))], _sh("G", _PHI, Neg(_PSI)),
     _p42, "negation transfer across assumptions")
_reg("L4.3", [_sh("G", _NPS), _sh("G", _CHI, Neg(_PHI), Neg(_CHI)),
              _sh("G", _CHI, Neg(_PSI), Neg(_CHI))],
     _sh("G", Neg(_CHI)), _l43, "refutation by a negated conjunction")
_reg("T4.4", [_sh("G", _PSI), _sh("G", _PHI, _PSI)], _sh("G", Neg(_PHI), _PSI),
     _t44, "stability under a negated assumption")
_reg("C4.5.1", [_sh("G", _PHI, _PSI, _PHI)], _sh("G", _PHI, Neg(_PSI), _PHI),
     _c451, "survival under the negated second assumption")
_reg("C4.5.2", [_sh("G", _PHI, _PSI, _PHI), _sh("G", _PSI, _PHI, _PSI)],
     _sh("G", Neg(_PHI), _PSI, Neg(_PHI)), _c452,
     "survival of the negated first assumption")

_reg("C4.6.intro1", [_sh("G", _PHI)], _sh("G", Or(_PHI, _PSI)),
     _c46_intro1, "disjunction introduction, left")
_reg("C4.6.intro2", [_sh("G", _PSI)], _sh("G", Or(_PHI, _PSI)),
     _c46_intro2, "disjunction introduction, right")
_reg("C4.6.elim",
     [_sh("G", Or(_PHI, _PSI)), _sh("G", _PHI, _CHI), _sh("G", _PSI, _CHI),
      _sh("G", _CHI, _PHI, _CHI), _sh("G", _CHI, _PSI, _CHI)],
     _sh("G", _CHI), _c46_elim, "disjunction elimination")

_CPT = Compat(_PHI, _PSI)
_reg("P4.7.intro", [_sh("G", _PHI, _PSI, _PHI), _sh("G", _PSI, _PHI, _PSI)],
     _sh("G", _CPT), _p47intro, "compatibility introduction")
_reg("P4.7.exch1", [_sh("G", _CPT), _sh("G", _PHI, _PSI, "D", _CHI)],
     _sh("G", _PSI, _PHI, "D", _CHI), partial(_p47exch, side=1),
     "exchange of compatible assumptions")
_reg("P4.7.exch2", [_sh("G", _CPT), _sh("G", _PSI, _PHI, "D", _CHI)],
     _sh("G", _PHI, _PSI, "D", _CHI), partial(_p47exch, side=2),
     "exchange of compatible assumptions, reversed")

_reg("P4.8.1", [_sh("G", _CPT)], _sh("G", _PHI, _PSI, _PHI),
     _p481, "compatible assumptions preserve the first")
_reg("P4.8.2", [_sh("G", _CPT)], _sh("G", _PSI, _PHI, _PSI),
     _p482, "compatible assumptions preserve the second")
_reg("P4.8.3", [_sh("G", _CPT)], _sh("G", Compat(_PSI, _PHI)),
     _p483, "compatibility is symmetric")
_reg("P4.8.4", [_sh("G", _CPT)], _sh("G", Compat(_PHI, Neg(_PSI))),
     _p484, "compatibility with the negated second argument")
_reg("P4.8.5", [_sh("G", Compat(_PHI, Neg(_PSI)))], _sh("G", _CPT),
     _p485, "compatibility from the negated second argument")
_reg("P4.8.6", [_sh("G", _CPT)], _sh("G", Compat(Neg(_PHI), _PSI)),
     _p486, "compatibility with the negated first argument")
_reg("P4.8.7", [_sh("G", Compat(Neg(_PHI), _PSI))], _sh("G", _CPT),
     _p487, "compatibility from the negated first argument")
_reg("P4.8.8", [], _sh("G", Compat(_PHI, Imp(_PHI, _PSI))),
     _p488, "a formula is compatible with arrows out of it")
_reg("P4.8.9", [], _sh("G", Compat(_PHI, And(_PHI, _PSI))),
     partial(_p489, side=1), "a formula is compatible with conjunctions containing it")
_reg("P4.8.10", [], _sh("G", Compat(_PSI, And(_PHI, _PSI))),
     partial(_p489, side=2),
     "a formula is compatible with conjunctions containing it, second form")

_reg("P4.9", [_sh("G", _CPT), _sh("G", _PHI, _PSI)],
     _sh("G", Neg(_PSI), Neg(_PHI)), _p49, "contraposition under compatibility")

_reg("L4.10.1", [_sh("G", _CPT)], _sh("G", _PHI, _PSI, And(_PHI, _PSI)),
     _l4101, "compatible assumptions conjoin")
_reg("L4.10.2", [_sh("G", _CPT)],
     _sh("G", _PHI, Neg(_PSI), And(_PHI, Neg(_PSI))),
     _l4102, "compatible assumptions conjoin, negated second")
_reg("L4.10.3", [_sh("G", _CPT)],
     _sh("G", Neg(_PHI), _PSI, And(Neg(_PHI), _PSI)),
     _l4103, "compatible assumptions conjoin, negated first")
_reg("L4.10.4", [_sh("G", _CPT)],
     _sh("G", Neg(_PHI), Neg(_PSI), And(Neg(_PHI), Neg(_PSI))),
     _l4104, "compatible assumptions conjoin, both negated")

_OR1 = Or(And(_PHI, _PSI), And(_PHI, Neg(_PSI)))
_OR2 = Or(And(Neg(_PHI), _PSI), And(Neg(_PHI), Neg(_PSI)))
_reg("P4.11", [_sh("G", _CPT)], _sh("G", _PHI, _OR1),
     _p411, "case split under compatibility")
_reg("P4.11.full", [_sh("G", _CPT)], _sh("G", Or(_OR1, _OR2)),
     _p411full, "compatibility gives the four-fold disjunction")

_reg("L4.12.and", [_sh("G", And(_PHI, _PSI))], _sh("G", _CPT),
     _l412and, "a conjunction makes its conjuncts compatible")
_reg("L4.12.and_nr", [_sh("G", And(_PHI, Neg(_PSI)))], _sh("G", _CPT),
     _l412and_nr, "a signed conjunction makes its letters compatible")
_reg("L4.12.nl", [_sh("G", And(Neg(_PHI), _PSI))], _sh("G", _CPT),
     _l412nl, "a signed conjunction makes its letters compatible, negated first")
_reg("L4.12.nlnr", [_sh("G", And(Neg(_PHI), Neg(_PSI)))], _sh("G", _CPT),
     _l412nlnr, "a signed conjunction makes its letters compatible, both negated")
_reg("L4.12.s1", [], _sh("G", And(_PHI, _PSI), _CPT),
     partial(_l412s, which=1), "assumed conjunction yields compatibility")
_reg("L4.12.s2", [], _sh("G", And(_PHI, Neg(_PSI)), _CPT),
     partial(_l412s, which=2), "assumed signed conjunction yields compatibility")
_reg("L4.12.s3", [], _sh("G", And(Neg(_PHI), _PSI), _CPT),
     partial(_l412s, which=3),
     "assumed signed conjunction yields compatibility, negated first")
_reg("L4.12.s4", [], _sh("G", And(Neg(_PHI), Neg(_PSI)), _CPT),
     partial(_l412s, which=4),
     "assumed signed conjunction yields compatibility, both negated")

_reg("L4.13.rule", [_sh("G", _OR1)], _sh("G", _CPT),
     _l413rule, "a positive case split yields compatibility")
_reg("L4.13.s1", [], _sh("G", _OR1, _CPT),
     _l413s1, "assumed positive case split yields compatibility")
_reg("L4.13.s2", [], _sh("G", _OR2, _CPT),
     _l413s2, "assumed negative case split yields compatibility")
_reg("P4.14", [_sh("G", Or(_OR1, _OR2))], _sh("G", _CPT),
     _p414, "the four-fold disjunction gives compatibility")


def _require(args, key, eid):
    if key not in args:
        raise TacticError(f"{eid} needs an explicit {key}= argument")
    return args[key]


def _as_compat(f):
    f0 = f
    if isinstance(f0, Compat):
        return f0.left, f0.right
    e = expand(f)
    if isinstance(e, And) and isinstance(e.left, Imp) \
            and isinstance(e.left.right, Imp) \
            and e.left.left == e.left.right.right:
        return e.left.left, e.left.right.left
    return None


def _as_exists(f):
    if isinstance(f, Exists):
        return f.var, f.body
    e = expand(f)
    if isinstance(e, Neg) and isinstance(e.sub, Forall) \
            and isinstance(e.sub.body, Neg):
        return e.sub.var, e.sub.body.sub
    return None


def _match_l56(prem_seqs, concl, args):
    t = _require(args, "t", "L5.6")
    pair = _as_compat(concl.succedent)
    if pair is None or not isinstance(pair[0], Forall):
        raise TacticError("L5.6 concludes a compatibility with a universal")
    fa, sub = pair
    if not formula_eq(sub, substitute(fa.body, fa.var, t)):
        raise TacticError("right component is not the instance at t")
    return {"gamma": concl.antecedent, "x": fa.var, "t": t, "phi": fa.body}


def _inst_l56(inst):
    fa = Forall(inst["x"], inst["phi"])
    sub = substitute(inst["phi"], inst["x"], inst["t"])
    return (), Sequent(tuple(inst.get("gamma", ())), Compat(fa, sub))


def _match_p57ei(prem_seqs, concl, args):
    t = _require(args, "t", "P5.7.EI")
    pair = _as_exists(concl.succedent)
    if pair is None:
        raise TacticError("P5.7.EI concludes an existential")
    x, phi = pair
    want = Sequent(concl.antecedent, substitute(phi, x, t))
    if not sequent_eq(prem_seqs[0], want):
        raise TacticError("premise is not the instance at t")
    return {"gamma": concl.antecedent, "x": x, "t": t, "phi": phi}


def _inst_p57ei(inst):
    g = tuple(inst.get("gamma", ()))
    sub = substitute(inst["phi"], inst["x"], inst["t"])
    return ((Sequent(g, sub),),
            Sequent(g, Exists(inst["x"], inst["phi"])))


def _match_p57ee(prem_seqs, concl, args):
    if len(prem_seqs) != 3:
        raise TacticError("P5.7.EE takes three premises")
    pair = _as_exists(prem_seqs[0].succedent)
    if pair is None:
        raise TacticError("first premise must be an existential")
    x, phi = pair
    g, psi = concl.antecedent, concl.succedent
    inst = {"gamma": g, "x": x, "phi": phi, "psi": psi}
    want, _ = _inst_p57ee(inst)
    for seq, expected in zip(prem_seqs, want):
        if not sequent_eq(seq, expected):
            raise TacticError("premise shape mismatch for P5.7.EE")
    return inst


def _inst_p57ee(inst):
    g = tuple(inst.get("gamma", ()))
    x, phi, psi = inst["x"], inst["phi"], inst["psi"]
    return ((Sequent(g, Exists(x, phi)),
             Sequent(g + (phi,), psi),
             Sequent(g + (psi, phi), psi)),
            Sequent(g, psi))


_reg("L5.6", [], None, _l56, "a universal is compatible with its instances",
     modes=_QMODES, matcher=_match_l56, instantiator=_inst_l56)
_reg("P5.7.EI", [None], None, _p57ei, "existential introduction",
     modes=_QMODES, matcher=_match_p57ei, instantiator=_inst_p57ei)
_reg("P5.7.EE", [None, None, None], None, _p57ee, "existential elimination",
     modes=_QMODES, matcher=_match_p57ee, instantiator=_inst_p57ee)


def catalog():
    """All entries, in registration order."""
    return list(_CATALOG.values())


def lookup(entry_id: str) -> CatalogEntry:
    try:
        return _CATALOG[entry_id]
    except KeyError:
        raise TacticError(f"unknown catalog id '{entry_id}'")


def derive(entry_id: str, inst, premises=()) -> Derivation:
    """Build the derivation for an explicit instantiation.

    ``inst`` maps schema names (gamma, delta, phi, psi, chi, x, t) to
    formulas, contexts, or terms; ``premises`` supplies one derivation
    (or a bare sequent, taken as a hypothesis leaf) per premise shape.
    """
    entry = lookup(entry_id)
    inst = dict(inst)
    for key in ("gamma", "delta"):
        if key in inst:
            inst[key] = tuple(inst[key])
    for name in entry.params:
        if name not in inst and name not in _CONTEXTS.values():
            raise TacticError(f"{entry_id} needs {name}")
    prems = tuple(hyp(p) if isinstance(p, Sequent) else p for p in premises)
    want, _ = entry.instantiate(inst)
    if len(prems) != len(want):
        raise TacticError(
            f"{entry_id} takes {len(want)} premises, got {len(prems)}")
    for d, expected in zip(prems, want):
        if not sequent_eq(d.conclusion, expected):
            raise TacticError(
                f"{entry_id}: premise {d.conclusion} does not match {expected}")
    return entry.build(inst, prems)


def infer_conclusion(entry_id: str, premise_sequents) -> Sequent:
    """Forward application: the conclusion determined by the premises alone.

    Only works for entries whose conclusion metavariables all occur in
    some premise; entries with custom matchers (the quantifier rules)
    and premise-free entries are never inferable.  Raises TacticError
    with a hint to state the target sequent explicitly.
    """
    entry = lookup(entry_id)
    prems = tuple(premise_sequents)
    if entry.matcher is not None or not entry.premises:
        raise TacticError(
            f"{entry_id}: conclusion cannot be inferred from premises alone; "
            f"state the target sequent")
    if len(prems) != len(entry.premises):
        raise TacticError(
            f"{entry_id} takes {len(entry.premises)} premises, "
            f"got {len(prems)}")
    # gamma and delta are read off the first premise with a trailing context
    key = next((k for k, (its, _) in enumerate(entry.premises) if "D" in its), 0)
    inst = _fit(entry, entry.premises, prems, key, f"premise {key + 1}",
                "is not determined by the premises; state the target sequent")
    return entry.instantiate(inst)[1]


def match_and_build(entry_id: str, premises, conclusion: Sequent,
                    mode: str, args=None) -> Derivation:
    """Resolve a ``derived`` proof-script line into a primitive derivation."""
    entry = _CATALOG.get(entry_id)
    if entry is None:
        raise TacticError(f"unknown catalog id '{entry_id}'")
    if mode not in entry.modes:
        raise TacticError(f"{entry_id}: not available in mode {mode}")
    inst = entry.match([d.conclusion for d in premises], conclusion,
                       args or {})
    d = entry.build(inst, tuple(premises))
    if not sequent_eq(d.conclusion, conclusion):
        raise TacticError(f"{entry_id} built {d.conclusion}, not {conclusion}")
    return d
