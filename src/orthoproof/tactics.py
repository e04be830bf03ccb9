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
from typing import Callable

from .kernel import MODES, Derivation, hyp
from .syntax import (
    And, Compat, Exists, Forall, Formula, Imp, Letter, Neg, Or, Sequent,
    Var, children, substitute, unfold,
)


class TacticError(Exception):
    pass


_E = ("NOM_E",)
_QMODES = ("NOM_Q", "NOM_q")


def _n(rule, ante, succ, *prems, inst=None):
    return Derivation(Sequent(ante, succ), rule, prems, inst)


# ---------------------------------------------------------------------------
# Forward rule applications: one constructor per primitive rule whose
# premises fix its conclusion, given the datum named (explode's succedent,
# exch's position, all_i's variable, all_e's term).  Each reads its premises'
# conclusions, looking through ``unfold`` where it expects a connective, and
# builds the node; the kernel judges it like any other.

def _expect(f, cls, what):
    """``f`` unfolded one step, which must be a ``cls`` node."""
    e = unfold(f)
    if not isinstance(e, cls):
        raise TacticError(f"the premise succedent is not {what}")
    return e


def cut(d1, d2):
    return _n("cut", d1.conclusion.antecedent, d2.conclusion.succedent, d1, d2)


def paste(d1, d2):
    c = d1.conclusion
    return _n("paste", c.antecedent + (c.succedent,), d2.conclusion.succedent, d1, d2)


def cexch(d1, d2, d3):
    return _n("cexch", d3.conclusion.antecedent, d2.conclusion.succedent, d1, d2, d3)


def and_i(d1, d2):
    c = d1.conclusion
    return _n("and_i", c.antecedent, And(c.succedent, d2.conclusion.succedent), d1, d2)


def and_e(d, side):
    """The side-th conjunct: and_e1 at side 1, and_e2 at side 2."""
    c = d.conclusion
    a = _expect(c.succedent, And, "a conjunction")
    return _n(("and_e1", "and_e2")[side - 1], c.antecedent, (a.left, a.right)[side - 1], d)


def imp_i(d):
    c = d.conclusion
    if not c.antecedent:
        raise TacticError("imp_i needs a premise with an antecedent")
    return _n("imp_i", c.antecedent[:-1], Imp(c.antecedent[-1], c.succedent), d)


def imp_e(d):
    c = d.conclusion
    a = _expect(c.succedent, Imp, "an arrow")
    return _n("imp_e", c.antecedent + (a.left,), a.right, d)


def lem(d1, d2):
    c = d1.conclusion
    if not c.antecedent:
        raise TacticError("lem premises need a final assumption to discharge")
    return _n("lem", c.antecedent[:-1], c.succedent, d1, d2)


def explode(d, succ):
    c = d.conclusion
    neg = _expect(c.succedent, Neg, "a negation")
    return _n("explode", c.antecedent + (neg.sub,), succ, d)


def exch(d, i=-2, rule="exch"):
    """Antecedent formulas i and i + 1 swapped (the last two by default) by
    ``rule``: exch, or qexch, which the kernel allows at the last two only."""
    c = d.conclusion
    a = c.antecedent
    if len(a) < 2:
        raise TacticError(f"{rule} needs at least two antecedent formulas")
    i %= len(a)
    return _n(rule, a[:i] + (a[i + 1], a[i]) + a[i + 2:], c.succedent, d)


def all_i(d, x):
    c = d.conclusion
    return _n("all_i", c.antecedent, Forall(x, c.succedent), d, inst=x)


def all_e(d, t):
    c = d.conclusion
    f = _expect(c.succedent, Forall, "universally quantified")
    return _n("all_e", c.antecedent, substitute(f.body, f.var, t), d, inst=t)


# the REPL's forward steps by rule name
_FORWARD = {"cut": cut, "paste": paste, "cexch": cexch, "and_i": and_i,
            "and_e1": partial(and_e, side=1), "and_e2": partial(and_e, side=2),
            "imp_i": imp_i, "imp_e": imp_e, "lem": lem, "all_i": all_i, "all_e": all_e,
            "exch": exch, "qexch": partial(exch, rule="qexch")}


def forward(rule, premises, args):
    """The node of primitive ``rule`` applied forward to the sequents
    ``premises``, each a hyp leaf: the REPL's forward step.  ``args`` maps
    ``x`` to all_i's variable or ``t`` to all_e's term; exch and qexch swap
    the last two antecedent formulas.  TacticError if no conclusion follows."""
    if rule in ("explode", "wk"):
        what = "succedent" if rule == "explode" else "added context"
        raise TacticError(f"{rule}'s {what} is unconstrained; state the target sequent")
    return _FORWARD[rule](*map(hyp, premises), *args.values())


# The sub-lemmas of the build in progress (``CatalogEntry.build``), None
# between builds: (builder, argument ids) -> (arguments, derivation).  The
# arguments are kept so that no id is reused while the memo lives.
_MEMO = None


def _shared(builder):
    """Build a pure sub-lemma once per catalog build and share the node.

    Formulas are hash-consed, so equal arguments are the same objects; a
    tuple argument keys as the ids of its members, any other argument as its
    id, a keyword argument as its value."""
    @wraps(builder)
    def shared(*args, **kw):
        if _MEMO is None:
            return builder(*args, **kw)
        key = [builder, *kw.items()]  # a loop builds no function per call, as a comprehension does
        for a in args:
            key.append(tuple(map(id, a)) if type(a) is tuple else id(a))
        hit = _MEMO.get(key := tuple(key))
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
    if succ != d.conclusion.succedent:
        raise TacticError("relabel changed the conclusion")
    return _n(d.rule, d.conclusion.antecedent, succ, *d.premises, inst=d.instantiation)


# ---------------------------------------------------------------------------
# Derived-rule constructions.  Each function takes the ambient context ``g``
# (a tuple of formulas), the schema formulas, and the premise derivations,
# and returns the derivation tree of the conclusion.  The parameter names
# matter: ``_reg`` passes the instantiation by them.

def _p21(g, phi, psi, d1, d2):
    # modus ponens via cut over the arrow elimination
    return cut(d1, imp_e(d2))


def _p22(g, phi, psi, d1, d2):
    # anything follows from phi together with ~phi
    return cut(d2, cut(paste(d2, d1), explode(_assume(g, Neg(phi)), psi)))


@_cored
def _l231(g, phi, psi):
    return explode(_assume(g, Neg(phi)), psi)


@_cored
def _l232(g, phi):
    nn = Neg(Neg(phi))
    return lem(_assume(g + (nn,), phi), explode(_assume(g, nn), phi))


@_cored
def _l233(g, phi, psi):
    left = imp_i(_l231(g, phi, Imp(Neg(phi), psi)))
    right = imp_i(paste(_l232(g, phi), imp_i(_l231(g, Neg(phi), psi))))
    return imp_e(imp_e(lem(left, right)))


@_cored
def _l234(g, phi):
    nn = Neg(Neg(phi))
    return lem(_l233(g, phi, nn), _assume(g + (phi,), nn))


def _dni(g, phi, d):
    return cut(d, _l234(g, phi))


def _dne(g, phi, d):
    return cut(d, _l232(g, phi))


def _reductio1(g, phi, psi, d1, d2):
    # from contradictory consequences of phi, conclude ~phi
    return lem(_p22(g + (phi,), psi, Neg(phi), d1, d2), _assume(g, Neg(phi)))


def _reductio2(g, phi, psi, d1, d2):
    return _dne(g, phi, _reductio1(g, Neg(phi), psi, d1, d2))


def _cm1(g, phi, d):
    return _reductio1(g, phi, phi, _assume(g, phi), d)


def _cm2(g, phi, d):
    return _reductio2(g, phi, phi, d, _assume(g, Neg(phi)))


def _l25_dn_intro(g, phi, psi, d):
    cex = cexch(paste(_l234(g, phi), _assume(g, phi)),
                paste(_l234(g, phi), d),
                paste(_l232(g, phi), _assume(g, Neg(Neg(phi)))))
    return cut(_l232(g, phi), cex)


def _l25_dn_elim(g, phi, psi, d):
    cex = cexch(paste(_l232(g, phi), _assume(g, Neg(Neg(phi)))),
                paste(_l232(g, phi), d),
                paste(_l234(g, phi), _assume(g, phi)))
    return cut(_l234(g, phi), cex)


# -- generalized rules, built by recursion on the trailing context ----------

def _t26(base, carries, delta, *ds):
    """A rule generalized over a trailing context delta, by recursion on it.

    ``base(*ds)`` builds the rule without delta.  Each premise flagged in
    ``carries`` ends in delta: its last delta formula is discharged with
    imp_i before the recursive call, and the result is restored with imp_e.
    A premise not flagged is passed on unchanged.
    """
    if not delta:
        return base(*ds)
    return imp_e(_t26(base, carries, delta[:-1],
                      *(imp_i(d) if c else d for c, d in zip(carries, ds))))


def _arrows(delta, psi):
    """delta_1 -> (... -> (delta_n -> psi)): the succedent with delta discharged."""
    for f in reversed(delta):
        psi = Imp(f, psi)
    return psi


# which premises carry delta into _t26: the second of two, the middle of three, both
_SECOND, _MIDDLE, _BOTH = (False, True), (False, True, False), (True, True)


def _t26_contract(g, phi, delta, psi, d):
    return _t26(partial(cut, _assume(g, phi)), (True,), delta, d)


def _t26_expand(g, phi, delta, psi, d):
    return _t26(partial(paste, _assume(g, phi)), (True,), delta, d)


def _t26_cut(g, phi, delta, psi, d1, d2):
    return _t26(cut, _SECOND, delta, d1, d2)


def _t26_paste(g, phi, delta, psi, d1, d2):
    # the pasted formula as the schema writes it: paste() would copy d1's
    # succedent, which C4.6.elim and P5.7.EE take as written in their premise
    base = lambda d1, d2: _n("paste", g + (phi,), d2.conclusion.succedent, d1, d2)
    return _t26(base, _SECOND, delta, d1, d2)


def _t26_cexch(g, phi, psi, delta, chi, d1, d2, d3):
    return _t26(cexch, _MIDDLE, delta, d1, d2, d3)


@_cored
def _t26_explode_l(g, phi, delta, psi):
    return _t26(partial(_l231, g, phi, _arrows(delta, psi)), (), delta)


def _t26_explode_r(g, phi, delta, psi):
    return _t26(partial(_l233, g, phi, _arrows(delta, psi)), (), delta)


def _t26_dn_elim(g, phi, delta, psi, d):
    return _t26(partial(_l25_dn_elim, g, phi, _arrows(delta, psi)), (True,), delta, d)


def _t26_dn_intro(g, phi, delta, psi, d):
    return _t26(partial(_l25_dn_intro, g, phi, _arrows(delta, psi)), (True,), delta, d)


def _t26_lem(g, phi, delta, psi, d1, d2):
    return _t26(lem, _BOTH, delta, d1, d2)


# -- compatibility of a conjunction with its conjuncts ----------------------
# The lemmas about a conjunction and its conjuncts come in mirror images:
# ``side`` 1 is the form for the first conjunct phi, ``side`` 2 the same
# construction for the second conjunct psi, with the matching projection.
# It is passed by keyword, as the catalog registrations fix it, so that
# ``_shared`` keys both uses of a cored lemma alike and builds it once.

@_cored
def _l271(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    return _t26(cut, _SECOND, (Neg(c),), and_e(_assume(g, a), side),
                _t26_explode_r(g + (a,), c, (), a))


@_cored
def _l272(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    g0 = g + (Neg(c),)
    first = and_e(_assume(g0, a), side)
    cex = cexch(_t26_explode_l(g, c, (a,), c),
                _t26_explode_l(g, c, (a,), Neg(c)),
                paste(first, _assume(g0, a)))
    return cut(first, cex)


@_cored
def _l273(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    g0 = g + (Neg(a),)
    cex = cexch(_t26_explode_l(g, a, (c,), a),
                _t26_explode_l(g, a, (c,), Neg(a)),
                and_e(_assume(g0 + (c,), a), side))
    return _cm1(g0 + (c,), a, cex)


@_cored
def _l274(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    first = _t26(cexch, _MIDDLE, (Neg(a),),
                 and_e(_assume(g + (c,), a), side),
                 _t26_explode_r(g + (c,), a, (), c),
                 paste(and_e(_assume(g, a), side), _assume(g, a)))
    second = paste(_l273(g, phi, psi, side=side), _assume(g + (Neg(a),), c))
    return _t26(lem, _BOTH, (c, Neg(a)), first, second)


def _p281(g, phi, psi, delta, chi, d, side):
    return _t26(cexch, _MIDDLE, delta,
                _l274(g, phi, psi, side=side), d, _l273(g, phi, psi, side=side))


def _p282(g, phi, psi, delta, chi, d, side):
    return _t26(cexch, _MIDDLE, delta,
                _l273(g, phi, psi, side=side), d, _l274(g, phi, psi, side=side))


def _p291(g, phi, psi, d, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    return _reductio1(g, a, c, and_e(_assume(g, a), side),
                      _t26(cut, _SECOND, (a,), d, _l272(g, phi, psi, side=side)))


def _p292(g, phi, psi, d):
    return _p291(g, Neg(phi), psi, _dni(g, phi, d), side=1)


def _p294(g, phi, psi, d):
    return _p291(g, phi, Neg(psi), _dni(g, psi, d), side=2)


def _t210_fwd(g, phi, psi, d):
    left = _p294(g + (phi,), phi, And(phi, psi), and_i(_assume(g, phi), imp_e(d)))
    right = _p291(g + (Neg(phi),), phi, Neg(And(phi, psi)),
                  _assume(g, Neg(phi)), side=1)
    return lem(left, right)


def _t210_bwd(g, phi, psi, d):
    nps = Neg(And(phi, psi))
    core = Neg(And(phi, nps))
    inner = _p281(g + (phi,), phi, nps, (), core, _assume(g + (phi, nps), core), side=2)
    step1 = _t26(cut, _SECOND, (phi, nps), d,
                 _p281(g, phi, nps, (nps,), core, inner, side=1))
    andi = and_i(_p282(g, phi, psi, (), phi, _assume(g + (nps,), phi), side=1),
                 _assume(g + (phi,), nps))
    red = _reductio2(g + (phi,), And(phi, psi), And(phi, nps), andi, step1)
    return imp_i(and_e(red, 2))


# -- classical axioms and the quotient-lattice constructions ----------------

def _l361(phi, psi, chi, d1, d2):
    return cut(d1, _wk((phi,), d2))


def _l362(phi, psi, d):
    w = _wk((Neg(psi),), d)
    cex = cexch(_t26_explode_l((), psi, (phi,), psi),
                _t26_explode_l((), psi, (phi,), Neg(psi)),
                paste(w, _assume((Neg(psi),), phi)))
    return _reductio1((Neg(psi),), phi, psi, w, _cm1((Neg(psi), phi), psi, cex))


def _ax1(phi, psi):
    return imp_i(imp_i(exch(_assume((psi,), phi), 0)))


def _ax2(phi, psi, chi):
    a, b = Imp(phi, psi), Imp(phi, Imp(psi, chi))
    left = exch(imp_e(_assume((b,), a)), 0)
    right = imp_e(imp_e(_assume((a,), b)))
    return imp_i(imp_i(imp_i(cut(left, right))))


def _ax3(phi, psi):
    return imp_i(imp_i(and_i(exch(_assume((psi,), phi), 0), _assume((phi,), psi))))


def _ax4(phi, psi, side):
    return imp_i(and_e(_assume((), And(phi, psi)), side))


def _ax6(phi, psi):
    a, b = Imp(phi, psi), Imp(phi, Neg(psi))
    left = exch(imp_e(_assume((b,), a)), 0)
    return imp_i(imp_i(_reductio1((a, b), phi, psi, left, imp_e(_assume((a,), b)))))


def _ax7(phi):
    return imp_i(_l232((), phi))


def _t38bot(g, phi, psi):
    x = And(phi, Neg(phi))
    return _p22(g + (x,), phi, psi, and_e(_assume(g, x), 1), and_e(_assume(g, x), 2))


def _t38om1(phi, psi, d):
    w = _wk((Neg(phi), psi), d)
    cex = cexch(_t26_explode_l((), phi, (psi,), phi),
                _t26_explode_l((), phi, (psi,), Neg(phi)), w)
    pst = paste(_cm1((Neg(phi), psi), phi, cex), _assume((Neg(phi),), psi))
    gp = _t26_paste((phi,), psi, (Neg(phi),), psi, d, _l233((), phi, psi))
    glem = _t26(lem, _BOTH, (psi, Neg(phi)), gp, pst)
    return _t210_fwd((psi,), Neg(phi), psi, imp_i(glem))


def _t38om2(phi, psi, d):
    a = Imp(Neg(phi), psi)
    return lem(_wk((a,), d), imp_e(_assume((), a)))


def _c39lem(phi, psi, d1, d2):
    return lem(d1, d2)


# -- disjunction and the compatibility connective ---------------------------

def _p42(g, phi, psi, d):
    cex = cexch(_t26_explode_r(g, phi, (psi,), Neg(phi)),
                _t26_explode_r(g, phi, (psi,), phi),
                paste(d, _assume(g + (phi,), psi)))
    return _reductio1(g + (phi,), psi, phi, _cm2(g + (phi, psi), phi, cex), d)


def _l43(g, phi, psi, chi, d1, d2, d3):
    a = And(phi, psi)
    q2 = _dne(g + (chi,), phi, _p42(g, chi, Neg(phi), d2))
    q3 = _dne(g + (chi,), psi, _p42(g, chi, Neg(psi), d3))
    gp = _t26_paste(g, Neg(a), (chi,), a, d1, and_i(q2, q3))
    return cut(d1, _p42(g, Neg(a), chi, _dni(g + (Neg(a), chi), a, gp)))


def _t44(g, phi, psi, d1, d2):
    nps = Neg(And(phi, psi))
    leaf = _t26_explode_r(g + (phi, nps), psi, (), Neg(phi))
    back = _p282(g + (phi,), phi, psi, (Neg(psi),), Neg(phi), leaf, side=2)
    step1 = _l43(g + (nps,), phi, psi, phi,
                 _assume(g, nps),
                 _t26_explode_r(g + (nps,), phi, (), Neg(phi)),
                 _p281(g, phi, psi, (Neg(psi),), Neg(phi),
                       _t26(cut, _SECOND, (nps, Neg(psi)), d2, back), side=1))
    a = And(phi, psi)
    left = _p292(g + (a,), phi, Neg(And(Neg(phi), psi)), and_e(_assume(g, a), 1))
    gcut = _t26(cut, _SECOND, (nps,), d1,
                _p282(g, phi, psi, (), psi, _assume(g + (nps,), psi), side=2))
    right = _p294(g + (nps,), Neg(phi), And(Neg(phi), psi), and_i(step1, gcut))
    return imp_e(_t210_bwd(g, Neg(phi), psi, lem(left, right)))


def _c451(g, phi, psi, d):
    return _t44(g + (phi,), psi, phi, _assume(g, phi), d)


def _c452(g, phi, psi, d1, d2):
    t = _t44(g, phi, Imp(psi, Imp(phi, psi)), imp_i(imp_i(d2)),
             imp_i(imp_i(paste(d1, _assume(g + (phi,), psi)))))
    cex = cexch(_t26_explode_l(g, phi, (psi,), phi),
                _t26_explode_l(g, phi, (psi,), Neg(phi)),
                imp_e(imp_e(t)))
    return _cm1(g + (Neg(phi), psi), phi, cex)


def _c46_intro1(g, phi, psi, d):
    return _relabel(_p292(g, phi, Neg(psi), d), Or(phi, psi))


def _c46_intro2(g, phi, psi, d):
    return _relabel(_p294(g, Neg(phi), psi, d), Or(phi, psi))


def _c46_elim(g, phi, psi, chi, d1, d2, d3, d4, d5):
    def branch(side, dmain, dctx):
        t = _t44(g, chi, Imp(side, chi), imp_i(dmain), imp_i(dctx))
        gd = _t26_dn_intro(g + (Neg(chi),), side, (), chi, imp_e(t))
        return _dni(g + (Neg(chi), Neg(Neg(side))), chi, gd)

    l43 = _l43(g, Neg(phi), Neg(psi), Neg(chi), d1,
               branch(phi, d2, d4), branch(psi, d3, d5))
    return _dne(g, chi, l43)


def _p47intro(g, phi, psi, d1, d2):
    # and_i would write the conjunction; this writes its abbreviation phi >< psi
    left, right = imp_i(imp_i(d1)), imp_i(imp_i(d2))
    return _n("and_i", g, Compat(phi, psi), left, right)


def _p47half(d, side):
    """g, x, y |- x from ``d`` concluding g |- phi >< psi, x its side-th argument."""
    return imp_e(imp_e(and_e(d, side)))


def _p47exch(g, phi, psi, delta, chi, d1, d2, side):
    """P4.7.exch1, or exch2 at side 2: the side-th argument of phi >< psi
    leads in the premise d2, and the two swap places."""
    return _t26(cexch, _MIDDLE, delta, _p47half(d1, side), d2, _p47half(d1, 3 - side))


def _p481(g, phi, psi, d):
    return cexch(_p47half(d, 2), _assume(g + (psi,), phi), _p47half(d, 1))


def _p482(g, phi, psi, d):
    return cexch(_p47half(d, 1), _assume(g + (phi,), psi), _p47half(d, 2))


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
                      imp_i(_t26_explode_l(g + (arrow,), phi, (), psi)),
                      paste(imp_i(_l231(g, phi, psi)), _assume(g, Neg(phi))))
    return _p483(g, arrow, phi, _p485(g, arrow, phi, intro))


def _p489(g, phi, psi, side):
    a, c = And(phi, psi), (phi, psi)[side - 1]
    return _p47intro(g, c, a, and_e(_assume(g + (c,), a), side),
                     paste(and_e(_assume(g, a), side), _assume(g, a)))


def _p49(g, phi, psi, d1, d2):
    left = _t26(cut, _SECOND, (Neg(psi),), d2,
                _t26_explode_r(g + (phi,), psi, (), Neg(phi)))
    right = _p481(g, Neg(phi), Neg(psi),
                  _p486(g, phi, Neg(psi), _p484(g, phi, psi, d1)))
    return _t26(lem, _BOTH, (Neg(psi),), left, right)


def _l4101(g, phi, psi, d):
    return and_i(_p481(g, phi, psi, d), _assume(g + (phi,), psi))


def _l4102(g, phi, psi, d):
    return _l4101(g, phi, Neg(psi), _p484(g, phi, psi, d))


def _l4103(g, phi, psi, d):
    return _l4101(g, Neg(phi), psi, _p486(g, phi, psi, d))


def _l4104(g, phi, psi, d):
    return _l4101(g, Neg(phi), Neg(psi), _p486(g, phi, Neg(psi), _p484(g, phi, psi, d)))


def _p411(g, phi, psi, d):
    z1, z2 = And(phi, psi), And(phi, Neg(psi))
    return lem(_c46_intro1(g + (phi, psi), z1, z2, _l4101(g, phi, psi, d)),
               _c46_intro2(g + (phi, Neg(psi)), z1, z2, _l4102(g, phi, psi, d)))


def _p411full(g, phi, psi, d):
    or1 = Or(And(phi, psi), And(phi, Neg(psi)))
    or2 = Or(And(Neg(phi), psi), And(Neg(phi), Neg(psi)))
    return lem(_c46_intro1(g + (phi,), or1, or2, _p411(g, phi, psi, d)),
               _c46_intro2(g + (Neg(phi),), or1, or2,
                           _p411(g, Neg(phi), psi, _p486(g, phi, psi, d))))


def _l412and(g, phi, psi, d):
    a = And(phi, psi)
    e1, e2 = and_e(_assume(g, a), 1), and_e(_assume(g, a), 2)
    r1 = paste(_t26(cut, _SECOND, (phi,), d, paste(e1, e2)), _assume(g, phi))
    r2 = paste(_t26(cut, _SECOND, (psi,), d, paste(e2, e1)), _assume(g, psi))
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
    inst = all_e(_assume(g, fa), t)
    sub = inst.conclusion.succedent
    p2 = all_e(_assume(g + (sub,), fa), t)
    return _p47intro(g, fa, sub, paste(inst, _assume(g, fa)), p2)


def _p57ei(g, x, t, phi, d):
    sub = substitute(phi, x, t)
    fa = Forall(x, Neg(phi))
    step = _p482(g, fa, sub, _p485(g, fa, sub, _l56(g, x, t, Neg(phi))))
    left = _t26(cut, _SECOND, (fa,), d, step)
    return _relabel(_reductio1(g, fa, sub, left, all_e(_assume(g, fa), t)), Exists(x, phi))


def _p57ee(g, x, phi, psi, d1, d2, d3):
    fa = Forall(x, Neg(phi))
    nf = Neg(fa)
    intro = _p47intro(g, phi, psi, paste(d2, _assume(g, phi)), d3)
    gp = _t26_paste(g, nf, (Neg(psi),), fa, d1, all_i(_p49(g, phi, psi, intro, d2), x))
    p42 = _p42(g, nf, Neg(psi), _dni(g + (nf, Neg(psi)), fa, gp))
    return cut(d1, _dne(g + (nf,), psi, p42))


# ---------------------------------------------------------------------------
# The catalog proper: entry metadata, schema matching, and the public API.

_PHI, _PSI, _CHI = Letter("phi"), Letter("psi"), Letter("chi")
_METAVARS = ("phi", "psi", "chi")
# a quantifier's variable in a shape binds ``x``; "phi with t for x" is the
# one computed shape, filled by substitution and matched by comparison with it
_X, _PHI_T = Var("x"), Letter("phi[t/x]")
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

    @property
    def variables(self):
        """The schema formulas an instantiation must give, in builder order."""
        return tuple(k for k in self.params if k in _METAVARS)

    @property
    def matcher(self):
        """``match`` where the instantiation binds a variable ``x`` (the
        quantifier rules), None elsewhere."""
        return self.match if "x" in self.params else None

    @property
    def arguments(self):
        """The keys a ``derived`` line gives, each once: ``t`` when the
        builder takes the term, which the matcher reads from the line."""
        return tuple(k for k in self.params if k == "t")

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
        prems = tuple(_fill_shape(s, inst) for s in self.premises)
        return prems, _fill_shape(self.conclusion, inst)

    def match(self, premise_sequents, conclusion, args=None):
        """Infer the instantiation from concrete sequents and the line's
        arguments, which give each key of ``arguments``."""
        args = args or {}
        for key in self.arguments:
            if key not in args:
                raise TacticError(f"{self.id} needs an explicit {key}= argument")
        if len(premise_sequents) != len(self.premises):
            raise TacticError(f"{self.id} takes {len(self.premises)} premises, "
                              f"got {len(premise_sequents)}")
        return _fit(self, (self.conclusion, *self.premises), (conclusion, *premise_sequents),
                    0, "conclusion", "undetermined", {k: args[k] for k in self.arguments})


def _sh(*items):
    """Shape helper: leading antecedent items, final item is the succedent."""
    return (tuple(items[:-1]), items[-1])


def _fill_formula(pattern, inst):
    if pattern is _PHI_T:
        x, t = inst["x"], inst["t"]
        if t.sort != x.sort:
            raise TacticError(f"term of sort {t.sort} for a variable of sort {x.sort}")
        return substitute(inst["phi"], x, t)
    if isinstance(pattern, Letter) and pattern.name in _METAVARS:
        return inst[pattern.name]
    if isinstance(pattern, (Forall, Exists)):
        return type(pattern)(inst["x"], _fill_formula(pattern.body, inst))
    if isinstance(pattern, (Neg, And, Imp, Or, Compat)):
        return type(pattern)(*(_fill_formula(p, inst) for p in children(pattern)))
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


def _bind_formula(p, s, inst):
    """Bind the metavariables of pattern ``p`` to the sub-formulas of ``s``
    they stand for.  The two are walked as written, and where their
    connectives differ each is unfolded one level, so every binding is a
    node of ``s`` as written.  The first quantifier met binds ``x`` to its
    variable; one met again, like "phi with t for x", is filled and compared
    whole, so alpha-variants match.  The conclusion is bound first, so
    ``phi``, ``x`` and ``t`` are bound by then."""
    if p is _PHI_T or isinstance(p, (Forall, Exists)) and "x" in inst:
        if _fill_formula(p, inst) != s:
            raise TacticError("not the instance of phi at t" if p is _PHI_T
                              else "quantifier did not match")
        return
    if isinstance(p, Letter) and p.name in _METAVARS:
        bound = inst.get(p.name)
        if bound is None:
            inst[p.name] = s
        elif bound != s:
            raise TacticError(f"metavariable {p.name} bound inconsistently")
        return
    if type(p) is not type(s):
        p, s = unfold(p), unfold(s)
    if isinstance(p, (Neg, And, Imp, Or, Compat, Forall, Exists)):
        if type(s) is not type(p):
            raise TacticError("negation did not match" if isinstance(p, Neg)
                              else "connective did not match")
        if isinstance(p, (Forall, Exists)):
            inst["x"] = s.var
        for a, b in zip(children(p), children(s)):
            _bind_formula(a, b, inst)
    elif p != s:
        raise TacticError(f"expected letter {p.name}" if isinstance(p, Letter)
                          else "subformula did not match")


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
            if sequent.antecedent[pos:pos + len(want)] != want:
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


def _fit(entry, shapes, seqs, key, what, unbound, args):
    """The first instantiation, starting from ``args``, over the splits of
    ``shapes[key]`` (named ``what``), that binds every shape to its sequent
    and determines every schema formula."""
    splits = _splits(shapes[key][0], seqs[key].antecedent)
    if splits is None:
        raise TacticError(f"{entry.id}: {what} has too few antecedents")
    last = TacticError(f"{entry.id}: shape mismatch")
    for gamma, delta in splits:
        inst = {"gamma": gamma, "delta": delta, **args}
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


_CATALOG: "dict[str, CatalogEntry]" = {}


def _reg(eid, prems, concl, builder, locus, modes=MODES):
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
                                 builder, locus, params)


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
     _t26_expand, "duplicate the last assumption")
_reg("L2.5.contract", [_sh("G", _PHI, _PHI, _PSI)], _sh("G", _PHI, _PSI),
     _t26_contract, "contract a duplicated assumption")
_reg("L2.5.dn_intro", [_sh("G", _PHI, _PSI)], _sh("G", Neg(Neg(_PHI)), _PSI),
     _t26_dn_intro, "double negation introduction in the last assumption")
_reg("L2.5.dn_elim", [_sh("G", Neg(Neg(_PHI)), _PSI)], _sh("G", _PHI, _PSI),
     _t26_dn_elim, "double negation elimination in the last assumption")

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


_ALL, _EXISTS = Forall(_X, _PHI), Exists(_X, _PHI)

_reg("L5.6", [], _sh("G", Compat(_ALL, _PHI_T)), _l56,
     "a universal is compatible with its instances", modes=_QMODES)
_reg("P5.7.EI", [_sh("G", _PHI_T)], _sh("G", _EXISTS), _p57ei,
     "existential introduction", modes=_QMODES)
_reg("P5.7.EE", [_sh("G", _EXISTS), _sh("G", _PHI, _PSI), _sh("G", _PSI, _PHI, _PSI)],
     _sh("G", _PSI), _p57ee, "existential elimination", modes=_QMODES)


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
    shapes = (*entry.premises, entry.conclusion)
    for mark, key in _CONTEXTS.items():  # a context that no shape marks is empty
        marked = any(mark in items for items, _ in shapes)
        inst[key] = tuple(inst.get(key, ())) if marked else ()
    for name in entry.params:
        if name not in inst and name not in _CONTEXTS.values():
            raise TacticError(f"{entry_id} needs {name}")
    prems = tuple(hyp(p) if isinstance(p, Sequent) else p for p in premises)
    want, _ = entry.instantiate(inst)
    if len(prems) != len(want):
        raise TacticError(
            f"{entry_id} takes {len(want)} premises, got {len(prems)}")
    for d, expected in zip(prems, want):
        if d.conclusion != expected:
            raise TacticError(
                f"{entry_id}: premise {d.conclusion} does not match {expected}")
    return entry.build(inst, prems)


def infer_conclusion(entry_id: str, premise_sequents) -> Sequent:
    """Forward application: the conclusion determined by the premises alone.

    Only works for entries whose conclusion metavariables all occur in
    some premise; the quantifier rules (``matcher`` is set) and premise-free
    entries are never inferable.  Raises TacticError with a hint to state
    the target sequent explicitly.
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
                "is not determined by the premises; state the target sequent", {})
    return entry.instantiate(inst)[1]


def match_and_build(entry_id: str, premises, conclusion: Sequent,
                    mode: str, args=None) -> Derivation:
    """Resolve a ``derived`` proof-script line into a primitive derivation."""
    entry = lookup(entry_id)
    if mode not in entry.modes:
        raise TacticError(f"{entry_id}: not available in mode {mode}")
    inst = entry.match([d.conclusion for d in premises], conclusion,
                       args or {})
    d = entry.build(inst, tuple(premises))
    if d.conclusion != conclusion:
        raise TacticError(f"{entry_id} built {d.conclusion}, not {conclusion}")
    return d
