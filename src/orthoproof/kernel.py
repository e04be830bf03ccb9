"""The trusted proof-checking core.

Everything that decides whether an inference is legal lives in
``check_inference``; ``check_derivation`` just folds it over a tree.
Tactics and scripts elsewhere in the package only ever *construct*
derivations — acceptance always comes back through this module.

Schema matching is positional: premise order is part of each rule.
Formulas are compared by ``==``, which is alpha-equality after expanding
the derived connectives, so a conclusion written with \\/ or >< matches
the rule schemas of its expansion; ``expand`` is read only for structure."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .syntax import (
    And, App, Const, Forall, Imp, Neg, Sequent, Var, expand, is_nonduplicating,
    render_sequent, substitute,
)

__all__ = [
    "MODES", "RULES", "PREMISE_COUNTS", "Derivation", "RuleViolation", "CheckFailure",
    "check_inference", "check_derivation", "hyp",
]

MODES = ("NOM", "NOM_E", "NOM_Q", "NOM_q")

PREMISE_COUNTS = {
    "assume": 0, "cut": 2, "paste": 2, "cexch": 3,
    "and_i": 2, "and_e1": 1, "and_e2": 1,
    "imp_i": 1, "imp_e": 1, "lem": 2, "explode": 1,
    "wk": 1, "exch": 1, "all_i": 1, "all_e": 1, "qexch": 1,
}

RULES = tuple(PREMISE_COUNTS)

# which additional rules each mode switches on; every other rule is universal
_MODE_RULES = {
    "NOM": frozenset(),
    "NOM_E": frozenset({"exch"}),
    "NOM_Q": frozenset({"all_i", "all_e"}),
    "NOM_q": frozenset({"all_i", "all_e", "qexch"}),
}
_UNIVERSAL = frozenset(RULES).difference(*_MODE_RULES.values())
_ND, _CONCLUSION, _set = attrgetter("nonduplicating"), attrgetter("conclusion"), object.__setattr__


@dataclass(frozen=True, eq=False, init=False)  # identity eq and hash: generated ones unfold the DAG
class Derivation:
    """A rule-application tree; the kernel's only certificate, whose premises
    are a tuple, so that a checked tree cannot change.  ``instantiation``
    carries the explicit datum of the quantifier rules: the bound variable for
    all_i, the substituted term for all_e.  The pseudo-rule "hyp" marks a leaf
    standing on a declared hypothesis of an open derivation."""

    conclusion: Sequent
    rule: str
    premises: tuple = ()
    instantiation: object = None
    _accepted = False  # not a field: the re-check record, set when accepted as a root

    def __init__(self, conclusion, rule, premises=(), instantiation=None):  # per field: no dict
        _set(self, "conclusion", conclusion)
        _set(self, "rule", rule)
        _set(self, "premises", tuple(premises))
        _set(self, "instantiation", instantiation)

    def __repr__(self):
        # one line: the generated repr would unfold the shared subtrees
        return (f"Derivation({self.rule}: {render_sequent(self.conclusion)}, "
                f"{len(self.premises)} premises)")


def hyp(s: Sequent) -> Derivation:
    return Derivation(s, "hyp")


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    message: str

    def __str__(self):
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class CheckFailure:
    """A RuleViolation located at a premise path inside a derivation."""

    path: tuple
    violation: RuleViolation
    conclusion: Sequent

    def __str__(self):
        where = ".".join(str(i) for i in self.path) if self.path else "root"
        return f"at {where} [{render_sequent(self.conclusion)}]: {self.violation}"


def check_inference(rule, premises, conclusion, mode, instantiation=None):
    """None when (premises / conclusion) instantiates the rule in the
    given mode, otherwise a RuleViolation naming what failed."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    bad = lambda msg: RuleViolation(rule, msg)
    if rule not in PREMISE_COUNTS:
        return bad("unknown rule")
    if rule not in _UNIVERSAL and rule not in _MODE_RULES[mode]:
        return bad(f"not available in mode {mode}")
    if len(premises) != PREMISE_COUNTS[rule]:
        return bad(f"needs {PREMISE_COUNTS[rule]} premises, got {len(premises)}")
    if mode == "NOM_q":
        for s in (*premises, conclusion):
            for f in (*s.antecedent, s.succedent):
                if not is_nonduplicating(f):
                    return bad(f"formula duplicates a variable inside an atom (NOM_q): {f!r}")

    ante, succ = conclusion.antecedent, conclusion.succedent

    if rule == "assume":
        if not ante:
            return bad("conclusion needs at least one antecedent")
        if ante[-1] != succ:
            return bad("last antecedent must equal the succedent")
        return None

    if rule == "cut":
        p1, p2 = premises
        if p1.antecedent != ante:
            return bad("first premise must share the conclusion's antecedent")
        if p2.antecedent != (*ante, p1.succedent):
            return bad("second premise must extend the antecedent by the cut formula")
        if p2.succedent != succ:
            return bad("second premise must conclude the succedent")
        return None

    if rule == "paste":
        p1, p2 = premises
        if not ante:
            return bad("conclusion needs at least one antecedent")
        gamma = ante[:-1]
        if not (p1.antecedent == gamma and p2.antecedent == gamma):
            return bad("premises must share the conclusion's antecedent minus its last formula")
        if ante[-1] != p1.succedent:
            return bad("pasted formula must be the first premise's succedent")
        if succ != p2.succedent:
            return bad("succedent must come from the second premise")
        return None

    if rule == "cexch":
        p1, p2, p3 = premises
        if len(ante) < 2:
            return bad("conclusion needs at least two antecedents")
        gamma, psi, phi = ante[:-2], ante[-2], ante[-1]
        straight = (*gamma, phi, psi)
        if not (p1.antecedent == straight and p1.succedent == phi):
            return bad("first premise must be Γ, φ, ψ ⊢ φ")
        if not (p2.antecedent == straight and p2.succedent == succ):
            return bad("second premise must be Γ, φ, ψ ⊢ χ")
        if not (p3.antecedent == ante and p3.succedent == psi):
            return bad("third premise must be Γ, ψ, φ ⊢ ψ")
        return None

    if rule == "and_i":
        p1, p2 = premises
        target = expand(succ)
        if not isinstance(target, And):
            return bad("succedent must be a conjunction")
        if not (p1.antecedent == ante and p2.antecedent == ante):
            return bad("premises must share the conclusion's antecedent")
        if not (p1.succedent == target.left and p2.succedent == target.right):
            return bad("premises must conclude the two conjuncts in order")
        return None

    if rule in ("and_e1", "and_e2"):
        (p1,) = premises
        source = expand(p1.succedent)
        if not isinstance(source, And):
            return bad("premise succedent must be a conjunction")
        if p1.antecedent != ante:
            return bad("premise must share the conclusion's antecedent")
        part = source.left if rule == "and_e1" else source.right
        if succ != part:
            return bad("succedent must be the conjunct the rule projects")
        return None

    if rule == "imp_i":
        (p1,) = premises
        target = expand(succ)
        if not isinstance(target, Imp):
            return bad("succedent must be an implication")
        if not (p1.antecedent and p1.antecedent[:-1] == ante):
            return bad("premise antecedent must be the conclusion's plus one formula")
        if p1.antecedent[-1] != target.left:
            return bad("discharged formula must be the implication's antecedent")
        if p1.succedent != target.right:
            return bad("premise succedent must be the implication's consequent")
        return None

    if rule == "imp_e":
        (p1,) = premises
        source = expand(p1.succedent)
        if not isinstance(source, Imp):
            return bad("premise succedent must be an implication")
        if not ante:
            return bad("conclusion needs at least one antecedent")
        if p1.antecedent != ante[:-1]:
            return bad("conclusion antecedent must extend the premise's by one formula")
        if ante[-1] != source.left:
            return bad("added antecedent must be the implication's antecedent")
        if succ != source.right:
            return bad("succedent must be the implication's consequent")
        return None

    if rule == "lem":
        p1, p2 = premises
        if not (p1.antecedent and p2.antecedent):
            return bad("premises must extend the antecedent by φ and ¬φ")
        if not (p1.antecedent[:-1] == ante and p2.antecedent[:-1] == ante):
            return bad("premises must extend the conclusion's antecedent")
        if p2.antecedent[-1] != Neg(p1.antecedent[-1]):
            return bad("second premise must assume the negation of the first's assumption")
        if not (p1.succedent == succ and p2.succedent == succ):
            return bad("premises must conclude the succedent")
        return None

    if rule == "explode":
        (p1,) = premises
        if not ante:
            return bad("conclusion needs at least one antecedent")
        if p1.antecedent != ante[:-1]:
            return bad("premise antecedent must be the conclusion's minus its last formula")
        if p1.succedent != Neg(ante[-1]):
            return bad("premise must conclude the negation of the added antecedent")
        return None

    if rule == "wk":
        # leading weakening: fold(Δ, Γ) <= fold(Γ); trailing weakening is unsound
        (p1,) = premises
        k = len(ante) - len(p1.antecedent)
        if k < 0 or p1.antecedent != ante[k:]:
            return bad("premise antecedent must be a suffix of the conclusion's")
        if p1.succedent != succ:
            return bad("succedent must be unchanged")
        return None

    if rule == "exch":
        (p1,) = premises
        if p1.succedent != succ:
            return bad("succedent must be unchanged")
        src = p1.antecedent
        if len(src) != len(ante) or len(src) < 2:
            return bad("antecedents must be equal-length sequences of length >= 2")
        for i in range(len(src) - 1):
            swapped = (*src[:i], src[i + 1], src[i], *src[i + 2:])
            if swapped == ante:
                return None
        return bad("conclusion is not an adjacent transposition of the premise")

    if rule == "all_i":
        (p1,) = premises
        if not isinstance(succ, Forall):  # a Forall iff its expansion is
            return bad("succedent must be universally quantified")
        if not isinstance(instantiation, Var):
            return bad("needs the quantified variable recorded (x=...)")
        if p1.antecedent != ante:
            return bad("premise must share the conclusion's antecedent")
        if Forall(instantiation, p1.succedent) != succ:
            return bad("succedent must quantify the premise's succedent over x")
        for f in ante:
            if instantiation.name in f.free:
                return bad(f"{instantiation.name} occurs free in the antecedent")
        return None

    if rule == "all_e":
        (p1,) = premises
        source = p1.succedent  # a Forall iff its expansion is; substituted as written
        if not isinstance(source, Forall):
            return bad("premise succedent must be universally quantified")
        if not isinstance(instantiation, (Var, Const, App)):
            return bad("needs the substituted term recorded (t=...)")
        if instantiation.sort != source.var.sort:
            return bad(f"term of sort {instantiation.sort} for a variable of sort {source.var.sort}")
        if p1.antecedent != ante:
            return bad("premise must share the conclusion's antecedent")
        if mode == "NOM_q" and instantiation.free & source.body.free:
            return bad("substituted term shares a free variable with the matrix (NOM_q)")
        if succ != substitute(source.body, source.var, instantiation):
            return bad("succedent must be the matrix with the term substituted")
        return None

    if rule == "qexch":
        (p1,) = premises
        if len(ante) < 2 or len(p1.antecedent) != len(ante):
            return bad("needs equal antecedents of length >= 2")
        if p1.succedent != succ:
            return bad("succedent must be unchanged")
        if p1.antecedent[:-2] != ante[:-2]:
            return bad("only the last two antecedents may move")
        if p1.antecedent[-2:] != (ante[-1], ante[-2]):
            return bad("conclusion must swap the premise's last two antecedents")
        if ante[-1].free & ante[-2].free:
            return bad("swapped formulas share a free variable")
        return None

    raise AssertionError(rule)


def check_derivation(d: Derivation, mode, hypotheses=()):
    """Depth-first re-check of a whole tree; None, or the first CheckFailure
    in preorder, judging each distinct node once.  A "hyp" leaf must follow
    from a declared hypothesis by "wk" as NOM judges it.  The accepting walk
    records (``_accepted``) the hyp leaves and mode rules and whether all
    formulas are nonduplicating; a re-check judges only those unless in NOM_q
    one duplicates.  Sound: trees are immutable, a universal rule reads the
    mode only for NOM_q's nonduplication, premises are nodes."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rec, kept, forms = d._accepted, [], []  # rec: (kept nodes in preorder, nonduplicating)
    for n in rec[0] if rec and (rec[1] or mode != "NOM_q") else _preorder(d):
        c, rule = n.conclusion, n.rule
        if not rec:
            forms += c.antecedent
            forms.append(c.succedent)
            if rule not in _UNIVERSAL:
                kept.append(n)
        if rule != "hyp":
            v = check_inference(rule, [*map(_CONCLUSION, n.premises)], c, mode, n.instantiation)
        else:
            v = (RuleViolation("hyp", "hypotheses take no premises") if n.premises
                 else None if any(check_inference("wk", (h,), c, "NOM") is None
                                  for h in hypotheses)
                 else RuleViolation("hyp", "sequent is not a declared hypothesis"))
        if v is not None:
            return CheckFailure(_path(d, n), v, c)
    object.__setattr__(d, "_accepted", rec or (kept, all(map(_ND, forms))))
    return None


def _preorder(d: Derivation):
    """Each distinct node once, where the unshared tree's preorder first meets it."""
    seen, stack = set(), [d]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            yield n
            stack.extend(n.premises[::-1])


def _path(d: Derivation, target: Derivation) -> tuple:
    # premise indices to target's first occurrence: via the last parent met, at its first index
    paths = {id(d): ()}
    for n in _preorder(d):
        if n is target:
            return paths[id(n)]
        paths.update((id(p), paths[id(n)] + (n.premises.index(p),)) for p in n.premises)
