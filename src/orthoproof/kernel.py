"""The trusted proof-checking core.

Everything that decides whether an inference is legal lives in
``check_inference``; ``check_derivation`` just folds it over a tree.
Tactics and scripts elsewhere in the package only ever *construct*
derivations — acceptance always comes back through this module.

Schema matching is positional: premise order is part of each rule.
Formulas are compared by alpha-equality after expanding the derived
connectives, so a conclusion written with \\/ or >< matches the rule
schemas of its expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

from .syntax import (
    And, Forall, Imp, Neg, Sequent, Var, context_eq, expand, formula_eq,
    is_nonduplicating, render_sequent, substitute, term_free_vars,
)

__all__ = [
    "MODES", "RULES", "PREMISE_COUNTS", "Derivation",
    "RuleViolation", "CheckFailure",
    "check_inference", "check_derivation", "hyp", "node",
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


@dataclass(frozen=True, eq=False)  # identity eq and hash: generated ones unfold the DAG
class Derivation:
    """A rule-application tree; the kernel's only certificate.

    ``instantiation`` carries the explicit datum of the quantifier
    rules: the bound variable for all_i, the substituted term for
    all_e.  The pseudo-rule "hyp" marks a leaf standing on a declared
    hypothesis of an open derivation.
    """

    conclusion: Sequent
    rule: str
    premises: tuple = ()
    instantiation: object = None
    _accepted = False  # not a field: check_derivation marks a root it accepted

    def __post_init__(self):  # a tuple, so that a checked tree cannot change
        object.__setattr__(self, "premises", tuple(self.premises))

    def __repr__(self):
        # one line: the generated repr would unfold the shared subtrees
        return (f"Derivation({self.rule}: {render_sequent(self.conclusion)}, "
                f"{len(self.premises)} premises)")


def hyp(s: Sequent) -> Derivation:
    return Derivation(s, "hyp")


def node(rule: str, conclusion: Sequent, *premises, instantiation=None) -> Derivation:
    return Derivation(conclusion, rule, premises, instantiation)


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
        if not formula_eq(ante[-1], succ):
            return bad("last antecedent must equal the succedent")
        return None

    if rule == "cut":
        p1, p2 = premises
        if not context_eq(p1.antecedent, ante):
            return bad("first premise must share the conclusion's antecedent")
        if not context_eq(p2.antecedent, (*ante, p1.succedent)):
            return bad("second premise must extend the antecedent by the cut formula")
        if not formula_eq(p2.succedent, succ):
            return bad("second premise must conclude the succedent")
        return None

    if rule == "paste":
        p1, p2 = premises
        if not ante:
            return bad("conclusion needs at least one antecedent")
        gamma = ante[:-1]
        if not (context_eq(p1.antecedent, gamma) and context_eq(p2.antecedent, gamma)):
            return bad("premises must share the conclusion's antecedent minus its last formula")
        if not formula_eq(ante[-1], p1.succedent):
            return bad("pasted formula must be the first premise's succedent")
        if not formula_eq(succ, p2.succedent):
            return bad("succedent must come from the second premise")
        return None

    if rule == "cexch":
        p1, p2, p3 = premises
        if len(ante) < 2:
            return bad("conclusion needs at least two antecedents")
        gamma, psi, phi = ante[:-2], ante[-2], ante[-1]
        straight = (*gamma, phi, psi)
        if not (context_eq(p1.antecedent, straight) and formula_eq(p1.succedent, phi)):
            return bad("first premise must be Γ, φ, ψ ⊢ φ")
        if not (context_eq(p2.antecedent, straight) and formula_eq(p2.succedent, succ)):
            return bad("second premise must be Γ, φ, ψ ⊢ χ")
        if not (context_eq(p3.antecedent, ante) and formula_eq(p3.succedent, psi)):
            return bad("third premise must be Γ, ψ, φ ⊢ ψ")
        return None

    if rule == "and_i":
        p1, p2 = premises
        target = expand(succ)
        if not isinstance(target, And):
            return bad("succedent must be a conjunction")
        if not (context_eq(p1.antecedent, ante) and context_eq(p2.antecedent, ante)):
            return bad("premises must share the conclusion's antecedent")
        if not (expand(p1.succedent) == target.left
                and expand(p2.succedent) == target.right):
            return bad("premises must conclude the two conjuncts in order")
        return None

    if rule in ("and_e1", "and_e2"):
        (p1,) = premises
        source = expand(p1.succedent)
        if not isinstance(source, And):
            return bad("premise succedent must be a conjunction")
        if not context_eq(p1.antecedent, ante):
            return bad("premise must share the conclusion's antecedent")
        part = source.left if rule == "and_e1" else source.right
        if expand(succ) != part:
            return bad("succedent must be the conjunct the rule projects")
        return None

    if rule == "imp_i":
        (p1,) = premises
        target = expand(succ)
        if not isinstance(target, Imp):
            return bad("succedent must be an implication")
        if not (p1.antecedent and context_eq(p1.antecedent[:-1], ante)):
            return bad("premise antecedent must be the conclusion's plus one formula")
        if expand(p1.antecedent[-1]) != target.left:
            return bad("discharged formula must be the implication's antecedent")
        if expand(p1.succedent) != target.right:
            return bad("premise succedent must be the implication's consequent")
        return None

    if rule == "imp_e":
        (p1,) = premises
        source = expand(p1.succedent)
        if not isinstance(source, Imp):
            return bad("premise succedent must be an implication")
        if not ante:
            return bad("conclusion needs at least one antecedent")
        if not context_eq(p1.antecedent, ante[:-1]):
            return bad("conclusion antecedent must extend the premise's by one formula")
        if expand(ante[-1]) != source.left:
            return bad("added antecedent must be the implication's antecedent")
        if expand(succ) != source.right:
            return bad("succedent must be the implication's consequent")
        return None

    if rule == "lem":
        p1, p2 = premises
        if not (p1.antecedent and p2.antecedent):
            return bad("premises must extend the antecedent by φ and ¬φ")
        if not (context_eq(p1.antecedent[:-1], ante) and context_eq(p2.antecedent[:-1], ante)):
            return bad("premises must extend the conclusion's antecedent")
        if expand(p2.antecedent[-1]) != Neg(expand(p1.antecedent[-1])):
            return bad("second premise must assume the negation of the first's assumption")
        if not (formula_eq(p1.succedent, succ) and formula_eq(p2.succedent, succ)):
            return bad("premises must conclude the succedent")
        return None

    if rule == "explode":
        (p1,) = premises
        if not ante:
            return bad("conclusion needs at least one antecedent")
        if not context_eq(p1.antecedent, ante[:-1]):
            return bad("premise antecedent must be the conclusion's minus its last formula")
        if expand(p1.succedent) != Neg(expand(ante[-1])):
            return bad("premise must conclude the negation of the added antecedent")
        return None

    if rule == "wk":
        # leading weakening: fold(Δ, Γ) <= fold(Γ); trailing weakening is unsound
        (p1,) = premises
        k = len(ante) - len(p1.antecedent)
        if k < 0 or not context_eq(p1.antecedent, ante[k:]):
            return bad("premise antecedent must be a suffix of the conclusion's")
        if not formula_eq(p1.succedent, succ):
            return bad("succedent must be unchanged")
        return None

    if rule == "exch":
        (p1,) = premises
        if not formula_eq(p1.succedent, succ):
            return bad("succedent must be unchanged")
        src = p1.antecedent
        if len(src) != len(ante) or len(src) < 2:
            return bad("antecedents must be equal-length sequences of length >= 2")
        for i in range(len(src) - 1):
            swapped = (*src[:i], src[i + 1], src[i], *src[i + 2:])
            if context_eq(swapped, ante):
                return None
        return bad("conclusion is not an adjacent transposition of the premise")

    if rule == "all_i":
        (p1,) = premises
        target = expand(succ)
        if not isinstance(target, Forall):
            return bad("succedent must be universally quantified")
        if instantiation is None:
            return bad("needs the quantified variable recorded (x=...)")
        x = instantiation if isinstance(instantiation, Var) \
            else Var(str(instantiation), target.var.sort)
        if not context_eq(p1.antecedent, ante):
            return bad("premise must share the conclusion's antecedent")
        if Forall(x, expand(p1.succedent)) != target:
            return bad("succedent must quantify the premise's succedent over x")
        for f in ante:
            if x.name in f.free:
                return bad(f"{x.name} occurs free in the antecedent")
        return None

    if rule == "all_e":
        (p1,) = premises
        source = p1.succedent  # a Forall iff its expansion is; substituted as written
        if not isinstance(source, Forall):
            return bad("premise succedent must be universally quantified")
        if instantiation is None:
            return bad("needs the substituted term recorded (t=...)")
        if not context_eq(p1.antecedent, ante):
            return bad("premise must share the conclusion's antecedent")
        if mode == "NOM_q" and term_free_vars(instantiation) & source.body.free:
            return bad("substituted term shares a free variable with the matrix (NOM_q)")
        if not formula_eq(succ, substitute(source.body, source.var, instantiation)):
            return bad("succedent must be the matrix with the term substituted")
        return None

    if rule == "qexch":
        (p1,) = premises
        if len(ante) < 2 or len(p1.antecedent) != len(ante):
            return bad("needs equal antecedents of length >= 2")
        if not formula_eq(p1.succedent, succ):
            return bad("succedent must be unchanged")
        if not context_eq(p1.antecedent[:-2], ante[:-2]):
            return bad("only the last two antecedents may move")
        if not context_eq(p1.antecedent[-2:], (ante[-1], ante[-2])):
            return bad("conclusion must swap the premise's last two antecedents")
        if ante[-1].free & ante[-2].free:
            return bad("swapped formulas share a free variable")
        return None

    raise AssertionError(rule)


def check_derivation(d: Derivation, mode, hypotheses=()):
    """Depth-first re-check of a whole tree; None, or the first
    CheckFailure in preorder, judging each distinct node once.  A "hyp"
    leaf must follow from a declared hypothesis by "wk" as NOM judges it.
    An accepted root is recorded (``_accepted``); checked again in NOM,
    NOM_E or NOM_Q it judges only its hyp leaves, against these hypotheses,
    and its mode-dependent rules.  Sound: nodes, sequents and formulas are
    immutable; outside NOM_q a universal rule's check never reads the
    mode; and acceptance in NOM_q implies acceptance in the other modes.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    skip = _UNIVERSAL if d._accepted and mode != "NOM_q" else ()
    for n in (n for n in _preorder(d) if n.rule not in skip):
        if n.rule != "hyp":
            v = check_inference(n.rule, [p.conclusion for p in n.premises],
                                n.conclusion, mode, n.instantiation)
        else:
            v = (RuleViolation("hyp", "hypotheses take no premises") if n.premises
                 else None if any(check_inference("wk", (h,), n.conclusion, "NOM") is None
                                  for h in hypotheses)
                 else RuleViolation("hyp", "sequent is not a declared hypothesis"))
        if v is not None:
            return CheckFailure(_path(d, n), v, n.conclusion)
    object.__setattr__(d, "_accepted", True)
    return None


def _preorder(d: Derivation):
    """Each distinct node once, where the unshared tree's preorder first meets it."""
    seen, stack = set(), [d]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            yield n
            stack.extend(reversed(n.premises))


def _path(d: Derivation, target: Derivation) -> tuple:
    # premise indices to target's first occurrence: the walk reaches a node from
    # the last node met before it that has it as a premise, at its first index
    met, path = list(takewhile(lambda n: n is not target, _preorder(d))), []
    while target is not d:
        at = max(j for j, n in enumerate(met) if any(p is target for p in n.premises))
        path.append(next(i for i, p in enumerate(met[at].premises) if p is target))
        target, met = met[at], met[:at]
    return tuple(reversed(path))
