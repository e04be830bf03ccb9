import copy
import itertools
import random
import time
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from orthoproof import kernel
from orthoproof.kernel import (
    MODES, PREMISE_COUNTS, CheckFailure, Derivation, RuleViolation, check_derivation, check_inference,
    hyp,
)
from conftest import random_formula
from orthoproof.lattice import by_name
from orthoproof.semantics import Valid, sequent_letters, validate_sequent
from orthoproof.syntax import (
    App, Atom, Const, Forall, Letter, Sequent, Signature, Var, parse_formula, parse_sequent,
)
from orthoproof.tactics import catalog, derive

S = parse_sequent
F = parse_formula


def sig():
    s = Signature()
    s.declare_constant("c")
    return s


def ok(rule, premises, conclusion, mode="NOM", inst=None):
    v = check_inference(rule, [S(p) for p in premises], S(conclusion), mode, inst)
    assert v is None, v


def bad(rule, premises, conclusion, mode="NOM", inst=None):
    v = check_inference(rule, [S(p) for p in premises], S(conclusion), mode, inst)
    assert v is not None
    return v


class TestAssume:
    def test_ok(self):
        ok("assume", [], "p |- p")
        ok("assume", [], "g, h, p |- p")

    def test_empty_antecedent(self):
        bad("assume", [], "|- p")

    def test_wrong_position(self):
        # only the LAST antecedent may be assumed
        bad("assume", [], "p, q |- p")

    def test_modulo_expansion(self):
        ok("assume", [], "p >< q |- (p -> (q -> p)) /\\ (q -> (p -> q))")

    # built through the API, since the parser gives every symbol the one sort;
    # each pair differs in one field that only the syntax core's equality reads
    def test_sorts_and_arities_take_part_in_equality(self):
        c, d, xs, xt = Const("c"), Const("d"), Var("x", "s"), Var("x", "t")
        fc = lambda sort: Atom("R", (App("f", (c,), sort),))
        for a, b in [(Forall(xs, Letter("p")), Forall(xt, Letter("p"))),
                     (Atom("R", (c,)), Atom("R", (c, d))),
                     (Forall(xs, Atom("R", (xs,))), Forall(xs, Atom("R", (xt,)))),
                     (fc("s"), fc("t"))]:
            assert check_inference("assume", [], Sequent((a,), a), "NOM_q") is None
            assert check_inference("assume", [], Sequent((a,), b), "NOM_q") is not None

    def test_a_closed_body_keeps_its_bound_positions_at_any_depth(self):
        # a closed sub-formula's canonical node is cached on it at whatever
        # depth it is first met, here forall y. W(y) at depth 1 through h; with
        # binder levels in place of indices, deep(y) would then equal deep(z)
        x, y, z = Var("x"), Var("y"), Var("z")
        h = Forall(x, Forall(y, Atom("W", (y,))))
        assert h == Forall(z, Forall(x, Atom("W", (x,))))
        deep = lambda v: Forall(x, Forall(z, Forall(y, Atom("W", (v,)))))
        assert check_inference("assume", [], Sequent((deep(y),), deep(z)), "NOM_q") is not None
        assert check_inference("assume", [], Sequent((deep(y),), deep(x)), "NOM_q") is not None

    def test_an_open_body_is_not_cached_as_if_closed(self):
        # V(x) below forall x is a bound position; met alone, it is a free variable
        x, y = Var("x"), Var("y")
        fx, fy = Forall(x, Atom("V", (x,))), Forall(y, Atom("V", (y,)))
        assert fx == fy
        pair = Sequent((fx.body,), fy.body)
        assert check_inference("assume", [], pair, "NOM_q") is not None


class TestCutPaste:
    def test_cut(self):
        ok("cut", ["g |- p", "g, p |- q"], "g |- q")

    def test_cut_premise_order(self):
        bad("cut", ["g, p |- q", "g |- p"], "g |- q")

    def test_cut_context_mismatch(self):
        bad("cut", ["h |- p", "g, p |- q"], "g |- q")
        bad("cut", ["g |- p", "g, r |- q"], "g |- q")

    def test_paste(self):
        ok("paste", ["g |- p", "g |- q"], "g, p |- q")

    def test_paste_needs_matching_tail(self):
        bad("paste", ["g |- p", "g |- q"], "g, r |- q")
        bad("paste", ["g |- p", "g |- q"], "g |- q")

    # one inference per side condition, wrong in exactly that respect
    def test_cut_near_misses(self):
        assert "first premise" in bad("cut", ["h |- p", "g, p |- q"], "g |- q").message
        assert "cut formula" in bad("cut", ["g |- p", "g, r |- q"], "g |- q").message
        assert "conclude the succedent" in bad("cut", ["g |- p", "g, p |- r"],
                                               "g |- q").message

    def test_paste_near_misses(self):
        assert "at least one antecedent" in bad("paste", ["|- p", "|- q"], "|- q").message
        for prems in (["h |- p", "g |- q"], ["g |- p", "h |- q"]):
            assert "share the conclusion's antecedent" in bad("paste", prems,
                                                              "g, p |- q").message
        assert "pasted formula" in bad("paste", ["g |- p", "g |- q"], "g, r |- q").message
        assert "second premise" in bad("paste", ["g |- p", "g |- q"], "g, p |- r").message


class TestCexch:
    def test_ok(self):
        ok("cexch", ["g, p, q |- p", "g, p, q |- r", "g, q, p |- q"],
           "g, q, p |- r")

    def test_premises_distinguished_by_position(self):
        bad("cexch", ["g, p, q |- r", "g, p, q |- p", "g, q, p |- q"],
            "g, q, p |- r")

    def test_third_premise_guards_swapped_order(self):
        bad("cexch", ["g, p, q |- p", "g, p, q |- r", "g, p, q |- q"],
            "g, q, p |- r")

    def test_too_short(self):
        bad("cexch", ["p |- p", "p |- r", "p |- p"], "p |- r")

    def test_near_misses(self):
        good = ["g, p, q |- p", "g, p, q |- r", "g, q, p |- q"]
        assert "at least two" in bad("cexch", ["p |- p", "p |- r", "p |- p"],
                                     "p |- r").message
        for i, wrong, what in ((0, "h, p, q |- p", "first"), (0, "g, p, q |- q", "first"),
                               (1, "h, p, q |- r", "second"), (1, "g, p, q |- s", "second"),
                               (2, "h, q, p |- q", "third"), (2, "g, q, p |- p", "third")):
            prems = good[:i] + [wrong] + good[i + 1:]
            assert f"{what} premise" in bad("cexch", prems, "g, q, p |- r").message


class TestAndRules:
    def test_and_i(self):
        ok("and_i", ["g |- p", "g |- q"], "g |- p /\\ q")

    def test_and_i_order(self):
        bad("and_i", ["g |- q", "g |- p"], "g |- p /\\ q")

    def test_and_e(self):
        ok("and_e1", ["g |- p /\\ q"], "g |- p")
        ok("and_e2", ["g |- p /\\ q"], "g |- q")
        bad("and_e1", ["g |- p /\\ q"], "g |- q")
        bad("and_e2", ["g |- p \\/ q"], "g |- q")

    def test_compat_is_a_conjunction_after_expansion(self):
        ok("and_i", ["|- p -> (q -> p)", "|- q -> (p -> q)"], "|- p >< q")
        ok("and_e1", ["g |- p >< q"], "g |- p -> (q -> p)")


class TestImpRules:
    def test_imp_i(self):
        ok("imp_i", ["g, p |- q"], "g |- p -> q")

    def test_imp_i_discharges_last_only(self):
        bad("imp_i", ["p, g |- q"], "g |- p -> q")

    def test_imp_e(self):
        ok("imp_e", ["g |- p -> q"], "g, p |- q")
        bad("imp_e", ["g |- p -> q"], "p, g |- q")
        bad("imp_e", ["g |- p -> q"], "g, q |- p")

    def test_or_expansion_is_not_an_implication(self):
        bad("imp_e", ["g |- p \\/ q"], "g, p |- q")

    # each inference below is wrong in exactly one respect, so dropping the
    # one side condition that catches it lets it through
    def test_imp_i_near_misses(self):
        assert "plus one formula" in bad("imp_i", ["h, p |- q"], "g |- p -> q").message
        assert "discharged formula" in bad("imp_i", ["g, r |- q"], "g |- p -> q").message
        assert "premise succedent" in bad("imp_i", ["g, p |- r"], "g |- p -> q").message
        assert "plus one formula" in bad("imp_i", ["|- q"], "|- p -> q").message
        assert "an implication" in bad("imp_i", ["g, p |- q"], "g |- q").message

    def test_imp_e_near_misses(self):
        assert "extend the premise" in bad("imp_e", ["h |- p -> q"], "g, p |- q").message
        assert "added antecedent" in bad("imp_e", ["g |- p -> q"], "g, r |- q").message
        assert "succedent must be" in bad("imp_e", ["g |- p -> q"], "g, p |- r").message
        assert "at least one antecedent" in bad("imp_e", ["|- p -> q"], "|- q").message


class TestLemExplode:
    def test_lem(self):
        ok("lem", ["g, p |- q", "g, ~p |- q"], "g |- q")

    def test_lem_negation_direction(self):
        bad("lem", ["g, ~p |- q", "g, p |- q"], "g |- q")

    def test_lem_negation_is_syntactic(self):
        # taking the case split at ~p is fine: its negation is ~~p ...
        ok("lem", ["g, ~p |- q", "g, ~~p |- q"], "g |- q")
        # ... but ~~p does not collapse back to p
        bad("lem", ["g, ~~p |- q", "g, ~p |- q"], "g |- q")

    def test_explode(self):
        ok("explode", ["g |- ~p"], "g, p |- q")
        bad("explode", ["g |- ~p"], "g, ~p |- q")
        bad("explode", ["g |- p"], "g, ~p |- q")  # premise must be the negation


class TestExch:
    def test_any_adjacent_swap(self):
        ok("exch", ["p, q |- r"], "q, p |- r", mode="NOM_E")
        ok("exch", ["a, p, q, b |- r"], "a, q, p, b |- r", mode="NOM_E")

    def test_gated_outside_nom_e(self):
        for mode in ("NOM", "NOM_Q", "NOM_q"):
            v = bad("exch", ["p, q |- r"], "q, p |- r", mode=mode)
            assert "mode" in str(v)

    def test_non_adjacent_rejected(self):
        bad("exch", ["a, p, q, b |- r"], "q, a, p, b |- r", mode="NOM_E")
        bad("exch", ["a, b, c |- r"], "c, b, a |- r", mode="NOM_E")

    def test_succedent_fixed(self):
        bad("exch", ["p, q |- p"], "q, p |- q", mode="NOM_E")


class TestQuantifierRules:
    def test_all_i(self):
        ok("all_i", ["p |- R(x)"], "p |- forall x. R(x)", mode="NOM_Q",
           inst=Var("x"))

    def test_all_i_alpha(self):
        ok("all_i", ["p |- R(x)"], "p |- forall y. R(y)", mode="NOM_Q",
           inst=Var("x"))

    def test_all_i_eigenvariable(self):
        v = bad("all_i", ["R(x) |- R(x)"], "R(x) |- forall x. R(x)",
                mode="NOM_Q", inst=Var("x"))
        assert "free in the antecedent" in str(v)

    def test_all_i_requires_recorded_variable(self):
        bad("all_i", ["p |- R(x)"], "p |- forall x. R(x)", mode="NOM_Q")

    def test_all_e(self):
        sg = sig()
        v = check_inference("all_e", [S("p |- forall x. R(x)", sg)],
                            S("p |- R(c)", sg), "NOM_Q", Const("c"))
        assert v is None
        v = check_inference("all_e", [S("p |- forall x. R(x)", sg)],
                            S("p |- R(f(c))", sg), "NOM_Q",
                            App("f", (Const("c"),)))
        assert v is None

    def test_all_e_on_a_deep_compat_chain(self):
        # >< nested 14 deep: the matrix is substituted as written, so neither the
        # instance nor a near-miss (one occurrence left unsubstituted) walks the
        # expansion, which uses each operand of >< twice, as a tree
        def chain(t, last):
            text = last
            for _ in range(14):
                text = f"R({t}) >< ({text})"
            return text

        sg = sig()
        premise = S(f"|- forall x. ({chain('x', 'R(x)')})", sg)
        for last, accepted in (("R(c)", True), ("R(x)", False)):
            start = time.perf_counter()
            v = check_inference("all_e", [premise], S(f"|- {chain('c', last)}", sg),
                                "NOM_Q", Const("c"))
            assert (v is None) == accepted
            assert time.perf_counter() - start < 1

    def test_all_e_records_term(self):
        bad("all_e", ["p |- forall x. R(x)"], "p |- R(y)", mode="NOM_Q")

    def test_all_e_wrong_target(self):
        bad("all_e", ["p |- forall x. R(x)"], "p |- R(y)", mode="NOM_Q",
            inst=Var("z"))

    def test_mode_gating(self):
        bad("all_i", ["p |- R(x)"], "p |- forall x. R(x)", mode="NOM",
            inst=Var("x"))
        bad("all_e", ["p |- forall x. R(x)"], "p |- R(y)", mode="NOM_E",
            inst=Var("y"))

    def test_nom_q_disjointness_for_all_e(self):
        # t shares y with the matrix, duplication lands in different atoms
        v = bad("all_e", ["p |- forall x. R(x) /\\ T(y)"],
                "p |- R(f(y)) /\\ T(y)", mode="NOM_q",
                inst=App("f", (Var("y"),)))
        assert "share" in str(v)
        ok("all_e", ["p |- forall x. R(x) /\\ T(y)"],
           "p |- R(f(y)) /\\ T(y)", mode="NOM_Q",
           inst=App("f", (Var("y"),)))

    def test_nom_q_nonduplicating_everywhere(self):
        v = bad("assume", [], "S(x, x) |- S(x, x)", mode="NOM_q")
        assert "duplicates" in str(v)
        ok("assume", [], "S(x, y) |- S(x, y)", mode="NOM_q")


class TestQexch:
    def test_swaps_last_two_only(self):
        ok("qexch", ["g, R(x), T(y) |- p"], "g, T(y), R(x) |- p", mode="NOM_q")
        bad("qexch", ["R(x), T(y), p |- p"], "T(y), R(x), p |- p", mode="NOM_q")

    def test_variable_disjointness(self):
        v = bad("qexch", ["g, R(x), T(x) |- p"], "g, T(x), R(x) |- p",
                mode="NOM_q")
        assert "share" in str(v)

    def test_only_in_nom_q(self):
        for mode in ("NOM", "NOM_E", "NOM_Q"):
            bad("qexch", ["g, R(x), T(y) |- p"], "g, T(y), R(x) |- p", mode=mode)


class TestArityAndModes:
    def test_premise_counts(self):
        for rule, count in PREMISE_COUNTS.items():
            premises = [S("p |- p")] * (count + 1)
            mode = {"exch": "NOM_E", "all_i": "NOM_Q", "all_e": "NOM_Q",
                    "qexch": "NOM_q"}.get(rule, "NOM")
            v = check_inference(rule, premises, S("p |- p"), mode)
            assert v is not None

    def test_unknown_rule(self):
        v = check_inference("modus_ponens", [], S("p |- p"), "NOM")
        assert "unknown" in str(v)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_inference("assume", [], S("p |- p"), "CLASSICAL")


# One inference per side condition of and_i, and_e*, lem, explode, wk, exch
# and the quantifier rules, wrong in exactly that respect: (rule, premises,
# conclusion, mode, instantiation, the violation's message).  Where the
# other conditions cannot pass it, the message tells the guards apart.
NEAR_MISSES = [
    pytest.param("and_i", ["g |- p", "g |- q"], "g |- p -> q", "NOM", None,
                 "succedent must be a conjunction", id="and_i-conjunction"),
    pytest.param("and_i", ["h |- p", "g |- q"], "g |- p /\\ q", "NOM", None,
                 "premises must share the conclusion's antecedent", id="and_i-context-1"),
    pytest.param("and_i", ["g |- p", "h |- q"], "g |- p /\\ q", "NOM", None,
                 "premises must share the conclusion's antecedent", id="and_i-context-2"),
    pytest.param("and_e1", ["h |- p /\\ q"], "g |- p", "NOM", None,
                 "premise must share the conclusion's antecedent", id="and_e1-context"),
    pytest.param("and_e2", ["h |- p /\\ q"], "g |- q", "NOM", None,
                 "premise must share the conclusion's antecedent", id="and_e2-context"),
    pytest.param("lem", ["|- q", "~p |- q"], "|- q", "NOM", None,
                 "premises must extend the antecedent by φ and ¬φ", id="lem-first-empty"),
    pytest.param("lem", ["p |- q", "|- q"], "|- q", "NOM", None,
                 "premises must extend the antecedent by φ and ¬φ", id="lem-second-empty"),
    pytest.param("lem", ["h, p |- q", "g, ~p |- q"], "g |- q", "NOM", None,
                 "premises must extend the conclusion's antecedent", id="lem-context-1"),
    pytest.param("lem", ["g, p |- q", "h, ~p |- q"], "g |- q", "NOM", None,
                 "premises must extend the conclusion's antecedent", id="lem-context-2"),
    pytest.param("lem", ["g, p |- r", "g, ~p |- q"], "g |- q", "NOM", None,
                 "premises must conclude the succedent", id="lem-succedent-1"),
    pytest.param("lem", ["g, p |- q", "g, ~p |- r"], "g |- q", "NOM", None,
                 "premises must conclude the succedent", id="lem-succedent-2"),
    pytest.param("explode", ["|- ~p"], "|- q", "NOM", None,
                 "conclusion needs at least one antecedent", id="explode-empty"),
    pytest.param("explode", ["h |- ~p"], "g, p |- q", "NOM", None,
                 "premise antecedent must be the conclusion's minus its last formula",
                 id="explode-context"),
    # the paper's own non-theorem: weakening is leading only
    pytest.param("wk", ["q |- q"], "q, p |- q", "NOM", None,
                 "premise antecedent must be a suffix of the conclusion's", id="wk-trailing"),
    pytest.param("wk", ["p, q |- q"], "q |- q", "NOM", None,
                 "premise antecedent must be a suffix of the conclusion's", id="wk-shorter"),
    pytest.param("wk", ["q |- q"], "p, q |- p", "NOM", None,
                 "succedent must be unchanged", id="wk-succedent"),
    pytest.param("exch", ["p, q |- r"], "q, p, s |- r", "NOM_E", None,
                 "antecedents must be equal-length sequences of length >= 2",
                 id="exch-length"),
    pytest.param("exch", ["p |- r"], "p |- r", "NOM_E", None,
                 "antecedents must be equal-length sequences of length >= 2",
                 id="exch-too-short"),
    pytest.param("all_i", ["p |- R(x)"], "p |- R(x)", "NOM_Q", Var("x"),
                 "succedent must be universally quantified", id="all_i-forall"),
    # no variable recorded, though the formulas name one None
    pytest.param("all_i", ["p |- R(None)"], "p |- forall None. R(None)", "NOM_Q", None,
                 "needs the quantified variable recorded (x=...)", id="all_i-recorded"),
    pytest.param("all_i", ["q |- R(x)"], "p |- forall x. R(x)", "NOM_Q", Var("x"),
                 "premise must share the conclusion's antecedent", id="all_i-context"),
    pytest.param("all_i", ["p |- T(x)"], "p |- forall x. R(x)", "NOM_Q", Var("x"),
                 "succedent must quantify the premise's succedent over x", id="all_i-matrix"),
    pytest.param("all_e", ["p |- R(y)"], "p |- R(y)", "NOM_Q", Var("y"),
                 "premise succedent must be universally quantified", id="all_e-forall"),
    pytest.param("all_e", ["q |- forall x. R(x)"], "p |- R(y)", "NOM_Q", Var("y"),
                 "premise must share the conclusion's antecedent", id="all_e-context"),
    # a name or a number is no variable and no term: rejected, not coerced or raised on
    pytest.param("all_i", ["p |- R(x)"], "p |- forall x. R(x)", "NOM_Q", "x",
                 "needs the quantified variable recorded (x=...)", id="all_i-string"),
    pytest.param("all_i", ["p |- R(x)"], "p |- forall x. R(x)", "NOM_q", 1,
                 "needs the quantified variable recorded (x=...)", id="all_i-int"),
    pytest.param("all_e", ["|- forall x. R(x)"], "|- R(c)", "NOM_Q", "c",
                 "needs the substituted term recorded (t=...)", id="all_e-string"),
    pytest.param("all_e", ["|- forall x. R(x)"], "|- R(c)", "NOM_q", "c",
                 "needs the substituted term recorded (t=...)", id="all_e-string-nom_q"),
    pytest.param("all_e", ["|- forall x. R(x)"], "|- R(c)", "NOM_Q", 3,
                 "needs the substituted term recorded (t=...)", id="all_e-int"),
    # a term of another sort than the variable: rejected, not raised on by substitution
    pytest.param("all_e", ["|- forall x. R(x)"], "|- R(c)", "NOM_Q", Const("c", "other"),
                 "term of sort other for a variable of sort _", id="all_e-sort"),
    pytest.param("all_e", ["|- forall x. R(x)"], "|- R(c)", "NOM_q", Const("c", "other"),
                 "term of sort other for a variable of sort _", id="all_e-sort-nom_q"),
    pytest.param("qexch", ["R(x) |- p"], "R(x) |- p", "NOM_q", None,
                 "needs equal antecedents of length >= 2", id="qexch-too-short"),
    pytest.param("qexch", ["g, R(x), T(y) |- p"], "T(y), R(x) |- p", "NOM_q", None,
                 "needs equal antecedents of length >= 2", id="qexch-length"),
    pytest.param("qexch", ["g, R(x), T(y) |- p"], "g, T(y), R(x) |- q", "NOM_q", None,
                 "succedent must be unchanged", id="qexch-succedent"),
    pytest.param("qexch", ["h, R(x), T(y) |- p"], "g, T(y), R(x) |- p", "NOM_q", None,
                 "only the last two antecedents may move", id="qexch-prefix"),
    pytest.param("qexch", ["g, R(x), T(y) |- p"], "g, R(x), T(y) |- p", "NOM_q", None,
                 "conclusion must swap the premise's last two antecedents", id="qexch-swap"),
]


@pytest.mark.parametrize("rule, premises, conclusion, mode, inst, message", NEAR_MISSES)
def test_near_miss_is_rejected_by_its_side_condition(rule, premises, conclusion, mode,
                                                     inst, message):
    v = check_inference(rule, [S(p) for p in premises], S(conclusion), mode, inst)
    assert isinstance(v, RuleViolation)
    assert v.message == message


def l231_tree(gamma="g"):
    # Γ, ~p, p |- q via explosion over an assumption
    return Derivation(S(f"{gamma}, ~p, p |- q"), "explode",
                      (Derivation(S(f"{gamma}, ~p |- ~p"), "assume"),))


class TestCheckDerivation:
    def test_l231(self):
        assert check_derivation(l231_tree(), "NOM") is None

    def test_order_matters(self):
        d = Derivation(S("g, p, ~p |- q"), "explode", (Derivation(S("g, p |- p"), "assume"),))
        fail = check_derivation(d, "NOM")
        assert isinstance(fail, CheckFailure)
        assert fail.path == ()
        assert fail.violation.rule == "explode"

    def test_open_derivation_with_hypotheses(self):
        hyps = (S("g |- p"), S("g |- p -> q"))
        d = Derivation(S("g |- q"), "cut",
                       (hyp(S("g |- p")),
                        Derivation(S("g, p |- q"), "imp_e", (hyp(S("g |- p -> q")),))))
        assert check_derivation(d, "NOM", hyps) is None
        fail = check_derivation(d, "NOM")
        assert fail is not None and fail.violation.rule == "hyp"

    def test_failure_path_depth_first(self):
        hyps = (S("g |- p"),)
        d = Derivation(S("g |- q"), "cut",
                       (hyp(S("g |- p")),
                        Derivation(S("g, p |- q"), "imp_e", (hyp(S("g |- p -> q")),))))
        fail = check_derivation(d, "NOM", hyps)
        assert fail.path == (1, 0)

    def test_shared_bad_node_is_reported_at_its_first_preorder_position(self):
        # one bad node object below two valid branches, at paths (0, 1, 1)
        # and (1, 0, 0); a valid leaf is shared as well
        good = Derivation(S("g, q |- q"), "assume")
        bad_node = Derivation(S("g, q |- p"), "assume")
        left = Derivation(S("g, q |- q /\\ (q /\\ p)"), "and_i",
                          (good, Derivation(S("g, q |- q /\\ p"), "and_i", (good, bad_node))))
        right = Derivation(S("g, q |- (p /\\ q) /\\ q"), "and_i",
                           (Derivation(S("g, q |- p /\\ q"), "and_i", (bad_node, good)), good))
        d = Derivation(S("g, q |- (q /\\ (q /\\ p)) /\\ ((p /\\ q) /\\ q)"), "and_i",
                       (left, right))
        fail = check_derivation(d, "NOM")
        assert fail.path == (0, 1, 1)
        assert fail.violation.rule == "assume"
        assert fail.conclusion == bad_node.conclusion
        assert str(fail).startswith("at 0.1.1 [g, q |- p]: assume:")

    def test_one_bad_object_in_both_premise_slots_is_reported_at_the_first(self):
        bad_node = Derivation(S("g, q |- p"), "assume")
        d = Derivation(S("g, q |- q /\\ (p /\\ p)"), "and_i",
                       (Derivation(S("g, q |- q"), "assume"),
                        Derivation(S("g, q |- p /\\ p"), "and_i", (bad_node, bad_node))))
        assert check_derivation(d, "NOM").path == (1, 0)

    def test_unmatched_hyp_leaf_under_a_valid_node(self):
        hyps = (S("g |- p"),)
        d = Derivation(S("g |- p /\\ q"), "and_i", (hyp(S("g |- p")), hyp(S("g |- q"))))
        fail = check_derivation(d, "NOM", hyps)
        assert fail.path == (1,)
        assert fail.violation.rule == "hyp"
        assert fail.violation.message == "sequent is not a declared hypothesis"
        assert fail.conclusion == S("g |- q")
        assert check_derivation(d, "NOM", hyps + (S("g |- q"),)) is None

    def test_monotone_modes(self):
        # a NOM derivation is accepted by every extension
        d = l231_tree()
        for mode in MODES:
            assert check_derivation(d, mode) is None

    def test_hyp_leaf_takes_no_premises(self):
        d = Derivation(S("g |- p"), "hyp", (hyp(S("g |- p")),))
        fail = check_derivation(d, "NOM", (S("g |- p"),))
        assert fail is not None

    def test_hyp_leaf_may_carry_extra_leading_context(self):
        # a declared hypothesis under leading weakening
        assert check_derivation(hyp(S("a, b, g |- p")), "NOM",
                                (S("g |- p"),)) is None

    def test_hyp_weakening_only_prepends(self):
        hyps = (S("g |- p"),)
        assert check_derivation(hyp(S("g, a |- p")), "NOM", hyps) is not None
        assert check_derivation(hyp(S("a |- p")), "NOM", hyps) is not None
        assert check_derivation(hyp(S("a, g |- q")), "NOM", hyps) is not None

    def test_hyp_leaf_matches_modulo_expansion(self):
        hyps = (S("p \\/ q |- p >< q"),)
        assert check_derivation(hyp(S("g, ~(~p /\\ ~q) |- p >< q")), "NOM", hyps) is None

    def test_a_declared_hypothesis_is_not_held_to_the_nom_q_formula_condition(self):
        # a hyp leaf is judged as rule "wk" in NOM, in every mode
        h = S("S(x, x) |- S(x, x)")
        assert check_derivation(hyp(S("p, S(x, x) |- S(x, x)")), "NOM_q", (h,)) is None


class TestDerivationRecord:
    """A derivation is a frozen record with identity equality; its premises
    are a tuple whatever sequence built it."""

    @staticmethod
    def tree():
        return Derivation(S("g, q |- q /\\ q"), "and_i",
                          [Derivation(S("g, q |- q"), "assume")] * 2)

    @staticmethod
    def same_fields(a, b):
        return all(getattr(a, f.name) is getattr(b, f.name) for f in fields(Derivation))

    def test_a_list_of_premises_is_stored_as_a_tuple(self):
        d = self.tree()
        assert type(d.premises) is tuple and len(d.premises) == 2
        assert type(Derivation(S("p |- p"), "assume").premises) is tuple
        assert d.instantiation is None and hyp(S("p |- p")).premises == ()

    @pytest.mark.parametrize("name", ["conclusion", "rule", "premises", "instantiation"])
    def test_fields_cannot_be_assigned(self, name):
        d = self.tree()
        with pytest.raises(FrozenInstanceError):
            setattr(d, name, None)

    def test_copy_and_replace_give_an_equal_record(self):
        d = self.tree()
        for c in (copy.copy(d), replace(d)):
            assert c is not d and self.same_fields(c, d)
            assert check_derivation(c, "NOM") is None
        e = replace(d, premises=list(d.premises[::-1]))
        assert type(e.premises) is tuple and e.conclusion is d.conclusion
        assert replace(d, rule="cut").rule == "cut"

    def test_only_an_accepting_root_check_records_a_derivation(self):
        d = self.tree()
        assert not d._accepted and "_accepted" not in vars(d)
        assert check_derivation(d.premises[0], "NOM") is None
        assert not d._accepted  # checking a premise records the premise only
        assert check_derivation(d, "NOM") is None and d._accepted
        assert not replace(d)._accepted  # a rebuilt record starts unrecorded
        bad = Derivation(S("g, q |- p /\\ q"), "and_i", list(d.premises))
        assert check_derivation(bad, "NOM") is not None and not bad._accepted


class TestAcceptanceRecord:
    """A root accepted once is re-checked only where the mode matters.  Each
    case checks the recorded root and a fresh one built by ``replace``."""

    @staticmethod
    def same(d, mode, hyps=()):
        assert d._accepted
        got = check_derivation(d, mode, hyps)
        assert got == check_derivation(replace(d), mode, hyps)
        return got

    @staticmethod
    def exch_tree():
        return Derivation(S("q, p |- q"), "exch", (Derivation(S("p, q |- q"), "assume"),))

    def test_exch_accepted_in_nom_e_is_rejected_in_nom(self):
        d = self.exch_tree()
        assert check_derivation(d, "NOM_E") is None
        fail = self.same(d, "NOM")
        assert fail.path == () and "not available in mode NOM" in str(fail)

    def test_all_e_sharing_a_variable_is_rejected_in_nom_q(self):
        h = S("p |- forall x. R(x) /\\ T(y)")
        d = Derivation(S("g, p |- R(f(y)) /\\ T(y)"), "wk",
                       (Derivation(S("p |- R(f(y)) /\\ T(y)"), "all_e", (hyp(h),),
                                   App("f", (Var("y"),))),))
        assert check_derivation(d, "NOM_Q", (h,)) is None
        fail = self.same(d, "NOM_q", (h,))
        assert fail.path == (0,) and "shares a free variable" in str(fail)

    def test_duplicating_atom_accepted_in_NOM_Q_is_rejected_in_NOM_q(self):
        d = Derivation(S("p, S(x, x) |- S(x, x)"), "wk",
                       (Derivation(S("S(x, x) |- S(x, x)"), "assume"),))
        assert check_derivation(d, "NOM_Q") is None
        fail = self.same(d, "NOM_q")
        assert fail.path == () and "duplicates" in str(fail)

    def test_hyp_leaves_are_judged_against_the_hypotheses_of_each_call(self):
        hyps = (S("g |- p"), S("g |- q"))
        d = Derivation(S("g |- p /\\ q"), "and_i", (hyp(S("g |- p")), hyp(S("g |- q"))))
        assert check_derivation(d, "NOM", hyps) is None
        fail = self.same(d, "NOM_E", hyps[:1])
        assert fail.path == (1,)
        assert fail.violation.message == "sequent is not a declared hypothesis"

    def test_unknown_mode_raises_after_acceptance(self):
        d = l231_tree()
        assert check_derivation(d, "NOM") is None
        for root in (d, replace(d)):
            with pytest.raises(ValueError, match="unknown mode"):
                check_derivation(root, "BOGUS")

    def test_unknown_mode_raises_before_the_walk(self):
        # a lone hyp leaf calls no check_inference, so the mode is checked first
        leaf, h = hyp(S("p |- p")), (S("p |- p"),)
        with pytest.raises(ValueError, match="unknown mode"):
            check_derivation(leaf, "BOGUS", h)
        assert check_derivation(leaf, "NOM", h) is None and leaf._accepted
        with pytest.raises(ValueError, match="unknown mode"):
            check_derivation(leaf, "BOGUS", h)

    def test_a_failed_check_leaves_no_record(self):
        d = self.exch_tree()
        assert check_derivation(d, "NOM") is not None and not d._accepted
        assert check_derivation(d, "NOM_E") is None and d._accepted
        assert not d.premises[0]._accepted  # only the root is recorded

    def test_a_tree_built_from_lists_cannot_change_after_acceptance(self):
        a, b = Derivation(S("g, q |- q"), "assume"), Derivation(S("g, q |- p"), "assume")
        prems, ante = [a, a], [Letter("g"), Letter("q")]
        d = Derivation(Sequent(ante, F("q /\\ q")), "and_i", prems)
        assert check_derivation(d, "NOM") is None
        prems[1], ante[1] = b, Letter("p")
        assert d.premises == (a, a) and d.conclusion == S("g, q |- q /\\ q")
        assert self.same(d, "NOM_E") is None

    def test_a_recheck_judges_only_mode_dependent_nodes(self, monkeypatch):
        judged, real = [], kernel.check_inference
        monkeypatch.setattr(kernel, "check_inference",
                            lambda rule, *args: judged.append(rule) or real(rule, *args))
        d = Derivation(S("z, q, p |- q"), "wk", (self.exch_tree(),))
        for mode, rules in [("NOM_E", ["wk", "exch", "assume"]), ("NOM_E", ["exch"]),
                            ("NOM_Q", ["exch"]), ("NOM_q", ["exch"])]:
            judged.clear()
            check_derivation(d, mode)
            assert judged == rules, mode

    def test_a_duplicating_tree_rechecked_in_nom_q_is_judged_in_full(self, monkeypatch):
        # S(x, x) occurs only below the root, which and_e1 drops: the record
        # holds no node, yet NOM_q rejects the and_e1 node as a fresh root does
        dup = S("|- S(x, x) -> S(x, x)")
        conj = Derivation(S("|- (q -> q) /\\ (S(x, x) -> S(x, x))"), "and_i", (
            Derivation(S("|- q -> q"), "imp_i", (Derivation(S("q |- q"), "assume"),)),
            Derivation(dup, "imp_i", (Derivation(S("S(x, x) |- S(x, x)"), "assume"),))))
        d = Derivation(S("g |- q -> q"), "wk", (Derivation(S("|- q -> q"), "and_e1", (conj,)),))
        judged, real = [], kernel.check_inference
        monkeypatch.setattr(kernel, "check_inference",
                            lambda rule, *args: judged.append(rule) or real(rule, *args))
        assert check_derivation(d, "NOM_Q") is None
        assert check_derivation(d, "NOM_Q") is None and d._accepted[0] == []
        judged.clear()
        fail = self.same(d, "NOM_q")
        assert judged == ["wk", "and_e1"] * 2
        assert fail.path == (0,) and "duplicates" in str(fail)

    def test_a_first_check_outside_nom_q_reads_no_nonduplication(self, monkeypatch):
        calls, real = [], kernel.is_nonduplicating
        monkeypatch.setattr(kernel, "is_nonduplicating", lambda f: calls.append(f) or real(f))
        d = Derivation(S("z, q, p |- q"), "wk", (self.exch_tree(),))
        for mode in ("NOM", "NOM_E", "NOM_Q"):
            check_derivation(replace(d), mode)
        assert calls == []
        assert check_derivation(d, "NOM_E") is None and calls == []
        # the accepting check read each formula's fact as an attribute; the re-check reads none
        assert check_derivation(d, "NOM") is not None and calls == []
        assert d._accepted == ([d.premises[0]], True)

    def test_only_the_accepting_check_walks_the_tree(self, monkeypatch):
        walks, real = [], kernel._preorder
        monkeypatch.setattr(kernel, "_preorder", lambda d: walks.append(d) or real(d))
        hyps = (S("g |- p"), S("g |- q"))
        d = Derivation(S("g |- p /\\ q"), "and_i", (hyp(S("g |- p")), hyp(S("g |- q"))))
        assert check_derivation(d, "NOM", hyps) is None and walks == [d]
        for mode in MODES:
            assert check_derivation(d, mode, hyps) is None
        assert walks == [d] and d._accepted == (list(d.premises), True)
        # the one exception: a NOM_q re-check of a duplicating tree walks it
        h = (S("S(x, x) |- S(x, x)"),)
        leaf = hyp(S("p, S(x, x) |- S(x, x)"))
        assert check_derivation(leaf, "NOM_q", h) is None and leaf._accepted == ([leaf], False)
        walks.clear()
        for mode in ("NOM", "NOM_E", "NOM_Q"):
            assert check_derivation(leaf, mode, h) is None
        assert walks == []
        assert check_derivation(leaf, "NOM_q", h) is None and walks == [leaf]

    def test_a_failed_recheck_leaves_the_record_as_it_was(self):
        d = Derivation(S("z, q, p |- q"), "wk", (self.exch_tree(),))
        dup = Derivation(S("p, S(x, x) |- S(x, x)"), "wk",
                         (Derivation(S("S(x, x) |- S(x, x)"), "assume"),))
        for tree, accepting, rejecting, kept, nonduplicating in [
                (d, "NOM_E", ("NOM", "NOM_Q", "NOM_q"), [d.premises[0]], True),
                (dup, "NOM_Q", ("NOM_q",), [], False)]:
            assert check_derivation(tree, accepting) is None
            rec = tree._accepted
            for mode in rejecting:
                assert check_derivation(tree, mode) is not None
                assert tree._accepted is rec and rec == (kept, nonduplicating), mode
            assert check_derivation(tree, accepting) is None and tree._accepted is rec


class TestWeaken:
    """The leading-weakening rule ``wk``: Δ, Γ ⊢ φ from Γ ⊢ φ."""

    def test_base_case(self):
        d = Derivation(S("r, p |- p"), "wk", (Derivation(S("p |- p"), "assume"),))
        for mode in MODES:
            assert check_derivation(d, mode) is None

    def test_empty_prefix_is_identity(self):
        ok("wk", ["g, p |- q"], "g, p |- q")
        ok("wk", ["|- p -> p"], "|- p -> p")

    def test_preserves_shape_and_validity(self):
        # one node over the unchanged premise tree, whatever its size
        d = l231_tree()
        w = Derivation(S("a, b, g, ~p, p |- q"), "wk", (d,))
        assert w.premises == (d,)
        assert check_derivation(w, "NOM") is None
        ok("wk", ["|- p"], "a, b, c |- p")

    def test_modulo_expansion(self):
        ok("wk", ["p >< q |- p \\/ q"],
           "r, (p -> (q -> p)) /\\ (q -> (p -> q)) |- ~(~p /\\ ~q)")

    def test_weakens_hypotheses_too(self):
        hyps = (S("g |- p"), S("g |- p -> q"))
        d = Derivation(S("g |- q"), "cut",
                       (hyp(S("g |- p")),
                        Derivation(S("g, p |- q"), "imp_e", (hyp(S("g |- p -> q")),))))
        assert check_derivation(Derivation(S("a, g |- q"), "wk", (d,)), "NOM", hyps) is None

    def test_eigenvariable_in_prefix_is_accepted(self):
        # the former whole-tree transform refused this prefix, since pushing
        # R(x) through the all_i node would break its side condition; wk
        # leaves the premise tree as it is, so all_i still checks at p
        sg = Signature()
        d = Derivation(S("p |- forall x. R(x)", sg), "all_i", (hyp(S("p |- R(x)", sg)),),
                       Var("x"))
        w = Derivation(S("R(x), p |- forall x. R(x)", sg), "wk", (d,))
        for mode in ("NOM_Q", "NOM_q"):
            assert check_derivation(w, mode, (S("p |- R(x)", sg),)) is None


def test_wk_is_sound_on_two_and_mo2():
    # Seeded Γ, Δ, φ over at most three letters, with near-miss conclusions:
    # whenever the kernel accepts a wk step from a premise valid on 2 and MO2
    # (the battery's other members are their products), the conclusion is
    # valid on both as well.
    rng, lats = random.Random(11), (by_name("2"), by_name("MO2"))
    valid = lambda s: all(isinstance(validate_sequent(s, L), Valid) for L in lats)
    letters = [Letter(n) for n in "pqr"]
    formula = lambda: rng.choice(letters) if rng.random() < 0.3 \
        else random_formula(rng, 2, predicates=False)
    context = lambda: tuple(formula() for _ in range(rng.randrange(3)))
    accepted = refuted = 0
    for _ in range(600):
        gamma, delta, phi = context(), context(), formula()
        if gamma and rng.random() < 0.3:
            phi = gamma[-1]         # valid, and trailing weakening of it may not be
        premise = Sequent(gamma, phi)
        if len(sequent_letters(Sequent(delta + gamma, phi))) > 3 or not valid(premise):
            continue
        for concl in (Sequent(delta + gamma, phi), Sequent(gamma + delta, phi),
                      Sequent(delta + gamma[1:], phi), Sequent(delta + gamma, formula())):
            if check_inference("wk", [premise], concl, "NOM") is None:
                assert valid(concl), (premise, concl)
                accepted += 1
            else:
                refuted += not valid(concl)
    # the accepted steps are many, and the rejected near-misses include
    # real non-consequences such as trailing weakening
    assert accepted > 150 and refuted > 100


def test_repr_of_a_shared_dag_is_short():
    # each level uses the one below twice: 2^12 leaves when unfolded
    d = Derivation(S("p |- p"), "assume")
    for _ in range(12):
        d = Derivation(S("p |- p /\\ p"), "and_i", (d, d))
    text = repr(d)
    assert len(text) < 100 and "and_i" in text and "2 premises" in text
    assert "p |- p /\\ p" in text


def test_derivations_compare_by_identity():
    # the generated eq and hash would unfold the shared DAG: comparing two
    # P4.14 builds, about 1.9e13 unfolded nodes each, would not finish
    assert Derivation.__eq__ is object.__eq__ and Derivation.__hash__ is object.__hash__
    e = next(e for e in catalog() if e.id == "P4.14")
    inst = {v: Letter(f"m{i}") for i, v in enumerate(e.variables)}
    inst["gamma"] = (Letter("g0"),)
    prems, _ = e.instantiate(inst)
    d1, d2 = derive(e.id, inst, prems), derive(e.id, inst, prems)
    assert d1 == d1 and d1 != d2 and len({d1, d2, d1}) == 2


# --- failure paths against the former walk ----------------------------------

def reference_check_derivation(d, mode, hypotheses=()):
    """The former kernel walk, which carried a (parent link, index) pair per
    stack entry; kept as the reference for failure paths."""
    seen = set()
    stack = [(None, d)]      # (link, node); a link is (parent's link, index) or None
    while stack:
        at, n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if n.rule != "hyp":
            v = check_inference(n.rule, [p.conclusion for p in n.premises],
                                n.conclusion, mode, n.instantiation)
        else:
            v = (RuleViolation("hyp", "hypotheses take no premises") if n.premises
                 else None if any(reference_hyp_match(n.conclusion, h) for h in hypotheses)
                 else RuleViolation("hyp", "sequent is not a declared hypothesis"))
        if v is not None:
            path = []
            while at:
                at, i = at
                path.append(i)
            return CheckFailure(tuple(reversed(path)), v, n.conclusion)
        stack.extend(((at, i), n.premises[i]) for i in reversed(range(len(n.premises))))
    return None


def reference_hyp_match(leaf, h):
    # the former kernel's match: h, possibly under extra leading context
    extra = len(leaf.antecedent) - len(h.antecedent)
    return extra >= 0 and Sequent(leaf.antecedent[extra:], leaf.succedent) == h


def parent_counts(d):
    """id -> (node, number of premise slots that hold it) over the distinct nodes."""
    out, seen, stack = {id(d): [d, 0]}, set(), [d]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        for p in n.premises:
            out.setdefault(id(p), [p, 0])[1] += 1
            stack.append(p)
    return out


def replace_node(d, target, new):
    """``d`` with every occurrence of the object ``target`` replaced by
    ``new``; nodes above no occurrence keep their identity."""
    memo, stack = {id(target): new}, [d]
    while stack:
        n = stack[-1]
        todo = [p for p in n.premises if id(p) not in memo]
        if id(n) not in memo and todo:
            stack.extend(todo)
            continue
        stack.pop()
        if id(n) not in memo:
            prems = tuple(memo[id(p)] for p in n.premises)
            memo[id(n)] = n if all(a is b for a, b in zip(prems, n.premises)) \
                else Derivation(n.conclusion, n.rule, prems, n.instantiation)
    return memo[id(d)]


def corruptions(rng, n):
    """Variants of node ``n``, each wrong in one field."""
    c, z = n.conclusion, F("zz")
    if n.rule == "hyp":
        return [hyp(Sequent(c.antecedent, z)), hyp(Sequent(c.antecedent + (z,), c.succedent))]
    other = rng.choice([r for r in PREMISE_COUNTS if r != n.rule])
    concl = rng.choice([Sequent(c.antecedent, z), Sequent(c.antecedent + (z,), c.succedent),
                        Sequent(c.antecedent[1:], c.succedent)])
    return [Derivation(c, other, n.premises, n.instantiation),
            Derivation(concl, n.rule, n.premises, n.instantiation)]


def seeded_corruptions():
    """For 12 seeded catalog entries: (entry id, hypotheses, intact derivation,
    ids of its shared nodes, [(corrupted node, variant, corrupted derivation)])."""
    rng = random.Random(8)
    entries = [e for e in catalog() if e.matcher is None and e.premises]
    for e in rng.sample(entries, 12):
        inst = {v: Letter(f"m{i}") for i, v in enumerate(e.variables)}
        inst["gamma"] = tuple(Letter(f"g{i}") for i in range(rng.randrange(3)))
        prems, _ = e.instantiate(inst)
        d = derive(e.id, inst, prems)
        counts = list(parent_counts(d).values())
        shared = [n for n, k in counts if k > 1]
        leaves = [n for n, _ in counts if n.rule == "hyp"]
        picks = rng.sample(shared, min(3, len(shared))) + leaves \
            + rng.sample([n for n, _ in counts], 2)
        yield e.id, prems, d, {id(n) for n in shared}, [
            (target, variant, replace_node(d, target, variant))
            for target in picks for variant in corruptions(rng, target)]


def test_failure_paths_match_the_former_walk():
    cases = shared_failures = 0
    for eid, prems, _, shared_ids, variants in seeded_corruptions():
        for target, variant, broken in variants:
            for mode in MODES:
                got = check_derivation(broken, mode, prems)
                assert got == reference_check_derivation(broken, mode, prems), \
                    (eid, target.rule, mode)
                cases += 1
                shared_failures += got is not None and id(target) in shared_ids \
                    and got.conclusion == variant.conclusion
    assert cases > 300 and shared_failures > 20


def test_recorded_roots_judge_as_fresh_roots_after_every_pair_of_modes():
    # the intact and corrupted derivations, and each intact one under an
    # exch and a qexch node (accepted only in NOM_E, only in NOM_q), checked
    # in each mode on a new root, with the hypotheses and with one fewer.  A
    # root is unmarked until a check accepts it, and that check records it;
    # the record depends on the tree alone and is never cleared.  So each
    # sequence of an accepting mode and two more modes, each with either
    # hypotheses, reaches both states and every pair of re-checks on every
    # root, and a longer sequence only repeats the recorded state
    trees = rechecks = recorded_failures = 0
    for eid, prems, d, _, variants in seeded_corruptions():
        c = d.conclusion
        swap = Sequent((*c.antecedent[:-2], *c.antecedent[:-3:-1]), c.succedent)
        wrapped = ([Derivation(swap, r, (d,)) for r in ("exch", "qexch")]
                   if len(c.antecedent) > 1 else [])
        for tree in (d, *wrapped, *(broken for _, _, broken in variants)):
            calls = list(itertools.product(MODES, (prems, prems[1:])))
            fresh = {(m, len(h)): check_derivation(replace(tree), m, h) for m, h in calls}
            for first in (m for m in MODES if fresh[m, len(prems)] is None):
                for second in calls:
                    root = replace(tree)
                    assert check_derivation(root, first, prems) is None and root._accepted
                    for mode, hyps in (second, *calls):  # the second check, then each third
                        got = check_derivation(root, mode, hyps)
                        assert got == fresh[mode, len(hyps)], \
                            (eid, tree.rule, first, second[0], mode, len(hyps))
                        assert isinstance(root._accepted, tuple)
                        rechecks += 1
                        recorded_failures += got is not None and mode != "NOM_q"
            trees += 1
    assert trees > 130 and rechecks > 4000 and recorded_failures > 1500


def test_kernel_does_not_grow():
    # a speedup never makes the trusted kernel bigger
    with open(kernel.__file__, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) <= 364
