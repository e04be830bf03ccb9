import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturbed_arrow_witness, propositional_strategy
from orthoproof import lattice, semantics
from orthoproof.lattice import (
    FiniteOML, battery, boolean, by_name, free_oml2, mo, sasaki_and, sasaki_arrow,
)
from orthoproof.semantics import (
    Countermodel, Interpretation, Valid, classical_valid, countermodel_search,
    decide_two_var, eval_formula, sequent_letters, sequent_true, validate_sequent,
)
from orthoproof.syntax import (
    And, App, Atom, Compat, Const, Exists, Forall, Imp, Letter, Neg, Or, Sequent, Signature,
    Var, parse_formula, parse_sequent, substitute,
)

M2 = mo(2)
TWO = boolean(1)
OM_LAW = "q |- p \\/ (~p /\\ (p \\/ q))"


class TestEvalFormula:
    def test_boolean_arrow_is_material(self):
        I = Interpretation(TWO, {"p": 1, "q": 0})
        assert eval_formula(parse_formula("p -> q"), I) == 0

    def test_mo2_arrow(self):
        I = Interpretation(M2, {"p": 1, "q": 3})
        assert eval_formula(parse_formula("p -> q"), I) == 2  # ~a | (a & b) = a'

    def test_double_negation(self):
        for L in (TWO, M2):
            for e in range(L.n):
                I = Interpretation(L, {"p": e})
                assert eval_formula(parse_formula("~~p"), I) == e

    def test_derived_connectives_via_expansion(self):
        I = Interpretation(M2, {"p": 1, "q": 3})
        assert eval_formula(parse_formula("p \\/ q"), I) == 5
        assert eval_formula(parse_formula("p >< q"), I) == int(
            M2.meet[sasaki_arrow(M2, 1, sasaki_arrow(M2, 3, 1)),
                    sasaki_arrow(M2, 3, sasaki_arrow(M2, 1, 3))])

    def test_unmapped_letter(self):
        with pytest.raises(KeyError, match="letter p has no value"):
            eval_formula(parse_formula("p"), Interpretation(TWO, {}))

    def test_rejects_quantifier(self):
        # an interpretation without domains has no sort to quantify over
        with pytest.raises(KeyError, match="sort _ has no value"):
            eval_formula(parse_formula("forall x. R(x)"), Interpretation(TWO, {}))


def _chain_text(depth, first, rest):
    # first >< (rest >< (first >< ... )), nested depth deep; expansion uses each
    # operand of >< twice, so a walk of it as a tree grows about 3x a level
    text = rest
    for i in range(depth):
        text = f"{first if i % 2 else rest} >< ({text})"
    return text


class TestEvalFormulaOnSharedNodes:
    def test_deep_compat_chain_is_evaluated_once_per_node(self):
        compat = lambda a, b: int(M2.meet[sasaki_arrow(M2, a, sasaki_arrow(M2, b, a)),
                                         sasaki_arrow(M2, b, sasaki_arrow(M2, a, b))])
        f = parse_formula(_chain_text(16, "p", "q"))
        start = time.perf_counter()
        for p in range(M2.n):
            for q in range(M2.n):
                want = q
                for i in range(16):
                    want = compat(p if i % 2 else q, want)
                assert eval_formula(f, Interpretation(M2, {"p": p, "q": q})) == want
        assert time.perf_counter() - start < 1


class TestSequentTrue:
    def test_empty_antecedent_means_top(self):
        for e in range(M2.n):
            I = Interpretation(M2, {"p": e})
            assert sequent_true(parse_sequent("|- p"), I) == (e == M2.top)

    def test_order_sensitivity(self):
        I = Interpretation(M2, {"p": 1, "q": 3})
        assert sequent_true(parse_sequent("p, q |- q"), I)
        assert not sequent_true(parse_sequent("q, p |- q"), I)


class TestValidateSequent:
    def test_orthomodular_law_valid_on_mo2(self):
        assert validate_sequent(parse_sequent(OM_LAW), M2) == Valid()

    def test_distributivity_fails_on_mo2(self):
        v = validate_sequent(
            parse_sequent("p /\\ (q \\/ r) |- (p /\\ q) \\/ (p /\\ r)"), M2)
        assert isinstance(v, Countermodel)

    def test_degenerate_lattice_validates_everything(self):
        v = validate_sequent(parse_sequent("p |- q"), boolean(0))
        assert v == Valid()

    def test_countermodel_is_recheckable_and_least(self):
        s = parse_sequent("q, p |- q")
        v = validate_sequent(s, M2)
        assert isinstance(v, Countermodel)
        assert v.assignment_dict() == {"p": 1, "q": 3}
        I = Interpretation(M2, v.assignment_dict())
        assert not sequent_true(s, I)
        # the reported fold and succedent reproduce
        fold = M2.top
        for f in s.antecedent:
            fold = sasaki_and(M2, fold, eval_formula(f, I))
        assert fold == v.fold
        assert eval_formula(s.succedent, I) == v.succedent
        # nothing lexicographically smaller fails
        for p in range(6):
            for q in range(6):
                if (p, q) < (1, 3):
                    assert sequent_true(s, Interpretation(M2, {"p": p, "q": q}))


class TestDecideTwoVar:
    def test_om_law_valid(self):
        assert decide_two_var(parse_sequent(OM_LAW)) == Valid()

    def test_exchange_countermodel_in_mo2(self):
        v = decide_two_var(parse_sequent("q, p |- q"))
        assert isinstance(v, Countermodel)
        assert v.lattice == "MO2"
        assert v.assignment_dict() == {"p": 1, "q": 3}

    def test_boolean_countermodel_preferred(self):
        v = decide_two_var(parse_sequent("p |- q"))
        assert v.lattice == "2"
        assert v.assignment_dict() == {"p": 1, "q": 0}

    def test_letter_budget(self):
        with pytest.raises(ValueError):
            decide_two_var(parse_sequent("p, q |- r"))


class TestCountermodelSearch:
    def test_exchange(self):
        v = countermodel_search(parse_sequent("q, p |- q"))
        assert isinstance(v, Countermodel) and v.lattice == "MO2"

    def test_adjacent_pair_conjunction(self):
        v = countermodel_search(parse_sequent("p, q |- p /\\ q"))
        assert isinstance(v, Countermodel) and v.lattice == "MO2"
        assert v.assignment_dict() == {"p": 1, "q": 3}
        assert v.fold == 3 and v.succedent == 0

    def test_excluded_middle_has_no_countermodel(self):
        assert countermodel_search(parse_sequent("|- p \\/ ~p")) == Valid()

    def test_shared_operands_are_evaluated_once(self, monkeypatch):
        # expand turns a >< b into a DAG using each operand three times, so
        # an unshared walk of >< nested 9 deep makes over 3^9 calls
        text = "p"
        for i in range(9):
            text = f"({text}) >< {'qrp'[i % 3]}"
        calls = []
        walk = semantics._ev_grid

        def counting(f, *rest):
            calls.append(id(f))
            return walk(f, *rest)

        monkeypatch.setattr(semantics, "_ev_grid", counting)
        assert validate_sequent(parse_sequent(f"{text} |- p \\/ ~p"), M2) == Valid()
        assert len(calls) <= 2 * len(set(calls)) + 2
        assert len(calls) < 150


def _swept(L):
    """A copy of L without factors: validate_sequent sweeps all of it."""
    return FiniteOML(L.leq, L.neg, L.name, tables=(L.meet, L.join))


def _formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        return Letter(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(_formula(rng, names, depth - 1))
    return (And, Or, Imp, Compat)[kind - 1](_formula(rng, names, depth - 1),
                                            _formula(rng, names, depth - 1))


def _random_sequents(seed, count):
    # sequents over p, q, r: two of every three valid by construction
    rng = random.Random(seed)
    out = []
    for i in range(count):
        names = "pqr"[:1 + i // 3 % 3]
        a, b = _formula(rng, names, 3), _formula(rng, names, 3)
        out.append((Sequent((a, b), b), Sequent((b,), Neg(Neg(b))), Sequent((a,), b))[i % 3])
    return out


class TestProductShortcut:
    SEQUENTS = _random_sequents(5, 45)

    @pytest.mark.parametrize("name", ["2xMO2", "F2"])
    def test_matches_the_full_sweep(self, name):
        L = by_name(name)
        verdicts = []
        for s in self.SEQUENTS:
            fast, full = validate_sequent(s, L), validate_sequent(s, _swept(L))
            assert type(fast) is type(full), str(s)
            if isinstance(full, Countermodel):
                assert (fast.lattice, fast.assignment, fast.fold, fast.succedent) == \
                    (full.lattice, full.assignment, full.fold, full.succedent)
            verdicts.append(type(full))
        assert Valid in verdicts and Countermodel in verdicts

    def test_countermodel_search_matches_sweeping_the_battery(self):
        swept = [_swept(L) for L in battery()]
        for s in self.SEQUENTS:
            verdicts = (validate_sequent(s, L) for L in swept)
            first = next((v for v in verdicts if isinstance(v, Countermodel)), Valid())
            assert countermodel_search(s) == first, str(s)

    def test_valid_on_every_factor_skips_the_product_sweep(self, monkeypatch):
        grids = []
        walk = semantics._ev_grid
        monkeypatch.setattr(semantics, "_ev_grid",
                            lambda f, L, *rest: grids.append(L.name) or walk(f, L, *rest))
        assert validate_sequent(parse_sequent("p, q |- q"), by_name("F2")) == Valid()
        assert set(grids) == {"2", "MO2"}      # 2^4 itself is valid through 2

    @pytest.mark.parametrize("L", [by_name("2^2"), boolean(3)], ids=["2^2", "2^3"])
    def test_boolean_algebras_match_the_full_sweep(self, L):
        verdicts = []
        for s in self.SEQUENTS:
            fast, full = validate_sequent(s, L), validate_sequent(s, _swept(L))
            assert fast == full, str(s)
            if isinstance(full, Countermodel):
                assert (fast.lattice, fast.assignment, fast.fold, fast.succedent) == \
                    (full.lattice, full.assignment, full.fold, full.succedent)
            verdicts.append(type(full))
        assert Valid in verdicts and Countermodel in verdicts

    def test_a_boolean_algebra_is_validated_once_through_two(self, monkeypatch):
        grids = []
        walk = semantics._ev_grid
        monkeypatch.setattr(semantics, "_ev_grid",
                            lambda f, L, *rest: grids.append(L.name) or walk(f, L, *rest))
        assert validate_sequent(parse_sequent("p, q |- q"), boolean(3)) == Valid()
        assert grids == ["2", "2", "2"]     # p, q and the succedent q, on one sweep of 2

    def test_a_valid_search_sweeps_two_and_mo2_once(self, monkeypatch):
        grids = []
        walk = semantics._ev_grid
        monkeypatch.setattr(semantics, "_ev_grid",
                            lambda f, L, *rest: grids.append(L.name) or walk(f, L, *rest))
        assert countermodel_search(parse_sequent("p, q, r |- r")) == Valid()
        assert grids == ["2"] * 4 + ["MO2"] * 4     # p, q, r and the succedent r, per sweep


class TestSweepBudget:
    def test_four_letters_on_f2_valid_through_the_factors(self):
        s = parse_sequent("p /\\ q, r, s |- s \\/ ~s")
        assert validate_sequent(s, by_name("F2")) == Valid()

    def test_four_letters_on_f2_invalid_is_refused(self):
        assert 96 ** 4 > semantics.MAX_CELLS >= 96 ** 3
        with pytest.raises(ValueError, match="sweep budget"):
            validate_sequent(parse_sequent("p, q, r |- s"), by_name("F2"))

    def test_refused_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(semantics, "MAX_CELLS", 35)
        monkeypatch.setattr(semantics, "_ev_grid", None)
        with pytest.raises(ValueError, match="6\\^2 = 36 assignments on MO2"):
            validate_sequent(parse_sequent("p |- q"), M2)

    def test_slices_keep_the_least_countermodel(self, monkeypatch):
        L = _swept(by_name("2xMO2"))
        whole = [validate_sequent(s, L) for s in TestProductShortcut.SEQUENTS]
        monkeypatch.setattr(semantics, "_SLICE", 7)
        assert [validate_sequent(s, L) for s in TestProductShortcut.SEQUENTS] == whole


def test_decide_two_var_builds_no_lattice(monkeypatch):
    battery()

    def refuse(L):
        raise AssertionError(f"built {L.name}")

    monkeypatch.setattr(lattice, "verify_oml", refuse)
    assert decide_two_var(parse_sequent(OM_LAW)) == Valid()
    assert decide_two_var(parse_sequent("q, p |- q")).lattice == "MO2"


class TestClassical:
    def test_examples(self):
        assert classical_valid(parse_sequent("q, p |- q"))
        assert classical_valid(parse_sequent("(p -> q) -> p |- p"))  # Peirce
        assert not classical_valid(parse_sequent("p |- q"))

    def test_empty_antecedent(self):
        assert classical_valid(parse_sequent("|- p \\/ ~p"))
        assert not classical_valid(parse_sequent("|- p"))

    def test_deep_compat_chain_is_linear(self):
        # >< nested 16 deep; each distinct node is evaluated once for all rows
        for text in (f"|- {_chain_text(16, 'p', 'q')}", f"|- r /\\ ({_chain_text(16, 'p', 'q')})"):
            s = parse_sequent(text)
            start = time.perf_counter()
            valid = classical_valid(s)
            assert time.perf_counter() - start < 1
            assert valid == (validate_sequent(s, TWO) == Valid()) == ("r" not in text)

    def test_more_rows_than_the_budget_are_refused_at_once(self):
        # 2^25 rows: each value would be a 2^25-bit int, built from a string as long
        s = parse_sequent(", ".join(f"p{i}" for i in range(25)) + " |- p0")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="2\\^25 = 33,554,432 truth-table rows, "
                                             "more than the budget of 16,777,216"):
            classical_valid(s)
        assert time.perf_counter() - start < 1

    def test_the_budget_bounds_the_rows(self, monkeypatch):
        monkeypatch.setattr(semantics, "MAX_CELLS", 8)
        assert classical_valid(parse_sequent("p, q, r |- p"))
        with pytest.raises(ValueError, match="budget of 8"):
            classical_valid(parse_sequent("p, q, r, s |- p"))

    @given(st.lists(propositional_strategy, min_size=1, max_size=3))
    @settings(max_examples=150)
    def test_agrees_with_boolean_lattice_sweep(self, formulas):
        # the truth-table oracle and the fold criterion on the 2-element
        # lattice are two independent routes to the same answer
        s = Sequent(tuple(formulas[:-1]), formulas[-1])
        assert classical_valid(s) == (validate_sequent(s, TWO) == Valid())


x, y = Var("x"), Var("y")


def R(t):
    return Atom("R", (t,))


class TestPredicate:
    def test_forall_is_meet(self):
        I = Interpretation(M2, domains={"_": (0, 1)}, relations={"R": {(0,): 1, (1,): 2}})
        assert eval_formula(Forall(x, R(x)), I) == 0

    def test_exists_via_expansion(self):
        I = Interpretation(M2, domains={"_": (0, 1)}, relations={"R": {(0,): 1, (1,): 2}})
        assert eval_formula(Exists(x, R(x)), I) == 5

    def test_singleton_domain(self):
        I = Interpretation(M2, domains={"_": (0,)}, relations={"R": {(0,): 3}})
        assert eval_formula(Forall(x, R(x)), I) == 3

    def test_functions_and_constants(self):
        I = Interpretation(
            TWO, domains={"_": (0, 1)},
            relations={"E": {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}},
            functions={"f": {(0,): 1, (1,): 0}},
            constants={"c": 0},
        )
        sig = Signature()
        sig.declare_constant("c")
        f = parse_formula("E(f(c), f(f(c)))", sig)
        assert eval_formula(f, I) == 0
        g = parse_formula("E(f(c), x)", sig)
        assert eval_formula(g, I, {"x": 1}) == 1

    def test_a_nullary_relation_is_read_by_an_atom_not_a_letter(self):
        I = Interpretation(M2, relations={"p": {(): 1}})
        assert eval_formula(Neg(Atom("p", ())), I) == 2
        with pytest.raises(KeyError, match="letter p has no value"):
            eval_formula(parse_formula("~p"), I)

    def test_unmapped_symbols(self):
        I = Interpretation(M2, domains={"_": (0,)})
        with pytest.raises(KeyError):
            eval_formula(R(x), I, {"x": 0})
        with pytest.raises(KeyError):
            eval_formula(R(x), I)  # x unbound

    def test_forall_elimination_inequality(self):
        rng = random.Random(3)
        for _ in range(50):
            dom = tuple(range(rng.randint(1, 3)))
            I = Interpretation(
                M2, domains={"_": dom},
                relations={"R": {(d,): rng.randrange(6) for d in dom}},
                constants={"c": rng.choice(dom)},
            )
            general = eval_formula(Forall(x, R(x)), I)
            particular = eval_formula(substitute(R(x), x, Const("c")), I)
            assert M2.le(general, particular)

    def test_predicate_sequent(self):
        I = Interpretation(M2, domains={"_": (0, 1)}, relations={"R": {(0,): 1, (1,): 1}})
        s = parse_sequent("forall x. R(x) |- R(y)")
        assert sequent_true(s, I, {"y": 0})

    def test_letters_atoms_quantifiers_and_free_variables_in_one_interpretation(self):
        # MO2's elements 0, a, a', b, b', 1 are 0..5; p = a, R(0) = 1, R(1) = b
        I = Interpretation(M2, {"p": 1}, {"_": (0, 1)}, {"R": {(0,): 5, (1,): 3}})
        s = parse_sequent("forall x. R(x), p |- p -> R(y)")
        assert eval_formula(s.antecedent[0], I) == 3               # 1 /\ b = b
        # p -> R(y) = a' \/ (a /\ R(y)): a' \/ a = 1 at y=0, a' \/ 0 = a' at y=1
        assert [eval_formula(s.succedent, I, {"y": d}) for d in (0, 1)] == [5, 2]
        # the fold (1 & b) & a = a /\ (a' \/ b) = a lies below 1, not below a'
        assert [sequent_true(s, I, {"y": d}) for d in (0, 1)] == [True, False]

    def test_deep_chain_under_a_binder_is_evaluated_once_per_node(self):
        # forall x. (R(x) >< (R(x) >< ...)) nested 16 deep: walked as a tree it
        # grows about 3x a level; the value is the meet over the domain of the
        # propositional chain at R's values
        f = Forall(x, parse_formula(_chain_text(16, "R(x)", "R(x)")))
        chain = parse_formula(_chain_text(16, "p", "p"))
        rels = {1: 3, 3: 5, 2: 2}
        for r0, r1 in rels.items():
            I = Interpretation(M2, domains={"_": (0, 1)}, relations={"R": {(0,): r0, (1,): r1}})
            want = M2.meet[eval_formula(chain, Interpretation(M2, {"p": r0})),
                           eval_formula(chain, Interpretation(M2, {"p": r1}))]
            start = time.perf_counter()
            assert eval_formula(f, I) == want
            assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("f, missing", [
        (Letter("p"), "letter p has no value"),
        (Atom("S", (y,)), "relation S has no value at (0,)"),
        (R(Const("c")), "constant c has no value"),
        (R(Const("d")), "relation R has no value at (1,)"),
        (R(App("g", (y,))), "function g has no value at (0,)"),
        (R(Var("z")), "variable z has no value"),
        (Forall(Var("w", "s"), R(Var("w", "s"))), "sort s has no value"),
    ])
    def test_a_missing_symbol_is_named(self, f, missing):
        I = Interpretation(M2, domains={"_": (0,)}, relations={"R": {(0,): 1}},
                           constants={"d": 1})
        with pytest.raises(KeyError, match=re.escape(missing)):
            eval_formula(f, I, {"y": 0})


class TestPerturbedArrow:
    def test_witness_breaks_a_rule(self):
        F2, _ = free_oml2()
        rng = random.Random(11)
        for _ in range(10):
            a0, b0 = rng.randrange(96), rng.randrange(96)
            true_arrow = sasaki_arrow(F2, a0, b0)
            wrong = rng.choice([e for e in range(96) if e != true_arrow])
            rule, inst = perturbed_arrow_witness(F2, a0, b0, wrong)
            c = inst["r"]
            premise_fold = sasaki_and(F2, sasaki_and(F2, F2.top, c), a0)
            if rule == "imp_i":
                # r, p |- q true, but r |- p -> q false under the mutation
                assert F2.le(premise_fold, b0)
                assert not F2.le(c, wrong)
            else:
                assert rule == "imp_e"
                assert F2.le(c, wrong)
                assert not F2.le(premise_fold, b0)

    def test_no_witness_for_true_value(self):
        F2, _ = free_oml2()
        assert perturbed_arrow_witness(F2, 5, 9, sasaki_arrow(F2, 5, 9)) is None


def test_sequent_letters_sorted_union():
    s = parse_sequent("q, p |- r /\\ q")
    assert sequent_letters(s) == ["p", "q", "r"]
