import copy
import gc
import random

import pytest
from hypothesis import given, settings

from conftest import corpus_signature, formula_strategy, random_formula
from orthoproof.kernel import check_inference
from orthoproof.lattice import by_name
from orthoproof import syntax
from orthoproof.semantics import validate_sequent
from orthoproof.syntax import (
    And, App, Atom, Compat, Const, Exists, Forall, Imp, Letter, Neg, Or,
    ParseError, Sequent, Signature, SignatureError, Var,
    _Parser, alpha_key, children, expand, formula_eq, free_variables, is_nonduplicating,
    parse_formula, parse_sequent, parse_term, render, render_sequent,
    substitute,
)

p, q, r = Letter("p"), Letter("q"), Letter("r")
x, y = Var("x"), Var("y")


class TestParsing:
    def test_precedence(self):
        assert parse_formula("~p /\\ q -> r") == Imp(And(Neg(p), q), r)
        assert parse_formula("p -> q -> p") == Imp(p, Imp(q, p))
        assert parse_formula("p \\/ q /\\ r") == Or(p, And(q, r))
        assert parse_formula("p >< q \\/ r") == Compat(p, Or(q, r))
        assert parse_formula("p >< q -> r") == Imp(Compat(p, q), r)

    def test_quantifier_body_extends_right(self):
        f = parse_formula("forall x. R(x) >< S(x)")
        assert f == Forall(x, Compat(Atom("R", (x,)), Atom("S", (x,))))
        g = parse_formula("~forall x. R(x) /\\ p")
        assert g == Neg(Forall(x, And(Atom("R", (x,)), p)))
        h = parse_formula("(forall x. R(x)) /\\ p")
        assert h == And(Forall(x, Atom("R", (x,))), p)

    def test_sequents(self):
        s = parse_sequent("p, p -> q |- q")
        assert s == Sequent((p, Imp(p, q)), q)
        assert parse_sequent("|- p -> (q -> p)") == Sequent((), Imp(p, Imp(q, p)))
        # antecedent order is meaningful and must be preserved
        assert parse_sequent("q, p |- q").antecedent == (q, p)

    def test_comments_and_whitespace(self):
        assert parse_formula("p   ->\n\t q # trailing comment") == Imp(p, q)
        assert parse_sequent("# leading\n p |- p") == Sequent((p,), p)

    def test_primed_identifiers(self):
        assert parse_formula("p' /\\ p''") == And(Letter("p'"), Letter("p''"))

    def test_constants_versus_variables(self):
        sig = Signature()
        sig.declare_constant("c")
        f = parse_formula("R(c, x)", sig)
        assert f == Atom("R", (Const("c"), Var("x")))
        # a quantifier shadows the constant declaration
        g = parse_formula("forall c. R(c, x)", sig)
        assert g.body.args[0] == Var("c")

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as e:
            parse_formula("p -> ")
        assert e.value.pos == 5
        with pytest.raises(ParseError):
            parse_formula("p q")
        with pytest.raises(ParseError):
            parse_sequent("p, q")  # missing turnstile
        with pytest.raises(ParseError):
            parse_formula("p @ q")
        with pytest.raises(ParseError):
            parse_formula("forall. p")

    def test_arity_checked_across_uses(self):
        sig = Signature()
        parse_formula("R(x, y)", sig)
        with pytest.raises(ParseError):
            parse_formula("R(x)", sig)
        with pytest.raises(ParseError):
            parse_formula("p /\\ p(x)", sig)

    def test_strict_signature(self):
        sig = Signature(permissive=False)
        with pytest.raises(ParseError):
            parse_formula("R(x)", sig)
        sig.declare_relation("R", ("_",))
        assert parse_formula("R(x)", sig) == Atom("R", (Var("x"),))

    def test_signature_redeclaration(self):
        sig = Signature()
        sig.declare_relation("R", ("_",))
        with pytest.raises(SignatureError):
            sig.declare_relation("R", ("_", "_"))

    def test_parse_term(self):
        sig = Signature()
        sig.declare_constant("c")
        assert parse_term("g(f(x),c)", sig) == App("g", (App("f", (Var("x"),)), Const("c")))


def _nested(kind, depth):
    """A sequent whose first formula is nested ``depth`` levels deep: its tree
    (terms included) is that high, or it sits inside that many parentheses."""
    n = depth - 1
    return {
        "neg": "~" * n + "p |- p",
        "parens": "(" * depth + "p" + ")" * depth + " |- p",
        "and": " /\\ ".join(["p"] * (n + 1)) + " |- p",
        "imp": " -> ".join(["p"] * (n + 1)) + " |- p",
        "forall": "forall x. " * (n - 1) + "R(x) |- p",
        "term": "R(" + "f(" * (n - 1) + "x" + ")" * (n - 1) + ") |- p",
    }[kind]


class TestNestingLimit:
    KINDS = ("neg", "parens", "and", "imp", "forall", "term")

    @pytest.mark.parametrize("kind", KINDS)
    def test_past_the_limit_is_a_parse_error(self, kind):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_sequent(_nested(kind, _Parser.MAX_NESTING + 1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_at_the_limit_every_later_walk_is_safe(self, kind):
        s = parse_sequent(_nested(kind, _Parser.MAX_NESTING))
        f = s.antecedent[0]
        assert parse_sequent(render_sequent(s)) == s
        assert alpha_key(expand(f)) == alpha_key(expand(parse_formula(render(f))))
        assert substitute(f, "x", Var("y")) is not None
        assert check_inference("assume", [], Sequent((f,), f), "NOM_q") is None
        if kind not in ("forall", "term"):
            assert validate_sequent(s, by_name("MO2")) is not None


class TestExpand:
    def test_or(self):
        assert expand(Or(p, q)) == Neg(And(Neg(p), Neg(q)))

    def test_compat(self):
        assert expand(Compat(p, q)) == And(Imp(p, Imp(q, p)), Imp(q, Imp(p, q)))

    def test_exists(self):
        R = Atom("R", (x,))
        assert expand(Exists(x, R)) == Neg(Forall(x, Neg(R)))

    def test_nested(self):
        f = expand(Imp(Or(p, q), Compat(q, r)))
        assert f.left == Neg(And(Neg(p), Neg(q)))
        assert isinstance(f.right, And)

    @given(formula_strategy)
    def test_idempotent_and_free_preserving(self, f):
        e = expand(f)
        assert expand(e) == e
        assert free_variables(e) == free_variables(f)


class TestSubstitution:
    def test_basic(self):
        c = Const("c")
        f = Forall(y, Atom("R", (x, y)))
        assert substitute(f, x, c) == Forall(y, Atom("R", (c, y)))

    def test_bound_variable_untouched(self):
        f = Forall(x, Atom("R", (x,)))
        assert substitute(f, x, Const("c")) is f

    def test_capture_avoidance(self):
        f = Forall(y, Atom("R", (x, y)))
        g = substitute(f, x, App("f", (y,)))
        # the binder is renamed so the substituted y stays free
        assert g.var.name != "y"
        assert free_variables(g) == {"y"}
        assert g == Forall(Var("u"), Atom("R", (App("f", (y,)), Var("u"))))

    def test_sort_mismatch(self):
        with pytest.raises(SignatureError):
            substitute(Atom("R", (Var("x", "s1"),)), Var("x", "s1"), Const("c", "s2"))

    @given(formula_strategy)
    def test_identity_substitution(self, f):
        for name in free_variables(f):
            assert substitute(f, name, Var(name)) == f


class TestAlphaEquality:
    def test_bound_renaming(self):
        f = Forall(x, Atom("R", (x,)))
        g = Forall(y, Atom("R", (y,)))
        assert f == g
        assert hash(f) == hash(g)

    def test_free_variables_matter(self):
        assert Atom("R", (x,)) != Atom("R", (y,))

    def test_nested_binders(self):
        f = Forall(x, Exists(y, Atom("S", (x, y))))
        g = Forall(y, Exists(x, Atom("S", (y, x))))
        assert f == g
        assert f != Forall(x, Exists(y, Atom("S", (y, x))))

    def test_shadowing(self):
        f = Forall(x, Forall(x, Atom("R", (x,))))
        g = Forall(y, Forall(x, Atom("R", (x,))))
        assert f == g

    def test_sequent_equality_is_alpha(self):
        s1 = Sequent((Forall(x, Atom("R", (x,))),), p)
        s2 = Sequent((Forall(y, Atom("R", (y,))),), p)
        assert s1 == s2


def _compat_chain(depth):
    f = p
    for i in range(depth):
        f = Compat(f, q if i % 2 else r)
    return f


class TestAlphaKeyOnSharedNodes:
    def test_each_distinct_node_is_keyed_once(self, monkeypatch):
        # expand uses each operand of >< twice: keyed as a tree, >< nested 12
        # deep takes over 2^12 calls
        e = expand(_compat_chain(12))
        nodes, stack = set(), [e]
        while stack:
            f = stack.pop()
            if id(f) not in nodes:
                nodes.add(id(f))
                stack.extend(children(f))
        calls = []
        key = syntax._fkey

        def counting(f, env, depth):
            calls.append(id(f))
            return key(f, env, depth)

        monkeypatch.setattr(syntax, "_fkey", counting)
        alpha_key(e)
        assert set(calls) == nodes
        assert len(calls) <= 2 * len(nodes) + 1

    def test_keys_below_a_binder_still_use_bound_positions(self):
        f = Forall(x, Compat(Atom("R", (x,)), Compat(p, Atom("R", (x,)))))
        g = Forall(y, Compat(Atom("R", (y,)), Compat(p, Atom("R", (y,)))))
        assert alpha_key(expand(f)) == alpha_key(expand(g))
        assert f != Forall(y, Compat(Atom("R", (x,)), Compat(p, Atom("R", (y,)))))

    def test_key_at_the_nesting_limit_completes(self):
        e = expand(_compat_chain(_Parser.MAX_NESTING - 1))
        assert alpha_key(e) is alpha_key(e)


def _compat_text(depth):
    # the text of _compat_chain(depth), one pair of parentheses per level
    text = "p"
    for i in range(depth):
        text = f"({text}) >< {'q' if i % 2 else 'r'}"
    return text


class TestHashConsing:
    def test_same_structure_is_one_object(self):
        assert And(p, Neg(q)) is And(Letter("p"), Neg(Letter("q")))
        fc = App("f", (Const("c"),))
        assert Atom("R", (x, fc)) is Atom("R", (Var("x"), App("f", (Const("c"),))))
        assert Forall(x, Atom("R", (x,))) is Forall(Var("x"), Atom("R", (Var("x"),)))
        assert Atom("R", (x,)) is not Atom("R", (Const("x"),))
        assert Or(p, q) is not And(p, q)

    @pytest.mark.parametrize("depth", [14, _Parser.MAX_NESTING - 1])
    def test_equal_compat_chains_parsed_twice_are_one_object(self, depth):
        # separately built equal chains are one object, so comparing them
        # never walks their alpha keys, whose expanded DAG is exponential as a tree
        a, b = parse_formula(_compat_text(depth)), parse_formula(_compat_text(depth))
        assert a is b
        assert a is _compat_chain(depth)
        assert formula_eq(a, b)
        assert expand(a) is expand(b)

    def test_bound_names_are_kept(self):
        f, g = parse_formula("forall x. R(x)"), parse_formula("forall y. R(y)")
        assert f == g and formula_eq(f, g)
        assert f is not g
        assert (render(f), render(g)) == ("forall x. R(x)", "forall y. R(y)")

    def test_derived_connectives_are_kept(self):
        f = parse_formula("p \\/ q")
        assert formula_eq(f, expand(f))
        assert f is not expand(f)
        assert render(f) == "p \\/ q"
        assert render(expand(f)) == "~(~p /\\ ~q)"

    def test_copies_made_without_the_constructor_stay_equal(self):
        f = parse_formula("forall x. R(x) >< p")
        g = copy.deepcopy(f)
        assert g is not f
        assert g == f and formula_eq(g, f) and hash(g) == hash(f)

    def test_intern_table_holds_no_formula_alive(self):
        gc.collect()
        before = len(syntax._INTERNED)
        fs = [And(Letter(f"fresh{i}"), Neg(Letter(f"fresh{i}"))) for i in range(10_000)]
        assert len(syntax._INTERNED) == before + 30_000
        del fs
        gc.collect()
        assert len(syntax._INTERNED) == before

    def test_nonduplication_is_computed_once_per_node(self, monkeypatch):
        f = expand(_compat_chain(12))
        nodes, stack = set(), [f]
        while stack:
            g = stack.pop()
            if id(g) not in nodes:
                nodes.add(id(g))
                stack.extend(children(g))
        calls = []
        check = syntax.is_nonduplicating

        def counting(g):
            calls.append(id(g))
            return check(g)

        monkeypatch.setattr(syntax, "is_nonduplicating", counting)
        assert syntax.is_nonduplicating(f)
        assert set(calls) == nodes
        assert len(calls) <= 2 * len(nodes) + 1
        calls.clear()
        assert syntax.is_nonduplicating(f)
        assert calls == [id(f)]


def _prime_bound(f):
    # rename every binder to a primed variant (alpha-equal copy)
    if isinstance(f, Neg):
        return Neg(_prime_bound(f.sub))
    if isinstance(f, (And, Or, Imp, Compat)):
        return type(f)(_prime_bound(f.left), _prime_bound(f.right))
    if isinstance(f, (Forall, Exists)):
        body = _prime_bound(f.body)
        fresh = f.var.name
        while fresh in body.free:
            fresh += "'"
        v = Var(fresh, f.var.sort)
        return type(f)(v, substitute(body, f.var.name, v))
    return f


class TestNonduplicating:
    def test_examples(self):
        assert is_nonduplicating(And(Atom("R", (x, y)), Atom("S", (x, y))))
        assert not is_nonduplicating(Atom("R", (x, x)))
        assert is_nonduplicating(Atom("R", (App("f", (x,)), y)))
        assert not is_nonduplicating(Atom("S", (App("f", (x,)), x)))
        assert is_nonduplicating(Forall(x, And(Atom("R", (x,)), Atom("T", (x,)))))

    @given(formula_strategy)
    def test_alpha_invariant(self, f):
        g = _prime_bound(f)
        assert g == f
        assert is_nonduplicating(g) == is_nonduplicating(f)


class TestRender:
    def test_examples(self):
        assert render(Imp(And(p, q), r)) == "p /\\ q -> r"
        assert render(Neg(Neg(p))) == "~~p"
        assert render(And(p, Or(q, r))) == "p /\\ (q \\/ r)"

    def test_quantifier_bracketing(self):
        R = Atom("R", (x,))
        assert render(And(Forall(x, R), p)) == "(forall x. R(x)) /\\ p"
        assert render(And(p, Forall(x, R))) == "p /\\ forall x. R(x)"
        assert render(Or(And(p, Forall(x, R)), q)) == "p /\\ (forall x. R(x)) \\/ q"

    def test_compat_not_associative(self):
        assert render(Compat(Compat(p, q), r)) == "(p >< q) >< r"
        assert render(Compat(p, Compat(q, r))) == "p >< (q >< r)"

    def test_sequent(self):
        assert render_sequent(Sequent((), Imp(p, Imp(q, p)))) == "|- p -> q -> p"
        assert render_sequent(Sequent((q, p), q)) == "q, p |- q"

    @given(formula_strategy)
    @settings(max_examples=300)
    def test_round_trip(self, f):
        assert parse_formula(render(f), corpus_signature()) == f

    def test_round_trip_seeded_corpus(self):
        rng = random.Random(7)
        sig = corpus_signature()
        for _ in range(500):
            f = random_formula(rng, depth=rng.randrange(8))
            assert parse_formula(render(f), sig) == f
