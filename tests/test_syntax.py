import copy
import dataclasses
import gc
import os
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings

from conftest import corpus_signature, formula_strategy, random_formula, written_alike
from orthoproof.kernel import check_inference
from orthoproof.lattice import by_name
from orthoproof import script, syntax
from orthoproof.semantics import validate_sequent
from orthoproof.syntax import (
    And, App, Atom, Compat, Const, Exists, Forall, Imp, Letter, Neg, Or,
    ParseError, Sequent, Signature, SignatureError, Var,
    _Parser, alpha_key, children, expand, is_nonduplicating,
    parse_formula, parse_sequent, parse_term, render, render_sequent,
    substitute, unfold,
)

p, q, r = Letter("p"), Letter("q"), Letter("r")
x, y = Var("x"), Var("y")


class TestParsing:
    def test_precedence(self):
        assert written_alike(parse_formula("~p /\\ q -> r"), Imp(And(Neg(p), q), r))
        assert written_alike(parse_formula("p -> q -> p"), Imp(p, Imp(q, p)))
        assert written_alike(parse_formula("p \\/ q /\\ r"), Or(p, And(q, r)))
        assert written_alike(parse_formula("p >< q \\/ r"), Compat(p, Or(q, r)))
        assert written_alike(parse_formula("p >< q -> r"), Imp(Compat(p, q), r))

    def test_quantifier_body_extends_right(self):
        f = parse_formula("forall x. R(x) >< S(x)")
        assert written_alike(f, Forall(x, Compat(Atom("R", (x,)), Atom("S", (x,)))))
        g = parse_formula("~forall x. R(x) /\\ p")
        assert written_alike(g, Neg(Forall(x, And(Atom("R", (x,)), p))))
        h = parse_formula("(forall x. R(x)) /\\ p")
        assert written_alike(h, And(Forall(x, Atom("R", (x,))), p))

    def test_sequents(self):
        s = parse_sequent("p, p -> q |- q")
        assert written_alike(s, Sequent((p, Imp(p, q)), q))
        assert written_alike(parse_sequent("|- p -> (q -> p)"), Sequent((), Imp(p, Imp(q, p))))
        # antecedent order is meaningful and must be preserved
        assert parse_sequent("q, p |- q").antecedent == (q, p)

    def test_comments_and_whitespace(self):
        assert written_alike(parse_formula("p   ->\n\t q # trailing comment"), Imp(p, q))
        assert written_alike(parse_sequent("# leading\n p |- p"), Sequent((p,), p))

    def test_primed_identifiers(self):
        assert written_alike(parse_formula("p' /\\ p''"), And(Letter("p'"), Letter("p''")))

    def test_constants_versus_variables(self):
        sig = Signature()
        sig.declare_constant("c")
        f = parse_formula("R(c, x)", sig)
        assert written_alike(f, Atom("R", (Const("c"), Var("x"))))
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

    def test_signature_redeclaration(self):
        sig = Signature()
        sig.declare_relation("R", ("_",))
        with pytest.raises(SignatureError):
            sig.declare_relation("R", ("_", "_"))

    def test_parse_term(self):
        sig = Signature()
        sig.declare_constant("c")
        assert parse_term("g(f(x),c)", sig) == App("g", (App("f", (Var("x"),)), Const("c")))


def _memo_free(sig):
    """A copy of ``sig`` with the same tables and an empty memo."""
    return Signature(**{k: copy.copy(v) for k, v in vars(sig).items() if k != "parsed"})


def _generated_script(seed, theorems=4, lines=15):
    """Seeded script text whose lines restate contexts drawn from a small pool,
    as real scripts do; its steps only need to parse."""
    rng = random.Random(seed)
    out = []
    for k in range(theorems):
        pool = [render(random_formula(rng, depth=rng.randrange(5))) for _ in range(6)]
        seq = lambda: ", ".join(rng.sample(pool, rng.randint(0, 3))) + " |- " + rng.choice(pool)
        out += [f"theorem t{k} mode=NOM_Q", f"hyp h: {seq()}", f"goal: {seq()}"]
        out += [f"{n}: {seq()} by assume" for n in range(1, lines + 1)]
        out.append("qed")
    return "\n".join(out)


class TestParseMemo:
    def test_memoised_parses_are_the_nodes_a_fresh_parse_builds(self, monkeypatch):
        proofs = os.path.join(os.path.dirname(__file__), os.pardir, "proofs")
        files = [(open(os.path.join(proofs, n)).read(), Signature())
                 for n in sorted(os.listdir(proofs)) if n.endswith(".nom")]
        files.append((_generated_script(11), corpus_signature()))
        real, texts = script.parse_sequent, []

        def differential(text, sig):
            want = real(text, _memo_free(sig))
            got = real(text, sig)
            assert got.succedent is want.succedent, text
            assert len(got.antecedent) == len(want.antecedent), text
            assert all(f is g for f, g in zip(got.antecedent, want.antecedent)), text
            texts.append(text)
            return got

        monkeypatch.setattr(script, "parse_sequent", differential)
        for text, sig in files:
            script.parse_script_file(text, sig)
            assert any(type(k) is str for k in sig.parsed)
            assert any(type(k) is tuple for k in sig.parsed)
        assert len(texts) > len(set(texts))  # the memo answered some of them

    def test_a_declared_constant_is_read_as_one_after_a_parse(self):
        sig = Signature()
        assert type(parse_sequent("R(c) |- R(c)", sig).succedent.args[0]) is Var
        sig.declare_constant("c")
        s = parse_sequent("R(c) |- R(c)", sig)
        assert type(s.succedent.args[0]) is Const
        assert type(s.antecedent[0].args[0]) is Const

    def test_a_declared_relation_shadows_a_parsed_letter(self):
        sig = Signature()
        parse_sequent("p |- p", sig)
        sig.declare_relation("p", ("_",))
        with pytest.raises(ParseError) as fresh:
            parse_sequent("p |- p", _memo_free(sig))
        with pytest.raises(ParseError) as memo:
            parse_sequent("p |- p", sig)
        assert (str(memo.value), memo.value.pos) == (str(fresh.value), fresh.value.pos)
        assert "relation p used without arguments" in str(memo.value)

    @pytest.mark.parametrize("text", [
        "p |- q )", "p, R(x |- p", "p |- ", "R(x), R(x, y) |- p", "p, q", "p |- q @",
    ])
    def test_a_failure_is_raised_again_and_never_memoised(self, text):
        sig = Signature()
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as e:
                parse_sequent(text, sig)
            errors.append((str(e.value), e.value.pos))
        assert errors[0] == errors[1]
        assert sig.parsed == {}


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
    def test_past_the_limit_is_refused_on_every_call(self, kind):
        # the chains parse without recursion and fail only at the height check
        sig, text = Signature(), _nested(kind, _Parser.MAX_NESTING + 1)
        for _ in range(3):
            with pytest.raises(ParseError, match="nested deeper than"):
                parse_sequent(text, sig)
        assert sig.parsed == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_at_the_limit_every_later_walk_is_safe(self, kind):
        s = parse_sequent(_nested(kind, _Parser.MAX_NESTING))
        f = s.antecedent[0]
        assert written_alike(parse_sequent(render_sequent(s)), s)
        assert alpha_key(expand(f)) == alpha_key(expand(parse_formula(render(f))))
        assert substitute(f, "x", Var("y")) is not None
        assert check_inference("assume", [], Sequent((f,), f), "NOM_q") is None
        if kind not in ("forall", "term"):
            assert validate_sequent(s, by_name("MO2")) is not None


class TestExpand:
    def test_or(self):
        assert written_alike(expand(Or(p, q)), Neg(And(Neg(p), Neg(q))))

    def test_compat(self):
        assert written_alike(expand(Compat(p, q)), And(Imp(p, Imp(q, p)), Imp(q, Imp(p, q))))

    def test_exists(self):
        R = Atom("R", (x,))
        assert written_alike(expand(Exists(x, R)), Neg(Forall(x, Neg(R))))

    def test_nested(self):
        f = expand(Imp(Or(p, q), Compat(q, r)))
        assert written_alike(f.left, Neg(And(Neg(p), Neg(q))))
        assert isinstance(f.right, And)

    @given(formula_strategy)
    def test_idempotent_and_free_preserving(self, f):
        e = expand(f)
        assert written_alike(expand(e), e)
        assert e.free == f.free

    def test_unfold_rewrites_one_level_over_the_operands_as_written(self):
        a, b = Or(p, q), Exists(x, Atom("R", (x,)))
        assert unfold(Compat(a, b)) is And(Imp(a, Imp(b, a)), Imp(b, Imp(a, b)))
        assert unfold(Or(a, b)) is Neg(And(Neg(a), Neg(b)))
        assert unfold(Exists(x, a)) is Neg(Forall(x, Neg(a)))
        for f in (p, Neg(a), And(a, b), Imp(a, b), Forall(x, a)):
            assert unfold(f) is f

    @given(formula_strategy)
    def test_expand_is_unfold_applied_throughout(self, f):
        assert expand(unfold(f)) is expand(f)


class TestSubstitution:
    def test_basic(self):
        c = Const("c")
        f = Forall(y, Atom("R", (x, y)))
        assert written_alike(substitute(f, x, c), Forall(y, Atom("R", (c, y))))

    def test_bound_variable_untouched(self):
        f = Forall(x, Atom("R", (x,)))
        assert substitute(f, x, Const("c")) is f

    def test_capture_avoidance(self):
        f = Forall(y, Atom("R", (x, y)))
        g = substitute(f, x, App("f", (y,)))
        # the binder is renamed so the substituted y stays free
        assert g.var.name != "y"
        assert g.free == {"y"}
        assert written_alike(g, Forall(Var("u"), Atom("R", (App("f", (y,)), Var("u")))))

    def test_sort_mismatch(self):
        with pytest.raises(SignatureError):
            substitute(Atom("R", (Var("x", "s1"),)), Var("x", "s1"), Const("c", "s2"))

    @given(formula_strategy)
    def test_identity_substitution(self, f):
        for name in f.free:
            assert written_alike(substitute(f, name, Var(name)), f)


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


def _compat_chain(depth, f=p):
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
                # start unkeyed: hash-consing shares small sub-formulas such as
                # p -> (r -> p) with any that earlier tests keyed and still hold
                vars(f).pop("_canon", None)
        calls = []
        key = syntax._canon

        def counting(f, env, depth):
            calls.append(id(f))
            return key(f, env, depth)

        monkeypatch.setattr(syntax, "_canon", counting)
        alpha_key(e)
        assert set(calls) == nodes
        assert len(calls) <= 2 * len(nodes) + 1

    def test_below_a_binder_each_distinct_node_is_keyed_once(self, monkeypatch):
        # the same count as above, for an open chain under a binder: its nodes
        # carry no cached key, so the walk's own memo must meet each one once
        e = expand(Forall(x, _compat_chain(12, Atom("R", (x,)))))
        nodes, stack = set(), [e]
        while stack:
            f = stack.pop()
            if id(f) not in nodes:
                nodes.add(id(f))
                stack.extend(children(f) if not isinstance(f, Atom) else ())  # no terms
        calls, key = [], syntax._canon

        def counting(f, env, depth):
            calls.append(id(f))
            return key(f, env, depth)

        monkeypatch.setattr(syntax, "_canon", counting)
        alpha_key(e)
        assert set(calls) == nodes
        assert len(calls) <= 2 * len(nodes) + 1

    def test_alpha_variants_of_a_deep_universal_compare_in_linear_time(self):
        # R(v) >< (R(v) >< ... R(v)) nested 14 deep under forall v: keyed as a
        # tree, or compared as two trees of tuples, this takes minutes
        def chain(v, last):
            f = last
            for _ in range(14):
                f = Compat(Atom("R", (v,)), f)
            return expand(Forall(v, f))

        start = time.perf_counter()
        fx, fy = chain(x, Atom("R", (x,))), chain(y, Atom("R", (y,)))
        assert alpha_key(fx) is alpha_key(fy) and fx == fy
        assert fx != chain(y, Atom("R", (x,)))
        assert time.perf_counter() - start < 1

    def test_letters_and_hash_of_a_deep_expansion_take_linear_time(self):
        # >< nested 24 deep: walked as trees, letters and hash grow about 3x a
        # level (14 deep took seconds)
        start = time.perf_counter()
        assert expand(_compat_chain(24)).letters == {"p", "q", "r"}
        fx = expand(Forall(x, _compat_chain(24, Atom("R", (x,)))))
        fy = expand(Forall(y, _compat_chain(24, Atom("R", (y,)))))
        assert fx is not fy and hash(fx) == hash(fy) and fx == fy
        assert len({fx, fy, expand(_compat_chain(24))}) == 2
        assert time.perf_counter() - start < 1

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
        assert a == b
        assert expand(a) is expand(b)

    def test_bound_names_are_kept(self):
        f, g = parse_formula("forall x. R(x)"), parse_formula("forall y. R(y)")
        assert f == g
        assert f is not g
        assert (render(f), render(g)) == ("forall x. R(x)", "forall y. R(y)")

    def test_derived_connectives_are_kept(self):
        f = parse_formula("p \\/ q")
        assert f == expand(f) and hash(f) == hash(expand(f))
        assert f is not expand(f)
        assert render(f) == "p \\/ q"
        assert render(expand(f)) == "~(~p /\\ ~q)"

    def test_copies_made_without_the_constructor_stay_equal(self):
        f = parse_formula("forall x. R(x) >< p")
        g = copy.deepcopy(f)
        assert g is f
        assert g == f and hash(g) == hash(f)
        assert pickle.loads(pickle.dumps(f)) is f

    def test_intern_table_holds_no_formula_alive(self):
        gc.collect()
        before = len(syntax._INTERNED)
        fs = [And(Letter(f"fresh{i}"), Neg(Letter(f"fresh{i}"))) for i in range(10_000)]
        assert len(syntax._INTERNED) == before + 30_000
        del fs
        gc.collect()
        assert len(syntax._INTERNED) == before

    def test_equal_distinct_strings_give_one_node(self):
        name = "".join(["p", "0"])  # equal to "p0", and a distinct object
        assert Letter(name) is Letter("p0")
        args = tuple([Var("".join(["x", "1"]))])
        assert Atom("R", args) is Atom("R", (Var("x1"),))

    def test_every_class_interns(self):
        fc = App("f", (Const("c"), App("g", (x,))))
        for make in (lambda: Letter("p"), lambda: Atom("R", (fc, y)), lambda: Neg(p),
                     lambda: And(p, q), lambda: Imp(p, q), lambda: Or(p, q),
                     lambda: Compat(p, q), lambda: Forall(x, Atom("R", (x,))),
                     lambda: Exists(x, Atom("R", (fc, x)))):
            assert make() is make()
        nodes = [Or(p, q), Compat(p, q), And(p, q), Imp(p, q)]
        assert len({id(n) for n in nodes}) == 4  # the class is part of the key
        assert Forall(x, Atom("R", (x,))) is not Exists(x, Atom("R", (x,)))

    def test_formula_fields_key_by_identity(self):
        # alpha-variants are equal distinct nodes, so nodes over them are too
        fx, fy = parse_formula("forall x. R(x)"), parse_formula("forall y. R(y)")
        assert fx == fy and fx is not fy
        assert Neg(fx) is not Neg(fy) and Neg(fx) == Neg(fy)
        assert And(fx, p) is not And(fy, p) and And(fx, p) == And(fy, p)
        assert Forall(y, fx) is not Forall(y, fy) and Forall(y, fx) == Forall(y, fy)

    def test_a_binary_node_keys_on_both_children(self):
        assert And(p, q) is not And(p, r)
        assert And(p, q) is not And(r, q)
        assert And(p, q) is not And(q, p)
        assert Imp(p, And(p, q)) is not Imp(p, And(p, r))

    def test_keyword_fields_give_the_positional_node(self):
        fx = Forall(x, Atom("R", (x,)))
        assert Letter(name="p") is Letter("p") is p
        assert Atom(name="R", args=(x,)) is Atom("R", (x,))
        assert Atom("R", args=(x,)) is Atom("R", (x,))
        assert Neg(sub=p) is Neg(p)
        assert Imp(p, right=q) is Imp(p, q) is Imp(right=q, left=p)
        assert Forall(body=fx.body, var=x) is fx
        assert dataclasses.replace(And(p, q), right=r) is And(p, r)
        assert dataclasses.replace(fx, var=y) is Forall(y, fx.body)

    @pytest.mark.parametrize("make", [
        lambda: Letter(nam="p"), lambda: Letter("p", name="p"), lambda: And(p, left=q),
        lambda: Neg(), lambda: Neg(p, q), lambda: And(p), lambda: Forall(x),
    ])
    def test_bad_fields_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_a_late_callback_leaves_a_key_that_holds_a_new_node(self):
        f = And(Letter("late0"), Letter("late1"))
        key = (And, id(f.left), id(f.right))
        live = syntax._INTERNED[key]
        stale = syntax._Ref(Letter("late2"))
        stale.key = key
        stale.drop()  # as if an earlier node under this key died only now
        assert syntax._INTERNED[key] is live and live() is f
        del f
        gc.collect()
        assert key not in syntax._INTERNED

    def test_nonduplication_is_set_when_each_node_is_built(self, monkeypatch):
        calls = []
        check = syntax.is_nonduplicating
        monkeypatch.setattr(syntax, "is_nonduplicating", lambda g: calls.append(g) or check(g))
        f = expand(_compat_chain(12, Atom("R", (x, y))))
        g = And(f, Atom("R", (x, x)))
        assert calls == []  # building asks no question
        assert syntax.is_nonduplicating(f) and not syntax.is_nonduplicating(g)
        assert calls == [f, g]  # and a question is one read, not a walk


class TestSequentRecord:
    def test_a_list_antecedent_is_stored_as_a_tuple(self):
        ante = [p, q]
        s = Sequent(ante, r)
        assert type(s.antecedent) is tuple and s.antecedent == (p, q)
        ante[0] = r
        assert s.antecedent == (p, q)
        assert Sequent([p], q) == Sequent((p,), q)
        assert hash(Sequent([p], q)) == hash(Sequent((p,), q))
        assert Sequent(antecedent=[p], succedent=q) == Sequent((p,), q)

    @pytest.mark.parametrize("name", ["antecedent", "succedent"])
    def test_fields_cannot_be_assigned(self, name):
        s = Sequent((p,), q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, r)
        assert s == Sequent((p,), q)

    def test_copy_and_replace_give_an_equal_record(self):
        s = Sequent((p, Imp(p, q)), q)
        for c in (copy.copy(s), dataclasses.replace(s), copy.deepcopy(s),
                  pickle.loads(pickle.dumps(s))):
            assert c == s and hash(c) == hash(s)
            assert type(c.antecedent) is tuple
        t = dataclasses.replace(s, antecedent=[q])
        assert type(t.antecedent) is tuple and t == Sequent((q,), q)


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
        assert written_alike(g, f)
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
        assert written_alike(parse_formula(render(f), corpus_signature()), f)

    def test_round_trip_seeded_corpus(self):
        rng = random.Random(7)
        sig = corpus_signature()
        for _ in range(500):
            f = random_formula(rng, depth=rng.randrange(8))
            assert written_alike(parse_formula(render(f), sig), f)


def test_nodes_know_their_height():
    t = App("g", (App("f", (x,)), Const("c")))
    assert (x.height, Const("c").height, t.height) == (1, 1, 3)
    assert (p.height, Atom("R", (t,)).height, Atom("R", ()).height) == (1, 4, 1)
    f = Forall(x, Imp(Neg(p), Atom("R", (t,))))
    assert f.height == 6
    # the height is the number of layers the former parser walked
    layer, layers = [f], 0
    while layer:
        layer, layers = [k for g in layer for k in children(g)], layers + 1
    assert layers == f.height


def _ref_occurrences(t):
    """The variable names of a term in order, repeats included, as a tree walk."""
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, App):
        return [n for a in t.args for n in _ref_occurrences(a)]
    return []


def _ref_facts(f):
    """(free, height, letters, nonduplicating) of a formula, walked as a tree."""
    if isinstance(f, Letter):
        return set(), 1, {f.name}, True
    if isinstance(f, Atom):
        names = [n for t in f.args for n in _ref_occurrences(t)]
        return (set(names), 1 + max((_ref_height(t) for t in f.args), default=0), set(),
                len(names) == len(set(names)))
    if isinstance(f, (Forall, Exists)):
        free, height, ls, nd = _ref_facts(f.body)
        return free - {f.var.name}, 1 + height, ls, nd
    subs = [_ref_facts(g) for g in ((f.sub,) if isinstance(f, Neg) else (f.left, f.right))]
    return (set().union(*(s[0] for s in subs)), 1 + max(s[1] for s in subs),
            set().union(*(s[2] for s in subs)), all(s[3] for s in subs))


def _ref_height(t):
    return 1 + max((_ref_height(a) for a in getattr(t, "args", ())), default=0)


def _facts(f):
    return f.free, f.height, f.letters, f.nonduplicating


def _all_nodes(f):
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(children(g) if not isinstance(g, Atom) else ())
    return out


class TestFactsAtConstruction:
    """Each node's facts, set when it is built from its children's, equal a
    walk of its whole tree; so does each term's ``free``."""

    def check(self, f):
        for g in _all_nodes(f):
            assert _facts(g) == _ref_facts(g), render(g)
            for t in getattr(g, "args", ()):
                assert t.free == set(_ref_occurrences(t)), render(g)

    def test_examples(self):
        fx = App("f", (x,))
        cases = [
            (Atom("R", (App("g", (fx, x)),)), {"x"}, False),   # a repeat inside one App
            (Atom("R", (App("g", (fx, y)),)), {"x", "y"}, True),
            (Atom("S", (App("g", (App("f", (fx,)), Const("c"))), x)), {"x"}, False),
            (Atom("S", (App("g", (x, Const("c"))), y)), {"x", "y"}, True),
            (And(Atom("R", (x,)), Forall(x, Atom("S", (x, y)))), {"x", "y"}, True),
            (Forall(x, Imp(Atom("R", (x,)), Forall(x, Atom("R", (x,))))), set(), True),
            (Forall(x, And(p, Exists(y, Atom("S", (y, App("f", (y,))))))), set(), False),
            (Compat(Atom("R", (x, x)), Atom("R", (y,))), {"x", "y"}, False),
            (Compat(Atom("R", (y,)), Atom("R", (x, x))), {"x", "y"}, False),
            (Or(Neg(q), Forall(y, Atom("R", (y,)))), set(), True),
        ]
        for f, free, nd in cases:
            assert (f.free, f.nonduplicating, is_nonduplicating(f)) == (free, nd, nd), render(f)
            self.check(f)
            self.check(expand(f))
        assert Or(Neg(q), Compat(p, Atom("R", ()))).letters == {"p", "q"}

    @given(formula_strategy)
    @settings(max_examples=300)
    def test_every_node_agrees_with_a_tree_walk(self, f):
        self.check(f)
        self.check(expand(f))
        self.check(alpha_key(f))

    def test_seeded_corpus_and_copies(self):
        rng = random.Random(22)
        for _ in range(300):
            f = random_formula(rng, depth=rng.randrange(8))
            self.check(f)
            for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert g is f and _facts(g) == _ref_facts(f)
        # rebuilt after the originals are gone, the facts are computed afresh
        data = [pickle.dumps(random_formula(rng, depth=6)) for _ in range(50)]
        gc.collect()
        for blob in data:
            self.check(pickle.loads(blob))
        t = App("g", (App("f", (x,)), x))
        for u in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert u == t and u.free == {"x"} and u.height == 3


# ---------------------------------------------------------------------------
# the former parser, kept as the reference of the differential test below:
# one re.match per token, one method per precedence level, and a walk of the
# parsed tree layer by layer for the nesting limit

_REF_TOKEN_RE = re.compile(r"\s+|#[^\n]*|(\|-|->|/\\|\\/|><|[~(),.])|([A-Za-z_][A-Za-z0-9_']*)")
_REF_KEYWORDS = {"forall", "exists"}


def _ref_tokenize(text):
    toks, i = [], 0
    while i < len(text):
        m = _REF_TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.group(1):
            toks.append((m.group(1), i))
        elif m.group(2):
            toks.append((m.group(2), i))
        i = m.end()
    toks.append((None, len(text)))
    return toks


class _RefParser:
    MAX_NESTING = 100
    TOO_DEEP = f"nested deeper than {MAX_NESTING} levels"

    def __init__(self, text, sig):
        self.toks = _ref_tokenize(text)
        self.i = 0
        self.sig = sig
        self.bound = []
        self.level = 0

    def peek(self):
        return self.toks[self.i][0]

    def pos(self):
        return self.toks[self.i][1]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok[0]

    def expect(self, tok):
        if self.peek() != tok:
            found = self.peek() if self.peek() is not None else "end of input"
            raise ParseError(f"expected {tok!r}, found {found!r}", self.pos())
        return self.take()

    def nested(self, parse):
        if self.level == self.MAX_NESTING:
            raise ParseError(self.TOO_DEEP, self.pos())
        self.level += 1
        value = parse()
        self.level -= 1
        return value

    def ident(self, what="identifier"):
        tok = self.peek()
        if tok is None or not tok[0].isalpha() and tok[0] != "_" or tok in _REF_KEYWORDS:
            raise ParseError(f"expected {what}", self.pos())
        return self.take()

    def formula(self):
        left = self.cmpterm()
        if self.peek() == "->":
            self.take()
            return Imp(left, self.nested(self.formula))
        return left

    def cmpterm(self):
        left = self.orterm()
        if self.peek() == "><":
            self.take()
            return Compat(left, self.orterm())
        return left

    def orterm(self):
        f = self.andterm()
        while self.peek() == "\\/":
            self.take()
            f = Or(f, self.andterm())
        return f

    def andterm(self):
        f = self.unary()
        while self.peek() == "/\\":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self):
        if self.peek() == "~":
            self.take()
            return Neg(self.nested(self.unary))
        return self.atom()

    def atom(self):
        tok, pos = self.peek(), self.pos()
        if tok == "(":
            self.take()
            f = self.nested(self.formula)
            self.expect(")")
            return f
        if tok in _REF_KEYWORDS:
            self.take()
            v = Var(self.ident("variable"))
            self.expect(".")
            self.bound.append(v.name)
            body = self.nested(self.formula)
            self.bound.pop()
            return (Forall if tok == "forall" else Exists)(v, body)
        name = self.ident("formula")
        if self.peek() != "(":
            # the former Signature._letter, which built the node on every use
            if name in self.sig.relations:
                raise ParseError(f"relation {name} used without arguments", pos)
            self.sig.letters[name] = Letter(name)
            return Letter(name)
        args = self.term_args()
        try:
            prof = self.sig._relation(name, len(args))
        except SignatureError as e:
            raise ParseError(str(e), pos) from None
        self._check_sorts(prof, args, name, pos)
        return Atom(name, args)

    def term_args(self):
        self.expect("(")
        args = [self.term()]
        while self.peek() == ",":
            self.take()
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self):
        pos = self.pos()
        name = self.ident("term")
        if self.peek() == "(":
            args = self.nested(self.term_args)
            try:
                prof = self.sig._function(name, len(args))
            except SignatureError as e:
                raise ParseError(str(e), pos) from None
            self._check_sorts(prof[0], args, name, pos)
            return App(name, args, prof[1])
        if name not in self.bound and name in self.sig.constants:
            return Const(name, self.sig.constants[name])
        return Var(name)

    def _check_sorts(self, declared, args, name, pos):
        for want, arg in zip(declared, args):
            if not syntax._sorts_fit(want, arg.sort):
                raise ParseError(
                    f"{arg.sort}-sorted argument where {name} wants {want}", pos)

    def sequent(self):
        ante = []
        if self.peek() != "|-":
            ante.append(self.formula())
            while self.peek() == ",":
                self.take()
                ante.append(self.formula())
        self.expect("|-")
        return Sequent(tuple(ante), self.formula())

    def finish(self, value):
        if self.peek() is not None:
            raise ParseError(f"unexpected {self.peek()!r}", self.pos())
        layer = [*value.antecedent, value.succedent] if isinstance(value, Sequent) else [value]
        for _ in range(self.MAX_NESTING + 1):
            if not layer:
                return value
            layer = [k for x in layer for k in children(x)]
        raise ParseError(self.TOO_DEEP, self.pos())


def _ref_parse(kind, text, sig):
    p = _RefParser(text, sig)
    return p.finish(getattr(p, kind)())


# random token strings: well-formed ones from a small grammar, some of them
# edited by a token, and token soup

_SOUP = ["p", "q", "p'", "_r", "R", "S", "T", "U", "f", "g", "h", "c", "d", "x", "y",
         "forall", "exists", "~", "/\\", "\\/", "->", "><", "|-", "(", ")", ",", "."]
_ODD = ["@", "$", "1", "'", "-", "|", "<", ">", "/", "\\", "é", "#", "# note\n"]
_SEPARATORS = [" ", " ", " ", "", "\n", "\t", " #~@|-\n"]


def _fuzz_signature():
    sig = Signature()
    sig.declare_constant("c")
    sig.declare_constant("d", "t")
    sig.declare_relation("R", ("_",))
    sig.declare_relation("S", ("s", "_"))
    sig.declare_function("f", ("_",), "s")
    sig.declare_function("g", ("t", "_"))
    return sig


def _fuzz_term(rng, d):
    r = rng.random()
    if d == 0 or r < 0.5:
        return [rng.choice(["x", "y", "c", "d", "R", "p"])]
    # the last pair of each list breaks the declared arity
    name, arity = rng.choices([("f", 1), ("g", 2), ("h", 1), ("f", 2)], (8, 4, 2, 1))[0]
    out = [name, "("]
    for k in range(arity):
        out += ([","] if k else []) + _fuzz_term(rng, d - 1)
    return out + [")"]


def _fuzz_formula(rng, d):
    r = rng.random()
    if d == 0 or r < 0.25:
        if rng.random() < 0.6:
            return [rng.choice(["p", "q", "p'", "_r", "f", "x"])]
        name, arity = rng.choices([("R", 1), ("S", 2), ("T", 1), ("U", 2), ("R", 2)],
                                  (4, 4, 4, 2, 1))[0]
        out = [name, "("]
        for k in range(arity):
            out += ([","] if k else []) + _fuzz_term(rng, 2)
        return out + [")"]
    sub = lambda: _fuzz_formula(rng, d - 1)
    kind = rng.randrange(6)
    if kind == 0:
        return ["~"] * rng.randint(1, 3) + sub()
    if kind == 1:
        return sub() + [rng.choice(["/\\", "\\/", "->", "><"])] + sub()
    if kind == 2:
        return ["("] + sub() + [")"]
    if kind == 3:
        return [rng.choice(["forall", "exists"]), rng.choice(["x", "y", "c"]), "."] + sub()
    if kind == 4:  # a chain of one connective, >< included
        op = rng.choice(["/\\", "\\/", "->", "><"])
        out = sub()
        for _ in range(rng.randint(2, 4)):
            out += [op] + sub()
        return out
    return sub() + ["/\\"] + sub() + ["\\/"] + sub()


def _fuzz_deep(rng):
    depth = rng.randint(97, 103)
    kind = rng.choice(["neg", "parens", "and", "imp", "forall", "term"])
    return _nested(kind, depth).split(" |- ")[0]


def _fuzz_text(rng, kind):
    r = rng.random()
    if r < 0.02:
        text = _fuzz_deep(rng)
        return text if kind == "formula" else text + " |- p"
    if r < 0.12:
        return "".join(rng.choice(_SOUP + _ODD) + rng.choice(_SEPARATORS)
                       for _ in range(rng.randint(0, 8)))
    if kind == "term":
        toks = _fuzz_term(rng, 3)
    elif kind == "formula":
        toks = _fuzz_formula(rng, 3)
    else:
        toks = []
        for k in range(rng.randint(0, 3)):
            toks += ([","] if k else []) + _fuzz_formula(rng, 2)
        toks += ["|-"] + _fuzz_formula(rng, 3)
    if rng.random() < 0.5:  # an edit: delete, replace or insert one token
        i = rng.randrange(len(toks) + 1)
        new = rng.choice(_SOUP + _ODD)
        edit = rng.randrange(3)
        if edit == 0 and i < len(toks):
            del toks[i]
        elif edit == 1 and i < len(toks):
            toks[i] = new
        else:
            toks.insert(i, new)
    return "".join(t + rng.choice(_SEPARATORS) for t in toks)


def _outcome(parse, text, sig):
    try:
        return parse(text, sig), None
    except ParseError as e:
        return None, (str(e), e.pos)


def _same_value(a, b):
    if isinstance(a, Sequent):
        return (len(a.antecedent) == len(b.antecedent) and a.succedent is b.succedent
                and all(f is g for f, g in zip(a.antecedent, b.antecedent)))
    if isinstance(a, syntax.Formula):
        return a is b
    return type(a) is type(b) and a == b


def test_parser_matches_the_former_parser_on_random_token_strings():
    rng = random.Random(2024)
    public = {"formula": parse_formula, "sequent": parse_sequent, "term": parse_term}
    seen, texts = set(), 0
    while texts < 20_000:
        new_sig, ref_sig = _fuzz_signature(), _fuzz_signature()
        for second in range(rng.randint(1, 2)):  # the second sees what the first declared
            if second and rng.random() < 0.3:
                # a letter of the first text may become a relation
                for s in (new_sig, ref_sig):
                    if "p" not in s.relations:
                        s.declare_relation("p", ("_",))
            texts += 1
            kind = rng.choice(("formula", "sequent", "sequent", "term"))
            text = _fuzz_text(rng, kind)
            got, err = _outcome(public[kind], text, new_sig)
            want, ref_err = _outcome(lambda t, s: _ref_parse(kind, t, s), text, ref_sig)
            assert err == ref_err, text
            assert err is not None or _same_value(got, want), text
            assert list(new_sig.letters) == list(ref_sig.letters), text
            assert all(new_sig.letters[n] is ref_sig.letters[n] for n in new_sig.letters)
            assert (new_sig.relations, new_sig.functions) == (ref_sig.relations,
                                                              ref_sig.functions), text
            seen.add("ok" if err is None else " ".join(err[0].split()[:2]))
    # the fuzz reaches acceptance and every kind of rejection
    assert {"ok", "unexpected character", "unexpected '><'", "expected ')',",
            "expected term", "expected variable", "nested deeper", "relation p",
            "relation R", "s-sorted argument", "t-sorted argument", "function f",
            "f already"} <= seen, seen


@pytest.mark.parametrize("text", [
    " /\\ ".join(["p"] * 10_001),
    " \\/ ".join(["p"] * 10_001),
    " -> ".join(["p"] * 10_001),
    "~" * 10_000 + "p",
])
def test_ten_thousand_link_chains_are_refused_without_recursion(text):
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_formula(text)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_sequent(f"p, {text} |- p")
