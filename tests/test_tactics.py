import collections
import dataclasses
import hashlib
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONST_NAMES, VAR_NAMES, corpus_signature, formula_strategy, propositional_strategy,
    written_alike,
)
from orthoproof import tactics
from orthoproof.kernel import (
    PREMISE_COUNTS, Derivation, _preorder, check_derivation, check_inference, hyp,
)
from orthoproof.lattice import by_name
from orthoproof.semantics import Interpretation, sequent_letters, sequent_true
from orthoproof.syntax import (
    And, Atom, Compat, Const, Exists, Forall, Imp, Letter, Neg, Sequent, Signature, Var,
    children, parse_formula, parse_sequent, parse_term, render, substitute,
)
from orthoproof.tactics import (
    TacticError, catalog, derive, infer_conclusion, lookup, match_and_build,
)

S = parse_sequent

ALL_IDS = [e.id for e in catalog()]
BASE_IDS = [e.id for e in catalog() if e.matcher is None]
QUANT_IDS = [e.id for e in catalog() if e.matcher is not None]


def fresh_inst(entry, glen, dlen=0):
    inst = {v: Letter(f"m{i}") for i, v in enumerate(entry.variables)}
    inst["gamma"] = tuple(Letter(f"g{i}") for i in range(glen))
    inst["delta"] = tuple(Letter(f"d{i}") for i in range(dlen))
    return inst


def build_and_check(entry, glen, dlen=0):
    inst = fresh_inst(entry, glen, dlen)
    prem_seqs, concl = entry.instantiate(inst)
    d = derive(entry.id, inst, prem_seqs)
    assert written_alike(d.conclusion, concl)
    failure = check_derivation(d, entry.modes[0], hypotheses=prem_seqs)
    assert failure is None, (entry.id, failure)
    return d, prem_seqs, concl


def distinct_nodes(d):
    seen, stack = set(), [d]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        stack.extend(n.premises)
    return len(seen)


class TestCatalogShape:
    def test_enough_entries(self):
        assert len(ALL_IDS) >= 45

    def test_ids_unique(self):
        assert len(set(ALL_IDS)) == len(ALL_IDS)

    def test_every_entry_documented(self):
        for e in catalog():
            assert e.locus.strip()
            assert e.modes and e.modes[0] in ("NOM", "NOM_E", "NOM_Q")

    def test_quantifier_entries_gated_to_predicate_modes(self):
        for eid in QUANT_IDS:
            assert lookup(eid).modes == ("NOM_Q", "NOM_q")

    def test_classical_entries_gated_to_nom_e(self):
        for eid in ("T3.2.AX1", "T3.2.AX2", "T3.2.AX3", "T3.2.AX6"):
            assert lookup(eid).modes == ("NOM_E",)


class TestEveryEntryBuilds:
    @pytest.mark.parametrize("eid", BASE_IDS)
    @pytest.mark.parametrize("glen", [0, 1, 2])
    def test_builds_and_checks(self, eid, glen):
        build_and_check(lookup(eid), glen)

    @pytest.mark.parametrize("eid", BASE_IDS)
    def test_round_trip_through_matcher(self, eid):
        # the matcher must rediscover the instantiation from sequents alone
        entry = lookup(eid)
        inst = fresh_inst(entry, 2)
        prem_seqs, concl = entry.instantiate(inst)
        d = match_and_build(eid, tuple(hyp(s) for s in prem_seqs), concl,
                            entry.modes[0])
        assert written_alike(d.conclusion, concl)
        assert check_derivation(d, entry.modes[0], hypotheses=prem_seqs) is None


class TestTrailingContextRecursion:
    @pytest.mark.parametrize("eid", ["T2.6.cut", "T2.6.paste", "T2.6.lem",
                                     "T2.6.explode_l", "T2.6.contract"])
    def test_delta_grows_the_tree(self, eid):
        entry = lookup(eid)
        sizes = []
        for dlen in (0, 1, 2, 3):
            d, _, _ = build_and_check(entry, 1, dlen)
            sizes.append(distinct_nodes(d))
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_delta_lands_after_the_active_formulas(self):
        entry = lookup("T2.6.cut")
        inst = fresh_inst(entry, 1, 2)
        prem_seqs, concl = entry.instantiate(inst)
        assert concl.antecedent[-2:] == inst["delta"]


class TestSharedSubtrees:
    def test_heavy_entries_stay_small(self):
        # equivalence chains reuse whole subderivations, and the pure
        # sub-lemmas are built once at the empty context and weakened
        d, _, _ = build_and_check(lookup("P4.14"), 1)
        assert distinct_nodes(d) < 10_000

    def test_weaken_preserves_sharing_and_checks(self):
        # a whole build under extra leading context is one wk node more
        entry = lookup("P4.14")
        inst = fresh_inst(entry, 1)
        prem_seqs, concl = entry.instantiate(inst)
        d = derive(entry.id, inst, prem_seqs)
        w = Derivation(Sequent((Letter("z"),) + concl.antecedent, concl.succedent), "wk", (d,))
        assert distinct_nodes(w) == distinct_nodes(d) + 1
        assert check_derivation(w, "NOM", hypotheses=prem_seqs) is None


# Recorded before builders shared their repeated sub-lemmas: over the 387
# instantiations below, the digest of the unfolded trees, the distinct
# node objects and the distinct node structures.  The trees are unfolded
# twice over: shared nodes are read once per use, and each wk node is
# replaced by the former weakening transform applied to its premise.
TREES_DIGEST = "9cd8b0aaf38befbb41109f04b587ffe67c59071fc3dc3b6be72d75a6ad545d22"
UNSHARED_NODE_OBJECTS = 270_333
NODE_STRUCTURES = 198_549


def node_digests(d, text):
    """id -> digest of the unfolded tree below each distinct node: its rule,
    conclusion, instantiation and its premises' digests.  ``text`` caches
    each formula's rendering (holding the formula, so no id is reused)."""
    out, stack = {}, [d]
    while stack:
        n = stack[-1]
        todo = [p for p in n.premises if id(p) not in out]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if id(n) in out:
            continue
        c = n.conclusion
        fs = [(text.get(id(f)) or text.setdefault(id(f), (f, render(f))))[1]
              for f in (*c.antecedent, c.succedent)]
        h = hashlib.sha256("\0".join((n.rule, *fs, repr(n.instantiation))).encode())
        for p in n.premises:
            h.update(out[id(p)])
        out[id(n)] = h.digest()
    return out


def _instantiation_vars(d: Derivation):
    return {x.name if isinstance(x, Var) else str(x) for n in _preorder(d)
            if n.rule == "all_i" and (x := n.instantiation) is not None}


def weaken(d: Derivation, delta, memo) -> Derivation:
    """Prefix a formula sequence onto every sequent of a derivation.

    The inductive weakening transform: the result has the same tree
    shape and still checks.  Refuses a prefix whose free variables
    collide with an all_i eigenvariable inside the tree, since that
    would break the rule's side condition.  ``memo`` maps (node id,
    prefix ids) to the weakened node; shared across one tree, it weakens
    each node under each prefix once.
    """
    delta = tuple(delta)
    if not delta:
        return d
    free = set().union(*(f.free for f in delta))
    clash = free and _instantiation_vars(d) & free
    if clash:
        raise ValueError(f"prefix would capture quantified variable(s) {clash}")
    return _weaken(d, delta, memo)


def _weaken(d, delta, memo):
    ids = tuple(map(id, delta))
    stack = [d]
    while stack:
        n = stack[-1]
        if (id(n), ids) in memo:
            stack.pop()
            continue
        todo = [p for p in n.premises if (id(p), ids) not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        c = Sequent(delta + n.conclusion.antecedent, n.conclusion.succedent)
        memo[id(n), ids] = Derivation(c, n.rule,
                                      tuple(memo[id(p), ids] for p in n.premises),
                                      n.instantiation)
    return memo[id(d), ids]


def without_wk(d):
    """``d`` with each wk node replaced by ``weaken`` (the kernel's former
    transform, above) of its premise; the sharing of the rest is kept, and a
    node weakened under one prefix at several wk nodes is weakened once."""
    memo, weakened, stack = {}, {}, [d]
    while stack:
        n = stack[-1]
        todo = [p for p in n.premises if id(p) not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if id(n) in memo:
            continue
        prems = tuple(memo[id(p)] for p in n.premises)
        if n.rule == "wk":
            extra = len(n.conclusion.antecedent) - len(prems[0].conclusion.antecedent)
            memo[id(n)] = weaken(prems[0], n.conclusion.antecedent[:extra], weakened)
        else:
            memo[id(n)] = Derivation(n.conclusion, n.rule, prems, n.instantiation)
    return memo[id(d)]


@lru_cache(maxsize=None)
def every_instantiation():
    """(instantiations, node objects, node structures, digest) over every
    propositional entry at gamma 0..2, and delta 0..2 where a shape has D;
    the objects are counted as built, the rest on the trees without wk."""
    total, objects, structures, count, text = hashlib.sha256(), 0, 0, 0, {}
    for e in catalog():
        if e.matcher is not None:
            continue
        has_delta = any("D" in items for items, _ in (*e.premises, e.conclusion))
        for glen in range(3):
            for dlen in range(3) if has_delta else (0,):
                inst = fresh_inst(e, glen, dlen)
                d = derive(e.id, inst, e.instantiate(inst)[0])
                objects += distinct_nodes(d)
                w = without_wk(d)
                out = node_digests(w, text)
                total.update(out[id(w)])
                structures += len(set(out.values()))
                count += 1
    return count, objects, structures, total.hexdigest()


class TestBuildSharing:
    def test_unfolded_trees_are_unchanged(self):
        count, _, structures, digest = every_instantiation()
        assert (count, structures, digest) == (387, NODE_STRUCTURES, TREES_DIGEST)

    def test_repeated_sub_lemmas_are_one_object(self):
        assert every_instantiation()[1] < UNSHARED_NODE_OBJECTS

    def test_l413_case_lemmas_share_one_core(self):
        # L4.13.rule uses each of its two case lemmas at g and at g + (phi >< psi,):
        # one build at the empty context under two wk nodes
        d, _, _ = build_and_check(lookup("L4.13.rule"), 1)
        uses = collections.Counter(n.premises[0] for n in _preorder(d) if n.rule == "wk")
        for case in ("m0 /\\ m1 |- m0 >< m1", "m0 /\\ ~m1 |- m0 >< m1"):
            assert [k for c, k in uses.items() if c.conclusion == S(case)] == [2]

    def test_sharing_lives_inside_one_build(self):
        g, p = (Letter("g"),), Letter("p")
        assert tactics._assume(g, p) is not tactics._assume(g, p)
        seen = []

        def builder(g, phi):
            seen.append(tactics._assume(g, phi) is tactics._assume(tuple([*g]), phi))
            return tactics._l232(g, phi)

        entry = dataclasses.replace(lookup("L2.3.2"), builder=builder)
        entry.build({"gamma": g, "phi": p}, ())
        assert seen == [True] and tactics._MEMO is None

    def test_no_memo_outlives_a_build(self):
        entry = lookup("L2.3.3")
        inst = fresh_inst(entry, 1)
        derive(entry.id, inst)
        assert tactics._MEMO is None
        match_and_build(entry.id, (), entry.instantiate(inst)[1], "NOM")
        assert tactics._MEMO is None

    def test_no_memo_outlives_a_build_that_raises(self):
        sizes = []

        def builder(g, phi):
            tactics._l232(g, phi)
            sizes.append(len(tactics._MEMO))
            raise TacticError("stopped")

        entry = dataclasses.replace(lookup("L2.3.2"), builder=builder)
        with pytest.raises(TacticError, match="stopped"):
            entry.build(fresh_inst(entry, 1), ())
        assert sizes[0] > 0 and tactics._MEMO is None


class TestSpotShapes:
    def test_explode_left_concrete(self):
        d = match_and_build("L2.3.1", (), S("r, ~p, p |- q"), "NOM")
        assert check_derivation(d, "NOM") is None

    def test_deduction_forward_is_open(self):
        prem = S("p |- q -> r")
        d = match_and_build("T2.10.fwd", (hyp(prem),), S("p |- ~(q /\\ ~(q /\\ r))"),
                            "NOM")
        assert check_derivation(d, "NOM", hypotheses=(prem,)) is None
        assert check_derivation(d, "NOM") is not None  # leaf left undischarged

    @pytest.mark.parametrize("name", ["expand", "contract", "dn_intro", "dn_elim"])
    def test_l25_is_t26_at_an_empty_trailing_context(self, name):
        l25, t26 = lookup(f"L2.5.{name}"), lookup(f"T2.6.{name}")
        assert l25.builder is t26.builder
        assert l25.variables == t26.variables == ("phi", "psi")
        # a delta given to derive is dropped, as no shape of L2.5 marks one
        inst = {"gamma": (Letter("g"),), "phi": Letter("p"), "psi": Letter("q")}
        prems, concl = l25.instantiate(inst)
        d = derive(l25.id, {**inst, "delta": (Letter("r"),)}, prems)
        assert written_alike(d.conclusion, concl)
        assert check_derivation(d, "NOM", hypotheses=prems) is None

    def test_contract_then_expand_is_identity_on_sequents(self):
        prem = S("g, p, p |- q")
        d = match_and_build("L2.5.contract", (hyp(prem),), S("g, p |- q"), "NOM")
        e = match_and_build("L2.5.expand", (d,), prem, "NOM")
        assert written_alike(e.conclusion, prem)
        assert check_derivation(e, "NOM", hypotheses=(prem,)) is None

    def test_axioms_close_in_nom_e(self):
        d = match_and_build("T3.2.AX1", (), S("|- p -> (q -> p)"), "NOM_E")
        assert check_derivation(d, "NOM_E") is None

    def test_weakened_premise_leaves_still_match(self):
        # these constructions push declared hypotheses under extra context
        prems = (S("p |- q"), S("q |- r"))
        d = match_and_build("L3.6.1", tuple(hyp(s) for s in prems),
                            S("p |- r"), "NOM")
        assert check_derivation(d, "NOM", hypotheses=prems) is None


class TestQuantifierEntries:
    P = staticmethod(lambda t: Atom("R", (t,)))

    def cases(self, g):
        P, x, c = self.P, Var("x"), Const("c")
        return [
            ("L5.6", [], Sequent(g, Compat(Forall(x, P(x)), P(c))),
             {"t": c}),
            ("P5.7.EI", [Sequent(g, P(c))],
             Sequent(g, Exists(x, P(x))), {"t": c}),
            ("P5.7.EE",
             [Sequent(g, Exists(x, P(x))),
              Sequent(g + (P(x),), Letter("q")),
              Sequent(g + (Letter("q"), P(x)), Letter("q"))],
             Sequent(g, Letter("q")), {}),
        ]

    @pytest.mark.parametrize("mode", ["NOM_Q", "NOM_q"])
    @pytest.mark.parametrize("glen", [0, 2])
    def test_build_and_check(self, mode, glen):
        g = tuple(Letter(f"g{i}") for i in range(glen))
        for eid, prem_seqs, concl, args in self.cases(g):
            d = match_and_build(eid, tuple(hyp(s) for s in prem_seqs),
                                concl, mode, args=args)
            assert written_alike(d.conclusion, concl)
            assert check_derivation(d, mode, hypotheses=prem_seqs) is None, eid

    def test_instance_argument_is_required(self):
        concl = Sequent((), Compat(Forall(Var("x"), self.P(Var("x"))),
                                   self.P(Const("c"))))
        with pytest.raises(TacticError, match="t="):
            match_and_build("L5.6", (), concl, "NOM_Q")

    def test_wrong_instance_rejected(self):
        concl = Sequent((), Compat(Forall(Var("x"), self.P(Var("x"))),
                                   self.P(Const("c"))))
        with pytest.raises(TacticError):
            match_and_build("L5.6", (), concl, "NOM_Q", args={"t": Const("d")})


# The quantifier schemas over formulas as written: exists as ~forall x. ~phi,
# >< written out (its universal repeated as an alpha-variant), and near misses.
# (entry, premises, conclusion, t, the bound x and phi, or the refusal)
QUANTIFIER_TABLE = [
    ("L5.6", [], "|- (forall x. R(x)) >< R(c)", "c", ("x", "R(x)")),
    ("L5.6", [], "a, b |- (forall x. R(x) /\\ a) >< (R(c) /\\ a)", "c", ("x", "R(x) /\\ a")),
    ("L5.6", [], "|- ((forall x. R(x)) -> (R(c) -> forall x. R(x))) /\\ "
                 "(R(c) -> ((forall x. R(x)) -> R(c)))", "c", ("x", "R(x)")),
    ("L5.6", [], "|- ((forall x. R(x)) -> (R(c) -> forall y. R(y))) /\\ "
                 "(R(c) -> ((forall z. R(z)) -> R(c)))", "c", ("x", "R(x)")),
    ("L5.6", [], "|- (forall x. R(x)) >< R(d)", "c", "not the instance of phi at t"),
    ("L5.6", [], "|- (forall x. R(x)) /\\ R(c)", "c", "connective did not match"),
    ("L5.6", ["|- R(c)"], "|- (forall x. R(x)) >< R(c)", "c", "L5.6 takes 0 premises, got 1"),
    ("L5.6", [], "|- (forall x. R(x)) >< R(c)", None, "L5.6 needs an explicit t= argument"),
    ("P5.7.EI", ["|- R(c)"], "|- exists x. R(x)", "c", ("x", "R(x)")),
    ("P5.7.EI", ["|- R(c)"], "|- ~forall x. ~R(x)", "c", ("x", "R(x)")),
    ("P5.7.EI", ["a |- a -> R(c)"], "a |- exists x. a -> R(x)", "c", ("x", "a -> R(x)")),
    ("P5.7.EI", ["|- R(d)"], "|- exists x. R(x)", "c", "not the instance of phi at t"),
    ("P5.7.EI", ["|- R(c)"], "|- forall x. R(x)", "c", "negation did not match"),
    ("P5.7.EI", ["b |- R(c)"], "a |- exists x. R(x)", "c", "ambient context mismatch"),
    ("P5.7.EI", [], "|- exists x. R(x)", "c", "P5.7.EI takes 1 premises, got 0"),
    ("P5.7.EE", ["|- exists x. R(x)", "R(x) |- q", "q, R(x) |- q"], "|- q", None,
     ("x", "R(x)")),
    ("P5.7.EE", ["a |- ~forall y. ~R(y)", "a, R(y) |- q", "a, q, R(y) |- q"], "a |- q", None,
     ("y", "R(y)")),
    ("P5.7.EE", ["|- exists x. R(x)", "R(x) |- q", "R(x), q |- q"], "|- q", None,
     "metavariable psi bound inconsistently"),
    ("P5.7.EE", ["|- exists x. R(x)", "R(x) |- q"], "|- q", None,
     "P5.7.EE takes 3 premises, got 2"),
]


def _matched_and_derived(eid, prem_seqs, concl, args):
    """The instantiation ``match`` finds, and the build ``match_and_build``
    makes; the build must be derive's at that instantiation."""
    inst = lookup(eid).match(prem_seqs, concl, args)
    d = match_and_build(eid, tuple(hyp(s) for s in prem_seqs), concl, "NOM_Q", args)
    assert tree_hash(d) == tree_hash(derive(eid, inst, prem_seqs))
    for mode in ("NOM_Q", "NOM_q"):
        assert check_derivation(d, mode, hypotheses=tuple(prem_seqs)) is None, (eid, mode)
    return inst


class TestQuantifierSchemas:
    @pytest.mark.parametrize("eid, prems, concl, t, want", QUANTIFIER_TABLE)
    def test_verdicts(self, eid, prems, concl, t, want):
        sig = Signature()
        prem_seqs = [parse_sequent(p, sig) for p in prems]
        concl = parse_sequent(concl, sig)
        args = {} if t is None else {"t": parse_term(t, sig)}
        if isinstance(want, str):
            with pytest.raises(TacticError) as err:
                match_and_build(eid, tuple(hyp(s) for s in prem_seqs), concl, "NOM_Q", args)
            assert str(err.value) == want
            return
        inst = _matched_and_derived(eid, prem_seqs, concl, args)
        assert inst["gamma"] == concl.antecedent and inst.get("t") == args.get("t")
        assert (inst["x"], inst["phi"]) == (Var(want[0]), parse_formula(want[1], sig))
        if eid == "P5.7.EE":
            assert inst["psi"] is concl.succedent

    @pytest.mark.parametrize("via", ["match_and_build", "derive"])
    def test_a_term_of_another_sort_is_a_tactic_error(self, via):
        t = Const("c", "other")
        with pytest.raises(TacticError, match="^term of sort other for a variable of sort _$"):
            if via == "match_and_build":
                match_and_build("P5.7.EI", (hyp(S("|- R(c)")),), S("|- exists x. R(x)"),
                                "NOM_Q", {"t": t})
            else:
                derive("L5.6", {"gamma": (), "x": Var("x"), "phi": Atom("R", (Var("x"),)),
                                "t": t})

    @given(matrix=st.sampled_from(["R(x)", "R(x) /\\ a", "a -> R(x)", "~R(x)", "S(x, c)"]),
           gamma=st.lists(propositional_strategy, max_size=2),
           psi=propositional_strategy, t=st.sampled_from(["c", "d"]))
    @settings(max_examples=40, deadline=None)
    def test_drawn_matrices(self, matrix, gamma, psi, t):
        sig = corpus_signature()
        g, x, phi = tuple(gamma), Var("x"), parse_formula(matrix, sig)
        term = parse_term(t, sig)
        sub = substitute(phi, x, term)
        for eid, prem_seqs, concl, args in [
                ("L5.6", [], Sequent(g, Compat(Forall(x, phi), sub)), {"t": term}),
                ("P5.7.EI", [Sequent(g, sub)], Sequent(g, Exists(x, phi)), {"t": term}),
                ("P5.7.EE", [Sequent(g, Exists(x, phi)), Sequent(g + (phi,), psi),
                             Sequent(g + (psi, phi), psi)], Sequent(g, psi), {})]:
            inst = _matched_and_derived(eid, prem_seqs, concl, args)
            assert inst["x"] == x and inst["phi"] is phi and inst["gamma"] == g


class TestPremiseCount:
    @pytest.mark.parametrize("eid", ALL_IDS)
    def test_a_premise_too_few_or_too_many_is_a_tactic_error(self, eid):
        entry = lookup(eid)
        inst = {**fresh_inst(entry, 1), "x": Var("x"), "t": Const("c")}
        prem_seqs, concl = entry.instantiate(inst)
        prems = tuple(hyp(s) for s in prem_seqs)
        args = {k: inst[k] for k in entry.arguments}
        for wrong in ([prems[:-1]] if prems else []) + [prems + (hyp(concl),)]:
            with pytest.raises(TacticError, match=f"takes {len(prems)} premises, "
                                                  f"got {len(wrong)}"):
                match_and_build(eid, wrong, concl, entry.modes[0], args)


class TestRejections:
    def test_unknown_id(self):
        with pytest.raises(TacticError):
            lookup("nope")

    def test_mode_gate(self):
        with pytest.raises(TacticError, match="mode"):
            match_and_build("T3.2.AX1", (), S("|- p -> (q -> p)"), "NOM")
        with pytest.raises(TacticError, match="mode"):
            match_and_build("L5.6", (), S("|- p"), "NOM")

    def test_wrong_premise_shape(self):
        with pytest.raises(TacticError):
            match_and_build("P2.1", (hyp(S("p |- q")),), S("|- q -> p"), "NOM")

    def test_wrong_premise_count(self):
        entry = lookup("P2.1")
        inst = fresh_inst(entry, 0)
        with pytest.raises(TacticError):
            derive("P2.1", inst, ())

    def test_missing_metavariable(self):
        with pytest.raises(TacticError, match="psi"):
            derive("P2.1", {"phi": Letter("p"), "gamma": ()}, (S("p |- q"),))
        # the quantifier builders also take x and t, which no shape names
        p, q = Letter("p"), Letter("q")
        with pytest.raises(TacticError, match="L5.6 needs x"):
            derive("L5.6", {"phi": p})
        with pytest.raises(TacticError, match="P5.7.EE needs x"):
            derive("P5.7.EE", {"phi": p, "psi": q})
        with pytest.raises(TacticError, match="P5.7.EI needs t"):
            derive("P5.7.EI", {"phi": p, "x": Var("x")})

    def test_conclusion_mismatch(self):
        entry = lookup("P2.1")
        inst = fresh_inst(entry, 0)
        prem_seqs, _ = entry.instantiate(inst)
        with pytest.raises(TacticError):
            match_and_build("P2.1", tuple(hyp(s) for s in prem_seqs),
                            S("|- p -> q"), "NOM")


class TestInferConclusion:
    def test_every_entry_with_premises(self):
        # forward application over fresh instances, gamma and delta 0..2
        outcomes = collections.Counter()
        for entry in catalog():
            if entry.matcher is not None or not entry.premises:
                continue
            shapes = (*entry.premises, entry.conclusion)
            has_delta = any("D" in items for items, _ in shapes)
            for glen in range(3):
                for dlen in range(3) if has_delta else (0,):
                    inst = fresh_inst(entry, glen, dlen)
                    prem_seqs, concl = entry.instantiate(inst)
                    try:
                        got = infer_conclusion(entry.id, prem_seqs)
                    except TacticError as err:
                        # a conclusion variable that occurs in no premise
                        assert "state the target sequent" in str(err), entry.id
                        outcomes["stated"] += 1
                        continue
                    if dlen and entry.id in ("T2.6.expand", "T2.6.dn_intro"):
                        # the longest gamma wins: delta joins the context
                        assert got != concl and got.antecedent[:glen] == inst["gamma"]
                    else:
                        assert got == concl, (entry.id, glen, dlen)
                    d = match_and_build(entry.id, tuple(hyp(s) for s in prem_seqs),
                                        got, entry.modes[0])
                    assert check_derivation(d, entry.modes[0],
                                            hypotheses=prem_seqs) is None, entry.id
                    outcomes["inferred"] += 1
        assert outcomes == {"inferred": 261, "stated": 21}

    def test_metavariables_bind_to_the_subject_as_written(self):
        # >< nested 12 deep: bound through its expansion, phi printed megabytes
        chain = S("|- " + "p >< (" * 12 + "p" + ")" * 12).succedent
        got = infer_conclusion("P2.4.dni", (Sequent((chain,), chain),))
        assert got.succedent.sub.sub is chain
        # where the connectives differ, both sides are walked through expansions
        inst = lookup("C4.6.intro1").match((S("g |- q"),), S("g |- ~(~q /\\ ~p)"))
        assert (inst["phi"], inst["psi"]) == (Letter("q"), Letter("p"))
        with pytest.raises(TacticError, match="connective did not match"):
            lookup("C4.6.intro1").match((S("g |- q"),), S("g |- ~(~q -> ~p)"))


class TestSoundness:
    """Premise-preserving valuations must satisfy built conclusions."""

    NOM_SAMPLE = ["P2.2", "L2.3.3", "T2.6.cut", "L2.7.4a", "P2.9.4",
                  "T2.10.fwd", "T3.8.OM1", "P4.2", "T4.4", "C4.6.elim",
                  "L4.12.and", "P4.14"]

    @pytest.mark.parametrize("eid", NOM_SAMPLE)
    def test_valid_in_mo2(self, eid):
        entry = lookup(eid)
        inst = {v: Letter("pqr"[i]) for i, v in enumerate(entry.variables)}
        inst["gamma"], inst["delta"] = (Letter("s"),), ()
        prem_seqs, concl = entry.instantiate(inst)
        L = by_name("MO2")
        letters = sorted(set().union(*(sequent_letters(s)
                                       for s in (*prem_seqs, concl))))
        for values in itertools.product(range(L.n), repeat=len(letters)):
            I = Interpretation(L, dict(zip(letters, values)))
            if all(sequent_true(s, I) for s in prem_seqs):
                assert sequent_true(concl, I), (eid, values)

    @pytest.mark.parametrize("eid", ["T3.2.AX1", "T3.2.AX2", "T3.2.AX3",
                                     "T3.2.AX6"])
    def test_classical_axioms_valid_in_boolean(self, eid):
        entry = lookup(eid)
        inst = {v: Letter("pqr"[i]) for i, v in enumerate(entry.variables)}
        inst["gamma"], inst["delta"] = (), ()
        _, concl = entry.instantiate(inst)
        L = by_name("2^2")
        letters = ["p", "q", "r"]
        for values in itertools.product(range(L.n), repeat=len(letters)):
            I = Interpretation(L, dict(zip(letters, values)))
            assert sequent_true(concl, I), (eid, values)


class TestRandomInstantiation:
    @given(st.sampled_from(BASE_IDS), propositional_strategy,
           propositional_strategy, propositional_strategy)
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_formulas(self, eid, f1, f2, f3):
        entry = lookup(eid)
        inst = dict(zip(entry.variables, (f1, f2, f3)))
        inst["gamma"], inst["delta"] = (Letter("g"),), ()
        prem_seqs, concl = entry.instantiate(inst)
        d = derive(eid, inst, prem_seqs)
        assert written_alike(d.conclusion, concl)
        assert check_derivation(d, entry.modes[0], hypotheses=prem_seqs) is None


# -- forward rule applications -----------------------------------------------

# a mode that has each rule outside NOM
_RULE_MODE = {"exch": "NOM_E", "qexch": "NOM_q", "all_i": "NOM_Q", "all_e": "NOM_Q"}
_terms = st.sampled_from([Var(n) for n in VAR_NAMES] + [Const(n) for n in CONST_NAMES])


@st.composite
def forward_cases(draw):
    """A primitive rule, premise sequents in the shape the rule's premises
    take, its x= or t= argument, and the refusal the REPL answers with (None
    where the premises fix a conclusion)."""
    rule = draw(st.sampled_from([r for r, k in PREMISE_COUNTS.items() if k]))
    g = tuple(draw(st.lists(propositional_strategy, max_size=2)))
    a, b, c = (draw(propositional_strategy) for _ in range(3))
    args, refusal = {}, None
    if rule == "cut":
        prems = [Sequent(g, a), Sequent(g + (a,), b)]
    elif rule in ("paste", "and_i"):
        prems = [Sequent(g, a), Sequent(g, b)]
    elif rule == "cexch":
        prems = [Sequent(g + (a, b), a), Sequent(g + (a, b), c), Sequent(g + (b, a), b)]
    elif rule == "lem":
        prems = [Sequent(g, b), Sequent(g and g[:-1] + (Neg(g[-1]),), b)]
        refusal = None if g else "lem premises need a final assumption to discharge"
    elif rule == "all_i":
        prems, args = [Sequent(g, draw(formula_strategy))], {"x": Var(draw(st.sampled_from(VAR_NAMES)))}
    elif rule == "all_e":
        body = draw(formula_strategy)
        succ = draw(st.sampled_from([body, Forall(Var(draw(st.sampled_from(VAR_NAMES))), body)]))
        prems, args = [Sequent(g, succ)], {"t": draw(_terms)}
        if not isinstance(succ, Forall):
            refusal = "the premise succedent is not universally quantified"
    else:
        prems = [Sequent(g, a)]
        if rule in ("explode", "wk"):
            what = "succedent" if rule == "explode" else "added context"
            refusal = f"{rule}'s {what} is unconstrained; state the target sequent"
        elif rule == "imp_i" and not g:
            refusal = "imp_i needs a premise with an antecedent"
        elif rule in ("exch", "qexch") and len(g) < 2:
            refusal = f"{rule} needs at least two antecedent formulas"
        elif rule in ("and_e1", "and_e2") and not isinstance(a, (And, Compat)):
            refusal = "the premise succedent is not a conjunction"
        elif rule == "imp_e" and not isinstance(a, Imp):
            refusal = "the premise succedent is not an arrow"
    return rule, prems, args, refusal


class TestForward:
    @given(forward_cases())
    @settings(max_examples=300, deadline=None)
    def test_forward_applications_agree_with_the_kernel(self, case):
        # a conclusion the premises fix is one the kernel accepts; a refusal
        # is a TacticError with the REPL's message, never another exception
        rule, prems, args, refusal = case
        try:
            n = tactics.forward(rule, prems, args)
        except TacticError as err:
            assert str(err) == refusal
            return
        assert refusal is None and n.rule == rule
        assert [p.conclusion for p in n.premises] == prems
        assert check_inference(rule, prems, n.conclusion, _RULE_MODE.get(rule, "NOM"),
                               n.instantiation) is None


# -- builders read no argument ----------------------------------------------

def _filled(f, m, memo):
    """``f`` with each letter named in ``m`` replaced by its formula."""
    out = memo.get(id(f))
    if out is None:
        if isinstance(f, Letter):
            out = m.get(f.name, f)
        else:
            out = type(f)(*(_filled(k, m, memo) for k in children(f)))
        memo[id(f)] = out
    return out


def tree_hash(d, m=None):
    """A hash of the tree below ``d`` over each node's rule, rendered
    conclusion, instantiation and premises, with the letters in ``m``
    substituted first."""
    out, forms, rendered, stack = {}, {}, {}, [d]
    while stack:
        n = stack[-1]
        todo = [p for p in n.premises if id(p) not in out]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        c = n.conclusion
        fs = (*c.antecedent, c.succedent)
        for f in fs:
            if id(f) not in rendered:
                rendered[id(f)] = render(_filled(f, m, forms) if m else f)
        text = [rendered[id(f)] for f in fs] + [repr(n.instantiation)]
        h = hashlib.sha256("\0".join((n.rule, *text)).encode())
        for p in n.premises:
            h.update(out[id(p)])
        out[id(n)] = h.digest()
    return out[id(d)]


def _build(entry, inst):
    return derive(entry.id, inst, entry.instantiate(inst)[0])


class TestBuildersReadNoArgument:
    @pytest.mark.parametrize("eid", BASE_IDS)
    @given(formulas=st.lists(propositional_strategy, min_size=7, max_size=7),
           glen=st.integers(0, 2), dlen=st.integers(0, 2))
    @settings(max_examples=2, deadline=None)
    def test_a_build_is_the_substituted_letter_tree(self, eid, formulas, glen, dlen):
        # the constructors read premises through unfold; a builder that
        # inspected a schema formula would build another tree for it
        entry = lookup(eid)
        names = [*entry.variables, *(f"g{i}" for i in range(glen)),
                 *(f"d{i}" for i in range(dlen))]
        m = dict(zip(names, formulas))
        letters = {v: Letter(v) for v in entry.variables}
        drawn = {v: m[v] for v in entry.variables}
        for key, prefix, k in (("gamma", "g", glen), ("delta", "d", dlen)):
            letters[key] = tuple(Letter(f"{prefix}{i}") for i in range(k))
            drawn[key] = tuple(m[f"{prefix}{i}"] for i in range(k))
        assert tree_hash(_build(entry, drawn)) == tree_hash(_build(entry, letters), m)
