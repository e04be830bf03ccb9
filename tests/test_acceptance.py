"""End-to-end acceptance checks, one section per shipped guarantee.

Every test here is a contract: tolerances and counts are pinned, seeds
are fixed, and nothing is mocked.  The catalog must rebuild under the
kernel, closed theorems must survive exhaustive lattice sweeps, the
decision procedure must agree with the free-lattice oracle, and the
numerical subspace model must reproduce the algebra to tight bounds.
"""

import itertools
import pathlib
import random
import time
from collections import Counter

import numpy as np
import pytest

from conftest import corpus_signature, perturbed_arrow_witness, random_formula
from orthoproof.hilbert import (
    closure_agreement_sweep, fold_agreement_sweep, measurement_sweep,
)
from orthoproof.kernel import Derivation, check_derivation, hyp
from orthoproof.lattice import (
    FiniteOML, by_name, free_oml2, generated_subalgebra, sasaki_and, sasaki_arrow,
)
from orthoproof.script import check_file
from orthoproof.semantics import (
    Countermodel, Interpretation, Valid, classical_valid, countermodel_search,
    decide_two_var, eval_formula, sequent_letters, sequent_true, validate_sequent,
)
from orthoproof.syntax import (
    And, Atom, Compat, Const, Exists, Forall, Imp, Letter, Neg, Or, Sequent,
    Var, alpha_key, is_nonduplicating, parse_formula, parse_sequent, render,
)
from orthoproof.tactics import catalog, derive, lookup, match_and_build

ROOT = pathlib.Path(__file__).resolve().parent.parent

QUANTIFIER_IDS = {"L5.6", "P5.7.EI", "P5.7.EE"}

P, Q, R = Letter("p"), Letter("q"), Letter("r")


def _standard_inst(entry, glen):
    inst = {"gamma": tuple(Letter(f"g{i}") for i in range(glen)), "delta": ()}
    for i, name in enumerate(entry.variables):
        inst[name] = Letter(f"m{i}")
    return inst


def _quantifier_case(eid, g):
    x, c = Var("x"), Const("c")
    Rx, Rc = Atom("R", (x,)), Atom("R", (c,))
    q = Letter("q")
    return {
        "L5.6": ((), Sequent(g, Compat(Forall(x, Rx), Rc)), {"t": c}),
        "P5.7.EI": ((Sequent(g, Rc),), Sequent(g, Exists(x, Rx)), {"t": c}),
        "P5.7.EE": ((Sequent(g, Exists(x, Rx)),
                     Sequent(g + (Rx,), q),
                     Sequent(g + (q, Rx), q)),
                    Sequent(g, q), {}),
    }[eid]


# --- 1. every catalog entry rebuilds under the kernel ------------------------

def test_catalog_reproduction_gamma_0_to_2():
    entries = catalog()
    assert len(entries) >= 45
    for e in entries:
        for glen in (0, 1, 2):
            g = tuple(Letter(f"g{i}") for i in range(glen))
            if e.id in QUANTIFIER_IDS:
                prems, concl, args = _quantifier_case(e.id, g)
                d = match_and_build(e.id, tuple(hyp(s) for s in prems),
                                    concl, e.modes[0], args)
            else:
                inst = _standard_inst(e, glen)
                prems, _ = e.instantiate(inst)
                d = derive(e.id, inst, prems)
            for mode in e.modes:
                assert check_derivation(d, mode, tuple(prems)) is None, \
                    (e.id, glen, mode)


# --- 2. closed conclusions are valid in the finite models --------------------

def test_closed_conclusions_validate_exhaustively():
    oml_names = ("2", "2^2", "MO2", "2xMO2")
    boolean_names = ("2", "2^2")   # the exchange-mode axioms are classical
    checked = 0
    for e in catalog():
        if e.premises or e.id in QUANTIFIER_IDS:
            continue
        _, concl = e.instantiate(_standard_inst(e, 0))
        letters = sequent_letters(concl)
        assert len(letters) <= 3
        names = oml_names if "NOM" in e.modes else boolean_names
        for name in names:
            v = validate_sequent(concl, by_name(name))
            assert isinstance(v, Valid), (e.id, name, str(v))
        if "NOM" in e.modes and len(letters) <= 2:
            v = validate_sequent(concl, by_name("F2"))
            assert isinstance(v, Valid), (e.id, "F2", str(v))
        checked += 1
    assert checked >= 25


# --- 3. each primitive rule is semantically sound -----------------------------

def _rule_instances():
    g = (R,)
    s = lambda ante, succ: Sequent(tuple(ante), succ)
    return {
        "assume": ([], s((R, P), P)),
        "cut": ([s(g, P), s(g + (P,), Q)], s(g, Q)),
        "paste": ([s(g, P), s(g, Q)], s(g + (P,), Q)),
        "cexch": ([s((P, Q), P), s((P, Q), R), s((Q, P), Q)], s((Q, P), R)),
        "and_i": ([s(g, P), s(g, Q)], s(g, And(P, Q))),
        "and_e1": ([s(g, And(P, Q))], s(g, P)),
        "and_e2": ([s(g, And(P, Q))], s(g, Q)),
        "imp_i": ([s(g + (P,), Q)], s(g, Imp(P, Q))),
        "imp_e": ([s(g, Imp(P, Q))], s(g + (P,), Q)),
        "lem": ([s(g + (P,), Q), s(g + (Neg(P),), Q)], s(g, Q)),
        "explode": ([s(g, Neg(P))], s(g + (P,), Q)),
        "wk": ([s(g, P)], s((Q,) + g, P)),
    }


def test_primitive_rules_sound_over_two_and_mo2():
    instances = _rule_instances()
    assert len(instances) == 12
    for rule, (premises, conclusion) in instances.items():
        letters = sorted(set().union(
            *(sequent_letters(t) for t in premises + [conclusion])))
        assert len(letters) <= 3
        for lat in (by_name("2"), by_name("MO2")):
            for values in itertools.product(range(lat.n), repeat=len(letters)):
                I = Interpretation(lat, dict(zip(letters, values)))
                if all(sequent_true(t, I) for t in premises):
                    assert sequent_true(conclusion, I), (rule, lat.name, values)


# --- 4. antecedent order matters; exchange is a genuine extension -------------

def test_order_sensitive_sequent_countermodel_and_exchange_gate():
    s = parse_sequent("q, p |- q")
    t0 = time.perf_counter()
    v = countermodel_search(s)
    elapsed = time.perf_counter() - t0
    assert isinstance(v, Countermodel)
    assert v.lattice == "MO2"
    assert dict(v.assignment) == {"p": 1, "q": 3}
    assert elapsed < 0.010
    assert classical_valid(s)

    swap = Derivation(parse_sequent("p, q |- q"), "exch", (hyp(s),))
    failure = check_derivation(swap, "NOM", (s,))
    assert failure is not None and failure.violation.rule == "exch"
    assert check_derivation(swap, "NOM_E", (s,)) is None


def test_seven_axiom_scripts_accept_with_exchange():
    text = (ROOT / "proofs" / "thm32_axioms.nom").read_text()
    reports = check_file(text)
    assert len(reports) == 7
    assert all(r.accepted for r in reports)
    assert all(r.mode == "NOM_E" for r in reports)


# --- 5. the two-letter decision agrees with the free-lattice oracle -----------

def _two_letter_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Letter(rng.choice("pq"))
    kind = rng.randrange(5)
    sub = lambda: _two_letter_formula(rng, depth - 1)
    if kind == 0:
        return Neg(sub())
    cls = (And, Or, Imp, Compat)[kind - 1]
    return cls(sub(), sub())


def test_two_letter_decision_matches_free_lattice_validation():
    rng = random.Random(2024)
    # a copy without factors, so every sequent is swept over all of F2
    F2 = by_name("F2")
    F2 = FiniteOML(F2.leq, F2.neg, F2.name, tables=(F2.meet, F2.join))
    for _ in range(200):
        ante = tuple(_two_letter_formula(rng, 2)
                     for _ in range(rng.randrange(3)))
        s = Sequent(ante, _two_letter_formula(rng, 3))
        fast = decide_two_var(s)
        slow = validate_sequent(s, F2)
        assert isinstance(fast, Valid) == isinstance(slow, Valid), str(s)


def test_orthomodular_law_sequent_is_valid():
    s = parse_sequent("q |- p \\/ (~p /\\ (p \\/ q))")
    assert isinstance(decide_two_var(s), Valid)


# --- 6. arrow unfolding and the four-fold compatibility decomposition ---------

def test_arrow_unfolding_and_case_split_entries_check():
    g = (Letter("g"),)
    for eid in ("T2.10.fwd", "T2.10.bwd", "P4.11", "P4.14"):
        e = lookup(eid)
        inst = _standard_inst(e, 1)
        prems, _ = e.instantiate(inst)
        d = derive(eid, inst, prems)
        assert check_derivation(d, "NOM", tuple(prems)) is None, eid


def test_compatibility_equals_fourfold_disjunction():
    compat = Compat(P, Q)
    fourfold = Or(Or(And(P, Q), And(P, Neg(Q))),
                  Or(And(Neg(P), Q), And(Neg(P), Neg(Q))))
    for name in ("MO2", "F2"):
        lat = by_name(name)
        for a in range(lat.n):
            for b in range(lat.n):
                I = Interpretation(lat, {"p": a, "q": b})
                assert eval_formula(compat, I) == eval_formula(fourfold, I), \
                    (name, a, b)


# --- 7. perturbing the arrow clause breaks a rule ------------------------------

def test_arrow_clause_mutations_each_break_a_rule():
    F2 = by_name("F2")
    rng = random.Random(5)
    for _ in range(20):
        a0, b0 = rng.randrange(F2.n), rng.randrange(F2.n)
        true_value = sasaki_arrow(F2, a0, b0)
        wrong = rng.choice([e for e in range(F2.n) if e != true_value])
        witness = perturbed_arrow_witness(F2, a0, b0, wrong)
        assert witness is not None, (a0, b0, wrong)
        rule, inst = witness
        c = inst["r"]
        fold = sasaki_and(F2, sasaki_and(F2, F2.top, c), a0)
        if rule == "imp_i":
            assert F2.le(fold, b0) and not F2.le(c, wrong)
        else:
            assert rule == "imp_e"
            assert F2.le(c, wrong) and not F2.le(fold, b0)


# --- 8. the subspace model reproduces the algebra ------------------------------

def test_sasaki_closure_agreement_200_pairs():
    row = closure_agreement_sweep(np.random.default_rng(0),
                                  [2, 3, 4, 5, 6], 200)
    assert row.instances == 200 and row.failures == 0
    assert row.worst < 1e-8


def test_fold_criterion_agreement_100_instances():
    row = fold_agreement_sweep(np.random.default_rng(1), [2, 3, 4], 100)
    assert row.instances == 100 and row.failures == 0


def test_measurement_consistency_100_instances():
    # the sweep itself enforces the 1e-12 probability match and the
    # 1e-8 final-state residual per instance
    row = measurement_sweep(np.random.default_rng(2), [2, 3, 4], 100)
    assert row.instances == 100 and row.failures == 0
    assert row.worst < 1e-8


# --- 9. the predicate layer ------------------------------------------------------

def test_quantifier_entries_check_in_both_predicate_modes():
    for mode in ("NOM_Q", "NOM_q"):
        for glen in (0, 1):
            g = tuple(Letter(f"g{i}") for i in range(glen))
            for eid in sorted(QUANTIFIER_IDS):
                prems, concl, args = _quantifier_case(eid, g)
                d = match_and_build(eid, tuple(hyp(s) for s in prems),
                                    concl, mode, args)
                assert check_derivation(d, mode, tuple(prems)) is None, \
                    (eid, mode, glen)


def test_quantifier_soundness_exhaustive_small_domains():
    x, c = Var("x"), Const("c")
    Rx, Rc = Atom("R", (x,)), Atom("R", (c,))
    q = Letter("q")
    fa, ex = Forall(x, Rx), Exists(x, Rx)
    seq = lambda ante, succ: Sequent(tuple(ante), succ)
    structures = 0
    for lat in (by_name("2"), by_name("MO2")):
        for dom in ((0,), (0, 1)):
            for rvals in itertools.product(range(lat.n), repeat=len(dom)):
                for cval in dom:
                    for qval in range(lat.n):
                        I = Interpretation(
                            lat, {"q": qval}, {"_": dom},
                            {"R": {(d,): v for d, v in zip(dom, rvals)}},
                            constants={"c": cval})
                        structures += 1
                        # compatibility of a universal with its instances
                        assert sequent_true(seq((), Compat(fa, Rc)), I)
                        # existential introduction
                        if sequent_true(seq((), Rc), I):
                            assert sequent_true(seq((), ex), I)
                        # existential elimination (free x ranges over
                        # every environment in the open premises)
                        p1 = sequent_true(seq((), ex), I)
                        p2 = all(sequent_true(seq((Rx,), q), I, {"x": d})
                                 for d in dom)
                        p3 = all(sequent_true(seq((q, Rx), q), I, {"x": d})
                                 for d in dom)
                        if p1 and p2 and p3:
                            assert sequent_true(seq((), q), I)
                        # the primitive quantifier rules
                        if all(sequent_true(seq((), Rx), I, {"x": d})
                               for d in dom):
                            assert sequent_true(seq((), fa), I)
                        if sequent_true(seq((), fa), I):
                            assert sequent_true(seq((), Rc), I)
    assert structures == 488


# --- 10. parser round-trip and the nonduplication predicate ---------------------

def _term_variables(t):
    if isinstance(t, Var):
        return [t.name]
    if hasattr(t, "args"):
        return [n for s in t.args for n in _term_variables(s)]
    return []


def _nonduplicating_oracle(f):
    if isinstance(f, Atom):
        counts = Counter(n for t in f.args for n in _term_variables(t))
        return all(k == 1 for k in counts.values())
    if isinstance(f, Letter):
        return True
    if isinstance(f, Neg):
        return _nonduplicating_oracle(f.sub)
    if isinstance(f, (And, Or, Imp, Compat)):
        return (_nonduplicating_oracle(f.left)
                and _nonduplicating_oracle(f.right))
    if isinstance(f, (Forall, Exists)):
        return _nonduplicating_oracle(f.body)
    raise TypeError(type(f))


def test_ten_thousand_fuzzed_roundtrips_and_nonduplication():
    rng = random.Random(777)
    for _ in range(10_000):
        f = random_formula(rng)
        text = render(f)
        g = parse_formula(text, corpus_signature())
        assert alpha_key(g) == alpha_key(f), text
        assert is_nonduplicating(f) == _nonduplicating_oracle(f), text


# --- 11. the rules admit exactly one reading of each connective ---------------

def _term_tables(L):
    """F2's elements as two-letter term operations on L: ``T[e][x, y]`` is
    the image of element e under the homomorphism F2 -> L that sends the
    generators to (x, y), found by closure from the generators."""
    F2, (g1, g2) = free_oml2()
    x, y = np.indices((L.n, L.n))
    T = {F2.bottom: np.full_like(x, L.bottom), F2.top: np.full_like(x, L.top), g1: x, g2: y}
    while len(T) < F2.n:
        for a, b in list(itertools.product(T, repeat=2)):
            T.setdefault(int(F2.meet[a, b]), L.meet[T[a], T[b]])
            T.setdefault(int(F2.join[a, b]), L.join[T[a], T[b]])
            T.setdefault(int(F2.neg[a]), L.neg[T[a]])
    T = np.array([T[e] for e in range(F2.n)])
    # the closure is a homomorphism: F2 is free on its generators
    assert (T[F2.meet] == L.meet[T[:, None], T[None, :]]).all()
    assert (T[F2.join] == L.join[T[:, None], T[None, :]]).all()
    assert (T[F2.neg] == L.neg[T]).all()
    return T


def _qualifying(rule_sound):
    """The elements of F2 whose term operation t makes ``rule_sound(L, r, a,
    b, t(a, b))`` hold for every r, a, b on both 2 and MO2; F2 = 2^4 x MO2,
    so a term is fixed by its values on the two."""
    ok = True
    for L in (by_name("2"), by_name("MO2")):
        T = _term_tables(L)
        r, a, b = np.indices((L.n,) * 3)
        ok &= rule_sound(L, r, a, b, T[:, a, b]).reshape(len(T), -1).all(axis=1)
    return np.flatnonzero(ok).tolist()


def test_the_rules_admit_exactly_one_reading_of_each_connective():
    F2, (g1, g2) = free_oml2()
    # imp_i and imp_e: fold(Γ, φ) <= ψ iff fold(Γ) <= t(φ, ψ)
    arrow = _qualifying(lambda L, r, a, b, t: L.leq[sasaki_and(L, r, a), b] == L.leq[r, t])
    assert arrow == [80] == [sasaki_arrow(F2, g1, g2)]
    # and_i and and_e: fold(Γ) <= φ and fold(Γ) <= ψ iff fold(Γ) <= t(φ, ψ)
    meet = _qualifying(lambda L, r, a, b, t: (L.leq[r, a] & L.leq[r, b]) == L.leq[r, t])
    assert meet == [6] == [F2.meet[g1, g2]]
    # explode: Γ ⊢ t(φ) gives Γ, φ ⊢ ψ; lem: Γ, φ ⊢ ψ and Γ, t(φ) ⊢ ψ give Γ ⊢ ψ
    one_letter = generated_subalgebra(F2, [g1])
    assert len(one_letter) == 4
    complement = [e for e in _qualifying(
        lambda L, r, a, b, t: (~L.leq[r, t] | L.leq[sasaki_and(L, r, a), b])
        & (~(L.leq[sasaki_and(L, r, a), b] & L.leq[sasaki_and(L, r, t), b]) | L.leq[r, b]))
        if e in one_letter]
    assert complement == [74] == [F2.neg[g1]]
