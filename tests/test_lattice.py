from collections import Counter

import numpy as np
import pytest

from orthoproof.lattice import (
    MAX_ELEMENTS, FiniteOML, LatticeFileError, OMLElement, OMLFailure, battery, boolean,
    by_name, free_oml2, generated_subalgebra, mo, o6, parse_lattice, product,
    sasaki_and, sasaki_arrow, verify_oml,
)


def test_battery_names_and_sizes():
    B = battery()
    assert [L.name for L in B] == ["2", "2^2", "MO2", "2xMO2", "F2"]
    assert [L.n for L in B] == [2, 4, 6, 12, 96]
    for L in B:
        assert verify_oml(L) is None


def test_by_name():
    assert by_name("MO2").n == 6
    with pytest.raises(KeyError):
        by_name("MO3")


def test_boolean_edge_cases():
    assert boolean(0).n == 1
    assert verify_oml(boolean(0)) is None
    two = boolean(1)
    assert two.bottom == 0 and two.top == 1
    assert boolean(3).n == 8


def test_mo_structure():
    M = mo(2)
    assert M.n == 6 and M.bottom == 0 and M.top == 5
    atoms = [1, 2, 3, 4]
    for a in atoms:
        for b in atoms:
            if a != b:
                assert M.meet[a, b] == 0 and M.join[a, b] == 5
    assert M.neg.tolist() == [5, 2, 1, 4, 3, 0]


def test_product_indexing_is_row_major():
    P = product(boolean(1), mo(2))
    # element i = i1 * 6 + i2
    assert P.n == 12
    assert P.bottom == 0 and P.top == 11
    assert P.meet[7, 2] == 0 * 6 + 0      # (1,a) & (0,a') = (0,bot)
    assert P.join[7, 2] == 1 * 6 + 5      # (1,a) | (0,a') = (1,top)
    assert P.neg[7] == 0 * 6 + 2          # ~(1,a) = (0,a')


def test_o6_rejected_at_a_b():
    bad = verify_oml(o6())
    assert bad is not None
    assert bad.law == "orthomodular"
    assert bad.elements == (1, 2)
    assert "orthomodular" in str(bad)


def test_verify_rejects_cycle():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 0] = True  # 0 <= 1 <= 0 with 0 != 1
    bad = verify_oml(FiniteOML(leq, np.array([2, 1, 0])))
    assert bad is not None
    assert bad.law in ("antisymmetry", "transitivity")


def test_verify_rejects_missing_meet():
    # diamond without the middle: two incomparable elements, no top
    leq = np.eye(2, dtype=bool)
    bad = verify_oml(FiniteOML(leq, np.array([1, 0])))
    assert bad is not None
    assert bad.law == "bounds"


def test_verify_rejects_non_unique_meet():
    # bot, two incomparable atoms x y, two incomparable coatoms that both
    # dominate x and y, top: meet of the coatoms has two maximal lower bounds
    n = 6
    leq = np.eye(n, dtype=bool)
    bot, x, y, u, v, top = range(6)
    for e in range(n):
        leq[bot, e] = True
        leq[e, top] = True
    for a in (x, y):
        for b in (u, v):
            leq[a, b] = True
    bad = verify_oml(FiniteOML(leq, np.array([top, v, u, y, x, bot])))
    assert bad is not None
    assert bad.law in ("meet", "join")


def test_sasaki_examples():
    two = boolean(1)
    assert sasaki_arrow(two, 1, 0) == 0
    assert sasaki_arrow(two, 0, 0) == 1
    assert sasaki_arrow(two, 0, 1) == 1
    M = mo(2)
    # (b | a') & a = top & a = a
    assert sasaki_and(M, 3, 1) == 1
    for a in range(M.n):
        assert sasaki_and(M, a, M.top) == a


def _arrow_column(L, b):
    # sasaki_arrow(a, b) for every a at once
    return L.join[L.neg, L.meet[:, b]]


@pytest.mark.parametrize("name", ["2", "2^2", "MO2", "2xMO2", "F2"])
def test_sasaki_adjunction(name):
    # a & b <= c  iff  a <= b -> c, for all elements, vectorized per b
    L = by_name(name)
    for b in range(L.n):
        sa = L.meet[L.join[:, L.neg[b]], b]            # sasaki_and(a, b) over a
        arrow = L.join[L.neg[b], L.meet[b, :]]         # sasaki_arrow(b, c) over c
        assert (L.leq[sa, :] == L.leq[:, arrow]).all()


@pytest.mark.parametrize("name", ["2", "2^2", "MO2", "2xMO2", "F2"])
def test_excluded_middle_inequality(name):
    # (a -> b) /\ (~a -> b) <= b everywhere
    L = by_name(name)
    for b in range(L.n):
        arrows = _arrow_column(L, b)
        assert L.leq[L.meet[arrows, arrows[L.neg]], b].all()


@pytest.mark.parametrize("name", ["2", "2^2", "MO2", "2xMO2", "F2"])
def test_de_morgan(name):
    L = by_name(name)
    assert (L.neg[L.meet] == L.join[np.ix_(L.neg, L.neg)]).all()
    assert (L.neg[L.join] == L.meet[np.ix_(L.neg, L.neg)]).all()


class TestGeneratedSubalgebra:
    def test_mo2_single_atom(self):
        assert generated_subalgebra(mo(2), (1,)) == frozenset({0, 1, 2, 5})

    def test_trivial_seeds(self):
        F2, _ = free_oml2()
        assert len(generated_subalgebra(F2, (F2.bottom, F2.top))) == 2
        assert len(generated_subalgebra(F2, ())) == 2

    def test_free_oml2_generators(self):
        F2, (g1, g2) = free_oml2()
        assert F2.n == 96
        assert F2.generators == (g1, g2)
        assert len(generated_subalgebra(F2, (g1, g2))) == 96

    def test_embedded_pair_is_first_lexicographic(self):
        # re-derive the embedded constant: scan pairs in lexicographic order
        # and stop at the first whose closure is everything
        F2, pair = free_oml2()
        for g1 in range(pair[0] + 1):
            for g2 in range(F2.n if g1 < pair[0] else pair[1] + 1):
                full = len(generated_subalgebra(F2, (g1, g2))) == 96
                assert full == ((g1, g2) == pair), (g1, g2)


def test_element_sugar():
    M = mo(2)
    a, b = M.element(1), M.element(3)
    assert (a & b).index == 0
    assert (a | b).index == 5
    assert (~a).index == 2
    assert a <= M.element(5)
    assert not (a <= b)


class TestLatticeFile:
    def mo2_text(self):
        M = mo(2)
        lines = ["# MO2, atoms listed pairwise", "oml 6"]
        for i in range(6):
            for j in range(6):
                if M.leq[i, j] and i != j:
                    lines.append(f"leq {i} {j}")
        lines += ["neg 0 5", "neg 1 2", "neg 3 4"]
        return "\n".join(lines)

    def test_round_trip(self):
        M = mo(2)
        L = parse_lattice(self.mo2_text(), "mo2")
        assert (L.leq == M.leq).all()
        assert (L.meet == M.meet).all()
        assert (L.join == M.join).all()
        assert L.neg.tolist() == M.neg.tolist()

    def test_transitive_closure_applied(self):
        # 2^2 with the composite pair 0 <= 3 left out; closure restores it
        txt = "oml 4\nleq 0 1\nleq 0 2\nleq 1 3\nleq 2 3\nneg 0 3\nneg 1 2"
        L = parse_lattice(txt)
        assert L.le(0, 3)
        assert (L.leq == boolean(2).leq).all()

    def test_rejects_o6(self):
        hexa = o6()
        lines = ["oml 6"]
        lines += [f"leq {i} {j}" for i in range(6) for j in range(6)
                  if hexa.leq[i, j] and i != j]
        lines += [f"neg {i} {int(hexa.neg[i])}" for i in range(3)]
        with pytest.raises(LatticeFileError, match="orthomodular"):
            parse_lattice("\n".join(lines))

    @pytest.mark.parametrize("text, hint", [
        ("leq 0 1", "header"),
        ("oml 2\noml 2\nleq 0 1\nneg 0 1", "duplicate"),
        ("oml 2\nleq 0 7\nneg 0 1", "range"),
        ("oml 2\nleq 0 1", "orthocomplement"),
        ("oml 2\nleq 0 1\nneg 0 1\nneg 0 0", "conflicting"),
        ("oml 2\nwat 0 1", "parse|expected"),
        ("oml 0", "element"),
        ("", "header"),
    ])
    def test_rejects_malformed(self, text, hint):
        with pytest.raises(LatticeFileError, match=hint):
            parse_lattice(text)

    @pytest.mark.parametrize("n", [MAX_ELEMENTS + 1, 100_000])
    def test_rejects_a_header_past_the_element_limit(self, n):
        with pytest.raises(LatticeFileError, match=f"more than the limit of {MAX_ELEMENTS}"):
            parse_lattice(f"oml {n}\nleq 0 1\nneg 0 1")

    def test_a_header_at_the_element_limit_passes(self):
        # the header is accepted; the first element line is read and refused
        with pytest.raises(LatticeFileError, match="line 2: element out of range"):
            parse_lattice(f"oml {MAX_ELEMENTS}\nleq 0 {MAX_ELEMENTS}")

    def test_rejects_cycle(self):
        txt = "oml 3\nleq 0 1\nleq 1 0\nneg 0 2\nneg 1 1"
        with pytest.raises(LatticeFileError):
            parse_lattice(txt)


# --- tables from down-sets and verify_oml without pair loops -----------------

def _reference_bound_table(below):
    # the former pair loop: least index c among the common lower bounds of
    # a and b that every common lower bound lies below
    n = below.shape[0]
    table = np.full((n, n), -1, dtype=int)
    for a in range(n):
        for b in range(a + 1):
            bounds = np.where(below[:, a] & below[:, b])[0]
            for c in bounds:
                if below[bounds, c].all():
                    table[a, b] = table[b, a] = c
                    break
    return table


def _reference_verify(L):
    # the former verify_oml, pair loops included
    leq, n = L.leq, L.n
    if not leq.diagonal().all():
        return OMLFailure("reflexivity", (int(np.where(~leq.diagonal())[0][0]),))
    anti = leq & leq.T & ~np.eye(n, dtype=bool)
    if anti.any():
        a, b = np.argwhere(anti)[0]
        return OMLFailure("antisymmetry", (int(a), int(b)))
    gap = (leq @ leq) & ~leq
    if gap.any():
        a, c = np.argwhere(gap)[0]
        b = int(np.where(leq[a] & leq[:, c])[0][0])
        return OMLFailure("transitivity", (int(a), b, int(c)))
    if L.bottom is None or L.top is None:
        return OMLFailure("bounds", ())
    strict = leq & ~np.eye(n, dtype=bool)
    for below, table, law in ((leq, L.meet, "meet"), (leq.T, L.join, "join")):
        for a in range(n):
            for b in range(a + 1):
                bounds = below[:, a] & below[:, b]
                maximal = bounds & ~((strict if below is leq else strict.T)
                                     & bounds[None, :]).any(axis=1)
                picks = np.where(maximal)[0]
                if len(picks) != 1 or picks[0] != table[a, b]:
                    return OMLFailure(law, (a, b))
    if (L.neg[L.neg] != np.arange(n)).any():
        return OMLFailure("involution", (int(np.where(L.neg[L.neg] != np.arange(n))[0][0]),))
    rev = leq != leq[L.neg][:, L.neg].T
    if rev.any():
        a, b = np.argwhere(rev)[0]
        return OMLFailure("antitone", (int(a), int(b)))
    comp = np.where((L.meet[np.arange(n), L.neg] != L.bottom)
                    | (L.join[np.arange(n), L.neg] != L.top))[0]
    if len(comp):
        return OMLFailure("complement", (int(comp[0]),))
    for a in range(n):
        for b in range(n):
            if leq[a, b] and L.join[a, L.meet[L.neg[a], b]] != b:
                return OMLFailure("orthomodular", (a, b))
    return None


def _relabelled(L, perm):
    # the same structure with element i renamed perm[i]
    inv = np.argsort(perm)
    return FiniteOML(L.leq[np.ix_(inv, inv)], perm[L.neg[inv]], L.name)


def _unchecked_product(L1, L2):
    # product's layout without its verify_oml call, so O6 can be a factor
    n2 = L2.n
    I = np.arange(L1.n * n2)
    return FiniteOML(np.kron(L1.leq, L2.leq), L1.neg[I // n2] * n2 + L2.neg[I % n2])


def _random_preorder(rng, n, density, bounded=False):
    leq = (rng.random((n, n)) < density) | np.eye(n, dtype=bool)
    if bounded:
        leq[0, :] = leq[:, n - 1] = True
    while True:
        closed = leq | (leq @ leq)
        if (closed == leq).all():
            return leq
        leq = closed


def _random_structure(rng):
    # a relabelled OML or near-OML, or a random preorder, with its tables,
    # negation or order sometimes disturbed
    kind = rng.integers(4)
    if kind == 3:
        n = int(rng.integers(1, 8))
        leq = _random_preorder(rng, n, 0.3, bounded=rng.random() < 0.8)
        base = FiniteOML(leq, rng.permutation(n))
    else:
        base = [o6(), mo(2), boolean(2), mo(3), _unchecked_product(o6(), boolean(1)),
                _unchecked_product(mo(2), boolean(1))][int(rng.integers(6))]
        base = _relabelled(base, rng.permutation(base.n))
    leq, neg, n = base.leq.copy(), base.neg.copy(), base.n
    meet, join = base.meet.copy(), base.join.copy()
    for _ in range(int(rng.integers(3))):
        what = int(rng.integers(4))
        a, b = (int(x) for x in rng.integers(n, size=2))
        if what == 0:
            meet[a, b] = rng.integers(-1, n)
        elif what == 1:
            join[a, b] = rng.integers(-1, n)
        elif what == 2:
            neg[a], neg[b] = neg[b], neg[a]
        elif a != b and rng.random() < 0.3:
            leq[a, b] = ~leq[a, b]
    return FiniteOML(leq, neg, tables=(meet, join))


def _reference_symmetry(L):
    # the check that follows the former ones: the pairs a < b, which the
    # former loops never read, in row-major order
    for table, law in ((L.meet, "meet"), (L.join, "join")):
        for a in range(L.n):
            for b in range(a + 1, L.n):
                if table[a, b] != table[b, a]:
                    return OMLFailure(law, (a, b))
    return None


def test_verify_oml_reports_what_the_pair_loops_reported():
    # every structure the former loops rejected keeps their law and pair; one
    # they passed fails only where a table differs from its transpose
    rng = np.random.default_rng(7)
    laws, skewed = Counter(), Counter()
    for _ in range(1500):
        L = _random_structure(rng)
        expected = _reference_verify(L)
        if expected is None:
            expected = _reference_symmetry(L)
            skewed[expected.law if expected else None] += 1
        assert verify_oml(L) == expected
        laws[expected.law if expected else None] += 1
    # the fuzz reaches every stage, the pair checks included
    assert {"meet", "join", "orthomodular", None} <= set(laws), laws
    assert {"meet", "join", None} <= set(skewed), skewed


def test_verify_oml_reads_the_upper_triangle():
    M = mo(2)
    meet = M.meet.copy()
    meet[1, 3] = 5          # the true meet of a1 and a2 is bottom
    bad = FiniteOML(M.leq, M.neg, "MO2", tables=(meet, M.join))
    assert str(verify_oml(bad)) == "meet fails at (1, 3)"
    join = M.join.copy()
    join[2, 4] = 0
    bad = FiniteOML(M.leq, M.neg, "MO2", tables=(M.meet, join))
    assert str(verify_oml(bad)) == "join fails at (2, 4)"


def test_tables_match_the_pair_loop_construction():
    rng = np.random.default_rng(11)
    lattices = [*battery(), o6(), boolean(5), mo(4), product(mo(3), boolean(2))]
    lattices += [FiniteOML(_random_preorder(rng, n, 0.35), np.arange(n))
                 for n in rng.integers(1, 9, size=300)]
    for L in lattices:
        built = FiniteOML(L.leq, L.neg)
        assert (built.meet == _reference_bound_table(L.leq)).all()
        assert (built.join == _reference_bound_table(L.leq.T)).all()


def test_tables_at_the_element_limit_match_the_closed_form():
    B = boolean(8)
    assert B.n == MAX_ELEMENTS
    lines = [f"oml {B.n}"]
    lines += [f"leq {a} {a | 1 << i}" for a in range(B.n) for i in range(8) if not a >> i & 1]
    lines += [f"neg {a} {int(B.neg[a])}" for a in range(B.n // 2)]
    L = parse_lattice("\n".join(lines), "2^8")
    assert (L.leq == B.leq).all()
    assert (L.meet == B.meet).all() and (L.join == B.join).all()


def test_boolean_algebras_record_copies_of_two():
    assert boolean(1).factors == ()
    B3 = boolean(3)
    assert len(B3.factors) == 3 and all(F is B3.factors[0] for F in B3.factors)
    assert B3.factors[0].name == "2" and B3.factors[0].factors == ()
    assert [F.name for F in by_name("2^2").factors] == ["2", "2"]


def test_products_record_their_factors():
    B = battery()
    assert [L.factors for L in (B[0], B[2])] == [(), ()]
    assert [F.name for F in B[3].factors] == ["2", "MO2"]
    F2, _ = free_oml2()
    assert [F.name for F in F2.factors] == ["2^4", "MO2"]
    assert F2 is B[4]
