import itertools
import warnings
from functools import reduce

import numpy as np
import pytest

from orthoproof import hilbert
from orthoproof.hilbert import (
    ANNIHILATE_TOL, CONTAIN_TOL, MAX_DIM, RANK_TOL, HilbertError, Subspace,
    check_fold_criterion, closure_agreement_sweep, fold_agreement_sweep, full,
    join, leq, measurement_sweep, meet, ortho, projector,
    random_subspace, same, sasaki_closure, sasaki_lattice, sequential_measure,
    subspace, verify, zero,
)
from orthoproof.lattice import boolean

RT2 = 1 / np.sqrt(2)
E1 = subspace([[1], [0]])
E2 = subspace([[0], [1]])
DIAG = subspace([[RT2], [RT2]])


# --- construction -----------------------------------------------------------

def test_subspace_orthonormalizes_and_ranks():
    s = subspace([[1, 2], [0, 0]])          # two parallel columns
    assert s.dim == 1 and s.n == 2
    assert same(s, E1)


def test_zero_and_full():
    assert zero(3).dim == 0 and full(3).dim == 3
    assert same(ortho(zero(3)), full(3))
    assert same(ortho(full(3)), zero(3))


def test_zero_columns_dropped():
    s = subspace([[0, 1], [0, 0]])
    assert s.dim == 1
    assert subspace(np.zeros((3, 2))).dim == 0


def test_empty_spanning_set_needs_dimension():
    with pytest.raises(HilbertError):
        subspace(np.zeros((0, 0)))


def test_non_orthonormal_basis_rejected():
    with pytest.raises(HilbertError, match="orthonormal"):
        Subspace(np.array([[1.0], [1.0]], dtype=complex))


def test_random_subspace_is_reproducible():
    a = random_subspace(np.random.default_rng(5), 4, 2)
    b = random_subspace(np.random.default_rng(5), 4, 2)
    assert a.dim == 2 and same(a, b)


# --- projectors -------------------------------------------------------------

def test_projector_examples():
    assert np.allclose(projector(full(2)), np.eye(2))
    assert np.allclose(projector(zero(2)), np.zeros((2, 2)))
    assert np.allclose(projector(DIAG), [[0.5, 0.5], [0.5, 0.5]])


def test_projector_algebra():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = projector(random_subspace(rng, n))
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p.conj().T - p).max() < 1e-10


# --- lattice operations -----------------------------------------------------

def test_join_meet_of_distinct_lines():
    assert same(join(E1, DIAG), full(2))
    assert same(meet(E1, DIAG), zero(2))


def test_meet_is_idempotent():
    assert same(meet(E1, E1), E1)
    assert same(join(DIAG, DIAG), DIAG)


def test_ortho_is_an_involution():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_subspace(rng, int(rng.integers(2, 6)))
        assert same(ortho(ortho(a)), a)
        assert same(meet(a, ortho(a)), zero(a.n))
        assert same(join(a, ortho(a)), full(a.n))


def test_leq_is_containment():
    assert leq(zero(2), E1) and leq(E1, full(2)) and leq(E1, E1)
    assert not leq(E1, DIAG) and not leq(full(2), E1)


def test_dimension_mismatch_raises():
    with pytest.raises(HilbertError, match="ambient"):
        join(E1, full(3))
    with pytest.raises(HilbertError, match="ambient"):
        meet(full(3), E2)


def test_two_orthogonal_lines_form_a_boolean_ortholattice():
    # {0, the two axes, C^2} against the four-element boolean lattice,
    # checked by exhausting bijections.
    elems = [zero(2), E1, E2, full(2)]
    L = boolean(2)
    found = False
    for perm in itertools.permutations(range(L.n)):
        ok = True
        for i, j in itertools.product(range(4), repeat=2):
            mt = next(k for k in range(4) if same(meet(elems[i], elems[j]), elems[k]))
            jn = next(k for k in range(4) if same(join(elems[i], elems[j]), elems[k]))
            if L.meet[perm[i], perm[j]] != perm[mt] or L.join[perm[i], perm[j]] != perm[jn]:
                ok = False
                break
        if ok and all(
            L.neg[perm[i]]
            == perm[next(k for k in range(4) if same(ortho(elems[i]), elems[k]))]
            for i in range(4)
        ):
            found = True
            break
    assert found


# --- the sequential connective, both routes ---------------------------------

def test_sasaki_example_line_onto_diagonal():
    assert same(sasaki_lattice(E1, DIAG), DIAG)
    assert same(sasaki_closure(E1, DIAG), DIAG)


def test_sasaki_against_full_space_is_identity():
    assert same(sasaki_lattice(E1, full(2)), E1)
    assert same(sasaki_closure(E1, full(2)), E1)


def test_sasaki_of_orthogonal_pair_is_zero():
    assert same(sasaki_lattice(E2, E1), zero(2))
    assert same(sasaki_closure(E2, E1), zero(2))


def test_closure_agreement_sweep_dims_2_to_6():
    rng = np.random.default_rng(0)
    row = closure_agreement_sweep(rng, [2, 3, 4, 5, 6], 200)
    assert row.passed and row.instances == 200
    assert row.worst < 1e-8


# --- sequential measurement -------------------------------------------------

def test_measurement_example():
    tr = sequential_measure([1, 0], [DIAG])
    assert tr.survived
    assert tr.final_probability == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(tr.final_state, [RT2, RT2])


def test_measurement_of_state_already_inside():
    tr = sequential_measure([RT2, RT2], [DIAG])
    assert tr.final_probability == pytest.approx(1.0, abs=1e-14)


def test_measurement_annihilation():
    tr = sequential_measure([RT2, -RT2], [DIAG])
    assert not tr.survived
    assert tr.steps[0].probability == 0.0
    assert tr.steps[0].state is None
    assert tr.steps[0].annihilated


def test_annihilation_truncates_the_trace():
    tr = sequential_measure([RT2, -RT2], [DIAG, E1, E2])
    assert len(tr.steps) == 1


def test_empty_chain():
    tr = sequential_measure([1, 0], [])
    assert tr.survived and tr.final_probability == 1.0
    assert np.allclose(tr.final_state, [1, 0])


def test_probabilities_are_cumulative_and_decreasing():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        chain = [random_subspace(rng, n, k=int(rng.integers(1, n + 1)))
                 for _ in range(3)]
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tr = sequential_measure(g / np.linalg.norm(g), chain)
        ps = [s.probability for s in tr.steps]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))
        for s in tr.steps:
            if not s.annihilated:
                assert np.linalg.norm(s.state) == pytest.approx(1.0, abs=1e-10)


def test_non_unit_initial_state_rejected():
    with pytest.raises(HilbertError, match="unit"):
        sequential_measure([1, 1], [E1])


def test_state_chain_dimension_mismatch_rejected():
    with pytest.raises(HilbertError):
        sequential_measure([1, 0], [full(3)])


# --- fold criterion ---------------------------------------------------------

def test_fold_criterion_empty_chain():
    assert check_fold_criterion([], full(2)) == (True, True)
    assert check_fold_criterion([], DIAG) == (False, False)


def test_fold_criterion_single_link():
    assert check_fold_criterion([E1], E1) == (True, True)
    assert check_fold_criterion([E1], DIAG) == (False, False)
    assert check_fold_criterion([E1], full(2)) == (True, True)


def test_fold_agreement_sweep():
    rng = np.random.default_rng(1)
    row = fold_agreement_sweep(rng, [2, 3, 4], 100)
    assert row.passed and row.instances == 100


def test_measurement_consistency_sweep():
    rng = np.random.default_rng(2)
    row = measurement_sweep(rng, [2, 3, 4], 100)
    assert row.passed and row.instances == 100


def test_verify_reports_three_green_rows():
    rows = verify(3, 40, 0)
    assert [r.name for r in rows] == [
        "sasaki-closure-agreement",
        "fold-criterion-agreement",
        "measurement-consistency",
    ]
    assert all(r.passed for r in rows)


# --- non-finite input ----------------------------------------------------------

def test_non_finite_basis_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf):
            with pytest.raises(HilbertError, match="orthonormal"):
                Subspace(np.array([[bad], [0.0]], dtype=complex))
    with pytest.raises(HilbertError, match="unit"):
        sequential_measure([np.nan, 0], [E1])


def test_subspace_rejects_non_finite_entries_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in ([[np.inf, 0], [0, 1]], [[1, 0], [0, -np.inf]], [[complex(1, np.inf)], [0]]):
            with pytest.raises(HilbertError, match="non-finite"):
                subspace(np.array(rows, dtype=complex))


def test_rank_is_decided_on_normalized_columns():
    assert subspace([[1, 1e-10], [0, 1e-10]]).dim == 2


def test_stack_check_rejects_non_unitary_and_non_finite_stacks():
    good = np.stack([np.eye(2, dtype=complex)] * 3)
    assert hilbert._unitary(good) is good
    for bad in (np.array([[1, 1], [0, 1]]), np.array([[np.nan, 0], [0, 1]])):
        with pytest.raises(HilbertError, match="unitary"):
            hilbert._unitary(np.stack([np.eye(2), bad]).astype(complex))


def test_fold_criterion_sides_read_their_own_inputs():
    # one link E1 against b = E1: the fold lies below b; a product whose
    # range is E2 does not, so the range side is computed from the product
    links = hilbert._span(E1.basis[None, None])
    b = hilbert._span(E1.basis[None])
    lat, ran = hilbert._fold_criterion(links, projector(E2)[None], b)
    assert (bool(lat[0]), bool(ran[0])) == (True, False)


# --- the former per-instance implementation, kept as the reference -----------

def _ref_span(a):
    norms = np.linalg.norm(a, axis=0)
    if not np.any(norms > 0):
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a[:, norms > 0] / norms[norms > 0][None, :],
                            full_matrices=False)
    return u[:, :int(np.sum(s > RANK_TOL))]


def _ref_random(rng, n, k=None):
    if k is None:
        k = int(rng.integers(0, n + 1))
    if k == 0:
        return np.zeros((n, 0), dtype=complex)
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return np.linalg.svd(g, full_matrices=False)[0][:, :k]


def _ref_proj(a):
    return a @ a.conj().T


def _ref_ortho(a):
    n = a.shape[0]
    return np.linalg.svd(np.eye(n) - _ref_proj(a))[0][:, :n - a.shape[1]]


def _ref_join(a, b):
    return _ref_span(np.hstack([a, b]))


def _ref_meet(a, b):
    return _ref_ortho(_ref_join(_ref_ortho(a), _ref_ortho(b)))


def _ref_sasaki_lattice(a, b):
    return _ref_meet(_ref_join(a, _ref_ortho(b)), b)


def _ref_sasaki_closure(a, b):
    return _ref_span(_ref_proj(b) @ a)


def _ref_product(chain, n):
    return reduce(lambda acc, a: _ref_proj(a) @ acc, chain, np.eye(n, dtype=complex))


def _ref_fold(chain, b):
    n = b.shape[0]
    fold = reduce(_ref_sasaki_lattice, chain, np.eye(n, dtype=complex))
    outside = np.eye(n) - _ref_proj(b)
    lat = fold.shape[1] == 0 or np.linalg.norm(outside @ fold) < CONTAIN_TOL
    return bool(lat), bool(np.linalg.norm(outside @ _ref_product(chain, n)) < CONTAIN_TOL)


def _ref_rows(rng, dims, trials, max_chain=3):
    """The three sweeps, one instance at a time, in the order verify runs them."""
    failures, worst = 0, 0.0
    for _ in range(trials):
        n = int(rng.choice(dims))
        a, b = _ref_random(rng, n), _ref_random(rng, n)
        gap = float(np.linalg.norm(_ref_proj(_ref_sasaki_lattice(a, b))
                                   - _ref_proj(_ref_sasaki_closure(a, b))))
        worst = max(worst, gap)
        failures += gap >= CONTAIN_TOL
    rows = [("sasaki-closure-agreement", trials, failures, worst)]
    failures = 0
    for _ in range(trials):
        n = int(rng.choice(dims))
        chain = [_ref_random(rng, n) for _ in range(int(rng.integers(0, max_chain + 1)))]
        lat, ran = _ref_fold(chain, _ref_random(rng, n))
        failures += lat != ran
    rows.append(("fold-criterion-agreement", trials, failures, float(failures > 0)))
    failures, worst, done = 0, 0.0, 0
    while done < trials:
        n = int(rng.choice(dims))
        chain = [_ref_random(rng, n, int(rng.integers(1, n + 1)))
                 for _ in range(int(rng.integers(1, max_chain + 1)))]
        m = _ref_product(chain, n)
        b = _ref_join(_ref_span(m), _ref_random(rng, n))
        if _ref_fold(chain, b) != (True, True):
            continue
        done += 1
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = g / np.linalg.norm(g)
        direct = float(np.linalg.norm(m @ w) ** 2)
        for a in chain:
            w = _ref_proj(a) @ w
            p = float(np.linalg.norm(w) ** 2)
            if p < ANNIHILATE_TOL:
                break
        if p >= ANNIHILATE_TOL:
            gap = abs(p - direct)
            inside = float(np.linalg.norm((np.eye(n) - _ref_proj(b)) @ (w / np.sqrt(p))))
            worst = max(worst, gap, inside)
            failures += gap > 1e-12 or inside >= CONTAIN_TOL
        elif direct >= ANNIHILATE_TOL:
            failures += 1
            worst = max(worst, direct)
    rows.append(("measurement-consistency", trials, failures, worst))
    return rows


def _rows(rng, dims, trials):
    return [closure_agreement_sweep(rng, dims, trials),
            fold_agreement_sweep(rng, dims, trials),
            measurement_sweep(rng, dims, trials)]


def _assert_same_rows(got, want):
    for row, (name, instances, failures, worst) in zip(got, want, strict=True):
        assert (row.name, row.instances, row.failures, row.passed) \
            == (name, instances, failures, failures == 0)
        assert abs(row.worst - worst) <= 1e-12, (row, worst)


# --- the stacked sweeps against the reference ---------------------------------

@pytest.mark.parametrize("dims", [[1], [2], [3], [4], [5], [6], [2, 3, 4]])
def test_sweeps_match_the_per_instance_reference(dims):
    for seed in range(100):
        got = _rows(np.random.default_rng(seed), dims, 5)
        _assert_same_rows(got, _ref_rows(np.random.default_rng(seed), dims, 5))


def test_lattice_operations_match_the_reference_on_500_pairs():
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        a, b = random_subspace(rng, n), random_subspace(rng, n)
        for op, ref in ((sasaki_lattice, _ref_sasaki_lattice), (meet, _ref_meet),
                        (join, _ref_join), (sasaki_closure, _ref_sasaki_closure)):
            gap = np.linalg.norm(projector(op(a, b)) - _ref_proj(ref(a.basis, b.basis)))
            assert gap < 1e-10, (seed, op.__name__, gap)


def test_sweep_svd_calls_do_not_grow_with_trials(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kw):
        calls.append(1)
        return svd(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for seed in range(3):
        counts = []
        for trials in (10, 40):
            calls.clear()
            assert all(r.passed for r in verify(3, trials, seed))
            counts.append(len(calls))
        assert counts[0] == counts[1] < 40, counts


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_chunk_size_does_not_change_the_draws(monkeypatch, dim):
    svd, stacked = np.linalg.svd, []

    def recording_svd(a, *args, **kw):
        stacked.append(a.shape[0])
        return svd(a, *args, **kw)

    for seed in range(4):
        want = [(r.name, r.instances, r.failures, r.worst) for r in verify(dim, 10, seed)]
        for cells in (3, 3 * dim * dim):
            monkeypatch.setattr(hilbert, "CHUNK_CELLS", cells)
            monkeypatch.setattr(np.linalg, "svd", recording_svd)
            stacked.clear()
            _assert_same_rows(verify(dim, 10, seed), want)
            assert max(stacked) == max(1, cells // dim ** 2)    # instances per stack
            monkeypatch.undo()


def test_measurement_sweep_replaces_an_instance_not_counted(monkeypatch):
    fold_criterion, measure, calls, measured = hilbert._fold_criterion, hilbert._measure, [], []

    def first_instance_breaks_the_guarantee(links, prod, b):
        lat, ran = fold_criterion(links, prod, b)
        if not calls:
            lat[0] = False
        calls.append(len(lat))
        return lat, ran

    def first_instance_measures_wrong(projs, xi):
        ws, ps = measure(projs, xi)
        if not measured:            # the same stack as the first fold criterion
            ps[0] *= 2              # a failure, but of an instance not counted
        measured.append(len(ps))
        return ws, ps

    monkeypatch.setattr(hilbert, "_fold_criterion", first_instance_breaks_the_guarantee)
    monkeypatch.setattr(hilbert, "_measure", first_instance_measures_wrong)
    rng = np.random.default_rng(4)
    row = measurement_sweep(rng, [2, 3, 4], 20)
    assert row.instances == 20 and row.passed and row.worst < 1e-12
    assert sum(calls[:-1]) == 20 and calls[-1] == 1      # one replacement, judged after
    monkeypatch.undo()
    unpatched = np.random.default_rng(4)
    measurement_sweep(unpatched, [2, 3, 4], 20)
    assert rng.bit_generator.state != unpatched.bit_generator.state


def test_measurement_sweep_reports_a_trace_annihilated_too_early(monkeypatch):
    measure, lost = hilbert._measure, []

    def first_trace_annihilated(projs, xi):
        ws, ps = measure(projs, xi)
        if not lost:
            lost.append(ps[0, -1])
            ws[0], ps[0] = 0.0, 0.0
        return ws, ps

    monkeypatch.setattr(hilbert, "_measure", first_trace_annihilated)
    row = measurement_sweep(np.random.default_rng(5), [3], 10)
    assert (row.instances, row.failures) == (10, 1)
    assert abs(row.worst - lost[0]) < 1e-12        # the direct probability


def test_verify_refuses_a_dimension_above_the_limit_before_drawing(monkeypatch):
    def no_draws(*args, **kw):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for dim in (MAX_DIM + 1, 100000, 0):
        with pytest.raises(HilbertError, match="outside"):
            verify(dim, 100, 0)
