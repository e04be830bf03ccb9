"""Closed subspaces of C^n as a numerical model.

The lattice of closed subspaces interprets the connectives: meet and
join are the usual lattice operations, orthocomplement is the adjoint
kernel, and the sequential connective has two independent readings —
the lattice form (A v B^perp) ^ B, and the column space of [B] applied
to A.  ``verify`` sweeps seeded random instances confirming that the
two readings agree, that the fold criterion's lattice and range sides
agree, and that sequential measurement delivers the advertised
probabilities and post-states.

Every operation runs on stacks (see the kernels below).  All
tolerances are module constants; the mathematics upstream is exact, so
the thresholds here are implementation choices, recorded once and used
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "Subspace", "MeasurementTrace", "MeasurementStep", "HilbertError",
    "subspace", "zero", "full", "random_subspace",
    "projector", "ortho", "join", "meet", "leq", "same",
    "sasaki_lattice", "sasaki_closure",
    "sequential_measure", "check_fold_criterion",
    "verify", "CheckRow", "MAX_DIM",
]

ORTHO_TOL = 1e-10       # Gram residual of a stored basis
RANK_TOL = 1e-9         # absolute singular-value cutoff, normalized input
CONTAIN_TOL = 1e-8      # subspace containment / agreement residual
EQ_TOL = 1e-9           # projector Frobenius distance for equality
ANNIHILATE_TOL = 1e-12  # a probability below this is zero
MAX_DIM = 64            # largest ambient dimension ``verify`` accepts
CHUNK_CELLS = 1 << 14   # a sweep's chunk holds at most CHUNK_CELLS // n**2 instances
MAX_CHAIN = 3           # the most links a fold or measurement sweep's chain draws


class HilbertError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Subspace:
    """An n x k complex array with orthonormal columns; k is the dimension."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2:
            raise HilbertError("basis must be a 2-d array")
        object.__setattr__(self, "basis", b)
        k = b.shape[1]
        if k:
            with np.errstate(invalid="ignore"):     # a NaN residual is refused below
                residual = np.abs(b.conj().T @ b - np.eye(k)).max()
            if not residual <= ORTHO_TOL:
                raise HilbertError(f"columns not orthonormal (residual {residual:.2e})")

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.n})"


# ---------------------------------------------------------------------------
# stack kernels, the one implementation of every operation.  A stack of T
# subspaces of C^n is a pair (u, m) of T unitaries (T, n, n) and a column
# mask (T, n): subspace t is spanned by the columns of u[t] that m[t]
# selects, and the other columns span its orthocomplement.  The public
# functions lift their arguments to stacks of one; the sweeps draw their
# instances one at a time and judge them a chunk at a time.


def _unitary(u):
    """The one invariant check of every stack a kernel produces."""
    residual = np.abs(np.swapaxes(u, -1, -2).conj() @ u - np.eye(u.shape[-1])).max(initial=0.0)
    if not residual <= ORTHO_TOL:
        raise HilbertError(f"stack not unitary (residual {residual:.2e})")
    return u


def _span(a):
    """Column spaces of a stack of n x c spanning sets: nonzero columns
    normalized, rank by the fixed singular-value threshold."""
    n, c = a.shape[-2:]
    if c < n:
        a = np.concatenate([a, np.zeros(a.shape[:-1] + (n - c,), complex)], axis=-1)
    norms = np.linalg.norm(a, axis=-2, keepdims=True)
    u, s, _ = np.linalg.svd(a / np.where(norms > 0, norms, 1.0), full_matrices=False)
    return _unitary(u), s > RANK_TOL


# the lattice operations as equations on stacks; _basis gives zero-padded n x n bases
def _basis(x): return x[0] * x[1][..., None, :]
def _proj(b): return b @ np.swapaxes(b, -1, -2).conj()
def _ortho(x): return x[0], ~x[1]
def _join(x, y): return _span(np.concatenate([_basis(x), _basis(y)], axis=-1))
def _meet(x, y): return _ortho(_join(_ortho(x), _ortho(y)))
def _sasaki_lattice(x, y): return _meet(_join(x, _ortho(y)), y)
def _sasaki_closure(x, y): return _span(_proj(_basis(y)) @ _basis(x))


def _leq(cols, p):
    """Per instance: the columns lie in the range of the projector p."""
    return np.linalg.norm((np.eye(p.shape[-1]) - p) @ cols, axis=(-2, -1)) < CONTAIN_TOL


def _product(projs):
    """P_L ... P_1 for each chain of a (T, L, n, n) stack of projectors."""
    return reduce(lambda acc, p: p @ acc, np.moveaxis(projs, 1, 0), np.eye(projs.shape[-1]))


def _fold_criterion(links, prod, b):
    """Both sides of the fold criterion for a stack of chains (T, L, n, n)
    whose projector products are ``prod``, against the stack b: the
    sequential fold from the whole space lies below b, and the range of
    the product lies in b.  A whole-space link changes neither side, so
    the fold skips it."""
    u, m = links
    fu, fm = b[0].copy(), np.ones_like(b[1])        # the whole space
    for k in range(u.shape[1]):
        live = ~m[:, k].all(axis=-1)
        fu[live], fm[live] = _sasaki_lattice((fu[live], fm[live]), (u[live, k], m[live, k]))
    pb = _proj(_basis(b))
    return _leq(_basis((fu, fm)), pb), _leq(prod, pb)


def _measure(projs, xi):
    """The unnormalized states (T, L, n) after each step of each chain,
    starting from the states xi (T, n), and their squared norms, the
    cumulative probabilities (T, L)."""
    ws = [xi]
    for k in range(projs.shape[1]):
        ws.append((projs[:, k] @ ws[-1][..., None])[..., 0])
    ws = np.stack(ws[1:], axis=1)
    return ws, np.linalg.norm(ws, axis=-1) ** 2


def _draw(rng, n, k=None):
    """A random subspace's draws, in order: its dimension unless given, then
    a standard complex Gaussian n x k block, here zero-padded to n x n."""
    if k is None:
        k = int(rng.integers(0, n + 1))
    g = np.zeros((n, n), dtype=complex)
    if k:
        g[:, :k] = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return g


def _padded(spaces):
    """Zero-padded n x n bases of Subspaces of one ambient dimension."""
    _same_ambient(*spaces)
    pad = np.zeros((len(spaces), spaces[0].n, spaces[0].n), dtype=complex)
    for s, p in zip(spaces, pad):
        p[:, :s.dim] = s.basis
    return pad


def _lifted(*spaces):
    """The spaces as stacks of one each."""
    return list(zip(*_span(_padded(spaces)[:, None])))


def _lift_chains(gs):
    """Stacks of chains, each followed by its b (T, L + 1, n, n), lifted:
    the links, their projectors and the b's."""
    u, m = _span(gs)
    links = (u[:, :-1], m[:, :-1])
    return links, _proj(_basis(links)), (u[:, -1], m[:, -1])


def _one(x) -> Subspace:
    """A stack of one as a Subspace."""
    return Subspace(x[0][0][:, x[1][0]])


# ---------------------------------------------------------------------------
# single subspaces


def subspace(vectors, n=None) -> Subspace:
    """Orthonormalize a spanning set (columns); rank by fixed threshold."""
    a = np.asarray(vectors, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        if n is None and a.ndim == 2 and a.shape[0]:
            n = a.shape[0]
        if n is None:
            raise HilbertError("empty spanning set needs an explicit dimension")
        return Subspace(np.zeros((n, 0), dtype=complex))
    if not np.isfinite(a).all():
        raise HilbertError("non-finite entry in a spanning set")
    return _one(_span(a[None]))


def zero(n: int) -> Subspace:
    return Subspace(np.zeros((n, 0), dtype=complex))


def full(n: int) -> Subspace:
    return Subspace(np.eye(n, dtype=complex))


def random_subspace(rng, n: int, k=None) -> Subspace:
    """Column space of a standard complex Gaussian n x k matrix."""
    return subspace(_draw(rng, n, k))


def _same_ambient(*spaces):
    dims = {s.n for s in spaces}
    if len(dims) != 1:
        raise HilbertError(f"ambient dimensions differ: {sorted(dims)}")


def projector(a: Subspace) -> np.ndarray:
    return _proj(a.basis)


def ortho(a: Subspace) -> Subspace:
    return _one(_ortho(*_lifted(a)))


def join(a: Subspace, b: Subspace) -> Subspace:
    return _one(_join(*_lifted(a, b)))


def meet(a: Subspace, b: Subspace) -> Subspace:
    return _one(_meet(*_lifted(a, b)))


def leq(a: Subspace, b: Subspace) -> bool:
    """Containment a <= b, at the agreement tolerance."""
    _same_ambient(a, b)
    return bool(_leq(a.basis, projector(b)))


def same(a: Subspace, b: Subspace) -> bool:
    _same_ambient(a, b)
    return bool(np.linalg.norm(projector(a) - projector(b)) < EQ_TOL)


def sasaki_lattice(a: Subspace, b: Subspace) -> Subspace:
    """(a v b^perp) ^ b, computed with the lattice operations only."""
    return _one(_sasaki_lattice(*_lifted(a, b)))


def sasaki_closure(a: Subspace, b: Subspace) -> Subspace:
    """Column space of [b] applied to a basis of a — the projected form."""
    return _one(_sasaki_closure(*_lifted(a, b)))


@dataclass(frozen=True)
class MeasurementStep:
    source: Subspace
    probability: float        # cumulative; 0.0 exactly when annihilated
    state: object             # unit vector, or None once annihilated

    @property
    def annihilated(self) -> bool:
        return self.state is None


@dataclass(frozen=True)
class MeasurementTrace:
    initial: np.ndarray
    steps: tuple

    @property
    def survived(self) -> bool:
        return all(not s.annihilated for s in self.steps)

    @property
    def final_probability(self) -> float:
        return self.steps[-1].probability if self.steps else 1.0

    @property
    def final_state(self):
        return self.steps[-1].state if self.steps else self.initial


def sequential_measure(xi0, chain) -> MeasurementTrace:
    """Project-and-renormalize along the chain.

    The cumulative probability is tracked on the unnormalized product,
    so the reported value is literally the squared norm of the chained
    projections applied to the initial state.  A step whose probability
    falls below the annihilation threshold truncates the trace.
    """
    xi0 = np.asarray(xi0, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(xi0) - 1.0) <= ORTHO_TOL:
        raise HilbertError("initial state must be a unit vector")
    chain = tuple(chain)
    steps = []
    if chain:
        _same_ambient(*chain)
        if chain[0].n != xi0.shape[0]:
            raise HilbertError("state dimension does not match the chain")
        ws, ps = _measure(np.stack([projector(a) for a in chain])[None], xi0[None])
        for a, w, p in zip(chain, ws[0], ps[0]):
            if p < ANNIHILATE_TOL:
                steps.append(MeasurementStep(a, 0.0, None))
                break
            steps.append(MeasurementStep(a, float(p), w / np.sqrt(p)))
    return MeasurementTrace(xi0, tuple(steps))


def check_fold_criterion(chain, b: Subspace):
    """(lattice-side, range-side) booleans; the two are provably equal.

    Lattice side: the left-associated sequential fold of the chain lies
    below b (empty fold = the whole space).  Range side: the column
    space of the reversed projector product lies in b.
    """
    links, projs, b1 = _lift_chains(_padded((*chain, b))[None])
    lat, ran = _fold_criterion(links, _product(projs), b1)
    return bool(lat[0]), bool(ran[0])


# ---------------------------------------------------------------------------
# seeded verification sweeps (the CLI's hilbert-verify backend)


@dataclass(frozen=True)
class CheckRow:
    name: str
    instances: int
    failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _sweep(rng, dims, trials, draw, judge):
    """(failures, worst) over ``trials`` instances, each drawing
    ``int(rng.choice(dims))`` and then ``draw(rng, n)``, a tuple of arrays.
    Chunks of at most CHUNK_CELLS // max(dims)**2 instances are stacked by
    n and judged at once, so memory does not grow with ``trials``.
    ``judge`` returns per-instance (counted, failed, worst) arrays; an
    instance not counted is replaced by a fresh draw after its chunk."""
    size, done, failures, worst = max(1, CHUNK_CELLS // int(max(dims)) ** 2), 0, 0, 0.0
    while done < trials:
        chunk = []
        for _ in range(min(size, trials - done)):
            n = int(rng.choice(dims))
            chunk.append((n, draw(rng, n)))
        for n in {n for n, _ in chunk}:
            group = [d for m, d in chunk if m == n]
            counted, failed, gap = judge(*map(np.stack, zip(*group)))
            done += int(counted.sum())
            failures += int((counted & failed).sum())
            worst = max(worst, float(np.max(gap, where=counted, initial=0.0)))
    return failures, worst


def _chain_and_b(rng, n, links):
    """Drawn links padded with the whole space to MAX_CHAIN, then b's draws."""
    return np.stack([*links, *[np.eye(n)] * (MAX_CHAIN - len(links)), _draw(rng, n)])


def closure_agreement_sweep(rng, dims, trials) -> CheckRow:
    """Projected-subspace closure against the lattice form, random pairs."""
    def draw(rng, n):
        return (np.stack([_draw(rng, n), _draw(rng, n)]),)

    def judge(gs):
        u, m = _span(gs)
        a, b = (u[:, 0], m[:, 0]), (u[:, 1], m[:, 1])
        gap = np.linalg.norm(_proj(_basis(_sasaki_lattice(a, b)))
                             - _proj(_basis(_sasaki_closure(a, b))), axis=(-2, -1))
        return np.ones(gap.shape, bool), gap >= CONTAIN_TOL, gap

    return CheckRow("sasaki-closure-agreement", trials, *_sweep(rng, dims, trials, draw, judge))


def fold_agreement_sweep(rng, dims, trials) -> CheckRow:
    """Lattice side versus range side of the fold criterion."""
    def draw(rng, n):
        links = [_draw(rng, n) for _ in range(int(rng.integers(0, MAX_CHAIN + 1)))]
        return (_chain_and_b(rng, n, links),)

    def judge(gs):
        links, projs, b = _lift_chains(gs)
        lat, ran = _fold_criterion(links, _product(projs), b)
        return np.ones(lat.shape, bool), lat != ran, (lat != ran) * 1.0

    return CheckRow("fold-criterion-agreement", trials, *_sweep(rng, dims, trials, draw, judge))


def measurement_sweep(rng, dims, trials) -> CheckRow:
    """When the fold criterion holds, surviving traces must end inside b
    with exactly the advertised probability.  b joins the range of the
    chain's projector product with a random subspace, so the criterion
    holds by construction; an instance where it does not is not counted.
    Each instance draws its initial state right after b, and one not
    counted is replaced by a fresh draw after its chunk."""
    def draw(rng, n):
        links = [_draw(rng, n, int(rng.integers(1, n + 1)))
                 for _ in range(int(rng.integers(1, MAX_CHAIN + 1)))]
        gs = _chain_and_b(rng, n, links)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return gs, g / np.linalg.norm(g)

    def judge(gs, xi):
        links, projs, r = _lift_chains(gs)
        prod = _product(projs)
        b = _join(_span(prod), r)
        ws, ps = _measure(projs, xi)
        survived = (ps >= ANNIHILATE_TOL).all(axis=1)
        final = ws[:, -1] / np.sqrt(np.where(survived, ps[:, -1], 1.0))[:, None]
        direct = np.linalg.norm((prod @ xi[..., None])[..., 0], axis=-1) ** 2
        gap = np.abs(ps[:, -1] - direct)
        inside = np.linalg.norm(final - (_proj(_basis(b)) @ final[..., None])[..., 0], axis=-1)
        seen = direct >= ANNIHILATE_TOL
        return (np.logical_and(*_fold_criterion(links, prod, b)),
                np.where(survived, (gap > 1e-12) | (inside >= CONTAIN_TOL), seen),
                np.where(survived, np.maximum(gap, inside), np.where(seen, direct, 0.0)))

    return CheckRow("measurement-consistency", trials, *_sweep(rng, dims, trials, draw, judge))


def verify(dim: int, trials: int, seed: int):
    """Run the three sweeps at one ambient dimension; rows for the CLI.
    A dimension outside 1..MAX_DIM is refused before anything is drawn."""
    if not 1 <= dim <= MAX_DIM:
        raise HilbertError(f"dimension {dim} is outside 1..{MAX_DIM} (hilbert.MAX_DIM)")
    rng = np.random.default_rng(seed)
    return [
        closure_agreement_sweep(rng, [dim], trials),
        fold_agreement_sweep(rng, [dim], trials),
        measurement_sweep(rng, [dim], trials),
    ]
