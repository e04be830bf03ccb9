"""Finite orthomodular lattices with precomputed operation tables.

Elements are dense indices 0..n-1.  ``leq[i, j]`` means element i lies
below element j; meets, joins and the orthocomplement are table lookups,
which keeps the large interpretation sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FiniteOML", "OMLFailure",
    "verify_oml", "sasaki_and", "sasaki_arrow",
    "boolean", "mo", "product", "free_oml2", "o6",
    "generated_subalgebra", "parse_lattice", "battery", "by_name",
    "LatticeFileError", "MAX_ELEMENTS",
]

# the largest lattice file accepted: the header allocates n x n tables and the
# meet/join tables and verify_oml hold n^2 packed down-sets of n bits; a file
# at the limit takes about 0.1 s to read and verify on a 2-core machine (F2,
# the largest built-in lattice, has 96 elements)
MAX_ELEMENTS = 256


class LatticeFileError(Exception):
    pass


@dataclass(frozen=True)
class OMLFailure:
    """Names the violated axiom and the offending elements."""

    law: str
    elements: tuple

    def __str__(self):
        spot = ", ".join(str(e) for e in self.elements)
        return f"{self.law} fails at ({spot})" if self.elements else f"{self.law} fails"


class FiniteOML:
    """A finite candidate (ortho)lattice.

    The constructor builds the meet/join tables optimistically from the
    order relation (or accepts them precomputed); ``verify_oml`` is the
    judge of whether the structure really is an orthomodular lattice.
    All factory functions in this module verify what they build, except
    ``o6`` which exists to be rejected.  ``factors`` names the lattices
    whose product this one is (set by ``product``); an inequality holds
    here iff it holds in each of them.  ``generators`` is a generating
    pair where one is known (set by ``free_oml2``).
    """

    generators = None

    def __init__(self, leq, neg, name="", tables=None, factors=()):
        self.leq = np.array(leq, dtype=bool)
        self.neg = np.array(neg, dtype=int)
        self.n = self.leq.shape[0]
        self.name = name
        self.factors = tuple(factors)
        bots = np.where(self.leq.all(axis=1))[0]
        tops = np.where(self.leq.all(axis=0))[0]
        self.bottom = int(bots[0]) if len(bots) else None
        self.top = int(tops[0]) if len(tops) else None
        if tables is not None:
            self.meet, self.join = (np.array(t, dtype=int) for t in tables)
        else:
            self.meet = _bound_table(self.leq)
            self.join = _bound_table(self.leq.T)
        for arr in (self.leq, self.neg, self.meet, self.join):
            arr.setflags(write=False)

    def le(self, a, b) -> bool:
        return bool(self.leq[a, b])

    def __repr__(self):
        return f"FiniteOML({self.name or 'unnamed'}, n={self.n})"


def _bound_table(below):
    # greatest lower bounds w.r.t. `below` (transpose gives least uppers): the
    # down-sets of a and b meet in the down-set of a & b, so each intersection
    # is looked up among the down-sets (row c of `downs` packs {x : x <= c});
    # -1 marks a pair with no such bound, left for verify_oml to report
    n = below.shape[0]
    downs = np.ascontiguousarray(np.packbits(below.T, axis=1))
    key = f"V{downs.shape[1]}"
    order = np.argsort(downs.view(key).ravel(), kind="stable")
    ranked = downs[order].view(key).ravel()
    pairs = (downs[:, None] & downs[None, :]).view(key).reshape(n, n)
    at = np.minimum(np.searchsorted(ranked, pairs), n - 1)
    return np.where(ranked[at] == pairs, order[at], -1)


def _first(mask):
    """(row, column) of the first True of a 2-d mask in row-major order."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def verify_oml(L: FiniteOML):
    """Check every FiniteOML invariant; None if fine, else an OMLFailure.

    Checks, in order: partial order, bounds, unique binary meets/joins
    (agreeing with the cached tables on the pairs b <= a), orthocomplement
    laws, the orthomodular law a <= b  =>  a | (~a & b) = b, and finally
    that each table is symmetric, which covers the pairs a < b.
    """
    leq, n = L.leq, L.n
    if not leq.diagonal().all():
        return OMLFailure("reflexivity", (int(np.where(~leq.diagonal())[0][0]),))
    anti = leq & leq.T & ~np.eye(n, dtype=bool)
    if anti.any():
        return OMLFailure("antisymmetry", _first(anti))
    gap = (leq @ leq) & ~leq
    if gap.any():
        a, c = np.argwhere(gap)[0]
        b = int(np.where(leq[a] & leq[:, c])[0][0])
        return OMLFailure("transitivity", (int(a), b, int(c)))
    if L.bottom is None or L.top is None:
        return OMLFailure("bounds", ())
    idx = np.arange(n)
    for below, table, law in ((leq, L.meet, "meet"), (leq.T, L.join, "join")):
        # table[a, b] must be a common lower bound that every common lower
        # bound lies below; pairs b <= a only, in row-major order
        downs = np.packbits(below.T, axis=1)
        known = (table >= 0) & (table < n)
        t = np.where(known, table, 0)
        stray = ((downs[:, None] & downs[None, :]) & ~downs[t]).any(axis=2)
        bad = np.tril(~(known & below[t, idx[:, None]] & below[t, idx[None, :]])
                      | stray)
        if bad.any():
            return OMLFailure(law, _first(bad))
    if (L.neg[L.neg] != np.arange(n)).any():
        return OMLFailure("involution", (int(np.where(L.neg[L.neg] != np.arange(n))[0][0]),))
    rev = leq != leq[L.neg][:, L.neg].T
    if rev.any():
        return OMLFailure("antitone", _first(rev))
    comp = np.where((L.meet[np.arange(n), L.neg] != L.bottom)
                    | (L.join[np.arange(n), L.neg] != L.top))[0]
    if len(comp):
        return OMLFailure("complement", (int(comp[0]),))
    a, b = np.nonzero(leq)
    broken = np.nonzero(L.join[a, L.meet[L.neg[a], b]] != b)[0]
    if len(broken):
        return OMLFailure("orthomodular", (int(a[broken[0]]), int(b[broken[0]])))
    for table, law in ((L.meet, "meet"), (L.join, "join")):
        # the pairs a < b: the checks above read the table's lower triangle
        skew = np.triu(table != table.T, 1)
        if skew.any():
            return OMLFailure(law, _first(skew))
    return None


def _checked(L: FiniteOML) -> FiniteOML:
    bad = verify_oml(L)
    if bad is not None:
        raise ValueError(f"built lattice {L.name!r} is not an OML: {bad}")
    return L


def sasaki_and(L: FiniteOML, a, b):
    """a & b = (a | ~b) & b, the Sasaki projection of a onto b; like
    ``sasaki_arrow``, elementwise over elements or arrays of elements."""
    return L.meet[L.join[a, L.neg[b]], b]


def sasaki_arrow(L: FiniteOML, a, b):
    """a -> b = ~a | (a & b), the Sasaki arrow (adjoint to the projection)."""
    return L.join[L.neg[a], L.meet[a, b]]


# ---------------------------------------------------------------------------
# constructions


def boolean(k: int) -> FiniteOML:
    """Boolean algebra 2^k; elements are bitmasks.  For k >= 2 it is the
    product of k copies of ``2`` and records them as its factors."""
    n = 1 << k
    idx = np.arange(n)
    leq = (idx[:, None] & idx[None, :]) == idx[:, None]
    neg = (n - 1) ^ idx
    tables = (idx[:, None] & idx[None, :], idx[:, None] | idx[None, :])
    factors = (boolean(1),) * k if k >= 2 else ()
    return _checked(FiniteOML(leq, neg, "2" if k == 1 else f"2^{k}", tables=tables,
                              factors=factors))


def mo(m: int) -> FiniteOML:
    """MOm: bottom, m pairs of orthocomplementary atoms, top.

    Element order is (bot, a1, a1', a2, a2', ..., top); distinct atoms
    meet at bottom and join at top.
    """
    n = 2 * m + 2
    top = n - 1
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, top] = True
    neg = np.arange(n)
    neg[0], neg[top] = top, 0
    for i in range(m):
        neg[2 * i + 1], neg[2 * i + 2] = 2 * i + 2, 2 * i + 1
    return _checked(FiniteOML(leq, neg, f"MO{m}"))


def product(L1: FiniteOML, L2: FiniteOML, name=None) -> FiniteOML:
    """Componentwise product; element i = i1 * L2.n + i2 (row-major)."""
    n2 = L2.n
    n = L1.n * n2
    I = np.arange(n)
    a1, a2 = I[:, None] // n2, I[:, None] % n2
    b1, b2 = I[None, :] // n2, I[None, :] % n2
    leq = L1.leq[a1, b1] & L2.leq[a2, b2]
    neg = L1.neg[I // n2] * n2 + L2.neg[I % n2]
    meet = L1.meet[a1, b1] * n2 + L2.meet[a2, b2]
    join = L1.join[a1, b1] * n2 + L2.join[a2, b2]
    label = name if name is not None else f"{L1.name}x{L2.name}"
    return _checked(FiniteOML(leq, neg, label, tables=(meet, join), factors=(L1, L2)))


def o6() -> FiniteOML:
    """The benzene-ring hexagon 0 < a < b < 1, 0 < b' < a' < 1.

    An ortholattice that is *not* orthomodular — verify_oml rejects it
    at the pair (a, b); useful as a negative control.
    """
    # order: 0=bot, 1=a, 2=b, 3=b', 4=a', 5=top
    n = 6
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, 5] = True
    leq[1, 2] = True   # a <= b
    leq[3, 4] = True   # b' <= a'
    neg = np.array([5, 4, 3, 2, 1, 0])
    return FiniteOML(leq, neg, "O6")


def generated_subalgebra(L: FiniteOML, seeds) -> frozenset:
    """Least subset containing seeds, bottom and top, closed under &, |, ~."""
    mask = np.zeros(L.n, dtype=bool)
    for s in seeds:
        mask[s] = True
    mask[L.bottom] = mask[L.top] = True
    while True:
        ix = np.where(mask)[0]
        new = mask.copy()
        new[L.meet[np.ix_(ix, ix)].ravel()] = True
        new[L.join[np.ix_(ix, ix)].ravel()] = True
        new[L.neg[ix]] = True
        if (new == mask).all():
            return frozenset(int(i) for i in ix)
        mask = new


# first pair (in lexicographic element order) whose generated subalgebra is
# the whole of 2^4 x MO2; found by exhaustive search over all 96^2 pairs
_F2_GENERATORS = (19, 33)


@lru_cache(maxsize=None)
def free_oml2():
    """The free orthomodular lattice on two generators, 2^4 x MO2.

    Returns the 96-element lattice together with a generating pair;
    every two-variable orthomodular inequality holds in all OMLs iff it
    holds here.  The pair is also attached as ``lattice.generators``.
    """
    L = product(boolean(4), mo(2), name="F2")
    L.generators = _F2_GENERATORS
    return L, _F2_GENERATORS


# ---------------------------------------------------------------------------
# battery and file format


@lru_cache(maxsize=None)
def battery():
    """The refutation battery: 2, 2^2, MO2, 2xMO2, F2 (in that order)."""
    return (boolean(1), boolean(2), mo(2), product(boolean(1), mo(2)),
            free_oml2()[0])


def by_name(name: str) -> FiniteOML:
    for L in battery():
        if L.name == name:
            return L
    raise KeyError(f"unknown lattice {name!r}; built in: "
                   + ", ".join(L.name for L in battery()))


def parse_lattice(text: str, name: str = "file") -> FiniteOML:
    """Read the line-based lattice format and verify the result.

    Format: an ``oml N`` header (N at most ``MAX_ELEMENTS``), then
    ``leq I J`` and ``neg I J`` lines; ``#`` starts a comment.  Reflexive
    leq pairs may be omitted and the transitive closure is applied; neg
    lines are symmetrized.
    """
    n = None
    leq = None
    neg = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "oml" and len(parts) == 2:
                if n is not None:
                    raise LatticeFileError(f"line {lineno}: duplicate header")
                n = int(parts[1])
                if n < 1:
                    raise LatticeFileError(f"line {lineno}: need at least one element")
                if n > MAX_ELEMENTS:
                    raise LatticeFileError(
                        f"line {lineno}: {n} elements, more than the limit of {MAX_ELEMENTS}")
                leq = np.eye(n, dtype=bool)
                neg = np.full(n, -1, dtype=int)
                continue
            if n is None:
                raise LatticeFileError(f"line {lineno}: missing 'oml N' header")
            kind, i, j = parts[0], int(parts[1]), int(parts[2])
            if len(parts) != 3 or kind not in ("leq", "neg"):
                raise LatticeFileError(f"line {lineno}: expected 'leq I J' or 'neg I J'")
            if not (0 <= i < n and 0 <= j < n):
                raise LatticeFileError(f"line {lineno}: element out of range")
        except (ValueError, IndexError):
            raise LatticeFileError(f"line {lineno}: cannot parse {line!r}") from None
        if kind == "leq":
            leq[i, j] = True
        else:
            if neg[i] not in (-1, j) or neg[j] not in (-1, i):
                raise LatticeFileError(f"line {lineno}: conflicting neg for {i} or {j}")
            neg[i], neg[j] = j, i
    if n is None:
        raise LatticeFileError("missing 'oml N' header")
    if (neg < 0).any():
        missing = int(np.where(neg < 0)[0][0])
        raise LatticeFileError(f"no orthocomplement declared for element {missing}")
    while True:
        closed = leq | (leq @ leq)
        if (closed == leq).all():
            break
        leq = closed
    L = FiniteOML(leq, neg, name)
    bad = verify_oml(L)
    if bad is not None:
        raise LatticeFileError(f"not an orthomodular lattice: {bad}")
    return L
