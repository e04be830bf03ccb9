"""Seeded inputs for the four workloads, made without the program.

Formulas are nested tuples::

    ("v", name)            letter
    ("~", f)               orthocomplement
    ("&", f, g)  /\\        ("|", f, g)  \\/
    (">", f, g)  ->        ("x", f, g)  ><
    ("A", rel, terms)      atom; terms are ("var", n) or ("const", n)
    ("all", x, f)          forall      ("ex", x, f)  exists

A sequent is ``(antecedent tuple, succedent)``.  Every generator takes a
``random.Random`` and nothing else that varies, so one seed gives the same
inputs in every process.  The shapes and sizes of the inputs are fixed;
the seed picks letters, connectives and which rule is applied where.
"""

from __future__ import annotations

LETTERS = ("p", "q", "r")
_OPS = {"&": "/\\", "|": "\\/", ">": "->", "x": "><"}


# ---------------------------------------------------------------------------
# rendering: every binary connective is bracketed


def render(f):
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag == "~":
        return "~" + render(f[1])
    if tag == "A":
        return f[1] + "(" + ",".join(t[1] for t in f[2]) + ")"
    if tag in ("all", "ex"):
        word = "forall" if tag == "all" else "exists"
        return f"({word} {f[1]}. {render(f[2])})"
    return f"({render(f[1])} {_OPS[tag]} {render(f[2])})"


def render_seq(s):
    ante, succ = s
    head = ", ".join(render(f) for f in ante)
    return (head + " |- " if head else "|- ") + render(succ)


def size(f):
    if f[0] in ("v", "A"):
        return 1
    return 1 + sum(size(g) for g in f[1:] if isinstance(g, tuple))


def subst(f, x, t):
    tag = f[0]
    if tag == "v":
        return f
    if tag == "A":
        return ("A", f[1], tuple(t if a == ("var", x) else a for a in f[2]))
    if tag in ("all", "ex"):
        return f if f[1] == x else (tag, f[1], subst(f[2], x, t))
    return (tag,) + tuple(subst(g, x, t) for g in f[1:])


def V(name):
    return ("v", name)


def random_formula(rng, names, connectives):
    """A formula with exactly ``connectives`` connective nodes."""
    if connectives == 0:
        return V(rng.choice(names))
    op = rng.choice(("~", "&", "|", ">"))
    if op == "~":
        return ("~", random_formula(rng, names, connectives - 1))
    left = rng.randrange(connectives)
    return (op, random_formula(rng, names, left),
            random_formula(rng, names, connectives - 1 - left))


def fixed_formula(rng, names, ops):
    """A formula whose connectives are exactly the multiset ``ops``, in a
    random order and tree shape: its evaluation cost does not depend on
    the seed."""
    ops = list(ops)
    rng.shuffle(ops)

    def build(todo):
        if not todo:
            return V(rng.choice(names))
        op, rest = todo[0], todo[1:]
        if op == "~":
            return ("~", build(rest))
        cut = rng.randrange(len(rest) + 1)
        return (op, build(rest[:cut]), build(rest[cut:]))

    return build(ops)


# ---------------------------------------------------------------------------
# catalog: metavariable instantiations


def core_binary(rng):
    """A /\\ or -> of two distinct letters: every instantiation has the same
    expanded size, so the work per entry does not depend on the seed."""
    a, b = rng.sample(LETTERS, 2)
    return (rng.choice(("&", ">")), V(a), V(b))


def catalog_instance(rng, variables, glen):
    inst = {"gamma": tuple(core_binary(rng) for _ in range(glen)), "delta": ()}
    for name in variables:
        inst[name] = core_binary(rng)
    return inst


def quantifier_case(rng, eid, gamma):
    """(premises, conclusion, args) for the three quantifier entries, with a
    small nonduplicating matrix phi(x) and a closed instance term."""
    x = ("var", "x")
    t = ("const", rng.choice(("c", "d")))
    a = V(rng.choice(LETTERS))
    rx = ("A", rng.choice(("R", "T")), (x,))
    phi = rng.choice((rx, ("&", rx, a), (">", a, rx), ("~", rx),
                      ("A", "S", (x, t))))
    sub = subst(phi, "x", t)
    if eid == "L5.6":
        return (), (gamma, ("x", ("all", "x", phi), sub)), {"t": t}
    if eid == "P5.7.EI":
        return ((gamma, sub),), (gamma, ("ex", "x", phi)), {"t": t}
    psi = rng.choice((a, ("~", a), core_binary(rng)))
    return (((gamma, ("ex", "x", phi)), (gamma + (phi,), psi),
             (gamma + (psi, phi), psi)), (gamma, psi), {})


# ---------------------------------------------------------------------------
# proofs: forward construction over the primitive rules and light entries

# size cap on any generated formula, in nodes
_CAP = 11


def _pool(rng):
    return [V(n) for n in LETTERS] + [core_binary(rng) for _ in range(3)] \
        + [("~", V(rng.choice(LETTERS)))]


# light catalog entries for ``derived`` lines, used in turn
_DERIVED = ("P2.4.dni", "L2.3.2", "P2.1", "C4.6.intro1", "L2.3.4", "L4.12.and")


class Proof:
    """Lines of a NOM proof built forward; each line is a dict with
    ``seq``, ``rule`` (a primitive rule or ``derived``), ``cid``, ``refs``
    (1-based line numbers) and ``just`` (the justification text)."""

    def __init__(self, rng, recent=0.0):
        self.rng = rng
        self.recent = recent
        self.pool = _pool(rng)
        self.contexts = [(), (rng.choice(self.pool),),
                         (rng.choice(self.pool), rng.choice(self.pool))]
        self.lines = []
        self.turn = 0

    def add(self, seq, rule, refs=(), cid=None):
        if any(size(f) > _CAP for f in (*seq[0], seq[1])):
            return False
        just = f"derived {cid}" if rule == "derived" else rule
        if refs:
            just += " from " + " ".join(str(r) for r in refs)
        self.lines.append({"seq": seq, "rule": rule, "cid": cid,
                           "refs": tuple(refs), "just": just})
        return True

    def _pick(self, pred):
        hits = [i for i, ln in enumerate(self.lines) if pred(ln["seq"])]
        if hits and hits[-1] == len(self.lines) - 1 and self.rng.random() < self.recent:
            return hits[-1]
        return self.rng.choice(hits) if hits else None

    def _pair(self, pred):
        n = len(self.lines)
        hits = [(i, j) for i in range(n) for j in range(n)
                if pred(self.lines[i]["seq"], self.lines[j]["seq"])]
        if (n - 2, n - 1) in hits and self.rng.random() < self.recent:
            return n - 2, n - 1
        return self.rng.choice(hits) if hits else None

    def step(self, derived_every):
        """Append one line; returns False when the chosen move does not apply.
        Every ``derived_every``-th line uses a catalog entry, the next one
        in turn that fits, so the count of derived lines is fixed."""
        rng, L = self.rng, self.lines
        if L and (len(L) + 1) % derived_every == 0:
            for k in range(len(_DERIVED)):
                if self._derived(_DERIVED[(self.turn + k) % len(_DERIVED)]):
                    self.turn += k + 1
                    return True
        if not L or rng.random() < 0.18:
            ctx = rng.choice(self.contexts)
            phi = rng.choice(self.pool)
            return self.add((ctx + (phi,), phi), "assume")
        move = rng.choice(("imp_i", "imp_i", "imp_e", "and_i", "and_e",
                           "cut", "paste", "explode"))
        if move == "imp_i":
            i = self._pick(lambda s: s[0])
            if i is None:
                return False
            ante, succ = L[i]["seq"]
            return self.add((ante[:-1], (">", ante[-1], succ)), "imp_i", (i + 1,))
        if move == "imp_e":
            i = self._pick(lambda s: s[1][0] == ">")
            if i is None:
                return False
            ante, succ = L[i]["seq"]
            return self.add((ante + (succ[1],), succ[2]), "imp_e", (i + 1,))
        if move == "and_i":
            ij = self._pair(lambda a, b: a[0] == b[0])
            if ij is None:
                return False
            (ante, s1), (_, s2) = L[ij[0]]["seq"], L[ij[1]]["seq"]
            return self.add((ante, ("&", s1, s2)), "and_i", (ij[0] + 1, ij[1] + 1))
        if move == "and_e":
            i = self._pick(lambda s: s[1][0] == "&")
            if i is None:
                return False
            ante, succ = L[i]["seq"]
            which = rng.choice((1, 2))
            return self.add((ante, succ[which]), f"and_e{which}", (i + 1,))
        if move == "cut":
            ij = self._pair(lambda a, b: b[0] == a[0] + (a[1],))
            if ij is None:
                return False
            ante = L[ij[0]]["seq"][0]
            return self.add((ante, L[ij[1]]["seq"][1]), "cut", (ij[0] + 1, ij[1] + 1))
        if move == "paste":
            ij = self._pair(lambda a, b: a[0] == b[0])
            if ij is None:
                return False
            (ante, s1), (_, s2) = L[ij[0]]["seq"], L[ij[1]]["seq"]
            return self.add((ante + (s1,), s2), "paste", (ij[0] + 1, ij[1] + 1))
        i = self._pick(lambda s: s[1][0] == "~")
        if i is None:
            return False
        ante, succ = L[i]["seq"]
        return self.add((ante + (succ[1],), rng.choice(self.pool)), "explode", (i + 1,))

    def _derived(self, cid):
        rng, L = self.rng, self.lines
        if cid in ("L2.3.2", "L2.3.4"):
            ctx, phi = rng.choice(self.contexts), rng.choice(self.pool)
            nn = ("~", ("~", phi))
            seq = (ctx + (nn,), phi) if cid == "L2.3.2" else (ctx + (phi,), nn)
            return self.add(seq, "derived", (), cid)
        if cid == "P2.1":
            ij = self._pair(lambda a, b: a[0] == b[0] and b[1][0] == ">"
                            and b[1][1] == a[1])
            if ij is None:
                return False
            ante = L[ij[0]]["seq"][0]
            return self.add((ante, L[ij[1]]["seq"][1][2]), "derived",
                            (ij[0] + 1, ij[1] + 1), cid)
        if cid == "L4.12.and":
            i = self._pick(lambda s: s[1][0] == "&")
            if i is None:
                return False
            ante, succ = L[i]["seq"]
            return self.add((ante, ("x", succ[1], succ[2])), "derived", (i + 1,), cid)
        i = self._pick(lambda s: True)
        ante, succ = L[i]["seq"]
        if cid == "P2.4.dni":
            return self.add((ante, ("~", ("~", succ))), "derived", (i + 1,), cid)
        return self.add((ante, ("|", succ, rng.choice(self.pool))), "derived",
                        (i + 1,), cid)


def build_proof(rng, n_lines, derived_every=8, recent=0.0):
    """``recent`` is the chance that a rule takes the most recent line(s)
    as premises when they fit, as the REPL's bare forward steps do."""
    proof = Proof(rng, recent)
    while len(proof.lines) < n_lines:
        proof.step(derived_every)
    return proof


def corrupt(rng, proof):
    """Replace one line's succedent so that some MO2 assignment satisfies the
    line's premises and falsifies it; returns (line number, new sequent),
    or None when no line of this proof gave way."""
    import oracle
    mo2 = oracle.BY_NAME["MO2"]
    order = list(range(len(proof.lines)))
    rng.shuffle(order)
    for i in order:
        ln = proof.lines[i]
        prems = [proof.lines[r - 1]["seq"] for r in ln["refs"]]
        ante, succ = ln["seq"]
        for _ in range(6):
            cand = (ante, rng.choice(proof.pool + [("~", succ)]))
            if cand[1] == succ:
                continue
            if oracle.refuting_assignment(prems, cand, mo2) is not None:
                ln["seq"] = cand
                return i + 1, cand
    return None


def theorem_text(name, goal, lines):
    out = [f"theorem {name} mode=NOM", f"goal: {render_seq(goal)}"]
    out += [f"{i}: {render_seq(ln['seq'])} by {ln['just']}"
            for i, ln in enumerate(lines, 1)]
    out.append("qed")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# scripts workload


SCRIPT_THEOREMS = 200
CORRUPT_EVERY = 4


def script_lengths():
    """5 to 80 lines, the same multiset for every seed."""
    return [5 + (i * 75) // (SCRIPT_THEOREMS - 1) for i in range(SCRIPT_THEOREMS)]


def scripts_inputs(rng):
    """Generated theorems: dicts with name, text, goal, lines and, for every
    CORRUPT_EVERY-th theorem, the corrupted line number ``bad``."""
    out = []
    for k, n in enumerate(script_lengths()):
        proof = build_proof(rng, n)
        goal = proof.lines[-1]["seq"]
        bad = None
        if k % CORRUPT_EVERY == CORRUPT_EVERY - 1:
            # a proof none of whose lines gives way is drawn again
            while (found := corrupt(rng, proof)) is None:
                proof = build_proof(rng, n)
                goal = proof.lines[-1]["seq"]
            bad = found[0]
        name = f"gen{k}"
        out.append({"name": name, "goal": goal, "bad": bad,
                    "lines": proof.lines,
                    "text": theorem_text(name, goal, proof.lines)})
    order = list(range(len(out)))
    rng.shuffle(order)
    return [out[i] for i in order]


def scripts_workload(rng, shipped):
    """The shipped theorems, one block per item, then the generated ones.
    Each item has name, text, mode, hyps, goal and ``bad`` (the corrupted
    line number, or None)."""
    items = []
    for _, text in shipped:
        for block in split_theorems(text):
            name, mode, hyps, goal = theorem_header(block)
            items.append({"name": name, "text": block, "mode": mode,
                          "hyps": hyps, "goal": goal, "bad": None})
    for it in scripts_inputs(rng):
        items.append(dict(it, mode="NOM", hyps=[]))
    return items


def split_theorems(text):
    """Theorem blocks of a script file, each as its own file text."""
    blocks, cur = [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("theorem "):
            cur = [raw]
        elif cur is not None:
            cur.append(raw)
            if line == "qed":
                blocks.append("\n".join(cur) + "\n")
                cur = None
    return blocks


def theorem_header(text):
    """(name, mode, hypotheses, goal) read from a theorem block's text."""
    import oracle
    name = mode = goal = None
    hyps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("theorem "):
            _, name, m = line.split()
            mode = m.split("=", 1)[1]
        elif line.startswith("hyp "):
            hyps.append(oracle.parse_sequent(line.split(":", 1)[1]))
        elif line.startswith("goal"):
            goal = oracle.parse_sequent(line.split(":", 1)[1])
    return name, mode, hyps, goal


# ---------------------------------------------------------------------------
# repl workload


REPL_SESSIONS = (20, 40, 60, 80, 100) * 2
_FORWARD = ("imp_i", "imp_e", "and_i", "and_e1", "and_e2", "cut", "paste")
_FORWARD_DERIVED = ("P2.4.dni", "P2.1", "L4.12.and")


def repl_line(ln, number):
    """The session input for proof line ``number``: a forward step where the
    REPL can compute the conclusion, the full ``SEQ by JUST`` form otherwise.
    A primitive forward step is written bare, taking the most recent lines:
    the REPL rejects ``RULE from N`` without t=/x= arguments."""
    refs = " ".join(str(r) for r in ln["refs"])
    if ln["rule"] == "assume":
        return "assume " + ", ".join(render(f) for f in ln["seq"][0])
    recent = tuple(range(number - len(ln["refs"]), number))
    if ln["rule"] in _FORWARD and ln["refs"] == recent:
        return ln["rule"]
    if ln["rule"] == "derived" and ln["cid"] in _FORWARD_DERIVED:
        return f"derived {ln['cid']} from {refs}"
    return f"{render_seq(ln['seq'])} by {ln['just']}"


def repl_inputs(rng):
    """Sessions: dicts with the goal, the proof lines and the input lines."""
    sessions = []
    for n in REPL_SESSIONS:
        proof = build_proof(rng, n, derived_every=7, recent=0.7)
        goal = proof.lines[-1]["seq"]
        sessions.append({"goal": goal, "lines": proof.lines,
                         "inputs": [f"goal: {render_seq(goal)}"]
                         + [repl_line(ln, k) for k, ln in enumerate(proof.lines, 1)]})
    rng.shuffle(sessions)
    return sessions


# ---------------------------------------------------------------------------
# models workload


def _sequent(rng, names, ante_len, conn):
    ante = tuple(random_formula(rng, names, conn) for _ in range(ante_len))
    return ante, random_formula(rng, names, conn + 1)


def _exact(rng, k, make):
    """Draw from ``make`` until the sequent uses exactly the first k letters."""
    import oracle
    names = LETTERS[:k]
    while True:
        s = make(names)
        if oracle.seq_letters([s]) == list(names):
            return s


def _nested_compat(names, depth):
    f = V(names[0])
    for i in range(depth):
        f = ("x", f, V(names[(i + 1) % len(names)]))
    return f


_VALID_TEMPLATES = (
    lambda a, b: ((a, b), b),
    lambda a, b: ((("&", a, b),), a),
    lambda a, b: ((b,), ("|", a, ("&", ("~", a), ("|", a, b)))),
    lambda a, b: ((), (">", a, a)),
    lambda a, b: ((a,), ("~", ("~", a))),
    lambda a, b: ((("&", a, ("~", a)),), b),
)


def _battery_valid(rng, k, i):
    import oracle
    def make(names):
        a = fixed_formula(rng, names, ("&", ">"))
        b = fixed_formula(rng, names, ("&", ">"))
        return _VALID_TEMPLATES[i % len(_VALID_TEMPLATES)](a, b)
    mo2, two = oracle.BY_NAME["MO2"], oracle.BY_NAME["2"]
    while True:
        s = _exact(rng, k, make)
        if oracle.first_countermodel(s, two) is None \
                and oracle.first_countermodel(s, mo2) is None:
            return s


def _refuted_first_by(rng, k, lattice):
    import oracle
    mo2, two = oracle.BY_NAME["MO2"], oracle.BY_NAME["2"]
    while True:
        s = _exact(rng, k, lambda n: _sequent(rng, n, rng.choice((1, 2)), 1))
        in_two = oracle.first_countermodel(s, two) is not None
        if lattice == "2" and in_two:
            return s
        if lattice == "MO2" and not in_two \
                and oracle.first_countermodel(s, mo2) is not None:
            return s


# file lattices: (name, builder) built here, written with permuted labels
FILE_LATTICES = ("MO3", "MO4", "2^3", "MO2x2")


def file_lattice(index):
    import oracle
    name = FILE_LATTICES[index % len(FILE_LATTICES)]
    if name.startswith("MO") and "x" not in name:
        return oracle.mo(int(name[2:]))
    if name == "2^3":
        return oracle.boolean(3)
    return oracle.product(oracle.mo(2), oracle.boolean(1))


def lattice_file(rng, index):
    """(text, leq matrix, neg) of a permuted copy of a FILE_LATTICES member;
    only the covering pairs are written, so the reader must close them."""
    L = file_lattice(index)
    n = L.n
    perm = list(range(n))
    rng.shuffle(perm)
    leq = [[False] * n for _ in range(n)]
    neg = [0] * n
    lines = [f"# {FILE_LATTICES[index % len(FILE_LATTICES)]}, relabelled",
             f"oml {n}"]
    for a in range(n):
        neg[perm[a]] = perm[int(L.neg[a])]
        for b in range(n):
            if L.leq[a, b]:
                leq[perm[a]][perm[b]] = True
                between = any(L.leq[a, c] and L.leq[c, b]
                              for c in range(n) if c not in (a, b))
                if a != b and not between:
                    lines.append(f"leq {perm[a]} {perm[b]}")
    for a in range(n):
        if perm[a] < neg[perm[a]]:
            lines.append(f"neg {perm[a]} {neg[perm[a]]}")
    return "\n".join(lines) + "\n", leq, neg


# Sorted by cost the kinds fall into bands: cl, cm2, cmMO2 and val (well
# under a millisecond); d2 (about one); file; hv; cmvalid (a full sweep of
# F2); cmnest.  The counts put the median (item 55.5 of 110) and the 90th
# percentile (item 99.9) in the middle of a band, not on its edge, so that
# the seed cannot move them from one band to the next.
MODEL_MIX = (("cl", 10), ("cm2", 10), ("cmMO2", 10), ("val", 10), ("d2", 30),
             ("file", 10), ("hv", 10), ("cmvalid", 19), ("cmnest", 1))


_D2_ANTE, _D2_SUCC = ("&", ">"), ("~", "&", ">")


def _two_letter(rng, holds_on_two):
    """A 2-letter sequent of fixed connective counts that the lattice 2
    refutes, or one it does not (then decide2 must also sweep MO2): the
    class and the counts fix the cost."""
    import oracle
    two = oracle.BY_NAME["2"]

    def make(names):
        return (tuple(fixed_formula(rng, names, _D2_ANTE) for _ in range(2)),
                fixed_formula(rng, names, _D2_SUCC))

    while True:
        s = _exact(rng, 2, make)
        if (oracle.first_countermodel(s, two) is None) == holds_on_two:
            return s


def models_inputs(rng):
    """Items: dicts with ``kind`` and ``seq``; ``lattice`` for named
    validation, ``file`` for lattice files, ``hv`` for subspace sweeps."""
    items = []
    names_cycle = ("2", "2^2", "MO2", "2xMO2")
    for kind, count in MODEL_MIX:
        for i in range(count):
            it = {"kind": kind}
            if kind == "cm2":
                it["seq"] = _refuted_first_by(rng, 2 + i % 2, "2")
            elif kind == "cmMO2":
                it["seq"] = _refuted_first_by(rng, 2 + i % 2, "MO2")
            elif kind == "cmvalid":
                it["seq"] = _battery_valid(rng, 3, i)
            elif kind == "cmnest":
                it["seq"] = ((_nested_compat(LETTERS, 2),),
                             ("|", V("p"), ("~", V("p"))))
            elif kind == "val":
                lat = names_cycle[i % len(names_cycle)]
                if i % 5 == 2:
                    # compatibility nested 4 and 3 deep
                    it["seq"] = ((_nested_compat(LETTERS, 4 - i // 5),),
                                 random_formula(rng, LETTERS, 2))
                    lat = "MO2"
                else:
                    it["seq"] = _exact(rng, 3, lambda n: _sequent(rng, n, 2, 1))
                it["lattice"] = lat
            elif kind == "file":
                it["file"] = i % 4
                it["seq"] = _exact(rng, 2 + i % 2, lambda n: _sequent(rng, n, 2, 1))
            elif kind == "d2":
                if i < 10:
                    it["seq"] = _two_letter(rng, False)
                elif i < 14:
                    # 2 cannot refute: compatibility is 1 in a Boolean algebra
                    it["seq"] = ((fixed_formula(rng, LETTERS[:2], _D2_ANTE),),
                                 _nested_compat(LETTERS[:2], 3 + i % 2))
                else:
                    it["seq"] = _two_letter(rng, True)
            elif kind == "cl":
                it["seq"] = _exact(rng, 1 + i % 3, lambda n: _sequent(rng, n, 2, 2))
            else:
                it["hv"] = (2 + i % 3, 10, rng.randrange(1 << 30))
            items.append(it)
    # a seeded order, so that every band is measured across the whole pass
    rng.shuffle(items)
    files = [lattice_file(rng, i) for i in range(len(FILE_LATTICES))]
    return items, files
