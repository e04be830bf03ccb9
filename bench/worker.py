"""Runs one workload against the program, in an interpreter of its own.

    python bench/worker.py WORKLOAD SEED SECONDS TRACE ROOT OUTDIR < INPUTS

The worker loads orthoproof from ROOT/src.  It makes the catalog inputs
from SEED itself, because they depend on the program's catalog; the
other workloads' inputs arrive as JSON on stdin, made by run.py, so that
this process never loads the input generator's numpy.  It runs one
warm-up pass and then whole measured passes for about SECONDS, and prints
one JSON object on its last output line: the seconds each item took in
each measured pass, each pass's calibration factors (calib.py), the
outputs of the first measured pass, whether later passes repeated them,
and its peak resident memory, read before anything is serialised.  With
TRACE 1 it runs one untraced and one traced pass instead and reports the
per-layer metrics; the spans are written to OUTDIR.  Correctness is
judged by run.py, in another process, so that checking adds nothing to
this one's memory.
"""

from __future__ import annotations

import gc
import glob
import importlib
import json
import os
import random
import resource
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

CLOCK = time.perf_counter


class Program:
    """The program's modules, loaded by name from ROOT/src."""

    def __init__(self, root, names):
        child.load(root)
        self.mods = {n: importlib.import_module(f"orthoproof.{n}") for n in names}
        for n, m in self.mods.items():
            setattr(self, n, m)


# ---------------------------------------------------------------------------
# tuples <-> program formulas


def to_formula(P, f):
    S = P.syntax
    tag = f[0]
    if tag == "v":
        return S.Letter(f[1])
    if tag == "A":
        return S.Atom(f[1], tuple(to_term(P, t) for t in f[2]))
    if tag == "~":
        return S.Neg(to_formula(P, f[1]))
    if tag in ("all", "ex"):
        cls = S.Forall if tag == "all" else S.Exists
        return cls(S.Var(f[1]), to_formula(P, f[2]))
    cls = {"&": S.And, "|": S.Or, ">": S.Imp, "x": S.Compat}[tag]
    return cls(to_formula(P, f[1]), to_formula(P, f[2]))


def to_term(P, t):
    return P.syntax.Var(t[1]) if t[0] == "var" else P.syntax.Const(t[1])


def to_sequent(P, s):
    return P.syntax.Sequent(tuple(to_formula(P, f) for f in s[0]),
                            to_formula(P, s[1]))


_TAGS = {"And": "&", "Or": "|", "Imp": ">", "Compat": "x"}


def from_formula(f):
    kind = type(f).__name__
    if kind == "Letter":
        return ("v", f.name)
    if kind == "Atom":
        return ("A", f.name, tuple(from_term(t) for t in f.args))
    if kind == "Neg":
        return ("~", from_formula(f.sub))
    if kind in ("Forall", "Exists"):
        return ("all" if kind == "Forall" else "ex", f.var.name, from_formula(f.body))
    return (_TAGS[kind], from_formula(f.left), from_formula(f.right))


def from_term(t):
    kind = type(t).__name__
    if kind == "Var":
        return ("var", t.name)
    if kind == "Const":
        return ("const", t.name)
    return ("app", t.name, tuple(from_term(a) for a in t.args))


def from_sequent(s):
    return (tuple(from_formula(f) for f in s.antecedent), from_formula(s.succedent))


# ---------------------------------------------------------------------------
# in-process workloads: items, the timed call, and its output


class Catalog:
    """One verdict per (entry, mode): the kernel's check of the entry's
    derivation in that mode.  The first mode's verdict also pays for the
    build, since the user waits for it before the first answer."""

    modules = ("syntax", "kernel", "tactics")

    def __init__(self, P, seed):
        self.P = P
        rng = random.Random(seed)
        self.entries, self.info = [], []
        for i, e in enumerate(P.tactics.catalog()):
            glen = i % 3
            if e.matcher is not None:
                gamma = tuple(gen.core_binary(rng) for _ in range(glen))
                prems, concl, args = gen.quantifier_case(rng, e.id, gamma)
                expected = concl
                args = {k: to_term(P, v) for k, v in args.items()}
                work = ("match", tuple(to_sequent(P, s) for s in prems),
                        to_sequent(P, concl), args)
            else:
                inst = gen.catalog_instance(rng, e.variables, glen)
                pinst = {k: (tuple(to_formula(P, f) for f in v) if k in ("gamma", "delta")
                             else to_formula(P, v)) for k, v in inst.items()}
                psq, schema = e.instantiate(pinst)
                prems = tuple(from_sequent(s) for s in psq)
                expected = from_sequent(schema)
                work = ("derive", psq, pinst)
            self.entries.append((e.id, tuple(e.modes), work))
            self.info.append({"id": e.id, "glen": glen, "modes": list(e.modes),
                              "quantifier": e.matcher is not None,
                              "premises": prems, "expected": expected})
        # entries in a seeded order, so that light and heavy entries share
        # the machine's speed phases
        order = list(range(len(self.entries)))
        rng.shuffle(order)
        self.entries = [self.entries[k] for k in order]
        self.info = [self.info[k] for k in order]
        self.items = [(k, m) for k, (_, modes, _) in enumerate(self.entries)
                      for m in range(len(modes))]
        # the warm-up builds every entry and checks it in its first mode
        self.warmup = [i for i, (_, m) in enumerate(self.items) if m == 0]
        self._built = None

    def setup(self):
        pass

    def build(self, k):
        eid, modes, work = self.entries[k]
        P = self.P
        if work[0] == "derive":
            _, prems, inst = work
            return P.tactics.derive(eid, inst, prems), prems
        _, prems, concl, args = work
        hyps = tuple(P.kernel.hyp(s) for s in prems)
        return P.tactics.match_and_build(eid, hyps, concl, modes[0], args), prems

    def run(self, i):
        k, m = self.items[i]
        if m == 0:
            self._built = None
            self._built = self.build(k)
        d, prems = self._built
        return (d if m == 0 else None,
                self.P.kernel.check_derivation(d, self.entries[k][1][m], prems))

    def output(self, i, raw):
        d, fail = raw
        out = {"fail": None if fail is None else str(fail)}
        if d is not None:
            out["concl"] = from_sequent(d.conclusion)
        return out


def count_nodes(P, d):
    """(distinct node objects, distinct node structures) of a derivation:
    a structure is the rule, the alpha keys of the conclusion, the
    instantiation and the structures of the premises."""
    key = P.syntax.alpha_key
    sid, table, stack = {}, {}, [d]
    while stack:
        n = stack[-1]
        if id(n) in sid:
            stack.pop()
            continue
        todo = [p for p in n.premises if id(p) not in sid]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        c = n.conclusion
        k = (n.rule, tuple(key(f) for f in c.antecedent), key(c.succedent),
             repr(n.instantiation), tuple(sid[id(p)] for p in n.premises))
        sid[id(n)] = table.setdefault(k, len(table))
    return len(sid), len(table)


class Scripts:
    modules = ("syntax", "kernel", "tactics", "script")

    def __init__(self, P, texts):
        self.P = P
        self.items = texts

    def setup(self):
        pass

    def run(self, i):
        return self.P.script.check_file(self.items[i])

    def output(self, i, raw):
        return [[r.name, r.accepted,
                 next((ls.number for ls in r.lines if not ls.ok), None)] for r in raw]


class Models:
    modules = ("syntax", "lattice", "semantics", "hilbert")

    def __init__(self, P, data):
        self.P = P
        self.items, self.files = data["items"], data["files"]
        self.seqs = [to_sequent(P, it["seq"]) if "seq" in it else None
                     for it in self.items]
        self.sample_seed = data["sample_seed"]

    def setup(self):
        self.P.lattice.battery()

    def run(self, i):
        P, it, s = self.P, self.items[i], self.seqs[i]
        kind = it["kind"]
        if kind.startswith("cm"):
            return P.semantics.countermodel_search(s)
        if kind == "val":
            return P.semantics.validate_sequent(s, P.lattice.by_name(it["lattice"]))
        if kind == "file":
            j = it["file"]
            L = P.lattice.parse_lattice(self.files[j], name=f"file{j}")
            return P.semantics.validate_sequent(s, L)
        if kind == "d2":
            return P.semantics.decide_two_var(s)
        if kind == "cl":
            return P.semantics.classical_valid(s)
        return P.hilbert.verify(*it["hv"])

    def output(self, i, raw):
        kind = self.items[i]["kind"]
        if kind == "cl":
            return bool(raw)
        if kind == "hv":
            return [[r.name, r.instances, r.failures, r.worst, r.passed] for r in raw]
        if type(raw).__name__ == "Valid":
            return {"valid": True}
        return {"lattice": raw.lattice, "assignment": [list(a) for a in raw.assignment],
                "fold": raw.fold, "succ": raw.succedent}

    def hilbert_sample(self):
        """Seeded subspaces and what the program computes from them, for
        run.py to recompute with its own projector arithmetic."""
        import numpy as np
        H = self.P.hilbert
        rng = np.random.default_rng(self.sample_seed)
        pack = lambda m: [np.real(m).tolist(), np.imag(m).tolist()]
        out = []
        for j in range(8):
            n = 2 + j % 3
            a, b = H.random_subspace(rng, n), H.random_subspace(rng, n)
            chain = [H.random_subspace(rng, n) for _ in range(1 + j % 3)]
            lat, _ = H.check_fold_criterion(chain, b)
            out.append({"a": pack(a.basis), "b": pack(b.basis),
                        "sasaki": pack(H.projector(H.sasaki_lattice(a, b))),
                        "chain": [pack(c.basis) for c in chain], "fold_below_b": lat})
        return out


def run_pass(wl, speed=None, indices=None):
    """One pass over every item (or over ``indices``): per-item seconds
    (None when the call raised) and outputs.  ``speed`` takes calibration
    samples in between."""
    gc.collect()
    times, outs = [], []
    if speed is not None:
        speed.sample()
    for i in range(len(wl.items)) if indices is None else indices:
        t0 = CLOCK()
        try:
            raw = wl.run(i)
        except Exception as exc:    # a failed operation is counted, not fatal
            times.append(None)
            outs.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(CLOCK() - t0)
        outs.append(wl.output(i, raw))
        del raw
        if speed is not None:
            speed.due(i, times[-1])
    return times, outs


# ---------------------------------------------------------------------------
# the REPL workload: one `orthoproof repl` process per session


PROMPT = b"NOM> "
STEP_TIMEOUT = 60.0


def _read_prompt(proc, buf=b""):
    fd = proc.stdout.fileno()
    while not buf.endswith(PROMPT):
        ready, _, _ = select.select([fd], [], [], STEP_TIMEOUT)
        if not ready:
            raise TimeoutError("no prompt from the REPL")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise EOFError("the REPL exited")
        buf += chunk
    return buf[:-len(PROMPT)]


def _peak_rss_kb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Repl:
    modules = ()

    def __init__(self, P, sessions, root):
        self.root = root
        self.items = sessions
        # every session is a fresh process, so the program keeps no state
        # between sessions: one session warms the file cache and the worker
        self.warmup = [0]

    def run_session(self, session, trace_out="-", speed=None, first=0):
        """Times and outputs of one session; ``first`` is the index of its
        first line in the pass, for the calibration samples."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", self.root,
               trace_out, "repl", "--mode", "NOM"]
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                cwd=self.root)
        try:
            _read_prompt(proc)
            times, outs = [], []
            for line in session:
                t0 = CLOCK()
                os.write(proc.stdin.fileno(), line.encode() + b"\n")
                text = _read_prompt(proc)
                times.append(CLOCK() - t0)
                outs.append(text.decode().strip())
                if speed is not None:
                    speed.due(first + len(times) - 1, times[-1])
            rss = _peak_rss_kb(proc.pid)
            proc.stdin.write(b"quit\n")
            proc.stdin.close()
            proc.wait(timeout=STEP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return times, outs, rss

    def run_pass(self, trace_dir=None, speed=None, indices=None):
        gc.collect()
        times, outs, rss = [], [], 0
        if speed is not None:
            speed.sample()
        for k in range(len(self.items)) if indices is None else indices:
            session = self.items[k]
            out = "-" if trace_dir is None else os.path.join(trace_dir, f"trace-repl-{k}.bin")
            try:
                t, o, r = self.run_session(session, out, speed, len(times))
            except (TimeoutError, EOFError, OSError, subprocess.SubprocessError) as exc:
                n = len(session)
                times.extend([None] * n)
                outs.extend([{"error": f"{type(exc).__name__}: {exc}"}] * n)
                continue
            times.extend(t)
            outs.extend(o)
            rss = max(rss, r)
        return times, outs, rss


# ---------------------------------------------------------------------------


def make(workload, seed, root, data):
    """The workload object; catalog inputs are made here from the seed,
    the others arrive ready-made in ``data``."""
    if workload == "catalog":
        cls, args = Catalog, (seed,)
    elif workload == "scripts":
        cls, args = Scripts, (data,)
    elif workload == "models":
        cls, args = Models, (data,)
    elif workload == "repl":
        cls, args = Repl, (data, root)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    P = Program(root, cls.modules)
    return P, cls(P, *args)


def measured(wl, seconds):
    """A warm-up pass, then whole passes: as many as fit in ``seconds`` at
    the pace of the first measured one, and at least two."""
    is_repl = isinstance(wl, Repl)
    if is_repl:
        wl.run_pass(indices=wl.warmup)
    else:
        wl.setup()
        run_pass(wl, indices=getattr(wl, "warmup", None))
    passes, scales, rss_kb, outputs, repeated = [], [], 0, None, True
    units = ("python", "numpy") if isinstance(wl, Models) else ("python",)
    count, started = 1, CLOCK()
    while len(passes) < count:
        speed = calib.Speed(units)
        res = wl.run_pass(speed=speed) if is_repl else run_pass(wl, speed)
        scales.append(speed.local_scales(len(res[0])))
        if not passes:
            # at least two, so that every verdict's time is a median over passes
            count = max(2, round(seconds / (CLOCK() - started)))
        passes.append(res[0])
        if outputs is None:
            outputs = res[1]
        else:
            repeated = repeated and res[1] == outputs
        if is_repl:
            rss_kb = max(rss_kb, res[2])
    if not is_repl:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "outputs": outputs, "repeated": repeated,
            "peak_rss_mb": rss_kb / 1024.0, "scales": scales}


def traced(P, wl, outdir):
    """Untraced pass, then the same pass traced; per-layer metrics.  The
    overhead compares the two passes at reference speed (calib.py)."""
    os.makedirs(outdir, exist_ok=True)
    extra = {}
    speeds = (calib.Speed(), calib.Speed())
    if isinstance(wl, Repl):
        tdir = os.path.join(outdir, "repl")
        os.makedirs(tdir, exist_ok=True)
        for old in glob.glob(os.path.join(tdir, "trace-repl-*.bin")):
            os.remove(old)
        wl.run_pass(indices=wl.warmup)
        plain = wl.run_pass(speed=speeds[0])
        tr = wl.run_pass(trace_dir=tdir, speed=speeds[1])
        tracers = [spans.load(p) for p in sorted(glob.glob(os.path.join(tdir, "*.bin")))]
        outputs = tr[1]
    else:
        tracer = spans.Tracer()
        tracer.install(P.mods)
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        by_id = by_struct = 0
        if isinstance(wl, Catalog):
            for k in range(len(wl.entries)):
                a, b = count_nodes(P, wl.build(k)[0])
                by_id, by_struct = by_id + a, by_struct + b
        else:
            run_pass(wl)
        plain = run_pass(wl, speeds[0])
        tracer.install(P.mods)
        try:
            tr = run_pass(wl, speeds[1])
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(outdir, f"trace-{type(wl).__name__.lower()}.bin"))
        tracers = [tracer]
        outputs = tr[1]
        extra = {"tactics.nodes_by_id": (by_id, "count"),
                 "tactics.nodes_by_structure": (by_struct, "count"),
                 "tactics.sharing_ratio": (by_struct / by_id if by_id else 0.0, "ratio")}
    plain_s, traced_s = (
        sum(t * k for t, k in zip(res[0], sp.local_scales(len(res[0]))["python"])
            if t is not None)
        for res, sp in ((plain, speeds[0]), (tr, speeds[1])))
    extra["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    metrics = spans.layer_metrics(tracers, extra)
    return {"passes": [tr[0]], "outputs": outputs, "repeated": plain[1] == tr[1],
            "layers": metrics}


def main(argv):
    workload, seed, seconds, trace, root, outdir = argv
    data = None if workload == "catalog" else json.load(sys.stdin)
    P, wl = make(workload, int(seed), root, data)
    if trace == "1":
        result = traced(P, wl, outdir)
    else:
        result = measured(wl, float(seconds))
    if isinstance(wl, Catalog):
        result["info"] = wl.info
    if isinstance(wl, Models):
        result["hilbert_sample"] = wl.hilbert_sample()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
