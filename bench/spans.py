"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` rebinds each name in ``SITES`` to a wrapper that records
one span per call: a name id, the start, the end (``time.perf_counter``)
and the index of the enclosing span (-1 at top level).  Where a module
imported a function by name, that binding is wrapped too, so calls the
program makes internally (``check_derivation`` calling ``check_inference``,
``check_file`` calling ``check_script``) are seen.  Spans are kept in
typed arrays, about 22 bytes each, and written out once at the end.
"""

from __future__ import annotations

import json
import re
import time
from array import array

# (module, attribute, span name); an attribute "Class.method" wraps a method
SITES = (
    ("syntax", "parse_sequent", "syntax.parse_sequent"),
    ("syntax", "parse_formula", "syntax.parse_formula"),
    ("syntax", "parse_term", "syntax.parse_term"),
    ("script", "parse_sequent", "syntax.parse_sequent"),
    ("script", "parse_term", "syntax.parse_term"),
    ("cli", "parse_sequent", "syntax.parse_sequent"),
    ("cli", "parse_term", "syntax.parse_term"),
    ("kernel", "check_inference", "kernel.check_inference"),
    ("kernel", "check_derivation", "kernel.check_derivation"),
    ("kernel", "is_nonduplicating", "kernel.is_nonduplicating"),
    ("script", "check_inference", "kernel.check_inference"),
    ("script", "check_derivation", "kernel.check_derivation"),
    ("tactics", "derive", "tactics.derive"),
    ("tactics", "match_and_build", "tactics.match_and_build"),
    ("tactics", "infer_conclusion", "tactics.infer_conclusion"),
    ("cli", "infer_conclusion", "tactics.infer_conclusion"),
    ("script", "parse_script_file", "script.parse_script_file"),
    ("script", "check_script", "script.check_script"),
    ("script", "check_file", "script.check_file"),
    ("cli", "check_file", "script.check_file"),
    ("cli", "_Session.handle", "cli.handle"),
    ("lattice", "battery", "lattice.battery"),
    ("semantics", "battery", "lattice.battery"),
    ("lattice", "verify_oml", "lattice.verify_oml"),
    ("lattice", "parse_lattice", "lattice.parse_lattice"),
    ("semantics", "validate_sequent", "semantics.validate_sequent"),
    ("semantics", "countermodel_search", "semantics.countermodel_search"),
    ("semantics", "decide_two_var", "semantics.decide_two_var"),
    ("semantics", "classical_valid", "semantics.classical_valid"),
    ("hilbert", "verify", "hilbert.verify"),
)

_NUMBERED = re.compile(r"^\s*\d+\s*:", re.M)


def _letter_count(seq):
    """Distinct propositional letters of a program Sequent, by walking its
    dataclass fields (no program function is called)."""
    names, stack = set(), [*seq.antecedent, seq.succedent]
    while stack:
        f = stack.pop()
        kind = type(f).__name__
        if kind == "Letter":
            names.add(f.name)
        elif kind == "Neg":
            stack.append(f.sub)
        elif kind in ("Forall", "Exists"):
            stack.append(f.body)
        elif kind != "Atom":
            stack.extend((f.left, f.right))
    return len(names)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.nid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = {"parse_chars": 0, "grid_cells": 0,
                         "lines_rechecked": 0, "script_lines": 0,
                         "hilbert_instances": 0}
        self._saved = []

    # -- hooks that count work where it happens (run outside the span) ------

    def _pre(self, span, site_module, args):
        c = self.counters
        if span.startswith("syntax.parse_") and args:
            c["parse_chars"] += len(args[0])
        elif span == "semantics.validate_sequent":
            c["grid_cells"] += args[1].n ** _letter_count(args[0])
        elif span == "script.check_file" and site_module == "cli":
            c["lines_rechecked"] += len(_NUMBERED.findall(args[0]))
        elif span == "script.check_script":
            c["script_lines"] += len(args[0].lines)

    def _post(self, span, result):
        if span == "hilbert.verify":
            self.counters["hilbert_instances"] += sum(r.instances for r in result)

    def _wrap(self, fn, span, site_module):
        if span not in self.name_id:
            self.name_id[span] = len(self.names)
            self.names.append(span)
        ident = self.name_id[span]
        nid, start, end, parent, stack = (self.nid, self.start, self.end,
                                          self.parent, self.stack)
        clock = time.perf_counter
        hooked_pre = span.startswith("syntax.parse_") or span in (
            "semantics.validate_sequent", "script.check_file", "script.check_script")
        hooked_post = span == "hilbert.verify"
        pre, post = self._pre, self._post

        def wrapper(*args, **kwargs):
            if hooked_pre:
                pre(span, site_module, args)
            i = len(nid)
            nid.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hooked_post:
                post(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        """Wrap every site of ``SITES`` found in ``modules`` (name -> module)."""
        for mod_name, attr, span in SITES:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            owner, name = mod, attr
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(mod, cls)
            fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, span, mod_name))

    def uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"names": self.names, "count": len(self.nid),
                  "counters": self.counters,
                  "arrays": [["nid", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.nid, self.start, self.end, self.parent):
                arr.tofile(fh)


def load(path):
    """Read a file written by ``Tracer.dump`` back into a Tracer."""
    t = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        t.names = header["names"]
        t.counters = header["counters"]
        for key, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            setattr(t, key, arr)
    return t


def summarize(tracers):
    """Per span name: calls, inclusive seconds, self seconds; plus calls of
    each name split by the name of the parent span; plus summed counters."""
    calls, incl, self_s, by_parent = {}, {}, {}, {}
    counters = {}
    for t in tracers:
        n = len(t.nid)
        child = [0.0] * n
        for i in range(n):
            p = t.parent[i]
            if p >= 0:
                child[p] += t.end[i] - t.start[i]
        for i in range(n):
            name = t.names[t.nid[i]]
            dur = t.end[i] - t.start[i]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            p = t.parent[i]
            key = (name, t.names[t.nid[p]] if p >= 0 else None)
            by_parent[key] = by_parent.get(key, 0) + 1
        for k, v in t.counters.items():
            counters[k] = counters.get(k, 0) + v
    return calls, incl, self_s, by_parent, counters


def layer_metrics(tracers, extra):
    """The per-layer metrics of BENCHMARK.json from the spans; ``extra``
    supplies the ones measured beside the spans (node counts, overhead).
    A layer the workload does not reach reads 0."""
    calls, incl, self_s, by_parent, c = summarize(tracers)
    n = lambda name: calls.get(name, 0)
    s = lambda name: incl.get(name, 0.0)
    rate = lambda num, den: num / den if den > 0 else 0.0
    parse = ("syntax.parse_sequent", "syntax.parse_formula", "syntax.parse_term")
    parse_s = sum(s(x) for x in parse)
    theorems = n("script.check_script")
    script_checks = by_parent.get(("kernel.check_derivation", "script.check_script"), 0)
    m = {
        "syntax.parse_calls": (sum(n(x) for x in parse), "count"),
        "syntax.parse_s": (parse_s, "s"),
        "syntax.parse_kchars_per_s": (rate(c.get("parse_chars", 0) / 1e3, parse_s), "kchars/s"),
        "kernel.check_derivation_calls": (n("kernel.check_derivation"), "count"),
        "kernel.check_derivation_s": (s("kernel.check_derivation"), "s"),
        "kernel.check_inference_calls": (n("kernel.check_inference"), "count"),
        "kernel.kinferences_per_s": (rate(n("kernel.check_inference") / 1e3,
                                          s("kernel.check_inference")), "kinf/s"),
        "kernel.nonduplicating_calls": (n("kernel.is_nonduplicating"), "count"),
        "tactics.derive_calls": (n("tactics.derive"), "count"),
        "tactics.derive_s": (s("tactics.derive"), "s"),
        "tactics.match_and_build_calls": (n("tactics.match_and_build"), "count"),
        "tactics.match_and_build_s": (s("tactics.match_and_build"), "s"),
        "tactics.infer_conclusion_s": (s("tactics.infer_conclusion"), "s"),
        "tactics.nodes_by_id": (0, "count"),
        "tactics.nodes_by_structure": (0, "count"),
        "tactics.sharing_ratio": (0.0, "ratio"),
        "script.parse_script_file_s": (s("script.parse_script_file"), "s"),
        "script.check_script_self_s": (self_s.get("script.check_script", 0.0), "s"),
        "script.lines_per_s": (rate(c.get("script_lines", 0), s("script.check_script")), "lines/s"),
        "script.derivation_checks_per_theorem": (rate(script_checks, theorems), "ratio"),
        "cli.check_file_calls": (by_parent.get(("script.check_file", "cli.handle"), 0), "count"),
        "cli.step_self_s": (self_s.get("cli.handle", 0.0), "s"),
        "cli.lines_rechecked": (c.get("lines_rechecked", 0), "count"),
        "lattice.battery_s": (s("lattice.battery"), "s"),
        "lattice.verify_oml_s": (s("lattice.verify_oml"), "s"),
        "lattice.parse_lattice_calls": (n("lattice.parse_lattice"), "count"),
        "lattice.parse_lattice_s": (s("lattice.parse_lattice"), "s"),
        "semantics.validate_calls": (n("semantics.validate_sequent"), "count"),
        "semantics.validate_s": (s("semantics.validate_sequent"), "s"),
        "semantics.grid_cells": (c.get("grid_cells", 0), "count"),
        "semantics.mcells_per_s": (rate(c.get("grid_cells", 0) / 1e6,
                                        s("semantics.validate_sequent")), "Mcells/s"),
        "semantics.countermodel_search_s": (s("semantics.countermodel_search"), "s"),
        "semantics.decide_two_var_s": (s("semantics.decide_two_var"), "s"),
        "semantics.classical_valid_s": (s("semantics.classical_valid"), "s"),
        "hilbert.verify_calls": (n("hilbert.verify"), "count"),
        "hilbert.verify_s": (s("hilbert.verify"), "s"),
        "hilbert.instances_per_s": (rate(c.get("hilbert_instances", 0), s("hilbert.verify")),
                                    "instances/s"),
        "trace.spans": (sum(len(t.nid) for t in tracers), "count"),
        "trace.overhead_pct": (0.0, "%"),
    }
    m.update(extra)
    return m
