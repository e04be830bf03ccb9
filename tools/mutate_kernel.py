"""Mutation probe for the trusted core: the proof kernel and the syntax core
whose equality, substitution and nonduplication it calls.

Each ``if ...: return bad(...)`` guard in ``kernel.check_inference`` is
disabled in turn (its test becomes ``False``) in a copy of the package made
in a temporary directory; ``src/`` is never written.  The kernel, script and
equality tests then run against that copy.  A guard whose mutant passes
every test survives: no test submits an inference that only it rejects.
Three mutants of the acceptance record of ``check_derivation`` (its re-checks
judge only the recorded nodes), and named mutants of ``syntax.py`` (its parse
memo included, which decides the sequent a theorem states), are
applied the same way, each an exact substitution in the source; the syntax
mutants also run the syntax tests.  The probe stops if a mutant's text is
not found exactly once.  Equivalent mutants, which change no verdict, are
listed with the reason and not run.

    python tools/mutate_kernel.py [TEST_FILE ...]

Prints one line per mutant and the survivors last; exits 1 if any survive.
It reports ``59 guards, 0 surviving``, ``3 record mutants, 0 surviving``
and ``18 syntax mutants, 0 surviving``.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL = os.path.join("src", "orthoproof", "kernel.py")
SYNTAX = os.path.join("src", "orthoproof", "syntax.py")
TESTS = ("tests/test_kernel.py", "tests/test_script.py", "tests/test_equality.py")
SYNTAX_TESTS = ("tests/test_syntax.py",)
# (what the mutant breaks, the text in kernel.py, the text that replaces it)
RECORD_MUTANTS = (
    ("NOM_q uses the record although a formula duplicates",
     'rec and (rec[1] or mode != "NOM_q")', "rec"),
    ("hyp leaves are left out of the record",
     "if rule not in _UNIVERSAL:", 'if rule not in _UNIVERSAL and rule != "hyp":'),
    ("the record's nonduplication flag forced true",
     "rec or (kept, all(map(_ND, forms)))", "rec or (kept, True)"),
)
# the same, in syntax.py
SYNTAX_MUTANTS = (
    ("binder sort dropped",
     'Var(_variant("", body.free), f.var.sort)', 'Var(_variant("", body.free))'),
    ("occurrence sort dropped",
     "_Bound(depth - env[t.name] - 1, t.sort)", "_Bound(depth - env[t.name] - 1)"),
    ("App sort dropped",
     "App(t.name, tuple(_canon_term(a, env, depth) for a in t.args), t.sort)",
     "App(t.name, tuple(_canon_term(a, env, depth) for a in t.args))"),
    ("atom arguments truncated",
     "tuple(_canon_term(t, env, depth) for t in f.args)",
     "tuple(_canon_term(t, env, depth) for t in f.args[:1])"),
    ("binder levels in place of indices",
     "_Bound(depth - env[t.name] - 1, t.sort)", "_Bound(env[t.name], t.sort)"),
    ("binder not entered in the environment",
     "inner[f.var.name], inner[None] = depth, {}", "inner[None] = {}"),
    ("open nodes cached on the node",
     '    if env is None:\n        object.__setattr__(f, "_canon", c)',
     '    if True:\n        object.__setattr__(f, "_canon", c)'),
    ("__eq__ as bare identity",
     "(isinstance(other, Formula)\n                                 and alpha_key(expand(self)) "
     "is alpha_key(expand(other)))", "False"),
    ("`==` without expansion",
     "alpha_key(expand(self)) is alpha_key(expand(other))", "alpha_key(self) is alpha_key(other)"),
    ("class dropped from the interning key",
     "key = cls._key(cls, *fields)", "key = cls._key(Formula, *fields)"),
    ("a binary node keyed by its left child only",
     "lambda cls, left, right: (cls, id(left), id(right))",
     "lambda cls, left, right: (cls, id(left))"),
    ("_subst without renaming", "if v.name in t.free:", "if False:"),
    ("an atom's nonduplication always true",
     '_set(self, "nonduplicating", len(free) == len(names))',
     '_set(self, "nonduplicating", True)'),
    ("an atom's repeated variable counted once inside an App",
     "stack.extend(t.args)", "names.extend(t.free)"),
    ("a binary node's nonduplication from its left child only",
     '_set(self, "nonduplicating", a.nonduplicating and b.nonduplicating)',
     '_set(self, "nonduplicating", a.nonduplicating)'),
    ("a quantifier leaves its variable free",
     '_set(self, "free", b.free - {self.var.name})', '_set(self, "free", b.free)'),
    ("`><` unfolded with its conjuncts swapped",
     "return And(Imp(a, Imp(b, a)), Imp(b, Imp(a, b)))",
     "return And(Imp(b, Imp(a, b)), Imp(a, Imp(b, a)))"),
    ("a declared constant leaves the parse memo in place",
     "self.constants[name] = sort\n        self.parsed.clear()", "self.constants[name] = sort"),
)
# syntax mutants that change no verdict, with the reason: checked, not run
EQUIVALENT = (
    ("binder environment kept where no captured name occurs",
     "    if env and not (f.free & env.keys()):\n        env = None\n", "",
     "a sub-formula with no captured name gets the same canonical node from the "
     "environment's memo as from its own cache; the reset only saves work"),
)


def guards(source: bytes):
    """The ``if`` statements of check_inference whose whole body is ``return bad(...)``."""
    fn = next(n for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.FunctionDef) and n.name == "check_inference")
    out = []
    for n in ast.walk(fn):
        if isinstance(n, ast.If) and not n.orelse and len(n.body) == 1:
            ret = n.body[0]
            if (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call)
                    and getattr(ret.value.func, "id", None) == "bad"):
                out.append(n)
    return sorted(out, key=lambda n: n.lineno)


def disabled(source: bytes, guard) -> bytes:
    """``source`` with the test of ``guard`` replaced by ``False``; ast
    offsets count UTF-8 bytes, so the splice is done on bytes."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[:guard.test.lineno - 1])) + guard.test.col_offset
    end = sum(map(len, lines[:guard.test.end_lineno - 1])) + guard.test.end_col_offset
    return source[:start] + b"False" + source[end:]


def substituted(path, source: bytes, text, mutant) -> bytes:
    if source.count(text.encode()) != 1:
        sys.exit(f"mutant text not found once in {path}: {text}")
    return source.replace(text.encode(), mutant.encode())


def mutants(sources, tests, syntax_tests):
    """(label, file, mutated source, test files) for each guard, record
    mutant and syntax mutant."""
    kernel, syntax = sources[KERNEL], sources[SYNTAX]
    for g in guards(kernel):
        yield f"kernel.py:{g.lineno}: if {ast.unparse(g.test)}", KERNEL, disabled(kernel, g), tests
    for what, text, mutant in RECORD_MUTANTS:
        yield f"record: {what}", KERNEL, substituted(KERNEL, kernel, text, mutant), tests
    for what, text, mutant in SYNTAX_MUTANTS:
        yield f"syntax: {what}", SYNTAX, substituted(SYNTAX, syntax, text, mutant), syntax_tests


def run_tests(copy, tests):
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=900).returncode


def main(tests):
    sources = {}
    for path in (KERNEL, SYNTAX):
        with open(os.path.join(ROOT, path), "rb") as fh:
            sources[path] = fh.read()
    syntax_tests = (*tests, *(t for t in SYNTAX_TESTS if t not in tests))
    found, survivors = list(mutants(sources, tests, syntax_tests)), []
    for _, text, mutant, _ in EQUIVALENT:
        substituted(SYNTAX, sources[SYNTAX], text, mutant)
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        for part in ("src", "tests", "proofs"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        if run_tests(copy, syntax_tests) != 0:
            sys.exit("the tests fail on the unmutated core; nothing to measure")
        for label, path, mutated, files in found:
            with open(os.path.join(copy, path), "wb") as fh:
                fh.write(mutated)
            killed = run_tests(copy, files) != 0
            with open(os.path.join(copy, path), "wb") as fh:
                fh.write(sources[path])
            print(("killed   " if killed else "SURVIVED ") + label, flush=True)
            if not killed:
                survivors.append(label)
    for what, _, _, why in EQUIVALENT:
        print(f"equivalent (not run) syntax: {what}: {why}")
    count = lambda prefix: sum(label.startswith(prefix) for label in survivors)
    records, syntax = count("record: "), count("syntax: ")
    print(f"\n{len(found) - len(RECORD_MUTANTS) - len(SYNTAX_MUTANTS)} guards, "
          f"{len(survivors) - records - syntax} surviving")
    print(f"{len(RECORD_MUTANTS)} record mutants, {records} surviving")
    print(f"{len(SYNTAX_MUTANTS)} syntax mutants, {syntax} surviving")
    for label in survivors:
        print("  " + label)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or TESTS))
