"""Mutation probe for the side conditions of the proof kernel.

Each ``if ...: return bad(...)`` guard in ``kernel.check_inference`` is
disabled in turn (its test becomes ``False``) in a copy of the package made
in a temporary directory; ``src/`` is never written.  The kernel, script and
equality tests then run against that copy.  A guard whose mutant passes
every test survives: no test submits an inference that only it rejects.
Two mutants of the acceptance record of ``check_derivation`` (its re-checks
judge only the recorded nodes) are applied the same way, each an exact
substitution in the source; the probe stops if either text is missing.

    python tools/mutate_kernel.py [TEST_FILE ...]

Prints one line per mutant and the survivors last; exits 1 if any survive.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL = os.path.join("src", "orthoproof", "kernel.py")
TESTS = ("tests/test_kernel.py", "tests/test_script.py", "tests/test_equality.py")
# (what the mutant breaks, the text in kernel.py, the text that replaces it)
RECORD_MUTANTS = (
    ("NOM_q uses the record although a formula duplicates",
     'rec and (rec[1] or mode != "NOM_q")', "rec"),
    ("hyp leaves are left out of the record",
     "[n for n in met if n.rule not in _UNIVERSAL]",
     '[n for n in met if n.rule not in _UNIVERSAL and n.rule != "hyp"]'),
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


def mutants(source: bytes):
    """(label, mutated source) for each guard, then for each record mutant."""
    for g in guards(source):
        yield f"kernel.py:{g.lineno}: if {ast.unparse(g.test)}", disabled(source, g)
    for what, text, mutant in RECORD_MUTANTS:
        if source.count(text.encode()) != 1:
            sys.exit(f"record mutant text not found once in {KERNEL}: {text}")
        yield f"record: {what}", source.replace(text.encode(), mutant.encode())


def run_tests(copy, tests):
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=900).returncode


def main(tests):
    with open(os.path.join(ROOT, KERNEL), "rb") as fh:
        source = fh.read()
    found, survivors = list(mutants(source)), []
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        for part in ("src", "tests", "proofs"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        if run_tests(copy, tests) != 0:
            sys.exit("the tests fail on the unmutated kernel; nothing to measure")
        for label, mutated in found:
            with open(os.path.join(copy, KERNEL), "wb") as fh:
                fh.write(mutated)
            killed = run_tests(copy, tests) != 0
            print(("killed   " if killed else "SURVIVED ") + label, flush=True)
            if not killed:
                survivors.append(label)
    records = sum(label.startswith("record: ") for label in survivors)
    print(f"\n{len(found) - len(RECORD_MUTANTS)} guards, {len(survivors) - records} surviving")
    print(f"{len(RECORD_MUTANTS)} record mutants, {records} surviving")
    for label in survivors:
        print("  " + label)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or TESTS))
