"""Mutation probe for the side conditions of the proof kernel.

Each ``if ...: return bad(...)`` guard in ``kernel.check_inference`` is
disabled in turn (its test becomes ``False``) in a copy of the package made
in a temporary directory; ``src/`` is never written.  The kernel, script and
equality tests then run against that copy.  A guard whose mutant passes
every test survives: no test submits an inference that only it rejects.

    python tools/mutate_kernel.py [TEST_FILE ...]

Prints one line per guard and the survivors last; exits 1 if any survive.
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


def run_tests(copy, tests):
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=900).returncode


def main(tests):
    with open(os.path.join(ROOT, KERNEL), "rb") as fh:
        source = fh.read()
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        for part in ("src", "tests", "proofs"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        if run_tests(copy, tests) != 0:
            sys.exit("the tests fail on the unmutated kernel; nothing to measure")
        found, survivors = guards(source), []
        for g in found:
            with open(os.path.join(copy, KERNEL), "wb") as fh:
                fh.write(disabled(source, g))
            killed = run_tests(copy, tests) != 0
            label = f"kernel.py:{g.lineno}: if {ast.unparse(g.test)}"
            print(("killed   " if killed else "SURVIVED ") + label, flush=True)
            if not killed:
                survivors.append(label)
    print(f"\n{len(found)} guards, {len(survivors)} surviving")
    for label in survivors:
        print("  " + label)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or TESTS))
