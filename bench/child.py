"""Fresh-interpreter entry points that load the program from ``ROOT/src``.

    python bench/child.py ready WORKLOAD ROOT
        import what WORKLOAD uses, do its lazy set-up, print "ready"
    python bench/child.py cli ROOT TRACE_OUT ARGS...
        run the orthoproof command line with ARGS, as the installed
        ``orthoproof`` script would; TRACE_OUT "-" means untraced, any
        other value is the file the spans are written to at exit
"""

import os
import sys


def load(root):
    """Import orthoproof from ROOT/src and refuse any other copy."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import orthoproof
    if not os.path.abspath(orthoproof.__file__).startswith(src + os.sep):
        raise SystemExit(f"orthoproof imported from {orthoproof.__file__}, not {src}")
    return orthoproof


def ready(workload, root):
    load(root)
    if workload == "catalog":
        import orthoproof.kernel
        import orthoproof.tactics
    elif workload == "scripts":
        import orthoproof.script
        import orthoproof.tactics
    elif workload == "models":
        import orthoproof.hilbert
        import orthoproof.semantics
        from orthoproof import lattice
        lattice.battery()
    else:
        raise SystemExit(f"no ready probe for {workload}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def cli(root, trace_out, args):
    load(root)
    from orthoproof import cli as cli_mod
    if trace_out == "-":
        cli_mod.main(args, prog_name="orthoproof")
        return
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import importlib
    import spans
    mods = {name: importlib.import_module(f"orthoproof.{name}")
            for name in ("syntax", "kernel", "tactics", "script", "cli")}
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        cli_mod.main(args, prog_name="orthoproof")
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    if sys.argv[1] == "ready":
        ready(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "cli":
        cli(sys.argv[2], sys.argv[3], sys.argv[4:])
    else:
        raise SystemExit(f"unknown entry point {sys.argv[1]!r}")
