"""The orthoproof benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload {catalog,scripts,repl,models}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is loaded from ./src.
With --trace 0 the run measures the end-to-end metrics: the median cold
set-up time of several fresh interpreters, then a worker process that runs
a warm-up pass and whole measured passes for about S seconds.  With
--trace 1 the worker runs one untraced and one traced pass and reports the
per-layer metrics.  Either way every output is checked here, in this
process, against the independent evaluator in oracle.py and the
properties the inputs have by construction.  The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("catalog", "scripts", "repl", "models")
SETUP_SAMPLES = 11
RUN_LIMIT = 170.0          # seconds; a run must end within 180
CLOCK = time.perf_counter


def fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    # one BLAS thread, and a fixed hash seed so that traced counts repeat
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def tup(x):
    """JSON lists back to the tuples the oracle works on."""
    return tuple(tup(y) for y in x) if isinstance(x, list) else x


# ---------------------------------------------------------------------------
# inputs


def shipped_texts(root):
    folder = os.path.join(root, "proofs")
    names = sorted(n for n in os.listdir(folder) if n.endswith(".nom"))
    if not names:
        fail("no proofs/*.nom in the checkout")
    out = []
    for n in names:
        with open(os.path.join(folder, n)) as fh:
            out.append((n, fh.read()))
    return out


def make_inputs(workload, seed, root):
    """(inputs kept here for checking, JSON sent to the worker)."""
    rng = random.Random(seed)
    if workload == "scripts":
        items = gen.scripts_workload(rng, shipped_texts(root))
        return items, [it["text"] for it in items]
    if workload == "repl":
        sessions = gen.repl_inputs(rng)
        return sessions, [s["inputs"] for s in sessions]
    if workload == "models":
        items, files = gen.models_inputs(rng)
        data = {"items": items, "files": [f[0] for f in files],
                "sample_seed": rng.randrange(1 << 30)}
        return (items, files), data
    return None, None


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters until the first request can be answered


def setup_once(workload, root, env):
    if workload == "repl":
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", root, "-",
               "repl", "--mode", "NOM"]
        marker = b"NOM> "
    else:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "ready", workload, root]
        marker = b"ready\n"
    t0 = CLOCK()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=root, env=env)
    try:
        buf = b""
        while not buf.endswith(marker):
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"set-up probe for {workload} ended early")
            buf += chunk
        elapsed = CLOCK() - t0
        proc.stdin.write(b"quit\n")
        proc.stdin.close()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


def setup_seconds(workload, root, env):
    """Median of SETUP_SAMPLES cold starts, each brought to reference speed
    by the calibration samples taken just before and just after it."""
    setup_once(workload, root, env)     # untimed: writes the bytecode caches
    unit, reference = calib.UNITS["numpy"]

    def calibrate():
        for _ in range(3):
            t0 = CLOCK()
            unit()
            cal.append(CLOCK() - t0)

    cal, starts = [], []
    calibrate()
    for _ in range(SETUP_SAMPLES):
        starts.append(setup_once(workload, root, env))
        calibrate()
    return statistics.median(
        t * reference / statistics.median(cal[3 * i:3 * i + 6])
        for i, t in enumerate(starts))


# ---------------------------------------------------------------------------
# checks; each appends messages to ``errors``


def check_catalog(info, outputs, errors):
    """``outputs`` holds one verdict per (entry, mode), entries in order;
    the first mode's verdict carries the conclusion."""
    k = 0
    for it in info:
        outs = outputs[k:k + len(it["modes"])]
        k += len(it["modes"])
        eid = it["id"]
        for mode, out in zip(it["modes"], outs):
            if "error" not in out and out["fail"] is not None:
                errors.append(f"{eid}: kernel rejects the build in {mode}: {out['fail']}")
        if "concl" not in outs[0]:
            continue
        concl = tup(outs[0]["concl"])
        if not oracle.same_sequent(concl, tup(it["expected"])):
            errors.append(f"{eid}: conclusion is not the instantiated schema")
        if it["quantifier"]:
            continue
        lat = oracle.BY_NAME["2" if it["modes"] == ["NOM_E"] else "MO2"]
        prems = [tup(p) for p in it["premises"]]
        if oracle.refuting_assignment(prems, concl, lat) is not None:
            errors.append(f"{eid}: conclusion fails on {lat.name} where the premises hold")


def check_scripts(items, outputs, errors):
    mo2 = oracle.BY_NAME["MO2"]
    for it, out in zip(items, outputs):
        if isinstance(out, dict):
            continue
        if len(out) != 1 or out[0][0] != it["name"]:
            errors.append(f"{it['name']}: expected one report, got {out}")
            continue
        _, accepted, first_bad = out[0]
        if it["bad"] is None:
            if not accepted:
                errors.append(f"{it['name']}: rejected at line {first_bad}")
            lat = oracle.BY_NAME["2" if it["mode"] == "NOM_E" else "MO2"]
            if oracle.refuting_assignment(it["hyps"], it["goal"], lat) is not None:
                errors.append(f"{it['name']}: accepted goal fails on {lat.name}")
        else:
            if accepted or first_bad != it["bad"]:
                errors.append(f"{it['name']}: corrupted line {it['bad']}, but "
                              f"accepted={accepted} first failure at {first_bad}")
            line = it["lines"][it["bad"] - 1]
            prems = [it["lines"][r - 1]["seq"] for r in line["refs"]]
            if oracle.refuting_assignment(prems, line["seq"], mo2) is None:
                errors.append(f"{it['name']}: corrupted line {it['bad']} is not refuted")


def check_repl(sessions, outputs, errors):
    mo2 = oracle.BY_NAME["MO2"]
    k = 0
    for n, s in enumerate(sessions):
        outs = outputs[k:k + len(s["inputs"])]
        k += len(s["inputs"])
        if any(isinstance(o, dict) for o in outs):
            continue
        if outs[0] != s["inputs"][0]:
            errors.append(f"session {n}: goal echoed as {outs[0]!r}")
        for step, (ln, out) in enumerate(zip(s["lines"], outs[1:]), 1):
            first = out.splitlines()[0] if out else ""
            head, _, seq_text = first.partition(": ")
            if head != str(step):
                errors.append(f"session {n} step {step}: {out!r}")
                break
            seq = oracle.parse_sequent(seq_text)
            if not oracle.same_sequent(seq, ln["seq"]):
                errors.append(f"session {n} step {step}: concluded {seq_text}")
            elif oracle.refuting_assignment([], seq, mo2) is not None:
                errors.append(f"session {n} step {step}: {seq_text} fails on MO2")
        if "goal reached." not in outs[-1]:
            errors.append(f"session {n}: the goal was not reported reached")


def check_models(inputs, outputs, hsample, errors):
    import numpy as np
    items, files = inputs
    F = oracle.BY_NAME
    for i, (it, out) in enumerate(zip(items, outputs)):
        if isinstance(out, dict) and "error" in out:
            continue
        kind, seq = it["kind"], it.get("seq")
        where = f"models item {i} ({kind})"
        if kind == "cl":
            if out != oracle.classical_truth_table(seq):
                errors.append(f"{where}: classical_valid says {out}")
            continue
        if kind == "hv":
            dim, trials, _ = it["hv"]
            names = sorted(r[0] for r in out)
            if names != ["fold-criterion-agreement", "measurement-consistency",
                         "sasaki-closure-agreement"] \
                    or any(r[1] != trials or r[2] != 0 or not r[4] for r in out):
                errors.append(f"{where}: rows {out}")
            continue
        if kind == "file":
            _, leq, neg = files[it["file"]]
            lats = [oracle.from_order(f"file{it['file']}", leq, neg)]
        elif kind == "val":
            lats = [F[it["lattice"]]]
        elif kind == "d2":
            lats = [F["2"], F["MO2"]]
        else:
            lats = list(oracle.BATTERY)
        if out.get("valid"):
            msg = oracle.check_valid(seq, oracle.BATTERY if kind == "d2" else lats)
        else:
            msg = oracle.check_countermodel(seq, out, lats)
        if msg:
            errors.append(f"{where}: {msg}")
    unpack = lambda p: np.array(p[0]) + 1j * np.array(p[1])
    for j, h in enumerate(hsample):
        a, b = unpack(h["a"]), unpack(h["b"])
        gap = np.linalg.norm(oracle.sasaki_projector(a, b) - unpack(h["sasaki"]))
        if gap > 1e-8:
            errors.append(f"hilbert sample {j}: Sasaki projector differs by {gap:.2e}")
        n = b.shape[0]
        m = np.eye(n, dtype=complex)
        for c in h["chain"]:
            m = oracle.projector_of(unpack(c)) @ m
        below = np.linalg.norm((np.eye(n) - oracle.projector_of(b)) @ m) < 1e-8
        if below != h["fold_below_b"]:
            errors.append(f"hilbert sample {j}: fold criterion {h['fold_below_b']}, "
                          f"range side {below}")


# ---------------------------------------------------------------------------
# metrics


# the calibration unit that scales each verdict metric (see calib.py):
# the models tail and throughput are F2 sweeps, its median item is not
SCALED_BY = {"models": {"verdicts_per_s": "numpy", "verdict_ms_p90": "numpy"}}


def per_item(passes, scales, unit):
    """Each item's median over the passes, every time first brought to
    reference speed with its own local calibration factor."""
    out = []
    for i in range(len(passes[0])):
        vals = [p[i] * s[unit][i] for p, s in zip(passes, scales) if p[i] is not None]
        if vals:
            out.append(statistics.median(vals))
    return out


def end_to_end(workload, passes, scales, setup_s, rss_mb):
    """Per-item medians over passes, then the median and 90th percentile of
    those; throughput is verdicts over the seconds spent in them."""
    unit = dict.fromkeys(("verdicts_per_s", "verdict_ms_p50", "verdict_ms_p90"),
                         "python")
    unit.update(SCALED_BY.get(workload, {}))
    done = sum(1 for p in passes for t in p if t is not None)
    busy = sum(t * f for p, s in zip(passes, scales)
               for t, f in zip(p, s[unit["verdicts_per_s"]]) if t is not None)
    p50 = statistics.median(per_item(passes, scales, unit["verdict_ms_p50"]))
    p90 = statistics.quantiles(per_item(passes, scales, unit["verdict_ms_p90"]), n=10)[8]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "verdicts_per_s": {"value": done / busy, "unit": "verdicts/s"},
        "verdict_ms_p50": {"value": 1e3 * p50, "unit": "ms"},
        "verdict_ms_p90": {"value": 1e3 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = CLOCK()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orthoproof", "__init__.py")):
        fail(f"{root} holds no src/orthoproof; run from the root of a checkout")
    env = child_env()
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)

    inputs, data = make_inputs(args.workload, args.seed, root)
    setup_s = None if args.trace else setup_seconds(args.workload, root, env)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), root, outdir]
    try:
        proc = subprocess.run(cmd, input=None if data is None else json.dumps(data).encode(),
                              stdout=subprocess.PIPE, cwd=root, env=env,
                              timeout=max(10.0, RUN_LIMIT - (CLOCK() - started)))
    except subprocess.TimeoutExpired:
        fail(f"the {args.workload} worker did not finish in time")
    if proc.returncode != 0:
        fail(f"the {args.workload} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    errors = []
    outputs = result["outputs"]
    if not result["repeated"]:
        errors.append("a later pass gave different outputs from the first")
    if args.workload == "catalog":
        check_catalog(result["info"], outputs, errors)
    elif args.workload == "scripts":
        check_scripts(inputs, outputs, errors)
    elif args.workload == "repl":
        check_repl(inputs, outputs, errors)
    else:
        check_models(inputs, outputs, result["hilbert_sample"], errors)

    passes = result["passes"]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for t in p if t is None)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        metrics = end_to_end(args.workload, passes, result["scales"], setup_s,
                             result["peak_rss_mb"])
        print("calibration factors, median per pass: " + "; ".join(
            ", ".join(f"{u} {statistics.median(v):.3f}" for u, v in s.items())
            for s in result["scales"]))
    for err in errors[:20]:
        print(f"INCORRECT: {err}")
    for o in outputs:
        if isinstance(o, dict) and "error" in o:
            print(f"FAILED: {o['error']}")
            break
    print(f"{args.workload}: {len(passes)} measured pass(es), "
          f"{attempted} verdicts attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
