"""Closed-loop session benchmark for fractalcalc.

Run from the repository root:

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 30 --trace 0

One client sends one op at a time. Each pass of ops runs in a fresh
worker process (perfbench/worker.py), so every pass pays the import and
every cold cost, as a CLI user does. A run holds a fixed number of
passes, in whole blocks, sized so that it takes about ``--seconds`` on
the host the benchmark was written on (workloads.BLOCK_SECONDS); the
same seed therefore attempts the same ops. The last line of standard
output is the JSON result; the lines before it are the readable report.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
pass twice with the same inputs, untraced and then traced, and reports
the per-layer metrics, the tracing overhead (traced minus untraced
``pass_s``) and the unattributed share of the pass.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# relative to the repository root, so that paths written into CLI output
# metadata, and hence the output digests, do not depend on the checkout
STATE = os.path.relpath(os.path.join(HERE, ".state"))
PACKAGE = os.path.join("src", "fractalcalc")

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("error_rate", "ratio"),
              ("peak_rss_mb", "MB")]

#: BLAS threads for every worker: fixed, and within the 2 cores the
#: benchmark was written for.
BLAS_THREADS = "1"
#: A hung worker is killed well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 90
#: Median time of worker.probe on the host the benchmark was written on,
#: at its usual speed. The speed of a shared host moves by up to half
#: within minutes, and every op moves with it; so each pass's timings are
#: rescaled by PROBE_REF_S over the median probe time of its own worker,
#: and read as seconds on that host.
PROBE_REF_S = 0.026


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values):
    return float(np.median(values)) if len(values) else 0.0


def tail_percentile(count):
    """Highest whole percentile with at least 10 passes beyond it, or None."""
    if count < 11:
        return None
    return int(100 * (count - 10) / count)


def source_digest(*dirs):
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(PACKAGE)[:16],
        "workload": args.workload,
        "seed": args.seed,
    }


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(spec, pass_dir, tag, env):
    """Run one pass in a fresh process; returns (launch time, result)."""
    spec_path = os.path.join(pass_dir, f"spec-{tag}.json")
    result_path = os.path.join(pass_dir, f"result-{tag}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with open(os.path.join(pass_dir, f"stderr-{tag}.txt"), "w") as err:
        launched = now()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                env=env, stdout=subprocess.DEVNULL, stderr=err,
                timeout=WORKER_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not os.path.exists(result_path):
        with open(os.path.join(pass_dir, f"stderr-{tag}.txt")) as fh:
            tail = fh.read()[-2000:]
        sys.stderr.write(f"worker {tag} ended with {code}:\n{tail}\n")
        return launched, None
    with open(result_path) as fh:
        return launched, json.load(fh)


def crashed_records(ops):
    return [{"id": op["id"], "kind": "worker-crash", "s": 0.0, "ok": False,
             "detail": "worker died", "defect": None, "digest": None} for op in ops]


def run_passes(args, run_dir, env):
    """Run the run's fixed number of passes; returns a list of per-pass
    dicts."""
    passes = []
    for index in range(workloads.pass_count(args.workload, args.seconds, args.trace)):
        pass_dir = workloads.ensure_dir(os.path.join(run_dir, f"pass-{index}"))
        ops = workloads.plan_pass(args.workload, args.seed, index, pass_dir, args.smoke)
        twins = [("plain", False), ("traced", True)] if args.trace else [("plain", False)]
        for tag, traced in twins:
            spec = {"ops": ops, "trace": traced}
            launched, result = run_worker(spec, pass_dir, tag, env)
            if result is None:
                records, ready, rss, layers = crashed_records(ops), None, None, None
                scale = None
            else:
                records, ready = result["ops"], result["ready"]
                rss, layers = result["peak_rss_mb"], result.get("layers")
                scale = PROBE_REF_S / median(result["probe_s"])
            passes.append({
                "index": index, "tag": tag, "records": records,
                "setup_s": None if ready is None else ready - launched,
                "pass_s": sum(r["s"] for r in records),
                "scale": scale, "peak_rss_mb": rss, "layers": layers,
                "spans": (result or {}).get("spans"),
            })
    return passes


# -- determinism record ----------------------------------------------------------


def digests_of(passes):
    """{pass/op: [digest, ok]} for every CLI output of the plain passes."""
    out = {}
    for p in passes:
        if p["tag"] != "plain":
            continue
        for r in p["records"]:
            if r.get("digest"):
                out[f"{p['index']}/{r['id']}"] = [r["digest"], r["ok"]]
    return out


def apply_determinism(args, passes):
    """Fail any CLI op whose digest or verdict differs from an earlier
    run of the same code and seed, or from its traced twin; returns the
    number of mismatches."""
    mismatches = 0
    plain = {(p["index"], r["id"]): r for p in passes if p["tag"] == "plain"
             for r in p["records"]}
    for p in passes:
        if p["tag"] != "traced":
            continue
        for r in p["records"]:
            twin = plain.get((p["index"], r["id"]))
            if r.get("digest") and twin and twin.get("digest") != r["digest"]:
                _mark_nondeterministic(r, "traced output differs from untraced twin")
                mismatches += 1
    store_path = os.path.join(STATE, "digests.json")
    store = {}
    if os.path.exists(store_path):
        with open(store_path) as fh:
            store = json.load(fh)
    # same package and benchmark code, same inputs
    key = f"{source_digest(PACKAGE, HERE)}/{args.workload}/{args.seed}/{int(args.smoke)}"
    earlier = store.get(key, {})
    current = digests_of(passes)
    for name, (digest, ok) in current.items():
        if name in earlier and earlier[name] != [digest, ok]:
            index, op_id = name.split("/", 1)
            _mark_nondeterministic(plain[(int(index), op_id)],
                                   "output differs from an earlier run of this seed")
            mismatches += 1
    store[key] = {**earlier, **current}
    with open(store_path, "w") as fh:
        json.dump(store, fh)
    return mismatches


def _mark_nondeterministic(record, detail):
    record.update(ok=False, defect=None, detail=detail)


def compare_digest_file(path, passes):
    """Print which CLI outputs moved against a saved digest file."""
    with open(path) as fh:
        saved = json.load(fh)
    current = digests_of(passes)
    common = sorted(set(saved) & set(current))
    moved = [k for k in common if saved[k][0] != current[k][0]]
    print(f"digests vs {path}: {len(common)} compared, {len(moved)} moved")
    for k in moved:
        print(f"  moved: {k}")


# -- aggregation and report --------------------------------------------------------


def summarize(passes):
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if not r["ok"]]
    by_kind = {}
    for r in failed:
        entry = by_kind.setdefault(r["kind"], {"failed": 0, "defect": r["defect"]})
        entry["failed"] += 1
        if entry["defect"] != r["defect"]:
            entry["defect"] = None
    unexplained = [r for r in failed if r["defect"] not in checks.KNOWN_DEFECTS]
    return records, failed, by_kind, unexplained


def end_to_end(passes, records, failed):
    plain = [p for p in passes if p["tag"] == "plain"]
    timed = [p for p in plain if p["setup_s"] is not None]
    values = {
        "setup_s": [p["setup_s"] * p["scale"] for p in timed],
        "pass_s": [p["pass_s"] * p["scale"] for p in timed],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain if p["peak_rss_mb"] is not None],
    }
    metrics = {name: median(v) for name, v in values.items()}
    print(f"unscaled wall medians: setup_s={median([p['setup_s'] for p in timed]):.6g} "
          f"pass_s={median([p['pass_s'] for p in timed]):.6g}; host speed "
          f"(PROBE_REF_S / probe time) median={median([p['scale'] for p in timed]):.4g}")
    metrics["error_rate"] = len(failed) / max(len(records), 1)
    for name, v in values.items():
        pct = tail_percentile(len(v))
        tail = f"p{pct}={np.percentile(v, pct):.6g}" if pct is not None else "p-tail n/a"
        print(f"{name}: median={metrics[name]:.6g} {tail} passes={len(v)}")
    print(f"error_rate: {len(failed)}/{len(records)} = {metrics['error_rate']:.6g} "
          f"({len(failed) / len(plain):.4g} failed ops per pass)")
    return metrics


def per_layer(passes):
    traced = [p for p in passes if p["tag"] == "traced" and p["layers"]]
    plain = {p["index"]: p for p in passes if p["tag"] == "plain"}
    metrics = {}
    for name, _unit in tracing.LAYER_METRICS:
        if name != "trace.overhead_s":
            metrics[name] = median([p["layers"][name] for p in traced])
    overhead = [p["pass_s"] - plain[p["index"]]["pass_s"] for p in traced]
    metrics["trace.overhead_s"] = median(overhead)
    base = median([plain[p["index"]]["pass_s"] for p in traced])
    print(f"traced passes: {len(traced)}; tracing overhead {metrics['trace.overhead_s']:.4f} s "
          f"per pass ({100 * metrics['trace.overhead_s'] / base if base else 0:.1f}% of "
          f"untraced pass_s {base:.4f} s); unattributed share "
          f"{100 * metrics['trace.unattributed_share']:.1f}%")
    for name, _unit in tracing.LAYER_METRICS:
        if name.endswith(".ms") and metrics[name] > 0 and base:
            kind = "inclusive" if name.startswith("cli.") else "self"
            print(f"  {name}: {metrics[name]:.3f} ms, {kind} "
                  f"{100 * metrics[name] / 1000 / base:.1f}% of pass_s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--save-digests", metavar="PATH",
                        help="write this run's CLI output digests to PATH")
    parser.add_argument("--compare-digests", metavar="PATH",
                        help="print which CLI outputs moved against a saved digest file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"error: {PACKAGE} not found; run from the repository root\n")
        return 2
    workloads.ensure_dir(STATE)
    run_dir = os.path.join(STATE, f"run-{args.workload}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    start = now()
    try:
        passes = run_passes(args, workloads.ensure_dir(run_dir), worker_env())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wall = now() - start

    env = environment(args)
    print("env: " + json.dumps(env))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"{len(passes)} worker runs in {wall:.1f} s")
    mismatches = apply_determinism(args, passes)
    records, failed, by_kind, unexplained = summarize(passes)
    for kind, entry in sorted(by_kind.items()):
        print(f"failed {kind}: {entry['failed']} ({entry['defect'] or 'UNEXPLAINED'})")
    for r in unexplained[:10]:
        print(f"  unexplained {r['id']}: {r['detail']}")
    print(f"determinism mismatches: {mismatches}")
    if args.save_digests:
        with open(args.save_digests, "w") as fh:
            json.dump(digests_of(passes), fh, indent=0, sort_keys=True)
    if args.compare_digests:
        compare_digest_file(args.compare_digests, passes)

    if args.trace:
        values, units = per_layer(passes), dict(tracing.LAYER_METRICS)
        with open(os.path.join(STATE, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"env": env, "passes": [
                {"pass": p["index"], "spans": p["spans"]}
                for p in passes if p["tag"] == "traced"]}, fh)
    else:
        values, units = end_to_end(passes, records, failed), dict(END_TO_END)
    result = {
        "correct": not unexplained,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(STATE, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"env": env, "failed_by_kind": by_kind, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
