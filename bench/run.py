"""perifp benchmark: CLI jobs timed end to end, with an optional traced run.

    python3 bench/run.py --workload {mc-compare,march,spectrum} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a perifp checkout (the package is imported from
./src).  The run

1. generates the workload's inputs from --seed (untimed),
2. times ``import perifp.cli`` in fresh interpreters (``setup_s``),
3. for about --seconds seconds, runs passes over the job list, each in
   a fresh interpreter (closed loop: one client, jobs one after
   another, BLAS threads = nproc), and
4. checks every job's output against an oracle and every later pass's
   output checksums against the first pass's, after timing stops.

With --trace 0 the metrics are the end-to-end ones (medians over
passes).  With --trace 1, untraced and traced passes alternate and the
metrics are per-layer numbers from the traced passes plus the tracing
overhead.  Human-readable lines and a ``report`` line with run metadata
come first; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SUBCOMMANDS = {"fp-solve": "fp_solve_s", "eigen": "eigen_s", "semilinear": "semilinear_s",
               "simulate-sde": "simulate_sde_s", "dbl": "dbl_s"}
# counts that must repeat exactly between traced passes
EXACT_COUNTS = ("period_map.power_iters", "semilinear.iterations",
                "bl_metric.pair_constraints", "sde_reflect.path_steps")
SETUP_SAMPLES = 3         # import-only interpreters, on top of one per pass
RUN_LIMIT_S = 170.0       # a whole run must finish within this
CHECK_RESERVE_S = 25.0    # time kept back for the output checks
TRACE_DIR = "traces"      # under .bench_work/, which the run otherwise removes


def _unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    if name == "semilinear.c":
        return "1/T"
    return "count"


class Children:
    """Starts pass interpreters one at a time and collects their results."""

    def __init__(self, src: Path, work: Path, deadline: float):
        self.src, self.work, self.deadline = src, work, deadline
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        self.threads = threads
        self.count = 0

    def run(self, jobs=None, out=None, trace_file=None):
        self.count += 1
        spec_path = self.work / f"spec{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        spec_path.write_text(json.dumps({"src": str(self.src), "jobs": jobs or [],
                                         "out": str(out),
                                         "trace_file": trace_file and str(trace_file),
                                         "setup_only": jobs is None}))
        subprocess.run([sys.executable, str(BENCH_DIR / "passrun.py"), str(spec_path),
                        str(result_path)], env=self.env, cwd=self.work, check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))
        return json.loads(result_path.read_text())


def _digests(job_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(job_dir.iterdir()) if p.name != "manifest.json"}


def _bytes_written(pass_dir: Path) -> int:
    return sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def cache(level):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size")
        try:
            return path.read_text().strip()
        except OSError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "l2": cache(2), "l3": cache(3)}


def _versions(threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def _commit(root: Path):
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _timed_passes(args, children, jobs, work):
    """Passes until --seconds is used up: untraced, or untraced and traced alternating.

    Traced passes keep their spans in TRACE_DIR after the run.
    """
    passes = []
    t_measure = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        trace_file = None
        if traced:
            name = f"{args.workload}-{args.seed}-{len(passes)}.json"
            trace_file = work.parent / TRACE_DIR / name
            trace_file.parent.mkdir(exist_ok=True)
        out = work / f"pass{len(passes)}"
        res = children.run(jobs, out, trace_file)
        res["traced"], res["dir"], res["trace_file"] = traced, out, trace_file
        res["wall_s"] = sum(j["seconds"] for j in res["jobs"])
        passes.append(res)
        elapsed = time.monotonic() - t_measure
        per_pass = elapsed / len(passes)
        enough = len(passes) >= (2 if args.trace else 1)
        # stop at the pass boundary nearest to --seconds
        over_budget = elapsed + per_pass / 2 > args.seconds
        out_of_time = time.monotonic() + per_pass > children.deadline - CHECK_RESERVE_S
        if enough and (over_budget or out_of_time):
            return passes


def _verify(jobs, passes):
    """Check the first pass's outputs; later passes must reproduce them byte for byte.

    Returns (verdicts, failed job runs, reproducible, every produced output ok).
    """
    refs = {}
    first = passes[0]
    verdicts, reference = {}, {}
    for job, res in zip(jobs, first["jobs"]):
        job_dir = first["dir"] / job["name"]
        if res["code"] == 0 and res["error"] is None:
            verdicts[job["name"]] = checks.check(job, job_dir, refs)
            reference[job["name"]] = _digests(job_dir)
        else:
            lines = res["stderr"].strip().splitlines()
            verdicts[job["name"]] = (False, lines[-1] if lines else res["error"])
    reproducible = True
    failed = 0
    for p in passes:
        p["bytes_written"] = _bytes_written(p["dir"])
        for job, res in zip(jobs, p["jobs"]):
            ok = verdicts[job["name"]][0]
            if p is not first:
                ran = res["code"] == 0 and res["error"] is None
                same = ran == (job["name"] in reference) and (
                    not ran or _digests(p["dir"] / job["name"]) == reference[job["name"]])
                if not same:
                    reproducible = ok = False
            failed += not ok
        shutil.rmtree(p["dir"], ignore_errors=True)
    produced_ok = all(verdicts[name][0] for name in reference)
    return verdicts, failed, reproducible, produced_ok


def _layer_metrics(traced, untraced_wall):
    """Medians of the traced passes' layer numbers, plus the tracing overhead.

    Returns (metrics, whether the exact counts repeated between passes).
    """
    layers, repeat = {}, True
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        layers[name] = median(values)
        repeat &= name not in EXACT_COUNTS or len(set(values)) == 1
    walls = [p["wall_s"] for p in traced]
    layer_self = [sum(v for k, v in p["layers"].items() if k.endswith(".self_s"))
                  for p in traced]
    layers["cli.bytes_written"] = median([p["bytes_written"] for p in traced])
    layers["trace.wall_s"] = median(walls)
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced_wall
    layers["trace.coverage"] = median([s / w for s, w in zip(layer_self, walls)])
    return layers, repeat


def _run(args, root: Path, work: Path):
    jobs = workloads.generate(args.workload, args.seed, work / "inputs")
    children = Children(root / "src", work, time.monotonic() + RUN_LIMIT_S)
    children.run()                      # fills the bytecode cache; not timed
    setup = [children.run()["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = _timed_passes(args, children, jobs, work)
    setup += [p["setup_s"] for p in passes]
    verdicts, failed, reproducible, produced_ok = _verify(jobs, passes)

    plain = [p for p in passes if not p["traced"]]
    e2e = {"setup_s": median(setup), "wall_s": median([p["wall_s"] for p in plain]),
           "peak_rss_mb": median([p["peak_rss_mb"] for p in plain])}
    for cmd, name in SUBCOMMANDS.items():
        if any(job["cmd"] == cmd for job in jobs):
            e2e[name] = median([sum(j["seconds"] for j in p["jobs"] if j["cmd"] == cmd)
                                for p in plain])
    report = {
        "workload": args.workload, "seed": args.seed, "why": workloads.WHY[args.workload],
        "machine": _machine(), "versions": _versions(children.threads),
        "commit": _commit(root), "predictions": workloads.PREDICTIONS,
        "passes": len(passes), "traced_passes": len(passes) - len(plain),
        "setup_samples": len(setup), "pass_walls": [p["wall_s"] for p in plain],
        "reproducible": reproducible,
        "end_to_end": {**{name: [value, END_TO_END.get(name, "s")]
                          for name, value in e2e.items()},
                       "jobs_total": [len(jobs), "count"],
                       "jobs_failed": [failed / len(passes), "count"]},
        "jobs": [{"name": job["name"], "cmd": job["cmd"],
                  "median_s": median([p["jobs"][i]["seconds"] for p in plain]),
                  "error": passes[0]["jobs"][i]["error"],
                  "check_ok": verdicts[job["name"]][0],
                  "check": verdicts[job["name"]][1]} for i, job in enumerate(jobs)],
    }
    counts_repeat = True
    if args.trace:
        values, counts_repeat = _layer_metrics([p for p in passes if p["traced"]],
                                               e2e["wall_s"])
        report["exact_counts_repeat"] = counts_repeat
        report["trace_files"] = [str(p["trace_file"].relative_to(root))
                                 for p in passes if p["traced"]]
    else:
        values = {name: e2e[name] for name in END_TO_END}
    metrics = {name: {"value": value, "unit": END_TO_END.get(name) or _unit(name)}
               for name, value in values.items()}

    _print_human(report, metrics)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": produced_ok and reproducible and counts_repeat,
                      "attempted": len(jobs) * len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_human(report, metrics):
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}"
          f" (traced {report['traced_passes']})")
    for job in report["jobs"]:
        status = "ok  " if job["check_ok"] else "FAIL"
        print(f"  job {job['name']:22s} {job['cmd']:13s} {job['median_s']:9.4f} s  "
              f"{status} {job['check']}")
    for name, (value, unit) in report["end_to_end"].items():
        print(f"  e2e {name:34s} {value:14.6g} {unit}")
    if "trace.wall_s" in metrics:
        for name, m in metrics.items():
            print(f"  layer {name:32s} {m['value']:14.6g} {m['unit']}")
        print("  spans written to " + ", ".join(report["trace_files"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "perifp" / "cli.py").is_file():
        print("bench: ./src/perifp not found; run from the root of a perifp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
