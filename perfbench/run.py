"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload orbit-census --seed 0 --seconds 35 --trace 0

Runs from the root of a checkout and imports the library from its `src/`.
The run builds its inputs from the seed, then makes passes over the
workload's tasks for --seconds, at least two, emptying the library's caches
before each so that every pass starts cold like a CLI invocation.  Times
are rescaled by the speed probe in speed.py.  With --trace 1 it makes one
untraced and one traced pass, checks that both give the same outputs, and
reports the per-layer metrics.  The last line of stdout is the result as
JSON; the line before it is the provenance block.  Per-task records and
spans go to .perfbench-out/.
"""

import os

# single-threaded numeric libraries; set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3
COLD_STARTS = 5


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["orbit-census", "certificate-sweep", "twisted-decide"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args()


def import_library():
    """Import chevtwist from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    import chevtwist.cli  # noqa: F401

    where = pathlib.Path(chevtwist.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"chevtwist was imported from {where}, not from {ROOT / 'src'}")


def timed(probe, fn, child=False):
    """(result, seconds, rescaled seconds) of one call.  A child process is
    timed with the probe paused and sampled right before and after it, since
    the probe would take turns with the child."""
    if probe and child:
        probe.stop()
        probe.sample()
    start = time.perf_counter()
    out = fn()
    end = time.perf_counter()
    if probe is None:
        return out, end - start, end - start
    if child:
        probe.start()  # samples first
    return (out, *probe.measure(start, end))


def cold_start():
    """A fresh interpreter starts, imports chevtwist and exits, as a CLI
    invocation does; the child is waited for before returning."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", "import chevtwist.cli"], cwd=ROOT, env=env, check=True)


def library_caches():
    """The library's process-wide caches, taken before any wrapper hides them."""
    from chevtwist import groups, polyring

    return groups.enumerate_group, polyring.monic_irreducibles


def clear_caches(caches, recorder=None):
    """Empty the caches, as a fresh CLI process has them."""
    if recorder is not None:
        recorder.harvest_cache_hits()
    for cache in caches:
        cache.cache_clear()


def run_pass(one_pass, caches, probe=None, recorder=None, full=True):
    """Run the tasks of one pass; a pass that is not full skips `once` tasks."""
    records = []
    for task in one_pass():
        if task.once and not full:
            continue
        if task.cold:
            clear_caches(caches, recorder)
        start = time.perf_counter()
        try:
            out = recorder.run_task(task.label, task.run) if recorder else task.run()
        except Exception as exc:  # noqa: BLE001 - a failed task is recorded, the run goes on
            end = time.perf_counter()
            typed = getattr(exc, "typed", type(exc).__module__ == "chevtwist.errors")
            records.append({"label": task.label, "start": start, "end": end, "elems": 0,
                            "status": "refused" if typed else "crashed",
                            "note": f"{type(exc).__module__}.{type(exc).__name__}: {exc}",
                            "out": None})
            continue
        end = time.perf_counter()
        problem = task.check(out)
        records.append({"label": task.label, "start": start, "end": end, "elems": task.elems,
                        "status": "wrong" if problem else "ok", "note": problem, "out": out})
    for r in records:
        if probe is None:
            r["raw_seconds"] = r["seconds"] = r["end"] - r["start"]
        else:
            r["raw_seconds"], r["seconds"] = probe.measure(r["start"], r["end"])
    return records


def end_to_end(passes, setup_s, key="seconds"):
    """Metrics over the run; a task repeated in several passes counts once,
    at its mean time.  (Its least time would depend on whether the run met a
    light phase of the machine's other tenants.)"""
    records = [r for p in passes for r in p]
    reps = {}
    for r in records:
        reps.setdefault(r["label"], []).append(r)
    tasks = [dict(rs[0], seconds=statistics.fmean(r[key] for r in rs)) for rs in reps.values()]
    answered = [r for r in tasks if r["status"] == "ok"]
    wall = sum(r["seconds"] for r in tasks)
    ms = sorted(r["seconds"] * 1000 for r in answered) or [0.0]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "elems_per_s": (sum(r["elems"] for r in answered) / wall, "1/s"),
        "tasks_per_s": (len(answered) / wall, "1/s"),
        "task_p50_ms": (statistics.median(ms), "ms"),
        "task_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (sum(r["status"] == "ok" for r in records) / len(records), "frac"),
    }


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown: not a git checkout"


def version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def check_one_process():
    """The run is one process with one thread, whose only children were the
    cold starts, run and waited for one at a time; numeric libraries are
    held to at most nproc threads."""
    nproc = os.cpu_count()
    over = {v: os.environ[v] for v in THREAD_VARS if int(os.environ[v]) > nproc}
    if over or multiprocessing.active_children() or threading.active_count() != 1:
        raise SystemExit(f"run is not single-process single-threaded: {over}, "
                         f"{multiprocessing.active_children()}, {threading.active_count()} threads")
    return nproc


def digest(out):
    return None if out is None else hashlib.sha256(
        (out if isinstance(out, str) else repr(out)).encode()).hexdigest()


def main():
    args = parse_args()
    # the run and its cold starts stay on the processor the probe measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_library()
    sys.path.insert(0, str(HERE))
    from speed import REFERENCE_S, SpeedProbe
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    caches = library_caches()
    # the traced run reports per-layer times as measured, without the probe
    probe = SpeedProbe() if args.trace == 0 else None
    if probe:
        probe.start()
    cold_starts = [timed(probe, cold_start, child=True)[1:] for _ in range(COLD_STARTS)]
    builds = []
    for _ in range(SETUP_REPS):
        clear_caches(caches)
        one_pass, *seconds = timed(probe, lambda: build(args.seed, ROOT))
        builds.append(seconds)
    # (raw, rescaled) medians
    setup = [statistics.median(c[i] for c in cold_starts) + statistics.median(b[i] for b in builds)
             for i in (0, 1)]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    mismatches = []
    if args.trace == 0:
        def next_pass(passes):
            clear_caches(caches)
            # `once` tasks run in the second pass, so that the repetitions
            # of the other tasks lie before and after them
            passes.append(run_pass(one_pass, caches, probe, full=len(passes) == 1))

        passes = []
        start = time.perf_counter()
        next_pass(passes)
        first_pass_s = time.perf_counter() - start
        next_pass(passes)
        # more passes while one more, as long as the first, fits in --seconds
        # (for orbit-census the second pass alone is long)
        while time.perf_counter() - start + first_pass_s <= args.seconds:
            next_pass(passes)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(passes, setup[1]).items()}
        raw = {k: v for k, (v, u) in end_to_end(passes, setup[0], "raw_seconds").items()}
        probe.stop()
    else:
        from spans import Recorder, metric_units

        clear_caches(caches)
        untraced = run_pass(one_pass, caches)
        clear_caches(caches)
        recorder = Recorder()
        recorder.install()
        try:
            traced_pass = recorder.run_task("setup", lambda: build(args.seed, ROOT))
            clear_caches(caches, recorder)
            traced = run_pass(traced_pass, caches, recorder=recorder)
            recorder.harvest_cache_hits()
        finally:
            recorder.uninstall()
        recorder.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        passes = [untraced, traced]
        for u, t in zip(untraced, traced):
            if (u["label"], u["status"], u["out"]) != (t["label"], t["status"], t["out"]):
                mismatches.append(u["label"])
        if len(untraced) != len(traced):
            mismatches.append("task lists differ")
        values = recorder.metrics()
        values["trace.overhead_s"] = (sum(r["raw_seconds"] for r in traced)
                                      - sum(r["raw_seconds"] for r in untraced))
        values["fail_frac"] = sum(r["status"] != "ok" for r in untraced + traced) / len(untraced + traced)
        metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units().items()}
        raw = {}

    records = [r for p in passes for r in p]
    failed = [r for r in records if r["status"] != "ok"]
    correct = not mismatches and not any(r["status"] in ("wrong", "crashed") for r in records)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": check_one_process(), "child_processes_one_at_a_time": COLD_STARTS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "click": version("click"),
        "platform": platform.platform(), "git_commit": git_commit(),
        "passes": len(passes),
        "tasks_per_pass": [len(p) for p in passes],
        "elements_per_pass": [sum(r["elems"] for r in p if r["status"] == "ok") for p in passes],
        "cold_starts_s": [c[0] for c in cold_starts], "setup_reps_s": [b[0] for b in builds],
        "probe_s": probe and {"samples": len(probe.seconds), "median": statistics.median(probe.seconds),
                              "reference": REFERENCE_S},
        "raw_metrics": raw,
        "traced_outputs_differ": mismatches,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "probes": probe and list(zip(probe.starts, probe.seconds)), "tasks": [
            {"pass": i, "label": r["label"], "start": r["start"], "end": r["end"],
             "ms": r["raw_seconds"] * 1000,
             "rescaled_ms": r["seconds"] * 1000, "status": r["status"],
             "note": r["note"] if r["status"] != "ok" else None, "out_sha256": digest(r["out"])}
            for i, p in enumerate(passes) for r in p]}, fh, indent=1)
    for r in failed:
        print(f"{r['status']}: {r['label']}: {r['note']}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
