"""heightzeta benchmark: seeded CLI jobs in a closed loop, checked outputs.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

One client, one job in flight: each job is a fresh
`python -m heightzeta.cli ...` child with PYTHONPATH set to this checkout's
src/, its argv drawn from the seed (workloads.py).  The child is timed from
spawn to exit, its stdout going to a file; CPU time and peak RSS come from
os.wait4 in spawner.py.  Each output is checked by checker.py between jobs,
outside the timed window.  A reference child (reference.py) timed before
each job gives the host's speed, to which the gated times are scaled
(host_scale).  With --trace 1 the jobs run in-process instead,
each once untraced and once under tracer.py, and the per-layer metrics are
printed.  NOTES.md explains the workloads and metrics.

The last stdout line is one JSON object (correct, attempted, failed,
metrics).  The exit code is 1 when any job fails or any output is wrong,
and 2 when the checkout holds no heightzeta source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import checker
import tracer
from workloads import SHAPES, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
JOB_TIMEOUT_S = 45       # a job this slow is a failure, not a data point
MIN_SETUP_SAMPLES = 7
# Median wall and CPU seconds of a reference.py child on a calm host: the
# 2 GHz Xeon VM the benchmark was built on.  See host_scale.
REFERENCE_S = 0.125

# Gated metrics, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_cpu_s.p50": "s",
    "peak_rss_mb.p50": "MB",
}
# Printed and recorded too.  jobs_per_s is a mean over the run, which one
# slow job moves; job_s.p50 carries the same signal more steadily.  The
# largest child's peak RSS is set by the seeded prefactors' sizes, so its
# spread over seeds is too wide to gate.  The *.raw times are the gated ones
# before host_scale.
REPORTED = {
    "jobs_per_s": "1/s",
    "peak_rss_mb.max": "MB",
    "reference_s.p50": "s",
    "setup_s.raw": "s",
    "job_s.p50.raw": "s",
    "job_cpu_s.p50.raw": "s",
}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "HEIGHTZETA_ORDER"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs CLI children through spawner.py, so that each child's peak RSS
    is its own and not this process's (see spawner.py)."""

    def __init__(self):
        RESULTS.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = child_env()

    def run(self, cli_args, timeout=JOB_TIMEOUT_S, script=None):
        """Run one CLI child (or `script`, a Python file) to exit; return its
        code (None if killed at `timeout`), stdout, stderr, wall and CPU
        seconds, and peak RSS."""
        out, err = RESULTS / "job.stdout", RESULTS / "job.stderr"
        head = [str(script)] if script else ["-m", "heightzeta.cli"]
        request = {"argv": [sys.executable, *head, *cli_args],
                   "env": self.env, "cwd": str(ROOT), "timeout": timeout,
                   "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        result = json.loads(reply)
        result["stdout"] = out.read_text()
        result["stderr"] = err.read_text(errors="replace")
        return result

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def judge(job, code, stdout, stderr, seed):
    """Classify one finished job: ("ok" | "error", reason)."""
    if code is None:
        return "error", stderr.strip() or "timed out"
    if code == 0:
        reason = checker.check(job, stdout, seed)
        return ("ok", None) if reason is None else ("error", "checker: " + reason)
    last = stderr.strip().splitlines()[-1:] or [""]
    return "error", f"exit {code}: {last[0][:200]}"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "heightzeta").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(args, workload):
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_timeout_s": JOB_TIMEOUT_S,
    }


def measure_setup(spawner):
    """Wall time of one fresh `export-catalog --catalog full` child."""
    out = spawner.run(("export-catalog", "--catalog", "full"), timeout=20)
    if out["code"] != 0 or json.loads(out["stdout"] or "{}").get("name") != "full":
        raise RuntimeError(f"export-catalog failed: {out['stderr'][-200:]}")
    return out["wall"]


def measure_reference(spawner):
    """Wall and CPU seconds of one reference.py child."""
    out = spawner.run((), timeout=20, script=Path(__file__).with_name("reference.py"))
    if out["code"] != 0:
        raise RuntimeError(f"reference.py failed: {out['stderr'][-200:]}")
    return out["wall"], out["cpu"]


def closed_loop(spawner, workload, seed, seconds):
    """Run whole rounds of child jobs until `seconds` of job time is spent,
    so that every run holds the workload's shapes in equal numbers.  A
    reference sample is taken before every job and a set-up sample before
    every third, so that their medians span the run rather than one moment
    of it."""
    records, setup, references, busy = [], [], [], 0.0
    for batch in rounds(workload, seed):
        for job in batch:
            if len(records) % 3 == 0:
                setup.append(measure_setup(spawner))
            references.append(measure_reference(spawner))
            out = spawner.run(job.argv)
            busy += out["wall"]
            status, reason = judge(job, out["code"], out["stdout"], out["stderr"], seed)
            records.append({**job.record(), "status": status, "reason": reason,
                            **{k: out[k] for k in ("code", "wall", "cpu", "rss_mb")}})
        if busy >= seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(measure_setup(spawner))
        references.append(measure_reference(spawner))
    return records, setup, references, busy


def host_scale(references):
    """Factors that turn a run's wall and CPU seconds into seconds on the
    calm host of REFERENCE_S: REFERENCE_S over the run's median reference
    time, for each clock.

    On a shared host every job of a run can be slowed by a third for
    minutes at a time, by other tenants and not by the program.  The
    reference child, run beside the jobs, slows with them, while no change
    to heightzeta can move it (NOTES.md, "Steadiness")."""
    wall = statistics.median(w for w, _ in references)
    cpu = statistics.median(c for _, c in references)
    return REFERENCE_S / wall, REFERENCE_S / cpu, wall


def shape_median_rss(records):
    """Geometric mean over job shapes of each shape's median peak RSS.  The
    shapes of a workload differ in size by up to a fifth, so a median over
    all jobs jumps between shapes with the seeded prefactors; each shape's
    own median holds within 1%."""
    by_shape = {}
    for r in records:
        by_shape.setdefault((r["catalog"], r["size"]), []).append(r["rss_mb"])
    logs = [math.log(statistics.median(v)) for v in by_shape.values()]
    return math.exp(statistics.fmean(logs))


def end_to_end(records, busy, setup, references):
    """The END_TO_END and REPORTED metrics, each with its sample count.
    Medians over a run's jobs, not the fastest job: on a shared host a
    job's speed changes within seconds, and the median of some thirty jobs
    holds still where the fastest one does not."""
    ok = [r for r in records if r["status"] == "ok"]
    n, k, m = len(records), len(ok), len(references)
    wall_scale, cpu_scale, reference_s = host_scale(references)
    setup_s = statistics.median(setup)
    job_s = statistics.median(r["wall"] for r in ok) if ok else 0.0
    job_cpu_s = statistics.median(r["cpu"] for r in ok) if ok else 0.0
    values = {
        "setup_s": (setup_s * wall_scale, len(setup)),
        "jobs_per_s": (k / (busy * wall_scale), n),
        "job_s.p50": (job_s * wall_scale, k),
        "job_cpu_s.p50": (job_cpu_s * cpu_scale, k),
        "peak_rss_mb.p50": (shape_median_rss(records), n),
        "peak_rss_mb.max": (max(r["rss_mb"] for r in records), n),
        "reference_s.p50": (reference_s, m),
        "setup_s.raw": (setup_s, len(setup)),
        "job_s.p50.raw": (job_s, k),
        "job_cpu_s.p50.raw": (job_cpu_s, k),
    }
    return {name: {"value": v, "unit": {**END_TO_END, **REPORTED}[name], "samples": s}
            for name, (v, s) in values.items()}


def traced_run(workload, seed, seconds, shapes=None):
    """Run whole rounds of jobs in-process, each untraced then traced, until
    `seconds` of job time is spent."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import heightzeta.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "heightzeta":
        raise RuntimeError(f"imported heightzeta from {cli.__file__}, not {SRC}")
    t = tracer.Tracer()
    records, busy, plain, traced = [], 0.0, 0.0, 0.0
    for batch in rounds(workload, seed, shapes):
        for job in batch:
            code0, out0, _, wall0 = tracer.run_in_process(cli, job.argv, JOB_TIMEOUT_S)
            t.job = job.index
            with t.installed():
                code, out, err, wall = tracer.run_in_process(cli, job.argv, JOB_TIMEOUT_S)
            busy += wall0 + wall
            plain += wall0
            traced += wall
            status, reason = judge(job, code, out, err, seed)
            if status == "ok" and (code0, out0) != (code, out):
                status, reason = "error", "traced and untraced outputs differ"
            records.append({**job.record(), "status": status, "reason": reason,
                            "code": code, "wall": wall, "untraced_wall": wall0})
        if busy >= seconds:
            break
    completed = sum(r["status"] == "ok" for r in records)
    metrics = t.layer_metrics(completed, traced / plain if plain else 0.0)
    notes = {"missing_entry_points": sorted(t.missing),
             "uncounted": sorted(t.uncounted)}
    return records, metrics, t.span_records(), notes


def run_workload(args, workload):
    env = environment(args, workload)
    result = {"environment": env}
    if args.trace:
        records, metrics, spans, notes = traced_run(workload, args.seed, args.seconds)
        result.update(notes)
    else:
        with Spawner() as spawner:
            records, setup, references, busy = closed_loop(
                spawner, workload, args.seed, args.seconds)
        metrics = end_to_end(records, busy, setup, references)
        result["setup_samples_s"] = setup
        result["reference_samples_s"] = references
    failed = [r for r in records if r["status"] != "ok"]
    fail_ratio = len(failed) / len(records)
    result.update(jobs=records, metrics=metrics, fail_ratio=fail_ratio)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for name, m in metrics.items():
        samples = f" (n={m['samples']})" if "samples" in m else ""
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}{samples}")
    print(f"[{workload}] fail_ratio = {fail_ratio:.4f} ratio (n={len(records)})")
    for r in failed:
        print(f"[{workload}] FAILED job {r['index']} {r['argv']}: {r['reason']}",
              file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()
                    if k in END_TO_END or k in tracer.LAYER_METRICS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*SHAPES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heightzeta" / "cli.py").is_file():
        print(f"no heightzeta source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        summary = run_workload(args, args.workload)
    else:
        parts = {w: run_workload(args, w) for w in SHAPES}
        summary = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{k}": m for w, p in parts.items()
                        for k, m in p["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
