"""One workload in one fresh, single-threaded process.

Started by run.py, never imported by it. The clock for set-up starts in
the parent just before this process is spawned (`--spawned-at`, a
CLOCK_MONOTONIC reading) and stops just before the first timed job, so it
covers interpreter start, `import circover` and loading the job list.

Untraced mode (`--trace 0`) runs the jobs as a closed loop with one client
for `--seconds`, each job once; past the written rounds it makes new ones.
Its times are scaled to reference speed (see timed_run); the wall times are
kept beside them. Traced mode (`--trace 1`) runs each job
of the first TRACE_ROUNDS rounds untraced and then traced, requires the two
answers to be byte-identical, and reports per-layer metrics. Every answer is
checked between jobs, outside the timed region. Results go to the `--out`
file as JSON.
"""

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from circover import cli

import checks
import stats
import tracing
import workloads

# the calibration kernel's time at reference speed
CAL_REF_S = 0.001
# kernel runs that scale the set-up time, which no kernel can bracket
SETUP_KERNELS = 5
# Past this, a timed phase stops even short of the sample count p90 needs.
HARD_STOP_S = 120.0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
MAX_REASONS = 8


def run_job(argv):
    """(exit code or None on a traceback, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def job_argv(job, instance_dir: Path):
    return [job["verb"], str(instance_dir / f"{job['instance']}.json"), *job["args"]]


def load_reference(workload, seed):
    if not REFERENCE_FILE.exists():
        return {}
    data = json.loads(REFERENCE_FILE.read_text())
    if data.get("seed") != seed:
        return {}
    return data["workloads"].get(workload, {})


class Verdicts:
    """Checks every answer and counts the failed ones."""

    def __init__(self, checker, reference):
        self.checker, self.reference = checker, reference
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, job, answer, why=None):
        """Record one run of `job`; `why` marks it failed regardless."""
        if why is None:
            why = self._check(job, *answer)
        if why is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{job['id']}: {why}")

    def _check(self, job, rc, text, err):
        why = self.checker.check(job, rc, text, err)
        ref = self.reference.get(job["id"])
        if why is None and ref is not None and checks.digest(job["verb"], text) != ref:
            why = "answer differs from the recorded reference"
        return why


def calibration_kernel():
    """Fixed pure-Python work that no change to circover can speed up."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)
    return total


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def timed_run(manifest, instance_dir, seconds, verdicts):
    """Closed loop over the jobs, each run once, for `seconds`.

    It stops only at the end of a round, so every stratum has the same
    number of samples, and runs past `seconds` until p90 has ten samples
    above it. Past the written rounds it writes the next one, outside the
    timed region. A shared VM can switch between two speeds within a few
    hundred milliseconds, so the calibration kernel runs right before and
    right after every job. Each job's wall time is scaled by CAL_REF_S over
    the mean of those two kernel times: the time the job would take on a
    host that runs the kernel in CAL_REF_S.
    """
    jobs, next_round = list(manifest["jobs"]), manifest["rounds"]
    need = stats.samples_needed(0.9)
    times, walls = [], []
    begin = time.perf_counter()
    deadline, hard_stop = begin + seconds, begin + HARD_STOP_S
    i = 0
    while time.perf_counter() < hard_stop:
        round_start = i == len(jobs) or (i and jobs[i]["round"] != jobs[i - 1]["round"])
        if round_start and time.perf_counter() >= deadline and i >= need:
            break
        if i == len(jobs):
            jobs += workloads.write_round(
                instance_dir, manifest["workload"], manifest["seed"], next_round)
            next_round += 1
        argv = job_argv(jobs[i], instance_dir)
        before = kernel_seconds()
        t0 = time.perf_counter()
        answer = run_job(argv)
        wall = time.perf_counter() - t0
        after = kernel_seconds()
        times.append(wall * 2 * CAL_REF_S / (before + after))
        walls.append(wall)
        verdicts.add(jobs[i], answer)
        i += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "job_p50_ms": statistics.median(times) * 1000.0,
        "job_p90_ms": stats.percentile(times, 0.9) * 1000.0,
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": peak_mb,
    }
    wall = {
        "job_p50_ms": statistics.median(walls) * 1000.0,
        "job_p90_ms": stats.percentile(walls, 0.9) * 1000.0,
        "jobs_per_s": len(walls) / sum(walls),
    }
    return metrics, len(times), {"wall": wall}


def traced_run(jobs, instance_dir, verdicts, spans_file):
    """Each job untraced, then traced right after, so drift hits both alike."""
    argvs = [job_argv(job, instance_dir) for job in jobs]
    untraced_wall = traced_wall = 0.0
    tracer = tracing.Tracer()
    for i, (job, argv) in enumerate(zip(jobs, argvs)):
        t0 = time.perf_counter()
        plain = run_job(argv)
        untraced_wall += time.perf_counter() - t0
        tracer.job = i
        with tracer:
            t0 = time.perf_counter()
            traced = run_job(argv)
            traced_wall += time.perf_counter() - t0
        differs = "traced answer differs from untraced" if traced != plain else None
        verdicts.add(job, plain, differs)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    with open(spans_file, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    extra = {"fired": sorted(tracer.fired()), "shares": tracing.span_shares(tracer.spans)}
    return metrics, len(jobs), extra


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    jobs = manifest["jobs"]
    instance_dir = manifest_path.parent / "instances"
    setup_wall = time.monotonic() - args.spawned_at
    kernel = statistics.median([kernel_seconds() for _ in range(SETUP_KERNELS)])
    result = {"setup_s": setup_wall * CAL_REF_S / kernel, "setup_wall_s": setup_wall}
    if not args.setup_only:
        reference = load_reference(manifest["workload"], manifest["seed"])
        verdicts = Verdicts(checks.Checker(instance_dir), reference)
        if args.trace:
            metrics, attempted, extra = traced_run(
                jobs[: manifest["trace_jobs"]], instance_dir, verdicts,
                manifest_path.parent / "spans.jsonl")
        else:
            metrics, attempted, extra = timed_run(
                manifest, instance_dir, args.seconds, verdicts)
        result.update(extra, metrics=metrics, attempted=attempted, failed=verdicts.failed,
                      reasons=verdicts.reasons, checked_reference=bool(reference))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
