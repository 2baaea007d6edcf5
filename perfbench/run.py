"""The circover benchmark: one command, stdlib only.

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the root of a checkout. For each workload it generates the seeded
inputs under perfbench/.work/, measures set-up in fresh processes, runs
the workload in one more fresh single-threaded process (worker.py), checks
every answer there, and prints a summary. The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, which are
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. Names, units and directions are listed in BENCHMARK.json.

Workloads run one at a time, one process each; nothing here starts threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# set-up is measured in this many extra fresh processes, plus the workload's own
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170


def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "load_1m": os.getloadavg()[0],
    }


def _child(manifest: Path, out: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
         "--out", str(out), "--spawned-at", repr(spawned_at), *extra],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    work = WORK / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = workloads.write_inputs(work, name, seed)
    out = work / "result.json"
    setups = []
    if not trace:
        _child(manifest, out, "--setup-only")  # warms the bytecode and file caches
        setups = [_child(manifest, out, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
    result = _child(manifest, out, "--seconds", str(seconds), "--trace", str(int(trace)))
    if not trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
    result["environment"] = env
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _summary(name: str, seed: int, result: dict, units: dict) -> None:
    print(f"== {name} (seed {seed}): {workloads.WHY[name]}")
    fail_rate = result["failed"] / result["attempted"]
    print(f"   jobs {result['attempted']}  failed {result['failed']}  "
          f"fail_rate {fail_rate:.4f} ratio")
    for key, value in result["metrics"].items():
        print(f"   {key:42s} {value:14.4f} {units[key]}")
    if "wall" in result:
        text = "  ".join(f"{k} {v:.4f}" for k, v in result["wall"].items())
        print(f"   unscaled wall time: {text}")
    if "shares" in result:
        layers: dict[str, float] = {}
        for span, share in result["shares"].items():
            layer = span.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + share
        for title, shares in (("layer", layers), ("function", result["shares"])):
            top = sorted(shares.items(), key=lambda kv: -kv[1])
            text = "  ".join(f"{k} {v:.1%}" for k, v in top if v >= 0.005)
            print(f"   self-time share of cli.main by {title}: {text}")
    for reason in result["reasons"]:
        print(f"   FAIL {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "circover" / "__init__.py").is_file():
        print(f"error: no circover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    print("# " + "  ".join(f"{k}={v}" for k, v in env.items()))

    correct, attempted, failed, metrics, fired = True, 0, 0, {}, set()
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        _summary(name, args.seed, result, units)
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        fired |= set(result.get("fired", ()))
        prefix = "" if len(names) == 1 else f"{name}/"
        for key in wanted:
            metrics[prefix + key] = {"value": result["metrics"][key], "unit": units[key]}
    if args.trace and len(names) > 1:
        wrong = tracing.misfired_names(fired)
        if wrong:
            print(f"   FAIL traced names that fired against plan: {wrong}")
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
