"""Record reference answers for the default seed into reference.json.

    python3 perfbench/make_reference.py

Runs the first REFERENCE_ROUNDS rounds of every workload once, checks each
answer, and stores a digest of its invariant fields (see checks.invariant).
Later runs at the default seed fail any job whose digest differs. Re-record
only when an answer is meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_FILE, job_argv, run_job  # noqa: E402

REFERENCE_ROUNDS = 4


def main() -> int:
    seed = workloads.DEFAULT_SEED
    out = {"seed": seed, "rounds": REFERENCE_ROUNDS, "workloads": {}}
    for name in workloads.WORKLOADS:
        work = HERE / ".work" / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        manifest = json.loads(workloads.write_inputs(work, name, seed).read_text())
        checker = checks.Checker(work / "instances")
        jobs = [j for j in manifest["jobs"] if j["round"] < REFERENCE_ROUNDS]
        jobs.sort(key=lambda j: j["verb"] != "verify")  # facets reads verify's answer
        digests = {}
        for job in jobs:
            rc, text, err = run_job(job_argv(job, work / "instances"))
            why = checker.check(job, rc, text, err)
            if why is not None:
                print(f"error: {job['id']}: {why}", file=sys.stderr)
                return 1
            digests[job["id"]] = checks.digest(job["verb"], text)
        out["workloads"][name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} answers")
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
