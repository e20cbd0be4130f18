#!/usr/bin/env python3
"""Smoke test of the host-cost benchmark.

Runs every workload of BENCHMARK.json at a tiny length, untraced and
traced, and checks that each run passes its output checks and prints every
metric BENCHMARK.json names, with its unit. Then shows that the checks are
live: a wrong expected BT checksum fails every op, on two seeds, and a
directory holding only the benchmark's own files makes run.py exit non-zero
without printing a result. Run it from the repository root (about three
minutes):

    python3 hostbench/smoke_test.py

Exit code 0 means every check held.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "hostbench"))
import run  # noqa: E402  (the benchmark itself: its build directory)

failures = []


def check(name, ok, detail=""):
    print(("PASS " if ok else "FAIL ") + name + ("" if ok else f": {detail}"),
          flush=True)
    if not ok:
        failures.append(name)


def bench(args, cwd=ROOT):
    """Runs run.py; returns (exit code, parsed last stdout line or None)."""
    p = subprocess.run([sys.executable, os.path.join("hostbench", "run.py")]
                       + args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return p.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tiny = ["--seconds", "0.1"]

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w['name']} --trace {trace}"
            rc, res = bench(["--workload", w["name"], "--seed", "1",
                             "--trace", str(trace)] + tiny)
            if res is None:
                check(name, False, f"exit {rc}, no result line")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            check(name + ": correct, failed=0",
                  rc == 0 and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, json.dumps(res)[:300])
            check(name + ": every metric with its unit", got == want,
                  f"missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}, "
                  f"unit mismatch {sorted(n for n in got if n in want and got[n] != want[n])}")

    for seed in ("1", "2"):
        rc, res = bench(["--workload", "bt-gil", "--seed", seed,
                         "--expect-verify", "1.0", "--trace", "0"] + tiny)
        check(f"wrong BT checksum, seed {seed}: failed ops",
              rc != 0 and res is not None and not res["correct"]
              and res["failed"] == res["attempted"] > 0, f"exit {rc}, {res}")

    # Only BENCHMARK.json and hostbench/: nothing to build from.
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.build_dir())
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "hostbench"),
                        os.path.join(bare, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = bench(["--workload", "bt-gil", "--seed", "1",
                         "--trace", "0"] + tiny, cwd=bare)
        check("benchmark files alone: non-zero exit, no result",
              rc != 0 and res is None, f"exit {rc}, {res}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke test " + ("FAILED: " + ", ".join(failures) if failures
                           else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
