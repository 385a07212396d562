"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs a small slice of every workload (``run.py --quick``) twice in each
mode with the same seed, then checks that

* the last line is the result object with exactly the contract's keys;
* every metric ``BENCHMARK.json`` names for that mode is emitted, with
  its unit, and nothing else;
* the run is ``correct``;
* the deterministic metrics repeat exactly across the two runs.

Exits 1 and lists every violation when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DETERMINISTIC = {
    0: ("ok_frac", "gen_cycles.geomean", "gen_size.geomean"),
    1: ("scheduler.blocks", "scheduler.instrs", "sim.instructions",
        "selector.instrs"),
}


def run(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            first, second = run(workload, trace), run(workload, trace)
            for result in (first, second):
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    errors.append(f"{where}: keys {sorted(result)}")
                if not result["correct"]:
                    errors.append(f"{where}: not correct")
                units = {name: m["unit"]
                         for name, m in result["metrics"].items()}
                if units != declared[trace]:
                    missing = set(declared[trace]) - set(units)
                    extra = set(units) - set(declared[trace])
                    wrong = [n for n in set(units) & set(declared[trace])
                             if units[n] != declared[trace][n]]
                    errors.append(f"{where}: missing {sorted(missing)}, "
                                  f"undeclared {sorted(extra)}, "
                                  f"wrong unit {sorted(wrong)}")
            for name in DETERMINISTIC[trace]:
                a = first["metrics"].get(name, {}).get("value")
                b = second["metrics"].get(name, {}).get("value")
                if a != b:
                    errors.append(f"{where}: {name} {a} != {b} "
                                  "across two runs with one seed")
            print(f"checked {where}", flush=True)
    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
