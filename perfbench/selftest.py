"""Self-test of the benchmark at toy sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, runs ``run.py --scale toy`` with and without tracing
and asserts that the run passes all its checks and that its result line
holds exactly the metrics ``BENCHMARK.json`` lists, each a finite number
with the listed unit. Also asserts that ``BENCHMARK.json`` agrees with
``metrics.py`` and ``workloads.py``. Takes a few minutes: at toy sizes a
call still runs its ~80-200 Spark jobs.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(WORKLOADS), (
        f"BENCHMARK.json names workloads not in workloads.py: {listed}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        want = [(m.name, m.unit, m.better) for m in table]
        assert got == want, f"BENCHMARK.json {key} differs from metrics.py"
    return spec


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (
        f"{workload} trace={trace} exited {proc.returncode}:\n"
        f"{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = _spec()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            assert set(got) == set(units), (
                f"{workload} trace={trace}: missing {set(units) - set(got)}, "
                f"extra {set(got) - set(units)}")
            for name, m in got.items():
                assert m["unit"] == units[name], (name, m)
                assert isinstance(m["value"], (int, float)), (name, m)
                assert math.isfinite(m["value"]), (name, m)
            print(f"ok {workload} trace={trace}: {len(got)} metrics",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
