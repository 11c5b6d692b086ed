"""The benchmark's traced run still reports every per-layer metric that BENCHMARK.json declares.

``perfbench/spans.py`` times the functions that ``dep.cli`` calls, looked
up by name at call time. A ``dep.cli`` that stops calling one of them still
passes every output check, but its traced run lacks that function's
metrics. This runs the traced benchmark on each workload's tiny self-test
size in a child process and compares the metric names with the contract.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_TRACED_RUNS = """
import json, sys
from pathlib import Path
import run, selftest
run.WORK = Path(sys.argv[1])
results = {}
for name in selftest.TINY:
    metrics, ledger, _ = run.run_workload(selftest.tiny(name), selftest.SEED, 0.1, True, record=False)
    results[name] = {"metrics": sorted(metrics), "failed": ledger.failed, "problems": ledger.problems}
print(json.dumps(results))
"""


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    declared = {entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    child = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, str(tmp_path)],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    results = json.loads(child.stdout.splitlines()[-1])
    assert sorted(results) == ["glue_short", "glue_text", "multilingual_long"]
    for name, result in results.items():
        assert declared - set(result["metrics"]) == set(), name
        assert (result["failed"], result["problems"]) == (0, []), name
