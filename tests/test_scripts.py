"""Smoke test of the demo scripts: generate a corpus, then drive the CLI pipeline on it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demo_data_then_pipeline(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    data, work = tmp_path / "demo_data", tmp_path / "demo_run"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_demo_data.py"), "--out", str(data)],
        check=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert {p.name for p in data.iterdir()} >= {"dataset.dept", "dataset.txt", "embeddings.depe"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--data", str(data), "--workdir", str(work)],
        check=True, env=env, cwd=tmp_path, timeout=120, capture_output=True, text=True,
    )
    assert "identity restore byte-identical: True" in result.stdout
    assert (work / "report" / "report.json").is_file()
