"""Smoke tests of the scripts: the demo corpus and pipeline, and the savings grid."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_demo_data_then_pipeline(tmp_path):
    env = _env()
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


def test_savings_grid_bert_base_row(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "savings_grid.py")],
        check=True, env=_env(), cwd=tmp_path, timeout=120, capture_output=True, text=True,
    )
    rows = {line.split()[0]: line.split()[1:] for line in result.stdout.splitlines()[2:]}
    assert rows["bert-base"] == ["109.5M", "21.4%", "21.2%", "20.3%", "19.3%", "16.1%", "10.7%", "5.4%", "0.0%"]
