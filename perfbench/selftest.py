"""Small-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload at a tiny size (its own name, so the digests of the
full-size workloads are untouched) and checks that:

* the same seed writes the same input bytes and another seed does not;
* an untraced and a traced run pass every output check;
* the traced span self times add up to each subcommand's ``cli.main`` time;
* flipping one byte in any output makes exactly the subcommand that wrote
  it fail, and the digest-independent checks alone catch flips in the
  binary outputs and in ``remap.json``.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import pipeline
import run
from workloads import WORKLOADS, write_inputs

TINY = {
    "glue_short": dict(sequences=300),
    "multilingual_long": dict(sequences=3),
    "glue_text": dict(sequences=300),
}
SEED = 7
SEMANTIC_FLIPS = ("pruned_dataset", "pruned_embeddings.depe", "restored_embeddings.depe", "remap.json")


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], name=f"selftest-{name}", dim=8, **TINY[name])


def flip_byte(path) -> bytes:
    original = path.read_bytes()
    data = bytearray(original)
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    return original


def check_inputs_repeat(workload) -> list[str]:
    base = run.WORK / workload.name / "determinism"
    digests = [write_inputs(workload, seed, base / str(i)).input_digests for i, seed in enumerate((SEED, SEED, SEED + 1))]
    shutil.rmtree(base)
    problems = []
    if digests[0] != digests[1]:
        problems.append("the same seed wrote different inputs")
    if digests[0][workload.dataset_name] == digests[2][workload.dataset_name]:
        problems.append("another seed wrote the same dataset")
    return problems


def check_flips(workload) -> list[str]:
    workdir = run.WORK / workload.name
    corpus = write_inputs(workload, SEED, workdir / "inputs")
    ledger = run.Ledger()
    judge = run.OutputJudge(workload, SEED, workdir, corpus, ledger)
    judge.judge("clean", {})
    if ledger.failed:
        return [f"clean outputs failed: {ledger.problems}"]
    problems = []
    for output in sorted(pipeline.output_digests(workdir)):
        path = workdir / output
        original = flip_byte(path)
        expected = [pipeline.subcommand_of(output)]
        before = ledger.failed
        judge.judge(f"flipped {output}", {})
        failed = sorted({line.split(": ")[0].split()[-1] for line in ledger.problems if line.startswith(f"flipped {output} ")})
        if ledger.failed != before + 1 or failed != expected:
            problems.append(f"flipping a byte of {output} failed {failed}, expected {expected}")
        if any(tag in output for tag in SEMANTIC_FLIPS):
            failed = sorted(pipeline.check_outputs(workdir, workload, corpus))
            if failed != expected:
                problems.append(f"digest-independent checks: flipping {output} failed {failed}, expected {expected}")
        path.write_bytes(original)
    return problems


def main() -> int:
    run.WORK = run.WORK / "selftest"  # keeps the digests of full-size runs apart
    problems = []
    for name in TINY:
        workload = tiny(name)
        problems += [f"{name}: {p}" for p in check_inputs_repeat(workload)]
        for traced in (False, True):
            metrics, ledger, facts = run.run_workload(workload, SEED, 0.1, traced, record=False)
            if ledger.failed or ledger.problems or not metrics:
                problems.append(f"{name} trace={int(traced)}: {ledger.problems or 'no metrics'}")
        problems += [f"{name}: {p}" for p in check_flips(workload)]
    shutil.rmtree(run.WORK)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
