"""Benchmark of the ``dep`` CLI: analyze, prune, restore and report on seeded corpora.

Run from the root of a checkout:

    python3 perfbench/run.py --workload glue_short --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44 --trace 0

One closed-loop caller per workload: each subcommand starts when the
previous one has exited, as ``python -m dep ...`` with ``--partitions``
equal to the usable CPU count. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, measured on child processes with no
tracing. ``--trace 1`` runs the subcommands in this process with spans
around each layer and reports the per-layer metrics. Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Work files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pipeline
import spans
from workloads import WORKLOADS, Corpus, Workload, timed_setup

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
SUM_TOLERANCE_S = 1e-6

E2E_UNITS = {
    "setup_s": "s", "analyze_s": "s", "prune_s": "s", "restore_s": "s", "pipeline_s": "s",
    "analyze_peak_rss_mib": "MiB", "prune_peak_rss_mib": "MiB", "restore_peak_rss_mib": "MiB",
}


class Ledger:
    """Subcommands attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, failures: dict[str, list[str]]) -> None:
        self.attempted += len(pipeline.SUBCOMMANDS)
        self.failed += len(failures)
        for sub, reasons in failures.items():
            self.problems.extend(f"{label} {sub}: {reason}" for reason in reasons)


def _merge(*parts: dict[str, list[str]]) -> dict[str, list[str]]:
    merged: dict[str, list[str]] = {}
    for part in parts:
        for sub, reasons in part.items():
            merged.setdefault(sub, []).extend(reasons)
    return merged


class OutputJudge:
    """Checks every repetition's outputs.

    The digest-independent checks run on the first repetition and on any
    later one whose bytes differ from it; identical bytes get the same
    verdict. Digests are also compared with the first run of this seed in
    this checkout and with the reference recorded for this seed.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, corpus: Corpus, ledger: Ledger) -> None:
        self.workload, self.seed, self.workdir, self.corpus, self.ledger = workload, seed, workdir, corpus, ledger
        self.first: tuple[dict[str, str], dict[str, list[str]]] | None = None
        self.stored = _load_json(WORK / "digests.json").get(workload.name, {}).get(str(seed))
        reference = _load_json(REFERENCE).get(workload.name, {}).get(str(seed))
        self.reference = reference if reference and reference["inputs"] == corpus.input_digests else None
        self.notes = []
        if reference and not self.reference:
            self.notes.append("reference digests not used: the generated inputs differ from the recorded ones")
        if self.stored and self.stored["inputs"] != corpus.input_digests:
            ledger.problems.append("setup: inputs differ from the first run of this seed")

    def judge(self, label: str, exit_codes: dict[str, int]) -> None:
        failures = {sub: [f"exit code {code}"] for sub, code in exit_codes.items() if code != 0}
        digests = pipeline.output_digests(self.workdir)
        if self.first is None:
            semantic = pipeline.check_outputs(self.workdir, self.workload, self.corpus)
            self.first = (digests, semantic)
        else:
            differs = pipeline.compare_digests(digests, self.first[0], "first repetition")
            semantic = {sub: self.first[1][sub] for sub in self.first[1] if sub not in differs}
            if differs:
                semantic = _merge(semantic, pipeline.check_outputs(self.workdir, self.workload, self.corpus, tuple(differs)), differs)
        failures = _merge(failures, semantic)
        if self.stored:
            failures = _merge(failures, pipeline.compare_digests(digests, self.stored["outputs"], "first run of this seed"))
        if self.reference:
            failures = _merge(failures, pipeline.compare_digests(digests, self.reference["outputs"], "recorded reference"))
        self.ledger.record(label, failures)
        if not failures and not self.stored:
            self.stored = {"inputs": self.corpus.input_digests, "outputs": digests}
            _update_json(WORK / "digests.json", self.workload.name, self.seed, self.stored)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _update_json(path: Path, workload: str, seed: int, entry: dict) -> None:
    data = _load_json(path)
    data.setdefault(workload, {})[str(seed)] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check_checkout() -> str | None:
    """Why the checkout cannot be benchmarked, or None."""
    needed = [ROOT / "src" / "dep" / "cli.py"] + [ROOT / w.model_config for w in WORKLOADS.values()]
    missing = sorted({str(p.relative_to(ROOT)) for p in needed if not p.is_file()})
    return f"missing from the checkout: {', '.join(missing)}" if missing else None


def verify_program(spawner: pipeline.Spawner, workdir: Path, env: dict[str, str]) -> str | None:
    """Warm the bytecode cache and make sure children import ``dep`` from this checkout."""
    log = workdir / "logs" / "import.log"
    code = "import sys, dep.cli; sys.stdout.write(dep.cli.__file__)"
    result = spawner.run([sys.executable, "-c", code], workdir, env, log)
    found = log.read_text(encoding="utf-8", errors="replace").strip()
    expected = ROOT / "src" / "dep" / "cli.py"
    if result.exit_code != 0 or Path(found).resolve() != expected:
        return f"children must import dep from {expected}, got: {found[-300:]}"
    return None


def host_facts(partitions: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "partitions": partitions,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def corpus_facts(workload: Workload, corpus: Corpus) -> dict:
    return {
        "sequences": int(corpus.lengths.size),
        "tokens": int(corpus.tokens.size),
        "vocab_size": workload.vocab_size,
        "dim": workload.dim,
        "drawn_coverage": corpus.drawn_ids.size / workload.vocab_size,
        "input_bytes": corpus.input_bytes,
        "format": "txt" if workload.text else "dept",
        "ordering": workload.ordering,
        "keep": list(workload.keep),
    }


@dataclass
class Session:
    """Everything one workload run needs after set-up."""

    workload: Workload
    seed: int
    deadline: float  # time.perf_counter() value by which the run should end
    workdir: Path
    corpus: Corpus
    spawner: pipeline.Spawner
    env: dict
    argvs: dict
    ledger: Ledger
    judge: OutputJudge

    def another_fits(self, durations: list[float]) -> bool:
        """Always one repetition; more while a typical one still ends before the deadline."""
        return not durations or time.perf_counter() + statistics.median(durations) <= self.deadline


def run_untraced(run: Session) -> tuple[dict, dict]:
    reps = []
    durations = []
    while run.another_fits(durations):
        rep_start = time.perf_counter()
        children, pipeline_s = pipeline.run_pipeline(run.spawner, run.argvs, run.workdir, run.env)
        run.judge.judge(f"repetition {len(reps) + 1}", {sub: c.exit_code for sub, c in children.items()})
        reps.append((children, pipeline_s))
        durations.append(time.perf_counter() - rep_start)
    samples = {"pipeline_s": [p for _, p in reps]}
    for sub in pipeline.SUBCOMMANDS:
        samples[f"{sub}_s"] = [c[sub].wall_s for c, _ in reps]
        samples[f"{sub}_peak_rss_mib"] = [c[sub].peak_rss_mib for c, _ in reps]
    metrics = {name: statistics.median(samples[name]) for name in E2E_UNITS if name in samples}
    return metrics, samples


def _in_process(cli, argv: list[str], tracer: spans.Tracer | None) -> tuple[float, int]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli.main", cli.main, (argv,), {})
        wall = time.perf_counter() - start
    return wall, code


def run_traced(run: Session) -> tuple[dict, dict]:
    """Per-layer metrics from in-process runs: one tracemalloc pass, then untraced/traced pairs."""
    import_log = run.workdir / "logs" / "import.log"
    import_times = [
        run.spawner.run([sys.executable, "-c", "import dep.cli"], run.workdir, run.env, import_log).wall_s
        for _ in range(IMPORT_REPEATS)
    ]
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["SOURCE_DATE_EPOCH"] = pipeline.SOURCE_DATE_EPOCH
    os.environ.pop("DEP_LOG", None)
    from dep import cli, formats, vocab

    tracer = spans.Tracer()
    passes = {"alloc": [], "off": [], "on": []}
    recorded = []

    def one_pass(kind: str) -> None:
        pipeline.clear_outputs(run.workdir)
        codes, sample = {}, {}
        if kind != "off":
            tracer.install(cli, formats, vocab)
            tracer.track_alloc = kind == "alloc"
        try:
            for sub in pipeline.SUBCOMMANDS:
                tracer.spans = []
                sample[f"{sub}.wall"], codes[sub] = _in_process(cli, run.argvs[sub], None if kind == "off" else tracer)
                if kind == "off":
                    continue
                layers = spans.aggregate(tracer.spans, sub)
                sample.update(layers)
                recorded.append((kind, sub, tracer.spans))
                self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
                main_s = layers[f"{sub}.cli.main.s"]
                if abs(self_sum - main_s) > SUM_TOLERANCE_S:
                    run.ledger.problems.append(f"{sub}: span self times sum to {self_sum} s, cli.main took {main_s} s")
        finally:
            tracer.uninstall()
        run.judge.judge(f"{kind} pass {len(passes[kind]) + 1}", codes)
        passes[kind].append(sample)

    os.chdir(run.workdir)
    try:
        one_pass("alloc")
        durations = []
        while run.another_fits(durations):
            pair_start = time.perf_counter()
            one_pass("off")
            one_pass("on")
            durations.append(time.perf_counter() - pair_start)
    finally:
        os.chdir(ROOT)

    on = spans.medians(passes["on"])
    off = spans.medians(passes["off"])
    metrics = {k: v for k, v in on.items() if not k.endswith(".wall")}
    metrics.update({k: v for k, v in passes["alloc"][0].items() if k.endswith(".peak_alloc_mib")})
    metrics["prune.embeddings.kept_row_ratio"] = on["prune.embeddings.prune_embeddings.rows"] / run.workload.vocab_size
    metrics["cli.import_s"] = statistics.median(import_times)
    metrics["trace.overhead_s"] = sum(on[f"{sub}.wall"] - off[f"{sub}.wall"] for sub in pipeline.SUBCOMMANDS)
    (run.workdir / f"spans-seed{run.seed}.json").write_text(
        json.dumps([{"pass": kind, "subcommand": sub, "spans": spans.to_json(trace)} for kind, sub, trace in recorded]) + "\n",
        encoding="utf-8",
    )
    samples = {"passes": {k: len(v) for k, v in passes.items()}, "cli.import_s": import_times}
    return metrics, samples


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, record: bool) -> tuple[dict, Ledger, dict]:
    deadline = time.perf_counter() + seconds
    partitions = len(os.sched_getaffinity(0))
    workdir = WORK / workload.name
    (workdir / "logs").mkdir(parents=True, exist_ok=True)
    env = pipeline.child_env(ROOT)
    ledger = Ledger()
    with pipeline.Spawner() as spawner:
        problem = verify_program(spawner, workdir, env)
        if problem:
            raise SystemExit(f"perfbench: {problem}")
        corpus, setup_times = timed_setup(workload, seed, workdir / "inputs", SETUP_REPEATS)
        judge = OutputJudge(workload, seed, workdir, corpus, ledger)
        run = Session(workload, seed, deadline, workdir, corpus, spawner, env,
                      pipeline.subcommand_argv(workload, ROOT, partitions), ledger, judge)
        metrics, samples = (run_traced if traced else run_untraced)(run)
    if not traced:
        metrics["setup_s"] = statistics.median(setup_times)
        samples["setup_s"] = setup_times
    facts = {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "host": host_facts(partitions), "corpus": corpus_facts(workload, corpus),
        "samples": samples, "notes": judge.notes, "problems": ledger.problems,
        "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics,
        "digests": {"inputs": corpus.input_digests, "outputs": judge.first[0] if judge.first else {}},
    }
    (workdir / f"result-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(facts, indent=1) + "\n", encoding="utf-8")
    if record and not traced and ledger.failed == 0 and not ledger.problems:
        _update_json(REFERENCE, workload.name, seed, facts["digests"])
    return metrics, ledger, facts


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    measure = name.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "import_s": "s", "overhead_s": "s", "peak_alloc_mib": "MiB",
            "kept_row_ratio": "ratio"}.get(measure, "count")


def print_summary(facts: dict) -> None:
    w = facts["workload"]
    print(f"[{w}] seed={facts['seed']} trace={facts['trace']} host={json.dumps(facts['host'])}")
    print(f"[{w}] corpus={json.dumps(facts['corpus'])}")
    samples = facts["samples"]
    for name, value in sorted(facts["metrics"].items()):
        if name in samples:
            count = len(samples[name])
        else:  # traced: peaks come from the one tracemalloc pass, the rest from the traced passes
            count = 1 if name.endswith(".peak_alloc_mib") else samples["passes"]["on"]
        print(f"[{w}] {name:<48} {value:.6g} {_unit(name)}  (median of {count})")
    ratio = facts["failed"] / facts["attempted"] if facts["attempted"] else 1.0
    print(f"[{w}] {'failed_ops_ratio':<48} {ratio:.6g} ratio  ({facts['failed']}/{facts['attempted']} subcommands)")
    for line in facts["notes"] + facts["problems"]:
        print(f"[{w}] note: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this seed's digests in {REFERENCE.name} when every check passes")
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        found, ledger, facts = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.record_reference)
        print_summary(facts)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": _unit(k)} for k, v in sorted(found.items())})
        attempted += ledger.attempted
        failed += ledger.failed
        correct = correct and ledger.failed == 0 and not ledger.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
