"""Paired benchmark runs of two versions of the checkout.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 5 --seconds 20 \
        --seed 31 --workload membership --out BENCH_<n>.json

Exports the parent revision (``git archive``) and the change (a revision,
or by default the working tree's tracked and unignored files) into fresh
directories, so neither side has a ``__pycache__``, and runs
``perfbench/run.py --trace 0`` in each with ``PYTHONDONTWRITEBYTECODE=1``.
Pair k uses seed ``--seed`` + k on both sides; even pairs run the parent
first and odd pairs the change, since a run's ``setup_s`` moves with what
ran just before it.  Writes every pair's metrics and, per metric, both
sides' quartiles, the median change and the number of pairs the change
won, reading each metric's better direction from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str | None, dest: Path) -> str:
    """Write a fresh copy of ``rev``, or of the working tree when None, to
    ``dest``; return a description of what was copied."""
    dest.mkdir(parents=True)
    if rev is not None:
        sha = _git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
            tar.extractall(dest)
        return sha
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    head = _git("rev-parse", "HEAD").decode().strip()
    return f"working tree on {head}"


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its JSON result, or the error."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "iqr_pct": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr_pct": 100 * (q3 - q1) / median if median else None}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: quartiles of both sides over the pairs where
    both runs answered, the change of the median and the pairs won."""
    good = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    out = {}
    for name, direction in better.items():
        a = [p["parent"]["metrics"][name]["value"] for p in good if name in p["parent"]["metrics"]]
        b = [p["change"]["metrics"][name]["value"] for p in good if name in p["change"]["metrics"]]
        if not a or len(a) != len(b):
            continue
        wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
        parent, change = _quartiles(a), _quartiles(b)
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "median_change_pct": 100 * (change["median"] / parent["median"] - 1) if parent["median"] else None,
            "change_better_in": f"{wins}/{len(a)}",
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        copies = {"parent": work / "parent", "change": work / "change"}
        sources = {"parent": export(args.parent, copies["parent"]), "change": export(args.change, copies["change"])}
        results = {w: [] for w in args.workload}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in args.workload:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(copies[side], workload, seed, args.seconds)
                    status = pair[side].get("error") or f"correct={pair[side]['correct']}"
                    print(f"pair {k + 1}/{args.pairs} {workload} seed={seed} {side}: {status}", file=sys.stderr)
                results[workload].append(pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "parent": sources["parent"],
        "change": sources["change"],
        "seconds": args.seconds,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "order": "even pairs run the parent first, odd pairs the change",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "system": platform.system()},
        "workloads": {
            w: {"summary": summarize(pairs, better), "pairs": pairs} for w, pairs in results.items()
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
