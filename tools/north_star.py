"""North-star timing: alternating `moltop bench --ablation` runs of two checkouts.

    python tools/north_star.py --base ../parent --change . --pairs 8 --out BENCH_x.json

Every run fingerprints, trains and predicts the generated dataset (1128
molecules, datagen seed 7) with ``k_grid`` 14 and the acceptance trend
ensembles (300 iterations, depth 4, learning rate 0.05, 3 members, seed 0)
on 2 processes, one repeat.  Each checkout runs from its own ``src/`` in its
own work directory; pair i runs the base first when i is even and the change
first when it is odd, one run at a time.  The script records each run's wall
time, ``train_wall_seconds``, ``fingerprint_seconds`` and ``total_seconds``
from ``timing.json``, and the SHA-256 of every other artifact, with the two
absolute paths in ``report.json`` made relative to the work directory.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIG = {
    "dataset": {"path": "data.jsonl"}, "task": "regression", "k_grid": 14,
    "threads": 2, "seed": 0, "repeats": 1, "out_dir": "out",
    "sglb": {"iterations": 300, "max_depth": 4, "learning_rate": 0.05,
             "ensemble_size": 3, "seed": 0},
}
TIMINGS = ("train_wall_seconds", "fingerprint_seconds", "total_seconds")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare(checkout: Path, work: Path) -> dict:
    """Write the dataset (with the checkout's own datagen) and the config."""
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, "-m", "moltop.datagen", "--out", "data.jsonl",
                    "--count", "1128", "--seed", "7"], cwd=work, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    (work / "config.json").write_text(json.dumps(CONFIG, sort_keys=True), encoding="utf-8")
    return env


def artifact_hashes(work: Path) -> dict:
    """SHA-256 of each artifact but timing.json; report.json's paths made relative."""
    hashes = {}
    for path in sorted((work / "out").iterdir()):
        if path.name == "timing.json":
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            doc = json.loads(data)
            config = doc.get("config", {})
            for holder, key in ((config.get("dataset", {}), "path"), (config, "out_dir")):
                if isinstance(holder.get(key), str):
                    holder[key] = os.path.relpath(holder[key], work)
            data = json.dumps(doc, sort_keys=True).encode()
        hashes[path.name] = _sha256(data)
    return hashes


def run_once(work: Path, env: dict) -> dict:
    out = work / "out"
    if out.exists():
        for path in out.iterdir():
            path.unlink()
    command = [sys.executable, "-m", "moltop.cli", "bench", "--config", "config.json",
               "--ablation"]
    t0 = time.perf_counter()
    subprocess.run(command, cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    timing = json.loads((out / "timing.json").read_text(encoding="utf-8"))
    return {"wall_s": round(wall, 4), **{k: round(timing[k], 4) for k in TIMINGS},
            "artifacts": artifact_hashes(work)}


def summarize(base: list, change: list) -> dict:
    summary = {}
    for metric in ("wall_s", *TIMINGS):
        b, c = [r[metric] for r in base], [r[metric] for r in change]
        q = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
        summary[metric] = {
            "base_median": round(statistics.median(b), 4),
            "change_median": round(statistics.median(c), 4),
            "base_iqr": round(q[2] - q[0], 4),
            "change_lower_pairs": f"{sum(y < x for x, y in zip(b, c))}/{len(b)}"}
    hashes = [r["artifacts"] for r in base + change]
    summary["artifacts_identical"] = all(h == hashes[0] for h in hashes)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--work", type=Path, default=None,
                        help="work directory (default: a new temporary one)")
    parser.add_argument("--out", type=Path, default=None, help="write the runs as JSON")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="north_star_"))
    sides = {name: (path.resolve(), work / name)
             for name, path in (("base", args.base), ("change", args.change))}
    envs = {name: prepare(checkout, side_work)
            for name, (checkout, side_work) in sides.items()}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        for name in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[name].append(run_once(sides[name][1], envs[name]))
            print(f"pair {i} {name}: " + " ".join(
                f"{k}={runs[name][-1][k]}" for k in ("wall_s", *TIMINGS)), flush=True)
    doc = {"config": CONFIG, "dataset": {"count": 1128, "seed": 7},
           "order": "base first on even pairs, change first on odd ones",
           "runs": runs, "summary": summarize(runs["base"], runs["change"])}
    print(json.dumps(doc["summary"], indent=1))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
