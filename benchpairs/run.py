"""Pair runner: benchmark a parent and a change commit and write BENCH_<pr>.json.

Run from anywhere inside the repository:

    python3 benchpairs/run.py --parent REV [--change REV] --pr N \
        [--seeds 2201-2210] [--claim WORKLOAD:METRIC ...] [--what TEXT]

Both commits are checked out with `git worktree` into a temporary
directory, which is removed at the end. The benchmark is the parent's
BENCHMARK.json: its command, workloads, run_seconds and bounds judge both
sides, so a change cannot loosen the benchmark it is judged by. For every
workload and seed its command (`python3 perfbench/run.py`) runs with
`--workload W --seed S --seconds <run_seconds>` from the root of each
checkout, the two sides back to back; which side runs first alternates
from seed to seed. The last stdout line of a run is its result line.

BENCH_<pr>.json, at the root of the repository, holds what, machine,
commits, method, summary, verdicts and runs: per workload and end-to-end
metric, the median, quartiles, min, max and n of each side, each side's
interquartile range over its median (its spread), the pairs in which the
change is lower and the ratio of the medians; a verdict against the
metric's bound; and every result line. Passing the same REV as --parent
and --change makes an A/A run: both sides run one commit, so the spreads
and the ratio of the medians show how far a metric moves by chance, to
hold against its bound. A metric whose parent
interquartile range is wider than its bound is "unresolved", unless every
change run is better than every parent run. A claimed gain (--claim) is
met when the change is better in at least nine of ten pairs, its median is
better than the parent's by more than the parent's interquartile range,
it fails no more operations than the parent and every change run gave a
result line. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
CLAIM_PAIR_SHARE = 0.9


def _git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _seeds(text: str) -> list[int]:
    """'2201-2210' or '1,5,7'."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(command: list[str], checkout: str, workload: str, seed: int,
             seconds: int) -> tuple[dict, dict | None]:
    """One benchmark run from `checkout`: (result line, provenance or None).

    A run that exits without a result line counts as incorrect, with its
    exit code and the end of its stderr.
    """
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=10 * seconds + 300)
        out, err, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        out, err, code = e.stdout or "", f"timed out after {e.timeout}s", None
        out = out.decode() if isinstance(out, bytes) else out
    provenance = None
    for line in out.splitlines():
        if line.startswith("# provenance "):
            provenance = json.loads(line[len("# provenance "):])
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict) or "metrics" not in result:
            raise ValueError(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "exit_code": code, "stderr_tail": err[-2000:]}
    return result, provenance


def _stats(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def _value(result: dict | None, name: str) -> float | None:
    metric = (result or {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def summarize(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for wl in workloads:
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == wl:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        entry = {}
        for m in metrics:
            name = m["name"]
            values = [{side: _value(p.get(side), name) for side in SIDES} for p in pairs.values()]
            per_side = {side: [v[side] for v in values if v[side] is not None] for side in SIDES}
            if not all(per_side.values()):
                continue
            both = [v for v in values if None not in v.values()]
            s = entry[name] = {side: _stats(per_side[side]) for side in SIDES}
            s["iqr_over_median"] = {
                side: round((s[side]["q3"] - s[side]["q1"]) / s[side]["median"], 4)
                if s[side]["median"] else None for side in SIDES}
            s["change_lower_in_pairs"] = f"{sum(v['change'] < v['parent'] for v in both)}/{len(pairs)}"
            if m["better"] == "higher":
                s["change_higher_in_pairs"] = \
                    f"{sum(v['change'] > v['parent'] for v in both)}/{len(pairs)}"
            parent_median = s["parent"]["median"]
            s["median_ratio_change_over_parent"] = (
                round(s["change"]["median"] / parent_median, 4) if parent_median else None)
        for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted")):
            entry[key] = {side: sum(p[side].get(field, 0) for p in pairs.values() if side in p)
                          for side in SIDES}
        entry["runs_without_result"] = {
            side: sum(not p[side].get("metrics") for p in pairs.values() if side in p)
            for side in SIDES}
        summary[wl] = entry
    return summary


def verdicts(summary: dict, metrics: list[dict], claims: set[tuple[str, str]]) -> dict:
    out = {}
    for wl, entry in summary.items():
        out[wl] = {}
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            if name not in entry:
                out[wl][name] = "no result on at least one side"
                continue
            s = entry[name]
            parent, change = s["parent"]["median"], s["change"]["median"]
            iqr = s["parent"]["q3"] - s["parent"]["q1"]
            better = s["change_lower_in_pairs" if lower else "change_higher_in_pairs"]
            better_pairs, n_pairs = map(int, better.split("/"))
            facts = (f"medians {parent:.4g} -> {change:.4g} (ratio "
                     f"{s['median_ratio_change_over_parent']}), change "
                     f"{'lower' if lower else 'higher'} in {better} pairs, parent IQR {iqr:.4g}")
            if (wl, name) in claims:
                gain = parent - change if lower else change - parent
                failed = entry["failed_ops"]
                met = (better_pairs >= CLAIM_PAIR_SHARE * n_pairs and gain > iqr
                       and failed["change"] <= failed["parent"]
                       and not entry["runs_without_result"]["change"])
                out[wl][name] = f"claimed gain {'met' if met else 'not met'}: {facts}"
                continue
            apart = (s["change"]["max"] < s["parent"]["min"] if lower
                     else s["change"]["min"] > s["parent"]["max"])
            if iqr > bound * abs(parent) and not apart:
                verdict = f"unresolved, the parent's IQR exceeds the {bound} bound"
            elif change > parent * (1 + bound) if lower else change < parent * (1 - bound):
                verdict = f"outside the {bound} bound"
            else:
                verdict = f"inside the {bound} bound"
            out[wl][name] = f"{verdict}: {facts}"
        failed, attempted = entry["failed_ops"], entry["attempted_ops"]
        text = ", ".join(f"{failed[side]} of {attempted[side]} on the {side}" for side in SIDES)
        missing = entry["runs_without_result"]
        if any(missing.values()):
            text += "; runs without a result line: " + ", ".join(
                f"{missing[side]} on the {side}" for side in SIDES)
        out[wl]["failed_ops"] = text
    return out


def machine(provenance: dict | None) -> dict:
    """The machine the runs were made on, from perfbench's provenance line if there is one."""
    provenance = provenance or {}
    return {"cpu_model": provenance.get("cpu_model", platform.processor()),
            "vcpus": provenance.get("nproc", os.cpu_count()),
            "python": provenance.get("python", platform.python_version()),
            "kernel": platform.release()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, metavar="REV")
    ap.add_argument("--change", default="HEAD", metavar="REV")
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--seeds", default="1-10", help="a range A-B or a comma list")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="a metric the change claims to improve")
    ap.add_argument("--what", default="", help="what the change does")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # remove the checkouts on a kill

    root = _git(".", "rev-parse", "--show-toplevel")
    commits = {side: _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.parent, args.change))}
    tmp = tempfile.mkdtemp(prefix="benchpairs-")
    checkouts = {side: os.path.join(tmp, side) for side in SIDES}
    runs: list[dict] = []
    provenance = None
    try:
        for side in SIDES:
            _git(root, "worktree", "add", "--detach", checkouts[side], commits[side])
        with open(os.path.join(checkouts["parent"], "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        claims = {tuple(c.split(":", 1)) for c in args.claim}
        unknown = claims - {(w, m["name"]) for w in workloads for m in bench["end_to_end"]}
        if unknown:
            ap.error(f"--claim names no workload:metric of BENCHMARK.json: {sorted(unknown)}")
        for wl in workloads:
            for k, seed in enumerate(_seeds(args.seeds)):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, prov = run_once(bench["command"], checkouts[side], wl, seed, seconds)
                    provenance = provenance or prov
                    runs.append({"side": side, "first_in_pair": order[0], "workload": wl,
                                 "seed": seed, "result": result})
                    print(f"benchpairs: {wl} seed {seed} {side}: "
                          f"{json.dumps(result.get('metrics'))}", file=sys.stderr, flush=True)
    finally:
        for path in checkouts.values():
            if os.path.isdir(path):
                subprocess.run(["git", "-C", root, "worktree", "remove", "--force", path],
                               capture_output=True)
        subprocess.run(["git", "-C", root, "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = bench["end_to_end"]
    summary = summarize(runs, workloads, metrics)
    doc = {
        "what": args.what,
        "machine": machine(provenance),
        "commits": commits,
        "method": {
            "command": f"{' '.join(bench['command'])} --workload W --seed S --seconds {seconds} "
                       "(run from each checkout's root)",
            "pairs": "parent and change run back to back per seed and workload, alternating "
                     "which side runs first (first_in_pair in each run)",
            "seeds": args.seeds,
            "bounds": "the parent's BENCHMARK.json end_to_end bounds: "
                      + ", ".join(f"{m['name']} {m['bound']}" for m in metrics),
            "claims": [f"{w}:{m}" for w, m in sorted(claims)],
            "claim_rule": f"change better in at least {CLAIM_PAIR_SHARE:.0%} of pairs, its "
                          "median better than the parent's by more than the parent's IQR, "
                          "no more failed ops than the parent and no change run without "
                          "a result line",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        },
        "summary": summary,
        "verdicts": verdicts(summary, metrics, claims),
        "runs": runs,
    }
    with open(os.path.join(root, f"BENCH_{args.pr}.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(json.dumps(doc["verdicts"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
