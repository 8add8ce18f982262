import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parent.parent / "benchpairs" / "run.py"

# A stand-in for perfbench/run.py: overhead_x is SCALE * (10 + seed % 3); the
# change halves SCALE. peak_rss_mb spreads more than its bound on both sides.
# Each run fails FAILED of its 5 ops; with FAILED -1, the seed-2 run exits
# without a result line. It logs every run so the test can see the order.
STUB = '''
import json, os, sys
SCALE, FAILED = {scale}, {failed}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(os.environ["STUB_LOG"], "a") as f:
    f.write(f"{{seed}} {{SCALE}} {{args['--workload']}} {{args['--seconds']}}\\n")
if FAILED < 0 and seed == 2:
    sys.exit(3)
print("# provenance " + json.dumps({{"cpu_model": "stub cpu", "nproc": 2, "python": "3.x"}}))
print(json.dumps({{"correct": not FAILED, "attempted": 5, "failed": max(FAILED, 0), "metrics": {{
    "overhead_x": {{"value": SCALE * (10 + seed % 3), "unit": "x"}},
    "setup_s": {{"value": 1.0, "unit": "s"}},
    "peak_rss_mb": {{"value": 1.0 + seed % 2, "unit": "MB"}}}}}}))
'''

BENCHMARK = {
    "command": [sys.executable, "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 7,
    "workloads": [{"name": "w1", "why": "stub"}, {"name": "w2", "why": "stub"}],
    "end_to_end": [
        {"name": "overhead_x", "unit": "x", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ],
}


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


def _repo(tmp_path, benchmark=BENCHMARK):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return repo


def _commit(repo, scale, failed=0, benchmark=None):
    (repo / "perfbench" / "run.py").write_text(STUB.format(scale=scale, failed=failed))
    if benchmark is not None:
        (repo / "BENCHMARK.json").write_text(json.dumps(benchmark))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", f"scale {scale}")
    return _git(repo, "rev-parse", "HEAD")


def _run(repo, log, *args):
    return subprocess.run([sys.executable, str(RUNNER), *args], cwd=repo,
                          env={**os.environ, "STUB_LOG": str(log)}, capture_output=True,
                          text=True, timeout=120)


def test_pair_runner_writes_the_bench_schema(tmp_path):
    repo = _repo(tmp_path)
    parent, change = _commit(repo, 2.0), _commit(repo, 1.0)
    log = tmp_path / "log"
    proc = _run(repo, log, "--parent", parent, "--change", change, "--pr", "99",
                "--seeds", "1-4", "--claim", "w1:overhead_x", "--what", "halves SCALE")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((repo / "BENCH_99.json").read_text())

    assert list(doc) == ["what", "machine", "commits", "method", "summary", "verdicts", "runs"]
    assert doc["what"] == "halves SCALE"
    assert doc["commits"] == {"parent": parent, "change": change}
    assert doc["machine"]["cpu_model"] == "stub cpu" and doc["machine"]["vcpus"] == 2
    assert set(doc["method"]) >= {"command", "pairs", "seeds", "bounds", "quartiles"}
    assert "overhead_x 0.25" in doc["method"]["bounds"]

    # every pair runs back to back, and the side that runs first alternates
    runs = doc["runs"]
    assert [(r["workload"], r["seed"], r["side"], r["first_in_pair"]) for r in runs[:4]] == [
        ("w1", 1, "parent", "parent"), ("w1", 1, "change", "parent"),
        ("w1", 2, "change", "change"), ("w1", 2, "parent", "change")]
    assert len(runs) == 2 * 4 * 2
    assert [line.split() for line in log.read_text().splitlines()[:4]] == [
        ["1", "2.0", "w1", "7"], ["1", "1.0", "w1", "7"],
        ["2", "1.0", "w1", "7"], ["2", "2.0", "w1", "7"]]

    s = doc["summary"]["w1"]["overhead_x"]
    assert set(s["parent"]) == {"median", "q1", "q3", "min", "max", "n"}
    assert s["parent"]["n"] == s["change"]["n"] == 4
    assert s["parent"]["median"] == 22.0 and s["change"]["median"] == 11.0
    assert s["change_lower_in_pairs"] == "4/4"
    assert s["median_ratio_change_over_parent"] == 0.5
    assert doc["summary"]["w1"]["failed_ops"] == {"parent": 0, "change": 0}
    assert doc["summary"]["w1"]["attempted_ops"] == {"parent": 20, "change": 20}

    assert doc["verdicts"]["w1"]["overhead_x"].startswith("claimed gain met:")
    # unclaimed, a gain is only inside its bound; an unchanged metric too
    assert doc["verdicts"]["w2"]["overhead_x"].startswith("inside the 0.25 bound:")
    assert doc["verdicts"]["w2"]["setup_s"].startswith("inside the 0.25 bound:")
    assert doc["verdicts"]["w2"]["peak_rss_mb"].startswith(
        "unresolved, the parent's IQR exceeds the 0.15 bound:")
    assert doc["verdicts"]["w1"]["failed_ops"] == "0 of 20 on the parent, 0 of 20 on the change"

    # the checkouts are gone
    assert _git(repo, "worktree", "list").count("\n") == 0


def test_a_worse_change_is_judged_by_the_parents_benchmark(tmp_path):
    one_workload = {**BENCHMARK, "workloads": [{"name": "w1", "why": "stub"}]}
    repo = _repo(tmp_path, one_workload)
    parent = _commit(repo, 1.0)
    # the change doubles overhead_x, widens its bound, shortens the runs and adds a workload
    loose = {**BENCHMARK, "run_seconds": 1, "end_to_end": [
        {**m, "bound": 5.0} if m["name"] == "overhead_x" else m for m in BENCHMARK["end_to_end"]]}
    change = _commit(repo, 2.0, benchmark=loose)
    log = tmp_path / "log"
    proc = _run(repo, log, "--parent", parent, "--change", change, "--pr", "1",
                "--seeds", "5,6", "--claim", "w1:setup_s")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((repo / "BENCH_1.json").read_text())
    assert list(doc["verdicts"]) == ["w1"]
    assert doc["verdicts"]["w1"]["overhead_x"].startswith("outside the 0.25 bound:")
    assert doc["verdicts"]["w1"]["setup_s"].startswith("claimed gain not met:")
    assert doc["method"]["seeds"] == "5,6"
    assert [r["seed"] for r in doc["runs"]] == [5, 5, 6, 6]
    assert {line.split()[3] for line in log.read_text().splitlines()} == {"7"}


@pytest.mark.parametrize("failed", [1, -1], ids=["fails-ops", "run-without-result"])
def test_a_faster_change_that_fails_more_meets_no_claim(tmp_path, failed):
    repo = _repo(tmp_path, {**BENCHMARK, "workloads": [{"name": "w1", "why": "stub"}]})
    parent, change = _commit(repo, 2.0), _commit(repo, 1.0, failed=failed)
    proc = _run(repo, tmp_path / "log", "--parent", parent, "--change", change, "--pr", "1",
                "--seeds", "1-10", "--claim", "w1:overhead_x")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((repo / "BENCH_1.json").read_text())
    # lower in enough pairs and by more than the parent's IQR: only the failures stand in the way
    assert doc["summary"]["w1"]["overhead_x"]["change_lower_in_pairs"] == (
        "10/10" if failed > 0 else "9/10")
    assert doc["verdicts"]["w1"]["overhead_x"].startswith("claimed gain not met:")


def test_a_claim_must_name_a_workload_and_metric(tmp_path):
    repo = _repo(tmp_path)
    rev = _commit(repo, 1.0)
    proc = _run(repo, tmp_path / "log", "--parent", rev, "--change", rev, "--pr", "1",
                "--claim", "w1:overhead")
    assert proc.returncode == 2
    assert "--claim names no workload:metric" in proc.stderr
    assert not (tmp_path / "log").exists()  # nothing ran
    assert _git(repo, "worktree", "list").count("\n") == 0


def test_the_same_commit_on_both_sides_reports_each_metrics_spread(tmp_path):
    # an A/A run: one commit against itself shows how far each metric moves by chance
    one_workload = {**BENCHMARK, "workloads": [{"name": "w1", "why": "stub"}]}
    repo = _repo(tmp_path, one_workload)
    rev = _commit(repo, 2.0)
    proc = _run(repo, tmp_path / "log", "--parent", rev, "--change", rev, "--pr", "aa",
                "--seeds", "1-4")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((repo / "BENCH_aa.json").read_text())
    assert doc["commits"] == {"parent": rev, "change": rev}
    summary = doc["summary"]["w1"]
    # overhead_x runs 22, 24, 20, 22: quartiles 21.5 and 22.5 around 22
    assert summary["overhead_x"]["iqr_over_median"] == {"parent": 0.0455, "change": 0.0455}
    assert summary["overhead_x"]["median_ratio_change_over_parent"] == 1.0
    assert summary["setup_s"]["iqr_over_median"] == {"parent": 0.0, "change": 0.0}
    # peak_rss_mb runs 2, 1, 2, 1: quartiles 1 and 2 around 1.5
    assert summary["peak_rss_mb"]["iqr_over_median"] == {"parent": 0.6667, "change": 0.6667}
