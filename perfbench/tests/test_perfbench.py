"""Tests of the benchmark itself: every correctness check passes on real
outputs and fails on a corrupted copy of them, and every workload runs to
its end at its smallest size.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_lab()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _unit(workload_cls, name, tmp_path_factory):
    out = tmp_path_factory.mktemp(name)
    workload = workload_cls(name, 0, out)
    workload.setup()
    tracer = tracing.Tracer(spans=False)
    tracer.install()
    try:
        outcome = workload.unit(out / "unit", tracer.counts)
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert outcome.failed == 0
    return workload, out / "unit", counts, outcome


@pytest.fixture(scope="module")
def train_unit(tmp_path_factory):
    return _unit(workloads.Train, "train-ff", tmp_path_factory)


@pytest.fixture(scope="module")
def evaluate_unit(tmp_path_factory):
    return _unit(workloads.Evaluate, "evaluate", tmp_path_factory)


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_ndjson(path: Path, edit) -> None:
    records = checks.read_ndjson(path)
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


# -- training checks -----------------------------------------------------------


def test_train_unit_passes_every_check(train_unit):
    workload, run_dir, counts, _ = train_unit
    assert workload.check(run_dir, counts) == []


def test_frames_check_fails_on_summary(train_unit, tmp_path):
    workload, run_dir, counts, _ = train_unit
    copy = _copy(run_dir, tmp_path)
    _edit_json(copy / "summary.json", lambda s: s["frames"].update(agent00=s["frames"]["agent00"] + 320))
    assert checks.check_frames(copy, 16, 20)


def test_frames_check_fails_on_learner_log(train_unit, tmp_path):
    workload, run_dir, counts, _ = train_unit
    copy = _copy(run_dir, tmp_path)
    _edit_ndjson(copy / "learner.ndjson", lambda rows: rows.pop())
    assert checks.check_frames(copy, 16, 20)


def test_frames_check_fails_on_checkpoint(train_unit, tmp_path):
    workload, run_dir, counts, _ = train_unit
    copy = _copy(run_dir, tmp_path)
    path = copy / "checkpoints" / "agent01.ckpt"
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[12:16])
    meta = json.loads(raw[16 : 16 + length])
    meta["frames_learned"] += 320
    new_meta = json.dumps(meta).encode()
    path.write_bytes(raw[:12] + struct.pack("<I", len(new_meta)) + new_meta + raw[16 + length :])
    assert checks.check_frames(copy, 16, 20)


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(score=[1, 1]),
        lambda r: r.update(steps=r["steps"] - 1),
        lambda r: r["ratings"].update(agent02=r["ratings"]["agent02"] + 1.0),
    ],
    ids=["two-goals", "early-stop-without-goal", "rating-sum"],
)
def test_match_check_fails(train_unit, tmp_path, edit):
    workload, run_dir, counts, _ = train_unit
    copy = _copy(run_dir, tmp_path)
    _edit_ndjson(copy / "matches.ndjson", lambda rows: edit(rows[-1]))
    assert checks.check_matches(copy, workload.config.env.max_steps, 4)


def test_counted_steps_check_fails_on_match_log(train_unit, tmp_path):
    workload, run_dir, counts, _ = train_unit
    copy = _copy(run_dir, tmp_path)
    _edit_ndjson(copy / "matches.ndjson", lambda rows: rows[0].update(steps=rows[0]["steps"] + 1))
    assert workload.check(copy, counts)


def test_digests_change_with_any_log(train_unit, tmp_path):
    workload, run_dir, counts, outcome = train_unit
    for name in checks.TRAIN_LOGS:
        copy = _copy(run_dir, tmp_path / name)
        with open(copy / name, "a") as fh:
            fh.write("\n")
        assert checks.train_digests(copy)[name] != outcome.digests[name]


# -- evaluation checks -----------------------------------------------------------


def test_evaluate_unit_passes_every_check(evaluate_unit):
    workload, run_dir, counts, _ = evaluate_unit
    assert workload.check(run_dir, counts) == []


def test_pair_count_check_fails(evaluate_unit):
    workload, run_dir, counts, _ = evaluate_unit
    matrix = json.loads((run_dir / "tournament" / "matrix.json").read_text())
    matrix["counts"][0][1] += 1
    assert checks.check_pair_counts(matrix, workloads.TOURNAMENT_MATCHES)


def test_elo_check_fails(evaluate_unit):
    workload, run_dir, counts, _ = evaluate_unit
    ratings = json.loads((run_dir / "game_elo.json").read_text())
    assert checks.check_elo(workload.game, ratings) == []
    ratings[0] += 1.0
    assert checks.check_elo(workload.game, ratings)


def test_nash_checks_fail(evaluate_unit):
    workload, run_dir, counts, _ = evaluate_unit
    payoff = workload.game["goal_difference"]
    weights = json.loads((run_dir / "game_nash.json").read_text())["weights"]
    off_simplex = [w * 1.01 for w in weights]
    assert checks.check_nash(payoff, off_simplex)
    pure = [1.0] + [0.0] * (len(weights) - 1)
    assert checks.check_nash(payoff, pure)
    assert checks.check_nash_against_lp(payoff, pure)


def test_nash_lp_check_uses_entropy_when_not_unique():
    zero = [[0.0, 0.0], [0.0, 0.0]]
    assert checks.check_nash_against_lp(zero, [0.5, 0.5]) == []
    assert checks.check_nash_against_lp(zero, [0.9, 0.1])


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e["stats"].update(passes=e["stats"]["passes"] + 1),
        lambda e: e["stats"].update(interceptions=e["stats"]["interceptions"] + 1),
        lambda e: e["divergence"].update(ball_position=-1e-3),
        lambda e: e["divergence"].update(ball_position=float("nan")),
    ],
    ids=["passes", "interceptions", "negative-divergence", "nan-divergence"],
)
def test_analysis_check_fails_on_report(evaluate_unit, edit):
    workload, run_dir, counts, _ = evaluate_unit
    report = json.loads((run_dir / "analysis.json").read_text())
    edit(report["traces"][0])
    assert checks.check_analysis(report)


def test_analysis_check_fails_on_trace_score(evaluate_unit, tmp_path):
    workload, run_dir, counts, _ = evaluate_unit
    report = json.loads((run_dir / "analysis.json").read_text())
    trace = tmp_path / "trace.ndjson"
    shutil.copy(report["traces"][0]["trace"], trace)
    _edit_ndjson(trace, lambda rows: rows[-1].update(score=[rows[-1]["score"][0] + 1, rows[-1]["score"][1]]))
    report["traces"][0]["trace"] = str(trace)
    assert checks.check_analysis(report)


def test_touch_recount_follows_the_touch_rule():
    def step(*touches):
        return {"type": "step", "events": [{"kind": "touch", "player": p, "team": p // 2} for p in touches]}

    records = [step(0), step(0), step(1), step(), step(2), step(3, 1)]
    # 0->0 nothing, 0->1 pass, 1->2 interception, 2->3 pass, 3->1 interception
    assert checks.recount_touches(records) == (2, 2)


def test_two_worker_identity_check_fails_on_other_matrix(evaluate_unit):
    workload, run_dir, counts, outcome = evaluate_unit
    assert workload.after(run_dir, outcome.digests) == (1, 0, [])
    wrong = dict(outcome.digests, **{"tournament/matrix.json": "0" * 64})
    assert workload.after(run_dir, wrong)[2]


# -- the command -------------------------------------------------------------------


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_command_runs_each_workload_at_its_smallest_size(workload, trace):
    done = _bench(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_without_the_lab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "train-ff", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
