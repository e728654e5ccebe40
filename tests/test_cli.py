"""Command-line contract tests: exit codes, artifact layout, byte-stable
re-emission, resume semantics, and config validation."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soccerlab
import soccerlab.pbt as pbt
from soccerlab.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from soccerlab.evaluation import PayoffMatrix
from soccerlab.runconfig import (
    VARIANTS,
    RunConfig,
    desk_run_config,
    load_run_config,
    parse_override,
)

TINY_CONFIG = {
    "seed": 7,
    "variant": "ff+evo",
    "frame_budget": 0,
    "steps_per_match": 2,
    "env": {
        "pitch_length": 14.0,
        "pitch_width": 10.5,
        "scale_min": 1.0,
        "scale_max": 1.0,
        "episode_seconds": 3.0,
    },
    "pbt": {
        "population_size": 4,
        "frames_before_first_eligible": 4000,
        "frames_between_eligible": 800,
        "frames_burn_in": 800,
    },
    "learner": {"snippet_length": 10, "batch_size": 4, "replay_capacity": 2000},
}


class _Runaway(BaseException):
    """Escapes the CLI's error handling, so a training loop that never gives
    up fails the test instead of hanging it."""


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SOCCERLAB_OUT", str(tmp_path))
    return tmp_path


def write_config(root: Path, **extra) -> Path:
    obj = dict(TINY_CONFIG)
    obj.update(extra)
    path = root / "config_in.json"
    path.write_text(json.dumps(obj))
    return path


def run(*argv) -> int:
    return main(list(argv))


def train_tiny(root: Path, name: str, budget: int = 0, extra_sets=()) -> Path:
    cfg = write_config(root)
    argv = ["train", "--config", str(cfg), "--set", f"frame_budget={budget}", "--out", name]
    for s in extra_sets:
        argv += ["--set", s]
    assert run(*argv) == EXIT_OK
    return root / name


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is most of the start-up time of every command, and only the
    # rating and Nash fits use it.
    code = "import sys, soccerlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(soccerlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# -- run config ------------------------------------------------------------------


class TestRunConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            load_run_config({"bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="pbt.not_a_knob"):
            load_run_config({"pbt": {"not_a_knob": 3}})

    def test_reserved_keys_owned_by_variant(self):
        # these toggles are derived from the variant, not settable directly
        for blob in ({"pbt": {"evolve": False}}, {"learner": {"channels": False}}, {"arch": {"recurrent": True}}):
            with pytest.raises(ValueError):
                load_run_config(blob)

    def test_override_parsing(self):
        path, value = parse_override("pbt.elo_k=0.25")
        assert path == ["pbt", "elo_k"] and value == 0.25
        path, value = parse_override("variant=lstm")
        assert value == "lstm"

    def test_override_applies_over_file(self):
        cfg = load_run_config({"seed": 3}, ["seed=9", "pbt.elo_k=0.5"])
        assert cfg.seed == 9 and cfg.pbt.elo_k == 0.5

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="learner.turbo"):
            load_run_config(None, ["learner.turbo=1"])

    def test_variant_ladder_resolution(self):
        expectations = {
            # variant: (evolve, shaping kept, critic recurrent, policy recurrent, channels)
            "ff": (False, False, False, False, False),
            "ff+evo": (True, False, False, False, False),
            "+rwd_shp": (True, True, False, False, False),
            "lstm_q": (True, True, True, False, False),
            "lstm": (True, True, True, True, False),
            "+channels": (True, True, True, True, True),
        }
        assert set(expectations) == set(VARIANTS)
        for variant, (evolve, shaped, critic_rec, policy_rec, channels) in expectations.items():
            cfg = RunConfig(variant=variant)
            assert cfg.resolved_pbt().evolve is evolve
            hp = cfg.resolved_hyperparams()
            if shaped:
                assert hp.reward_weight_vel_to_ball > 0
            else:
                assert hp.reward_weight_vel_to_ball == 0.0
                assert hp.reward_weight_vel_ball_to_goal == 0.0
            assert cfg.critic_arch().recurrent is critic_rec
            assert cfg.policy_arch().recurrent is policy_rec
            assert cfg.resolved_learner().channels is channels

    def test_desk_preset_dimensions(self):
        cfg = desk_run_config(seed=1)
        assert cfg.env.pitch_length == 14.0 and cfg.env.pitch_width == 10.5
        assert cfg.env.scale_min == cfg.env.scale_max == 1.0


# -- exit codes -------------------------------------------------------------------


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert run("train") == EXIT_USAGE

    def test_missing_matrix_file_is_data_error(self, capsys):
        assert run("nash", "--matrix", "/nonexistent/matrix.json") == EXIT_DATA

    def test_malformed_matrix_names_file(self, out_root, capsys):
        bad = out_root / "bad.json"
        bad.write_text('{"agent_ids": ["a"]}')
        assert run("nash", "--matrix", str(bad)) == EXIT_DATA
        assert "bad.json" in capsys.readouterr().err

    def test_invalid_config_key_is_data_error(self, out_root, capsys):
        cfg = out_root / "c.json"
        cfg.write_text('{"mystery": 1}')
        assert run("train", "--config", str(cfg), "--out", "r") == EXIT_DATA
        assert "mystery" in capsys.readouterr().err

    def test_config_that_is_not_an_object_is_data_error(self, out_root, capsys):
        cfg = out_root / "c.json"
        cfg.write_text("[1]")
        assert run("train", "--config", str(cfg), "--out", "r") == EXIT_DATA
        assert "JSON object" in capsys.readouterr().err

    def test_negative_seed_in_config_is_data_error(self, out_root, capsys):
        cfg = write_config(out_root, seed=-1)
        assert run("train", "--config", str(cfg), "--out", "r") == EXIT_DATA
        assert "seed" in capsys.readouterr().err

    def test_infinite_integer_in_config_is_data_error(self, out_root, capsys):
        assert run("train", "--set", "seed=1e400", "--out", "r") == EXIT_DATA
        assert "invalid run config" in capsys.readouterr().err

    def test_non_finite_matrix_is_data_error(self, out_root, capsys):
        matrix = {
            "agent_ids": ["a", "b"],
            "goal_difference": [[0.0, float("nan")], [float("nan"), 0.0]],
            "win_or_draw": [[0.0, 1.0], [0.0, 0.0]],
            "wins": [[0, 1], [0, 0]],
            "draws": [[0, 0], [0, 0]],
            "counts": [[0, 1], [1, 0]],
        }
        path = out_root / "nan.json"
        path.write_text(json.dumps(matrix))
        assert run("nash", "--matrix", str(path)) == EXIT_DATA
        assert "finite" in capsys.readouterr().err


# Flags outside their range, each named in the usage error. Every one of them
# used to run (and exit 0) or crash (exit 3).
OUT_OF_RANGE = [
    ("tournament", "--matches", "0"),
    ("tournament", "--max-steps", "0"),
    ("tournament", "--workers", "0"),
    ("tournament", "--seed", "-1"),
    ("probe", "--episodes", "-2"),
    ("probe", "--horizon", "-3"),
    ("probe", "--seed", "-1"),
    ("export-traces", "--matches", "-1"),
    ("export-traces", "--seed", "-1"),
    ("analyze", "--seed", "-1"),
    ("analyze", "--player", "7"),
]


@pytest.mark.parametrize("command,flag,value", OUT_OF_RANGE)
def test_out_of_range_flag_is_usage_error(command, flag, value, trained_run, out_root, capsys):
    ckpts = sorted(str(p) for p in (trained_run / "checkpoints").iterdir())
    base = {
        "tournament": ["tournament", *ckpts[:2], "--matches", "1", "--max-steps", "5", "--out", "t"],
        "probe": ["probe", "--checkpoint", ckpts[0], "--side", "left", "--episodes", "1", "--horizon", "5"],
        "export-traces": ["export-traces", "--checkpoint", ckpts[0], "--max-steps", "5", "--out", "x"],
    }
    if command == "analyze":
        assert run("export-traces", "--checkpoint", ckpts[0], "--max-steps", "5", "--out", "x") == EXIT_OK
        base["analyze"] = ["analyze", str(out_root / "x" / "trace_000.ndjson"), "--policy", ckpts[0]]
    assert run(*base[command], flag, value) == EXIT_USAGE
    assert flag in capsys.readouterr().err


# -- train ------------------------------------------------------------------------


class TestTrain:
    def test_zero_budget_emits_config_and_checkpoints(self, out_root, capsys):
        run_dir = train_tiny(out_root, "run0")
        assert (run_dir / "config.json").exists()
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "summary.json").exists()
        ckpts = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
        assert ckpts == ["agent00.ckpt", "agent01.ckpt", "agent02.ckpt", "agent03.ckpt"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["variant"] == "ff+evo"
        assert "version" in manifest

    def test_config_echo_is_canonical(self, out_root):
        run_dir = train_tiny(out_root, "run0")
        raw = (run_dir / "config.json").read_bytes()
        cfg = load_run_config(json.loads(raw))
        re_emit = (json.dumps(cfg.to_json(), sort_keys=True, indent=2) + "\n").encode()
        assert raw == re_emit

    def test_existing_directory_refused_without_resume(self, out_root, capsys):
        train_tiny(out_root, "run0")
        cfg = write_config(out_root)
        assert run("train", "--config", str(cfg), "--out", "run0") == EXIT_DATA
        assert "--resume" in capsys.readouterr().err

    def test_equal_seeds_give_identical_logs(self, out_root, capsys):
        a = train_tiny(out_root, "runA", budget=400)
        b = train_tiny(out_root, "runB", budget=400)
        for name in ("matches.ndjson", "learner.ndjson", "evolution.ndjson", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for ckpt in sorted((a / "checkpoints").iterdir()):
            assert ckpt.read_bytes() == (b / "checkpoints" / ckpt.name).read_bytes()

    def test_different_seeds_diverge(self, out_root, capsys):
        a = train_tiny(out_root, "runA", budget=400)
        b = train_tiny(out_root, "runB", budget=400, extra_sets=("seed=8",))
        assert (a / "matches.ndjson").read_bytes() != (b / "matches.ndjson").read_bytes()

    def test_resume_continues_frames_monotonically(self, out_root, capsys):
        run_dir = train_tiny(out_root, "run1", budget=400)
        before = json.loads((run_dir / "summary.json").read_text())["frames"]
        assert all(v == 400 for v in before.values())
        lines_before = (run_dir / "matches.ndjson").read_text().count("\n")
        assert run("train", "--out", "run1", "--resume", "--set", "frame_budget=800") == EXIT_OK
        after = json.loads((run_dir / "summary.json").read_text())["frames"]
        assert all(v == 800 for v in after.values())
        # metric logs append across resume rather than restarting
        assert (run_dir / "matches.ndjson").read_text().count("\n") > lines_before
        stored = json.loads((run_dir / "config.json").read_text())
        assert stored["frame_budget"] == 800

    def test_resume_continues_match_numbers_and_seed_stream(self, out_root, capsys):
        def matches(run_dir):
            lines = (run_dir / "matches.ndjson").read_text().splitlines()
            return [json.loads(line) for line in lines]

        straight = train_tiny(out_root, "straight", budget=10**6, extra_sets=("max_matches=4",))
        resumed = train_tiny(out_root, "resumed", budget=10**6, extra_sets=("max_matches=2",))
        assert run("train", "--out", "resumed", "--resume", "--set", "max_matches=4") == EXIT_OK
        records = matches(resumed)
        numbers = [r["match"] for r in records]
        seeds = [r["seed"] for r in records]
        assert numbers == [1, 2, 3, 4]
        assert len(set(seeds)) == len(seeds)
        # No agent is eligible for evolution yet, so the scheduler draws
        # nothing else: the resumed run plays the straight run's matches.
        assert [(r["seed"], r["blue"], r["red"]) for r in records] == [
            (r["seed"], r["blue"], r["red"]) for r in matches(straight)
        ]
        summary = json.loads((resumed / "summary.json").read_text())
        assert summary["matches"] == 4 and summary["discarded"] == 0

    def test_resume_without_trainer_state_is_data_error(self, out_root, capsys):
        run_dir = train_tiny(out_root, "run0")
        (run_dir / pbt.TRAINER_STATE).unlink()
        assert run("train", "--out", "run0", "--resume") == EXIT_DATA
        assert "trainer state" in capsys.readouterr().err

    def test_training_whose_matches_all_fail_is_internal_error(self, out_root, capsys, monkeypatch):
        limit = pbt.MAX_FAILED_MATCHES
        calls = {"n": 0}

        def broken(env_config, actors, seed, **kwargs):
            calls["n"] += 1
            if calls["n"] > limit + 1:
                raise _Runaway
            raise RuntimeError("worker died")

        monkeypatch.setattr(pbt, "play_match", broken)
        cfg = write_config(out_root)
        assert run("train", "--config", str(cfg), "--set", "frame_budget=400", "--out", "r") == EXIT_INTERNAL
        assert "worker died" in capsys.readouterr().err

    def test_resume_missing_directory_is_data_error(self, out_root, capsys):
        assert run("train", "--out", "ghost", "--resume") == EXIT_DATA

    def test_out_directory_from_config_file(self, out_root, capsys):
        cfg = write_config(out_root, out="from_config")
        assert run("train", "--config", str(cfg)) == EXIT_OK
        assert (out_root / "from_config" / "config.json").exists()

    def test_no_out_anywhere_is_usage_error(self, out_root, capsys):
        cfg = write_config(out_root)
        assert run("train", "--config", str(cfg)) == EXIT_USAGE


# -- tournament / nash ---------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliruns")
    cfg = write_config(root)
    rc = main(
        ["train", "--config", str(cfg), "--set", "frame_budget=400", "--out", str(root / "run")]
    )
    assert rc == EXIT_OK
    return root / "run"


class TestTournament:
    def test_report_artifacts(self, trained_run, out_root, capsys):
        ckpts = sorted(str(p) for p in (trained_run / "checkpoints").iterdir())
        rc = run("tournament", *ckpts, "--matches", "1", "--max-steps", "40", "--out", "report")
        assert rc == EXIT_OK
        matrix = PayoffMatrix.from_json(json.loads((out_root / "report" / "matrix.json").read_text()))
        assert matrix.agent_ids == ("agent00", "agent01", "agent02", "agent03")
        elo = json.loads((out_root / "report" / "elo.json").read_text())
        assert set(elo["ratings"]) == set(matrix.agent_ids)
        assert elo["skipped"] == []

    def test_matrix_file_byte_stable(self, trained_run, out_root, capsys):
        ckpts = sorted(str(p) for p in (trained_run / "checkpoints").iterdir())
        assert run("tournament", *ckpts, "--matches", "1", "--max-steps", "40", "--out", "report") == EXIT_OK
        raw = (out_root / "report" / "matrix.json").read_bytes()
        matrix = PayoffMatrix.from_json(json.loads(raw))
        assert (json.dumps(matrix.to_json(), sort_keys=True, indent=2) + "\n").encode() == raw

    def test_deterministic_flag_matches_workers(self, trained_run, out_root, capsys):
        ckpts = sorted(str(p) for p in (trained_run / "checkpoints").iterdir())[:2]
        assert run("tournament", *ckpts, "--matches", "2", "--max-steps", "40", "--out", "rd", "--deterministic") == EXIT_OK
        assert run("tournament", *ckpts, "--matches", "2", "--max-steps", "40", "--out", "rw", "--workers", "2") == EXIT_OK
        assert (out_root / "rd" / "matrix.json").read_bytes() == (out_root / "rw" / "matrix.json").read_bytes()

    def test_unreadable_checkpoint_reported_and_skipped(self, trained_run, out_root, capsys):
        ckpts = sorted(str(p) for p in (trained_run / "checkpoints").iterdir())
        broken = out_root / "broken.ckpt"
        broken.write_bytes(b"not a checkpoint")
        rc = run("tournament", str(broken), *ckpts, "--matches", "1", "--max-steps", "40", "--out", "rskip")
        assert rc == EXIT_OK
        assert "broken.ckpt" in capsys.readouterr().err
        elo = json.loads((out_root / "rskip" / "elo.json").read_text())
        assert len(elo["skipped"]) == 1 and "broken.ckpt" in elo["skipped"][0]["checkpoint"]
        matrix = PayoffMatrix.from_json(json.loads((out_root / "rskip" / "matrix.json").read_text()))
        assert len(matrix.agent_ids) == 4  # broken entry absent

    def test_fewer_than_two_loadable_is_data_error(self, trained_run, out_root, capsys):
        broken = out_root / "broken.ckpt"
        broken.write_bytes(b"junk")
        only = sorted(str(p) for p in (trained_run / "checkpoints").iterdir())[0]
        assert run("tournament", str(broken), only, "--matches", "1", "--out", "rfail") == EXIT_DATA

    def test_nash_ingests_tournament_output(self, trained_run, out_root, capsys):
        ckpts = sorted(str(p) for p in (trained_run / "checkpoints").iterdir())
        assert run("tournament", *ckpts, "--matches", "1", "--max-steps", "40", "--out", "rn") == EXIT_OK
        rc = run("nash", "--matrix", str(out_root / "rn" / "matrix.json"), "--out", "nash.json")
        assert rc == EXIT_OK
        report = json.loads((out_root / "nash.json").read_text())
        weights = np.array(report["weights"])
        assert weights.shape == (4,) and abs(weights.sum() - 1.0) < 1e-9
        assert report["exploitability"] <= 1e-6
        assert report["support_ids"] == [report["agent_ids"][i] for i in report["support"]]

    def test_nash_rock_paper_scissors_to_stdout(self, out_root, capsys):
        gd = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]
        wins = [[0, 0, 4], [4, 0, 0], [0, 4, 0]]  # rock > scissors > paper > rock
        counts = [[0, 4, 4], [4, 0, 4], [4, 4, 0]]
        matrix = PayoffMatrix(
            agent_ids=("rock", "paper", "scissors"),
            goal_difference=np.array(gd),
            win_or_draw=np.array(wins) / 4.0,
            wins=np.array(wins),
            draws=np.zeros((3, 3), dtype=int),
            counts=np.array(counts),
        )
        path = out_root / "rps.json"
        path.write_text(json.dumps(matrix.to_json(), sort_keys=True))
        assert run("nash", "--matrix", str(path)) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(report["weights"], [1 / 3] * 3, atol=1e-6)


# -- probe / traces / analyze ----------------------------------------------------------


class TestAnalysisCommands:
    def test_probe_reports_counts(self, trained_run, out_root, capsys):
        ckpt = str(sorted((trained_run / "checkpoints").iterdir())[0])
        rc = run("probe", "--checkpoint", ckpt, "--side", "left", "--episodes", "2", "--horizon", "20")
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["episodes"] == 2 and report["side"] == "left"
        assert report["passes"] >= 0 and report["interceptions"] >= 0

    def test_probe_rejects_bad_side(self, trained_run, capsys):
        ckpt = str(sorted((trained_run / "checkpoints").iterdir())[0])
        assert run("probe", "--checkpoint", ckpt, "--side", "middle") == EXIT_USAGE

    def test_probe_missing_checkpoint_is_data_error(self, capsys):
        assert run("probe", "--checkpoint", "/nope.ckpt", "--side", "left") == EXIT_DATA

    def test_export_then_analyze_round_trip(self, trained_run, out_root, capsys):
        ckpt = str(sorted((trained_run / "checkpoints").iterdir())[0])
        rc = run("export-traces", "--checkpoint", ckpt, "--matches", "2", "--max-steps", "30", "--out", "traces")
        assert rc == EXIT_OK
        traces = sorted(str(p) for p in (out_root / "traces").iterdir())
        assert len(traces) == 2
        rc = run("analyze", *traces, "--out", "report.json")
        assert rc == EXIT_OK
        report = json.loads((out_root / "report.json").read_text())
        assert report["aggregate"]["steps"] == 60
        assert report["aggregate"]["empty"] is False
        assert len(report["traces"]) == 2

    def test_analyze_with_policy_adds_divergence(self, trained_run, out_root, capsys):
        ckpt = str(sorted((trained_run / "checkpoints").iterdir())[0])
        assert run("export-traces", "--checkpoint", ckpt, "--matches", "1", "--max-steps", "20", "--out", "t2") == EXIT_OK
        trace = str(next((out_root / "t2").iterdir()))
        assert run("analyze", trace, "--policy", ckpt, "--player", "2", "--out", "d.json") == EXIT_OK
        report = json.loads((out_root / "d.json").read_text())
        div = report["traces"][0]["divergence"]
        assert set(div) == {"ball_position", "teammate_position", "opponent0_position", "opponent1_position"}
        assert all(v >= 0.0 for v in div.values())

    def test_analyze_zero_traces_zeroed_and_flagged(self, out_root, capsys):
        assert run("analyze", "--out", "empty.json") == EXIT_OK
        report = json.loads((out_root / "empty.json").read_text())
        assert report["aggregate"]["empty"] is True
        assert report["aggregate"]["steps"] == 0
        assert report["traces"] == []

    def test_analyze_malformed_trace_names_file(self, out_root, capsys):
        bad = out_root / "mangled.ndjson"
        bad.write_text('{"kind": "wat"}\n')
        assert run("analyze", str(bad)) == EXIT_DATA
        assert "mangled.ndjson" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("players", [0.0] * 6), ("players", [[0.0] * 5] * 4), ("ball", [0.0] * 4), ("ball", "fast")],
    )
    def test_analyze_trace_with_misshapen_state_is_data_error(self, field, value, out_root, capsys):
        header = {"type": "header", "schema": "soccerlab.trace@1", "pitch": [24.0, 18.0],
                  "teams": [0, 0, 1, 1], "seed": 0, "note": ""}
        state = {"players": [[0.0] * 6] * 4, "ball": [0.0] * 5}
        step = {"type": "step", "t": 0, **state, "actions": [[0.0] * 3] * 4, "rewards": [[0.0] * 4] * 4,
                "events": []}
        step[field] = value
        final = {"type": "final", "t": 1, **state, "score": [0, 0]}
        bad = out_root / "doctored.ndjson"
        bad.write_text("".join(json.dumps(r) + "\n" for r in (header, step, final)))
        assert run("analyze", str(bad)) == EXIT_DATA
        err = capsys.readouterr().err
        assert "doctored.ndjson" in err and repr(field) in err

    def test_analyze_report_deterministic(self, trained_run, out_root, capsys):
        ckpt = str(sorted((trained_run / "checkpoints").iterdir())[0])
        assert run("export-traces", "--checkpoint", ckpt, "--matches", "1", "--max-steps", "20", "--out", "t3") == EXIT_OK
        trace = str(next((out_root / "t3").iterdir()))
        assert run("analyze", trace, "--policy", ckpt, "--out", "r1.json") == EXIT_OK
        assert run("analyze", trace, "--policy", ckpt, "--out", "r2.json") == EXIT_OK
        assert (out_root / "r1.json").read_bytes() == (out_root / "r2.json").read_bytes()

    def test_exported_traces_deterministic(self, trained_run, out_root, capsys):
        ckpt = str(sorted((trained_run / "checkpoints").iterdir())[0])
        assert run("export-traces", "--checkpoint", ckpt, "--matches", "1", "--max-steps", "25", "--out", "ta") == EXIT_OK
        assert run("export-traces", "--checkpoint", ckpt, "--matches", "1", "--max-steps", "25", "--out", "tb") == EXIT_OK
        a = (out_root / "ta" / "trace_000.ndjson").read_bytes()
        b = (out_root / "tb" / "trace_000.ndjson").read_bytes()
        assert a == b
