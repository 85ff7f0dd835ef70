"""Configuration validation, run determinism, replay round trips, analyze."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import sdbc
from sdbc import characterisation, cli, evolution
from sdbc.cli import execute_run, execute_runs, main, replay_genome
from sdbc.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    default_config_text,
    load_config,
)
from sdbc.evolution import ControllerSpec
from sdbc.runio import (
    RunWriter,
    is_complete,
    load_genome_file,
    read_generations,
    read_meta,
)
from sdbc.tasks import base, make_task
from sdbc.tasks.predator_prey import pursuit_fitness
from test_acceptance import SHARING_CONFIG, desk_jobs

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "task": "resource_sharing",
    "method": "ns-sd+",
    "seed": 9,
    "dump_population": True,
    "ga": {"population": 8, "generations": 3, "trials": 2, "hidden_units": 4},
    "task_params": {"max_steps": 60, "n_robots": 3, "start_energy": 15.0},
}


def write_config(tmp_path, overrides=None, **top):
    data = yaml.safe_load(yaml.safe_dump(TINY))
    data.update(top)
    if overrides:
        for key, value in overrides.items():
            section, _, field = key.partition(".")
            if field:
                data.setdefault(section, {})[field] = value
            else:
                data[section] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestConfig:
    def test_defaults_text_round_trips(self, tmp_path):
        path = tmp_path / "defaults.yaml"
        path.write_text(default_config_text())
        cfg = load_config(path)
        assert cfg.task == "resource_sharing"
        assert cfg.method == "ns-sd+"
        assert cfg.ga.population == 100
        assert cfg.sdbc.delta == 0.25

    def test_empty_config_is_the_default(self):
        assert config_from_dict({}) == ExperimentConfig()

    def test_unknown_method_names_field(self):
        with pytest.raises(ConfigError, match="method"):
            config_from_dict({"method": "simulated-annealing"})

    def test_unknown_task_names_field(self):
        with pytest.raises(ConfigError, match="task"):
            config_from_dict({"task": "soccer"})

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="generations"):
            config_from_dict({"generations": 5})

    def test_unknown_nested_field_has_dotted_path(self):
        with pytest.raises(ConfigError, match="ga.populatoin"):
            config_from_dict({"ga": {"populatoin": 10}})

    def test_unknown_task_param_rejected(self):
        with pytest.raises(ConfigError, match="task_params"):
            config_from_dict({"task_params": {"n_bots": 4}})

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="elites"):
            config_from_dict({"ga": {"population": 4, "elites": 9}})
        with pytest.raises(ConfigError, match="archive_rate"):
            config_from_dict({"novelty": {"archive_rate": 1.5}})

    @pytest.mark.parametrize(
        "task,params,reason",
        [
            ("resource_sharing", {"max_steps": 0}, "max_steps"),
            ("gate_escape", {"max_steps": -5}, "max_steps"),
            ("resource_sharing", {"n_robots": 0}, "'agents'"),
            ("gate_escape", {"n_robots": 0}, "'agents'"),
            ("predator_prey", {"n_predators": 0}, "'predators'"),
            ("resource_sharing", {"start_energy": 150.0}, r"start_energy must be in \[0, e_max\]"),
            ("resource_sharing", {"axle": 0}, "axle must be > 0"),
            ("gate_escape", {"dt": 0}, "dt must be > 0"),
            ("resource_sharing", {"e_max": 0}, "e_max must be > 0"),
            ("predator_prey", {"zone_radius": 0}, "zone_radius must be > 0"),
        ],
    )
    def test_task_params_without_steps_or_robots_rejected(self, task, params, reason):
        # zero steps made fitness 0/0 and broke the record; zero robots
        # leave a group below its declared size bounds; a tank fuller than
        # e_max fails the fitness range check at the first evaluation; a
        # zero axle gave NaN positions, a zero tank NaN fitness and a zero
        # chase zone a failure mid-run
        with pytest.raises(ConfigError, match=f"task_params: .*{reason}"):
            config_from_dict({"task": task, "task_params": params})

    def test_type_validation(self):
        with pytest.raises(ConfigError, match="ga.population"):
            config_from_dict({"ga": {"population": "many"}})
        # task_params follow the field types of the task's params dataclass
        for task, params, message in [
            ("resource_sharing", 5, "task_params: expected a mapping"),
            ("resource_sharing", [1, 2], "task_params: expected a mapping"),
            ("resource_sharing", {"max_steps": 2.5}, "task_params.max_steps: expected int"),
            ("resource_sharing", {"n_robots": True}, "task_params.n_robots: expected int"),
            ("resource_sharing", {"v_max": "fast"}, "task_params.v_max: expected float"),
            ("gate_escape", {"published_layout": 3}, "published_layout: expected bool"),
        ]:
            with pytest.raises(ConfigError, match=message):
                config_from_dict({"task": task, "task_params": params})
        # an int is a valid float, as in the other sections
        cfg = config_from_dict({"task_params": {"start_energy": 15}})
        assert cfg.task_params == {"start_energy": 15.0}
        assert type(cfg.task_params["start_energy"]) is float


class TestRun:
    def test_same_seed_byte_identical_logs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        for sub in ("a", "b"):
            assert main([
                "run", "--config", str(cfg_path), "--out", str(tmp_path / sub)
            ]) == 0
        log_a = (tmp_path / "a/run_000/generations.csv").read_bytes()
        log_b = (tmp_path / "b/run_000/generations.csv").read_bytes()
        assert log_a == log_b
        pop_a = sorted((tmp_path / "a/run_000/population").glob("*.csv"))
        pop_b = sorted((tmp_path / "b/run_000/population").glob("*.csv"))
        assert [p.read_bytes() for p in pop_a] == [p.read_bytes() for p in pop_b]

    def test_batch_runs_use_incremented_seeds(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", "--config", str(cfg_path), "--runs", "2", "--out", str(tmp_path / "o")])
        meta0 = read_meta(tmp_path / "o/run_000")
        meta1 = read_meta(tmp_path / "o/run_001")
        assert meta1["seed"] == meta0["seed"] + 1
        a = (tmp_path / "o/run_000/generations.csv").read_bytes()
        b = (tmp_path / "o/run_001/generations.csv").read_bytes()
        assert a != b

    def test_invalid_config_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("method: warp\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "method" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "No such file"),
            (b"task: [unclosed\n", "while parsing a flow sequence"),
            (b"task: \xff\xfe\x00gate\n", "unacceptable character"),
        ],
        ids=["missing", "bad-yaml", "not-utf8"],
    )
    def test_unreadable_config_fails_with_diagnostic(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.yaml"
        if text is not None:
            path.write_bytes(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "params,message",
        [
            (5, "task_params: expected a mapping"),
            ({"max_steps": 2.5}, "task_params.max_steps: expected int, got 2.5"),
        ],
        ids=["number", "float-steps"],
    )
    def test_mistyped_task_params_fail_with_diagnostic(self, tmp_path, capsys, params, message):
        cfg_path = write_config(tmp_path, task_params=params)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid configuration: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "task,params,message",
        [
            ("resource_sharing", {"axle": 0}, "axle must be > 0, got 0.0"),
            ("gate_escape", {"dt": 0}, "dt must be > 0, got 0.0"),
            ("resource_sharing", {"e_max": 0}, "e_max must be > 0, got 0.0"),
            ("predator_prey", {"zone_radius": 0}, "zone_radius must be > 0, got 0.0"),
        ],
        ids=["axle", "dt", "e_max", "zone_radius"],
    )
    def test_non_physical_task_params_fail_before_any_run(
        self, tmp_path, capsys, task, params, message
    ):
        cfg_path = write_config(tmp_path, task=task, task_params=params)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid configuration: task_params: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "where,env,flag",
        [("config", None, None), ("flag", None, "-1"), ("env", "-4", None)],
    )
    def test_negative_seed_fails_before_any_run(
        self, tmp_path, monkeypatch, capsys, where, env, flag
    ):
        # numpy rejects a negative seed only once a run has started
        cfg_path = write_config(tmp_path, seed=-3 if where == "config" else 9)
        if env is not None:
            monkeypatch.setenv("SDBC_SEED", env)
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv + (["--seed", flag] if flag else [])) == 2
        assert capsys.readouterr().err == "error: invalid configuration: seed: must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("archive_rate", [0.0, 0.5])
    @pytest.mark.parametrize("method", ["fit", "ns-ts", "ns-sd+"])
    def test_resume_continues_to_identical_logs(self, tmp_path, method, archive_rate):
        # both sides share `out`, so every run file but timing.csv must
        # match: checkpoint arrays, archive, best genome and the dumps.
        # The methods and rates cover empty archives, ns-ts's 4-wide rows
        # and the 2F+1-wide SDBC rows through a checkpoint.
        cfg_path = write_config(
            tmp_path, {"novelty.archive_rate": archive_rate}, method=method, dump_population=True
        )
        full = load_config(cfg_path)
        full.ga.generations = 5
        execute_run(full, tmp_path / "full/run_000")

        half = load_config(cfg_path)
        half.ga.generations = 2
        execute_run(half, tmp_path / "resumed/run_000")
        (tmp_path / "resumed/run_000/done.json").unlink()
        resumed = load_config(cfg_path)
        resumed.ga.generations = 5
        execute_run(resumed, tmp_path / "resumed/run_000", resume=True)

        a = (tmp_path / "full/run_000/generations.csv").read_bytes()
        b = (tmp_path / "resumed/run_000/generations.csv").read_bytes()
        assert a == b
        digests = file_digests(tmp_path / "full/run_000")
        assert any(name.startswith("population/") for name in digests)
        assert digests == file_digests(tmp_path / "resumed/run_000")

    @pytest.mark.parametrize(
        "overrides,flags,field",
        [({}, ["--seed", "10"], "seed"), ({"ga.trials": 3}, [], "ga.trials")],
        ids=["seed", "trials"],
    )
    def test_resume_refuses_a_changed_config(
        self, tmp_path, capsys, monkeypatch, overrides, flags, field
    ):
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, {"ga.generations": 2})
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        run = out / "run_000"
        (run / "done.json").unlink()
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        capsys.readouterr()

        cfg_path = write_config(tmp_path, {"ga.generations": 3, **overrides})
        assert main([
            "run", "--config", str(cfg_path), "--out", str(out), "--resume", *flags
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run}: cannot resume with another {field}: ")
        assert err.count("\n") == 1
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

        # the same directory under another `out`, and more generations,
        # extend the run
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, {"ga.generations": 3})
        assert main(["run", "--config", str(cfg_path), "--out", "o", "--resume"]) == 0
        assert [row["generation"] for row in read_generations(run)] == [0, 1, 2]

    def test_resume_extends_a_complete_run(self, tmp_path):
        # done.json records fewer generations than the config asks for, so
        # the run goes on from its last checkpoint as if it never stopped
        two = write_config(tmp_path, {"ga.generations": 2})
        assert main(["run", "--config", str(two), "--out", str(tmp_path / "extended")]) == 0
        four = write_config(tmp_path, {"ga.generations": 4})
        assert main(["run", "--config", str(four), "--out", str(tmp_path / "straight")]) == 0
        assert main([
            "run", "--config", str(four), "--out", str(tmp_path / "extended"), "--resume"
        ]) == 0
        run = tmp_path / "extended/run_000"
        assert [row["generation"] for row in read_generations(run)] == [0, 1, 2, 3]
        straight, extended = file_digests(tmp_path / "straight/run_000"), file_digests(run)
        assert any(name.startswith("checkpoint.npz:") for name in extended)
        del straight["config.yaml"], extended["config.yaml"]  # they name their own `out`
        assert extended == straight

    @pytest.mark.parametrize("generations", [2, 1])
    def test_resume_leaves_a_complete_run_as_it_is(self, tmp_path, generations):
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, {"ga.generations": 2})
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        run = out / "run_000"
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        cfg_path = write_config(tmp_path, {"ga.generations": generations})
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--resume"]) == 0
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_crash_during_checkpoint_write_keeps_the_previous_one(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, {"ga.generations": 5}, checkpoint_every=2)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "full")]) == 0

        real_savez = np.savez
        calls = []

        def savez_dying_midway(fh, **arrays):
            calls.append(arrays["generation"])
            if len(calls) == 1:
                return real_savez(fh, **arrays)
            fh.write(b"PK\x03\x04 half a checkpoint")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_dying_midway)
        run = tmp_path / "crashed/run_000"
        with pytest.raises(OSError, match="disk full"):
            execute_run(load_config(cfg_path), run)
        monkeypatch.undo()
        assert calls == [2, 4]
        assert int(np.load(run / "checkpoint.npz")["generation"]) == 2
        assert not list(run.glob("*.tmp"))
        assert main([
            "run", "--config", str(cfg_path), "--out", str(tmp_path / "crashed"), "--resume"
        ]) == 0
        a = (tmp_path / "full/run_000/generations.csv").read_bytes()
        b = (run / "generations.csv").read_bytes()
        assert a == b

    def test_crash_during_done_write_leaves_no_marker(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "full")]) == 0

        real_dump = json.dump

        def dump_dying_midway(obj, fh, **kwargs):
            if "archive_size" not in obj:  # meta.json, not the completion summary
                return real_dump(obj, fh, **kwargs)
            text = json.dumps(obj, **kwargs)
            fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_dying_midway)
        run = tmp_path / "crashed/run_000"
        with pytest.raises(OSError, match="disk full"):
            execute_run(load_config(cfg_path), run)
        monkeypatch.undo()
        assert not (run / "done.json").exists()
        assert not list(run.glob("*.tmp"))
        assert main([
            "run", "--config", str(cfg_path), "--out", str(tmp_path / "crashed"), "--resume"
        ]) == 0
        assert json.loads((run / "done.json").read_text())["generations"] == 3
        a = (tmp_path / "full/run_000/generations.csv").read_bytes()
        b = (run / "generations.csv").read_bytes()
        assert a == b

    def test_kill_during_checkpoint_write_keeps_the_previous_one(self, tmp_path):
        # a process killed outright runs no cleanup, so the half-written
        # temporary file stays behind next to the previous checkpoint
        cfg_path = write_config(tmp_path, {"ga.generations": 5}, checkpoint_every=2)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "full")]) == 0

        run = tmp_path / "killed/run_000"
        script = """
import os, signal, sys
import numpy as np
from sdbc.cli import execute_run
from sdbc.config import load_config

real_savez, calls = np.savez, []

def savez_killed_midway(fh, **arrays):
    calls.append(arrays["generation"])
    if len(calls) == 1:
        return real_savez(fh, **arrays)
    fh.write(b"PK\\x03\\x04 half a checkpoint")
    fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)

np.savez = savez_killed_midway
execute_run(load_config(sys.argv[1]), sys.argv[2])
"""
        src = str(Path(sdbc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(cfg_path), str(run)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert int(np.load(run / "checkpoint.npz")["generation"]) == 2
        assert (run / "checkpoint.npz.tmp").read_bytes().startswith(b"PK\x03\x04 half")
        assert main([
            "run", "--config", str(cfg_path), "--out", str(tmp_path / "killed"), "--resume"
        ]) == 0
        assert not list(run.glob("*.tmp"))
        a = (tmp_path / "full/run_000/generations.csv").read_bytes()
        b = (run / "generations.csv").read_bytes()
        assert a == b

    def test_parallel_reports_every_run_when_one_fails(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        (out / "run_001").write_text("a file where the run directory should go\n")
        assert main([
            "run", "--config", str(cfg_path), "--runs", "2", "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert f"{out / 'run_000'}: best fitness" in captured.out
        assert f"{out / 'run_001'}: failed: FileExistsError" in captured.err
        assert is_complete(out / "run_000")
        assert not (out / "run_000/error.txt").exists()
        assert (out / "run_001").read_text() == "a file where the run directory should go\n"

    def test_failed_run_leaves_its_traceback_until_a_resume_succeeds(
        self, tmp_path, monkeypatch
    ):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        args = ["run", "--config", str(cfg_path), "--out", str(out), "--resume"]

        def dying_dump(self, generation, detail):
            if generation == 1:
                raise OSError("disk full")

        monkeypatch.setattr(RunWriter, "dump_population", dying_dump)
        assert main(args) == 1
        error = (out / "run_000/error.txt").read_text()
        assert error.startswith("Traceback") and "OSError: disk full" in error
        monkeypatch.undo()
        assert main(args) == 0
        assert is_complete(out / "run_000")
        assert not (out / "run_000/error.txt").exists()

    def test_run_record_contents(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        run = tmp_path / "o/run_000"
        for name in (
            "config.yaml", "meta.json", "generations.csv", "timing.csv",
            "archive.csv", "best_genome.txt", "checkpoint.npz", "done.json",
        ):
            assert (run / name).exists(), name
        meta = read_meta(run)
        assert len(meta["feature_names"]) == 10
        assert len(meta["char_schema"]) == 21
        rows = read_generations(run)
        assert [r["generation"] for r in rows] == [0.0, 1.0, 2.0]
        assert all(
            rows[i]["best_so_far"] <= rows[i + 1]["best_so_far"] for i in range(2)
        )


@pytest.fixture(scope="module")
def method_batch(tmp_path_factory):
    """Two runs each of two methods, through one `sdbc run`."""
    tmp = tmp_path_factory.mktemp("method_batch")
    cfg_path = write_config(tmp)
    out = tmp / "o"
    assert main([
        "run", "--config", str(cfg_path), "--method", "fit", "ns-sd+", "--runs", "2",
        "--out", str(out),
    ]) == 0
    return cfg_path, out


def record_jobs(monkeypatch):
    """Make `run` collect its jobs instead of running them."""
    jobs = []

    def fake_runs(batch):
        jobs.extend(batch)
        return [{"run_dir": run_dir, "best_fitness": 0.0} for _, run_dir, _ in batch]

    monkeypatch.setattr("sdbc.cli.execute_runs", fake_runs)
    return jobs


class TestMethodBatch:
    def test_jobs_match_the_acceptance_comparison(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cmp.yaml"
        cfg_path.write_text(yaml.safe_dump(SHARING_CONFIG))
        jobs = record_jobs(monkeypatch)
        out = tmp_path / "cmp"
        assert main([
            "run", "--config", str(cfg_path), "--method", "fit", "ns-ts", "ns-sd", "ns-sd+",
            "--seed", "1000", "--runs", "8", "--out", str(out),
        ]) == 0

        def resolved(cfg, run_dir, root):
            cfg = cfg.to_dict()
            del cfg["out"]
            return cfg, Path(run_dir).relative_to(root)

        sharing = tmp_path / "cache" / "sharing"
        expected = [
            resolved(config_from_dict(cfg), run_dir, sharing)
            for cfg, run_dir in desk_jobs(sharing.parent)
            if Path(run_dir).is_relative_to(sharing)
        ]
        assert len(expected) == 32
        assert [resolved(cfg, run_dir, out) for cfg, run_dir, _ in jobs] == expected

    def test_largest_batch_keeps_method_seeds_apart(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        jobs = record_jobs(monkeypatch)
        assert main([
            "run", "--config", str(cfg_path), "--method", "fit", "ns-ts", "--runs", "1000",
            "--out", str(tmp_path / "o"),
        ]) == 0
        seeds = [cfg.seed for cfg, _, _ in jobs]
        assert seeds == list(range(9, 2009))

    def test_layout_and_seeds(self, method_batch):
        _, out = method_batch
        assert sorted(p.name for p in out.iterdir()) == ["fit", "ns-sdplus"]
        for j, (method, sub) in enumerate([("fit", "fit"), ("ns-sd+", "ns-sdplus")]):
            for i in range(2):
                run = out / sub / f"run_{i:03d}"
                assert is_complete(run)
                meta = read_meta(run)
                assert (meta["method"], meta["seed"]) == (method, 9 + 1000 * j + i)

    def test_failing_run_is_reported_and_resume_finishes_the_batch(
        self, method_batch, tmp_path, capsys
    ):
        cfg_path, clean = method_batch
        out = tmp_path / "o"
        blocked = out / "fit" / "run_001"
        blocked.parent.mkdir(parents=True)
        blocked.write_text("a file where the run directory should go\n")
        args = [
            "run", "--config", str(cfg_path), "--method", "fit", "ns-sd+", "--runs", "2",
            "--out", str(out),
        ]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert f"{blocked}: failed: FileExistsError" in captured.err
        finished = [out / "fit/run_000", out / "ns-sdplus/run_000", out / "ns-sdplus/run_001"]
        for run in finished:
            assert f"{run}: best fitness" in captured.out
            assert is_complete(run)
        stamps = [(run / "generations.csv").stat().st_mtime_ns for run in finished]

        blocked.unlink()
        assert main([*args, "--resume"]) == 0
        captured = capsys.readouterr()
        for run in [*finished, blocked]:
            assert f"{run}: best fitness" in captured.out
        # complete runs are left alone; the batch matches one never interrupted
        assert [(run / "generations.csv").stat().st_mtime_ns for run in finished] == stamps
        for run in clean.glob("*/run_*"):
            a = (run / "generations.csv").read_bytes()
            b = (out / run.relative_to(clean) / "generations.csv").read_bytes()
            assert a == b, run

    def test_analyze_compares_every_method_pair(self, method_batch, tmp_path):
        _, out = method_batch
        runs = sorted(str(p) for p in out.glob("*/run_*"))
        assert len(runs) == 4
        assert main([
            "analyze", *runs, "--out", str(tmp_path / "analysis"), "--som-epochs", "1",
            "--som-width", "2", "--som-height", "2",
        ]) == 0
        with open(tmp_path / "analysis" / "mann_whitney.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method_a"], r["method_b"]) for r in rows] == [("fit", "ns-sd+")]

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--runs", "0"], "--runs must be >= 1"),
            (["--runs", "-3"], "--runs must be >= 1"),
            (["--method", "fit", "ns-sd", "fit"], "--method lists a method twice"),
            (["--method", "fit", "ns-sd", "--runs", "1001"], "--runs 1001 would give two methods"),
        ],
    )
    def test_bad_batch_is_rejected_before_running(self, tmp_path, capsys, extra, message):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_zero_runs_from_the_environment_is_rejected(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path)
        monkeypatch.setenv("SDBC_RUNS", "0")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: --runs must be >= 1, got 0")

    def test_parallel_is_an_unrecognised_argument(self, tmp_path, capsys):
        # runs share each generation's batch over the usable cores instead
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--out", str(out), "--parallel", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_is_a_usage_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--method", "fit", "hill-climb"])
        assert exc.value.code == 2


def group_jobs(root, methods=("fit", "ns-ts", "ns-sd", "ns-sd+"), resumed=()):
    """One TINY job per method, run i with seed 9 + i, in root/run_i; a
    job in `resumed` continues a 2-generation run whose done.json is gone."""
    jobs = []
    for i, method in enumerate(methods):
        cfg = config_from_dict({**TINY, "method": method, "seed": 9 + i})
        run_dir = root / f"run_{i:03d}"
        if i in resumed:
            execute_run(dataclasses.replace(cfg, ga=dataclasses.replace(cfg.ga, generations=2)),
                        run_dir)
            (run_dir / "done.json").unlink()
        jobs.append((cfg, run_dir, i in resumed))
    return jobs


def count_rows(monkeypatch):
    """The genome count of every `evaluate_population` call."""
    rows = []
    evaluate_population = evolution.evaluate_population

    def counted(genomes, *args):
        rows.append(len(genomes))
        return evaluate_population(genomes, *args)

    monkeypatch.setattr(evolution, "evaluate_population", counted)
    return rows


class TestGroups:
    """`sdbc run` advances up to GROUP_RUNS runs together, their fresh
    genomes evaluated in one batch each generation."""

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    def test_group_writes_the_files_of_solo_runs(self, tmp_path, monkeypatch, split):
        forks = []
        fork = os.fork

        def recorded():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        if split:
            monkeypatch.setattr(base, "MIN_PART_WORK", 1)
        for cfg, run_dir, resume in group_jobs(tmp_path / "solo", resumed=[1]):
            execute_run(cfg, run_dir, resume)
        jobs = group_jobs(tmp_path / "group", resumed=[1])
        rows = count_rows(monkeypatch)
        forks.clear()
        outcomes = execute_runs(jobs)
        # the resumed run's last generation shares the others' first
        assert rows == [8 + 6 + 8 + 8, 6 * 3, 6 * 3]
        assert len(forks) == (3 if split else 0)  # one child per shared generation
        for (_, run_dir, _), outcome in zip(jobs, outcomes):
            assert outcome["run_dir"] == str(run_dir)
            assert is_complete(run_dir)
            solo = tmp_path / "solo" / run_dir.name
            solo_done = json.loads((solo / "done.json").read_text())
            assert outcome["best_fitness"] == solo_done["best_fitness"]
            assert file_digests(run_dir) == file_digests(solo), run_dir.name
        assert any(name.startswith("population/") for name in file_digests(run_dir))

    def test_a_fault_in_a_runs_own_files_fails_it_alone(self, tmp_path, monkeypatch):
        jobs = group_jobs(tmp_path / "o", methods=("fit", "ns-sd+", "ns-ts"))
        failing = jobs[1][1]
        fault = OSError("disk full")
        append = RunWriter.append_generation

        def dying_append(self, stats):
            if self.dir == failing and stats.generation == 1:
                raise fault
            return append(self, stats)

        monkeypatch.setattr(RunWriter, "append_generation", dying_append)
        outcomes = execute_runs(jobs)
        assert outcomes[1] is fault
        assert "OSError: disk full" in (failing / "error.txt").read_text()
        assert not is_complete(failing)
        for k in (0, 2):
            assert outcomes[k]["run_dir"] == str(jobs[k][1])
            assert is_complete(jobs[k][1])
            assert not (jobs[k][1] / "error.txt").exists()
        with pytest.raises(OSError) as exc:
            execute_run(*jobs[1])
        assert exc.value is fault

    def test_a_fault_in_a_runs_selection_fails_it_alone(self, tmp_path, monkeypatch):
        # the failing run comes first, so the runs after it still advance
        methods = ("ns-sd+", "fit", "ns-ts", "ns-sd")
        for cfg, run_dir, resume in group_jobs(tmp_path / "solo", methods=methods):
            execute_run(cfg, run_dir, resume)
        jobs = group_jobs(tmp_path / "group", methods=methods)
        fault = ZeroDivisionError("MI weights")
        calls = []
        compute_weights = characterisation.compute_weights

        def dying(*args):  # only ns-sd+ weighs its features
            calls.append(len(calls))
            if len(calls) == 2:
                raise fault
            return compute_weights(*args)

        monkeypatch.setattr(characterisation, "compute_weights", dying)
        outcomes = execute_runs(jobs)
        failing = jobs[0][1]
        assert outcomes[0] is fault
        assert "ZeroDivisionError: MI weights" in (failing / "error.txt").read_text()
        assert [row["generation"] for row in read_generations(failing)] == [0]
        for (_, run_dir, _), outcome in zip(jobs[1:], outcomes[1:]):
            assert outcome["run_dir"] == str(run_dir)
            assert not (run_dir / "error.txt").exists()
            assert file_digests(run_dir) == file_digests(tmp_path / "solo" / run_dir.name)

    def test_a_fault_in_the_shared_generation_fails_the_group(self, tmp_path, monkeypatch):
        jobs = group_jobs(tmp_path / "o", methods=("fit", "ns-sd+", "ns-ts"))
        fault = FloatingPointError("shared batch")
        calls = []
        evaluate_population = evolution.evaluate_population

        def dying(*args):
            calls.append(len(args[0]))
            if len(calls) == 2:
                raise fault
            return evaluate_population(*args)

        monkeypatch.setattr(evolution, "evaluate_population", dying)
        outcomes = execute_runs(jobs)
        assert calls == [24, 18]
        assert all(outcome is fault for outcome in outcomes)
        for _, run_dir, _ in jobs:
            assert "FloatingPointError: shared batch" in (run_dir / "error.txt").read_text()
            assert not is_complete(run_dir)
            assert [row["generation"] for row in read_generations(run_dir)] == [0]

    def test_jobs_run_in_groups_of_group_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "GROUP_RUNS", 2)
        jobs = group_jobs(tmp_path / "o", methods=("fit", "ns-ts", "ns-sd", "ns-sd+", "fit"))
        rows = count_rows(monkeypatch)
        outcomes = execute_runs(jobs)
        assert all(is_complete(run_dir) for _, run_dir, _ in jobs)
        assert [o["run_dir"] for o in outcomes] == [str(run_dir) for _, run_dir, _ in jobs]
        # three groups of 2, 2 and 1 runs, one call each per generation
        assert rows == [16, 12, 12] * 2 + [8, 6, 6]


# sha256 (first 16 hex digits) of every file of a two-method batch with
# population dumps and an archive, and of its analysis.  timing.csv holds
# wall-clock times and is left out.  A checkpoint's zip holds timestamps,
# so each of its arrays counts on its own, over dtype, shape and bytes; a
# checkpoint keeps these names, dtypes and shapes, so an older one still
# resumes.  A change to what any file holds updates these and says why.
# The pins are bit-level, so another NumPy build or CPU may move them.
RUN_FILE_PINS = {
    "analysis/best_fitness.csv": "87a07dc4f9e2a66a",
    "analysis/fitness_curves.csv": "6e6d44dfed817148",
    "analysis/mann_whitney.csv": "a3d0460c1a4cb696",
    "analysis/mi_table_ns-sdplus.csv": "4e347be3b7df7674",
    "analysis/som_density.csv": "e5177a7d08788f8e",
    "analysis/som_ns-sd.svg": "d10a8052bf801e14",
    "analysis/som_ns-sdplus.svg": "b9068cea6d7d4af3",
    "o/ns-sd/run_000/archive.csv": "16ec39d49ac5326d",
    "o/ns-sd/run_000/best_genome.txt": "e03640a33bbe0de4",
    "o/ns-sd/run_000/checkpoint.npz:generation": "a1901ca8a3328d78",
    "o/ns-sd/run_000/checkpoint.npz:next_id": "9cfd2c6a0ebe72b9",
    "o/ns-sd/run_000/checkpoint.npz:genomes": "fe44734b3cd5585c",
    "o/ns-sd/run_000/checkpoint.npz:ids": "c22a63c755d28e73",
    "o/ns-sd/run_000/checkpoint.npz:has_result": "cff88e5482d8b8a8",
    "o/ns-sd/run_000/checkpoint.npz:fitness": "c6d050658288d922",
    "o/ns-sd/run_000/checkpoint.npz:raw": "29a6b531d5c3d7fa",
    "o/ns-sd/run_000/checkpoint.npz:ts": "6db8a02c360761d4",
    "o/ns-sd/run_000/checkpoint.npz:trial_fitness": "405adc71debefe03",
    "o/ns-sd/run_000/checkpoint.npz:trial_seeds": "03afb0c5b59d79eb",
    "o/ns-sd/run_000/checkpoint.npz:archive_raw": "3e5b18da6ee64d9e",
    "o/ns-sd/run_000/checkpoint.npz:archive_gens": "d1e898391b367fd3",
    "o/ns-sd/run_000/checkpoint.npz:best_so_far": "7c632f445988f41c",
    "o/ns-sd/run_000/checkpoint.npz:best_generation": "b2886e3f3b72f03a",
    "o/ns-sd/run_000/checkpoint.npz:best_genome": "a5a3be3fcc4bc416",
    "o/ns-sd/run_000/checkpoint.npz:best_trial_seeds": "714b266b27eeb6aa",
    "o/ns-sd/run_000/checkpoint.npz:best_trial_fitness": "1d524d0234d3aa3d",
    "o/ns-sd/run_000/checkpoint.npz:best_ts": "4a1d4198f14dec4f",
    "o/ns-sd/run_000/checkpoint.npz:best_raw": "8e4056780365ca7f",
    "o/ns-sd/run_000/checkpoint.npz:weights": "4bd9799159c99b78",
    "o/ns-sd/run_000/config.yaml": "e5b9367cc298a86b",
    "o/ns-sd/run_000/done.json": "8d2dd09fb14bdfea",
    "o/ns-sd/run_000/features/gen_000000.csv": "b2c49ea4c6da2fb2",
    "o/ns-sd/run_000/features/gen_000001.csv": "0b6072af70155c4e",
    "o/ns-sd/run_000/features/gen_000002.csv": "f4e052898897d359",
    "o/ns-sd/run_000/generations.csv": "382dc6cc04c0123b",
    "o/ns-sd/run_000/meta.json": "d6e690d15edec8ed",
    "o/ns-sd/run_000/population/gen_000000.csv": "43e75e4b8439b54b",
    "o/ns-sd/run_000/population/gen_000001.csv": "34f33751fde04f0b",
    "o/ns-sd/run_000/population/gen_000002.csv": "b879124d26b32a5c",
    "o/ns-sdplus/run_000/archive.csv": "8c7e9ef10b399332",
    "o/ns-sdplus/run_000/best_genome.txt": "c1699d786400f757",
    "o/ns-sdplus/run_000/checkpoint.npz:generation": "a1901ca8a3328d78",
    "o/ns-sdplus/run_000/checkpoint.npz:next_id": "9cfd2c6a0ebe72b9",
    "o/ns-sdplus/run_000/checkpoint.npz:genomes": "1546ced0e9b1455a",
    "o/ns-sdplus/run_000/checkpoint.npz:ids": "e516595ca8a35aac",
    "o/ns-sdplus/run_000/checkpoint.npz:has_result": "cff88e5482d8b8a8",
    "o/ns-sdplus/run_000/checkpoint.npz:fitness": "abccd205f204c35a",
    "o/ns-sdplus/run_000/checkpoint.npz:raw": "accf4c2e2ec3a598",
    "o/ns-sdplus/run_000/checkpoint.npz:ts": "8b045f541671f192",
    "o/ns-sdplus/run_000/checkpoint.npz:trial_fitness": "bca57d7092f03879",
    "o/ns-sdplus/run_000/checkpoint.npz:trial_seeds": "0070851d65cd5c39",
    "o/ns-sdplus/run_000/checkpoint.npz:archive_raw": "094c25febf9f5d2c",
    "o/ns-sdplus/run_000/checkpoint.npz:archive_gens": "61e759722bcd4423",
    "o/ns-sdplus/run_000/checkpoint.npz:best_so_far": "abadd99f38a7c606",
    "o/ns-sdplus/run_000/checkpoint.npz:best_generation": "6c48133231bdfebd",
    "o/ns-sdplus/run_000/checkpoint.npz:best_genome": "8638eafb9c38ccca",
    "o/ns-sdplus/run_000/checkpoint.npz:best_trial_seeds": "95e232fd93fc0994",
    "o/ns-sdplus/run_000/checkpoint.npz:best_trial_fitness": "e08db5b8bab173f2",
    "o/ns-sdplus/run_000/checkpoint.npz:best_ts": "4f9f1055ba8c6abc",
    "o/ns-sdplus/run_000/checkpoint.npz:best_raw": "f225c3b24acdae82",
    "o/ns-sdplus/run_000/checkpoint.npz:weights": "ddb8482114e05b31",
    "o/ns-sdplus/run_000/config.yaml": "19502255dad82983",
    "o/ns-sdplus/run_000/done.json": "b7b0905d16919860",
    "o/ns-sdplus/run_000/features/gen_000000.csv": "6d288cc264004a36",
    "o/ns-sdplus/run_000/features/gen_000001.csv": "d89ab9c114bde865",
    "o/ns-sdplus/run_000/features/gen_000002.csv": "0be7276ac6687fb6",
    "o/ns-sdplus/run_000/generations.csv": "40a1aaeef409821b",
    "o/ns-sdplus/run_000/meta.json": "5238b549de85f4ab",
    "o/ns-sdplus/run_000/population/gen_000000.csv": "c39a157033e7a3ed",
    "o/ns-sdplus/run_000/population/gen_000001.csv": "e8ab9690639dcd30",
    "o/ns-sdplus/run_000/population/gen_000002.csv": "80f30994b212f637",
    "trajectory.csv": "bd9f37f8b6c698f3",
}


def file_digests(root: Path) -> dict[str, str]:
    """The RUN_FILE_PINS digests of every file under `root`."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if path.name == "timing.csv":
            continue
        if path.suffix == ".npz":
            with np.load(path) as data:
                for name in data.files:
                    a = data[name]
                    h = hashlib.sha256(f"{a.dtype.str} {a.shape} ".encode() + a.tobytes())
                    out[f"{rel}:{name}"] = h.hexdigest()[:16]
        else:
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return out


@pytest.fixture(scope="module")
def pinned_batch(tmp_path_factory):
    """The RUN_FILE_PINS batch: `run --method ns-sd ns-sd+`, `analyze` and
    `replay --out` of one best genome, with relative paths, so config.yaml
    holds no temporary directory."""
    cfg_path = tmp_path_factory.mktemp("pinned_config") / "config.yaml"
    cfg_path.write_text(yaml.safe_dump({**TINY, "novelty": {"archive_rate": 0.5}}))
    work = tmp_path_factory.mktemp("pinned")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main([
            "run", "--config", str(cfg_path), "--method", "ns-sd", "ns-sd+", "--out", "o"
        ]) == 0
        runs = sorted(str(p) for p in Path("o").glob("*/run_*"))
        assert main([
            "analyze", *runs, "--out", "analysis", "--som-epochs", "2",
            "--som-width", "3", "--som-height", "3",
        ]) == 0
        assert main([
            "replay", "o/ns-sd/run_000/best_genome.txt", "--out", "trajectory.csv"
        ]) == 0
    finally:
        os.chdir(cwd)
    return work


class TestRunFiles:
    def test_run_and_analysis_files_match_their_pins(self, pinned_batch):
        assert file_digests(pinned_batch) == RUN_FILE_PINS

    def test_every_file_is_written_through_a_rename(self, tmp_path, monkeypatch):
        # a file renamed into place from NAME.tmp is never seen half-written
        renamed = []
        real_replace = os.replace

        def recording_replace(src, dst):
            assert Path(src) == Path(str(dst) + ".tmp")
            renamed.append(Path(dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        cfg_path = write_config(tmp_path, {"novelty.archive_rate": 0.5})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out / "runs")]) == 0
        run = out / "runs/run_000"
        analysis = out / "analysis"
        assert main(["analyze", str(run), "--out", str(analysis), "--som-epochs", "1"]) == 0
        replay_out = out / "trajectory.csv"
        assert main(["replay", str(run / "best_genome.txt"), "--out", str(replay_out)]) == 0
        written = {p for p in out.rglob("*") if p.is_file()}
        assert len(written) > 15 and written == set(renamed)


class TestReplay:
    def test_round_trip_reproduces_logged_trial_fitness(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        genome_path = tmp_path / "o/run_000/best_genome.txt"
        header, weights = load_genome_file(genome_path)
        seeds = [int(s) for s in header["trial_seeds"].split(",")]
        fits = [float(f) for f in header["trial_fitness"].split(",")]
        task = make_task(header["task"], TINY["task_params"])
        from sdbc.evolution import ControllerSpec, evaluate

        spec = ControllerSpec(int(header["inputs"]), int(header["hidden"]), int(header["outputs"]))
        res = evaluate(weights, task, spec, seeds)
        assert list(res.trial_fitness) == fits
        assert res.fitness == float(header["fitness"])

    @pytest.mark.parametrize("task_name", ["resource_sharing", "gate_escape", "predator_prey"])
    def test_replay_cli_prints_logged_trial_fitness(self, tmp_path, capsys, task_name):
        cfg_path = write_config(
            tmp_path,
            task=task_name,
            task_params={"max_steps": 200},
            ga={"population": 6, "generations": 2, "trials": 8, "hidden_units": 4},
        )
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        genome_path = tmp_path / "o/run_000/best_genome.txt"
        header, _ = load_genome_file(genome_path)
        seeds = header["trial_seeds"].split(",")
        logged = header["trial_fitness"].split(",")
        capsys.readouterr()
        printed = []
        for seed in seeds:
            assert main(["replay", str(genome_path), "--seed", seed]) == 0
            out = capsys.readouterr().out
            printed.append(out.split("fitness ", 1)[1].split(",", 1)[0])
        assert printed == logged

    def test_replay_cli_writes_trajectory(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        out_csv = tmp_path / "traj.csv"
        code = main([
            "replay", str(tmp_path / "o/run_000/best_genome.txt"),
            "--config", str(cfg_path), "--out", str(out_csv),
        ])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["robot"] for r in rows} == {"0", "1", "2"}
        assert "fitness" in capsys.readouterr().out

    def test_zero_genome_pursuit_matches_fitness_oracle(self, tmp_path, capsys):
        task = make_task("predator_prey", {"max_steps": 50, "prey_sense": 0.1})
        from sdbc.evolution import ControllerSpec

        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        genome_path = tmp_path / "zero_genome.txt"
        genome_path.write_text(
            "# task: predator_prey\n# inputs: 6\n# hidden: 4\n# outputs: 2\n"
            + "\n".join(["0.0"] * spec.genome_length)
            + "\n"
        )
        cfg = tmp_path / "pp.yaml"
        cfg.write_text(yaml.safe_dump({
            "task": "predator_prey",
            "task_params": {"max_steps": 50, "prey_sense": 0.1},
        }))
        code = main(["replay", str(genome_path), "--config", str(cfg), "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        # motionless predators, stationary prey: no capture, no progress
        batch = task.simulate(lambda x: np.zeros((x.shape[0], 2)), [3])
        rec = batch.record
        d = np.hypot(
            rec["pos"][..., 0] - rec["prey"][..., None, 0],
            rec["pos"][..., 1] - rec["prey"][..., None, 1],
        )
        expected = pursuit_fitness(
            False, int(batch.steps[0]), 50, float(d[0, 0].mean()),
            float(d[-1, 0].mean()), task.size,
        )
        assert batch.fitness[0] == expected == 0.0
        assert f"fitness {expected!r}" in out

    def test_corrupted_genome_fails(self, tmp_path):
        bad = tmp_path / "bad_genome.txt"
        bad.write_text("# task: gate_escape\n0.1\nnot-a-number\n")
        assert main(["replay", str(bad)]) == 2

    @pytest.mark.parametrize("field", ["task", "inputs", "hidden", "outputs"])
    def test_genome_without_a_header_field_fails(self, tmp_path, capsys, field):
        header = {"task": "gate_escape", "inputs": "8", "hidden": "4", "outputs": "2"}
        del header[field]
        bad = tmp_path / "best_genome.txt"
        bad.write_text("".join(f"# {k}: {v}\n" for k, v in header.items()) + "0.1\n")
        message = f"corrupted genome file: missing header field {field!r}"
        with pytest.raises(ValueError, match=message):
            load_genome_file(bad)
        assert main(["replay", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_genome_of_the_wrong_length_fails(self, tmp_path, capsys):
        genome = tmp_path / "best_genome.txt"
        length = ControllerSpec(6, 4, 2).genome_length
        genome.write_text(
            "# task: predator_prey\n# inputs: 6\n# hidden: 4\n# outputs: 2\n"
            + "0.0\n" * (length - 1)
        )
        assert main(["replay", str(genome)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: genome length ({length - 1},) does not match spec ({length},)\n"

    @pytest.mark.parametrize("where", ["--config", "sibling"])
    def test_invalid_config_fails_with_diagnostic(self, tmp_path, capsys, where):
        genome = tmp_path / "best_genome.txt"
        genome.write_text(
            "# task: predator_prey\n# inputs: 6\n# hidden: 4\n# outputs: 2\n"
            + "0.0\n" * ControllerSpec(6, 4, 2).genome_length
        )
        bad = tmp_path / ("bad.yaml" if where == "--config" else "config.yaml")
        bad.write_text("method: warp\n")
        args = ["replay", str(genome)] + (["--config", str(bad)] if where == "--config" else [])
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: invalid configuration: method")

    @pytest.mark.parametrize("where", ["--config", "sibling", "missing"])
    def test_unreadable_config_fails_with_diagnostic(self, tmp_path, capsys, where):
        genome = tmp_path / "best_genome.txt"
        genome.write_text(
            "# task: predator_prey\n# inputs: 6\n# hidden: 4\n# outputs: 2\n"
            + "0.0\n" * ControllerSpec(6, 4, 2).genome_length
        )
        bad = tmp_path / ("config.yaml" if where == "sibling" else "bad.yaml")
        if where != "missing":
            bad.write_text("task: [unclosed\n")
        args = ["replay", str(genome)] + (["--config", str(bad)] if where != "sibling" else [])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert "Traceback" not in err

    def test_watch_replay_script_films_a_saved_genome(self, method_batch, capsys):
        spec = importlib.util.spec_from_file_location(
            "watch_replay", ROOT / "scripts" / "watch_replay.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        _, out = method_batch
        genome = out / "fit" / "run_000" / "best_genome.txt"
        capsys.readouterr()
        assert script.main([str(genome), "--every", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the sibling config's three robots, on the first logged trial seed
        header, _, seed, batch = replay_genome(genome)
        assert seed == int(header["trial_seeds"].split(",")[0])
        steps = int(batch.steps[0])
        frames = [line for line in lines if line.startswith("--- step ")]
        assert frames == [f"--- step {t} ---" for t in range(0, steps, 20)]
        assert {ch for line in lines for ch in line if ch.isdigit()} >= {"0", "1", "2"}
        logged = float(header["trial_fitness"].split(",")[0])
        assert lines[-1] == f"fitness {logged:.4f}, steps {steps}"


@pytest.fixture(scope="module")
def run_batch(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze_runs")
    dirs = []
    for method in ("fit", "ns-sd+"):
        for i in range(2):
            cfg_i = config_from_dict({**TINY, "method": method, "seed": 9 + i})
            run_dir = tmp / f"{method.replace('+', 'plus')}_{i}"
            execute_run(cfg_i, run_dir)
            dirs.append(run_dir)
    return tmp, dirs


@pytest.fixture(scope="module")
def other_task_runs(tmp_path_factory):
    """One small complete run each of gate escape (both layouts) and pursuit."""
    tmp = tmp_path_factory.mktemp("other_tasks")
    small = {"seed": 3, "dump_population": True,
             "ga": {"population": 4, "generations": 1, "trials": 1, "hidden_units": 2}}
    runs = {}
    for name, task, params in [
        ("gate", "gate_escape", {"max_steps": 20}),
        ("gate-unpublished", "gate_escape", {"max_steps": 20, "published_layout": False}),
        ("pursuit", "predator_prey", {"max_steps": 20}),
    ]:
        runs[name] = tmp / name
        execute_run(config_from_dict({**small, "task": task, "task_params": params}), runs[name])
    return runs


class TestAnalyze:

    def test_outputs_exist(self, run_batch, tmp_path):
        tmp, dirs = run_batch
        out = tmp_path / "analysis"
        code = main(["analyze", *[str(d) for d in dirs], "--out", str(out),
                     "--som-epochs", "2", "--som-width", "3", "--som-height", "3"])
        assert code == 0
        for name in (
            "fitness_curves.csv", "best_fitness.csv", "mann_whitney.csv",
            "som_density.csv", "som_fit.svg", "som_ns-sdplus.svg",
            "mi_table_ns-sdplus.csv",
        ):
            assert (out / name).exists(), name
        # fit logs no MI, so no fit MI table, and the command still succeeds
        assert not (out / "mi_table_fit.csv").exists()

    def test_single_run_curve_equals_log(self, run_batch, tmp_path):
        tmp, dirs = run_batch
        out = tmp_path / "single"
        main(["analyze", str(dirs[0]), "--out", str(out), "--som-epochs", "1"])
        rows = read_generations(dirs[0])
        with open(out / "fitness_curves.csv", newline="") as fh:
            curve = list(csv.DictReader(fh))
        assert len(curve) == len(rows)
        for row, ref in zip(curve, rows):
            assert float(row["mean_best_so_far"]) == ref["best_so_far"]

    def test_incomplete_runs_skipped(self, run_batch, tmp_path, capsys):
        tmp, dirs = run_batch
        broken = tmp_path / "broken_run"
        broken.mkdir()
        (broken / "meta.json").write_text("{}")
        out = tmp_path / "skipped"
        code = main(["analyze", str(dirs[0]), str(broken), "--out", str(out),
                     "--som-epochs", "1"])
        assert code == 0
        assert "skipping" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "other,described",
        [
            ("pursuit", "is predator_prey (27 components)"),
            ("gate", "is gate_escape (21 components)"),
        ],
    )
    def test_runs_of_another_task_are_rejected(
        self, run_batch, other_task_runs, tmp_path, capsys, other, described
    ):
        _, dirs = run_batch
        out = tmp_path / "analysis"
        runs = [str(dirs[0]), str(other_task_runs[other])]
        assert main(["analyze", *runs, "--out", str(out), "--som-epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: cannot analyse runs of different tasks together: "
            f"{runs[0]} is resource_sharing (21 components), {runs[1]} {described}\n"
        )
        assert not out.exists()

    def test_runs_of_another_layout_are_rejected(self, other_task_runs, tmp_path, capsys):
        runs = [str(other_task_runs["gate"]), str(other_task_runs["gate-unpublished"])]
        out = tmp_path / "analysis"
        assert main(["analyze", *runs, "--out", str(out), "--som-epochs", "1"]) == 2
        # the same task, but a schema with the gate-walls distance
        assert capsys.readouterr().err == (
            "error: cannot analyse runs of different tasks together: "
            f"{runs[0]} is gate_escape (21 components), {runs[1]} is gate_escape (23 components)\n"
        )
        assert not out.exists()


class TestEnvOverrides:
    def test_env_seed_applies(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        monkeypatch.setenv("SDBC_SEED", "123")
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "env")])
        assert read_meta(tmp_path / "env/run_000")["seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        monkeypatch.setenv("SDBC_SEED", "123")
        main(["run", "--config", str(cfg_path), "--seed", "55",
              "--out", str(tmp_path / "flag")])
        assert read_meta(tmp_path / "flag/run_000")["seed"] == 55

    @pytest.mark.parametrize("var,flag", [("SEED", "--seed"), ("RUNS", "--runs")])
    def test_malformed_value_is_a_usage_error_of_run_only(
        self, tmp_path, monkeypatch, capsys, var, flag
    ):
        monkeypatch.setenv(f"SDBC_{var}", "abc")
        assert main(["print-defaults"]) == 0
        capsys.readouterr()
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPrintDefaults:
    def test_emits_annotated_yaml(self, capsys):
        assert main(["print-defaults"]) == 0
        text = capsys.readouterr().out
        assert "task:" in text
        assert "[heuristic]" in text
        parsed = yaml.safe_load(text)
        assert parsed["sdbc"]["delta"] == 0.25
