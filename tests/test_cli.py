import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fredstab import cli_io, diagnostics, errors, simulate, synthesis, transform
from fredstab.cli_io import LIVE_MATRICES, MAX_N, main, parse_config
from fredstab.errors import ConfigError
from fredstab.jsonio import from_cpairs, write_json
from fredstab.models import (SturmLiouvilleProblem, gribov_model, heat_torus_model,
                             schrodinger_model, sturm_liouville_model)
from fredstab.spectral_core import system_from_json, system_to_json

from conftest import real_products, run_stage, trace_to_csv


def write_config(path, drop=(), **overrides):
    doc = {
        "model": {"kind": "heat_torus", "N": 16, "params": {}},
        "lambda0": 2.5,
        "delta": 0.25,
        "N": 16,
        "method": "direct",
        "r_list": [0.0],
        "scenarios": [],
        "output_dir": str(path.parent / "out"),
    }
    doc.update(overrides)
    for key in drop:
        del doc[key]
    write_json(path, doc)
    return doc


# section -> its path in a valid config; _CONFIG_KEYS: model kind -> (path,
# key) of every key of the config schema that a config of that kind holds
# (its own params section only), and one unknown key per section
_SECTION_PATHS = {"config": (), "config.model": ("model",), "scenario": ("scenarios", 0),
                  "u0": ("scenarios", 0, "u0"), "u0 (nonlinear)": ("scenarios", 0, "u0"),
                  "config.sweep": ("sweep",),
                  **dict.fromkeys(cli_io._PARAMS, ("model", "params"))}
_CONFIG_KEYS = {kind: sorted({(*path, key) for section, path in _SECTION_PATHS.items()
                              if section not in cli_io._PARAMS or section == kind
                              for key in (*cli_io._SCHEMA[section], "typo")})
                for kind in cli_io._PARAMS}
# JSON values of every type: null, bools, zero, negative, small and huge
# ints, non-finite and plain floats, strings, lists and objects; a small
# int stays <= 8, so a model it sizes stays small
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.integers(2 ** 53, 2 ** 80),
    st.sampled_from([0.0, 0.5, -1.5, 1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "a", "x/y", "16", "rk4", "basis", "burgers_sine", "gribov",
                     "iterative"]),
    st.lists(st.one_of(st.none(), st.integers(-1, 8), st.floats(), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.sampled_from(["a", "N", "gamma", "kind"]), st.integers(0, 3),
                    max_size=2))


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"model": {"kind": "heat_torus", "N": 8}, "typo": 1})

    def test_unknown_scenario_key(self):
        with pytest.raises(ConfigError, match="scenarios"):
            parse_config({"model": {"kind": "heat_torus", "N": 8},
                          "scenarios": [{"tend": 1.0}]})

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config({"model": {"kind": "heat_torus", "N": 8}, "method": "x"})

    @pytest.mark.parametrize("r_list", [[0.5, 0.5], [0.1234564, 0.1234561]])
    def test_r_labels_must_differ(self, r_list):
        # trace columns and conditioning keys are named f"{r:g}"
        with pytest.raises(ConfigError, match="share the label"):
            parse_config({"model": {"kind": "heat_torus", "N": 8}, "r_list": r_list})

    @pytest.mark.parametrize("stage", ["synthesize", "simulate"])
    def test_r_label_collision_exits_one(self, tmp_path, capsys, stage):
        cfg = tmp_path / "config.json"
        write_config(cfg, r_list=[0.1234564, 0.1234561])
        assert main([stage, "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert all(v in payload["message"] for v in ("0.1234564", "0.1234561", "'0.123456'"))

    def test_empty_r_list_refused(self, tmp_path, capsys):
        # verify used to end in an IndexError from r_list[0]
        with pytest.raises(ConfigError, match="r_list"):
            parse_config({"model": {"kind": "heat_torus", "N": 8}, "r_list": []})
        cfg = tmp_path / "config.json"
        write_config(cfg, r_list=[])
        assert main(["synthesize", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError" and "r_list" in payload["message"]
        assert not (tmp_path / "out" / "law.json").exists()

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf"), None, "x"])
    def test_scenario_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ConfigError, match=r"scenarios\[1\] \('rk'\): dt"):
            parse_config({"model": {"kind": "heat_torus", "N": 8}, "scenarios": [
                {"name": "lin"}, {"name": "rk", "integrator": "rk4", "dt": dt}]})

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_zero_dt_exits_one(self, tmp_path, capsys, nonlinear):
        # a zero step used to hang simulate in rk4 and Burgers alike
        cfg = tmp_path / "config.json"
        kind = {"nonlinear": True} if nonlinear else {"integrator": "rk4"}
        write_config(cfg, scenarios=[dict(name="z", dt=0.0, t_end=0.1, samples=2, **kind)])
        assert main(["simulate", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert "'z'" in payload["message"] and "dt" in payload["message"]

    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan"), float("inf"), None, "1"])
    def test_scenario_t_end_must_be_finite_and_positive(self, t_end):
        with pytest.raises(ConfigError, match=r"scenarios\[1\] \('rk'\): t_end"):
            parse_config({"model": {"kind": "heat_torus", "N": 8}, "scenarios": [
                {"name": "lin"}, {"name": "rk", "integrator": "rk4", "t_end": t_end}]})

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True, None, "8"])
    def test_scenario_samples_must_be_a_positive_integer(self, samples):
        with pytest.raises(ConfigError, match=r"scenarios\[0\] \('lin'\): samples"):
            parse_config({"model": {"kind": "heat_torus", "N": 8},
                          "scenarios": [{"name": "lin", "samples": samples}]})

    @pytest.mark.parametrize("key, value, integrator", [
        ("t_end", float("nan"), "semigroup_exact"), ("t_end", float("nan"), "rk4"),
        ("t_end", -1.0, "semigroup_exact"), ("samples", 0, "semigroup_exact")])
    def test_bad_span_exits_one(self, tmp_path, capsys, key, value, integrator):
        # a NaN t_end used to exit 4 blaming a blow-up (semigroup) or exit 1
        # on a NaN in report.json (rk4); a negative t_end or zero samples
        # ended in a bare ValueError
        cfg = tmp_path / "config.json"
        doc = write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        doc["scenarios"] = [{"name": "z", "integrator": integrator, "t_end": 0.1,
                             "samples": 2, key: value}]
        cfg.write_text(json.dumps(doc))     # json, not write_json: it refuses NaN
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert "scenarios[0] ('z')" in payload["message"] and key in payload["message"]
        assert not (tmp_path / "out" / "traces").exists()

    @pytest.mark.parametrize("stage", ["synthesize", "sweep"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0, -1, True, "2"],
                             ids=["nan", "inf", "zero", "negative", "true", "string"])
    @pytest.mark.parametrize("key", ["lambda0", "delta", "sweep.lambda0"])
    def test_shift_and_margin_must_be_finite_and_positive(self, tmp_path, capsys, key,
                                                           value, stage):
        # a NaN or infinite lambda0 exited 3 from the shift search or the
        # gains, a NaN or infinite delta exited 1 with a bare ValueError
        # from int(), and a zero sweep lambda0 ran at config.lambda0
        cfg = tmp_path / "config.json"
        doc = write_config(cfg, sweep={"lambda0": [2.5]})
        if key == "sweep.lambda0":
            doc["sweep"]["lambda0"] = [2.5, value]
        else:
            doc[key] = value
        cfg.write_text(json.dumps(doc))     # json, not write_json: it refuses NaN
        assert main([stage, "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        where = "config.sweep.lambda0[1]" if key == "sweep.lambda0" else f"config.{key}"
        assert payload["message"].startswith(f"{where} must be a finite number > 0")
        assert not (tmp_path / "out" / "law.json").exists()
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("sweep, where, what", [
        ([], "config.sweep", "an object"),                     # AttributeError
        ({"lambda0": 2.5}, "config.sweep.lambda0", "a list"),  # TypeError
        ({"N": 16}, "config.sweep.N", "a list"),
        ({"N": [0]}, "config.sweep.N[0]", "an integer >= 4"),  # ValueError, model build
        ({"N": [16, "x"]}, "config.sweep.N[1]", "an integer >= 4"),  # ValueError, int()
        ({"N": [16.0]}, "config.sweep.N[0]", "an integer >= 4"),
        ({"N": [True]}, "config.sweep.N[0]", "an integer >= 4"),
        ({"gamma": [float("nan")]}, "config.sweep.gamma[0]", "a finite number"),
        ({"gamma": [0.0, float("-inf")]}, "config.sweep.gamma[1]", "a finite number"),
        ({"gamma": ["0"]}, "config.sweep.gamma[0]", "a finite number"),
        ({"gamma": [False]}, "config.sweep.gamma[0]", "a finite number"),
        ({"gamma": 0.0}, "config.sweep.gamma", "a list"),
    ], ids=["list", "scalar-lambda0", "scalar-N", "N-zero", "N-string", "N-float",
            "N-bool", "gamma-nan", "gamma-inf", "gamma-string", "gamma-bool",
            "scalar-gamma"])
    @pytest.mark.parametrize("stage", ["synthesize", "sweep"])
    def test_sweep_block_refused_before_any_build(self, tmp_path, capsys, monkeypatch,
                                                  sweep, where, what, stage):
        # each case failed with a raw exception (named in its comment), or
        # aborted the whole sweep, or was accepted
        def refuse(kind, N, params):
            raise AssertionError("model built")

        monkeypatch.setattr(cli_io, "_model", refuse)
        cfg = tmp_path / "config.json"
        doc = write_config(cfg)
        doc["sweep"] = sweep
        cfg.write_text(json.dumps(doc))     # json, not write_json: it refuses NaN
        assert main([stage, "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"{where} must be {what}, got ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_refused(self, tmp_path, capsys, jobs):
        # -1 exited 1 with a bare ValueError from the thread pool; 0 ran on
        # os.cpu_count() workers
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [2.5]})
        assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ConfigError", "message": f"--jobs must be >= 1, got {jobs}"}
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_point_runs_at_its_own_shift(self, tmp_path):
        # lambda0 = 0 used to fall back to config.lambda0 (a falsy `or`);
        # the pipeline now takes the point's shift as it is
        cfg = parse_config({"model": {"kind": "heat_torus", "N": 16}, "lambda0": 2.5})
        system = cli_io._build_system(cfg)
        with pytest.raises(ValueError, match="lambda0 and delta must be positive"):
            cli_io._synthesize_pipeline(cfg, system, [0.0], 0.0)
        law, *_ = cli_io._synthesize_pipeline(cfg, system, [0.0], 2.25)
        assert law.lam == 2.25

    @pytest.mark.parametrize("overrides, where", [
        ({"N": 16.7}, "config.N (or model.N) must be an integer >= 4, got 16.7"),
        ({"N": "16"}, "config.N (or model.N) must be an integer >= 4, got '16'"),
        ({"N": None}, "config.N (or model.N) must be an integer >= 4, got None"),
        ({"N": True}, "config.N (or model.N) must be an integer >= 4, got True"),
        ({"N": 0}, "config.N (or model.N) must be an integer >= 4, got 0"),
        ({"r_list": [float("nan")]}, "config.r_list[0] must be a finite number, got nan"),
        ({"r_list": [0.0, "a"]}, "config.r_list[1] must be a finite number, got 'a'"),
        ({"scenarios": [{"name": "e", "integrator": "euler"}]},
         "config.scenarios[0] ('e'): unknown linear integrator 'euler'"),
        ({"scenarios": [1]}, "config.scenarios[0] must be an object, got 1"),
        ({"scenarios": 5}, "config.scenarios must be a list, got 5"),
        ({"model": {"kind": "nope", "N": 16}}, "config.model.kind must be "
         "heat_torus|schrodinger_ground|sturm_liouville|gribov, got 'nope'"),
        ({"model": {"path": 5}}, "config.model.path must be a string, got 5"),
        ({"scenarios": [{"name": "s", "u0": {"seed": "x"}}]},
         "config.scenarios[0] ('s'): u0.seed must be an integer >= 0, got 'x'"),
        ({"scenarios": [{"name": "s", "u0": {"kind": "basis", "amplitude": "q"}}]},
         "config.scenarios[0] ('s'): u0.amplitude must be a finite number, got 'q'"),
        ({"scenarios": [{"name": "s", "nonlinear": True, "u0": {"l2": "x"}}]},
         "config.scenarios[0] ('s'): u0.l2 must be a finite number > 0, got 'x'"),
        ({"scenarios": [{"name": "s", "u0": {"kind": "burgers_sine"}}]},
         "config.scenarios[0] ('s'): u0.kind must be random|basis, got 'burgers_sine'"),
        ({"scenarios": [{"name": "s", "u0": {"kind": "basis", "n": 0}}]},
         "config.scenarios[0] ('s'): u0.n must be a positive integer, got 0"),
        ({"scenarios": [{"name": "s", "nonlinear": "yes"}]},
         "config.scenarios[0] ('s'): nonlinear must be true or false, got 'yes'"),
        ({"N": 2}, "config.N (or model.N) must be an integer >= 4, got 2"),
        ({"N": 3}, "config.N (or model.N) must be an integer >= 4, got 3"),
        ({"model": {"kind": "heat_torus", "N": 2}},
         "config.N (or model.N) must be an integer >= 4, got 2"),
        ({"output_dir": 7}, "config.output_dir must be a non-empty string, got 7"),
        ({"output_dir": ""}, "config.output_dir must be a non-empty string, got ''"),
        ({"model": {"kind": "heat_torus", "N": 16, "params": []}},
         "config.model.params must be an object, got []"),
        ({"model": {"kind": "heat_torus", "N": 8, "params": {}}},
         "config.N 16 and config.model.N 8 differ"),
        ({"model": {"path": "system.json"}}, "config.model.path stands alone: a stored "
         "system brings its own model and N, so config.N and config.model's other keys "
         "are refused"),
    ], ids=["N-float", "N-string", "N-null", "N-bool", "N-zero", "r-nan", "r-string",
            "integrator", "scenario-int", "scenarios-int", "model-kind", "model-path-int",
            "u0-seed", "u0-amplitude", "u0-l2", "u0-kind", "u0-n-zero", "nonlinear-string",
            "N-two", "N-three", "model-N-two", "output-dir-int", "output-dir-empty", "params-list",
            "N-differs", "N-with-path"])
    def test_late_failures_refused_at_parse(self, tmp_path, capsys, overrides, where):
        # a float N ran truncated, a string N was accepted, a null N ended in
        # a raw TypeError; the integrator and the NaN r passed synthesize and
        # failed in simulate with a raw ValueError.  A list of ints for
        # scenarios gave a raw TypeError, an unknown model kind a raw
        # ValueError (and simulate exited 0), a path of 5 read file
        # descriptor 5; the bad u0 values failed in simulate with a raw
        # ValueError, a wrong u0 kind only there, and u0.n = 0 excited mode
        # N; "yes" ran Burgers; output_dir 7, params [], a model.N beside a
        # different N or beside a path were accepted.  An N of 2 or 3 was
        # refused only by the model build, and an empty output_dir by
        # makedirs with a FileNotFoundError that named no key.
        cfg = tmp_path / "config.json"
        doc = write_config(cfg)
        doc.update(overrides)
        cfg.write_text(json.dumps(doc))     # json, not write_json: it refuses NaN
        assert main(["synthesize", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError",
                                                       "message": where}
        assert not (tmp_path / "out").exists()

    def test_model_n_checked_and_integrator_of_nonlinear_ignored(self):
        with pytest.raises(ConfigError, match=r"config.N \(or model.N\) .* got 16.7"):
            parse_config({"model": {"kind": "heat_torus", "N": 16.7}})
        cfg = parse_config({"model": {"kind": "heat_torus", "N": 16}, "scenarios": [
            {"name": "b", "nonlinear": True, "integrator": "euler"}]})
        assert cfg.N == 16 and cfg.scenarios[0]["integrator"] == "euler"

    @pytest.mark.parametrize("name", ["x/y", "/abs", "", "a\0b", 7, None])
    def test_scenario_name_must_be_one_path_component(self, tmp_path, capsys, name):
        # "x/y" passed synthesize, then simulate exited 1 with a raw
        # FileNotFoundError on the trace path
        cfg = tmp_path / "config.json"
        write_config(cfg, scenarios=[{"name": "ok"}, {"name": name}])
        assert main(["synthesize", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["message"] == (f"config.scenarios[1].name must be one path "
                                      f"component, got {name!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenarios", [
        [{"name": "a"}, {"name": "b", "integrator": "rk4"}, {"name": "a", "t_end": 2.0}],
        [{"t_end": 1.0}, {"name": "b"}, {"t_end": 2.0}]], ids=["named", "default"])
    def test_scenario_names_must_differ(self, tmp_path, capsys, scenarios):
        # two scenarios named a exited 0, the second overwriting the first's
        # traces and decay fit; two unnamed ones share the name "scenario"
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        write_config(cfg, scenarios=scenarios)
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        name = scenarios[2].get("name", "scenario")
        assert payload == {"error": "ConfigError", "message":
                           f"config.scenarios[2].name {name!r} is already taken"}
        assert not (tmp_path / "out" / "traces").exists()

    def test_distinct_r_labels_accepted(self):
        cfg = parse_config({"model": {"kind": "heat_torus", "N": 8},
                            "r_list": [0.0, 0.5, 2.0, 0.123456, 0.12346]})
        assert cfg.r_list == (0.0, 0.5, 2.0, 0.123456, 0.12346)

    @settings(max_examples=100, deadline=None)
    @given(kind_changes=st.sampled_from(sorted(_CONFIG_KEYS)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.lists(
            st.tuples(st.sampled_from(_CONFIG_KEYS[kind]), _JSON_VALUES),
            min_size=1, max_size=3))))
    def test_any_json_value_is_run_or_refused(self, kind_changes):
        # every key of a valid config (N = 8) of each model kind, its model
        # and params, one scenario, that scenario's u0 and the sweep takes
        # any JSON value: parse_config refuses only with a ConfigError, and
        # synthesize exits 0 or with the code of a FredstabError and its JSON
        # on stderr, never a traceback
        kind, changes = kind_changes
        doc = {"model": {"kind": kind, "N": 8, "params": {}}, "N": 8,
               "lambda0": 2.5, "r_list": [0.0],
               "scenarios": [{"name": "s", "u0": {"kind": "random", "seed": 0},
                              "t_end": 0.01, "samples": 2}],
               "sweep": {"lambda0": [2.5], "N": [8]}}
        if "gamma" in cli_io._PARAMS[kind]:
            doc["sweep"]["gamma"] = [0.0]
        for (*path, key), value in changes:
            section = doc
            for step in path:       # an earlier change may have replaced a section
                section = (section.get(step) if isinstance(section, dict) else
                           section[step] if isinstance(section, list) and section
                           and isinstance(step, int) else None)
            if isinstance(section, dict):
                section[key] = value
        text = json.dumps(doc)      # NaN and Infinity as JSON's reader reads them
        try:
            parse_config(json.loads(text))
            refused = None
        except ConfigError as exc:
            refused = exc
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                fh.write(text)
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(["synthesize", "--config", config,
                             "--out", os.path.join(tmp, "out")])
        # numpy's overflow warnings may come first, once per process
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            assert refused is None
        else:
            payload = json.loads(stderr.getvalue().splitlines()[-1])
            assert code == _DOCUMENTED_EXIT[getattr(errors, payload["error"])]
            assert refused is None or payload == {"error": "ConfigError",
                                                  "message": str(refused)}


class TestSynthesizeCommand:
    def test_writes_artifacts_and_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        code = main(["synthesize", "--config", str(cfg)])
        assert code == 0
        out = tmp_path / "out"
        for name in ("system.json", "law.json", "transform.json"):
            assert (out / name).exists()

    def test_output_dir_env_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "elsewhere"))
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "system.json").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_deterministic_artifacts(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        main(["synthesize", "--config", str(cfg)])
        first = {n: (tmp_path / "out" / n).read_bytes()
                 for n in ("system.json", "law.json", "transform.json")}
        main(["synthesize", "--config", str(cfg)])
        second = {n: (tmp_path / "out" / n).read_bytes()
                  for n in ("system.json", "law.json", "transform.json")}
        assert first == second

    def test_zero_coefficient_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        coeffs = [[1.0, 0.0]] * 8
        coeffs[2] = [0.0, 0.0]
        write_config(cfg, model={"kind": "heat_torus", "N": 8,
                                 "params": {"phi1_coeffs": coeffs}}, N=8)
        code = main(["synthesize", "--config", str(cfg)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AssumptionError"

    @pytest.mark.parametrize("kind, method", [("heat_torus", "direct"),
                                              ("schrodinger_ground", "direct"),
                                              ("schrodinger_ground", "iterative")])
    def test_law_tb_residual_is_the_normalization_residual(self, tmp_path, kind, method):
        # law.json's tb_residual comes from the certificate's r = 1 - C x and
        # equals ||C x - 1|| / sqrt(N) of the stored products bit for bit, C x
        # in real products on heat's real C
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"kind": kind, "N": 16, "params": {}}, lambda0=1.0,
                     method=method)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        system = system_from_json(json.loads((out / "system.json").read_text()))
        law = json.loads((out / "law.json").read_text())
        assert law["method"] == method
        assert len(law["branches"]) == len(system.branches)
        for b, bd in zip(system.branches, law["branches"]):
            x = from_cpairs(bd["products_x"], "products_x")
            C = synthesis.cauchy_system_matrix(b, law["lambda"])
            assert bd["tb_residual"] == np.linalg.norm(real_products(C, x) - 1.0) / np.sqrt(b.N)

    def test_iterative_divergence_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, method="iterative")
        code = main(["synthesize", "--config", str(cfg)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IterationDiverged"
        assert "contraction" in err["message"]

    def test_overflowing_iteration_prints_one_json_line(self, tmp_path):
        # the overflowing sweep put two numpy RuntimeWarnings on stderr before
        # the JSON object
        cfg = tmp_path / "config.json"
        write_config(cfg, N=64, model={"kind": "heat_torus", "N": 64, "params": {}},
                     lambda0=40.0, method="iterative")
        code, err, caught = run_stage("synthesize", "--config", str(cfg))
        assert (code, caught, len(err.splitlines())) == (3, [], 1)
        payload = json.loads(err)
        assert payload["error"] == "IterationDiverged"
        assert "observed contraction ratio inf" in payload["message"]

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e150])
    def test_stored_b_at_an_extreme_scale(self, tmp_path, scale):
        # at 1e-150 tb and opeq read exactly 0; at 1e-160 the stage exited 3
        # on a NaN opeq, with numpy RuntimeWarnings on stderr
        worst = {}
        for s in (1.0, scale):
            system = heat_torus_model(16)
            branches = tuple(replace(b, control_coeffs=b.control_coeffs * s)
                             for b in system.branches)
            write_json(tmp_path / "system.json", system_to_json(
                replace(system, branches=branches)))
            cfg = tmp_path / "config.json"
            write_config(cfg, drop=["N"], model={"path": str(tmp_path / "system.json")},
                         output_dir=str(tmp_path / f"out{s:g}"))
            assert run_stage("synthesize", "--config", str(cfg)) == (0, "", [])
            doc = json.loads((tmp_path / f"out{s:g}" / "transform.json").read_text())
            worst[s] = [max(bd[key] for bd in doc["branches"])
                        for key in ("tb_residual", "opeq_residual")]
        assert worst[scale] == pytest.approx(worst[1.0], rel=1e-12, abs=0)
        assert 0 < worst[1.0][0] and 0 < worst[1.0][1]

    @pytest.mark.parametrize("key, value, message", [
        ("delta", 1e308, "gain products on branch 1 are not finite"),
        ("lambda0", 1.75e20, "residual gates failed: tb=inf (gate 1e-08), opeq=nan"),
    ], ids=["delta-overflows-the-scan", "residuals-overflow"])
    def test_huge_shift_or_margin_exits_three(self, tmp_path, capsys, key, value, message):
        # delta = 1e308 ended in an OverflowError traceback from the scan's
        # step count; a NaN residual passed the gates and the law.json
        # writer raised a bare ValueError, after system.json was written
        cfg = tmp_path / "config.json"
        write_config(cfg, **{key: value})
        with np.errstate(all="ignore"):
            assert main(["synthesize", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverError" and err["message"].startswith(message)
        assert not (tmp_path / "out" / "system.json").exists()


    @pytest.mark.parametrize("mu", [0.0, 1e-300, {"grid": [0.0, 1.0], "values": [0.0, 0.0]}],
                             ids=["zero", "tiny", "zero-samples"])
    def test_vanishing_schrodinger_mu_exits_three(self, tmp_path, capsys, mu):
        # an all-zero mu ran the default x^2 profile, while 1e-300 was refused
        cfg = tmp_path / "config.json"
        write_config(cfg, N=8, model={"kind": "schrodinger_ground", "N": 8,
                                      "params": {"mu": mu, "points": 512}})
        assert main(["synthesize", "--config", str(cfg)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "SolverError", "message": "quadrature projection b_1 vanishes; "
                                               "the chosen mu does not excite every mode"}
        assert not (tmp_path / "out" / "system.json").exists()


class TestVerifyCommand:
    def test_fresh_artifacts_pass(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert main(["verify", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == "fredstab-report/2"
        assert report["spectrum_match_error"] <= 1e-6

    def test_tampered_gain_flagged(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        main(["synthesize", "--config", str(cfg)])
        law_path = tmp_path / "out" / "law.json"
        doc = json.loads(law_path.read_text())
        doc["branches"][0]["gains"][0][0] += 0.5
        law_path.write_text(json.dumps(doc))
        code = main(["verify", "--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "verification failed" in err["message"]

    @pytest.mark.parametrize("field", ["diagonal", "column_norms", "frobenius",
                                       "tb_residual"])
    def test_tampered_certificate_flagged(self, tmp_path, capsys, field):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        main(["synthesize", "--config", str(cfg)])
        path = tmp_path / "out" / "transform.json"
        doc = json.loads(path.read_text())
        bd = doc["branches"][1]
        if field == "diagonal":
            bd["diagonal"][3][0] += 1e-3
        elif field == "column_norms":
            bd["column_norms"][5] += 1e-3
        else:
            bd[field] += 1e-3
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", "--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "verification failed" in err["message"]
        assert "branch 2" in err["message"]

    @pytest.mark.parametrize("field", ["diagonal", "column_norms", "frobenius",
                                       "tb_residual", "opeq_residual", "gains"])
    def test_nan_flagged(self, tmp_path, capsys, field):
        # NaN compares false with everything, so it must count as drift
        cfg = tmp_path / "config.json"
        write_config(cfg)
        main(["synthesize", "--config", str(cfg)])
        name = "law.json" if field == "gains" else "transform.json"
        path = tmp_path / "out" / name
        doc = json.loads(path.read_text())
        bd = doc["branches"][1]
        if field in ("diagonal", "gains"):
            bd[field][3][0] = float("nan")
        elif field == "column_norms":
            bd[field][5] = float("nan")
        else:
            bd[field] = float("nan")
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("verification failed")
        assert f"branch 2: {field}" in message

    @pytest.mark.parametrize("value", [0.5, None])
    def test_law_tb_residual_checked(self, tmp_path, capsys, value):
        # law.json's tb_residual must be ||r|| / sqrt(N) of the rebuilt
        # certificate; a missing one counts as drift too
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert main(["verify", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "law.json"
        doc = json.loads(path.read_text())
        if value is None:
            del doc["branches"][0]["tb_residual"]
        else:
            doc["branches"][0]["tb_residual"] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "verification failed: branch 1: law.json tb_residual drift"

    @pytest.mark.parametrize("cut, message", [
        (lambda bd: None, "branch 2: certificate missing from transform.json"),
        (lambda bd: {**bd, "N": 8, "diagonal": bd["diagonal"][:8],
                     "column_norms": bd["column_norms"][:8]},
         "branch 2: certificate has N=8, the system has N=16"),
    ], ids=["missing", "other-N"])
    def test_certificate_missing_or_of_another_n(self, tmp_path, capsys, cut, message):
        # both were reported as a "transform matrix drift", but transform.json
        # stores no matrix
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "transform.json"
        doc = json.loads(path.read_text())
        doc["branches"] = [bd for bd in doc["branches"][:1] + [cut(doc["branches"][1])] if bd]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == (
            f"verification failed: {message}")

    @pytest.mark.parametrize("command", ["verify", "simulate", "report"])
    def test_schema_1_transform_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        main(["synthesize", "--config", str(cfg)])
        path = tmp_path / "out" / "transform.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({"lambda": doc["lambda"], "branches": [
            {"i": bd["i"], "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
             "tb_residual": bd["tb_residual"], "opeq_residual": bd["opeq_residual"]}
            for bd in doc["branches"]]}))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "fredstab-transform/2" in err["message"]

    def test_transform_json_linear_in_N(self, tmp_path):
        sizes = {}
        for N in (64, 128):
            cfg = tmp_path / f"config{N}.json"
            write_config(cfg, N=N, model={"kind": "heat_torus", "N": N, "params": {}},
                         output_dir=str(tmp_path / f"out{N}"))
            assert main(["synthesize", "--config", str(cfg)]) == 0
            sizes[N] = (tmp_path / f"out{N}" / "transform.json").stat().st_size
        assert sizes[128] <= 2.2 * sizes[64]

    @pytest.mark.parametrize("stage", ["verify", "simulate", "report"])
    def test_missing_artifact(self, tmp_path, capsys, stage):
        # a refused stage left an empty output directory behind
        cfg = tmp_path / "config.json"
        write_config(cfg)
        code = main([stage, "--config", str(cfg)])
        assert code == 1
        assert "missing artifact" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    def test_linear_scenario_traces(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, scenarios=[
            {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
             "samples": 32, "integrator": "semigroup_exact"}])
        main(["synthesize", "--config", str(cfg)])
        assert main(["simulate", "--config", str(cfg)]) == 0
        traces = tmp_path / "out" / "traces"
        assert (traces / "lin_modes.csv").exists()
        assert (traces / "lin_norms.csv").exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["decay_fits"]["lin"]["mu_hat"] > 0

    def test_nonlinear_scenario(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, lambda0=3.0, scenarios=[
            {"name": "semi", "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": 0},
             "t_end": 0.5, "samples": 20, "dt": 1e-3, "nonlinear": True}])
        main(["synthesize", "--config", str(cfg)])
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "traces" / "semi_modes.csv").exists()

    def test_deterministic_traces(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, r_list=[0.0, 0.5], scenarios=[
            {"name": "lin", "u0": {"kind": "random", "seed": 3}, "t_end": 1.0,
             "samples": 16, "integrator": "semigroup_exact"},
            {"name": "rk", "u0": {"kind": "random", "seed": 4}, "t_end": 0.05,
             "samples": 4, "dt": 1e-3, "integrator": "rk4"},
            {"name": "semi", "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": 5},
             "t_end": 0.1, "samples": 5, "dt": 1e-3, "nonlinear": True}])
        main(["synthesize", "--config", str(cfg)])
        traces = tmp_path / "out" / "traces"
        runs = []
        for _ in range(2):
            assert main(["simulate", "--config", str(cfg)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(traces.glob("*.csv"))})
        assert len(runs[0]) == 6
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("scenario, message", [
        ({"u0": {"kind": "basis", "branch": 9}}, "u0.branch must be at most 2, got 9"),
        ({"u0": {"kind": "basis", "n": 999}}, "u0.n must be at most 16, got 999"),
        ({"u0": {"kind": "burgers_sine", "mode": 99}, "nonlinear": True, "dt": 1e-3},
         "u0.mode must be at most 16, got 99"),
    ], ids=["branch", "n", "mode"])
    def test_u0_index_past_the_system_refused(self, tmp_path, capsys, scenario, message):
        # each ended in a raw IndexError
        cfg = tmp_path / "config.json"
        write_config(cfg, scenarios=[dict(name="u", t_end=0.01, samples=2, **scenario)])
        assert main(["synthesize", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError", "message": f"config.scenarios[0] ('u'): {message}"}

    @pytest.mark.parametrize("model, scenario, error, code, message", [
        (None, {"u0": {"kind": "basis", "n": 99}}, "ConfigError", 1,
         "u0.n must be at most 16, got 99"),
        (None, {"u0": {"kind": "basis", "branch": 3}}, "ConfigError", 1,
         "u0.branch must be at most 2, got 3"),
        (None, {"u0": {"kind": "burgers_sine", "mode": 17}, "nonlinear": True, "dt": 1e-3},
         "ConfigError", 1, "u0.mode must be at most 16, got 17"),
        ({"kind": "gribov", "N": 16, "params": {}}, {"nonlinear": True, "dt": 1e-3},
         "ConfigError", 1, "nonlinear scenarios need the heat_torus model"),
        (None, {"samples": 10 ** 12}, "ConfigError", 1, f"samples={10 ** 12} would need"),
        ({"kind": "heat_torus", "N": 16, "params": {"phi1_coeffs": [[1.0, 0.5]] * 16}},
         {"nonlinear": True, "samples": 8, "t_end": 0.1, "dt": 1e-3}, "ValueError", 1,
         "semilinear simulation needs exactly real gains"),
        (None, {"integrator": "rk4", "samples": 8, "t_end": 0.1, "dt": 0.5},
         "IntegratorError", 4, "rk4 step dt=0.5 exceeds the stability guard"),
        (lambda branches: branches[:1], {"nonlinear": True, "dt": 1e-3}, "ValueError", 1,
         "semilinear simulation expects the two-branch torus model"),
        (lambda branches: [branches[0], {**branches[1], "eigenvalues": branches[1][
            "eigenvalues"][:8], "control_coeffs": branches[1]["control_coeffs"][:8]}],
         {"nonlinear": True, "dt": 1e-3}, "ValueError", 1,
         "semilinear simulation expects the two-branch torus model, with one N"),
        (None, {"t_end": 5e-324, "samples": 8}, "ValueError", 1,
         "times must be strictly increasing"),
    ], ids=["n", "branch", "mode", "gribov-nonlinear", "samples", "complex-gains",
            "rk4-guard", "stored-one-branch", "stored-uneven-N", "repeated-times"])
    def test_refused_second_scenario_leaves_no_trace(self, tmp_path, capsys, model,
                                                     scenario, error, code, message):
        # every scenario is checked before the first one integrates; the
        # u0 and heat_torus refusals, and those of the integrators (complex
        # gains, the rk4 guard, a stored torus system of other than two
        # branches of one N, a time grid with repeated times), came after
        # the first one's traces.  A callable model cuts the branches of a
        # stored heat_torus N=16 system.
        cfg = tmp_path / "config.json"
        overrides = {}
        if callable(model):
            doc = system_to_json(heat_torus_model(16))
            doc["branches"] = model(doc["branches"])
            doc["m"] = len(doc["branches"])
            write_json(tmp_path / "system.json", doc)
            overrides = {"drop": ["N"], "model": {"path": str(tmp_path / "system.json")}}
        elif model:
            overrides = {"model": model}
        first = {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 0.1,
                 "samples": 4}
        write_config(cfg, **overrides,
                     scenarios=[first, {"name": "bad", "t_end": 0.01, "samples": 2, **scenario}])
        assert main(["synthesize", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == code
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert err["message"].startswith(f"config.scenarios[1] ('bad'): {message}")
        assert not (tmp_path / "out" / "traces").exists()
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("model, message", [
        ({"kind": "heat_torus", "params": {"gamma": "x"}},
         "config.model.params.gamma must be a finite number, got 'x'"),
        ({"kind": "heat_torus", "params": {"gamma": 5}},
         "config.model: ValueError: gamma=5.0 outside [0, (alpha-1)/2) = [0, 0.5)"),
        ({"kind": "heat_torus", "params": {"gama": 0.1}},
         "unknown keys in config.model.params: ['gama']"),
        ({"kind": "gribov", "params": {"eps": 1.0}},
         "config.model: ValueError: |eps| = 1.0 exceeds the cap 0.1"),
        ({"kind": "schrodinger_ground", "params": {"points": 10}},
         "config.model: ValueError: mu must be sampled on at least 512 quadrature points"),
    ], ids=["gamma-string", "gamma-5", "unknown-param", "gribov-eps", "schrodinger-points"])
    def test_failed_model_build_is_a_config_error(self, tmp_path, capsys, model, message):
        # each was a raw ValueError; an unknown params key was ignored
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"N": 16, **model})
        assert main(["synthesize", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError",
                                                       "message": message}
        assert not (tmp_path / "out" / "system.json").exists()

    @pytest.mark.parametrize("scenario", [{"integrator": "rk4"}, {"nonlinear": True}],
                             ids=["rk4", "burgers"])
    def test_step_below_the_time_resolution_refused_up_front(self, tmp_path, scenario):
        # t += dt stopped moving t and the march never ended; a fresh
        # interpreter with a timeout fails where the stage would hang
        cfg = tmp_path / "config.json"
        write_config(cfg, N=8, model={"kind": "heat_torus", "N": 8, "params": {}}, scenarios=[
            {"name": "a", "t_end": 0.1, "samples": 4},
            {"name": "b", "t_end": 1.0, "samples": 8, "dt": 1e-17, **scenario}])
        assert main(["synthesize", "--config", str(cfg)]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli_io.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "fredstab.cli_io", "simulate", "--config", str(cfg)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": "ValueError",
            "message": "config.scenarios[1] ('b'): step dt=1e-17 is below the spacing "
                       "2.22e-16 of the doubles at t=1: the march would stop advancing"}
        assert not (tmp_path / "out" / "traces").exists()

    def test_rk4_guard_exits_four(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, scenarios=[
            {"name": "stiff", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
             "samples": 8, "dt": 0.1, "integrator": "rk4"}])
        main(["synthesize", "--config", str(cfg)])
        code = main(["simulate", "--config", str(cfg)])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "IntegratorError"

    def test_burgers_blow_up_exits_four_at_the_step(self, tmp_path):
        # the finiteness check runs after every step: a check per sample
        # would report t=10, the first sample after the blow-up
        cfg = tmp_path / "config.json"
        write_config(cfg, scenarios=[
            {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
             "samples": 8},
            {"name": "semi", "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": 0},
             "t_end": 50.0, "samples": 10, "dt": 0.1, "nonlinear": True}])
        assert run_stage("synthesize", "--config", str(cfg)) == (0, "", [])
        assert run_stage("simulate", "--config", str(cfg)) == (4, (
            '{"error":"IntegratorError","message":"semilinear state blew up near t=5.8: '
            'the step dt=0.1 is unstable (the linear step map with the explicit feedback '
            'has spectral radius 1.223 > 1); reduce dt"}\n'), [])
        out = tmp_path / "out"
        assert sorted(p.name for p in (out / "traces").iterdir()) == [
            "lin_modes.csv", "lin_norms.csv"]
        assert not (out / "report.json").exists()


# one scenario of each integrator; the writer tests repeat them under new names
_WRITER_SCENARIOS = [
    {"name": "lin", "u0": {"kind": "random", "seed": 3}, "t_end": 1.0,
     "samples": 16, "integrator": "semigroup_exact"},
    {"name": "rk", "u0": {"kind": "random", "seed": 4}, "t_end": 0.05,
     "samples": 4, "dt": 1e-3, "integrator": "rk4"},
    {"name": "semi", "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": 5},
     "t_end": 0.1, "samples": 5, "dt": 1e-3, "nonlinear": True}]


def _writer_config(tmp_path, copies=1):
    cfg = tmp_path / "config.json"
    scenarios = [dict(sc, name=f"{sc['name']}{k}")
                 for k in range(copies) for sc in _WRITER_SCENARIOS]
    write_config(cfg, r_list=[0.0, 0.5], scenarios=scenarios)
    assert main(["synthesize", "--config", str(cfg)]) == 0
    return cfg


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTraceWriters:
    """simulate writes *_modes.csv in sample-range pieces from forked children,
    at most one per core."""

    @pytest.mark.parametrize("cores, copies", [(1, 1), (2, 1), (2, 3), (3, 1)],
                             ids=["one-core", "two-cores", "more-scenarios-than-cores",
                                  "three-cores"])
    def test_forked_writers_keep_the_bytes(self, tmp_path, monkeypatch, cores, copies):
        cfg = _writer_config(tmp_path, copies)
        traces = []
        for name in ("simulate_closed_loop", "simulate_burgers"):
            def recording(*args, _run=getattr(simulate, name), **kwargs):
                traces.append(_run(*args, **kwargs))
                return traces[-1]
            monkeypatch.setattr(simulate, name, recording)
        # pieces the parent writes itself at the final join (a child's calls
        # are not seen here)
        parent, in_parent, write = os.getpid(), [], simulate.write_modes_csv

        def recording_write(trace, path, start=0, stop=None):
            if os.getpid() == parent:
                in_parent.append(path)
            write(trace, path, start, stop)

        monkeypatch.setattr(simulate, "write_modes_csv", recording_write)
        # writers alive at each fork, from the parent's own bookkeeping
        alive, at_fork = set(), []
        fork, waitpid = os.fork, os.waitpid

        def counting_fork():
            at_fork.append(len(alive))
            pid = fork()
            if pid:
                alive.add(pid)
            return pid

        def counting_waitpid(pid, flags):
            done, status = waitpid(pid, flags)
            alive.discard(done)
            return done, status

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "waitpid", counting_waitpid)
        assert main(["simulate", "--config", str(cfg)]) == 0
        monkeypatch.undo()
        _assert_no_child_left()
        # every scenario has more samples than cores: one piece per core
        assert len(at_fork) + len(in_parent) == 3 * copies * cores
        assert max(at_fork) < cores and not alive
        ref = tmp_path / "ref"
        ref.mkdir()
        out = tmp_path / "out" / "traces"
        for k in range(copies):
            for sc, trace in zip(_WRITER_SCENARIOS, traces[3 * k:3 * k + 3]):
                name = f"{sc['name']}{k}"
                trace_to_csv(trace, ref / f"{name}_modes.csv", ref / f"{name}_norms.csv")
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert written == {p.name: p.read_bytes() for p in ref.iterdir()}

    def test_inline_without_fork(self, tmp_path, monkeypatch):
        cfg = _writer_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg)]) == 0
        forked = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        monkeypatch.delattr(os, "fork")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()} == forked

    def _both_paths(self, tmp_path, monkeypatch, capfd):
        """Exit code and stderr of simulate, forked and then inline."""
        cfg = tmp_path / "config.json"
        results = []
        for inline in (False, True):
            with monkeypatch.context() as mp:
                if inline:
                    mp.delattr(os, "fork")
                code = main(["simulate", "--config", str(cfg)])
            _assert_no_child_left()
            results.append((code, capfd.readouterr().err))
        return results

    def test_unwritable_modes_file(self, tmp_path, monkeypatch, capfd):
        _writer_config(tmp_path)
        (tmp_path / "out" / "traces").mkdir()
        (tmp_path / "out" / "traces" / "rk0_modes.csv").mkdir()
        capfd.readouterr()
        forked, inline = self._both_paths(tmp_path, monkeypatch, capfd)
        assert forked == inline
        code, err = forked
        assert code == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "IsADirectoryError"

    def test_unwritable_modes_file_stops_at_that_scenario(self, tmp_path, monkeypatch,
                                                          capfd):
        cfg = tmp_path / "config.json"
        write_config(cfg, scenarios=[dict(sc, name=name) for sc, name
                                     in zip(_WRITER_SCENARIOS, "abc")])
        assert main(["synthesize", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        (out / "traces").mkdir()
        (out / "traces" / "a_modes.csv").mkdir()
        before = sorted(p.name for p in out.iterdir())
        shutil.copytree(out, tmp_path / "pristine")
        capfd.readouterr()
        listings = []
        with monkeypatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            for inline in (False, True):
                shutil.rmtree(out)
                shutil.copytree(tmp_path / "pristine", out)
                if inline:
                    mp.delattr(os, "fork")
                code = main(["simulate", "--config", str(cfg)])
                _assert_no_child_left()
                listings.append((code, capfd.readouterr().err,
                                 sorted(str(p.relative_to(out)) for p in out.rglob("*"))))
        assert listings[0] == listings[1]
        code, err, names = listings[0]
        assert code == 1 and json.loads(err)["error"] == "IsADirectoryError"
        assert names == sorted(before + ["traces/a_modes.csv", "traces/a_norms.csv"])

    def test_failed_writer_stops_the_next_scenario(self, tmp_path, monkeypatch, capfd):
        # on one core each modes file is one piece; lin0's failed writer is
        # reaped by a later start() or the final join, and its error stops
        # the stage with the files of the later scenarios removed: no semi0
        # trace and no report
        _writer_config(tmp_path)

        def fail(trace, path, start=0, stop=None):
            raise OSError(f"disk full writing {os.path.basename(path)}")

        monkeypatch.setattr(simulate, "write_modes_csv", fail)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        capfd.readouterr()
        forked, inline = self._both_paths(tmp_path, monkeypatch, capfd)
        assert forked == inline
        assert json.loads(forked[1]) == {"error": "OSError",
                                         "message": "disk full writing lin0_modes.csv"}
        out = tmp_path / "out"
        assert not (out / "report.json").exists()
        assert not list((out / "traces").glob("semi0_*"))

    def test_failed_writer_leaves_the_inline_traces(self, tmp_path, monkeypatch, capfd):
        # the forked run learns of lin0's failure after rk0_norms.csv is
        # written; it removes that file, and those after it, before raising
        cfg = _writer_config(tmp_path)
        out = tmp_path / "out"
        shutil.copytree(out, tmp_path / "pristine")

        def fail(trace, path, start=0, stop=None):
            raise OSError(f"disk full writing {os.path.basename(path)}")

        listings = []
        with monkeypatch.context() as mp:
            mp.setattr(simulate, "write_modes_csv", fail)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            for inline in (False, True):
                shutil.rmtree(out)
                shutil.copytree(tmp_path / "pristine", out)
                if inline:
                    mp.delattr(os, "fork")
                assert main(["simulate", "--config", str(cfg)]) == 1
                _assert_no_child_left()
                listings.append(sorted(str(p.relative_to(out)) for p in out.rglob("*")))
        capfd.readouterr()
        forked, inline = listings
        assert "traces/lin0_norms.csv" in inline
        assert forked == sorted(inline + ["traces/lin0_modes.csv"])

    def test_writer_failing_at_the_final_join_leaves_the_inline_report(
            self, tmp_path, monkeypatch, capfd):
        # lin1's writer is still running when the report is computed; its
        # error is reaped only at the final join, so no report.json may be
        # written, and verify's report stays as the inline run leaves it.
        # The join still appends lin0's part file: every file but the empty
        # lin1_modes.csv, which the forked run creates before its first fork
        # (test_failed_writer_leaves_the_inline_traces), has the inline bytes
        cfg = tmp_path / "config.json"
        write_config(cfg, scenarios=[
            {"name": f"lin{k}", "u0": {"kind": "random", "seed": k}, "t_end": 1.0,
             "samples": 16} for k in range(2)])
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert main(["verify", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        shutil.copytree(out, tmp_path / "pristine")
        write = simulate.write_modes_csv

        def fail_second(trace, path, start=0, stop=None):
            # every piece of lin1_modes.csv fails, its part files included
            if not os.path.basename(path).startswith("lin1_modes.csv"):
                return write(trace, path, start, stop)
            time.sleep(0.5)
            raise OSError("disk full writing lin1_modes.csv")

        runs = []
        with monkeypatch.context() as mp:
            mp.setattr(simulate, "write_modes_csv", fail_second)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            for inline in (False, True):
                shutil.rmtree(out)
                shutil.copytree(tmp_path / "pristine", out)
                if inline:
                    mp.delattr(os, "fork")
                code = main(["simulate", "--config", str(cfg)])
                _assert_no_child_left()
                runs.append((code, capfd.readouterr().err, sorted(os.listdir(out)),
                             (out / "report.json").read_bytes(),
                             {str(p.relative_to(out)): p.read_bytes()
                              for p in out.rglob("*") if p.is_file()
                              and str(p.relative_to(out)) != "traces/lin1_modes.csv"}))
        forked, inline = runs
        assert forked == inline
        assert forked[0] == 1 and json.loads(forked[1]) == {
            "error": "OSError", "message": "disk full writing lin1_modes.csv"}
        assert forked[3] == (tmp_path / "pristine" / "report.json").read_bytes()
        assert {"traces/lin0_modes.csv", "traces/lin1_norms.csv"} <= set(forked[4])

    def test_error_in_writer_keeps_type_and_exit_code(self, tmp_path, monkeypatch, capfd):
        # on more than one core every piece fails, and the first piece's
        # error, the one that names lin0_modes.csv, is raised
        _writer_config(tmp_path)

        def fail(trace, path, start=0, stop=None):
            raise errors.IntegratorError(f"cannot write {os.path.basename(path)}")

        monkeypatch.setattr(simulate, "write_modes_csv", fail)
        capfd.readouterr()
        forked, inline = self._both_paths(tmp_path, monkeypatch, capfd)
        assert forked == inline
        assert forked[0] == 4
        assert json.loads(forked[1]) == {"error": "IntegratorError",
                                         "message": "cannot write lin0_modes.csv"}

    @pytest.mark.parametrize("cores", [2, 3])
    def test_writer_failing_past_the_first_piece_leaves_the_inline_files(
            self, tmp_path, monkeypatch, capfd, cores):
        # the writer fails after lin0's last sample: forked, only the last
        # piece (start > 0) fails, inline the one call that writes the file
        cfg = _writer_config(tmp_path)
        out = tmp_path / "out"
        shutil.copytree(out, tmp_path / "pristine")
        write = simulate.write_modes_csv

        def fail_at_the_end(trace, path, start=0, stop=None):
            write(trace, path, start, stop)
            if (os.path.basename(path).startswith("lin0_modes.csv")
                    and stop in (None, len(trace.times))):
                raise OSError("disk full after the last sample of lin0")

        runs = []
        with monkeypatch.context() as mp:
            mp.setattr(simulate, "write_modes_csv", fail_at_the_end)
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            for inline in (False, True):
                shutil.rmtree(out)
                shutil.copytree(tmp_path / "pristine", out)
                if inline:
                    mp.delattr(os, "fork")
                code = main(["simulate", "--config", str(cfg)])
                _assert_no_child_left()
                runs.append((code, capfd.readouterr().err,
                             sorted(str(p.relative_to(out)) for p in out.rglob("*"))))
        forked, inline = runs
        assert forked == inline
        assert forked[0] == 1 and json.loads(forked[1]) == {
            "error": "OSError", "message": "disk full after the last sample of lin0"}
        assert "traces/lin0_modes.csv" in forked[2]
        assert not [name for name in forked[2] if ".part" in name]


# the artifacts each stage writes, as globs under the output directory
_STAGE_WRITES = {"synthesize": ("system.json", "law.json", "transform.json"),
                 "verify": ("report.json",), "simulate": ("traces/*", "report.json"),
                 "report": ("report.json", "plots/*"), "sweep": ("sweep.csv",)}


class TestRerun:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_stale_artifacts_are_written_over(self, tmp_path, monkeypatch, cores):
        # every writer overwrites its file in place and cuts it to the new
        # length: stale bytes after each artifact a stage writes, and stale
        # part files of an interrupted simulate, leave no trace in a rerun
        cfg = tmp_path / "config.json"
        write_config(cfg, r_list=[0.0, 0.5], scenarios=_WRITER_SCENARIOS,
                     sweep={"lambda0": [2.5], "N": [8, 16]})
        out = tmp_path / "out"

        def hashes():
            return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in out.rglob("*") if p.is_file()}

        for stage in _STAGE_WRITES:
            assert main([stage, "--config", str(cfg)]) == 0
        _assert_no_child_left()
        fresh = hashes()
        assert {"sweep.csv", "traces/lin_modes.csv", "plots/lin_decay.svg"} <= set(fresh)
        assert set(fresh) == {str(p.relative_to(out)) for globs in _STAGE_WRITES.values()
                              for g in globs for p in out.glob(g)}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        for stage, globs in _STAGE_WRITES.items():
            # a later stage reads what an earlier one wrote: spoil a file
            # only just before the stage that writes it over
            for path in [p for g in globs for p in out.glob(g)]:
                with open(path, "ab") as fh:
                    fh.write(b"stale\n" * 512)
            if stage == "simulate":
                for sc in _WRITER_SCENARIOS:
                    for j in range(1, cores):
                        (out / "traces" / f"{sc['name']}_modes.csv.part{j}").write_bytes(
                            b"stale part\n" * 4096)
            assert main([stage, "--config", str(cfg)]) == 0
        _assert_no_child_left()
        assert hashes() == fresh


class TestSweepCommand:
    def test_grid_rows_and_monotone_decay(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [1.0, 2.0, 4.0]}, N=12,
                     model={"kind": "heat_torus", "N": 12, "params": {}})
        code = main(["sweep", "--config", str(cfg), "--jobs", "2"])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4
        header = rows[0].split(",")
        mu_idx = header.index("mu_hat")
        mus = [float(r.split(",")[mu_idx]) for r in rows[1:]]
        assert mus[0] < mus[1] < mus[2]

    def test_partial_failures_recorded(self, tmp_path):
        cfg = tmp_path / "config.json"
        # method=iterative fails at these shifts on the torus model; rows
        # must record the error and the run must still exit 0
        write_config(cfg, method="iterative", sweep={"lambda0": [2.5]}, N=12,
                     model={"kind": "heat_torus", "N": 12, "params": {}})
        code = main(["sweep", "--config", str(cfg)])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert "IterationDiverged" in rows[1]

    def test_failed_decay_fit_is_error_row(self, tmp_path):
        # Schrodinger N=16 at lambda0 = 800 passes the residual gates, but its
        # state underflows to norm 0 inside the fit window; that point's row
        # names the failed fit and keeps its certificates, and the other
        # point and the stage still succeed
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"kind": "schrodinger_ground", "N": 16, "params": {}},
                     sweep={"lambda0": [2.0, 800.0]})
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == "" and float(rows[0]["mu_hat"]) > 0
        assert float(rows[1]["tb_residual"]) <= cli_io.TB_GATE
        assert rows[1]["error"] == ("decay fit failed: ValueError: nonpositive norms "
                                    "in the fit window (zero state?)")
        assert rows[1]["mu_hat"] == "" and rows[1]["kappa_0"] != ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_residual_gates_fail_the_row(self, tmp_path, capsys, jobs):
        # heat N=16 at lambda0 = 800: synthesize exits 3 on tb = 8.8e5, which
        # opeq (1e-15) does not flag; at kappa about 1e21, r is rounding noise
        # whose digits follow the summation order of C x.  The sweep row of that
        # point carries synthesize's message, keeps its certificate columns and
        # fits no decay
        cfg = tmp_path / "config.json"
        write_config(cfg, lambda0=800.0)
        assert main(["synthesize", "--config", str(cfg)]) == 3
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("residual gates failed: tb=8.751e+05 (gate 1e-08), opeq=")
        write_config(cfg, sweep={"lambda0": [2.0, 800.0]})
        assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == "" and float(rows[0]["mu_hat"]) > 0
        assert rows[1]["error"] == f"SolverError: {message}"
        assert rows[1]["mu_hat"] == ""
        assert float(rows[1]["tb_residual"]) > 8e5
        assert all(rows[1][key] != "" for key in ("lambda", "opeq_residual", "spectrum_match",
                                                  "sup_product", "kappa_0"))

    def test_nan_residual_fails_the_gates(self):
        assert cli_io._gate_failure(1e-16, 1e-16) is None
        for tb, opeq in ((math.nan, 0.0), (0.0, math.nan), (2e-8, 0.0), (0.0, 2e-8)):
            assert cli_io._gate_failure(tb, opeq).startswith("residual gates failed: tb=")

    def test_point_past_matrix_budget_is_error_row(self, tmp_path, monkeypatch):
        # the model past the budget is tried once; each of its points gets
        # the error row and the other model's points still run
        tried = []
        build = cli_io._build_system

        def counting_build(cfg, N=None, gamma=None):
            tried.append(N)
            return build(cfg, N=N, gamma=gamma)

        monkeypatch.setattr(cli_io, "_build_system", counting_build)
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [2.5, 3.0], "N": [12, MAX_N + 1]}, N=12,
                     model={"kind": "heat_torus", "N": 12, "params": {}})
        for jobs in ("1", "2"):
            tried.clear()
            assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 0
            with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [(row["lambda0"], row["N"]) for row in rows] == [
                ("2.5", "12"), ("2.5", str(MAX_N + 1)), ("3.0", "12"), ("3.0", str(MAX_N + 1))]
            assert rows[0]["error"] == rows[2]["error"] == ""
            assert float(rows[0]["tb_residual"]) <= 1e-8
            for row in rows[1::2]:
                assert row["error"].startswith(f"ConfigError: N={MAX_N + 1} would need")
                assert row["tb_residual"] == row["mu_hat"] == ""
            assert tried == [12, MAX_N + 1], jobs

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_model_built_once(self, tmp_path, monkeypatch, jobs):
        # a model depends on (N, gamma) only: 3 lambda0 x 2 N is 2 builds,
        # made in the calling thread in grid order, before the points run,
        # and the standing assumptions are checked once per branch of each
        built, checked = [], []
        build = cli_io._model
        check = cli_io.verify_assumptions

        def counting_build(kind, N, params):
            built.append((N, threading.current_thread() is threading.main_thread()))
            return build(kind, N, params)

        def counting_check(branch):
            checked.append((branch.N, branch.index))
            return check(branch)

        monkeypatch.setattr(cli_io, "_model", counting_build)
        monkeypatch.setattr(cli_io, "verify_assumptions", counting_check)
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [1.0, 2.0, 4.0], "N": [12, 16]}, N=12,
                     model={"kind": "heat_torus", "N": 12, "params": {}})
        assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 0
        assert built == [(12, True), (16, True)]
        assert checked == [(12, 1), (12, 2), (16, 1), (16, 2)]
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 and not any(row["error"] for row in rows)

    def test_schrodinger_bytes_do_not_depend_on_jobs(self, tmp_path):
        # the points of one model share its system across the threads
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [1.0, 2.5], "N": [8, 12]}, N=8,
                     model={"kind": "schrodinger_ground", "N": 8, "params": {"points": 512}})
        path = tmp_path / "out" / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        serial = path.read_bytes()
        path.unlink()
        assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == 0
        assert path.read_bytes() == serial
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and not any(row["error"] for row in rows)

    def test_kappa_0_left_empty_outside_the_admissible_interval(self, tmp_path):
        # gribov with r = 3 has beta = -3: r = 0 lies outside (-5.5, -0.5)
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"kind": "gribov", "N": 32, "params": {"r": 3}}, N=32,
                     lambda0=2.0, sweep={"lambda0": [2.0]})
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert main(["verify", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["conditioning"] == {}
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["error"] == ""
        assert row["kappa_0"] == ""
        assert float(row["tb_residual"]) <= 1e-8

    def test_one_job_runs_without_a_thread_pool(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [1.0, 2.0, 4.0]}, N=12,
                     model={"kind": "heat_torus", "N": 12, "params": {}})
        path = tmp_path / "out" / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--jobs", "2"]) == 0
        pooled = path.read_bytes()
        path.unlink()

        def refuse(*args, **kwargs):
            raise AssertionError("thread pool constructed")

        monkeypatch.setattr(cli_io, "ThreadPoolExecutor", refuse)
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        assert path.read_bytes() == pooled

    def test_failed_model_build_gives_error_rows(self, tmp_path):
        # gamma = 5.0 is outside [0, 0.5) on the torus: its model build
        # raised a raw ValueError that aborted the whole sweep
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [2.5], "gamma": [0.1, 5.0]})
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["gamma"], row["error"]) for row in rows] == [
            ("0.1", ""), ("5.0", "ConfigError: config.model: ValueError: "
                                 "gamma=5.0 outside [0, (alpha-1)/2) = [0, 0.5)")]
        assert float(rows[0]["tb_residual"]) <= 1e-8

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_gate_gives_error_rows(self, tmp_path, monkeypatch, jobs):
        # branch 2 grows like n^5 against a declared n^2: the gate fails,
        # once for the model, and each point's row carries its text
        checked = []
        check = cli_io.verify_assumptions

        def counting_check(branch):
            checked.append(branch.index)
            return check(branch)

        monkeypatch.setattr(cli_io, "verify_assumptions", counting_check)
        path = tmp_path / "system.json"
        write_json(path, {"label": "stored", "m": 2, "branches": [
            {"i": i, "alpha": 2.0, "beta": 0.0, "gamma": 0.0,
             "eigenvalues": [[-float(n) ** power, 0.0] for n in range(1, 9)],
             "control_coeffs": [[1.0, 0.0]] * 8} for i, power in ((1, 2), (2, 5))]})
        cfg = tmp_path / "config.json"
        write_config(cfg, drop=["N"], model={"path": str(path)},
                     sweep={"lambda0": [2.5, 3.0]})
        assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gate = ("AssumptionError: standing assumptions failed on branch(es) [2]; "
                "see the verdict details in the report")
        assert [(row["lambda0"], row["error"]) for row in rows] == [("2.5", gate),
                                                                    ("3.0", gate)]
        assert all(row["tb_residual"] == row["mu_hat"] == "" for row in rows)
        assert checked == [1, 2]

    @pytest.mark.parametrize("mu", [0.0, {"grid": [0.0, 1.0], "values": [0.0, 0.0]}],
                             ids=["zero", "zero-samples"])
    def test_vanishing_schrodinger_mu_gives_error_rows(self, tmp_path, mu):
        cfg = tmp_path / "config.json"
        write_config(cfg, N=8, model={"kind": "schrodinger_ground", "N": 8,
                                      "params": {"mu": mu, "points": 512}},
                     sweep={"lambda0": [1.0, 2.0]})
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["error"] for row in rows] == [
            "SolverError: quadrature projection b_1 vanishes; "
            "the chosen mu does not excite every mode"] * 2

    def test_default_jobs_are_the_usable_cores(self, tmp_path, monkeypatch):
        # --jobs defaulted to os.cpu_count(), every core of the host, while
        # the trace writers counted the affinity mask
        def refuse(*args, **kwargs):
            raise AssertionError("thread pool constructed")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli_io, "ThreadPoolExecutor", refuse)
        cfg = tmp_path / "config.json"
        write_config(cfg, sweep={"lambda0": [2.0, 2.5]})
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert cli_io._TraceWriters().limit == 1

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["sweep", "--config", str(cfg)]) == 1


class TestReportCommand:
    def test_nan_certificate_is_refused(self, tmp_path, capsys):
        # the worst over branches took the builtin max, which keeps the first
        # value when the other is NaN: report wrote branch 1's clean tb and
        # sup_product over branch 2's NaN and exited 0, while verify exited 1
        cfg = tmp_path / "config.json"
        write_config(cfg, N=8, model={"kind": "heat_torus", "N": 8, "params": {}})
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert main(["report", "--config", str(cfg)]) == 0
        before = (out / "report.json").read_bytes()
        law = json.loads((out / "law.json").read_text())
        for key in ("products_x", "gains"):
            law["branches"][1][key][2] = [math.nan, 0.0]
        (out / "law.json").write_text(json.dumps(law))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--config", str(cfg)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # it then exited 1 with the JSON writer's "non-finite float cannot be
        # serialized canonically"; verify named the branch and field
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "law.json holds non-finite values: "
                                              "branch 2: gains; branch 2: products_x"}
        assert (out / "report.json").read_bytes() == before

    def test_simulate_names_a_nan_law(self, tmp_path, capsys):
        # as report: simulate exited 1 with the JSON writer's text once the
        # traces were written
        cfg = tmp_path / "config.json"
        write_config(cfg, N=8, model={"kind": "heat_torus", "N": 8, "params": {}},
                     scenarios=[{"name": "lin", "samples": 8}])
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert main(["report", "--config", str(cfg)]) == 0
        before = (out / "report.json").read_bytes()
        law = json.loads((out / "law.json").read_text())
        for key in ("products_x", "gains"):
            law["branches"][1][key][2] = [math.nan, 0.0]
        (out / "law.json").write_text(json.dumps(law))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "law.json holds non-finite values: "
                                              "branch 2: gains; branch 2: products_x"}
        assert (out / "report.json").read_bytes() == before
        assert not (out / "traces").exists()

    @pytest.mark.parametrize("text, where, message", [
        ("", "", "empty file, no header row"),
        ("t,norm_r0\r\n0.0,1.0\r\n0.5\r\n", " row 3", "1 fields, the header has 2"),
        ("t,norm_r0\r\n0.0,abc\r\n", " row 2", "could not convert string to float: 'abc'"),
    ], ids=["empty", "short-row", "not-a-number"])
    def test_malformed_norms_file_is_named(self, tmp_path, capsys, text, where, message):
        # each exited 1 with a message that named neither the file nor the row
        cfg = tmp_path / "config.json"
        write_config(cfg, N=8, model={"kind": "heat_torus", "N": 8, "params": {}},
                     scenarios=[{"name": "lin", "samples": 8}])
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg)]) == 0
        (out / "traces").mkdir()
        (out / "traces" / "lin_norms.csv").write_bytes(text.encode())
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"{out / 'traces' / 'lin_norms.csv'}{where}: {message}"}
        assert not (out / "report.json").exists()

    def test_plots_emitted(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, r_list=[0.0, 1.0], scenarios=[
            {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
             "samples": 16}])
        main(["synthesize", "--config", str(cfg)])
        main(["simulate", "--config", str(cfg)])
        assert main(["report", "--config", str(cfg)]) == 0
        plots = tmp_path / "out" / "plots"
        names = sorted(os.listdir(plots))
        assert "gains_branch1.svg" in names
        assert "spectrum_branch1.svg" in names
        assert "conditioning.svg" in names
        assert "conditioning_vs_N.svg" in names
        assert "lin_decay.svg" in names
        for n in names:
            assert (plots / n).read_text().startswith("<?xml")

    def test_plateau_reads_kappa_0_from_the_certificate(self, tmp_path, monkeypatch):
        # the plateau's level N is branch 1's kappa_0, which the report's
        # certificate holds; it was computed a second time, from direct gains
        cfg = tmp_path / "config.json"
        write_config(cfg, N=64, model={"kind": "heat_torus", "N": 64, "params": {}})
        assert main(["synthesize", "--config", str(cfg)]) == 0
        levels = []
        weighted = transform._weighted_conditioning

        def counting(kernel, gains, r_list):
            levels.extend([kernel.branch.N] if r_list else [])
            return weighted(kernel, gains, r_list)

        monkeypatch.setattr(transform, "_weighted_conditioning", counting)
        assert main(["report", "--config", str(cfg)]) == 0
        assert sorted(levels) == [16, 32, 64]
        out = tmp_path / "out"
        kappa_0 = json.loads((out / "report.json").read_text())["conditioning"]["0"]
        svg = (out / "plots" / "conditioning_vs_N.svg").read_text().splitlines()
        assert svg[svg.index("  series: kappa_0") + 3] == f"    64.0,{kappa_0!r}"

    def test_decay_fits_survive_report(self, tmp_path):
        # r_list[0] = 0.5 is the second norm column; "short" is too short to fit
        cfg = tmp_path / "config.json"
        write_config(cfg, r_list=[0.5, 0.0], scenarios=[
            {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
             "samples": 16},
            {"name": "short", "u0": {"kind": "random", "seed": 1}, "t_end": 1.0,
             "samples": 3},
            {"name": "semi", "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": 2},
             "t_end": 0.2, "samples": 10, "dt": 1e-3, "nonlinear": True}])
        report_path = tmp_path / "out" / "report.json"
        main(["synthesize", "--config", str(cfg)])
        assert main(["report", "--config", str(cfg)]) == 0
        assert json.loads(report_path.read_text())["decay_fits"] is None
        assert main(["simulate", "--config", str(cfg)]) == 0
        simulated = json.loads(report_path.read_text())["decay_fits"]
        assert set(simulated) == {"lin", "short", "semi"}
        assert simulated["short"] is None and simulated["lin"] is not None
        assert main(["report", "--config", str(cfg)]) == 0
        assert json.loads(report_path.read_text())["decay_fits"] == simulated
        # traces without a column for the first r give no fit, not an error
        write_config(cfg, r_list=[1.0], scenarios=[{"name": "lin"}])
        assert main(["report", "--config", str(cfg)]) == 0
        assert json.loads(report_path.read_text())["decay_fits"] == {"lin": None}

    def test_decay_plots_follow_the_fits(self, tmp_path):
        # a decay plot draws the column the fit reads, norm_r of r_list[0]
        # (not the smallest r), and only for a configured scenario
        cfg = tmp_path / "config.json"
        lin = {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
               "samples": 16}
        write_config(cfg, r_list=[0.5, 0.0], scenarios=[lin])
        for stage in ("synthesize", "simulate", "report"):
            assert main([stage, "--config", str(cfg)]) == 0
        plots = tmp_path / "out" / "plots"
        svg = (plots / "lin_decay.svg").read_text()
        assert "series: norm_r0.5\n" in svg and "series: norm_r0\n" not in svg
        shutil.rmtree(plots)
        write_config(cfg, r_list=[0.5, 0.0], scenarios=[dict(lin, name="renamed")])
        assert main(["report", "--config", str(cfg)]) == 0
        assert not [name for name in os.listdir(plots) if name.endswith("_decay.svg")]
        assert json.loads((tmp_path / "out" / "report.json").read_text())["decay_fits"] is None

    def test_one_report_per_directory(self, tmp_path):
        # verify, simulate and report write report.json through one writer
        cfg = tmp_path / "config.json"
        write_config(cfg, r_list=[0.0, 0.5], scenarios=[
            {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
             "samples": 16},
            {"name": "semi", "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": 2},
             "t_end": 0.2, "samples": 10, "dt": 1e-3, "nonlinear": True}])
        path = tmp_path / "out" / "report.json"
        assert main(["synthesize", "--config", str(cfg)]) == 0
        assert main(["simulate", "--config", str(cfg)]) == 0
        simulated = path.read_bytes()
        assert main(["verify", "--config", str(cfg)]) == 0
        fits = json.loads(path.read_text())["decay_fits"]
        assert set(fits) == {"lin", "semi"} and fits["lin"]["mu_hat"] > 0
        assert path.read_bytes() == simulated
        assert main(["report", "--config", str(cfg)]) == 0
        assert path.read_bytes() == simulated

    @pytest.mark.parametrize("kind, method, builds, weights_taken, closed_forms, norms", [
        ("heat_torus", "direct", 2, (0, 1, 2, 3, 2), (2, 1, 2, 5, 4), (0, 4, 4, 8, 2)),
        ("schrodinger_ground", "both", 1, (0, 0, 1, 0, 1), (1, 0, 1, 2, 1), (0, 2, 2, 4, 1)),
    ], ids=["heat", "schrodinger-both"])
    def test_cauchy_builds_per_stage(self, tmp_path, monkeypatch, kind, method, builds,
                                     weights_taken, closed_forms, norms):
        # Each stage builds one BranchKernel per branch as soon as it knows
        # the shift, and every consumer reads its C: both gain routes (the
        # fixed-point sweeps too), the certificates (tb, opeq, the secular
        # steps of the spectrum check and plot, and on branch 1 the
        # conditioning), the semigroup, the report's S_c and its plateau
        # (leading blocks of the full C).  So every stage, and each sweep
        # point, builds one C per branch: 2 on heat, 1 on Schrodinger.
        # Per stage synthesize/verify/simulate/report/sweep (one point):
        # - the weights w of T^-1, once per kernel on first use.  Heat:
        #   0, 1 (branch 1's conditioning), 2 (the semigroup of each branch;
        #   the conditioning reuses branch 1's), 3 (1 + the plateau's N/4 and
        #   N/2 levels; its level N is the certificate's), 2 (as simulate).
        #   Schrodinger is skew-adjoint: kappa_r needs no w, so only the
        #   semigroup reads it;
        # - the closed form, once per kernel for the products (the direct
        #   gains, and on Schrodinger w = conj(x)) and once for a w of its
        #   own on heat.  Heat: 2, 1, 2, 5 (branch 1's w + the two plateau
        #   levels' products and w), 4 (gains and w).  Schrodinger: 1, 0, 1
        #   (the semigroup's w), 2 (the plateau levels' gains), 1 (gains and w);
        # - the Lanczos norms of the conditioning (r_list [0, 0.5]; the
        #   sweep's r = 0): two per kappa_r on heat, one on Schrodinger.
        cfg = tmp_path / "config.json"
        write_config(cfg, N=64, model={"kind": kind, "N": 64, "params": {}}, method=method,
                     r_list=[0.0, 0.5], sweep={"lambda0": [2.5]}, scenarios=[
                         {"name": "lin", "u0": {"kind": "random", "seed": 0},
                          "t_end": 1.0, "samples": 16}])
        calls, weights, products, lanczos = [], [], [], []
        build = synthesis.cauchy_system_matrix
        weights_of = synthesis.BranchKernel.w.func
        closed_form = synthesis._closed_form_products
        spectral_norm = transform._spectral_norm

        def counting_build(branch, lam):
            calls.append(branch.index)
            return build(branch, lam)

        def counting_weights(kernel):
            weights.append(kernel.branch.index)
            return weights_of(kernel)

        def counting_closed_form(branch, lam):
            products.append(branch.index)
            return closed_form(branch, lam)

        def counting_norm(*args, **kwargs):
            lanczos.append(1)
            return spectral_norm(*args, **kwargs)

        # count at every binding, so an import of the name elsewhere is seen;
        # the conditioning's norms are transform's (the compactness proxy
        # calls diagnostics' binding, once per report, and is not counted)
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.split(".")[0] == "fredstab"]
        bound = [m for m in modules if getattr(m, "cauchy_system_matrix", None) is build]
        assert synthesis in bound and transform in bound
        for module in bound:
            monkeypatch.setattr(module, "cauchy_system_matrix", counting_build)
        for module in modules:
            if getattr(module, "_closed_form_products", None) is closed_form:
                monkeypatch.setattr(module, "_closed_form_products", counting_closed_form)
        monkeypatch.setattr(transform, "_spectral_norm", counting_norm)
        counted = functools.cached_property(counting_weights)
        counted.__set_name__(synthesis.BranchKernel, "w")
        monkeypatch.setattr(synthesis.BranchKernel, "w", counted)
        stages = ("synthesize", "verify", "simulate", "report", "sweep")
        counts = {"builds": [], "w": [], "closed forms": [], "norms": []}
        for stage in stages:
            for seen in (calls, weights, products, lanczos):
                seen.clear()
            assert main([stage, "--config", str(cfg), "--jobs", "1"]) == 0, stage
            for key, seen in zip(counts, (calls, weights, products, lanczos)):
                counts[key].append(len(seen))
        assert counts == {"builds": [builds] * len(stages), "w": list(weights_taken),
                          "closed forms": list(closed_forms), "norms": list(norms)}


# The exit-code contract of the module docstring of cli_io, written out
# independently of the exit_code attributes.
_DOCUMENTED_EXIT = {
    errors.FredstabError: 1,
    errors.ConfigError: 1,
    errors.AssumptionError: 2,
    errors.SolverError: 3,
    errors.IterationDiverged: 3,
    errors.IntegratorError: 4,
}


def _error_types(base=errors.FredstabError):
    found = [base]
    for sub in base.__subclasses__():
        found.extend(_error_types(sub))
    return found


class TestExitCodes:
    def test_every_error_type_has_a_documented_code(self):
        assert set(_error_types()) == set(_DOCUMENTED_EXIT)

    @pytest.fixture(scope="class")
    def config_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("exit") / "config.json"
        write_config(path, sweep={"lambda0": [2.5]})
        return path

    @settings(max_examples=60, deadline=None)
    @given(error=st.sampled_from(sorted(_DOCUMENTED_EXIT, key=lambda t: t.__name__)),
           stage=st.sampled_from(["synthesize", "verify", "simulate", "sweep", "report"]),
           message=st.text(max_size=40))
    def test_error_in_stage_maps_to_exit_code(self, config_path, error, stage, message):
        def fail(*args, **kwargs):
            raise error(message)

        stderr = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr):
            # every stage calls _out_dir first, inside its cmd_* function
            mp.setattr(cli_io, "_out_dir", fail)
            code = main([stage, "--config", str(config_path)])
        assert code == _DOCUMENTED_EXIT[error]
        payload = json.loads(stderr.getvalue())
        assert payload == {"error": error.__name__, "message": message}


class TestNoDenseCertificates:
    def test_stages_use_only_structured_certificates(self, tmp_path, monkeypatch):
        # No stage may reach eigvals, the dense closed loop, a factorization
        # or an SVD (the dense intertwining product lives in the tests): the conditioning
        # is the structured Lanczos estimate, not np.linalg.cond, and the
        # semigroup applies the closed-form T^-1, not an LU of T.
        def refuse(*args, **kwargs):
            raise AssertionError("dense certificate called")

        for target, name in ((np.linalg, "eigvals"), (scipy.linalg, "solve"),
                             (np.linalg, "solve"), (np.linalg, "inv"),
                             (scipy.linalg, "lu_factor"),
                             (transform, "closed_loop_matrix"),
                             (diagnostics, "spectrum_match_error")):
            monkeypatch.setattr(target, name, refuse)
        callers = []

        def refuse_svd(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            raise AssertionError("dense SVD called")

        for name in ("cond", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse_svd)
        cfg = tmp_path / "config.json"
        # r = 2.0 lies outside the admissible interval (-1.5, 1.5)
        write_config(cfg, r_list=[0.0, 0.5, 2.0], sweep={"lambda0": [2.0, 3.0]},
                     scenarios=[
                         {"name": "lin", "u0": {"kind": "random", "seed": 0},
                          "t_end": 1.0, "samples": 16},
                         {"name": "semi", "u0": {"kind": "burgers_random", "seed": 1},
                          "t_end": 0.1, "samples": 5, "dt": 1e-3, "nonlinear": True}])
        for stage in ("synthesize", "verify", "simulate", "report", "sweep"):
            assert main([stage, "--config", str(cfg), "--jobs", "1"]) == 0, stage
            assert callers == [], stage
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert all(row.endswith(",") for row in rows[1:])


class TestMatrixBudget:
    def test_huge_N_refused_fast(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, N=10 ** 6, model={"kind": "heat_torus", "N": 10 ** 6,
                                           "params": {}})
        t0 = time.perf_counter()
        code = main(["synthesize", "--config", str(cfg)])
        elapsed = time.perf_counter() - t0
        assert code == 1
        assert elapsed < 0.5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "N=1000000" in err["message"]
        assert str(LIVE_MATRICES * 16 * 10 ** 12) in err["message"]
        assert not (tmp_path / "out" / "system.json").exists()

    # 10**12 values only: numpy refuses them without allocating anything
    @pytest.mark.parametrize("nonlinear, width", [(False, 16), (True, 17)])
    def test_huge_samples_refused_before_integrating(self, tmp_path, capsys, nonlinear, width):
        cfg = tmp_path / "config.json"
        scenario = {"name": "big", "t_end": 1.0, "samples": 10 ** 12, "nonlinear": nonlinear,
                    "u0": {"kind": "burgers_random" if nonlinear else "random", "seed": 0}}
        write_config(cfg, N=8, model={"kind": "heat_torus", "N": 8, "params": {}},
                     scenarios=[scenario])
        assert main(["synthesize", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(
            f"config.scenarios[0] ('big'): samples={10 ** 12} would need "
            f"{(10 ** 12 + 1) * width * 16} bytes")
        assert not (tmp_path / "out" / "traces").exists()

    def test_huge_quadrature_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, N=8, model={"kind": "schrodinger_ground", "N": 8,
                                      "params": {"points": 10 ** 12}},
                     sweep={"lambda0": [2.5]})
        assert main(["synthesize", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("config.model: ")
        assert main(["sweep", "--config", str(cfg), "--jobs", "1"]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["error"].startswith("ConfigError: config.model: ")


class TestSystemFromPath:
    @pytest.mark.parametrize("key, values", [("N", [8, 16]), ("gamma", [0.0]),
                                             ("N", [])])
    def test_sweep_cannot_vary_a_stored_system(self, tmp_path, capsys, key, values):
        # a 12-mode system.json swept over N = [8, 16] gave two rows labelled
        # N=8 and N=16 with identical numbers: the stored system has one N,
        # and its rows carry that N, not config.N (16 here)
        cfg1 = tmp_path / "c1.json"
        write_config(cfg1, N=12, model={"kind": "heat_torus", "N": 12, "params": {}})
        assert main(["synthesize", "--config", str(cfg1)]) == 0
        cfg2 = tmp_path / "c2.json"
        path = str(tmp_path / "out" / "system.json")
        # a stored system brings its own N, so the config gives none
        write_config(cfg2, drop=["N"], model={"path": path}, output_dir=str(tmp_path / "out2"),
                     sweep={"lambda0": [2.5], key: values})
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg2)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"config.sweep.{key} cannot vary a stored "
                                             "system (config.model.path)")
        assert not (tmp_path / "out2").exists()
        write_config(cfg2, drop=["N"], model={"path": path}, output_dir=str(tmp_path / "out2"),
                     sweep={"lambda0": [2.5, 3.0]})
        assert main(["sweep", "--config", str(cfg2), "--jobs", "1"]) == 0
        with open(tmp_path / "out2" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["N"], r["error"]) for r in rows] == [("12", ""), ("12", "")]

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["branches"][0].update(alpha="2"),
         "system branches[0].alpha must be a number, got '2'"),
        (lambda d: d["branches"][0].update(i=True),
         "system branches[0].i must be an integer, got True"),
        (lambda d: d["branches"][1].update(i=2.0),
         "system branches[1].i must be an integer, got 2.0"),
        (lambda d: d["branches"][0].update(eigenvalues=[[str(re), str(im)] for re, im
                                                        in d["branches"][0]["eigenvalues"]]),
         "system branches[0].eigenvalues must be a list of [re, im] lists of numbers"),
        (lambda d: d["branches"][1].update(control_coeffs=[[True, 0.0]] * 8),
         "system branches[1].control_coeffs must be a list of [re, im] lists of numbers"),
        (lambda d: d["branches"][0].update(gamma="0"),
         "system branches[0].gamma must be a number, got '0'"),
        (lambda d: d.update(m=2.0), "system m must be an integer, got 2.0"),
        (lambda d: d.update(label=7), "system label must be a string, got 7"),
    ], ids=["alpha-string", "i-true", "i-float", "eigenvalue-strings", "coeff-bools",
            "gamma-string", "m-float", "label-int"])
    def test_stored_field_of_the_wrong_type_refused(self, tmp_path, capsys, edit, message):
        # each ran: float() and int() read strings, booleans and 2.0, and
        # str() any label
        doc = system_to_json(heat_torus_model(8))
        edit(doc)
        write_json(tmp_path / "system.json", doc)
        cfg = tmp_path / "config.json"
        write_config(cfg, drop=["N"], model={"path": str(tmp_path / "system.json")})
        assert main(["synthesize", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError", "message": f"config.model: ValueError: {message}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("law.json", lambda d: d.update({"lambda": "2.5"}),
         "law lambda must be a number, got '2.5'"),
        ("law.json", lambda d: d["branches"][1].update(i=True),
         "law branches[1].i must be an integer, got True"),
        ("law.json", lambda d: d.update(method=1), "law method must be a string, got 1"),
        ("transform.json", lambda d: d["branches"][0].update(N="16"),
         "transform branches[0].N must be an integer, got '16'"),
        ("transform.json", lambda d: d["branches"][1].update(i=2.0),
         "transform branches[1].i must be an integer, got 2.0"),
        ("transform.json", lambda d: d["branches"][0].update(frobenius=None),
         "transform branches[0].frobenius must be a number, got None"),
        ("transform.json", lambda d: d["branches"][0]["column_norms"].__setitem__(3, "1"),
         "transform branches[0].column_norms must be a list of numbers"),
        ("law.json", lambda d: d["branches"][0]["products_x"][2].append(0.0),
         "law branches[0].products_x must be a list of [re, im] lists of numbers"),
        ("transform.json", lambda d: d["branches"][1]["diagonal"].__setitem__(5, [1.0, None]),
         "transform branches[1].diagonal must be a list of [re, im] lists of numbers"),
    ], ids=["law-lambda-string", "law-i-true", "law-method-int", "transform-N-string",
            "transform-i-float", "transform-frobenius-null", "transform-norm-string",
            "law-product-triple", "transform-diagonal-null"])
    def test_stored_law_or_transform_field_of_the_wrong_type_refused(
            self, tmp_path, capsys, name, edit, message):
        # each ran: float() and int() read strings, booleans and 2.0, and str()
        # any method; verify exited 0 and wrote report.json
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / name
        doc = json.loads(path.read_text())
        edit(doc)
        write_json(path, doc)
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
        assert not (tmp_path / "out" / "report.json").exists()

    def test_stored_law_of_the_wrong_type_refused(self, tmp_path, capsys):
        # law.json and transform.json read their pairs through the same decoder
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg)]) == 0
        law = json.loads((tmp_path / "out" / "law.json").read_text())
        law["branches"][1]["gains"][3] = [str(v) for v in law["branches"][1]["gains"][3]]
        write_json(tmp_path / "out" / "law.json", law)
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "law branches[1].gains must be a list of [re, im] lists of numbers"}

    def test_model_loaded_from_artifact(self, tmp_path):
        cfg1 = tmp_path / "c1.json"
        write_config(cfg1)
        main(["synthesize", "--config", str(cfg1)])
        cfg2 = tmp_path / "c2.json"
        write_config(cfg2, drop=["N"], model={"path": str(tmp_path / "out" / "system.json")},
                     output_dir=str(tmp_path / "out2"))
        assert main(["synthesize", "--config", str(cfg2)]) == 0
        a = (tmp_path / "out" / "law.json").read_bytes()
        b = (tmp_path / "out2" / "law.json").read_bytes()
        assert a == b

    @pytest.mark.parametrize("eigenvalues", [[-1.0], [-1.0, -4.0]])
    def test_one_and_two_mode_systems(self, tmp_path, eigenvalues):
        # too few modes for the growth and control slope fits (NaN) and, at
        # N = 1, for a gap constant (inf): the report writes them as null
        N = len(eigenvalues)
        path = tmp_path / "system.json"
        write_json(path, {"label": "stored", "m": 1, "branches": [
            {"i": 1, "alpha": 2.0, "beta": 0.0, "gamma": 0.0,
             "eigenvalues": [[e, 0.0] for e in eigenvalues],
             "control_coeffs": [[1.0, 0.0]] * N}]})
        cfg = tmp_path / "config.json"
        write_config(cfg, drop=["N"], model={"path": str(path)}, scenarios=[
            {"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
             "samples": 8, "integrator": "semigroup_exact"}])
        for stage in ("synthesize", "verify", "simulate", "report"):
            assert main([stage, "--config", str(cfg)]) == 0, stage
        out = tmp_path / "out"
        assert all(f.stat().st_size > 0 for f in out.rglob("*") if f.is_file())
        verdict = json.loads((out / "report.json").read_text())["assumptions"][0]
        assert verdict["ok"]
        assert verdict["growth"]["alpha_hat"] is None
        assert verdict["control"]["beta_hat"] is None
        assert (verdict["gap"]["constant"] is None) == (N == 1)


# a config that sets every params key of each kind, and the same model from
# its generator
_EVERY_PARAM = {
    "heat_torus": (
        {"m": 2, "gamma": 0.1, "phi1_coeffs": [[n ** 0.1, 0.0] for n in range(1, 9)],
         "phi2_coeffs": [1, *(n ** 0.1 for n in range(1, 8))]},
        lambda: heat_torus_model(8, 2.0, [n ** 0.1 for n in range(1, 9)],
                                 [1.0, *(n ** 0.1 for n in range(1, 8))], gamma=0.1)),
    "schrodinger_ground": (
        {"points": 600, "mu": {"grid": [0.0, 0.5, 1.0], "values": [0.1, 0.3, 1.0]}},
        lambda: schrodinger_model(8, np.interp(np.linspace(0.0, 1.0, 601), [0.0, 0.5, 1.0],
                                               [0.1, 0.3, 1.0]))),
    "sturm_liouville": (
        {"L": 2.0, "grid_size": 400, "a": (1.0 + np.linspace(0.0, 2.0, 401)).tolist(),
         "b": 0.5, "phi": {"grid": [0.0, 2.0], "values": [1.0, 2.0]},
         "c1": 1.0, "c2": 0.5, "c3": 2, "c4": 0.0},
        lambda: sturm_liouville_model(SturmLiouvilleProblem(
            a_values=1.0 + np.linspace(0.0, 2.0, 401), b_values=np.full(401, 0.5), L=2.0,
            c1=1.0, c2=0.5, c3=2.0, c4=0.0, grid_size=400),
            8, np.interp(np.linspace(0.0, 2.0, 401), [0.0, 2.0], [1.0, 2.0]))[0]),
    "gribov": ({"eps": [0.05, -0.02], "r": 0.5, "gamma": 0.1},
               lambda: gribov_model(8, complex(0.05, -0.02), r=0.5, gamma=0.1)),
}


def _bits(system) -> list:
    return [(b.index, b.alpha, b.beta, b.gamma, b.eigenvalues.tobytes(),
             b.control_coeffs.tobytes()) for b in system.branches] + [system.label]


def _built(kind, N, params):
    return cli_io._build_system(parse_config({"model": {"kind": kind, "N": N,
                                                        "params": params}}))


class TestModelParams:
    def test_heat_dispatch(self):
        system = _built("heat_torus", 8, {"gamma": 0.0})
        assert system.m == 2
        assert [b.N for b in system.branches] == [8, 8]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match=r"config.model.kind must be heat_torus\|"
                                              r"schrodinger_ground\|sturm_liouville\|gribov, "
                                              r"got 'wave'"):
            parse_config({"model": {"kind": "wave", "N": 8}})

    def test_minimum_truncation(self):
        with pytest.raises(ConfigError, match=r"must be an integer >= 4, got 2"):
            parse_config({"model": {"kind": "heat_torus", "N": 2}})

    def test_gribov_dispatch(self):
        system = _built("gribov", 8, {"eps": 0.05})
        assert system.branches[0].alpha == 3.0
        assert _bits(system) == _bits(gribov_model(8, eps=0.05))

    def test_default_gribov_eps_is_complex_zero(self):
        assert cli_io._PARAMS["gribov"]["eps"][0] == complex(0.0)
        assert _bits(_built("gribov", 8, {})) == _bits(gribov_model(8, eps=complex(0.0)))

    def test_default_schrodinger_mu_is_x_squared(self):
        # only an absent mu takes this default; an explicit zero mu is refused
        # (test_vanishing_schrodinger_mu_*)
        x = np.linspace(0.0, 1.0, 2049)
        built = _built("schrodinger_ground", 8, {}).branches[0]
        direct = schrodinger_model(8, x ** 2).branches[0]
        assert np.array_equal(built.control_coeffs, direct.control_coeffs)

    def test_sampled_function_params(self):
        # sampled functions travel as {grid, values} and are re-interpolated
        grid = np.linspace(0, 1, 11).tolist()
        system = _built("sturm_liouville", 4, {
            "grid_size": 400, "L": 1.0,
            "a": {"grid": grid, "values": [1.0] * 11},
            "phi": {"grid": grid, "values": (1.0 + np.linspace(0, 1, 11)).tolist()},
        })
        exact = -(np.arange(1, 5) * np.pi) ** 2
        rel = np.abs(system.branches[0].eigenvalues.real - exact) / np.abs(exact)
        assert rel.max() < 1e-3

    def test_overflowing_gribov_r_prints_one_json_object(self, tmp_path):
        # a fresh interpreter shows warnings on stderr, as the command line does
        cfg = tmp_path / "config.json"
        write_json(cfg, {"model": {"kind": "gribov", "N": 16, "params": {"r": 400.0}},
                         "N": 16, "output_dir": str(tmp_path / "out")})
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli_io.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "fredstab.cli_io", "synthesize", "--config", str(cfg)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {
            "error": "ConfigError",
            "message": "config.model: ValueError: control_coeffs contains non-finite entries"}
        assert not (tmp_path / "out").exists()

    def test_huge_robin_coefficient_builds(self):
        # c1 ** 2 raised an OverflowError out of the degeneracy check, a
        # traceback past main; with c2 = 0 the left end is Dirichlet whatever c1
        assert (_bits(_built("sturm_liouville", 8, {"c1": 1e308}))
                == _bits(_built("sturm_liouville", 8, {})))

    @pytest.mark.parametrize("kind", sorted(_EVERY_PARAM))
    def test_every_params_key_builds_the_generators_model(self, kind):
        params, direct = _EVERY_PARAM[kind]
        assert set(params) == set(cli_io._PARAMS[kind])
        assert _bits(_built(kind, 8, params)) == _bits(direct())

    @pytest.mark.parametrize("kind, params", [
        ("heat_torus", {"gamma": "0.1"}), ("heat_torus", {"m": "2"}),
        ("heat_torus", {"m": True}), ("heat_torus", {"phi1_coeffs": "1111111111111111"}),
        ("heat_torus", {"phi2_coeffs": [1.0, [0.0, "1"]]}),
        ("schrodinger_ground", {"points": 1000.9}), ("schrodinger_ground", {"points": "600"}),
        ("schrodinger_ground", {"points": True}),
        ("schrodinger_ground", {"mu": {"grid": [0.0, 1.0]}}),
        ("schrodinger_ground", {"mu": {"grid": [0.0, 1.0], "values": [1.0, 2.0], "x": 1}}),
        ("gribov", {"eps": "0.05j"}), ("gribov", {"r": "1"}), ("gribov", {"eps": True}),
        ("gribov", {"eps": [1.7e308, 1.7e308]}), ("gribov", {"eps": [0.0, 1.0, 2.0]}),
        ("sturm_liouville", {"grid_size": 400.5}), ("sturm_liouville", {"L": "2"}),
        ("sturm_liouville", {"c1": True}), ("sturm_liouville", {"a": "3"}),
        ("sturm_liouville", {"phi": [1.0, None]}),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v))
    def test_params_of_the_wrong_kind_refused(self, tmp_path, capsys, kind, params):
        # each exited 0, or exited 1 with a message that named no key
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"kind": kind, "N": 16, "params": params})
        assert main(["synthesize", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"config.model.params.{next(iter(params))}")
        assert " must be " in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["schrodinger_ground", "sturm_liouville"])
    @pytest.mark.parametrize("stage", ["synthesize", "sweep"])
    def test_sweep_cannot_vary_a_gamma_the_model_lacks(self, tmp_path, capsys, kind, stage):
        # each row read "config.model: ValueError: unknown schrodinger_ground
        # params: ['gamma']" and the sweep exited 0
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"kind": kind, "N": 16, "params": {}},
                     sweep={"lambda0": [2.5], "gamma": [0.0, 0.1]})
        assert main([stage, "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError", "message": f"config.sweep.gamma cannot vary a {kind} "
                                               "model: its params have no gamma"}
        assert not (tmp_path / "out").exists()


def test_readme_config_table_names_every_key():
    # README's Config keys section says it mirrors _SCHEMA: every key of every
    # section appears there in backticks
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    named = {word for span in re.findall(r"`([^`]*)`", section)
             for word in re.findall(r"\w+", span)}
    missing = sorted({f"{name}.{key}" for name, keys in cli_io._SCHEMA.items()
                      for key in keys if key not in named})
    assert not missing, f"README's Config keys section does not name {missing}"
