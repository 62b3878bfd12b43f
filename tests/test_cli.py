import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcomp
from vcomp.cli import main
from vcomp.matio import save_matrix_csv
from vcomp.model import ModelParams
from vcomp.spectrum import decompose_gram


def write_config(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def write_recovery_fixture(tmp_path, params=ModelParams(1.3, 0.8), n=12, p=20, seed=15):
    """Noiseless moment-matching dataset: the MLE recovers the parameters."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    spec = decompose_gram(X)
    y_check = np.sqrt(params.sigma_sq * (params.eta_sq * spec.lambdas + 1.0))
    y = spec.U @ y_check
    save_matrix_csv(tmp_path / "X.csv", X)
    save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
    return params


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats and scipy.integrate take about a second to import; only the
    # 2-d surrogate quadrature needs integrate, and nothing needs stats
    code = "import sys, vcomp, vcomp.cli; print(sorted(m for m in sys.modules if m in ('scipy.stats', 'scipy.integrate')))"
    src = str(Path(vcomp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestFit:
    def test_exact_recovery_exit_zero(self, tmp_path):
        params = write_recovery_fixture(tmp_path)
        cfg = write_config(tmp_path / "fit.json.cfg", {"x": "X.csv", "y": "y.csv"})
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["eta2_hat"] == pytest.approx(params.eta_sq, abs=1e-6)
        assert fit["sigma2_hat"] == pytest.approx(params.sigma_sq, abs=1e-6)
        assert fit["identifiable"] is True
        assert fit["psi"] is not None and len(fit["psi"]) == 4
        assert fit["converged"] is True and fit["cap_hit"] is False
        assert 0.0 <= fit["score_residual"] < 1e-8

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_extreme_scales_exit_zero(self, tmp_path, scale):
        # sigma2-hat far from 1 must not reach the covariance formulas, whose
        # powers of sigma^2 under- or overflow at these scales
        rng = np.random.default_rng(30)
        X = rng.standard_normal((30, 60))
        y = X @ rng.standard_normal(60) / math.sqrt(60) + rng.standard_normal(30)
        save_matrix_csv(tmp_path / "X.csv", X)
        fits = {}
        for name, factor in (("base", 1.0), ("scaled", scale)):
            save_matrix_csv(tmp_path / f"{name}.csv", (factor * y).reshape(-1, 1))
            cfg = write_config(tmp_path / f"{name}.cfg", {"x": "X.csv", "y": f"{name}.csv"})
            assert main(["fit", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            fits[name] = json.loads((tmp_path / name / "fit.json").read_text())
        base, fit = fits["base"], fits["scaled"]
        assert fit["converged"] is True and fit["identifiable"] is True
        assert fit["sigma2_hat"] == pytest.approx(scale * scale * base["sigma2_hat"], rel=1e-10)
        assert fit["eta2_hat"] == pytest.approx(base["eta2_hat"], rel=1e-8)
        # Var(sigma2_hat) scales by scale^4, beyond the float range here
        assert base["psi"] is not None and fit["psi"] is None

    def test_constant_spectrum_exit_two(self, tmp_path):
        n = 8
        X = math.sqrt(n) * np.eye(n)
        y = np.random.default_rng(0).standard_normal(n)
        save_matrix_csv(tmp_path / "X.csv", X)
        save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        fit = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert fit["identifiable"] is False

    def test_missing_file_exit_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", {"x": "nope.csv", "y": "nope.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        write_recovery_fixture(tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv", "method": "reml"}
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_trace_optional(self, tmp_path):
        write_recovery_fixture(tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv", "trace": True}
        )
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert len(fit["trace"]) == 64


class TestGenerate:
    def test_generate_fit_roundtrip(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.cfg",
            {
                "n": 120,
                "p": 60,
                "design": {"kind": "gaussian_iid"},
                "params": {"sigma2": 1.0, "eta2": 1.0},
                "laws": {"beta": "gaussian", "eps": "gaussian"},
                "seed": 5,
            },
        )
        data = tmp_path / "data"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        truth = json.loads((data / "truth.json").read_text())
        assert truth["sigma2"] == 1.0 and truth["eta2"] == 1.0

        fit_cfg = write_config(
            data / "fit.cfg", {"x": "X.csv", "y": "y.csv"}
        )
        out = tmp_path / "fit_out"
        assert main(["fit", "--config", fit_cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        # one replicate at n = 120: loose statistical agreement with truth
        assert abs(fit["eta2_hat"] - 1.0) < 1.5
        assert abs(fit["sigma2_hat"] - 1.0) < 1.0

    def test_same_seed_same_manifest_and_data(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.cfg",
            {
                "n": 10,
                "p": 6,
                "params": {"sigma2": 1.0, "eta2": 0.5},
                "seed": 9,
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "X.csv").read_bytes() == (b / "X.csv").read_bytes()
        assert (a / "y.csv").read_bytes() == (b / "y.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.cfg",
            {"n": 8, "p": 4, "params": {"sigma2": 1.0, "eta2": 1.0}, "seed": 1},
        )
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(a)])
        main(["generate", "--config", cfg, "--out", str(b), "--seed", "2"])
        assert (a / "y.csv").read_bytes() != (b / "y.csv").read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "gen.cfg",
            {"n": 8, "p": 4, "params": {"sigma2": 1.0, "eta2": 1.0}},
        )
        monkeypatch.setenv("VCOMP_SEED", "77")
        a = tmp_path / "a"
        main(["generate", "--config", cfg, "--out", str(a)])
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["seed"] == 77

    def test_coupled_generation(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.cfg",
            {
                "n": 10,
                "p": 8,
                "params": {"sigma2": 1.0, "eta2": 1.0},
                "coupling": {"scheme": "sparse_zero", "fraction": 1.0},
                "seed": 3,
            },
        )
        out = tmp_path / "d"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["coupling"]["scheme"] == "sparse_zero"


class TestExperimentCommand:
    def test_consistency_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            {
                "kind": "consistency",
                "n_grid": [30, 60],
                "replicates": 100,
                "params": {"sigma2": 1.0, "eta2": 1.0},
                "design": {"kind": "gaussian_iid", "p_ratio": 2.0},
                "seed": 4,
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "cells.csv").read_text().splitlines()
        assert lines[0] == "n,cell,estimate,stderr,gate,pass"
        assert len([l for l in lines if l.startswith(("30,", "60,"))]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "consistency"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert "vcomp" in manifest["versions"]

    def test_workers_flag_does_not_change_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            {
                "kind": "consistency",
                "n_grid": [30, 60],
                "replicates": 100,
                "seed": 4,
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--config", cfg, "--out", str(a)]) == 0
        assert main(
            ["experiment", "--config", cfg, "--out", str(b), "--workers", "3"]
        ) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "cells.csv").read_bytes() == (b / "cells.csv").read_bytes()

    def test_identity_design_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            {
                "kind": "consistency",
                "n_grid": [16, 32],
                "replicates": 100,
                "design": {"kind": "identity"},
                "seed": 4,
            },
        )
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_degenerate_stein_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            {
                "kind": "stein_discrepancy",
                "n_grid": [16, 32],
                "replicates": 120,
                "laws": {"beta": "rademacher", "eps": "rademacher"},
                "qspec": "identity",
                "seed": 4,
            },
        )
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        assert (out / "report.json").exists()

    def test_normality_config_roundtrip(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            {
                "kind": "normality",
                "n_grid": [30, 60],
                "replicates": 100,
                "design": {"kind": "gaussian_iid", "p_ratio": 0.5},
                "test_fn": {"name": "tanh_product", "scales": [3.0, 3.0]},
                "surrogate_draws": 20000,
                "control_draws": 20000,
                "seed": 4,
            },
        )
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["plan"]["test_fn"] == "tanh_product"

    def test_coupling_config_roundtrip(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            {
                "kind": "coupling",
                "n_grid": [30, 60],
                "replicates": 100,
                "coupling": {
                    "scheme": "additive_perturb",
                    "delta_grid": [0.0, 1.0],
                    "delta_scale": "inverse_n",
                },
                "seed": 4,
            },
        )
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert any(g["gate"] == "delta_zero_bitwise" for g in report["gates"])

    def test_malformed_config_exit_one(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["experiment", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_unknown_experiment_key_exit_one(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.cfg",
            {"kind": "consistency", "n_grid": [30], "replicates": 100, "bogus": 1},
        )
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1


GEN_CFG = {
    "n": 8,
    "p": 4,
    "params": {"sigma2": 1.0, "eta2": 1.0},
    "laws": {"beta": "gaussian", "eps": "gaussian"},
    "coupling": {"scheme": "none"},
    "seed": 1,
}
FIT_CFG = {"x": "X.csv", "y": "y.csv"}
EXP_CFG = {
    "kind": "consistency",
    "n_grid": [30],
    "replicates": 10,
    "params": {"sigma2": 1.0, "eta2": 1.0},
    "laws": {"beta": "gaussian", "eps": "gaussian"},
}
BASE_CFGS = {"generate": GEN_CFG, "fit": FIT_CFG, "experiment": EXP_CFG}


def edited_config(command, path, value=None, delete=False):
    cfg = json.loads(json.dumps(BASE_CFGS[command]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


class TestConfigValidation:
    @pytest.mark.parametrize(
        "command, path, where",
        [
            ("generate", ("n",), "generate config"),
            ("generate", ("p",), "generate config"),
            ("generate", ("params",), "generate config"),
            ("generate", ("params", "sigma2"), "params"),
            ("generate", ("params", "eta2"), "params"),
            ("generate", ("laws", "beta"), "laws"),
            ("generate", ("laws", "eps"), "laws"),
            ("generate", ("coupling", "scheme"), "coupling"),
            ("fit", ("x",), "fit config"),
            ("fit", ("y",), "fit config"),
            ("experiment", ("kind",), "experiment config"),
            ("experiment", ("n_grid",), "experiment config"),
            ("experiment", ("replicates",), "experiment config"),
            ("experiment", ("params", "sigma2"), "params"),
            ("experiment", ("params", "eta2"), "params"),
            ("experiment", ("laws", "beta"), "laws"),
            ("experiment", ("laws", "eps"), "laws"),
        ],
    )
    def test_missing_required_key_is_named(self, tmp_path, capsys, command, path, where):
        write_recovery_fixture(tmp_path)
        cfg = write_config(tmp_path / "c.cfg", edited_config(command, path, delete=True))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"vcomp: error: {where}: missing required key '{path[-1]}'" in err

    @pytest.mark.parametrize("bad", [True, 3.7], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "command, path",
        [
            ("generate", ("seed",)),
            ("generate", ("stream",)),
            ("generate", ("n",)),
            ("generate", ("p",)),
            ("fit", ("seed",)),
            ("experiment", ("seed",)),
            ("experiment", ("replicates",)),
            ("experiment", ("n_grid", 0)),
            ("experiment", ("eta_grid_points",)),
            ("experiment", ("k_forms",)),
            ("experiment", ("surrogate_draws",)),
            ("experiment", ("control_draws",)),
        ],
    )
    def test_ill_typed_integer_is_rejected(self, tmp_path, capsys, command, path, bad):
        write_recovery_fixture(tmp_path)
        cfg = write_config(tmp_path / "c.cfg", edited_config(command, path, bad))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        key = next(k for k in reversed(path) if isinstance(k, str))
        assert f"vcomp: error: {key}: expected an integer" in capsys.readouterr().err

    def test_huge_matrix_header_exit_one(self, tmp_path, capsys):
        write_recovery_fixture(tmp_path)
        # a 16-byte file whose header declares n = p = 2^31 float64 entries
        (tmp_path / "X.bin").write_bytes(struct.pack("<4sIII", b"VCM1", 2**31, 2**31, 8))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.bin", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vcomp: error: ") and "file holds 0 bytes" in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("n_grid",), 30),
            (("n_grid",), "30"),
            (("r_grid",), 0.3),
            (("test_fn", "scales"), 3.0),
            (("coupling", "delta_grid"), 0.5),
        ],
    )
    def test_scalar_where_list_belongs(self, tmp_path, capsys, path, value):
        cfg = json.loads(json.dumps(EXP_CFG))
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        cfg_path = write_config(tmp_path / "c.cfg", cfg)
        assert main(["experiment", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert f"vcomp: error: {path[-1]}: expected a list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, name",
        [
            ({"eta_box": -1}, "eta_box"),
            ({"eta_grid_points": 0}, "eta_grid_points"),
            ({"kind": "normality", "test_fn": {"name": "tanh_sum", "scales": []}}, "tanh_sum"),
        ],
    )
    def test_out_of_range_value_is_named(self, tmp_path, capsys, edit, name):
        cfg = {**EXP_CFG, "kind": "tail_envelope", "replicates": 100, "r_grid": [0.1], **edit}
        cfg_path = write_config(tmp_path / "c.cfg", cfg)
        assert main(["experiment", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vcomp: error: ") and name in err

    @pytest.mark.parametrize("value", ["abc", "3.7", "", "1_000"])
    def test_bad_env_seed_names_the_variable(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("VCOMP_SEED", value)
        cfg = write_config(tmp_path / "gen.cfg", {k: v for k, v in GEN_CFG.items() if k != "seed"})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "vcomp: error: VCOMP_SEED: expected an integer" in capsys.readouterr().err
