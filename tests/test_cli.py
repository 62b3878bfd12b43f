import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vcomp
from vcomp import cli, estimator, experiments, spectrum
from vcomp.cli import _plan_from_cfg, main
from vcomp.experiments import ExperimentPlan
from vcomp.matio import save_matrix_csv
from vcomp.laws import SeedSpec
from vcomp.model import DesignSpec, ModelParams, gen_design
from vcomp.spectrum import _openblas, decompose_gram


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


def fit_through_u(X, y):
    """The fit.json object and exit code of the route through U: decompose_gram's
    eigenvectors, then U'y."""
    with spectrum.one_blas_thread():
        state = estimator.ScoreState.from_observations(decompose_gram(X), y)
        fit = estimator.fit_mle(state, estimator.FitOptions(trace=False))
    return estimator.fit_result_to_dict(fit), 2 if fit.identifiability_flag else 0


_frng = np.random.default_rng(21)
FIT_DESIGNS = {
    "rank-deficient": _frng.standard_normal((40, 15)),
    "n=2": _frng.standard_normal((2, 3)),
    "fixed-trailing-zeros": gen_design(40, 20, DesignSpec("fixed_spectrum", (3.0, 2.0) + (1.0,) * 18 + (0.0,) * 20),
                                       SeedSpec(3)),
    "identity": math.sqrt(8) * np.eye(8),
    "scaled-1e-100": 1e-100 * _frng.standard_normal((30, 60)),
    "scaled-1e75": 1e75 * _frng.standard_normal((30, 60)),
    "wide": _frng.standard_normal((120, 240)),
}


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test oracle only: every command, including the 2-d surrogate
    # quadrature of normality and K = 1 Stein plans, runs with its import failing
    gen = {"n": 40, "p": 20, "params": {"sigma2": 1.0, "eta2": 1.0}, "seed": 7}
    tiny = {"n_grid": [30, 60], "replicates": 100, "seed": 4}
    configs = {
        "gen.cfg": gen,
        "data/fit.cfg": {"x": "X.csv", "y": "y.csv"},
        "normality.cfg": {**tiny, "kind": "normality", "design": {"kind": "gaussian_iid", "p_ratio": 0.5},
                          "control_draws": 2000},
        "stein1.cfg": {**tiny, "kind": "stein_discrepancy", "n_grid": [16, 32]},
        "stein2.cfg": {**tiny, "kind": "stein_discrepancy", "n_grid": [16, 32], "k_forms": 2,
                       "surrogate_draws": 20000},
    }
    (tmp_path / "data").mkdir()
    for name, cfg in configs.items():
        write_config(tmp_path / name, cfg)
    runs = [["generate", "--config", "gen.cfg", "--out", "data"],
            ["fit", "--config", "data/fit.cfg", "--out", "fit"],
            *(["experiment", "--config", name, "--out", name[:-4]]
              for name in ("normality.cfg", "stein1.cfg", "stein2.cfg"))]
    code = ("import json, sys; sys.modules['scipy'] = None\n"
            "from vcomp.cli import main\n"
            "print([main(argv) for argv in json.loads(sys.argv[1])])")
    src = str(Path(vcomp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True,
                         cwd=tmp_path, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0, 0, 0]", out.stderr
    assert "scipy" not in json.loads((tmp_path / "fit" / "manifest.json").read_text())["versions"]


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

    @pytest.mark.skipif(_openblas() is None, reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one CPU OpenBLAS starts one thread whatever it is asked for")
    def test_fit_does_not_depend_on_blas_threads(self, tmp_path):
        # at 400 x 800 a threaded eigh rounds eta2_hat differently in its last bits
        gen = write_config(tmp_path / "gen.cfg", {"n": 400, "p": 800, "params": {"sigma2": 1.0, "eta2": 1.0}, "seed": 7})
        assert main(["generate", "--config", gen, "--out", str(tmp_path)]) == 0
        cfg = write_config(tmp_path / "fit.cfg", {"x": "X.csv", "y": "y.csv"})
        src = str(Path(vcomp.__file__).resolve().parents[1])
        fits = []
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
            env.pop("OMP_NUM_THREADS", None)
            out = tmp_path / f"fit{threads}"
            subprocess.run([sys.executable, "-m", "vcomp.cli", "fit", "--config", cfg, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            fits.append((out / "fit.json").read_bytes())
        assert fits[0] == fits[1]

    #: how far fit.json may move from the route through U: y_check moves in its last bits
    ROUTE_RTOL = 1e-9

    @pytest.mark.parametrize("name", FIT_DESIGNS)
    def test_fit_agrees_with_the_route_through_u(self, tmp_path, name):
        X = FIT_DESIGNS[name]
        # noise on the design's scale: a scaled design is a scaled dataset
        y = X @ np.random.default_rng(5).standard_normal(X.shape[1]) * (2.0 / math.sqrt(X.shape[1]))
        y += np.abs(X).max() * np.random.default_rng(6).standard_normal(X.shape[0])
        save_matrix_csv(tmp_path / "X.csv", X)
        save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
        want, code = fit_through_u(X, y)
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        got = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                # the score residual is |H_star| at the estimate, a rounding-level number
                assert got[key] == pytest.approx(value, rel=self.ROUTE_RTOL, abs=1e-12 * (key == "score_residual"))
            elif key == "psi" and value is not None:
                assert got[key] == pytest.approx(value, rel=self.ROUTE_RTOL)
            else:
                assert got[key] == value, key

    @pytest.mark.parametrize("name", ["rank-deficient", "identity", "wide"])
    def test_fit_under_another_blas_writes_the_route_through_u_bytes(self, tmp_path, monkeypatch, name):
        X = FIT_DESIGNS[name]
        y = np.random.default_rng(6).standard_normal(X.shape[0])
        save_matrix_csv(tmp_path / "X.csv", X)
        save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
        monkeypatch.setattr(spectrum, "_openblas", lambda: None)
        want, code = fit_through_u(X, y)
        cli._write_json(tmp_path / "want.json", want)
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert (tmp_path / "out" / "fit.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_psi_is_symmetric(self, tmp_path):
        # inv(F) of a symmetric F can differ across the diagonal in its last bit
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 60))
        save_matrix_csv(tmp_path / "X.csv", X)
        save_matrix_csv(tmp_path / "y.csv", (X @ rng.standard_normal(60) / math.sqrt(60)
                                             + rng.standard_normal(30)).reshape(-1, 1))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        psi = json.loads((tmp_path / "out" / "fit.json").read_text())["psi"]
        assert psi is not None and psi[1] == psi[2]

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


    def test_huge_y_overflow_is_typed_without_warnings(self, tmp_path, capsys):
        # sigma2-hat ~ 1e400 leaves the float range
        write_recovery_fixture(tmp_path)
        y = np.loadtxt(tmp_path / "y.csv")
        save_matrix_csv(tmp_path / "y.csv", (1e200 * y).reshape(-1, 1))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "vcomp: error: sigma^2 estimate overflows the float range; rescale y\n"
        )

    @pytest.mark.parametrize("scale, word", [(1e160, "overflows"), (1e-170, "underflows")])
    def test_gram_outside_the_float_range_is_typed_without_warnings(self, tmp_path, capsys, scale, word):
        # an overflow once exited 1 as a non-finite likelihood, after a
        # RuntimeWarning; an underflow exited 2 as a non-identifiable design
        rng = np.random.default_rng(30)
        save_matrix_csv(tmp_path / "X.csv", scale * rng.standard_normal((40, 60)))
        save_matrix_csv(tmp_path / "y.csv", rng.standard_normal((40, 1)))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"vcomp: error: the Gram matrix XX'/p {word} the float range") and "rescale X" in err
        assert "Warning" not in err

    def test_all_zero_design_stays_non_identifiable(self, tmp_path):
        # a zero Gram is a design without information, not a scale problem
        save_matrix_csv(tmp_path / "X.csv", np.zeros((40, 60)))
        save_matrix_csv(tmp_path / "y.csv", np.random.default_rng(30).standard_normal((40, 1)))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert json.loads((tmp_path / "out" / "fit.json").read_text())["identifiable"] is False

    def test_empty_design_file_is_named(self, tmp_path, capsys):
        write_recovery_fixture(tmp_path)
        (tmp_path / "X.csv").write_text("")
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vcomp: error: ") and "X.csv: matrix file holds no data" in err

    def test_matrix_y_file_is_named(self, tmp_path, capsys):
        write_recovery_fixture(tmp_path)
        save_matrix_csv(tmp_path / "y.csv", np.ones((2, 2)))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"vcomp: error: {tmp_path / 'y.csv'}: expected a vector, got shape (2, 2)\n"

    def test_fit_takes_no_seed(self, tmp_path, capsys, monkeypatch):
        # a fit draws nothing: no seed key or flag, VCOMP_SEED is not read, and the manifest says so
        write_recovery_fixture(tmp_path)
        monkeypatch.setenv("VCOMP_SEED", "abc")
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] is None
        seeded = write_config(tmp_path / "s.cfg", {"x": "X.csv", "y": "y.csv", "seed": 3})
        assert main(["fit", "--config", seeded, "--out", str(tmp_path / "o")]) == 1
        assert "vcomp: error: fit config: unknown keys ['seed']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"])
        assert exc.value.code == 2 and "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("y, message", [
        (np.ones(11), "y has length 11, expected n=12"),
        (np.r_[np.ones(11), np.inf], "y has non-finite entries"),
    ], ids=["short", "non-finite"])
    def test_y_is_checked_before_the_eigensolve(self, tmp_path, capsys, monkeypatch, y, message):
        # both were checked only after the design's eigensolve: 1.31 s at 1500 x 3000
        write_recovery_fixture(tmp_path)
        save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
        monkeypatch.setattr(cli, "decompose_gram_rotating",
                            lambda X, y: pytest.fail("decompose_gram_rotating was called"))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"vcomp: error: {message}\n"

    def test_non_finite_y_is_named(self, tmp_path, capsys):
        # a nan once reached the search and was reported as a non-finite likelihood
        write_recovery_fixture(tmp_path)
        y = np.loadtxt(tmp_path / "y.csv")
        y[3] = np.nan
        save_matrix_csv(tmp_path / "y.csv", y.reshape(-1, 1))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.csv", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "vcomp: error: y has non-finite entries\n"


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

    @pytest.mark.parametrize("coupling, message", [
        ({"scheme": "sparse_zero", "fraction": 1.5}, "fraction (coupling.fraction) must lie in [0, 1], got 1.5"),
        ({"scheme": "additive_perturb", "delta": -1.0}, "delta (coupling.delta) must be finite and nonnegative"),
        ({"scheme": "swap"}, "unknown coupling scheme 'swap'"),
        ({"fraction": 0.5}, "coupling: missing required key 'scheme'"),
    ], ids=["fraction", "delta", "scheme", "no-scheme"])
    def test_coupling_is_read_before_the_design_is_drawn(self, tmp_path, capsys, monkeypatch, coupling, message):
        # a bad coupling section once failed only after the design was drawn: 0.14 s at 2000 x 4000
        monkeypatch.setattr(cli, "gen_design", lambda *a: pytest.fail("gen_design was called"))
        cfg = write_config(tmp_path / "gen.cfg", {"n": 10, "p": 8, "params": {"sigma2": 1.0, "eta2": 1.0},
                                                  "coupling": coupling, "seed": 3})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "d")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.skipif(_openblas() is None, reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one CPU OpenBLAS starts one thread whatever it is asked for")
    def test_generate_does_not_depend_on_blas_threads(self, tmp_path):
        # a fixed-spectrum design at 400 x 800 comes out of threaded BLAS
        # products with different last bits
        cfg = write_config(tmp_path / "gen.cfg", {
            "n": 400, "p": 800, "design": {"kind": "fixed_spectrum", "lambdas": list(range(1, 401))},
            "params": {"sigma2": 1.0, "eta2": 1.0}, "seed": 7,
        })
        src = str(Path(vcomp.__file__).resolve().parents[1])
        outs = []
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
            env.pop("OMP_NUM_THREADS", None)
            out = tmp_path / f"gen{threads}"
            subprocess.run([sys.executable, "-m", "vcomp.cli", "generate", "--config", cfg, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outs.append(out)
        for name in ("X.csv", "y.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.skipif(_openblas() is None, reason="numpy is not on its bundled OpenBLAS")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one CPU OpenBLAS starts one thread whatever it is asked for")
    def test_manifest_records_the_blas_threads_and_the_pin(self, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", {"n": 8, "p": 4, "params": {"sigma2": 1.0, "eta2": 1.0}, "seed": 3})
        src = str(Path(vcomp.__file__).resolve().parents[1])
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
            env.pop("OMP_NUM_THREADS", None)
            out = tmp_path / f"gen{threads}"
            subprocess.run([sys.executable, "-m", "vcomp.cli", "generate", "--config", cfg, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            # the count outside the pin: the one the run was started with
            blas = json.loads((out / "manifest.json").read_text())["blas"]
            assert blas == {"openblas_threads": threads, "one_thread_pin": True}

    def test_manifest_under_another_blas_records_no_pin(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectrum, "_openblas", lambda: None)
        cfg = write_config(tmp_path / "gen.cfg", {"n": 8, "p": 4, "params": {"sigma2": 1.0, "eta2": 1.0}, "seed": 3})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        blas = json.loads((tmp_path / "d" / "manifest.json").read_text())["blas"]
        assert blas == {"openblas_threads": None, "one_thread_pin": False}


class TestExperimentCommand:
    def test_consistency_outputs(self, tmp_path, capsys):
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
        assert re.fullmatch(r"experiment consistency: \d+\.\ds\n", capsys.readouterr().err)
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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_one(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path / "exp.cfg", {"kind": "consistency", "n_grid": [30, 60], "replicates": 100})
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--workers", workers]) == 1
        assert f"vcomp: error: workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "fit"])
    def test_workers_flag_only_on_experiment(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.cfg", BASE_CFGS[command])
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, named", [
        ({"params": {"sigma2": 1e308, "eta2": 10}}, "params.sigma2 = 1e+308, params.eta2 = 10"),
        ({"params": {"sigma2": 1e308, "eta2": 10}, "laws": {"beta": "rademacher", "eps": "rademacher"}},
         "params.sigma2 = 1e+308, params.eta2 = 10"),
        ({"kind": "tail_envelope", "r_grid": [0.3], "params": {"sigma2": 1e308, "eta2": 10}},
         "params.sigma2 = 1e+308, params.eta2 = 10"),
        ({"kind": "coupling", "coupling": {"scheme": "additive_perturb", "delta_grid": [0, 1e200]}},
         "params.sigma2 = 1, params.eta2 = 1, coupling delta = 1e+200"),
    ], ids=["gaussian", "rademacher", "tail", "coupling"])
    def test_overflowing_outcomes_exit_one_without_warnings(self, tmp_path, extra, named):
        cfg = write_config(tmp_path / "exp.cfg", {"kind": "consistency", "n_grid": [30, 60], "replicates": 100,
                                                  **extra})
        src = str(Path(vcomp.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "vcomp.cli", "experiment", "--config", cfg,
                              "--out", str(tmp_path / "o")],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
        assert out.returncode == 1
        assert out.stderr == ("vcomp: error: replicate outcomes overflow the float range (y_check^2 is not "
                              f"finite) at {named}\n")

    def test_normality_beyond_the_float_range_exit_one(self, tmp_path):
        # an OverflowError traceback once, after a RuntimeWarning
        cfg = write_config(tmp_path / "exp.cfg", {"kind": "normality", "n_grid": [40, 80], "replicates": 100,
                                                  "params": {"sigma2": 1e308, "eta2": 10}})
        src = str(Path(vcomp.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "vcomp.cli", "experiment", "--config", cfg,
                              "--out", str(tmp_path / "o")],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
        assert out.returncode == 1
        assert out.stderr == ("vcomp: error: normality statistics leave the float range at params.sigma2 = 1e+308 "
                              "(they scale as its powers); choose params.sigma2 nearer 1\n")

    def test_normality_at_large_sigma2_runs(self, tmp_path):
        # an identifiable design stays identifiable at any scale of sigma0^2
        cfg = write_config(
            tmp_path / "exp.cfg",
            {
                "kind": "normality",
                "n_grid": [30, 60],
                "replicates": 100,
                "params": {"sigma2": 1e6, "eta2": 1.0},
                "design": {"kind": "gaussian_iid", "p_ratio": 2.0},
                "surrogate_draws": 20000,
                "control_draws": 5000,
                "seed": 4,
            },
        )
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

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
        # at d = 25 and 100 the zero covariance's rounding once made it exit 1
        for n_grid in ([16, 32], [25, 100]):
            cfg = write_config(
                tmp_path / "exp.cfg",
                {
                    "kind": "stein_discrepancy",
                    "n_grid": n_grid,
                    "replicates": 120,
                    "laws": {"beta": "rademacher", "eps": "rademacher"},
                    "qspec": "identity",
                    "seed": 4,
                },
            )
            out = tmp_path / f"o{n_grid[0]}"
            assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
            assert (out / "report.json").exists()

    def test_omitted_keys_keep_the_plan_defaults(self):
        cfg = {"kind": "normality", "n_grid": [30, 60], "replicates": 100}
        want = ExperimentPlan(kind="normality", n_grid=(30, 60), replicates=100, master_seed=9)
        assert _plan_from_cfg(cfg, seed=9, workers=1) == want

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
    "coupling": {"scheme": "additive_perturb"},
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

    # The case ids keep the numbers the cases had while the list also held
    # a fit seed case (path4), so each case is reported under a stable name.
    @pytest.mark.parametrize("bad", [True, 3.7], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "command, path",
        [
            pytest.param("generate", ("seed",), id="generate-path0"),
            pytest.param("generate", ("stream",), id="generate-path1"),
            pytest.param("generate", ("n",), id="generate-path2"),
            pytest.param("generate", ("p",), id="generate-path3"),
            pytest.param("experiment", ("seed",), id="experiment-path5"),
            pytest.param("experiment", ("replicates",), id="experiment-path6"),
            pytest.param("experiment", ("n_grid", 0), id="experiment-path7"),
            pytest.param("experiment", ("k_forms",), id="experiment-path8"),
            pytest.param("experiment", ("surrogate_draws",), id="experiment-path9"),
            pytest.param("experiment", ("control_draws",), id="experiment-path10"),
        ],
    )
    def test_ill_typed_integer_is_rejected(self, tmp_path, capsys, command, path, bad):
        write_recovery_fixture(tmp_path)
        cfg = write_config(tmp_path / "c.cfg", edited_config(command, path, bad))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        key = next(k for k in reversed(path) if isinstance(k, str))
        assert f"vcomp: error: {key}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["x", "1.0", None, True], ids=["word", "numeric-string", "null", "bool"])
    @pytest.mark.parametrize(
        "command, path, key",
        [
            ("generate", ("params", "sigma2"), "params.sigma2"),
            ("generate", ("params", "eta2"), "params.eta2"),
            ("generate", ("coupling", "delta"), "coupling.delta"),
            ("experiment", ("params", "sigma2"), "params.sigma2"),
            ("experiment", ("params", "eta2"), "params.eta2"),
        ],
    )
    def test_ill_typed_number_is_named(self, tmp_path, capsys, command, path, key, bad):
        cfg = write_config(tmp_path / "c.cfg", edited_config(command, path, bad))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"vcomp: error: {key}: expected a number, got {bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit, key, bad",
        [
            ("generate", {"coupling": {"scheme": "additive_perturb", "delta": math.inf}}, "coupling.delta", math.inf),
            ("generate", {"params": {"sigma2": 10**400, "eta2": 1.0}}, "params.sigma2", 10**400),
            ("experiment", {"kind": "stein_discrepancy", "test_fn": {"name": "tanh_product", "scales": [math.nan, 3]}},
             "scales", math.nan),
            ("experiment", {"kind": "stein_discrepancy", "test_fn": {"name": "tanh_product", "scales": [math.inf]}},
             "scales", math.inf),
            ("experiment", {"kind": "coupling", "coupling": {"delta_grid": [0.0, math.nan]}}, "delta_grid", math.nan),
            ("experiment", {"design": {"kind": "gaussian_iid", "p_ratio": -math.inf}}, "design.p_ratio", -math.inf),
        ],
        ids=["delta-inf", "sigma2-huge-integer", "scales-nan", "scales-inf", "delta_grid-nan", "p_ratio-minus-inf"],
    )
    def test_non_finite_number_is_named(self, tmp_path, capsys, command, edit, key, bad):
        # json reads NaN and Infinity: they once wrote NaN data and reports
        cfg = write_config(tmp_path / "c.cfg", {**BASE_CFGS[command], **edit})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"vcomp: error: {key}: expected a finite number, got {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_removed_tail_grid_keys_are_unknown(self, tmp_path, capsys):
        # the tail takes its supremum on the fit's eta grid; it has no grid of its own
        cfg = write_config(tmp_path / "c.cfg", {**EXP_CFG, "kind": "tail_envelope", "replicates": 100,
                                                 "r_grid": [0.1], "eta_box": 8.0, "eta_grid_points": 129})
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert ("vcomp: error: experiment config: unknown keys ['eta_box', 'eta_grid_points']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("bad", ["false", 0, 1, None], ids=["string", "zero", "one", "null"])
    def test_trace_must_be_a_boolean(self, tmp_path, capsys, bad):
        # bool("false") is True: a string once switched the trace on
        write_recovery_fixture(tmp_path)
        cfg = write_config(tmp_path / "c.cfg", {**FIT_CFG, "trace": bad})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"vcomp: error: trace: expected true or false, got {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fit.json").exists()

    @pytest.mark.parametrize("bad", [5, None, ["X.csv"], {"path": "X.csv"}], ids=["int", "null", "list", "object"])
    @pytest.mark.parametrize("key", ["x", "y"])
    def test_fit_path_must_be_a_name(self, tmp_path, capsys, key, bad):
        # a path that is not a string once ended in a TypeError traceback from pathlib
        write_recovery_fixture(tmp_path)
        cfg = write_config(tmp_path / "c.cfg", {**FIT_CFG, key: bad})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"vcomp: error: {key}: expected a name, got {bad!r}\n"
        assert not (tmp_path / "o").exists()

    def test_huge_matrix_header_exit_one(self, tmp_path, capsys):
        write_recovery_fixture(tmp_path)
        # a 16-byte file whose header declares n = p = 2^31 float64 entries
        (tmp_path / "X.bin").write_bytes(struct.pack("<4sIII", b"VCM1", 2**31, 2**31, 8))
        cfg = write_config(tmp_path / "c.cfg", {"x": "X.bin", "y": "y.csv"})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vcomp: error: ") and "file holds 0 bytes" in err

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 6.25 EiB for an array with shape (30, 30000000000000000)"),
         "Unable to allocate 6.25 EiB for an array with shape (30, 30000000000000000)"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_exhaustion_exit_one(self, tmp_path, capsys, monkeypatch, error, message):
        # a design that cannot be allocated once ended in a traceback
        def gen_design(*args):
            raise error

        monkeypatch.setattr(experiments, "gen_design", gen_design)
        cfg = write_config(tmp_path / "c.cfg", {
            "kind": "tail_envelope", "n_grid": [30], "replicates": 100, "r_grid": [0.3],
            "laws": {"beta": "rademacher", "eps": "rademacher"}, "design": {"p_ratio": 1e15}})
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"vcomp: error: {message}\n"

    @pytest.mark.parametrize(
        "path, value",
        [
            (("n_grid",), 30),
            (("n_grid",), "30"),
            (("r_grid",), 0.3),
            (("test_fn", "scales"), 3.0),
            (("coupling", "delta_grid"), 0.5),
            (("design", "lambdas"), 5),
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
            # an infinite p_ratio once ended in an OverflowError traceback, 1e300 in a TypeError one
            ({"design": {"kind": "gaussian_iid", "p_ratio": math.inf}}, "p_ratio"),
            ({"design": {"kind": "gaussian_iid", "p_ratio": 1e300}}, "p_ratio"),
            ({"kind": "normality", "test_fn": {"name": "tanh_sum", "scales": []}}, "tanh_sum"),
            ({"kind": "normality", "test_fn": {"name": "tanh_product", "scales": []}}, "tanh_product"),
            ({"surrogate_draws": 0}, "surrogate_draws"),
            ({"control_draws": -5}, "control_draws"),
            ({"design": {"kind": "gaussian_iid", "p_ratio": -2}}, "p_ratio"),
            ({"kind": "normality", "test_fn": {"name": ["tanh_sum"]}}, "test_fn.name"),
            ({"r_grid": [0.3, 0.3]}, "r_grid"),
            ({"r_grid": [-1.0, 0.3]}, "r_grid"),
            # 10**21 replicates ran past a 60 s timeout; replicate r draws from stream c << 32 | r
            ({"replicates": 10**21}, "replicates: expected a count below 2**63"),
            ({"replicates": 2**32 - 2}, "replicates must be at most 4294967293"),
            ({"n_grid": [10**30]}, "n_grid: expected a count below 2**63"),
            # [0] ended in an IndexError traceback, [-3] in numpy's message, [1, 10] in the first
            # cell's, which named neither n_grid nor the limit
            ({"kind": "stein_discrepancy", "n_grid": [0]}, "n_grid: need n >= 1, got 0"),
            ({"kind": "stein_discrepancy", "n_grid": [-3]}, "n_grid: need n >= 1, got -3"),
            ({"kind": "consistency", "n_grid": [1, 10]}, "n_grid: need n >= 2, got 1"),
            # each once named ModelParams' field, sigma_sq or eta_sq, and not the config key
            ({"params": {"sigma2": -1, "eta2": 1.0}}, "sigma_sq (params.sigma2) must be finite and positive, got -1.0"),
            ({"params": {"sigma2": 0, "eta2": 1.0}}, "sigma_sq (params.sigma2) must be finite and positive, got 0.0"),
            ({"params": {"sigma2": 1.0, "eta2": -2}}, "eta_sq (params.eta2) must be finite and nonnegative, got -2.0"),
        ],
    )
    def test_out_of_range_value_is_named(self, tmp_path, capsys, edit, name):
        cfg = {**EXP_CFG, "kind": "tail_envelope", "replicates": 100, "r_grid": [0.1], **edit}
        cfg_path = write_config(tmp_path / "c.cfg", cfg)
        assert main(["experiment", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vcomp: error: ") and name in err

    @pytest.mark.parametrize("key, bad, message", [
        ("sigma2", -1, "sigma_sq (params.sigma2) must be finite and positive, got -1.0"),
        ("eta2", -2, "eta_sq (params.eta2) must be finite and nonnegative, got -2.0"),
    ])
    def test_generate_names_out_of_range_params(self, tmp_path, capsys, key, bad, message):
        cfg = write_config(tmp_path / "c.cfg", edited_config("generate", ("params", key), bad))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"vcomp: error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"kind": "stein_discrepancy", "k_forms": 2, "test_fn": {"name": "tanh_product", "scales": [3.0, 0.5]}},
             "test_scales: tanh_product takes 4 scales, one per coordinate, or one value, got [3.0, 0.5]"),
            ({"kind": "normality", "test_fn": {"name": "tanh_product", "scales": [3.0, 3.0, 1.0]}},
             "test_scales: tanh_product takes 2 scales, one per coordinate, or one value, got [3.0, 3.0, 1.0]"),
            ({"kind": "normality", "test_fn": {"name": "tanh_sum", "scales": [3.0, 0.5]}},
             "test_scales: tanh_sum takes one value, got [3.0, 0.5]"),
            ({"kind": "coupling", "coupling": {"scheme": "sparse_zero", "delta_grid": [0.5]}},
             "delta_grid: the sparse_zero scheme runs delta = 0 only, got [0.5]"),
            ({"kind": "coupling", "coupling": {"delta_grid": [0.5, -1.0]}},
             "delta_grid must be nonnegative, finite and strictly increasing, got [0.5, -1.0]"),
            ({"kind": "coupling", "coupling": {"delta_grid": [0.5, 0.5]}},
             "delta_grid must be nonnegative, finite and strictly increasing, got [0.5, 0.5]"),
            ({"kind": "coupling", "coupling": {"delta_grid": [1.0, 0.5]}},
             "delta_grid must be nonnegative, finite and strictly increasing, got [1.0, 0.5]"),
            ({"kind": "coupling"}, "delta_grid: the additive_perturb scheme needs at least one delta"),
            ({"kind": "normality", "params": {"sigma2": 1.0, "eta2": 0}},
             "eta0_sq (params.eta2) must be positive in a normality plan, got 0.0"),
        ],
        ids=["stein-k2-two-scales", "normality-three-scales", "tanh_sum-two-scales", "sparse_zero-delta",
             "delta-negative", "delta-repeated", "delta-decreasing", "additive-no-delta", "normality-eta2-zero"],
    )
    def test_plan_rejects_what_a_runner_would_not_use(self, tmp_path, capsys, edit, message):
        # each once ran: a Stein plan on its first scale repeated, a sparse_zero
        # plan at delta = 0 alone, a normality tanh_product into numpy's broadcast
        # error, coupling plans into duplicate or backward cells or into a failure
        # once the run had started, a normality plan at eta2 = 0 into the score
        # covariance's error after the first cell's design and eigensolve
        cfg = write_config(tmp_path / "c.cfg", {**EXP_CFG, "replicates": 100, **edit})
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"vcomp: error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("generate", {"laws": {"beta": 3, "eps": "gaussian"}}, "laws.beta: expected a law name, got 3"),
            ("experiment", {"laws": {"beta": "gaussian", "eps": None}}, "laws.eps: expected a law name, got None"),
            ("generate", {"design": {"kind": "fixed_spectrum", "lambdas": ["a", 1.0]}},
             "lambdas: expected a number, got 'a'"),
            ("experiment", {"design": {"kind": "fixed_spectrum", "lambdas": [1.0, "a"]}},
             "lambdas: expected a number, got 'a'"),
            # generate takes p itself; p_ratio was once accepted and ignored
            ("generate", {"design": {"kind": "gaussian_iid", "p_ratio": 2.0}},
             "design: unknown keys ['p_ratio']"),
            ("generate", {"laws": {"beta": "gaussian", "eps": "cauchy"}},
             "laws.eps: unknown law 'cauchy'; supported: ["),
            ("experiment", {"laws": {"beta": "cauchy", "eps": "gaussian"}},
             "laws.beta: unknown law 'cauchy'; supported: ["),
            # numpy once said only "Maximum allowed dimension exceeded"
            ("generate", {"p": 10**30}, f"p: expected a count below 2**63, got {10**30}"),
        ],
        ids=["generate-law", "experiment-law", "generate-lambdas", "experiment-lambdas", "generate-p_ratio",
             "generate-unknown-law", "experiment-unknown-law", "generate-p-beyond-int64"],
    )
    def test_bad_law_or_design_entry_is_named(self, tmp_path, capsys, command, edit, message):
        cfg = write_config(tmp_path / "c.cfg", {**BASE_CFGS[command], **edit})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"vcomp: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("design, message", [
        ({"kind": "fixed_spectrum", "lambdas": [1.0] * 20}, "fixed_spectrum needs 40 eigenvalues, got 20"),
        ({"kind": "gaussian_iid", "lambdas": [1.0] * 20},
         "eigenvalues are given only with a fixed_spectrum design, not 'gaussian_iid'"),
    ], ids=["wrong-length-at-second-n", "lambdas-without-fixed_spectrum"])
    def test_design_error_exits_one_before_any_fit(self, tmp_path, capsys, monkeypatch, design, message):
        monkeypatch.setattr(estimator, "fit_mle", lambda *a, **kw: pytest.fail("fit_mle was called"))
        cfg = write_config(tmp_path / "c.cfg", {"kind": "consistency", "n_grid": [20, 40], "replicates": 100,
                                                 "design": design})
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"vcomp: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["abc", "3.7", "", "1_000"])
    def test_bad_env_seed_names_the_variable(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("VCOMP_SEED", value)
        cfg = write_config(tmp_path / "gen.cfg", {k: v for k, v in GEN_CFG.items() if k != "seed"})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "vcomp: error: VCOMP_SEED: expected an integer" in capsys.readouterr().err
