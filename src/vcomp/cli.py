"""Config-driven command line: generate datasets, fit the MLE, run experiments.

Exit codes: 0 success, 1 I/O, numeric or memory failure, 2 statistical flag
(non-identifiable design or degenerate cell).  Configs are JSON with strict
key checking; relative paths resolve against the config file's directory.
generate and experiment take the seed from --seed, then the config, then the
VCOMP_SEED environment variable; fit draws nothing and takes no seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import estimator as est
from . import spectrum
from .errors import ConfigError, NonIdentifiableError, TailGridError, VcompError
from .experiments import ExperimentPlan, json_digest, run_experiment
from .laws import SeedSpec, law_by_name
from .matio import load_matrix, load_vector
from .model import (
    CouplingSpec,
    DesignSpec,
    ModelParams,
    gen_coupled,
    gen_design,
    gen_independent,
    save_dataset,
)
from .spectrum import decompose_gram_rotating, one_blas_thread

_GENERATE_KEYS = {"n", "p", "design", "params", "laws", "coupling", "seed", "stream"}
_DESIGN_KEYS = {"kind", "lambdas"}
_PARAMS_KEYS = {"sigma2", "eta2"}
_LAWS_KEYS = {"beta", "eps"}
_COUPLING_KEYS = {"scheme", "delta", "fraction"}
_FIT_KEYS = {"x", "y", "trace"}
_EXPERIMENT_KEYS = {
    "kind", "n_grid", "replicates", "params", "laws", "design", "seed",
    "r_grid", "test_fn", "coupling",
    "k_forms", "qspec", "surrogate_draws", "control_draws",
}


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _integer(value, key: str, count: bool = True) -> int:
    # bool is a subclass of int, and int() would silently truncate 3.7
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if count and value >= 2**63:  # a seed is masked to 64 bits; a count reaches numpy as an int64
        raise ConfigError(f"{key}: expected a count below 2**63, got {value}")
    return value


def _number(value, key: str) -> float:
    # float() would accept a numeric string and fail on others without the key
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    # json reads NaN and Infinity, and an integer literal beyond the float range as an int
    if isinstance(value, int) and abs(value) > sys.float_info.max or not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _name(value, key: str) -> str:
    # a list would reach a dict lookup as an unhashable key
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a name, got {value!r}")
    return value


def _listed(value, key: str):
    # a scalar would be iterated (a string) or fail deep inside as a TypeError
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    return value


def _load_config(path: str) -> tuple[dict, Path]:
    cfg_path = Path(path)
    try:
        with open(cfg_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {cfg_path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg, cfg_path.parent


def _resolve_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in cfg:
        return _integer(cfg["seed"], "seed", count=False)
    env = os.environ.get("VCOMP_SEED")
    if env is not None:
        if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", env):
            raise ConfigError(f"VCOMP_SEED: expected an integer, got {env!r}")
        return int(env)
    return 0


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(outdir: Path, command: str, cfg: dict, seed: int | None) -> None:
    blas = spectrum._openblas()  # None under another BLAS, where one_blas_thread does nothing
    _write_json(
        outdir / "manifest.json",
        {
            "blas": {"openblas_threads": blas and blas.scipy_openblas_get_num_threads64_(), "one_thread_pin": bool(blas)},
            "command": command,
            "config_hash": json_digest(cfg),
            "seed": seed,
            "versions": {
                "vcomp": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        },
    )


def _design_from_cfg(cfg: dict, keys: set[str]) -> DesignSpec:
    _check_keys(cfg, keys, "design")
    lambdas = cfg.get("lambdas")
    if lambdas is not None:
        # checked, not converted: the values go into the report's plan as given
        lambdas = tuple(_listed(lambdas, "lambdas"))
        for value in lambdas:
            _number(value, "lambdas")
    return DesignSpec(kind=cfg.get("kind", "gaussian_iid"), lambdas=lambdas)


def _params_from_cfg(cfg: dict) -> tuple[float, float]:
    """(sigma2, eta2) from a ``params`` section; ModelParams checks their range."""
    _check_keys(cfg, _PARAMS_KEYS, "params")
    return tuple(_number(_required(cfg, key, "params"), f"params.{key}") for key in ("sigma2", "eta2"))


def _laws_from_cfg(cfg: dict) -> tuple[str, str]:
    """(beta, eps) from a ``laws`` section, as given, each a supported law's name."""
    _check_keys(cfg, _LAWS_KEYS, "laws")
    for key in ("beta", "eps"):
        name = _required(cfg, key, "laws")
        if not isinstance(name, str):  # law_by_name would fail with an AttributeError
            raise ConfigError(f"laws.{key}: expected a law name, got {name!r}")
        try:
            law_by_name(name)
        except VcompError as exc:  # an unknown name
            raise ConfigError(f"laws.{key}: {exc}") from None
    return cfg["beta"], cfg["eps"]


def cmd_generate(args) -> int:
    cfg, _ = _load_config(args.config)
    _check_keys(cfg, _GENERATE_KEYS, "generate config")
    seed_val = _resolve_seed(args, cfg)
    seed = SeedSpec(master_seed=seed_val, stream_id=_integer(cfg.get("stream", 0), "stream", count=False))
    n = _integer(_required(cfg, "n", "generate config"), "n")
    p = _integer(_required(cfg, "p", "generate config"), "p")
    design = _design_from_cfg(cfg.get("design", {"kind": "gaussian_iid"}), _DESIGN_KEYS)
    params = ModelParams(*_params_from_cfg(_required(cfg, "params", "generate config")))
    laws_cfg = cfg.get("laws", {"beta": "gaussian", "eps": "gaussian"})
    beta_law, eps_law = (law_by_name(name) for name in _laws_from_cfg(laws_cfg))
    coupling = None  # read before the design is drawn
    if cfg.get("coupling") is not None:
        _check_keys(cfg["coupling"], _COUPLING_KEYS, "coupling")
        coupling = CouplingSpec(
            scheme=_required(cfg["coupling"], "scheme", "coupling"),
            delta=_number(cfg["coupling"].get("delta", 0.0), "coupling.delta"),
            fraction=_number(cfg["coupling"].get("fraction", 0.0), "coupling.fraction"),
        )

    # one BLAS thread, so X.csv and y.csv do not depend on the thread count
    with one_blas_thread():
        X = gen_design(n, p, design, seed)
        if coupling is None:
            ds = gen_independent(X, params, beta_law, eps_law, seed)
        else:
            ds = gen_coupled(X, params, beta_law, eps_law, coupling, seed)

    outdir = Path(args.out)
    save_dataset(ds, outdir)
    _manifest(outdir, "generate", cfg, seed_val)
    return 0


def _design_for(x_path: Path, y: np.ndarray) -> np.ndarray:
    """The design at ``x_path``, once ``y`` is checked against its rows, so a
    bad ``y`` fails before the eigensolve."""
    X = load_matrix(x_path)
    est.checked_outcomes(y, len(X))
    return X


def cmd_fit(args) -> int:
    cfg, base = _load_config(args.config)
    _check_keys(cfg, _FIT_KEYS, "fit config")
    x_path = base / _name(_required(cfg, "x", "fit config"), "x")
    y_path = base / _name(_required(cfg, "y", "fit config"), "y")
    trace = cfg.get("trace", False)
    if not isinstance(trace, bool):  # bool("false") is True
        raise ConfigError(f"trace: expected true or false, got {trace!r}")
    y = load_vector(y_path)
    # decompose_gram_rotating holds the design's only reference and drops it
    # once the Gram is formed, so no n x p matrix is resident during the
    # eigensolve, and it never forms U; one BLAS thread, so fit.json does not
    # depend on the thread count
    with one_blas_thread():
        spec, y_check = decompose_gram_rotating(_design_for(x_path, y), y)
        state = est.ScoreState.from_observations(spec, y, y_check)
        fit = est.fit_mle(state, est.FitOptions(trace=trace))

    out = est.fit_result_to_dict(fit)
    if trace:
        out["trace"] = [[e, ll] for e, ll in fit.eta_grid_trace]
    outdir = Path(args.out)
    _write_json(outdir / "fit.json", out)
    _manifest(outdir, "fit", cfg, None)
    return 2 if fit.identifiability_flag else 0


def _numbers(value, key: str) -> tuple[float, ...]:
    return tuple(_number(v, key) for v in _listed(value, key))


def _plan_from_cfg(cfg: dict, seed: int, workers: int) -> ExperimentPlan:
    """The plan a config asks for; a key it leaves out keeps the plan's default."""
    where = "experiment config"
    _check_keys(cfg, _EXPERIMENT_KEYS, where)
    kw = {
        "kind": _required(cfg, "kind", where),
        "n_grid": tuple(_integer(v, "n_grid") for v in _listed(_required(cfg, "n_grid", where), "n_grid")),
        "replicates": _integer(_required(cfg, "replicates", where), "replicates"),
        "master_seed": seed,
        "workers": workers,
    }

    def take(values: dict, key: str, check=None, field: str | None = None, label: str | None = None):
        if key in values:  # without a check, the plan checks the value
            kw[field or key] = check(values[key], label or key) if check else values[key]

    if "params" in cfg:
        kw["sigma0_sq"], kw["eta0_sq"] = _params_from_cfg(cfg["params"])
    if "laws" in cfg:
        kw["beta_law"], kw["eps_law"] = _laws_from_cfg(cfg["laws"])
    if "design" in cfg:
        design = _design_from_cfg(cfg["design"], _DESIGN_KEYS | {"p_ratio"})
        kw["design"], kw["design_lambdas"] = design.kind, design.lambdas
        take(cfg["design"], "p_ratio", _number, label="design.p_ratio")
    for key, check in (("r_grid", _numbers), ("k_forms", _integer), ("qspec", None),
                       ("surrogate_draws", _integer), ("control_draws", _integer)):
        take(cfg, key, check)
    fn_cfg, coup_cfg = cfg.get("test_fn", {}), cfg.get("coupling", {})
    _check_keys(fn_cfg, {"name", "scales"}, "test_fn")
    take(fn_cfg, "name", _name, "test_fn", "test_fn.name")
    take(fn_cfg, "scales", _numbers, "test_scales")
    _check_keys(coup_cfg, {"scheme", "delta_grid", "delta_scale", "fraction"}, "coupling")
    take(coup_cfg, "scheme", field="coupling_scheme")
    take(coup_cfg, "delta_grid", _numbers)
    take(coup_cfg, "delta_scale")
    take(coup_cfg, "fraction", _number, "sparse_fraction", "coupling.fraction")
    return ExperimentPlan(**kw)


def cmd_experiment(args) -> int:
    cfg, _ = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    plan = _plan_from_cfg(cfg, seed, args.workers)
    t0 = time.perf_counter()
    report = run_experiment(plan)
    seconds = time.perf_counter() - t0
    outdir = Path(args.out)
    report.write(outdir)
    _manifest(outdir, "experiment", cfg, seed)
    print(f"experiment {plan.kind}: {seconds:.1f}s", file=sys.stderr)
    degenerate = any(cell.get("degenerate") for cell in report.cells)
    return 2 if degenerate else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcomp",
        description="Variance-components estimation and Monte Carlo verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("generate", cmd_generate), ("fit", cmd_fit), ("experiment", cmd_experiment)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(handler=fn)
        if name != "fit":
            p.add_argument("--seed", type=int, default=None, help="master seed (overrides config and VCOMP_SEED)")
        if name == "experiment":
            p.add_argument("--workers", type=int, default=1, help="worker processes (results are invariant to this)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NonIdentifiableError, TailGridError) as exc:
        print(f"vcomp: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, VcompError, OSError, ValueError, KeyError) as exc:
        print(f"vcomp: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"vcomp: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
