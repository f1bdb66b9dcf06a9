"""Command-line harness: deterministic CSV sweeps of the risk/bound families.

Subcommands::

    phasebound fig1  --config cfg [--key value ...] [--out out.csv]
    phasebound fig2  ...
    phasebound fig3  ...
    phasebound fig4  ...
    phasebound bounds ...

Configuration is a line-oriented ``key=value`` UTF-8 file with ``#`` comments;
command-line flags named after the keys (``--model.N 2``) override file
entries, and unknown keys are rejected.  Every CSV starts with comment lines
echoing the fully resolved configuration, uses 17 significant digits, and is
byte-identical across runs and thread counts (``PHASEBOUND_THREADS`` caps the
worker pool; cells are computed in parallel but written in sweep order).

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 violated bound hierarchy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import __version__
from .bbound import averaged_ghosh, averaged_posterior_variance
from .estimate import (
    MaximumLikelihoodEstimator,
    PosteriorMeanEstimator,
    frequentist_risk,
)
from .fbound import (
    BarankinConfig,
    HierarchyViolationError,
    check_chain,
    chrb,
    crlb,
    echrb,
    hierarchy_report,
)
from .model import GhzParityModel, ModelError, PhaseDomain, require_identifiable
from .numerics import (
    POSTERIOR_NODES,
    NumericalFailure,
    PriorDensity,
    QuadratureGrid,
    family45_prior,
    flat_prior,
)
from .rbound import (
    avg_estimator_variance,
    avg_mse,
    bayes_chain_report,
    ziv_zakai,
)

DEFAULT_ALPHAS = (-100.0, -10.0, 1.0, 10.0)


class ConfigError(ValueError):
    """Invalid configuration file, flag, or key combination."""


@dataclass
class RunConfig:
    """Resolved run configuration; field names mirror the config keys."""

    model_n: int = 2
    theta0: float = math.pi / 4
    domain_a: float = 0.0
    domain_b: float = math.pi / 2
    prior_kind: str = "family45"
    prior_alpha: float | None = None
    m_list: list[int] | None = None
    m_max: int | None = None
    grid_nodes: int = POSTERIOR_NODES
    output_path: str | None = None

    KEYS = {
        "model.N": "model_n",
        "theta0": "theta0",
        "domain.a": "domain_a",
        "domain.b": "domain_b",
        "prior.kind": "prior_kind",
        "prior.alpha": "prior_alpha",
        "m.list": "m_list",
        "m.max": "m_max",
        "grid.nodes": "grid_nodes",
        "output.path": "output_path",
    }

    def set_key(self, key: str, raw: str):
        if key not in self.KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        attr = self.KEYS[key]
        try:
            if key == "m.list":
                value = [int(part) for part in raw.split(",") if part.strip()]
                if not value:
                    raise ValueError("empty m.list")
            elif key in ("model.N", "m.max", "grid.nodes"):
                value = int(raw)
            elif key in ("theta0", "domain.a", "domain.b", "prior.alpha"):
                value = float(raw)
            elif key == "prior.kind":
                value = raw.strip()
                if value not in ("flat", "family45"):
                    raise ValueError(f"prior.kind must be flat or family45, got {value!r}")
            else:
                value = raw.strip()
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key}: {raw!r} ({exc})") from exc
        setattr(self, attr, value)

    def sample_sizes(self) -> list[int]:
        if self.m_list is not None:
            ms = self.m_list
        else:
            ms = list(range(1, (100 if self.m_max is None else self.m_max) + 1))
        if not ms or any(m < 1 for m in ms):
            raise ConfigError("sample sizes (m.list entries and m.max) must be >= 1")
        return ms

    def build(self):
        try:
            model = GhzParityModel(self.model_n)
            domain = PhaseDomain(self.domain_a, self.domain_b)
            require_identifiable(model, domain)
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
        if not domain.contains(self.theta0):
            raise ConfigError(f"theta0={self.theta0} outside the domain")
        if self.grid_nodes < 3 or self.grid_nodes % 2 == 0:
            raise ConfigError("grid.nodes must be an odd integer >= 3")
        grid = QuadratureGrid.simpson(domain.a, domain.b, self.grid_nodes)
        return model, domain, grid

    def make_prior(self, grid: QuadratureGrid, alpha: float | None) -> PriorDensity:
        try:
            if self.prior_kind == "flat":
                return flat_prior(PhaseDomain(grid.a, grid.b), grid)
            return family45_prior(10.0 if alpha is None else alpha, grid)
        except (ModelError, NumericalFailure) as exc:
            raise ConfigError(f"cannot build prior: {exc}") from exc

    def echo_lines(self, command: str, alpha: float | None, out_path: str | None) -> list[str]:
        pairs = [
            ("model.N", str(self.model_n)),
            ("theta0", _fmt(self.theta0)),
            ("domain.a", _fmt(self.domain_a)),
            ("domain.b", _fmt(self.domain_b)),
            ("prior.kind", self.prior_kind),
            ("prior.alpha", "" if alpha is None else _fmt(alpha)),
            ("m.list", ",".join(str(m) for m in self.sample_sizes())),
            ("grid.nodes", str(self.grid_nodes)),
            ("output.path", out_path or ""),
        ]
        lines = [f"# phasebound {__version__} {command}"]
        lines += [f"# {k}={v}" for k, v in pairs]
        return lines


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _thread_count() -> int:
    raw = os.environ.get("PHASEBOUND_THREADS", "")
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"PHASEBOUND_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError("PHASEBOUND_THREADS must be >= 1")
    return value


def _sweep(row_fn, ms: list[int]) -> list[tuple]:
    """Evaluate one row per m, in parallel, preserving sweep order."""
    workers = _thread_count()
    if workers == 1 or len(ms) == 1:
        return [row_fn(m) for m in ms]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(row_fn, ms))


def _emit(lines: list[str], out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header_lines: list[str], columns: list[str], rows: list[tuple]) -> list[str]:
    body = [",".join(columns)]
    for row in rows:
        body.append(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row))
    return header_lines + body


def cmd_fig1(cfg: RunConfig, out_path: str | None):
    """Bias, spread, and CRLB reference of the maximum-likelihood estimator."""
    model, domain, _ = cfg.build()
    estimator = MaximumLikelihoodEstimator(model, domain)
    fisher = float(model.fisher_information(cfg.theta0))

    def row(m: int):
        risk = frequentist_risk(estimator, cfg.theta0, m, model)
        return (m,
                risk.mean - cfg.theta0,
                math.sqrt(risk.variance),
                abs(risk.bias_derivative) / math.sqrt(m * fisher),
                risk.bias_derivative,
                m * fisher * risk.variance)

    rows = _sweep(row, cfg.sample_sizes())
    _emit(_csv(cfg.echo_lines("fig1", None, out_path),
               ["m", "bias", "freq_std", "crlb_std", "bias_derivative", "mFvar"],
               rows), out_path)


def cmd_fig2(cfg: RunConfig, out_path: str | None):
    """Unbiased frequentist bound family, scaled by m, plus the ChRB argmax."""
    model, domain, _ = cfg.build()
    config = BarankinConfig()

    def row(m: int):
        c = crlb(cfg.theta0, m, model)
        ch = chrb(cfg.theta0, m, model, config, domain)
        ech = echrb(cfg.theta0, m, model, config, domain,
                    seed_lambdas=[ch.argmax["lambda"]])
        check_chain([("echrb", ech.value), ("chrb", ch.value), ("crlb", c.value)],
                    f"m={m}, theta0={cfg.theta0!r}")
        return (m, m * c.value, m * ch.value, m * ech.value, ch.argmax["lambda"])

    rows = _sweep(row, cfg.sample_sizes())
    _emit(_csv(cfg.echo_lines("fig2", None, out_path),
               ["m", "m_crlb", "m_chrb", "m_echrb", "argmax_lambda"],
               rows), out_path)


def _alpha_outputs(cfg: RunConfig, out_path: str | None):
    """(alpha, per-alpha output path) pairs; multi-alpha requires --out."""
    if cfg.prior_kind == "flat" or cfg.prior_alpha is not None:
        return [(cfg.prior_alpha, out_path)]
    if out_path is None:
        raise ConfigError("the default alpha battery writes one file per alpha; "
                          "an --out path is required")
    root, ext = os.path.splitext(out_path)
    return [(a, f"{root}_alpha{a:g}{ext or '.csv'}") for a in DEFAULT_ALPHAS]


def cmd_fig3(cfg: RunConfig, out_path: str | None):
    """Fixed-phase comparison of Bayesian and frequentist risks for one prior.

    With no ``prior.alpha`` configured, sweeps the default battery
    (-100, -10, 1, 10) writing one file per alpha.
    """
    model, domain, grid = cfg.build()
    fisher = float(model.fisher_information(cfg.theta0))
    for alpha, path in _alpha_outputs(cfg, out_path):
        prior = cfg.make_prior(grid, alpha)
        estimator = PosteriorMeanEstimator(model, prior)

        def row(m: int):
            risk = frequentist_risk(estimator, cfg.theta0, m, model)
            return (m,
                    m * risk.variance,
                    risk.bias_derivative**2 / fisher,
                    m * averaged_posterior_variance(cfg.theta0, m, model, prior),
                    m * averaged_ghosh(cfg.theta0, m, model, prior))

        rows = _sweep(row, cfg.sample_sizes())
        _emit(_csv(cfg.echo_lines("fig3", alpha, path),
                   ["m", "m_freq_var", "m_crlb_biased", "m_bayes_avg_post_var", "m_agb"],
                   rows), path)


def cmd_fig4(cfg: RunConfig, out_path: str | None):
    """Random-phase bound chain (posterior variance, aGBr, VTB) plus Ziv-Zakai.

    Requires a prior that vanishes at the domain boundaries; the flat prior is
    rejected because the Van Trees bound is undefined for it.
    """
    if cfg.prior_kind == "flat":
        raise ConfigError("fig4 needs a boundary-vanishing prior; "
                          "the flat prior has no Van Trees bound")
    model, domain, grid = cfg.build()
    inv_f = 1.0 / float(model.fisher_information(cfg.theta0))
    for alpha, path in _alpha_outputs(cfg, out_path):
        prior = cfg.make_prior(grid, alpha)

        def row(m: int):
            chain = bayes_chain_report(prior, m, model)
            zzb = ziv_zakai(prior, m, model)
            return (m, m * chain.bayes_variance, m * chain.agbr,
                    m * chain.van_trees, m * zzb, inv_f)

        rows = _sweep(row, cfg.sample_sizes())
        _emit(_csv(cfg.echo_lines("fig4", alpha, path),
                   ["m", "m_bayes_var", "m_agbr", "m_vtb", "m_zzb", "inv_F"],
                   rows), path)


def cmd_bounds(cfg: RunConfig, out_path: str | None):
    """Single-cell summary of every bound at (theta0, m = last of the sweep)."""
    model, domain, grid = cfg.build()
    m = cfg.sample_sizes()[-1]
    alpha = cfg.prior_alpha
    prior = cfg.make_prior(grid, alpha)
    mle_est = MaximumLikelihoodEstimator(model, domain)
    bl_est = PosteriorMeanEstimator(model, prior)

    rows: list[tuple] = [("m", m), ("fisher_information", float(model.fisher_information(cfg.theta0)))]
    risk = frequentist_risk(mle_est, cfg.theta0, m, model)
    rows += [("mle_mean", risk.mean), ("mle_variance", risk.variance),
             ("mle_mse", risk.mse), ("mle_bias_derivative", risk.bias_derivative)]
    for report in hierarchy_report(cfg.theta0, m, model, domain):
        rows.append((report.name, report.value))
    rows.append(("averaged_ghosh", averaged_ghosh(cfg.theta0, m, model, prior)))
    rows.append(("bayes_avg_posterior_variance_fixed",
                 averaged_posterior_variance(cfg.theta0, m, model, prior)))
    rows.append(("avg_estimator_variance", avg_estimator_variance(bl_est, prior, m, model)))
    rows.append(("avg_mse", avg_mse(bl_est, prior, m, model)))
    rows.append(("ziv_zakai", ziv_zakai(prior, m, model)))
    if prior.vanishes_at_boundaries:
        chain = bayes_chain_report(prior, m, model)
        rows += [("van_trees", chain.van_trees), ("agbr", chain.agbr),
                 ("bayes_avg_posterior_variance", chain.bayes_variance)]
    _emit(_csv(cfg.echo_lines("bounds", alpha, out_path),
               ["quantity", "value"], rows), out_path)


_COMMANDS = {
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "bounds": cmd_bounds,
}


def _parse_args(argv: list[str]) -> tuple[str, RunConfig, str | None]:
    parser = argparse.ArgumentParser(
        prog="phasebound",
        description="Phase-estimation risk functions and lower bounds as CSV sweeps.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    args, rest = parser.parse_known_args(argv)

    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                content = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for lineno, line in enumerate(content, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{args.config}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            cfg.set_key(key.strip(), raw.strip())

    i = 0
    while i < len(rest):
        flag = rest[i]
        if not flag.startswith("--"):
            raise ConfigError(f"unexpected argument {flag!r}")
        if i + 1 >= len(rest):
            raise ConfigError(f"flag {flag!r} is missing a value")
        cfg.set_key(flag[2:], rest[i + 1])
        i += 2

    out = args.out if args.out is not None else cfg.output_path
    return args.command, cfg, out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, cfg, out = _parse_args(argv)
        _COMMANDS[command](cfg, out)
    except ConfigError as exc:
        print(f"phasebound: config error: {exc}", file=sys.stderr)
        return 2
    except HierarchyViolationError as exc:
        print(f"phasebound: hierarchy violation: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, ModelError) as exc:
        print(f"phasebound: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
