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
byte-identical across runs.

Each command is an entry of ``_COMMANDS``: its CSV columns and a row
producer, which only computes rows.  One driver, ``_run``, serves all five:
it builds the model, domain and grid, resolves alpha and checks every output
path before the first row (``_outputs``), then for each alpha builds the
prior, hands the sample sizes to the producer and writes the CSV through
``_emit``.  The whole sweep is one block, so ``fig2`` searches every m at once.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 violated bound hierarchy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields

from . import __version__
from .bbound import averaged_ghosh, averaged_posterior_variance
from .estimate import (
    MaximumLikelihoodEstimator,
    PosteriorMeanEstimator,
    frequentist_risk,
)
from .fbound import (
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
    estimator_chain_report,
    ziv_zakai,
)

DEFAULT_ALPHAS = (-100.0, -10.0, 1.0, 10.0)


class ConfigError(ValueError):
    """Invalid configuration file, flag, or key combination."""


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _prior_kind(raw: str) -> str:
    value = raw.strip()
    if value not in ("flat", "family45"):
        raise ValueError(f"prior.kind must be flat or family45, got {value!r}")
    return value


def _m_list(raw: str) -> list[int]:
    value = [int(part) for part in raw.split(",") if part.strip()]
    if not value:
        raise ValueError("empty m.list")
    return value


def _key(name: str, parse: Callable[[str], object], default):
    """A config field read from the key ``name`` by ``parse``, which raises ``ValueError``."""
    return field(default=default, metadata={"key": name, "parse": parse})


@dataclass
class RunConfig:
    """Resolved run configuration; each field names its config key and parser."""

    model_n: int = _key("model.N", int, 2)
    theta0: float = _key("theta0", _finite, math.pi / 4)
    domain_a: float = _key("domain.a", _finite, 0.0)
    domain_b: float = _key("domain.b", _finite, math.pi / 2)
    prior_kind: str = _key("prior.kind", _prior_kind, "family45")
    prior_alpha: float | None = _key("prior.alpha", _finite, None)
    m_list: list[int] | None = _key("m.list", _m_list, None)
    m_max: int | None = _key("m.max", int, None)
    grid_nodes: int = _key("grid.nodes", int, POSTERIOR_NODES)
    output_path: str | None = _key("output.path", str.strip, None)

    def set_key(self, key: str, raw: str):
        spec = next((f for f in fields(self) if f.metadata["key"] == key), None)
        if spec is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            value = spec.metadata["parse"](raw)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key}: {raw!r} ({exc})") from exc
        setattr(self, spec.name, value)

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
            grid = QuadratureGrid.simpson(domain.a, domain.b, self.grid_nodes)
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
        if not domain.contains(self.theta0):
            raise ConfigError(f"theta0={self.theta0} outside the domain")
        return model, domain, grid

    def make_prior(self, grid: QuadratureGrid, alpha: float | None) -> PriorDensity:
        """The configured prior on ``grid``; the flat prior ignores ``alpha``."""
        if self.prior_kind != "flat" and alpha is None:
            raise ConfigError("cannot build prior: the family45 prior needs prior.alpha")
        try:
            if self.prior_kind == "flat":
                return flat_prior(PhaseDomain(grid.a, grid.b), grid)
            return family45_prior(alpha, grid)
        except (ModelError, NumericalFailure) as exc:
            raise ConfigError(f"cannot build prior: {exc}") from exc

    def echo_lines(self, command: str, alpha: float | None, out_path: str | None,
                   ms: list[int]) -> list[str]:
        """The ``#`` comment lines above a CSV: every key but ``m.max``, with the values used.

        ``alpha``, ``ms`` and ``out_path`` are the prior parameter, sample
        sizes and path of this CSV, which may differ from the configured ones.
        """
        used = {"prior_alpha": alpha, "m_list": ms, "output_path": out_path}
        lines = [f"# phasebound {__version__} {command}"]
        for spec in fields(self):
            if spec.name != "m_max":
                lines.append(f"# {spec.metadata['key']}="
                             f"{_echo(used.get(spec.name, getattr(self, spec.name)))}")
        return lines


def _echo(value) -> str:
    """A config value as its echo line writes it; None is empty."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(str(m) for m in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _check_output(out_path: str | None):
    """Raise ``ConfigError`` before any row is computed if ``_emit`` could not write.

    The path must be neither empty nor a directory, and its parent must be an
    existing, writable directory.
    """
    if out_path is None:
        return
    parent = os.path.dirname(out_path) or "."
    if not out_path:
        problem = "the path is empty"
    elif os.path.isdir(out_path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"directory {parent!r} does not exist"
    elif not os.access(parent, os.W_OK) or (os.path.exists(out_path)
                                             and not os.access(out_path, os.W_OK)):
        problem = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write output {out_path!r}: {problem}")


def _emit(lines: list[str], out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


def _fixed_theta0_chain(theta0: float, m: int,
                        bayes: PosteriorMeanEstimator) -> tuple[float, float]:
    """Averaged posterior variance and averaged Ghosh bound at theta0, checked in that order."""
    post_var = averaged_posterior_variance(theta0, m, bayes)
    agb = averaged_ghosh(theta0, m, bayes)
    check_chain([("bayes_avg_posterior_variance_fixed", post_var), ("averaged_ghosh", agb)],
                f"m={m}, theta0={theta0!r}, {bayes.prior.name}")
    return post_var, agb


def _fig1_rows(cfg, model, domain, prior, ms):
    """Bias, spread, and CRLB reference of the maximum-likelihood estimator."""
    estimator = MaximumLikelihoodEstimator(model, domain)
    fisher = float(model.fisher_information(cfg.theta0))
    for m in ms:
        risk = frequentist_risk(estimator, cfg.theta0, m, model)
        yield (m, risk.mean - cfg.theta0, math.sqrt(risk.variance),
               abs(risk.bias_derivative) / math.sqrt(m * fisher),
               risk.bias_derivative, m * fisher * risk.variance)


def _fig2_rows(cfg, model, domain, prior, ms):
    """Unbiased frequentist bound family, scaled by m, plus the ChRB argmax; searched at once."""
    chs = chrb(cfg.theta0, ms, model, domain)
    echs = echrb(cfg.theta0, ms, model, domain,
                 seed_lambdas=[[ch.argmax["lambda"]] for ch in chs])
    for m, ch, ech in zip(ms, chs, echs):
        c = crlb(cfg.theta0, m, model)
        check_chain([("echrb", ech.value), ("chrb", ch.value), ("crlb", c.value)],
                    f"m={m}, theta0={cfg.theta0!r}")
        yield (m, m * c.value, m * ch.value, m * ech.value, ch.argmax["lambda"])


def _fig3_rows(cfg, model, domain, prior, ms):
    """Fixed-phase comparison of Bayesian and frequentist risks for one prior."""
    fisher = float(model.fisher_information(cfg.theta0))
    estimator = PosteriorMeanEstimator(model, prior)
    for m in ms:
        risk = frequentist_risk(estimator, cfg.theta0, m, model)
        post_var, agb = _fixed_theta0_chain(cfg.theta0, m, estimator)
        yield (m, m * risk.variance, risk.bias_derivative**2 / fisher, m * post_var, m * agb)


def _fig4_rows(cfg, model, domain, prior, ms):
    """Random-phase bound chain (posterior variance, aGBr, VTB) plus Ziv-Zakai."""
    inv_f = 1.0 / float(model.fisher_information(cfg.theta0))
    estimator = PosteriorMeanEstimator(model, prior)
    for m in ms:
        chain = bayes_chain_report(estimator, m)
        zzb = ziv_zakai(prior, m, model)
        yield (m, m * chain.bayes_variance, m * chain.agbr, m * chain.van_trees, m * zzb, inv_f)


def _bounds_rows(cfg, model, domain, prior, ms):
    """Every bound at one cell (theta0, m), one ``quantity,value`` row each."""
    mle_est = MaximumLikelihoodEstimator(model, domain)
    bl_est = PosteriorMeanEstimator(model, prior)
    for m in ms:
        out = [("m", m), ("fisher_information", float(model.fisher_information(cfg.theta0)))]
        risk = frequentist_risk(mle_est, cfg.theta0, m, model)
        out += [("mle_mean", risk.mean), ("mle_variance", risk.variance),
                ("mle_mse", risk.mse), ("mle_bias_derivative", risk.bias_derivative)]
        out += [(r.name, r.value) for r in hierarchy_report(cfg.theta0, m, model, domain)]
        post_var, agb = _fixed_theta0_chain(cfg.theta0, m, bl_est)
        out += [("averaged_ghosh", agb), ("bayes_avg_posterior_variance_fixed", post_var),
                ("avg_estimator_variance", avg_estimator_variance(bl_est, prior, m, model)),
                ("avg_mse", avg_mse(bl_est, prior, m, model)),
                ("ziv_zakai", ziv_zakai(prior, m, model))]
        if prior.vanishes_at_boundaries:
            chain = bayes_chain_report(bl_est, m)
            out += [("van_trees", chain.van_trees), ("agbr", chain.agbr),
                    ("bayes_avg_posterior_variance", chain.bayes_variance)]
            # variance >= aCRLB >= fVTB is asserted for both estimators; it emits no row
            for estimator in (mle_est, bl_est):
                estimator_chain_report(estimator, prior, m, model)
        yield from out


@dataclass(frozen=True)
class _Command:
    """One command: its CSV column header and its row producer.

    ``rows(cfg, model, domain, prior, ms)`` yields the CSV rows of
    the sample sizes ``ms``, in their order; ``prior`` is None unless
    ``uses_prior``, and names itself by ``prior.name`` (``alpha=10`` in
    the family, ``flat prior`` for the flat prior).  A ``one_cell``
    command computes only the last sample size of the sweep.
    """

    columns: str
    rows: Callable
    uses_prior: bool = True
    one_cell: bool = False


_COMMANDS = {
    "fig1": _Command("m,bias,freq_std,crlb_std,bias_derivative,mFvar", _fig1_rows,
                     uses_prior=False),
    "fig2": _Command("m,m_crlb,m_chrb,m_echrb,argmax_lambda", _fig2_rows, uses_prior=False),
    "fig3": _Command("m,m_freq_var,m_crlb_biased,m_bayes_avg_post_var,m_agb", _fig3_rows),
    "fig4": _Command("m,m_bayes_var,m_agbr,m_vtb,m_zzb,inv_F", _fig4_rows),
    "bounds": _Command("quantity,value", _bounds_rows, one_cell=True),
}


def _outputs(cfg: RunConfig, command: str, out_path: str | None) -> list[tuple]:
    """(alpha, output path) pairs of ``command``, every path checked before the first row.

    A command without a prior carries no alpha, and neither does the flat
    prior, which ignores it.  An unset alpha means 10 for the one cell of
    ``bounds``, and the default battery for ``fig3`` and ``fig4``: one file
    per alpha next to ``out_path``, which is then required.
    """
    spec = _COMMANDS[command]
    if command == "fig4" and cfg.prior_kind == "flat":
        raise ConfigError("fig4 needs a boundary-vanishing prior; "
                          "the flat prior has no Van Trees bound")
    if not spec.uses_prior or cfg.prior_kind == "flat":
        outputs = [(None, out_path)]
    elif cfg.prior_alpha is not None or spec.one_cell:
        outputs = [(10.0 if cfg.prior_alpha is None else cfg.prior_alpha, out_path)]
    elif not out_path:
        raise ConfigError("the default alpha battery writes one file per alpha; "
                          "an --out path is required")
    else:
        root, ext = os.path.splitext(out_path)
        outputs = [(a, f"{root}_alpha{a:g}{ext or '.csv'}") for a in DEFAULT_ALPHAS]
    for _, path in outputs:
        _check_output(path)
    return outputs


def _run(command: str, cfg: RunConfig, out_path: str | None):
    """Build, check every output path, then sweep and write one CSV per alpha."""
    spec = _COMMANDS[command]
    model, domain, grid = cfg.build()
    ms = cfg.sample_sizes()[-1:] if spec.one_cell else cfg.sample_sizes()
    for alpha, path in _outputs(cfg, command, out_path):
        prior = cfg.make_prior(grid, alpha) if spec.uses_prior else None
        lines = cfg.echo_lines(command, alpha, path, ms) + [spec.columns]
        lines += [",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row)
                  for row in spec.rows(cfg, model, domain, prior, ms)]
        _emit(lines, path)


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
        _run(command, cfg, out)
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
