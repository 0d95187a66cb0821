"""Experiment runner: config parsing, seeded execution, persistence, reports.

Configs are plain-text key/value files with section headers (INI syntax);
matrices are semicolon-separated rows of comma-separated decimals. Every run
writes results.csv (fixed schema), manifest.json (config echo, code version,
per-cell seeds) and report.json (fits, targets, pass/fail). Reruns of the
same config are byte-identical. results.csv is also the resume state: a
rerun reuses each group of rows found at its place in it, so partial runs
resume.

Exit codes: 0 pass, 1 fail, 2 config error, 3 incomplete record or no verdict.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .diagnostics import BoundCheck, quasi_bernoulli_constant, sigma_bounds, sigma_bounds_check
from .errors import ConfigError, FitRefusedError, IncompleteRecordError, OrbitRecurError
from .estimators import (
    CORRELATION_MIN_POINTS,
    check_collision_design,
    correlation_integral,
    correlation_points_from_orbit,
    d2_estimate,
    exponent_fit,
    h2_collision_estimate,
)
from .intervalmaps import GaussMap, KDoubling, MPInduced, PiecewiseAffine
from .matcher import check_enumeration, check_return_set, match_curve, return_set_measure
from .proximity import alpha_of, curve_min_n, proximity_curve
from .rng import derive_seed, make_rng
from .symbolic import (
    BernoulliMeasure,
    GibbsMeasure,
    MarkovMeasure,
    MeasureSpec,
    TransitionSystem,
    stationary_distribution,
)
from .tables import CurveRow, check_curve
from .thermo import renyi_entropy_exact, z_decay_check

__all__ = ["ExperimentConfig", "load_config", "parse_config_text", "run", "verify",
           "measure_from_section", "map_from_section", "main", "EXAMPLE_CONFIGS"]

# the [experiment] keys each kind reads, besides kind and master_seed
_CURVE_KEYS = {"n_grid", "replicates", "tolerance", "min_grid_points"}
KINDS = {"match_curve": _CURVE_KEYS, "proximity_curve": _CURVE_KEYS | {"variant", "burn_in"},
         "d2": {"samples", "replicates", "tolerance", "mode", "burn_in"},
         "h2": {"samples", "block_len", "replicates", "tolerance"},
         "diagnostics": {"r", "k_max"}, "returns": {"r", "k_list", "mode", "samples"}}

CSV_HEADER = ["experiment", "kind", "n", "replicate", "seed", "value", "aux", "flag"]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    system: dict[str, str]
    n_grid: tuple[int, ...] = ()
    replicates: int = 1
    master_seed: int = 0
    tolerance: float | None = None
    variant: str = "all"
    samples: int = 0
    block_len: int = 0
    r: int = 0
    k_max: int = 0
    k_list: tuple[int, ...] = ()
    mode: str = "exact"
    burn_in: int | None = None
    min_grid_points: int = 4
    raw_text: str = ""

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def canonical_text(self) -> str:
        sys_part = ";".join(f"{k}={v}" for k, v in sorted(self.system.items()))
        return repr(tuple(sys_part if f.name == "system" else getattr(self, f.name)
                          for f in fields(self) if f.name != "raw_text"))

    @cached_property
    def spec(self):
        """The interval map of an orbit kind, else the measure: built once."""
        if self.kind in ("proximity_curve", "d2"):
            return map_from_section(self.system)
        return measure_from_section(self.system)


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ConfigError(f"bad matrix literal {text!r}: {exc}") from None
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"ragged matrix literal {text!r}")
    return np.asarray(rows, dtype=np.float64)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x.strip()) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}: {exc}") from None


# the parser of each [experiment] key, by the type of its ExperimentConfig field
_PARSERS = {"int": int, "int | None": int, "float | None": float, "str": str.strip,
            "tuple[int, ...]": _parse_int_list}
_EXPERIMENT_KEYS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)
                    if f.name not in ("system", "raw_text")}

# the [system] keys each type reads, besides type
_SYSTEM_KEYS = {
    "bernoulli": {"weights"}, "markov": {"transition", "stationary", "admissible"},
    "gibbs2block": {"admissible", "potential"}, "kdoubling": {"k"},
    "affine": {"breakpoints", "truncation"}, "gauss": set(), "mp_induced": {"a"},
}


def measure_from_section(section: dict[str, str]) -> MeasureSpec:
    """Build a measure from a [system] section (types bernoulli, markov,
    gibbs2block)."""
    kind = section.get("type", "").strip().lower()
    try:
        if kind == "bernoulli":
            if "weights" not in section:
                raise ConfigError("bernoulli system needs weights")
            return BernoulliMeasure(_parse_matrix(section["weights"]).ravel())
        if kind == "markov":
            if "transition" not in section:
                raise ConfigError("markov system needs a transition matrix")
            P = _parse_matrix(section["transition"])
            pi = (_parse_matrix(section["stationary"]).ravel()
                  if "stationary" in section else stationary_distribution(P))
            ts = (TransitionSystem(_parse_matrix(section["admissible"]).astype(np.uint8))
                  if "admissible" in section else None)
            return MarkovMeasure(pi, P, ts)
        if kind == "gibbs2block":
            if "admissible" not in section or "potential" not in section:
                raise ConfigError("gibbs2block system needs admissible and potential matrices")
            ts = TransitionSystem(_parse_matrix(section["admissible"]).astype(np.uint8))
            phi = np.where(ts.admissible == 1, _parse_matrix(section["potential"]), -np.inf)
            return GibbsMeasure(phi, ts)
    except ConfigError:
        raise
    except OrbitRecurError as exc:
        raise ConfigError(f"invalid {kind} system: {exc}") from None
    raise ConfigError(f"unknown measure type {kind!r}")


def map_from_section(section: dict[str, str]):
    """Build an interval map from a [system] section (types kdoubling,
    affine, gauss, mp_induced)."""
    kind = section.get("type", "").strip().lower()
    try:
        if kind == "kdoubling":
            return KDoubling(int(section.get("k", "2")))
        if kind == "affine":
            if "breakpoints" in section:
                return PiecewiseAffine(tuple(_parse_matrix(section["breakpoints"]).ravel()))
            return PiecewiseAffine.dyadic(int(section.get("truncation", "40")))
        if kind == "gauss":
            return GaussMap()
        if kind == "mp_induced":
            return MPInduced(float(section.get("a", "0.5")))
    except (OrbitRecurError, ValueError) as exc:
        raise ConfigError(f"invalid map system: {exc}") from None
    raise ConfigError(f"unknown map type {kind!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    if "experiment" not in parser or "system" not in parser:
        raise ConfigError("config needs [experiment] and [system] sections")
    kind = parser["experiment"].get("kind", "")
    if kind not in KINDS:
        raise ConfigError(f"experiment.kind must be one of {tuple(KINDS)}, got {kind!r}")
    values = {}
    for key, text_value in parser["experiment"].items():
        if key not in KINDS[kind] | {"kind", "master_seed"}:
            raise ConfigError(f"unknown [experiment] key {key!r} for kind {kind}")
        try:
            values[key] = _EXPERIMENT_KEYS[key](text_value)
        except ValueError as exc:
            raise ConfigError(f"bad experiment field {key}: {exc}") from None
    if "master_seed" not in values:
        raise ConfigError("experiment.master_seed is required (no wall-clock seeding)")
    if kind == "d2" and "mode" in values:
        if values["mode"] not in ("iid", "orbit"):
            raise ConfigError("d2 mode must be iid (default) or orbit")
        if values["mode"] == "iid":
            del values["mode"]  # the default, so iid and an unset mode give one config
    system = dict(parser["system"])
    system_type = system.get("type", "").strip().lower()
    unknown = sorted(set(system) - {"type"} - _SYSTEM_KEYS.get(system_type, set()))
    if system_type in _SYSTEM_KEYS and unknown:
        raise ConfigError(f"unknown [system] key(s) {unknown} for type {system_type}")
    cfg = ExperimentConfig(system=system, raw_text=text, **values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    """Reject a config that run could not compute, reading each limit from
    the library that holds it."""
    if cfg.replicates < 1 or cfg.samples < 0:
        raise ConfigError("replicates must be >= 1 and samples >= 0")
    if cfg.kind == "diagnostics" and (cfg.r < 2 or cfg.k_max < 1):
        raise ConfigError("diagnostics needs r >= 2 and k_max >= 1")
    if cfg.kind == "returns":
        if not cfg.k_list or len(set(cfg.k_list)) < len(cfg.k_list):
            raise ConfigError("returns needs a non-empty k_list without repeated values")
        if cfg.mode not in ("exact", "empirical"):
            raise ConfigError("returns mode must be exact or empirical")
        if cfg.samples and cfg.mode == "exact":
            raise ConfigError("samples applies to returns only with mode = empirical")
    iterates = cfg.kind == "proximity_curve" or (cfg.kind == "d2" and cfg.mode == "orbit")
    if cfg.burn_in is not None and not iterates:
        raise ConfigError("burn_in applies to d2 only with mode = orbit")
    system = cfg.spec  # fail on malformed system sections at parse time, not mid-run
    try:
        if iterates:
            system.resolve_burn_in(cfg.burn_in)
        if cfg.kind == "match_curve":
            check_curve(cfg.n_grid, cfg.replicates)
            if renyi_entropy_exact(system).h2 <= 0:
                raise ValueError("needs a positive Renyi entropy h2")
        elif cfg.kind == "proximity_curve":
            check_curve(cfg.n_grid, cfg.replicates, curve_min_n(cfg.variant))
        elif cfg.kind == "h2":
            check_collision_design(system, cfg.block_len, cfg.samples)
        elif cfg.kind == "d2":
            # the points correlation_integral gets: the samples, or the orbit subsample
            points = (len(range(cfg.samples)[::alpha_of(cfg.samples)]) if cfg.mode == "orbit"
                      else cfg.samples)
            if points < CORRELATION_MIN_POINTS:
                raise ValueError(f"{points} correlation points, fewer than {CORRELATION_MIN_POINTS}")
        elif cfg.kind == "diagnostics":
            check_enumeration(system.alphabet_size, min(cfg.k_max, cfg.r - 1))
        elif cfg.kind == "returns":
            for k in cfg.k_list:
                check_return_set(cfg.r, k)
            # only exact lags below r enumerate words; the largest of them decides
            enumerated = [k for k in cfg.k_list if k < cfg.r]
            if cfg.mode == "exact" and enumerated:
                check_enumeration(system.alphabet_size, max(enumerated))
    except (ValueError, OrbitRecurError) as exc:
        raise ConfigError(f"{cfg.kind}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRecord:
    rows: list[CurveRow]
    report: dict[str, Any]
    out_dir: Path


def _cells(cfg: ExperimentConfig) -> list[tuple[int, int, int, int]]:
    """The cell plan: (group, n, replicate, seed) of every cell, in row
    order. A group is a unit of work that run computes or reuses whole; the
    seed is derive_seed of the cell, or 0 for cells that draw nothing
    (diagnostics, exact returns)."""
    if cfg.kind in ("match_curve", "proximity_curve"):
        return [(n, n, rep, derive_seed(cfg.master_seed, cfg.kind, n, rep))
                for n in cfg.n_grid for rep in range(cfg.replicates)]
    if cfg.kind in ("d2", "h2"):
        size = cfg.samples if cfg.kind == "d2" else cfg.block_len
        return [(rep, cfg.samples, rep, derive_seed(cfg.master_seed, cfg.kind, size, rep))
                for rep in range(cfg.replicates)]
    if cfg.kind == "returns":
        return [(k, k, 0, derive_seed(cfg.master_seed, "returns", k, 0)
                 if cfg.mode == "empirical" else 0) for k in sorted(cfg.k_list)]
    return [(0, t, 0, 0) for t in range(cfg.k_max + 1)]  # diagnostics: sigma checks, psi decay


def _run_group(cfg: ExperimentConfig, key: int,
               cells: list[tuple[int, int, int]]) -> list[CurveRow]:
    """All rows of one work group, deterministic in (config, key); cells are
    its planned (n, replicate, seed)."""
    system = cfg.spec
    if cfg.kind == "match_curve":
        return match_curve(system, None, [key], cfg.replicates, cfg.master_seed)
    if cfg.kind == "proximity_curve":
        return proximity_curve(system, [key], cfg.replicates, cfg.variant,
                               cfg.master_seed, burn_in=cfg.burn_in)
    if cfg.kind == "diagnostics":
        return [CurveRow(n=t, replicate=0, seed=0, value=chk.margin, aux=chk.lhs, flag="ok")
                for t, chk in enumerate(sigma_bounds_check(system, cfg.r, cfg.k_max))]
    [(n, replicate, seed)] = cells
    if cfg.kind == "d2":
        if cfg.mode == "orbit":
            # secondary mode: one orbit of length `samples`, decorrelated by
            # subsampling at the (log n)^2 stride
            pts = correlation_points_from_orbit(system.orbit(n, seed, cfg.burn_in).points)
        else:
            pts = system.sample(make_rng(seed), n)
        fit = d2_estimate(correlation_integral(pts))
        value, aux = fit.slope, fit.stderr
    elif cfg.kind == "h2":
        est = h2_collision_estimate(system, cfg.block_len, n, seed)
        value, aux = est.h2, est.stderr
    else:  # returns
        est = return_set_measure(system, cfg.r, n, cfg.mode,
                                 samples=cfg.samples or 100_000, seed=seed)
        value, aux = est.value, est.stderr
    return [CurveRow(n=n, replicate=replicate, seed=seed, value=value, aux=aux, flag="ok")]


def _rows_text(cfg: ExperimentConfig, rows: list[CurveRow]) -> str:
    """The CSV lines of rows, as results.csv holds them after its header."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [cfg.digest(), cfg.kind, r.n, r.replicate, r.seed, repr(float(r.value)),
         repr(float(r.aux)), r.flag] for r in rows)
    return buf.getvalue()


def _read_rows(cfg: ExperimentConfig, text: str,
               cells: list[tuple[int, int, int]]) -> list[CurveRow] | None:
    """The rows of text, or None unless writing them again gives back text
    exactly, their (n, replicate, seed) are the first entries of cells,
    each flag is one the config writes (floor for a non-finite value, else
    ok, or also floor or resampled on a floating orbit's proximity cell) and
    each value is the one its aux gives: aux / log n for a curve row, its
    check's margin for a diagnostics row."""
    try:
        rows = [CurveRow(n=int(rec[2]), replicate=int(rec[3]), seed=int(rec[4]),
                         value=float(rec[5]), aux=float(rec[6]), flag=rec[7])
                for rec in csv.reader(text.splitlines())]
    except (IndexError, ValueError, csv.Error):  # a blank, cut-short or unparsable row
        return None
    if _rows_text(cfg, rows) != text or [(r.n, r.replicate, r.seed) for r in rows] != cells[:len(rows)]:
        return None
    floating = cfg.kind == "proximity_curve" and not isinstance(cfg.spec, KDoubling)
    if not all(r.flag == "floor" if not math.isfinite(r.value) else floating or r.flag == "ok"
               for r in rows):
        return None
    if cfg.kind in ("match_curve", "proximity_curve"):
        values = [r.aux / math.log(r.n) for r in rows]
    elif cfg.kind == "diagnostics":
        values = [c.margin for c in _diagnostics_checks(cfg, rows)]
    else:
        return rows
    # JSON text compares floats exactly and lets NaN equal NaN
    return rows if json.dumps([r.value for r in rows]) == json.dumps(values) else None


def _diagnostics_checks(cfg: ExperimentConfig, rows: list[CurveRow]) -> list[BoundCheck]:
    """The check of each diagnostics row: its aux, the check's lhs, against
    the bound that sigma_bounds gives (no mass is enumerated)."""
    bounds, psi = sigma_bounds(cfg.spec, cfg.r, cfg.k_max)
    return [BoundCheck(name, row.aux, rhs)
            for row, (name, rhs) in zip(rows, bounds + [(psi.name, psi.rhs)])]


def run(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentRecord:
    """Execute the experiment and persist results.csv / manifest.json /
    report.json, and timing.json (wall time, cells computed and reused),
    under out_dir.

    results.csv is also the resume state: a group is reused only if the
    lines at its place in the cell plan hold exactly its planned cells as
    this config writes them. Pending groups are computed in this process in
    plan order, and results.csv is rewritten after each, so an interrupted
    run resumes.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file in the way
        raise ConfigError(f"cannot make the output directory {out}: {exc}") from None
    t0 = time.time()
    header = ",".join(CSV_HEADER) + "\n"
    try:
        text = (out / "results.csv").read_text()
    except (OSError, ValueError):  # missing, or not text
        text = header
    # written back unchanged, so an unwritable results.csv fails the run
    # before any group is computed
    _write(out / "results.csv", text)
    lines = text.splitlines(keepends=True)[1:]  # the rows after the header line
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for group, n, replicate, seed in _cells(cfg):
        groups.setdefault(group, []).append((n, replicate, seed))
    rows: list[CurveRow] = []
    computed = 0
    for key, cells in groups.items():
        text = "".join(lines[len(rows):len(rows) + len(cells)])
        group_rows = _read_rows(cfg, text, cells) if text else None
        if group_rows is None or len(group_rows) != len(cells):
            group_rows = _read_rows(cfg, _rows_text(cfg, _run_group(cfg, key, cells)), cells)
            if group_rows is None or len(group_rows) != len(cells):
                raise RuntimeError(f"group {key}: just computed, yet not its planned cells")
            computed += len(cells)
            _write(out / "results.csv", header + _rows_text(cfg, rows + group_rows))
        rows += group_rows
    wall = time.time() - t0

    report = _report(cfg, rows)
    _write(out / "results.csv", header + _rows_text(cfg, rows))
    _write(out / "manifest.json", json.dumps(_manifest(cfg), indent=2, sort_keys=True) + "\n")
    _write(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write(out / "timing.json", json.dumps({"wall_time_s": wall, "cells_computed": computed,
                                            "cells_reused": len(rows) - computed}) + "\n")
    return ExperimentRecord(rows, report, out)


def _manifest(cfg: ExperimentConfig) -> dict[str, Any]:
    """manifest.json, a function of the config alone: run writes it and
    verify recomputes it."""
    plan = _cells(cfg)
    return {"version": __version__, "digest": cfg.digest(), "config": cfg.raw_text,
            "cells": [{"n": n, "replicate": rep, "seed": seed} for _, n, rep, seed in plan],
            "expected_cells": len(plan)}


def _report(cfg: ExperimentConfig, rows: list[CurveRow]) -> dict[str, Any]:
    """report.json, a function of the config and the rows alone: run writes
    it and verify recomputes it whole."""
    report = {"kind": cfg.kind, "digest": cfg.digest(), "tolerance": cfg.tolerance,
              **_row_fields(cfg, rows)}
    if cfg.tolerance is not None and report["target"] is not None and "slope" in report:
        report["pass"] = bool(abs(report["slope"] - report["target"]) <= cfg.tolerance)
    return report


def _row_fields(cfg: ExperimentConfig, rows: list[CurveRow]) -> dict[str, Any]:
    """The report fields of a kind: its target and the target's provenance
    (no cells executed), then what the rows give: the fitted slope of a
    curve, the mean over d2/h2 replicates, or the per-row checks (a
    diagnostics row's aux is its check's lhs, so nothing is enumerated)."""
    meta: dict[str, Any] = {"target": None}
    if cfg.kind in ("match_curve", "h2"):
        h2 = renyi_entropy_exact(cfg.spec).h2
        meta = ({"target": 2.0 / h2, "h2": h2} if cfg.kind == "match_curve" else {"target": h2})
        meta["target_provenance"] = "renyi_entropy_exact"
    elif cfg.kind == "proximity_curve":
        meta = {"target": 2.0, "target_provenance": "correlation_dimension_acip"}
    elif cfg.kind == "d2":
        meta = {"target": 1.0, "target_provenance": "bounded_invariant_density"}
    if cfg.kind in ("match_curve", "proximity_curve"):
        try:
            fitres = exponent_fit(rows, min_grid_points=min(cfg.min_grid_points, len(cfg.n_grid)),
                                  min_replicates=min(3, cfg.replicates))
        except FitRefusedError as exc:
            return {**meta, "fit_refused": str(exc)}
        return {**meta, "slope": fitres.fit.slope, "slope_stderr": fitres.fit.stderr,
                "excluded_cells": fitres.excluded_cells, "used_cells": fitres.used_cells}
    if cfg.kind in ("d2", "h2"):
        return {**meta, "slope": sum(r.value for r in rows) / len(rows)}
    if cfg.kind == "returns":
        return {**meta, "checks": [{"r": cfg.r, "k": r.n, "value": r.value, "stderr": r.aux,
                                    "mode": cfg.mode} for r in rows]}
    checks = _diagnostics_checks(cfg, rows)
    decay = z_decay_check(cfg.spec, max(cfg.k_max, 2))
    all_pass = all(c.passed for c in checks)
    return {**meta, "checks": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "margin": c.margin,
                                "pass": c.passed} for c in checks],
            "quasi_bernoulli_B": quasi_bernoulli_constant(cfg.spec),
            "z_decay_ratio_band": [decay.ratio_inf, decay.ratio_sup],
            "all_pass": all_pass, "pass": all_pass}


def _write(path: Path, text: str) -> None:
    """Write text to path through a temp file, so no reader sees it half
    written; an OSError (say, a directory in the way) removes the temp file
    and is a ConfigError naming the path."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # say, a directory in the temp file's place
            pass
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _check_keys(name: str, record: dict, derived: dict, source: str) -> None:
    """Raise IncompleteRecordError, naming the file and the keys, unless the
    record file's JSON object equals the one recomputed from source key by
    key."""
    # JSON text compares floats exactly and lets NaN equal NaN
    differ = sorted(key for key in record.keys() | derived.keys()
                    if key not in record or key not in derived or
                    json.dumps(record[key], sort_keys=True) != json.dumps(derived[key], sort_keys=True))
    if differ:
        raise IncompleteRecordError(f"{name}: {', '.join(differ)} differ from the {name} "
                                    f"recomputed from {source} (keys {differ})")


def _record_file(out: Path, name: str):
    """One record file: the text of results.csv, or a JSON object."""
    try:
        text = (out / name).read_text()
        record = text if name.endswith(".csv") else json.loads(text)
    except (OSError, ValueError) as exc:  # ValueError: not JSON
        raise IncompleteRecordError(f"{name}: missing or unreadable: {exc}") from None
    if not isinstance(record, str if name.endswith(".csv") else dict):
        raise IncompleteRecordError(f"{name}: not a JSON object: {text[:40]!r}")
    return record


def verify(out_dir: str | Path) -> tuple[int, str]:
    """Return the verdict that run wrote: report.json's pass.

    Returns (exit_code, message): 0 pass, 1 fail, 3 incomplete (more than
    half of the expected cells missing, or no pass key). Each record file
    must equal what its config writes: manifest.json is _manifest(cfg),
    results.csv the header plus the planned rows or a prefix of them, and
    report.json _report(cfg, rows). A file that does not raises
    IncompleteRecordError naming it (exit 3).
    """
    report, manifest, csv_text = (_record_file(Path(out_dir), name)
                                  for name in ("report.json", "manifest.json", "results.csv"))
    if not isinstance(manifest.get("config"), str):
        raise IncompleteRecordError(f"manifest.json: config {manifest.get('config')!r} is not text")
    try:
        cfg = parse_config_text(manifest["config"])
    except ConfigError as exc:
        raise IncompleteRecordError(f"manifest.json: bad config: {exc}") from None
    _check_keys("manifest.json", manifest, _manifest(cfg), "its config")
    plan = [(n, replicate, seed) for _, n, replicate, seed in _cells(cfg)]
    header = ",".join(CSV_HEADER) + "\n"
    rows = _read_rows(cfg, csv_text[len(header):], plan) if csv_text.startswith(header) else None
    if rows is None:
        raise IncompleteRecordError("results.csv: not the header and a prefix of the planned "
                                    "rows, as its config writes them")
    if not rows or len(rows) < len(plan) / 2.0:
        return 3, f"incomplete: {len(rows)} of {len(plan)} cells present"
    _check_keys("report.json", report, _report(cfg, rows), "its config and results.csv")
    if "fit_refused" in report:
        return 3, f"fit refused: {report['fit_refused']}"
    if "pass" not in report:
        return 3, "record has no (slope, target, tolerance) triple to verify"
    ok = report["pass"]
    if cfg.kind == "diagnostics":
        return (0 if ok else 1), ("diagnostics all-pass" if ok else "diagnostics bound failed")
    return (0 if ok else 1), (f"slope {report['slope']:.6g} vs target {report['target']:.6g} "
                              f"(tol {cfg.tolerance:g}): {'pass' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# Canonical example configs and CLI
# ---------------------------------------------------------------------------


EXAMPLE_CONFIGS = {
    "match_curve": """\
[experiment]
kind = match_curve
n_grid = 1000, 10000, 100000, 1000000
replicates = 5
master_seed = 2026
tolerance = 0.35

[system]
type = bernoulli
weights = 0.5, 0.5
""",
    "proximity_curve": """\
[experiment]
kind = proximity_curve
n_grid = 1000, 10000, 100000
replicates = 5
master_seed = 2026
tolerance = 0.5
variant = all
min_grid_points = 3

[system]
type = kdoubling
k = 2
""",
    "d2": """\
[experiment]
kind = d2
samples = 100000
replicates = 1
master_seed = 2026
tolerance = 0.1

[system]
type = gauss
""",
    "h2": """\
[experiment]
kind = h2
samples = 10000
block_len = 10
replicates = 3
master_seed = 2026
tolerance = 0.05

[system]
type = markov
transition = 0, 1; 0.5, 0.5
""",
    "diagnostics": """\
[experiment]
kind = diagnostics
r = 6
k_max = 12
master_seed = 2026

[system]
type = markov
transition = 0, 1; 0.5, 0.5
""",
    "returns": """\
[experiment]
kind = returns
r = 4
k_list = 1, 2, 3, 4, 6, 8
mode = exact
master_seed = 2026

[system]
type = bernoulli
weights = 0.5, 0.5
""",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="orbitrecur",
                                     description="Orbit recurrence statistics experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_ver = sub.add_parser("verify", help="verify a completed run against its target")
    p_ver.add_argument("out_dir", help="directory holding results.csv/report.json")
    sub.add_parser("list-kinds", help="list experiment kinds")
    p_ex = sub.add_parser("print-example-config", help="print a canonical config")
    p_ex.add_argument("kind", choices=sorted(EXAMPLE_CONFIGS))
    args = parser.parse_args(argv)

    if args.command == "list-kinds":
        for kind in KINDS:
            print(kind)
        return 0
    if args.command == "print-example-config":
        print(EXAMPLE_CONFIGS[args.kind], end="")
        return 0
    if args.command == "run":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            record = run(cfg, args.out)
        except OrbitRecurError as exc:
            print(f"run error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {record.out_dir}/results.csv ({len(record.rows)} rows)")
        if "pass" in record.report:
            print(f"report pass: {record.report['pass']}")
        return 0
    if args.command == "verify":
        try:
            code, msg = verify(args.out_dir)
        except IncompleteRecordError as exc:
            print(f"incomplete: {exc}", file=sys.stderr)
            return 3
        print(msg)
        return code
    return 2


if __name__ == "__main__":
    sys.exit(main())
