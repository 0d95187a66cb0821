"""Recompute a finished run's smallest cells with independent oracles.

Usage: python oracle.py OUT_DIR

Reads the config echoed in OUT_DIR/manifest.json and the rows of
OUT_DIR/results.csv, then recomputes, outside any timed region:
- match_curve: every cell at the smallest n with
  `longest_self_match_bruteforce`, from the cell's recorded seed;
- proximity_curve (kdoubling): every cell at the smallest n with
  `closest_pair_bruteforce`, from the cell's recorded seed;
- diagnostics: the exact return-set mass mu(S_k(r)) of every lag k < r from
  the transfer-product closed form, against the recorded left-hand side.
Every recorded seed is also checked against `derive_seed`. Exits 0 when all
agree and 1 otherwise, naming each mismatch on stderr.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from orbitrecur.expcli import map_from_section, measure_from_section, parse_config_text
from orbitrecur.intervalmaps import KDoubling, doubling_orbit_exact, min_window_digits
from orbitrecur.matcher import longest_self_match_bruteforce
from orbitrecur.proximity import closest_pair_bruteforce
from orbitrecur.rng import derive_seed
from orbitrecur.symbolic import sample_sequence
from orbitrecur.thermo import renyi_entropy_exact

REL_TOL = 1e-9  # closed form and enumeration sum the same terms in another order


def read_rows(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def return_mass_transfer(P: np.ndarray, pi: np.ndarray, r: int, k: int) -> float:
    """mu(S_k(r)) for k < r: sum_a pi_a [prod_e P^(entrywise u_e)]_aa, where
    the r + k window is k-periodic and edge slot e is used u_e times."""
    T = r + k - 1
    prod = np.eye(len(pi))
    for e in range(k):
        prod = prod @ P ** ((T - 1 - e) // k + 1)
    return float(np.sum(pi * np.diag(prod)))


def check_match(cfg, rows: list[dict]) -> list[str]:
    m = measure_from_section(cfg.system)
    n0 = min(cfg.n_grid)
    buffer = math.ceil(8.0 * math.log(n0) / renyi_entropy_exact(m).h2)
    errors = []
    for row in (r for r in rows if int(r["n"]) == n0):
        seed = int(row["seed"])
        res = longest_self_match_bruteforce(sample_sequence(m, None, n0, buffer, seed), n0)
        if float(row["aux"]) != float(res.m_n) or float(row["value"]) != res.m_n / math.log(n0):
            errors.append(f"match cell n={n0} rep={row['replicate']}: recorded M_n "
                          f"{row['aux']}, brute force {res.m_n}")
    return errors


def check_proximity(cfg, rows: list[dict]) -> list[str]:
    spec = map_from_section(cfg.system)
    if not isinstance(spec, KDoubling):
        return [f"no brute-force orbit for map {type(spec).__name__}"]
    n0 = min(cfg.n_grid)
    errors = []
    for row in (r for r in rows if int(r["n"]) == n0):
        orbit = doubling_orbit_exact(spec.k, n0, min_window_digits(spec.k, n0), seed=int(row["seed"]))
        res = closest_pair_bruteforce(orbit, cfg.variant)
        aux = -math.log(res.value) if res.value > 0.0 else math.inf
        if float(row["aux"]) != aux or float(row["value"]) != aux / math.log(n0):
            errors.append(f"proximity cell n={n0} rep={row['replicate']}: recorded "
                          f"-log m_n {row['aux']}, brute force {aux}")
    return errors


def check_diagnostics(cfg, rows: list[dict]) -> list[str]:
    mk = measure_from_section(cfg.system).as_markov()
    errors = []
    for row in rows:
        k = int(row["n"]) + 1  # row t holds the sigma check of lag t + 1
        if k >= cfg.r:
            continue
        want = return_mass_transfer(np.asarray(mk.P), np.asarray(mk.pi), cfg.r, k)
        got = float(row["aux"])
        if abs(got - want) > REL_TOL * abs(want):
            errors.append(f"diagnostics lag k={k}: recorded mu(S_k(r)) {got!r}, "
                          f"transfer product {want!r}")
    return errors


def check_seeds(cfg, rows: list[dict]) -> list[str]:
    if cfg.kind not in ("match_curve", "proximity_curve"):
        return []
    return [f"cell n={r['n']} rep={r['replicate']}: seed {r['seed']} is not the derived seed"
            for r in rows
            if int(r["seed"]) != derive_seed(cfg.master_seed, cfg.kind, int(r["n"]), int(r["replicate"]))]


CHECKS = {"match_curve": check_match, "proximity_curve": check_proximity,
          "diagnostics": check_diagnostics}


def check(out_dir: Path) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    cfg = parse_config_text(manifest["config"])
    rows = read_rows(out_dir)
    if cfg.kind not in CHECKS:
        return [f"no oracle for kind {cfg.kind}"]
    return check_seeds(cfg, rows) + CHECKS[cfg.kind](cfg, rows)


def main() -> int:
    errors = check(Path(sys.argv[1]))
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
