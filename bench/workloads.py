"""The benchmark's workloads: one experiment config each, made from a seed.

Each workload is a config for `orbitrecur run`; the benchmark's seed becomes
the config's `master_seed`, so the same seed gives the same inputs. `tiny`
sizes run the same code path in a second or two, for the benchmark's own
tests.

A verify tolerance only decides the verdict, not the work done. Each is set
from the seed-to-seed spread of the fitted slope, so that a correct program
passes at every seed. With 3 replicates, the golden-mean slope deviated from
2/H2 by at most 0.71 over 58 seeds (standard deviation 0.35); its tolerance
1.2 is 1.7 times that. The doubling slope deviated from 2 by at most 0.48
over 18 seeds; its tolerance 1.0 is 2.1 times that. Exactness is checked by the brute-force oracles instead (oracle.py).
Slopes fitted at tiny sizes scatter more, so their tolerances are wider.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str
    full: dict = field(default_factory=dict)
    tiny: dict = field(default_factory=dict)

    def config(self, seed: int, tiny: bool = False) -> str:
        return self.template.format(seed=seed, **(self.tiny if tiny else self.full))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="match_golden",
            why="M_n on a golden-mean Markov chain up to n=1e6: sampling and "
                "suffix-array/LCP indexing dominate",
            template="""\
[experiment]
kind = match_curve
n_grid = {n_grid}
replicates = 3
master_seed = {seed}
tolerance = {tolerance}

[system]
type = markov
transition = 0, 1; 0.5, 0.5
""",
            full={"n_grid": "1000, 10000, 100000, 1000000", "tolerance": "1.2"},
            tiny={"n_grid": "100, 300, 1000, 3000", "tolerance": "4.0"},
        ),
        Workload(
            name="proximity_doubling",
            why="m_n on exact doubling orbits up to n=1e6: orbit generation and "
                "closest_pair dominate; matcher and symbolic idle",
            template="""\
[experiment]
kind = proximity_curve
n_grid = {n_grid}
replicates = 3
master_seed = {seed}
tolerance = {tolerance}
variant = all

[system]
type = kdoubling
k = 2
""",
            full={"n_grid": "1000, 10000, 100000, 1000000", "tolerance": "1.0"},
            tiny={"n_grid": "100, 300, 1000, 3000", "tolerance": "2.0"},
        ),
        Workload(
            name="diagnostics_sym3",
            why="sigma-regime bound checks on a 3-state chain: exact return-set "
                "enumeration, exact psi and Z_n, and the report stage",
            template="""\
[experiment]
kind = diagnostics
r = {r}
k_max = {k_max}
master_seed = {seed}

[system]
type = markov
transition = 0.6, 0.2, 0.2; 0.2, 0.6, 0.2; 0.2, 0.2, 0.6
""",
            full={"r": 12, "k_max": 24},
            tiny={"r": 6, "k_max": 8},
        ),
    )
}

# sha256 of results.csv and manifest.json at DEFAULT_SEED and full size,
# recorded from the seed commit. These files must stay byte-identical.
REFERENCE_SHA256 = {
    "match_golden": {
        "results.csv": "5272e60a3fda661e51207a5a280fb90fcd44294ccdb4f094ac4888370e2beade",
        "manifest.json": "c7149b34c92a759228faaf96ef0ef53bc55d14731b9b898598c6f6e58b0c60dc",
    },
    "proximity_doubling": {
        "results.csv": "03a57c382e0a522684ebd2e2e3492b69c48583ad3c6f98717dff30383cd7d934",
        "manifest.json": "0ed487b997a33c49283d87d60b37cbe5a53b1b7455fecb12ddb424754de096de",
    },
    "diagnostics_sym3": {
        "results.csv": "1c4dd248716007d6b437d5772a3176bedf898b601a235638d9025b8898b0486c",
        "manifest.json": "16d0f86e9435fc7192acad9ad54b33998e5456b45be14a353fd5903ae213a634",
    },
}
