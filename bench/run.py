"""Benchmark of the `orbitrecur run` / `verify` loop.

Usage:
    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Runs the real CLI (`python -m orbitrecur.expcli`) from `src/` in child
processes, one at a time, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics: cold runs into fresh directories,
each timed through the verify verdict and followed by resumes into the same
directory alternating with setup children (import and config load), until
--seconds is spent; every metric is the median of its samples.

--trace 1 measures the per-layer metrics: one untraced cold run, then one
cold run and one resume with every layer's public functions wrapped (see
tracer.py); the difference between the traced and untraced cold runs is
trace_overhead_s.

Each cold run and each resume is one operation. An operation fails on a
non-zero exit, a timeout, bytes that differ from the cold run it resumes or
repeats, a mismatch against the brute-force oracles (oracle.py), or, at the
default seed, digests that differ from the reference in workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, REFERENCE_SHA256, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"

MIN_COLD = 2  # cold runs per trace-0 run, even past --seconds
# After each cold run, resumes and setup children alternate until each has
# taken this much time (at least one of each). Many short samples spread over
# the run make their medians follow the host's speed drift less.
RESUME_BUDGET_S = 2.0
SETUP_BUDGET_S = 1.5
SESSION_LIMIT_S = 165  # a run must end within 180 s; no child outlives this
RECORD_FILES = ("results.csv", "manifest.json", "report.json")

END_TO_END = (("run_s", "s"), ("resume_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics recorded for the cold run and for the resume:
# (wrapped function, statistic, unit, better). `self_s` and `calls` come
# from the tracer; `symbols` is the function's work count (tracer.WORK) and
# a `*_per_s` statistic is that count divided by self time.
LAYER_STATS = (
    ("symbolic.sample_sequence", "self_s", "s", "lower"),
    ("symbolic.sample_sequence", "symbols_per_s", "1/s", "higher"),
    ("matcher.suffix_array", "self_s", "s", "lower"),
    ("matcher.lcp_array", "self_s", "s", "lower"),
    ("matcher.longest_self_match", "self_s", "s", "lower"),
    ("matcher.longest_self_match", "symbols", "count", "lower"),
    ("matcher.return_set_measure", "self_s", "s", "lower"),
    ("matcher.return_set_measure", "calls", "count", "lower"),
    ("thermo.renyi_entropy_exact", "self_s", "s", "lower"),
    ("thermo.psi_mixing_table", "self_s", "s", "lower"),
    ("thermo.z_partition_sum", "calls", "count", "lower"),
    ("intervalmaps.doubling_orbit_exact", "self_s", "s", "lower"),
    ("intervalmaps.doubling_orbit_exact", "points_per_s", "1/s", "higher"),
    ("proximity.closest_pair", "self_s", "s", "lower"),
    ("proximity.closest_pair", "points_per_s", "1/s", "higher"),
    ("proximity.proximity_curve", "self_s", "s", "lower"),
    ("estimators.exponent_fit", "self_s", "s", "lower"),
    ("diagnostics.sigma_bounds_check", "calls", "count", "lower"),
    ("diagnostics.sigma_bounds_check", "self_s", "s", "lower"),
    ("diagnostics.psi_decay_check", "self_s", "s", "lower"),
    ("expcli.run", "self_s", "s", "lower"),
    ("expcli.main", "self_s", "s", "lower"),
)
# Per-layer metrics that are not a wrapped function's statistic.
RUN_STATS = (
    ("estimators.exponent_fit.used_ratio", "ratio", "higher"),
    ("expcli.cells_computed", "count", "lower"),
    ("expcli.cells_reused", "count", "higher"),
    ("expcli.import_s", "s", "lower"),
    ("layers.self_share", "ratio", "higher"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for phase in ("cold", "resume"):
        specs += [(f"{phase}.{fn}.{stat}", unit, better) for fn, stat, unit, better in LAYER_STATS]
        specs += [(f"{phase}.{name}", unit, better) for name, unit, better in RUN_STATS]
    specs.append(("trace_overhead_s", "s", "lower"))
    return specs


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ORBITRECUR_WORKERS", None)  # the program's single-process default
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], log: Path, timeout: float = SESSION_LIMIT_S) -> Child:
    """Run `python ARGS` from the checkout root and wait for it; wall time
    and peak RSS are the child's own."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli(*args: str) -> list[str]:
    return ["-m", "orbitrecur.expcli", *args]


def traced_cli(trace_json: Path, *args: str) -> list[str]:
    return [str(BENCH / "traced_cli.py"), str(trace_json), *args]


# ---------------------------------------------------------------------------
# One workload at one seed
# ---------------------------------------------------------------------------


def snapshot(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in RECORD_FILES if (out / name).exists()}


def cell_count(out: Path) -> int:
    """Number of cells (rows) held in the cell files under out/cells."""
    return sum(len(f.read_text().splitlines()) for f in (out / "cells").glob("group-*.csv"))


@dataclass
class Session:
    workload: str
    seed: int
    tiny: bool
    dir: Path
    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)  # by operation

    def __post_init__(self) -> None:
        self.deadline = time.perf_counter() + SESSION_LIMIT_S
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "workload.cfg"
        self.config.write_text(WORKLOADS[self.workload].config(self.seed, self.tiny))
        self.log = self.dir / "children.log"

    def fail(self, label: str, why: str) -> None:
        self.failures.setdefault(label, []).append(why)

    def op(self, label: str, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(label, why)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self, args: list[str]) -> Child:
        return run_child(args, self.log, timeout=max(self.remaining(), 1.0))

    def run_cli(self, trace: Path | None, *args: str) -> Child:
        """The orbitrecur CLI, traced into `trace` when one is given."""
        return self.child(cli(*args) if trace is None else traced_cli(trace, *args))

    def setup(self) -> float:
        """Wall time of a child that imports the package and loads the config."""
        c = self.child(["-c", "import sys, orbitrecur.expcli as e; e.load_config(sys.argv[1])",
                        str(self.config)])
        if c.code != 0:
            raise RuntimeError(f"cannot import orbitrecur from {ROOT / 'src'}; see {self.log}")
        return c.wall_s

    def cold(self, label: str, trace: Path | None = None) -> tuple[Path, Child, float]:
        """Cold run into a new, empty directory, then verify. Returns the
        directory, the run child and the wall time through the verdict."""
        out = self.dir / label
        if out.exists():
            raise RuntimeError(f"{out} is not new")
        run = self.run_cli(trace and trace.with_suffix(".run.json"),
                       "run", str(self.config), "--out", str(out))
        ver = self.run_cli(trace and trace.with_suffix(".verify.json"), "verify", str(out))
        self.op(label, run.code == 0 and ver.code == 0,
                f"run exit {run.code}, verify exit {ver.code}")
        return out, run, run.wall_s + ver.wall_s

    def resume(self, out: Path, label: str, trace: Path | None = None) -> float:
        """Re-run the same config into the directory it just finished."""
        before = snapshot(out)
        run = self.run_cli(trace, "run", str(self.config), "--out", str(out))
        after = snapshot(out)
        self.op(label, run.code == 0 and after == before,
                f"exit {run.code}" if run.code else "bytes differ from the cold run")
        return run.wall_s

    def check_outputs(self, out: Path) -> dict[str, bytes]:
        """Oracle recomputation and, at the default seed, the reference
        digests. Returns the checked record files."""
        oracle = self.child([str(BENCH / "oracle.py"), str(out)])
        if oracle.code != 0:
            self.fail(out.name, f"oracle mismatch (exit {oracle.code}); see {self.log}")
        got = snapshot(out)
        if self.seed == DEFAULT_SEED and not self.tiny:
            for name, want in REFERENCE_SHA256.get(self.workload, {}).items():
                digest = hashlib.sha256(got.get(name, b"")).hexdigest()
                if digest != want:
                    self.fail(out.name, f"{name} sha256 {digest} differs from the reference {want}")
        return got


def measure_end_to_end(s: Session, seconds: float) -> dict[str, list[float]]:
    samples = {name: [] for name, _ in END_TO_END}
    s.setup()  # fills the bytecode caches; not timed
    first = None
    start = time.perf_counter()
    i = 0
    while True:
        out, run, wall = s.cold(f"cold-{i}")
        samples["run_s"].append(wall)
        samples["peak_rss_mb"].append(run.maxrss_mb)
        resumes, setups = [], []
        while sum(resumes) < RESUME_BUDGET_S or sum(setups) < SETUP_BUDGET_S:
            if sum(resumes) < RESUME_BUDGET_S:
                resumes.append(s.resume(out, f"cold-{i}/resume-{len(resumes)}"))
            if sum(setups) < SETUP_BUDGET_S:
                setups.append(s.setup())
        samples["resume_s"] += resumes
        samples["setup_s"] += setups
        if first is None:
            first = s.check_outputs(out)
        elif snapshot(out) != first:
            s.fail(out.name, "bytes differ from the first cold run")
        i += 1
        elapsed = time.perf_counter() - start
        per_cold = elapsed / i
        if (i >= MIN_COLD and elapsed + per_cold > seconds) or s.remaining() < 2 * per_cold:
            break
    return samples


def load_trace(*paths: Path) -> tuple[dict[str, dict], float]:
    """Merged function stats of traced children, and their total import time.
    A child that was killed wrote no trace; its operation has already failed."""
    merged: dict[str, dict] = {}
    import_s = 0.0
    for path in paths:
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        import_s += data["import_s"]
        for name, st in data["functions"].items():
            acc = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            for key in acc:
                acc[key] += st[key]
    return merged, import_s


def layer_metrics(phase: str, stats: dict[str, dict], import_s: float, wall: float,
                  cells: tuple[int, int], report: dict) -> dict[str, float]:
    out = {}
    for fn, stat, _, _ in LAYER_STATS:
        st = stats.get(fn, {"calls": 0, "self_s": 0.0, "work": 0})
        if stat in ("self_s", "calls"):
            value = st[stat]
        elif stat.endswith("_per_s"):
            value = st["work"] / st["self_s"] if st["self_s"] > 0 else 0.0
        else:
            value = st["work"]
        out[f"{phase}.{fn}.{stat}"] = value
    used, excluded = report.get("used_cells", 0), report.get("excluded_cells", 0)
    out[f"{phase}.estimators.exponent_fit.used_ratio"] = (
        used / (used + excluded) if used + excluded else 0.0)
    out[f"{phase}.expcli.cells_computed"], out[f"{phase}.expcli.cells_reused"] = cells
    out[f"{phase}.expcli.import_s"] = import_s
    # `main` is the outermost wrapped call, so with it the self times would add
    # up to the whole run after the import; its own time and the import's are
    # reported above and left out of the share.
    self_total = sum(st["self_s"] for fn, st in stats.items() if fn != "expcli.main")
    out[f"{phase}.layers.self_share"] = self_total / wall
    return out


def measure_per_layer(s: Session) -> tuple[dict[str, float], dict[str, list[float]], list[str]]:
    s.setup()  # fills the bytecode caches; not timed
    _, _, untraced = s.cold("cold-untraced")
    reference = snapshot(s.dir / "cold-untraced")
    trace = s.dir / "trace"
    out, _, traced = s.cold("cold-traced", trace=trace)
    computed = cell_count(out)
    if snapshot(out) != reference:
        s.fail("cold-traced", "bytes differ from the untraced cold run")
    report = json.loads((out / "report.json").read_text()) if (out / "report.json").exists() else {}
    cold_stats, cold_import = load_trace(trace.with_suffix(".run.json"),
                                         trace.with_suffix(".verify.json"))
    metrics = layer_metrics("cold", cold_stats, cold_import, traced, (computed, 0), report)

    reused = cell_count(out)
    resume_trace = s.dir / "trace.resume.json"
    resumed = s.resume(out, "cold-traced/resume", trace=resume_trace)
    after = cell_count(out)
    resume_stats, resume_import = load_trace(resume_trace)
    metrics.update(layer_metrics("resume", resume_stats, resume_import, resumed,
                                 (after - reused, reused), report))
    s.check_outputs(out)
    metrics["trace_overhead_s"] = traced - untraced
    # functions named by a metric that the traced program no longer defines
    absent = sorted({fn for fn, *_ in LAYER_STATS} - cold_stats.keys())
    samples = {"run_s": [untraced], "traced_run_s": [traced], "traced_resume_s": [resumed]}
    return metrics, samples, absent


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
            "commit": commit, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def describe(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    return (f"  {name:<14} median {med:.4f} {unit}  min {min(values):.4f}  "
            f"max {max(values):.4f}  samples {len(values)}")


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict,
            tiny: bool = False) -> dict:
    """Run one workload, print its summary and return the result object. The
    result, the environment record and every sample are also written to
    result.json in the workload's directory under .bench_work."""
    s = Session(workload, seed, tiny, WORK / f"{workload}-seed{seed}-trace{int(trace)}")
    print(f"== {workload} seed={seed} trace={int(trace)}")
    absent: list[str] = []
    if trace:
        values, samples, absent = measure_per_layer(s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_specs()}
        for name, m in metrics.items():
            print(f"  {name:<56} {m['value']:.6g} {m['unit']}")
        for fn in absent:
            print(f"  absent: {fn} is not defined; its metrics read 0")
    else:
        samples = measure_end_to_end(s, seconds)
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(describe(name, unit, samples[name]))
    failed = len(s.failures)
    for label, whys in s.failures.items():
        print(f"  FAILED {label}: {'; '.join(whys)}")
    print(f"  error_rate     {failed / s.attempted:.4f} ({failed} failed of "
          f"{s.attempted} operations)")
    result = {"correct": not s.failures, "attempted": s.attempted, "failed": failed,
              "metrics": metrics}
    record = {"env": env, "workload": workload, "samples": samples, "absent": absent,
              "failures": s.failures, **result}
    (s.dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_child so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "orbitrecur" / "expcli.py").is_file():
        print(f"no orbitrecur sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), env)
        except RuntimeError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
