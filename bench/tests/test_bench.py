"""Tests of the benchmark itself: tracing, byte identity, workloads, oracles.

Run from the repository root: python -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "orbitrecur" or name.startswith("orbitrecur."))
            for attr, value in vars(mod).items()}


def test_tracer_restores_every_binding():
    import orbitrecur.expcli  # noqa: F401  (loads every layer module)
    from orbitrecur import matcher, symbolic

    before = _bindings()
    original = symbolic.sample_sequence
    tracer = Tracer()
    tracer.install()
    try:
        patched = set(tracer.patched_bindings())
        # a function is patched wherever a module bound it by name
        assert {("orbitrecur.symbolic", "sample_sequence"),
                ("orbitrecur.matcher", "sample_sequence"),
                ("orbitrecur", "sample_sequence")} <= patched
        assert matcher.sample_sequence is symbolic.sample_sequence is not original
        assert matcher.sample_sequence.__wrapped__ is original
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.patched_bindings() == []


def test_tracer_self_time_excludes_wrapped_callees():
    from orbitrecur import matcher
    from orbitrecur.expcli import measure_from_section
    from orbitrecur.thermo import renyi_entropy_exact

    m = measure_from_section({"type": "markov", "transition": "0, 1; 0.5, 0.5"})
    buffer = math.ceil(8 * math.log(2000) / renyi_entropy_exact(m).h2)
    tracer = Tracer()
    tracer.install()
    try:
        rows = matcher.match_curve(m, None, [2000], 2, 5)
    finally:
        tracer.uninstall()
    st = tracer.stats
    assert len(rows) == 2
    assert st["symbolic.sample_sequence"].calls == 2
    assert st["symbolic.sample_sequence"].work == 2 * (2000 + buffer)
    curve = st["matcher.match_curve"]
    callees = sum(st[f].total_s for f in ("symbolic.sample_sequence", "matcher.longest_self_match",
                                          "thermo.renyi_entropy_exact"))
    assert curve.self_s == pytest.approx(curve.total_s - callees, abs=1e-9)


def test_traced_run_bytes_equal_untraced(tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(WORKLOADS["match_golden"].config(11, tiny=True))
    log = tmp_path / "log"
    plain = run.run_child(run.cli("run", str(cfg), "--out", str(tmp_path / "plain")), log)
    traced = run.run_child(run.traced_cli(tmp_path / "trace.json", "run", str(cfg), "--out",
                                          str(tmp_path / "traced")), log)
    assert plain.code == 0 and traced.code == 0, log.read_text()
    for name in run.RECORD_FILES:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    data = json.loads((tmp_path / "trace.json").read_text())
    assert data["functions"]["matcher.longest_self_match"]["calls"] == 12


def test_self_share_leaves_out_main_and_import():
    # every wrapped call runs inside `main`, so its self time would make the share 1
    stats = {"expcli.main": {"calls": 1, "total_s": 4.0, "self_s": 1.0, "work": 0},
             "matcher.lcp_array": {"calls": 1, "total_s": 3.0, "self_s": 3.0, "work": 0}}
    m = run.layer_metrics("cold", stats, 0.5, 5.0, (12, 0), {})
    assert m["cold.layers.self_share"] == pytest.approx(3.0 / 5.0)
    assert m["cold.expcli.main.self_s"] == 1.0 and m["cold.expcli.import_s"] == 0.5


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_at_tiny_size(workload, trace):
    result = run.measure(workload, 3, 0, trace, {}, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = ([(n, u) for n, u, _ in run.per_layer_specs()] if trace else list(run.END_TO_END))
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert result["attempted"] >= 2 * run.MIN_COLD
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_oracle_catches_a_changed_cell(workload, tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(WORKLOADS[workload].config(5, tiny=True))
    out = tmp_path / "out"
    assert run.run_child(run.cli("run", str(cfg), "--out", str(out)), tmp_path / "log").code == 0
    assert oracle.check(out) == []
    lines = (out / "results.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[6] = repr(float(fields[6]) * 1.5 + 1.0)  # the aux column of the first cell
    lines[1] = ",".join(fields)
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    assert len(oracle.check(out)) == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
