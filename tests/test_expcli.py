import dataclasses
import hashlib
import json
import math

import pytest
from _configs import SMALL_CONFIGS as ALL_SMALL

from orbitrecur import diagnostics, expcli
from orbitrecur.errors import ConfigError, IncompleteRecordError

SMALL_MATCH, SMALL_PROX, SMALL_D2, SMALL_H2, SMALL_DIAG, SMALL_RETURNS = (
    ALL_SMALL[kind] for kind in
    ("match_curve", "proximity_curve", "d2", "h2", "diagnostics", "returns"))

# state 1 leaves for good: stationary mass sits on state 0 alone
DEGENERATE_CHAIN = "transition = 1, 0; 0.5, 0.5\nstationary = 1, 0"

SMALL_D2_ORBIT = (SMALL_D2.replace("type = gauss", "type = kdoubling\nk = 2")
                  .replace("samples = 4000", "samples = 20000\nmode = orbit"))
SMALL_PROX_GAUSS = SMALL_PROX.replace("type = kdoubling\nk = 2", "type = gauss")
SMALL_D2_ORBIT_GAUSS = SMALL_D2.replace("samples = 4000", "samples = 20000\nmode = orbit")

# the config of each RECORD_SHA256 entry: the small configs, plus the
# floating maps on every path that samples or iterates them
PINNED_CONFIGS = {
    **ALL_SMALL,
    "d2_orbit": SMALL_D2_ORBIT,
    "proximity_gauss": SMALL_PROX_GAUSS,
    "proximity_gauss_far": SMALL_PROX_GAUSS.replace("min_grid_points", "variant = far\nmin_grid_points"),
    "proximity_near": SMALL_PROX.replace("min_grid_points", "variant = near\nmin_grid_points"),
    "proximity_gauss_near": SMALL_PROX_GAUSS.replace("min_grid_points", "variant = near\nmin_grid_points"),
    "proximity_mp_induced": SMALL_PROX.replace("type = kdoubling\nk = 2", "type = mp_induced"),
    "proximity_affine": SMALL_PROX.replace("type = kdoubling\nk = 2", "type = affine"),
    "d2_mp_induced": SMALL_D2.replace("type = gauss", "type = mp_induced"),
    "d2_affine": SMALL_D2.replace("type = gauss", "type = affine"),
    "d2_orbit_gauss": SMALL_D2_ORBIT_GAUSS,
    # orbits discard MPInduced's 1000-step default burn-in
    "d2_orbit_mp_induced": SMALL_D2_ORBIT_GAUSS.replace("type = gauss", "type = mp_induced"),
    # the two measure specs that are not a Markov chain as written
    "match_curve_gibbs": SMALL_MATCH.replace(
        "type = bernoulli\nweights = 0.5, 0.5",
        "type = gibbs2block\nadmissible = 1, 1; 1, 0\npotential = 0.3, -0.2; 0.1, 0"),
    "diagnostics_bernoulli": SMALL_DIAG.replace("k_max = 8", "k_max = 10").replace(
        "type = markov\ntransition = 0, 1; 0.5, 0.5", "type = bernoulli\nweights = 0.2, 0.3, 0.5"),
    # sampled return masses, at the default path count
    "returns_empirical": SMALL_RETURNS.replace("mode = exact", "mode = empirical"),
}

# sha256 of (results.csv, manifest.json, report.json) for each small config:
# a refactor of the runner must leave every record byte-identical
RECORD_SHA256 = {
    "match_curve": (
        "9cb15d7859faff31d54f0e22b86cda2812a90f3b7e9a5ea9fa7f1e848acd7896",
        "d25ad30a45906d65b093478f668a2703fafed6f49e35b33f30ac6612f5dc3d47",
        "e8a9e6fac76d49f05b472522f3889f2f924590d83be4052c3ede57f60d4825ed",
    ),
    "proximity_curve": (
        "2193f26220d8b6d20db7fe2114d8003c889bcf3fc5b0441af01c46ac22771ac4",
        "44c6cb05ebb26337245ffeac8077f4f836f1fed1631690608a3118dd88690c1a",
        "0024043bc4cf658fe4bbc893004a8bf344cd0f87ce0102db722bf11014517a1b",
    ),
    "d2": (
        "bc2a79a546875db2e5dcda86baac30b910fe7fa70f767801c4a90718b19cb116",
        "efa3ad4511739b3b6f6da9b7610c897a1167870c91c98dff49408a2eadfb96e6",
        "feded93a4c2aefecafb33b0d75945459ec7915fdf06ab932bd46da7d8c9eef82",
    ),
    "h2": (
        "f6a51fc7f2beb216b238cd999567bea0788b03609635ddd6a0d8bab144af801a",
        "f943b0e1aa19cd956da3230fb6410b9cd6a9fdca7ca24edae8f047d49b48471d",
        "a6abd91c36d87b68f99c8187273260be79f19c838570a9b28ece4ec8ccd4c8cb",
    ),
    "diagnostics": (
        "759758dfc738e3ae77d2bade822bf903ecf68440fa64bfde5fe2a284ef129681",
        "eccafaa361d754194c991c43120e0d22bd640e71e1c14c9767c5afe461d7b820",
        "c44c162e36b121957c39ebcfd520403535d3e56c01eef7f108c1df5172207178",
    ),
    "returns": (
        "a4dfd76ce5bccbf4acbeda6220a34812e863eef4037cba9da338b6a04fbe06b3",
        "cb54c19f0d86182b98a4636110a610f3ef575fcdca3b447d146e1f768879ef57",
        "d7ffd76d4beb22277aa05a54b28a10ea005b16133c63175521cdeee8895e3a99",
    ),
    "d2_orbit": (
        "483edd5a186f820b9d786fe3b3284b4e1e717dd7a40d57b588475cfd7e4bcf4d",
        "058e8e1d7b625ccf601603f9a011e5428a13c12ef4cc5feec8d6a42871efd2da",
        "376b1ba8bd22d1881a432c2412e2d9dedaa32bf22d76bd25e09ed3eba02eda15",
    ),
    "proximity_gauss": (
        "07e9dd07719a0ad16bbeddde97921c2bc2fe0a0188385542d9560a61f5872978",
        "d62fc4cefa44c2c8cfe4c383cc9346ae4e3e8e0072508c0025f9fecd9471d34e",
        "93fdc197c59b7e9f7bb130b1cc62152a51414bf06ba4426aea0c39ab049c8757",
    ),
    "proximity_gauss_far": (
        "04273d2f170080697eb1cce3ef7ef14f48abfcbaa873949a49b1ba9189833b4c",
        "d72f8bcedf046296c1bd145e80dddba60804f413b6c3b0c394072cf67b9d3280",
        "640d7000d1a8ce327ea942acf967a1de62fd2ffb0cd20e88ed6f39b996fb74b0",
    ),
    "proximity_near": (
        "2983dc329f3fb07902ad62cc1d969a62286d3889e78fa30cb88c272df7f89728",
        "5816f85d419b7566d473f0875fe633a3c48b929772873b034edbfa236fa12449",
        "25d933bbdf70c1ade8f6edc3a12ee5808423c0c0d18e14a7f10396d203562cb7",
    ),
    "proximity_gauss_near": (
        "33312ca2a72c0383992a9be6a732fbaf8c981358d7c60f7f05e1af648fcb9e5f",
        "f4d496b440883928880b434609b6668d56c81417c4070ea2509972d0a4996075",
        "9eef7cb47e8861c378990da8fb82ed4b92399e8731c488eb8da93d3a69b1bb63",
    ),
    "proximity_mp_induced": (
        "49c7a0c944ce9e08c885b913f6fb58e1631dafbeda4c5289d57abf6fda0e286e",
        "b6fad0719d1fd10d74de3a6173d23da08b2cdabf7c33eae6d51f529915c1fabd",
        "12a63f80fa42e442356d3592066d37cea07fba1c2d35a0baef98395800905e01",
    ),
    "proximity_affine": (
        "a5851f63c5b455a6d82cd09c5f387d733f0d39c77f45a683904b5887f92dbc22",
        "84ee01c83b685df0809086fbdebb1e69ee4c2fdc812b0d89a7bff840f25392dc",
        "0fbeede9ea1a95ae003d23be496890bf2ee8fc957042b188d1259416a40abcd2",
    ),
    "d2_mp_induced": (
        "c2dadb486251a9be2f81438cf6c45790af7b56e91fa627725d903187eb769f24",
        "917ae618be0792ea4f6bae6127f3871d04244b33ad5e74a6cbba4844ff495160",
        "140cc6dec48c7d3baee78c8e4b4c96f13d023e455e57aa3e2e66a85e1384b49c",
    ),
    "d2_affine": (
        "a4a27958e195fe8554a366cb2e139bbcf0ca10bfacf030f6ebb4d44aa2b218ec",
        "a416bc2957979404e4b577598bd68b67119061d6d7349b4bb5162d70ef43400d",
        "4c4b5bc06ec9c0d83c7460c8b8b8b167285d5502b23c120e61dbdb9fdb9d8932",
    ),
    "d2_orbit_gauss": (
        "06066c631514f5e708c1d38867379215e0720a057aa70e0b495f0edca95d7d70",
        "5fd621f9571f971bf95234b42183c3eaba9499ae1af25d6472dc7cf5d610d040",
        "e2e74b0416102c75a2a1f143ac7d01ea59c0f61c38e01c5b38be40dea684d493",
    ),
    "d2_orbit_mp_induced": (
        "a541412590e89422100d412e3aa8e7bedefdcccad149f682bbeb0064146c9305",
        "e2c03379bb1c1a76e38bd3ea82c88be57668364a15743e869a8bb7a0759895d4",
        "c650f0f4662cbefb1a425ab3afa68e6a1057f64b0e7fc9addc1f0c1eee1c44f4",
    ),
    "match_curve_gibbs": (
        "419da973c60190e47a242dd020078a6a22de90a97bddf0e37beea35c1661de6b",
        "82321a32d796cd96ce59290c59d4d05581e30564418a628fa6c1071ebcc81909",
        "4414272d48beb22a4327a3e12343033a62f4efed22766c98d058f87192758464",
    ),
    "diagnostics_bernoulli": (
        "36e0f222085fe3da8db2611236762bb68d1f19d16e4da88e7c8ac1d9185ea51b",
        "5bb9afb1fc847a7d489c9f7a7c4ffb26544af148f6f518e4fe36614198560e4a",
        "33ad5c6b0d251fd0f7c411e7088abf2111a25bf753dec88e8c8409b262a1e513",
    ),
    "returns_empirical": (
        "7748983d97630f3dcd5e3d939f5c30834e4d9ba4036db274b840c974f7400d58",
        "b5ea386e6d74a499e861771aa15ee696b03c03b1c0b582152f1dd441ff9ecacf",
        "4e12cf2132347d63b8a267d2e0b3515d6fc88ae36e7e0427798e7661c1364dc5",
    ),
}


# h2 of every example and pinned measure, bit for bit: the pressure layer's
# edge checks (an underflowing exp(phi), a tiny spectral gap) move none
H2_HEX = {
    ("example", "diagnostics"): "0x1.c86086c2776c5p-2",
    ("example", "h2"): "0x1.c86086c2776c5p-2",
    ("example", "match_curve"): "0x1.62e42fefa39efp-1",
    ("example", "returns"): "0x1.62e42fefa39efp-1",
    ("pinned", "diagnostics"): "0x1.c86086c2776c5p-2",
    ("pinned", "diagnostics_bernoulli"): "0x1.ef672c69da20bp-1",
    ("pinned", "h2"): "0x1.c86086c2776c5p-2",
    ("pinned", "match_curve"): "0x1.62e42fefa39efp-1",
    ("pinned", "match_curve_gibbs"): "0x1.bd1fb9ede2570p-2",
    ("pinned", "returns"): "0x1.62e42fefa39efp-1",
    ("pinned", "returns_empirical"): "0x1.62e42fefa39efp-1",
}


def test_h2_bits_of_every_measure():
    from orbitrecur.symbolic import MeasureSpec
    from orbitrecur.thermo import renyi_entropy_exact

    got = {}
    for group, configs in (("example", expcli.EXAMPLE_CONFIGS), ("pinned", PINNED_CONFIGS)):
        for name, text in configs.items():
            spec = expcli.parse_config_text(text).spec
            if isinstance(spec, MeasureSpec):
                got[group, name] = renyi_entropy_exact(spec).h2.hex()
    assert got == H2_HEX


class TestConfigParsing:
    @pytest.mark.parametrize("kind", sorted(expcli.EXAMPLE_CONFIGS))
    def test_canonical_examples_parse(self, kind):
        cfg = expcli.parse_config_text(expcli.EXAMPLE_CONFIGS[kind])
        assert cfg.kind == kind

    def test_missing_master_seed(self):
        text = SMALL_MATCH.replace("master_seed = 77\n", "")
        with pytest.raises(ConfigError):
            expcli.parse_config_text(text)

    def test_zero_replicates(self):
        with pytest.raises(ConfigError):
            expcli.parse_config_text(SMALL_MATCH.replace("replicates = 3", "replicates = 0"))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            expcli.parse_config_text(SMALL_MATCH.replace("match_curve", "bogus"))

    def test_ragged_matrix(self):
        with pytest.raises(ConfigError):
            expcli.parse_config_text(SMALL_H2.replace("0, 1;", "0, 1, 0;"))

    def test_decreasing_grid(self):
        with pytest.raises(ConfigError):
            expcli.parse_config_text(SMALL_MATCH.replace("50, 200, 800", "800, 200"))

    def test_returns_repeated_k_rejected(self):
        with pytest.raises(ConfigError, match="k_list"):
            expcli.parse_config_text(SMALL_RETURNS.replace("1, 2, 4, 6", "4, 1, 1"))

    def test_returns_unsorted_k_list_runs_in_k_order(self, tmp_path):
        text = SMALL_RETURNS.replace("1, 2, 4, 6", "4, 1")
        rec = expcli.run(expcli.parse_config_text(text), tmp_path)
        assert [row.n for row in rec.rows] == [1, 4]
        # consistent: returns has no target, so verify stops at exit 3
        assert expcli.verify(tmp_path) == (3, "record has no (slope, target, tolerance) triple to verify")

    @pytest.mark.parametrize("text", [
        SMALL_MATCH.replace("50, 200, 800", "1, 10, 100"),
        SMALL_PROX.replace("50, 200, 800", "1, 10, 100"),
        SMALL_PROX.replace("min_grid_points", "variant = nope\nmin_grid_points"),
        SMALL_PROX.replace("50, 200, 800", "2, 10, 100")
        .replace("min_grid_points", "variant = split\nmin_grid_points"),
        SMALL_PROX.replace("50, 200, 800", "2, 10, 100")
        .replace("min_grid_points", "variant = far\nmin_grid_points"),
        SMALL_H2.replace("samples = 2000", "samples = 200"),
        SMALL_H2.replace("samples = 2000", "samples = 1000").replace("block_len = 6", "block_len = 40")
        .replace("type = markov\ntransition = 0, 1; 0.5, 0.5", "type = bernoulli\nweights = 0.5, 0.5"),
        SMALL_D2.replace("samples = 4000", "samples = 50"),
        SMALL_D2.replace("samples = 4000", "samples = 1000\nmode = orbit"),
        SMALL_MATCH.replace("type = bernoulli\nweights = 0.5, 0.5", "type = markov\ntransition = 0, 1; 1, 0"),
        SMALL_PROX.replace("k = 2", "k = 18446744073709551616"),
        SMALL_PROX.replace("k = 2", "k = 9223372036854775808"),
        # 3^13 words at lag 13 < r exceed matcher.ENUMERATION_CAP
        SMALL_DIAG.replace("r = 5\nk_max = 8", "r = 20\nk_max = 19")
        .replace("0, 1; 0.5, 0.5", "0.6, 0.2, 0.2; 0.2, 0.6, 0.2; 0.2, 0.2, 0.6"),
        SMALL_RETURNS.replace("r = 3\nk_list = 1, 2, 4, 6", "r = 20\nk_list = 2, 13")
        .replace("0.5, 0.5", "0.2, 0.3, 0.5"),
        SMALL_RETURNS.replace("weights = 0.5, 0.5", "weights = 0.6, 0.5"),
        SMALL_D2_ORBIT_GAUSS.replace("mode = orbit", "mode = orbit\nburn_in = -3"),
        SMALL_PROX.replace("min_grid_points", "burn_in = 10\nmin_grid_points"),
        SMALL_PROX.replace("type = kdoubling\nk = 2", "type = affine")
        .replace("min_grid_points", "burn_in = 10\nmin_grid_points"),
        SMALL_D2.replace("samples = 4000", "samples = 4000\nburn_in = 10"),
        SMALL_MATCH.replace("replicates = 3", "replicates = 3\nburn_in = 10"),
        # exact returns sample no paths
        SMALL_RETURNS.replace("mode = exact", "mode = exact\nsamples = 2000"),
        SMALL_RETURNS.replace("mode = exact", "mode = empirical\nsamples = -5"),
        # README lists only iid and orbit for d2
        SMALL_D2.replace("tolerance = 0.2", "tolerance = 0.2\nmode = exact"),
        # S_k(r) needs a lag k >= 1
        SMALL_RETURNS.replace("k_list = 1, 2, 4, 6", "k_list = 0, 2"),
        # a verdict needs a finite tolerance >= 0
        *[SMALL_H2.replace("tolerance = 0.1", f"tolerance = {t}") for t in ("nan", "inf", "-inf", "-0.5")],
        # a degenerate measure has no Renyi entropy for the h2 target or the
        # diagnostics bounds
        SMALL_H2.replace("block_len = 6", "block_len = 2").replace(
            "transition = 0, 1; 0.5, 0.5", DEGENERATE_CHAIN),
        SMALL_DIAG.replace("r = 5\nk_max = 8", "r = 4\nk_max = 3").replace(
            "transition = 0, 1; 0.5, 0.5", DEGENERATE_CHAIN),
    ], ids=["match_grid_from_1", "proximity_grid_from_1", "unknown_variant", "split_from_2",
            "far_from_2", "h2_200_samples", "h2_too_few_collisions", "d2_50_samples",
            "d2_orbit_21_points", "match_zero_entropy", "kdoubling_k_2_64", "kdoubling_k_2_63",
            "diagnostics_past_cap", "returns_past_cap", "bernoulli_weights_sum_1_1",
            "burn_in_negative", "burn_in_kdoubling", "burn_in_affine", "burn_in_d2_iid",
            "burn_in_match_curve", "returns_exact_samples", "returns_negative_samples",
            "d2_mode_exact", "returns_lag_0", "tolerance_nan", "tolerance_inf",
            "tolerance_minus_inf", "tolerance_negative", "h2_degenerate", "diagnostics_degenerate"])
    def test_config_that_run_cannot_compute_rejected(self, tmp_path, capsys, text):
        # run could not compute any of them: a config error before any cell runs
        with pytest.raises(ConfigError):
            expcli.parse_config_text(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["match_curve", "h2"])
    def test_markov_admitting_pairs_it_never_takes(self, tmp_path, capsys, kind):
        # admissible allows 1 -> 1, where the chain has P = 0
        system = "[system]\ntype = markov\ntransition = 0.5, 0.5; 1, 0\n"
        text = ALL_SMALL[kind].split("[system]")[0] + system + "admissible = 1, 1; 1, 1\n"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        h2 = report["h2"] if kind == "match_curve" else report["target"]
        assert abs(h2 - 0.44568) < 1e-5
        assert expcli.verify(tmp_path / "out")[0] in (0, 1)  # a complete, consistent record

    def test_markov_without_stationary_solves(self):
        cfg = expcli.parse_config_text(SMALL_H2)
        m = expcli.measure_from_section(cfg.system)
        assert m.pi[1] == pytest.approx(2 / 3, abs=1e-10)

    @pytest.mark.parametrize("text,key", [
        (expcli.EXAMPLE_CONFIGS["h2"].replace("[system]", "replicate = 7\n\n[system]"), "replicate"),
        (SMALL_MATCH.replace("master_seed = 77", "master_seed = 77\nseed = 5"), "seed"),
        (SMALL_D2.replace("[system]", "raw_text = x\n\n[system]"), "raw_text"),
        (SMALL_D2.replace("[system]", "system = gauss\n\n[system]"), "system"),
        # keys of other kinds: each would change only the digest
        (SMALL_D2.replace("[system]", "variant = far\nk_list = 3\nblock_len = 7\n"
                          "min_grid_points = 9\n\n[system]"), "variant"),
        (SMALL_MATCH.replace("[system]", "samples = 5\nmode = orbit\nr = 3\n\n[system]"), "samples"),
        (SMALL_DIAG.replace("[system]", "tolerance = 0.1\n\n[system]"), "tolerance"),
        (SMALL_DIAG.replace("[system]", "replicates = 2\n\n[system]"), "replicates"),
        (SMALL_RETURNS.replace("[system]", "tolerance = 0.1\n\n[system]"), "tolerance"),
    ], ids=["replicate", "seed", "raw_text", "system", "d2_curve_keys", "match_sample_keys",
            "diagnostics_tolerance", "diagnostics_replicates", "returns_tolerance"])
    def test_unknown_experiment_key_rejected(self, tmp_path, capsys, text, key):
        # a misspelled key, or one its kind does not read, would otherwise
        # leave the run as it was under another digest
        with pytest.raises(ConfigError, match=f"unknown \\[experiment\\] key '{key}'"):
            expcli.parse_config_text(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_field_is_read_by_some_kind(self):
        read = set().union(*expcli.KINDS.values()) | {"kind", "master_seed"}
        assert read == {f.name for f in dataclasses.fields(expcli.ExperimentConfig)} - {"system", "raw_text"}

    @pytest.mark.parametrize("kind", sorted(ALL_SMALL))
    def test_one_system_build_per_config(self, tmp_path, monkeypatch, kind):
        builds = []
        for name in ("measure_from_section", "map_from_section"):
            real = getattr(expcli, name)
            monkeypatch.setattr(expcli, name, lambda section, real=real: builds.append(1) or real(section))
        cfg = expcli.parse_config_text(ALL_SMALL[kind])
        expcli.run(cfg, tmp_path)
        expcli.run(cfg, tmp_path)  # a resume
        assert len(builds) == 1
        expcli.verify(tmp_path)
        assert len(builds) == 2

    @pytest.mark.parametrize("text,key", [
        (SMALL_PROX.replace("k = 2", "base = 3"), "base"),
        (SMALL_PROX.replace("type = kdoubling\nk = 2", "type = mp_induced\nalpha = 0.3"), "alpha"),
        (SMALL_D2.replace("type = gauss", "type = gauss\nk = 2"), "k"),
        (SMALL_D2.replace("type = gauss", "type = affine\ntruncate = 8"), "truncate"),
        (SMALL_H2 + "admisible = 1, 1; 1, 1\n", "admisible"),
        (SMALL_MATCH + "transition = 0, 1; 0.5, 0.5\n", "transition"),
        (SMALL_H2.replace("type = markov\ntransition = 0, 1; 0.5, 0.5",
                          "type = gibbs2block\nadmissible = 0, 1; 1, 1\npotential = 0, 0; 0, 0\n"
                          "weights = 0.5, 0.5"), "weights"),
    ], ids=["kdoubling_base", "mp_induced_alpha", "gauss_k", "affine_truncate", "markov_admisible",
            "bernoulli_transition", "gibbs2block_weights"])
    def test_unknown_system_key_rejected(self, tmp_path, capsys, text, key):
        # a key its type does not read would otherwise leave the default in force
        with pytest.raises(ConfigError, match=f"unknown \\[system\\] key\\(s\\) \\['{key}'\\]"):
            expcli.parse_config_text(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_gibbs_section(self):
        text = """\
[experiment]
kind = h2
samples = 2000
block_len = 6
master_seed = 1

[system]
type = gibbs2block
admissible = 0, 1; 1, 1
potential = 0, -0.5; 0.25, 0
"""
        cfg = expcli.parse_config_text(text)
        m = expcli.measure_from_section(cfg.system)
        assert m.as_markov().pi.sum() == pytest.approx(1.0)


def value_edited(lines):
    """CSV lines with 0.5 added to the value of the first row, its aux kept."""
    rec = lines[0].split(",")
    col = expcli.CSV_HEADER.index("value")
    rec[col] = repr(float(rec[col]) + 0.5)
    return [",".join(rec)] + lines[1:]


class TestRunAndVerify:
    def test_match_run_writes_artifacts(self, tmp_path):
        cfg = expcli.parse_config_text(SMALL_MATCH)
        rec = expcli.run(cfg, tmp_path / "out")
        for name in ("results.csv", "manifest.json", "report.json"):
            assert (tmp_path / "out" / name).exists()
        assert rec.report["target"] == pytest.approx(2.0 / math.log(2), abs=1e-12)
        assert rec.report["target_provenance"] == "renyi_entropy_exact"
        assert len(rec.rows) == 9

    def test_csv_schema(self, tmp_path):
        cfg = expcli.parse_config_text(SMALL_RETURNS)
        expcli.run(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines[0] == "experiment,kind,n,replicate,seed,value,aux,flag"
        assert len(lines) == 5
        assert all(line.endswith(",ok") for line in lines[1:])

    @pytest.mark.parametrize("kind", sorted(ALL_SMALL))
    def test_byte_identical_rerun(self, tmp_path, kind):
        cfg = expcli.parse_config_text(ALL_SMALL[kind])
        expcli.run(cfg, tmp_path / "a")
        expcli.run(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(RECORD_SHA256))
    def test_record_bytes_pinned(self, tmp_path, name):
        text = PINNED_CONFIGS[name]
        expcli.run(expcli.parse_config_text(text), tmp_path)
        digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                        for f in ("results.csv", "manifest.json", "report.json"))
        assert digests == RECORD_SHA256[name]

    @staticmethod
    def record_sha256(out):
        return tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                     for f in ("results.csv", "manifest.json", "report.json"))

    @staticmethod
    def count_groups(monkeypatch):
        computed = []
        real = expcli._run_group

        def counted(cfg, key, cells):
            computed.append(key)
            return real(cfg, key, cells)

        monkeypatch.setattr(expcli, "_run_group", counted)
        return computed

    def test_cell_resume_reproduces_rows(self, tmp_path, monkeypatch):
        # a run stopped in its second group leaves the first in results.csv;
        # the rerun computes only the rest and lands on the pin
        cfg = expcli.parse_config_text(SMALL_MATCH)
        real = expcli._run_group

        def stopped(cfg, key, cells):
            if key == 200:
                raise RuntimeError("stopped")
            return real(cfg, key, cells)

        monkeypatch.setattr(expcli, "_run_group", stopped)
        with pytest.raises(RuntimeError, match="stopped"):
            expcli.run(cfg, tmp_path)
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 3
        monkeypatch.undo()
        computed = self.count_groups(monkeypatch)
        expcli.run(cfg, tmp_path)
        assert computed == [200, 800]
        assert self.record_sha256(tmp_path) == RECORD_SHA256["match_curve"]
        assert expcli.verify(tmp_path)[0] == 0

    # a dropped, duplicated or blank line also moves group 800's lines off
    # their place in the plan, so that group is recomputed too
    @pytest.mark.parametrize("damage,recomputed", [
        (lambda lines: lines[:2], [200, 800]),
        (lambda lines: lines[:2] + lines[1:], [200, 800]),
        (lambda lines: lines[:1] + [""] + lines[1:], [200, 800]),
        (lambda lines: lines[:2] + [lines[2][:30]], [200]),
        (lambda lines: [lines[0].replace(",ok", "x,ok")] + lines[1:], [200]),
        (lambda lines: [lines[0].replace(",ok", ",resampled")] + lines[1:], [200]),
        (value_edited, [200]),
    ], ids=["row_dropped", "row_duplicated", "blank_line", "row_cut_short", "unparsable_number",
            "flag_not_written", "value_edited"])
    def test_damaged_cell_file_recomputed(self, tmp_path, monkeypatch, damage, recomputed):
        cfg = expcli.parse_config_text(SMALL_MATCH)
        expcli.run(cfg, tmp_path)
        path = tmp_path / "results.csv"
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 9
        # lines 4-6 are the replicates of n = 200
        path.write_text("\n".join(lines[:4] + damage(lines[4:7]) + lines[7:]) + "\n")
        computed = self.count_groups(monkeypatch)
        expcli.run(cfg, tmp_path)
        assert computed == recomputed
        assert self.record_sha256(tmp_path) == RECORD_SHA256["match_curve"]
        assert expcli.verify(tmp_path)[0] == 0

    def test_diagnostics_cell_value_edited_recomputed(self, tmp_path, monkeypatch):
        # a row's value must be its check's margin, on resume as in verify
        cfg = expcli.parse_config_text(SMALL_DIAG)
        expcli.run(cfg, tmp_path)
        path = tmp_path / "results.csv"
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + value_edited(lines)) + "\n")
        computed = self.count_groups(monkeypatch)
        expcli.run(cfg, tmp_path)
        assert computed == [0]
        assert self.record_sha256(tmp_path) == RECORD_SHA256["diagnostics"]
        assert expcli.verify(tmp_path)[0] == 0

    def test_computed_group_that_fails_its_plan_raises(self, tmp_path, monkeypatch):
        real = expcli._run_group

        def wrong_seed(cfg, key, cells):
            return [dataclasses.replace(row, seed=row.seed + 1) for row in real(cfg, key, cells)]

        monkeypatch.setattr(expcli, "_run_group", wrong_seed)
        with pytest.raises(RuntimeError, match="group 50: just computed"):
            expcli.run(expcli.parse_config_text(SMALL_MATCH), tmp_path)

    @pytest.mark.parametrize("name", sorted(RECORD_SHA256))
    def test_resume_from_pinned_cells(self, tmp_path, monkeypatch, name):
        # a directory that holds only the pinned results.csv, as every earlier
        # version with these pins wrote it, resumes without computing a cell
        text = PINNED_CONFIGS[name]
        cfg = expcli.parse_config_text(text)
        expcli.run(cfg, tmp_path / "first")
        assert self.record_sha256(tmp_path / "first") == RECORD_SHA256[name]
        (tmp_path / "resume").mkdir()
        (tmp_path / "resume" / "results.csv").write_bytes(
            (tmp_path / "first" / "results.csv").read_bytes())
        computed = self.count_groups(monkeypatch)
        expcli.run(cfg, tmp_path / "resume")
        assert computed == []
        assert self.record_sha256(tmp_path / "resume") == RECORD_SHA256[name]

    def test_cell_files_neither_written_nor_read(self, tmp_path, monkeypatch):
        cfg = expcli.parse_config_text(SMALL_MATCH)
        expcli.run(cfg, tmp_path / "fresh")
        assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == [
            "manifest.json", "report.json", "results.csv", "timing.json"]
        # the per-group cell files of an earlier version are ignored and kept
        lines = (tmp_path / "fresh" / "results.csv").read_text().splitlines(keepends=True)[1:]
        cells = tmp_path / "old" / "cells"
        cells.mkdir(parents=True)
        for (group, *_), line in zip(expcli._cells(cfg), lines):
            with open(cells / f"group-{group:012d}.csv", "a") as fh:
                fh.write(line)
        left = {p.name: p.read_bytes() for p in cells.iterdir()}
        computed = self.count_groups(monkeypatch)
        expcli.run(cfg, tmp_path / "old")
        assert computed == [50, 200, 800]
        assert self.record_sha256(tmp_path / "old") == RECORD_SHA256["match_curve"]
        assert {p.name: p.read_bytes() for p in cells.iterdir()} == left

    def test_timing_counts_cells_computed_and_reused(self, tmp_path):
        # run facts that differ between a run and its resume stay out of report.json
        cfg = expcli.parse_config_text(SMALL_MATCH)

        def counts():
            timing = json.loads((tmp_path / "timing.json").read_text())
            assert timing.keys() == {"wall_time_s", "cells_computed", "cells_reused"}
            return timing["cells_computed"], timing["cells_reused"]

        expcli.run(cfg, tmp_path)
        assert counts() == (9, 0)
        expcli.run(cfg, tmp_path)
        assert counts() == (0, 9)
        self.edit_row(tmp_path / "results.csv", 4, value="0.123")  # a row of n = 200
        expcli.run(cfg, tmp_path)
        assert counts() == (3, 6)
        assert self.record_sha256(tmp_path) == RECORD_SHA256["match_curve"]

    def test_rerun_with_other_seed_rewrites_cells(self, tmp_path):
        # cell files written under another config's digest are not reused
        expcli.run(expcli.parse_config_text(SMALL_MATCH), tmp_path / "shared")
        cfg78 = expcli.parse_config_text(SMALL_MATCH.replace("master_seed = 77", "master_seed = 78"))
        expcli.run(cfg78, tmp_path / "shared")
        expcli.run(cfg78, tmp_path / "fresh")
        for name in ("results.csv", "manifest.json", "report.json"):
            assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_verify_pass_and_fail(self, tmp_path):
        cfg = expcli.parse_config_text(SMALL_PROX)
        expcli.run(cfg, tmp_path / "out")
        code, msg = expcli.verify(tmp_path / "out")
        assert code == 0, msg
        tight = expcli.parse_config_text(SMALL_PROX.replace("tolerance = 1.5", "tolerance = 0.000001"))
        expcli.run(tight, tmp_path / "tight")
        code, msg = expcli.verify(tmp_path / "tight")
        assert code == 1, msg

    @pytest.mark.parametrize("kind,tolerance", [(kind, True) for kind in sorted(ALL_SMALL)] + [
        (kind, False) for kind in ("match_curve", "proximity_curve", "d2", "h2")])
    def test_verify_returns_the_written_verdict(self, tmp_path, kind, tolerance):
        text = ALL_SMALL[kind] if tolerance else "".join(
            line for line in ALL_SMALL[kind].splitlines(keepends=True) if not line.startswith("tolerance"))
        expcli.run(expcli.parse_config_text(text), tmp_path)
        verdict = json.loads((tmp_path / "report.json").read_text()).get("pass")
        assert (verdict is None) == (kind == "returns" or not tolerance)
        assert expcli.verify(tmp_path)[0] == {True: 0, False: 1, None: 3}[verdict]

    def test_empirical_returns_use_the_set_samples(self, tmp_path):
        text = PINNED_CONFIGS["returns_empirical"].replace("mode = empirical", "mode = empirical\nsamples = 2000")
        rows = expcli.run(expcli.parse_config_text(text), tmp_path).rows
        assert [row.aux for row in rows] == pytest.approx(
            [math.sqrt(row.value * (1 - row.value) / 2000) for row in rows], rel=1e-12)

    def test_verify_incomplete(self, tmp_path):
        cfg = expcli.parse_config_text(SMALL_MATCH)
        expcli.run(cfg, tmp_path / "out")
        csv_path = tmp_path / "out" / "results.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:3]) + "\n")  # keep 2 of 9 rows
        code, msg = expcli.verify(tmp_path / "out")
        assert code == 3

    @pytest.mark.parametrize("name", ["report.json", "results.csv", "manifest.json"])
    def test_verify_rejects_foreign_digest(self, tmp_path, capsys, name):
        expcli.run(expcli.parse_config_text(SMALL_PROX), tmp_path / "out")
        path = tmp_path / "out" / name
        digest = json.loads((tmp_path / "out" / "manifest.json").read_text())["digest"]
        text = path.read_text()
        if name == "results.csv":  # one row from another config
            lines = text.splitlines()
            lines[4] = lines[4].replace(digest, "0123456789ab")
            text = "\n".join(lines) + "\n"
        else:
            text = text.replace(digest, "0123456789ab")
        path.write_text(text)
        with pytest.raises(IncompleteRecordError, match=name):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("text", [
        SMALL_MATCH, SMALL_PROX, SMALL_D2, SMALL_H2,
        SMALL_RETURNS.replace("mode = exact", "mode = empirical"),
    ], ids=["match_curve", "proximity_curve", "d2", "h2", "returns"])
    def test_verify_rejects_underived_seed(self, tmp_path, capsys, text):
        expcli.run(expcli.parse_config_text(text), tmp_path / "out")
        expcli.verify(tmp_path / "out")  # the untouched record is consistent
        path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["cells"][-1]["seed"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(IncompleteRecordError, match="manifest.json"):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    @staticmethod
    def edit_row(path, t, **fields):
        """Rewrite fields (by CSV_HEADER name) of row t of results.csv."""
        lines = path.read_text().splitlines()
        rec = lines[t + 1].split(",")
        for name, text in fields.items():
            assert rec[expcli.CSV_HEADER.index(name)] != text
            rec[expcli.CSV_HEADER.index(name)] = text
        lines[t + 1] = ",".join(rec)
        path.write_text("\n".join(lines) + "\n")

    def test_verify_rejects_changed_row_seed_and_value(self, tmp_path, capsys):
        expcli.run(expcli.parse_config_text(SMALL_PROX), tmp_path / "out")
        assert expcli.verify(tmp_path / "out")[0] == 0
        self.edit_row(tmp_path / "out" / "results.csv", 4, seed="12345", value="9.5")
        with pytest.raises(IncompleteRecordError, match="results.csv"):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("kind", sorted(ALL_SMALL))
    def test_verify_rejects_changed_row_value(self, tmp_path, capsys, kind):
        expcli.run(expcli.parse_config_text(ALL_SMALL[kind]), tmp_path / "out")
        expcli.verify(tmp_path / "out")  # the untouched record is consistent
        self.edit_row(tmp_path / "out" / "results.csv", 1, value="0.123")
        with pytest.raises(IncompleteRecordError, match="results.csv"):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("kind", ["match_curve", "proximity_curve"])
    def test_verify_rejects_changed_fit_input(self, tmp_path, capsys, kind):
        # aux is what the slope is fitted to; value follows it
        expcli.run(expcli.parse_config_text(ALL_SMALL[kind]), tmp_path / "out")
        self.edit_row(tmp_path / "out" / "results.csv", 1, value=repr(12.0 / math.log(50)),
                      aux="12.0")
        with pytest.raises(IncompleteRecordError, match="slope"):
            expcli.verify(tmp_path / "out")

    @pytest.mark.parametrize("name", ["report.json", "manifest.json"])
    def test_verify_rejects_malformed_record(self, tmp_path, capsys, name):
        expcli.run(expcli.parse_config_text(SMALL_RETURNS), tmp_path / "out")
        path = tmp_path / "out" / name
        if name == "report.json":  # cut short
            path.write_text(path.read_text()[:40])
        else:  # a cell without its seed
            manifest = json.loads(path.read_text())
            del manifest["cells"][0]["seed"]
            path.write_text(json.dumps(manifest))
        with pytest.raises(IncompleteRecordError, match=name):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("name", ["report.json", "manifest.json"])
    def test_verify_rejects_non_object_json(self, tmp_path, capsys, name):
        expcli.run(expcli.parse_config_text(SMALL_RETURNS), tmp_path / "out")
        (tmp_path / "out" / name).write_text("[]\n")
        with pytest.raises(IncompleteRecordError, match=name):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    def test_verify_rejects_malformed_expected_cells(self, tmp_path, capsys):
        expcli.run(expcli.parse_config_text(SMALL_RETURNS), tmp_path / "out")
        path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["expected_cells"] = "six"
        path.write_text(json.dumps(manifest))
        with pytest.raises(IncompleteRecordError, match="manifest.json: expected_cells"):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("config,name,edit", [
        (SMALL_H2, "manifest.json", lambda text: text.replace('"version": "', '"version": "9')),
        (SMALL_H2, "manifest.json", lambda text: text.replace("{", '{\n  "note": 1,', 1)),
        (SMALL_H2, "results.csv", lambda text: text.replace("experiment,", "exp,", 1)),
        (SMALL_H2, "results.csv", lambda text: text.replace(",h2,", ",d2,", 1)),
        (SMALL_H2, "results.csv", lambda text: text.replace("\n", ",x\n").replace("flag,x", "flag", 1)),
        (SMALL_H2, "results.csv", lambda text: text.replace(",ok\n", ",resampled\n", 1)),
        (SMALL_MATCH, "results.csv", lambda text: text.replace(",ok\n", ",resampled\n", 1)),
        (SMALL_PROX, "results.csv", lambda text: text.replace(",ok\n", ",resampled\n", 1)),
    ], ids=["manifest_version", "manifest_key_added", "header_renamed", "row_kind",
            "column_appended", "h2_flag_resampled", "match_flag_resampled",
            "proximity_exact_flag_resampled"])
    def test_verify_rejects_record_not_as_written(self, tmp_path, capsys, config, name, edit):
        # every edit leaves report.json as it was, so only the edited file's own
        # check can reject it
        expcli.run(expcli.parse_config_text(config), tmp_path)
        assert expcli.verify(tmp_path)[0] == 0
        path = tmp_path / name
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
        with pytest.raises(IncompleteRecordError, match=name):
            expcli.verify(tmp_path)
        assert expcli.main(["verify", str(tmp_path)]) == 3

    def test_floating_orbit_flags_accepted(self, tmp_path, monkeypatch):
        # a truncated affine map's orbits write resampled cells; run keeps them
        # and verify accepts them
        cfg = expcli.parse_config_text(
            SMALL_PROX.replace("type = kdoubling\nk = 2", "type = affine\ntruncation = 8"))
        rec = expcli.run(cfg, tmp_path)
        assert {row.flag for row in rec.rows} == {"ok", "resampled"}
        computed = self.count_groups(monkeypatch)
        expcli.run(cfg, tmp_path)
        assert computed == []
        assert expcli.verify(tmp_path)[0] in (0, 1)

    @pytest.mark.parametrize("config", [5, ["x"]])
    def test_verify_rejects_non_text_config(self, tmp_path, capsys, config):
        expcli.run(expcli.parse_config_text(SMALL_RETURNS), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"] = config
        path.write_text(json.dumps(manifest))
        with pytest.raises(IncompleteRecordError, match="manifest.json: config"):
            expcli.verify(tmp_path)
        assert expcli.main(["verify", str(tmp_path)]) == 3

    @pytest.mark.parametrize("key,edit", [
        ("checks", lambda r: r["checks"][0].update(rhs=-1.0)),
        ("checks", lambda r: r["checks"][-1].update({"pass": False})),
        ("quasi_bernoulli_B", lambda r: r.update(quasi_bernoulli_B=99.0)),
        ("z_decay_ratio_band", lambda r: r.update(z_decay_ratio_band=[0.0, 0.0])),
        ("pass", lambda r: r.update({"pass": False})),
        ("tolerance", lambda r: r.pop("tolerance")),
    ], ids=["check_rhs", "check_pass", "quasi_bernoulli_B", "z_decay_ratio_band", "pass",
            "missing_key"])
    def test_verify_rejects_changed_diagnostics_report(self, tmp_path, capsys, key, edit):
        # report.json must equal the report recomputed from config and rows
        expcli.run(expcli.parse_config_text(SMALL_DIAG), tmp_path / "out")
        assert expcli.verify(tmp_path / "out")[0] == 0
        path = tmp_path / "out" / "report.json"
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report))
        with pytest.raises(IncompleteRecordError, match=rf"report\.json.*'{key}'"):
            expcli.verify(tmp_path / "out")
        assert expcli.main(["verify", str(tmp_path / "out")]) == 3

    def test_diagnostics_enumerates_each_mass_once(self, tmp_path, monkeypatch):
        calls = []
        real = diagnostics.return_set_measure

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (diagnostics, expcli):
            monkeypatch.setattr(module, "return_set_measure", counted)
        cfg = expcli.parse_config_text(SMALL_DIAG)
        expcli.run(cfg, tmp_path / "out")
        assert len(calls) == cfg.k_max
        del calls[:]
        expcli.run(cfg, tmp_path / "out")  # a resume reuses every cell
        assert expcli.verify(tmp_path / "out")[0] == 0
        assert calls == []

    def test_diagnostics_builds_one_psi_table_per_config(self, tmp_path, monkeypatch):
        calls = []
        real = diagnostics.psi_mixing_table

        def counted(m, k_max):
            calls.append(k_max)
            return real(m, k_max)

        monkeypatch.setattr(diagnostics, "psi_mixing_table", counted)
        k_max = expcli.parse_config_text(SMALL_DIAG).k_max
        # the cell builds one; the check of its rows and the report share the
        # config's sigma_bounds
        expcli.run(expcli.parse_config_text(SMALL_DIAG), tmp_path)
        assert calls == [k_max] * 2
        del calls[:]
        cfg = expcli.parse_config_text(SMALL_DIAG)  # a resume parses the config anew
        expcli.run(cfg, tmp_path)
        assert calls == [k_max]
        del calls[:]
        expcli.run(cfg, tmp_path)  # the same parsed config builds none
        assert calls == []
        assert expcli.verify(tmp_path)[0] == 0  # parses the manifest's config: one table
        assert calls == [k_max]
        assert self.record_sha256(tmp_path) == RECORD_SHA256["diagnostics"]

    def test_run_derives_each_seed_twice_at_most(self, tmp_path, monkeypatch):
        # each group gets its planned cells, so only the plan and the manifest
        # derive seeds: linear, not quadratic, in the replicates
        calls = []
        real = expcli.derive_seed

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(expcli, "derive_seed", counted)
        replicates = 50
        expcli.run(expcli.parse_config_text(
            SMALL_H2.replace("replicates = 2", f"replicates = {replicates}")), tmp_path)
        assert len(calls) <= 2 * replicates

    def test_manifest_records_cell_seeds(self, tmp_path):
        cfg = expcli.parse_config_text(SMALL_MATCH)
        rec = expcli.run(cfg, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["cells"]) == 9
        seeds = {(c["n"], c["replicate"]): c["seed"] for c in manifest["cells"]}
        for row in rec.rows:
            assert seeds[(row.n, row.replicate)] == row.seed

    def test_diagnostics_report_checks(self, tmp_path):
        cfg = expcli.parse_config_text(SMALL_DIAG)
        rec = expcli.run(cfg, tmp_path / "out")
        assert rec.report["pass"] is True
        assert isinstance(rec.report["checks"], list)
        assert all(c["pass"] for c in rec.report["checks"])

    def test_diagnostics_on_thirteen_symbols(self, tmp_path, capsys):
        # the quasi-Bernoulli constant enumerates no words, so no word budget
        # stops a large alphabet
        text = (SMALL_DIAG.replace("r = 5\nk_max = 8", "r = 2\nk_max = 1")
                .replace("type = markov\ntransition = 0, 1; 0.5, 0.5",
                         "type = bernoulli\nweights = " + ", ".join([repr(1 / 13)] * 13)))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert expcli.main(["verify", str(tmp_path / "out")]) == 0
        assert "diagnostics all-pass" in capsys.readouterr().out


class TestCli:
    def test_list_kinds(self, capsys):
        assert expcli.main(["list-kinds"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["match_curve", "proximity_curve", "d2", "h2", "diagnostics", "returns"]

    def test_print_example_config(self, capsys):
        assert expcli.main(["print-example-config", "returns"]) == 0
        printed = capsys.readouterr().out
        assert expcli.parse_config_text(printed).kind == "returns"

    def test_run_and_verify_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_RETURNS)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("not a config at all")
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("out,in_the_way,make", [
        ("afile/x", "afile", lambda path: path.write_text("")),
        ("out", "out/results.csv", lambda path: path.mkdir(parents=True)),
    ], ids=["out_under_a_file", "results_csv_a_directory"])
    def test_unwritable_out_is_run_error(self, tmp_path, capsys, out, in_the_way, make):
        make(tmp_path / in_the_way)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_RETURNS)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run error") and str(tmp_path / out) in err

    def test_unwritable_results_csv_fails_before_any_group(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "out" / "results.csv").mkdir(parents=True)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_RETURNS)
        computed = TestRunAndVerify.count_groups(monkeypatch)
        assert expcli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert computed == []
        assert list((tmp_path / "out").glob("*.tmp")) == []
        assert capsys.readouterr().err.startswith("run error")

    def test_run_leaves_a_resumable_results_csv_as_it_was(self, tmp_path, monkeypatch):
        # the early write-back of results.csv keeps its bytes
        cfg = expcli.parse_config_text(SMALL_MATCH)
        expcli.run(cfg, tmp_path)
        path = tmp_path / "results.csv"
        before = path.read_bytes()

        def stopped(cfg, key, cells):
            raise RuntimeError("stopped")

        TestRunAndVerify.edit_row(path, 4, value="0.123")  # a row of n = 200
        edited = path.read_bytes()
        monkeypatch.setattr(expcli, "_run_group", stopped)
        with pytest.raises(RuntimeError, match="stopped"):
            expcli.run(cfg, tmp_path)
        assert path.read_bytes() == edited != before

    def test_verify_missing_record(self, tmp_path, capsys):
        assert expcli.main(["verify", str(tmp_path / "nothing")]) == 3

    def test_verify_has_no_tolerance_override(self, tmp_path, capsys):
        expcli.run(expcli.parse_config_text(SMALL_PROX), tmp_path)
        with pytest.raises(SystemExit) as exc:
            expcli.main(["verify", str(tmp_path), "--tolerance", "0.1"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err


class TestD2OrbitMode:
    def test_orbit_mode_runs(self, tmp_path):
        cfg = expcli.parse_config_text(SMALL_D2_ORBIT)
        rec = expcli.run(cfg, tmp_path / "out")
        # doubling-map orbits are Lebesgue typical: dimension estimate near 1
        assert abs(rec.report["slope"] - 1.0) < 0.2

    def test_burn_in_reaches_the_orbit(self, tmp_path):
        text = PINNED_CONFIGS["d2_orbit_mp_induced"].replace("replicates = 2", "replicates = 1")

        def row(burn_in):
            cfg_text = text if burn_in is None else text.replace(
                "mode = orbit", f"mode = orbit\nburn_in = {burn_in}")
            return expcli.run(expcli.parse_config_text(cfg_text), tmp_path / str(burn_in)).rows

        default = row(None)
        assert row(1000) == default  # MPInduced.burn_in
        assert row(0) != default and row(5000) != default

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            expcli.parse_config_text(SMALL_D2.replace("tolerance = 0.2", "mode = banana"))

    def test_iid_mode_is_the_unset_mode(self, tmp_path):
        # the default written out is the same config: one digest, one record
        unset = expcli.parse_config_text(SMALL_D2)
        iid = expcli.parse_config_text(SMALL_D2.replace("tolerance = 0.2", "tolerance = 0.2\nmode = iid"))
        assert dataclasses.replace(iid, raw_text="") == dataclasses.replace(unset, raw_text="")
        assert iid.digest() == unset.digest()
        for name, cfg in (("unset", unset), ("iid", iid)):
            expcli.run(cfg, tmp_path / name)
        assert ((tmp_path / "iid" / "results.csv").read_bytes()
                == (tmp_path / "unset" / "results.csv").read_bytes())
