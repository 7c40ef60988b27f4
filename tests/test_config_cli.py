"""Config round-trips, strict parsing, and the CLI exit-code contract."""

import json
import math
import os
import re
import types
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from convexcyclic import cli, criteria
from convexcyclic.cli import main
from convexcyclic.config import (config_from_dict, config_to_dict,
                                 dumps_config, entry_to_config, load_config,
                                 loads_config,
                                 op_from_dict, op_to_dict, subspace_from_dict,
                                 subspace_to_dict, vector_from_dict,
                                 vector_to_dict)
from convexcyclic.errors import ConfigError
from convexcyclic.gallery import REGISTRY, build_entry
from convexcyclic import (BackwardShift, Dense, DirectSum, ForwardShift,
                          Identity, IntervalFamily, ParityZero, RecursiveSpan,
                          Scale, TruncVector)


class TestSerialization:
    def test_vector_round_trip(self):
        v = TruncVector(np.array([0.0, 0.125, 0.0, -3.5]))
        d = vector_to_dict(v)
        back = vector_from_dict(d, "test")
        assert np.array_equal(back.coords, v.coords)

    def test_complex_vector_round_trip(self):
        v = TruncVector(np.array([0.0, 1.0 + 2.0j]))
        back = vector_from_dict(vector_to_dict(v), "test", complex_field=True)
        assert np.array_equal(back.coords, v.coords)

    def test_operator_round_trip(self):
        ops = [
            BackwardShift(),
            ForwardShift(0.5),
            BackwardShift((1.0, 2.0, 3.0)),
            Scale(2.0, BackwardShift()),
            Scale(2.0j, BackwardShift()),
            DirectSum(Scale(2.0, BackwardShift()), Identity(), split=4),
            Dense(np.arange(9.0).reshape(3, 3)),
            Identity(),
        ]
        # One- and two-entry per-index weights, real and complex: two plain
        # numbers would read back as one complex scalar.
        for shift in (BackwardShift, ForwardShift):
            ops += [shift(w) for w in [(2.0,), (1j,), (2.0, 3.0), (1.0, 0.5),
                                       (2.0, 1j), (1j, 2.0), (1j, -1j)]]
        for op in ops:
            back = op_from_dict(json.loads(json.dumps(op_to_dict(op))))
            assert op_to_dict(back) == op_to_dict(op)
            assert repr(back) == repr(op)

    def test_weight_dumps_keep_their_form(self):
        # Scalars and complex scalars dump as before, and per-index dumps
        # of another length than two still load to the same operator.
        assert op_to_dict(BackwardShift(2.0))["weight"] == 2.0
        assert op_to_dict(ForwardShift(2j))["weight"] == [0.0, 2.0]
        assert op_to_dict(BackwardShift((1.0, 2.0, 3.0)))["weight"] == [1.0, 2.0, 3.0]
        assert op_from_dict({"kind": "backward_shift", "weight": [0.0, 2.0]}) == \
            BackwardShift(2j)
        three = {"kind": "forward_shift", "weight": [[0.0, 1.0], 2.0, 3.0]}
        assert op_from_dict(three) == ForwardShift((1j, 2.0, 3.0))
        assert op_from_dict({"kind": "backward_shift", "weight": [4.0]}) == BackwardShift((4.0,))

    def test_subspace_round_trip(self):
        specs = [
            ParityZero("even"),
            IntervalFamily((1, 5), (2, 9)),
            RecursiveSpan((0, 1, 3, 9), depth=2),
        ]
        for spec in specs:
            back = subspace_from_dict(subspace_to_dict(spec))
            assert subspace_to_dict(back) == subspace_to_dict(spec)

    def test_unknown_operator_field_rejected(self):
        with pytest.raises(ConfigError):
            op_from_dict({"kind": "backward_shift", "wieght": 2.0})

    def test_every_gallery_config_round_trips(self):
        for name in REGISTRY:
            text = dumps_config(entry_to_config(build_entry(name)))
            cfg = loads_config(text)
            assert dumps_config(cfg) == text


class TestStrictParsing:
    def base(self):
        return {
            "dim": 8,
            "operator": {"kind": "scale", "factor": 2.0,
                         "inner": {"kind": "backward_shift", "weight": 1.0}},
        }

    def test_minimal_config(self):
        cfg = config_from_dict(self.base())
        assert cfg.dim == 8
        assert cfg.tolerances.epsilon == 1e-2

    def test_unknown_top_level_field(self):
        data = self.base()
        data["tolerrances"] = {}
        with pytest.raises(ConfigError, match="tolerrances"):
            config_from_dict(data)

    def test_unknown_tolerance_name(self):
        data = self.base()
        data["tolerances"] = {"epsilonn": 0.1}
        with pytest.raises(ConfigError, match="epsilonn"):
            config_from_dict(data)

    def test_malformed_subspace(self):
        data = self.base()
        data["subspace"] = {"kind": "interval_family", "starts": [3],
                            "ends": [2]}
        with pytest.raises(ConfigError, match="subspace"):
            config_from_dict(data)

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="dim"):
            config_from_dict({"operator": {"kind": "identity"}})

    def test_version_checked(self):
        data = self.base()
        data["version"] = 99
        with pytest.raises(ConfigError, match="version"):
            config_from_dict(data)

    def test_integer_beyond_float_range_rejected(self):
        data = self.base()
        data["p"] = 10 ** 400
        with pytest.raises(ConfigError, match="config.p"):
            loads_config(json.dumps(data))

    def test_signed_coefficients_gated_by_flag(self):
        data = self.base()
        data["criterion"] = {
            "X": [], "Y": [],
            "polys": {"kind": "explicit", "coefficients": [[1.5, -0.5]]},
            "recovery": None,
        }
        with pytest.raises(ConfigError, match="coefficients must be nonnegative"):
            config_from_dict(data)
        # Convex polynomials have nonnegative coefficients: no key relaxes that.
        data["allow_signed_coefficients"] = True
        with pytest.raises(ConfigError, match="allow_signed_coefficients"):
            config_from_dict(data)


def write_config(tmp_path, name, cfg_text):
    path = tmp_path / name
    path.write_text(cfg_text)
    return str(path)


def gallery_config(tmp_path, entry_name):
    return write_config(tmp_path, f"{entry_name}.json",
                        dumps_config(entry_to_config(build_entry(entry_name))))


class TestCliExitCodes:
    def test_gallery_list(self, capsys):
        assert main(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        assert "example_5_4" in out and "lemma_5_2" in out

    def test_module_entry_point(self):
        # ``python -m convexcyclic.cli`` runs the CLI, not just the import.
        import convexcyclic
        src = str(Path(convexcyclic.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        run = subprocess.run([sys.executable, "-m", "convexcyclic.cli", "gallery", "list"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == sorted(REGISTRY)
        assert len(REGISTRY) == 8

    def test_gallery_dump_unknown(self, capsys):
        assert main(["gallery", "dump", "missing_entry"]) == 2

    def test_density_on_parity_entry(self, tmp_path):
        cfg = gallery_config(tmp_path, "example_5_4")
        out = str(tmp_path / "density_out")
        assert main(["density", "--config", cfg, "--out", out]) == 0
        report = json.loads((tmp_path / "density_out" / "report.json").read_text())
        assert report["verdict"] == "DenseAtScale"
        table = (tmp_path / "density_out" / "table.csv").read_text()
        assert table.startswith("target_id,best_distance,witness_degree_profile")

    def test_density_identity_operator_fails(self, tmp_path):
        cfg_text = json.dumps({
            "dim": 6,
            "operator": {"kind": "identity"},
            "subspace": {"kind": "index_set", "indices": [1, 3]},
            "family": {"kind": "monomials", "max_degree": 4},
            "tolerances": {"epsilon": 0.5},
            "density": {
                "candidate": {"dim": 6, "entries": [[1, 1.0]]},
                "targets": [{"dim": 6, "entries": [[3, 1.0]]}],
            },
        })
        cfg = write_config(tmp_path, "identity.json", cfg_text)
        assert main(["density", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1

    def test_density_malformed_subspace_is_invalid(self, tmp_path):
        cfg_text = json.dumps({
            "dim": 6,
            "operator": {"kind": "identity"},
            "subspace": {"kind": "interval_family", "begins": [1]},
            "family": {"kind": "monomials", "max_degree": 2},
            "density": {"candidate": {"dim": 6, "entries": [[1, 1.0]]}},
        })
        cfg = write_config(tmp_path, "broken.json", cfg_text)
        assert main(["density", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_criterion_two_on_interval_entry(self, tmp_path):
        cfg = gallery_config(tmp_path, "lemma_5_1")
        assert main(["criterion", "--which", "II", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0

    def test_criterion_two_on_recursive_entry_fails_cond3(self, tmp_path):
        cfg = gallery_config(tmp_path, "example_5_2")
        out = str(tmp_path / "o")
        assert main(["criterion", "--which", "II", "--config", cfg,
                     "--out", out]) == 1
        verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
        assert verdict["cond1"]["passed"] and verdict["cond2"]["passed"]
        assert not verdict["cond3"]["passed"]

    def test_criterion_without_recovery_is_invalid(self, tmp_path):
        data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
        data["criterion"]["recovery"] = None
        data.pop("density", None)
        data.pop("build", None)
        cfg = write_config(tmp_path, "norec.json", json.dumps(data))
        assert main(["criterion", "--which", "I", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_transitivity_exit_codes(self, tmp_path):
        neg = gallery_config(tmp_path, "lemma_5_2")
        assert main(["transitivity", "--config", neg,
                     "--out", str(tmp_path / "neg")]) == 1
        pos = gallery_config(tmp_path, "example_5_4")
        assert main(["transitivity", "--config", pos,
                     "--out", str(tmp_path / "pos")]) == 0

    def test_build_exit_codes(self, tmp_path):
        good = gallery_config(tmp_path, "example_5_4")
        out = str(tmp_path / "build_ok")
        assert main(["build", "--config", good, "--out", out]) == 0
        trace = json.loads((tmp_path / "build_ok" / "trace.json").read_text())
        assert trace["feasible"] and len(trace["steps"]) == 6

        bad = gallery_config(tmp_path, "lemma_5_1_constant_widths")
        out2 = str(tmp_path / "build_bad")
        assert main(["build", "--config", bad, "--out", out2]) == 1
        trace2 = json.loads((tmp_path / "build_bad" / "trace.json").read_text())
        assert trace2["failed_step"] == 3

    def test_screen_exit_codes(self, tmp_path):
        passing = json.dumps({
            "dim": 8,
            "operator": {"kind": "scale", "factor": 2.0,
                         "inner": {"kind": "backward_shift", "weight": 1.0}},
        })
        failing = json.dumps({"dim": 8, "operator": {"kind": "identity"}})
        assert main(["screen", "--config",
                     write_config(tmp_path, "p.json", passing),
                     "--out", str(tmp_path / "sp")]) == 0
        assert main(["screen", "--config",
                     write_config(tmp_path, "f.json", failing),
                     "--out", str(tmp_path / "sf")]) == 1

    def test_reports_are_reproducible(self, tmp_path):
        cfg = gallery_config(tmp_path, "lemma_5_2")
        for tag in ("a", "b"):
            assert main(["transitivity", "--config", cfg,
                         "--out", str(tmp_path / tag)]) == 1
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_gallery_dump_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "dumped.json"
        assert main(["gallery", "dump", "example_5_2",
                     "--out", str(out_file)]) == 0
        cfg = loads_config(out_file.read_text())
        assert dumps_config(cfg) == out_file.read_text()

    def test_epsilon_override_flips_density_verdict(self, tmp_path):
        cfg = gallery_config(tmp_path, "example_5_4")
        out = str(tmp_path / "strict")
        # Tighter epsilon than the builder's actual errors: verdict flips.
        assert main(["density", "--config", cfg, "--out", out,
                     "--epsilon", "1e-9"]) == 1

    def test_default_targets_path(self, tmp_path):
        cfg_text = json.dumps({
            "dim": 12,
            "seed": 5,
            "operator": {"kind": "scale", "factor": 2.0,
                         "inner": {"kind": "backward_shift", "weight": 1.0}},
            "subspace": {"kind": "parity_zero", "parity": "even"},
            "family": {"kind": "monomials", "max_degree": 6},
            "tolerances": {"epsilon": 100.0},
            "density": {
                "candidate": {"dim": 12, "entries": [[1, 0.5], [3, 0.5]]},
                "targets": "default",
                "target_count": 8,
            },
        })
        cfg = write_config(tmp_path, "default_targets.json", cfg_text)
        out = tmp_path / "dt"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_target"]) == 8


def _with(data: dict, path: str, value) -> dict:
    """A copy of a config dict with the dotted field ``path`` set."""
    data = json.loads(json.dumps(data))
    *head, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    node = data
    for key in head:
        node = node[key]
    node[last] = value
    return data


def _run_invalid(tmp_path, capsys, data: dict, argv) -> str:
    """Run the CLI on ``data``; assert exit 2 with no traceback and no
    numpy warning, return stderr."""
    cfg = write_config(tmp_path, "cfg.json", json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return err


class _Repeated(list):
    """A config list of one repeated entry, with a short test id."""

    def __repr__(self):
        return f"[{self[0]!r}]*{len(self)}"


SCALAR_RULES = [
    # (gallery entry, field, bad value, subcommand)
    ("lemma_5_1", "p", 0.5, ["screen"]),
    ("lemma_5_1", "p", math.inf, ["screen"]),
    ("lemma_5_1", "dim", 0, ["screen"]),
    ("lemma_5_1", "horizon", 0, ["screen"]),
    ("lemma_5_1", "horizon", 0, ["criterion", "--which", "II"]),
    ("lemma_5_1", "tolerances.epsilon", -1, ["screen"]),
    ("lemma_5_1", "tolerances.epsilon", -1, ["criterion", "--which", "II"]),
    ("lemma_5_1", "tolerances.epsilon", -1, ["build"]),
    ("lemma_5_1", "tolerances.membership", 0, ["screen"]),
    ("lemma_5_1", "tolerances.convergence", math.nan, ["criterion", "--which", "II"]),
    ("lemma_5_1", "build.j_max", 0, ["build"]),
    ("lemma_5_1", "build.k_step", 0, ["build"]),
    ("lemma_5_1", "build.c", 0, ["build"]),
    ("example_5_4", "density.target_count", 0, ["density"]),
    ("example_5_4", "transitivity.samples_per_ball", 0, ["transitivity"]),
    ("example_5_4", "transitivity.pairs.0.radius", 0, ["transitivity"]),
    ("example_5_4", "seed", -1, ["transitivity"]),
    ("example_5_4", "seed", -1, ["density"]),
    # Values of the wrong type or shape, and integers that are not integral.
    ("example_5_4", "version", "x", ["density"]),
    ("example_5_4", "density.target_radius", "abc", ["density"]),
    ("example_5_4", "density.target_radius", -1, ["density"]),
    ("lemma_5_1", "dim", math.inf, ["screen"]),
    ("lemma_5_1", "horizon", math.inf, ["screen"]),
    ("example_5_4", "family.max_degree", math.inf, ["density"]),
    ("example_5_4", "family.max_degree", None, ["density"]),
    ("example_5_4", "density.targets.0.dim", "x", ["density"]),
    ("example_5_4", "density.targets.0.entries", 5, ["density"]),
    ("example_5_4", "tolerances", 5, ["density"]),
    ("example_5_4", "density", 5, ["density"]),
    ("example_5_4", "transitivity.pairs.0", 5, ["transitivity"]),
    ("example_5_4", "dim", 2.7, ["density"]),
    ("example_5_4", "transitivity.samples_per_ball", True, ["transitivity"]),
    ("example_5_4", "criterion.recovery.scale", math.nan, ["criterion", "--which", "I"]),
    ("example_5_4", "criterion.Y", [], ["build"]),
    # Sizes that allocate are capped, and vectors live at config.dim.
    ("example_5_4", "dim", 10 ** 15, ["screen"]),
    ("example_5_4", "density.targets.0.dim", 10 ** 15, ["density"]),
    ("example_5_4", "density.targets.0.dim", 32, ["density"]),
    ("example_5_4", "criterion.X.0.dim", 128, ["criterion", "--which", "I"]),
    ("example_5_4", "family.max_degree", 10 ** 15, ["density"]),
    ("example_5_4", "criterion.polys.degrees.0", 10 ** 15, ["criterion", "--which", "I"]),
    ("example_5_4", "horizon", 10 ** 15, ["screen"]),
    ("example_5_4", "horizon", 29, ["criterion", "--which", "I"]),
    ("example_5_4", "transitivity.samples_per_ball", 10 ** 15, ["transitivity"]),
    ("example_5_4", "density.target_count", 10 ** 15, ["density"]),
    # Lists that allocate per entry: MAX_MEMBERS entries, MAX_DEGREE + 1
    # coefficients in an explicit row.
    ("example_5_4", "criterion.polys.degrees", _Repeated([2] * 4097),
     ["criterion", "--which", "I"]),
    ("example_5_4", "criterion.polys",
     {"kind": "explicit", "coefficients": [_Repeated([1.0] * 4098)]},
     ["criterion", "--which", "I"]),
    ("example_5_4", "criterion.X", _Repeated([{"dim": 64, "entries": []}] * 4097),
     ["criterion", "--which", "I"]),
    ("example_5_4", "criterion.Y", _Repeated([{"dim": 64, "entries": []}] * 4097),
     ["criterion", "--which", "I"]),
    ("example_5_4", "density.targets", _Repeated([{"dim": 64, "entries": []}] * 4097),
     ["density"]),
    ("example_5_4", "transitivity.pairs", _Repeated([5] * 4097), ["transitivity"]),
    # ... and MAX_COORDINATES coordinates: at dim 1,024, 2,048 pairs.
    ("prop_4_8", "transitivity.pairs",
     _Repeated([{"u_center": {"dim": 1024, "entries": []},
                 "v_center": {"dim": 1024, "entries": []}, "radius": 1.0}] * 2049),
     ["screen"]),
    # At dim 1 the even-parity-zero subspace spans nothing.
    ("example_5_4", "dim", 1, ["density"]),
    ("example_5_4", "dim", 1, ["transitivity"]),
]


@pytest.mark.parametrize("entry,field,value,argv", SCALAR_RULES,
                         ids=[f"{f}={v}-{a[0]}" for _, f, v, a in SCALAR_RULES])
def test_invalid_config_scalar_exits_2(tmp_path, capsys, entry, field, value, argv):
    data = json.loads(dumps_config(entry_to_config(build_entry(entry))))
    err = _run_invalid(tmp_path, capsys, _with(data, field, value), argv)
    assert "config." + re.sub(r"\.(\d+)(?=\.|$)", r"[\1]", field) in err
    if field == "family":
        assert "config.family.seed" in err


_EMPTY = {"dim": 1 << 16, "entries": []}
_POLYS = {"kind": "monomials_at", "degrees": [1]}


@pytest.mark.parametrize("block,field", [
    ({"criterion": {"X": [_EMPTY] * 65, "Y": [], "polys": _POLYS}}, "config.criterion.X"),
    ({"criterion": {"X": [], "Y": [_EMPTY] * 65, "polys": _POLYS}}, "config.criterion.Y"),
    ({"criterion": {"X": [], "Y": [], "polys": _POLYS,
                    "recovery": {"kind": "explicit", "vectors": [_EMPTY] * 65}}},
     "config.criterion.recovery.vectors"),
    ({"density": {"candidate": _EMPTY, "targets": [_EMPTY] * 65}}, "config.density.targets"),
    ({"density": {"candidate": _EMPTY, "target_count": 65}}, "config.density.target_count"),
    ({"transitivity": {"pairs": [{"u_center": _EMPTY, "v_center": _EMPTY,
                                  "radius": 1.0}] * 33}}, "config.transitivity.pairs"),
    ({"transitivity": {"pairs": [], "samples_per_ball": 65}},
     "config.transitivity.samples_per_ball"),
], ids=["X", "Y", "recovery", "targets", "target_count", "pairs", "samples_per_ball"])
def test_vector_lists_at_the_largest_dim_hold_64_vectors(tmp_path, capsys, block, field):
    # MAX_COORDINATES // 65,536 = 64 vectors of dim 65,536 (32 MiB), and a
    # pair counts as two; the 65th entry is rejected before any is parsed.
    data = {"dim": 1 << 16, "operator": {"kind": "backward_shift"}, **block}
    err = _run_invalid(tmp_path, capsys, data, ["screen"])
    assert re.search(f"{field}( must be <= 64|: expected at most (64|32) entries)", err), err


@pytest.mark.parametrize("command", ["density", "transitivity"])
@pytest.mark.parametrize("family", [
    {"kind": "cesaro_means", "max_degree": 3},
    {"kind": "simplex_grid", "degree": 2, "resolution": 2},
    {"kind": "random_simplex", "degree": 3, "count": 5, "seed": 0},
], ids=lambda family: family["kind"])
def test_removed_family_kind_exits_2(tmp_path, capsys, family, command):
    # monomials is the one family kind; the sampled families are gone.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["family"] = family
    err = _run_invalid(tmp_path, capsys, data, [command])
    assert err == f"config error: config.family: unknown family kind {family['kind']!r}\n"


def test_build_candidate_without_a_build_block_exits_2(tmp_path, capsys):
    # The builder's j_max comes from the config, never from a default.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    assert data["density"]["candidate"] == "build"
    del data["build"]
    err = _run_invalid(tmp_path, capsys, data, ["density"])
    assert err == ("config error: config.density.candidate: 'build' needs a "
                   "'build' block\n")


@pytest.mark.parametrize("flag,value", [("--horizon", "0"), ("--horizon", "100000"),
                                        ("--epsilon", "-1"),
                                        ("--epsilon", "nan"), ("--seed", "-1")])
def test_invalid_override_exits_2(tmp_path, capsys, flag, value):
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    command = "screen" if flag == "--horizon" else "density"
    err = _run_invalid(tmp_path, capsys, data, [command, flag, value])
    assert flag in err


@pytest.mark.parametrize("argv", [["density"], ["criterion", "--which", "II"],
                                  ["transitivity"], ["build"], ["screen"]])
def test_repeated_vector_entry_index_exits_2(tmp_path, capsys, argv):
    # A repeated index would keep its last value: a typo strict parsing
    # exists to catch.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["criterion"]["X"][2]["entries"].append([1, 0.7])
    err = _run_invalid(tmp_path, capsys, data, argv)
    assert "config.criterion.X[2]: entry index 1 repeated" in err


@pytest.mark.parametrize("argv", [["density"], ["criterion", "--which", "I"],
                                  ["criterion", "--which", "II"], ["transitivity"],
                                  ["build"], ["screen"]])
@pytest.mark.parametrize("operator", [
    {"kind": "backward_shift", "weight": [1.0, 2.0, 3.0]},
    {"kind": "dense", "matrix": [[2.0, 0.0], [0.0, 2.0]]},
    {"kind": "direct_sum", "left": {"kind": "identity"}, "right": {"kind": "identity"},
     "split": 64},
], ids=["short_weights", "dense_size", "direct_sum_split"])
def test_operator_that_does_not_fit_dim_exits_2(tmp_path, capsys, operator, argv):
    # example_5_4 runs at dim 64: three weights, a 2 x 2 matrix and a
    # split at 64 do not fit it, whichever subcommand reads the operator.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["operator"] = operator
    err = _run_invalid(tmp_path, capsys, data, argv)
    assert "config error: config.operator: " in err


@pytest.mark.parametrize("argv", [["density"], ["criterion", "--which", "I"],
                                  ["criterion", "--which", "II"], ["transitivity"],
                                  ["build"], ["screen"]])
def test_criterion_block_is_checked_when_parsed(tmp_path, capsys, argv):
    # e_0 lies outside example_5_4's even-zero span: the criterion block
    # fails as the instance it describes, whichever subcommand runs.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["criterion"]["X"][0] = {"dim": 64, "entries": [[0, 1.0]]}
    err = _run_invalid(tmp_path, capsys, data, argv)
    assert err == ("config error: config.criterion: X[0] lies outside the "
                   "subspace span\n")


def test_criterion_block_without_a_subspace_exits_2(tmp_path, capsys):
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    del data["subspace"]
    err = _run_invalid(tmp_path, capsys, data, ["screen"])
    assert err == "config error: config.criterion: needs a 'subspace' block\n"


def _with_zero_imaginary_parts(node):
    """Rewrite every vector entry [i, v] under ``node`` as [i, v, 0.0]."""
    if isinstance(node, dict):
        if set(node) == {"dim", "entries"}:
            node["entries"] = [[i, v, 0.0] for i, v in node["entries"]]
        for value in node.values():
            _with_zero_imaginary_parts(value)
    elif isinstance(node, list):
        for value in node:
            _with_zero_imaginary_parts(value)


def test_zero_imaginary_parts_in_a_real_config_load_as_reals(tmp_path, capsys):
    # [i, re, 0] is a real entry; a nonzero imaginary part is not.
    text = dumps_config(entry_to_config(build_entry("example_5_4")))
    data = json.loads(text)
    _with_zero_imaginary_parts(data)
    assert data["criterion"]["X"][0]["entries"][0][2] == 0.0
    assert dumps_config(config_from_dict(data)) == text
    data["criterion"]["X"][0]["entries"][0][2] = 1e-300
    err = _run_invalid(tmp_path, capsys, data, ["screen"])
    assert err == "config error: config.criterion.X[0]: complex entry in a real experiment\n"


#: The overrides each subcommand reads.
READS = {"density": {"--seed", "--epsilon"}, "criterion": {"--horizon"},
         "transitivity": {"--seed"}, "build": set(), "screen": {"--horizon"}}


@pytest.mark.parametrize("flag", ["--epsilon", "--horizon", "--seed"])
@pytest.mark.parametrize("command", sorted(READS))
def test_override_only_where_read(tmp_path, capsys, command, flag):
    # An override a subcommand would ignore is a usage error, not a no-op.
    cfg = write_config(tmp_path, "cfg.json",
                       dumps_config(entry_to_config(build_entry("example_5_4"))))
    argv = [command] + (["--which", "I"] if command == "criterion" else [])
    argv += [flag, "3", "--config", cfg, "--out", str(tmp_path / "o")]
    if flag not in READS[command]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        return
    got = cli._apply_overrides(loads_config(Path(cfg).read_text()),
                               cli.build_parser().parse_args(argv))
    replaced = {"--seed": got.seed, "--horizon": got.horizon,
                "--epsilon": got.tolerances.epsilon}
    assert replaced[flag] == 3


def test_numeric_overflow_exits_2(tmp_path, capsys):
    # (2B)^d e_2047 = 2^d e_(2047-d) stops being finite at d = 1024.
    data = {
        "dim": 2048,
        "operator": {"kind": "scale", "factor": 2.0,
                     "inner": {"kind": "backward_shift", "weight": 1.0}},
        "subspace": {"kind": "parity_zero", "parity": "even"},
        "family": {"kind": "monomials", "max_degree": 1100},
        "density": {"candidate": {"dim": 2048, "entries": [[2047, 1.0]]},
                    "targets": [{"dim": 2048, "entries": [[1, 1.0]]}]},
    }
    err = _run_invalid(tmp_path, capsys, data, ["density"])
    assert "NumericalOverflow" in err and "degree 1024" in err


@pytest.mark.parametrize("which", ["I", "II"])
def test_recovery_overflow_exits_2(tmp_path, capsys, which):
    # The shift recovery factor 0.5^(-1100) is past the float range.
    data = {
        "dim": 2048,
        "horizon": 1,
        "operator": {"kind": "scale", "factor": 0.5,
                     "inner": {"kind": "backward_shift", "weight": 1.0}},
        "subspace": {"kind": "parity_zero", "parity": "even"},
        "family": {"kind": "monomials", "max_degree": 2},
        "criterion": {"X": [{"dim": 2048, "entries": [[1, 1.0]]}],
                      "Y": [{"dim": 2048, "entries": [[1, 1.0]]}],
                      "polys": {"kind": "monomials_at", "degrees": [1100]},
                      "recovery": {"kind": "shift", "scale": 0.5}},
    }
    err = _run_invalid(tmp_path, capsys, data, ["criterion", "--which", which])
    assert "NumericalOverflow" in err and "degree 1100" in err


@pytest.mark.parametrize("argv", [["criterion", "--which", "I"],
                                  ["criterion", "--which", "II"], ["build"]])
def test_recovery_shift_past_the_truncation(tmp_path, capsys, argv):
    # example_5_4 (dim 64) with a degree-100 poly: its Y vectors have no
    # mass in their top 36 coordinates, but x_k = 2^-100 S^100 y leaves the
    # truncation.  The criteria exit 2; the builder stops its candidate
    # scan at that poly and exits 1.
    data = config_to_dict(entry_to_config(build_entry("example_5_4")))
    data = _with(data, "criterion.polys",
                 {"kind": "monomials_at", "degrees": [2, 4, 6, 8, 10, 12, 14, 100]})
    if argv[0] == "criterion":
        err = _run_invalid(tmp_path, capsys, data, argv)
        assert "TruncationOverflow" in err
        return
    cfg = write_config(tmp_path, "cfg.json", json.dumps(data))
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_distance_overflow_exits_2(tmp_path, capsys):
    # Both vectors are finite, but w - y = 3.4e308 e_1 is not.
    data = {
        "dim": 4,
        "operator": {"kind": "identity"},
        "subspace": {"kind": "index_set", "indices": [1]},
        "family": {"kind": "monomials", "max_degree": 2},
        "density": {"candidate": {"dim": 4, "entries": [[1, 1.7e308]]},
                    "targets": [{"dim": 4, "entries": [[1, -1.7e308]]}]},
    }
    err = _run_invalid(tmp_path, capsys, data, ["density"])
    assert "NumericalOverflow" in err and "distance" in err


def test_ball_sample_overflow_exits_2(tmp_path, capsys):
    # The V-ball's center and radius are finite, but its samples are not.
    data = {
        "dim": 4,
        "operator": {"kind": "identity"},
        "subspace": {"kind": "index_set", "indices": [1, 2]},
        "family": {"kind": "monomials", "max_degree": 2},
        "transitivity": {"pairs": [{"u_center": {"dim": 4, "entries": [[1, 1.0]]},
                                    "v_center": {"dim": 4, "entries": [[1, 1.7e308],
                                                                       [2, 1.7e308]]},
                                    "radius": 1e308}]},
    }
    err = _run_invalid(tmp_path, capsys, data, ["transitivity"])
    assert "NumericalOverflow" in err and "degree 0" in err


def test_screen_norm_overflow_exits_2(tmp_path, capsys):
    # At dim 1025, ||(2B)^n|| = 2^n up to n = 1024, past the float range there.
    data = {"dim": 1025, "horizon": 1100,
            "operator": {"kind": "scale", "factor": 2.0,
                         "inner": {"kind": "backward_shift"}}}
    err = _run_invalid(tmp_path, capsys, data, ["screen"])
    assert "NumericalOverflow" in err and "degree 1024" in err


def test_screen_power_that_vanishes_on_the_truncation_exits_0(tmp_path):
    # example_5_4's T = 2B at dim 64: 2^n leaves the float range at n = 1024,
    # but T^n is zero on the truncation from n = 64, and so is its norm.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["horizon"] = 1100
    cfg = write_config(tmp_path, "cfg.json", json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["screen", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    norms = json.loads((tmp_path / "o" / "report.json").read_text())["power_norms"]
    assert norms[:63] == [2.0 ** n for n in range(1, 64)] and set(norms[63:]) == {0.0}


def test_screen_power_norm_product_overflow_exits_2(tmp_path, capsys):
    # |2|^n * ||B(2)^n|| = 4^n leaves the float range at n = 512.
    data = {"dim": 1024, "horizon": 600,
            "operator": {"kind": "scale", "factor": 2.0,
                         "inner": {"kind": "backward_shift", "weight": 2.0}}}
    err = _run_invalid(tmp_path, capsys, data, ["screen"])
    assert "NumericalOverflow" in err and "degree 512" in err


def test_density_and_build_call_the_builder_alike(tmp_path, monkeypatch):
    # A candidate "build" runs the builder exactly as the build subcommand
    # does, tolerances included.
    calls = []
    real = cli.build_cyclic_vector

    def spy(inst, *args, **kwargs):
        calls.append((inst.membership_rtol, args, kwargs))
        return real(inst, *args, **kwargs)

    monkeypatch.setattr(cli, "build_cyclic_vector", spy)
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["tolerances"]["membership"] = 1e-7
    cfg = write_config(tmp_path, "cfg.json", json.dumps(data))
    for command in ("density", "build"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    assert len(calls) == 2 and calls[0] == calls[1]
    assert calls[0][0] == 1e-7 and "membership_rtol" not in calls[0][2]


def test_config_with_shift_weight_still_loads():
    # A recursive_span written with the removed "shift_weight" key loads,
    # and re-dumps without it; nothing else changes.
    old = (Path(__file__).parent / "data" / "example_5_2_shift_weight.json").read_text()
    new = dumps_config(loads_config(old))
    assert "shift_weight" not in new
    assert new == dumps_config(entry_to_config(build_entry("example_5_2")))
    assert json.loads(new)["subspace"] == {
        k: v for k, v in json.loads(old)["subspace"].items() if k != "shift_weight"}


def test_density_include_outside_exits_2(tmp_path, capsys):
    # The removed switch scored orbit points outside the subspace; ignoring
    # it silently would change the run.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["density"]["include_outside"] = True
    err = _run_invalid(tmp_path, capsys, data, ["density"])
    assert "config.density" in err and "include_outside" in err


def test_density_workers_exits_2(tmp_path, capsys):
    # The thread pool the key selected is gone; the key is unknown now.
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["density"]["workers"] = 2
    err = _run_invalid(tmp_path, capsys, data, ["density"])
    assert "config.density: unknown field(s) ['workers']" in err


def test_builder_post_verification_failure_exits_2(tmp_path, capsys, monkeypatch):
    # A negative tail sum makes every post-verification limit unattainable.
    fake_math = types.SimpleNamespace(**{**vars(math), "fsum": lambda xs: -1.0})
    monkeypatch.setattr(criteria, "math", fake_math)
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    err = _run_invalid(tmp_path, capsys, data, ["build"])
    assert "BuildVerificationFailed" in err and "step 1" in err


def _deep_operator_config(depth: int) -> bytes:
    """example_5_4 with its operator wrapped in ``depth`` scale levels."""
    data = json.loads(dumps_config(entry_to_config(build_entry("example_5_4"))))
    data["operator"] = "OPERATOR"
    deep = ('{"kind": "scale", "factor": 1.0, "inner": ' * depth
            + '{"kind": "backward_shift", "weight": 1.0}' + "}" * depth)
    return json.dumps(data).replace('"OPERATOR"', deep).encode()


@pytest.mark.parametrize("raw", [b"\xff\xfe{", _deep_operator_config(20_000)],
                         ids=["not_utf8", "nested_too_deeply"])
def test_unreadable_config_exits_2(tmp_path, capsys, raw):
    # Undecodable bytes and nesting past the parser's recursion limit are
    # config errors, like a missing file or invalid JSON.
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="^config: "):
        load_config(path)
    code = main(["screen", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: config: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,out", [
    (["density"], "afile"), (["criterion", "--which", "I"], "afile"),
    (["criterion", "--which", "II"], "afile"), (["transitivity"], "afile"),
    (["build"], "afile"), (["screen"], "afile"),
    (["gallery", "dump", "example_5_4"], "missing/dir/x.json"),
    (["gallery", "verify-all"], "afile/x"),
], ids=["density", "criterion_I", "criterion_II", "transitivity", "build", "screen",
        "gallery_dump", "gallery_verify_all"])
def test_unusable_out_exits_2(tmp_path, capsys, argv, out):
    # An --out that names a file, or lies under a file or a missing
    # directory, makes the run invalid rather than ending in a traceback.
    (tmp_path / "afile").write_text("")
    if argv[0] != "gallery":
        argv = argv + ["--config", gallery_config(tmp_path, "example_5_4")]
    code = main(argv + ["--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1
    assert captured.out == ""  # it fails before any work is reported


def test_the_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = gallery_config(tmp_path, "lemma_5_1")
    with pytest.raises(SystemExit) as info:
        main(["screen", "--seed", "3", "--config", cfg])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    payloads = []
    for run in ("first", "second"):
        out = tmp_path / run
        # Condition 3 of criterion I fails on lemma_5_1's span.
        assert main(["criterion", "--which", "I", "--config", cfg, "--out", str(out)]) == 1
        payloads.append({path.name: path.read_bytes() for path in sorted(out.iterdir())
                         if path.name != "meta.json"})
    assert payloads[0] and payloads[0] == payloads[1]
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == cli.build_parser.__wrapped__().format_help()


def test_no_run_imports_numpy_ma(tmp_path):
    # numpy.ma, once imported (by np.unique, for one), holds about 1 MiB for
    # the rest of the process.  pytest and hypothesis may import it here, so
    # the runs go in a fresh interpreter.
    import convexcyclic
    src = str(Path(convexcyclic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = f"""
import contextlib, io, sys
from convexcyclic import cli
from convexcyclic.gallery import verify_all
out = {str(tmp_path)!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert all(not problems for problems in verify_all().values())
    assert cli.main(["gallery", "dump", "lemma_5_1", "--out", out + "/cfg.json"]) == 0
    for argv, code in ((["criterion", "--which", "I"], 1),
                       (["criterion", "--which", "II"], 0), (["build"], 0), (["screen"], 0)):
        assert cli.main(argv + ["--config", out + "/cfg.json",
                                "--out", out + "/" + argv[-1]]) == code
print("numpy.ma" in sys.modules)
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
