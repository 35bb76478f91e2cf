import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effheis import cli
from effheis.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_path(name):
    return os.path.join(CONFIGS, name)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    try:
        code = main(list(argv) + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects bad arguments with exit 2
        code = exc.code
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


BASE = {
    "n": 2,
    "H0": {"frequencies": [1.0, 2.0]},
    "HI": {"hopping": [{"j": 1, "k": 2, "g": 1.0}]},
    "lambda": 0.1,
    "m": 1,
    "grid": {"t_end": 1.0, "steps": 100},
    "seed": 0,
}


class TestValidate:
    def test_shipped_config(self, tmp_path):
        code, report = run(tmp_path, "validate", "--config", config_path("two_mode.json"))
        assert code == 0
        assert report["payload"]["fermion"] == "valid"

    def test_boson_config(self, tmp_path):
        code, report = run(
            tmp_path, "validate", "--config", config_path("boson_harmonic.json")
        )
        assert code == 0
        assert report["payload"]["boson"] == "valid"

    def test_invalid_matrix_exits_3(self, tmp_path):
        bad = dict(BASE)
        bad["HI"] = {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        bad["n"] = 1
        bad["H0"] = {"frequencies": [1.0]}
        cfg = write_config(tmp_path, bad)
        code, _ = run(tmp_path, "validate", "--config", cfg)
        assert code == 3

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(tmp_path, "validate", "--config", str(path))
        assert code == 2

    def test_missing_required_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"m": 1})
        code, _ = run(tmp_path, "validate", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"grid": {"t_end": -1, "steps": 100}},
            {"m": "1.5"},
            {"m": 1.5},
            {"HI": {"hopping": [{"j": 1, "k": 3, "g": 1.0}]}},
            {"H0": {"frequencies": [float("nan"), 2.0]}},
            {"HI": {"hopping": [{"j": 1, "k": 2}]}},
            {"tolerances": {"resonance": "tight"}},
            {"boson": {"T_list": ["long"]}},
            {"boson": {"T_list": 5}},
            {"boson": {"T_list": [10.0, -1.0]}},
            {"boson": {"X": [[[0.0, 0.0]] * 3] * 3, "T_list": [1.0]}},
            {"boson": {"H0": 5, "T_list": [1.0]}},
            {"HI": {"hopping": 5}},
            {"H0": {"matrix": [[[0.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [float("nan"), 0.0]]]},
             "n": 1, "HI": {"frequencies": [1.0]}},
            {"boson": {"H0": {"matrix": [[[float("inf"), 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]}}},
            {"boson": {"H0": {"matrix": [[[0.0, 0.0]] * 4] * 4, "frequencies": [1.0, 2.0]}}},
            {"tolerances": {"resonance": -1}},
            {"tolerances": {"resonance": 0.0}},
            {"tolerances": {"report": -1e-8}},
            {"lamda": 0.4},
            {"grid": {"t_end": 1.0, "step": 100}},
            {"tolerances": {"resonanse": 1e-6}},
            {"boson": {"H0": {"frequencies": [1.0, 2.0]}, "t_list": [1.0]}},
            {"H0": {"frequencies": [1.0, 2.0], "scale": 2.0}},
            {"HI": {"hopping": [{"j": 1, "k": 2, "g": 1.0, "h": 0.5}]}},
        ],
        ids=["negative-t_end", "string-m", "fractional-m", "hopping-k-above-n",
             "nan-frequency", "hopping-without-g", "string-tolerance",
             "string-T_list", "scalar-T_list", "negative-T_list", "X-wrong-dimension",
             "scalar-boson-H0", "scalar-hopping", "nan-matrix", "infinite-boson-matrix",
             "boson-matrix-and-frequencies", "negative-resonance", "zero-resonance",
             "negative-report", "unknown-top-level-key", "unknown-grid-key",
             "unknown-tolerance-key", "unknown-boson-key", "unknown-spec-key",
             "unknown-hopping-key"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, change):
        cfg = write_config(tmp_path, {**BASE, **change})
        # evolve never reads the boson section, so boson cases run through validate
        commands = [["validate"]] if "boson" in change else [["validate"], ["evolve", "--order", "2"]]
        for command in commands:
            code, _ = run(tmp_path, command[0], "--config", cfg, *command[1:])
            assert code == 2
            assert "config error" in capsys.readouterr().err


class TestArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--order", "abc"],
            ["evolve", "--order", "3"],
            ["order-study", "--order", "exact", "--lambdas", "0.1,0.05,0.025"],
            ["verify", "--seed", "-1"],
        ],
        ids=["evolve-order-abc", "evolve-order-3", "order-study-exact", "negative-seed"],
    )
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv):
        code, _ = run(tmp_path, *argv, "--config", config_path("two_mode.json"))
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestEvolve:
    def test_exact_two_mode(self, tmp_path):
        code, report = run(
            tmp_path, "evolve", "--config", config_path("two_mode.json"),
            "--order", "exact",
        )
        assert code == 0
        # off-resonant hopping at lambda=0.1: the averaged propagator stays
        # close to, but measurably differs from, free evolution
        err = report["payload"]["sup_error_vs_free"]
        assert 1e-4 < err < 1e-1

    def test_order2_close_to_exact(self, tmp_path):
        code, report = run(
            tmp_path, "evolve", "--config", config_path("two_mode.json"),
            "--order", "2",
        )
        assert code == 0
        assert report["payload"]["sup_error_vs_exact"] < 1e-3

    def test_order1_worse_than_order2(self, tmp_path):
        _, r1 = run(
            tmp_path, "evolve", "--config", config_path("two_mode_detuned.json"),
            "--order", "1",
        )
        _, r2 = run(
            tmp_path, "evolve", "--config", config_path("two_mode_detuned.json"),
            "--order", "2",
        )
        assert r2["payload"]["sup_error_vs_exact"] < r1["payload"]["sup_error_vs_exact"]

    def test_step_too_large_is_runtime_error(self, tmp_path):
        cfg_data = dict(BASE)
        cfg_data["lambda"] = 1.0
        cfg_data["grid"] = {"t_end": 5.0, "steps": 1}
        cfg = write_config(tmp_path, cfg_data)
        code, _ = run(tmp_path, "evolve", "--config", cfg, "--order", "2")
        assert code == 1

    def test_moment_dimension_over_cap_is_runtime_error(self, tmp_path, capsys):
        # (2n)^m = 4^7 exceeds linalg.DIM_CAP
        cfg = write_config(tmp_path, dict(BASE, m=7))
        code, report = run(tmp_path, "evolve", "--config", cfg, "--order", "2")
        assert code == 1 and report is None
        assert "DimensionOverflow" in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        code, report = run(
            tmp_path, "evolve", "--config", config_path("two_mode.json"),
            "--order", "exact", "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[1] == "re_0_0" and header[2] == "im_0_0"
        # 100 steps -> 101 rows, 4x4 matrix -> 1 + 32 columns
        assert len(lines) == 102
        assert len(lines[1].split(",")) == 33
        assert float(lines[1].split(",")[0]) == 0.0
        # first row is the identity
        row0 = [float(x) for x in lines[1].split(",")[1:]]
        mat = np.array(row0).reshape(4, 4, 2)
        np.testing.assert_allclose(mat[..., 0], np.eye(4), atol=1e-12)


class TestVerify:
    def test_shipped_config_passes(self, tmp_path):
        code, report = run(tmp_path, "verify", "--config", config_path("two_mode.json"))
        assert code == 0
        assert report["payload"]["all_pass"] is True
        for name, check in report["payload"]["checks"].items():
            assert check["pass"], name

    def test_too_many_modes_exits_2(self, tmp_path):
        cfg_data = dict(BASE)
        cfg_data["n"] = 5
        cfg_data["H0"] = {"frequencies": [1.0, 2.0, 3.0, 4.0, 5.0]}
        cfg = write_config(tmp_path, cfg_data)
        code, _ = run(tmp_path, "verify", "--config", cfg)
        assert code == 2

    def test_past_exponential_cap_exits_1(self, tmp_path, capsys):
        # max_abs(i Hhat t) = 12500 at t = 1 exceeds the exponential's cap
        cfg_data = dict(BASE, n=1, H0={"frequencies": [25000.0]}, HI={"frequencies": [0.3]})
        code, report = run(tmp_path, "verify", "--config", write_config(tmp_path, cfg_data))
        assert code == 1
        assert report is None
        assert "Overflow" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_4(self, tmp_path):
        cfg_data = dict(BASE)
        cfg_data["tolerances"] = {"resonance": 1e-9, "report": 1e-16}
        cfg = write_config(tmp_path, cfg_data)
        code, report = run(tmp_path, "verify", "--config", cfg)
        assert code == 4
        assert report["payload"]["all_pass"] is False


class TestLargeCoupling:
    """configs/two_mode.json at a coupling so large that the step guard's
    bound (1e150), the coupling's square (1e160, 1e250) or the
    eigendecomposition of H (1e308) overflows: refused with a typed error
    and exit 1, never a NaN report or a traceback."""

    @pytest.mark.parametrize("coupling, argv, error", [
        (1e150, ["evolve", "--order", "2"], "StepTooLarge"),
        (1e150, ["order-study", "--lambdas", "1e150,2e150,4e150"], "StepTooLarge"),
        (1e160, ["evolve", "--order", "2"], "StepTooLarge"),
        (1e160, ["order-study", "--lambdas", "1e160,2e160,4e160"], "StepTooLarge"),
        (1e250, ["evolve", "--order", "2"], "StepTooLarge"),
        (1e250, ["order-study", "--lambdas", "1e250,2e250,4e250"], "StepTooLarge"),
        (1e308, ["evolve", "--order", "2"], "Overflow"),
        (1e308, ["evolve", "--order", "exact"], "Overflow"),
        (1e308, ["verify"], "Overflow"),
    ])
    def test_refused(self, tmp_path, capsys, coupling, argv, error):
        data = json.loads(Path(config_path("two_mode.json")).read_text())
        data["lambda"] = coupling
        code, report = run(tmp_path, argv[0], "--config", write_config(tmp_path, data), *argv[1:])
        err = capsys.readouterr().err
        assert code == 1 and report is None
        assert err.startswith(f"{error}: ") and "Traceback" not in err


class TestOrderStudy:
    LAMBDAS = "0.1,0.05,0.025"

    def test_order2_slope(self, tmp_path):
        code, report = run(
            tmp_path, "order-study", "--config", config_path("two_mode_detuned.json"),
            "--lambdas", self.LAMBDAS,
        )
        assert code == 0
        assert abs(report["payload"]["slope"] - 3.0) < 0.3
        assert report["payload"]["degenerate_fit"] is False

    def test_order1_slope(self, tmp_path):
        code, report = run(
            tmp_path, "order-study", "--config", config_path("two_mode_detuned.json"),
            "--lambdas", self.LAMBDAS, "--order", "1",
        )
        assert code == 0
        assert abs(report["payload"]["slope"] - 2.0) < 0.3

    def test_commuting_model_degenerate_flag(self, tmp_path):
        code, report = run(
            tmp_path, "order-study", "--config", config_path("two_mode_resonant.json"),
            "--lambdas", self.LAMBDAS,
        )
        assert code == 0
        assert report["payload"]["degenerate_fit"] is True
        assert report["payload"]["slope"] is None

    def test_missing_lambdas_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "order-study", "--config", config_path("two_mode.json"))
        assert code == 2

    @pytest.mark.parametrize("lambdas", ["0.1,x,0.2", "0.1,nan,0.2", "0.1,0,0.2"])
    def test_bad_lambdas_exit_2(self, tmp_path, capsys, lambdas):
        code, _ = run(
            tmp_path, "order-study", "--config", config_path("two_mode.json"),
            "--lambdas", lambdas,
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestBosonCheck:
    def test_harmonic_stable(self, tmp_path):
        code, report = run(
            tmp_path, "boson-check", "--config", config_path("boson_harmonic.json")
        )
        assert code == 0
        assert report["payload"]["classification"] == "stable"
        assert report["payload"]["divergence_demo"]["classification"] == "bounded"

    def test_squeezing_unstable(self, tmp_path):
        code, report = run(
            tmp_path, "boson-check", "--config", config_path("boson_squeezing.json")
        )
        assert code == 0
        assert report["payload"]["classification"] == "unstable"
        assert report["payload"]["divergence_demo"]["classification"] == "divergent"

    def test_expect_stable_exits_5(self, tmp_path):
        code, _ = run(
            tmp_path, "boson-check", "--config", config_path("boson_squeezing.json"),
            "--expect-stable",
        )
        assert code == 5

    def test_jordan_block_expect_stable_exits_5(self, tmp_path):
        # real spectrum {0, 0}, but H0 J is a nilpotent Jordan block
        cfg = write_config(tmp_path, {
            "n": 1,
            "boson": {"H0": {"matrix": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]}},
        })
        code, report = run(tmp_path, "boson-check", "--config", cfg, "--expect-stable")
        assert code == 5
        assert report["payload"]["classification"] == "unstable"

    def test_jordan_block_demo_divergent(self, tmp_path):
        # the demo's norms grow like T^2 on the nilpotent Jordan block: it
        # reports "divergent" next to the "unstable" stability check
        cfg = write_config(tmp_path, {
            "n": 1,
            "boson": {
                "H0": {"matrix": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]},
                "X": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "T_list": [1, 5, 10, 20],
            },
        })
        code, report = run(tmp_path, "boson-check", "--config", cfg)
        assert code == 0
        assert report["payload"]["classification"] == "unstable"
        assert report["payload"]["divergence_demo"]["classification"] == "divergent"

    def test_expect_stable_passes_on_stable(self, tmp_path):
        code, _ = run(
            tmp_path, "boson-check", "--config", config_path("boson_harmonic.json"),
            "--expect-stable",
        )
        assert code == 0


class TestDeterminism:
    def test_evolve_payload_identical(self, tmp_path):
        _, a = run(
            tmp_path, "evolve", "--config", config_path("two_mode.json"), "--order", "2"
        )
        _, b = run(
            tmp_path, "evolve", "--config", config_path("two_mode.json"), "--order", "2"
        )
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(
            b["payload"], sort_keys=True
        )
        assert a["config_digest"] == b["config_digest"]

    def test_verify_payload_identical(self, tmp_path):
        _, a = run(tmp_path, "verify", "--config", config_path("two_mode.json"))
        _, b = run(tmp_path, "verify", "--config", config_path("two_mode.json"))
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(
            b["payload"], sort_keys=True
        )


def to_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: to_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_lists(x) for x in obj]
    return obj


# -0.0, the smallest subnormal, a subnormal, the largest magnitudes, and the
# non-finite values json writes as NaN / Infinity
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-310, 1e308, -1e308, float("nan"), float("inf"), float("-inf")]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
ARRAYS = (
    hnp.arrays(np.float64, SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False))
    | hnp.arrays(np.float64, SHAPES, elements=FLOATS)
    | hnp.arrays(np.int64, SHAPES)
    | hnp.arrays(np.bool_, SHAPES)
)
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text() | ARRAYS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


class TestReportEncoding:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(JSON_LIKE)
    @example({"values": np.array([[-0.0, 5e-324], [1e-310, 1e308]]), "empty": np.zeros((2, 0))})
    @example([np.array([1.0, float("nan")]), np.array([-np.inf, np.inf]), np.array(2.5)])
    @example({"ints": np.arange(3), "bools": np.array([True, False]), "": [{}, [], None]})
    def test_matches_json_dumps(self, obj):
        assert cli._encode(obj, 0) == json.dumps(to_lists(obj), indent=2, sort_keys=True)

    @pytest.mark.parametrize("order", ["exact", "2"])
    @pytest.mark.parametrize(
        "name",
        sorted(
            name for name in os.listdir(CONFIGS)
            if "boson" not in json.loads(Path(config_path(name)).read_text())
        ),
    )
    def test_evolve_report_and_csv(self, tmp_path, name, order):
        csv_path = tmp_path / "series.csv"
        code, report = run(
            tmp_path, "evolve", "--config", config_path(name), "--order", order,
            "--csv", str(csv_path),
        )
        assert code == 0
        text = (tmp_path / "report.json").read_text()
        # json writes floats as repr, which round-trips, so re-encoding the
        # parsed report must give back the same bytes on any platform
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        series = report["payload"]["series"]
        rows = [[float(x) for x in line.split(",")] for line in csv_path.read_text().splitlines()[1:]]
        assert rows == [[t, *np.ravel(V).tolist()] for t, V in zip(series["times"], series["values"])]


class TestParserReuse:
    def test_consecutive_calls_see_their_own_arguments(self, tmp_path, monkeypatch):
        seen = []

        def spy(cfg, args):
            seen.append((args.order, args.seed))
            return {}, 0

        monkeypatch.setitem(cli.COMMANDS, "validate", spy)
        two_mode = config_path("two_mode.json")
        run(tmp_path, "validate", "--config", two_mode, "--order", "1", "--seed", "3")
        run(tmp_path, "validate", "--config", two_mode, "--order", "exact")
        run(tmp_path, "validate", "--config", two_mode)
        assert seen == [(1, 3), ("exact", None), (2, None)]
        assert cli.build_parser() is cli.build_parser()
