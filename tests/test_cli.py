import json
import os

import numpy as np
import pytest

from jacobistab import cli
from jacobistab.cli import main, parse_config_text
from jacobistab.errors import ConfigError
from jacobistab.systems import builtin_setup

HARMONIC_CFG = """\
# circular orbit of the isotropic oscillator
system = flat-harmonic
energy = 1.0
q0 = 1.0, 0.0
v0 = 0.0, 1.0
t_span = 0.0, 2.0
step = 0.002
seed = 42
variation.count = 2
"""


@pytest.fixture
def harmonic_cfg(tmp_path):
    path = tmp_path / "harmonic.cfg"
    path.write_text(HARMONIC_CFG)
    return str(path)


class TestConfigParsing:
    def test_roundtrip(self):
        cfg = parse_config_text(HARMONIC_CFG)
        assert cfg["system"] == "flat-harmonic"
        assert cfg["variation.count"] == "2"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("sistem = flat-free\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("step = 0.1\nstep = 0.2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_metric_entries_and_tolerances_allowed(self):
        cfg = parse_config_text("metric.g.2.2 = sin(q1)^2\ntolerance.theorem1 = 1e-5\n")
        assert cfg["metric.g.2.2"] == "sin(q1)^2"

    def test_orthogonal_key_is_unknown(self, tmp_path, capsys):
        # variation.orthogonal was stored and never read; it is not a key now
        cfg = tmp_path / "orth.cfg"
        cfg.write_text(HARMONIC_CFG + "variation.orthogonal = true\n")
        assert main(["second-variation", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'variation.orthogonal'" in capsys.readouterr().err


# one config of each kind that together hold every key of the config grammar
_EVERY_KEY_CUSTOM = """\
system = custom
metric = sphere
metric.dim = 2
potential = cos(q1)
energy = 0.5
q0 = 1.5707963267948966, 0.0
v0 = 0.0, 1.0
t_span = 0.0, 0.05
s_span = 0.0, 0.05
direction = 0.0, 1.0
step = 0.005
seed = 3
alpha = 1e-4
dq = 0.1, 0.0
dv = 0.0, 0.1
drift_bound = 1e-6
variation.modes = 2
variation.amplitude = 0.5
variation.count = 1
"""


@pytest.mark.parametrize("text", [
    _EVERY_KEY_CUSTOM,
    "".join(line + "\n" for line in _EVERY_KEY_CUSTOM.splitlines()
            if line.split(" =")[0] not in cli._CUSTOM_KEYS).replace("custom", "sphere-cos"),
], ids=["custom", "builtin"])
def test_every_config_key_is_read(tmp_path, monkeypatch, text):
    # a key that is parsed and then never read does nothing when set
    read = set()

    class Recording(dict):
        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    parse = cli.parse_config_text
    monkeypatch.setattr(cli, "parse_config_text", lambda t: Recording(parse(t)))
    cfg = tmp_path / "every.cfg"
    cfg.write_text(text + f"out = {tmp_path / 'o'}\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    keys = set(parse_config_text(cfg.read_text()))
    assert keys - read == set()
    if "metric" in keys:
        assert keys == cli._SCALAR_KEYS | cli._LIST_KEYS
    else:
        assert keys == (cli._SCALAR_KEYS | cli._LIST_KEYS) - cli._CUSTOM_KEYS


class TestSimulate:
    def test_writes_csv_and_metadata(self, harmonic_cfg, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--config", harmonic_cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,q1,q2,v1,v2"
        meta = json.loads((out / "trajectory.json").read_text())
        assert meta["energy"] == pytest.approx(1.0)
        assert meta["energy_drift"] < 1e-8

    def test_energy_drift_is_max_over_every_sample(self, tmp_path):
        cfg = tmp_path / "sphere.cfg"
        cfg.write_text("system = sphere-cos\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "trajectory.json").read_text())
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        e0 = meta["energy"]
        energy = builtin_setup("sphere-cos").system.energy(rows[:, 1:3], rows[:, 3:5])
        assert meta["energy_drift"] == np.max(np.abs(energy - e0)) / max(1.0, abs(e0))

    def test_deterministic_output(self, harmonic_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", harmonic_cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", harmonic_cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_inconsistent_energy_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("system = flat-harmonic\nenergy = 2.5\n")
        assert main(["simulate", "--config", cfg.as_posix()]) == 2

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        assert main(["simulate", "--config", cfg.as_posix()]) == 2

    def test_domain_exit_is_numerical_failure(self, tmp_path):
        cfg = tmp_path / "pole.cfg"
        cfg.write_text("system = sphere-free\nq0 = 1.5707963267948966, 0.0\n"
                       "v0 = 1.0, 0.0\nt_span = 0.0, 2.0\n")
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 3

    def test_invalid_step_exit_2(self, harmonic_cfg, tmp_path, capsys):
        code = main(["simulate", "--config", harmonic_cfg, "--step", "-1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "step > 0" in err

    def test_undefined_expression_is_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "log.cfg"
        cfg.write_text("system = custom\npotential = ln(q1)\n"
                       "q0 = -1.0, 0.0\nv0 = 0.0, 1.0\n")
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 3
        assert "undefined" in capsys.readouterr().err

    def test_custom_system_from_expressions(self, tmp_path):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("system = custom\nmetric.dim = 2\n"
                       "potential = (q1^2 + q2^2)/2\n"
                       "q0 = 1.0, 0.0\nv0 = 0.0, 1.0\nt_span = 0.0, 1.0\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg.as_posix(), "--out", str(out)]) == 0
        meta = json.loads((out / "trajectory.json").read_text())
        assert meta["energy"] == pytest.approx(1.0)


class TestGeodesic:
    def test_forbidden_start_exit_3(self, tmp_path, capsys):
        # starting at rest: E - U = 0 at the initial point
        cfg = tmp_path / "rest.cfg"
        cfg.write_text("system = flat-harmonic\nq0 = 1.0, 0.0\nv0 = 0.0, 0.0\n"
                       "s_span = 0.0, 1.0\n")
        assert main(["geodesic", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 3
        assert "forbidden region" in capsys.readouterr().err

    def test_writes_record(self, harmonic_cfg, tmp_path):
        out = tmp_path / "run"
        code = main(["geodesic", "--config", harmonic_cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "geodesic.csv").read_text().splitlines()
        assert lines[0] == "s,q1,q2,u1,u2,t"
        meta = json.loads((out / "geodesic.json").read_text())
        assert not meta["truncated"]


class TestDeviation:
    def test_oracle_agreement_reported(self, harmonic_cfg, tmp_path):
        out = tmp_path / "run"
        code = main(["deviation", "--config", harmonic_cfg, "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "deviation.json").read_text())
        assert meta["oracle_sup"] < 1e-5
        header = (out / "deviation.csv").read_text().splitlines()[0]
        assert header == "t,q1,q2,v1,v2,V1,V2,DV1,DV2"

    def test_oracle_sup_is_the_shared_comparison(self, harmonic_cfg, tmp_path):
        from jacobistab.dynamics import linearization_against_oracle

        out = tmp_path / "run"
        assert main(["deviation", "--config", harmonic_cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "deviation.json").read_text())
        # the config's defaults: dq = 0, dv = (1, 0), alpha = 1e-4
        _, sup = linearization_against_oracle(
            builtin_setup("flat-harmonic").system, np.array([1.0, 0.0]),
            np.array([0.0, 1.0]), np.zeros(2), np.array([1.0, 0.0]), 1e-4, (0.0, 2.0), 0.002)
        assert meta["oracle_sup"] == sup

    def test_drift_bound_applies(self, tmp_path):
        # the same orbit fails the config's bound in simulate and in deviation
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("system = flat-harmonic\ndrift_bound = 1e-18\n")
        for command in ("simulate", "deviation"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


class TestCompareOperators:
    def test_harmonic_reports_large_correction(self, harmonic_cfg, tmp_path):
        out = tmp_path / "run"
        code = main(["compare-operators", "--config", harmonic_cfg,
                     "--out", str(out), "--json"])
        assert code == 0
        data = json.loads((out / "compare_operators.json").read_text())
        assert data["operator_identity_sup"] < 1e-6
        assert data["equal_energy_identity_sup"] < 1e-6
        assert data["correction_sup"] > 1e-2
        assert data["constraint_sup"] < 1e-8

    def test_sphere_cos_equal_energy_holds_on_core(self, tmp_path):
        # the equal-energy residual is reported on the core between the
        # stencil pads, where the operator identity is also taken
        cfg = tmp_path / "sphere.cfg"
        cfg.write_text("system = sphere-cos\nt_span = 0.0, 2.0\nstep = 0.002\n")
        out = tmp_path / "run"
        assert main(["compare-operators", "--config", cfg.as_posix(),
                     "--out", str(out)]) == 0
        data = json.loads((out / "compare_operators.json").read_text())
        assert data["equal_energy_identity_sup"] < 1e-6
        assert data["correction_sup"] > 1e-2

    def test_constant_potential_correction_vanishes(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text("system = flat-free\nt_span = 0.0, 2.0\nvariation.count = 2\n")
        out = tmp_path / "run"
        assert main(["compare-operators", "--config", cfg.as_posix(),
                     "--out", str(out)]) == 0
        rows = [line.split() for line in
                (out / "compare_operators.dat").read_text().splitlines()[1:]]
        corr = np.array([float(r[1]) for r in rows])
        assert np.max(corr) < 1e-10


class TestCustomSystems:
    """Custom systems take exact partials of their expression strings, so they
    reach the accuracy of the built-in systems they restate."""

    HENON_HEILES = """\
system = custom
metric = flat
potential = 0.5*(q1^2 + q2^2) + q1^2*q2 - q2^3/3
q0 = 0, 0.1
v0 = 0.48918, 0
t_span = 0, 5
step = 1.25e-3
seed = 42
"""

    # each built-in restated with expression strings, over its own initial data
    RESTATED = {
        "sphere-cos": "metric.g.2.2 = sin(q1)^2\npotential = cos(q1)\n"
                      "q0 = 1.5707963267948966, 0\nv0 = 0, 1\nt_span = 0, 2\n",
        "flat-harmonic": "metric = flat\npotential = 0.5*(q1^2 + q2^2)\n"
                         "q0 = 1, 0\nv0 = 0, 1\nt_span = 0, 6.283185307179586\n",
        "hyperbolic-free": "metric.g.1.1 = 1/q2^2\nmetric.g.2.2 = 1/q2^2\n"
                           "q0 = 0, 1\nv0 = 1, 0\nt_span = 0, 1.5\n",
    }

    @staticmethod
    def _compare(tmp_path, label, text, *extra):
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(text)
        out = tmp_path / label
        code = main(["compare-operators", "--config", cfg.as_posix(), "--out", str(out),
                     *extra])
        return code, json.loads((out / "compare_operators.json").read_text())

    def test_henon_heiles_identities_hold(self, tmp_path):
        # with finite-difference partials the operator identity missed its
        # tolerance here at 2.3e-2, whatever the step
        code, data = self._compare(tmp_path, "hh", self.HENON_HEILES)
        assert code == 0
        assert data["operator_identity_sup"] < 1e-6
        assert data["equal_energy_identity_sup"] < 1e-6

    @pytest.mark.parametrize("name", sorted(RESTATED))
    def test_restated_builtin_matches_builtin(self, tmp_path, name):
        args = ("--step", "0.002", "--seed", "42")
        _, builtin = self._compare(tmp_path, "builtin", f"system = {name}\n", *args)
        code, custom = self._compare(tmp_path, "custom",
                                     "system = custom\n" + self.RESTATED[name], *args)
        assert code == 0
        assert custom["operator_identity_sup"] <= 10.0 * builtin["operator_identity_sup"]

    # each built-in preset whose potential is an expression, as a custom system
    PRESETS = {
        "flat-free": "metric = flat\npotential = 0\nq0 = 0, 0\nv0 = 1, 0\nt_span = 0, 2\n",
        "uniform-gravity": "metric = flat\npotential = q1\n"
                           "q0 = 0, 0\nv0 = 1, 0\nt_span = 0, 0.5\n",
        "sphere-free": "metric = sphere\npotential = 0\nq0 = 1.5707963267948966, 0\n"
                       "v0 = 0, 1\nt_span = 0, 6.283185307179586\n",
        "sphere-cos": "metric = sphere\npotential = cos(q1)\nq0 = 1.5707963267948966, 0\n"
                      "v0 = 0, 1\nt_span = 0, 2\n",
        "hyperbolic-free": "metric = hyperbolic\npotential = 0\n"
                           "q0 = 0, 1\nv0 = 1, 0\nt_span = 0, 1.5\n",
    }

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_equals_custom_restatement(self, tmp_path, name):
        # the same system built the same way: identical bytes, and identical
        # JSON records but for the system's name
        outputs = {}
        for label, text in (("preset", f"system = {name}\n"),
                            ("custom", "system = custom\n" + self.PRESETS[name])):
            cfg = tmp_path / f"{label}.cfg"
            cfg.write_text(text)
            out = tmp_path / label
            codes = [main([cmd, "--config", cfg.as_posix(), "--out", str(out),
                           "--step", "0.002", "--seed", "3"])
                     for cmd in ("simulate", "compare-operators")]
            outputs[label] = (codes, (out / "trajectory.csv").read_bytes(),
                              (out / "compare_operators.dat").read_bytes(),
                              *({k: v for k, v in json.loads((out / f).read_text()).items()
                                 if k != "system"}
                                for f in ("trajectory.json", "compare_operators.json")))
        assert outputs["preset"] == outputs["custom"]

    def test_conformal_flat_overflow_is_one_line(self, tmp_path, capsys):
        # e^{2 q1} overflows at q1 = 400: a numerical failure, not inf or NaN
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("system = custom\nmetric = conformal-flat\n"
                       "q0 = 400, 0\nv0 = 0, 1\n")
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure")

    @pytest.mark.parametrize("potential, q1", [("q1^0.5", "0"), ("ln(q1)", "1e-310")])
    def test_undefined_partial_is_numerical_failure(self, tmp_path, capsys, potential, q1):
        # the potential is defined at q0, its partials are not
        cfg = tmp_path / "partial.cfg"
        cfg.write_text(f"system = custom\npotential = {potential}\n"
                       f"q0 = {q1}, 0.0\nv0 = 0.0, 1.0\n")
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure")


class TestSecondVariation:
    def test_sweep_csv_written(self, harmonic_cfg, tmp_path):
        out = tmp_path / "run"
        code = main(["second-variation", "--config", harmonic_cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "second_variation.csv").read_text().splitlines()
        assert lines[0].startswith("system,E,seed,d2S,d2S0J,d2LJ")
        assert len(lines) == 3   # two variations
        data = json.loads((out / "second_variation.json").read_text())
        assert data["max_thm1_residual"] < 1e-6


class TestVerify:
    def test_verify_lemmas_passes(self, tmp_path):
        out = tmp_path / "v"
        code = main(["verify-lemmas", "--out", str(out), "--json"])
        assert code == 0
        verdicts = json.loads((out / "verify_lemmas.json").read_text())
        assert all(v["passed"] for v in verdicts)

    def test_injected_fault_detected(self, tmp_path):
        code = main(["verify-lemmas", "--out", str(tmp_path),
                     "--inject-fault", "lemma3-sign"])
        assert code == 1
        verdicts = json.loads((tmp_path / "verify_lemmas.json").read_text())
        failed = {v["identity"] for v in verdicts if not v["passed"]}
        assert "lemma3-analytic" in failed

    def test_tolerance_override_forces_failure(self, tmp_path):
        code = main(["verify-lemmas", "--out", str(tmp_path),
                     "--tolerance", "lemma-analytic=1e-15"])
        assert code == 1

    def test_unknown_tolerance_rejected(self, tmp_path):
        assert main(["verify-lemmas", "--out", str(tmp_path),
                     "--tolerance", "bogus=1"]) == 2

    def test_verify_all_subset(self, tmp_path):
        out = tmp_path / "v"
        code = main(["verify-all", "--checks", "roundtrip,equal-energy",
                     "--out", str(out), "--json"])
        assert code == 0
        verdicts = json.loads((out / "verify_all.json").read_text())
        names = {v["identity"] for v in verdicts}
        assert {"roundtrip-harmonic", "roundtrip-gravity",
                "equal-energy-identity", "equal-energy-correction"} <= names

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in ("simulate", "geodesic", "deviation",
                                        "compare-operators", "second-variation", "report")
        for flag in ("--checks", "--inject-fault")] + [("verify-lemmas", "--checks")])
    def test_verify_flags_only_where_read(self, harmonic_cfg, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", harmonic_cfg, flag, "x", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_report_malformed_json_exit_2(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{not json")
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "broken.json" in err

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"', '[{"identity": "a"}, 5]'])
    def test_report_unexpected_shape_exit_2(self, tmp_path, capsys, text):
        (tmp_path / "odd.json").write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "malformed report odd.json" in err

    def test_report_lists_outputs(self, tmp_path, capsys):
        out = tmp_path / "v"
        main(["verify-all", "--checks", "roundtrip", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "roundtrip-harmonic" in text
        assert "PASS" in text


class TestOutputErrors:
    def test_report_missing_dir_exit_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "missing")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "missing" in err

    def test_out_under_regular_file_exit_2(self, harmonic_cfg, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["simulate", "--config", harmonic_cfg,
                     "--out", str(blocker / "run")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "output error" in err


class TestInputValidation:
    @staticmethod
    def _exits_2(tmp_path, capsys, command, lines, message):
        """One stderr line starting with ``message``, and nothing written."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("system = flat-harmonic\n" + lines)
        out = tmp_path / "o"
        assert main([command, "--config", cfg.as_posix(), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, lines, needle", [
        ("simulate", "t_span = 1.0\n", "t_span"),
        ("simulate", "t_span = 0.0, 1.0, 2.0\n", "t_span"),
        ("simulate", "t_span = 2.0, 1.0\n", "t_span"),
        ("geodesic", "s_span = 0.0\n", "s_span"),
        ("simulate", "q0 = 1.0, 0.0, 0.0\n", "q0"),
        ("simulate", "v0 = 0.0\n", "v0"),
        ("deviation", "dq = 1.0, 0.0, 0.0\n", "dq"),
        ("deviation", "dv = 1.0\n", "dv"),
        ("geodesic", "direction = 0.0, 1.0, 0.0\n", "direction"),
    ])
    def test_bad_list_length_exit_2(self, tmp_path, capsys, command, lines, needle):
        self._exits_2(tmp_path, capsys, command, lines, f"config error: {needle}")

    @pytest.mark.parametrize("command, lines, message", [
        ("simulate", "t_span = 0, inf\n", "config error: t_span"),
        ("second-variation", "variation.amplitude = nan\n", "config error: variation.amplitude"),
        ("deviation", "alpha = 0\n", "input error: need alpha > 0"),
        ("compare-operators", "variation.count = 0\n", "config error: variation.count"),
        ("second-variation", "variation.count = -1\n", "config error: variation.count"),
        ("simulate", "drift_bound = -1\n", "config error: drift_bound"),
        ("deviation", "drift_bound = 0\n", "config error: drift_bound"),
        ("verify-lemmas", "tolerance.lemma-fd = nan\n", "config error: tolerance.lemma-fd"),
    ])
    def test_bad_number_exit_2(self, tmp_path, capsys, command, lines, message):
        self._exits_2(tmp_path, capsys, command, lines, message)

    @pytest.mark.parametrize("lines, key", [
        ("potential = 100*q1\nmetric.g.1.1 = 5\n", "potential"),
        ("metric.g.1.1 = 5\n", "metric.g.1.1"),
        ("metric = sphere\n", "metric"),
        ("metric.dim = 3\n", "metric.dim"),
    ])
    def test_custom_keys_on_builtin_exit_2(self, tmp_path, capsys, lines, key):
        # a built-in system would run as if these keys were not there
        self._exits_2(tmp_path, capsys, "simulate", lines, f"config error: {key}:")

    @pytest.mark.parametrize("lines", [
        "metric = sphere\nmetric.dim = 3\npotential = q3\nq0 = 1, 0, 0\nv0 = 0, 1, 0\n",
        "metric = hyperbolic\nmetric.dim = 1\nq0 = 1\nv0 = 1\n",
    ])
    def test_named_metric_wrong_dimension_exit_2(self, tmp_path, capsys, lines):
        cfg = tmp_path / "dim.cfg"
        cfg.write_text("system = custom\n" + lines)
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: metric.dim")

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_nonfinite_step_flag_exit_2(self, harmonic_cfg, tmp_path, capsys, step):
        assert main(["simulate", "--config", harmonic_cfg, "--step", step,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: --step")

    def test_zero_dimension_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "dim0.cfg"
        cfg.write_text("system = custom\nmetric.dim = 0\nq0 = 0.0\nv0 = 1.0\n")
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "metric.dim" in err[0]

    @pytest.mark.parametrize("entries", ["metric.g.1.1 = -1\n", "metric.g.1.2 = 2\n"])
    def test_indefinite_custom_metric_exit_2(self, tmp_path, capsys, entries):
        cfg = tmp_path / "indef.cfg"
        cfg.write_text("system = custom\nq0 = 0.5, 0.0\nv0 = 0.0, 1.0\n" + entries)
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not positive definite" in err[0]

    def test_unusable_out_fails_before_computing(self, tmp_path, capsys, monkeypatch):
        from jacobistab import cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before checking the output directory")

        monkeypatch.setattr(cli, "check_lemma_suite", must_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["verify-lemmas", "--out", str(blocker / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error")


@pytest.mark.parametrize("command", ["simulate", "geodesic", "deviation", "compare-operators",
                                     "second-variation", "verify-lemmas"])
def test_every_output_file_goes_through_the_cli_writer(harmonic_cfg, tmp_path, monkeypatch,
                                                        command):
    written = set()
    write = cli._write_text_atomic

    def spy(path, text):
        written.add(os.path.basename(path))
        write(path, text)

    monkeypatch.setattr(cli, "_write_text_atomic", spy)
    out = tmp_path / "o"
    assert main([command, "--config", harmonic_cfg, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == written


class TestUnexpectedErrors:
    def test_internal_error_exit_4(self, harmonic_cfg, tmp_path, capsys, monkeypatch):
        from jacobistab import cli

        def broken(*args, **kwargs):
            raise RuntimeError("broken invariant")

        monkeypatch.setitem(cli._COMMANDS, "simulate", (broken, True))
        assert main(["simulate", "--config", harmonic_cfg,
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["internal error: RuntimeError: broken invariant"]
