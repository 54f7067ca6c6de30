import json

import numpy as np
import pytest

from jacobistab.cli import main, parse_config_text
from jacobistab.errors import ConfigError

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
    def test_forbidden_start_exit_3(self, tmp_path):
        # starting at rest: E - U = 0 at the initial point
        cfg = tmp_path / "rest.cfg"
        cfg.write_text("system = flat-harmonic\nq0 = 1.0, 0.0\nv0 = 0.0, 0.0\n"
                       "s_span = 0.0, 1.0\n")
        assert main(["geodesic", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 3

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

    def test_report_malformed_json_exit_2(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{not json")
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "broken.json" in err

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
