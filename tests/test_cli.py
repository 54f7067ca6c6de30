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
