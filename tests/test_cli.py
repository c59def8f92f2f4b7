"""CLI front end: config validation, reports, exit codes, determinism."""

import csv
import gc
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from algfield import cli, scenarios
from algfield.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_SCHEMA_VIOLATION,
    EXIT_UNKNOWN_SCENARIO,
    SCENARIOS,
    CheckContext,
    apply_overrides,
    builtin_config_path,
    load_config,
    main,
)
from algfield.fields import GridSpec, ResidualField

FAST_CONFIG = {
    "schema": 1,
    "scenario": "free_particle",
    "seed": 7,
    "params": {"dim": 2, "u0": [0.0, 1.0], "y0": [1.0, -0.5], "dt": 0.01,
               "t_end": 1.0},
    "checks": [
        {"name": "structure", "kind": "structure_equations", "tol": 1e-8,
         "points": 20},
        {"name": "exact", "kind": "exact_solution", "tol": 1e-10},
    ],
}

# every check kind of the pure-gauge lattice scenario, on the smallest lattice
SMALL_GAUGE_CONFIG = {
    "schema": 1,
    "scenario": "chern_simons",
    "seed": 3,
    "params": {"lattice": 4, "gauge": "random_su2", "gauge_amplitude": 0.5},
    "checks": [{"name": kind, "kind": kind, "points": 5}
               for kind in SCENARIOS["chern_simons"].checks],
}


def variant(top=None, check=None):
    """FAST_CONFIG with top-level entries and entries of its first check replaced."""
    config = json.loads(json.dumps(FAST_CONFIG))
    config["checks"][0].update(check or {})
    config.update(top or {})
    return config


def without(key):
    config = json.loads(json.dumps(FAST_CONFIG))
    del config[key]
    return config


# one config per rule of the README's config layout; json.dumps writes
# non-finite floats as NaN and Infinity, which Python's json reads back
LAYOUT_VIOLATIONS = {
    "not_an_object": [FAST_CONFIG],
    "missing_schema": without("schema"),
    "missing_scenario": without("scenario"),
    "missing_checks": without("checks"),
    "unknown_top_key": variant({"comment": "x"}),
    "schema_2": variant({"schema": 2}),
    "schema_true": variant({"schema": True}),
    "scenario_not_string": variant({"scenario": 5}),
    "seed_negative": variant({"seed": -1}),
    "seed_not_integral": variant({"seed": 1.5}),
    "seed_bool": variant({"seed": True}),
    "params_not_object": variant({"params": [1, 2]}),
    "checks_empty": variant({"checks": []}),
    "checks_not_list": variant({"checks": {"name": "exact", "kind": "exact_solution"}}),
    "check_not_object": variant({"checks": ["exact_solution"]}),
    "check_name_missing": variant({"checks": [{"kind": "exact_solution"}]}),
    "check_name_empty": variant(check={"name": ""}),
    "check_kind_not_string": variant(check={"kind": 1}),
    "tol_negative": variant(check={"tol": -1e-8}),
    "tol_not_number": variant(check={"tol": "1e-8"}),
    "ratio_min_not_number": variant(check={"ratio_min": "3"}),
    "ratio_max_bool": variant(check={"ratio_max": True}),
    "points_zero": variant(check={"points": 0}),
    "points_not_integral": variant(check={"points": 2.5}),
    "tol_nan": variant(check={"tol": float("nan")}),
    "tol_infinity": variant(check={"tol": float("inf")}),
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestRun:
    def test_fast_config_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(out)]) == EXIT_OK

        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["scenario"] == "free_particle"
        # every configured check appears exactly once
        names = [c["name"] for c in report["checks"]]
        assert sorted(names) == sorted(c["name"] for c in FAST_CONFIG["checks"])
        assert (out / "trajectory.csv").exists()
        assert (out / "timing.json").exists()
        # wall time lives outside the deterministic report
        assert "wall" not in json.dumps(report)

    def test_zero_tolerance_fd_check_fails(self, tmp_path):
        config = json.loads(json.dumps(FAST_CONFIG))
        config["checks"][1]["tol"] = 0.0
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(out)]) == EXIT_CHECK_FAILURE
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False

    def test_malformed_config_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path), str(tmp_path / "o")]) == EXIT_SCHEMA_VIOLATION

    def test_missing_fields_schema_violation(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "rigid_body"})
        assert main(["run", str(cfg), str(tmp_path / "o")]) == EXIT_SCHEMA_VIOLATION

    def test_duplicate_check_names_rejected(self, tmp_path):
        config = json.loads(json.dumps(FAST_CONFIG))
        config["checks"].append(dict(config["checks"][0]))
        cfg = write_config(tmp_path, config)
        assert main(["run", str(cfg), str(tmp_path / "o")]) == EXIT_SCHEMA_VIOLATION

    def test_unknown_scenario_kind(self, tmp_path):
        config = json.loads(json.dumps(FAST_CONFIG))
        config["scenario"] = "warp_drive"
        cfg = write_config(tmp_path, config)
        assert main(["run", str(cfg), str(tmp_path / "o")]) == EXIT_UNKNOWN_SCENARIO

    @pytest.mark.parametrize("config", LAYOUT_VIOLATIONS.values(), ids=LAYOUT_VIOLATIONS)
    def test_layout_violation(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["check-config", str(cfg)]) == EXIT_SCHEMA_VIOLATION
        capsys.readouterr()
        assert main(["run", str(cfg), str(out)]) == EXIT_SCHEMA_VIOLATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_integral_floats_accepted(self, tmp_path):
        cfg = write_config(tmp_path, variant({"schema": 1.0, "seed": 5.0}, {"points": 2.0}))
        out = tmp_path / "out"
        assert main(["check-config", str(cfg)]) == EXIT_OK
        assert main(["run", str(cfg), str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 5
        assert report["checks"][0]["extra"] == {"points": 2}

    def test_unknown_check_kind_schema_violation(self, tmp_path):
        config = json.loads(json.dumps(FAST_CONFIG))
        config["checks"][0]["kind"] = "horoscope"
        cfg = write_config(tmp_path, config)
        assert main(["check-config", str(cfg)]) == EXIT_SCHEMA_VIOLATION
        assert main(["run", str(cfg), str(tmp_path / "o")]) == EXIT_SCHEMA_VIOLATION
        assert not (tmp_path / "o").exists()

    def test_unknown_last_check_kind_rejected_before_integration(self, tmp_path,
                                                                 monkeypatch):
        config = json.loads(builtin_config_path("rigid_body").read_text())
        config["checks"][-1]["kind"] = "horoscope"
        cfg = write_config(tmp_path, config)

        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a config with an unknown check kind")

        monkeypatch.setattr(scenarios, "integrate_mechanics", no_integration)
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(out)]) == EXIT_SCHEMA_VIOLATION
        assert not out.exists()  # so no report.json either

    @pytest.mark.parametrize("config", [FAST_CONFIG, SMALL_GAUGE_CONFIG],
                             ids=["free_particle", "chern_simons"])
    def test_run_state_freed_on_return(self, tmp_path, config):
        # cached fields must not keep their run context alive in a reference
        # cycle: only the cycle collector would free them, so each run would
        # hold the previous run's lattices until it ran
        cfg = write_config(tmp_path, config)
        gc.collect()
        gc.disable()
        try:
            assert main(["run", str(cfg), str(tmp_path / "out")]) in (
                EXIT_OK, EXIT_CHECK_FAILURE)
            alive = [o for o in gc.get_objects() if isinstance(o, CheckContext)]
        finally:
            gc.enable()
        assert alive == []

    def test_standard_field_first_variation_seed_131(self, tmp_path):
        # the first section drawn at seed 131 is constant: its two defects
        # are rounding noise with a ratio near 1, so the check redraws it
        config = json.loads(builtin_config_path("standard_field").read_text())
        config["checks"] = [c for c in config["checks"]
                            if c["kind"] == "first_variation_convergence"]
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(out), "--seed", "131"]) == EXIT_OK
        check, = json.loads((out / "report.json").read_text())["checks"]
        assert 3.0 <= check["extra"]["ratio"] <= 5.0

    @pytest.mark.parametrize("config, overrides", [
        ("standard_field", ["params.lattice=abc"]),
        ("chern_simons", ["params.lattice=2"]),
        ("rigid_body", ["params.dt=-1"]),
        ("standard_field", ["params.base_dim=3"]),
        ("standard_field", ["params.fibre_dim=2"]),
        ("atiyah_euler_poincare", ["params.base_dim=3", "params.lattice=4"]),
        ("standard_field", ["params.lattice=4"]),
        ("chern_simons", ["params.lattice=3"]),
        ("standard_field", ["params.connection=linear_u"]),
        ("chern_simons", ["params.lattice=4.9"]),
        ("atiyah_euler_poincare", ["params.base_dim=true"]),
        ("standard_field", ["params.latice=4"]),
        ("atiyah_euler_poincare", ["params.gauge=random_su2"]),
        ("rigid_body", ["params.dt=0.3", "params.t_end=1.0"]),
    ], ids=["lattice_not_int", "lattice_below_stencil", "negative_dt", "base_dim_3",
            "fibre_dim_2", "first_variation_3d", "first_variation_small_lattice",
            "cs_identity_small_lattice", "el_vs_classical_linear_u",
            "lattice_not_integral", "base_dim_bool", "unknown_param_misspelt",
            "unknown_param_of_other_scenario", "t_end_not_whole_steps"])
    def test_bad_params_schema_violation(self, tmp_path, capsys, config, overrides):
        # every limit, those of one check kind included, is checked at
        # set-up: by check-config, and by run before it makes the output
        # directory
        out = tmp_path / "out"
        argv = ["run", config, str(out)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == EXIT_SCHEMA_VIOLATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if "params.t_end=1.0" in overrides:
            # the dt trajectory would end at 0.9 and the dt / 2 one at 1.05
            assert "t_end" in err[0] and "dt = 0.3" in err[0]
        assert not out.exists()
        cfg = write_config(tmp_path, apply_overrides(load_config(config), overrides))
        assert main(["check-config", str(cfg)]) == EXIT_SCHEMA_VIOLATION

    def test_check_config_rejects_bad_params(self, tmp_path):
        config = json.loads(builtin_config_path("chern_simons").read_text())
        config["params"]["lattice"] = 2
        cfg = write_config(tmp_path, config)
        assert main(["check-config", str(cfg)]) == EXIT_SCHEMA_VIOLATION
        assert main(["run", str(cfg), str(tmp_path / "out")]) == EXIT_SCHEMA_VIOLATION
        assert not (tmp_path / "out").exists()

    def test_report_is_strict_json(self, tmp_path):
        # the identity gauge samples a zero field, so the fine flatness
        # error is 0 and the convergence ratio is undefined
        config = {"schema": 1, "scenario": "chern_simons", "seed": 3,
                  "params": {"lattice": 4, "gauge": "identity"},
                  "checks": [{"name": "order", "kind": "morphism_convergence"}]}
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(out)]) == EXIT_CHECK_FAILURE

        def reject(constant):
            raise AssertionError(f"report.json holds {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        check, = report["checks"]
        assert check["extra"]["ratio"] is None and check["passed"] is False

    def test_missing_config_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json"),
                     str(tmp_path / "o")]) == EXIT_IO_ERROR

    def test_determinism_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), str(out_a)]) == EXIT_OK
        assert main(["run", str(cfg), str(out_b)]) == EXIT_OK
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_trajectory_csv_writes_each_float_with_repr(self, tmp_path):
        # every field is written as repr(float(v)), row by row, so the file
        # is byte-identical to this reference writer
        ctx = CheckContext({"checks": []}, np.random.default_rng(0))
        ctx.dt = 0.1
        traj = scenarios.MechanicsTrajectory(
            times=np.array([0.0, 0.1, 0.30000000000000004]),
            u=np.array([[1e-05], [-0.0], [1.0 / 3.0]]),
            y=np.array([[1e16, 2.5], [5e-324, -1.0], [123456.789, 0.1 + 0.2]]))
        conserved = {"energy": np.array([0.5, np.nextafter(0.5, 1.0), -7.0]),
                     "casimir": np.array([2.0 ** -30, 1e300, -1e-300])}
        ctx._cache[("trajectory", 0.1)] = (traj, conserved)
        assert cli._write_trajectory_csv(ctx, tmp_path) == ["trajectory.csv"]

        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["t", "u_0", "y_0", "y_1", "casimir", "energy"])
        for i, t in enumerate(traj.times):
            row = [t, *traj.u[i], *traj.y[i], conserved["casimir"][i], conserved["energy"][i]]
            writer.writerow([repr(float(v)) for v in row])
        assert (tmp_path / "trajectory.csv").read_bytes() == expected.getvalue().encode()

    def test_csv_writer_matches_csv_module(self, tmp_path):
        # the joined repr rows are the bytes csv.writer writes for the floats
        table = np.array([[np.nan, np.inf, -np.inf, -0.0, 0.0],
                          [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 1e16, 5e-324],
                          [123456789.12345679, -1.2345678901234567e-300, 1e300, 2.0 ** -30, 7.0]])
        header = ["t", "u_0", "y_0", "casimir", "energy"]
        cli._write_csv(tmp_path / "out.csv", header, table)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(table.tolist())
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode()

    def test_seed_flag_changes_report_seed(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(out), "--seed", "99"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99

    def test_override_flag(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(out),
                     "--override", "params.t_end=0.5"]) == EXIT_OK

    def test_builtin_config_name_resolution(self):
        # bare catalog names resolve to the shipped configs
        assert main(["check-config", "rigid_body"]) == EXIT_OK


class TestMorphismConvergence:
    @staticmethod
    def _run(order, n=8):
        """The check on a synthetic flatness residual ``h**order * s(x)`` of a
        2d periodic lattice with spacing ``h``."""
        def report(ctx, nn):
            grid = GridSpec.periodic_box((nn, nn))
            x = np.stack(np.meshgrid(*(np.arange(nn) * grid.spacing[0],) * 2, indexing="ij"),
                         axis=-1)
            s = 1.0 + 0.5 * np.sin(x[..., 0] + 2.0 * x[..., 1] + 0.3)
            mor = np.zeros((nn, nn, 1, 2, 2))
            mor[..., 0, 0, 1] = grid.spacing[0] ** order * s
            mor[..., 0, 1, 0] = -mor[..., 0, 0, 1]
            return ResidualField(admissibility=np.zeros((nn, nn, 0, 2)), morphism=mor)

        ctx = CheckContext({"checks": []}, np.random.default_rng(0))
        ctx.n = n
        return cli._morphism_convergence(report)(
            {"name": "order", "kind": "morphism_convergence"}, ctx)

    def test_first_order_field_fails(self):
        # the ratio at the shared nodes is 2 for a first-order error
        result = self._run(1)
        assert not result.passed
        assert result.extra["ratio"] == pytest.approx(2.0, rel=1e-12)
        assert result.extra["coarse"] / result.extra["fine"] == result.extra["ratio"]

    def test_second_order_field_passes(self):
        result = self._run(2)
        assert result.passed
        assert result.extra["ratio"] == pytest.approx(4.0, rel=1e-12)
        # the fine maximum over all nodes is kept, and is at least the shared one
        assert result.extra["fine_all_nodes"] >= result.extra["fine"]


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["rigid_body", "heavy_top", "standard_field",
                                      "chern_simons", "atiyah_euler_poincare"])
    def test_config_files_validate(self, name):
        path = builtin_config_path(name)
        assert path.exists()
        assert main(["check-config", str(path)]) == EXIT_OK


class TestList:
    def test_catalog_contents(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chern_simons" in out
        assert "rigid_body" in out
        assert len(SCENARIOS) >= 4

    def test_scenarios_listed_from_table(self, capsys):
        assert main(["list"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for name, scenario in SCENARIOS.items():
            assert (f"  {name}: {scenario.summary}; checks: {', '.join(scenario.checks)}; "
                    f"params: {', '.join(scenario.params)}") in lines
        assert {"base_dim", "fibre_dim"} <= set(SCENARIOS["standard_field"].params)

    def test_cli_imports_no_jsonschema(self):
        code = "import sys, algfield.cli; sys.exit('jsonschema' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "algfield", "run", str(cfg), str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
