"""Command-line pipelines: artifacts, determinism, round-trips, exit codes."""

import importlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from flexwave import cli
from flexwave.cli import build_parser, load_branch, main, merge_config
from flexwave.core import IceModel, NumericalFailure
from flexwave.solver import RESIDUAL_TOL, bifurcation_speed, residual
from flexwave.stability import InstabilityKind, InstabilityReport, SpectralCluster
from flexwave.theory import c_nls, dispersion_derivatives, find_collisions, nls_coefficients
from flexwave.core import PhysicalParams


def read_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestResonanceCommand:
    def test_known_values(self, tmp_path):
        assert main(["resonance", "--K-list", "7 10", "--h", "0.05", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "resonance.csv")
        assert header == ["K", "h", "D"]
        by_k = {int(r[0]): float(r[2]) for r in rows}
        assert by_k[7] == pytest.approx(1.65e-5, rel=0.01)
        assert by_k[10] == pytest.approx(8.11e-6, rel=0.01)

    def test_shallow_water_limit(self, tmp_path):
        # D -> h^2 (K^2 - 1) / (3 (K^4 - 1)) as h -> 0, with an O(h^2)
        # relative correction; K tanh(h) - tanh(K h) must not cancel
        h = 1e-9
        assert main(["resonance", "--K-list", "2 3 7 10", "--h", repr(h), "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "resonance.csv")
        for k, _, d in rows:
            k = int(k)
            assert float(d) == pytest.approx(h**2 * (k**2 - 1) / (3 * (k**4 - 1)), rel=1e-10, abs=0)

    def test_tiny_depth_does_not_underflow(self, tmp_path):
        # K tanh(h) - tanh(K h) ~ h^3 underflows at h = 1e-120, while
        # D ~ h^2 / 15 is still a normal float
        h, k = 1e-120, 2
        assert main(["resonance", "--K-list", str(k), "--h", repr(h), "--out", str(tmp_path)]) == 0
        (row,) = read_rows(tmp_path / "resonance.csv")[1]
        assert float(row[2]) == pytest.approx(h**2 * (k**2 - 1) / (3 * (k**4 - 1)), rel=1e-10, abs=0)


class TestNlsCommand:
    def test_sign_change_and_pole_flag(self, tmp_path):
        rc = main(["nls", "--D-grid", "0 0.12 49", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "nls.csv")
        d = np.array([float(r[header.index("D")]) for r in rows])
        wpp = np.array([float(r[header.index("omega_pp")]) for r in rows])
        flips = np.flatnonzero(wpp[:-1] * wpp[1:] < 0)
        assert len(flips) == 1
        crossing = 0.5 * (d[flips[0]] + d[flips[0] + 1])
        assert crossing == pytest.approx(0.0328, abs=2e-3)

    def test_pole_row_is_flagged(self, tmp_path):
        rc = main(["nls", "--D", str(1.0 / 14.0), "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "nls.csv")
        assert rows[0][header.index("wilton_pole")] == "1"

    def test_default_rigidities_come_from_the_defaults_table(self, tmp_path):
        assert main(["nls", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "nls.csv")
        assert [float(r[header.index("D")]) for r in rows] == [0.0, 0.12, 25.0]
        meta = json.loads((tmp_path / "nls.meta.json").read_text())
        assert meta["config"]["D"] == cli.SETTINGS["D"].defaults["nls"] == "0 0.12 25"


class TestDispersionCommand:
    def test_derivatives_match_deep_water_formulas(self, tmp_path):
        rc = main(["dispersion", "--k-list", "1 2", "--D", "0.1", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "dispersion.csv")
        co = nls_coefficients(IceModel.LINEAR_BIHARMONIC, PhysicalParams(D=0.1))
        k1 = {h: float(v) for h, v in zip(header, rows[0])}
        assert k1["omega"] == pytest.approx(co.omega, rel=1e-12)
        assert k1["omega_p"] == pytest.approx(co.omega_p, rel=1e-12)
        assert k1["omega_pp"] == pytest.approx(co.omega_pp, rel=1e-12)

    def test_finite_depth_derivatives_match_central_differences(self, tmp_path):
        rc = main(["dispersion", "--k-list", "0.5 1 2", "--D", "0 0.1", "--h", "1", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "dispersion.csv")
        assert len(rows) == 6
        for row in rows:
            r = {name: float(v) for name, v in zip(header, row)}
            params, k, dk = PhysicalParams(h=1.0, D=r["D"]), r["k"], 1e-4
            w = [dispersion_derivatives(k + j * dk, params)[0] for j in (-1, 0, 1)]
            assert r["omega"] == w[1]
            assert r["omega_p"] == pytest.approx((w[2] - w[0]) / (2 * dk), rel=1e-7)
            assert r["omega_pp"] == pytest.approx((w[2] - 2 * w[1] + w[0]) / dk**2, rel=1e-5)


class TestCollisionsCommand:
    def test_rows_are_the_collisions_at_the_bifurcation_speed(self, tmp_path):
        assert main(["collisions", "--D", "0.01", "--m-range", "4", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "collisions.meta.json").read_text())
        params = PhysicalParams(D=0.01)
        assert meta["c"] == bifurcation_speed(params)
        header, rows = read_rows(tmp_path / "collisions.csv")
        assert header == ["mu", "m1", "s1", "m2", "s2", "re_lambda", "im_lambda"]
        expected = [(r.mu, r.m1, r.s1, r.m2, r.s2, r.lam.real, r.lam.imag)
                    for r in find_collisions(params, meta["c"], m_range=4)]
        assert rows and meta["count"] == len(rows)
        assert [tuple(map(float, row)) for row in rows] == expected


class TestBranchCommand:
    ARGS = [
        "branch", "--D", "0.01", "--model", "linear", "--a1-max", "0.004",
        "--modes", "12", "--a1-step", "0.001",
    ]

    def test_deterministic_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        assert (out1 / "branch_linear.csv").read_bytes() == (out2 / "branch_linear.csv").read_bytes()

    def test_round_trip_residuals(self, tmp_path):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        branch = load_branch(tmp_path / "branch_linear.csv")
        for wave in branch.points:
            z = np.concatenate(([wave.c], wave.profile.coeffs[1:]))
            res = residual(z, wave.a1, branch.params, branch.model)
            assert np.max(np.abs(res)) < RESIDUAL_TOL * 10

    def test_sidecar_records_the_three_solver_settings(self, tmp_path):
        argv = ["branch", "--D", "0.01", "--model", "linear", "--a1-max", "0.004",
                "--modes", "12", "--max-modes", "64", "--a1-step", "0.002", "--out", str(tmp_path)]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "branch_linear.meta.json").read_text())
        assert meta["solver"] == {"n_modes": 12, "max_modes": 64, "amplitude_step": 0.002}

    def test_nls_overlay_file(self, tmp_path):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "branch_nls_linear.csv")
        params = PhysicalParams(D=0.01)
        co = nls_coefficients(IceModel.LINEAR_BIHARMONIC, params)
        for a1_s, c_s in rows:
            assert float(c_s) == pytest.approx(c_nls(float(a1_s) / 2, co), rel=1e-12)

    def test_resume_extends_branch(self, tmp_path):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        prior = load_branch(tmp_path / "branch_linear.csv")
        out2 = tmp_path / "resumed"
        rc = main(
            ["branch", "--model", "linear", "--a1-max", "0.006", "--modes", "12",
             "--a1-step", "0.001", "--resume", str(tmp_path / "branch_linear.csv"),
             "--out", str(out2)]
        )
        assert rc == 0
        resumed = load_branch(out2 / "branch_linear.csv")
        assert len(resumed.points) > len(prior.points)
        assert resumed.points[-1].a1 == pytest.approx(0.006)
        assert resumed.points[0].a1 == prior.points[0].a1

    def test_resume_keeps_the_recorded_mode_counts(self, tmp_path):
        # at a1 = 1e-10 the point's coefficients past a1 print as 0: the mode
        # count is the sidecar's, not what trailing zeros leave
        prior = tmp_path / "prior" / "branch_linear.csv"
        argv = ["branch", "--model", "linear", "--D", "0.01", "--modes", "40", "--a1-max", "1e-10"]
        assert main(argv + ["--out", str(prior.parent)]) == 0
        assert [w.profile.n_modes for w in load_branch(prior).points] == [40]
        out = tmp_path / "resumed"
        assert main(["branch", "--model", "linear", "--a1-max", "0.003", "--resume", str(prior), "--out", str(out)]) == 0
        meta = json.loads((out / "branch_linear.meta.json").read_text())
        assert [p["n_modes"] for p in meta["points"]] == [40, 40, 40, 40]

    def test_a1_max_within_the_stop_tolerance_gives_one_point(self, tmp_path):
        # continuation stops within 1e-15 of a1-max, but not before its first point
        assert main(["branch", "--a1-max", "1e-16", "--modes", "8", "--out", str(tmp_path)]) == 0
        for model in ("linear", "nonlinear"):
            assert [w.a1 for w in load_branch(tmp_path / f"branch_{model}.csv").points] == [1e-16]

    @staticmethod
    def edited_prior(tmp_path, edit):
        """A linear branch up to a1 = 0.001 whose sidecar `edit` changed."""
        prior = tmp_path / "prior" / "branch_linear.csv"
        assert main(["branch", "--model", "linear", "--a1-max", "0.001", "--out", str(prior.parent)]) == 0
        meta_path = prior.with_name("branch_linear.meta.json")
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        return prior

    @staticmethod
    def resume_to_002(prior, out):
        return main(["branch", "--model", "linear", "--a1-max", "0.002", "--resume", str(prior), "--out", str(out)])

    def test_resume_from_a_branch_with_no_point_is_a_config_error(self, tmp_path, capsys):
        # what a branch that stalls before its first point leaves behind
        prior = self.edited_prior(tmp_path, lambda meta: meta.update(points=[]))
        prior.write_text("c\n")
        out = tmp_path / "resumed"
        assert self.resume_to_002(prior, out) == 2
        assert "no point" in capsys.readouterr().err
        assert not out.exists()

    # sidecars recorded a gravity g among their params until g was fixed at 1
    def test_resume_accepts_a_sidecar_with_unit_gravity(self, tmp_path):
        prior = self.edited_prior(tmp_path, lambda meta: meta["params"].update(g=1.0))
        out = tmp_path / "resumed"
        assert self.resume_to_002(prior, out) == 0
        assert "g" not in json.loads((out / "branch_linear.meta.json").read_text())["params"]

    def test_resume_from_a_sidecar_with_other_gravity_is_a_config_error(self, tmp_path, capsys):
        prior = self.edited_prior(tmp_path, lambda meta: meta["params"].update(g=2.5))
        out = tmp_path / "resumed"
        assert self.resume_to_002(prior, out) == 2
        assert "rigidity D/g" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_rejects_a_model_the_prior_branch_lacks(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        out2 = tmp_path / "resumed"
        rc = main(
            ["branch", "--model", "nonlinear", "--a1-max", "0.006", "--modes", "12",
             "--resume", str(tmp_path / "branch_linear.csv"), "--out", str(out2)]
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out2.exists()  # rejected before any computation

    @pytest.mark.parametrize("a1_max", ["0.002", "0.003"], ids=["below", "at"])
    def test_resume_must_go_past_the_prior_branch(self, tmp_path, capsys, a1_max):
        prior = tmp_path / "prior"
        assert main(["branch", "--model", "linear", "--a1-max", "0.003", "--out", str(prior)]) == 0
        out2 = tmp_path / "resumed"
        rc = main(["branch", "--model", "linear", "--a1-max", a1_max,
                   "--resume", str(prior / "branch_linear.csv"), "--out", str(out2)])
        assert rc == 2
        assert "does not exceed" in capsys.readouterr().err
        assert not out2.exists()  # rejected before any output

    def test_resume_under_both_models_writes_one_branch(self, tmp_path, monkeypatch):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        saved = []
        real_save = cli.save_branch

        def recording_save(out, branch, *rest):
            saved.append(branch.model)
            real_save(out, branch, *rest)

        monkeypatch.setattr(cli, "save_branch", recording_save)
        out2 = tmp_path / "resumed"
        rc = main(
            ["branch", "--a1-max", "0.006", "--modes", "12", "--a1-step", "0.001",
             "--resume", str(tmp_path / "branch_linear.csv"), "--out", str(out2)]
        )
        assert rc == 0
        assert saved == [IceModel.LINEAR_BIHARMONIC]
        names = sorted(p.name for p in out2.iterdir())
        assert names == ["branch_linear.csv", "branch_linear.meta.json", "branch_nls_linear.csv"]

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_sidecar_holds_each_points_newton_record(self, tmp_path, model):
        argv = ["branch", "--D", "0.01", "--model", model, "--a1-max", "0.004",
                "--modes", "12", "--a1-step", "0.001", "--out", str(tmp_path)]
        assert main(argv) == 0
        points = json.loads((tmp_path / f"branch_{model}.meta.json").read_text())["points"]
        branch = load_branch(tmp_path / f"branch_{model}.csv")
        for wave, point in zip(branch.points, points, strict=True):
            z = np.concatenate(([wave.c], wave.profile.coeffs[1:]))
            res = residual(z, wave.a1, branch.params, branch.model)
            assert point["residual_inf"] == float(np.max(np.abs(res)))
            assert point["newton_steps"] in (0, 1, 2)
            assert (wave.residual_inf, wave.newton_steps) == (point["residual_inf"], point["newton_steps"])

    def test_thick_ice_reaches_large_amplitude(self, tmp_path):
        assert main(["branch", "--D", "25", "--a1-max", "0.3", "--model", "both", "--out", str(tmp_path)]) == 0
        for model in ("linear", "nonlinear"):
            points = json.loads((tmp_path / f"branch_{model}.meta.json").read_text())["points"]
            assert len(points) == 300
            assert all(pt["residual_inf"] <= 1e-10 for pt in points)

    def test_metadata_sidecar(self, tmp_path):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "branch_linear.meta.json").read_text())
        assert meta["model"] == "linear"
        assert meta["direction"] == "right"
        assert all(pt["residual_inf"] < 1e-9 for pt in meta["points"])


class TestStabilityCommand:
    def test_spectrum_and_report(self, tmp_path):
        rc = main(
            ["stability", "--D", "0.05", "--model", "linear", "--a1-max", "0.002",
             "--modes", "12", "--a1-step", "0.001", "--mu-count", "31", "--out", str(tmp_path)]
        )
        assert rc == 0
        header, rows = read_rows(tmp_path / "spectrum_linear_0.csv")
        assert header == ["mu", "re_lambda", "im_lambda"]
        assert len(rows) > 31  # many eigenvalues per exponent
        report = json.loads((tmp_path / "stability_linear.meta.json").read_text())
        assert report["reports"][0]["max_growth"] < 1e-6  # defocusing regime
        assert 1.0 <= report["reports"][0]["max_cond_c"] < 1e2
        assert report["reports"][0]["cond_c_mu"] == -0.5  # the grid's largest |mu|

    def test_report_holds_the_fields_of_the_instability_report(self, tmp_path):
        # D = 0.01 focuses, so the report has a modulational cluster
        rc = main(["stability", "--D", "0.01", "--model", "linear", "--a1-max", "0.02", "--modes", "12",
                   "--mu-count", "41", "--out", str(tmp_path)])
        assert rc == 0
        (report,) = json.loads((tmp_path / "stability_linear.meta.json").read_text())["reports"]
        sweep_fields = {"a1", "failed_mu", "max_cond_c", "cond_c_mu"}
        assert set(report) == sweep_fields | {f.name for f in fields(InstabilityReport)}
        (cluster,) = report["clusters"]
        assert set(cluster) == {f.name for f in fields(SpectralCluster)}
        assert cluster["kind"] == "modulational"
        assert len(cluster["centroid"]) == len(cluster["mu_interval"]) == 2

    def test_a1_max_within_the_stop_tolerance_is_swept(self, tmp_path):
        rc = main(["stability", "--a1-max", "1e-16", "--modes", "8", "--mu-count", "5", "--out", str(tmp_path)])
        assert rc == 0
        for model in ("linear", "nonlinear"):
            (report,) = json.loads((tmp_path / f"stability_{model}.meta.json").read_text())["reports"]
            assert report["a1"] == 1e-16

    def test_wave_picked_by_two_targets_is_swept_once(self, tmp_path, monkeypatch):
        # both targets are nearest the a1 = 0.001 point of the branch
        calls = []
        real_sweep = cli.sweep_floquet

        def counting_sweep(*args, **kwargs):
            calls.append(args[0].a1)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "sweep_floquet", counting_sweep)
        rc = main(["stability", "--model", "linear", "--modes", "8", "--a1-max", "0.002",
                   "--a1-list", "0.0011 0.0012", "--mu-count", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert calls == [pytest.approx(0.001)]
        first, second = (tmp_path / f"spectrum_linear_{idx}.csv" for idx in (0, 1))
        assert first.read_bytes() == second.read_bytes()
        reports = json.loads((tmp_path / "stability_linear.meta.json").read_text())["reports"]
        assert len(reports) == 2
        assert reports[0] == reports[1]
        assert reports[0]["a1"] == calls[0]

    def test_band_across_half_is_one_cluster(self, tmp_path):
        # at D = 0.05, h = 1 each model has two high-frequency bands, and both
        # cross mu = +-1/2
        rc = main(["stability", "--D", "0.05", "--h", "1", "--a1-max", "0.02", "--modes", "16",
                   "--mu-count", "100", "--out", str(tmp_path)])
        assert rc == 0
        for model in ("linear", "nonlinear"):
            (report,) = json.loads((tmp_path / f"stability_{model}.meta.json").read_text())["reports"]
            assert [c["kind"] for c in report["clusters"]] == ["high_frequency"] * 2
            assert all(c["mu_interval"][1] > 0.5 for c in report["clusters"])
            assert report["argmax_mu"] > 0

    def test_deep_water_sidecars_are_strict_json(self, tmp_path):
        common = ["--a1-max", "0.004", "--modes", "12", "--a1-step", "0.002", "--mu-count", "5"]
        assert main(["stability", "--D", "0.05", *common, "--out", str(tmp_path / "stability")]) == 0
        assert main(["compare", "--D", "0.01", *common, "--out", str(tmp_path / "compare")]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        sidecars = sorted(tmp_path.glob("*/*.meta.json"))
        assert len(sidecars) == 8  # a branch and a report sidecar per model and command
        for sidecar in sidecars:
            meta = json.loads(sidecar.read_text(), parse_constant=reject)
            if "params" in meta:
                assert meta["params"]["h"] == "inf"


class TestCompareCommand:
    def test_overlay_and_scatter_datasets(self, tmp_path):
        rc = main(
            ["compare", "--D", "0.01", "--model", "linear", "--a1-max", "0.004",
             "--modes", "12", "--a1-step", "0.002", "--mu-count", "41", "--out", str(tmp_path)]
        )
        assert rc == 0
        ffh_header, ffh = read_rows(tmp_path / "compare_ffh_linear_0.csv")
        nls_header, nls = read_rows(tmp_path / "compare_nls_linear_0.csv")
        assert ffh and nls
        assert ffh_header == nls_header == ["mu", "re_lambda", "im_lambda"]
        max_re = max(float(r[1]) for r in ffh)
        max_curve = max(float(r[1]) for r in nls)
        assert max_re == pytest.approx(max_curve, rel=0.35)
        meta = json.loads((tmp_path / "compare_linear.meta.json").read_text())
        (report,) = meta["reports"]
        assert report["max_growth"] == max_re
        assert report["failed_mu"] == []
        assert 1.0 <= report["max_cond_c"] < 1e2

    def test_overlay_pairs_with_the_ffh_eigenvalue(self, tmp_path):
        # the overlay's Im column, read at the FFH argmax mu, is the Im part
        # of the most unstable FFH eigenvalue, sign included
        rc = main(
            ["compare", "--D", "0.01", "--a1-max", "0.02", "--modes", "12", "--mu-count", "41",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        for model in ("linear", "nonlinear"):
            ffh = np.loadtxt(tmp_path / f"compare_ffh_{model}_0.csv", delimiter=",", skiprows=1)
            nls = np.loadtxt(tmp_path / f"compare_nls_{model}_0.csv", delimiter=",", skiprows=1)
            mu, _, im = ffh[np.argmax(ffh[:, 1])]
            predicted = np.interp(mu, nls[:, 0], nls[:, 2])
            assert abs(mu) > 0 and np.sign(predicted) == np.sign(im)
            assert predicted == pytest.approx(im, rel=0.01)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 1.0\nh = inf\nD = 0.05\nK-list = 2 3\n# comment\n")
        out = tmp_path / "out"
        rc = main(["resonance", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out / "resonance.csv")
        assert [int(r[0]) for r in rows] == [2, 3]
        assert float(rows[0][2]) == pytest.approx(1.0 / 14.0, rel=1e-12)

    def test_config_file_unit_gravity_is_dropped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 1\n")
        assert main(["resonance", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "g" not in json.loads((tmp_path / "out" / "resonance.meta.json").read_text())["config"]

    @pytest.mark.parametrize("value", ["2.5", "0", "abc", "-1", "inf", "nan"])
    def test_config_file_gravity_other_than_one_is_a_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"g = {value}\n")
        out = tmp_path / "out"
        assert main(["resonance", "--config", str(cfg), "--out", str(out)]) == 2
        assert "rigidity D/g" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, file_text, flag_text, default",
        [
            ("dispersion", "k-list", "2 3", "4", "1"),
            ("resonance", "K-list", "2 3", "4", "7 10"),
            ("collisions", "m-range", "5", "6", 10),
            ("compare", "mu-count", "5", "7", 401),
        ],
    )
    def test_flag_over_file_over_default(self, tmp_path, command, flag, file_text, flag_text, default):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {file_text}\n")
        key = flag.replace("-", "_")

        def merged(*argv):
            return merge_config(build_parser().parse_args([command, *argv]))[key]

        assert merged() == default
        assert merged("--config", str(cfg)) == type(default)(file_text)
        assert merged("--config", str(cfg), f"--{flag}", flag_text) == type(default)(flag_text)

    @pytest.mark.parametrize(
        "command, line",
        [("compare", "mu-count = many"), ("branch", "modes = abc"), ("stability", "mu-count = 1"),
         ("stability", "floquet-modes = 0"), ("stability", "model = cubist")],
    )
    def test_bad_config_file_value_is_a_config_error(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), "--model", "linear", "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # rejected before any branch or spectrum

    @pytest.mark.parametrize(
        "argv",
        [
            ["collisions", "--h", "abc"],
            ["branch", "--D", "x"],
            ["resonance", "--K-list", "a"],
            ["dispersion", "--k-list", "1 two"],
            ["stability", "--a1-list", "0.01 z"],
            ["nls", "--D-grid", "0 0.12"],
            ["stability", "--mu-count", "1"],
            ["compare", "--mu-count", "0"],
            ["stability", "--floquet-modes", "-3"],
            ["compare", "--floquet-modes", "0"],
            ["dispersion", "--k-list", "0.5 0"],
            ["branch", "--a1-max", "-0.01"],
            ["stability", "--a1-max", "0"],
            ["compare", "--modes", "0"],
            ["branch", "--a1-step", "0"],
            ["stability", "--max-modes", "4", "--modes", "8"],
            ["collisions", "--D", "0.01 0.02"],
            ["dispersion", "--D", "0.1 -1"],
            ["nls", "--D", "0 -1"],
            ["nls", "--D-grid", "-1 0 3"],
            ["branch", "--model", "linear", "--D", "nan", "--modes", "8", "--a1-max", "0.002"],
            ["branch", "--model", "linear", "--D", "inf", "--modes", "8", "--a1-max", "0.002"],
            ["branch", "--model", "linear", "--a1-step", "nan", "--modes", "8", "--a1-max", "0.002"],
            ["stability", "--a1-max", "inf"],
            ["stability", "--a1-list", "0.01 nan"],
            ["dispersion", "--D", "nan"],
            ["dispersion", "--k-list", "1 inf"],
            ["nls", "--D", "nan"],
            ["nls", "--D-grid", "0 inf 3"],
            ["collisions", "--c", "nan"],
            ["collisions", "--c", "inf"],
            ["stability", "--a1-list", "0.005 -1"],
            ["compare", "--a1-list", "0"],
            ["stability", "--model", "linear", "--a1-max", "0.004", "--a1-list", "0.5 0.001"],
            ["resonance", "--K-list", "1"],
            ["resonance", "--K-list", "7 0"],
            ["resonance", "--h", "1", "--K-list", "1" + "0" * 80],
            ["resonance", "--K-list", "7 " + "1" + "0" * 80],
            ["collisions", "--m-range", "-1"],
            ["stability", "--model", "cubist"],
        ],
        ids=["h", "D", "K-list", "k-list", "a1-list", "D-grid", "mu-count", "mu-count-compare",
             "floquet-modes", "floquet-modes-compare", "k-zero", "a1-max-negative", "a1-max-zero", "modes",
             "a1-step", "max-modes", "D-count", "D-list-dispersion", "D-list-nls", "D-grid-negative",
             "D-nan", "D-inf", "a1-step-nan", "a1-max-inf", "a1-list-nan", "D-nan-dispersion",
             "k-list-inf", "D-nan-nls", "D-grid-inf", "c-nan", "c-inf",
             "a1-list-negative", "a1-list-zero-compare", "a1-list-above-a1-max",
             "K-list-one", "K-list-zero", "K-list-huge-finite-depth", "K-list-huge", "m-range-negative", "model"],
    )
    def test_bad_setting_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # rejected before any computation

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        assert main(["resonance", "--out", str(blocker / below)]) == 2
        assert "config error" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_out_that_cannot_be_written_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # os.access, not chmod: root may write to a read-only directory
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(["resonance", "--out", str(tmp_path)]) == 2
        assert "is not writable" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_setting_in_config_file_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("h = deep\n")
        out = tmp_path / "out"
        assert main(["collisions", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stability", "compare"])
    def test_resume_in_config_file_is_a_config_error(self, tmp_path, capsys, command):
        # only branch continues a prior branch; elsewhere `resume` must not
        # silently replace the command's own branch
        prior = tmp_path / "prior"
        assert main(["branch", "--model", "linear", "--a1-max", "0.002", "--out", str(prior)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"resume = {prior / 'branch_linear.csv'}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--model", "linear", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    #: Tiny values for the flags of each command beyond --h, --out and --resume.
    ALL_FLAGS = {
        "dispersion": ["--D", "0.1", "--k-list", "1 2"],
        "nls": ["--D", "0.1", "--D-grid", "0 0.1 2"],
        "resonance": ["--K-list", "7"],
        "collisions": ["--D", "0.01", "--c", "1.0", "--m-range", "2"],
        "branch": ["--D", "0.01", "--model", "linear", "--modes", "8", "--max-modes", "8",
                   "--a1-max", "0.002", "--a1-step", "0.001"],
        "stability": ["--D", "0.01", "--model", "linear", "--modes", "8", "--max-modes", "8",
                      "--a1-max", "0.002", "--a1-step", "0.002", "--mu-count", "3", "--a1-list", "0.002",
                      "--floquet-modes", "4"],
    }
    ALL_FLAGS["compare"] = ALL_FLAGS["stability"]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("shared_config", [False, True])
    def test_sidecar_records_exactly_the_command_flags(self, tmp_path, command, shared_config):
        argv = [command, *self.ALL_FLAGS[command], "--h", "inf", "--out", str(tmp_path / "out")]
        if shared_config:
            # one file for several commands: keys that are no flag of this
            # command are dropped, not recorded
            cfg = tmp_path / "shared.cfg"
            cfg.write_text("model = linear\nmu_count = 3\nk_list = 1\nK-list = 7\nm_range = 2\nconfig = x.cfg\n")
            argv += ["--config", str(cfg)]
        if command == "branch":
            prior = tmp_path / "prior"
            assert main(["branch", "--model", "linear", "--a1-max", "0.001", "--out", str(prior)]) == 0
            argv += ["--resume", str(prior / "branch_linear.csv")]
        assert main(argv) == 0
        flags = set(vars(build_parser().parse_args([command]))) - {"command", "config"}
        sidecars = list((tmp_path / "out").glob("*.meta.json"))
        assert sidecars
        for sidecar in sidecars:
            assert set(json.loads(sidecar.read_text())["config"]) == flags, sidecar.name

    @pytest.mark.parametrize(
        "argv", [["dispersion", "--modes", "12"], ["collisions", "--a1-max", "0.3"], ["resonance", "--D", "1"],
                 ["branch", "--mu-count", "5"], ["compare", "--overlay-sign", "c_minus_vg"],
                 ["nls", "--g", "-1"],
                 ["branch", "--model", "linear", "--g", "inf", "--modes", "8", "--a1-max", "0.002"]]
    )
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_malformed_config_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert main(["resonance", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["resonance", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_name(self, tmp_path):
        rc = main(["branch", "--model", "cubist", "--a1-max", "0.001", "--out", str(tmp_path)])
        assert rc == 2

    def test_invalid_params_rejected(self, tmp_path):
        rc = main(["branch", "--h", "-1", "--model", "linear", "--a1-max", "0.001", "--out", str(tmp_path)])
        assert rc == 2


def test_write_csv_round_trips_floats_and_prints_integers(tmp_path):
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["x", "k", "flag"], [(0.1, 7, True), (math.nan, -0.0, np.float64(1 / 3))])
    assert path.read_text() == "x,k,flag\n0.10000000000000001,7,1\nnan,-0,0.33333333333333331\n"
    cli.write_csv(path, ["mu", "re_lambda", "im_lambda"], np.empty((0, 3)))
    assert path.read_text() == "mu,re_lambda,im_lambda\n"


def test_sidecar_writes_complex_and_enum_values_and_rejects_other_types(tmp_path):
    path = tmp_path / "t.meta.json"
    cli.write_sidecar(path, {}, {"z": 0.5 - 2j, "kind": InstabilityKind.HIGH_FREQUENCY})
    meta = json.loads(path.read_text())
    assert meta["z"] == [0.5, -2.0]
    assert meta["kind"] == "high_frequency"
    # a type JSON lacks is an error, not its str
    with pytest.raises(TypeError, match="int64"):
        cli.write_sidecar(path, {}, {"n": np.int64(1)})


class TestFailurePaths:
    def test_compare_checks_overlay_before_any_work(self, tmp_path):
        # the NLS overlay exists only in infinite depth: compare must fail
        # before it computes a branch or a sweep
        rc = main(
            ["compare", "--h", "1", "--D", "0.01", "--model", "both", "--a1-max", "0.004",
             "--modes", "12", "--a1-step", "0.002", "--mu-count", "41", "--out", str(tmp_path)]
        )
        assert rc == 3
        record = json.loads((tmp_path / "error.json").read_text())
        assert record["error"] == "FiniteDepthUnsupported"
        assert not list(tmp_path.glob("compare_ffh_*"))
        assert not list(tmp_path.glob("branch_*"))

    def test_compare_out_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        # the bad --out is found before the overlay's numerical failure
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        assert main(["compare", "--h", "1", "--out", str(blocker)]) == 2
        assert "config error" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_branch_that_stalls_at_the_wilton_pole_writes_no_nls_speeds(self, tmp_path):
        # deep water at D = 1/14: 1 - 14 D lies inside the excluded strip, so
        # the saved branch has no NLS speeds, and the stall is the error
        rc = main(["branch", "--D", "0.07142857142857142", "--a1-max", "0.002", "--out", str(tmp_path)])
        assert rc == 3
        record = json.loads((tmp_path / "error.json").read_text())
        assert record == {"error": "StepUnderflow", "message": "continuation stalled at a1 = 7.8125e-06"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "branch_linear.csv", "branch_linear.meta.json", "error.json"]

    @pytest.mark.parametrize("command, extra", [("branch", []), ("stability", ["--mu-count", "5"])],
                             ids=["branch", "stability"])
    def test_numerical_failure_persists_partials_and_error_record(self, tmp_path, command, extra):
        # shallow water cannot reach a1 = 0.1; the run must fail with exit 3
        # but keep the partial branch and write a machine-readable record
        rc = main(
            [command, "--D", "0", "--h", "0.05", "--model", "linear", "--a1-max", "0.1",
             "--modes", "8", "--max-modes", "8", "--a1-step", "0.005", *extra, "--out", str(tmp_path)]
        )
        assert rc == 3
        record = json.loads((tmp_path / "error.json").read_text())
        assert record["error"] == "StepUnderflow"
        branch = load_branch(tmp_path / "branch_linear.csv")
        assert len(branch.points) > 0

    @pytest.mark.parametrize("module", ["core", "solver", "stability", "theory"])
    def test_every_typed_error_of_the_layers_is_a_numerical_failure(self, module):
        mod = importlib.import_module(f"flexwave.{module}")
        errors = [v for v in vars(mod).values()
                  if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == mod.__name__]
        assert errors and all(issubclass(e, NumericalFailure) for e in errors)

    def test_any_numerical_failure_exits_3_and_is_named(self, tmp_path, monkeypatch, capsys):
        # a typed error the CLI has never heard of needs no change to it
        class UnresolvedSpectrum(NumericalFailure):
            pass

        def fail(*args):
            raise UnresolvedSpectrum("no certificate")

        monkeypatch.setattr(cli, "resonant_rigidity", fail)
        assert main(["resonance", "--out", str(tmp_path)]) == 3
        assert "UnresolvedSpectrum" in capsys.readouterr().err
        record = json.loads((tmp_path / "error.json").read_text())
        assert record == {"error": "UnresolvedSpectrum", "message": "no certificate"}

    def test_resumed_branch_that_stalls_keeps_the_prior_points(self, tmp_path):
        fold = ["branch", "--model", "linear", "--modes", "8", "--max-modes", "8", "--a1-step", "0.005"]
        assert main(fold + ["--D", "0", "--h", "0.05", "--a1-max", "0.02", "--out", str(tmp_path)]) == 0
        prior = load_branch(tmp_path / "branch_linear.csv")
        out2 = tmp_path / "resumed"
        rc = main(fold + ["--a1-max", "0.1", "--resume", str(tmp_path / "branch_linear.csv"), "--out", str(out2)])
        assert rc == 3
        resumed = load_branch(out2 / "branch_linear.csv")
        assert len(resumed.points) > len(prior.points)
        assert [w.a1 for w in resumed.points[: len(prior.points)]] == [w.a1 for w in prior.points]
