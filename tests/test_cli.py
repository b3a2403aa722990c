import json

import numpy as np
import pytest

from specpot import cli
from specpot.cli import main
from specpot.config import get_float, get_floats, parse_config_text, validate_schema
from specpot.errors import ConfigError, SolverError

CIRCLE_DOMAIN = """\
[domain]
kind=circle
length=6.283185307179586
nodes=128
bc=closed
"""

TORUS_DOMAIN = CIRCLE_DOMAIN.replace("kind=circle", "kind=torus").replace("nodes=128", "nodes=8")


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def load_report(outdir):
    return json.loads((outdir / "report.json").read_text())


class TestConfigParser:
    def test_sections_and_values(self):
        cfg = parse_config_text("[a]\nx=1\ny = two words \n\n# comment\n[b]\nz=3\n")
        assert cfg.section("a") == {"x": "1", "y": "two words"}
        assert cfg.section("b") == {"z": "3"}
        assert cfg.line_of("b", "z") == 7

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("[a]\nx=1\nx=2\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("x=1\n")

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[a]\njust words\n")

    def test_unknown_key_named(self):
        cfg = parse_config_text("[domain]\nkind=circle\nboundry=closed\n")
        with pytest.raises(ConfigError, match="boundry"):
            validate_schema(cfg, {"domain": ({"kind", "length", "nodes", "bc"}, set())})

    def test_non_finite_numbers(self):
        with pytest.raises(ConfigError, match="value"):
            get_float({"value": "nan"}, "value")
        with pytest.raises(ConfigError, match="coeffs"):
            get_floats({"coeffs": "0.3,-inf"}, "coeffs")

    def test_unknown_section(self):
        cfg = parse_config_text("[paint]\ncolor=red\n")
        with pytest.raises(ConfigError, match="paint"):
            validate_schema(cfg, {"domain": (set(), set())})


class TestSpectrumCommand:
    def test_zero_potential_table(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n\n[task]\nmodes=5\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        report = load_report(out)
        lam = report["eigenvalues"]
        # FD closed-form check: 0, ~1, ~1, ~4, ~4
        assert abs(lam[0]) <= 1e-9
        for got, want in zip(lam[1:], [1.0, 1.0, 4.0, 4.0]):
            assert abs(got - want) <= 1e-3 * want
        # the eigenvalues are report.json's alone
        assert not (out / "eigenvalues.json").exists()
        assert (out / "eigenvectors.csv").exists()

    def test_constant_shift(self, tmp_path):
        cfg0 = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n", "a.cfg")
        cfgc = write_cfg(
            tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=constant\nvalue=0.75\n", "b.cfg"
        )
        out0, outc = tmp_path / "o0", tmp_path / "oc"
        assert main(["spectrum", "--config", cfg0, "--out", str(out0)]) == 0
        assert main(["spectrum", "--config", cfgc, "--out", str(outc)]) == 0
        lam0 = np.array(load_report(out0)["eigenvalues"])
        lamc = np.array(load_report(outc)["eigenvalues"])
        assert np.max(np.abs(lamc - lam0 - 0.75)) <= 1e-9

    def test_bad_key_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[domain]\nkind=circle\nlength=6.28\nnodes=128\nboundry=closed\n"
                        "\n[potential]\npreset=zero\n")
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "boundry" in err

    def test_formats_is_an_unknown_key(self, tmp_path, capsys):
        # every command writes all its artifacts; there is no format switch
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[output]\nformats=json\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "formats" in capsys.readouterr().err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + (CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n").encode())
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "utf16.cfg" in err and "line 1" in err

    def test_missing_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n")
        assert main(["spectrum", "--config", cfg]) == 2

    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys):
        # an existing file, and a path below it: a config error, not a traceback
        cfg = write_cfg(tmp_path, "[task]\nsuite=gap-critical\n\n[output]\nseed=7\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        for out in (afile, afile / "sub"):
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot make output directory")
            assert str(out) in err
        assert afile.read_text() == ""

    def test_nan_value_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=constant\nvalue=nan\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_oversized_grid_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN.replace("nodes=128", "nodes=4097")
                        + "\n[potential]\npreset=zero\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        cfg = write_cfg(tmp_path, TORUS_DOMAIN.replace("nodes=8", "nodes=129")
                        + "\n[potential]\npreset=zero\n", "torus.cfg")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "t")]) == 2

    def test_extreme_length_exit_code(self, tmp_path, capsys):
        # h^2 overflows at 1e300 and underflows to 0 at 1e-300; h^4 does at
        # 1e80 and 1e-150, where the 8 x 8 torus once reported lambda_1 = -3.27e285
        interval = CIRCLE_DOMAIN.replace("kind=circle", "kind=interval").replace(
            "bc=closed", "bc=dirichlet")
        for name, domain in (("circle", CIRCLE_DOMAIN), ("interval", interval),
                             ("torus", TORUS_DOMAIN)):
            for length in ("1e300", "1e-300", "1e80", "1e-150"):
                body = domain.replace("length=6.283185307179586", f"length={length}")
                cfg = write_cfg(tmp_path, body + "\n[potential]\npreset=zero\n",
                                f"{name}{length}.cfg")
                assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
                assert f"length {float(length)!r} over" in capsys.readouterr().err

    def test_torus_modes_above_half_exit_code(self, tmp_path, capsys):
        # the 8 x 8 torus solves at most 64 // 2 = 32 pairs, with no dense fallback
        for modes, code in ((32, 0), (33, 2)):
            cfg = write_cfg(tmp_path, TORUS_DOMAIN + f"\n[potential]\npreset=zero\n"
                            f"\n[task]\nmodes={modes}\n", f"m{modes}.cfg")
            assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / f"m{modes}")]) == code
        assert "at most n // 2 = 32" in capsys.readouterr().err

    def test_solver_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def failing_solve(grid, q, k):
            raise SolverError("eigenpair residual inf exceeds 1e-08")

        monkeypatch.setattr(cli, "solve_spectrum", failing_solve)
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "solver error: eigenpair residual inf" in capsys.readouterr().err


class TestDerivativeCommand:
    def test_degenerate_pair(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=2\ndirection=fourier\ncoeffs=0,1\n")
        out = tmp_path / "out"
        assert main(["derivative", "--config", cfg, "--out", str(out)]) == 0
        payload = load_report(out)["payload"]
        assert payload["left"] == pytest.approx(0.5, abs=1e-6)
        assert payload["right"] == pytest.approx(-0.5, abs=1e-6)
        assert payload["critical"] is True
        assert payload["branch_rule"] == "extremal"
        # lambda_2 = 1 - |t|/2 along u: both difference quotients read the
        # mean of the one-sided slopes, 0
        assert payload["index"] == 2
        assert payload["fd_central"] == pytest.approx(0.0, abs=1e-6)
        assert payload["fd_richardson"] == pytest.approx(0.0, abs=1e-6)

    def test_interior_rank_flagged_as_extension(self, tmp_path):
        # square torus: the cluster above the ground state has multiplicity 4,
        # so index 3 sits strictly inside it
        body = ("[domain]\nkind=torus\nlength=6.283185307179586\nnodes=12\nbc=closed\n"
                "\n[potential]\npreset=zero\n"
                "\n[task]\nindex=3\ndirection=noise\n\n[output]\nseed=2\n")
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        assert main(["derivative", "--config", cfg, "--out", str(out)]) == 0
        payload = load_report(out)["payload"]
        assert payload["multiplicity"] == 4
        assert payload["branch_rule"].startswith("sorted-extension")

    def test_non_positive_fd_step_rejected(self, tmp_path, capsys):
        for step in ("0", "-1e-4"):
            cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                            f"\n[task]\nindex=2\ndirection=fourier\ncoeffs=0,1\nfd_step={step}\n")
            assert main(["derivative", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "fd_step must be positive" in capsys.readouterr().err


class TestCriticalityCommand:
    def test_feasible_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=constant\nvalue=0.2\n"
                        "\n[task]\nindex=2\nprobes=20\n\n[output]\nseed=5\n")
        out = tmp_path / "out"
        assert main(["criticality", "--config", cfg, "--out", str(out)]) == 0
        payload = load_report(out)["payload"]
        assert payload["verdict"] == "critical"
        assert payload["probes_critical"] == 20
        assert (out / "certificate.json").exists()
        assert (out / "frame.csv").exists()
        assert (out / "recovered_potential.csv").exists()

    def test_infeasible_artifacts(self, tmp_path):
        body = CIRCLE_DOMAIN.replace("kind=circle", "kind=interval").replace(
            "length=6.283185307179586", "length=3.141592653589793"
        ).replace("bc=closed", "bc=dirichlet")
        cfg = write_cfg(tmp_path, body + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=1\nprobes=10\n\n[output]\nseed=5\n")
        out = tmp_path / "out"
        assert main(["criticality", "--config", cfg, "--out", str(out)]) == 0
        payload = load_report(out)["payload"]
        assert payload["verdict"] == "not critical"
        assert (out / "separating_direction.csv").exists()
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["status"] == "infeasible"
        assert cert["separating_direction_csv"] == "separating_direction.csv"

    def test_small_domain_frame(self, tmp_path):
        # The ground pair's residual sits at the rounding floor 8 eps ||H|| here,
        # above 1e-8 (1 + |lambda|). The Gram witness has trace = volume (1e-12
        # on the torus), so frame directions are cut relative to the largest
        # Gram eigenvalue, not below an absolute 1e-12 that would drop them all.
        for name, domain, length, n in (("circle", CIRCLE_DOMAIN, "1e-2", 128),
                                        ("torus", TORUS_DOMAIN, "1e-6", 64)):
            body = domain.replace("length=6.283185307179586", f"length={length}")
            cfg = write_cfg(tmp_path, body + "\n[potential]\npreset=zero\n"
                            "\n[task]\nindex=2\nprobes=10\n\n[output]\nseed=5\n", f"{name}.cfg")
            out = tmp_path / name
            assert main(["criticality", "--config", cfg, "--out", str(out)]) == 0
            assert load_report(out)["payload"]["verdict"] == "critical"
            assert len((out / "frame.csv").read_text().splitlines()) == 1 + n

    def test_seed_required(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=2\n")
        assert main(["criticality", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_torus_index_above_half_exit_code(self, tmp_path, capsys):
        # index + 6 pairs are solved: 27 + 6 = 33 exceeds 64 // 2 on the 8 x 8 torus
        cfg = write_cfg(tmp_path, TORUS_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=27\nprobes=4\n\n[output]\nseed=5\n")
        assert main(["criticality", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "asked for 33" in capsys.readouterr().err

    def test_non_positive_probes_rejected(self, tmp_path, capsys):
        for command, task in (("criticality", "index=2"), ("gap", "index=1\njindex=2")):
            # every probe vector is built before the first is used: a ceiling
            # keeps 10**9 probes from asking for terabytes
            for probes, message in ((0, "probes must be a positive integer"),
                                    (-3, "probes must be a positive integer"),
                                    (1001, "probes must be at most 1000, got 1001"),
                                    (10**9, "probes must be at most 1000")):
                cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                                f"\n[task]\n{task}\nprobes={probes}\n\n[output]\nseed=5\n")
                assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
                assert message in capsys.readouterr().err


    def test_negative_seed_rejected(self, tmp_path, capsys):
        tasks = {
            "verify": "[task]\nsuite=thm12\n",
            "criticality": CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n\n[task]\nindex=2\n",
            "gap": CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n\n[task]\nindex=1\njindex=2\n",
            "derivative": CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                          "\n[task]\nindex=2\ndirection=noise\n",
        }
        for command, body in tasks.items():
            cfg = write_cfg(tmp_path, body + "\n[output]\nseed=-3\n", f"{command}.cfg")
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
            assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err


CERTIFICATE_KEYS = {"status", "grams_row_major", "residual", "margin", "degenerate",
                    "separating_direction_csv"}


def test_one_certificate_format(tmp_path):
    # certificate.json and gap_certificate.json share one key set; a feasible
    # criticality certificate holds 1 Gram block, a feasible gap 2
    dirichlet = CIRCLE_DOMAIN.replace("kind=circle", "kind=interval").replace(
        "length=6.283185307179586", "length=3.141592653589793").replace("bc=closed", "bc=dirichlet")
    runs = {
        "critical": ("criticality", CIRCLE_DOMAIN, "preset=constant\nvalue=0.2", "index=2",
                     "feasible", 1),
        "not-critical": ("criticality", dirichlet, "preset=zero", "index=1", "infeasible", None),
        "gap": ("gap", CIRCLE_DOMAIN, "preset=zero", "index=1\njindex=2", "feasible", 2),
        "degenerate": ("gap", CIRCLE_DOMAIN, "preset=zero", "index=2\njindex=3", "feasible", 2),
    }
    for name, (command, domain, potential, task, status, blocks) in runs.items():
        cfg = write_cfg(tmp_path, f"{domain}\n[potential]\n{potential}\n\n[task]\n{task}\n"
                        "probes=4\n\n[output]\nseed=5\n", f"{name}.cfg")
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        artifact = "certificate.json" if command == "criticality" else "gap_certificate.json"
        cert = json.loads((out / artifact).read_text())
        assert set(cert) == CERTIFICATE_KEYS, name
        assert cert["status"] == status
        assert cert["degenerate"] is (name == "degenerate")
        if blocks is None:
            assert cert["grams_row_major"] is None
            assert cert["separating_direction_csv"] == "separating_direction.csv"
        else:
            assert len(cert["grams_row_major"]) == blocks
            assert cert["separating_direction_csv"] is None
        if command == "criticality":
            assert "certificate_iterations" not in load_report(out)["payload"]
    degenerate = json.loads((tmp_path / "degenerate" / "gap_certificate.json").read_text())
    assert degenerate["grams_row_major"] == [[0.5, 0.0, 0.0, 0.5]] * 2


class TestGapCommand:
    def test_degenerate_gap(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=2\njindex=3\n\n[output]\nseed=4\n")
        out = tmp_path / "out"
        assert main(["gap", "--config", cfg, "--out", str(out)]) == 0
        payload = load_report(out)["payload"]
        assert payload["degenerate"] is True
        assert payload["certificate_status"] == "feasible"

    def test_first_gap_with_table(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=1\njindex=2\nprobes=4\n\n[output]\nseed=4\n")
        out = tmp_path / "out"
        assert main(["gap", "--config", cfg, "--out", str(out)]) == 0
        payload = load_report(out)["payload"]
        assert payload["certificate_status"] == "feasible"
        rows = (out / "gap_derivatives.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert (out / "gap_certificate.json").exists()

    def test_bad_indices(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=3\njindex=2\n\n[output]\nseed=4\n")
        assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("jindex", [3, 4])
    def test_unproven_cluster_is_a_solver_error(self, tmp_path, capsys, jindex):
        # lambda_3 lies within ~2e-14 of the edge of lambda_2's cluster
        # tolerance, well within the accuracy the solve measured, so no count
        # proves that cluster complete
        domain = CIRCLE_DOMAIN.replace("nodes=128", "nodes=256")
        cfg = write_cfg(tmp_path, domain + "\n[potential]\npreset=fourier\n"
                        "coeffs=0,1.9999488e-6\n"
                        f"\n[task]\nindex=2\njindex={jindex}\n\n[output]\nseed=4\n")
        assert main(["gap", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "solver error: cluster at 2 is not proven complete by an eigenvalue count\n"


class TestOptimizeCommand:
    def test_dirichlet_ascent(self, tmp_path):
        body = ("[domain]\nkind=interval\nlength=3.141592653589793\nnodes=96\nbc=dirichlet\n"
                "\n[potential]\npreset=zero\n"
                "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\nmean=0.0\nbound=8.0\n"
                "iters=25\nschedule=constant\nstep=2.0\ncert_every=0\n")
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        payload = load_report(out)["payload"]
        assert payload["objective"] > 1.5
        assert (out / "iterates.csv").exists()
        assert (out / "final_potential.csv").exists()
        header = (out / "iterates.csv").read_text().splitlines()[0]
        assert header == "iter,objective,step,mult_i,residual"

    def test_polyak_stops_at_target(self, tmp_path):
        # lambda_1 <= mean(q) on a Neumann interval: the Polyak run stops on
        # its known target, and its report is the same bytes on every run
        body = ("[domain]\nkind=interval\nlength=3.141592653589793\nnodes=64\nbc=neumann\n"
                "\n[potential]\npreset=fourier\ncoeffs=0,0.4,-0.3\n"
                "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\nmean=0.0\nbound=2.0\n"
                "iters=300\nschedule=polyak\npolyak_target=0\ncert_every=0\n")
        cfg = write_cfg(tmp_path, body)
        texts = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
            payload = load_report(out)["payload"]
            assert payload["stop_reason"] == "target"
            assert payload["iterations"] < 300 and abs(payload["objective"]) <= 1e-12
            lines = (out / "report.json").read_text().splitlines()
            texts.append("\n".join(l for l in lines if '"timestamp"' not in l))
        assert texts[0] == texts[1]

    def test_gap_target_reads_jindex(self, tmp_path, capsys):
        # minimizing lambda_2 - lambda_1 from q = 0 starts at the zero
        # potential's gap, and a jindex beyond the grid is a config error
        from specpot.domain import BoundaryCondition, Circle, Potential, build_grid
        from specpot.spectral import solve_spectrum

        task = ("\n[potential]\npreset=zero\n"
                "\n[task]\ntarget=gap\nindex=1\njindex={}\nsense=minimize\nmean=0.0\n"
                "bound=1.0\niters=4\n")
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + task.format(2))
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        grid = build_grid(Circle(2 * np.pi), 128, BoundaryCondition.CLOSED)
        spec = solve_spectrum(grid, Potential.zero(grid), 3)
        start = float((out / "iterates.csv").read_text().splitlines()[1].split(",")[1])
        assert start == pytest.approx(spec.eigenvalue(2) - spec.eigenvalue(1), rel=1e-10)
        payload = load_report(out)["payload"]
        assert payload["stop_reason"] == "max_iters"
        assert payload["objective"] < start
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + task.format(129), "far.cfg")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "far")]) == 2
        assert "jindex must be in 1..128, got 129" in capsys.readouterr().err

    def test_nan_constraint_rejected(self, tmp_path):
        for key in ("mean", "bound"):
            task = {"mean": "0.0", "bound": "8.0", key: "nan"}
            body = (CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                    "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\n"
                    f"mean={task['mean']}\nbound={task['bound']}\niters=2\n")
            cfg = write_cfg(tmp_path, body, f"{key}.cfg")
            assert main(["optimize", "--config", cfg, "--out", str(tmp_path / key)]) == 2

    def test_bound_ceiling(self, tmp_path, capsys):
        # the projection keeps the mean to ~3e-17 * B: at B = 1e9 that already
        # failed the 1e-8 start check with a false "q0 violates the constraint set"
        for bound, code in (("1e9", 2), ("1e6", 0)):
            body = (CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                    "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\nmean=0.0\n"
                    f"bound={bound}\niters=2\n")
            cfg = write_cfg(tmp_path, body, f"b{bound}.cfg")
            assert main(["optimize", "--config", cfg, "--out", str(tmp_path / bound)]) == code
        assert "bound B must be at most 1e+06, got B=1000000000.0" in capsys.readouterr().err

    def test_invalid_run_inputs_rejected(self, tmp_path, capsys):
        cases = [("iters=-5", "iters must be at least 1"),
                 ("iters=0", "iters must be at least 1"),
                 ("step=0", "step must be positive"),
                 ("step=-0.5", "step must be positive"),
                 ("cert_every=-3", "cert_every must be >= 0")]
        for k, (line, message) in enumerate(cases):
            body = (CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                    "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\nmean=0.0\n"
                    f"bound=1.0\nschedule=constant\n{line}\n")
            cfg = write_cfg(tmp_path, body, f"case{k}.cfg")
            assert main(["optimize", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 2
            assert message in capsys.readouterr().err


class TestVerifyCommand:
    def test_gap_suite_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[task]\nsuite=gap-critical\n\n[output]\nseed=7\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = load_report(out)
        assert report["payload"]["passed"] is True
        assert all(v["passed"] for v in report["verdicts"])
        assert "PASS" in capsys.readouterr().out

    def test_unknown_suite(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[task]\nsuite=thm99\n\n[output]\nseed=7\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "thm99" in capsys.readouterr().err

    def test_domain_section_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[task]\nsuite=gap-critical\n\n[output]\nseed=7\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestFilePreset:
    def test_potential_round_trip(self, tmp_path):
        # write a final potential via optimize, feed it back as a file preset
        body = CIRCLE_DOMAIN + ("\n[potential]\npreset=fourier\ncoeffs=0.3,0.1\n"
                                "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\n"
                                "mean=0.0\nbound=2.0\niters=3\ncert_every=0\n")
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "opt"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        qpath = out / "final_potential.csv"
        body2 = CIRCLE_DOMAIN + (f"\n[potential]\npreset=file\npath={qpath}\n"
                                 "\n[task]\nmodes=3\n")
        cfg2 = write_cfg(tmp_path, body2, "reread.cfg")
        out2 = tmp_path / "spec"
        assert main(["spectrum", "--config", cfg2, "--out", str(out2)]) == 0

    def test_headerless_file_with_blank_lines(self, tmp_path):
        # a bare column of values, blank lines skipped, reads the same
        # potential as the file with a header
        values = [repr(float(0.3 * np.cos(3 * k * np.pi / 64))) for k in range(128)]
        bare = tmp_path / "bare.csv"
        bare.write_text("\n" + "\n\n".join(values) + "\n\n")
        headed = tmp_path / "headed.csv"
        headed.write_text("q\n" + "\n".join(values) + "\n")
        expected = np.array([float(v) for v in values])
        outputs = []
        for path in (bare, headed):
            assert np.array_equal(cli._read_column_csv(str(path), 128), expected)
            body = CIRCLE_DOMAIN + f"\n[potential]\npreset=file\npath={path}\n\n[task]\nmodes=4\n"
            cfg = write_cfg(tmp_path, body, f"{path.stem}.cfg")
            out = tmp_path / path.stem
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
            outputs.append([load_report(out)["eigenvalues"],
                            (out / "eigenvectors.csv").read_bytes()])
        assert outputs[0] == outputs[1]

    def test_wrong_length_rejected(self, tmp_path):
        qpath = tmp_path / "short.csv"
        qpath.write_text("q\n1.0\n2.0\n")
        body = CIRCLE_DOMAIN + f"\n[potential]\npreset=file\npath={qpath}\n"
        cfg = write_cfg(tmp_path, body)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


    def test_non_numeric_row_rejected(self, tmp_path, capsys):
        qpath = tmp_path / "bad.csv"
        rows = [f"{k * 0.05},0.1" for k in range(128)]
        rows[5] = "0.1,abc"
        qpath.write_text("x,q\n" + "\n".join(rows) + "\n")
        body = CIRCLE_DOMAIN + f"\n[potential]\npreset=file\npath={qpath}\n"
        cfg = write_cfg(tmp_path, body)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 7" in err

    def test_unreadable_rows_rejected(self, tmp_path, capsys):
        # a byte that is not UTF-8, and a field over the csv module's limit
        for k, bad in enumerate((b"0.1,\xff", b"1" * 200_000)):
            qpath = tmp_path / f"bad{k}.csv"
            qpath.write_bytes(b"q\n" + b"0.1\n" * 10 + bad + b"\n" + b"0.1\n" * 117)
            body = CIRCLE_DOMAIN + f"\n[potential]\npreset=file\npath={qpath}\n"
            cfg = write_cfg(tmp_path, body, f"bad{k}.cfg")
            assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and f"bad{k}.csv' line 12" in err

    def test_reading_stops_after_n_rows(self, tmp_path):
        # the count is reported at row n + 1, before the unparsable row n + 2
        qpath = tmp_path / "long.csv"
        qpath.write_text("q\n" + "0.1\n" * 129 + "abc\n")
        with pytest.raises(ConfigError, match="has more than 128 rows, expected 128"):
            cli._read_column_csv(str(qpath), 128)

    def test_non_finite_row_rejected(self, tmp_path, capsys):
        qpath = tmp_path / "inf.csv"
        qpath.write_text("q\n" + "0.1\n" * 100 + "inf\n" + "0.1\n" * 27)
        body = CIRCLE_DOMAIN + f"\n[potential]\npreset=file\npath={qpath}\n"
        cfg = write_cfg(tmp_path, body)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line 102" in capsys.readouterr().err


    def test_missing_node_inputs_named(self, tmp_path, capsys):
        # potentials and derivative directions share one reader for node vectors
        fine = "direction=fourier\ncoeffs=0,1\n"
        cases = [("[potential]\npreset=fourier\n", fine, "fourier potential requires coeffs="),
                 ("[potential]\npreset=file\n", fine, "file potential requires path="),
                 ("[potential]\npreset=zero\n", "direction=fourier\n",
                  "fourier direction requires coeffs="),
                 ("[potential]\npreset=zero\n", "direction=file\n",
                  "file direction requires path=")]
        for k, (potential, direction, message) in enumerate(cases):
            body = CIRCLE_DOMAIN + f"\n{potential}\n[task]\nindex=2\n{direction}"
            cfg = write_cfg(tmp_path, body, f"case{k}.cfg")
            assert main(["derivative", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 2
            assert message in capsys.readouterr().err


class TestReportContracts:
    def test_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        report = load_report(out)
        assert json.loads(json.dumps(report)) == report

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCLE_DOMAIN + "\n[potential]\npreset=zero\n"
                        "\n[task]\nindex=2\nprobes=15\n\n[output]\nseed=9\n")
        texts = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["criticality", "--config", cfg, "--out", str(out)]) == 0
            lines = (out / "report.json").read_text().splitlines()
            texts.append("\n".join(l for l in lines if '"timestamp"' not in l))
        assert texts[0] == texts[1]
