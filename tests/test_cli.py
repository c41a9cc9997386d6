"""End-to-end command-line checks: the entry point as a subprocess, and
main() in process where a test counts calls or compares two runs."""

import builtins
import collections
import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasenu import cli, hydrogen, nu

EXPECTED_SOLVE_KEYS = {
    "n", "L", "alphadelta", "kappa", "energy", "energy_closed_form",
    "K", "pi", "tau", "phi", "rho", "y", "residual",
}


SOLVE = ["solve", "--n", "0", "--L", "0", "--alphadelta", "-1"]
WAVEFUNCTION = ["wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-1"]


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "phasenu", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestSolve:
    def test_deep_ground_state_document(self):
        proc = run_cli("solve", "--n", "0", "--L", "0", "--alphadelta", "-3")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert set(doc) == EXPECTED_SOLVE_KEYS
        assert doc["n"] == 0
        assert doc["alphadelta"] == -3.0
        assert doc["kappa"] == pytest.approx(0.25, rel=1e-9)
        assert doc["energy"] == pytest.approx(-0.125, rel=1e-9)
        assert doc["energy_closed_form"] == pytest.approx(-0.125)
        assert doc["K"][0] == pytest.approx(0.5)
        assert doc["pi"][0][0] == pytest.approx(1.0)
        assert doc["pi"][1][0] == pytest.approx(-0.5)
        assert doc["tau"][0][0] == pytest.approx(4.0)
        assert doc["tau"][1][0] == pytest.approx(-1.0)
        assert doc["phi"]["rate"][0] == pytest.approx(-1.0 / 6.0)
        assert doc["phi"]["power"][0] == pytest.approx(1.0 / 3.0)
        assert doc["rho"]["rate"][0] == pytest.approx(-1.0 / 3.0)
        assert doc["rho"]["power"][0] == pytest.approx(1.0 / 3.0)
        assert doc["y"] == [[1.0, 0.0]]
        assert doc["residual"] < 1e-8

    def test_output_is_reproducible(self):
        args = ("solve", "--n", "1", "--L", "1", "--alphadelta", "-3")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_out_file_matches_stdout(self, tmp_path):
        target = tmp_path / "state.json"
        streamed = run_cli("solve", "--n", "0", "--L", "0", "--alphadelta", "-1")
        written = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
            "--out", str(target),
        )
        assert written.returncode == 0
        assert written.stdout == ""
        assert target.read_text() == streamed.stdout

    def test_explicit_point(self):
        proc = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-3",
            "--point=-3,1,-2,1",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kappa"] == pytest.approx(0.25, rel=1e-9)

    def test_unsupported_branch_is_a_solver_error(self):
        proc = run_cli("solve", "--n", "0", "--L", "0", "--alphadelta", "-2")
        assert proc.returncode == 3
        assert "UnsupportedBranch" in proc.stderr

    def test_missing_arguments_are_usage_errors(self):
        proc = run_cli("solve", "--n", "0")
        assert proc.returncode == 2

    def test_state_is_assembled_once(self, monkeypatch, capsys):
        """One solve quantizes once and assembles the state once."""
        counts = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("rodrigues_y", "select_branch", "eigen_residual"):
            count(nu, name)
        count(hydrogen, "build_radial_family")
        assert cli.main(["solve", "--n", "2", "--L", "1", "--alphadelta", "-3"]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] < 1e-8
        assert counts["rodrigues_y"] == 1
        # one branch screen per residual evaluation, the gate and the assembly
        assert counts["select_branch"] == counts["eigen_residual"] + 2
        assert counts["build_radial_family"] == 1

    def test_overflowing_polynomial_is_a_solver_error(self, tmp_path, capsys):
        """m = 1e6 puts zeta at 2e6: n = 40 solves, and at n = 70 a
        coefficient of y is beyond the float range, which is named, not
        printed as inf."""
        config = tmp_path / "units.json"
        config.write_text(
            json.dumps({"unit_system": "custom", "m": 1e6, "hbar": 1, "k": 1, "e2": 1})
        )
        base = ["solve", "--L", "0", "--alphadelta", "-1", "--config", str(config)]
        assert cli.main([*base, "--n", "40"]) == 0
        assert len(json.loads(capsys.readouterr().out)["y"]) == 41
        assert cli.main([*base, "--n", "70"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("RodriguesFailure: ")

    def test_large_L_state_keeps_its_residual(self, capsys):
        """At L = 3000 the body carries A**3000; the residual divides it out,
        so the solved state is printed with its residual, exit 0."""
        assert cli.main(["solve", "--n", "0", "--L", "3000", "--alphadelta", "-1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["residual"] <= 1e-8

    def test_product_one_ulp_off_the_branch(self, capsys):
        base = ["solve", "--n", "1", "--L", "0", "--alphadelta"]
        assert cli.main([*base, "-3"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert cli.main([*base, "-3.0000000000000004"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == exact["kappa"]
        assert cli.main([*base, "-2"]) == 3
        assert "UnsupportedBranch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alphadelta, point, message",
        [
            ("-3", "1,0,0,-2", "point (1.0, 0.0, 0.0, -2.0) violates the commutator constraint"),
            ("-3", "1,0,0,-1", "alphadelta=-3.0 does not match the point product -1.0"),
            ("-3", "2,1,-1,-1", "alphadelta=-3.0 does not match the point product -2.0"),
            ("-1", "0,1,1,0", "alphadelta=-1.0 does not match the point product 0.0"),
        ],
    )
    def test_point_off_the_branch_is_refused(self, capsys, alphadelta, point, message):
        """A --point off the manifold, or whose alpha*delta is not the
        branch of --alphadelta, is bad input: exit 2 and nothing on stdout."""
        argv = ["solve", "--n", "0", "--L", "0", "--alphadelta", alphadelta, f"--point={point}"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestScan:
    def test_grid_table(self):
        proc = run_cli("scan", "--n-max", "1", "--L-max", "1", "--alphadelta", "-3")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "n,L,energy,residual"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
        ]
        energies = [float(r[2]) for r in rows]
        assert energies[0] == pytest.approx(-0.125, rel=1e-9)
        assert energies[1] == pytest.approx(-1.0 / 18.0, rel=1e-9)
        assert all(float(r[3]) < 1e-8 for r in rows)

    def test_round_trip_formatting(self):
        proc = run_cli("scan", "--n-max", "0", "--L-max", "0", "--alphadelta", "-1")
        value = proc.stdout.strip().splitlines()[1].split(",")[2]
        assert float(value) == pytest.approx(-0.5, rel=1e-9)
        assert repr(float(value)) == value

    def test_config_is_read_once(self, monkeypatch, tmp_path, capsys):
        config = tmp_path / "units.json"
        config.write_text(json.dumps({"unit_system": "atomic"}))
        opened = []
        original = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return original(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        args = ["scan", "--n-max", "2", "--L-max", "2", "--alphadelta", "-3"]
        assert cli.main([*args, "--config", str(config)]) == 0
        with_config = capsys.readouterr().out
        assert opened == [str(config)]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == with_config

    def test_negative_bounds_are_usage_errors(self):
        for option in ("--n-max", "--L-max"):
            args = {"--n-max": "1", "--L-max": "1", option: "-1"}
            proc = run_cli(
                "scan", "--n-max", args["--n-max"], "--L-max", args["--L-max"],
                "--alphadelta", "-3",
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert f"argument {option}: must be non-negative" in proc.stderr


class TestManifold:
    def test_repeated_complement_subtraction(self):
        proc = run_cli("manifold", "--apply", "3:2")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc == {"g": [1, 1, -1, 1]}

    def test_transformed_point_reported(self):
        proc = run_cli("manifold", "--apply", "3:1", "--point=-3,1,-2,1")
        doc = json.loads(proc.stdout)
        assert doc["g"] == [1, 1, 0, 1]
        assert doc["point"] == [-3.0, 1.0, -2.0, 1.0]
        assert doc["transformed"] == [-3.0, 1.0, 0.0, 1.0]
        assert doc["on_manifold"] is False

    def test_custom_start_matrix(self):
        proc = run_cli("manifold", "--g0", "1,1,0,1", "--apply", "4:1")
        assert json.loads(proc.stdout)["g"] == [1, 1, 0, 0]

    def test_negative_count_inverts(self):
        proc = run_cli("manifold", "--apply", "3:-1")
        assert json.loads(proc.stdout)["g"] == [1, 1, 2, 1]

    def test_mixed_groups_exit_3(self):
        proc = run_cli("manifold", "--apply", "1:1,3:1")
        assert proc.returncode == 3
        assert "ForbiddenCombination" in proc.stderr

    def test_overflowing_image_is_a_solver_error(self, capsys):
        # the image of a finite point read inf in the JSON, with exit 0
        argv = ["manifold", "--apply", "3:-100000", "--point=1,1,1e305,1"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "OverflowError: transformed point is not finite: (1.0, 1.0, inf, 1.0)\n"
        )

    def test_entry_beyond_float_range_names_its_slot(self, capsys):
        # the bare "int too large to convert to float" named neither
        argv = ["manifold", "--apply", "3:-1" + "0" * 400, "--point=1,1,1,1"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "OverflowError: transform entry gamma does not fit a float; "
            "cannot apply it to the point (1.0, 1.0, 1.0, 1.0)\n"
        )

    def test_entry_beyond_the_int_print_limit_names_its_slot(self, capsys):
        # exited 2 with the interpreter's bare "Exceeds the limit (4300 digits)"
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert cli.main(["manifold", "--apply", "3:-" + "9" * 4299]) == 0
            assert json.loads(capsys.readouterr().out)["g"] == [1, 1, 10**4299, 1]
            assert cli.main(["manifold", "--apply", "3:-" + "9" * 4300]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "OverflowError: transform entry gamma has more than 4300 digits, "
                "the limit of sys.get_int_max_str_digits() for printing an int\n"
            )
            sys.set_int_max_str_digits(0)  # no limit
            assert cli.main(["manifold", "--apply", "3:-" + "9" * 4300]) == 0
            assert capsys.readouterr().out.count("0" * 4300) == 1
        finally:
            sys.set_int_max_str_digits(old)

    def test_bad_kind_is_a_usage_error(self):
        proc = run_cli("manifold", "--apply", "5:1")
        assert proc.returncode == 2


class TestWavefunction:
    def test_real_slice_table(self):
        proc = run_cli(
            "wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3",
            "--grid", "0.5,2.0,4",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("# prefactor_rate=(-2+0j)")
        assert lines[1] == "r,A_re,A_im,psi_re,psi_im"
        rows = [line.split(",") for line in lines[2:]]
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
        assert float(rows[0][1]) == pytest.approx(-1.5)
        assert float(rows[0][3]) == pytest.approx(0.7349210911414618)
        assert float(rows[0][4]) == pytest.approx(1.2729206694109692)

    def test_imaginary_momentum_shifts_the_argument(self):
        proc = run_cli(
            "wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3",
            "--grid", "0.5,1.0,2", "--pbar", "1j",
        )
        assert proc.returncode == 0
        first = proc.stdout.strip().splitlines()[2].split(",")
        assert float(first[1]) == pytest.approx(-2.5)
        assert float(first[2]) == pytest.approx(0.0, abs=1e-15)

    def test_grid_from_the_origin(self):
        """The deep-branch body carries A**(1/3), which vanishes at A = 0."""
        proc = run_cli(
            "wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3",
            "--grid", "0,1,3",
        )
        assert proc.returncode == 0
        first = proc.stdout.strip().splitlines()[2].split(",")
        assert [float(x) for x in first] == [0.0, 0.0, 0.0, 0.0, 0.0]

    def test_bad_grid_is_a_usage_error(self):
        proc = run_cli(
            "wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3",
            "--grid", "2.0,0.5,4",
        )
        assert proc.returncode == 2


    def test_overflowing_value_is_a_solver_error(self, tmp_path, capsys):
        """Muonic units on the deep branch: A = -3r, so exp(rate*A) grows
        with r and leaves the float range before r = 40; exit 3."""
        config = tmp_path / "units.json"
        config.write_text(
            json.dumps({"unit_system": "custom", "m": 186, "hbar": 1, "k": 1, "e2": 1})
        )
        argv = ["wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3",
                "--grid", "0.05,40,60", "--config", str(config)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("OverflowError: ")

    def test_non_finite_value_is_a_solver_error(self, tmp_path, capsys):
        """A psi that is not finite exits 3 naming r; it printed with exit 0."""
        muonic = tmp_path / "units.json"
        muonic.write_text(
            json.dumps({"unit_system": "custom", "m": 186, "hbar": 1, "k": 1, "e2": 1})
        )
        cases = (
            # P(A) overflows where e^{aA} underflows: psi read nan,nan
            (["--n", "40", "--L", "0", "--alphadelta", "-1", "--grid", "0,1e12,3"],
             "r = 500000000000.0: (nan+nanj)"),
            # psi overflows one grid step before exp(rate*A) does: it read inf,inf
            (["--n", "0", "--L", "0", "--alphadelta", "-3", "--grid", "7.5,7.63,3",
              "--config", str(muonic)], "r = 7.63: (inf+infj)"),
        )
        for argv, where in cases:
            assert cli.main(["wavefunction", *argv]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"OverflowError: psi is not finite at {where}\n"

    @pytest.mark.parametrize(
        "option, message",
        [
            ([*WAVEFUNCTION, "--grid", "0,inf,3"], "--grid bounds must be finite"),
            ([*WAVEFUNCTION, "--grid", "0,1,3", "--pbar", "nan"],
             "--pbar must be finite, got 'nan'"),
            # --point=nan printed NaN into manifold's JSON; solve blamed the commutator
            (["manifold", "--apply", "3:1", "--point=nan,1,1,1"],
             "--point must be finite, got 'nan,1,1,1'"),
            ([*SOLVE, "--point=inf,1,1,1"], "--point must be finite, got 'inf,1,1,1'"),
            ([*SOLVE, "--point=-3,1,-2,-inf"], "--point must be finite"),
        ],
    )
    def test_non_finite_input_is_a_usage_error(self, option, message, capsys):
        """``option`` is the whole command line, ending with the bad option."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(option)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestVerify:
    def test_green_suite_exits_zero(self):
        proc = run_cli("verify", "--suite", "opspace")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert re.fullmatch(r"(\d+)/\1 checks passed", lines[-1])

    def test_full_suite_reports_honestly(self):
        """Exit code mirrors the table: nonzero iff a FAIL row is printed.

        The grid-oracle comparison at L=0 used to be a known red row on
        the default grid (a wall at r = 1e-3 instead of the origin); with
        the mended oracle the full suite exits 0.  This test pins the exit-code contract, not the
        count, and still names the only rows that were ever allowed to fail.
        """
        proc = run_cli("verify", "--suite", "all", timeout=300)
        lines = proc.stdout.strip().splitlines()
        fail_rows = [line for line in lines[:-1] if line.startswith("FAIL")]
        assert proc.returncode == (0 if not fail_rows else 1)
        for row in fail_rows:
            assert "finite-difference" in row

    def test_unknown_suite_is_a_usage_error(self):
        proc = run_cli("verify", "--suite", "everything")
        assert proc.returncode == 2


class TestConfigFile:
    def test_custom_units_scale_the_spectrum(self, tmp_path):
        config = tmp_path / "units.json"
        config.write_text(
            json.dumps({"unit_system": "custom", "m": 1, "hbar": 1, "k": 1, "e2": 2})
        )
        proc = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
            "--config", str(config),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["energy"] == pytest.approx(-2.0, rel=1e-9)

    def test_atomic_config_matches_defaults(self, tmp_path):
        config = tmp_path / "units.json"
        config.write_text(json.dumps({"unit_system": "atomic"}))
        with_config = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-3",
            "--config", str(config),
        )
        without = run_cli("solve", "--n", "0", "--L", "0", "--alphadelta", "-3")
        assert with_config.stdout == without.stdout

    def test_incomplete_custom_units_rejected(self, tmp_path):
        config = tmp_path / "units.json"
        config.write_text(json.dumps({"unit_system": "custom", "m": 1}))
        proc = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
            "--config", str(config),
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_nonpositive_constant_rejected(self, tmp_path):
        config = tmp_path / "units.json"
        config.write_text(
            json.dumps({"unit_system": "custom", "m": -1, "hbar": 1, "k": 1, "e2": 1})
        )
        proc = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
            "--config", str(config),
        )
        assert proc.returncode == 2

    def test_config_that_is_not_an_object_rejected(self, tmp_path):
        config = tmp_path / "units.json"
        for document in ([1, 2], "atomic"):
            config.write_text(json.dumps(document))
            proc = run_cli(
                "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
                "--config", str(config),
            )
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:")

    def test_non_numeric_constant_rejected(self, tmp_path):
        config = tmp_path / "units.json"
        for m in (None, [1]):
            config.write_text(
                json.dumps({"unit_system": "custom", "m": m, "hbar": 1, "k": 1, "e2": 1})
            )
            proc = run_cli(
                "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
                "--config", str(config),
            )
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:")

    def test_non_finite_bool_or_string_constant_rejected(self, tmp_path):
        """Only finite JSON numbers pass: Infinity used to reach the solver
        (exit 3), and true or "2" solved as 1 and 2."""
        config = tmp_path / "units.json"
        cases = (
            ("hbar", "Infinity"), ("hbar", "NaN"), ("k", "-Infinity"),
            ("m", "true"), ("hbar", '"2"'), ("e2", "1" + "0" * 400),
        )
        for key, text in cases:
            constants = {"m": "1", "hbar": "1", "k": "1", "e2": "1", key: text}
            body = ", ".join(f'"{k}": {v}' for k, v in constants.items())
            config.write_text('{"unit_system": "custom", ' + body + "}")
            proc = run_cli(
                "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
                "--config", str(config),
            )
            assert proc.returncode == 2, text
            assert proc.stderr.startswith("error:"), text
            assert f"'{key}'" in proc.stderr, text

    @pytest.mark.parametrize(
        "constants",
        [
            {"hbar": 1e-200}, {"m": 1e300, "hbar": 1e-10}, {"hbar": 1e200},
            {"hbar": 1e-150}, {"hbar": 2e-77},
        ],
    )
    def test_zeta_out_of_range_rejected(self, constants, tmp_path, capsys):
        """Constants that pass one by one but give a zeta that is not finite
        and positive, or whose 10 zeta^2 overflows, exit 2 naming zeta:
        hbar = 1e-200 ended in a ZeroDivisionError, m = 1e300 with hbar =
        1e-10, hbar = 1e-150 and hbar = 2e-77 named no constant, and hbar =
        1e200 exited 3 with an unnamed OverflowError."""
        config = tmp_path / "units.json"
        units = {"unit_system": "custom", "m": 1, "hbar": 1, "k": 1, "e2": 1, **constants}
        config.write_text(json.dumps(units))
        for argv in (
            ["solve", "--n", "0", "--L", "0", "--alphadelta", "-1"],
            ["scan", "--n-max", "1", "--L-max", "1", "--alphadelta", "-1"],
            ["wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-1", "--grid", "0.01,1,3"],
        ):
            assert cli.main([*argv, "--config", str(config)]) == 2, argv
            assert capsys.readouterr().err.startswith("error: zeta"), argv

    def test_deeply_nested_config_rejected(self, tmp_path):
        """JSON nested past the recursion limit is a config error, not a
        RecursionError traceback."""
        config = tmp_path / "units.json"
        config.write_text("[" * 200_000 + "]" * 200_000)
        proc = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
            "--config", str(config),
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: config {config} nests too deeply\n"

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        """The decoder's message alone named neither the file nor the config."""
        config = tmp_path / "units.json"
        for content, reason in (
            (b'{"unit_system": ', "Expecting value: line 1 column 17 (char 16)"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ):
            config.write_bytes(content)
            assert cli.main([*SOLVE, "--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: config {config} is not valid JSON: {reason}\n"

    def test_missing_config_file(self):
        proc = run_cli(
            "solve", "--n", "0", "--L", "0", "--alphadelta", "-1",
            "--config", "/nonexistent/units.json",
        )
        assert proc.returncode == 2


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_parser_is_built_once_without_changing_output(self):
        """Interleaved in-process calls give the same stdout, stderr and
        exit codes with the one cached parser as with a parser built
        afresh for every call."""
        calls = (
            ["solve", "--n", "0"],
            ["--help"],
            ["solve", "--n", "2", "--L", "1", "--alphadelta", "-3"],
            ["scan", "--n-max", "1", "--L-max", "1", "--alphadelta", "-1"],
            ["manifold", "--apply", "3:2"],
            ["verify", "--suite", "hta"],
            ["frobnicate"],
            ["scan", "--n-max", "-1", "--L-max", "0", "--alphadelta", "-3"],
            ["manifold", "--apply", "3:2"],
            ["solve", "--help"],
            ["solve", "--n", "2", "--L", "1", "--alphadelta", "-3"],
        )

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as stop:
                    code = stop.code
            return code, out.getvalue(), err.getvalue()

        cli.build_parser.cache_clear()
        cached = [run(argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        assert cached == fresh
        assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
)


class TestJsonWriter:
    @given(JSON_VALUES)
    @example(-0.0)
    @example(5e-324)
    @example(1e300)
    @example(2**200)
    @example([[], {}, [[]], {"a": {}}])
    @example({"": [{"b": []}], "\u00e9\n": {}})
    @example(10**400)
    @example((1.5, [2.0, ()]))
    def test_writes_what_json_writes(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    def test_refuses_an_int_json_refuses(self):
        value = [10**4300]  # 4,301 digits, past the int-to-str limit
        with pytest.raises(ValueError) as ours:
            cli._json(value)
        with pytest.raises(ValueError) as theirs:
            json.dumps(value, indent=2)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("argv", [
        SOLVE,
        ["manifold", "--apply", "3:1", "--point=-3,1,-2,1"],
    ])
    def test_commands_never_ask_json_to_indent(self, argv, monkeypatch, capsys):
        """json runs its pure-Python encoder whenever ``indent`` is set."""
        dumps, calls = json.dumps, []

        def spy(value, **kwargs):
            calls.append(kwargs)
            return dumps(value, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", spy)
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)
        assert calls and all("indent" not in kwargs for kwargs in calls)
