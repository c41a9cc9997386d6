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
#: One run of each command that solves, for checks of the unit system.
ZETA_RUNS = (
    SOLVE,
    ["scan", "--n-max", "1", "--L-max", "1", "--alphadelta", "-1"],
    [*WAVEFUNCTION, "--grid", "0.01,1,3"],
)


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
        assert doc["K"] == pytest.approx(0.5)
        assert doc["pi"] == pytest.approx([1.0, -0.5])
        assert doc["tau"] == pytest.approx([4.0, -1.0])
        assert doc["phi"]["rate"] == pytest.approx(-1.0 / 6.0)
        assert doc["phi"]["power"] == pytest.approx(1.0 / 3.0)
        assert doc["rho"]["rate"] == pytest.approx(-1.0 / 3.0)
        assert doc["rho"]["power"] == pytest.approx(1.0 / 3.0)
        assert doc["y"] == [1.0]
        assert doc["residual"] < 1e-8

    @pytest.mark.parametrize("alphadelta", [-1.0, -3.0])
    def test_document_holds_the_state_as_numbers(self, capsys, alphadelta):
        """Every leaf of the document is a JSON number, and the branch,
        the factors and y read back with the bits of the solved state."""

        def leaves(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                return [leaf for item in value for leaf in leaves(item)]
            return [value]

        params = hydrogen.PhysicalParams(angular_momentum=1)
        family = hydrogen.build_radial_family(params, alphadelta)
        for n in range(9):
            argv = ["solve", "--n", str(n), "--L", "1", "--alphadelta", str(alphadelta)]
            assert cli.main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert {type(leaf) for leaf in leaves(doc)} <= {int, float}
            state = nu.solve_state(family, n)
            b = state.branch
            want = {
                "K": b.K,
                "pi": [b.pi0, b.pi1],
                "tau": [b.tau0, b.tau1],
                "phi": dict(zip(("rate", "power"), b._factor)),
                "rho": dict(zip(("rate", "power"), b._weight)),
                "y": list(nu.rodrigues_y(state.branch, state.n)),
            }
            got = {key: doc[key] for key in want}
            assert repr(got) == repr(want), n

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

    @pytest.mark.parametrize(
        "point, message",
        [
            ("-3,1,-2", "--point needs 4 comma-separated values, got 3"),
            ("-3,1,a,1", "bad --point: could not convert string to float: 'a'"),
        ],
    )
    def test_malformed_point_is_a_usage_error(self, capsys, point, message):
        argv = ["solve", "--n", "0", "--L", "0", "--alphadelta", "-3", f"--point={point}"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --point: {message}\n")

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

        for name in ("rodrigues_y", "select_branch", "solve_kappa"):
            count(nu, name)
        count(hydrogen, "build_radial_family")
        assert cli.main(["solve", "--n", "2", "--L", "1", "--alphadelta", "-3"]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] < 1e-8
        assert counts["rodrigues_y"] == 1
        # kappa is written down, and the gate reads the branch assembled there
        assert counts["solve_kappa"] == 1
        assert counts["select_branch"] == 1
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

    @pytest.mark.parametrize("command", [["solve"], ["wavefunction", "--grid", "0.01,1,3"]])
    def test_huge_level_is_refused_before_y_is_allocated(self, command):
        """No y above n = nu.RODRIGUES_MAX_N is within the float range, so
        at n = 10**12 solve and wavefunction refuse the level, exit 3,
        before a list of 10**12 coefficients is asked for: under a 1 GiB
        address-space cap that list would raise MemoryError."""
        resource = pytest.importorskip("resource")

        def cap_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))

        argv = [*command, "--n", str(10**12), "--L", "0", "--alphadelta", "-1"]
        proc = subprocess.run(
            [sys.executable, "-m", "phasenu", *argv],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        message = "RodriguesFailure: a Rodrigues coefficient overflows at n=1000000000000\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)

    def test_large_L_state_keeps_its_residual(self, capsys):
        """At L = 3000 the body carries A**3000; the residual divides it out,
        so the solved state is printed with its residual, exit 0."""
        assert cli.main(["solve", "--n", "0", "--L", "3000", "--alphadelta", "-1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["residual"] <= 1e-8

    def test_non_finite_residual_is_a_solver_error(self, capsys):
        """At L = 10**154 the terms of the residual overflow.  The document
        printed "residual": Infinity, which is not JSON; the level is named
        instead, exit 3, with nothing on stdout."""
        L = str(10**154)
        assert cli.main(["solve", "--n", "0", "--L", L, "--alphadelta", "-1"]) == 3
        message = f"OverflowError: the residual of level n=0, L={L} is not finite\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("L", [135 * 10**152, 10**4000], ids=["1.35e154", "1e4000"])
    def test_L_beyond_the_float_range_is_a_usage_error(self, capsys, L):
        """L(L+1) beyond the largest float raised a bare OverflowError from
        omega, exit 3; it is refused by name, exit 2, without printing L."""
        assert cli.main(["solve", "--n", "0", "--L", str(L), "--alphadelta", "-1"]) == 2
        message = "error: angular_momentum is too large: L(L+1) is beyond the float range\n"
        assert capsys.readouterr() == ("", message)

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

    def test_table_goes_past_the_last_y_in_float_range(self, capsys):
        """At n = 168 on the -1 branch the leading coefficient of y
        underflows.  scan prints no y, so its table no longer stops there."""
        assert cli.main(["scan", "--n-max", "170", "--L-max", "0", "--alphadelta", "-1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 171
        assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(171)]
        assert all(float(line.split(",")[3]) <= 1e-8 for line in lines[1:])

    def test_table_builds_no_y(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(nu, "rodrigues_y", lambda *args: calls.append(args))
        assert cli.main(["scan", "--n-max", "3", "--L-max", "2", "--alphadelta", "-1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 12
        assert calls == []

    def test_level_above_the_residual_bound_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(hydrogen, "RESIDUAL_MAX_N", 1)
        assert cli.main(["scan", "--n-max", "2", "--L-max", "0", "--alphadelta", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "LevelTooHigh: the residual is computed up to n=1, not n=2\n"
        assert captured.out == ""

    def test_level_above_the_residual_bound_is_refused_before_any_row(self, monkeypatch, capsys):
        """A row costs 0.16 s at n = 10,000, so the rows below the bound
        would take about a day before the level above it is refused."""

        def solve_state(*args):
            raise AssertionError("scan solved a row")

        monkeypatch.setattr(nu, "solve_state", solve_state)
        bound = hydrogen.RESIDUAL_MAX_N
        assert cli.main(["scan", "--n-max", str(bound + 1), "--L-max", "0", "--alphadelta", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"LevelTooHigh: the residual is computed up to n={bound}, not n={bound + 1}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "n_max, L_max, shown",
        [(0, 1_000_000, "7,000,007"), (999, 1000, "507,006,500"), (999, 999, "506,500,000"),
         (100_000, 10**4000, "more than 10**18")],
        ids=["L-max", "both", "hour", "huge"],
    )
    def test_tables_above_the_bound_are_refused_before_any_row(
        self, n_max, L_max, shown, monkeypatch, capsys
    ):
        """A row at level n costs n + 7 units of about 7.3 us.  --L-max had
        no bound, and then a bound on rows alone: 1,000 x 1,000 rows up to
        n = 999 would have run for about an hour.  A table too large for
        str() is still refused by name."""

        def solve_state(*args):
            raise AssertionError("scan solved a row")

        monkeypatch.setattr(nu, "solve_state", solve_state)
        argv = ["scan", "--n-max", str(n_max), "--L-max", str(L_max), "--alphadelta", "-1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: scan asks for {shown} units of work (n + 7 a row at level n), "
            f"above the bound of {cli.SCAN_MAX_UNITS:,}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("alphadelta", ["-1", "-3"])
    def test_ci_table_is_admitted(self, alphadelta, monkeypatch):
        """CI's table to n = 1,000 at L <= 1 sums 1,015,014 units."""

        class Admitted(Exception):
            pass

        def solve_state(*args):
            raise Admitted

        monkeypatch.setattr(nu, "solve_state", solve_state)
        with pytest.raises(Admitted):
            cli.main(["scan", "--n-max", "1000", "--L-max", "1", "--alphadelta", alphadelta])

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

    @pytest.mark.parametrize("steps", ["1000001", "1000000000"])
    def test_steps_above_the_bound_are_a_usage_error(self, steps, monkeypatch, capsys):
        """A row holds about 0.26 kB until the table is written, so
        ``--grid 0,1,1000000000`` would have built about 260 GB of rows."""

        def compute(*args):
            raise AssertionError("wavefunction computed a row")

        monkeypatch.setattr(hydrogen, "assemble_wavefunction", compute)
        monkeypatch.setattr(hydrogen, "eval_wavefunction", compute)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*WAVEFUNCTION, "--grid", f"0,1,{steps}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bound = f"{cli.WAVEFUNCTION_MAX_ROWS:,}"
        assert f"--grid steps {steps} exceed the bound of {bound} rows" in captured.err

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

    def test_overflowing_power_names_r(self, capsys):
        """A = -3r overflows to -inf at r = 1e308, where A**(1/3) raises;
        the bare "complex exponentiation" becomes an error naming r."""
        argv = ["wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3",
                "--grid=0,1e308,2"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "OverflowError: psi overflows at r = 1e+308: complex exponentiation\n"
        )

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
            # r = rmin + j (rmax - rmin) / (steps - 1) read nan, reached inf, or
            # raised OverflowError at the first point
            ([*WAVEFUNCTION, "--grid=-1e308,1e308,3"], "--grid span"),
            ([*WAVEFUNCTION, "--grid", "0,1e308,3"], "--grid span"),
            ([*WAVEFUNCTION, "--grid", "0,1," + "9" * 400], "--grid span"),
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
        ],
    )
    def test_zeta_out_of_range_rejected(self, constants, tmp_path, capsys):
        """Constants that pass one by one but give a zeta that is not finite
        and positive exit 2 naming zeta: hbar = 1e-200 ended in a
        ZeroDivisionError, m = 1e300 with hbar = 1e-10 named no constant,
        and hbar = 1e200 exited 3 with an unnamed OverflowError."""
        config = tmp_path / "units.json"
        units = {"unit_system": "custom", "m": 1, "hbar": 1, "k": 1, "e2": 1, **constants}
        config.write_text(json.dumps(units))
        for argv in ZETA_RUNS:
            assert cli.main([*argv, "--config", str(config)]) == 2, argv
            assert capsys.readouterr().err.startswith("error: zeta"), argv

    @pytest.mark.parametrize("hbar, kappa", [(1e-150, "inf"), (1e150, "0.0")])
    def test_kappa_out_of_range_is_a_solver_error(self, hbar, kappa, tmp_path, capsys):
        """A finite, positive zeta whose ground-state kappa = zeta^2 / 4
        overflows (hbar = 1e-150) or underflows to zero (hbar = 1e150)
        exits 3 naming kappa and n."""
        config = tmp_path / "units.json"
        units = {"unit_system": "custom", "m": 1, "hbar": hbar, "k": 1, "e2": 1}
        config.write_text(json.dumps(units))
        for argv in ZETA_RUNS:
            assert cli.main([*argv, "--config", str(config)]) == 3, argv
            assert capsys.readouterr().err == (
                f"NoSignChange: level n=0 lies at kappa = {kappa}, outside the positive float range\n"
            ), argv

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


#: argv at the edges of argparse's top-level pass: no command, the top
#: level's own options, a command with what its parser leaves over, and
#: options that only a command's parser knows.
EDGE_ARGV = (
    [],
    ["-h"],
    ["--he"],
    ["-hsolve"],
    ["frobnicate"],
    ["sol"],
    ["solve", "-h"],
    ["solve"],
    [*SOLVE, "extra"],
    [*SOLVE, "--bogus", "1"],
    ["solve", "--n", "0", "--L", "0", "--alpha", "-3"],
    ["solve", "--", "--n", "0"],
    ["--", *SOLVE],
    [*SOLVE, "--out"],
    ["solve", "--n", "x", "--L", "0", "--alphadelta", "-1"],
    [*SOLVE, "--n", "1"],
    [*SOLVE, "--alphadelta=-3"],
    ["-x", *SOLVE],
    [*SOLVE, "--", "extra"],
    ["scan", "--n-max", "1", "--L-max", "1", "--alphadelta", "-1", "extra", "more"],
    ["manifold", "--apply", "3:2", "--point"],
    ["manifold", "--apply", "3:2", "-p", "1"],
    ["verify", "--suite", "nope"],
    [*WAVEFUNCTION, "--grid", "0.01,1,3", "x"],
)


def run_in_process(main, argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def parse_then_handle(argv):
    """The top-level parser's pass over all of argv, then the handler."""
    args = cli.build_parser().parse_args(argv)
    return args.handler(args)


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize("argv", EDGE_ARGV, ids=lambda argv: " ".join(argv) or "none")
    def test_main_prints_what_the_top_level_parser_prints(self, argv):
        assert run_in_process(cli.main, argv) == run_in_process(parse_then_handle, argv)

    def test_an_extra_argument_is_refused_by_the_top_level_prog(self):
        code, out, err = run_in_process(cli.main, [*SOLVE, "extra"])
        assert (code, out) == (2, "")
        assert err.endswith("\nphasenu: error: unrecognized arguments: extra\n")

    def test_a_known_command_skips_the_top_level_pass(self, monkeypatch):
        """SOLVE is parsed by solve's parser alone; the top-level parser
        parses only an argv that solve's parser leaves arguments over."""
        parser, seen = cli.build_parser(), []
        parse_known_args = parser.parse_known_args

        def spy(args=None, namespace=None):
            seen.append(list(args))
            return parse_known_args(args, namespace)

        monkeypatch.setattr(parser, "parse_known_args", spy)
        assert run_in_process(cli.main, SOLVE)[0] == 0
        assert seen == []
        assert run_in_process(cli.main, [*SOLVE, "extra"])[0] == 2
        assert seen == [[*SOLVE, "extra"]]

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
            [*SOLVE, "extra"],
            ["solve", "--n", "2", "--L", "1", "--alphadelta", "-3"],
        )
        cli.build_parser.cache_clear()
        cached = [run_in_process(cli.main, argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run_in_process(cli.main, argv))
        assert cached == fresh
        assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0, 0, 2, 2, 0, 0, 2, 0]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children)
    ),
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
    @example({"y": (1.0, -0.0, 5e-324, 1e300)})
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
        # solve writes only numbers and str keys, which reach no json.dumps;
        # the on_manifold bool does, with no indent, and shows the spy works
        assert calls == ([] if argv is SOLVE else [{}])
