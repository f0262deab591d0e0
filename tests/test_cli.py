import dataclasses
import json

import pytest

from hybrel.benchmarks import get_case, run_case
from hybrel.cli import CSV_HEADER, run_cli
from hybrel.errors import AccuracyError


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_csv_row_schema(self, capsys):
        code, out, _ = _run(capsys, "run", "--case", "linear", "--m", "2", "--n", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "linear"
        assert fields[1] == "2" and fields[2] == "1"

    def test_csv_roundtrip_bit_exact(self, capsys):
        from hybrel.benchmarks import case_linear, run_case
        code, out, _ = _run(capsys, "run", "--case", "linear", "--m", "2", "--n", "1")
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        report = run_case(case_linear(2, 1))
        assert float(fields[3]) == report.beta
        assert float(fields[6]) == report.F_lo
        assert float(fields[7]) == report.F_hi
        assert fields[10] == "" and fields[13] == ""  # no MCS, no timing

    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys, "run", "--case", "linear", "--m", "2", "--n", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "linear"
        assert payload["F_lo"] + payload["R_hi"] == 1.0
        assert payload["runtime_ms"] is None

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = _run(
            capsys, "run", "--case", "linear", "--m", "2", "--n", "1",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(CSV_HEADER)

    def test_deterministic_across_runs(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = _run(
                capsys, "run", "--case", "linear", "--m", "5", "--n", "5",
                "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = _run(
            capsys, "run", "--case", "linear", "--m", "2", "--n", "1", "--trace"
        )
        assert code == 0
        assert "iter=1" in err
        assert "iter=" not in out

    def test_usage_error_unknown_case(self, capsys):
        code, _, err = _run(capsys, "run", "--case", "bridge")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--case", "cantilever_tube", "--t", "40"],
        ["--case", "linear", "--t", "5"],
        ["--case", "crank_slider", "--m", "3"],
        ["--case", "crank_slider", "--n", "4", "--t", "10"],
    ])
    def test_flag_the_case_does_not_take(self, capsys, argv):
        code, out, err = _run(capsys, "run", *argv)
        assert code == 2
        assert out == ""
        assert "does not take" in err

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = _run(capsys, "run", "--case", "linear", "--bogus")
        assert code == 2

    def test_config_file_override(self, capsys, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# comment line\nalpha_levels = 5\nquad_nodes=64\n")
        code, out, _ = _run(
            capsys, "curve", "--case", "linear", "--m", "2", "--n", "1",
            "--config", str(cfg),
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 5  # header + 5 levels

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("warp_speed=9\n")
        code, _, err = _run(
            capsys, "run", "--case", "linear", "--config", str(cfg)
        )
        assert code == 2
        assert "warp_speed" in err


class TestProblemDefinitionFiles:
    def _write_linear(self, tmp_path, m=2, n=1):
        lines = ["name = custom_linear", "lsf = linear"]
        lines += [f"random = u{i} 0.0 1.0" for i in range(m)]
        lines += [f"uncertain = y{j} -1.0 1.0" for j in range(n)]
        path = tmp_path / "problem.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_matches_equivalent_registry_case(self, capsys, tmp_path):
        path = self._write_linear(tmp_path, 2, 1)
        code, out_problem, _ = _run(capsys, "run", "--problem", str(path))
        assert code == 0
        code, out_case, _ = _run(capsys, "run", "--case", "linear",
                                 "--m", "2", "--n", "1")
        assert code == 0
        row_p = out_problem.strip().splitlines()[1].split(",")
        row_c = out_case.strip().splitlines()[1].split(",")
        assert row_p[0] == "custom_linear"
        assert row_p[3:10] == row_c[3:10]  # beta, d, D and all four bounds

    def test_shifted_bounds_change_the_answer(self, capsys, tmp_path):
        path = tmp_path / "problem.cfg"
        path.write_text(
            "lsf = linear\n"
            "random = u1 0.0 1.0\n"
            "random = u2 0.0 1.0\n"
            "uncertain = y1 -0.5 0.5\n",  # narrower box than the registry case
            encoding="utf-8",
        )
        code, out, _ = _run(capsys, "run", "--problem", str(path))
        assert code == 0
        f_hi_narrow = float(out.strip().splitlines()[1].split(",")[7])
        code, out, _ = _run(capsys, "run", "--case", "linear", "--m", "2", "--n", "1")
        f_hi_wide = float(out.strip().splitlines()[1].split(",")[7])
        assert f_hi_narrow < f_hi_wide

    def test_crank_with_param(self, capsys, tmp_path):
        path = tmp_path / "problem.cfg"
        path.write_text(
            "name = crank10\n"
            "lsf = crank_slider\n"
            "param.t = 10\n"
            "random = d1 10 0.5\nrandom = d2 20 0.8\nrandom = Sm 1.98 0.1\n"
            "uncertain = a 94 106\nuncertain = b 295 305\n"
            "uncertain = P 240 260\nuncertain = e 122 128\n",
            encoding="utf-8",
        )
        code, out_problem, _ = _run(capsys, "run", "--problem", str(path))
        assert code == 0
        code, out_case, _ = _run(capsys, "run", "--case", "crank_slider",
                                 "--t", "10")
        assert code == 0
        assert (out_problem.strip().splitlines()[1].split(",")[3:10]
                == out_case.strip().splitlines()[1].split(",")[3:10])

    def test_tube_matches_registry_case(self, capsys, tmp_path):
        path = tmp_path / "tube.cfg"
        path.write_text(
            "name = tube\n"
            "lsf = cantilever_tube\n"
            "random = t 5.0 0.1\nrandom = d 42.0 0.5\nrandom = L1 120.0 1.2\n"
            "random = L2 60.0 0.6\nrandom = Sy 185.0 22.0\nrandom = noise 0.0 0.03\n"
            "uncertain = theta1 0.0 10.0\nuncertain = theta2 5.0 15.0\n"
            "uncertain = F1 12.7 13.3\nuncertain = F2 12.7 13.3\n"
            "uncertain = P 21.0 23.0\nuncertain = T 85.0 95.0\n",
            encoding="utf-8",
        )
        code, out_problem, _ = _run(capsys, "run", "--problem", str(path))
        assert code == 0
        code, out_case, _ = _run(capsys, "run", "--case", "cantilever_tube")
        assert code == 0
        assert (out_problem.strip().splitlines()[1].split(",")[3:10]
                == out_case.strip().splitlines()[1].split(",")[3:10])

    def test_wrong_arity_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "problem.cfg"
        path.write_text(
            "lsf = cantilever_tube\nrandom = t 5 0.1\n", encoding="utf-8"
        )
        code, _, err = _run(capsys, "run", "--problem", str(path))
        assert code == 2
        assert "6 random" in err

    def test_unknown_lsf_key(self, capsys, tmp_path):
        path = tmp_path / "problem.cfg"
        path.write_text("lsf = warp_core\nrandom = u 0 1\n", encoding="utf-8")
        code, _, err = _run(capsys, "run", "--problem", str(path))
        assert code == 2
        assert "warp_core" in err

    def test_case_and_problem_are_exclusive(self, capsys, tmp_path):
        path = self._write_linear(tmp_path)
        code, _, _ = _run(capsys, "run", "--case", "linear",
                          "--problem", str(path))
        assert code == 2

    @pytest.mark.parametrize("flags", [["--m", "3"], ["--t", "10"]])
    def test_case_flags_with_problem_are_usage_errors(self, capsys, tmp_path,
                                                      flags):
        path = self._write_linear(tmp_path)
        code, out, err = _run(capsys, "run", "--problem", str(path), *flags)
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_missing_both_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "run")
        assert code == 2

    def test_works_for_all_subcommands(self, capsys, tmp_path):
        path = self._write_linear(tmp_path)
        for argv in (
            ["design-point", "--problem", str(path)],
            ["curve", "--problem", str(path)],
            ["mcs", "--problem", str(path), "--samples", "10000"],
        ):
            code, out, _ = _run(capsys, *argv)
            assert code == 0
            assert out


class TestMcsCommand:
    def test_csv_output(self, capsys):
        code, out, _ = _run(
            capsys, "mcs", "--case", "linear", "--m", "2", "--n", "0",
            "--samples", "10000", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("case,p_hat")
        fields = lines[1].split(",")
        assert fields[0] == "linear"
        assert 0.0 <= float(fields[1]) <= 1.0

    def test_json_output_deterministic(self, capsys):
        args = ("mcs", "--case", "linear", "--m", "2", "--n", "0",
                "--samples", "10000", "--seed", "3", "--format", "json")
        code, out1, _ = _run(capsys, *args)
        assert code == 0
        code, out2, _ = _run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["samples"] == 10000
        assert payload["seed"] == 3

    def test_bad_samples_is_usage_error(self, capsys):
        code, _, _ = _run(
            capsys, "mcs", "--case", "linear", "--samples", "10"
        )
        assert code == 2


class TestDesignPointCommand:
    def test_text_output(self, capsys):
        code, out, _ = _run(
            capsys, "design-point", "--case", "linear", "--m", "2", "--n", "0"
        )
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert values["case"] == "linear"
        assert float(values["beta"]) == pytest.approx(2 ** 0.5 * 1.0, rel=1e-5)
        assert values["converged"] == "True"

    def test_json_output(self, capsys):
        code, out, _ = _run(
            capsys, "design-point", "--case", "linear", "--m", "2", "--n", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["u_star"]) == 2
        assert len(payload["delta_star"]) == 1
        assert payload["converged"] is True


    def test_beta_is_run_case_beta(self, capsys):
        code, out, _ = _run(capsys, "design-point", "--case", "crank_slider",
                            "--t", "10", "--format", "json")
        assert code == 0
        report = run_case(get_case("crank_slider", t=10.0))
        assert json.loads(out)["beta"] == report.beta


class TestCurveCommand:
    def test_default_levels(self, capsys):
        code, out, _ = _run(capsys, "curve", "--case", "linear", "--m", "2", "--n", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "shift,reliability"
        assert len(lines) == 1 + 21
        values = [float(line.split(",")[1]) for line in lines[1:]]
        # positive offset: reliability is non-increasing along the sweep
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_json_curve(self, capsys):
        code, out, _ = _run(
            capsys, "curve", "--case", "linear", "--m", "2", "--n", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload["curve"]) == 21
        assert payload["R_lo"] <= payload["R_hi"]

    def test_json_curve_is_run_case_curve(self, capsys):
        code, out, _ = _run(capsys, "curve", "--case", "crank_slider",
                            "--t", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        report = run_case(get_case("crank_slider", t=10.0))
        assert [tuple(row) for row in payload["curve"]] == list(report.curve)
        assert (payload["R_lo"], payload["R_hi"]) == (report.R_lo, report.R_hi)


class TestErrorPaths:
    def test_numerical_error_exit_code(self, capsys, monkeypatch):
        import hybrel.cli as cli_module

        def boom(*_args, **_kwargs):
            raise AccuracyError("synthetic non-convergence")

        monkeypatch.setattr(cli_module, "run_case", boom)
        code, _, err = _run(capsys, "run", "--case", "linear")
        assert code == 3
        assert "synthetic" in err

    def test_non_finite_response_is_a_numerical_error(self, capsys, monkeypatch):
        import hybrel.cli as cli_module

        case = get_case("linear", m=1, n=1)
        problem = dataclasses.replace(
            case.problem,
            lsf=lambda x, y: float("nan") if x[0] > 1.5 else 3.0 - x[0] - y[0],
            lsf_batch=None,
        )
        monkeypatch.setattr(cli_module, "get_case",
                            lambda *_a, **_k: dataclasses.replace(case, problem=problem))
        code, out, err = _run(capsys, "run", "--case", "linear")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: limit state returned nan at x=[")

    def test_missing_subcommand(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 2
