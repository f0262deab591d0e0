import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hybrel import distributions
from hybrel.benchmarks import get_case, load_problem
from hybrel.chance import belief_sup_grid, chance_exceedance
from hybrel.config import RunSettings, load_config, thread_cap
from hybrel.distributions import LinearUncertain, Normal
from hybrel.errors import InvalidParameterError
from hybrel.integrator import reliability_at_shift, reliability_interval
from hybrel.polar import ReducedLSF
from hybrel.solver import SolverSettings


class TestRunSettings:
    def test_defaults(self):
        settings = RunSettings()
        assert settings.alpha_levels == 21
        assert settings.quad_nodes == 64
        assert settings.epsilon == 1e-6
        assert settings.seed == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RunSettings(alpha_levels=0)
        with pytest.raises(InvalidParameterError):
            RunSettings(quad_nodes=16)
        with pytest.raises(InvalidParameterError):
            RunSettings(epsilon=-1.0)


@pytest.mark.parametrize("settings,key,value", [
    (settings, key, value)
    for settings, keys in ((RunSettings, ("epsilon", "fd_step")),
                           (SolverSettings, ("epsilon", "fd_rel_step")))
    for key in keys
    for value in (0.0, -1e-6, math.nan, math.inf, -math.inf)
] + [(RunSettings, "seed", -1)])
def test_settings_refuse_non_finite_steps_and_negative_seed(settings, key, value):
    # nan passes every `<= 0` check, so only an explicit finiteness check
    # keeps it from reaching the solver
    with pytest.raises(InvalidParameterError, match=f"^{key} must be"):
        settings(**{key: value})


@pytest.mark.parametrize("key,value", [("seed", 1.5), ("alpha_levels", 2.5),
                                       ("quad_nodes", 64.5), ("seed", 1.0),
                                       ("seed", True), ("alpha_levels", True),
                                       ("seed", np.True_)])
def test_settings_refuse_non_integer_counts(key, value):
    with pytest.raises(InvalidParameterError,
                       match=f"^{key} must be an integer, got {value!r}$"):
        RunSettings(**{key: value})


def test_settings_take_numpy_integer_counts_as_ints():
    settings = RunSettings(alpha_levels=np.int64(5), quad_nodes=np.int32(40),
                           seed=np.uint8(3))
    assert (settings.alpha_levels, settings.quad_nodes, settings.seed) == (5, 40, 3)
    assert all(type(v) is int for v in
               (settings.alpha_levels, settings.quad_nodes, settings.seed))


REDUCED = ReducedLSF(offset=1.5, grad_norm=1.0, m=2, n=2,
                     direction=np.array([1.0, 0.0, 0.0, 0.0]))
LIMIT_STATE = lambda x, tau: 0.3 + 0.1 * x[0] - tau[0]


def _linear_case(**sizes):
    """What get_case("linear") builds from the sizes: name, counts, reference."""
    case = get_case("linear", **sizes)
    return case.problem.name, case.problem.m, case.problem.n, case.reference


def _reduced_reliability(**counts):
    """The reliability at shift 1 of an m = n = 2 reduction with these counts;
    they are checked before the direction's length."""
    reduced = ReducedLSF(offset=1.5, grad_norm=1.0, direction=REDUCED.direction,
                         **{"m": 2, "n": 2, **counts})
    return reliability_at_shift(reduced, 1.0)


@pytest.mark.parametrize("call,valid,refused", [
    (lambda count: reliability_interval(REDUCED, quad_nodes=count).curve, 64,
     (64.5, 40.0)),
    (lambda count: reliability_at_shift(REDUCED, 1.0, quad_nodes=count), 64,
     (64.5, 40.0)),
    (lambda count: chance_exceedance(LIMIT_STATE, [Normal()],
                                     [LinearUncertain(0.0, 1.0)],
                                     quad_nodes=count), 64, (64.5, 40.0)),
    (lambda count: belief_sup_grid(LIMIT_STATE, np.array([0.2]),
                                   [LinearUncertain(0.0, 1.0)],
                                   grid_per_var=count), 201, (201.5, 201.0)),
] + [
    # the laws' dimensions: dof >= 1, total_dim >= 2
    (lambda count, law=law, args=args: getattr(distributions, law)(0.4, count, *args),
     3, (True, 2.5, 3.0))
    for law, args in (("chi_square_pdf", ()), ("chi_square_cdf", ()),
                      ("chi_square_ppf", ()), ("chi_pdf", ()), ("chi_cdf", ()),
                      ("shifted_chi_pdf", (0.1,)), ("shifted_chi_cdf", (0.1,)),
                      ("cos_angle_pdf", ()), ("cos_angle_cdf", ()))
] + [
    (lambda count, size=size: _linear_case(**{size: count}), 5, (True, 2.5, 3.0))
    for size in ("m", "n")
] + [
    (lambda count, size=size: _reduced_reliability(**{size: count}), 2,
     (True, 2.5, 3.0))
    for size in ("m", "n")
], ids=["reliability_interval", "reliability_at_shift", "chance_exceedance",
        "belief_sup_grid", "chi_square_pdf", "chi_square_cdf", "chi_square_ppf",
        "chi_pdf", "chi_cdf", "shifted_chi_pdf", "shifted_chi_cdf", "cos_angle_pdf",
        "cos_angle_cdf", "get_case_m", "get_case_n", "ReducedLSF_m", "ReducedLSF_n"])
def test_count_arguments_refuse_non_integers(call, valid, refused):
    # a float count is refused, not rounded up or passed to numpy; a numpy
    # integer gives the bits of the Python int
    for value in refused:
        with pytest.raises(InvalidParameterError,
                           match=f"must be an integer, got {value!r}$"):
            call(value)
    assert call(np.int64(valid)) == call(valid)


class TestLoadConfig:
    def test_parses_typed_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# defaults for nightly runs\n"
            "alpha_levels = 11\n"
            "quad_nodes=128   # denser quadrature\n"
            "epsilon = 1e-8\n"
            "seed = 42\n",
            encoding="utf-8",
        )
        overrides = load_config(cfg)
        assert overrides == {
            "alpha_levels": 11,
            "quad_nodes": 128,
            "epsilon": 1e-8,
            "seed": 42,
        }
        settings = replace(RunSettings(), **overrides)
        assert settings.quad_nodes == 128
        assert settings.fd_step == 1e-6  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 3\n")
        with pytest.raises(InvalidParameterError):
            load_config(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha_levels\n")
        with pytest.raises(InvalidParameterError):
            load_config(cfg)

    @pytest.mark.parametrize("loader", [load_config, load_problem])
    def test_one_reader_names_path_and_line(self, tmp_path, loader):
        # --config and --problem files share one key=value reader
        path = tmp_path / "file.cfg"
        path.write_text("# comment\n\nwhat  # no key\n")
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"{path}:3: expected key=value")):
            loader(path)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = soon\n")
        with pytest.raises(InvalidParameterError):
            load_config(cfg)


class TestThreadCap:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("HRA_THREADS", raising=False)
        assert thread_cap() == 1
        assert thread_cap(default=3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HRA_THREADS", "6")
        assert thread_cap() == 6

    def test_env_floor(self, monkeypatch):
        monkeypatch.setenv("HRA_THREADS", "0")
        assert thread_cap() == 1

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("HRA_THREADS", "many")
        with pytest.raises(InvalidParameterError):
            thread_cap()

    def test_interval_respects_cap(self, monkeypatch):
        # the shift sweep must give identical results under the env cap
        import numpy as np
        from hybrel.integrator import reliability_interval
        from hybrel.polar import ReducedLSF

        reduced = ReducedLSF(offset=2.0, grad_norm=1.0, m=3, n=2,
                             direction=np.array([1.0, 0, 0, 0, 0]))
        monkeypatch.delenv("HRA_THREADS", raising=False)
        seq = reliability_interval(reduced, thread_cap=thread_cap())
        monkeypatch.setenv("HRA_THREADS", "4")
        par = reliability_interval(reduced, thread_cap=thread_cap())
        assert seq.curve == par.curve
