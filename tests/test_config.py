"""Tests for repro.config."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import repro
from repro.config import Config, configured, get_config, set_config
from repro.errors import ConfigurationError, ShapeError


class TestConfigValidation:
    def test_default_config_is_valid(self):
        cfg = Config()
        assert cfg.base_case_elements >= 1

    def test_negative_base_case_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(base_case_elements=0)

    def test_negative_recursion_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(max_recursion_depth=0)

    def test_invalid_tuner_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(tuner_mode="warm").validate()

    def test_replace_returns_new_instance(self):
        cfg = Config()
        other = cfg.replace(base_case_elements=128)
        assert other.base_case_elements == 128
        assert cfg.base_case_elements != 128 or cfg is not other

    def test_fields_cannot_be_assigned_in_place(self):
        """Assigning a field would skip validate(): a Config is frozen,
        changes go through replace()/set_config()/configured()."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            get_config().base_case_elements = -3
        assert get_config().base_case_elements >= 1


class TestConfiguredContext:
    def test_configured_overrides_and_restores(self):
        before = get_config().base_case_elements
        with configured(base_case_elements=before + 1) as cfg:
            assert cfg.base_case_elements == before + 1
            assert get_config().base_case_elements == before + 1
        assert get_config().base_case_elements == before

    def test_configured_restores_on_exception(self):
        before = get_config().base_case_elements
        with pytest.raises(RuntimeError):
            with configured(base_case_elements=before + 7):
                raise RuntimeError("boom")
        assert get_config().base_case_elements == before

    def test_nested_configured(self):
        with configured(base_case_elements=100):
            with configured(base_case_elements=200):
                assert get_config().base_case_elements == 200
            assert get_config().base_case_elements == 100

    def test_invalid_override_rejected(self):
        with pytest.raises(ConfigurationError):
            with configured(base_case_elements=-1):
                pass


class TestSetConfig:
    def test_set_config_returns_previous(self):
        current = get_config()
        previous = set_config(current.replace(seed=1234))
        try:
            assert previous is current
            assert get_config().seed == 1234
        finally:
            set_config(previous)


class TestEnvKnobs:
    def test_env_parsing(self, monkeypatch):
        from repro.config import _config_from_env
        monkeypatch.setenv("REPRO_TUNER", "frozen")
        cfg = _config_from_env()
        assert cfg.tuner_mode == "frozen"

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_BASE_CASE", "abc"),
        ("REPRO_SERVE_PORT", "fast"),
    ])
    def test_malformed_numeric_env_names_variable(self, monkeypatch,
                                                  variable, value):
        from repro.config import _config_from_env
        monkeypatch.setenv(variable, value)
        with pytest.raises(ConfigurationError) as info:
            _config_from_env()
        assert variable in str(info.value)
        assert repr(value) in str(info.value)


class TestOneEnvironmentReader:
    def test_only_config_reads_the_environment(self):
        """Every ``REPRO_*`` switch is parsed once, by ``config.py``, into
        a validated :class:`Config` field; no other module reads
        ``os.environ`` (or ``os.getenv``) behind its back."""
        import repro
        root = pathlib.Path(repro.__file__).parent
        readers = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"
                        and node.attr in ("environ", "getenv")):
                    readers.append(f"{path.relative_to(root)}:{node.lineno}")
        assert readers == []


#: entry points behind ``Config.strict_finite``, called on ``(A, B)``
_STRICT_CALLS = {
    "matmul_ata": lambda a, b: repro.matmul_ata(a),
    "matmul_atb": lambda a, b: repro.matmul_atb(a, b),
    "ata": lambda a, b: repro.ata(a),
    "run_ooc": lambda a, b: repro.run_ooc(a, procs=0),
}


class TestStrictFinite:
    @pytest.mark.parametrize("call,operand,bad", [
        ("matmul_ata", "A", np.nan), ("matmul_ata", "A", np.inf),
        ("matmul_atb", "A", np.nan), ("matmul_atb", "A", np.inf),
        ("matmul_atb", "B", np.nan),
        ("ata", "A", np.nan), ("ata", "A", np.inf),
        ("run_ooc", "A", np.nan), ("run_ooc", "A", np.inf),
    ])
    def test_non_finite_operand_is_named(self, call, operand, bad):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 12))
        b = rng.standard_normal((40, 5))
        (a if operand == "A" else b)[3, 2] = bad
        with np.errstate(all="ignore"):
            _STRICT_CALLS[call](a, b)  # the default config does not check
        with configured(strict_finite=True):
            with pytest.raises(ShapeError,
                               match=f"{operand} contains non-finite"):
                _STRICT_CALLS[call](a, b)

    @pytest.mark.parametrize("call", [
        lambda a, c, beta: repro.matmul_ata(a, c, beta=beta),
        lambda a, c, beta: repro.ata(a, c, beta=beta),
        lambda a, c, beta: repro.run_ooc(a, c, beta=beta, procs=0)[0],
    ], ids=["matmul_ata", "ata", "run_ooc"])
    def test_beta_zero_never_reads_c(self, call):
        """``beta == 0`` overwrites ``C`` as BLAS ``?syrk`` does, so a
        NaN-filled ``C`` is legal there; with ``beta != 0`` it is read."""
        a = np.random.default_rng(8).standard_normal((40, 12))
        expected = repro.matmul_ata(a)
        with configured(strict_finite=True):
            out = call(a, np.full((12, 12), np.nan), 0.0)
            assert np.array_equal(out, expected)
            with pytest.raises(ShapeError, match="C contains non-finite"):
                call(a, np.full((12, 12), np.nan), 1.0)


def test_option_counter_script_agrees_with_config():
    """``scripts/count_options.py`` (the CI option count, ast only) reads
    the same counts the live module has."""
    import importlib.util

    from repro import config
    script = (pathlib.Path(__file__).resolve().parent.parent
              / "scripts" / "count_options.py")
    spec = importlib.util.spec_from_file_location("count_options", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = pathlib.Path(config.__file__).read_text()
    assert module.count_options(source) == (
        len(dataclasses.fields(Config)), len(config._ENV_FIELDS))
