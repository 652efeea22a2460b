"""Tests for repro.config."""

import dataclasses

import numpy as np
import pytest

from repro.config import Config, configured, get_config, set_config
from repro.errors import ConfigurationError


class TestConfigValidation:
    def test_default_config_is_valid(self):
        cfg = Config()
        assert cfg.base_case_elements >= 1
        assert np.dtype(cfg.default_dtype).kind == "f"

    def test_negative_base_case_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(base_case_elements=0)

    def test_negative_recursion_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(max_recursion_depth=0)

    def test_integer_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(default_dtype=np.int32)

    def test_complex_dtype_accepted(self):
        cfg = Config(default_dtype=np.complex128)
        assert np.dtype(cfg.default_dtype).kind == "c"

    def test_default_memory_budget_is_unbounded(self):
        assert Config().memory_budget == 0

    def test_negative_memory_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(memory_budget=-1)

    def test_memory_budget_env_parsing(self, monkeypatch):
        from repro.config import _config_from_env
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", str(1 << 20))
        assert _config_from_env().memory_budget == 1 << 20

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
            get_config().farm_procs = -3
        assert get_config().farm_procs >= 0


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
        ("REPRO_SERVE_FAIR_SHARE", "fast"),
    ])
    def test_malformed_numeric_env_names_variable(self, monkeypatch,
                                                  variable, value):
        from repro.config import _config_from_env
        monkeypatch.setenv(variable, value)
        with pytest.raises(ConfigurationError) as info:
            _config_from_env()
        assert variable in str(info.value)
        assert repr(value) in str(info.value)
