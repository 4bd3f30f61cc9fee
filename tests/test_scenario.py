"""Tests for the Scenario definition."""

import pytest

from repro.core.scenario import Scenario
from repro.errors import ParameterError


def test_scalar_lifetime_expands():
    s = Scenario(num_apps=3, app_lifetime_years=2.0)
    assert s.lifetimes == (2.0, 2.0, 2.0)
    assert s.total_application_years == 6.0


def test_sequence_lifetimes():
    s = Scenario(num_apps=3, app_lifetime_years=[1.0, 2.0, 3.0])
    assert s.lifetimes == (1.0, 2.0, 3.0)
    assert s.total_application_years == 6.0


def test_sequence_length_mismatch():
    with pytest.raises(ParameterError):
        Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0, 3.0])


def test_horizon_defaults_to_total_years():
    s = Scenario(num_apps=4, app_lifetime_years=2.0)
    assert s.horizon_years == 8.0


def test_horizon_override():
    s = Scenario(num_apps=1, app_lifetime_years=1.0, evaluation_years=30.0)
    assert s.horizon_years == 30.0


def test_validation():
    with pytest.raises(ParameterError):
        Scenario(num_apps=0)
    with pytest.raises(ParameterError):
        Scenario(volume=0)
    with pytest.raises(ParameterError):
        Scenario(app_lifetime_years=0.0)
    with pytest.raises(ParameterError):
        Scenario(evaluation_years=-1.0)
    with pytest.raises(ParameterError):
        Scenario(app_size_mgates=0.0)


@pytest.mark.parametrize("volume", [float("inf"), float("nan")])
def test_non_finite_volume_is_rejected(volume):
    """An infinite volume used to reach the digest's ``int(volume)`` as a
    bare OverflowError, and NaN slipped past ``< 1`` into the models."""
    with pytest.raises(ParameterError, match="volume must be finite"):
        Scenario(volume=volume)
    with pytest.raises(ParameterError):
        Scenario().with_volume(volume)


def test_with_num_apps():
    s = Scenario(num_apps=2, app_lifetime_years=1.5, volume=100)
    s2 = s.with_num_apps(5)
    assert s2.num_apps == 5
    assert s2.lifetimes == (1.5,) * 5
    assert s2.volume == 100
    assert s.num_apps == 2  # original untouched


def test_with_num_apps_rejects_heterogeneous_lifetimes():
    s = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0])
    with pytest.raises(ParameterError):
        s.with_num_apps(3)


def test_with_lifetime_and_volume():
    s = Scenario(num_apps=2, app_lifetime_years=1.0, volume=10)
    assert s.with_lifetime(3.0).lifetimes == (3.0, 3.0)
    assert s.with_volume(999).volume == 999


def test_enforce_chip_lifetime_default_off():
    assert Scenario().enforce_chip_lifetime is False


def test_copies_preserve_enforce_flag():
    s = Scenario(num_apps=2, app_lifetime_years=1.0, enforce_chip_lifetime=True)
    assert s.with_num_apps(4).enforce_chip_lifetime is True
    assert s.with_volume(5).enforce_chip_lifetime is True
