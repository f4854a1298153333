import pytest

from gptlab.errors import InputError
from gptlab.tolerances import DEFAULT, Tolerances, default_tolerances


def test_defaults():
    t = Tolerances()
    assert t.herm == t.norm == t.interval == t.prob == 1e-9
    assert t.hull == 1e-7
    assert t.dedupe == 1e-7


def test_env_override_only_touches_fine_family(monkeypatch):
    monkeypatch.setenv("GPTLAB_TOLERANCE", "1e-6")
    t = default_tolerances()
    assert t.prob == 1e-6
    assert t.herm == 1e-6
    assert t.hull == 1e-7
    assert t.singular == 1e-10


def test_env_override_must_be_positive(monkeypatch):
    monkeypatch.setenv("GPTLAB_TOLERANCE", "-1")
    with pytest.raises(InputError):
        default_tolerances()
    monkeypatch.setenv("GPTLAB_TOLERANCE", "tiny")
    with pytest.raises(InputError):
        default_tolerances()
    monkeypatch.setenv("GPTLAB_TOLERANCE", "inf")
    with pytest.raises(InputError):
        default_tolerances()


def test_no_env_returns_shared_default(monkeypatch):
    monkeypatch.delenv("GPTLAB_TOLERANCE", raising=False)
    assert default_tolerances() is DEFAULT


def test_frozen():
    t = Tolerances()
    with pytest.raises(Exception):
        t.prob = 1.0
