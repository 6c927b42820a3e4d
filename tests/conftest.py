import dataclasses

import pytest

from hifbench import profiles
from hifbench.waveforms import GenConfig, ParamRanges, build_dataset


@pytest.fixture(scope="session")
def small_config() -> GenConfig:
    """A quick 40-window source config for unit tests."""
    return GenConfig(scenario="source", count=40, seed=1234)


@pytest.fixture(scope="session")
def small_dataset(small_config):
    return build_dataset(small_config)


@pytest.fixture(scope="session")
def tiny_target_dataset():
    cfg = dataclasses.replace(profiles.CASE2_GEN, count=60)
    return build_dataset(cfg)


@dataclasses.dataclass
class Call:
    args: tuple
    kwargs: dict
    result: object = None


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) replaces owner.name by a wrapper that calls through
    with whatever arguments it gets, and returns the list of its calls, each
    a Call appended on entry, its result set on return."""

    def install(owner, name: str) -> list[Call]:
        calls: list[Call] = []
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            call = Call(args, kwargs)
            calls.append(call)
            call.result = real(*args, **kwargs)
            return call.result

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return install
