import os
import random

import pytest

from nestevo.config import default_devices
from nestevo.genome import DeviceSpec, SearchSpaceSpec

TOY_DEVICE = DeviceSpec("toy-dev", (0.5, 1.0), (), default_compute_idx=1)
EMC_DEVICE = DeviceSpec("emc-dev", (0.5, 1.0, 1.5), (0.4, 0.8),
                        default_compute_idx=2, default_emc_idx=1)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child of this process unreaped, running or
    not: a search must not leave worker processes behind."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + ("running" if pid == 0 else f"{pid} unreaped"))


@pytest.fixture
def toy_space() -> SearchSpaceSpec:
    """Enumerable space: 8 backbones, 1-2 exit positions, 2 frequency levels."""
    return SearchSpaceSpec(
        n_block=1,
        resolution_domain=(32,),
        depth_domain=(6, 7),
        width_domain=(16, 32),
        kernel_domain=(3, 5),
        expand_domain=(1,),
        exit_min_position=5,
        device_specs=(TOY_DEVICE, EMC_DEVICE),
    )


@pytest.fixture
def small_space() -> SearchSpaceSpec:
    """Small space with repair pressure (minimum depth sum below the exit bound)."""
    return SearchSpaceSpec(
        n_block=2,
        resolution_domain=(32, 64),
        depth_domain=(2, 3, 4),
        width_domain=(16, 32, 64),
        kernel_domain=(3, 5),
        expand_domain=(1, 4),
        exit_min_position=5,
        device_specs=(TOY_DEVICE, EMC_DEVICE),
    )


@pytest.fixture
def full_space() -> SearchSpaceSpec:
    return SearchSpaceSpec(device_specs=default_devices())


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def genome_objects(monkeypatch) -> list:
    """The ExitGenome, DvfsGenome and DynamicScore objects that this
    process builds during the test, in order of construction."""
    from nestevo.genome import DvfsGenome, ExitGenome
    from nestevo.ioe import DynamicScore

    built: list = []
    for cls in (ExitGenome, DvfsGenome, DynamicScore):
        def counting(self, *args, init=cls.__init__, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return built
