"""fork_map: the serial map's results and errors, spread over forked
workers, with every worker reaped."""

import os
import time

import pytest

import nestevo.ooe as ooe
import test_identity
from nestevo.ooe import fork_map


class Boom(Exception):
    pass


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(request, monkeypatch):
    monkeypatch.setattr(ooe, "_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("n_items", [0, 1, 2, 7])
def test_results_in_item_order(cpus, n_items):
    parent = os.getpid()
    results = fork_map(lambda x: (x * x, os.getpid()), list(range(n_items)))
    assert [r for r, _ in results] == [x * x for x in range(n_items)]
    workers = min(cpus, n_items)
    # Item i is computed by worker i mod n; worker 0 is this process.
    pids = [pid for _, pid in results]
    assert [pid == parent for pid in pids] == [
        i % workers == 0 for i in range(n_items)]
    assert len(set(pids)) == workers
    assert_no_children()


@pytest.mark.parametrize("cpus", [1], indirect=True)
def test_one_cpu_forks_nothing(cpus, monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(lambda x: x + 1, range(7)) == list(range(1, 8))


@pytest.mark.parametrize("cpus", [2, 3], indirect=True)
@pytest.mark.parametrize("failing", [0, 1, 2])
def test_error_keeps_its_type_and_message(cpus, failing):
    # With 2 or 3 workers, item 0 is the caller's share and item 1 a child's.
    def fn(x):
        if x == failing:
            raise Boom(f"item {x}")
        return x

    with pytest.raises(Boom, match=f"^item {failing}$"):
        fork_map(fn, range(7))
    assert_no_children()


@pytest.mark.parametrize("cpus", [2, 3], indirect=True)
def test_first_failing_item_wins(cpus):
    # Items 1 and 2 raise; a serial map stops at item 1.
    def fn(x):
        if x in (1, 2):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="^item 1$"):
        fork_map(fn, range(7))
    assert_no_children()


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_child_that_dies_names_its_status(cpus):
    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(ChildProcessError, match="exit status 3"):
        fork_map(fn, range(4))
    assert_no_children()


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_unpicklable_result_is_an_error(cpus):
    with pytest.raises(ChildProcessError, match="exit status 1"):
        fork_map(lambda x: (lambda: x), range(2))
    assert_no_children()


@pytest.mark.parametrize("cpus", [3], indirect=True)
def test_interrupt_kills_and_reaps_the_children(cpus):
    # The children would sleep for a minute; an interrupt in the caller's
    # share must not wait for them.
    def fn(x):
        if x == 0:
            raise KeyboardInterrupt
        time.sleep(60)
        return x

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        fork_map(fn, range(3))
    assert time.perf_counter() - t0 < 30
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 3], indirect=True)
def test_pinned_digests_do_not_depend_on_cpus(cpus, tmp_path, monkeypatch):
    for name in ("toy", "small-default", "scalar", "ablate-table"):
        (tmp_path / name).mkdir()
    test_identity.test_toy_digests(tmp_path / "toy")
    test_identity.test_small_default_digests(tmp_path / "small-default",
                                             monkeypatch)
    test_identity.test_scalar_objective_digests(tmp_path / "scalar")
    test_identity.test_ablate_table_digests(tmp_path / "ablate-table")
