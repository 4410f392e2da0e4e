"""Tests for the one-BLAS-thread scope around the block-tree IPM iterations."""

import threading

import numpy as np
import pytest
import scipy

from treesdp import ipm
from treesdp.blas import _thread_calls, bundled_openblas, one_blas_thread
from treesdp.chordal import Graph
from treesdp.frontends import gen_maxkcut, solve_sdp

calls = _thread_calls()
PINNED = (1,) * len(calls)


def get_threads() -> tuple:
    """The thread count of each bundled OpenBLAS."""
    return tuple(get() for get, _ in calls)


def _blas_name(module) -> str:
    try:
        config = module.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config only
        return ""
    return config["Build Dependencies"]["blas"].get("name", "")


def test_bundled_openblas_thread_calls_are_found():
    # numpy's and scipy's wheels each bundle one, and the engine calls both
    for module in (np, scipy):
        if _blas_name(module) == "scipy-openblas":
            assert any(
                f"{module.__name__}.libs" in path or ".dylibs" in path
                for path in bundled_openblas()
            ), f"{module.__name__} wheel without its OpenBLAS"
    if bundled_openblas():
        assert len(calls) == len(bundled_openblas()), (
            "a bundled OpenBLAS exports no thread calls"
        )
    if not calls:
        pytest.skip("numpy uses a BLAS other than its bundled OpenBLAS")


def test_one_blas_thread_pins_and_restores():
    before = get_threads()
    with one_blas_thread():
        assert get_threads() == PINNED
    assert get_threads() == before
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("inside the block")
    assert get_threads() == before


def test_overlapping_blocks_from_two_threads_share_one_pin():
    # A enters, B enters, A exits while B is inside, B exits
    before = get_threads()
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def run_a():
        with one_blas_thread():
            a_in.set()
            b_in.wait()
        a_out.set()

    def run_b():
        a_in.wait()
        with one_blas_thread():
            b_in.set()
            a_out.wait()
            seen["b after a left"] = get_threads()

    threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert seen["b after a left"] == PINNED
    assert get_threads() == before


def _threads_seen_by_directions(monkeypatch, method):
    seen = []
    direction = ipm.HsdeSolver.nt_direction

    def spy(self, *args, **kwargs):
        seen.append(get_threads())
        return direction(self, *args, **kwargs)

    monkeypatch.setattr(ipm.HsdeSolver, "nt_direction", spy)
    graph = Graph(5, [(i, i + 1) for i in range(4)])
    outcome = solve_sdp(gen_maxkcut(graph, 2), method=method)
    assert outcome.iterations > 0 and seen
    return set(seen)


def test_block_tree_ipm_iterates_on_one_blas_thread(monkeypatch):
    before = get_threads()
    for method in ("dctc", "dctc-aux"):
        assert _threads_seen_by_directions(monkeypatch, method) <= {PINNED}
    assert get_threads() == before


def test_dense_normal_ipm_keeps_the_thread_count(monkeypatch):
    before = get_threads()
    assert _threads_seen_by_directions(monkeypatch, "ctc") == {before}
    assert get_threads() == before
