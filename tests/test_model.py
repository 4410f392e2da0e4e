"""Tests for the stacked-triplet problem container: its canonical form
against the per-matrix canonicaliser, its range checks, and the SDPA
round trip."""

import io

import numpy as np
import pytest

from treesdp.errors import DimensionMismatch
from treesdp.frontends import (
    gen_lovasz_theta,
    gen_maxcut,
    gen_maxkcut,
    read_sdpa,
    write_sdpa,
)
from treesdp.linalg import svec
from treesdp.model import SdpProblem
from util import (
    dot_sym,
    oracle_triplets,
    random_chordal_problem,
    random_connected_graph,
)


def generated_problems(rng):
    """Every generator, on a random graph with random edge weights and
    on an edgeless graph."""
    graph = random_connected_graph(rng, 9, extra_edge_prob=2.0)
    weights = {e: float(rng.uniform(0.5, 2.0)) for e in graph.edges}
    edgeless = random_connected_graph(rng, 1)
    return [
        gen_maxcut(graph),
        gen_maxcut(graph, weights),
        gen_maxkcut(graph, 3),
        gen_maxkcut(graph, 4, weights),
        gen_lovasz_theta(graph),
        gen_maxcut(edgeless),
        gen_lovasz_theta(edgeless),
    ]


def assert_same_triplets(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def perturbed(rng, sdp):
    """Raw entries of ``sdp``'s matrices: each entry twice (a random part
    of its value and the rest, or the value and an explicit zero), some
    transposed, explicit zeros added at random positions (new or stored),
    all shuffled."""
    ids, rows, cols, vals = sdp.triplets
    flip = rng.random(ids.size) < 0.5
    rows, cols = np.where(flip, cols, rows), np.where(flip, rows, cols)
    split = rng.random(ids.size) < 0.3
    part = np.where(split, rng.uniform(-1, 1, ids.size), 0.0)
    k = int(rng.integers(1, 6))
    ids = np.concatenate([ids, ids, rng.integers(0, sdp.m + 1, k)])
    rows = np.concatenate([rows, rows, rng.integers(0, sdp.n, k)])
    cols = np.concatenate([cols, cols, rng.integers(0, sdp.n, k)])
    vals = np.concatenate([vals - part, part, np.zeros(k)])
    order = rng.permutation(ids.size)
    return ids[order], rows[order], cols[order], vals[order]


def test_triplets_match_the_per_matrix_canonicaliser():
    rng = np.random.default_rng(3)
    problems = generated_problems(rng)
    problems += [random_chordal_problem(rng)[0] for _ in range(20)]
    for sdp in problems:
        # the stored form is already canonical
        again = SdpProblem(sdp.n, sdp.triplets, sdp.b, sdp.senses)
        assert_same_triplets(again.triplets, sdp.triplets)
        assert_same_triplets(
            sdp.triplets, oracle_triplets(sdp.n, sdp.m, sdp.triplets)
        )
        for _ in range(3):
            raw = perturbed(rng, sdp)
            got = SdpProblem(sdp.n, raw, sdp.b, sdp.senses)
            assert_same_triplets(
                got.triplets, oracle_triplets(sdp.n, sdp.m, raw)
            )


def sdpa_text(sdp):
    buf = io.StringIO()
    write_sdpa(sdp, buf)
    return buf.getvalue()


def shuffled_text(rng, sdp):
    """``sdp`` as SDPA text with its entry lines shuffled, some PSD-block
    entries transposed or split into two duplicate lines, and explicit
    zero entries added; and the raw PSD-block entries it holds, as
    (id, row, col, value)."""
    header, entries = [], []
    for line in sdpa_text(sdp).splitlines():
        toks = line.split()
        if len(header) < 4:
            header.append(line)
            continue
        if toks[1] == "2":  # the diagonal block's sense entry
            entries.append(toks)
            continue
        if rng.random() < 0.5:
            toks[2], toks[3] = toks[3], toks[2]
        if rng.random() < 0.3:
            part = float(rng.uniform(-1, 1))
            entries.append(toks[:4] + [repr(part)])
            toks = toks[:4] + [repr(float(toks[4]) - part)]
        entries.append(toks)
    for _ in range(int(rng.integers(1, 6))):
        i, j = rng.integers(1, sdp.n + 1, 2)
        entries.append([str(rng.integers(0, sdp.m + 1)), "1", str(i), str(j), "0"])
    entries = [entries[k] for k in rng.permutation(len(entries))]
    psd = np.array([t[:4] for t in entries if t[1] == "1"], dtype=np.int64)
    raw = (
        (psd[:, 0] - 1) % (sdp.m + 1),
        psd[:, 2] - 1,
        psd[:, 3] - 1,
        np.array([float(t[4]) for t in entries if t[1] == "1"]),
    )
    text = "\n".join(header + [" ".join(t) for t in entries]) + "\n"
    return text, raw


def test_read_sdpa_matches_the_per_matrix_canonicaliser():
    rng = np.random.default_rng(5)
    for sdp in generated_problems(rng):
        for _ in range(3):
            text, raw = shuffled_text(rng, sdp)
            got = read_sdpa(io.StringIO(text))
            assert_same_triplets(
                got.triplets, oracle_triplets(sdp.n, sdp.m, raw)
            )
            assert got.senses == sdp.senses
            assert np.array_equal(got.b, sdp.b)
            # read -> write -> read is bit-identical
            back = read_sdpa(io.StringIO(sdpa_text(got)))
            assert_same_triplets(back.triplets, got.triplets)
            assert back.senses == got.senses
            assert np.array_equal(back.b, got.b)
            assert sdpa_text(back) == sdpa_text(got)


def test_write_read_keeps_the_generated_problem():
    for sdp in generated_problems(np.random.default_rng(7)):
        back = read_sdpa(io.StringIO(sdpa_text(sdp)))
        assert_same_triplets(back.triplets, sdp.triplets)
        assert back.senses == sdp.senses and np.array_equal(back.b, sdp.b)


def test_sdp_problem_canonicalizes_and_sums():
    sdp = SdpProblem(
        3,
        ([1, 1, 1, 1, 0], [0, 2, 0, 1, 1], [2, 0, 0, 1, 1], [1, 2, 5, 0, 4]),
        b=[1.0],
    )
    # (0,2) and (2,0) of C merge to (2,0) with value 3; the explicit zero
    # at (1,1) is kept; A_1 comes first, C (id m = 1) last
    ids, rows, cols, vals = sdp.triplets
    assert ids.tolist() == [0, 1, 1, 1]
    assert rows.tolist() == [1, 0, 1, 2]
    assert cols.tolist() == [1, 0, 1, 0]
    assert vals.tolist() == [4.0, 5.0, 0.0, 3.0]
    assert sdp.senses == ["eq"]
    assert [a.vals.tolist() for a in sdp.constraints] == [[4.0]]
    assert sdp.cost.rows.tolist() == [0, 1, 2]


def test_sdp_problem_inner_products():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((6, 6))
    x = x + x.T
    for _ in range(5):
        sdp, _ = random_chordal_problem(rng, n_max=6)
        xs = x[:sdp.n, :sdp.n]
        want = [dot_sym(a, xs) for a in sdp.constraints]
        assert np.allclose(sdp.stacked_rows() @ svec(xs), want, atol=1e-12)
        assert sdp.cost_svec() @ svec(xs) == pytest.approx(
            dot_sym(sdp.cost, xs), abs=1e-12
        )


def test_sdp_problem_rejects_out_of_range():
    # order 2 and one constraint, so ids 0 (A_1) and 1 (C) only
    for triplets in (
        ([0], [2], [0], [1.0]),  # row index past the order
        ([0], [0], [-1], [1.0]),  # negative column
        ([2], [0], [0], [1.0]),  # id past m
        ([-1], [0], [0], [1.0]),  # negative id
    ):
        with pytest.raises(DimensionMismatch):
            SdpProblem(2, triplets, [1.0])


def test_sdp_problem_rejects_mismatched_data():
    entry = ([0], [0], [0], [1.0])
    for triplets, b, senses in (
        (([0, 0], [0], [0], [1.0]), [1.0], []),  # ragged triplets
        (entry, [1.0], ["eq", "eq"]),  # more senses than rows
        (entry, [1.0], ["gt"]),  # unknown sense
    ):
        with pytest.raises(DimensionMismatch):
            SdpProblem(2, triplets, b, senses)
