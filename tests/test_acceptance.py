"""Acceptance suite: one test per release criterion, each printing a single
pass/fail line.  Budgeted criteria assert their own wall-clock limits."""

import time
from itertools import product

import numpy as np

from mechindep.basis import BlockSpec, sparsest_basis, sparsity_gap
from mechindep.core import Tolerance, column_supports, l0_norm, rank
from mechindep.criteria import (
    Assignment,
    _row_route_type_m,
    check_type_d,
    check_type_h,
    check_type_m,
    check_type_o,
    compositional_contrast,
    contrast_certificate,
    extract_assignment,
    hierarchy_audit,
)
from mechindep.graphs import (
    block_structure_audit,
    blocks_from_components,
    build_graph,
    components,
)
from mechindep.synth import (
    OverlapTemplate,
    fd_hessian,
    fd_jacobian,
    gen_overlap_jacobian,
    random_mixing,
)
from mechindep.topology import is_connected, premise_report, slices_connected

from golden import GOLDEN
from oracles import (
    oracle_finest_partition,
    oracle_grid_components,
    oracle_slices_all_connected,
    oracle_sparsest_cost,
)
from regions import (
    bracket_mask,
    hollow_cube_mask,
    offset_squares_mask,
    slab_with_corners_mask,
)


def _verdict(name, passed):
    print(f"criterion {name}: {'PASS' if passed else 'FAIL'}")


def _report(name):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                _verdict(name, False)
                raise
            _verdict(name, True)

        run.__name__ = fn.__name__
        return run

    return wrap


def _planted(K, d, out, overlap, seed):
    tpl = OverlapTemplate(
        K=K, slot_dim=d, slot_out=out, overlap_ratio=overlap, seed=seed
    )
    return gen_overlap_jacobian(tpl)


# Smooth test functions for the finite-difference criteria.  Additive: every
# output reads both slots but with no interaction term, so the cross Hessian
# vanishes while the Jacobian stays dense.  Block diagonal: each output reads
# one slot only, so Type D holds as well.  Interacting: additive plus a
# planted bilinear term across the slots.

def _additive_fn(seed, d_a=2, d_b=2, m=4):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, (m, d_a))
    wa = rng.uniform(0.5, 2.0, (m, d_a))
    b = rng.uniform(0.5, 2.0, (m, d_b))
    wb = rng.uniform(0.5, 2.0, (m, d_b))

    def f(x):
        xa, xb = x[:d_a], x[d_a:]
        return (a * np.sin(wa * xa)).sum(axis=1) + (b * np.cos(wb * xb)).sum(axis=1)

    return f


def _interacting_fn(seed, d_a=2, d_b=2, m=4):
    base = _additive_fn(seed, d_a, d_b, m)
    c = float(np.random.default_rng(seed + 9999).uniform(0.5, 2.0))

    def f(x):
        out = base(x).copy()
        out[0] += c * x[0] * x[d_a]
        return out

    return f


def _block_diagonal_fn(seed, d_a=2, d_b=2, m_a=3, m_b=3):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, (m_a, d_a))
    wa = rng.uniform(0.5, 2.0, (m_a, d_a))
    b = rng.uniform(0.5, 2.0, (m_b, d_b))
    wb = rng.uniform(0.5, 2.0, (m_b, d_b))

    def f(x):
        xa, xb = x[:d_a], x[d_a:]
        top = (a * np.sin(wa * xa)).sum(axis=1)
        bottom = (b * np.cos(wb * xb)).sum(axis=1)
        return np.concatenate([top, bottom])

    return f


@_report("1 (golden suite, exact integers)")
def test_criterion_1_golden_suite_exact():
    t0 = time.monotonic()
    tol = Tolerance.default()
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], float)
        blocks = BlockSpec(tuple(gold["blocks"]))
        assert rank(M, tol) == gold["rank"], name
        assert l0_norm(M, tol) == gold["l0"], name
        sups = [s.members for s in column_supports(M, tol)]
        assert sups == [tuple(c) for c in gold["col_supports"]], name
        assert check_type_d(M, blocks).holds == gold["type_d"], name
        assert check_type_m(M, blocks).holds == gold["type_m"], name
        assert check_type_o(M, blocks).holds == gold["type_o"], name
        gap = sparsity_gap(M, blocks, tol)
        assert gap.rho_plus == gold["rho_plus"], name
        assert gap.rho_minus == gold["rho_minus"], name
        assert gap.independent == gold["s_independent"], name
        comps = components(build_graph(M, "D", tol))
        assert [set(c) for c in comps] == gold["d_components"], name

    # The sparsest basis of the three-column instance costs 9, no better than
    # the matrix itself, and the change of basis below attains it.
    B = np.array(GOLDEN["B"]["matrix"], float)
    G = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    print(f"transform G = {G.astype(int).tolist()}")
    assert l0_norm(B, tol) == 9
    assert l0_norm(B @ G, tol) == 9
    assert sparsest_basis(B, None, "unconstrained", tol).cost == 9

    # First block of the four-column instance admits a basis with 8 nonzeros.
    D = np.array(GOLDEN["D"]["matrix"], float)
    assert sparsest_basis(D[:, :2], None, "unconstrained", tol).cost == 8

    elapsed = time.monotonic() - t0
    print(f"golden suite re-verified in {elapsed:.2f}s")
    assert elapsed < 5.0


@_report("2 (block-structure audits, routes agree)")
def test_criterion_2_structure_audits():
    t0 = time.monotonic()

    # 200 seeded random full-column-rank matrices up to 8x4: the claimed count
    # from the exact oracle must hold, with all four routes in agreement (any
    # disagreement raises inside the audit).
    rng = np.random.default_rng(29)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 9))
        M = rng.integers(-3, 4, size=(m, n)).astype(float)
        if np.linalg.matrix_rank(M) < n:
            continue
        want = len(oracle_finest_partition([[int(x) for x in row] for row in M]))
        cert = block_structure_audit(M, want, draws=200, seed=done)
        assert cert.holds, (done, cert.witness)
        assert cert.witness["maxComponents"] == want
        assert cert.witness["sampledMax"] <= want
        done += 1

    # 50 planted K-block instances: the witness basis attains K components
    # and 200 sampled mixings never exceed it.
    combos = [
        (K, d, seed)
        for K, d in ((2, 1), (2, 2), (3, 1), (3, 2))
        for seed in range(13)
    ][:50]
    for K, d, seed in combos:
        M, _, _ = _planted(K, d, d + 1, 0.0, 100 + seed)
        cert = block_structure_audit(M, K, draws=200, seed=seed)
        assert cert.holds, (K, d, seed, cert.witness)
        assert cert.witness["maxComponents"] == K
        assert cert.witness["sampledMax"] <= K
        assert cert.witness["draws"] == 200

    elapsed = time.monotonic() - t0
    print(f"250 audits in {elapsed:.1f}s")
    assert elapsed < 30.0


@_report("3 (dual Type M routes identical)")
def test_criterion_3_dual_type_m_routes():
    rng = np.random.default_rng(7)
    blocks = BlockSpec((2, 2))
    for trial in range(500):
        mask = rng.random((8, 4)) < 0.45
        for j in range(4):
            if not mask[:, j].any():
                mask[int(rng.integers(0, 8)), j] = True
        M = np.where(mask, rng.uniform(0.5, 2.0, (8, 4)), 0.0)
        M *= rng.choice([-1.0, 1.0], size=(8, 4))
        cert = check_type_m(M, blocks)  # raises internally if routes disagree
        assert _row_route_type_m(M, blocks, Tolerance.default()) == cert.holds, trial


@_report("4 (greedy basis equals exhaustive oracle)")
def test_criterion_4_greedy_vs_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(41)
    done = 0
    while done < 100:
        M = rng.integers(-3, 4, size=(6, 3)).astype(float)
        if np.linalg.matrix_rank(M) < 3:
            continue
        got = sparsest_basis(M, None, "unconstrained").cost
        want = oracle_sparsest_cost([[int(x) for x in row] for row in M])
        assert got == want, (done, got, want)
        done += 1
    elapsed = time.monotonic() - t0
    print(f"100 comparisons in {elapsed:.1f}s")
    assert elapsed < 60.0


@_report("5 (planted mixing round trip, 50/50)")
def test_criterion_5_planted_mixing_round_trip():
    recovered = 0
    cases = [
        (K, d, seed)
        for K, d in ((2, 1), (2, 2), (3, 1), (3, 2))
        for seed in range(13)
    ][:50]
    for K, d, seed in cases:
        J, blocks, _ = _planted(K, d, d + 2, 0.0, 200 + seed)
        draw = random_mixing(blocks, "blockPermuted", seed=seed)
        mixed = J @ draw.matrix

        # Recover the basis change from data, then read the permutation off.
        b_hat = np.linalg.lstsq(J, mixed, rcond=None)[0]
        cert = extract_assignment(b_hat, blocks, blocks)
        assert cert.holds, (K, d, seed)
        sigma = Assignment.from_certificate(cert).sigma
        assert tuple(sigma[i] for i in sorted(sigma)) == draw.sigma

        # Recover the block structure from the mixed matrix alone.
        rec = blocks_from_components(components(build_graph(mixed, "D")))
        assert rec is not None and rec.sizes == blocks.sizes
        recovered += 1
    print(f"recovered {recovered}/50 planted mixings")
    assert recovered == 50


@_report("6 (finite-difference Hessian separation)")
def test_criterion_6_fd_hessian_separation():
    point = np.array([0.3, -0.4, 0.7, 0.2])
    blocks = BlockSpec((2, 2))
    fd_tol = Tolerance(rel=1e-6, abs=1e-4)
    separated = 0
    worst_additive = 0.0
    best_interacting = np.inf
    for seed in range(20):
        H = fd_hessian(_additive_fn(seed), point)
        cross = max(np.abs(H[:, :2, 2:]).max(), np.abs(H[:, 2:, :2]).max())
        worst_additive = max(worst_additive, cross)
        clean = cross <= 1e-4
        assert check_type_h(H, blocks, n=2, tol=fd_tol).holds == clean

        H = fd_hessian(_interacting_fn(seed), point)
        cross = max(np.abs(H[:, :2, 2:]).max(), np.abs(H[:, 2:, :2]).max())
        best_interacting = min(best_interacting, cross)
        loud = cross > 0.1
        assert not check_type_h(H, blocks, n=2, tol=fd_tol).holds

        separated += clean and loud
    print(
        f"additive cross <= {worst_additive:.2e}, "
        f"interacting cross >= {best_interacting:.2e}"
    )
    assert separated == 20


@_report("7 (hierarchy audit, zero violations)")
def test_criterion_7_hierarchy_zero_violations():
    d_exercised = s_exercised = 0
    for K, d, out, r, seed in product(
        (2, 3), (1, 2), (2, 3), (0.0, 0.05, 0.2, 0.5), (0, 1)
    ):
        M, blocks, _ = _planted(K, d, out, r, seed)
        cert = hierarchy_audit(M, blocks)
        assert cert.holds, (K, d, out, r, seed, cert.witness)
        assert cert.witness["violations"] == []
        verdicts = cert.witness["verdicts"]
        assert "MInSparsestBasis" in verdicts
        d_exercised += verdicts["D"] is True
        s_exercised += verdicts["S"] is True

    # Finite-difference instances with one slot per output exercise the
    # Hessian arrow: D and H2 both hold, exactly as implied.
    point = np.array([0.3, -0.4, 0.7, 0.2])
    for seed in range(10):
        f = _block_diagonal_fn(seed)
        cert = hierarchy_audit(
            fd_jacobian(f, point), (2, 2), hessian=fd_hessian(f, point)
        )
        assert cert.holds and cert.witness["violations"] == []
        verdicts = cert.witness["verdicts"]
        assert verdicts["D"] is True and verdicts["H2"] is True

    print(f"74 audits clean; D held on {d_exercised}, S held on {s_exercised}")
    assert d_exercised > 0 and s_exercised > 0


@_report("8 (connectivity masks match frozen verdicts)")
def test_criterion_8_topology_masks():
    expectations = [
        # region, connected, per-order slice verdicts {k: all connected}
        (bracket_mask(), True, {1: False}),
        (offset_squares_mask(), False, {1: True}),
        (hollow_cube_mask(), True, {1: False, 2: True}),
        (slab_with_corners_mask(), True, {1: True, 2: False}),
    ]
    for region, want_connected, slice_verdicts in expectations:
        assert is_connected(region) == want_connected
        for k, want in slice_verdicts.items():
            assert slices_connected(region, k).all_connected == want

        occupied = [tuple(c) for c in region.cells]
        assert (len(oracle_grid_components(region.dims, occupied)) == 1) == (
            want_connected
        )
        for k in range(1, region.K):
            oracle_ok, _ = oracle_slices_all_connected(region.dims, occupied, k)
            assert slices_connected(region, k).all_connected == oracle_ok

        cert = premise_report(region)
        top = region.K - 1
        want_premises = want_connected and slice_verdicts.get(top, True)
        assert cert.holds == want_premises
        assert cert.witness["isConnected"] == want_connected


@_report("9 (contrast zero iff Type D, monotone in overlap)")
def test_criterion_9_contrast_tracks_overlap():
    means = []
    for overlap in (0.0, 0.05, 0.2, 0.5):
        values = []
        for seed in range(50):
            M, blocks, _ = _planted(2, 3, 20, overlap, seed)
            value = compositional_contrast(M, blocks)
            holds_d = check_type_d(M, blocks).holds
            assert (value == 0.0) == holds_d, (overlap, seed)
            assert contrast_certificate(M, blocks).holds == holds_d
            values.append(value)
        means.append(float(np.mean(values)))
    print("mean contrast by overlap:", [f"{m:.2f}" for m in means])
    assert all(means[i] <= means[i + 1] for i in range(len(means) - 1))
