"""Acceptance gate: one test per advertised guarantee.

Every test exercises the full stated instance count at the stated tolerance
and, where the guarantee carries a time budget, asserts the elapsed wall
time too. Each test ends with a single `[acceptance] ...: PASS` line (shown
under -s; under plain -v the per-test PASSED/FAILED row carries the verdict).
"""

import json
import math
import time
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from click.testing import CliRunner
from scipy.linalg import circulant

from bofop.cli import main as cli_main
from bofop.experiments import ExperimentConfig, run_experiment
from bofop.measures import (
    GROUND_L1,
    GROUND_L2,
    DiscreteMeasure,
    hausdorff_set_distance,
    ot_unbalanced,
)
from bofop.mpnn import (
    forward_bofop,
    forward_idm,
    forward_profile,
    model_to_dict,
    random_model,
    sample_profile_for_model,
)
from bofop.operators import (
    EQUATOR,
    ERDOS_RENYI,
    NORMALIZED_SUM,
    SUM,
    SYMMETRIC_AVERAGE,
    FiniteBofopSignal,
    GeneratorSpec,
    apply_operator,
    disjoint_union,
    from_graph,
    generate,
    infty_norm,
    permute_bofop,
    validate_bofop,
)
from bofop.profiles import SignalMap, action_metric_estimate, push_signal, sample_k_profile
from bofop.wl import (
    IdmUniverse,
    classical_wl_partition,
    compute_idms,
    didm_movers_distance,
    idm_distance,
)
from measure_helpers import kr_lower_bound, pushforward_measure
from ot_oracle import ot_oracle

TOL = 1e-9


def _random_measure(rng, dim, max_atoms, normalize=False):
    m = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(-1.0, 1.0, (m, dim))
    weights = rng.uniform(0.2, 1.0, m)
    if normalize:
        weights = weights / weights.sum()
    return DiscreteMeasure(dim, atoms, weights)


def _random_signal(rng, n, d, aggregation=NORMALIZED_SUM, p=None):
    spec = GeneratorSpec(
        ERDOS_RENYI,
        {"n": n, "p": float(rng.uniform(0.3, 0.8)) if p is None else p},
        aggregation=aggregation,
        features={"mode": "uniform", "dim": d},
        seed=int(rng.integers(10**6)),
    )
    return generate(spec)


def _mass_regular_signal(rng, n, d, mass):
    """Weighted symmetric circulant kernel, uniform vertex weights, every fiber of the given mass."""
    offsets = rng.uniform(0.2, 1.0, n)
    offsets[0] = 0.0
    offsets = offsets + np.roll(offsets[::-1], 1)  # offsets k and n - k carry one weight
    kernel = circulant(offsets * (mass / offsets.sum()))
    return FiniteBofopSignal(n, np.full(n, 1.0 / n), kernel, rng.uniform(-1.0, 1.0, (n, d)))


def test_c01_ot_matches_polytope_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        dim = int(rng.integers(1, 4))
        ground = GROUND_L1 if i % 2 == 0 else GROUND_L2
        mu = _random_measure(rng, dim, max_atoms=3)
        nu = _random_measure(rng, dim, max_atoms=3)
        got = ot_unbalanced(mu, nu, ground)
        want = ot_oracle(mu, nu, ground)
        worst = max(worst, abs(got - want))
        assert got == pytest.approx(want, abs=TOL)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"[acceptance] C01 exact transport vs polytope-vertex oracle: PASS "
        f"(200 pairs, max |diff| {worst:.2e}, {elapsed:.1f}s)"
    )


def test_c02_metric_axioms():
    """The metric axioms the recursive distance guarantees, each where it holds.

    Transport: symmetry and the triangle inequality on 500 equal-mass triples.
    General level-3 pool (Erdos-Renyi signals, arbitrary fiber masses):
    symmetry, identity, nonnegativity and level monotonicity on 500 triples.
    The triangle inequality is not asserted there: the mass-gap penalty is
    flat per level while the recursive ground grows, so a path through a
    lighter fiber can undercut direct transport from level 2 on (README,
    "Known property";
    tests/test_wl.py::test_unbalanced_recursion_breaks_triangle_beyond_level_one
    pins 8 > 6 at level 2, scripts/dissect_triangle.py replays a violating
    triple of this pool). Mass-regular level-3 pool (every fiber carries one
    common mass): the triangle inequality on 500 triples. By induction on the
    level, each transport term there is a balanced W1 over a ground that
    already satisfies the triangle inequality.
    """
    rng = np.random.default_rng(102)
    start = time.perf_counter()

    # transport half: 500 equal-mass triples
    worst_sym = worst_tri = 0.0
    for i in range(500):
        dim = int(rng.integers(1, 4))
        ground = GROUND_L1 if i % 2 == 0 else GROUND_L2
        a = _random_measure(rng, dim, max_atoms=3, normalize=True)
        b = _random_measure(rng, dim, max_atoms=3, normalize=True)
        c = _random_measure(rng, dim, max_atoms=3, normalize=True)
        dab = ot_unbalanced(a, b, ground)
        dba = ot_unbalanced(b, a, ground)
        dac = ot_unbalanced(a, c, ground)
        dbc = ot_unbalanced(b, c, ground)
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, dac - (dab + dbc))
        assert abs(dab - dba) <= TOL
        assert dac <= dab + dbc + TOL

    # general half: 500 triples from a pooled tree universe, L = 3
    uni = IdmUniverse()
    pool = []
    for _ in range(12):
        sig = _random_signal(rng, int(rng.integers(3, 6)), d=2)
        pool.extend(compute_idms(sig, 3, uni).node_idms)
    fwd_memo, rev_memo = {}, {}
    for _ in range(500):
        a, b, c = (pool[int(j)] for j in rng.integers(0, len(pool), 3))
        dab = idm_distance(a, b, 3, fwd_memo)
        dba = idm_distance(b, a, 3, rev_memo)
        dac = idm_distance(a, c, 3, fwd_memo)
        dbc = idm_distance(b, c, 3, fwd_memo)
        worst_sym = max(worst_sym, abs(dab - dba))
        assert abs(dab - dba) <= TOL
        assert idm_distance(a, a, 3, fwd_memo) == 0.0
        assert min(dab, dac, dbc) >= 0.0
        assert dab >= idm_distance(a.parent, b.parent, 2, fwd_memo) - TOL

    # mass-regular half: 500 triples, L = 3, from its own stream
    regular_rng = np.random.default_rng([102, 1])
    regular_uni = IdmUniverse()
    regular_pool = []
    for _ in range(8):
        sig = _mass_regular_signal(regular_rng, int(regular_rng.integers(3, 6)), d=2, mass=0.75)
        assert validate_bofop(sig).passed
        regular_pool.extend(compute_idms(sig, 3, regular_uni).node_idms)
    regular_memo = {}
    worst_regular = -math.inf
    for _ in range(500):
        a, b, c = (regular_pool[int(j)] for j in regular_rng.integers(0, len(regular_pool), 3))
        dab = idm_distance(a, b, 3, regular_memo)
        dac = idm_distance(a, c, 3, regular_memo)
        dbc = idm_distance(b, c, 3, regular_memo)
        worst_regular = max(worst_regular, dac - (dab + dbc))
        assert dac <= dab + dbc + TOL

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"[acceptance] C02 metric axioms: PASS (500 equal-mass transport triples: "
        f"symmetry + triangle, max excess {worst_tri:.2e}; 500 general level-3 "
        f"triples: symmetry, identity, nonnegativity, level monotonicity; 500 "
        f"mass-regular level-3 triples: triangle, max excess {worst_regular:.2e} "
        f"over {len(set(regular_pool))} classes; max asym {worst_sym:.2e}, "
        f"{elapsed:.1f}s)"
    )


def test_c03_kr_duality_lower_bounds_transport():
    rng = np.random.default_rng(103)
    violations = 0
    tightest = math.inf
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        mu = _random_measure(rng, dim, max_atoms=4, normalize=True)
        nu = _random_measure(rng, dim, max_atoms=4, normalize=True)
        w1 = ot_unbalanced(mu, nu, GROUND_L1)
        slope = rng.uniform(-1.0, 1.0, dim)  # max |s_j| <= 1 is 1-Lipschitz for l1
        shift = float(rng.uniform(-1.0, 1.0))
        lower = kr_lower_bound(mu, nu, lambda x: float(slope @ x) + shift)
        tightest = min(tightest, w1 - lower)
        if lower > w1 + TOL:
            violations += 1
    assert violations == 0
    print(
        f"[acceptance] C03 dual test functions never beat the transport value: "
        f"PASS (500 balanced pairs, 0 violations, min slack {tightest:.2e})"
    )


def test_c04_wl_didm_equivalence_on_all_graphs_up_to_5_vertices():
    graphs = [g for g in nx.graph_atlas_g()[1:] if g.number_of_nodes() <= 5]
    assert len(graphs) == 52
    signals = [
        from_graph(
            g.number_of_nodes(),
            [(u, v, 1.0) for u, v in g.edges()],
            np.ones((g.number_of_nodes(), 1)),
            SUM,
        )
        for g in graphs
    ]
    start = time.perf_counter()
    pairs = discrepancies = 0
    zero_cases = Counter()
    for i in range(len(signals)):
        for j in range(i + 1, len(signals)):
            a, b = signals[i], signals[j]
            union = disjoint_union(a, b)
            agree = {}
            for r in range(1, 5):
                colors = classical_wl_partition(union, r)
                ca = Counter(colors[: a.n].tolist())
                cb = Counter(colors[a.n :].tolist())
                # cnt_a/n_a == cnt_b/n_b, cross-multiplied so it stays integer-exact
                agree[r] = {k: v * b.n for k, v in ca.items()} == {
                    k: v * a.n for k, v in cb.items()
                }
            for depth in (1, 2, 3, 4):
                classical_same = all(agree[r] for r in range(1, depth + 1))
                didm_zero = didm_movers_distance(a, b, depth) <= TOL
                if didm_zero != classical_same:
                    discrepancies += 1
                zero_cases[depth] += int(didm_zero)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 52 * 51 // 2
    assert discrepancies == 0
    # the equivalence must bite in both directions at least somewhere
    assert zero_cases[1] > 0
    assert elapsed < 300.0
    print(
        f"[acceptance] C04 color refinement <=> mover's distance zero: PASS "
        f"({pairs} pairs x depths 1-4, 0 discrepancies, zero-distance cases "
        f"{dict(zero_cases)}, {elapsed:.1f}s)"
    )


def test_c05_three_way_forward_commutation():
    rng = np.random.default_rng(105)
    aggregations = (SUM, NORMALIZED_SUM, SYMMETRIC_AVERAGE)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 3))
        sig = _random_signal(rng, n, d, aggregation=aggregations[case % 3])
        depth = int(rng.integers(0, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
        model = random_model(rng, d, dims)
        out_b = forward_bofop(model, sig)[1]
        out_i = forward_idm(model, compute_idms(sig, model.depth))[1]
        out_p = forward_profile(model, sample_profile_for_model(model, sig))
        spread = max(
            float(np.max(np.abs(out_b - out_i))),
            float(np.max(np.abs(out_b - out_p))),
            float(np.max(np.abs(out_i - out_p))),
        )
        worst = max(worst, spread)
        assert spread <= TOL
    print(
        f"[acceptance] C05 operator/invariant/profile forwards agree: PASS "
        f"(100 graph-model pairs, max spread {worst:.2e})"
    )


def test_c06_contraction_inequalities():
    rng = np.random.default_rng(106)
    min_slack = math.inf
    for i in range(300):
        # measure-level pushforward: W(T#mu, T#nu) <= L * W(mu, nu)
        dim_in = int(rng.integers(1, 4))
        dim_out = int(rng.integers(1, 4))
        mu = _random_measure(rng, dim_in, max_atoms=5, normalize=True)
        nu = _random_measure(rng, dim_in, max_atoms=5, normalize=True)
        mat = rng.uniform(-1.5, 1.5, (dim_out, dim_in))
        lip = float(np.abs(mat).sum(axis=0).max())  # l1 -> l1 operator norm
        lhs = ot_unbalanced(
            pushforward_measure(mu, lambda x: mat @ x),
            pushforward_measure(nu, lambda x: mat @ x),
            GROUND_L1,
        )
        slack = lip * ot_unbalanced(mu, nu, GROUND_L1) - lhs
        min_slack = min(min_slack, slack)
        assert slack >= -TOL

        # set level: pushing the signal block is max(1, L)-Lipschitz in Hausdorff
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        s1 = sample_k_profile(_random_signal(rng, int(rng.integers(4, 7)), d), k, 3, seed=i)
        s2 = sample_k_profile(_random_signal(rng, int(rng.integers(4, 7)), d), k, 3, seed=i + 1)
        if i % 2 == 0:
            amat = rng.uniform(-1.0, 1.0, (d, d))
            amat /= max(np.abs(amat).sum(axis=0).max(), np.abs(amat).sum(axis=1).max(), 1e-9)
            phi = SignalMap(
                lambda y, m=amat: m @ y, d, d, float(np.abs(amat).sum(axis=0).max())
            )
        else:
            phi = SignalMap(lambda y: np.concatenate([y, y]), d, 2 * d, 2.0)
        base = hausdorff_set_distance(s1.measures(), s2.measures())
        pushed = hausdorff_set_distance(
            push_signal(s1, phi).measures(), push_signal(s2, phi).measures()
        )
        slack = max(1.0, phi.lipschitz) * base - pushed
        min_slack = min(min_slack, slack)
        assert slack >= -TOL
    print(
        f"[acceptance] C06 pushforward and signal-push contractions: PASS "
        f"(300 measure pairs + 300 set pairs, min slack {min_slack:.2e})"
    )


def test_c07_permutation_invariance():
    rng = np.random.default_rng(107)
    aggregations = (SUM, NORMALIZED_SUM, SYMMETRIC_AVERAGE)
    worst_didm = 0.0
    for i in range(50):
        n = int(rng.integers(2, 9))
        sig = _random_signal(rng, n, int(rng.integers(1, 3)), aggregations[i % 3])
        permuted = permute_bofop(sig, rng.permutation(n))
        delta = didm_movers_distance(sig, permuted, 2)
        worst_didm = max(worst_didm, delta)
        assert delta <= TOL
        est = action_metric_estimate(sig, permuted, k_max=2, num_samples=4, seed=i)
        assert est.value == 0.0  # covariant draws make every profile pair equal
    print(
        f"[acceptance] C07 relabeling invisibility: PASS "
        f"(50 graphs, max didm {worst_didm:.2e}, action estimates all exactly 0)"
    )


def test_c08_equator_operator_norm():
    norms = []
    for seed in range(10):
        sig = generate(GeneratorSpec(EQUATOR, {"m": 2000, "band_eps": 0.05}, seed=seed))
        norms.append(infty_norm(sig))
    assert min(norms) >= 0.95
    assert max(norms) <= 1.05
    print(
        f"[acceptance] C08 equator band operator norm: PASS "
        f"(10 seeds at m=2000, norms in [{min(norms):.4f}, {max(norms):.4f}])"
    )


def test_c09_sparse_aggregation_collapse():
    n = 1000
    sparse = generate(
        GeneratorSpec(ERDOS_RENYI, {"n": n, "p": 4 / n}, aggregation=NORMALIZED_SUM, seed=2)
    )
    dense = generate(
        GeneratorSpec(ERDOS_RENYI, {"n": n, "p": 0.5}, aggregation=NORMALIZED_SUM, seed=2)
    )
    sparse_max = float(np.abs(apply_operator(sparse, sparse.features[:, 0])).max())
    dense_max = float(np.abs(apply_operator(dense, dense.features[:, 0])).max())
    assert sparse_max <= 0.02
    assert dense_max >= 0.4
    print(
        f"[acceptance] C09 global normalization flattens sparse graphs: PASS "
        f"(max aggregated value {sparse_max:.4f} sparse vs {dense_max:.4f} dense)"
    )


def test_c10_generalization_skeleton():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    hypotheses = tuple(model_to_dict(random_model(rng, 1, [2, 1])) for _ in range(3))
    config = ExperimentConfig(
        kind="generalization",
        generators=(
            {
                "kind": "erdos_renyi",
                "params": {"n": 8, "p": 0.25},
                "aggregation": "normalized_sum",
                "features": {"mode": "uniform", "dim": 1},
            },
            {
                "kind": "erdos_renyi",
                "params": {"n": 8, "p": 0.75},
                "aggregation": "normalized_sum",
                "features": {"mode": "uniform", "dim": 1},
            },
        ),
        sizes=(250, 1000, 4000, 16000),
        models=hypotheses,
        seeds=(0,),
        decay_reps=30,
        hoeffding_n=1000,
        hoeffding_reps=1000,
        deviation_k=0.1,
    )
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    slope = report.summary["slope"]
    hoeffding = report.summary["hoeffding"]
    assert slope is not None and -0.65 <= slope <= -0.35
    assert hoeffding["max_violations"] == 0
    assert hoeffding["bound"] == pytest.approx(2 * math.exp(-20), rel=1e-12)
    assert hoeffding["bound"] == pytest.approx(4.12e-9, rel=1e-3)
    assert elapsed < 600.0
    print(
        f"[acceptance] C10 Monte-Carlo deviation decay and tail bound: PASS "
        f"(slope {slope:.3f}, 0/{hoeffding['repetitions']} envelope violations, "
        f"bound {hoeffding['bound']:.3g}, {elapsed:.1f}s)"
    )


def test_c11_cli_byte_determinism(tmp_path):
    config = {
        "kind": "convergence",
        "generators": [
            {
                "kind": "graphon_sample",
                "params": {"kernel_expr": "0.5"},
                "aggregation": "normalized_sum",
            }
        ],
        "sizes": [6, 12],
        "depth": 1,
        "k_max": 2,
        "num_samples": 4,
        "seeds": [0],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        result = CliRunner().invoke(
            cli_main,
            ["experiment", "run", "--config", str(config_path), "--out", str(out_dir)],
        )
        assert result.exit_code == 0, result.output
        outputs.append(
            {fmt: (out_dir / f"report.{fmt}").read_bytes() for fmt in ("csv", "json", "svg")}
        )
    assert outputs[0] == outputs[1]
    print(
        "[acceptance] C11 repeated runs are byte-identical: PASS "
        f"(csv {len(outputs[0]['csv'])} bytes, json {len(outputs[0]['json'])} bytes)"
    )
