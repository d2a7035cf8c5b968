"""Replay the general level-3 pool of acceptance test C02 (seed 102, Erdos-Renyi
signals with arbitrary fiber masses), find the first triple that violates the
triangle inequality, and check every per-level transport term against an
independent LP. Matching terms show the violation is a property of the
definition (flat mass-gap penalty, growing ground), not an implementation
defect; C02 therefore asserts the triangle only on its mass-regular pool.

Run: python scripts/dissect_triangle.py
"""

import pathlib
import sys

import numpy as np
from scipy.optimize import linprog

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from bofop.wl import IdmUniverse, compute_idms, idm_distance
# C02's own generators: the replay below follows its RNG stream draw for draw
from test_acceptance import _random_measure, _random_signal

TOL = 1e-9


def brute_unbalanced(cost, w1, w2):
    """Transport the lighter marginal fully into the heavier + mass gap."""
    w1 = np.asarray(w1, float)
    w2 = np.asarray(w2, float)
    if w1.sum() > w2.sum():
        cost, w1, w2 = cost.T, w2, w1
    m, n = cost.shape
    if m == 0 or n == 0:
        return abs(w1.sum() - w2.sum())
    a_eq = np.zeros((m, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    a_ub = np.zeros((n, m * n))
    for j in range(n):
        a_ub[j, j::n] = 1.0
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=w1, A_ub=a_ub, b_ub=w2,
        bounds=(0, None), method="highs",
    )
    assert res.success, res.message
    return res.fun + abs(w1.sum() - w2.sum())


def level_ot_term(x, y, level):
    """d^level minus the parent part = the top OT term."""
    if level == 0:
        return idm_distance(x, y, 0)
    return idm_distance(x, y, level) - idm_distance(x.parent, y.parent, level - 1)


def brute_level_ot(x, y, level):
    ax, ay = x.atoms, y.atoms
    cost = np.array([[idm_distance(p, q, level - 1) for q in ay] for p in ax])
    if cost.size == 0:
        cost = cost.reshape(len(ax), len(ay))
    return brute_unbalanced(cost, x.weights, y.weights)


def main():
    rng = np.random.default_rng(102)
    # replay the transport half to advance the stream identically
    for i in range(500):
        dim = int(rng.integers(1, 4))
        for _ in range(3):
            _random_measure(rng, dim, max_atoms=3, normalize=True)

    uni = IdmUniverse()
    pool = []
    for _ in range(12):
        sig = _random_signal(rng, int(rng.integers(3, 6)), d=2)
        pool.extend(compute_idms(sig, 3, uni).node_idms)
    fwd_memo, rev_memo = {}, {}
    for t in range(500):
        a, b, c = (pool[int(j)] for j in rng.integers(0, len(pool), 3))
        dab = idm_distance(a, b, 3, fwd_memo)
        idm_distance(b, a, 3, rev_memo)
        dac = idm_distance(a, c, 3, fwd_memo)
        dbc = idm_distance(b, c, 3, fwd_memo)
        if dac > dab + dbc + TOL:
            print(f"violation at triple {t}: d(a,c)={dac:.6f} > {dab:.6f} + {dbc:.6f}")
            for lvl in range(4):
                ta = truncate(a, lvl)
                tb = truncate(b, lvl)
                tc = truncate(c, lvl)
                vac = idm_distance(ta, tc, lvl)
                vab = idm_distance(ta, tb, lvl)
                vbc = idm_distance(tb, tc, lvl)
                print(
                    f"  level {lvl}: d(a,c)={vac:.6f} d(a,b)={vab:.6f} "
                    f"d(b,c)={vbc:.6f} excess={vac - vab - vbc:.6f}"
                )
            for lvl in range(1, 4):
                ta, tb, tc = truncate(a, lvl), truncate(b, lvl), truncate(c, lvl)
                for name, (x, y) in {
                    "ac": (ta, tc), "ab": (ta, tb), "bc": (tb, tc),
                }.items():
                    mine = level_ot_term(x, y, lvl)
                    brute = brute_level_ot(x, y, lvl)
                    flag = "" if abs(mine - brute) <= 1e-7 else "  <-- MISMATCH"
                    print(f"  level {lvl} OT[{name}]: impl={mine:.8f} lp={brute:.8f}{flag}")
                ma, mb, mc = (truncate(t, lvl).weights.sum() for t in (a, b, c))
                print(f"  level {lvl} masses: |a|={ma:.4f} |b|={mb:.4f} |c|={mc:.4f}")
            return
    print("no violation reproduced")


def truncate(tree, level):
    while tree.level > level:
        tree = tree.parent
    return tree


if __name__ == "__main__":
    main()
