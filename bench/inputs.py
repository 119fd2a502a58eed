"""Benchmark inputs: the fixture cases and the seeded Koszulity sweep.

Each case is a koszulkit CLI invocation plus the answer the oracles
expect.  Fixture inputs are written by `koszulkit fixtures` itself; the
sweep's presentations are drawn here, relabelled by the seed and
written as presentation JSON files.

Sweep make-up (one round, the same for every seed):
  * KOSZUL_SLOTS: 16 Koszul presentations, 10 on 2 generators and 6 on
    3.  Each slot fixes the set L of leading 2-words.  The base
    presentation of a slot is drawn once, from BASE_SEED, whatever the
    run's seed: each relation is its leading word plus random later
    non-leading words, redrawn (with fewer terms) until the Groebner
    basis is quadratic (PBW, hence Koszul), and then a random unimodular
    change of generators makes the relations dense without changing the
    algebra or its dual up to isomorphism.  The run's seed then applies
    a random signed permutation of the generators to each base
    presentation.  So every seed writes other files, with the same
    Hilbert series per slot and the same amount of elimination work; a
    seed that drew the presentations themselves made a round's cost
    differ by up to 40% from seed to seed.
  * NON_KOSZUL: 4 fixed presentations whose Euler identity fails by
    degree 5, so they are not Koszul: the classical
    k<x1,x2>/(x1^2+x2x1+x2^2, x1x2) and three drawn once by
    `python3 bench/inputs.py --find-non-koszul`.  They do not depend on
    the seed, so every round has exactly 4 of them among 20 cases.
"""

import collections
import hashlib
import json
import os
import random

import oracles

SWEEP_N = 5
BASE_SEED = 20230521    # draws the sweep's base and non-Koszul presentations
SWEEP_CHECKS = ["validate", "hilbert", "dual", "koszul"]
ALL_CHECKS = ["validate", "hilbert", "dual", "koszul", "smash", "takiff",
              "duality", "roundtrip"]

# (generators, leading 2-words as indices a*n + b, 0-based letters)
KOSZUL_SLOTS = [
    (2, ()), (2, (0,)), (2, (1,)), (2, (2,)), (2, (0, 1)), (2, (1, 2)),
    (2, (0, 3)), (2, (1, 3)), (2, (0, 1, 2)), (2, (0, 1, 2, 3)),
    (3, ()), (3, (0,)), (3, (1,)), (3, (0, 4)), (3, (1, 2, 5)),
    (3, (0, 4, 8)),
]

# (generators, relation rows, first failing degree when known)
NON_KOSZUL = [
    (2, [[1, 0, 1, 1], [0, 1, 0, 0]], 4),
    (2, [[1, 1, -1, 2], [2, 1, 1, 2]], None),
    (3, [[-2, -1, 0, 2, -1, 1, 2, 0, 2], [0, -2, -1, 2, 0, -1, 1, 2, -2],
         [-2, 2, -2, 0, 0, -1, 1, 1, 2]], None),
    (3, [[1, 1, 1, -1, 2, 2, 1, 2, 0], [-1, -1, -1, 2, -1, 1, 2, 2, 2],
         [1, 1, 1, 1, -1, -2, -2, 2, 2], [0, 2, 0, 0, 0, 1, 2, 2, -1]],
     None),
]

FIXTURES = {
    # workload -> (fixture, max degree, expectations from closed forms)
    "sl2_takiff": ("sl2_adjoint_takiff", 4, {
        "dims": oracles.sym_dims(3, 4),
        "dual_dims": oracles.ext_dims(3, 4),
        "takiff": oracles.takiff_pbw_dims(3, 3),
        "modules": ["adjoint", "triv"],
    }),
    "sweedler_bialg": ("sweedler_optional", 5, {
        "dims": oracles.dual_numbers_dims(5),
        "dual_dims": oracles.polynomial_1_dims(5),
        "takiff": None,
        "modules": ["two_dim"],
    }),
}


# One CLI invocation: argv for koszulkit.cli.main, where its report goes,
# and the expectations for oracles.check_report.
Case = collections.namedtuple("Case", "name argv out expect")


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _check_argv(pres, action, N, checks, out):
    argv = ["check", "--input", pres, "--max-degree", str(N),
            "--checks", ",".join(checks), "--out", out]
    if action:
        argv[3:3] = ["--action", action]
    return argv


def fixture_case(workload, workdir, fixture_paths):
    """The case of a fixture workload, once `koszulkit fixtures` wrote
    `fixture_paths` (presentation first, then action)."""
    fixture, N, exp = FIXTURES[workload]
    pres, action = fixture_paths
    expect = dict(exp, N=N, koszul=True, checks=ALL_CHECKS,
                  sha256={"presentation": _sha256(pres),
                          "action": _sha256(action)})
    out = os.path.join(workdir, "%s.report.json" % fixture)
    return Case(fixture, _check_argv(pres, action, N, ["all"], out), out,
                expect)


def _presentation_json(n, rows):
    names = ["x%d" % (i + 1) for i in range(n)]
    rels = [{"terms": [{"c": str(c), "m": [names[w // n], names[w % n]]}
                       for w, c in enumerate(r) if c]} for r in rows]
    return {"generators": names, "relations": rels}


def draw_pbw(rng, n, lead):
    """Random relations with leading words `lead` and a quadratic Groebner
    basis, with (dims, dual dims) to SWEEP_N.  Tries 16 draws at each
    tail density; density 0 leaves monomial relations, always PBW."""
    lead_set = set(lead)
    for density in (0.5, 0.25, 0.1, 0.0):
        for _ in range(16):
            rows = []
            for p in lead:
                r = [0] * (n * n)
                r[p] = rng.choice((1, -1, 2, -2))
                for q in range(p + 1, n * n):
                    if q not in lead_set and rng.random() < density:
                        r[q] = rng.choice((1, -1, 2, -2))
                rows.append(r)
            dims = oracles.pbw_dims(n, rows, SWEEP_N)
            if dims is not None:
                return rows, dims
    raise AssertionError("monomial relations are always PBW")


def change_generators(rng, n, rows):
    """Rows of (g (x) g) R for a random unimodular g = lower * upper
    unitriangular, every off-diagonal entry of both factors +-1, so every
    draw is about equally dense.  A and A! keep their dims."""
    low = [[1 if i == j else (rng.choice((1, -1)) if i > j else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((1, -1)) if i < j else 0)
           for j in range(n)] for i in range(n)]
    g = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    out = []
    for r in rows:
        v = [0] * (n * n)
        for w, c in enumerate(r):
            if c:
                a, b = divmod(w, n)
                for i in range(n):
                    for j in range(n):
                        v[i * n + j] += c * g[i][a] * g[j][b]
        out.append(v)
    return out


def base_presentations():
    """(generators, dense relation rows, (dims, dual dims)) of each
    Koszul slot, drawn from BASE_SEED."""
    rng = random.Random(BASE_SEED)
    out = []
    for n, lead in KOSZUL_SLOTS:
        rows, dims = draw_pbw(rng, n, lead)
        out.append((n, change_generators(rng, n, rows), dims))
    return out


def relabel(rng, n, rows):
    """Rows after a random signed permutation x_a -> s_a x_p(a) of the
    generators; A and A! keep their dims, the rows their sparsity."""
    p = list(range(n))
    rng.shuffle(p)
    s = [rng.choice((1, -1)) for _ in range(n)]
    out = []
    for r in rows:
        v = [0] * (n * n)
        for w, c in enumerate(r):
            a, b = divmod(w, n)
            v[p[a] * n + p[b]] = c * s[a] * s[b]
        out.append(v)
    return out


def sweep_cases(seed, workdir):
    """Write one round of the sweep for `seed`; returns its cases."""
    rng = random.Random(seed)
    drawn = []
    for n, rows, (dims, dual_dims) in base_presentations():
        drawn.append((n, relabel(rng, n, rows),
                      {"dims": dims, "dual_dims": dual_dims,
                       "koszul": True}))
    for n, rows, first in NON_KOSZUL:
        # dims by integer elimination are computed when a report exists
        drawn.append((n, rows, {"koszul": False,
                                "first_failure_degree": first}))
    cases = []
    for k, (n, rows, exp) in enumerate(drawn):
        name = "sweep%02d" % k
        path = os.path.join(workdir, name + ".presentation.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(_presentation_json(n, rows), f, sort_keys=True)
        out = os.path.join(workdir, name + ".report.json")
        exp.update(N=SWEEP_N, checks=SWEEP_CHECKS, n=n, rows=rows,
                   sha256={"presentation": _sha256(path), "action": None})
        cases.append(Case(name, _check_argv(path, None, SWEEP_N,
                                            SWEEP_CHECKS, out), out, exp))
    return cases


def complete_expectation(exp):
    """Fill in, once, the dims of a non-Koszul sweep case by integer
    elimination."""
    if "dims" not in exp:
        n, rows = exp["n"], exp["rows"]
        exp["dims"] = oracles.hilbert_dims(n, rows, SWEEP_N)
        exp["dual_dims"] = oracles.hilbert_dims(
            n, oracles.annihilator(n, rows), SWEEP_N)
    return exp


def find_non_koszul(seed=BASE_SEED):
    """Print random dense presentations (entries in -2..2) whose Euler
    identity fails by degree SWEEP_N: one on 2 generators with 2
    relations, one each on 3 generators with 3 and 4 relations."""
    rng = random.Random(seed)
    for n, m in ((2, 2), (3, 3), (3, 4)):
        while True:
            rows = [[rng.randrange(-2, 3) for _ in range(n * n)]
                    for _ in range(m)]
            dims = oracles.hilbert_dims(n, rows, SWEEP_N)
            dual = oracles.hilbert_dims(n, oracles.annihilator(n, rows),
                                        SWEEP_N)
            if dims[2] == n * n - m and not oracles.euler_holds(dims, dual):
                print(json.dumps({"n": n, "rows": rows, "dims": dims,
                                  "dual_dims": dual}))
                break


if __name__ == "__main__":
    import sys
    if sys.argv[1:] != ["--find-non-koszul"]:
        sys.exit("usage: python3 bench/inputs.py --find-non-koszul")
    find_non_koszul()
