"""Correctness oracles for the benchmark, computed apart from koszulkit.

Nothing here imports koszulkit.  Expected dimensions come from closed
forms, from counting normal words of a PBW presentation, or from this
module's own fraction-free integer elimination of the relation ideal.
`check_report` compares a koszulkit report with these answers and with
properties any correct report must have, and returns the problems found.

A presentation is (n, rows): n generators x1..xn and the relation rows,
each a list of n*n integers indexed by the word (a, b) -> a*n + b.
"""

from fractions import Fraction
from math import comb, gcd


# ---------------------------------------------------------------------------
# exact integer elimination

class Echelon:
    """Row echelon form over the integers, built one row at a time.

    Rows are dicts column -> nonzero int, kept primitive (gcd 1) so that
    entries stay small; a row is reduced by cross-multiplication, never
    by division, so the rank is exact."""

    def __init__(self):
        self.pivots = {}

    def add(self, row):
        """Reduce `row` against the basis; keep it if it is independent."""
        row = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                pivots[lead] = {c: v // g for c, v in row.items()}
                return True
            a, b = row[lead], prow[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            new = {c: v * b for c, v in row.items()}
            for c, v in prow.items():
                nv = new.get(c, 0) - a * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            row = new
        return False

    @property
    def rank(self):
        return len(self.pivots)


def ideal_dims(n, rows, N):
    """dim I_i for i = 0..N, I_i = sum_{a+b=i-2} V^a (x) R (x) V^b, grown
    as I_i = I_{i-1} (x) V + V^(i-2) (x) R."""
    rels = [{c: v for c, v in enumerate(r) if v} for r in rows]
    dims = [0] * (N + 1)
    prev = []
    for i in range(2, N + 1):
        ech = Echelon()
        for r in prev:
            for a in range(n):
                ech.add({c * n + a: v for c, v in r.items()})
        for u in range(n ** (i - 2)):
            base = u * n * n
            for r in rels:
                ech.add({base + c: v for c, v in r.items()})
        dims[i] = ech.rank
        prev = list(ech.pivots.values())
    return dims


def hilbert_dims(n, rows, N):
    """dim A_i = n^i - dim I_i for i = 0..N, by integer elimination."""
    return [n ** i - d for i, d in enumerate(ideal_dims(n, rows, N))]


def annihilator(n, rows):
    """Integer basis of R^perp in V* (x) V* under the word-by-word pairing
    (the quadratic dual's relations, up to reversing words)."""
    size = n * n
    basis = []                              # RREF rows over Fraction
    pivots = []
    for r in rows:
        v = [Fraction(x) for x in r]
        for p, b in zip(pivots, basis):
            if v[p]:
                c = v[p]
                v = [x - c * y for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        v = [x / v[lead] for x in v]
        for k, b in enumerate(basis):
            if b[lead]:
                c = b[lead]
                basis[k] = [x - c * y for x, y in zip(b, v)]
        basis.append(v)
        pivots.append(lead)
    out = []
    for f in range(size):
        if f in pivots:
            continue
        x = [Fraction(0)] * size
        x[f] = Fraction(1)
        for p, b in zip(pivots, basis):
            x[p] = -b[f]
        den = 1
        for y in x:
            den = den * y.denominator // gcd(den, y.denominator)
        out.append([int(y * den) for y in x])
    return out


def euler_failures(dims, dual_dims):
    """Degrees s where sum_j (-1)^j dim A!_j dim A_{s-j} is not 1 at
    s = 0 and 0 after: there the Koszul complex's strand has homology."""
    return [s for s in range(len(dims))
            if sum((-1) ** j * dual_dims[j] * dims[s - j]
                   for j in range(s + 1)) != (1 if s == 0 else 0)]


def euler_holds(dims, dual_dims):
    return not euler_failures(dims, dual_dims)


# ---------------------------------------------------------------------------
# PBW presentations: normal words and their counts

def leading_words(n, rows):
    """Leading 2-words of R: pivot columns of its echelon form, i.e. the
    largest word of each relation in deglex with x1 > x2 > ... > xn."""
    ech = Echelon()
    for r in rows:
        ech.add(dict(enumerate(r)))
    return sorted(ech.pivots)


def count_words(n, allowed, N):
    """Number of words of length i = 0..N whose adjacent pairs all lie in
    `allowed` (a set of 2-word indices a*n + b)."""
    if N == 0:
        return [1]
    ends = [1] * n
    out = [1, n]
    for _ in range(2, N + 1):
        ends = [sum(ends[a] for a in range(n) if a * n + b in allowed)
                for b in range(n)]
        out.append(sum(ends))
    return out[:N + 1]


def pbw_dims(n, rows, N):
    """(dims of A, dims of A!) to degree N when R has a quadratic Groebner
    basis (PBW), else None.

    A PBW algebra has the words avoiding the leading words L as a basis;
    its dual is PBW with the words made only of pairs from L (Priddy;
    Polishchuk-Positselski, Quadratic Algebras, ch. 4).  The Groebner
    basis is quadratic exactly when the overlaps resolve in degree 3,
    i.e. when dim A_3 equals the number of normal words of length 3."""
    lead = set(leading_words(n, rows))
    normal = set(range(n * n)) - lead
    dims = count_words(n, normal, max(N, 3))
    if n ** 3 - ideal_dims(n, rows, 3)[3] != dims[3]:
        return None
    return dims[:N + 1], count_words(n, lead, N)


# ---------------------------------------------------------------------------
# closed forms for the fixtures

def sym_dims(n, N):
    return [comb(n + i - 1, i) for i in range(N + 1)]


def ext_dims(n, N):
    return [comb(n, i) for i in range(N + 1)]


def dual_numbers_dims(N):
    return [1, 1][:N + 1] + [0] * max(0, N - 1)


def polynomial_1_dims(N):
    return [1] * (N + 1)


def takiff_pbw_dims(k, D):
    """PBW counts for U of the Takiff algebra g + V, dim V = k, graded by
    V-degree: symmetric powers (even) and exterior powers (super)."""
    return ([comb(k + d - 1, d) for d in range(D + 1)],
            [comb(k, d) for d in range(D + 1)])


# ---------------------------------------------------------------------------
# report checks

def _ints(xs):
    return [int(x) for x in xs]


def check_report(report, code, exp):
    """Problems found in one report (an empty list when it is correct).

    `exp` holds: N, checks (in run order), sha256 {presentation, action},
    dims, dual_dims, koszul (bool), and optionally first_failure_degree,
    takiff (even, super) dims or None, modules (names)."""
    bad = []

    def need(cond, what):
        if not cond:
            bad.append(what)

    N = exp["N"]
    need(report.get("schema") == "koszulkit/1", "schema")
    inp = report.get("inputs", {})
    need(inp.get("max_degree") == N, "max_degree")
    need(inp.get("checks") == exp["checks"], "checks run")
    need(inp.get("presentation", {}).get("sha256")
         == exp["sha256"]["presentation"], "presentation sha256")
    act = inp.get("action")
    need((act or {}).get("sha256") == exp["sha256"].get("action"),
         "action sha256")
    checks = report.get("checks", {})
    need(sorted(checks) == sorted(exp["checks"]), "check set")
    if bad:
        return bad

    euler_bad = euler_failures(exp["dims"], exp["dual_dims"])
    euler = not euler_bad
    need(euler or not exp["koszul"], "oracle: Koszul but Euler fails")
    statuses = {}
    for name, entry in checks.items():
        statuses[name] = entry.get("status")
        det = entry.get("details", {})
        if name == "hilbert":
            need(_ints(det.get("algebra_dims", [])) == exp["dims"],
                 "hilbert: algebra dims")
            need(_ints(det.get("koszul_subspace_dims", []))
                 == exp["dual_dims"], "hilbert: dim K_i != dim A!_i")
            need(det.get("euler_identity") is euler, "hilbert: euler flag")
            need(entry["status"] == ("pass" if euler else "fail"),
                 "hilbert: status")
        elif name == "dual":
            need(_ints(det.get("dual_dims", [])) == exp["dual_dims"],
                 "dual: dims")
            need(det.get("double_dual_recovers_relations") is True,
                 "dual: double dual")
            need(det.get("dim_K_matches_dual") is True, "dual: K vs dual")
            need(entry["status"] == "pass", "dual: status")
        elif name == "koszul":
            ok = det.get("koszul_up_to_N")
            per = det.get("per_degree", {})
            need(ok is exp["koszul"], "koszul: verdict")
            need(sorted(per) == [str(s) for s in range(N + 1)],
                 "koszul: degrees")
            need(ok is all(per.values()), "koszul: per-degree vs verdict")
            ff = det.get("first_failure")
            if exp["koszul"]:
                need(ff is None, "koszul: spurious failure")
            else:
                # quadratic algebras are exact in internal degree <= 3
                need(ff is not None and ff[1] >= 4, "koszul: failure < 4")
                want = exp.get("first_failure_degree")
                need(want is None or (ff is not None and ff[1] == want),
                     "koszul: first failing degree")
                need(all(per.get(str(s)) is False for s in euler_bad),
                     "koszul: exact where the Euler identity fails")
            need(entry["status"] == "pass", "koszul: status")
        elif name == "validate":
            need(entry["status"] == "pass", "validate: status")
        elif name == "smash":
            need(entry["status"] == "pass"
                 and det.get("right_smash_associative") is True
                 and det.get("dual_smash_associative") is True,
                 "smash: associativity")
        elif name == "takiff":
            want = exp.get("takiff")
            if want is None:
                need(entry["status"] == "skipped", "takiff: not skipped")
            else:
                need(det.get("even_graded_dims") == want[0]
                     and det.get("super_graded_dims") == want[1]
                     and det.get("even_jacobi") is True
                     and det.get("super_jacobi") is True
                     and entry["status"] == "pass", "takiff: PBW dims")
        elif name == "duality":
            mods = det.get("modules", {})
            need(sorted(mods) == sorted(exp["modules"]), "duality: modules")
            degrees = [str(s) for s in range(1, N)]
            for m in mods.values():
                for key in ("per_degree_injective", "per_degree_projective",
                            "per_degree_koszul_complex"):
                    per = m.get(key, {})
                    need(sorted(per) == degrees
                         and all(v is exp["koszul"] for v in per.values()),
                         "duality: %s" % key)
                need(m.get("verdict") is exp["koszul"], "duality: verdict")
                need(m.get("h0_isomorphic_to_module") is True
                     and m.get("socle_identification") is True
                     and m.get("top_identification") is True,
                     "duality: identifications")
            need(entry["status"] == "pass", "duality: status")
        elif name == "roundtrip":
            mods = det.get("modules", {})
            need(sorted(mods) == sorted(exp["modules"]), "roundtrip: modules")
            for m in mods.values():
                for side in ("injective_side", "projective_side"):
                    need(m.get(side) and all(v is True
                                             for v in m[side].values()),
                         "roundtrip: %s" % side)
                need(m.get("cells_A") == m.get("cells_B") and
                     isinstance(m.get("cells_A"), int) and
                     m["cells_A"] > 0, "roundtrip: cells")
            need(entry["status"] == "pass", "roundtrip: status")
    overall = "pass" if all(s in ("pass", "skipped")
                            for s in statuses.values()) else "fail"
    need(report.get("verdict") == overall, "verdict")
    need(code == (0 if overall == "pass" else 1), "exit code")
    return bad
