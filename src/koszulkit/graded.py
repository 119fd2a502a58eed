"""Graded vector spaces and bigraded complexes over the rationals.

A BigradedComplex is indexed by homological degree r and internal degree s;
its differential raises r by one and fixes s.  Every complex carries a finite
window of materialized cells: homology at a cell is only *asserted* when both
homological neighbours are materialized, otherwise the cell is reported as
indeterminate and excluded from exactness verdicts.

Differentials are opaque matrices here; any sign bookkeeping is the business
of the constructors in the quadratic/duality modules.
"""

from __future__ import annotations

from koszulkit.exactlin import Mat, rank


class GradedSpace:
    """Integer-graded space with a finite window of materialized degrees.

    Degrees outside the window are unknown (distinct from dimension 0 inside).
    """

    def __init__(self, components, window, labels=None):
        self.window = (int(window[0]), int(window[1]))
        self.components = {}
        for s in range(self.window[0], self.window[1] + 1):
            self.components[s] = int(components.get(s, 0))
        self.labels = dict(labels) if labels else {}

    def dim(self, s):
        if not self.window[0] <= s <= self.window[1]:
            raise KeyError("degree %d outside materialized window %s"
                           % (s, self.window))
        return self.components[s]

    def shift(self, r):
        """Degree shift: component i of the result is component i + r."""
        lo, hi = self.window
        comps = {s - r: d for s, d in self.components.items()}
        labels = {s - r: v for s, v in self.labels.items()}
        return GradedSpace(comps, (lo - r, hi - r), labels)

    def __eq__(self, other):
        return (isinstance(other, GradedSpace)
                and self.window == other.window
                and self.components == other.components)

    def __repr__(self):
        return "GradedSpace(%r, window=%r)" % (self.components, self.window)


def hilbert(g, N):
    """[dim g_0, ..., dim g_N]; requires the window to cover [0, N]."""
    if g.window[0] > 0 or g.window[1] < N:
        raise ValueError("window %s does not cover [0, %d]" % (g.window, N))
    return [g.dim(s) for s in range(N + 1)]


class BigradedComplex:
    """Finite rectangle of components with differentials (r,s) -> (r+1,s).

    components: dict (r,s) -> dimension; missing cells inside the window
    default to 0.  differentials: dict (r,s) -> Mat with cols = dim(r,s)
    and rows = dim(r+1,s); missing maps default to zero.
    """

    def __init__(self, r_range, s_range, components, differentials,
                 labels=None):
        self.r_range = (int(r_range[0]), int(r_range[1]))
        self.s_range = (int(s_range[0]), int(s_range[1]))
        self.components = {}
        for r in range(self.r_range[0], self.r_range[1] + 1):
            for s in range(self.s_range[0], self.s_range[1] + 1):
                self.components[(r, s)] = int(components.get((r, s), 0))
        self.differentials = {}
        for (r, s), m in differentials.items():
            assert self.in_window(r, s) and self.in_window(r + 1, s), (r, s)
            assert m.cols == self.dim(r, s) and m.rows == self.dim(r + 1, s), \
                (r, s, m.rows, m.cols, self.dim(r, s), self.dim(r + 1, s))
            self.differentials[(r, s)] = m
        self.labels = dict(labels) if labels else {}

    def in_window(self, r, s):
        return (self.r_range[0] <= r <= self.r_range[1]
                and self.s_range[0] <= s <= self.s_range[1])

    def dim(self, r, s):
        return self.components.get((r, s), 0)

    def d(self, r, s):
        m = self.differentials.get((r, s))
        if m is None:
            m = Mat.zeros(self.dim(r + 1, s), self.dim(r, s))
        return m

    def cell_valid(self, r, s):
        """True when both homological neighbours are materialized."""
        return self.in_window(r - 1, s) and self.in_window(r + 1, s)

    def cells(self):
        for s in range(self.s_range[0], self.s_range[1] + 1):
            for r in range(self.r_range[0], self.r_range[1] + 1):
                yield r, s


def check_d_squared(c):
    """(True, None) or (False, (r, s)) at the first nonzero composite."""
    for r, s in c.cells():
        if r + 2 > c.r_range[1]:
            continue
        d1 = c.differentials.get((r, s))
        d2 = c.differentials.get((r + 1, s))
        if d1 is None or d2 is None:
            continue
        if not (d2 @ d1).is_zero():
            return False, (r, s)
    return True, None


class HomologyReport:
    """Per-cell kernel/image/homology dimensions with validity flags."""

    def __init__(self, cells):
        self.cells = cells  # dict (r,s) -> dict(ker=, im=, dim=, valid=)

    def dim(self, r, s):
        return self.cells[(r, s)]["dim"]

    def valid(self, r, s):
        return self.cells[(r, s)]["valid"]

    def nonzero_valid_cells(self):
        return sorted((r, s) for (r, s), c in self.cells.items()
                      if c["valid"] and c["dim"] != 0)

    def to_json_obj(self):
        return {"cells": [
            {"r": r, "s": s, "ker": c["ker"], "im": c["im"],
             "dim": c["dim"], "valid": c["valid"]}
            for (r, s), c in sorted(self.cells.items(),
                                    key=lambda kv: (kv[0][1], kv[0][0]))]}


class DSquaredError(ValueError):
    """A differential that does not square to zero; where = (r, s) of the
    first cell at which d o d is nonzero."""

    def __init__(self, where):
        super().__init__("differential does not square to zero at %r"
                         % (where,))
        self.where = where


def homology(c):
    """Homology dimensions of every cell; raises DSquaredError unless
    d squared == 0."""
    ok, where = check_d_squared(c)
    if not ok:
        raise DSquaredError(where)
    ranks = {key: rank(m) for key, m in c.differentials.items()}
    cells = {}
    for r, s in c.cells():
        dim_here = c.dim(r, s)
        rk_out = ranks.get((r, s), 0)
        rk_in = ranks.get((r - 1, s), 0)
        ker = dim_here - rk_out
        h = ker - rk_in
        assert h >= 0, (r, s, ker, rk_in)
        cells[(r, s)] = {"ker": ker, "im": rk_in, "dim": h,
                         "valid": c.cell_valid(r, s)}
    return HomologyReport(cells)

