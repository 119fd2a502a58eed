"""Bigraded complexes over the rationals and their homology.

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


class BigradedComplex:
    """Finite rectangle of components with differentials (r,s) -> (r+1,s).

    components: dict (r,s) -> dimension; missing cells inside the window
    default to 0.  differentials: dict (r,s) -> Mat with cols = dim(r,s)
    and rows = dim(r+1,s); missing maps default to zero.  The
    differentials are not replaced once the complex is built, so
    check_d_squared keeps its verdict on it.
    """

    def __init__(self, r_range, s_range, components, differentials):
        self.r_range = (int(r_range[0]), int(r_range[1]))
        self.s_range = (int(s_range[0]), int(s_range[1]))
        self.components = {}
        for r in range(self.r_range[0], self.r_range[1] + 1):
            for s in range(self.s_range[0], self.s_range[1] + 1):
                self.components[(r, s)] = int(components.get((r, s), 0))
        self.differentials = {}
        for (r, s), m in differentials.items():
            if not (self.in_window(r, s) and self.in_window(r + 1, s)):
                raise ValueError("the differential at %r leaves the window "
                                 "%r x %r" % ((r, s), self.r_range,
                                              self.s_range))
            if (m.rows, m.cols) != (self.dim(r + 1, s), self.dim(r, s)):
                raise ValueError("the differential at %r is %d x %d, not "
                                 "%d x %d" % ((r, s), m.rows, m.cols,
                                              self.dim(r + 1, s),
                                              self.dim(r, s)))
            self.differentials[(r, s)] = m
        self._d_squared = None

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
    """(True, None) or (False, (r, s)) at the first nonzero composite;
    computed once per complex and then read from it."""
    if c._d_squared is None:
        c._d_squared = (True, None)
        for r, s in c.cells():
            d1 = c.differentials.get((r, s))
            d2 = c.differentials.get((r + 1, s))
            if d1 is not None and d2 is not None \
                    and not (d2 @ d1).is_zero():
                c._d_squared = (False, (r, s))
                break
    return c._d_squared


class HomologyReport:
    """Per-cell homology dimensions with validity flags."""

    def __init__(self, cells):
        self.cells = cells  # dict (r,s) -> dict(dim=, valid=)

    def dim(self, r, s):
        return self.cells[(r, s)]["dim"]

    def valid(self, r, s):
        return self.cells[(r, s)]["valid"]


class DSquaredError(ValueError):
    """A differential that does not square to zero; where = (r, s) of the
    first cell at which d o d is nonzero, and the message names the
    differential."""

    def __init__(self, where, what="differential does not square to zero"):
        super().__init__("%s at %r" % (what, where))
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
        if h < 0:
            raise ValueError("the image at %r has rank %d, above the kernel "
                             "dimension %d" % ((r, s), rk_in, ker))
        cells[(r, s)] = {"dim": h, "valid": c.cell_valid(r, s)}
    return HomologyReport(cells)

