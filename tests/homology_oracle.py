"""Readings of homology that no check runs, kept with the tests that use
them: the nonzero cells of a homology report, and the vanishing of a
duality complex's homology on its boundary diagonal."""

from koszulkit.graded import homology


def nonzero_valid_cells(rep):
    """The cells (r, s) of a HomologyReport whose homology is known and
    nonzero, sorted."""
    return sorted((r, s) for (r, s), c in rep.cells.items()
                  if c["valid"] and c["dim"] != 0)


def diagonal_vanishing(dcx):
    """Vanishing of the homology of a DualityComplex on the boundary
    diagonal: for the injective side H_r at internal degree -r (r > 0),
    for the projective side H_{-r} at internal degree r (r > 0).  Returns
    (True, None) or (False, (r, s)) at the first cell that fails."""
    rep = homology(dcx.cx)
    sign = 1 if dcx.kind in ("I", "socI") else -1
    for (r, s) in dcx.cx.cells():
        if r * sign <= 0 or s != -r:
            continue
        if not rep.valid(r, s) or not dcx.is_complete(r, s):
            continue
        if rep.dim(r, s) != 0:
            return False, (r, s)
    return True, None
