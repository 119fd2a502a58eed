"""koszulkit: exact rational toolkit for quadratic algebras and Koszul duality.

Submodules:
  exactlin  -- exact int-or-Fraction matrices, canonical (RREF) subspaces,
               kernels, kron
  graded    -- graded spaces, bigraded complexes, homology with windows
  quadratic -- quadratic algebras, duals, Koszul complexes, contractions
  action    -- bialgebras, Lie actions, module algebras, smash products
  duality   -- I/P complexes, socle/top complexes, identifications, round trips
  fixtures  -- built-in presentations, actions and modules used by the CLI/tests
  cli       -- `koszulkit check | fixtures | report-diff`
"""

__version__ = "0.1.0"
