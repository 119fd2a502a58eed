"""koszulkit: exact rational toolkit for quadratic algebras and Koszul duality.

Submodules:
  exactlin  -- exact int-or-Fraction matrices, canonical (RREF) subspaces,
               kernels, kron
  graded    -- graded spaces, bigraded complexes, homology with windows
  quadratic -- quadratic algebras, the presentation-file parser, the
               standard presentations (sym_/ext_/free_presentation),
               duals, Koszul complexes, contractions
  action    -- bialgebras, Lie actions, the action-file parser, module
               algebras, smash products, the trivial acting object k
  duality   -- I/P complexes, socle/top complexes, identifications, round trips
  fixtures  -- the built-in inputs as JSON data, and the objects parsed from
               it
  cli       -- `koszulkit check | fixtures | report-diff`: the front door
               (parser, exit codes, fixtures, report-diff); imports check
               only for the check command
  check     -- the check pipeline: inputs, the checks, the report
"""

__version__ = "0.1.0"
