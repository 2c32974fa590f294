"""Tolerances, one name per decision; relative ones multiply the scale
their check names.

fuchsian, weylops, serialize and cli import them from here.  The module
needs nothing beyond the language, so the CLI can build its option
defaults before it loads any matrix code.
"""

DEFAULT_TOL = 1e-9      # verify(): worst char-poly distance a witness may show
MINPOLY_TOL = 1e-9      # verify(): minimal-polynomial residual (semisimplicity)
ORBIT_TOL = 1e-8        # floor for orbits, whose witnesses lose digits near walls
BALANCE_TOL = 3e-2      # balance(): |sum [A, A^H]| below this share of sum |A|^2
SUM_TOL = 1e-10         # a document's residues sum to nu * Id (share of their total norm)
ZERO_CUTOFF = 1e-6      # eigen/singular values below this share of the largest are 0
MAX_TOL = ZERO_CUTOFF   # largest tol a document may set: it is also lift's rank cutoff
PAIRING_FLOOR = 1e-8    # smallest overlap |w.v| of a Schlesinger projector
GAUGE_TOL = 1e-8        # gauge check at test points (share of the residues' norm)
POLISH_TRIGGER = 1e-9   # drift after a Schlesinger move that forces re-anchoring
POLISH_ACCEPT = 1e-11   # re-anchoring Gauss-Newton goal and acceptance (fit scale)
DRIFT_GUARD = 5e-7      # translate: worst orbit drift of a state after a move
FIT_TOL = 2e-11         # sampler fit residual (fit scale)
DECREASE_SHARE = 1e-4   # Gauss-Newton: a step t must cut the residual by this share of t
RADIUS_FLOOR = 1e-6     # Gauss-Newton: a fit stops once its trust radius is below this
SPAN_TOL = 1e-9         # a word extends the generated algebra (relative norm)
ROOT_MARGIN = 0.05      # sampled lam: every root pairing this far from zero
INTEGER_MARGIN = 0.02   # sampled lam: eigenvalue differences this far from integers
SIG_LEN_MAX = 8         # longest signature words (length L traces m + ... + m^L words)
STEPS_MAX = 10_000      # most orbit steps; every row is built before any is written
MU_NORM_MAX = 32        # largest sum |mu_i| of an orbit vector; bounds its move plans
